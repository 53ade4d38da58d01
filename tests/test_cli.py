import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meetpd import cli, meetmatrix, pdcheck
from meetpd.arith import MAX_EXPONENT, builtin, pd_check_grid
from meetpd.cli import main
from meetpd.errors import EvaluationError, ExponentLimitError
from meetpd.incidence import SLACK_BITS, inverted_values
from meetpd.meetmatrix import Decomposition
from meetpd.pdcheck import POSITIVE
from meetpd.posets import (
    MAX_ARITY,
    MAX_HASSE_ELEMENTS,
    DivisorLattice,
    MinLattice,
    Poset,
    ProductSubset,
    divisor_lattice,
    lattice_power,
    load_hasse,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_matrix_lcm_grid_json(capsys, tmp_path):
    out = tmp_path / "m.json"
    code, _, _ = run(capsys, "matrix", "--family", "divisor", "--d", "2",
                     "--fn", "lcm_pow:1", "--m", "2", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    assert doc["entries"] == [
        ["1", "1", "1", "1"],
        ["1", "2", "1", "2"],
        ["1", "1", "2", "2"],
        ["1", "2", "2", "2"],
    ]
    assert doc["labels"] == [[1, 1], [1, 2], [2, 1], [2, 2]]


def test_matrix_bound_one(capsys):
    code, out, _ = run(capsys, "matrix", "--family", "divisor", "--d", "2",
                       "--fn", "lcm_pow:1", "--m", "1", "--format", "csv")
    assert code == 0
    assert out.strip() == "1"


def test_matrix_gcd_csv(capsys):
    code, out, _ = run(capsys, "matrix", "--fn", "gcd_pow:1", "--d", "1",
                       "--m", "4", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines() == ["1,1,1,1", "1,2,1,2", "1,1,3,1", "1,2,1,4"]


def test_check_ramanujan_exits_one_with_witness(capsys):
    code, out, _ = run(capsys, "check", "--fn", "ramanujan_C", "--m", "6")
    assert code == 1
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["verdict"] == "not_positive_definite"
    assert doc["witness"]["kind"] == "element"
    assert doc["witness"]["element"] == [1, 2]
    assert doc["witness"]["value"] == "-2"


def test_check_zeta_positive(capsys):
    code, out, _ = run(capsys, "check", "--fn", "zeta_d", "--d", "2", "--m", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "positive_definite_on_tested_covering"
    assert doc["tested_bound"] == 6


def test_check_gcd_positive(capsys):
    code, out, _ = run(capsys, "check", "--fn", "gcd_pow:1", "--d", "1", "--m", "20")
    assert code == 0


def test_check_min_family(capsys):
    code, out, _ = run(capsys, "check", "--family", "min", "--fn", "zeta_d",
                       "--d", "2", "--m", "4")
    assert code == 0


def test_decompose_lcm_has_negative_diag(capsys, tmp_path):
    out = tmp_path / "dec.json"
    code, _, _ = run(capsys, "decompose", "--family", "divisor", "--d", "2",
                     "--fn", "lcm_pow:1", "--m", "2", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["reconstruction_residual"] == "0"
    diag = [json.loads(v) if "/" not in v else None for v in doc["diag"]]
    assert any(v is not None and v < 0 for v in diag)
    assert doc["schema"] == 2
    assert doc["order_map"] == {"shape": [2, 2]}
    # the flat diagonal runs over the multi-indices in lexicographic order
    expected = list(inverted_values(builtin("lcm_pow", alpha=1, d=2),
                                    divisor_lattice(2).covering_set(2)))
    labels = doc["factor_labels"]
    multis = itertools.product(*map(range, doc["order_map"]["shape"]))
    assert [tuple(labels[t][i] for t, i in enumerate(multi)) for multi in multis] == [
        x for x, _ in expected]
    assert doc["diag"] == [str(v) for _, v in expected]


def test_tol_flag_is_gone():
    with pytest.raises(SystemExit) as info:
        main(["check", "--fn", "gcd_pow:1", "--m", "3", "--tol", "1e-9"])
    assert info.value.code == 2


def test_check_out_writes_the_bytes_stdout_had(capsys, tmp_path):
    out = tmp_path / "v.json"
    argv = ("check", "--fn", "ramanujan_C", "--m", "6")
    code, stdout, _ = run(capsys, *argv)
    assert run(capsys, *argv, "--out", str(out)) == (code, "", "")
    assert out.read_bytes() == stdout.encode("utf-8")


@pytest.mark.parametrize("argv", [
    ["check", "--fn", "zeta_d", "--m", "3", "--format", "csv"],
    ["grid", "--fn", "zeta_d"],
    ["grid", "--hasse", "lattice.txt"],
    ["grid", "--format", "json"],
], ids=["check_format", "grid_fn", "grid_hasse", "grid_format"])
def test_flags_a_command_never_reads_are_not_registered(argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2


def test_decompose_bound_one(capsys):
    code, out, _ = run(capsys, "decompose", "--family", "divisor", "--d", "2",
                       "--fn", "lcm_pow:1", "--m", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["diag"] == ["1"]


def test_decompose_totients(capsys):
    code, out, _ = run(capsys, "decompose", "--family", "divisor", "--d", "1",
                       "--fn", "gcd_pow:1", "--m", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["diag"] == ["1", "1", "2", "2"]


def test_decompose_builds_each_order_indicator_once(capsys, monkeypatch):
    calls = []
    indicator = meetmatrix._indicator
    monkeypatch.setattr(meetmatrix, "_indicator", lambda s: calls.append(s) or indicator(s))
    assert main(["decompose", "--d", "2", "--fn", "gcd_pow:1", "--m", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["reconstruction_residual"] == "0"
    assert len(calls) == 2  # one per factor, for the document; reconstruct builds none
    assert doc["factors"][0] == [[1, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [1, 1, 0, 1]]


def test_grid_divisor(capsys):
    code, out, _ = run(capsys, "grid", "--family", "divisor", "--m", "10")
    assert code == 0
    rows = {tuple(line.split(",")[:2]): line.split(",")[2] for line in out.strip().splitlines()}
    assert rows[("2", "3")] == "4"
    assert rows[("1", "1")] == "1"
    assert len(rows) == 100


def test_grid_min(capsys):
    code, out, _ = run(capsys, "grid", "--family", "min", "--m", "10")
    assert code == 0
    rows = {tuple(line.split(",")[:2]): line.split(",")[2] for line in out.strip().splitlines()}
    assert rows[("2", "3")] == "6"
    assert rows[("1", "1")] == "1"


def test_grid_rejects_other_arity(capsys):
    code, _, err = run(capsys, "grid", "--family", "divisor", "--d", "3", "--m", "4")
    assert code == 2
    assert "two-dimensional" in err


def test_bad_family_rejected_by_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["matrix", "--family", "nope", "--fn", "zeta_d", "--m", "2"])
    assert exc.value.code == 2


def test_zero_bound_is_config_error(capsys):
    code, _, err = run(capsys, "check", "--fn", "zeta_d", "--m", "0")
    assert code == 2
    assert "error" in err


def test_unknown_builtin_is_config_error(capsys):
    code, _, err = run(capsys, "check", "--fn", "bogus", "--m", "2")
    assert code == 2


def test_bad_parameter_is_config_error(capsys):
    code, _, err = run(capsys, "check", "--fn", "gcd_pow:x", "--m", "2")
    assert code == 2


def test_hasse_and_family_conflict(capsys, tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("elem a\n")
    code, _, err = run(capsys, "check", "--hasse", str(path), "--family", "min",
                       "--fn", "zeta_d", "--m", "1")
    assert code == 2


def test_missing_table_point_is_eval_error(capsys, tmp_path):
    table = tmp_path / "t.csv"
    table.write_text("2,3\n3,5\n")  # no value at the meet 1
    code, _, err = run(capsys, "matrix", "--fn", f"@{table}", "--d", "1", "--m", "3")
    assert code == 3
    assert "evaluation error" in err


@pytest.mark.parametrize("d, m, text, missing", [
    ("1", "6", "1,1\n4,2\n5,3\n6,5\n", "2"),  # 2 and 3 are missing below 6
    ("2", "2", "1,1,1\n2,2,4\n", "(1, 2)"),   # (1, 2) and (2, 1) are missing below (2, 2)
])
def test_check_names_the_first_missing_value_in_member_order(capsys, tmp_path, d, m, text,
                                                             missing):
    table = tmp_path / "t.csv"
    table.write_text(text)
    code, out, err = run(capsys, "check", "--fn", f"@{table}", "--d", d, "--m", m)
    assert (code, out) == (3, "")
    assert err == f"evaluation error: @{table} has no value at {missing}\n"


# f = 1 except f(zero) = 0, so the first negative inverted value is -1 at
# zero; the table has no value at missing.  Blocks: one member at d = 1,
# the slabs (a, *) of the first coordinate at d = 2.
@pytest.mark.parametrize("d, m, zero, missing, code", [
    (1, 12, 5, 7, 1),                 # gap after the witness
    (1, 12, 5, 12, 1),                # gap after the witness, at the last member
    (1, 12, 5, 4, 3),                 # gap just before the witness
    (1, 12, 5, 3, 3),                 # gap before any negative
    (2, 4, (1, 2), (1, 4), 1),        # gap after the witness, in its slab
    (2, 4, (1, 2), (3, 1), 1),        # gap after the witness, in a later slab
    (2, 4, (1, 3), (1, 2), 3),        # gap before any negative, in the witness's slab
    (2, 4, (2, 1), (1, 3), 3),        # gap before any negative, in an earlier slab
])
def test_check_reports_a_negative_before_a_gap_and_a_gap_before_a_negative(
        capsys, tmp_path, d, m, zero, missing, code):
    coords = (lambda x: [x]) if d == 1 else list
    points = range(1, m + 1) if d == 1 else itertools.product(range(1, m + 1), repeat=d)
    table = tmp_path / "t.csv"
    table.write_text("".join(",".join(map(str, coords(x) + [int(x != zero)])) + "\n"
                             for x in points if x != missing))
    got, out, err = run(capsys, "check", "--fn", f"@{table}", "--d", str(d), "--m", str(m))
    assert got == code
    if code == 1:
        witness = json.loads(out)["witness"]
        assert witness["element"] == (zero if d == 1 else list(zero))
        assert witness["value"] == "-1"
    else:
        assert err == f"evaluation error: @{table} has no value at {missing}\n"


def _primes(n):
    """The first n primes."""
    size = 64
    while True:
        sieve = bytearray([0, 0]) + bytearray([1]) * (size - 2)
        for i in range(2, math.isqrt(size) + 1):
            if sieve[i]:
                sieve[i * i::i] = bytes(len(range(i * i, size, i)))
        primes = [i for i, flag in enumerate(sieve) if flag]
        if len(primes) >= n:
            return primes[:n]
        size *= 2


def _bits(v):
    return max(abs(v.numerator).bit_length(), v.denominator.bit_length())


# positive tables (so the whole covering is scanned) whose denominators are
# many distinct primes, or 1..m; one common denominator across members would
# be thousands of bits long
@pytest.mark.parametrize("d, m, value", [
    (1, 3000, lambda x, p: x - Fraction(1, p)),
    (1, 3000, lambda x, p: 1 - Fraction(1, x)),
    (2, 120, lambda x, p: 3 * x[0] * x[1] - Fraction(1, p)),
], ids=["primes-d1", "reciprocals-d1", "primes-d2"])
def test_check_keeps_values_short_on_tables_with_many_denominators(
        capsys, tmp_path, monkeypatch, d, m, value):
    points = list(range(1, m + 1) if d == 1 else itertools.product(range(1, m + 1), repeat=d))
    table = tmp_path / "t.csv"
    table.write_text("".join(",".join(map(str, [*(x if d > 1 else [x]), value(x, p)])) + "\n"
                             for x, p in zip(points, _primes(len(points)))))
    widest = []
    blocks = pdcheck.inverted_blocks

    def recorded(f, s):
        for xs, values, den in blocks(f, s):
            widest.append(max(map(_bits, [*values, den])))
            yield xs, values, den

    monkeypatch.setattr(pdcheck, "inverted_blocks", recorded)
    code, out, _ = run(capsys, "check", "--family", "min", "--d", str(d),
                       "--fn", f"@{table}", "--m", str(m))
    assert code == 0 and json.loads(out)["verdict"] == POSITIVE
    # one block per doubling run of the m first-axis slabs: 1, 1, 2, 4, ... slabs
    assert len(widest) == (m - 1).bit_length() + 1
    # at most the slack over two rows' worth of denominators
    assert max(widest) <= 2 * (SLACK_BITS + 64)


def test_check_on_a_fractional_gcd_power_is_never_negative(capsys):
    # gcd^a is positive definite for every a >= 0; at 90 the true inverted
    # value is (2^a - 1) 3^a (3^a - 1) (5^a - 1), about +1.2e-18 here
    code, _, _ = run(capsys, "check", "--fn", "gcd_pow:1/1000000", "--m", "90")
    assert code != 1


EXPONENTS = st.one_of(st.integers(-4, 4).map(str),
                      st.tuples(st.integers(-6, 6), st.integers(1, 6)).map("{0[0]}/{0[1]}".format),
                      st.sampled_from(["", "1/0", "x", "0.5", "1e3"]))


@st.composite
def builtin_specs(draw):
    """A --fn builtin spec and its exponent (None unless it is a number)."""
    name = draw(st.sampled_from(["gcd_pow", "lcm_pow", "zeta_d", "delta_d", "mu_d",
                                 "divisor_count", "ramanujan_C", "no_such_builtin"]))
    powers = name.endswith("_pow")
    param = draw(EXPONENTS if powers else st.sampled_from(["", "", "", "2"]))
    try:
        alpha = Fraction(param)
    except (ValueError, ZeroDivisionError):
        alpha = None
    return f"{name}:{param}" if param else name, alpha


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["check", "matrix", "decompose"]), builtin_specs(),
       st.one_of(st.none(), st.integers(1, 3)), st.integers(1, 12),
       st.sampled_from(["divisor", "min"]))
def test_a_builtin_spec_exits_with_a_known_code_and_no_traceback(command, spec, d, m, family):
    fn, alpha = spec
    argv = [command, "--family", family, "--fn", fn, "--m", str(m),
            *(["--d", str(d)] if d else [])]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage error
            code = exc.code
    assert code in (0, 1, 2, 3) and "Traceback" not in err.getvalue()
    if fn.startswith("gcd_pow") and family == "divisor" and alpha is not None and alpha >= 0:
        assert code != 1  # gcd^a is positive definite on divisors for every a >= 0


def test_round_trip_matrix_to_check(capsys, tmp_path):
    out = tmp_path / "m.json"
    code, _, _ = run(capsys, "matrix", "--family", "divisor", "--d", "2",
                     "--fn", "ramanujan_C", "--m", "4", "--out", str(out))
    assert code == 0
    direct_code, direct_out, _ = run(capsys, "check", "--fn", "ramanujan_C", "--m", "4")
    table_code, table_out, _ = run(capsys, "check", "--fn", f"@{out}", "--m", "4")
    assert direct_code == table_code == 1
    direct = json.loads(direct_out)
    via_table = json.loads(table_out)
    assert via_table["verdict"] == direct["verdict"]
    assert via_table["witness"]["element"] == direct["witness"]["element"]
    assert via_table["witness"]["value"] == direct["witness"]["value"]


def test_round_trip_positive_case(capsys, tmp_path):
    out = tmp_path / "m.json"
    run(capsys, "matrix", "--family", "divisor", "--d", "1",
        "--fn", "gcd_pow:1", "--m", "6", "--out", str(out))
    direct_code, _, _ = run(capsys, "check", "--fn", "gcd_pow:1", "--d", "1", "--m", "6")
    table_code, _, _ = run(capsys, "check", "--fn", f"@{out}", "--m", "6")
    assert direct_code == table_code == 0


def test_hasse_matrix_with_table(capsys, tmp_path):
    hasse = tmp_path / "diamond.txt"
    hasse.write_text(
        "elem bot\nelem a\nelem b\nelem top\n"
        "edge bot a\nedge bot b\nedge a top\nedge b top\n"
    )
    table = tmp_path / "vals.csv"
    table.write_text("bot,1\na,2\nb,3\ntop,6\n")
    code, out, _ = run(capsys, "matrix", "--hasse", str(hasse),
                       "--fn", f"@{table}", "--m", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "1,1,1,1"
    assert lines[1] == "1,2,1,2"
    assert lines[2] == "1,1,3,3"
    assert lines[3] == "1,2,3,6"


@pytest.mark.parametrize("name, text", [
    ("t.csv", "1,1\n2,3\n"),
    ("m.json", '{"kind": "meet_matrix", "labels": [1, 2], "entries": [["1", "1"], ["1", "3"]]}'),
], ids=["csv", "json"])
def test_hasse_with_numeric_ids_takes_a_value_table(capsys, tmp_path, name, text):
    # Hasse ids are strings, so the table's ids must be matched as strings
    hasse = tmp_path / "chain.txt"
    hasse.write_text("elem 1\nelem 2\nedge 1 2\n")
    table = tmp_path / name
    table.write_text(text)
    code, out, _ = run(capsys, "check", "--hasse", str(hasse), "--fn", f"@{table}", "--m", "1")
    assert code == 0
    assert json.loads(out)["verdict"] == POSITIVE


def test_hasse_family_declaration(capsys, tmp_path):
    fam = tmp_path / "fam.txt"
    fam.write_text("family divisor d=2\n")
    code, out, _ = run(capsys, "check", "--hasse", str(fam), "--fn", "zeta_d",
                       "--d", "2", "--m", "3")
    assert code == 0


# case: (file passed as --fn @file, its text; None writes no file); the
# three cases without a file run matrix into a missing directory, decompose
# on a float exponent and check on an exponent with a zero denominator
HOSTILE_INPUTS = {
    "missing_table": ("t.csv", None),
    "cell_not_rational": ("t.csv", "1,1\n2,two\n"),
    "json_not_json": ("m.json", "{not json"),
    "json_without_labels": ("m.json", '{"kind": "meet_matrix"}'),
    "json_mixed_label_lengths": (
        "m.json", '{"kind": "meet_matrix", "labels": [[1, 1], [2]], "entries": [["1"], ["1", "2"]]}'),
    "json_entries_not_a_list": (
        "m.json", '{"kind": "meet_matrix", "labels": [1, 2], "entries": {"0": ["1"]}}'),
    "json_fewer_rows_than_labels": (
        "m.json", '{"kind": "meet_matrix", "labels": [1, 2, 3], "entries": [["1"], ["1", "2"]]}'),
    "mixed_row_lengths": ("t.csv", "1,1\n1,2,3\n"),
    # a builtin that takes no parameter refuses one rather than dropping it
    **{f"{name}_with_a_parameter": (None, f"{name}:3")
       for name in ("zeta_d", "delta_d", "mu_d", "divisor_count", "ramanujan_C")},
    "unwritable_out": (None, None),
    "decompose_float_exponent": (None, None),
    "check_float_exponent": (None, None),
    "matrix_float_exponent": (None, None),
    "zero_denominator_exponent": (None, None),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_INPUTS))
def test_hostile_input_exits_two_with_one_error_line(capsys, tmp_path, case):
    name, text = HOSTILE_INPUTS[case]
    command = "matrix"
    if case == "decompose_float_exponent":
        command, argv = "decompose", ["--fn", "gcd_pow:1/2"]
    elif case == "check_float_exponent":  # float values give no verdict
        command, argv = "check", ["--fn", "lcm_pow:1/2", "--d", "2"]
    elif case == "matrix_float_exponent":  # nor a document of exact values
        argv = ["--fn", "gcd_pow:1/2"]
    elif case == "zero_denominator_exponent":
        command, argv = "check", ["--fn", "gcd_pow:1/0"]
    elif name is None and text is not None:
        command, argv = "check", ["--fn", text]
    elif name is None:
        argv = ["--fn", "gcd_pow:1", "--out", str(tmp_path / "no_dir" / "m.json")]
    else:
        if text is not None:
            (tmp_path / name).write_text(text)
        argv = ["--fn", f"@{tmp_path / name}"]
    code, _, err = run(capsys, command, "--m", "3", *argv)
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    if case.startswith(("json_entries", "json_fewer")):
        assert lines[0].endswith(": entries must hold one row per label")
    elif case.endswith("_with_a_parameter"):
        assert lines[0] == f"error: {text.partition(':')[0]} takes no parameter"


NOT_A_LABEL = "is neither a string, an integer nor a list of those"


@pytest.mark.parametrize("doc, message", [
    ({"labels": [1, 2], "entries": [["1"], []]}, "a row ends before its diagonal entry"),
    ({"labels": 5, "entries": [["1"]]}, "labels must be a list"),
    ({"entries": [["1"]]}, "labels must be a list"),
    # matrix writes entries as strings; a JSON float would be read as a binary rational
    ({"labels": [1, 2], "entries": [[0.1, 0], [0, 0.3]]},
     "value 0.1 is neither a string nor an integer"),
    ({"labels": [1], "entries": [[True]]}, "value True is neither a string nor an integer"),
    # labels that matrix never writes: a bool, a float, a bool inside a list
    ({"labels": [True, 2.0], "entries": [["1", "0"], ["0", "1"]]}, f"label True {NOT_A_LABEL}"),
    ({"labels": [1.5, 2], "entries": [["1", "0"], ["0", "1"]]}, f"label 1.5 {NOT_A_LABEL}"),
    ({"labels": [[1, True], [2, 2]], "entries": [["1", "0"], ["0", "1"]]},
     f"label [1, True] {NOT_A_LABEL}"),
], ids=["row_shorter_than_its_position", "labels_not_a_list", "labels_missing", "float_entry",
        "bool_entry", "bool_and_float_labels", "fractional_label", "bool_in_a_list_label"])
def test_a_malformed_matrix_document_exits_two_with_its_own_message(capsys, tmp_path, doc,
                                                                     message):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"kind": "meet_matrix", **doc}))
    code, out, err = run(capsys, "check", "--fn", f"@{path}", "--m", "2")
    assert (code, out) == (2, "")
    assert err == f"error: cannot read {path}: {message}\n"


def test_a_matrix_document_with_an_overflowing_float_entry_exits_two(capsys, tmp_path):
    # json reads 1e400 as inf, which Fraction cannot take
    path = tmp_path / "inf.json"
    path.write_text('{"kind":"meet_matrix","labels":[1,2],"entries":[[1e400,0],[0,1]]}')
    assert run(capsys, "check", "--fn", f"@{path}", "--m", "2") == (
        2, "", f"error: cannot read {path}: value inf is neither a string nor an integer\n")


@pytest.mark.parametrize("name, text", [
    ("huge.csv", "1,1\n2,1e100000000\n"),
    ("huge.json", '{"kind": "meet_matrix", "labels": [1, 2], '
                  '"entries": [["1"], ["1", "-1E+1_000_000_000"]]}'),
], ids=["csv", "json"])
def test_a_cell_with_a_huge_decimal_exponent_exits_two_at_once(tmp_path, name, text):
    # Fraction would build 10**exponent, minutes of work at 10**8; a cold
    # interpreter is part of the time
    (tmp_path / name).write_text(text)
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "meetpd.cli", "check", "--fn",
                           f"@{tmp_path / name}", "--m", "2"],
                          env=env, capture_output=True, text=True, timeout=20)
    assert time.perf_counter() - start < 2.0
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (f"error: a value has more than {sys.get_int_max_str_digits()} "
                           "digits, more than can be written\n")


@pytest.mark.parametrize("command", ["check", "matrix", "decompose"])
def test_hasse_file_past_the_element_limit_exits_two_before_building(capsys, monkeypatch,
                                                                      tmp_path, command):
    def build(self, elements, cover_edges=()):
        raise AssertionError("a poset was built")

    monkeypatch.setattr(Poset, "__init__", build)
    hasse = tmp_path / "big.txt"
    hasse.write_text("".join(f"elem e{i}\n" for i in range(MAX_HASSE_ELEMENTS + 1)))
    code, out, err = run(capsys, command, "--hasse", str(hasse), "--fn", f"@{tmp_path / 't.csv'}",
                         "--m", "1")
    assert (code, out) == (2, "")
    assert err == (f"error: cannot load {hasse}: {MAX_HASSE_ELEMENTS + 1} elements are above "
                   f"the limit of {MAX_HASSE_ELEMENTS}\n")


def test_matrix_refuses_a_covering_set_past_the_limit_before_building_it(capsys):
    lattice = divisor_lattice(2)
    for command in ("matrix", "decompose"):
        code, out, err = run(capsys, command, "--d", "2", "--fn", "gcd_pow:1", "--m", "5000")
        assert (code, out) == (2, "")
        assert err == (f"error: {command} is limited to covering sets of at most 1024 members; "
                       "this one has more\n")
    assert 5000 not in lattice._covers and 5000 not in lattice.factors[0]._covers


def test_matrix_size_limit_counts_members(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "MAX_MATRIX_MEMBERS", 16)
    assert run(capsys, "matrix", "--d", "2", "--fn", "gcd_pow:1", "--m", "4")[0] == 0
    assert run(capsys, "decompose", "--d", "2", "--fn", "gcd_pow:1", "--m", "5")[0] == 2
    assert run(capsys, "matrix", "--d", "5", "--fn", "gcd_pow:1", "--m", "1")[0] == 0
    assert run(capsys, "matrix", "--d", "40", "--fn", "gcd_pow:1", "--m", "2")[0] == 2
    # an explicit lattice counts its own elements; the bound plays no part
    for n, expected in ((16, 0), (17, 2)):
        chain, table = tmp_path / f"chain{n}.txt", tmp_path / f"t{n}.csv"
        chain.write_text("".join(f"elem {i}\nedge {i} {i + 1}\n" for i in range(n - 1))
                         + f"elem {n - 1}\n")
        table.write_text("".join(f"{i},1\n" for i in range(n)))
        argv = ("matrix", "--hasse", str(chain), "--fn", f"@{table}", "--m", "1")
        assert run(capsys, *argv)[0] == expected
    # check has its own, larger limit
    assert run(capsys, "check", "--family", "min", "--fn", "gcd_pow:1", "--m", "2000")[0] == 0


def test_check_refuses_a_covering_set_past_its_limit_before_building_it(capsys, monkeypatch,
                                                                         tmp_path):
    lattice = divisor_lattice(2)
    code, out, err = run(capsys, "check", "--d", "2", "--fn", "gcd_pow:1", "--m", "5000")
    assert (code, out) == (2, "")
    assert err == ("error: check is limited to covering sets of at most 1048576 members; "
                   "this one has more\n")
    assert 5000 not in lattice._covers and 5000 not in lattice.factors[0]._covers
    monkeypatch.setattr(cli, "MAX_CHECK_MEMBERS", 16)
    assert run(capsys, "check", "--d", "2", "--fn", "gcd_pow:1", "--m", "4")[0] == 0
    assert run(capsys, "check", "--d", "2", "--fn", "gcd_pow:1", "--m", "5")[0] == 2
    assert run(capsys, "check", "--d", "40", "--fn", "gcd_pow:1", "--m", "2")[0] == 2
    assert run(capsys, "check", "--d", "40", "--fn", "gcd_pow:1", "--m", "1")[0] == 0
    for n, expected in ((16, 0), (17, 2)):
        chain, table = tmp_path / f"chain{n}.txt", tmp_path / f"t{n}.csv"
        chain.write_text("".join(f"elem {i}\nedge {i} {i + 1}\n" for i in range(n - 1))
                         + f"elem {n - 1}\n")
        table.write_text("".join(f"{i},1\n" for i in range(n)))
        assert run(capsys, "check", "--hasse", str(chain), "--fn", f"@{table}",
                   "--m", "1")[0] == expected


def test_grid_refuses_a_grid_past_the_check_limit_before_computing_a_value(capsys, monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a grid value was computed")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "summatory_function", refuse)
        code, out, err = run(capsys, "grid", "--family", "min", "--m", "100000")
    assert (code, out) == (2, "")
    assert err == ("error: grid is limited to covering sets of at most 1048576 members; "
                   "this one has more\n")
    monkeypatch.setattr(cli, "MAX_CHECK_MEMBERS", 16)
    assert run(capsys, "grid", "--m", "4")[0] == 0
    assert run(capsys, "grid", "--m", "5")[0] == 2
    # the default bound of 10 is counted as well
    assert run(capsys, "grid")[0] == 2


def test_check_never_builds_the_member_list_of_a_product(capsys, monkeypatch):
    # documents and exit codes as recorded before product covering sets
    # were computed from their factors
    def refuse(self):
        raise AssertionError("the member list of a product was built")

    monkeypatch.setattr(ProductSubset, "members", property(refuse))
    positive = {"schema": 1, "verdict": POSITIVE, "witness": None, "tested_bound": 40,
                "certificate_flag": False}
    code, out, _ = run(capsys, "check", "--d", "2", "--fn", "gcd_pow:1", "--m", "40")
    assert (code, json.loads(out)) == (0, positive)
    code, out, _ = run(capsys, "check", "--fn", "ramanujan_C", "--m", "30")
    assert code == 1
    assert json.loads(out)["witness"] == {"kind": "element", "element": [1, 2], "value": "-2"}
    assert pd_check_grid(builtin("gcd_pow", alpha=1, d=3), 6).is_positive
    negative = pd_check_grid(builtin("lcm_pow", alpha=1, d=3), 4)
    assert (negative.witness.element, negative.witness.value) == ((1, 2, 2), -1)


@pytest.mark.parametrize("path", ["builtin", "table", "family_line", "grid"])
def test_an_arity_above_the_limit_exits_two_before_anything_of_its_size(capsys, tmp_path,
                                                                         path):
    d = str(10 ** 9)
    if path == "builtin":
        argv = ["check", "--d", d, "--fn", "zeta_d", "--m", "1"]
    elif path == "table":
        # a table brings its own arity, one past the limit
        table = tmp_path / "t.csv"
        table.write_text(",".join(["1"] * (MAX_ARITY + 2)) + "\n")
        argv = ["check", "--fn", f"@{table}", "--m", "1"]
    elif path == "family_line":
        hasse = tmp_path / "fam.txt"
        hasse.write_text(f"family divisor d={d}\n")
        argv = ["check", "--hasse", str(hasse), "--fn", "zeta_d", "--m", "1"]
    else:
        argv = ["grid", "--d", d, "--m", "1"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "limit of 64" in lines[0]
    # a table of the given arity is refused before its lattice is asked for
    if path == "table":
        code, _, err = run(capsys, "check", "--d", d, "--fn", f"@{table}", "--m", "1")
        assert code == 2 and err.startswith("error: table arity 65 does not match")
    assert run(capsys, "check", "--d", str(MAX_ARITY), "--fn", "zeta_d", "--m", "1")[0] == 0


@pytest.mark.parametrize("argv", [
    ["check", "--fn", "gcd_pow:-20000", "--m", "2"],
    ["matrix", "--fn", "gcd_pow:20000", "--m", "2"],
    ["decompose", "--fn", "gcd_pow:20000", "--m", "2"],
    ["check", "--fn", "lcm_pow:-20000", "--m", "2"],
    ["check", "--fn", "gcd_pow:99999999999", "--m", "3"],
])
def test_an_exponent_above_the_limit_exits_two_before_any_value(capsys, argv):
    # values this large would pass the digit limit of str() (or never finish)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "limit of 700" in lines[0]


# a table exponent past the limit is refused as the table is read, so
# these reach it with 10**4300 (4,301 digits): in the witness's
# denominator, a matrix entry and the diagonal value 10**4300 + 1
@pytest.mark.parametrize("command, table", [
    (["check"], "1,1/3\n2,1e-4300\n"),
    (["matrix"], "1,-1\n2,1e4300\n"),
    (["matrix", "--format", "csv"], "1,-1\n2,1e4300\n"),
    (["decompose"], "1,-1\n2,1e4300\n"),
    (["decompose", "--format", "csv"], "1,-1\n2,1e4300\n"),
], ids=["check", "matrix_json", "matrix_csv", "decompose_json", "decompose_csv"])
def test_a_value_past_the_digit_limit_of_str_exits_two_before_any_document(capsys, tmp_path,
                                                                            command, table):
    (tmp_path / "t.csv").write_text(table)
    out = tmp_path / "out.txt"
    argv = [*command, "--fn", f"@{tmp_path / 't.csv'}", "--m", "2"]
    for extra in ([], ["--out", str(out)]):
        assert run(capsys, *argv, *extra) == (
            2, "", f"error: a value has more than {sys.get_int_max_str_digits()} digits, "
                   "more than can be written\n")
    assert not out.exists()


def test_a_value_at_the_digit_limit_of_str_is_written(capsys, tmp_path):
    (tmp_path / "t.csv").write_text("1,1\n2,1e4299\n")
    code, out, _ = run(capsys, "decompose", "--fn", f"@{tmp_path / 't.csv'}", "--m", "2")
    assert code == 0 and f'"{10 ** 4299 - 1}"' in out


def test_exponents_at_the_limit_are_served(capsys):
    code, out, _ = run(capsys, "matrix", "--fn", f"gcd_pow:-{MAX_EXPONENT}", "--m", "2")
    assert code == 0 and f"1/{2 ** MAX_EXPONENT}" in out
    assert run(capsys, "check", "--fn", f"lcm_pow:{MAX_EXPONENT}", "--m", "3")[0] == 0
    with pytest.raises(ExponentLimitError):
        builtin("lcm_pow", alpha=Fraction(1401, 2))


def test_decompose_reports_a_nonzero_residual_exactly(capsys, monkeypatch):
    real = cli.kron_decompose_d

    def one_entry_off(subsets, f):
        dec = real(subsets, f)
        diag = list(dec.diag)
        diag[4] += Fraction(5, 3)
        return Decomposition(dec.subset, diag)

    monkeypatch.setattr(cli, "kron_decompose_d", one_entry_off)
    code, out, _ = run(capsys, "decompose", "--d", "2", "--fn", "lcm_pow:1", "--m", "3")
    assert code == 0
    doc = json.loads(out)
    # Fraction reference: E diag E^T entry by entry, E the Kronecker product
    # of the emitted factors, against f at the meets
    f = builtin("lcm_pow", alpha=Fraction(1), d=2)
    e1, e2 = doc["factors"]
    diag = [Fraction(v) for v in doc["diag"]]
    members = list(itertools.product(range(1, 4), repeat=2))
    index = list(itertools.product(range(3), repeat=2))
    residual = max(
        abs(sum(lam * e1[i1][k1] * e2[i2][k2] * e1[j1][k1] * e2[j2][k2]
                for lam, (k1, k2) in zip(diag, index))
            - f((math.gcd(x[0], y[0]), math.gcd(x[1], y[1]))))
        for (i1, i2), x in zip(index, members) for (j1, j2), y in zip(index, members))
    assert residual > 0
    assert doc["reconstruction_residual"] == str(residual)


# Runs in a fresh interpreter: imports meetpd.cli, records which of the
# heavy modules it loaded, then blocks NumPy (any import of it raises
# ImportError) and runs each command line of argv[1] through cli.main.
IMPORT_PROBE = """
import contextlib, io, json, sys
import meetpd.cli
loaded = sorted(m for m in ("numpy", "dataclasses") if m in sys.modules)
sys.modules["numpy"] = None
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runs.append([meetpd.cli.main(argv), out.getvalue()])
from meetpd.pdcheck import psd_oracle
print(json.dumps({"loaded": loaded, "runs": runs, "method": psd_oracle([[2, 1], [1, 2]]).method}))
"""

EXACT_COMMANDS = [
    ["check", "--fn", "ramanujan_C", "--m", "6"],
    ["check", "--family", "min", "--d", "2", "--fn", "divisor_count", "--m", "4"],
    ["matrix", "--family", "divisor", "--d", "2", "--fn", "lcm_pow:1", "--m", "3"],
    ["matrix", "--fn", "gcd_pow:1", "--m", "6", "--format", "csv"],
    ["decompose", "--family", "divisor", "--d", "2", "--fn", "lcm_pow:1", "--m", "3"],
]


def test_cli_imports_neither_numpy_nor_dataclasses_and_runs_without_numpy(capsys):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, json.dumps(EXACT_COMMANDS)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout)
    assert probe["loaded"] == []
    assert probe["method"] == "exact"
    expected = [list(run(capsys, *argv)[:2]) for argv in EXACT_COMMANDS]
    assert probe["runs"] == expected
    assert [code for code, _ in expected] == [1, 0, 0, 0, 0]


@pytest.mark.parametrize("doc", [
    {"schema": 2, "factors": [[[1]]], "diag": ["1"]},
    {"schema": 2, "kind": "decomposition", "factor_labels": [["a", "b\n\"c"], [1, 2]],
     "factors": [[[1, 0], [1, 1]], [[1, 0], [0, 1]]], "diag": ["1/2", "-3", "0", "7"],
     "order_map": {"shape": [2, 2]}, "reconstruction_residual": "0"},
    {"kind": "decomposition", "factors": [[], [[]]], "order_map": {"shape": []}},
])
def test_decomposition_text_is_json_dumps_with_indent_2(doc):
    assert cli._decomposition_text(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("name, text, element", [
    ("dup.csv", "1,1\n2,3\n2,-5\n3,2\n", "2"),
    ("grid.csv", "1,1,1\n1,2,1\n2,1,1\n1,2,4\n2,2,1\n", "(1, 2)"),
    ("dup.json", '{"kind": "meet_matrix", "labels": [1, 2, 2], '
                 '"entries": [["1"], ["1", "3"], ["1", "3", "-5"]]}', "2"),
], ids=["csv", "csv_d2", "json_labels"])
def test_a_value_table_with_two_rows_for_one_element_is_refused(capsys, tmp_path, name, text,
                                                                 element):
    # keeping the last row for 2 would give f(2) = -5 and a negative verdict
    # that the first row does not have
    table = tmp_path / name
    table.write_text(text)
    d = "2" if name == "grid.csv" else "1"
    code, out, err = run(capsys, "check", "--fn", f"@{table}", "--d", d, "--m", "3")
    assert (code, out) == (2, "")
    assert err == f"error: value table {table} has a duplicate row for {element}\n"


def test_integer_table_cells_are_read_as_ints(tmp_path):
    table = tmp_path / "t.csv"
    table.write_text("1,3\n2, -4 \n3,6/3\n4,1/2\n")
    mapping, arity = cli._load_table(str(table), text_ids=False)
    assert (mapping, arity) == ({1: 3, 2: -4, 3: 2, 4: Fraction(1, 2)}, 1)
    assert [type(v) for v in mapping.values()] == [int, int, int, Fraction]


HASSE_IDS = ["a", "b", "c", "d", "1"]
# valid lattices (a chain, a diamond, M3) for fuzzed lines to be added to
HASSE_BASES = [
    ["elem a", "elem b", "elem c", "edge a b", "edge b c"],
    ["elem a", "elem b", "elem c", "elem d", "edge a b", "edge a c", "edge b d", "edge c d"],
    ["elem a", "elem b", "elem c", "elem d", "elem 1",
     "edge a b", "edge a c", "edge a d", "edge b 1", "edge c 1", "edge d 1"],
]
HASSE_LINES = st.one_of(
    st.sampled_from(HASSE_IDS).map("elem {}".format),  # a duplicate element, or a new one
    st.tuples(st.sampled_from(HASSE_IDS), st.sampled_from(HASSE_IDS)).map(
        "edge {0[0]} {0[1]}".format),  # a cycle, a self-loop or an unknown element
    st.sampled_from(["edge a", "elem", "node a", "# a comment", "", "elem a b", "family min d=x"]),
)
VALID_CELLS = st.one_of(
    st.integers(-9, 9).map(str),
    st.tuples(st.integers(-9, 9), st.integers(1, 5)).map("{0[0]}/{0[1]}".format))
JUNK_CELLS = st.sampled_from(["x", "1/0", "", " 2 ", "1.5", "--1"])


@st.composite
def fuzzed_tables(draw, ids):
    """Rows "id,value" for each id with valid values; then, each now and
    then, a junk value, a row gone, and a row of an id again (a duplicate)
    or of an unknown one."""
    rows = [(x, draw(VALID_CELLS)) for x in ids]
    if draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = (rows[i][0], draw(JUNK_CELLS))
    if draw(st.integers(0, 3)) == 0:
        del rows[draw(st.integers(0, len(rows) - 1))]
    if draw(st.integers(0, 3)) == 0:
        rows.append((draw(st.sampled_from(ids + ["z", "0"])), draw(VALID_CELLS)))
    return rows


def _main_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_replays(code, out, err, lattice_of, table, text_ids, bound):
    """A known exit code, no traceback, and an exit-1 witness equal to the
    inverted value at its element (``inverted_table``'s, read up to a gap)."""
    assert code in (0, 1, 2, 3) and "Traceback" not in err
    if code != 1:
        return
    witness = json.loads(out)["witness"]
    lattice = lattice_of()
    mapping, _ = cli._load_table(str(table), text_ids)
    f = meetmatrix.table_function(lattice, mapping)
    element = witness["element"]
    element = tuple(element) if isinstance(element, list) else element
    inverted = {}  # up to a value the table lacks, which may come after the witness
    with contextlib.suppress(EvaluationError):
        for x, v in inverted_values(f, lattice.covering_set(bound)):
            inverted[x] = v
    assert Fraction(witness["value"]) == inverted[element] < 0


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(HASSE_BASES), st.lists(HASSE_LINES, max_size=2), st.data())
def test_fuzzed_hasse_files_and_tables_exit_cleanly_and_negative_witnesses_replay(base, extra,
                                                                                  data):
    lines = base + extra
    rows = data.draw(fuzzed_tables(sorted({line.split()[1] for line in base
                                           if line.startswith("elem")})))
    with tempfile.TemporaryDirectory() as tmp:
        hasse, table = Path(tmp, "h.txt"), Path(tmp, "t.csv")
        hasse.write_text("\n".join(lines) + "\n")
        table.write_text("".join(f"{x},{v}\n" for x, v in rows))
        code, out, err = _main_quietly(["check", "--hasse", str(hasse), "--fn", f"@{table}",
                                        "--m", "1"])
        _assert_replays(code, out, err, lambda: load_hasse(str(hasse)), table, True, 1)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["divisor", "min"]), st.integers(1, 2), st.integers(1, 5), st.data())
def test_fuzzed_tables_on_a_family_exit_cleanly_and_negative_witnesses_replay(family, d, m, data):
    points = [",".join(map(str, x)) for x in itertools.product(range(1, m + 1), repeat=d)]
    rows = data.draw(fuzzed_tables(points))
    with tempfile.TemporaryDirectory() as tmp:
        table = Path(tmp, "t.csv")
        table.write_text("".join(f"{x},{v}\n" for x, v in rows))
        code, out, err = _main_quietly(["check", "--family", family, "--d", str(d),
                                        "--fn", f"@{table}", "--m", str(m)])
        base = DivisorLattice() if family == "divisor" else MinLattice()
        _assert_replays(code, out, err, lambda: lattice_power(base, d), table, False, m)
