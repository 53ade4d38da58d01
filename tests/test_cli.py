import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from meetpd import cli
from meetpd.arith import builtin
from meetpd.cli import main
from meetpd.incidence import inverted_values
from meetpd.pdcheck import POSITIVE
from meetpd.posets import divisor_lattice


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


def test_check_float_exponent_witness_is_pinned(capsys):
    code, out, _ = run(capsys, "check", "--fn", "lcm_pow:1/2", "--d", "2", "--m", "8")
    assert code == 1
    witness = json.loads(out)["witness"]
    assert witness["element"] == [2, 2]
    assert witness["value"] == "-1865452045155277/4503599627370496"


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
    "mixed_row_lengths": ("t.csv", "1,1\n1,2,3\n"),
    "unwritable_out": (None, None),
    "decompose_float_exponent": (None, None),
    "zero_denominator_exponent": (None, None),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_INPUTS))
def test_hostile_input_exits_two_with_one_error_line(capsys, tmp_path, case):
    name, text = HOSTILE_INPUTS[case]
    command = "matrix"
    if case == "decompose_float_exponent":
        command, argv = "decompose", ["--fn", "gcd_pow:1/2"]
    elif case == "zero_denominator_exponent":
        command, argv = "check", ["--fn", "gcd_pow:1/0"]
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
    # check is linear in the members and has no limit
    assert run(capsys, "check", "--family", "min", "--fn", "gcd_pow:1", "--m", "2000")[0] == 0


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
