"""Byte-for-byte regression corpus of the meetpd command line.

Each command line of ``corpus()`` runs in process through ``cli.main``,
from a directory holding the files of ``FILES``; the sha256 of its exit
code, stdout and stderr must equal the digest recorded in
``cli_corpus.json``.  A refactor that should not change any document,
verdict, witness or message runs against the recorded digests instead of
comparing two checkouts by hand.  Exponents are integers only, since
float powers may round differently between libm builds.

To record the digests again, deliberately, after a change of output:

    PYTHONPATH=src python tests/test_cli_corpus.py --record
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from meetpd import cli

FIXTURE = Path(__file__).with_name("cli_corpus.json")

# the files the command lines name, written into the working directory
FILES = {
    "diamond.txt": "elem 0\nelem a\nelem b\nelem 1\n"
                   "edge 0 a\nedge 0 b\nedge a 1\nedge b 1\n",
    "chain.txt": "# numeric ids\nelem 1\nelem 2\nelem 3\nedge 1 2\nedge 2 3\n",
    "bowtie.txt": "elem a\nelem b\nelem c\nelem d\n"
                  "edge a c\nedge a d\nedge b c\nedge b d\n",
    "cycle.txt": "elem a\nelem b\nedge a b\nedge b a\n",
    "garbled.txt": "elem a\nvertex b\n",
    "fam_div2.txt": "family divisor d=2\n",
    "fam_min.txt": "# an implicit family\nfamily min\n",
    "fam_bad.txt": "family lattice\n",
    "diamond_vals.csv": "0,1\na,3\nb,2\n1,5\n",
    "diamond_neg.csv": "0,1\na,0\nb,0\n1,3\n",
    "chain_vals.csv": "1,2\n2,1\n3,4\n",
    "t1.csv": "".join(f"{n},{(n * n) % 7 - 2}/{n}\n" for n in range(1, 13)),
    "t1_pos.csv": "".join(f"{n},{n}\n" for n in range(1, 13)),
    "t2.csv": "".join(f"{a},{b},{a * b % 5}\n" for a in range(1, 5) for b in range(1, 5)),
    "t2_gap.csv": "1,1,1\n1,2,2\n2,1,3\n",
    "t_mixed.csv": "1,1\n1,2,3\n",
    "t_bad.csv": "1,1\n2,two\n",
    "m_diag.json": json.dumps({"kind": "meet_matrix", "labels": [1, 2, 3, 4],
                               "entries": [["1"], ["0", "2"], ["0", "0", "-1"],
                                           ["0", "0", "0", "3/2"]]}),
    "m_not.json": "{not json",
    "m_wrong.json": '{"kind": "decomposition"}',
    # values whose digits, or whose inverted values' digits, are past what str() writes
    "t_tiny.csv": "1,1/3\n2,1e-5000\n",
    "t_huge.csv": "1,1\n2,1e5000\n",
}

EXPONENT_FNS = ["gcd_pow:1", "gcd_pow:2", "gcd_pow:0", "gcd_pow:-1", "lcm_pow:1", "lcm_pow:-1"]
NAMED_FNS = ["zeta_d", "delta_d", "mu_d", "divisor_count", "ramanujan_C"]
ERROR_FNS = ["gcd_pow", "gcd_pow:1/0", "gcd_pow:x", "meet_composed", "no_such_fn"]


def corpus():
    """The recorded command lines, in run order."""
    lines = []
    for family in ("divisor", "min"):
        for d, bounds in ((1, (1, 2, 7, 30)), (2, (1, 3, 6, 12)), (3, (1, 2, 4, 6))):
            for fn in EXPONENT_FNS + NAMED_FNS:
                for m in bounds:
                    lines.append(["check", "--family", family, "--d", str(d),
                                  "--fn", fn, "--m", str(m)])
    for command in ("matrix", "decompose"):
        for family in ("divisor", "min"):
            for d, bounds in ((1, (1, 4, 7)), (2, (2, 3)), (3, (2,))):
                for fn in EXPONENT_FNS + NAMED_FNS[:4]:
                    for m in bounds:
                        for fmt in ("json", "csv"):
                            lines.append([command, "--family", family, "--d", str(d),
                                          "--fn", fn, "--m", str(m), "--format", fmt])
    for command in ("check", "matrix", "decompose"):
        lines += [[command, "--fn", fn, "--m", "3"] for fn in ERROR_FNS + ["ramanujan_C"]]
        lines += [[command, "--d", "1", "--fn", "ramanujan_C", "--m", "3"]]
        for hasse, fn in (("diamond.txt", "@diamond_vals.csv"), ("diamond.txt", "@diamond_neg.csv"),
                          ("diamond.txt", "@chain_vals.csv"), ("chain.txt", "@chain_vals.csv"),
                          ("chain.txt", "gcd_pow:1"), ("bowtie.txt", "@diamond_vals.csv"),
                          ("cycle.txt", "zeta_d"), ("garbled.txt", "zeta_d"),
                          ("fam_div2.txt", "gcd_pow:1"), ("fam_div2.txt", "lcm_pow:1"),
                          ("fam_min.txt", "gcd_pow:2"), ("fam_min.txt", "@t1.csv"),
                          ("fam_bad.txt", "zeta_d"), ("missing.txt", "zeta_d")):
            lines.append([command, "--hasse", hasse, "--fn", fn, "--m", "3"])
        for table, d in (("@t1.csv", "1"), ("@t1_pos.csv", "1"), ("@t2.csv", "2"),
                         ("@t2_gap.csv", "2"), ("@t1.csv", "2"), ("@t_mixed.csv", "1"),
                         ("@t_bad.csv", "1"), ("@m_diag.json", "1"), ("@m_not.json", "1"),
                         ("@m_wrong.json", "1"), ("@absent.csv", "1")):
            for family in ("divisor", "min"):
                lines.append([command, "--family", family, "--d", d, "--fn", table, "--m", "3"])
        lines += [
            [command, "--fn", "zeta_d", "--m", "0"],
            [command, "--d", "0", "--fn", "@t1.csv", "--m", "2"],
            [command, "--hasse", "diamond.txt", "--family", "min", "--fn", "zeta_d", "--m", "2"],
            [command, "--d", "2", "--fn", "gcd_pow:1", "--m", "5000"],
            [command, "--d", "40", "--fn", "gcd_pow:1", "--m", "1"],
            [command, "--d", "40", "--fn", "gcd_pow:1", "--m", "2"],
            [command, "--fn", "gcd_pow:1", "--m", "3", "--out", "no_dir/out.txt"],
            [command, "--hasse", "diamond.txt", "--m", "3"],
        ]
    lines += [["check", "--fn", "gcd_pow:1", "--m", str(m)] for m in (60, 210, 500)]
    lines += [["check", "--family", "min", "--fn", "lcm_pow:1", "--m", str(m)] for m in (5, 40)]
    lines += [["check", "--d", "2", "--fn", fn, "--m", "40"]
              for fn in ("gcd_pow:1", "lcm_pow:1", "divisor_count", "mu_d")]
    lines += [["matrix", "--d", "2", "--fn", "gcd_pow:1", "--m", "32", "--format", "csv"],
              ["decompose", "--d", "2", "--fn", "gcd_pow:1", "--m", "16"],
              ["decompose", "--family", "min", "--fn", "lcm_pow:1", "--m", "64"],
              ["decompose", "--family", "min", "--fn", "gcd_pow:1", "--m", "200"],
              ["decompose", "--d", "2", "--fn", "lcm_pow:-1", "--m", "16"],
              ["grid", "--family", "divisor", "--m", "40"]]
    for family in ("divisor", "min"):
        for d in ("1", "2", "3"):
            lines += [["grid", "--family", family, "--d", d, "--m", str(m)] for m in (1, 4)]
        lines.append(["grid", "--family", family])
    for command in ("check", "matrix", "decompose"):
        for table in ("@t_tiny.csv", "@t_huge.csv"):
            lines += [[command, "--fn", table, "--m", m] for m in ("1", "2")]
    lines += [[command, "--fn", "@t_huge.csv", "--m", "2", "--format", "csv"]
              for command in ("matrix", "decompose")]
    return lines


def key(argv):
    return " ".join(argv)


def digest(argv):
    """sha256 over (exit code, stdout, stderr) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run_corpus(workdir):
    """{command line: digest}, every file of FILES written into workdir."""
    for name, text in FILES.items():
        Path(workdir, name).write_text(text, encoding="utf-8")
    here = os.getcwd()
    os.chdir(workdir)
    try:
        return {key(argv): digest(argv) for argv in corpus()}
    finally:
        os.chdir(here)


def test_corpus_is_large_and_keyed_one_line_each():
    lines = [key(argv) for argv in corpus()]
    assert len(lines) >= 800
    assert len(set(lines)) == len(lines)


def test_cli_output_matches_the_recorded_corpus(tmp_path):
    recorded = json.loads(FIXTURE.read_text(encoding="utf-8"))
    got = run_corpus(tmp_path)
    assert sorted(got) == sorted(recorded), "corpus lines differ from the recorded ones"
    changed = [line for line, h in got.items() if recorded[line] != h]
    assert not changed, f"{len(changed)} command lines changed output, first: {changed[:5]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_corpus.py --record")
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        digests = run_corpus(workdir)
    FIXTURE.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(digests)} command lines in {FIXTURE}")
