"""The three meetpd workloads: seeded request generation, execution, gates.

Each workload produces its requests in cycles of fixed slots; the seed
chooses the values inside each slot, never the slot's size or its
builtin function, so every seed runs the same mix.  Slots are listed by
expected cost, and the slots around the
median and at the top of a cycle are the same kind of request, so the
median and the tail percentile fall inside one kind of request instead
of on the boundary between two; that keeps them steady from seed to
seed.

A request is executed (timed) and then gated (untimed): the gate
recomputes the expected answer with ``reference`` and returns a list of
problems, empty when the output is correct.  ``tampered`` yields altered
copies of a correct document, each of which the gate must reject; the
benchmark runs that self-check before every timed loop.
"""

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import reference as ref

POSITIVE = "positive_definite_on_tested_covering"
NEGATIVE = "not_positive_definite"
HERE = Path(__file__).resolve().parent
CLI_TIMEOUT_S = 120


@dataclass
class Request:
    kind: str
    params: dict
    expect: dict = field(default_factory=dict)
    verdict: bool = True


def _rational(rng, lo, hi):
    return Fraction(rng.randint(lo, hi), rng.randint(1, 4))


def _random_g(rng, points, negative):
    """Random nonnegative rationals, with one planted negative if asked."""
    g = {x: _rational(rng, 0, 9) for x in points}
    if negative:
        # late in the scan order, so a negative verdict still scans most of the set
        victim = points[rng.randrange(len(points) // 2, len(points))]
        g[victim] = -_rational(rng, 1, 9)
    return g


def _as_key(element):
    """JSON element (int, str or list) as a hashable key."""
    return tuple(element) if isinstance(element, list) else element


def verdict_problems(doc, bound, expected):
    """Gate for a verdict document against the expected inverted values.

    The verdict must be negative exactly when some expected value is
    negative, and a negative verdict's witness must replay: its element
    lies in the covering set and its value equals the expected (negative)
    inverted value there.  Any negative element is accepted as a witness.
    """
    problems = []
    if doc.get("tested_bound") != bound:
        problems.append(f"tested_bound {doc.get('tested_bound')!r} != {bound}")
    expect_negative = any(v < 0 for v in expected.values())
    verdict = doc.get("verdict")
    if verdict not in (POSITIVE, NEGATIVE):
        return problems + [f"unknown verdict {verdict!r}"]
    if (verdict == NEGATIVE) != expect_negative:
        problems.append(f"wrong verdict {verdict}")
    witness = doc.get("witness")
    if verdict == POSITIVE:
        if witness is not None:
            problems.append("positive verdict carries a witness")
        return problems
    if not witness or witness.get("kind") != "element":
        return problems + ["negative verdict without an element witness"]
    element = _as_key(witness["element"])
    value = Fraction(witness["value"])
    actual = expected.get(element)
    if actual is None or actual != value or value >= 0:
        problems.append(f"witness {element!r}={value} does not replay (expected {actual})")
    return problems


def _tampered_verdicts(doc):
    flipped = dict(doc, verdict=POSITIVE if doc["verdict"] == NEGATIVE else NEGATIVE)
    yield "verdict flipped", flipped
    yield "tested bound changed", dict(doc, tested_bound=doc["tested_bound"] + 1)
    if doc["witness"] is not None:
        w = doc["witness"]
        yield "witness value changed", dict(doc, witness=dict(
            w, value=str(Fraction(w["value"]) - 1)))
        yield "witness value sign", dict(doc, witness=dict(
            w, value=str(-Fraction(w["value"]))))


# --------------------------------------------------------------------------
# criterion_sweep: diagonal criterion with warm covering sets and Mobius cache

CRITERION_BOUNDS = {"divisor": (16,), "min": (8, 10)}
POSITIVE_BUILTINS = ("gcd_pow:1", "gcd_pow:2", "divisor_count", "zeta_d")
NEGATIVE_BUILTINS = ("ramanujan_C", "lcm_pow:1")
ALL_BUILTINS = POSITIVE_BUILTINS + NEGATIVE_BUILTINS

# (route, family, bound, function kind); cheapest first.  Twelve slots:
# the median (rank 6 of 12) falls inside the two MIN 10x10 summatory
# requests and the 90th percentile (rank 10.8) inside the two positive
# grid scans at bound 36.
CRITERION_SLOTS = [
    ("grid", "divisor", 30, "negative_builtin"),
    ("grid", "divisor", 50, "negative_builtin"),
    ("criterion", "min", 8, "table"),
    ("criterion", "min", 8, "builtin"),
    ("criterion", "min", 10, "table"),
    ("criterion", "min", 10, "summatory"),
    ("criterion", "min", 10, "summatory"),
    ("criterion", "divisor", 16, "table"),
    ("criterion", "divisor", 16, "builtin"),
    ("criterion", "divisor", 16, "summatory"),
    ("grid", "divisor", 36, "positive_builtin"),
    ("grid", "divisor", 36, "positive_builtin"),
]
BUILTIN_POOLS = {"positive_builtin": POSITIVE_BUILTINS, "negative_builtin": NEGATIVE_BUILTINS,
                 "builtin": ALL_BUILTINS}


def _rotate(pool, turn):
    """The pool entry for this turn: builtins go round in a fixed order
    that no seed changes, so every seed runs the same mix of functions."""
    return pool[turn % len(pool)]


def _builtin(meetpd, spec, d):
    name, _, param = spec.partition(":")
    return meetpd.builtin(name, alpha=Fraction(param) if param else None, d=d)


class CriterionSweep:
    in_process = True
    setup_samples = 9

    def __init__(self):
        self._expected = {}
        self._turn = 0

    def setup(self):
        import meetpd
        self.meetpd = meetpd
        self.lattices = {"divisor": meetpd.divisor_lattice(2), "min": meetpd.min_lattice(2)}
        for family, bounds in CRITERION_BOUNDS.items():
            for bound in bounds:
                meetpd.mobius(self.lattices[family].covering_set(bound))

    def _builtin_expected(self, spec, family, bound):
        key = (spec, family, bound)
        if key not in self._expected:
            self._expected[key] = ref.inverted_grid(
                family, lambda x: ref.builtin_value(spec, x), bound, 2)
        return self._expected[key]

    def cycle(self, rng):
        """One request per slot.  The seed chooses g, the table values and
        where a negative is planted; every other table has one, so both the
        full scan and the early exit run in a fixed share."""
        out = []
        for slot, (route, family, bound, fkind) in enumerate(CRITERION_SLOTS):
            turn = self._turn + slot
            if fkind.endswith("builtin"):
                spec = _rotate(BUILTIN_POOLS[fkind], turn)
                params = {"route": route, "family": family, "bound": bound, "spec": spec}
                expected = self._builtin_expected(spec, family, bound)
            else:
                points = ref.grid_points(bound, 2)
                negative = fkind == "table" and turn % 2 == 1
                g = _random_g(rng, points, negative)
                params = {"route": route, "family": family, "bound": bound, "g": g}
                if fkind == "table":
                    params["table"] = ref.summatory_grid(family, g, bound, 2)
                expected = g
            out.append(Request(f"{route}:{family}{bound}:{fkind}", params,
                               {"inverted": expected}))
        self._turn += 1
        return out

    def execute(self, req, tracer=None):
        p = req.params
        meetpd = self.meetpd
        if p["route"] == "grid":
            return meetpd.pd_check_grid(_builtin(meetpd, p["spec"], 2), p["bound"])
        lat = self.lattices[p["family"]]
        if "spec" in p:
            f = meetpd.to_lattice_function(_builtin(meetpd, p["spec"], 2), lat)
        elif "table" in p:
            f = meetpd.table_function(lat, p["table"], name="random_table")
        else:
            g = p["g"]
            f = meetpd.summatory_function(lat, lambda z: g[z])
        return meetpd.pd_criterion(f, lat, p["bound"])

    def document(self, req, out):
        return out.to_json()

    def gate(self, req, doc):
        return verdict_problems(doc, req.params["bound"], req.expect["inverted"])

    def tampered(self, req, doc):
        return _tampered_verdicts(doc)

    def is_exact(self, req, out):
        return True

    def self_check_requests(self):
        return [
            Request("criterion:divisor6:ramanujan_C",
                    {"route": "criterion", "family": "divisor", "bound": 6, "spec": "ramanujan_C"},
                    {"inverted": self._builtin_expected("ramanujan_C", "divisor", 6)}),
            Request("grid:divisor8:zeta_d",
                    {"route": "grid", "family": "divisor", "bound": 8, "spec": "zeta_d"},
                    {"inverted": self._builtin_expected("zeta_d", "divisor", 8)}),
        ]


# --------------------------------------------------------------------------
# oracle_exact: meet matrix assembly and the eigenvalue oracle

# (family, d, bound, g has negatives); orders 16..64 take the exact path and
# 81 and 100 the float path, 3 requests in 10.  Cheapest first: the median
# (rank 5 of 10) falls inside the two float MIN 9x9 requests and the 90th
# percentile (rank 9) inside the two exact MIN 8x8 ones.
ORACLE_SLOTS = [
    ("divisor", 1, 16, False),
    ("min", 2, 4, True),
    ("min", 2, 5, True),
    ("min", 1, 32, False),
    ("min", 2, 9, True),
    ("min", 2, 9, True),
    ("divisor", 2, 6, True),
    ("min", 2, 10, True),
    ("min", 2, 8, True),
    ("min", 2, 8, True),
]
G_VALUES = (-3, -2, -1, 0, 1, 2, 3, 4, 5, 6)


def _leq(family, z, x):
    if family == "divisor":
        return all(b % a == 0 for a, b in zip(z, x))
    return all(a <= b for a, b in zip(z, x))


class OracleExact:
    in_process = True
    setup_samples = 9  # a set-up is cheap here, so take more

    def setup(self):
        import meetpd
        self.meetpd = meetpd
        self.lattices = {}
        for family, d, bound, _ in ORACLE_SLOTS:
            make = meetpd.divisor_lattice if family == "divisor" else meetpd.min_lattice
            self.lattices[(family, d)] = lat = make(d)
            lat.covering_set(bound)

    def cycle(self, rng):
        out = []
        for family, d, bound, negatives in ORACLE_SLOTS:
            points = ref.grid_points(bound, d)
            values = G_VALUES if negatives else [v for v in G_VALUES if v >= 0]
            g = {x: Fraction(rng.choice(values)) for x in points}
            out.append(Request(f"oracle:{family}{d}:{len(points)}",
                               {"family": family, "d": d, "bound": bound, "g": g}))
        return out

    def execute(self, req, tracer=None):
        p = req.params
        meetpd = self.meetpd
        lat = self.lattices[(p["family"], p["d"])]
        g = p["g"]
        if p["d"] == 1:
            f = meetpd.summatory_function(lat, lambda z: g[(z,)], certify_nonneg=False)
        else:
            f = meetpd.summatory_function(lat, lambda z: g[z], certify_nonneg=False)
        m = meetpd.meet_matrix(lat.covering_set(p["bound"]), f)
        return m, meetpd.psd_oracle(m)

    def document(self, req, out):
        m, rep = out
        w = rep.witness
        return {
            "members": [x if isinstance(x, tuple) else (x,) for x in m.subset.members],
            "rows": m.rows,
            "is_psd": rep.is_psd,
            "method": rep.method,
            "inertia": rep.inertia.as_tuple() if rep.inertia is not None else None,
            "witness": None if w is None else {
                "labels": [x if isinstance(x, tuple) else (x,) for x in w.labels],
                "vector": list(w.vector), "value": w.value},
        }

    def gate(self, req, doc):
        p = req.params
        family, g = p["family"], p["g"]
        points = ref.grid_points(p["bound"], p["d"])
        problems = []
        if doc["members"] != points:
            return ["matrix rows are not the covering set in lexicographic order"]
        rows = doc["rows"]
        n = len(points)
        probe = [(0, 0), (n - 1, n - 1), (0, n - 1)]
        probe += [(i * 7919 % n, i * 104729 % n) for i in range(1, 24)]
        for i, j in probe:
            x = ref.meet(family, points[i], points[j])
            want = sum((g[z] for z in ref.lower_set(family, x)), Fraction(0))
            if rows[i][j] != want:
                problems.append(f"entry ({i}, {j}) = {rows[i][j]}, expected {want}")
                break
        signs = (sum(v > 0 for v in g.values()), sum(v < 0 for v in g.values()),
                 sum(v == 0 for v in g.values()))
        if doc["is_psd"] != (signs[1] == 0):
            problems.append(f"wrong verdict is_psd={doc['is_psd']} with {signs[1]} negative g")
        if doc["method"] == "exact" and doc["inertia"] != signs:
            problems.append(f"inertia {doc['inertia']} != sign counts of g {signs}")
        if doc["method"] not in ("exact", "float"):
            problems.append(f"unknown method {doc['method']!r}")
        w = doc["witness"]
        if doc["is_psd"]:
            if w is not None:
                problems.append("positive verdict carries a witness")
            return problems
        if w is None:
            return problems + ["negative verdict without a witness"]
        if w["labels"] != points:
            return problems + ["witness labels differ from the matrix labels"]
        v = [Fraction(c) for c in w["vector"]]
        # v^T E diag(g) E^T v, from g alone: sum over z of g(z) (sum of v above z)^2
        by_g = sum((gz * sum((vx for x, vx in zip(points, v) if vx and _leq(family, z, x)),
                             Fraction(0)) ** 2
                    for z, gz in g.items() if gz), Fraction(0))
        direct = ref.quadratic_form(rows, v)
        if not (w["value"] == by_g == direct and w["value"] < 0):
            problems.append(f"witness value {w['value']} does not replay ({by_g}, {direct})")
        return problems

    def tampered(self, req, doc):
        yield "verdict flipped", dict(doc, is_psd=not doc["is_psd"])
        if doc["inertia"] is not None:
            pos, neg, zero = doc["inertia"]
            yield "inertia changed", dict(doc, inertia=(pos + 1, neg - 1, zero))
        if doc["witness"] is not None:
            w = doc["witness"]
            yield "witness value changed", dict(doc, witness=dict(w, value=w["value"] - 1))
            vec = list(w["vector"])
            vec[0] += 1
            yield "witness vector changed", dict(doc, witness=dict(w, vector=vec))
        rows = [list(r) for r in doc["rows"]]
        rows[0][0] += 1
        yield "matrix entry changed", dict(doc, rows=rows)

    def is_exact(self, req, out):
        return out[1].method == "exact"

    def self_check_requests(self):
        return self.cycle(random.Random(0))[:2]


# --------------------------------------------------------------------------
# cli_cold: one fresh `python -m meetpd.cli` process per request

# (command, kind, size); cheapest first.  A run has 60 to 72 requests, too
# few for ten above p90, so the tail reported is p83 to p86: inside the top
# quarter of each cycle, the three decompose requests, which all use one
# function so that their latencies form one group.  The median (rank 6 of
# 12) falls inside the two table checks.
CLI_SLOTS = [
    ("check", "grid_negative", 30),
    ("check", "hasse_boolean", 5),
    ("check", "hasse_divisor", None),
    ("matrix", "csv_min1", 60),
    ("matrix", "json_divisor2", 10),
    ("check", "table_divisor2", 10),
    ("check", "table_divisor2", 10),
    ("check", "grid_positive", 36),
    ("check", "min2_builtin", 8),
    ("decompose", "divisor2", 12),
    ("decompose", "divisor2", 12),
    ("decompose", "divisor2", 12),
]
MATRIX_BUILTINS = ("gcd_pow:1", "gcd_pow:2", "lcm_pow:1", "divisor_count")
SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def _csv_table(path, values):
    with open(path, "w", encoding="utf-8") as handle:
        for key, v in values.items():
            cells = list(key) if isinstance(key, tuple) else [key]
            handle.write(",".join(str(c) for c in cells) + f",{v}\n")


def _boolean_lattice(rank):
    """Elements s<bits>, edges adding one bit, lower sets as subset masks."""
    masks = sorted(range(1 << rank), key=lambda m: (bin(m).count("1"), m))
    name = {m: f"s{m:0{rank}b}" for m in masks}
    edges = [(name[m], name[m | 1 << i]) for m in masks for i in range(rank) if not m >> i & 1]
    below = {name[m]: [name[t] for t in masks if t & m == t] for m in masks}
    return [name[m] for m in masks], edges, below


def _divisor_lattice_of(n):
    ds = ref.divisors(n)
    name = {k: f"d{k}" for k in ds}
    edges = [(name[k], name[k * p]) for k in ds for p, _ in ref.factor(n) if n % (k * p) == 0]
    below = {name[k]: [name[e] for e in ref.divisors(k)] for k in ds}
    return [name[k] for k in ds], edges, below


class CliCold:
    in_process = False
    setup_samples = 9  # a fresh-process import is cheap but noisy

    def __init__(self, workdir, src):
        self.workdir = Path(workdir)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self._files = 0
        self._expected = {}
        self._turn = 0

    def setup(self):
        """One set-up probe: (seconds for a fresh interpreter to import the
        CLI, reference seconds in that interpreter)."""
        exported = self._launch("import", [])[1]
        return exported["seconds"] - exported["ref_spent_s"], exported["ref_s"]

    def _launch(self, mode, argv):
        """Run cli_launch.py: (completed process, its report, with the
        process's wall seconds added)."""
        report = self.workdir / "launch.json"
        report.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "cli_launch.py"), str(report), mode, *argv]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=self.env, cwd=self.workdir, capture_output=True,
                              timeout=CLI_TIMEOUT_S)
        seconds = time.perf_counter() - t0
        with open(report, "r", encoding="utf-8") as handle:
            exported = json.load(handle)
        return proc, dict(exported, seconds=seconds)

    def _path(self, suffix):
        self._files += 1
        return self.workdir / f"in{self._files % 64}{suffix}"

    def _grid_expected(self, family, spec, bound, d):
        key = (family, spec, bound, d)
        if key not in self._expected:
            self._expected[key] = ref.inverted_grid(
                family, lambda x: ref.builtin_value(spec, x), bound, d)
        return self._expected[key]

    def cycle(self, rng):
        """One request per slot.  The seed chooses table values, planted
        negatives and primes; builtins go round in a fixed order."""
        out = [self._request(rng, self._turn + i, *slot) for i, slot in enumerate(CLI_SLOTS)]
        self._turn += 1
        return out

    def _request(self, rng, turn, command, kind, size):
        if kind in ("grid_negative", "grid_positive", "min2_builtin"):
            family = "min" if kind == "min2_builtin" else "divisor"
            pool = {"grid_negative": NEGATIVE_BUILTINS, "grid_positive": POSITIVE_BUILTINS}.get(
                kind, ALL_BUILTINS)
            spec = _rotate(pool, turn)
            argv = ["check", "--family", family, "--d", "2", "--fn", spec, "--m", str(size)]
            return Request(f"cli:check:{kind}", {"argv": argv},
                           {"inverted": self._grid_expected(family, spec, size, 2), "bound": size})
        if kind == "table_divisor2":
            points = ref.grid_points(size, 2)
            g = _random_g(rng, points, turn % 2 == 1)
            path = self._path(".csv")
            _csv_table(path, ref.summatory_grid("divisor", g, size, 2))
            argv = ["check", "--d", "2", "--fn", f"@{path.name}", "--m", str(size)]
            return Request(f"cli:check:{kind}", {"argv": argv},
                           {"inverted": g, "bound": size})
        if kind in ("hasse_divisor", "hasse_boolean"):
            if kind == "hasse_boolean":
                elements, edges, below = _boolean_lattice(size)
            else:
                p, q, r = rng.sample(SMALL_PRIMES, 3)
                elements, edges, below = _divisor_lattice_of(p ** 3 * q ** 2 * r)
            hasse = self._path(".hasse")
            with open(hasse, "w", encoding="utf-8") as handle:
                handle.write("".join(f"elem {e}\n" for e in elements))
                handle.write("".join(f"edge {a} {b}\n" for a, b in edges))
            g = _random_g(rng, elements, turn % 2 == 1)
            table = self._path(".csv")
            _csv_table(table, {x: sum((g[z] for z in below[x]), Fraction(0)) for x in elements})
            argv = ["check", "--hasse", hasse.name, "--fn", f"@{table.name}", "--m", "1"]
            return Request(f"cli:check:{kind}", {"argv": argv},
                           {"inverted": g, "bound": 1})
        if kind == "csv_min1":
            spec = _rotate(MATRIX_BUILTINS, turn)
            argv = ["matrix", "--family", "min", "--d", "1", "--fn", spec, "--m", str(size),
                    "--format", "csv"]
            return Request(f"cli:matrix:{kind}", {"argv": argv},
                           {"family": "min", "d": 1, "bound": size, "spec": spec}, verdict=False)
        if kind == "json_divisor2":
            spec = _rotate(MATRIX_BUILTINS, turn)
            argv = ["matrix", "--d", "2", "--fn", spec, "--m", str(size)]
            return Request(f"cli:matrix:{kind}", {"argv": argv},
                           {"family": "divisor", "d": 2, "bound": size, "spec": spec},
                           verdict=False)
        spec = "gcd_pow:1"
        argv = ["decompose", "--d", "2", "--fn", spec, "--m", str(size)]
        return Request(f"cli:decompose:{kind}", {"argv": argv},
                       {"family": "divisor", "d": 2, "bound": size, "spec": spec}, verdict=False)

    def execute(self, req, tracer=None):
        """Run the command in a fresh process.  ``ref`` is (seconds of the
        reference work in that process, seconds spent timing it)."""
        proc, exported = self._launch("run" if tracer is None else "trace",
                                      req.params["argv"])
        if tracer is not None:
            tracer.merge(exported, tracer.request)
            tracer.counts["cli.import_s"] += exported["import_s"]
            tracer.counts["cli.output_bytes"] += len(proc.stdout)
        return {"exit": proc.returncode, "stdout": proc.stdout.decode("utf-8"),
                "stderr": proc.stderr.decode("utf-8", "replace"),
                "ref": (exported["ref_s"], exported["ref_spent_s"])}

    def document(self, req, out):
        return out

    def gate(self, req, doc):
        command = req.params["argv"][0]
        exp = req.expect
        try:
            if command == "check":
                return self._gate_check(exp, doc)
            if command == "matrix":
                return self._gate_matrix(exp, doc)
            return self._gate_decompose(exp, doc)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unreadable output ({type(exc).__name__}: {exc}); "
                    f"exit {doc['exit']}, stderr {doc['stderr'][-200:]!r}"]

    def _gate_check(self, exp, doc):
        out = json.loads(doc["stdout"])
        problems = verdict_problems(out, exp["bound"], exp["inverted"])
        if out.get("schema") != 1:
            problems.append(f"schema {out.get('schema')!r}")
        want_exit = 1 if any(v < 0 for v in exp["inverted"].values()) else 0
        if doc["exit"] != want_exit:
            problems.append(f"exit code {doc['exit']}, expected {want_exit}")
        return problems

    def _entries_problems(self, exp, labels, entry):
        points = ref.grid_points(exp["bound"], exp["d"])
        if labels != points:
            return ["matrix labels are not the covering set in lexicographic order"]
        n = len(points)
        probe = [(0, 0), (n - 1, n - 1), (0, n - 1)]
        probe += [(i * 7919 % n, i * 104729 % n) for i in range(1, 24)]
        for i, j in probe:
            want = ref.builtin_value(exp["spec"], ref.meet(exp["family"], points[i], points[j]))
            if Fraction(entry(i, j)) != want:
                return [f"entry ({i}, {j}) = {entry(i, j)}, expected {want}"]
        return []

    def _gate_matrix(self, exp, doc):
        if doc["exit"] != 0:
            return [f"exit code {doc['exit']}, expected 0"]
        if not doc["stdout"].startswith(("{", "[")):
            return self._gate_csv_matrix(exp, doc)
        out = json.loads(doc["stdout"])
        if out.get("kind") != "meet_matrix":
            return [f"document kind {out.get('kind')!r}"]
        labels = [tuple(x) if isinstance(x, list) else (x,) for x in out["labels"]]
        return self._entries_problems(exp, labels, lambda i, j: out["entries"][i][j])

    def _gate_csv_matrix(self, exp, doc):
        rows = [line.split(",") for line in doc["stdout"].splitlines()]
        n = exp["bound"] ** exp["d"]
        if len(rows) != n or any(len(r) != n for r in rows):
            return [f"csv matrix is not {n}x{n}"]
        return self._entries_problems(exp, ref.grid_points(exp["bound"], exp["d"]),
                                      lambda i, j: rows[i][j])

    def _gate_decompose(self, exp, doc):
        problems = [] if doc["exit"] == 0 else [f"exit code {doc['exit']}, expected 0"]
        out = json.loads(doc["stdout"])
        if out.get("reconstruction_residual") != "0":
            problems.append(f"reconstruction residual {out.get('reconstruction_residual')!r}")
        points = ref.grid_points(exp["bound"], exp["d"])
        axis = list(range(1, exp["bound"] + 1))
        if out.get("factor_labels") != [axis] * exp["d"]:
            problems.append("factor labels are not {1..m} per axis")
        diag = out["diag"]
        if len(diag) != len(points):
            return problems + [f"diagonal has {len(diag)} entries, expected {len(points)}"]
        expected = self._grid_expected(exp["family"], exp["spec"], exp["bound"], exp["d"])
        for k in (0, len(points) - 1, *range(7, len(points), 13)):
            if Fraction(diag[k]) != expected[points[k]]:
                problems.append(f"diag[{k}] = {diag[k]}, expected {expected[points[k]]}")
                break
        return problems

    def tampered(self, req, doc):
        command = req.params["argv"][0]
        if command == "check":
            out = json.loads(doc["stdout"])
            for label, bad in _tampered_verdicts(out):
                yield label, dict(doc, stdout=json.dumps(bad))
            yield "exit code changed", dict(doc, exit=1 - doc["exit"])
        elif command == "decompose":
            out = json.loads(doc["stdout"])
            yield "residual changed", dict(doc, stdout=json.dumps(
                dict(out, reconstruction_residual="1")))
            diag = list(out["diag"])
            diag[0] = str(Fraction(diag[0]) + 1)
            yield "diagonal changed", dict(doc, stdout=json.dumps(dict(out, diag=diag)))
            yield "crashed", dict(doc, exit=3, stdout="")
        elif doc["stdout"].startswith("{"):
            out = json.loads(doc["stdout"])
            entries = [list(r) for r in out["entries"]]
            entries[0][0] = str(Fraction(entries[0][0]) + 1)
            yield "matrix entry changed", dict(doc, stdout=json.dumps(dict(out, entries=entries)))
            labels = list(reversed(out["labels"]))
            yield "labels reordered", dict(doc, stdout=json.dumps(dict(out, labels=labels)))
        else:
            rows = doc["stdout"].splitlines()
            first = rows[0].split(",")
            first[0] = str(Fraction(first[0]) + 1)
            yield "matrix entry changed", dict(doc, stdout="\n".join([",".join(first)] + rows[1:]))

    def is_exact(self, req, out):
        return True

    def self_check_requests(self):
        rng = random.Random(0)
        return [self._request(rng, 0, "check", "grid_negative", 12),
                self._request(rng, 1, "check", "hasse_boolean", 3),
                self._request(rng, 0, "matrix", "csv_min1", 6),
                self._request(rng, 0, "matrix", "json_divisor2", 3),
                self._request(rng, 0, "decompose", "divisor2", 3)]


def make(name, workdir, src):
    if name == "criterion_sweep":
        return CriterionSweep()
    if name == "oracle_exact":
        return OracleExact()
    if name == "cli_cold":
        return CliCold(workdir, src)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("criterion_sweep", "oracle_exact", "cli_cold")
