"""Span tracer that wraps meetpd's public functions from outside.

meetpd modules bind imported names at import time, so a function is
wrapped by replacing every module attribute (and class attribute, for
methods) that holds it: the wrapper sits on the name each caller looks
up.  Spans stay in memory; ``dump`` writes them once, when the run ends.
A span's self time is its duration minus the time its child spans cover.

This module imports neither numpy nor meetpd at import time, so the
benchmark can time ``import meetpd`` itself.
"""

import json
import sys
import time
from collections import defaultdict

# (module, attribute, span name); each is wrapped wherever it is bound.
SPANNED_FUNCTIONS = [
    ("meetpd.exact", "symmetric_elimination", "exact.symmetric_elimination"),
    ("meetpd.exact", "quadratic_form", "exact.quadratic_form"),
    ("meetpd.incidence", "mobius", "incidence.mobius"),
    ("meetpd.pdcheck", "inverted_table", "pdcheck.inverted_table"),
    ("meetpd.pdcheck", "pd_criterion", "pdcheck.pd_criterion"),
    ("meetpd.pdcheck", "psd_oracle", "pdcheck.psd_oracle"),
    ("meetpd.arith", "pd_check_grid", "arith.pd_check_grid"),
    ("meetpd.meetmatrix", "meet_matrix", "meetmatrix.meet_matrix"),
    ("meetpd.meetmatrix", "kron_decompose_d", "meetmatrix.kron_decompose_d"),
    ("meetpd.meetmatrix", "reconstruct", "meetmatrix.reconstruct"),
    ("meetpd.meetmatrix", "matrix_to_json", "meetmatrix.to_json"),
    ("meetpd.meetmatrix", "matrix_to_csv", "meetmatrix.to_json"),
    ("meetpd.meetmatrix", "decomposition_to_json", "meetmatrix.to_json"),
    ("meetpd.posets", "load_hasse", "posets.hasse_build"),
    ("numpy.linalg", "eigvalsh", "pdcheck.float_eigen"),
    ("numpy.linalg", "eigh", "pdcheck.float_eigen"),
]

# Called too often for a span each; only counted.
COUNTED_FUNCTIONS = [
    ("meetpd.arith", "dirichlet_convolve_d", "arith.dirichlet_convolve_d"),
    ("meetpd.intfun", "factorize", "intfun.factorize"),
]

# Every per-layer metric with its unit.  Counts, seconds and bytes are
# means per traced request; ratios and maxima are over the traced phase.
LAYER_UNITS = {
    "exact.symmetric_elimination.calls": "count/req",
    "exact.symmetric_elimination.self_s": "s/req",
    "exact.symmetric_elimination.order_max": "count",
    "exact.symmetric_elimination.ops_est": "count/req",
    "exact.quadratic_form.self_s": "s/req",
    "pdcheck.float_eigen.calls": "count/req",
    "pdcheck.float_eigen.self_s": "s/req",
    "pdcheck.float_eigen.useful_ratio": "ratio",
    "pdcheck.psd_oracle.self_s": "s/req",
    "incidence.mobius.calls": "count/req",
    "incidence.mobius.self_s": "s/req",
    "incidence.mobius.cache_hit_ratio": "ratio",
    "pdcheck.inverted_table.self_s": "s/req",
    "pdcheck.pd_criterion.calls": "count/req",
    "pdcheck.pd_criterion.self_s": "s/req",
    "arith.pd_check_grid.calls": "count/req",
    "arith.pd_check_grid.self_s": "s/req",
    "arith.dirichlet_convolve_d.calls": "count/req",
    "intfun.factorize.calls": "count/req",
    "meetmatrix.meet_matrix.calls": "count/req",
    "meetmatrix.meet_matrix.self_s": "s/req",
    "meetmatrix.meet_matrix.entries": "count/req",
    "meetmatrix.kron_decompose_d.self_s": "s/req",
    "meetmatrix.reconstruct.self_s": "s/req",
    "meetmatrix.to_json.self_s": "s/req",
    "cli.output_bytes": "B/req",
    "cli.main.self_s": "s/req",
    "cli.import_s": "s/req",
    "posets.covering_set.calls": "count/req",
    "posets.covering_set.s": "s/req",
    "posets.hasse_build.s": "s/req",
    "trace.throughput_per_ref_s": "1/ref_s",
    "trace.overhead_ratio": "ratio",
}

COVERING_CLASSES = ["DivisorLattice", "MinLattice", "ProductLattice", "Poset", "MeetSemilattice"]


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.spans = []          # [request, name, start, end, parent, self_s, attrs]
        self.counts = defaultdict(int)
        self.request = None
        self._stack = []         # (span index, accumulated child seconds)
        self._restore = []

    def _run_span(self, name, fn, args, kwargs, attrs):
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append([index, 0.0])
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            _, child = self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            self.spans[index] = [self.request, name, start, end, parent, duration - child, attrs]

    def traced(self, name, fn, annotate=None):
        def wrapper(*args, **kwargs):
            attrs = annotate(*args, **kwargs) if annotate else None
            return self._run_span(name, fn, args, kwargs, attrs)
        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def call(self, name, fn, *args, **kwargs):
        """Run fn under a span of the given name (used for root spans)."""
        return self._run_span(name, fn, args, kwargs, None)

    def _rebind(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "meetpd" or mod_name.startswith("meetpd.")
                                   or mod_name == "numpy.linalg"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, original))

    def install(self):
        """Wrap every layer boundary; meetpd must already be imported."""
        import numpy.linalg  # noqa: F401  (rebinding looks it up in sys.modules)
        import meetpd.incidence as incidence
        import meetpd.pdcheck as pdcheck
        import meetpd.posets as posets

        annotate = {
            "exact.symmetric_elimination": lambda rows, *a, **k: {"n": len(rows)},
            "incidence.mobius": lambda domain, *a, **k: {"hit": domain in incidence._MOBIUS_CACHE},
            "meetmatrix.meet_matrix": lambda subset, *a, **k: {"entries": len(subset) ** 2},
            "pdcheck.float_eigen": lambda m, *a, **k: {
                "useful": len(m) > pdcheck.EXACT_ORACLE_LIMIT},
        }
        for mod_name, attr, name in SPANNED_FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            self._rebind(original, self.traced(name, original, annotate.get(name)))
        for mod_name, attr, name in COUNTED_FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            self._rebind(original, self.counted(name, original))
        for cls_name in COVERING_CLASSES:
            cls = getattr(posets, cls_name)
            original = cls.__dict__["covering_set"]
            setattr(cls, "covering_set", self.traced("posets.covering_set", original))
            self._restore.append((cls, "covering_set", original))
        cli = sys.modules.get("meetpd.cli")
        if cli is not None:
            # the CLI serializes documents with json.dumps at its own call sites
            self._restore.append((cli, "json", cli.json))
            cli.json = _JsonProxy(self.traced("meetmatrix.to_json", cli.json.dumps))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def export(self):
        return {"spans": self.spans, "counts": dict(self.counts)}

    def merge(self, exported, request):
        """Adopt the spans and counts another process exported."""
        offset = len(self.spans)
        for span in exported["spans"]:
            span = list(span)
            span[0] = request
            if span[4] >= 0:
                span[4] += offset
            self.spans.append(span)
        for name, n in exported["counts"].items():
            self.counts[name] += n

    def dump(self, path, meta):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"meta": meta, **self.export()}, handle)


class _JsonProxy:
    """Stands in for the json module, with dumps wrapped."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


def layer_metrics(tracer, requests, extra):
    """Per-layer metrics as {name: (value, unit)}, in LAYER_UNITS order.

    ``extra`` supplies the figures measured outside the spans
    (``cli.output_bytes``, ``cli.import_s``, and the traced throughput
    with its untraced counterpart).
    """
    spans = tracer.spans
    per = 1.0 / max(requests, 1)

    def count(name):
        return sum(1 for s in spans if s[1] == name)

    def self_s(name):
        return sum(s[5] for s in spans if s[1] == name) * per

    def total_s(name):
        return sum(s[3] - s[2] for s in spans if s[1] == name) * per

    def attrs(name):
        return [s[6] for s in spans if s[1] == name]

    elim = attrs("exact.symmetric_elimination")
    eigen = attrs("pdcheck.float_eigen")
    mob = attrs("incidence.mobius")
    mm = attrs("meetmatrix.meet_matrix")
    out = {
        "exact.symmetric_elimination.calls": len(elim) * per,
        "exact.symmetric_elimination.self_s": self_s("exact.symmetric_elimination"),
        "exact.symmetric_elimination.order_max": max((a["n"] for a in elim), default=0),
        "exact.symmetric_elimination.ops_est": sum(a["n"] ** 3 / 3 for a in elim) * per,
        "exact.quadratic_form.self_s": self_s("exact.quadratic_form"),
        "pdcheck.float_eigen.calls": len(eigen) * per,
        "pdcheck.float_eigen.self_s": self_s("pdcheck.float_eigen"),
        "pdcheck.float_eigen.useful_ratio":
            sum(a["useful"] for a in eigen) / len(eigen) if eigen else 0.0,
        "pdcheck.psd_oracle.self_s": self_s("pdcheck.psd_oracle"),
        "incidence.mobius.calls": len(mob) * per,
        "incidence.mobius.self_s": self_s("incidence.mobius"),
        "incidence.mobius.cache_hit_ratio":
            sum(a["hit"] for a in mob) / len(mob) if mob else 0.0,
        "pdcheck.inverted_table.self_s": self_s("pdcheck.inverted_table"),
        "pdcheck.pd_criterion.calls": count("pdcheck.pd_criterion") * per,
        "pdcheck.pd_criterion.self_s": self_s("pdcheck.pd_criterion"),
        "arith.pd_check_grid.calls": count("arith.pd_check_grid") * per,
        "arith.pd_check_grid.self_s": self_s("arith.pd_check_grid"),
        "arith.dirichlet_convolve_d.calls": tracer.counts["arith.dirichlet_convolve_d"] * per,
        "intfun.factorize.calls": tracer.counts["intfun.factorize"] * per,
        "meetmatrix.meet_matrix.calls": len(mm) * per,
        "meetmatrix.meet_matrix.self_s": self_s("meetmatrix.meet_matrix"),
        "meetmatrix.meet_matrix.entries": sum(a["entries"] for a in mm) * per,
        "meetmatrix.kron_decompose_d.self_s": self_s("meetmatrix.kron_decompose_d"),
        "meetmatrix.reconstruct.self_s": self_s("meetmatrix.reconstruct"),
        "meetmatrix.to_json.self_s": self_s("meetmatrix.to_json"),
        "cli.main.self_s": self_s("cli.main"),
        "posets.covering_set.calls": count("posets.covering_set") * per,
        "posets.covering_set.s": total_s("posets.covering_set"),
        "posets.hasse_build.s": total_s("posets.hasse_build"),
    }
    out.update(extra)
    return {name: (out[name], unit) for name, unit in LAYER_UNITS.items()}
