#!/usr/bin/env python3
"""meetpd benchmark: one client in a closed loop over a seeded workload.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a meetpd checkout: meetpd is imported from
``src/`` there (the CLI workload runs the ``meetpd.cli`` module through
``cli_launch.py`` with that directory on PYTHONPATH), and nothing outside
the checkout is read or written.  Workloads: criterion_sweep,
oracle_exact, cli_cold (see ``workloads.py`` and ``BENCHMARK.json``).

Each request starts when the previous one has finished and been checked.
Every output passes a correctness gate; a wrong verdict, a witness that
does not replay, a wrong inertia, a nonzero reconstruction residual, an
unexpected exit code or an exception counts the request as failed.
Before the timed loop the gate is shown tampered outputs and must reject
every one.  Latencies are timed in seconds and in ``ref_ms``, the time of
a fixed reference loop (``refclock.py``); the metrics use ``ref_ms``, which
the host's changing speed does not move.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A traced run spends the first half of its time untraced and the second
half traced, reports per-layer figures for the traced half and the
tracing overhead between the two, and writes its spans to
``.bench_out/trace-<workload>-seed<seed>.json`` when it ends.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import refclock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"
PROBE_TIMEOUT_S = 170
SHOWN_FAILURES = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only time import and first-touch set-up, print it as JSON")
    return p.parse_args(argv)


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q / 100 * len(sorted_values)) - 1)]


def tail_percentile(sorted_values):
    """(percentile, value): p90 if at least ten samples lie above it,
    otherwise the highest percentile that has ten samples above it."""
    n = len(sorted_values)
    if n - math.ceil(0.9 * n) >= 10:
        return 90.0, nearest_rank(sorted_values, 90)
    k = n - 11
    if k < math.ceil(n / 2) - 1:  # too few samples for any tail: use the median
        return 50.0, nearest_rank(sorted_values, 50)
    return 100.0 * (k + 1) / n, sorted_values[k]


class Phase:
    """Counts and latencies of the requests run in one timed phase, in
    seconds and in ``ref_ms`` (see refclock.py)."""

    def __init__(self):
        self.latencies = []  # seconds
        self.refs = []       # seconds of the reference work just before each request
        self.kinds = []
        self.attempted = self.failed = 0
        self.verdicts = self.exact_verdicts = 0
        self.failures = []

    @property
    def verified(self):
        return self.attempted - self.failed

    @property
    def service_s(self):
        return sum(self.latencies)

    def ref_latencies(self):
        """Latency of each request in ref_ms."""
        return [lat / ref for lat, ref in zip(self.latencies, self.refs)]

    @property
    def throughput(self):
        """Verified requests per ref_s (1000 ref_ms) of request time."""
        return 1000.0 * self.verified / sum(self.ref_latencies())


def run_phase(workload, rng, seconds, phase, tracer=None):
    """Closed loop over whole cycles of requests until `seconds` have passed."""
    started = time.perf_counter()
    while True:
        for req in workload.cycle(rng):
            if tracer is not None:
                tracer.request = phase.attempted
            out = None
            ref = refclock.ref_seconds()[0] if workload.in_process else None
            t0 = time.perf_counter()
            try:
                out = workload.execute(req, tracer)
            except Exception as exc:  # the request boundary: count it, keep going
                problems = [f"{type(exc).__name__}: {exc}"]
            latency = time.perf_counter() - t0
            if ref is None:  # timed by the serving process, inside the latency
                if out is not None:
                    ref, spent = out["ref"]
                    latency -= spent
                else:
                    ref = refclock.ref_seconds()[0]
            if out is not None:
                try:
                    problems = workload.gate(req, workload.document(req, out))
                except Exception as exc:  # malformed output: a failure, not a crash
                    problems = [f"gate error {type(exc).__name__}: {exc}"]
                if req.verdict:
                    phase.verdicts += 1
                    phase.exact_verdicts += bool(workload.is_exact(req, out))
            phase.attempted += 1
            phase.latencies.append(latency)
            phase.refs.append(ref)
            phase.kinds.append(req.kind)
            if problems:
                phase.failed += 1
                if len(phase.failures) < SHOWN_FAILURES:
                    phase.failures.append(f"{req.kind}: {'; '.join(problems)}")
        if time.perf_counter() - started >= seconds:
            return phase


def gate_self_check(workload):
    """Correct outputs must pass the gate and every tampered copy must fail."""
    rejected, problems = 0, []
    for req in workload.self_check_requests():
        doc = workload.document(req, workload.execute(req))
        found = workload.gate(req, doc)
        if found:
            problems.append(f"{req.kind}: correct output rejected: {found}")
        for label, bad in workload.tampered(req, doc):
            if workload.gate(req, bad):
                rejected += 1
            else:
                problems.append(f"{req.kind}: tampered output accepted ({label})")
    return rejected, problems


def timed_setup(workload):
    """(set-up seconds, reference seconds around it) in this process."""
    before = refclock.ref_seconds()[0]
    t0 = time.perf_counter()
    workload.setup()
    seconds = time.perf_counter() - t0
    return seconds, (before + refclock.ref_seconds()[0]) / 2


def setup_probe(name, seed):
    """timed_setup in a fresh process running this benchmark's set-up only."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", "0", "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return tuple(json.loads(proc.stdout.strip().splitlines()[-1]))


def run_context(workload, seed):
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "meetpd").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy
    import meetpd.pdcheck
    return {
        "workload": workload, "seed": seed, "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "clients": 1, "loop": "closed",
        "EXACT_ORACLE_LIMIT": meetpd.pdcheck.EXACT_ORACLE_LIMIT,
    }


def end_to_end(phase, setups, rss_scope):
    """End-to-end metrics; ``setups`` holds (seconds, reference seconds)
    pairs, and setup_s is in reference seconds (1000 ref_ms)."""
    lat = sorted(phase.ref_latencies())
    secs = sorted(phase.latencies)
    tail_q, tail = tail_percentile(lat)
    usage = resource.getrusage(rss_scope)
    metrics = {
        "setup_s": (statistics.median(secs / ref for secs, ref in setups) / 1000.0, "s"),
        "throughput_per_ref_s": (phase.throughput, "1/ref_s"),
        "latency_p50_ref_ms": (nearest_rank(lat, 50), "ref_ms"),
        "latency_p90_ref_ms": (tail, "ref_ms"),
        "verified_ratio": (phase.verified / phase.attempted, "ratio"),
        "peak_rss_mb": (usage.ru_maxrss / 1024.0, "MB"),
        "exact_verdict_ratio": (phase.exact_verdicts / max(phase.verdicts, 1), "ratio"),
    }
    tail_note = "" if tail_q == 90.0 else \
        f"; fewer than 10 samples above p90, reporting p{tail_q:.1f}"
    notes = {
        "setup_s": f"1000 ref_ms each; median of {len(setups)} set-ups, taking "
                   + ", ".join(f"{secs:.4f}" for secs, _ in setups) + " s",
        "throughput_per_ref_s": f"{phase.verified} verified requests in "
                                f"{phase.service_s:.3f} s, "
                                f"{phase.verified / phase.service_s:.4g}/s",
        "latency_p50_ref_ms": f"n={len(lat)}; {nearest_rank(secs, 50):.6f} s",
        "latency_p90_ref_ms": f"n={len(lat)}; p{tail_q:.4g} {tail_percentile(secs)[1]:.6f} s"
                              + tail_note,
        "verified_ratio": f"fail_ratio = {phase.failed}/{phase.attempted}"
                          f" = {phase.failed / phase.attempted:.4f}",
        "peak_rss_mb": "RUSAGE_SELF" if rss_scope == resource.RUSAGE_SELF
                       else "RUSAGE_CHILDREN (largest CLI process)",
        "exact_verdict_ratio": f"{phase.exact_verdicts}/{phase.verdicts} verdicts "
                               "without float tolerance",
    }
    return metrics, notes


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "meetpd" / "__init__.py").is_file():
        print(f"error: no meetpd sources at {SRC.relative_to(ROOT)}/meetpd; "
              "run from the root of a meetpd checkout", file=sys.stderr)
        return 2
    # one client, one thread: BLAS would otherwise start a thread per vCPU
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_DIR)
    try:
        return run(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workloads, workdir):
    wl = workloads.make(args.workload, workdir, SRC)
    if wl.in_process:
        setups = [timed_setup(wl)]
        import meetpd
        if Path(meetpd.__file__).resolve().parent != (SRC / "meetpd").resolve():
            print(f"error: imported meetpd from {meetpd.__file__}", file=sys.stderr)
            return 2
        if args.setup_probe:
            print(json.dumps(setups[0]))
            return 0
        if not args.trace:
            setups += [setup_probe(args.workload, args.seed)
                       for _ in range(wl.setup_samples - 1)]
    else:
        setups = [wl.setup() for _ in range(wl.setup_samples if not args.trace else 1)]

    rejected, self_check_problems = gate_self_check(wl)
    for problem in self_check_problems:
        print(f"gate self-check FAILED: {problem}", file=sys.stderr)
    print(f"gate self-check: {rejected} tampered outputs rejected, "
          f"{len(self_check_problems)} problems")

    rng = random.Random(args.seed)
    phase = Phase()
    notes = {}
    if args.trace:
        import tracer as tracing
        run_phase(wl, rng, args.seconds / 2, phase)
        tracer = tracing.Tracer()
        if wl.in_process:
            tracer.install()
        try:
            traced = run_phase(wl, rng, args.seconds / 2, Phase(), tracer)
        finally:
            tracer.uninstall()
        metrics = tracing.layer_metrics(tracer, traced.attempted, {
            "cli.output_bytes": tracer.counts["cli.output_bytes"] / traced.attempted,
            "cli.import_s": tracer.counts["cli.import_s"] / traced.attempted,
            "trace.throughput_per_ref_s": traced.throughput,
            "trace.overhead_ratio": phase.throughput / traced.throughput,
        })
        phases = [phase, traced]
    else:
        run_phase(wl, rng, args.seconds, phase)
        scope = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
        metrics, notes = end_to_end(phase, setups, scope)
        phases = [phase]
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)

    context = run_context(args.workload, args.seed)
    print("context: " + json.dumps(context))
    for failure in (f for p in phases for f in p.failures):
        print(f"FAILED {failure}")
    by_kind = {}
    for kind, secs, ref_ms in zip(phase.kinds, phase.latencies, phase.ref_latencies()):
        by_kind.setdefault(kind, []).append((ref_ms, secs))
    print(f"reference work: median {statistics.median(phase.refs) * 1000:.4f} ms "
          "(1 ref_ms; each request is scaled by its own timing)")
    for kind, lats in sorted(by_kind.items(), key=lambda kv: statistics.median(r for r, _ in kv[1])):
        print(f"  {kind:40s} n={len(lats):4d}  median {statistics.median(r for r, _ in lats):9.3f}"
              f" ref_ms  {statistics.median(s for _, s in lats):.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit:9s} {notes.get(name, '')}".rstrip())
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(path, context)
        print(f"spans written to {path.relative_to(ROOT)}")

    result = {
        "correct": failed == 0 and not self_check_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
