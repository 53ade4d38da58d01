"""The benchmark's contract with meetpd.

``benchmarks/tracer.py`` wraps meetpd functions by module attribute and
``covering_set`` in the body of each lattice class; a traced run
(``--trace 1``) fails if one of them is deleted or moved.  Each workload's
correctness gate must accept meetpd's outputs and reject tampered ones.
"""

import random
from pathlib import Path

import pytest

import meetpd
import meetpd.cli

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    from tracer import COVERING_CLASSES, Tracer

    originals = {
        "inverted_table": meetpd.pdcheck.inverted_table,
        "pd_check_grid": meetpd.arith.pd_check_grid,
        "dirichlet_convolve_d": meetpd.arith.dirichlet_convolve_d,
        "kron_decompose_d": meetpd.meetmatrix.kron_decompose_d,
    }
    coverings = {name: vars(getattr(meetpd.posets, name))["covering_set"]
                 for name in COVERING_CLASSES}
    tracer = Tracer()
    tracer.install()
    try:
        assert meetpd.pdcheck.inverted_table.__wrapped__ is originals["inverted_table"]
        assert meetpd.arith.dirichlet_convolve_d.__wrapped__ is originals["dirichlet_convolve_d"]
    finally:
        tracer.uninstall()
    assert meetpd.pdcheck.inverted_table is originals["inverted_table"]
    assert meetpd.arith.pd_check_grid is originals["pd_check_grid"]
    assert meetpd.meetmatrix.kron_decompose_d is originals["kron_decompose_d"]
    for name, fn in coverings.items():
        assert vars(getattr(meetpd.posets, name))["covering_set"] is fn


def test_tracer_reads_the_mobius_cache(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    from tracer import Tracer

    # a new lattice object hands out a covering set no Mobius call has seen
    grid = meetpd.ProductLattice([meetpd.DivisorLattice()] * 2).covering_set(4)
    tracer = Tracer()
    tracer.install()
    try:
        first = meetpd.mobius(grid)
        assert meetpd.mobius(grid) is first
    finally:
        tracer.uninstall()
    spans = [span for span in tracer.spans if span[1] == "incidence.mobius"]
    assert [span[6]["hit"] for span in spans] == [False, True]


@pytest.mark.parametrize("name", ["criterion_sweep", "oracle_exact", "cli_cold"])
def test_benchmark_gate_passes_and_rejects_tampering(monkeypatch, tmp_path, name):
    """The benchmark's own self-check: correct outputs pass its gate and
    tampered copies fail it, so a change to an output format or to a call
    the benchmark makes fails here too."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import run
    import workloads

    workload = workloads.make(name, tmp_path, run.SRC)
    if workload.in_process:
        workload.setup()
    rejected, problems = run.gate_self_check(workload)
    assert problems == []
    assert rejected > 0


def test_oracle_requests_trace_one_meet_matrix_and_one_elimination(monkeypatch, tmp_path):
    """The per-layer figures of oracle_exact come from these two spans; a
    call that bypasses the wrapped names would silently drop them."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import run
    import workloads
    from tracer import Tracer

    workload = workloads.make("oracle_exact", tmp_path, run.SRC)
    workload.setup()
    kinds = {}
    for req in workload.cycle(random.Random(0)):
        kinds.setdefault(req.kind, req)
    tracer = Tracer()
    tracer.install()
    try:
        for request, req in enumerate(kinds.values()):
            tracer.request = request
            workload.execute(req, tracer)
    finally:
        tracer.uninstall()
    for name in ("meetmatrix.meet_matrix", "exact.symmetric_elimination"):
        per_request = [sum(1 for span in tracer.spans if span[:2] == [request, name])
                       for request in range(len(kinds))]
        assert per_request == [1] * len(kinds), name
