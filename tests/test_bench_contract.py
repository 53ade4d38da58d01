"""The names the benchmark's span tracer binds must exist.

``benchmarks/tracer.py`` wraps meetpd functions by module attribute and
``covering_set`` in the body of each lattice class; a traced run
(``--trace 1``) fails if one of them is deleted or moved.
"""

from pathlib import Path

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
