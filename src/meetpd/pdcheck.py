"""Positive definiteness verdicts for lattice functions.

The diagonal criterion reads the Mobius-inverted values of the function
over a lower closed covering set from ``incidence.inverted_values`` (the
same values that form the diagonal of the meet matrix decomposition) and
stops at the first negative one.  The oracle route decides matrices up
to EXACT_ORACLE_LIMIT x EXACT_ORACLE_LIMIT (256x256) by the exact
fraction-free elimination of ``exact.symmetric_elimination``, with no
tolerance and no float work; only larger matrices are converted to
floats and bounded by their smallest eigenvalue.  NumPy is imported on
that float path alone, so importing meetpd does not load it.  A positive
verdict is always relative to the tested covering bound; negative
verdicts carry a reproducible witness.
"""

from collections import namedtuple
from fractions import Fraction
from functools import cache

from .errors import (
    ComponentNotCertifiedError,
    MeetPDError,
    NegativeScalarError,
    NoLeastElementError,
    NumericalFailureError,
    PosetMismatchError,
)
from .exact import quadratic_form, symmetric_elimination
from .incidence import inverted_values
from .meetmatrix import LatticeFunction, MeetMatrix, _jsonable, meet_matrix
from .posets import ProductLattice, product_subset

POSITIVE = "positive_definite_on_tested_covering"
NEGATIVE = "not_positive_definite"

EXACT_ORACLE_LIMIT = 256
DEFAULT_TOL = 1e-9


class ElementWitness(namedtuple("ElementWitness", "element value")):
    """Element whose Mobius-inverted value is strictly negative."""

    __slots__ = ()
    kind = "element"

    def to_json(self):
        return {"kind": self.kind, "element": _jsonable(self.element), "value": str(self.value)}


class VectorWitness(namedtuple("VectorWitness", "labels vector value")):
    """Finite subset plus a vector v with v^T (S)_f v < 0."""

    __slots__ = ()
    kind = "subset_vector"

    def to_json(self):
        return {
            "kind": self.kind,
            "subset": [_jsonable(x) for x in self.labels],
            "vector": [str(c) for c in self.vector],
            "value": str(self.value),
        }


class PDVerdict(namedtuple("PDVerdict", "verdict tested_bound witness certificate",
                           defaults=(None, False))):
    __slots__ = ()

    @property
    def is_positive(self):
        return self.verdict == POSITIVE

    def to_json(self):
        return {
            "verdict": self.verdict,
            "witness": self.witness.to_json() if self.witness is not None else None,
            "tested_bound": self.tested_bound,
            "certificate_flag": self.certificate,
        }


class OracleReport(namedtuple("OracleReport", "is_psd method min_eigenvalue inertia witness")):
    """Oracle outcome; min_eigenvalue is the float estimate (None if it failed).

    On the exact path the estimate plays no part in the verdict, so the
    min_eigenvalue field holds a cached thunk, run when first read.
    """

    __slots__ = ()

    @property
    def min_eigenvalue(self):
        v = self[2]
        return v() if callable(v) else v


def _rows_and_labels(matrix):
    if isinstance(matrix, MeetMatrix):
        return matrix.rows, tuple(matrix.subset.members)
    rows = tuple(tuple(Fraction(v) for v in row) for row in matrix)
    return rows, tuple(range(len(rows)))


def _float_eigen(rows):
    """The matrix as a float array and its smallest eigenvalue (None if that fails)."""
    import numpy as np

    fl = np.array([[float(v) for v in row] for row in rows], dtype=float)
    try:
        return fl, float(np.linalg.eigvalsh(fl)[0])
    except np.linalg.LinAlgError:
        return fl, None


def psd_oracle(matrix, tol=DEFAULT_TOL):
    """Positive semidefiniteness of a symmetric rational matrix.

    Matrices up to EXACT_ORACLE_LIMIT x EXACT_ORACLE_LIMIT (256x256) are
    decided exactly by fraction-free pivoted congruence elimination on
    integers, with no float work; the float minimum eigenvalue is still
    reported, computed when min_eigenvalue is first read.  Larger
    matrices fall back to a float eigenvalue bound with relative
    tolerance tol.
    """
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    rows, labels = _rows_and_labels(matrix)
    if len(rows) <= EXACT_ORACLE_LIMIT:
        fact = symmetric_elimination(rows)
        witness = None
        if fact.negative_direction is not None:
            witness = VectorWitness(labels, fact.negative_direction, fact.negative_value)
        return OracleReport(fact.is_psd, "exact", cache(lambda: _float_eigen(rows)[1]),
                            fact.inertia, witness)
    import numpy as np

    fl, lam_min = _float_eigen(rows)
    if lam_min is None:
        raise NumericalFailureError(
            "float eigenvalue computation failed and the matrix exceeds the exact path limit"
        )
    scale = max(1.0, float(np.max(np.sum(np.abs(fl), axis=1))))
    if lam_min >= -tol * scale:
        return OracleReport(True, "float", lam_min, None, None)
    vec = np.linalg.eigh(fl)[1][:, 0]
    approx = tuple(Fraction(float(c)).limit_denominator(10 ** 9) for c in vec)
    value = quadratic_form(rows, approx)
    if value >= 0:
        approx = tuple(Fraction(float(c)) for c in vec)
        value = quadratic_form(rows, approx)
    if value >= 0:
        raise NumericalFailureError("could not replay a negative direction exactly")
    return OracleReport(False, "float", lam_min, None, VectorWitness(labels, approx, value))


def inverted_table(f, subset):
    """Mobius-inverted values of f over the subset, in member order."""
    return list(inverted_values(f, subset))


def pd_criterion(f, family, bound):
    """Diagonal criterion on the covering set at the given bound.

    The function is positive definite on the tested covering iff every
    Mobius-inverted value over the (lower closed) covering set is
    nonnegative; the scan stops at the first negative value, which becomes
    an element witness, so f is never evaluated past it.
    """
    if family is None:
        family = f.lattice
    if getattr(family, "least", None) is None:
        raise NoLeastElementError("family has no least element")
    s = family.covering_set(bound)
    for x, value in inverted_values(f, s):
        if value.numerator < 0:
            return PDVerdict(NEGATIVE, bound, ElementWitness(x, value))
    return PDVerdict(POSITIVE, bound, None, certificate=f.certificate)


class CoveringComparison(namedtuple("CoveringComparison", "bound criterion_positive oracle_psd")):
    __slots__ = ()

    @property
    def agree(self):
        return self.criterion_positive == self.oracle_psd


class CoveringReport(namedtuple("CoveringReport", "comparisons")):
    __slots__ = ()

    @property
    def all_agree(self):
        return all(c.agree for c in self.comparisons)


def check_covering_equivalence(f, family, bound, tol=DEFAULT_TOL):
    """Run the diagonal criterion and the eigenvalue oracle side by side.

    Both are evaluated on every covering set up to the bound; any
    disagreement is reported as-is, never resolved.
    """
    if family is None:
        family = f.lattice
    comparisons = []
    for m in range(1, bound + 1):
        verdict = pd_criterion(f, family, m)
        report = psd_oracle(meet_matrix(family.covering_set(m), f), tol)
        comparisons.append(CoveringComparison(m, verdict.is_positive, report.is_psd))
    return CoveringReport(tuple(comparisons))


class MonotonicityReport(namedtuple("MonotonicityReport", "negative_values order_violations")):
    __slots__ = ()

    @property
    def passed(self):
        return not self.negative_values and not self.order_violations


def check_monotonicity(f, subset):
    """Nonnegativity and order-monotonicity of f on a subset.

    Failure of either implies the function is not positive definite (a
    2x2 principal minor goes negative), so this is a cheap necessary
    check; for certified functions it must pass.
    """
    negative = []
    violations = []
    ms = subset.members
    values = [f(x) for x in ms]
    for x, v in zip(ms, values):
        if v < 0:
            negative.append((x, v))
    for i, x in enumerate(ms):
        for j in range(i + 1, len(ms)):
            y = ms[j]
            if subset.leq(x, y) and values[i] > values[j]:
                violations.append((x, y, values[i], values[j]))
    return MonotonicityReport(tuple(negative), tuple(violations))


def _same_lattice(f, g):
    if not (f.lattice is g.lattice or f.lattice == g.lattice):
        raise PosetMismatchError("functions live on different lattices")


def scale(f, a):
    """a*f for a >= 0; preserves positive definiteness."""
    q = Fraction(a)
    if q < 0:
        raise NegativeScalarError(f"scalar must be nonnegative, got {q}")
    certificate = f.certificate or q == 0
    return LatticeFunction(
        f.lattice, lambda x: q * f(x),
        name=f"{q}*{f.name}", certificate=certificate,
    )


def add(f, g):
    """f + g; the sum of positive definite functions is positive definite."""
    _same_lattice(f, g)
    return LatticeFunction(
        f.lattice, lambda x: f(x) + g(x),
        name=f"{f.name}+{g.name}", certificate=f.certificate and g.certificate,
    )


def pointwise_mul(f, g):
    """f*g pointwise; meet matrices multiply entrywise (Hadamard), so the
    product of positive definite functions is positive definite."""
    _same_lattice(f, g)
    return LatticeFunction(
        f.lattice, lambda x: f(x) * g(x),
        name=f"{f.name}*{g.name}", certificate=f.certificate and g.certificate,
    )


def separable_product(g, h):
    """F(u, v) = g(u) h(v) on the product of the component lattices."""
    lat = ProductLattice((g.lattice, h.lattice))
    return LatticeFunction(
        lat, lambda xy: g(xy[0]) * h(xy[1]),
        name=f"{g.name}(x){h.name}",
        certificate=g.certificate and h.certificate,
    )


def factorable_pd(g, h, bound, family_g=None, family_h=None):
    """Certificate for F(u, v) = g(u) h(v) from certified components.

    Both components must pass the diagonal criterion on their coverings at
    the bound (ComponentNotCertifiedError otherwise).  The identity
    (S x T)_F = (S)_g kron (T)_h is then validated entry by entry on the
    tested covering sets, and the product verdict is positive because a
    Kronecker product of positive semidefinite matrices is positive
    semidefinite.
    """
    gv = pd_criterion(g, family_g, bound)
    if not gv.is_positive:
        raise ComponentNotCertifiedError(f"left component fails: witness {gv.witness}")
    hv = pd_criterion(h, family_h, bound)
    if not hv.is_positive:
        raise ComponentNotCertifiedError(f"right component fails: witness {hv.witness}")
    fam_g = family_g if family_g is not None else g.lattice
    fam_h = family_h if family_h is not None else h.lattice
    s = fam_g.covering_set(bound)
    t = fam_h.covering_set(bound)
    func = separable_product(g, h)
    mg = meet_matrix(s, g)
    mh = meet_matrix(t, h)
    mf = meet_matrix(product_subset([s, t]), func)
    nt = len(t)
    for i in range(len(s)):
        for j in range(nt):
            for k in range(len(s)):
                for l in range(nt):
                    if mf.rows[i * nt + j][k * nt + l] != mg.rows[i][k] * mh.rows[j][l]:
                        raise MeetPDError("kronecker identity violated on the tested subsets")
    return PDVerdict(POSITIVE, bound, None, certificate=gv.certificate and hv.certificate)
