"""Positive definiteness verdicts for lattice functions, by two routes.

The two routes are independent, and the tests cross-check one against
the other; nothing else here produces a verdict.  The diagonal criterion
reads the Mobius-inverted values of the function over a lower closed
covering set from ``incidence.inverted_blocks`` (the same values that
form the diagonal of the meet matrix decomposition) and stops at the
first negative one.  The oracle route decides matrices up to
EXACT_ORACLE_LIMIT x EXACT_ORACLE_LIMIT (256x256) exactly, with no
tolerance and no float work, by the congruence elimination on int rows
of ``exact.symmetric_elimination`` (a MeetMatrix gives its values times
their common denominator).  The elimination packs each row into one int
of n signed w-bit fields, n^2 w / 8 bytes in all, with w widened only
when an entry could outgrow it.  Only larger matrices are converted to floats
and bounded by their smallest eigenvalue; NumPy is imported on that path
alone.  A positive verdict is always relative to the tested covering
bound; negative verdicts carry a reproducible witness.  The closure
combinators (``scale``, ``add``, ``pointwise_mul``) build functions that
stay positive definite when their operands are.
"""

from collections import namedtuple
from fractions import Fraction
from functools import cache

from .errors import (
    NegativeScalarError,
    NoLeastElementError,
    NumericalFailureError,
    PosetMismatchError,
)
from .exact import _rational, quadratic_form, symmetric_elimination
from .incidence import _numerator, inverted_blocks, inverted_values
from .meetmatrix import LatticeFunction, MeetMatrix, _jsonable

POSITIVE = "positive_definite_on_tested_covering"
NEGATIVE = "not_positive_definite"

EXACT_ORACLE_LIMIT = 256
FLOAT_TOL = 1e-9  # relative tolerance of the float path


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
    """The matrix as (rows, den, labels): its entries times den are the rows.

    A MeetMatrix gives int rows, scaled by the lcm of its values'
    denominators; any other matrix gives its entries as ints or Fractions, den 1.
    """
    if isinstance(matrix, MeetMatrix):
        rows, den = matrix.integer_rows()
        return rows, den, tuple(matrix.subset.members)
    rows = tuple(tuple(map(_rational, row)) for row in matrix)
    return rows, 1, tuple(range(len(rows)))


def _float_eigen(rows, den):
    """The matrix rows / den as a float array and its smallest eigenvalue
    (None if that fails)."""
    import numpy as np

    # int / int rounds correctly, as float() of the Fraction does
    to_float = float if den == 1 else (lambda v: v / den)
    fl = np.array([list(map(to_float, row)) for row in rows], dtype=float)
    try:
        return fl, float(np.linalg.eigvalsh(fl)[0])
    except np.linalg.LinAlgError:
        return fl, None


def psd_oracle(matrix):
    """Positive semidefiniteness of a symmetric rational matrix.

    Matrices up to EXACT_ORACLE_LIMIT x EXACT_ORACLE_LIMIT (256x256) are
    decided exactly by pivoted congruence elimination on ints; the float
    minimum eigenvalue is computed only when min_eigenvalue is first
    read.  A MeetMatrix goes in as den times itself, in ints, and the
    witness value is divided back by den.  Larger matrices fall back to a
    float eigenvalue bound with relative tolerance FLOAT_TOL.
    """
    rows, den, labels = _rows_and_labels(matrix)
    if len(rows) <= EXACT_ORACLE_LIMIT:
        fact = symmetric_elimination(rows)
        witness = (None if fact.is_psd else
                   VectorWitness(labels, fact.negative_direction, fact.negative_value / den))
        return OracleReport(fact.is_psd, "exact", cache(lambda: _float_eigen(rows, den)[1]),
                            fact.inertia, witness)
    import numpy as np

    fl, lam_min = _float_eigen(rows, den)
    if lam_min is None:
        raise NumericalFailureError(
            "float eigenvalue computation failed and the matrix exceeds the exact path limit"
        )
    scale = max(1.0, float(np.max(np.sum(np.abs(fl), axis=1))))
    if lam_min >= -FLOAT_TOL * scale:
        return OracleReport(True, "float", lam_min, None, None)
    approx, value = _negative_direction(rows, np.linalg.eigh(fl)[1][:, 0])
    return OracleReport(False, "float", lam_min, None, VectorWitness(labels, approx, value / den))


def _negative_direction(rows, vec):
    """The float vector rounded to one power-of-two denominator 2**bits,
    and its exact value v^T A v < 0.

    bits grows (0, 16, 32, 64, ...) until the exact replay is negative,
    up to the bits at which every entry is exact; a common denominator
    keeps the replayed value as small as the entries.
    """
    ratios = [float(c).as_integer_ratio() for c in vec]
    exact = max(b for _, b in ratios).bit_length() - 1
    bits = 0
    while True:
        unit = 1 << bits
        # a / b * unit, rounded half up on ints; b is a power of two
        ints = [(2 * a * unit + b) // (2 * b) for a, b in ratios]
        value = quadratic_form(rows, ints)
        if value < 0:
            return tuple(Fraction(k, unit) for k in ints), value / (unit * unit)
        if bits >= exact:
            raise NumericalFailureError("could not replay a negative direction exactly")
        bits = min(max(2 * bits, 16), exact)


def inverted_table(f, subset):
    """Mobius-inverted values of f over the subset, in member order."""
    return list(inverted_values(f, subset))


def pd_criterion(f, family, bound):
    """Diagonal criterion on the covering set at the given bound.

    The function is positive definite on the tested covering iff every
    Mobius-inverted value over the (lower closed) covering set is
    nonnegative.  The scan stops in the first block holding a negative value,
    whose first negative member is the witness; f is not read past that block.
    The family must have a least element (NoLeastElementError otherwise).
    """
    if getattr(family, "least", None) is None:
        raise NoLeastElementError("family has no least element")
    s = family.covering_set(bound)
    for xs, values, den in inverted_blocks(f, s):
        # a block's sign is its numerators' sign: Fractions only where a slab kept them
        if values and min(values if type(values[0]) is int else map(_numerator, values)) < 0:
            i = next(i for i, v in enumerate(values) if v < 0)
            return PDVerdict(NEGATIVE, bound, ElementWitness(xs[i], Fraction(values[i], den)))
    return PDVerdict(POSITIVE, bound, None, certificate=f.certificate)


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
