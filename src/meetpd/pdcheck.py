"""Positive definiteness verdicts for lattice functions, by two routes.

The two routes are independent, and the tests cross-check one against
the other; nothing else here produces a verdict.  The diagonal criterion
reads the Mobius-inverted values of the function over a lower closed
covering set from ``incidence.inverted_blocks`` (the same values that
form the diagonal of the meet matrix decomposition) and stops at the
first negative one.  The oracle route decides matrices up to
EXACT_ORACLE_LIMIT x EXACT_ORACLE_LIMIT (1,024 x 1,024, the largest meet
matrix the CLI writes) exactly, with no tolerance and no float work, by
the congruence elimination on int rows of ``exact.symmetric_elimination``,
and refuses larger ones; a MeetMatrix goes in as its values times their
common denominator on its meet tables, an ``exact.KronMatrix`` packed
from the tables.  The elimination packs each row into one int of n
signed w-bit fields, n^2 w / 8 bytes in all, with w widened only when an
entry could outgrow it.  A positive verdict is always relative to the
tested covering bound; negative verdicts carry a reproducible witness.
The closure combinators (``scale``, ``add``, ``pointwise_mul``) build
functions that stay positive definite when their operands are.
"""

from collections import namedtuple
from fractions import Fraction

from .errors import NegativeScalarError, NoLeastElementError, PosetMismatchError
from .exact import symmetric_elimination
from .incidence import _numerator, inverted_blocks, inverted_values
from .meetmatrix import LatticeFunction, MeetMatrix, _jsonable, refuse_inexact

POSITIVE = "positive_definite_on_tested_covering"
NEGATIVE = "not_positive_definite"

EXACT_ORACLE_LIMIT = 1024  # cli.MAX_MATRIX_MEMBERS


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


class OracleReport(namedtuple("OracleReport", "is_psd inertia witness")):
    """Oracle outcome: the exact inertia, and a witness when not PSD."""

    __slots__ = ()
    method = "exact"


def psd_oracle(matrix):
    """Positive semidefiniteness of a symmetric rational matrix, decided exactly.

    Pivoted congruence elimination on ints gives the inertia and, when
    the matrix is not PSD, a rational vector v with v^T A v < 0.  A
    MeetMatrix goes in as den times itself, in ints on its meet tables,
    and the witness value is divided back by den.  A matrix of more than
    EXACT_ORACLE_LIMIT rows raises ValueError before any row is read.
    """
    if isinstance(matrix, MeetMatrix):  # its KronMatrix, rows gathered only when iterated
        rows, den, labels = matrix.kron, matrix.den, matrix.subset.members
    else:
        rows = list(matrix)
        den, labels = 1, range(len(rows))
    if len(rows) > EXACT_ORACLE_LIMIT:
        raise ValueError(f"the oracle decides matrices of at most {EXACT_ORACLE_LIMIT} "
                         f"rows; this one has {len(rows)}")
    fact = symmetric_elimination(rows)
    witness = (None if fact.is_psd else
               VectorWitness(tuple(labels), fact.negative_direction, fact.negative_value / den))
    return OracleReport(fact.is_psd, fact.inertia, witness)


def inverted_table(f, subset):
    """Mobius-inverted values of f over the subset, in member order."""
    return list(inverted_values(f, subset))


def pd_criterion(f, family, bound):
    """Diagonal criterion on the covering set at the given bound.

    The function is positive definite on the tested covering iff every
    Mobius-inverted value over the (lower closed) covering set is
    nonnegative.  The scan stops in the first block, a doubling run of
    first-axis slabs (``incidence.value_blocks``), holding a negative value,
    whose first negative member is the witness; f is not read past that run.
    The family must have a least element, and f exact values (exact=True).
    """
    if getattr(family, "least", None) is None:
        raise NoLeastElementError("family has no least element")
    refuse_inexact(f, "exact verdicts")
    s = family.covering_set(bound)
    for xs, values, den in inverted_blocks(f, s):
        # a block's sign is its numerators' sign: Fractions only where a run kept them
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
        name=f"{q}*{f.name}", certificate=certificate, exact=f.exact,
    )


def add(f, g):
    """f + g; the sum of positive definite functions is positive definite."""
    _same_lattice(f, g)
    return LatticeFunction(
        f.lattice, lambda x: f(x) + g(x),
        name=f"{f.name}+{g.name}", certificate=f.certificate and g.certificate,
        exact=f.exact and g.exact,
    )


def pointwise_mul(f, g):
    """f*g pointwise; meet matrices multiply entrywise (Hadamard), so the
    product of positive definite functions is positive definite."""
    _same_lattice(f, g)
    return LatticeFunction(
        f.lattice, lambda x: f(x) * g(x),
        name=f"{f.name}*{g.name}", certificate=f.certificate and g.certificate,
        exact=f.exact and g.exact,
    )
