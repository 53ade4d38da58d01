"""Meet matrices over ordered subsets and their congruence decompositions.

The matrix of a subset S under f has entries f(x_i meet x_j), so it is
fixed by f's values at the meets and by the table saying which meet each
pair has.  A ``MeetMatrix`` holds exactly that, in index space: the meet
table of each of the subset's ``factors`` (cached on the factor, see
``ElementSubset.meet_table``), the position of a product pair's meet as
the dot product of its factor positions with the ``strides`` of the
factors' point counts, and one exact value per distinct meet, as ints
over one common denominator.  The oracle packs int rows from the tables
(``exact.KronMatrix``), the writers render each value once, and
``decompose`` compares its reconstruction on the ints at the meet points;
the rows of Fractions are built only when read.  Over a meet closed
subset the meets are the members, so ``meet_matrix`` reads f run by run
in member order (``incidence.value_blocks``), and a ``summatory_function``
f = zeta g is summed from g once there (``incidence.summed_blocks``), not
point by point.

Over a meet closed subset the matrix factors as E diag(d) E^T with E the
0/1 order indicator and d the values of f inverted with S's own Mobius
function (Haukkanen, 1996); a lower closed subset is the special case in
which d holds the ambient Mobius-inverted values.  Over a Cartesian
product of meet closed subsets the indicator factors combine as a
Kronecker product, fixed by the subset, so a ``Decomposition`` holds d
alone.  One routine,
``kron_decompose_d``, covers both, a single subset being a product with
one factor; its diagonal comes from ``incidence.inverted_values``, the
routine behind the diagonal criterion, and its flat order is the
subset's own ``shape`` and ``strides``.  Read the other way, entry (i, j)
of E diag(d) E^T sums d over the members below x_i meet x_j, so
``reconstruct`` is the meet matrix of zeta_S d: one summed pass, one value
per meet.
"""

import math
from fractions import Fraction
from functools import cached_property, reduce
from itertools import count, filterfalse, repeat, starmap, takewhile
from itertools import product as iter_product
from operator import eq, sub

from .errors import (
    DimensionMismatchError,
    EvaluationError,
    InexactFunctionError,
    MeetPDError,
    NotMeetClosedError,
)
from .exact import Inertia, KronMatrix, rational_sum
from .incidence import _numerator, inverted_values, reader, summed_blocks, value_blocks
from .posets import lattice_power, product_subset, strides


class LatticeFunction:
    """Pure map from lattice elements to exact rationals.

    Arithmetic functions of d variables are LatticeFunctions on
    ``divisor_lattice(d)``, whose elements are integers at d = 1 and
    d-tuples of integers above.  A call checks its argument to be an
    element of the lattice (ValueError otherwise); ``evaluate`` skips that
    check, for callers whose arguments are already known elements, and
    ``read`` skips it for a whole sequence, ints left ints and, given a slab
    form, no Python frame per member.  The function keeps no values; a value
    read more than once is cached where it repeats (``meet_composed_function``).
    Functions built through a float fallback carry exact=False: meet
    matrices, decompositions and the diagonal criterion refuse them.
    """

    summand = None  # g, if this is a summatory function f = zeta g (``summatory_function``)
    _slab = None  # read's C-level form of the rule, slab(xs, out), where it has one

    def __init__(self, lattice, fn, name=None, exact=True, certificate=False):
        self.lattice = lattice
        self._fn = fn
        self.name = name or getattr(fn, "__name__", "f")
        self.exact = exact
        self.certificate = certificate

    def __call__(self, x):
        if not self.lattice.contains(x):
            raise ValueError(f"arguments must be elements of {self.lattice!r}, got {x!r}")
        return self.evaluate(x)

    def evaluate(self, x):
        """f(x) as a Fraction, for an x already known to be an element of the lattice."""
        try:
            v = self._fn(x)
        except Exception as exc:
            self._failed(x, exc)
        return v if type(v) is Fraction else Fraction(v)

    def read(self, xs, out):
        """out with f at each x of the sequence xs appended by one C-level map,
        of the slab form or else of the rule.  If the rule raises at x, out keeps
        the values before x and the error is raised as ``evaluate`` raises it."""
        start = len(out)
        try:
            out.extend(map(self._fn, xs)) if self._slab is None else self._slab(xs, out)
        except Exception as exc:
            self._failed(xs[len(out) - start], exc)
        finally:  # other values become Fractions, as evaluate makes them
            if not set(map(type, out[start:])) <= {int, Fraction}:
                out[start:] = map(Fraction, out[start:])
        return out

    def _failed(self, x, exc):
        if isinstance(exc, MeetPDError):
            raise exc
        raise EvaluationError(f"{self.name} failed at {x!r}: {exc}") from exc

    def __repr__(self):
        return f"LatticeFunction({self.name})"


def refuse_inexact(f, what):
    """Raise InexactFunctionError if f carries float-derived values (exact=False)."""
    if not getattr(f, "exact", True):
        raise InexactFunctionError(f"{f!r} carries float-derived values; {what} refuse it")


def constant_function(lattice, c, name=None):
    q = Fraction(c)
    f = LatticeFunction(lattice, lambda _x: q, name=name or f"const({q})")
    f._slab = lambda xs, out: out.extend(repeat(q.numerator if q.denominator == 1 else q, len(xs)))
    return f


class _Table(dict):
    """A value table, read by a C-level lookup that fails as EvaluationError."""

    def __missing__(self, x):
        raise EvaluationError(f"{self.name} has no value at {x!r}")


def table_function(lattice, mapping, name="table"):
    """f read from a mapping; int and Fraction values are kept as given, others
    are read as Fraction(v), so a malformed value fails here."""
    values = _Table((k, v if type(v) in (int, Fraction) else Fraction(v))
                    for k, v in mapping.items())
    values.name = name
    return LatticeFunction(lattice, values.__getitem__, name=name)


def summatory_function(lattice, g, certify_nonneg=True, name=None):
    """f(x) = sum of g(z) over the lower set of x.

    A call sums g over ``lattice.lower_set(x)`` on ints over one common
    denominator, one Fraction per value; g values other than ints and
    Fractions are read as Fraction(v).  With certify_nonneg every g value
    must be >= 0, and f carries an unconditional positive definiteness
    certificate: its Mobius-inverted values are g.  f.summand is that
    checked g, under f's name, from which ``incidence.value_blocks`` sums f
    once, run by run, over a lower closed subset (the criterion,
    ``meet_matrix``, ``grid``), read, typed and signed once per run.
    """
    read = reader(g, lattice)
    def checked(v, z):
        v = v if isinstance(v, (int, Fraction)) else Fraction(v)
        if certify_nonneg and v.numerator < 0:
            raise EvaluationError(f"summatory source is negative at {z!r}: {v}")
        return v

    def slab(zs, out):
        vs = []
        try:
            read(zs, vs)
        finally:  # if g fails, the values before it come out first, checked
            plain = set(map(type, vs)) <= {int, Fraction} and not (
                certify_nonneg and vs and min(map(_numerator, vs)) < 0)
            out.extend(vs if plain else map(checked, vs, zs))

    def value(x):
        zs = lattice.lower_set(x)
        return rational_sum(zip(map(checked, map(g, zs), zs), repeat(1)))

    f = LatticeFunction(lattice, value, name=name or "summatory", certificate=certify_nonneg)
    f.summand = LatticeFunction(lattice, lambda z: checked(g(z), z), name=f.name)
    f.summand._slab = slab
    return f


def meet_composed_function(g, d, name=None):
    """f(x_1, ..., x_d) = g(x_1 meet ... meet x_d) on the d-fold product.

    g must be a LatticeFunction on the base lattice; the composed function
    lives on the cached ``lattice_power(base, d)``.  At d >= 2 g is read
    once per distinct meet: a slab is one ``read`` of g on its meets not
    read before, and each member's meet is then looked up in one dict; at
    d = 1 f is g on the same lattice, read by g's ``read``.
    """
    base = g.lattice
    if d == 1:
        f = LatticeFunction(base, g.evaluate, name=name or g.name, exact=g.exact)
        f._slab = g.read
        return f
    meet, known = base.meet, {}  # g at every meet read so far, ints kept ints

    def value(x):
        z = reduce(meet, x)
        if z not in known:
            known[z] = g.read((z,), [])[0]
        return known[z]

    def slab(xs, out):
        zs = list(starmap(meet, xs) if d == 2 else map(reduce, repeat(meet), xs))
        new = list(filterfalse(known.__contains__, dict.fromkeys(zs)))
        vs = []
        try:
            g.read(new, vs)
        finally:  # if g fails, the members before the first meet it did not read come out
            known.update(zip(new, vs))
            out.extend(map(known.__getitem__, zs if len(vs) == len(new)
                           else takewhile(known.__contains__, zs)))

    f = LatticeFunction(lattice_power(base, d), value, name=name or f"{g.name}(meet)",
                        exact=g.exact)
    f._slab = slab
    return f


class MeetMatrix:
    """Symmetric matrix of f evaluated at pairwise meets of an ordered subset.

    The matrix is held in index space: each pair of members has a position
    p, the entry there is nums[p] / den (nums ints, den the lcm of the
    values' denominators, so equal entries give equal int rows), and kron,
    the ``exact.KronMatrix`` of nums on the factors' meet tables, maps the
    pairs to their positions.  A meet matrix, reconstructed ones included,
    has one position per distinct meet, so its values are scaled and
    rendered once per meet rather than once per entry.  ``rows``, the
    entries as Fractions, is built on first read.
    """

    def __init__(self, subset, den, kron):
        self.subset = subset
        self.nums = kron.nums
        self.den = den
        self.kron = kron

    @property
    def n(self):
        return len(self.subset)

    @cached_property
    def values(self):
        """The exact value at each position."""
        den = self.den
        return [Fraction(v, den) for v in self.nums]

    @cached_property
    def rows(self):
        return tuple(map(tuple, self.kron.gather(self.values)))

    def integer_rows(self):
        """The entries times den as lists of ints, and den."""
        return self.kron.gather(self.nums), self.den

    def text_rows(self):
        """The entries as p/q (or integer) strings, each position rendered once."""
        return self.kron.gather([str(v) for v in self.values])

    def max_abs_difference(self, other):
        """max |a - b| over the entries of two matrices of one subset, exactly:
        every point of their shared meet tables is the meet of some pair, so
        it is the largest difference at a point.  Two matrices whose factor
        members or lattice differ raise ValueError."""
        if not (self.subset.lattice == other.subset.lattice
                and [s.members for s in self.subset.factors]
                == [s.members for s in other.subset.factors]):
            raise ValueError(f"{self!r} and {other!r} are not over one subset")
        den = math.lcm(self.den, other.den)
        a, b = ([v * (den // m.den) for v in m.nums] for m in (self, other))
        return Fraction(max(map(abs, map(sub, a, b))), den)

    def __eq__(self, other):
        if not isinstance(other, MeetMatrix):
            return NotImplemented
        return (self.subset.members == other.subset.members
                and self.integer_rows() == other.integer_rows())

    def __repr__(self):
        return f"MeetMatrix({self.n}x{self.n})"


def meet_matrix(subset, f):
    """Entries f(x_i meet x_j); the subset need not be closed under meets.

    A plain subset is a product with one factor.  A product point is a
    tuple of factor table points, numbered by the ``strides`` of the
    factors' point counts.  f is read once per point, in point order: the
    order of a factor's ``MeetTable.points``, lexicographic over a product.
    On a meet closed subset the points are the members, so f is read there
    by ``incidence.value_blocks``: once per run of slabs, or summed once
    from its source if f is a summatory function.
    """
    refuse_inexact(f, "exact meet matrices")
    if subset.meet_closed:
        return _from_values(subset, _block_values(value_blocks(f, subset)))
    points = [s.meet_table.points for s in subset.factors]
    points = points[0] if len(points) == 1 else list(iter_product(*points))
    return _from_values(subset, reader(f, subset.lattice)(points, []))


def _block_values(blocks):
    """The values of (xs, values, den) blocks, in order, as ints and Fractions."""
    out = []
    for _, values, den in blocks:
        out += values if den == 1 else map(Fraction, values, repeat(den))
    return out


def _from_values(subset, values):
    """The MeetMatrix with values[p] at the meet table points p."""
    den = math.lcm(*{v.denominator for v in values})
    nums = [v.numerator * (den // v.denominator) for v in values]
    tables = [s.meet_table for s in subset.factors]
    shape = [len(t.points) for t in tables]
    return MeetMatrix(subset, den, KronMatrix(nums, [t.rows for t in tables], strides(shape)))


class Decomposition:
    """Structured congruence factorization of a meet matrix.

    The flat diagonal d, in the subset's lexicographic order, is its only
    content: the product (E1 kron ... kron Ed) diag(d) (E1 kron ... kron Ed)^T
    reproduces the meet matrix exactly, and each E_t is fixed by the
    subset.  ``factors``, the 0/1 lower triangular order indicators E_t, is
    read off the factors' meet tables when first read.
    """

    def __init__(self, subset, diag):
        self.subset = subset
        self.diag = tuple(Fraction(v) for v in diag)

    @cached_property
    def factors(self):
        return tuple(map(_indicator, self.subset.factors))

    def signature(self):
        """Counts of positive, negative, and zero diagonal entries."""
        pos = sum(1 for v in self.diag if v > 0)
        neg = sum(1 for v in self.diag if v < 0)
        return Inertia(pos, neg, len(self.diag) - pos - neg)

    def __repr__(self):
        shape = "x".join(str(s) for s in self.subset.shape)
        return f"Decomposition(shape {shape})"


def _indicator(s):
    """E of an ordered subset: x_j <= x_i exactly when x_i meet x_j sits at position j."""
    return tuple(tuple(bytes(map(eq, row, count()))) for row in s.meet_table.rows)  # 0/1 ints


def kron_decompose_d(subsets, f):
    """d-factor decomposition over meet closed subsets, in lexicographic order.

    The diagonal entry at a multi-index is the Mobius sum of f over the
    componentwise lower sets, with the product of the factor Mobius
    functions as weight; at d = 1 this is the single-subset form.
    """
    subset = product_subset(subsets)
    if not subset.meet_closed:
        raise NotMeetClosedError("factor subset is not meet closed")
    refuse_inexact(f, "exact decompositions")
    arity = getattr(getattr(f, "lattice", None), "arity", 1)
    if arity != len(subset.factors):
        raise DimensionMismatchError(
            f"function arity {arity} does not match {len(subset.factors)} subset factors")
    return Decomposition(subset, [v for _, v in inverted_values(f, subset)])


def reconstruct(dec):
    """Multiply the structured factors back into a meet matrix, exactly.

    Entry (i, j) of E diag(d) E^T is the sum of d over the members below
    both x_i and x_j, which are those below x_i meet x_j, itself a member:
    the product is the meet matrix of zeta_S d.  That is summed once, in the
    subset's own order (``incidence.summed_blocks``), and gathered through
    the factor meet tables as ``meet_matrix`` gathers f, one position per
    meet; no order indicator is built.
    """
    subset = dec.subset
    if not subset.meet_closed:
        raise NotMeetClosedError("a decomposition's subset must be meet closed")
    d = dict(zip(subset, dec.diag))
    return _from_values(subset, _block_values(summed_blocks(d.__getitem__, subset)))


def _jsonable(x):
    if isinstance(x, tuple):
        return [_jsonable(c) for c in x]
    return x


def matrix_to_csv(m):
    """Row-major CSV with exact rationals rendered as p/q (or bare integers)."""
    return "".join(",".join(row) + "\n" for row in m.text_rows())


def matrix_to_json(m):
    doc = {
        "schema": 1,
        "kind": "meet_matrix",
        "labels": [_jsonable(x) for x in m.subset.members],
        "entries": m.text_rows(),
    }
    if len(m.subset.shape) > 1:
        doc["order_map"] = {"shape": list(m.subset.shape)}
    return doc


def decomposition_to_json(dec, residual):
    return {
        "schema": 2,
        "kind": "decomposition",
        "factor_labels": [[_jsonable(x) for x in s.members] for s in dec.subset.factors],
        "factors": [[list(row) for row in fac] for fac in dec.factors],
        "diag": [str(v) for v in dec.diag],
        "order_map": {"shape": list(dec.subset.shape)},
        "reconstruction_residual": str(residual),
    }
