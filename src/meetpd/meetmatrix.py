"""Meet matrices over ordered subsets and their congruence decompositions.

The matrix of a subset S under f has entries f(x_i meet x_j).  Over a
lower closed subset it factors as E diag(d) E^T with E the 0/1 order
indicator and d the Mobius-inverted values of f; over a Cartesian product
of meet closed subsets the indicator factors combine as a Kronecker
product that is never materialized.  Both diagonals come from
``incidence.inverted_values``, the routine behind the diagonal criterion.
"""

from fractions import Fraction
from functools import reduce
from itertools import product as iter_product

from .errors import (
    DimensionMismatchError,
    EvaluationError,
    InexactFunctionError,
    MeetPDError,
    NotDiagonalFormError,
    NotLowerClosedError,
    NotMeetClosedError,
)
from .exact import Inertia, rational_sum
from .incidence import inverted_values
from .posets import lattice_power, product_subset


class LatticeFunction:
    """Memoized pure map from lattice elements to exact rationals.

    Arithmetic functions of d variables are LatticeFunctions on
    ``divisor_lattice(d)``, whose elements are integers at d = 1 and
    d-tuples of integers above.  A call checks its argument to be an
    element of the lattice when it is first seen (ValueError otherwise);
    ``evaluate`` skips that check, for callers whose arguments are
    already known elements.
    Evaluation is serialized per process (a plain dict memo under the
    GIL); values are immutable once computed.  Functions built through a
    float fallback carry exact=False: their float values are read as exact
    rationals, and exact decompositions refuse them.  composed_from holds
    g when the function was built as g(meet of coordinates).
    """

    def __init__(self, lattice, fn, name=None, exact=True, certificate=False,
                 composed_from=None):
        self.lattice = lattice
        self._fn = fn
        self.name = name or getattr(fn, "__name__", "f")
        self.exact = exact
        self.certificate = certificate
        self.composed_from = composed_from
        self._memo = {}

    def __call__(self, x):
        memo = self._memo
        if x in memo:
            return memo[x]
        if not self.lattice.contains(x):
            raise ValueError(f"arguments must be elements of {self.lattice!r}, got {x!r}")
        return self.evaluate(x)

    def evaluate(self, x):
        """f(x), memoized, for an x already known to be an element of the lattice."""
        memo = self._memo
        if x in memo:
            return memo[x]
        try:
            v = self._fn(x)
        except MeetPDError:
            raise
        except Exception as exc:
            raise EvaluationError(f"{self.name} failed at {x!r}: {exc}") from exc
        if type(v) is not Fraction:
            v = Fraction(v)
        memo[x] = v
        return v

    def __repr__(self):
        return f"LatticeFunction({self.name})"


def constant_function(lattice, c, name=None):
    q = Fraction(c)
    return LatticeFunction(lattice, lambda _x: q, name=name or f"const({q})")


def identity_function(lattice):
    """f(x) = x on a lattice whose elements are integers."""
    return LatticeFunction(lattice, lambda x: Fraction(x), name="identity")


def table_function(lattice, mapping, name="table"):
    values = {k: Fraction(v) for k, v in mapping.items()}

    def fn(x):
        if x not in values:
            raise EvaluationError(f"{name} has no value at {x!r}")
        return values[x]

    return LatticeFunction(lattice, fn, name=name)


def summatory_function(lattice, g, certify_nonneg=True, name=None):
    """f(x) = sum of g(z) over the lower set of x.

    The sum runs on ints over one common denominator (one Fraction per
    value); a g value other than an int or a Fraction is read as
    Fraction(v).  With certify_nonneg, every g value is checked to be >= 0 and the
    result carries an unconditional positive definiteness certificate
    (its Mobius-inverted values are the g values themselves).
    """
    def source(z):
        v = g(z)
        if not isinstance(v, (int, Fraction)):
            v = Fraction(v)
        if certify_nonneg and v.numerator < 0:
            raise EvaluationError(f"summatory source is negative at {z!r}: {v}")
        return v, 1

    return LatticeFunction(
        lattice, lambda x: rational_sum(map(source, lattice.lower_set(x))),
        name=name or "summatory",
        certificate=certify_nonneg,
    )


def meet_composed_function(g, d, name=None):
    """f(x_1, ..., x_d) = g(x_1 meet ... meet x_d) on the d-fold product.

    g must be a LatticeFunction on the base lattice; the composed function
    lives on the cached ``lattice_power(base, d)`` and remembers g so the
    rank collapse can recover the small block.
    """
    base = g.lattice
    meet = base.meet
    fn = g if d == 1 else (lambda x: g(reduce(meet, x)))
    return LatticeFunction(lattice_power(base, d), fn,
                           name=name or (g.name if d == 1 else f"{g.name}(meet)"),
                           exact=g.exact, composed_from=g)


class MeetMatrix:
    """Symmetric matrix of f evaluated at pairwise meets of an ordered subset."""

    def __init__(self, subset, rows):
        self.subset = subset
        self.rows = tuple(tuple(r) for r in rows)

    @property
    def n(self):
        return len(self.rows)

    def entry(self, i, j):
        return self.rows[i][j]

    def labels(self):
        return list(self.subset.members)

    def __eq__(self, other):
        if not isinstance(other, MeetMatrix):
            return NotImplemented
        return self.rows == other.rows and self.subset.members == other.subset.members

    def __repr__(self):
        return f"MeetMatrix({self.n}x{self.n})"


def meet_matrix(subset, f):
    """Entries f(x_i meet x_j); the subset need not be closed under meets."""
    ms = subset.members
    meet = subset.meet
    n = len(ms)
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = f(meet(ms[i], ms[j]))
            rows[i][j] = v
            rows[j][i] = v
    return MeetMatrix(subset, rows)


class OrderMap:
    """Bijection between lexicographic multi-indices and flat positions."""

    def __init__(self, shape):
        self.shape = tuple(int(s) for s in shape)
        strides = []
        acc = 1
        for s in reversed(self.shape):
            strides.append(acc)
            acc *= s
        self.strides = tuple(reversed(strides))
        self.size = acc

    def flat(self, multi):
        return sum(m * s for m, s in zip(multi, self.strides))

    def multi(self, flat):
        out = []
        for s in self.strides:
            out.append(flat // s)
            flat %= s
        return tuple(out)

    def __len__(self):
        return self.size

    def __iter__(self):
        return iter_product(*(range(s) for s in self.shape))


class Decomposition:
    """Structured congruence factorization of a meet matrix.

    One 0/1 lower triangular order-indicator factor per Kronecker slot,
    and the flat diagonal in lexicographic multi-index order.  The product
    (E1 kron ... kron Ed) diag (E1 kron ... kron Ed)^T reproduces the meet
    matrix exactly.
    """

    def __init__(self, subsets, factors, diag, subset, order_map):
        self.subsets = tuple(subsets)
        self.factors = tuple(tuple(tuple(row) for row in fac) for fac in factors)
        self.diag = tuple(Fraction(v) for v in diag)
        self.subset = subset
        self.order_map = order_map

    @property
    def n(self):
        return len(self.diag)

    def signature(self):
        """Counts of positive, negative, and zero diagonal entries."""
        pos = sum(1 for v in self.diag if v > 0)
        neg = sum(1 for v in self.diag if v < 0)
        return Inertia(pos, neg, len(self.diag) - pos - neg)

    def __repr__(self):
        shape = "x".join(str(s) for s in self.order_map.shape)
        return f"Decomposition(shape {shape})"


def _indicator(s):
    ms = s.members
    leq = s.leq
    return tuple(
        tuple(1 if leq(ms[j], ms[i]) else 0 for j in range(len(ms)))
        for i in range(len(ms))
    )


def _require_exact(f):
    if not getattr(f, "exact", True):
        raise InexactFunctionError(
            f"{f!r} carries float-derived values; exact decompositions refuse it")


def _check_arity(f, d):
    lat = getattr(f, "lattice", None)
    arity = getattr(lat, "arity", 1)
    if arity != d:
        raise DimensionMismatchError(f"function arity {arity} does not match {d} subset factors")


def ldl_lower_closed(subset, f):
    """Single-factor decomposition over a lower closed subset.

    E is the order indicator and the diagonal holds the Mobius-inverted
    values of f, summed over each member's lower set.
    """
    if not subset.lower_closed:
        raise NotLowerClosedError("subset is not lower closed in its lattice")
    _require_exact(f)
    diag = [v for _, v in inverted_values(f, subset)]
    return Decomposition((subset,), (_indicator(subset),), diag, subset, OrderMap((len(subset),)))


def kron_decompose_d(subsets, f):
    """d-factor decomposition over meet closed subsets, in lexicographic order.

    The diagonal entry at a multi-index is the Mobius sum of f over the
    componentwise lower sets, with the product of the factor Mobius
    functions as weight; at d = 1 this is the single-subset form.
    """
    subs = list(subsets)
    if not subs:
        raise ValueError("need at least one subset")
    for sub in subs:
        if not sub.meet_closed:
            raise NotMeetClosedError("factor subset is not meet closed")
    _require_exact(f)
    _check_arity(f, len(subs))
    subset = product_subset(subs)
    diag = [v for _, v in inverted_values(f, subset)]
    return Decomposition(subs, tuple(_indicator(sub) for sub in subs), diag, subset,
                         OrderMap(len(sub) for sub in subs))


def reconstruct(dec):
    """Multiply the structured factors back into a meet matrix, exactly.

    The Kronecker product is never materialized: each diagonal entry is
    scattered onto the flat pairs whose multi-indices dominate it in every
    factor.
    """
    om = dec.order_map
    shape = om.shape
    d = len(shape)
    nn = om.size
    rows = [[Fraction(0)] * nn for _ in range(nn)]
    for kflat, lam in enumerate(dec.diag):
        if lam == 0:
            continue
        kmulti = om.multi(kflat)
        above = [
            [i for i in range(shape[t]) if dec.factors[t][i][kmulti[t]]]
            for t in range(d)
        ]
        flats = [om.flat(imulti) for imulti in iter_product(*above)]
        for fi in flats:
            ri = rows[fi]
            for fj in flats:
                if fj >= fi:
                    ri[fj] += lam
    for i in range(nn):
        for j in range(i + 1, nn):
            rows[j][i] = rows[i][j]
    return MeetMatrix(dec.subset, rows)


class RankCollapseResult:
    """Outcome of collapsing a grid meet matrix of g(meet of coordinates).

    Every row of the big matrix equals the row of the diagonal element
    indexed by the coordinatewise meet, so the matrix has at most |S|
    distinct rows: positive semidefiniteness is decided by the principal
    block on the diagonal index set, which is the meet matrix of g over
    the base subset.
    """

    def __init__(self, base, submatrix, diagonal_indices, row_representative, verified):
        self.base = base
        self.submatrix = submatrix
        self.diagonal_indices = tuple(diagonal_indices)
        self.row_representative = tuple(row_representative)
        self.verified = verified

    def __repr__(self):
        return f"RankCollapseResult(base {len(self.base)}, grid {len(self.row_representative)})"


def rank_collapse(grid, f, verify=True):
    """Collapse the meet matrix of a power grid S^d under a composed f.

    The grid must be a product of d copies of one meet closed subset and
    f must have been built as g(meet of coordinates); otherwise
    NotDiagonalFormError is raised.  The verdict on the full matrix equals
    the verdict on the returned principal block.
    """
    subs = grid.factor_subsets
    if subs is None:
        subs = (grid,)
    base = subs[0]
    for s in subs[1:]:
        if s.members != base.members or not (s.lattice == base.lattice):
            raise ValueError("grid must be a power of a single subset")
    if not base.meet_closed:
        raise NotMeetClosedError("base subset is not meet closed")
    g = f.composed_from
    if g is None:
        raise NotDiagonalFormError("function is not of the form g(meet of coordinates)")
    d = len(subs)
    meet = base.lattice.meet
    reps = []
    for x in grid.members:
        if d == 1:
            m = x
        else:
            m = x[0]
            for c in x[1:]:
                m = meet(m, c)
        if m not in base:
            raise NotMeetClosedError(f"coordinatewise meet {m!r} escapes the base subset")
        reps.append(base.index(m))
    nb = len(base)
    om = OrderMap((nb,) * d)
    diag_idx = [om.flat((r,) * d) for r in range(nb)]
    row_rep = [diag_idx[r] for r in reps]
    submatrix = meet_matrix(base, g)
    verified = False
    if verify and len(grid) ** 2 <= 20000:
        big = meet_matrix(grid, f)
        for i in range(len(grid)):
            if big.rows[i] != big.rows[row_rep[i]]:
                raise NotDiagonalFormError("rows do not collapse; f is not g(meet of coordinates)")
        for r in range(nb):
            for q in range(nb):
                if big.rows[diag_idx[r]][diag_idx[q]] != submatrix.rows[r][q]:
                    raise NotDiagonalFormError("principal block does not match the base matrix")
        verified = True
    return RankCollapseResult(base, submatrix, diag_idx, row_rep, verified)


def _jsonable(x):
    if isinstance(x, tuple):
        return [_jsonable(c) for c in x]
    return x


def matrix_to_csv(m):
    """Row-major CSV with exact rationals rendered as p/q (or bare integers)."""
    return "\n".join(",".join(str(v) for v in row) for row in m.rows) + "\n"


def matrix_to_json(m):
    doc = {
        "schema": 1,
        "kind": "meet_matrix",
        "labels": [_jsonable(x) for x in m.subset.members],
        "entries": [[str(v) for v in row] for row in m.rows],
    }
    if m.subset.factor_subsets is not None:
        doc["order_map"] = {"shape": [len(s) for s in m.subset.factor_subsets]}
    return doc


def decomposition_to_json(dec, residual=None):
    om = dec.order_map
    doc = {
        "schema": 2,
        "kind": "decomposition",
        "factor_labels": [[_jsonable(x) for x in s.members] for s in dec.subsets],
        "factors": [[list(row) for row in fac] for fac in dec.factors],
        "diag": [str(v) for v in dec.diag],
        "order_map": {"shape": list(om.shape)},
    }
    if residual is not None:
        doc["reconstruction_residual"] = str(residual)
    return doc
