"""Incidence functions on finite ordered domains.

Convolution, the order indicator zeta, the equality indicator delta, and
Mobius functions, all exact.  A function is defined on ordered pairs
(x, y) with x below y inside a fixed finite domain (an ElementSubset or a
whole finite poset); everything outside the order relation is implicitly
zero.  The Mobius-inverted values behind the diagonal criterion
(``inverted_values``) are summed on ints over one common denominator,
with one Fraction built per value.
"""

from fractions import Fraction
from itertools import product as iter_product
from math import prod
from weakref import WeakKeyDictionary

from .errors import NoLeastElementError, NotMeetClosedError, PosetMismatchError
from .exact import rational_sum
from .posets import ElementSubset, ProductLattice, product_subset

_ZERO = Fraction(0)


def _as_subset(domain):
    if isinstance(domain, ElementSubset):
        return domain
    return domain.covering_set(None)


def _domains_match(a, b):
    return a is b or (a.members == b.members and a.lattice == b.lattice)


class IncidenceFunction:
    """Rational-valued function on comparable pairs of a finite domain."""

    def __init__(self, domain, values):
        self.subset = _as_subset(domain)
        leq = self.subset.leq
        vals = {}
        for (x, y), v in values.items():
            if x not in self.subset or y not in self.subset or not leq(x, y):
                raise ValueError(f"pair ({x!r}, {y!r}) is outside the order relation")
            q = Fraction(v)
            if q:
                vals[(x, y)] = q
        self._values = vals

    def __call__(self, x, y):
        return self._values.get((x, y), _ZERO)

    def pairs(self):
        """Copy of the nonzero values, keyed by (lower, upper)."""
        return dict(self._values)

    def __eq__(self, other):
        if not isinstance(other, IncidenceFunction):
            return NotImplemented
        return _domains_match(self.subset, other.subset) and self._values == other._values

    def __repr__(self):
        return f"IncidenceFunction({len(self.subset)} elements, {len(self._values)} nonzero pairs)"


def zeta(domain):
    """Order indicator: 1 on every pair x below y."""
    s = _as_subset(domain)
    ms = s.members
    vals = {}
    for i, x in enumerate(ms):
        for y in ms[i:]:
            if s.leq(x, y):
                vals[(x, y)] = 1
    return IncidenceFunction(s, vals)


def delta(domain):
    """Equality indicator: 1 on the diagonal, 0 elsewhere."""
    s = _as_subset(domain)
    return IncidenceFunction(s, {(x, x): 1 for x in s.members})


_MOBIUS_CACHE = WeakKeyDictionary()


def mobius(domain):
    """Convolution inverse of zeta, by direct inversion over the domain.

    mu(x, x) = 1 and mu(x, y) = -sum of mu(x, z) over x <= z < y.  The
    result is cached per domain object.
    """
    try:
        cached = _MOBIUS_CACHE.get(domain)
    except TypeError:  # unexpected unhashable domain
        cached = None
    if cached is not None:
        return cached
    s = _as_subset(domain)
    ms = s.members
    n = len(ms)
    leq = s.leq
    vals = {}  # integer values; IncidenceFunction stores them as Fractions
    for i in range(n):
        x = ms[i]
        vals[(x, x)] = 1
        for j in range(i + 1, n):
            y = ms[j]
            if not leq(x, y):
                continue
            total = sum(vals.get((x, z), 0) for z in ms[i:j] if leq(x, z) and leq(z, y))
            if total:
                vals[(x, y)] = -total
    fn = IncidenceFunction(s, vals)
    try:
        _MOBIUS_CACHE[domain] = fn
    except TypeError:
        pass
    return fn


def convolve(f, g):
    """(f * g)(x, y) = sum of f(x, z) g(z, y) over z between x and y."""
    if not _domains_match(f.subset, g.subset):
        raise PosetMismatchError("operands live on different domains")
    s = f.subset
    ms = s.members
    n = len(ms)
    leq = s.leq
    vals = {}
    for i in range(n):
        x = ms[i]
        for j in range(i, n):
            y = ms[j]
            if not leq(x, y):
                continue
            total = rational_sum((f(x, z) * g(z, y), 1)
                                 for z in ms[i:j + 1] if leq(x, z) and leq(z, y))
            if total:
                vals[(x, y)] = total
    return IncidenceFunction(s, vals)


def mobius_of_subset(s):
    """Mobius function of a meet closed subset, by inversion within it."""
    if not s.meet_closed:
        raise NotMeetClosedError("subset is not meet closed")
    return mobius(s)


def mobius_product(mu_left, mu_right, domain=None):
    """Mobius function of a product order as the product of component values."""
    prod = product_subset([mu_left.subset, mu_right.subset])
    if domain is not None and not _domains_match(prod, _as_subset(domain)):
        raise PosetMismatchError("declared product domain does not match the factors")
    vals = {}
    for (x1, y1), v1 in mu_left.pairs().items():
        for (x2, y2), v2 in mu_right.pairs().items():
            vals[((x1, x2), (y1, y2))] = v1 * v2
    return IncidenceFunction(prod, vals)


def _require_least(s):
    bottom = s.least_member
    if bottom is None:
        raise NoLeastElementError("domain has no least member")
    return bottom


def from_point_function(domain, fn):
    """Incidence function supported on (least, x) pairs, holding fn(x) there."""
    s = _as_subset(domain)
    bottom = _require_least(s)
    return IncidenceFunction(s, {(bottom, x): Fraction(fn(x)) for x in s.members})


def mobius_invert(fr):
    """Invert a bottom-row function: returns fr * mobius on the same domain.

    Round trip: convolving the result with zeta restores fr exactly.
    """
    _require_least(fr.subset)
    return convolve(fr, mobius(fr.subset))


def inverted_values(f, subset):
    """Yield (x, sum of f(z) mu(z, x) over members z below x) in member order.

    These values are the diagonal of the E diag(d) E^T factorization of the
    meet matrix and the numbers the diagonal criterion inspects; this is
    the one routine that computes them.  Over a product subset the Mobius
    weight of (z, x) is the product of the factor weights mu_t(z_t, x_t)
    (Rota's product rule), so only the factor subsets are ever inverted.
    Each sum runs on ints over one common denominator
    (``exact.rational_sum``), so one Fraction is built per value.  Every z
    is at or before x in member order, so a consumer that stops early
    never evaluates f beyond the element it stopped at.
    """
    factors = subset.factor_subsets or (subset,)
    # per distinct factor and member x: the z with mu(z, x) nonzero, and those weights
    below = {}
    for s in factors:
        if s not in below:
            terms = {x: [] for x in s.members}
            for (z, x), v in mobius(s).pairs().items():
                terms[x].append((z, v.numerator))
            below[s] = [tuple(zip(*terms[x])) for x in s.members]
    single = subset.factor_subsets is None
    for x, combo in zip(subset.members, iter_product(*(below[s] for s in factors))):
        zs, ws = zip(*combo)
        if single:
            values, weights = map(f, zs[0]), ws[0]
        else:
            values, weights = map(f, iter_product(*zs)), map(prod, iter_product(*ws))
        yield x, rational_sum(zip(values, weights))


def ambient_mobius(lattice, x, y):
    """Mobius value of the ambient lattice between two comparable elements.

    Uses the closed form of the lattice family when it has one (divisor,
    MIN, products of those); explicit finite posets fall back to cached
    inversion over their full element set.
    """
    if isinstance(lattice, ProductLattice):
        total = Fraction(1)
        for f, a, b in zip(lattice.factors, x, y):
            v = ambient_mobius(f, a, b)
            if v == 0:
                return _ZERO
            total *= v
        return total
    closed = getattr(lattice, "ambient_mobius", None)
    if closed is not None:
        return Fraction(closed(x, y))
    return mobius(lattice)(x, y)
