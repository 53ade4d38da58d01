"""Mobius functions of finite ordered subsets, and the inversion they feed.

The diagonal criterion and the LDL^T diagonal read one thing from the
incidence algebra: the Mobius values mu(z, x) below each member x.
``mobius`` builds them per member as integer rows by Rota's recursion.
``inverted_values`` sums f against those rows in one streaming pass over
the members; over a product subset it inverts one axis at a time against
the factor rows (Rota's product rule, applied as in Yates' method), so a
member costs the sum of its factor row lengths, not their product.  It
reads the subset's ``factors`` and ``strides`` and iterates the subset,
so a product's member list is never built.
"""

from fractions import Fraction
from itertools import product as iter_product
from operator import mul
from weakref import WeakKeyDictionary

from .exact import rational_sum

_MOBIUS_CACHE = WeakKeyDictionary()


def mobius(subset):
    """Mobius rows of a finite ordered subset, one (zs, ws) per member x.

    zs holds the members z below x with mu(z, x) nonzero, in member order
    and ending with x itself; ws holds those values as ints.  Row x is
    the unit at x minus the sum of the rows of the members strictly below
    x (mu(z, x) = -sum of mu(z, w) over z <= w < x), so the order is
    queried once per pair of members.  Product subsets are inverted as
    any other subset, without the product rule.  The rows are cached per
    subset object.
    """
    rows = _MOBIUS_CACHE.get(subset)
    if rows is not None:
        return rows
    ms = subset.members
    leq = subset.leq
    built = []
    for i, x in enumerate(ms):
        acc = {}
        for j in range(i):
            if leq(ms[j], x):
                for k, v in built[j]:
                    acc[k] = acc.get(k, 0) - v
        built.append([(k, acc[k]) for k in sorted(acc) if acc[k]] + [(i, 1)])
    rows = tuple((tuple(ms[k] for k, _ in row), tuple(v for _, v in row)) for row in built)
    _MOBIUS_CACHE[subset] = rows
    return rows


def inverted_values(f, subset):
    """Yield (x, sum of f(z) mu(z, x) over members z below x) in member order.

    These values are the diagonal of the E diag(d) E^T factorization of the
    meet matrix and the numbers the diagonal criterion inspects; this is
    the one routine that computes them.  A plain subset is a product with
    one factor.  Over a product the Mobius weight of (z, x) is the product
    of the factor weights mu_t(z_t, x_t) (Rota's product rule), so the
    inversion runs one axis at a time (Yates; Bjorklund, Husfeldt, Kaski
    and Koivisto, "Fourier meets Mobius", STOC 2007): layer 0 holds the f
    values, and layer t + 1 at x sums the weights of factor t against
    layer t at x with its t-th coordinate replaced by each z_t of the
    factor row.  Those points come at or before x in the lexicographic
    member order, at fixed offsets back from x, so the scan streams: f is
    evaluated once per member, in member order, and a consumer that stops
    early never evaluates f beyond the element it stopped at.  Only the
    factor subsets are inverted.  The sums run on ints while every f value
    so far is an integer; from the first fractional one on, each goes
    through ``exact.rational_sum`` (one Fraction per sum).
    """
    factors = subset.factors
    rows = {s: mobius(s) for s in dict.fromkeys(factors)}
    # per axis, per factor member: the offsets back from x of the points
    # read from the layer below, and their Mobius weights
    axes = []
    for s, stride in zip(factors, subset.strides):
        pos = s.index
        axes.append([(tuple((pos(z) - i) * stride - 1 for z in zs), ws)
                     for i, (zs, ws) in enumerate(rows[s])])
    evaluate = f.evaluate if subset.lattice == getattr(f, "lattice", None) else f
    layers = [[] for _ in axes]
    integral = True
    for x, row in zip(subset, iter_product(*axes)):
        v = evaluate(x)
        integral = integral and v.denominator == 1
        if integral:
            v = v.numerator
        for layer, (offsets, ws) in zip(layers, row):
            layer.append(v)
            below = map(layer.__getitem__, offsets)
            v = sum(map(mul, ws, below)) if integral else rational_sum(zip(below, ws))
        yield x, Fraction(v) if integral else v
