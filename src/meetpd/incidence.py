"""Mobius functions of finite ordered subsets, and the inversion they feed.

The diagonal criterion and the LDL^T diagonal read one thing from the
incidence algebra: the Mobius values mu(z, x) below each member x.
``mobius`` builds them per member as integer rows by Rota's recursion,
and ``inverted_values`` sums f against those rows (over a product subset,
against products of the factor rows) on ints over one common
denominator, with one Fraction built per value.
"""

from itertools import product as iter_product
from math import prod
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
    the one routine that computes them.  Over a product subset the Mobius
    weight of (z, x) is the product of the factor weights mu_t(z_t, x_t)
    (Rota's product rule), so only the factor subsets are ever inverted.
    Each sum runs on ints over one common denominator
    (``exact.rational_sum``), so one Fraction is built per value.  Every z
    is at or before x in member order, so a consumer that stops early
    never evaluates f beyond the element it stopped at.
    """
    if subset.factor_subsets is None:
        for x, (zs, ws) in zip(subset.members, mobius(subset)):
            yield x, rational_sum(zip(map(f, zs), ws))
        return
    rows = {s: mobius(s) for s in dict.fromkeys(subset.factor_subsets)}
    for x, combo in zip(subset.members, iter_product(*(rows[s] for s in subset.factor_subsets))):
        zs, ws = zip(*combo)
        yield x, rational_sum(zip(map(f, iter_product(*zs)), map(prod, iter_product(*ws))))
