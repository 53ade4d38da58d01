"""Mobius functions of finite ordered subsets, and the inversion they feed.

The diagonal criterion and the LDL^T diagonal read one thing from the
incidence algebra: the Mobius values mu(z, x) below each member x, which
``mobius`` gives per member as integer rows, from the lattice's own
``mobius_below`` on a lower closed subset and by Rota's recursion on any
other.  ``inverted_blocks`` inverts f one axis at a time, on flat int lists
one slab of the first axis at a time, so a product's member list is never
built: by the first factor's rows, and within a slab by a lattice's sieve.
"""

from fractions import Fraction
from itertools import chain, repeat
from math import lcm
from operator import add, attrgetter, lt, mul, sub
from weakref import WeakKeyDictionary

_MOBIUS_CACHE = WeakKeyDictionary()
_AXIS_CACHE = WeakKeyDictionary()
SLACK_BITS = 1024  # how much longer a slab's common denominator may be than its largest
_numerator, _denominator = attrgetter("numerator"), attrgetter("denominator")


def mobius(subset):
    """Mobius rows of a finite ordered subset, one (zs, ws) per member x.

    zs holds the members z below x with mu(z, x) nonzero, in member order
    and ending with x itself; ws holds those values as ints.  The rows are
    cached per subset object and come by one of two routes:

    * a lower closed subset of an integer lattice or of a product: the
      lattice's own ``mobius_below(x)``, since an interval of a lower closed
      subset is an interval of the lattice (on a product that row is Rota's
      product rule, in ``ProductLattice.mobius_below``);
    * any other subset, and any subset of an explicit poset, whose
      ``mobius_below`` is read from these rows: Rota's recursion
      (``_recursive_rows``).
    """
    rows = _MOBIUS_CACHE.get(subset)
    if rows is not None:
        return rows
    if subset.lattice.kind != "explicit" and subset.lower_closed:
        rows = tuple(_closed_rows(subset))
    else:
        rows = _recursive_rows(subset)
    _MOBIUS_CACHE[subset] = rows
    return rows


def _closed_rows(subset):
    """The rows of a lower closed subset from the lattice's own rows."""
    ms = subset.members
    below = subset.lattice.mobius_below

    def position(pair):
        return subset.index(pair[0])

    try:  # numeric order is member order unless incomparable members were given otherwise
        key = None if all(map(lt, ms, ms[1:])) else position
    except TypeError:  # a product with an explicit factor whose ids do not compare
        key = position
    for x in ms:
        pairs = sorted(below(x), key=key)
        yield tuple(z for z, _ in pairs) + (x,), tuple(w for _, w in pairs) + (1,)


def _recursive_rows(subset):
    """Rota's recursion: row x is the unit at x minus the sum of the rows
    of the members strictly below x (mu(z, x) = -sum of mu(z, w) over
    z <= w < x), so the order is queried once per pair of members."""
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
    return tuple((tuple(ms[k] for k, _ in row), tuple(v for _, v in row)) for row in built)


def inverted_blocks(f, subset):
    """Yield the Mobius-inverted values of f over the subset in member order,
    as blocks (xs, values, den): values[i] / den (den > 0) is the sum of
    f(z) mu(z, x) over the members z below x = xs[i].

    These are the diagonal of E diag(d) E^T and the numbers the diagonal
    criterion inspects.  A plain subset is a product with one factor; over
    a product, mu(z, x) is the product of the factor values (Rota), so the
    axes are inverted one at a time (Yates; Bjorklund, Husfeldt, Kaski and
    Koivisto, "Fourier meets Mobius", STOC 2007).  A block is a slab of the
    first axis, one member of a single subset.  f is read on it by one
    ``read``, as ints over the lcm of its denominators (left as Fractions if
    that lcm is more than SLACK_BITS longer than the largest), its inner axes
    are inverted (by the lattice's ``sieve`` on a covering set {1..m}), and
    it is the sum of w times the partial slab z over the first factor's row
    (z, w).  f is read once per member, in member order, and never past the
    block a consumer stops in; if f raises, the values before it come out.
    """
    first = mobius(subset.factors[0])  # read by member: a row (zs, ws) ends at its own slab
    inner = list(map(_axis, subset.factors[1:]))
    size, strides = subset.strides[0], subset.strides[1:]
    read = reader(f, subset.lattice)
    slabs, dens, fractional = {}, {}, False
    for xs, (zs, ws) in zip(zip(*[iter(subset)] * size), first):
        fs, error = [], None
        try:
            read(xs, fs)
        except Exception as exc:  # raised once the values before it are out
            error = exc
        fden = lcm(*map(_denominator, fs))
        if fden == 1:
            ints = list(map(_numerator, fs))
        elif fden.bit_length() <= max(map(_denominator, fs)).bit_length() + SLACK_BITS:
            ints = [v.numerator * (fden // v.denominator) for v in fs]
        else:  # many unrelated denominators, as a hostile value table has
            ints, fden = list(fs), 1
        ints += [0] * (size - len(fs))  # a member reads no later one: unread ones stand at 0
        slabs[zs[-1]] = _invert(ints, inner, strides) if inner else ints
        dens[zs[-1]] = fden
        fractional = fractional or fden > 1
        den = lcm(*map(dens.__getitem__, zs)) if fractional else 1
        coefs = ws if den == 1 else [w * (den // dens[z]) for z, w in zip(zs, ws)]
        out = _combine(list(map(slabs.__getitem__, zs)), coefs)
        yield xs, out[:len(fs)], den
        if error is not None:
            raise error


def reader(f, lattice):
    """f's ``read`` if f is a function on the lattice, else a read of f's own calls."""
    if lattice == getattr(f, "lattice", None):
        return f.read
    return lambda xs, out: out.extend(map(f, xs)) or out


def _axis(s):
    """An inner factor's (sieve steps, rows): its lattice's sieve on {1..m}, else its rows."""
    if s not in _AXIS_CACHE:
        sieve = getattr(s.lattice, "sieve", None)
        if sieve and s.members == tuple(range(1, len(s) + 1)):
            _AXIS_CACHE[s] = sieve(len(s)), None
        else:
            _AXIS_CACHE[s] = None, [(tuple(map(s.index, zs)), ws) for zs, ws in mobius(s)]
    return _AXIS_CACHE[s]


def _invert(values, axes, strides):
    """values with each axis inverted, later axes first in sub-blocks of strides[0]:
    a sieve step (dst, src, op) sets out[dst] to op(out[dst], values[src]), a row
    (js, ws) sums w * values[j], elementwise or, on a middle axis, by sub-block."""
    (steps, rows), *rest = axes
    if rest:
        values = [_invert(values[i:i + strides[0]], rest, strides[1:])
                  for i in range(0, len(values), strides[0])]
    if steps is None:
        return (list(chain.from_iterable(_combine([values[j] for j in js], ws) for js, ws in rows))
                if rest else [sum(map(mul, ws, map(values.__getitem__, js))) for js, ws in rows])
    out = values[:]
    for dst, src, op in steps:
        pairs = out[dst], values[src]
        out[dst] = map(list, map(map, repeat(op), *pairs)) if rest else map(op, *pairs)
    return list(chain.from_iterable(out)) if rest else out


def _combine(slabs, coefs):
    """The elementwise sum of c * slab over the slabs and their int
    coefficients, from the last slab (x's own in a Mobius row) back."""
    if len(slabs[0]) == 1:  # slabs of one member, as on a single subset
        return [sum(map(mul, coefs, chain.from_iterable(slabs)))]
    total = slabs[-1] if coefs[-1] == 1 else [coefs[-1] * v for v in slabs[-1]]
    for slab, c in zip(slabs[:-1], coefs):
        op = sub if c < 0 else add
        total = list(map(op, total, slab if abs(c) == 1 else map(mul, repeat(abs(c)), slab)))
    return total


def inverted_values(f, subset):
    """Yield (x, Mobius-inverted value as a Fraction) from ``inverted_blocks``."""
    for xs, values, den in inverted_blocks(f, subset):
        yield from zip(xs, map(Fraction, values, repeat(den)))
