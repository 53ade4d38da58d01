"""Mobius functions of finite ordered subsets, and the inversion they feed.

The diagonal criterion and the LDL^T diagonal read the Mobius values
mu(z, x) below each member x, which ``mobius`` gives as integer rows, the
one place rows are built: off the lattice's ``sieve`` on a covering set
{1..m}, by Rota's product rule on a product, else by Rota's recursion.
``inverted_blocks`` inverts f one axis at a time on flat int lists, one
slab of the first axis at a time, so a product's member list is never
built: by the first factor's rows, and within a slab by the lattice's
sieve, one slice step per prime on the divisor lattice.  ``summed_blocks``
is its transpose f = zeta g, by the same rows and the lattice's ``zeta``;
a summatory function reaches the criterion and ``meet_matrix`` through it,
and ``reconstruct`` multiplies E diag(d) E^T back as the meet matrix of zeta d.
"""

from fractions import Fraction
from itertools import accumulate, chain, repeat
from itertools import product as iter_product
from math import lcm, prod
from operator import add, attrgetter, floordiv, mul, sub
from weakref import WeakKeyDictionary

_MOBIUS_CACHE = WeakKeyDictionary()
_AXIS_CACHE = WeakKeyDictionary(), WeakKeyDictionary()  # sieve, zeta
SLACK_BITS = 1024  # how much longer a slab's common denominator may be than its largest
_numerator, _denominator = attrgetter("numerator"), attrgetter("denominator")


def mobius(subset):
    """Mobius rows of a finite ordered subset, one (zs, ws) per member x.

    zs holds the members z below x with mu(z, x) nonzero, in member order
    and ending with x itself; ws holds those values as ints.  The rows are
    cached per subset object and come by one of three routes:

    * a covering set {1..m} of a lattice with a ``sieve``: the
      compositions of the sieve's slice steps read as rows (``_sieve_rows``);
    * a product of subsets, lower closed or not: Rota's product rule,
      mu(z, x) the product of the factors' mu(z_t, x_t) (``_product_rows``);
    * any other subset: Rota's recursion (``_recursive_rows``).
    """
    return _rows(subset)


def _rows(subset):
    """``mobius`` under a private name: the product rule reads its factor
    rows here, so a tracer that rebinds ``mobius`` sees one call per request."""
    rows = _MOBIUS_CACHE.get(subset)
    if rows is None:
        if subset.factors[0] is not subset:
            rows = _product_rows(subset)
        else:
            steps = _program(subset, "sieve")
            rows = _recursive_rows(subset) if steps is None else _sieve_rows(subset.members, steps)
        _MOBIUS_CACHE[subset] = rows
    return rows


def _product_rows(subset):
    """Rota's product rule: the row of x is the product of its factors'
    rows, which lists it in lexicographic order, the product's member order."""
    return tuple((tuple(iter_product(*zss)), tuple(map(prod, iter_product(*wss))))
                 for zss, wss in (zip(*rows) for rows in iter_product(*map(_rows, subset.factors))))


def _sieve_rows(ms, steps):
    """The rows of {1..m} transposed from its sieve, the product of its steps:
    a step (dst, src, op) moves position k of the prefix src to a + s*k, and
    mu(z, x) is op's sign over the one composition of steps taking z to x.
    Each composition grows up to the first step it no longer reaches (steps
    come by growing s); by decreasing s they list each row in member order."""
    r, terms, todo = range(len(ms)), [], [(1, 0, len(ms), 1, 0)]
    maps = [(r[dst].step, r[dst].start, len(r[src]), 1 if op is add else -1)
            for dst, src, op in steps]
    while todo:  # compositions (s, a, n, w), each with the first step it may take
        s, a, n, w, i = todo.pop()
        for j in range(i, len(maps)):
            s2, a2, n2, w2 = maps[j]
            term = s * s2, a2 + s2 * a, min(n, (n2 - a + s - 1) // s), w * w2
            if term[2] <= 0:  # no position k < n has a + s*k < n2
                break
            terms.append(term)
            todo.append((*term, j + 1))
    zs, ws = [[] for _ in ms], [[] for _ in ms]
    for s, a, n, w in sorted(terms, reverse=True):
        any(map(list.append, zs[a::s], ms[:n]))  # append returns None: any runs them all
        any(map(list.append, ws[a::s], repeat(w, n)))
    for i, x in enumerate(ms):  # in place, so each list is freed as its tuple is made
        zs[i], ws[i] = (*zs[i], x), (*ws[i], 1)
    return tuple(zip(zs, ws))


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
    first axis, one member of a single subset, with f's values from ``slabs``;
    its inner axes are inverted (by the lattice's ``sieve`` on a covering set
    {1..m}), and it is the sum of w times the partial slab z over the first
    factor's row (z, w).  f is read once per member, in member order, and
    never past the block a consumer stops in; if f raises, the values before
    it come out.
    """
    return _blocks(f, subset, zeta=False)


def summed_blocks(g, subset):
    """Yield f = zeta_S g, at each member x the sum of g(z) over the members
    z <= x of the subset, as blocks in the form and with the reads of
    ``inverted_blocks``, its transpose: inner axes by the lattice's ``zeta``
    on a covering set {1..m}, else by solving their Mobius rows in member
    order, and slab c of the first axis as F_c = H_c - sum of mu(z, c) F_z
    over the z below c in the first factor's row.  On a lower closed subset
    these are the sums of g over the lattice's lower sets.
    """
    return _blocks(g, subset, zeta=True)


def _blocks(f, subset, zeta):
    first = mobius(subset.factors[0])
    inner = [_axis(s, zeta) for s in subset.factors[1:]]
    strides = subset.strides[1:]
    parts, dens, fractional = {}, {}, False
    for (xs, ints, fden), (zs, ws) in zip(slabs(f, subset), first):
        n, c = len(ints), zs[-1]
        ints += [0] * (len(xs) - n)  # a member reads no later one: unread ones stand at 0
        parts[c], dens[c] = _transform(ints, inner, strides, zeta) if inner else ints, fden
        fractional = fractional or fden > 1
        den = lcm(*map(dens.__getitem__, zs)) if fractional else 1
        if zeta:
            ws = [-w for w in ws[:-1]] + [1]
        coefs = ws if den == 1 else [w * (den // dens[z]) for z, w in zip(zs, ws)]
        values = _combine(list(map(parts.__getitem__, zs)), coefs)
        if zeta:  # later slabs read the sums F_c, not the partial slab H_c
            parts[c], dens[c] = values, den
        yield xs, values[:n], den


def slabs(f, subset):
    """Yield f over the subset by slabs of the first axis, as blocks in the
    form of ``inverted_blocks``: summed from its source by ``summed_blocks``
    if f is a summatory function on the lattice of a lower closed subset,
    else read by one ``reader`` call per slab, as ints over the lcm of the
    slab's denominators.  If f raises, the values before it come out.
    """
    g = getattr(f, "summand", None)
    if g is not None and f.lattice == subset.lattice and subset.lower_closed:
        yield from summed_blocks(g, subset)
        return
    read = reader(f, subset.lattice)
    for xs in zip(*[iter(subset)] * subset.strides[0]):
        fs, error = [], None
        try:
            read(xs, fs)
        except Exception as exc:  # raised once the values before it are out
            error = exc
        yield (xs, *_scaled(fs))
        if error is not None:
            raise error


def _scaled(fs):
    """fs as (values, den) with values[i] / den == fs[i]: ints over the lcm of
    their denominators, or fs itself over 1 once that lcm runs more than
    SLACK_BITS past the largest; the lcm is taken 32 denominators at a time and
    given up as soon as it passes that budget."""
    ds = list(map(_denominator, fs))
    distinct = set(ds)
    if len(distinct) <= 1:
        return list(map(_numerator, fs)), max(distinct, default=1)
    distinct, den = list(distinct), 1
    budget = max(distinct).bit_length() + SLACK_BITS
    for i in range(0, len(distinct), 32):
        den = lcm(den, *distinct[i:i + 32])
        if den.bit_length() > budget:  # many unrelated denominators, as a hostile value table has
            return fs, 1
    return list(map(mul, map(_numerator, fs), map(floordiv, repeat(den), ds))), den


def reader(f, lattice):
    """f's ``read`` if f is a function on the lattice, else a read of f's own calls."""
    if lattice == getattr(f, "lattice", None):
        return f.read
    return lambda xs, out: out.extend(map(f, xs)) or out


def _axis(s, zeta=False):
    """An inner factor's (steps, rows): its lattice's ``sieve`` (or ``zeta``)
    on {1..m}, else its Mobius rows as positions."""
    cache = _AXIS_CACHE[zeta]
    if s not in cache:
        steps = _program(s, "zeta" if zeta else "sieve")
        cache[s] = steps, None if steps is not None else [
            (tuple(map(s.index, zs)), ws) for zs, ws in mobius(s)]
    return cache[s]


def _program(s, name):
    """The lattice's ``sieve`` or ``zeta`` steps if s is {1..m}, else None."""
    program = getattr(s.lattice, name, None)
    if program and s.members == tuple(range(1, len(s) + 1)):
        return program(len(s))
    return None


def _transform(values, axes, strides, zeta=False):
    """values with each axis transformed, later axes first in sub-blocks of strides[0]:
    a slice step (dst, src, op) sets out[dst] to op(out[dst], out[src]), each
    step reading the running values, ``accumulate`` (MIN's zeta) is one running
    sum, and a row (js, ws) of x sets out[x] to the sum of w * values[j], or
    with zeta solves it in member order, out[x] = values[x] - the sum of
    w * out[j] over the j below x; elementwise or, on a middle axis, by sub-block."""
    (steps, rows), *rest = axes
    if rest:
        values = [_transform(values[i:i + strides[0]], rest, strides[1:], zeta)
                  for i in range(0, len(values), strides[0])]
    if steps is accumulate:
        out = list(accumulate(values, _add if rest else add))
    elif steps is None and zeta:
        out = []
        for (js, ws), v in zip(rows, values):
            below = list(map(out.__getitem__, js[:-1]))
            out.append(_combine(below + [v], [-w for w in ws[:-1]] + [1]) if rest
                       else v - sum(map(mul, ws, below)))
    elif steps is None:
        out = ([_combine([values[j] for j in js], ws) for js, ws in rows] if rest
               else [sum(map(mul, ws, map(values.__getitem__, js))) for js, ws in rows])
    else:
        out = values[:]
        for dst, src, op in steps:
            pairs = out[dst], out[src]
            out[dst] = map(list, map(map, repeat(op), *pairs)) if rest else map(op, *pairs)
    return list(chain.from_iterable(out)) if rest else out


def _add(a, b):
    return list(map(add, a, b))


def _combine(parts, coefs):
    """The elementwise sum of c * slab over the slabs and their int
    coefficients, from the last slab (x's own in a Mobius row) back."""
    if len(parts[0]) == 1:  # slabs of one member, as on a single subset
        return [sum(map(mul, coefs, chain.from_iterable(parts)))]
    total = parts[-1] if coefs[-1] == 1 else [coefs[-1] * v for v in parts[-1]]
    for slab, c in zip(parts[:-1], coefs):
        op = sub if c < 0 else add
        total = list(map(op, total, slab if abs(c) == 1 else map(mul, repeat(abs(c)), slab)))
    return total


def inverted_values(f, subset):
    """Yield (x, Mobius-inverted value as a Fraction) from ``inverted_blocks``."""
    for xs, values, den in inverted_blocks(f, subset):
        yield from zip(xs, map(Fraction, values, repeat(den)))
