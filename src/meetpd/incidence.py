"""Mobius functions of finite ordered subsets, and the inversion they feed.

The diagonal criterion and the LDL^T diagonal read the Mobius values
mu(z, x) below each member x, which ``mobius`` gives as integer rows, the
one place rows are built: off the lattice's ``sieve`` on a covering set
{1..m}, by Rota's product rule on a product, else by Rota's recursion.
``inverted_blocks`` inverts f one axis at a time on flat int lists, so a
product's member list is never built.  f is read by ``value_blocks`` in
doubling runs of first-axis slabs, 1, 1, 2, 4, ... slabs (a slab is one
member of a single subset), one ``read`` and one common denominator per
run, so f is read up to the end of the run holding the slab a consumer
stops in and never past it.  A run's inner axes are inverted by the
lattice's sieve, one slice step per prime on the divisor lattice, on the
run's columns at d = 2 once the run has RUN_COLUMNS slabs (each step once
per run), else slab by slab; its first axis by the lattice's sieve over
the prefix of slabs read so far at d = 1 on {1..m}, else by the first
factor's rows.  The values come out one slab at a time, in member order.
``summed_blocks`` is its transpose f = zeta g, by the same rows and the
lattice's ``zeta``; a summatory function reaches the criterion and
``meet_matrix`` through it, and ``reconstruct`` multiplies E diag(d) E^T
back as the meet matrix of zeta d.
"""

from fractions import Fraction
from itertools import accumulate, chain, islice, repeat
from itertools import product as iter_product
from math import lcm, prod
from operator import add, attrgetter, floordiv, mul, sub
from weakref import WeakKeyDictionary

_MOBIUS_CACHE = WeakKeyDictionary()
_AXIS_CACHE = WeakKeyDictionary(), WeakKeyDictionary()  # sieve, zeta
_POSITION_ROWS = WeakKeyDictionary(), WeakKeyDictionary()
SLACK_BITS = 1024  # how much longer a slab's common denominator may be than its largest
# a run of fewer slabs transforms its inner axis slab by slab: on short
# columns a step costs more than on a slab
RUN_COLUMNS = 8
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
            program = _program(subset, "sieve")
            rows = (_sieve_rows(subset.members, program(len(subset))) if program
                    else _recursive_rows(subset))
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
    as blocks (xs, values, den), one per slab of the first axis (one member
    of a single subset): values[i] / den (den > 0) is the sum of f(z) mu(z, x)
    over the members z below x = xs[i].

    These are the diagonal of E diag(d) E^T and the numbers the diagonal
    criterion inspects.  A plain subset is a product with one factor; over
    a product, mu(z, x) is the product of the factor values (Rota), so the
    axes are inverted one at a time (Yates; Bjorklund, Husfeldt, Kaski and
    Koivisto, "Fourier meets Mobius", STOC 2007), on a doubling run of
    first-axis slabs at a time: 1, 1, 2, 4, ... slabs, f's values read by
    ``value_blocks``.  The inner axes run on the run's columns, each step
    once per run, or slab by slab (``_transform``); the first axis by its
    lattice's ``sieve`` steps over the prefix of slabs read so far at d = 1
    on a covering set {1..m}, else by the first factor's rows on the run's
    slabs.  f is read once per member, in member order, and never past the
    run holding the slab a consumer stops in; if f raises, the values before
    it come out.
    """
    return _slabbed(_blocks(f, subset, zeta=False), subset.strides[0])


def summed_blocks(g, subset):
    """Yield f = zeta_S g, at each member x the sum of g(z) over the members
    z <= x of the subset, as blocks in the form and with the reads of
    ``inverted_blocks``, its transpose: each axis by the lattice's ``zeta``
    on a covering set {1..m}, else by solving its Mobius rows in member
    order.  On a lower closed subset these are the sums of g over the
    lattice's lower sets.
    """
    return _slabbed(_blocks(g, subset, zeta=True), subset.strides[0])


def _blocks(f, subset, zeta):
    """f transformed by runs of first-axis slabs, as the runs of ``value_blocks``.

    At d = 1 on a covering set {1..m} the lattice's steps run over the prefix
    read so far, recomputed for each run, which the doubling keeps to twice
    one pass; otherwise the run's own rows of the first factor combine its
    slabs with earlier ones, and with zeta solve them in place, so later runs
    read the sums.  The prefix is held over one common denominator."""
    first, *inner = subset.factors
    program = None if inner else _program(first, "zeta" if zeta else "sieve")
    axis = None if program else (None, _position_rows(first, zeta))
    axes, strides, nested = [_axis(s, zeta) for s in inner], subset.strides, bool(inner)
    size = strides[0]
    parts, den, top = [], 1, 1  # the slabs so far, inner axes done, over den
    for xs, values, vden in value_blocks(f, subset):
        n, total = len(values), len(xs)
        if n < total:  # a member reads no later one: unread ones stand at 0
            values = values + [0] * (total - n)
        if len(axes) == 1 and total >= RUN_COLUMNS * size:  # each step once, on the columns
            values = list(zip(*_along([values[j::size] for j in range(size)], axes[0], zeta, True)))
        elif axes:
            values = [_transform(values[i:i + size], axes, strides[1:], zeta)
                      for i in range(0, total, size)]
        top = max(top, vden)
        if vden != den:
            parts, values, den = _rescaled(parts, den, values, vden, top.bit_length() + SLACK_BITS,
                                           nested)
        lo = len(parts)
        parts += values
        out = _along(parts, axis or (program(len(parts)), None), zeta, nested, lo)
        out = list(chain.from_iterable(out)) if nested else out
        yield xs, out[:n] if n < total else out, den


def _rescaled(parts, den, values, vden, budget, nested):
    """(parts, values, common): parts over den and values over vden, both over
    their lcm, or over 1 as exact numbers once that lcm is longer than budget
    bits; with nested each item is a slab."""
    common = lcm(den, vden)
    if common.bit_length() > budget:
        return _each(Fraction, parts, den, nested), _each(Fraction, values, vden, nested), 1
    return (_each(mul, parts, common // den, nested), _each(mul, values, common // vden, nested),
            common)


def _each(op, items, c, nested):
    """op(v, c) for each value v of the items, or of each item with nested; the
    items themselves if c is 1."""
    if c == 1:
        return items
    if nested:
        return [list(map(op, item, repeat(c))) for item in items]
    return list(map(op, items, repeat(c)))


def _slabbed(blocks, size):
    """The blocks split into first-axis slabs of size members, (xs, values, den)
    each, a product's slab a ``_Run`` too; a block cut short by an error ends
    in the slab it was cut in."""
    for xs, values, den in blocks:
        for k, i in enumerate(range(0, min(len(values) + 1, len(xs)), size)):
            yield xs.slab(k) if type(xs) is _Run else xs[i:i + size], values[i:i + size], den


def value_blocks(f, subset):
    """Yield f over the subset by doubling runs of first-axis slabs, 1, 1, 2,
    4, ... slabs, as (xs, values, den) with values[i] / den == f(xs[i]): summed
    from its source by ``summed_blocks``'s transform if f is a summatory
    function on the lattice of a lower closed subset, else read by one
    ``reader`` call per run, as ints over the lcm of the run's denominators.
    If f raises, the values before it come out, then the error.
    """
    g = getattr(f, "summand", None)
    if g is not None and f.lattice == subset.lattice and subset.lower_closed:
        yield from _blocks(g, subset, zeta=True)
        return
    read, (first, *inner) = reader(f, subset.lattice), subset.factors
    members, rest, lo = first.members, [s.members for s in inner], 0
    while lo < len(members):
        hi = min(max(2 * lo, 1), len(members))
        xs = _Run((members[lo:hi], *rest)) if rest else members[lo:hi]
        fs, error = [], None
        try:
            read(xs, fs)
        except Exception as exc:  # raised once the values before it are out
            error = exc
        yield (xs, *_scaled(fs))
        if error is not None:
            raise error
        lo = hi


class _Run:
    """The members of a run of a product's first-axis slabs, in member order:
    the product of the first factor's members in the run with the other
    factors', each member built only as it is iterated or indexed."""

    __slots__ = ("factors", "size")

    def __init__(self, factors):
        self.factors, self.size = factors, prod(map(len, factors))

    def __iter__(self):
        return iter_product(*self.factors)

    def __len__(self):
        return self.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(islice(self, *i.indices(self.size)))
        return next(islice(self, i, None))

    def slab(self, k):
        """The run's k-th first-axis slab, as a run."""
        return _Run((self.factors[0][k:k + 1], *self.factors[1:]))


def _scaled(fs):
    """fs as (values, den) with values[i] / den == fs[i]: ints over the lcm of
    their denominators, or fs itself over 1 once that lcm runs more than
    SLACK_BITS past the largest; the lcm is taken 32 denominators at a time and
    given up as soon as it passes that budget."""
    if set(map(type, fs)) <= {int}:
        return fs, 1
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
    on {1..m}, else its ``_position_rows``."""
    cache = _AXIS_CACHE[zeta]
    if s not in cache:
        program = _program(s, "zeta" if zeta else "sieve")
        cache[s] = (program(len(s)), None) if program else (None, _position_rows(s, zeta))
    return cache[s]


def _position_rows(s, zeta=False):
    """The Mobius rows of s with each member given by its position, or with
    zeta as the rows that solve for the sums: x's own weight 1, the others negated."""
    cache = _POSITION_ROWS[zeta]
    if s not in cache:
        cache[s] = [(tuple(map(s.index, zs)), (*(-w for w in ws[:-1]), 1) if zeta else ws)
                    for zs, ws in mobius(s)]
    return cache[s]


def _program(s, name):
    """The lattice's ``sieve`` or ``zeta`` (steps on {1..m} for each m) if s
    is {1..m}, else None."""
    program = getattr(s.lattice, name, None)
    if program and s.members == tuple(range(1, len(s) + 1)):
        return program
    return None


def _transform(values, axes, strides, zeta=False):
    """values with each axis transformed by ``_along``, later axes first in
    sub-blocks of strides[0], a middle axis on its sub-blocks."""
    axis, *rest = axes
    if rest:
        values = [_transform(values[i:i + strides[0]], rest, strides[1:], zeta)
                  for i in range(0, len(values), strides[0])]
    out = _along(values, axis, zeta, bool(rest))
    return list(chain.from_iterable(out)) if rest else out


def _along(cells, axis, zeta, nested, start=0):
    """cells transformed along one axis (steps, rows), elementwise or, nested,
    each cell a list, from position start on: a slice step (dst, src, op)
    sets out[dst] to op(out[dst], out[src]), each step reading the running
    values, ``accumulate`` (MIN's zeta) is one running sum, and a row
    (js, ws) of x sets out[x] to the sum of w * cells[j], with zeta in member
    order and in place, each row reading the cells solved before it (those
    before start already solved)."""
    steps, rows = axis
    if steps is accumulate:
        return list(accumulate(cells, _add if nested else add))[start:]
    if steps is None and zeta:
        for x in range(start, len(cells)):
            js, ws = rows[x]
            cells[x] = (_combine(list(map(cells.__getitem__, js)), ws) if nested
                        else sum(map(mul, ws, map(cells.__getitem__, js))))
        return cells[start:]
    if steps is None:
        rows = rows[start:len(cells)]
        return ([_combine([cells[j] for j in js], ws) for js, ws in rows] if nested
                else [sum(map(mul, ws, map(cells.__getitem__, js))) for js, ws in rows])
    out = cells[:]
    if not nested:
        for dst, src, op in steps:
            out[dst] = map(op, out[dst], out[src])
        return out[start:]
    width = len(cells[0])  # a nested step runs as one map over the cells joined end to end
    for dst, src, op in steps:
        flat = list(map(op, chain.from_iterable(out[dst]), chain.from_iterable(out[src])))
        out[dst] = [flat[i:i + width] for i in range(0, len(flat), width)]
    return out[start:]


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
