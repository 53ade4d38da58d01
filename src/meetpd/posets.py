"""Finite posets, meet semilattices, and the divisor/MIN lattice families.

Explicit posets are stored as cover edges plus per-element down-set
bitsets, so order queries are O(1) after construction; a MeetSemilattice
is such a Poset whose meets are looked up by down-set, since the down-set
of x meet y is the intersection of theirs.  The divisor and MIN lattices
on the positive integers share one IntegerLattice base and are never
materialized: they answer order, meet, and lower-set queries directly,
state their Mobius function once, as the slice steps of ``sieve(m)`` on
{1..m} (one per prime on the divisor lattice, an Euler product), and hand
out finite lower closed covering grids ({1..m} and its powers) on request.
Their d-fold powers come from the cached ``lattice_power``, so every caller
asking for one gets the same instance.  An ordered subset caches its own
MeetTable, the position of every pairwise meet of its members, which also
answers whether it is meet closed.  A ProductSubset alone knows a product's
lexicographic layout (factors, shape, strides) and builds its member list
only when read; a plain subset is a product of one factor.  Mobius rows and
inversion live in ``incidence``.
"""

from __future__ import annotations

import heapq
import math
import os
from collections import namedtuple
from functools import cached_property, lru_cache
from itertools import product as iter_product
from itertools import accumulate, compress, repeat
from operator import add, and_, itemgetter, sub

from .errors import (
    AmbientNotEnumerableError,
    ArityLimitError,
    CycleError,
    DuplicateElementError,
    NotASemilatticeError,
)
from .intfun import divisors


class Poset:
    """Finite poset over opaque element ids, built from Hasse cover edges."""

    kind = "explicit"
    arity = 1

    def __init__(self, elements, cover_edges=()):
        elems = list(elements)
        if not elems:
            raise ValueError("a poset needs at least one element")
        index = {}
        for e in elems:
            if e in index:
                raise DuplicateElementError(f"duplicate element {e!r}")
            index[e] = len(index)
        self.elements = tuple(elems)
        self._index = index
        edges = []
        for a, b in cover_edges:
            if a not in index or b not in index:
                raise ValueError(f"cover edge ({a!r}, {b!r}) references an unknown element")
            if a == b:
                raise CycleError(f"self-loop on {a!r}")
            edges.append((a, b))
        self.cover_edges = tuple(edges)
        self._down, self._order = self._reachability()
        self.least = self._find_least()
        self._covering = None

    def _reachability(self):
        """Down-set bitsets, and the element indices in the stable linear
        extension of the cover edges, as ``linear_extension`` orders them."""
        n = len(self.elements)
        succ = [[] for _ in range(n)]
        for a, b in self.cover_edges:
            succ[self._index[a]].append(self._index[b])
        order = _kahn(succ, "cover edges contain a cycle")
        down = [1 << i for i in range(n)]
        for i in order:  # every cover below i has reached down[i] already
            for j in succ[i]:
                down[j] |= down[i]
        return down, order

    def _find_least(self):
        minimal = [i for i, mask in enumerate(self._down) if mask == 1 << i]
        if len(minimal) == 1:
            return self.elements[minimal[0]]
        return None

    def leq(self, x, y):
        """True when x is below or equal to y."""
        return (self._down[self._index[y]] >> self._index[x]) & 1 == 1

    def contains(self, x):
        return x in self._index

    def lower_set(self, x):
        mask = self._down[self._index[x]]
        return [e for i, e in enumerate(self.elements) if (mask >> i) & 1]

    def covering_set(self, bound=None):
        """The whole element set; a finite poset is its own covering."""
        if self._covering is None:
            members = map(self.elements.__getitem__, self._order)
            self._covering = ElementSubset(self, members, _presorted=True)
        return self._covering

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"Poset({len(self.elements)} elements, {len(self.cover_edges)} covers)"


class MeetSemilattice(Poset):
    """Explicit finite meet semilattice: a poset whose every pair has a meet.

    The down-set of x meet y is down(x) & down(y), so one dict from down-set
    mask to element answers every meet, and a pair whose common down-set is
    no element's has no meet.  Construction checks the pairs i <= j in
    row-major order and fails with NotASemilatticeError at the first such.
    """

    # benchmarks/tracer.py wraps covering_set where a class body defines it
    covering_set = Poset.covering_set

    def __init__(self, elements, cover_edges=()):
        super().__init__(elements, cover_edges)
        down = self._down
        self._by_down = {mask: i for i, mask in enumerate(down)}
        has = self._by_down.__contains__
        for i, mask in enumerate(down):
            if not all(map(has, map(and_, repeat(mask), down[i:]))):
                j = next(j for j in range(i, len(down)) if not has(mask & down[j]))
                raise NotASemilatticeError(
                    f"elements {self.elements[i]!r} and {self.elements[j]!r} have no meet"
                )

    def meet(self, x, y):
        down, index = self._down, self._index
        return self.elements[self._by_down[down[index[x]] & down[index[y]]]]

    def __repr__(self):
        return f"MeetSemilattice({len(self.elements)} elements)"


class IntegerLattice:
    """Positive integers under the order a subclass defines; least element 1.

    Never materialized: covering sets are the ranges {1..m}.  All
    instances of one subclass are equal.
    """

    least = 1
    arity = 1

    def __init__(self):
        self._covers = {}

    def contains(self, x):
        return isinstance(x, int) and not isinstance(x, bool) and x >= 1

    def covering_set(self, bound):
        if bound not in self._covers:
            cover = ElementSubset(self, range(1, bound + 1), _presorted=True)
            # {1..m} is lower closed in both orders; no member's lower set is scanned
            cover.lower_closed = True
            self._covers[bound] = cover
        return self._covers[bound]

    def __eq__(self, other):
        return type(other) is type(self)

    def __hash__(self):
        return hash(type(self))

    def __repr__(self):
        return f"{type(self).__name__}()"


def _primes(m):
    """The primes p <= m in increasing order, by Eratosthenes' slice steps."""
    prime = bytearray(2) + bytearray([1]) * (m - 1)
    for p in compress(range(math.isqrt(m) + 1), prime):
        prime[p * p::p] = bytes(len(range(p * p, m + 1, p)))
    return compress(range(m + 1), prime)


class DivisorLattice(IntegerLattice):
    """Positive integers under divisibility; meet is gcd."""

    kind = "divisor"
    # benchmarks/tracer.py wraps covering_set where a class body defines it
    covering_set = IntegerLattice.covering_set
    meet = staticmethod(math.gcd)

    def leq(self, x, y):
        return y % x == 0

    def lower_set(self, x):
        return list(divisors(x))

    def sieve(self, m):
        """Mobius inversion on {1..m} as slice steps, the Euler product of
        (1 - p^-s): each prime p <= m, in increasing order, subtracts the
        running values[:m // p] from values[p-1::p]."""
        return tuple((slice(p - 1, None, p), slice(m // p), sub) for p in _primes(m))

    def zeta(self, m):
        """Summation on {1..m}, each sieve step inverted as (1 + p^-s)(1 + p^-2s)(1 + p^-4s)...:
        values[q-1::q] += the running values[:m // q] for q = p, p^2, p^4, ... <= m."""
        steps = []
        for q in _primes(m):
            while q <= m:
                steps.append((slice(q - 1, None, q), slice(m // q), add))
                q *= q
        return tuple(steps)


class MinLattice(IntegerLattice):
    """Positive integers under <=; meet is min."""

    kind = "min"
    # benchmarks/tracer.py wraps covering_set where a class body defines it
    covering_set = IntegerLattice.covering_set
    meet = staticmethod(min)

    def leq(self, x, y):
        return x <= y

    def lower_set(self, x):
        return list(range(1, x + 1))

    def sieve(self, m):
        """Mobius inversion on {1..m} as one slice step: a difference of neighbours."""
        return ((slice(1, None), slice(m - 1), sub),)

    def zeta(self, m):
        """Summation on {1..m}: one running sum, not m slice steps."""
        return accumulate


class ProductLattice:
    """Cartesian product of meet semilattices under the componentwise order.

    Elements are tuples; the meet is taken componentwise, which is the
    greatest lower bound for the product order.
    """

    kind = "product"

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise ValueError("a product needs at least one factor")
        self.factors = factors
        self.arity = len(factors)
        leasts = [getattr(f, "least", None) for f in factors]
        self.least = tuple(leasts) if all(v is not None for v in leasts) else None
        self._covers = {}

    def leq(self, x, y):
        return all(f.leq(a, b) for f, a, b in zip(self.factors, x, y))

    def meet(self, x, y):
        return tuple(f.meet(a, b) for f, a, b in zip(self.factors, x, y))

    def contains(self, x):
        return (
            isinstance(x, tuple)
            and len(x) == len(self.factors)
            and all(f.contains(c) for f, c in zip(self.factors, x))
        )

    def lower_set(self, x):
        parts = []
        for f, c in zip(self.factors, x):
            lower = getattr(f, "lower_set", None)
            if lower is None:
                raise AmbientNotEnumerableError(f"factor {f!r} cannot enumerate lower sets")
            parts.append(lower(c))
        return [tuple(t) for t in iter_product(*parts)]

    def covering_set(self, bound):
        if bound not in self._covers:
            self._covers[bound] = ProductSubset(f.covering_set(bound) for f in self.factors)
        return self._covers[bound]

    def __eq__(self, other):
        return isinstance(other, ProductLattice) and self.factors == other.factors

    def __hash__(self):
        return hash((ProductLattice, self.factors))

    def __repr__(self):
        return f"ProductLattice({list(self.factors)!r})"


# a d-fold power holds d factors and d-tuple elements, so an arity is
# refused before anything of its size is built
MAX_ARITY = 64


@lru_cache(maxsize=None)
def lattice_power(base, d):
    """The d-fold product of base with itself, or base itself at d = 1.

    Cached on (base, d), with the base itself taken through the cache, so
    equal requests get one instance and share its covering sets and the
    Mobius values cached on them.
    """
    if d > MAX_ARITY:
        raise ArityLimitError(f"arity {d} is above the limit of {MAX_ARITY}")
    if d == 1:
        return base
    return ProductLattice((lattice_power(base, 1),) * d)


def divisor_lattice(d=1):
    """The divisor lattice, or its d-fold product with tuple elements."""
    return lattice_power(DivisorLattice(), d)


def min_lattice(d=1):
    """The MIN lattice, or its d-fold product with tuple elements."""
    return lattice_power(MinLattice(), d)


def linear_extension(lattice, members):
    """Stable topological order of the members.

    x comes before y whenever x is strictly below y; incomparable members
    keep the order in which they were given.
    """
    xs = list(members)
    succ = [[j for j, y in enumerate(xs) if i != j and lattice.leq(x, y)]
            for i, x in enumerate(xs)]
    return list(map(xs.__getitem__, _kahn(succ, "order relation on the members is cyclic")))


def _kahn(succ, cyclic):
    """The indices 0..n-1 in topological order of the edges i -> succ[i], by
    Kahn's algorithm with the ready indices on a min-heap, so that ties keep
    index order; CycleError(cyclic) if the edges close a cycle."""
    indeg = [0] * len(succ)
    for js in succ:
        for j in js:
            indeg[j] += 1
    ready = [i for i, k in enumerate(indeg) if k == 0]  # ascending, so a heap
    order = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(ready, j)
    if len(order) != len(succ):
        raise CycleError(cyclic)
    return order


class MeetTable(namedtuple("MeetTable", "rows points")):
    """Positions of the pairwise meets of an ordered subset.

    rows[i][j] is the position in points of x_i meet x_j.  points holds the
    members first, in member order, then each meet outside the subset in
    the order a row-major scan of the upper triangle first reaches it: the
    point order in which ``meet_matrix`` reads f.
    """

    __slots__ = ()


class _Positions(dict):
    """Element -> position; an element not seen before gets the next one."""

    def __missing__(self, x):
        p = self[x] = len(self)
        return p


class ElementSubset:
    """Ordered finite subset of a lattice.

    Members are kept in a stable linear extension of the lattice order:
    if x_i is below x_j then i <= j, and incomparable members keep their
    input order.  Subsets are immutable once built.  With _presorted the
    caller vouches that the members are distinct elements of the lattice,
    already in such an order, and none of this is checked.
    """

    def __init__(self, lattice, members, _presorted=False):
        xs = list(members)
        if not xs:
            raise ValueError("subset must be nonempty")
        if not _presorted:
            seen = set()
            for x in xs:
                if x in seen:
                    raise DuplicateElementError(f"duplicate member {x!r}")
                seen.add(x)
                if not lattice.contains(x):
                    raise ValueError(f"{x!r} is not an element of the lattice")
            xs = linear_extension(lattice, xs)
        self.lattice = lattice
        self.members = tuple(xs)
        self._pos = {x: i for i, x in enumerate(self.members)}
        self.index = self._pos.__getitem__  # a member's position, C-level to map over rows

    # the layout of a product of one factor, as ProductSubset has it;
    # properties, so that a subset holds no reference to itself
    strides = (1,)

    @property
    def factors(self):
        return (self,)

    @property
    def shape(self):
        return (len(self.members),)

    def leq(self, x, y):
        return self.lattice.leq(x, y)

    def meet(self, x, y):
        meet = getattr(self.lattice, "meet", None)
        if meet is None:
            raise NotASemilatticeError("parent poset has no meet operation")
        return meet(x, y)

    @cached_property
    def meet_table(self):
        """The MeetTable of the members, filled in one pass over the upper triangle."""
        ms = self.members
        # self.meet raises NotASemilatticeError when the lattice has no meet
        meet = getattr(self.lattice, "meet", None) or self.meet
        where = _Positions(self._pos)
        rows = []
        for i, x in enumerate(ms):
            upper = map(where.__getitem__, map(meet, repeat(x), ms[i:]))
            rows.append([*map(itemgetter(i), rows), *upper])
        return MeetTable(rows, tuple(where))

    @property
    def meet_closed(self):
        return len(self.meet_table.points) == len(self.members)

    @cached_property
    def lower_closed(self):
        lower = getattr(self.lattice, "lower_set", None)
        if lower is None:
            raise AmbientNotEnumerableError("ambient lattice cannot enumerate lower sets")
        for x in self.members:
            for z in lower(x):
                if z not in self._pos:
                    return False
        return True

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, x):
        return x in self._pos

    def __repr__(self):
        shown = list(self.members[:6])
        tail = ", ..." if len(self.members) > 6 else ""
        return f"ElementSubset({shown}{tail})"


def subset(lattice, members):
    """Ordered subset of a lattice (stable linear-extension order)."""
    return ElementSubset(lattice, members)


def meet_closure(s):
    """Smallest meet closed superset, as a new ordered subset."""
    items = list(s.members)
    have = set(items)
    changed = True
    while changed:
        changed = False
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                m = s.meet(items[i], items[j])
                if m not in have:
                    items.append(m)
                    have.add(m)
                    changed = True
    return ElementSubset(s.lattice, items)


def lower_closure(s):
    """Smallest lower closed superset, as a new ordered subset."""
    lower = getattr(s.lattice, "lower_set", None)
    if lower is None:
        raise AmbientNotEnumerableError("ambient lattice cannot enumerate lower sets")
    items = list(s.members)
    have = set(items)
    for x in s.members:
        for z in lower(x):
            if z not in have:
                items.append(z)
                have.add(z)
    return ElementSubset(s.lattice, items)


def strides(shape):
    """Lexicographic strides: multi-index i sits at the sum of i_t * strides[t]."""
    return tuple(math.prod(shape[t + 1:]) for t in range(len(shape)))


class ProductSubset:
    """Cartesian product of ordered subsets, in lexicographic order.

    The lexicographic order of linear extensions is itself a linear
    extension of the product order.  Positions and membership are asked
    of the factors, so the member list is built only when first read.
    Its lattice is the product of the factors' lattices, equal to (not
    the same object as) a family's; ``incidence.mobius`` gives its rows by
    Rota's product rule over the factors' own cached rows.
    """

    def __init__(self, factors):
        self.factors = tuple(factors)
        self.lattice = ProductLattice(s.lattice for s in self.factors)
        self.shape = tuple(map(len, self.factors))
        self.strides = strides(self.shape)
        self.leq = self.lattice.leq
        self.meet = self.lattice.meet

    @cached_property
    def members(self):
        return tuple(self)

    def index(self, x):
        if x not in self:
            raise KeyError(x)
        return sum(s.index(c) * k for s, c, k in zip(self.factors, x, self.strides))

    # meets and lower sets in a product are taken componentwise
    @property
    def meet_closed(self):
        return all(s.meet_closed for s in self.factors)

    @property
    def lower_closed(self):
        return all(s.lower_closed for s in self.factors)

    def __len__(self):
        return math.prod(self.shape)

    def __iter__(self):
        return iter_product(*self.factors)

    def __contains__(self, x):
        return (isinstance(x, tuple) and len(x) == len(self.factors)
                and all(c in s for s, c in zip(self.factors, x)))


def product_subset(subsets):
    """Cartesian product subset of the factors; a single factor is returned unchanged."""
    subsets = tuple(subsets)
    return subsets[0] if len(subsets) == 1 else ProductSubset(subsets)


# a MeetSemilattice checks all n(n+1)/2 pairs and holds n down-sets of n
# bits, so a Hasse file's element count is refused before a Poset is built
MAX_HASSE_ELEMENTS = 4096


def load_hasse(source):
    """Parse a lattice description.

    Line format: ``elem ID``, ``edge LOWER UPPER``, comments starting with
    ``#``.  Alternatively a single ``family divisor d=2`` (or ``family min
    d=1``) line names an implicit integer family.  Returns a
    MeetSemilattice for an explicit description, or the named family.
    More than MAX_HASSE_ELEMENTS ``elem`` lines raise ValueError.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    else:
        lines = list(source)

    elements = []
    edges = []
    family = None
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "elem" and len(parts) == 2:
            elements.append(parts[1])
        elif parts[0] == "edge" and len(parts) == 3:
            edges.append((parts[1], parts[2]))
        elif parts[0] == "family" and len(parts) >= 2:
            if family is not None:
                raise ValueError("multiple family declarations")
            d = 1
            for opt in parts[2:]:
                key, _, value = opt.partition("=")
                if key != "d":
                    raise ValueError(f"unknown family option {opt!r}")
                d = int(value)
            if d < 1:
                raise ValueError("family arity must be at least 1")
            if parts[1] == "divisor":
                family = divisor_lattice(d)
            elif parts[1] == "min":
                family = min_lattice(d)
            else:
                raise ValueError(f"unknown family {parts[1]!r}")
        else:
            raise ValueError(f"cannot parse line: {raw.rstrip()}")

    if family is not None:
        if elements or edges:
            raise ValueError("family declarations cannot be mixed with elem/edge records")
        return family
    if len(elements) > MAX_HASSE_ELEMENTS:
        raise ValueError(f"{len(elements)} elements are above the limit of {MAX_HASSE_ELEMENTS}")
    return MeetSemilattice(elements, edges)
