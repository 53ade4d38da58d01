import random
from fractions import Fraction
from itertools import repeat
from math import prod
from operator import add, sub
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meetpd import incidence
from meetpd.arith import builtin, to_lattice_function
from meetpd.errors import EvaluationError
from meetpd.incidence import _recursive_rows, _transform, inverted_values, mobius
from meetpd.intfun import mobius_int
from meetpd.meetmatrix import LatticeFunction, meet_matrix, summatory_function, table_function
from meetpd.pdcheck import ElementWitness, pd_criterion
from meetpd.posets import (
    DivisorLattice,
    MeetSemilattice,
    MinLattice,
    Poset,
    ProductLattice,
    divisor_lattice,
    load_hasse,
    lower_closure,
    meet_closure,
    min_lattice,
    product_subset,
    strides,
    subset,
)


def divisor_closed(n):
    dl = divisor_lattice()
    return lower_closure(subset(dl, [n]))


def random_poset(rng, n):
    """Random DAG on 0..n-1 with edges only from smaller to larger labels."""
    elements = list(range(n))
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.4
    ]
    return Poset(elements, edges)


def mu_pairs(s):
    """The nonzero Mobius values of a subset as a dict keyed by (z, x)."""
    return {(z, x): w for x, (zs, ws) in zip(s.members, mobius(s)) for z, w in zip(zs, ws)}


def ambient_mu(lattice, z, x):
    """Closed-form Mobius value of the divisor or MIN lattice, or of a product of them."""
    if isinstance(lattice, ProductLattice):
        return prod(ambient_mu(f, a, b) for f, a, b in zip(lattice.factors, z, x))
    if lattice.kind == "divisor":
        return mobius_int(x // z) if x % z == 0 else 0
    return {0: 1, 1: -1}.get(x - z, 0)  # MIN is a chain


def mobius_subset_via_ambient(s):
    """Mobius function of a meet closed subset via ambient Mobius sums.

    Cross-check oracle: the value at (x_i, x_j) is the sum of ambient
    mu(x_i, z) over ambient z below x_j that are not below any earlier
    member x_k, k < j.  Zero values are left out, as in ``mu_pairs``.
    """
    lattice = s.lattice
    ms = s.members
    vals = {}
    for j, xj in enumerate(ms):
        zs = [
            z
            for z in lattice.lower_set(xj)
            if not any(lattice.leq(z, xk) for xk in ms[:j])
        ]
        for xi in ms[: j + 1]:
            if lattice.leq(xi, xj):
                v = sum(ambient_mu(lattice, xi, z) for z in zs if lattice.leq(xi, z))
                if v:
                    vals[(xi, xj)] = v
    return vals


def zeta_inverse_oracle(s):
    """Mobius values by explicit Gaussian inversion of the zeta matrix."""
    ms = s.members
    n = len(ms)
    z = [[Fraction(1 if s.leq(ms[i], ms[j]) else 0) for j in range(n)] for i in range(n)]
    inv = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        for row in range(col):
            factor = z[row][col]
            if factor:
                for k in range(n):
                    z[row][k] -= factor * z[col][k]
                    inv[row][k] -= factor * inv[col][k]
    return {
        (ms[i], ms[j]): inv[i][j]
        for i in range(n)
        for j in range(n)
        if inv[i][j]
    }


def test_mobius_matches_matrix_inversion_oracle():
    rng = random.Random(5)
    for n in [1, 2, 4, 6, 8]:
        s = random_poset(rng, n).covering_set()
        assert mu_pairs(s) == zeta_inverse_oracle(s)
    for n in [4, 12, 30, 36]:
        s = divisor_closed(n)
        assert mu_pairs(s) == zeta_inverse_oracle(s)


def test_mobius_rows_are_int_and_end_at_their_member():
    rng = random.Random(13)
    for s in [random_poset(rng, 9).covering_set(), divisor_closed(360),
              min_lattice(2).covering_set(4), meet_closure(subset(divisor_lattice(), [4, 6, 10]))]:
        rows = mobius(s)
        assert len(rows) == len(s)
        for x, (zs, ws) in zip(s.members, rows):
            assert zs[-1] == x and ws[-1] == 1
            assert [s.index(z) for z in zs] == sorted(s.index(z) for z in zs)
            assert all(type(w) is int and w != 0 for w in ws)
        assert mobius(s) is rows


def test_mobius_queries_the_order_once_per_pair():
    # the recursion itself: mobius would read this set's rows off the MIN
    # sieve and query no order at all
    s = subset(min_lattice(), range(1, 61))
    calls = []
    real = s.leq
    s.leq = lambda x, y: calls.append((x, y)) or real(x, y)
    assert _recursive_rows(s) == mobius(s)
    n = len(s)
    assert len(calls) <= n * (n - 1) // 2


def test_mobius_on_min_300_gives_the_chain_rows():
    s = min_lattice().covering_set(300)
    rows = mobius(s)
    assert rows[0] == ((1,), (1,))
    assert all(row == ((x - 1, x), (-1, 1)) for x, row in zip(s.members[1:], rows[1:]))


def test_mobius_inverts_zeta_on_divisors_of_30():
    # the sum of mu(z, w) over z <= w <= x is 1 at z = x and 0 below it
    s = divisor_closed(30)
    mu = mu_pairs(s)
    for z in s.members:
        for x in s.members:
            if s.leq(z, x):
                total = sum(mu.get((z, w), 0) for w in s.members if s.leq(z, w) and s.leq(w, x))
                assert total == (z == x)


def test_mobius_chain_values():
    mu = mu_pairs(divisor_closed(4))
    assert mu[(1, 1)] == 1
    assert mu[(1, 2)] == -1
    assert (1, 4) not in mu


def test_mobius_two_prime_square_free():
    assert mu_pairs(divisor_closed(6))[(1, 6)] == 1


def test_mobius_singleton():
    p = Poset(["a"], [])
    assert mobius(p.covering_set()) == ((("a",), (1,)),)


SMALL_POSETS = [
    (["a"], []),
    (["a", "b"], [("a", "b")]),
    (["a", "b", "c"], [("a", "b"), ("b", "c")]),
    (["0", "x", "y"], [("0", "x"), ("0", "y")]),                      # V shape
    (["0", "x", "y", "1"], [("0", "x"), ("0", "y"), ("x", "1"), ("y", "1")]),  # diamond
    (["0", "a", "b", "c"], [("0", "a"), ("0", "b"), ("0", "c")]),
    (["0", "a", "b", "c", "1"],
     [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")]),
]


def product_rule(s, t):
    """Rota's product rule: mu((z1, z2), (x1, x2)) = mu(z1, x1) mu(z2, x2)."""
    return {((z1, z2), (x1, x2)): v1 * v2
            for (z1, x1), v1 in mu_pairs(s).items()
            for (z2, x2), v2 in mu_pairs(t).items()}


def test_mobius_product_agrees_with_product_poset_inversion():
    for elems_p, edges_p in SMALL_POSETS:
        for elems_q, edges_q in SMALL_POSETS:
            s = MeetSemilattice(elems_p, edges_p).covering_set()
            t = MeetSemilattice(elems_q, edges_q).covering_set()
            assert product_rule(s, t) == mu_pairs(product_subset([s, t]))


def test_mobius_product_of_singletons():
    p = MeetSemilattice(["a"], []).covering_set()
    q = MeetSemilattice(["b"], []).covering_set()
    assert mu_pairs(product_subset([p, q])) == {(("a", "b"), ("a", "b")): 1}


def test_mobius_product_on_divisor_squares():
    s = subset(divisor_lattice(), [1, 2])
    mu = mu_pairs(product_subset([s, s]))
    assert mu[((1, 1), (2, 2))] == 1
    assert mu[((1, 1), (1, 2))] == -1


def test_subset_mobius_equals_ambient_on_lower_closed_divisor_sets():
    for n in range(1, 61):
        s = divisor_closed(n)
        mu = mu_pairs(s)
        for x in s.members:
            for y in s.members:
                if y % x == 0:
                    assert mu.get((x, y), 0) == mobius_int(y // x)


def test_subset_mobius_meet_closed_not_lower_closed():
    dl = divisor_lattice()
    s = subset(dl, [2, 4, 6])
    mu = mu_pairs(s)
    assert mu[(2, 4)] == -1
    assert mu[(2, 6)] == -1
    assert mu[(2, 2)] == 1


def _fresh_power(base, d):
    """A new d-fold power of a new base, so no Mobius row of it is cached."""
    return base() if d == 1 else ProductLattice([base()] * d)


# M3: three atoms between 0 and 1, so mu(0, 1) = 2, a weight other than +-1
HASSE_M3 = load_hasse(["elem 0", "elem a", "elem b", "elem c", "elem 1",
                       "edge 0 a", "edge 0 b", "edge 0 c", "edge a 1", "edge b 1", "edge c 1"])


def _hasse_diamond():
    return load_hasse(["elem 0", "elem x", "elem y", "elem 1", "edge 0 x", "edge 0 y",
                       "edge x 1", "edge y 1"])


# name: (build, the subsets Rota's recursion runs on when mobius builds the rows)
ROUTED_SUBSETS = {
    # covering sets {1..m} read their rows off the sieve, and products of
    # them take the product rule over those: neither runs the recursion
    **{f"{base.kind}_d{d}": (lambda base=base, d=d, m=m: _fresh_power(base, d).covering_set(m),
                             lambda s: [])
       for base, bounds in [(DivisorLattice, (60, 8, 4)), (MinLattice, (30, 6, 3))]
       for d, m in zip((1, 2, 3), bounds)},
    # lower closed but not {1..m}: no sieve reads it, so the recursion does
    "divisor_lower_closure": (lambda: lower_closure(subset(divisor_lattice(), [360, 84])),
                              lambda s: [s]),
    # incomparable members listed out of numeric order
    "divisor_unsorted": (lambda: subset(divisor_lattice(), [1, 5, 3, 2, 15, 6, 10, 30]),
                         lambda s: [s]),
    "meet_closure": (lambda: meet_closure(subset(divisor_lattice(), [4, 6, 10])), lambda s: [s]),
    "hasse": (lambda: _hasse_diamond().covering_set(), lambda s: [s]),
    # a product runs the recursion only on its factors that need it
    "hasse_product": (lambda: product_subset([_hasse_diamond().covering_set(),
                                              min_lattice().covering_set(3)]),
                      lambda s: [s.factors[0]]),
    # explicit ids of mixed types, which do not compare with each other
    "mixed_id_product": (lambda: product_subset([
        MeetSemilattice([0, "a", "b"], [(0, "a"), (0, "b")]).covering_set(),
        min_lattice().covering_set(2)]), lambda s: [s.factors[0]]),
    # a product with a factor that is not lower closed takes the product rule too
    "mixed_product": (lambda: product_subset([
        meet_closure(subset(divisor_lattice(), [4, 6, 10])),
        min_lattice().covering_set(3),
        _hasse_diamond().covering_set()]), lambda s: [s.factors[0], s.factors[2]]),
    "divisor_not_lower_closed": (lambda: subset(divisor_lattice(), [1, 4]), lambda s: [s]),
}


@pytest.mark.parametrize("name", sorted(ROUTED_SUBSETS))
def test_mobius_equals_the_recursion_by_every_route(name, monkeypatch):
    import meetpd.incidence as incidence

    build, recursed_on = ROUTED_SUBSETS[name]
    s = build()
    expected = _recursive_rows(s)
    recursed = []
    monkeypatch.setattr(incidence, "_recursive_rows",
                        lambda t: recursed.append(t) or _recursive_rows(t))
    assert mobius(s) == expected
    assert recursed == recursed_on(s)


def _product_factors():
    """Factor subsets the product rule combines: divisor and MIN covering
    sets, meet closures that are not lower closed, and the M3 and diamond
    Hasse lattices."""
    covers = st.builds(lambda family, m: family.covering_set(m),
                       st.sampled_from([divisor_lattice(), min_lattice()]), st.integers(1, 6))
    closures = st.lists(st.integers(2, 40), min_size=1, max_size=3, unique=True).map(
        lambda xs: meet_closure(subset(divisor_lattice(), xs))).filter(
        lambda s: not s.lower_closed)
    hasse = st.sampled_from([HASSE_M3, _hasse_diamond()]).map(lambda h: h.covering_set())
    return st.one_of(covers, closures, hasse)


@settings(max_examples=60, deadline=None)
@given(st.lists(_product_factors(), min_size=2, max_size=3))
def test_the_product_rule_equals_the_recursion_on_the_whole_product(factors):
    s = product_subset(factors)
    assert mobius(s) == _recursive_rows(s)


def test_mobius_of_a_subset_that_is_not_lower_closed():
    # in {1, 4} the interval [1, 4] has two elements, so mu(1, 4) = -1,
    # where the divisor lattice's closed form gives mu(4) = 0
    assert mu_pairs(subset(divisor_lattice(), [1, 4])) == {(1, 1): 1, (1, 4): -1, (4, 4): 1}


def test_subset_mobius_singleton():
    s = subset(divisor_lattice(), [5])
    assert mu_pairs(s) == {(5, 5): 1}


def test_mobius_invert_constant_on_chain():
    chain = Poset(["a", "b", "c"], [("a", "b"), ("b", "c")]).covering_set()
    f = table_function(chain.lattice, dict.fromkeys(chain.members, 1))
    assert [v for _, v in inverted_values(f, chain)] == [1, 0, 0]


def test_mobius_invert_identity_on_divisors_of_4():
    s = divisor_closed(4)
    f = table_function(s.lattice, {x: x for x in s.members})
    assert [v for _, v in inverted_values(f, s)] == [1, 1, 2]


def test_mobius_invert_round_trip_on_random_posets():
    # summing the inverted values over each lower set restores f
    rng = random.Random(77)
    for _ in range(200):
        n = rng.randint(1, 10)
        # force a least element by wiring node 0 under everything
        elements = list(range(n + 1))
        edges = [(0, i) for i in range(1, n + 1)]
        edges += [
            (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
            if rng.random() < 0.3
        ]
        s = Poset(elements, edges).covering_set()
        f = table_function(s.lattice, {x: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                       for x in s.members})
        g = dict(inverted_values(f, s))
        for x in s.members:
            assert sum((g[z] for z in s.members if s.leq(z, x)), Fraction(0)) == f(x)


def test_ambient_mobius_closed_forms():
    # over a lower closed covering set the subset's Mobius values are the ambient ones
    dl = divisor_lattice()
    ml = min_lattice()
    assert mu_pairs(dl.covering_set(12))[(2, 12)] == mobius_int(6)
    mu = mu_pairs(ml.covering_set(5))
    assert mu[(3, 3)] == 1
    assert mu[(3, 4)] == -1
    assert (3, 5) not in mu
    prod_set = ProductLattice([dl, ml]).covering_set(6)
    assert mu_pairs(prod_set)[((1, 1), (6, 2))] == mobius_int(6) * -1
    for grid in (dl.covering_set(30), ml.covering_set(9), divisor_lattice(2).covering_set(6),
                 prod_set):
        mu = mu_pairs(grid)
        for x in grid.members:
            for z in grid.members:
                if grid.leq(z, x):
                    assert mu.get((z, x), 0) == ambient_mu(grid.lattice, z, x)


def test_ambient_mobius_explicit_poset():
    diamond = MeetSemilattice(
        ["0", "x", "y", "1"],
        [("0", "x"), ("0", "y"), ("x", "1"), ("y", "1")],
    )
    mu = mu_pairs(diamond.covering_set())
    assert mu[("0", "1")] == 1
    assert mu[("0", "x")] == -1


def test_remark_sum_oracle_matches_inversion_on_products():
    dl = divisor_lattice()
    cases = [
        product_subset([subset(dl, [2, 4, 6]), subset(dl, [1, 3])]),
        product_subset([subset(dl, [1, 2, 4]), subset(dl, [1, 2])]),
        divisor_lattice(2).covering_set(4),
    ]
    for grid in cases:
        assert mobius_subset_via_ambient(grid) == mu_pairs(grid)


def test_remark_sum_oracle_matches_on_min_grid():
    grid = min_lattice(2).covering_set(3)
    assert mobius_subset_via_ambient(grid) == mu_pairs(grid)


def test_inverted_values_inverts_only_factor_subsets(monkeypatch):
    import meetpd.incidence as incidence

    real = incidence.mobius
    inverted = []
    monkeypatch.setattr(incidence, "mobius", lambda s: inverted.append(s) or real(s))
    rng = random.Random(41)
    # a meet closed factor that is not lower closed, so its Mobius
    # function is not the ambient one, and an explicit meet semilattice
    left = meet_closure(subset(divisor_lattice(), [4, 6, 10]))
    diamond = MeetSemilattice(["0", "x", "y", "1"],
                              [("0", "x"), ("0", "y"), ("x", "1"), ("y", "1")])
    grid = product_subset([left, min_lattice().covering_set(3), diamond.covering_set()])
    f = table_function(grid.lattice, {x: Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                                      for x in grid.members})
    got = list(inverted_values(f, grid))
    # rows are read for the factors only, and not for the MIN covering set,
    # which its lattice's sieve inverts
    assert inverted == [left, grid.factors[2]]
    mu = mu_pairs(grid)
    assert got == [
        (x, sum((f(z) * mu.get((z, x), 0) for z in grid.members if grid.leq(z, x)), Fraction(0)))
        for x in grid.members
    ]


COUNTED_SUBSETS = {
    "divisor_d3": lambda: divisor_lattice(3).covering_set(4),
    "min_d2": lambda: min_lattice(2).covering_set(5),
    "mixed": lambda: product_subset([meet_closure(subset(divisor_lattice(), [4, 6, 10])),
                                     min_lattice().covering_set(3)]),
    "poset": lambda: random_poset(random.Random(3), 9).covering_set(),
}


def block_end(s, k):
    """How many members f has been read at once k inverted values are out:
    the end of the block that holds member k - 1.  The blocks are doubling
    runs of first-axis slabs, 1, 1, 2, 4, ... slabs, ending after slab 1, 2,
    4, 8, ..., and a slab is one member on a single subset."""
    slab = (k - 1) // s.strides[0]
    return min(1 << slab.bit_length(), s.shape[0]) * s.strides[0]


@pytest.mark.parametrize("fractional", [False, True])
@pytest.mark.parametrize("name", sorted(COUNTED_SUBSETS))
def test_inverted_values_evaluates_f_once_per_member_in_member_order(name, fractional):
    s = COUNTED_SUBSETS[name]()
    seen = []
    f = LatticeFunction(s.lattice, lambda x: seen.append(x) or Fraction(len(seen), 1 + fractional))
    values = inverted_values(f, s)
    half = len(s) // 2
    for _ in range(half):
        next(values)
    # a consumer that stops early leaves f unevaluated past the end of the
    # block it stopped in
    assert block_end(s, half) < len(s)
    assert seen == list(s.members[:block_end(s, half)])
    list(values)
    assert seen == list(s.members)


MAX_FACTOR_BOUND = {1: 16, 2: 6, 3: 3}


@st.composite
def valued_products(draw):
    """A product of 1-3 factors (divisor, MIN and an explicit Hasse lattice)
    with int and fractional values, and one denominator, 97, that appears
    first in the last slab (the second half of a single factor)."""
    d = draw(st.integers(1, 3))
    factors = []
    for _ in range(d):
        kind = draw(st.sampled_from(["divisor", "min", "hasse"]))
        bound = draw(st.integers(1, MAX_FACTOR_BOUND[d]))
        family = {"divisor": divisor_lattice(), "min": min_lattice(), "hasse": HASSE_M3}[kind]
        factors.append(family.covering_set(bound))
    grid = product_subset(factors)
    n = len(grid)
    values = draw(st.lists(st.one_of(st.integers(-9, 9),
                                     st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))),
                           min_size=n, max_size=n))
    late = draw(st.integers(n - grid.strides[0] if d > 1 else n // 2, n - 1))
    values[late] = Fraction(2 * draw(st.integers(-5, 5)) + 1, 97)
    return grid, dict(zip(grid.members, values))


@settings(max_examples=200, deadline=None)
@given(valued_products(), st.sampled_from([0, incidence.SLACK_BITS]))
def test_block_inversion_equals_the_fraction_sum_over_the_recursive_rows(case, slack):
    # with no slack, a slab whose denominators do not all divide the largest
    # one keeps its values as Fractions, beside slabs over one denominator
    grid, table = case
    f = table_function(grid.lattice, table)
    expected = [(x, sum((f(z) * w for z, w in zip(zs, ws)), Fraction(0)))
                for x, (zs, ws) in zip(grid.members, _recursive_rows(grid))]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(incidence, "SLACK_BITS", slack)
        assert list(inverted_values(f, grid)) == expected
    # the criterion's witness is the first negative member in member order
    family = SimpleNamespace(least=grid.members[0], covering_set=lambda bound: grid)
    verdict = pd_criterion(table_function(grid.lattice, table), family, 1)
    negatives = [(x, v) for x, v in expected if v < 0]
    assert verdict.witness == (ElementWitness(*negatives[0]) if negatives else None)


@pytest.mark.parametrize("slack", [0, incidence.SLACK_BITS])
def test_a_gap_inside_a_slab_yields_only_the_values_before_it(monkeypatch, slack):
    # distinct prime denominators: with no slack the slab's values stay Fractions
    monkeypatch.setattr(incidence, "SLACK_BITS", slack)
    grid = min_lattice(2).covering_set(4)
    gap = (2, 3)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
    table = {x: Fraction(1, p) for x, p in zip(grid.members, primes) if x != gap}
    got = []
    with pytest.raises(EvaluationError):
        for pair in inverted_values(table_function(grid.lattice, table), grid):
            got.append(pair)
    tab = lambda i, j: table.get((i, j), 0)  # noqa: E731
    assert got == [((i, j), tab(i, j) - tab(i - 1, j) - tab(i, j - 1) + tab(i - 1, j - 1))
                   for i, j in grid.members[:grid.members.index(gap)]]


# Inner axes a covering set {1..m} of an integer lattice inverts by its
# lattice's sieve, and any other inner factor by its rows.  The bounds reach
# what valued_products cannot: e = 30 = 2 * 3 * 5 (mu = -1) on the inner
# axis of {1..31}^2, and a middle axis at d = 3.
SIEVE_CASES = {
    "divisor_d2_m31": (lambda: divisor_lattice(2).covering_set(31), True),
    "divisor_d3_m7": (lambda: divisor_lattice(3).covering_set(7), True),
    "min_d2_m1": (lambda: min_lattice(2).covering_set(1), True),
    "min_d2_m2": (lambda: min_lattice(2).covering_set(2), True),
    "min_d2_m9": (lambda: min_lattice(2).covering_set(9), True),
    "closure_inner": (lambda: product_subset([
        min_lattice().covering_set(3), meet_closure(subset(divisor_lattice(), [4, 6, 10]))]), False),
    "hasse_inner": (lambda: product_subset([
        divisor_lattice().covering_set(6), HASSE_M3.covering_set(), min_lattice().covering_set(2)]),
        False),
}


@pytest.mark.parametrize("name", sorted(SIEVE_CASES))
def test_sieved_axes_equal_the_fraction_sum_over_the_recursive_rows(name):
    build, sieved = SIEVE_CASES[name]
    grid = build()
    inner = [incidence._axis(s)[0] is not None for s in grid.factors[1:]]
    assert inner[0] == sieved and all(inner[1:])  # a MIN factor after HASSE_M3 is sieved
    rng = random.Random(name)
    table = {x: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for x in grid.members}
    f = table_function(grid.lattice, table)
    expected = [(x, sum((table[z] * w for z, w in zip(zs, ws)), Fraction(0)))
                for x, (zs, ws) in zip(grid.members, _recursive_rows(grid))]
    for slack in (0, incidence.SLACK_BITS):  # Fraction slabs, then int slabs
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(incidence, "SLACK_BITS", slack)
            assert list(inverted_values(f, grid)) == expected


# The divisor lattice's programs before its Euler products, kept as references:
# one slice step per squarefree e (the sieve) or per e (zeta), each step
# reading the input line, where the prime steps read the running values.
def squarefree_sieve(m):
    mu = [0, 1] + [0] * (m - 1)
    for e in range(1, m // 2 + 1):
        mu[2 * e::e] = map(sub, mu[2 * e::e], repeat(mu[e]))
    return tuple((slice(e - 1, None, e), slice(m // e), add if mu[e] > 0 else sub)
                 for e in range(2, m + 1) if mu[e])


def every_e_zeta(m):
    return tuple((slice(e - 1, None, e), slice(m // e), add) for e in range(2, m + 1))


def along_axis(values, shape, axis, steps):
    """The flat grid of the shape with the steps run on each line of the axis,
    every step reading the line as it was."""
    stride, size = prod(shape[axis + 1:]), shape[axis]
    out = values[:]
    for start in range(len(values)):
        if start // stride % size == 0:  # the first point of its line
            line = values[start::stride][:size]
            new = line[:]
            for dst, src, op in steps:
                new[dst] = map(op, new[dst], line[src])
            out[start:start + stride * size:stride] = new
    return out


def test_the_prime_steps_equal_the_squarefree_sieve_and_every_e_zeta():
    rng = random.Random(30)
    lattice = DivisorLattice()
    for m in range(1, 301):
        programs = [(lattice.sieve(m), squarefree_sieve(m)), (lattice.zeta(m), every_e_zeta(m))]
        assert all(len(steps) <= len(old) for steps, old in programs)
        for axis in range(3):  # the first, a middle and the last of three axes
            shape = [2, 2]
            shape.insert(axis, m)
            ints = [rng.randint(-50, 50) for _ in range(prod(shape))]
            fractions = [Fraction(v, 1 + i % 6) for i, v in enumerate(ints)]
            for values in (ints, fractions) if m < 40 or m % 20 == 0 else (ints,):
                for steps, old in programs:
                    axes = [((), None)] * 3
                    axes[axis] = (steps, None)
                    got = _transform(values, axes, strides(shape))
                    assert got == along_axis(values, shape, axis, old)
                    assert set(map(type, got)) == set(map(type, values))


def test_sieve_rows_of_every_m_up_to_300_equal_the_recursion():
    for lattice in (DivisorLattice(), MinLattice()):
        recursive = _recursive_rows(lattice.covering_set(300))
        for m in range(1, 301):
            assert mobius(lattice.covering_set(m)) == recursive[:m]  # {1..m} is lower closed
    assert MinLattice().sieve(1) == ((slice(1, None), slice(0), sub),)


def _gap_rule(gap):
    def rule(x):
        if x == gap:
            raise ZeroDivisionError("no value here")
        return x[0] * x[1] + Fraction(1, x[0] + x[1])
    return rule


GAP = (2, 3)
FAILING = {
    "lattice_function": lambda: LatticeFunction(min_lattice(2), _gap_rule(GAP), name="gappy"),
    "moved": lambda: to_lattice_function(
        LatticeFunction(divisor_lattice(2), _gap_rule(GAP), name="gappy"), min_lattice(2)),
    "plain_callable": lambda: _gap_rule(GAP),
}


@pytest.mark.parametrize("name", sorted(FAILING))
def test_a_rule_that_raises_inside_a_slab_yields_only_the_values_before_it(name):
    f = FAILING[name]()
    grid = min_lattice(2).covering_set(4)
    rule = _gap_rule(GAP)
    before = grid.members[:grid.members.index(GAP)]
    got = []
    with pytest.raises(Exception) as raised:
        for pair in inverted_values(f, grid):
            got.append(pair)
    assert got == [(x, sum((rule(z) * w for z, w in zip(zs, ws)), Fraction(0)))
                   for x, (zs, ws) in zip(before, _recursive_rows(grid))]
    if name == "plain_callable":  # unwrapped, as the rule raised it
        assert type(raised.value) is ZeroDivisionError
        return
    with pytest.raises(EvaluationError) as one:
        f.evaluate(GAP)
    assert type(raised.value) is EvaluationError and str(raised.value) == str(one.value)
    assert str(one.value) == "gappy failed at (2, 3): no value here"
    out = [0]  # read appends, and keeps what it read before the failure
    with pytest.raises(EvaluationError):
        f.read(grid.members, out)
    assert out == [0] + [f.evaluate(x) for x in before]


def test_read_gives_the_fractions_evaluate_gives_and_ints_as_ints():
    half = Fraction(1, 2)
    for f in (builtin("gcd_pow", half), builtin("gcd_pow", half, d=2),
              builtin("lcm_pow", half, d=2)):
        s = f.lattice.covering_set(6)
        got = f.read(list(s), [])
        assert got == [f.evaluate(x) for x in s] and set(map(type, got)) == {Fraction}
        expected = [(x, sum((f.evaluate(z) * w for z, w in zip(zs, ws)), Fraction(0)))
                    for x, (zs, ws) in zip(s.members, _recursive_rows(s))]
        assert list(inverted_values(f, s)) == expected
    f = builtin("gcd_pow", 2, d=2)
    assert set(map(type, f.read(list(f.lattice.covering_set(4)), []))) == {int}
    assert type(builtin("gcd_pow", 2)(3)) is Fraction
    assert type(f.evaluate((2, 4))) is Fraction


# A summatory function f = zeta g reaches inverted_blocks summed slab-wise from
# its source g on a lower closed subset, and read member by member otherwise.
def per_member(f):
    """f read through its own per-member rule, never summed from g."""
    return LatticeFunction(f.lattice, f.evaluate, name=f.name, certificate=f.certificate)


def whole_set(grid):
    return SimpleNamespace(least=grid.members[0], covering_set=lambda bound: grid)


@settings(max_examples=150, deadline=None)
@given(valued_products(), st.sampled_from([0, incidence.SLACK_BITS]))
def test_summed_blocks_invert_back_to_g_and_match_the_per_member_path(case, slack):
    grid, g = case
    f = summatory_function(grid.lattice, g.__getitem__, certify_nonneg=False)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(incidence, "SLACK_BITS", slack)
        got = list(inverted_values(f, grid))
        assert got == [(x, g[x]) for x in grid.members]
        assert got == list(inverted_values(per_member(f), grid))
        assert (pd_criterion(f, whole_set(grid), 1)
                == pd_criterion(per_member(f), whole_set(grid), 1))


def test_a_summatory_function_on_a_set_that_is_not_lower_closed_is_read_per_member():
    s = meet_closure(subset(divisor_lattice(), [4, 6, 10]))
    assert not s.lower_closed
    f = summatory_function(s.lattice, lambda z: z)
    got = list(inverted_values(f, s))
    # f(2) = 1 + 2, and f(x) - f(2) above it: g summed over the lattice, not over s
    assert got == [(2, 3), (4, 4), (6, 9), (10, 15)]
    assert got == list(inverted_values(per_member(f), s))
    assert pd_criterion(f, whole_set(s), 1) == pd_criterion(per_member(f), whole_set(s), 1)


# "mixed" is not lower closed, so its summatory values are read per member
@pytest.mark.parametrize("fractional", [False, True])
@pytest.mark.parametrize("name", ["divisor_d3", "min_d2", "poset"])
def test_summed_values_read_g_once_per_member_in_member_order(name, fractional):
    s = COUNTED_SUBSETS[name]()
    seen = []
    f = summatory_function(s.lattice,
                           lambda z: seen.append(z) or Fraction(len(seen), 1 + fractional))
    values = inverted_values(f, s)
    half = len(s) // 2
    got = [next(values) for _ in range(half)]
    # a consumer that stops early leaves g unread past the end of the block it stopped in
    assert block_end(s, half) < len(s)
    assert seen == list(s.members[:block_end(s, half)])
    got += list(values)
    assert seen == list(s.members)
    assert got == [(x, Fraction(k, 1 + fractional)) for k, x in enumerate(s.members, 1)]


def _recorded_blocks(monkeypatch):
    import meetpd.pdcheck as pdcheck

    blocks, seen = pdcheck.inverted_blocks, []

    def recorded(f, s):
        for xs, values, den in blocks(f, s):
            seen.extend(xs[:len(values)])
            yield xs, values, den

    monkeypatch.setattr(pdcheck, "inverted_blocks", recorded)
    return seen


@pytest.mark.parametrize("bad, message", [
    ({(3, 2): -1, (2, 5): Fraction(-1, 2)}, "summatory source is negative at (2, 5): -1/2"),
    ({(2, 5): None}, "summatory failed at (2, 5): (2, 5)"),
], ids=["negative_source", "failing_g"])
def test_a_summed_criterion_fails_at_the_first_bad_source_as_the_per_member_path(
        monkeypatch, bad, message):
    lattice = divisor_lattice(2)
    g = {x: Fraction(x[0], x[1]) for x in lattice.covering_set(6) if bad.get(x, 0) is not None}
    g.update((x, v) for x, v in bad.items() if v is not None)
    seen = _recorded_blocks(monkeypatch)
    errors = []
    for f in (summatory_function(lattice, g.__getitem__),
              per_member(summatory_function(lattice, g.__getitem__))):
        with pytest.raises(EvaluationError) as info:
            pd_criterion(f, lattice, 6)
        errors.append(str(info.value))
        # every block before the bad source came out, up to the member before it
        assert seen == [(i, j) for i in (1, 2) for j in range(1, 7)][:10]
        seen.clear()
    assert errors == [message, message]


@pytest.mark.parametrize("lattice", [DivisorLattice(), MinLattice()], ids=["divisor", "min"])
def test_zeta_then_sieve_is_the_identity_on_a_last_and_on_a_middle_axis(lattice):
    rng = random.Random(type(lattice).__name__)
    three = lattice.covering_set(3)
    last = incidence._axis(three, zeta=True), incidence._axis(three)
    for m in range(1, 41):
        s = lattice.covering_set(m)
        zeta, sieve = incidence._axis(s, zeta=True), incidence._axis(s)
        values = [rng.randint(-50, 50) for _ in range(m)]
        summed = _transform(values, [zeta], (), zeta=True)
        assert summed == [sum(v for z, v in enumerate(values, 1) if lattice.leq(z, x))
                          for x in range(1, m + 1)]
        assert _transform(summed, [sieve], ()) == values
        grid = [rng.randint(-50, 50) for _ in range(3 * m)]  # axis m in the middle, 3 last
        summed = _transform(grid, [zeta, last[0]], (3,), zeta=True)
        assert _transform(summed, [sieve, last[1]], (3,)) == grid


# The block path against a per-member reference on the recursive rows, at
# first factors of m members for m at and just past the ends of the doubling
# runs (after 1, 2, 4, 8, 16 and 32 slabs), with inner factors of 3 and 2.
BLOCK_MS = [1, 2, 3, 5, 17, 33]


def divisibility_semilattice(m):
    """{1..m} under divisibility as an explicit meet semilattice with string ids."""
    return MeetSemilattice([str(i) for i in range(1, m + 1)],
                           [(str(i), str(i * p)) for i in range(1, m + 1)
                            for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31) if i * p <= m])


def block_grid(kind, d, m):
    def factor(size):
        if kind == "explicit":
            return divisibility_semilattice(size).covering_set()
        return (divisor_lattice() if kind == "divisor" else min_lattice()).covering_set(size)
    return product_subset([factor(m), *map(factor, [3, 2][:d - 1])])


def first_primes(n):
    found = []
    k = 2
    while len(found) < n:
        if all(k % p for p in found):
            found.append(k)
        k += 1
    return found


def block_values(grid, values, seed):
    rng = random.Random(seed)
    nums = [rng.randint(-9, 9) for _ in grid.members]
    if values == "int":
        vs = nums
    elif values == "fraction":
        vs = [Fraction(v, rng.randint(1, 4)) for v in nums]
    else:  # a distinct prime denominator per member
        vs = [Fraction(v, p) for v, p in zip(nums, first_primes(len(nums)))]
    return dict(zip(grid.members, vs))


@pytest.mark.parametrize("values, slack", [("int", 1024), ("fraction", 1024),
                                           ("many", 1024), ("many", 0)])
@pytest.mark.parametrize("kind", ["divisor", "min", "explicit"])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("m", BLOCK_MS)
def test_block_path_equals_the_per_member_sums_over_the_recursive_rows(m, d, kind, values, slack):
    grid = block_grid(kind, d, m)
    table = block_values(grid, values, f"{m}-{d}-{kind}")
    ms = grid.members
    expected = [(x, sum((table[z] * w for z, w in zip(zs, ws)), Fraction(0)))
                for x, (zs, ws) in zip(ms, _recursive_rows(grid))]
    sums = [(x, sum((table[z] for z in ms[:i + 1] if grid.leq(z, x)), Fraction(0)))
            for i, x in enumerate(ms)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(incidence, "SLACK_BITS", slack)
        assert list(inverted_values(table_function(grid.lattice, table), grid)) == expected
        summed = [(x, Fraction(v, den)) for xs, vs, den in incidence.summed_blocks(
            table.__getitem__, grid) for x, v in zip(xs, vs)]
        assert summed == sums
        verdict = pd_criterion(table_function(grid.lattice, table), whole_set(grid), 1)
    negatives = [(x, v) for x, v in expected if v < 0]
    assert verdict.witness == (ElementWitness(*negatives[0]) if negatives else None)


def test_values_of_a_plain_callable_are_made_exact_as_a_lattice_function_reads_them():
    s = divisor_lattice().covering_set(4)
    assert list(inverted_values(lambda x: 0.5, s)) == [(1, Fraction(1, 2)), (2, 0), (3, 0), (4, 0)]
    assert meet_matrix(s, lambda x: x / 2) == meet_matrix(s, lambda x: Fraction(x, 2))
    summed = [(x, Fraction(v, den)) for xs, vs, den in incidence.summed_blocks(lambda x: "1/3", s)
              for x, v in zip(xs, vs)]
    assert summed == [(1, Fraction(1, 3)), (2, Fraction(2, 3)), (3, Fraction(2, 3)), (4, 1)]


def test_blocks_are_the_doubling_runs_of_first_axis_slabs():
    # 36 slabs of 36 members: runs of 1, 1, 2, 4, 8 and 16 slabs, then the last 4
    s = divisor_lattice(2).covering_set(36)
    f = builtin("gcd_pow", 1, d=2)
    sizes = [36, 36, 72, 144, 288, 576, 144]
    for blocks in (incidence.inverted_blocks(f, s), incidence.summed_blocks(f, s)):
        blocks = list(blocks)
        assert [len(xs) for xs, _, _ in blocks] == sizes
        assert [len(values) for _, values, _ in blocks] == sizes
        assert [x for xs, _, _ in blocks for x in xs] == list(s.members)


@pytest.mark.parametrize("lattice", [DivisorLattice(), MinLattice()], ids=["divisor", "min"])
def test_a_d1_criterion_on_a_covering_set_builds_no_mobius_rows(lattice):
    s = lattice.covering_set(777)
    incidence._MOBIUS_CACHE.pop(s, None)
    f = to_lattice_function(builtin("gcd_pow", 1), lattice)
    assert pd_criterion(f, lattice, 777).is_positive
    assert s not in incidence._MOBIUS_CACHE
