import random
from fractions import Fraction
from math import prod

import pytest

from meetpd.incidence import _recursive_rows, inverted_values, mobius
from meetpd.intfun import mobius_int
from meetpd.meetmatrix import LatticeFunction, table_function
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
    # the recursion itself: mobius would read this lower closed set's
    # closed-form rows and query no order at all
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


ROUTED_SUBSETS = {
    **{f"{base.kind}_d{d}": (lambda base=base, d=d, m=m: _fresh_power(base, d).covering_set(m),
                             True)
       for base, bounds in [(DivisorLattice, (60, 8, 4)), (MinLattice, (30, 6, 3))]
       for d, m in zip((1, 2, 3), bounds)},
    "divisor_lower_closure": (lambda: lower_closure(subset(divisor_lattice(), [360, 84])), True),
    # incomparable members listed out of numeric order
    "divisor_unsorted": (lambda: subset(divisor_lattice(), [1, 5, 3, 2, 15, 6, 10, 30]), True),
    "mixed_product": (lambda: product_subset([
        meet_closure(subset(divisor_lattice(), [4, 6, 10])),
        min_lattice().covering_set(3),
        load_hasse(["elem 0", "elem x", "elem y", "elem 1", "edge 0 x", "edge 0 y",
                    "edge x 1", "edge y 1"]).covering_set()]), False),
    "divisor_not_lower_closed": (lambda: subset(divisor_lattice(), [1, 4]), False),
}


@pytest.mark.parametrize("name", sorted(ROUTED_SUBSETS))
def test_mobius_equals_the_recursion_by_every_route(name, monkeypatch):
    import meetpd.incidence as incidence

    build, closed_only = ROUTED_SUBSETS[name]
    s = build()
    expected = _recursive_rows(s)
    recursed = []
    monkeypatch.setattr(incidence, "_recursive_rows",
                        lambda t: recursed.append(t) or _recursive_rows(t))
    assert mobius(s) == expected
    # covering sets and their products never run the recursion; a subset
    # that is not lower closed, a meet closure and a Hasse lattice do
    assert (recursed == []) == closed_only


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
    assert len(inverted) == 3 and all(s.factors == (s,) for s in inverted)
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
    # a consumer that stops early leaves f unevaluated past where it stopped
    assert seen == list(s.members[:half])
    list(values)
    assert seen == list(s.members)
