import random
from fractions import Fraction

import pytest

from meetpd.errors import (
    NoLeastElementError,
    NotMeetClosedError,
    PosetMismatchError,
)
from meetpd.incidence import (
    IncidenceFunction,
    ambient_mobius,
    convolve,
    delta,
    from_point_function,
    inverted_values,
    mobius,
    mobius_invert,
    mobius_of_subset,
    mobius_product,
    zeta,
)
from meetpd.intfun import mobius_int
from meetpd.meetmatrix import table_function
from meetpd.posets import (
    MeetSemilattice,
    Poset,
    divisor_lattice,
    lower_closure,
    meet_closure,
    min_lattice,
    product_lattice,
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


def mobius_subset_via_ambient(s):
    """Mobius function of a meet closed subset via ambient Mobius sums.

    Cross-check oracle: the value at (x_i, x_j) is the sum of ambient
    mu(x_i, z) over ambient z below x_j that are not below any earlier
    member x_k, k < j.
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
                vals[(xi, xj)] = sum(
                    (ambient_mobius(lattice, xi, z) for z in zs if lattice.leq(xi, z)),
                    Fraction(0),
                )
    return IncidenceFunction(s, vals)


def zeta_inverse_oracle(domain):
    """Mobius values by explicit Gaussian inversion of the zeta matrix."""
    s = domain if hasattr(domain, "members") else domain.covering_set(None)
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
        p = random_poset(rng, n)
        assert mobius(p).pairs() == zeta_inverse_oracle(p)
    for n in [4, 12, 30, 36]:
        s = divisor_closed(n)
        assert mobius(s).pairs() == zeta_inverse_oracle(s)


def test_delta_is_identity_of_convolution():
    rng = random.Random(9)
    chain = Poset(list("abcde"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")])
    s = chain.covering_set(None)
    vals = {}
    for i, x in enumerate(s.members):
        for y in s.members[i:]:
            if s.leq(x, y):
                vals[(x, y)] = Fraction(rng.randint(-5, 5))
    f = IncidenceFunction(s, vals)
    assert convolve(delta(chain), f) == f
    assert convolve(f, delta(chain)) == f


def test_zeta_convolution_counts_intermediate_elements():
    s = divisor_closed(4)  # chain 1 < 2 < 4
    zz = convolve(zeta(s), zeta(s))
    assert zz(1, 4) == 3


def test_mobius_inverts_zeta_on_divisors_of_30():
    s = divisor_closed(30)
    assert convolve(mobius(s), zeta(s)) == delta(s)
    assert convolve(zeta(s), mobius(s)) == delta(s)


def test_zeta_values_on_divisors_of_6():
    s = divisor_closed(6)
    z = zeta(s)
    assert z(1, 6) == 1
    assert z(2, 3) == 0
    assert z(1, 1) == 1


def test_delta_zero_strictly_above():
    s = divisor_closed(6)
    d = delta(s)
    assert d(1, 2) == 0
    assert d(2, 2) == 1


def test_mobius_chain_values():
    s = divisor_closed(4)
    mu = mobius(s)
    assert mu(1, 1) == 1
    assert mu(1, 2) == -1
    assert mu(1, 4) == 0


def test_mobius_two_prime_square_free():
    assert mobius(divisor_closed(6))(1, 6) == 1


def test_mobius_singleton():
    p = Poset(["a"], [])
    assert mobius(p)("a", "a") == 1


def test_convolve_rejects_domain_mismatch():
    a = zeta(divisor_closed(4))
    b = zeta(divisor_closed(6))
    with pytest.raises(PosetMismatchError):
        convolve(a, b)


def test_convolution_associative_and_delta_two_sided():
    rng = random.Random(31)
    for _ in range(10):
        p = random_poset(rng, rng.randint(2, 8))
        s = p.covering_set(None)

        def rand_fn():
            vals = {}
            for i, x in enumerate(s.members):
                for y in s.members[i:]:
                    if s.leq(x, y):
                        vals[(x, y)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            return IncidenceFunction(s, vals)

        f, g, h = rand_fn(), rand_fn(), rand_fn()
        assert convolve(convolve(f, g), h) == convolve(f, convolve(g, h))
        assert convolve(delta(p), f) == f
        assert convolve(f, delta(p)) == f


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


def test_mobius_product_agrees_with_product_poset_inversion():
    for elems_p, edges_p in SMALL_POSETS:
        for elems_q, edges_q in SMALL_POSETS:
            p = MeetSemilattice(elems_p, edges_p)
            q = MeetSemilattice(elems_q, edges_q)
            prod_mu = mobius_product(mobius(p), mobius(q))
            direct = mobius(product_subset([p.covering_set(None), q.covering_set(None)]))
            assert prod_mu == direct


def test_mobius_product_of_singletons():
    p = MeetSemilattice(["a"], [])
    q = MeetSemilattice(["b"], [])
    mu = mobius_product(mobius(p), mobius(q))
    assert mu(("a", "b"), ("a", "b")) == 1


def test_mobius_product_on_divisor_squares():
    dl = divisor_lattice()
    s = subset(dl, [1, 2])
    mu = mobius_product(mobius(s), mobius(s))
    assert mu((1, 1), (2, 2)) == 1
    assert mu((1, 1), (1, 2)) == -1


def test_mobius_product_domain_mismatch():
    dl = divisor_lattice()
    s = subset(dl, [1, 2])
    t = subset(dl, [1, 3])
    with pytest.raises(PosetMismatchError):
        mobius_product(mobius(s), mobius(s), domain=product_subset([s, t]))


def test_subset_mobius_equals_ambient_on_lower_closed_divisor_sets():
    for n in range(1, 61):
        s = divisor_closed(n)
        mu = mobius_of_subset(s)
        for x in s.members:
            for y in s.members:
                if y % x == 0:
                    assert mu(x, y) == mobius_int(y // x)


def test_subset_mobius_meet_closed_not_lower_closed():
    dl = divisor_lattice()
    s = subset(dl, [2, 4, 6])
    mu = mobius_of_subset(s)
    assert mu(2, 4) == -1
    assert mu(2, 6) == -1
    assert mu(2, 2) == 1


def test_subset_mobius_rejects_non_meet_closed():
    with pytest.raises(NotMeetClosedError):
        mobius_of_subset(subset(divisor_lattice(), [2, 3]))


def test_subset_mobius_singleton():
    s = subset(divisor_lattice(), [5])
    assert mobius_of_subset(s)(5, 5) == 1


def test_mobius_invert_constant_on_chain():
    chain = Poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    fr = from_point_function(chain, lambda _x: 1)
    g = mobius_invert(fr)
    assert [g("a", x) for x in ("a", "b", "c")] == [1, 0, 0]


def test_mobius_invert_identity_on_divisors_of_4():
    s = divisor_closed(4)
    fr = from_point_function(s, lambda x: x)
    g = mobius_invert(fr)
    assert [g(1, x) for x in (1, 2, 4)] == [1, 1, 2]


def test_mobius_invert_requires_least():
    dl = divisor_lattice()
    s = subset(dl, [2, 3])
    with pytest.raises(NoLeastElementError):
        from_point_function(s, lambda x: x)
    vals = {(2, 2): 1}
    fr = IncidenceFunction(s, vals)
    with pytest.raises(NoLeastElementError):
        mobius_invert(fr)


def test_mobius_invert_round_trip_on_random_posets():
    rng = random.Random(77)
    done = 0
    while done < 200:
        n = rng.randint(1, 10)
        # force a least element by wiring node 0 under everything
        elements = list(range(n + 1))
        edges = [(0, i) for i in range(1, n + 1)]
        edges += [
            (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
            if rng.random() < 0.3
        ]
        p = Poset(elements, edges)
        fr = from_point_function(p, lambda x: Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        g = mobius_invert(fr)
        assert convolve(g, zeta(p)) == fr
        done += 1


def test_ambient_mobius_closed_forms():
    dl = divisor_lattice()
    ml = min_lattice()
    assert ambient_mobius(dl, 2, 12) == mobius_int(6)
    assert ambient_mobius(ml, 3, 3) == 1
    assert ambient_mobius(ml, 3, 4) == -1
    assert ambient_mobius(ml, 3, 5) == 0
    prod = product_lattice([dl, ml])
    assert ambient_mobius(prod, (1, 1), (6, 2)) == mobius_int(6) * -1


def test_ambient_mobius_explicit_poset():
    diamond = MeetSemilattice(
        ["0", "x", "y", "1"],
        [("0", "x"), ("0", "y"), ("x", "1"), ("y", "1")],
    )
    assert ambient_mobius(diamond, "0", "1") == 1
    assert ambient_mobius(diamond, "0", "x") == -1


def test_remark_sum_oracle_matches_inversion_on_products():
    dl = divisor_lattice()
    cases = [
        product_subset([subset(dl, [2, 4, 6]), subset(dl, [1, 3])]),
        product_subset([subset(dl, [1, 2, 4]), subset(dl, [1, 2])]),
        divisor_lattice(2).covering_set(4),
    ]
    for grid in cases:
        assert mobius_subset_via_ambient(grid) == mobius_of_subset(grid)


def test_remark_sum_oracle_matches_on_min_grid():
    grid = min_lattice(2).covering_set(3)
    assert mobius_subset_via_ambient(grid) == mobius_of_subset(grid)


def test_inverted_values_inverts_only_factor_subsets(monkeypatch):
    import meetpd.incidence as incidence

    real = incidence.mobius
    inverted = []
    monkeypatch.setattr(incidence, "mobius", lambda s: inverted.append(s) or real(s))
    rng = random.Random(41)
    # a meet closed factor that is not lower closed, so its Mobius
    # function is not the ambient one
    left = meet_closure(subset(divisor_lattice(), [4, 6, 10]))
    grid = product_subset([left, min_lattice().covering_set(3)])
    f = table_function(grid.lattice, {x: Fraction(rng.randint(-5, 5)) for x in grid.members})
    got = list(inverted_values(f, grid))
    assert inverted and all(s.factor_subsets is None for s in inverted)
    mu = real(grid)
    assert got == [
        (x, sum((f(z) * mu(z, x) for z in grid.members if grid.leq(z, x)), Fraction(0)))
        for x in grid.members
    ]
