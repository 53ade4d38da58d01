import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from meetpd.arith import builtin, to_lattice_function
from meetpd.errors import (
    DimensionMismatchError,
    EvaluationError,
    NotMeetClosedError,
)
from meetpd.incidence import mobius
from meetpd.meetmatrix import (
    LatticeFunction,
    constant_function,
    kron_decompose_d,
    matrix_to_csv,
    matrix_to_json,
    decomposition_to_json,
    meet_composed_function,
    meet_matrix,
    reconstruct,
    summatory_function,
    table_function,
)
from meetpd.pdcheck import psd_oracle
from meetpd.posets import (
    MeetSemilattice,
    divisor_lattice,
    lower_closure,
    meet_closure,
    min_lattice,
    product_subset,
    subset,
)


def identity(lattice):
    """f(n) = n on the divisor or MIN lattice: the builtin gcd_pow:1, moved there."""
    return to_lattice_function(builtin("gcd_pow", 1), lattice)


def lcm_function(d):
    lat = divisor_lattice(d)
    if d == 1:
        return LatticeFunction(lat, lambda x: Fraction(x), name="lcm1")
    return LatticeFunction(lat, lambda x: Fraction(math.lcm(*x)), name=f"lcm{d}")


def _indicator_of(s):
    return tuple(tuple(int(s.leq(z, x)) for z in s.members) for x in s.members)


def brute_meet_matrix(members, meet, f):
    return [[f(meet(x, y)) for y in members] for x in members]


def test_lcm_grid_matrix_matches_brute_force():
    grid = divisor_lattice(2).covering_set(2)
    m = meet_matrix(grid, lcm_function(2))
    expected = brute_meet_matrix(
        grid.members,
        lambda x, y: (math.gcd(x[0], y[0]), math.gcd(x[1], y[1])),
        lambda t: Fraction(math.lcm(*t)),
    )
    assert [list(r) for r in m.rows] == expected
    assert expected == [
        [1, 1, 1, 1],
        [1, 2, 1, 2],
        [1, 1, 2, 2],
        [1, 2, 2, 2],
    ]


def test_singleton_matrix():
    dl = divisor_lattice()
    s = subset(dl, [7])
    m = meet_matrix(s, identity(dl))
    assert m.rows == ((Fraction(7),),)


def test_classical_gcd_matrix():
    dl = divisor_lattice()
    s = dl.covering_set(4)
    m = meet_matrix(s, identity(dl))
    assert [[int(v) for v in row] for row in m.rows] == [
        [1, 1, 1, 1],
        [1, 2, 1, 2],
        [1, 1, 3, 1],
        [1, 2, 1, 4],
    ]


def test_meet_matrix_allows_non_meet_closed_subsets():
    dl = divisor_lattice()
    s = subset(dl, [2, 3])
    m = meet_matrix(s, identity(dl))
    assert [[int(v) for v in row] for row in m.rows] == [[2, 1], [1, 3]]


def test_meet_matrix_propagates_evaluation_error():
    dl = divisor_lattice()
    f = table_function(dl, {1: 1, 2: 2})
    with pytest.raises(EvaluationError):
        meet_matrix(subset(dl, [1, 2, 3]), f)


def test_ldl_divisors_of_four_gives_totients():
    dl = divisor_lattice()
    s = lower_closure(subset(dl, [4]))
    dec = kron_decompose_d([s], identity(dl))
    assert dec.diag == (1, 1, 2)
    assert dec.factors[0] == ((1, 0, 0), (1, 1, 0), (1, 1, 1))


def test_ldl_singleton_bottom():
    dl = divisor_lattice()
    s = subset(dl, [1])
    f = LatticeFunction(dl, lambda x: Fraction(9))
    dec = kron_decompose_d([s], f)
    assert dec.diag == (9,)
    assert dec.factors[0] == ((1,),)


def test_ldl_constant_function():
    dl = divisor_lattice()
    s = lower_closure(subset(dl, [12]))
    dec = kron_decompose_d([s], constant_function(dl, 5))
    assert dec.diag[0] == 5
    assert all(v == 0 for v in dec.diag[1:])


def test_ldl_reconstruction_random():
    rng = random.Random(101)
    dl = divisor_lattice()
    for _ in range(100):
        seed = rng.sample(range(1, 40), rng.randint(1, 4))
        s = lower_closure(subset(dl, seed))
        values = {x: Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for x in s.members}
        f = table_function(dl, values)
        dec = kron_decompose_d([s], f)
        assert reconstruct(dec) == meet_matrix(s, f)


def test_kron_reconstructs_lcm_grid():
    # {2, 4} is meet closed but not lower closed: its own Mobius function
    # gives the diagonal (Haukkanen, 1996)
    dl = divisor_lattice()
    for members in ([1, 2], [2, 4]):
        s = subset(dl, members)
        dec = kron_decompose_d([s, s], lcm_function(2))
        grid = product_subset([s, s])
        assert reconstruct(dec) == meet_matrix(grid, lcm_function(2))
    s = subset(dl, [2, 4])
    one = kron_decompose_d([s], identity(dl))
    assert one.diag == (2, 2)
    assert reconstruct(one) == meet_matrix(s, identity(dl))


def test_kron_singletons():
    dl = divisor_lattice()
    s = subset(dl, [3])
    t = subset(dl, [5])
    f = LatticeFunction(divisor_lattice(2), lambda x: Fraction(x[0] * x[1]))
    dec = kron_decompose_d([s, t], f)
    assert dec.diag == (15,)


def test_kron_separable_diagonal_is_outer_product():
    # f(x, y) = g(x) g(y) makes the diagonal the outer product of the
    # one-dimensional inverted vectors
    rng = random.Random(19)
    dl = divisor_lattice()
    s = meet_closure(subset(dl, [2, 4, 6, 12]))
    gvals = {x: Fraction(rng.randint(-5, 5)) for x in s.members}
    g = table_function(dl, gvals)
    f = LatticeFunction(divisor_lattice(2), lambda xy: g(xy[0]) * g(xy[1]))
    dec = kron_decompose_d([s, s], f)
    lam = [sum((g(z) * w for z, w in zip(zs, ws)), Fraction(0)) for zs, ws in mobius(s)]
    expected = [a * b for a in lam for b in lam]
    assert list(dec.diag) == expected


def test_kron_rejects_non_meet_closed():
    dl = divisor_lattice()
    with pytest.raises(NotMeetClosedError):
        kron_decompose_d([subset(dl, [2, 3]), subset(dl, [1, 2])], lcm_function(2))


def test_kron_diag_equals_bottom_row_inversion_when_lower_closed():
    # over lower closed factors the diagonal equals the Mobius-inverted
    # bottom row of the whole product domain, computed independently by
    # generic inversion in the incidence layer
    rng = random.Random(23)
    dl = divisor_lattice()
    hasse = MeetSemilattice(
        ["0", "a", "b", "c", "ab", "1"],
        [("0", "a"), ("0", "b"), ("0", "c"), ("a", "ab"), ("b", "ab"),
         ("ab", "1"), ("c", "1")],
    )
    cases = [
        [lower_closure(subset(dl, [4, 6])), lower_closure(subset(dl, [9]))],
        [hasse.covering_set()],
        [dl.covering_set(3), lower_closure(subset(dl, [4])), min_lattice().covering_set(2)],
    ]
    for subs in cases:
        grid = product_subset(subs)
        values = {x: Fraction(rng.randint(-6, 6)) for x in grid.members}
        f = table_function(grid.lattice, values)
        dec = kron_decompose_d(subs, f)
        assert list(dec.diag) == [sum((f(z) * w for z, w in zip(*row)), Fraction(0))
                                  for row in mobius(grid)]
        assert reconstruct(dec) == meet_matrix(grid, f)


def test_kron_d_reduces_to_ldl_on_lower_closed():
    dl = divisor_lattice()
    s = lower_closure(subset(dl, [12]))
    f = identity(dl)
    one = kron_decompose_d([s], f)
    # E diag(phi) E^T: the order indicator and the totients of 1, 2, 3, 4, 6, 12
    assert s.members == (1, 2, 3, 4, 6, 12)
    assert one.diag == (1, 1, 2, 2, 2, 4)
    assert one.factors == (_indicator_of(s),)


def test_kron_d_three_factor_reconstruction():
    dl = divisor_lattice()
    s = subset(dl, [1, 2])
    f = LatticeFunction(
        divisor_lattice(3),
        lambda x: Fraction(math.lcm(*x) * x[0]),
        name="mixed3",
    )
    dec = kron_decompose_d([s, s, s], f)
    grid = product_subset([s, s, s])
    assert reconstruct(dec) == meet_matrix(grid, f)
    assert dec.subset.shape == (2, 2, 2)


def test_kron_d_matches_kron_on_random_meet_closed_pairs():
    # reference: the double Mobius sum over the subset lower sets of
    # (x, y), with each factor inverted on its own
    rng = random.Random(37)
    dl = divisor_lattice()
    for _ in range(15):
        s = meet_closure(subset(dl, rng.sample(range(1, 30), rng.randint(1, 4))))
        t = meet_closure(subset(dl, rng.sample(range(1, 30), rng.randint(1, 4))))
        if len(s) > 6 or len(t) > 6:
            continue
        grid = product_subset([s, t])
        values = {x: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for x in grid.members}
        f = table_function(grid.lattice, values)
        expected = [
            sum((f((xk, yl)) * u * v for xk, u in zip(*row_s) for yl, v in zip(*row_t)),
                Fraction(0))
            for row_s in mobius(s) for row_t in mobius(t)
        ]
        gen = kron_decompose_d([s, t], f)
        assert list(gen.diag) == expected
        assert gen.factors == (_indicator_of(s), _indicator_of(t))
        assert reconstruct(gen) == meet_matrix(grid, f)


def test_kron_d_arity_mismatch():
    dl = divisor_lattice()
    s = subset(dl, [1, 2])
    with pytest.raises(DimensionMismatchError):
        kron_decompose_d([s, s], identity(dl))


def test_flat_index_convention_matches_floor_mod_formula():
    # flat position i (1-based) maps to (x at 1+floor((i-1)/m), y at 1+mod(i-1, m))
    dl = divisor_lattice()
    s = subset(dl, [1, 2, 4])
    t = subset(dl, [1, 3])
    grid = product_subset([s, t])
    n, m = len(s), len(t)
    for i in range(1, n * m + 1):
        expected = (s.members[(i - 1) // m], t.members[(i - 1) % m])
        assert grid.members[i - 1] == expected


def test_zeta_factors_unit_lower_triangular():
    dl = divisor_lattice()
    s = meet_closure(subset(dl, [4, 6, 10]))
    dec = kron_decompose_d([s, s], constant_function(divisor_lattice(2), 1))
    for fac in dec.factors:
        n = len(fac)
        for i in range(n):
            assert fac[i][i] == 1
            for j in range(i + 1, n):
                assert fac[i][j] == 0


def test_reconstruct_singleton():
    dl = divisor_lattice()
    s = subset(dl, [1])
    dec = kron_decompose_d([s], constant_function(dl, 3))
    assert reconstruct(dec).rows == ((Fraction(3),),)


def test_rank_collapse_identity_on_three_grid():
    # the row of (a, b) is the row of (gcd, gcd), and the block on the
    # diagonal elements is the gcd matrix of {1, 2, 3}
    dl = divisor_lattice()
    s = dl.covering_set(3)
    f = meet_composed_function(identity(dl), 2)
    grid = product_subset([s, s])
    big = meet_matrix(grid, f)
    diag = [grid.index((x, x)) for x in s]
    assert diag == [0, 4, 8]
    assert [[int(big.rows[i][j]) for j in diag] for i in diag] == [
        [1, 1, 1],
        [1, 2, 1],
        [1, 1, 3],
    ]
    for i, (a, b) in enumerate(grid.members):
        assert big.rows[i] == big.rows[grid.index((math.gcd(a, b),) * 2)]


def test_rank_collapse_constant():
    dl = divisor_lattice()
    s = dl.covering_set(4)
    f = meet_composed_function(constant_function(dl, 2), 2)
    big = meet_matrix(product_subset([s, s]), f)
    assert all(v == 2 for row in big.rows for v in row)


def test_rank_collapse_requires_composed_form():
    # lcm is not g of the coordinatewise gcd: the row of (1, 2) is not the
    # row of (1, 1)
    dl = divisor_lattice()
    s = dl.covering_set(2)
    grid = product_subset([s, s])
    big = meet_matrix(grid, lcm_function(2))
    assert big.rows[grid.index((1, 2))] != big.rows[grid.index((1, 1))]


def test_rank_collapse_requires_meet_closed_base():
    # gcd(2, 3) = 1 escapes {2, 3}, and the row of (2, 3) is the row of
    # no diagonal element
    dl = divisor_lattice()
    s = subset(dl, [2, 3])
    f = meet_composed_function(identity(dl), 2)
    grid = product_subset([s, s])
    big = meet_matrix(grid, f)
    assert (1, 1) not in grid
    assert all(big.rows[grid.index((2, 3))] != big.rows[grid.index((x, x))] for x in s)


def test_csv_export_round_trip():
    dl = divisor_lattice()
    s = dl.covering_set(3)
    f = LatticeFunction(dl, lambda x: Fraction(1, x))
    m = meet_matrix(s, f)
    text = matrix_to_csv(m)
    rows = [
        [Fraction(cell) for cell in line.split(",")]
        for line in text.strip().splitlines()
    ]
    assert rows == [list(r) for r in m.rows]


def test_json_export_shapes():
    grid = divisor_lattice(2).covering_set(2)
    m = meet_matrix(grid, lcm_function(2))
    doc = matrix_to_json(m)
    assert doc["schema"] == 1
    assert doc["labels"][1] == [1, 2]
    assert doc["entries"][1][1] == "2"
    assert doc["order_map"]["shape"] == [2, 2]

    dec = kron_decompose_d(grid.factors, lcm_function(2))
    ddoc = decomposition_to_json(dec, residual=Fraction(0))
    assert ddoc["schema"] == 2
    assert ddoc["order_map"]["shape"] == [2, 2]
    assert ddoc["reconstruction_residual"] == "0"
    assert len(ddoc["diag"]) == 4


def scatter_reconstruction(dec):
    """Reference E diag(d) E^T: each d_k added, as a Fraction, onto every pair
    whose multi-indices dominate k in every emitted factor."""
    multis = list(itertools.product(*map(range, dec.subset.shape)))
    rows = [[Fraction(0)] * len(multis) for _ in multis]
    for k, lam in zip(multis, dec.diag):
        above = [i for i, mi in enumerate(multis)
                 if all(fac[a][b] for fac, a, b in zip(dec.factors, mi, k))]
        for i in above:
            for j in above:
                rows[i][j] += lam
    return tuple(map(tuple, rows))


@st.composite
def meet_closed_factors(draw):
    """A meet closed subset of the divisor or MIN lattice: a covering set, the
    meet closure of a few divisor members, or a few points of the MIN chain;
    the last two are seldom lower closed."""
    kind = draw(st.sampled_from(["divisor_cover", "min_cover", "divisor_closure", "min_points"]))
    if kind == "divisor_cover":
        return divisor_lattice().covering_set(draw(st.integers(1, 8)))
    if kind == "min_cover":
        return min_lattice().covering_set(draw(st.integers(1, 6)))
    members = draw(st.lists(st.integers(1, 40), min_size=1, max_size=4, unique=True))
    if kind == "divisor_closure":
        return meet_closure(subset(divisor_lattice(), members))
    return subset(min_lattice(), members)  # every subset of a chain is meet closed


@settings(max_examples=80, deadline=None)
@given(st.lists(meet_closed_factors(), min_size=1, max_size=3), st.data())
def test_reconstruct_equals_the_scatter_on_meet_closed_products(factors, data):
    grid = product_subset(factors)
    assume(len(grid) <= 40)
    fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
    f = table_function(grid.lattice, {x: data.draw(fractions) for x in grid})
    dec = kron_decompose_d(factors, f)
    got = reconstruct(dec)
    assert got.rows == scatter_reconstruction(dec)
    assert got == meet_matrix(grid, f)


def _coords(x):
    return x if isinstance(x, tuple) else (x,)


def _coord_sum(lattice):
    return LatticeFunction(lattice, lambda x: Fraction(sum(_coords(x))))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(meet_closed_factors(),
                          st.lists(st.integers(1, 40), min_size=1, max_size=4, unique=True).map(
                              lambda xs: subset(divisor_lattice(), xs))),
                min_size=1, max_size=2),
       st.lists(st.integers(-5, 5), min_size=6, max_size=6), st.integers(1, 6))
def test_max_abs_difference_at_the_meet_points_is_the_largest_entry_difference(
        factors, coefs, den):
    grid = product_subset(factors)
    assume(len(grid) <= 40)

    def quadratic(a, b, c):
        return lambda x: Fraction(a * sum(_coords(x)) ** 2 + b * math.prod(_coords(x)) + c, den)

    f, g = (LatticeFunction(grid.lattice, quadratic(*coefs[k:k + 3])) for k in (0, 3))
    a, b = meet_matrix(grid, f), meet_matrix(grid, g)
    largest = max(abs(x - y) for ra, rb in zip(a.rows, b.rows) for x, y in zip(ra, rb))
    assert a.max_abs_difference(b) == largest == b.max_abs_difference(a)
    assert (a == b) == (largest == 0)


def test_max_abs_difference_refuses_matrices_of_other_members_or_lattice():
    dl, ml = divisor_lattice(), min_lattice()
    a = meet_matrix(dl.covering_set(4), _coord_sum(dl))
    others = [
        dl.covering_set(3),            # a prefix, whose entries all equal a's
        subset(dl, [1, 3, 2, 4]),      # the same members in another order
        ml.covering_set(4),            # the same members under another lattice
        product_subset([dl.covering_set(2), dl.covering_set(2)]),
    ]
    for s in others:
        b = meet_matrix(s, _coord_sum(s.lattice))
        with pytest.raises(ValueError, match="not over one subset"):
            a.max_abs_difference(b)
        assert a != b
    # equality still compares entries: a chain has the same meets under both lattices
    chain = [1, 2, 4]
    assert (meet_matrix(subset(dl, chain), identity(dl))
            == meet_matrix(subset(ml, chain), identity(ml)))


def test_reconstruct_equals_the_scatter_on_a_closure_that_is_not_lower_closed():
    s = meet_closure(subset(divisor_lattice(), [4, 6, 10]))  # 2, 4, 6, 10
    t = subset(min_lattice(), [2, 5, 9])
    assert not s.lower_closed and not t.lower_closed
    grid = product_subset([s, t])
    f = LatticeFunction(grid.lattice, lambda x: Fraction(x[0] * x[0] - 3 * x[1], x[1]))
    dec = kron_decompose_d([s, t], f)
    assert reconstruct(dec).rows == scatter_reconstruction(dec) == meet_matrix(grid, f).rows


def test_summatory_meet_matrix_off_a_lower_closed_set_sums_over_the_lattice():
    # meet closed, not lower closed: f is read per slab, each value the sum of
    # g over the lattice's lower set, not zeta over the subset's own order
    s = meet_closure(subset(divisor_lattice(), [4, 6, 10]))  # 2, 4, 6, 10
    assert meet_matrix(s, summatory_function(s.lattice, lambda z: z)).values == [3, 7, 12, 18]


def test_table_function_keeps_int_and_fraction_values_as_given():
    dl = divisor_lattice()
    table = {1: 3, 2: Fraction(1, 2), 3: Fraction(4), 4: -7}
    got = table_function(dl, table).read([1, 2, 3, 4], [])
    assert all(v is w for v, w in zip(got, table.values()))
    assert list(map(type, got)) == [int, Fraction, Fraction, int]
    assert table_function(dl, {1: "5/2", 2: 0.5}).read([1, 2], []) == [Fraction(5, 2),
                                                                        Fraction(1, 2)]
    with pytest.raises(ValueError):
        table_function(dl, {1: 1, 2: "two"})


def test_float_backed_functions_refused_by_decompositions():
    f = builtin("gcd_pow", alpha=Fraction(1, 2), d=1)
    dl = divisor_lattice()
    s = dl.covering_set(3)
    with pytest.raises(ValueError):
        kron_decompose_d([s], f)


# --------------------------------------------------------------------------
# meet tables against the pair loop

def pair_loop_rows(s, f):
    """Reference: one meet and one call of f per pair of the upper triangle,
    row by row."""
    ms = s.members
    n = len(ms)
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = f(s.meet(ms[i], ms[j]))
    return tuple(map(tuple, rows))


def point_order(s):
    """Reference point order: over each factor its members, then the meets
    outside it as a row-major pass over the upper triangle first reaches
    them; over a product the lexicographic order of those."""
    orders = [list(dict.fromkeys([*t.members, *(t.meet(x, y) for i, x in enumerate(t.members)
                                                for y in t.members[i:])]))
              for t in s.factors]
    return orders[0] if len(orders) == 1 else list(itertools.product(*orders))


def recording(lattice, fn):
    """A LatticeFunction that lists the points it evaluates, in order."""
    seen = []

    def value(x):
        seen.append(x)
        return fn(x)

    return LatticeFunction(lattice, value), seen


def signed_value(x):
    coords = x if isinstance(x, tuple) else (x,)
    key = sum(k * hash(c) for k, c in enumerate(coords, 1))
    return Fraction(key * 7 % 11 - 5, 1 + key % 3)


def assert_table_path_matches_pair_loop(s, fn=signed_value):
    f, seen = recording(s.lattice, fn)
    g, seen_by_pairs = recording(s.lattice, fn)
    m = meet_matrix(s, f)
    assert m.rows == pair_loop_rows(s, g)
    # the pair loop calls f once per pair; meet_matrix once per point, in point order
    assert seen == point_order(s)
    assert set(seen) == set(seen_by_pairs)
    # the oracle on the int rows of the meet table gives what it gives on the Fractions
    by_table = psd_oracle(m)
    by_rows = psd_oracle([list(r) for r in m.rows])
    assert (by_table.is_psd, by_table.method, by_table.inertia) == (
        by_rows.is_psd, by_rows.method, by_rows.inertia)
    assert (by_table.witness is None) == (by_rows.witness is None)
    if by_table.witness is not None:
        assert by_table.witness.vector == by_rows.witness.vector
        assert by_table.witness.value == by_rows.witness.value
        assert by_table.witness.labels == s.members
    return m


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["divisor", "min"]), st.integers(1, 3), st.data())
def test_meet_table_matches_the_pair_loop(family, d, data):
    base = divisor_lattice() if family == "divisor" else min_lattice()
    factors = [subset(base, sorted(data.draw(st.sets(st.integers(1, 24), min_size=1,
                                                      max_size=4))))
               for _ in range(d)]
    assert_table_path_matches_pair_loop(product_subset(factors))


def _boolean_four():
    return MeetSemilattice(
        ["0", "a", "b", "c", "ab", "1"],
        [("0", "a"), ("0", "b"), ("0", "c"), ("a", "ab"), ("b", "ab"),
         ("ab", "1"), ("c", "1")],
    )


TABLE_CASES = {
    # meet closed, not lower closed: 1 is missing
    "meet_closed_divisor": (lambda: [subset(divisor_lattice(), [2, 4, 6, 12])], True),
    "meet_closed_min_x_divisor": (
        lambda: [subset(min_lattice(), [3, 5, 9]), subset(divisor_lattice(), [2, 4, 6, 12])],
        True),
    # the meets 2, 1, 3 and 5 lie outside the subset
    "not_meet_closed_d1": (lambda: [subset(divisor_lattice(), [4, 6, 9, 10, 15])], False),
    "not_meet_closed_in_product": (
        lambda: [subset(divisor_lattice(), [2, 3]), subset(divisor_lattice(), [4, 6, 9])],
        False),
    "explicit_semilattice": (lambda: [_boolean_four().covering_set()], True),
    "explicit_not_meet_closed_x_divisor": (
        lambda: [subset(_boolean_four(), ["a", "b", "c"]), subset(divisor_lattice(), [6, 10])],
        False),
}


@pytest.mark.parametrize("case", sorted(TABLE_CASES))
def test_meet_table_cases_match_the_pair_loop(case):
    make, meet_closed = TABLE_CASES[case]
    factors = make()
    s = product_subset(factors)
    m = assert_table_path_matches_pair_loop(s)
    assert all(t.meet_closed for t in factors) == meet_closed
    # one value per meet: the points of the product of the factor tables
    assert len(m.nums) == math.prod(len(t.meet_table.points) for t in factors)


def test_meet_table_stops_at_the_first_missing_value_the_pair_loop_reaches():
    # 1 = gcd(2, 3) and 2 = gcd(4, 6) lie outside the factors; the table
    # lacks (1, 2) and (2, 1).  A row-major scan reaches (2, 1) first, as
    # (2, 4) meet (2, 9) in row 0, and (1, 2) only in row 1; in point order
    # (2, 1) is the fifth point, after (2, 4), (2, 6), (2, 9) and (2, 2)
    s = product_subset([subset(divisor_lattice(), [2, 3]),
                        subset(divisor_lattice(), [4, 6, 9])])
    lattice = s.lattice
    points = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3, 4, 6, 9)]
    values = {x: Fraction(sum(x)) for x in points if x not in ((1, 2), (2, 1))}
    errors = []
    for build in (meet_matrix, pair_loop_rows):
        f, seen = recording(lattice, table_function(lattice, values))
        with pytest.raises(EvaluationError) as info:
            build(s, f)
        errors.append((str(info.value), seen))
    assert errors[0][0] == errors[1][0] == "table has no value at (2, 1)"
    # one read per point, in point order, up to the missing one
    assert errors[0][1] == point_order(s)[:5] == [(2, 4), (2, 6), (2, 9), (2, 2), (2, 1)]


# read(xs, []) is evaluate over xs, by the slab form where a builtin has one:
# ints stay ints, and a negative exponent gives Fractions throughout
READ_BUILTINS = [("gcd_pow", k) for k in range(-2, 3)] + [
    ("divisor_count", None), ("mu_d", None), ("zeta_d", None)]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("name, alpha", READ_BUILTINS,
                         ids=[f"{n}:{a}" if a is not None else n for n, a in READ_BUILTINS])
def test_read_equals_evaluate_with_ints_kept_as_ints(name, alpha, d):
    f = builtin(name, alpha=alpha, d=d)
    xs = list(f.lattice.covering_set({1: 60, 2: 12, 3: 5}[d]))
    want = [f.evaluate(x) for x in xs]
    for _ in range(2):  # cold, then through the warm caches
        got = f.read(xs, [])
        assert got == want
        assert set(map(type, got)) == {Fraction if alpha is not None and alpha < 0 else int}


def _failing_at_six(n):
    if n == 6:
        raise ZeroDivisionError("no value at six")
    return n * n


@pytest.mark.parametrize("d", [1, 2, 3])
def test_a_composed_read_keeps_the_values_before_a_failing_meet(d):
    g = LatticeFunction(divisor_lattice(), _failing_at_six, name="sq")
    f = meet_composed_function(g, d)
    xs = list(f.lattice.covering_set(7))
    bad = next(i for i, x in enumerate(xs) if math.gcd(*((x,) if d == 1 else x)) == 6)
    assert 0 < bad < len(xs) - 1  # inside the slab
    out = [0]
    with pytest.raises(EvaluationError) as info:
        f.read(xs, out)
    assert out == [0] + [f.evaluate(x) for x in xs[:bad]]
    assert str(info.value) == "sq failed at 6: no value at six"


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("bad, message", [
    ({5: -1}, "summatory source is negative at {}: -1"),
    ({5: Fraction(-1, 2), 6: None}, "summatory source is negative at {}: -1/2"),
    ({5: -0.5}, "summatory source is negative at {}: -1/2"),
    ({5: None, 6: -1}, "summatory failed at {}: {}"),
    ({5: "x"}, "summatory failed at {}: Invalid literal for Fraction: 'x'"),
], ids=["negative", "negative_then_failing", "negative_float", "failing", "not_a_number"])
def test_a_summand_read_keeps_the_values_before_a_bad_source(d, bad, message):
    lattice = divisor_lattice(d)
    xs = list(lattice.covering_set(7))
    at = {x: bad[x if d == 1 else x[0] * x[1]] for x in xs
          if (x if d == 1 else x[0] * x[1]) in bad}
    first = min(map(xs.index, at))

    def g(x):
        if x in at and at[x] is None:
            raise KeyError(x)
        return at.get(x, Fraction(len(str(x)), 3) if d == 1 else 1)

    values = [g(x) for x in xs[:first]]
    assert set(map(type, values)) and first > 0
    out = [0]
    with pytest.raises(EvaluationError) as info:
        summatory_function(lattice, g).summand.read(xs, out)
    assert out == [0] + values
    assert str(info.value) == message.format(xs[first], repr(xs[first]))
