import math
import random
from fractions import Fraction

import pytest

from meetpd.errors import (
    DimensionMismatchError,
    EvaluationError,
    NotMeetClosedError,
)
from meetpd.incidence import mobius
from meetpd.meetmatrix import (
    LatticeFunction,
    OrderMap,
    constant_function,
    identity_function,
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
from meetpd.posets import (
    MeetSemilattice,
    divisor_lattice,
    lower_closure,
    meet_closure,
    min_lattice,
    product_subset,
    subset,
)


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
    m = meet_matrix(s, identity_function(dl))
    assert m.rows == ((Fraction(7),),)


def test_classical_gcd_matrix():
    dl = divisor_lattice()
    s = dl.covering_set(4)
    m = meet_matrix(s, identity_function(dl))
    assert [[int(v) for v in row] for row in m.rows] == [
        [1, 1, 1, 1],
        [1, 2, 1, 2],
        [1, 1, 3, 1],
        [1, 2, 1, 4],
    ]


def test_meet_matrix_allows_non_meet_closed_subsets():
    dl = divisor_lattice()
    s = subset(dl, [2, 3])
    m = meet_matrix(s, identity_function(dl))
    assert [[int(v) for v in row] for row in m.rows] == [[2, 1], [1, 3]]


def test_meet_matrix_propagates_evaluation_error():
    dl = divisor_lattice()
    f = table_function(dl, {1: 1, 2: 2})
    with pytest.raises(EvaluationError):
        meet_matrix(subset(dl, [1, 2, 3]), f)


def test_ldl_divisors_of_four_gives_totients():
    dl = divisor_lattice()
    s = lower_closure(subset(dl, [4]))
    dec = kron_decompose_d([s], identity_function(dl))
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
    one = kron_decompose_d([s], identity_function(dl))
    assert one.diag == (2, 2)
    assert reconstruct(one) == meet_matrix(s, identity_function(dl))


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
    f = identity_function(dl)
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
    assert dec.order_map.shape == (2, 2, 2)


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
        kron_decompose_d([s, s], identity_function(dl))


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


def test_order_map_round_trip():
    om = OrderMap((3, 4, 2))
    for flat in range(len(om)):
        assert om.flat(om.multi(flat)) == flat
    assert list(om) == [om.multi(i) for i in range(len(om))]


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
    f = meet_composed_function(identity_function(dl), 2)
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
    f = meet_composed_function(identity_function(dl), 2)
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

    dec = kron_decompose_d(grid.factor_subsets, lcm_function(2))
    ddoc = decomposition_to_json(dec, residual=Fraction(0))
    assert ddoc["schema"] == 2
    assert ddoc["order_map"]["shape"] == [2, 2]
    assert ddoc["reconstruction_residual"] == "0"
    assert len(ddoc["diag"]) == 4


def test_float_backed_functions_refused_by_decompositions():
    from meetpd.arith import builtin, to_lattice_function

    f = to_lattice_function(builtin("gcd_pow", alpha=Fraction(1, 2), d=1))
    dl = divisor_lattice()
    s = dl.covering_set(3)
    with pytest.raises(ValueError):
        kron_decompose_d([s], f)
