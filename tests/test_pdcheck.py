import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meetpd.arith import builtin, pd_check_grid, to_lattice_function
from meetpd.errors import (
    NegativeScalarError,
    NoLeastElementError,
    NumericalFailureError,
    PosetMismatchError,
)
from meetpd.exact import quadratic_form, symmetric_elimination
from meetpd.meetmatrix import (
    constant_function,
    LatticeFunction,
    kron_decompose_d,
    meet_matrix,
    summatory_function,
    table_function,
)
from meetpd.pdcheck import (
    EXACT_ORACLE_LIMIT,
    NEGATIVE,
    POSITIVE,
    add,
    inverted_table,
    pd_criterion,
    pointwise_mul,
    psd_oracle,
    scale,
)
from meetpd.posets import (
    Poset,
    divisor_lattice,
    lower_closure,
    min_lattice,
    product_subset,
    subset,
)


def identity(lattice):
    """f(n) = n on the divisor or MIN lattice: the builtin gcd_pow:1, moved there."""
    return to_lattice_function(builtin("gcd_pow", 1), lattice)


def lcm_grid_matrix():
    grid = divisor_lattice(2).covering_set(2)
    f = LatticeFunction(divisor_lattice(2), lambda x: Fraction(math.lcm(*x)), name="lcm")
    return meet_matrix(grid, f)


def random_table_function(rng, family, bound, lo=-6, hi=6):
    s = family.covering_set(bound)
    values = {x: Fraction(rng.randint(lo, hi), rng.randint(1, 3)) for x in s.members}
    return table_function(family, values)


def test_oracle_gcd_matrix_exact_psd():
    dl = divisor_lattice()
    m = meet_matrix(dl.covering_set(4), identity(dl))
    report = psd_oracle(m)
    assert report.is_psd
    assert report.method == "exact"
    assert report.inertia.as_tuple() == (4, 0, 0)
    assert report.min_eigenvalue > 0


def test_oracle_lcm_grid_not_psd_with_witness():
    report = psd_oracle(lcm_grid_matrix())
    assert not report.is_psd
    assert report.method == "exact"
    assert report.inertia.negative == 1
    w = report.witness
    assert quadratic_form(lcm_grid_matrix().rows, w.vector) == w.value < 0
    assert report.min_eigenvalue < 0


def test_oracle_zero_matrix():
    report = psd_oracle([[0, 0], [0, 0]])
    assert report.is_psd


def test_oracle_float_path_large_psd():
    n = EXACT_ORACLE_LIMIT + 6
    rows = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    report = psd_oracle(rows)
    assert report.method == "float"
    assert report.is_psd


def test_oracle_float_path_large_indefinite_witness_replays():
    n = EXACT_ORACLE_LIMIT + 6
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = Fraction(1)
    rows[3][3] = Fraction(-2)
    report = psd_oracle(rows)
    assert report.method == "float"
    assert not report.is_psd
    assert quadratic_form(rows, report.witness.vector) == report.witness.value < 0


def test_float_path_witness_is_small_enough_to_serialize():
    # the gcd matrix of {1..400} with entry (2, 2) lowered by 9; rounding
    # each eigenvector entry on its own gave a value of about 5,455 digits,
    # past the 4,300 that str() of an int allows
    n = 400
    rows = [[math.gcd(i, j) - 9 * (i == j == 2) for j in range(1, n + 1)]
            for i in range(1, n + 1)]
    report = psd_oracle(rows)
    assert report.method == "float" and not report.is_psd
    doc = report.witness.to_json()
    assert Fraction(doc["value"]) == report.witness.value
    assert quadratic_form(rows, report.witness.vector) == report.witness.value < 0
    # one power-of-two denominator for the whole vector
    dens = {c.denominator for c in report.witness.vector}
    assert all(d & (d - 1) == 0 for d in dens)


def test_float_path_refuses_a_direction_that_never_replays_negative(monkeypatch):
    n = EXACT_ORACLE_LIMIT + 6
    rows = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    rows[3][3] = Fraction(-2)
    eigh = np.linalg.eigh

    def positive_direction(a):
        w, v = eigh(a)
        v[:, 0] = 0.0
        v[0, 0] = 1.0 / 3.0
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", positive_direction)
    with pytest.raises(NumericalFailureError):
        psd_oracle(rows)


def test_oracle_exact_path_near_the_limit_on_summatory_meet_matrix():
    # M = E diag(g) E^T with E unimodular (zeta of the order), so by
    # Sylvester's law the inertia is the sign counts of g
    lat = min_lattice(2)
    cover = lat.covering_set(12)
    assert len(cover) == 144 <= EXACT_ORACLE_LIMIT
    rng = random.Random(144)
    g = {x: rng.randint(-3, 6) for x in cover.members}
    f = summatory_function(lat, lambda z: g[z], certify_nonneg=False)
    report = psd_oracle(meet_matrix(cover, f))
    assert report.method == "exact"
    signs = (sum(v > 0 for v in g.values()), sum(v < 0 for v in g.values()),
             sum(v == 0 for v in g.values()))
    assert report.inertia.as_tuple() == signs
    assert not report.is_psd
    assert report.witness.value < 0


@st.composite
def congruent_diagonals(draw):
    """(A, s) with A = U^T diag(s) U for a unit upper-triangular integer U."""
    n = draw(st.integers(1, 8))
    s = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    u = [[1 if i == j else (draw(st.integers(-2, 2)) if j > i else 0) for j in range(n)]
         for i in range(n)]
    a = [[sum(u[k][i] * s[k] * u[k][j] for k in range(n)) for j in range(n)]
         for i in range(n)]
    return a, s


@settings(max_examples=200, deadline=None)
@given(congruent_diagonals())
def test_exact_and_float_oracles_agree(case):
    a, s = case
    report = psd_oracle(a)
    signs = (sum(v > 0 for v in s), sum(v < 0 for v in s), sum(v == 0 for v in s))
    assert report.method == "exact"
    assert report.inertia.as_tuple() == signs
    assert report.is_psd == (signs[1] == 0)
    eigs = np.linalg.eigvalsh(np.array(a, dtype=float))
    if np.min(np.abs(eigs)) > 1e-6 * np.max(np.abs(eigs)):
        assert (int(np.sum(eigs > 0)), int(np.sum(eigs < 0)), 0) == signs


def test_criterion_summatory_of_one_is_certified_positive():
    fam = divisor_lattice(2)
    f = summatory_function(fam, lambda _z: 1)
    verdict = pd_criterion(f, fam, 6)
    assert verdict.is_positive
    assert verdict.certificate
    table = dict(inverted_table(f, fam.covering_set(4)))
    assert all(v == 1 for v in table.values())


def test_criterion_identity_gives_totients():
    dl = divisor_lattice()
    f = identity(dl)
    verdict = pd_criterion(f, dl, 20)
    assert verdict.is_positive
    assert not verdict.certificate
    table = dict(inverted_table(f, dl.covering_set(12)))
    # Mobius inversion of n over divisors is the totient
    assert table[12] == 4
    assert table[9] == 6


def test_criterion_negative_witness_replays():
    dl = divisor_lattice()
    values = {n: Fraction(1) for n in range(1, 9)}
    values[6] = Fraction(-3)
    f = table_function(dl, values)
    verdict = pd_criterion(f, dl, 8)
    assert verdict.verdict == NEGATIVE
    w = verdict.witness
    table = dict(inverted_table(f, dl.covering_set(8)))
    assert table[w.element] == w.value < 0


def _planted_negative(family, bound):
    """Point function whose only negative inverted value (-3) sits mid-scan
    and that raises at every member after it in member order."""
    members = family.covering_set(bound).members
    planted = members[len(members) // 2]
    position = {x: i for i, x in enumerate(members)}

    def fn(x):
        if position[x] > position[planted]:
            raise RuntimeError(f"evaluated past the first negative at {x!r}")
        return sum((-3 if z == planted else 1) for z in family.lower_set(x))

    return planted, fn


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("make", [divisor_lattice, min_lattice])
def test_criterion_stops_at_first_negative(make, d):
    fam = make(d)
    planted, fn = _planted_negative(fam, 6)
    verdict = pd_criterion(LatticeFunction(fam, fn), fam, 6)
    assert verdict.verdict == NEGATIVE
    assert (verdict.witness.element, verdict.witness.value) == (planted, -3)


@pytest.mark.parametrize("d", [1, 2])
def test_grid_check_stops_at_first_negative(d):
    planted, fn = _planted_negative(divisor_lattice(d), 6)
    f = LatticeFunction(divisor_lattice(d), fn)
    verdict = pd_check_grid(f, 6)
    assert verdict.verdict == NEGATIVE
    assert (verdict.witness.element, verdict.witness.value) == (planted, -3)


def test_criterion_checks_arguments_of_a_function_on_another_lattice():
    # the family's members are not elements of f's lattice, so each call is checked
    f = constant_function(divisor_lattice(), 1)
    family = Poset(["a", "b"], [("a", "b")])
    with pytest.raises(ValueError) as info:
        pd_criterion(f, family, 1)
    assert str(info.value) == "arguments must be elements of DivisorLattice(), got 'a'"


def test_lattice_function_keeps_a_fraction_value_as_it_is():
    q = Fraction(3, 7)
    f = LatticeFunction(divisor_lattice(), lambda _n: q)
    assert f(5) is q and f.evaluate(6) is q
    assert type(LatticeFunction(divisor_lattice(), lambda n: n)(4)) is Fraction


def test_criterion_requires_least():
    antichain = Poset(["a", "b"], [])
    f = LatticeFunction(antichain, lambda _x: Fraction(1))
    with pytest.raises(NoLeastElementError):
        pd_criterion(f, antichain, 1)


def test_verdict_json_shape():
    dl = divisor_lattice()
    f = identity(dl)
    doc = pd_criterion(f, dl, 4).to_json()
    assert doc["verdict"] == POSITIVE
    assert doc["witness"] is None
    assert doc["tested_bound"] == 4
    assert doc["certificate_flag"] is False


def criterion_and_oracle_agree(f, family, bound):
    """The two routes side by side on every covering set up to the bound."""
    return all(pd_criterion(f, family, m).is_positive
               == psd_oracle(meet_matrix(family.covering_set(m), f)).is_psd
               for m in range(1, bound + 1))


def test_covering_equivalence_nonneg_inverted():
    rng = random.Random(2024)
    dl = divisor_lattice()
    for _ in range(50):
        gvals = {z: Fraction(rng.randint(0, 6)) for z in range(1, 21)}
        f = summatory_function(dl, gvals.__getitem__)
        assert criterion_and_oracle_agree(f, dl, 20)
        assert all(pd_criterion(f, dl, m).is_positive for m in range(1, 21))


def test_covering_equivalence_sign_mixed():
    rng = random.Random(4096)
    dl = divisor_lattice()
    for _ in range(50):
        f = random_table_function(rng, dl, 12)
        assert criterion_and_oracle_agree(f, dl, 12)


def test_covering_equivalence_zero_function():
    dl = divisor_lattice()
    f = constant_function(dl, 0)
    assert criterion_and_oracle_agree(f, dl, 6)
    assert all(pd_criterion(f, dl, m).is_positive for m in range(1, 7))


def test_covering_equivalence_min_family():
    rng = random.Random(88)
    ml = min_lattice()
    for _ in range(10):
        f = random_table_function(rng, ml, 10)
        assert criterion_and_oracle_agree(f, ml, 10)


def assert_nonnegative_and_monotone(f, s):
    """Every positive definite f is >= 0 and order-monotone on s."""
    for i, x in enumerate(s.members):
        assert f(x) >= 0
        assert all(f(x) <= f(y) for y in s.members[i:] if s.leq(x, y))


def test_monotonicity_divisor_grid():
    fam = divisor_lattice(2)
    f = summatory_function(fam, lambda _z: 1)
    assert_nonnegative_and_monotone(f, fam.covering_set(10))
    assert f((2, 3)) == 4


def test_monotonicity_min_grid():
    fam = min_lattice(2)
    f = summatory_function(fam, lambda _z: 1)
    assert_nonnegative_and_monotone(f, fam.covering_set(10))
    assert f((2, 3)) == 6


def test_monotonicity_failure_reports_pair():
    # f(1) > f(2) with 1 below 2: the 2x2 minor 5*1 - 5*5 is negative, so
    # both routes reject f
    dl = divisor_lattice()
    f = table_function(dl, {1: Fraction(5), 2: Fraction(1)})
    s = subset(dl, [1, 2])
    assert [list(r) for r in meet_matrix(s, f).rows] == [[5, 5], [5, 1]]
    assert not pd_criterion(f, dl, 2).is_positive
    assert not psd_oracle(meet_matrix(s, f)).is_psd


def test_monotonicity_negative_value_reported():
    # a negative value is a negative diagonal entry of the meet matrix
    dl = divisor_lattice()
    f = table_function(dl, {1: Fraction(-1), 2: Fraction(3)})
    witness = pd_criterion(f, dl, 2).witness
    assert (witness.element, witness.value) == (1, Fraction(-1))
    assert not psd_oracle(meet_matrix(subset(dl, [1, 2]), f)).is_psd


def test_scale_by_zero_gives_certified_zero():
    dl = divisor_lattice()
    f = identity(dl)
    z = scale(f, 0)
    assert z(6) == 0
    assert z.certificate
    assert pd_criterion(z, dl, 8).is_positive


def test_scale_rejects_negative():
    with pytest.raises(NegativeScalarError):
        scale(identity(divisor_lattice()), -1)


def test_add_and_mul_preserve_psd_on_oracle():
    dl = divisor_lattice()
    f = identity(dl)
    s = dl.covering_set(5)
    doubled = add(f, f)
    squared = pointwise_mul(f, f)
    assert psd_oracle(meet_matrix(s, doubled)).is_psd
    assert psd_oracle(meet_matrix(s, squared)).is_psd
    assert doubled(6) == 12
    assert squared(6) == 36


def test_combinators_reject_mismatched_lattices():
    with pytest.raises(PosetMismatchError):
        add(identity(divisor_lattice()), identity(min_lattice()))


def test_combinators_propagate_certificates():
    fam = divisor_lattice()
    f = summatory_function(fam, lambda _z: 1)
    g = summatory_function(fam, lambda z: Fraction(z))
    assert add(f, g).certificate
    assert pointwise_mul(f, g).certificate
    assert scale(f, 3).certificate
    h = identity(fam)
    assert not add(f, h).certificate


def assert_kron_identity(g, h, bound):
    """(S x T)_F = (S)_g kron (T)_h for F(u, v) = g(u) h(v), entry by entry,
    on the covering sets at the bound; returns the product's meet matrix."""
    s = g.lattice.covering_set(bound)
    t = h.lattice.covering_set(bound)
    func = LatticeFunction(divisor_lattice(2), lambda xy: g(xy[0]) * h(xy[1]), name="gxh")
    big = meet_matrix(product_subset([s, t]), func)
    mg = meet_matrix(s, g)
    mh = meet_matrix(t, h)
    nt = len(t)
    for i in range(len(s)):
        for j in range(nt):
            for k in range(len(s)):
                for l in range(nt):
                    assert big.rows[i * nt + j][k * nt + l] == mg.rows[i][k] * mh.rows[j][l]
    return big


def test_factorable_gcd_kron_identity():
    # a Kronecker product of positive semidefinite matrices is positive
    # semidefinite
    dl = divisor_lattice()
    g = identity(dl)
    assert pd_criterion(g, dl, 3).is_positive
    big = assert_kron_identity(g, g, 3)
    assert psd_oracle(big).is_psd
    assert big.n == 9


def test_factorable_with_constant_right_component():
    dl = divisor_lattice()
    g = identity(dl)
    h = constant_function(dl, 1)
    assert pd_criterion(g, dl, 3).is_positive and pd_criterion(h, dl, 3).is_positive
    assert psd_oracle(assert_kron_identity(g, h, 3)).is_psd


def test_factorable_rejects_uncertified_component():
    dl = divisor_lattice()
    g = identity(dl)
    h = table_function(dl, {1: Fraction(1), 2: Fraction(-1)})
    assert not pd_criterion(h, dl, 2).is_positive
    # the kronecker identity itself still holds for the product function
    assert not psd_oracle(assert_kron_identity(g, h, 2)).is_psd


def test_ldl_signature_matches_exact_inertia():
    rng = random.Random(612)
    dl = divisor_lattice()
    for _ in range(40):
        seed = rng.sample(range(1, 40), rng.randint(1, 4))
        s = lower_closure(subset(dl, seed))
        if len(s) > 16:
            continue
        values = {x: Fraction(rng.randint(-6, 6)) for x in s.members}
        f = table_function(dl, values)
        dec = kron_decompose_d([s], f)
        inertia = symmetric_elimination(meet_matrix(s, f).rows).inertia
        assert dec.signature() == inertia


@pytest.mark.parametrize("family, name, alpha, d, m", [
    ("divisor", "mu_d", None, 1, 30),
    ("divisor", "ramanujan_C", None, 2, 8),
    ("divisor", "divisor_count", None, 2, 6),
    ("divisor", "lcm_pow", 1, 2, 6),
    ("divisor", "gcd_pow", 1, 2, 6),
    ("min", "mu_d", None, 2, 6),
])
def test_inverted_value_signs_are_the_exact_inertia(family, name, alpha, d, m):
    # on a lower closed set the meet matrix is E diag(d) E^T with E unit
    # triangular, so by Sylvester's law the signs of d are its inertia
    lattice = (min_lattice if family == "min" else divisor_lattice)(d)
    f = to_lattice_function(builtin(name, alpha=alpha, d=d), lattice)
    s = lattice.covering_set(m)
    values = [v for _, v in inverted_table(f, s)]
    report = psd_oracle(meet_matrix(s, f))
    assert report.method == "exact"
    signs = (sum(v > 0 for v in values), sum(v < 0 for v in values), values.count(0))
    assert signs == tuple(report.inertia)
    if (name, d) == ("gcd_pow", 2):
        assert signs[2] == 30  # rank 6: the verdict alone does not show it


def test_criterion_positive_implies_monotone():
    rng = random.Random(31415)
    for fam in (divisor_lattice(1), min_lattice(1), divisor_lattice(2)):
        for _ in range(10):
            bound = rng.randint(2, 6)
            f = random_table_function(rng, fam, bound, lo=0)
            verdict = pd_criterion(f, fam, bound)
            if verdict.is_positive:
                assert_nonnegative_and_monotone(f, fam.covering_set(bound))



@pytest.mark.parametrize("n, den", [(6, 1), (6, 2), (64, 1), (EXACT_ORACLE_LIMIT + 2, 2)])
def test_oracle_reads_int_fraction_and_float_copies_of_one_matrix_alike(n, den):
    # a gcd matrix with one diagonal entry lowered (indefinite), over den so
    # that every entry is exact in binary
    rows = [[Fraction(math.gcd(i, j) - 9 * (i == j == 2), den) for j in range(1, n + 1)]
            for i in range(1, n + 1)]
    copies = [rows, [[float(v) for v in row] for row in rows]]
    if den == 1:
        copies.append([[int(v) for v in row] for row in rows])
    reports = [psd_oracle(c) for c in copies]
    assert reports[0].method == ("exact" if n <= EXACT_ORACLE_LIMIT else "float")
    assert not reports[0].is_psd
    fields = [(r.is_psd, r.method, r.min_eigenvalue, r.inertia, r.witness) for r in reports]
    assert fields == fields[:1] * len(fields)
