import math
import random
import tracemalloc
from fractions import Fraction

import pytest

import meetpd.pdcheck
from meetpd import arith, intfun
from meetpd.arith import (
    builtin,
    dirichlet_convolve_d,
    pd_check_grid,
    ramanujan_C,
    to_lattice_function,
)
from meetpd.errors import ArityMismatchError, UnknownBuiltinError
from meetpd.intfun import divisors, mobius_int
from meetpd.meetmatrix import LatticeFunction, meet_matrix
from meetpd.pdcheck import pd_criterion, psd_oracle
from meetpd.posets import divisor_lattice, min_lattice, product_subset

PRIMES_BELOW_100 = [p for p in range(2, 100) if all(p % q for q in range(2, p))]
MU = builtin("mu_d")


def mu_star_mu(n):
    """(mu * mu)(n) by the d-variate convolution at d = 1."""
    return dirichlet_convolve_d(MU, MU, n)


def test_delta_is_identity_of_dirichlet_convolution():
    rng = random.Random(15)
    for d in (1, 2, 3):
        delta = builtin("delta_d", d=d)
        values = {}

        def f(pt, values=values, rng=rng):
            return values.setdefault(pt, Fraction(rng.randint(-9, 9)))

        fa = LatticeFunction(divisor_lattice(d), f, name="rand")
        for _ in range(20):
            pt = tuple(rng.randint(1, 12) for _ in range(d))
            x = pt if d > 1 else pt[0]
            assert dirichlet_convolve_d(delta, fa, pt) == fa(x)
            assert dirichlet_convolve_d(fa, delta, pt) == fa(x)


def test_mobius_zeta_pair_is_delta():
    mu = builtin("mu_d", d=1)
    z = builtin("zeta_d", d=1)
    for n in range(1, 101):
        assert dirichlet_convolve_d(mu, z, (n,)) == (1 if n == 1 else 0)


def test_bivariate_mobius_zeta_pair_is_delta():
    mu = builtin("mu_d", d=2)
    z = builtin("zeta_d", d=2)
    for i in range(1, 31):
        for j in range(1, 31):
            expected = 1 if i == j == 1 else 0
            assert dirichlet_convolve_d(mu, z, (i, j)) == expected


def test_bivariate_zeta_self_convolution_counts_divisors():
    z2 = builtin("zeta_d", d=2)
    rng = random.Random(8)
    for _ in range(25):
        i, j = rng.randint(1, 30), rng.randint(1, 30)
        assert dirichlet_convolve_d(z2, z2, (i, j)) == len(divisors(i)) * len(divisors(j))


def test_dirichlet_convolve_d_takes_an_integer_point():
    mu = builtin("mu_d", d=1)
    z = builtin("zeta_d", d=1)
    assert dirichlet_convolve_d(mu, z, 1) == 1
    assert dirichlet_convolve_d(mu, z, 10) == 0


def test_mobius_arith_values():
    assert mobius_int(1) == 1
    assert mobius_int(6) == 1
    assert mobius_int(12) == 0
    for p in PRIMES_BELOW_100:
        assert mobius_int(p) == -1


def test_mu_star_mu_prime_power_table():
    assert mu_star_mu(1) == 1
    for p in (2, 3, 5):
        assert mu_star_mu(p) == -2
        assert mu_star_mu(p ** 2) == 1
        assert mu_star_mu(p ** 3) == 0
        assert mu_star_mu(p ** 4) == 0


def test_mu_star_mu_multiplicative():
    assert mu_star_mu(12) == mu_star_mu(4) * mu_star_mu(3) == -2
    for n in range(1, 201):
        expected = 1
        for p, k in __import__("meetpd.intfun", fromlist=["factorize"]).factorize(n).items():
            expected *= mu_star_mu(p ** k)
        assert mu_star_mu(n) == expected


def test_factorize_beyond_the_sieve_cap_stays_within_the_cap(monkeypatch):
    # start from an empty sieve; monkeypatch restores the shared one afterwards
    monkeypatch.setattr(intfun, "_spf", [0, 1])
    monkeypatch.setattr(intfun, "_primes", [])
    cap = intfun._SIEVE_CAP
    assert intfun.factorize(100000007) == {100000007: 1}
    assert intfun.mobius_int(100000007) == -1
    assert len(intfun._spf) <= cap + 1
    # two primes past 2**18 and one past the cap: the sieve grows to the cap, no further
    big = 3 ** 4 * (2 ** 19 - 1) * (2 ** 31 - 1)
    assert intfun.factorize(big) == {3: 4, 524287: 1, 2147483647: 1}
    assert intfun.factorize(2 ** 70) == {2: 70}
    assert len(intfun._spf) <= cap + 1
    # a cofactor above cap**2 may be a product of two primes beyond the sieve
    with pytest.raises(ValueError, match="cofactor"):
        intfun.factorize((2 ** 31 - 1) ** 2)
    assert len(intfun._spf) <= cap + 1


def test_factorize_beyond_the_cap_grows_the_sieve_only_as_the_cofactor_needs(monkeypatch):
    # small primes factor 2**70 completely, so the sieve stays small
    monkeypatch.setattr(intfun, "_spf", [0, 1])
    monkeypatch.setattr(intfun, "_primes", [])
    assert intfun.factorize(2 ** 70) == {2: 70}
    assert len(intfun._spf) < 2 ** 12
    assert intfun.factorize(3 ** 40 * 7 ** 2 * 1009) == {3: 40, 7: 2, 1009: 1}
    assert len(intfun._spf) < 2 ** 12


def test_ramanujan_values():
    assert ramanujan_C(1, 1) == 1
    assert ramanujan_C(2, 2) == 1  # 1*mu(2) + 2*mu(1)
    assert ramanujan_C(6, 12) == -4  # 2*mu(6) + 6*mu(2)


def test_ramanujan_convolution_identity():
    c = builtin("ramanujan_C")
    mu2 = builtin("mu_d", d=2)
    for m in range(1, 25):
        for n in range(1, 25):
            value = dirichlet_convolve_d(c, mu2, (m, n))
            if n % m != 0:
                assert value == 0
            else:
                assert value == m * mu_star_mu(n // m)


def test_grid_check_zeta_positive():
    for d in (1, 2):
        verdict = pd_check_grid(builtin("zeta_d", d=d), 6)
        assert verdict.is_positive


def test_grid_check_gcd_positive():
    verdict = pd_check_grid(builtin("gcd_pow", alpha=1, d=2), 20)
    assert verdict.is_positive


def test_grid_check_ramanujan_negative_witness():
    verdict = pd_check_grid(builtin("ramanujan_C"), 6)
    assert not verdict.is_positive
    assert verdict.witness.element == (1, 2)
    assert verdict.witness.value == -2


def test_grid_check_lcm_negative():
    verdict = pd_check_grid(builtin("lcm_pow", alpha=1, d=2), 2)
    assert not verdict.is_positive
    assert verdict.witness.element == (2, 2)
    grid = divisor_lattice(2).covering_set(2)
    m = meet_matrix(grid, builtin("lcm_pow", alpha=1, d=2))
    assert not psd_oracle(m).is_psd


def test_reciprocal_lcm_is_not_positive_definite_and_paths_agree():
    # the inverted value at (1, 2) is 1/2 - 1 < 0, so the grid criterion,
    # the lattice criterion, and the eigenvalue oracle all reject it
    f = builtin("lcm_pow", alpha=-1, d=2)
    verdict = pd_check_grid(f, 4)
    assert not verdict.is_positive
    assert verdict.witness.element == (1, 2)
    assert verdict.witness.value == Fraction(-1, 2)
    fam = divisor_lattice(2)
    assert not pd_criterion(f, fam, 4).is_positive
    assert not psd_oracle(meet_matrix(fam.covering_set(2), f)).is_psd


def _rows_collapse(grid, f, g):
    """Whether the meet matrix of f on S x S collapses onto the one of g on S.

    The rank collapse for f = g(meet of coordinates): the row of (a, b) is
    the row of the diagonal element (a meet b, a meet b), and the principal
    block on the diagonal elements is the meet matrix of g over S.
    """
    s = grid.factors[0]
    meet = s.lattice.meet
    rows = meet_matrix(grid, f).rows
    diag = [grid.index((x, x)) for x in s]
    return (all(rows[i] == rows[grid.index((meet(a, b),) * 2)]
                for i, (a, b) in enumerate(grid.members))
            and [[rows[i][j] for j in diag] for i in diag]
            == [list(r) for r in meet_matrix(s, g).rows])


def test_rank_collapse_verdict_matches_full_oracle_for_reciprocal_base():
    # g(n) = 1/n composed with the coordinatewise gcd: the collapsed block
    # and the full grid matrix must agree on (non) positive semidefiniteness
    g = builtin("gcd_pow", alpha=-1, d=1)
    lat = builtin("gcd_pow", alpha=-1, d=2)
    s = divisor_lattice().covering_set(4)
    grid = product_subset([s, s])
    assert _rows_collapse(grid, lat, g)
    small = psd_oracle(meet_matrix(s, g))
    big = psd_oracle(meet_matrix(grid, lat))
    assert small.is_psd == big.is_psd
    assert not big.is_psd


def test_rank_collapse_verdict_matches_full_oracle_for_gcd():
    g = builtin("gcd_pow", alpha=1, d=1)
    lat = builtin("gcd_pow", alpha=1, d=2)
    s = divisor_lattice().covering_set(4)
    grid = product_subset([s, s])
    assert _rows_collapse(grid, lat, g)
    assert psd_oracle(meet_matrix(s, g)).is_psd
    assert psd_oracle(meet_matrix(grid, lat)).is_psd


@pytest.mark.parametrize("bound", [3, 12])
def test_rank_collapse_refuses_a_function_moved_to_the_min_lattice(bound):
    # moved onto MIN, gcd_pow is still n^1 of the gcd, not of the min, so its
    # rows do not collapse onto the diagonal and no small block decides it
    f = to_lattice_function(builtin("gcd_pow", 1, d=2), min_lattice(2))
    assert not pd_criterion(f, min_lattice(2), bound).is_positive
    assert not _rows_collapse(min_lattice(2).covering_set(bound), f, builtin("gcd_pow", 1))


def _table_function(values, name):
    return LatticeFunction(divisor_lattice(), lambda n: values.get(n, Fraction(0)), name=name)


def _separable_cases():
    """(g1, g2, bound, expected verdict or None) for the separable rule."""
    zeta = builtin("zeta_d", d=1)
    rng = random.Random(3)
    hvals = {n: rng.randint(0, 4) + (1 if n == 1 else 0) for n in range(1, 13)}
    # minus a summatory of a nonnegative h: every inverted value is <= 0
    neg_summatory = _table_function(
        {n: Fraction(-sum(hvals[d] for d in divisors(n))) for n in range(1, 13)}, "neg_summatory")
    neg_tau = _table_function({n: Fraction(-len(divisors(n))) for n in range(1, 9)}, "neg_tau")
    cases = {
        "zeta_x_zeta": (zeta, zeta, 8, True),
        "nonpositive_x_nonpositive": (neg_summatory, neg_summatory, 12, True),
        "mixed_x_zeta": (_table_function({1: Fraction(1), 2: Fraction(3)}, "mixed"), zeta, 6,
                         False),
        "nonpositive_x_zeta": (neg_tau, zeta, 8, False),
        "zero_x_mixed": (_table_function({}, "zero"),
                         _table_function({1: Fraction(1), 2: Fraction(5)}, "mixed"), 5, True),
    }
    rng = random.Random(51)
    for k in range(30):
        t1, t2 = ({n: Fraction(rng.randint(-3, 5)) for n in range(1, 9)} for _ in range(2))
        cases[f"random{k:02d}"] = (_table_function(t1, "g1"), _table_function(t2, "g2"), 8, None)
    return cases


SEPARABLE_CASES = _separable_cases()


@pytest.mark.parametrize("case", SEPARABLE_CASES)
def test_separable_rule(case):
    # Rota's product rule: the inverted values of g1 (x) g2 are the products
    # a*b of the factors' inverted values, so the grid verdict is positive
    # iff every such product is nonnegative
    g1, g2, bound, expected = SEPARABLE_CASES[case]
    mu1 = builtin("mu_d", d=1)
    product = LatticeFunction(divisor_lattice(2), lambda pt: g1(pt[0]) * g2(pt[1]), name="sep")
    inv1, inv2 = ([dirichlet_convolve_d(g, mu1, n) for n in range(1, bound + 1)] for g in (g1, g2))
    verdict = pd_check_grid(product, bound)
    assert verdict.is_positive == all(a * b >= 0 for a in inv1 for b in inv2)
    assert expected in (None, verdict.is_positive)
    if not verdict.is_positive:
        w = verdict.witness
        assert dirichlet_convolve_d(product, builtin("mu_d", d=2), w.element) == w.value < 0


def test_separability_of_inversion():
    rng = random.Random(99)
    mu1 = builtin("mu_d", d=1)
    mu2 = builtin("mu_d", d=2)
    t1 = {n: Fraction(rng.randint(-6, 6)) for n in range(1, 13)}
    t2 = {n: Fraction(rng.randint(-6, 6)) for n in range(1, 13)}
    g1 = LatticeFunction(divisor_lattice(), lambda n: t1[n], name="g1")
    g2 = LatticeFunction(divisor_lattice(), lambda n: t2[n], name="g2")
    product = LatticeFunction(divisor_lattice(2), lambda pt: g1(pt[0]) * g2(pt[1]), name="sep")
    for i in range(1, 13):
        for j in range(1, 13):
            lhs = dirichlet_convolve_d(product, mu2, (i, j))
            rhs = dirichlet_convolve_d(g1, mu1, (i,)) * dirichlet_convolve_d(g2, mu1, (j,))
            assert lhs == rhs


def test_criterion_on_ramanujan_matches_grid_witness():
    f = builtin("ramanujan_C")
    verdict = pd_criterion(f, divisor_lattice(2), 6)
    assert not verdict.is_positive
    assert verdict.witness.element == (1, 2)
    assert verdict.witness.value == -2


def test_grid_check_matches_lattice_criterion():
    rng = random.Random(2718)
    for d in (1, 2):
        fam = divisor_lattice(d)
        for _ in range(10):
            bound = rng.randint(2, 5 if d == 2 else 8)
            values = {}
            for pt in fam.covering_set(bound).members:
                values[pt] = Fraction(rng.randint(-5, 5))
            f = LatticeFunction(fam, lambda x, v=values: v[x], name="rand")
            gv = pd_check_grid(f, bound)
            cv = pd_criterion(f, fam, bound)
            assert gv.verdict == cv.verdict
            if not gv.is_positive:
                assert gv.witness == cv.witness


def test_builtin_gcd_pow_composed_evaluation():
    f = builtin("gcd_pow", alpha=1, d=2)
    assert f((4, 6)) == 2
    assert f((12, 12)) == 12


def test_builtin_divisor_count():
    f = builtin("divisor_count", d=2)
    assert f((2, 3)) == 4
    assert f((12, 1)) == 6


def test_builtin_meet_composed():
    base = builtin("gcd_pow", alpha=2, d=1)
    f = builtin("meet_composed", g=base, d=3)
    assert f((4, 6, 10)) == 4  # gcd 2 squared


@pytest.mark.parametrize("name, alpha, d", [
    ("gcd_pow", 1, 1), ("gcd_pow", 1, 2), ("lcm_pow", 2, 2), ("zeta_d", None, 3),
    ("delta_d", None, 2), ("mu_d", None, 1), ("divisor_count", None, 2), ("ramanujan_C", None, 2),
])
def test_builtins_live_on_the_cached_divisor_lattice(name, alpha, d):
    assert builtin(name, alpha=alpha, d=d).lattice is divisor_lattice(d)


def test_criterion_on_a_builtin_uses_the_cached_covering_set(monkeypatch):
    seen = []
    inverted = meetpd.pdcheck.inverted_blocks
    monkeypatch.setattr(meetpd.pdcheck, "inverted_blocks",
                        lambda f, s: seen.append(s) or inverted(f, s))
    assert pd_criterion(builtin("gcd_pow", alpha=1, d=2), divisor_lattice(2), 8).is_positive
    assert len(seen) == 1 and seen[0] is divisor_lattice(2).covering_set(8)


def test_a_builtin_criterion_keeps_no_value_per_member():
    # 65,536 members, each value read once and none kept
    lattice = divisor_lattice(2)
    lattice.covering_set(256)
    f = builtin("gcd_pow", alpha=1, d=2)
    tracemalloc.start()
    try:
        assert pd_criterion(f, lattice, 256).is_positive
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize("route", ["criterion", "meet_matrix"])
def test_a_meet_composed_builtin_reads_its_base_rule_once_per_distinct_meet(monkeypatch, route):
    seen = []
    power = arith._power_value
    monkeypatch.setattr(arith, "_power_value", lambda n, a: seen.append(n) or power(n, a))
    f = builtin("gcd_pow", alpha=1, d=2)
    if route == "criterion":
        assert pd_criterion(f, divisor_lattice(2), 12).is_positive
    else:
        meet_matrix(divisor_lattice(2).covering_set(12), f)
    # the gcds over {1..12}^2 are 1..12, each read once
    assert sorted(seen) == list(range(1, 13))


def test_builtin_unknown():
    with pytest.raises(UnknownBuiltinError):
        builtin("nope")


@pytest.mark.parametrize("name", ["zeta_d", "delta_d", "mu_d", "divisor_count", "ramanujan_C"])
def test_a_builtin_without_an_exponent_refuses_one(name):
    with pytest.raises(ValueError, match=f"^{name} takes no parameter$"):
        builtin(name, alpha=Fraction(3))


def test_builtin_float_fallback_flagged():
    f = builtin("gcd_pow", alpha=Fraction(1, 2), d=1)
    assert not f.exact
    assert f(4) == 2.0


def test_arguments_validated():
    f = builtin("zeta_d", d=2)
    with pytest.raises(ValueError):
        f((1, 2, 3))
    with pytest.raises(ValueError):
        f((0, 1))


def test_to_lattice_function_arity_check():
    f = builtin("zeta_d", d=2)
    with pytest.raises(ArityMismatchError):
        to_lattice_function(f, divisor_lattice(3))


def test_to_lattice_function_on_min_lattice():
    f = builtin("divisor_count", d=2)
    lat = to_lattice_function(f, min_lattice(2))
    assert lat((2, 3)) == 4
