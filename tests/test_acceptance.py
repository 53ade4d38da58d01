"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  All value checks are exact (Fraction arithmetic); the
only tolerances involved are the stated wall-clock budgets.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from meetpd.arith import (
    builtin,
    dirichlet_convolve_d,
    mu_star_mu,
    pd_check_grid,
)
from meetpd.cli import main as cli_main
from meetpd.exact import char_poly, quadratic_form, symmetric_elimination
from meetpd.intfun import factorize
from meetpd.meetmatrix import (
    LatticeFunction,
    identity_function,
    kron_decompose_d,
    meet_composed_function,
    meet_matrix,
    reconstruct,
    summatory_function,
    table_function,
)
from meetpd.pdcheck import (
    EXACT_ORACLE_LIMIT,
    POSITIVE,
    add,
    inverted_table,
    pd_criterion,
    pointwise_mul,
    psd_oracle,
    scale,
)
from meetpd.posets import (
    divisor_lattice,
    meet_closure,
    min_lattice,
    product_subset,
    subset,
)


@contextmanager
def budget(name, seconds):
    start = time.perf_counter()
    failed = True
    try:
        yield
        failed = False
    finally:
        elapsed = time.perf_counter() - start
        status = "FAIL" if failed else ("PASS" if elapsed < seconds else "FAIL (over budget)")
        print(f"{status}: {name} ({elapsed:.2f}s / {seconds:g}s budget)")
        if not failed:
            assert elapsed < seconds, f"{name} exceeded its {seconds}s budget"


def test_criterion_1_lcm_counterexample():
    with budget("criterion 1: lcm counterexample", 1.0):
        grid = divisor_lattice(2).covering_set(2)
        f = table_function(divisor_lattice(2),
                           {x: Fraction(math.lcm(*x)) for x in grid.members})
        m = meet_matrix(grid, f)
        coeffs = char_poly(m.rows)
        assert all(c.denominator == 1 for c in coeffs)
        assert tuple(int(c) for c in coeffs) == (1, -7, 6, 1, -1)
        # expand (x - 1)(x^3 - 6x^2 + 1) independently
        factor_a = [1, -1]
        factor_b = [1, -6, 0, 1]
        prod = [0] * 5
        for i, a in enumerate(factor_a):
            for j, b in enumerate(factor_b):
                prod[i + j] += a * b
        assert tuple(prod) == (1, -7, 6, 1, -1)
        report = psd_oracle(m)
        assert not report.is_psd
        assert report.method == "exact"


def test_criterion_2_gcd_positive_definiteness():
    with budget("criterion 2: gcd positive definiteness", 30.0):
        for m in range(1, 65):
            rows = [[Fraction(math.gcd(i, j)) for j in range(1, m + 1)]
                    for i in range(1, m + 1)]
            fact = symmetric_elimination(rows)
            assert fact.inertia.negative == 0 and fact.inertia.zero == 0, m
        dl = divisor_lattice()
        f = meet_composed_function(identity_function(dl), 2)
        for m in range(1, 9):
            s = dl.covering_set(m)
            grid = product_subset([s, s])
            big = meet_matrix(grid, f)
            assert symmetric_elimination(big.rows).is_psd
            # rank collapse: the row of (a, b) is the row of (gcd, gcd), and
            # the block on the diagonal elements is the gcd matrix of {1..m}
            for i, (a, b) in enumerate(grid.members):
                assert big.rows[i] == big.rows[grid.index((math.gcd(a, b),) * 2)]
            diag = [grid.index((x, x)) for x in s]
            expected = [[Fraction(math.gcd(i, j)) for j in range(1, m + 1)]
                        for i in range(1, m + 1)]
            assert [[big.rows[i][j] for j in diag] for i in diag] == expected


def test_criterion_3_ramanujan_not_positive_definite(capsys):
    with budget("criterion 3: ramanujan non-pd", 5.0):
        c = builtin("ramanujan_C")
        mu2 = builtin("mu_d", d=2)
        for p in (2, 3, 5, 7):
            assert dirichlet_convolve_d(c, mu2, (1, p)) == -2
        for m in range(1, 25):
            for n in range(1, 25):
                value = dirichlet_convolve_d(c, mu2, (m, n))
                if n % m != 0:
                    assert value == 0
                else:
                    assert value == m * mu_star_mu(n // m)
        code = cli_main(["check", "--fn", "ramanujan_C", "--m", "6"])
        out = capsys.readouterr().out
        assert code == 1
        doc = json.loads(out)
        witness = doc["witness"]
        point = tuple(witness["element"])
        replayed = dirichlet_convolve_d(c, mu2, point)
        assert replayed == Fraction(witness["value"]) < 0


def test_criterion_4_mu_star_mu_table():
    with budget("criterion 4: mu*mu table", 1.0):
        assert mu_star_mu(1) == 1
        for p in (2, 3, 5):
            assert mu_star_mu(p) == -2
            assert mu_star_mu(p ** 2) == 1
            assert mu_star_mu(p ** 3) == 0
            assert mu_star_mu(p ** 4) == 0
        for n in range(1, 201):
            expected = 1
            for p, k in factorize(n).items():
                expected *= mu_star_mu(p ** k)
            assert mu_star_mu(n) == expected


def test_criterion_5_decomposition_soundness():
    with budget("criterion 5: decomposition soundness", 60.0):
        rng = random.Random(20260811)
        families = [divisor_lattice(), min_lattice()]
        done = 0
        while done < 200:
            base = families[rng.randrange(2)]
            d = rng.choice([1, 1, 2])
            if d == 1:
                seed = rng.sample(range(1, 40), rng.randint(1, 5))
                s = meet_closure(subset(base, seed))
                if len(s) > 16:
                    continue
                subsets = [s]
                domain = s
            else:
                s = meet_closure(subset(base, rng.sample(range(1, 20), rng.randint(1, 3))))
                t = meet_closure(subset(base, rng.sample(range(1, 20), rng.randint(1, 3))))
                if len(s) * len(t) > 16:
                    continue
                subsets = [s, t]
                domain = product_subset([s, t])
            values = {
                x: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                for x in domain.members
            }
            f = table_function(domain.lattice, values)
            dec = kron_decompose_d(subsets, f)
            direct = meet_matrix(domain, f)
            assert reconstruct(dec) == direct  # zero residual, exact
            fact = symmetric_elimination(direct.rows)
            assert dec.signature() == fact.inertia
            done += 1


def test_criterion_6_criterion_oracle_equivalence():
    with budget("criterion 6: criterion vs oracle", 60.0):
        rng = random.Random(1729)
        agreements = 0
        for _ in range(100):
            d = rng.choice([1, 2])
            fam = divisor_lattice(d) if rng.random() < 0.5 else min_lattice(d)
            bound = rng.randint(1, 8)
            cover = fam.covering_set(bound)
            if rng.random() < 0.3:
                gvals = {z: Fraction(rng.randint(0, 5)) for z in cover.members}
                f = summatory_function(fam, gvals.__getitem__)
            else:
                values = {x: Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                          for x in cover.members}
                f = table_function(fam, values)
            verdict = pd_criterion(f, fam, bound)
            report = psd_oracle(meet_matrix(cover, f))
            assert verdict.is_positive == report.is_psd
            agreements += 1
            if not verdict.is_positive:
                table = dict(inverted_table(f, cover))
                assert table[verdict.witness.element] == verdict.witness.value < 0
            if not report.is_psd:
                value = quadratic_form(meet_matrix(cover, f).rows, report.witness.vector)
                assert value == report.witness.value < 0
        assert agreements == 100


def test_criterion_7_separable_criterion():
    with budget("criterion 7: separable criterion", 10.0):
        rng = random.Random(4181)
        mu1 = builtin("mu_d", d=1)
        mu2 = builtin("mu_d", d=2)
        for _ in range(50):
            style = rng.randrange(3)
            tabs = []
            for _ in range(2):
                if style == 0:
                    tab = {n: Fraction(rng.randint(-4, 4)) for n in range(1, 13)}
                elif style == 1:  # summatory of nonnegative: inverted stays nonnegative
                    g = {n: Fraction(rng.randint(0, 4)) for n in range(1, 13)}
                    tab = {n: sum(g[d] for d in range(1, n + 1) if n % d == 0)
                           for n in range(1, 13)}
                else:  # negated summatory: inverted stays nonpositive
                    g = {n: Fraction(rng.randint(0, 4)) for n in range(1, 13)}
                    tab = {n: -sum(g[d] for d in range(1, n + 1) if n % d == 0)
                           for n in range(1, 13)}
                tabs.append(tab)
            g1 = LatticeFunction(divisor_lattice(), lambda n, t=tabs[0]: t[n], name="g1")
            g2 = LatticeFunction(divisor_lattice(), lambda n, t=tabs[1]: t[n], name="g2")
            product = LatticeFunction(divisor_lattice(2), lambda pt: g1(pt[0]) * g2(pt[1]),
                                      name="g1xg2")
            # the separable rule: positive iff every product of the
            # components' inverted values is nonnegative
            inv1, inv2 = ([dirichlet_convolve_d(g, mu1, n) for n in range(1, 13)]
                          for g in (g1, g2))
            grid = pd_check_grid(product, 12)
            assert grid.is_positive == all(a * b >= 0 for a in inv1 for b in inv2)
            for i in range(1, 13):
                for j in range(1, 13):
                    lhs = dirichlet_convolve_d(product, mu2, (i, j))
                    rhs = (dirichlet_convolve_d(g1, mu1, (i,))
                           * dirichlet_convolve_d(g2, mu1, (j,)))
                    assert lhs == rhs


def test_criterion_8_closure_and_monotonicity():
    with budget("criterion 8: closure and monotonicity", 10.0):
        rng = random.Random(2584)
        fam = divisor_lattice(2)
        bound = 5
        cover = fam.covering_set(bound)
        for _ in range(50):
            ga = {z: Fraction(rng.randint(0, 4)) for z in cover.members}
            gb = {z: Fraction(rng.randint(0, 4)) for z in cover.members}
            f = summatory_function(fam, ga.__getitem__)
            g = summatory_function(fam, gb.__getitem__)
            assert pd_criterion(f, fam, bound).is_positive
            for combo in (scale(f, Fraction(rng.randint(0, 3))), add(f, g), pointwise_mul(f, g)):
                verdict = pd_criterion(combo, fam, bound)
                assert verdict.is_positive
        for family, expected in ((divisor_lattice(2), 4), (min_lattice(2), 6)):
            f = summatory_function(family, lambda _z: 1)
            s = family.covering_set(10)
            # nonnegative and order-monotone, as every positive definite f is
            for i, x in enumerate(s.members):
                assert f(x) >= 0
                assert all(f(x) <= f(y) for y in s.members[i:] if s.leq(x, y))
            assert f((2, 3)) == expected


def test_criterion_9_streaming_inversion_scale():
    # the full scan at d = 3 (64,000 members) and d = 2 (40,000 members),
    # covering sets and Mobius rows built cold on the first run
    with budget("criterion 9: zeta_d grids at d=3 bound 40 and d=2 bound 200", 2.0):
        assert pd_check_grid(builtin("zeta_d", d=3), 40).is_positive
        assert pd_check_grid(builtin("zeta_d", d=2), 200).is_positive


def test_criterion_10_decompose_at_the_member_limit(capsys):
    # 1,024 members: the meet matrix from the factor meet tables, the
    # factors multiplied back in ints, and all 1,048,576 entries compared
    with budget("criterion 10: decompose gcd_pow:1 at d=2 bound 32", 1.5):
        code = cli_main(["decompose", "--d", "2", "--fn", "gcd_pow:1", "--m", "32"])
        doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["order_map"]["shape"] == [32, 32]
    assert doc["reconstruction_residual"] == "0"


def test_criterion_11_exact_oracle_at_its_size_limit():
    # n = EXACT_ORACLE_LIMIT = 256, the largest matrices the exact path takes;
    # a fraction-free (Bareiss) elimination grows its entries to the size of
    # the determinant on these (10.6 s for the two on a 2-vCPU host, Python 3.11)
    with budget("criterion 11: exact oracle on the gcd matrix and MIN 16x16 at n=256", 2.0):
        dl = divisor_lattice()
        gcd = psd_oracle(meet_matrix(dl.covering_set(EXACT_ORACLE_LIMIT), identity_function(dl)))
        assert gcd.method == "exact"
        assert gcd.inertia.as_tuple() == (EXACT_ORACLE_LIMIT, 0, 0)
        rng = random.Random(16)
        lat = min_lattice(2)
        cover = lat.covering_set(16)
        g = {z: Fraction(rng.randint(-3, 6)) for z in cover.members}
        m = meet_matrix(cover, summatory_function(lat, g.__getitem__, certify_nonneg=False))
        report = psd_oracle(m)
        assert report.method == "exact" and len(cover) == EXACT_ORACLE_LIMIT
        assert report.inertia.as_tuple() == (sum(v > 0 for v in g.values()),
                                             sum(v < 0 for v in g.values()),
                                             sum(v == 0 for v in g.values()))
        assert quadratic_form(m.rows, report.witness.vector) == report.witness.value < 0


def test_criterion_12_grid_values_from_mobius_rows(capsys):
    # 25,600 values of the MIN grid, summed once from g = 1 slab by slab (one
    # running sum per slab, each slab added onto the last); summing each
    # lower set instead took 90 s on a 2-vCPU host
    with budget("criterion 12: grid --family min --m 160", 2.0):
        code = cli_main(["grid", "--family", "min", "--m", "160"])
        out = capsys.readouterr().out
    assert code == 0
    # the lower set of (a, b) in MIN x MIN has a * b elements
    assert out == "".join(f"{a},{b},{a * b}\n" for a in range(1, 161) for b in range(1, 161))


def test_criterion_13_cold_checks_from_closed_form_mobius_rows():
    # one fresh process per check, so the covering set, the sieve and the
    # Mobius rows are all built cold; the rows of {1..m} come from the
    # lattice's closed form, where Rota's recursion took 37.7 s at m = 20,000
    # on divisors (a 2-vCPU host, Python 3.11)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    runs = [["check", "--fn", "gcd_pow:1", "--m", "20000"],
            ["check", "--family", "min", "--fn", "gcd_pow:1", "--m", "1000"]]
    with budget("criterion 13: cold check gcd_pow:1, divisor m=20000 and MIN m=1000", 2.0):
        procs = [subprocess.run([sys.executable, "-m", "meetpd.cli", *argv], env=env,
                                capture_output=True, text=True, timeout=60) for argv in runs]
    for argv, proc in zip(runs, procs):
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["verdict"] == POSITIVE and doc["tested_bound"] == int(argv[-1])


def test_criterion_14_check_on_a_hasse_chain_of_1024_elements(capsys, tmp_path):
    # every meet is one lookup of the two down-sets' intersection; finding
    # each meet by a bit-probe scan took about 60 s (a 2-vCPU host, Python 3.11)
    hasse, table = tmp_path / "chain1024.txt", tmp_path / "t.csv"
    hasse.write_text("".join(f"elem c{i}\n" for i in range(1024))
                     + "".join(f"edge c{i} c{i + 1}\n" for i in range(1023)))
    table.write_text("".join(f"c{i},{i + 1}\n" for i in range(1024)))
    with budget("criterion 14: check --hasse on a chain of 1,024 elements", 5.0):
        code = cli_main(["check", "--hasse", str(hasse), "--fn", f"@{table}", "--m", "1"])
        doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["verdict"] == POSITIVE


def test_criterion_15_decompose_on_a_chain_at_the_member_limit(capsys):
    # 1,024 members of a chain: E diag(d) E^T is the meet matrix of zeta d,
    # summed once; scattering each d_k onto every pair above it made about
    # n^3 / 6 int additions, 6.7-12.3 s cold (a 2-vCPU host, Python 3.11)
    with budget("criterion 15: decompose --family min gcd_pow:1 at bound 1024", 2.0):
        code = cli_main(["decompose", "--family", "min", "--fn", "gcd_pow:1", "--m", "1024"])
        doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["order_map"]["shape"] == [1024]
    assert doc["reconstruction_residual"] == "0"
