import math
import os
import random
import subprocess
import sys
from bisect import bisect_left
from fractions import Fraction
from operator import sub
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meetpd import exact
from meetpd.arith import builtin, to_lattice_function
from meetpd.exact import (
    Inertia,
    KronMatrix,
    SymmetricFactorization,
    char_poly,
    quadratic_form,
    symmetric_elimination,
)
from meetpd.meetmatrix import (
    kron_decompose_d,
    meet_matrix,
    reconstruct,
    summatory_function,
    table_function,
)
from meetpd.pdcheck import psd_oracle
from meetpd.posets import divisor_lattice, load_hasse, min_lattice, product_subset, subset


# --------------------------------------------------------------------------
# Reference: the Fraction elimination that the fraction-free one replaced.
# It eliminates a 2x2 pivot block where the fraction-free route applies a
# row-add congruence, so the two agree exactly unless that block occurs.

def _reference_fraction_matrix(rows):
    a = [[Fraction(v) for v in row] for row in rows]
    n = len(a)
    for row in a:
        if len(row) != n:
            raise ValueError("matrix must be square")
    for i in range(n):
        for j in range(i + 1, n):
            if a[i][j] != a[j][i]:
                raise ValueError(f"matrix is not symmetric at ({i}, {j})")
    return a


def _reference_swap(a, lmat, perm, filled, s, t):
    if s == t:
        return
    a[s], a[t] = a[t], a[s]
    for row in a:
        row[s], row[t] = row[t], row[s]
    for c in range(filled):
        lmat[s][c], lmat[t][c] = lmat[t][c], lmat[s][c]
    perm[s], perm[t] = perm[t], perm[s]


def reference_elimination(rows):
    """(factorization, whether a 2x2 pivot block was eliminated)."""
    a = _reference_fraction_matrix(rows)
    n = len(a)
    zero = Fraction(0)
    one = Fraction(1)
    lmat = [[one if i == j else zero for j in range(n)] for i in range(n)]
    perm = list(range(n))
    pos = neg = nul = 0
    neg_block = None  # (kind, position, pivot value)
    used_block = False
    k = 0
    while k < n:
        p = next((i for i in range(k, n) if a[i][i] != 0), -1)
        if p >= 0:
            _reference_swap(a, lmat, perm, k, k, p)
            d = a[k][k]
            if d > 0:
                pos += 1
            else:
                neg += 1
                if neg_block is None:
                    neg_block = ("1x1", k, d)
            mults = [a[i][k] / d for i in range(k + 1, n)]
            for off, m in enumerate(mults):
                i = k + 1 + off
                if m == 0:
                    continue
                lmat[i][k] = m
                rk = a[k]
                ri = a[i]
                for j in range(k + 1, n):
                    ri[j] -= m * rk[j]
            for i in range(k + 1, n):
                a[i][k] = zero
                a[k][i] = zero
            k += 1
            continue
        pivot = None
        for i in range(k, n):
            for j in range(i + 1, n):
                if a[i][j] != 0:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            nul += n - k
            break
        used_block = True
        i0, j0 = pivot
        _reference_swap(a, lmat, perm, k, k, i0)
        if j0 == k:
            j0 = i0
        _reference_swap(a, lmat, perm, k, k + 1, j0)
        av = a[k][k + 1]
        pos += 1
        neg += 1
        if neg_block is None:
            neg_block = ("2x2", k, av)
        us = [a[i][k] for i in range(k + 2, n)]
        vs = [a[i][k + 1] for i in range(k + 2, n)]
        for off in range(len(us)):
            i = k + 2 + off
            if vs[off]:
                lmat[i][k] = vs[off] / av
            if us[off]:
                lmat[i][k + 1] = us[off] / av
        for ioff in range(len(us)):
            i = k + 2 + ioff
            ui, vi = us[ioff], vs[ioff]
            if ui == 0 and vi == 0:
                continue
            ri = a[i]
            for joff in range(len(us)):
                j = k + 2 + joff
                ri[j] -= (vi * us[joff] + ui * vs[joff]) / av
        for i in range(k + 2, n):
            a[i][k] = a[k][i] = zero
            a[i][k + 1] = a[k + 1][i] = zero
        k += 2

    direction = None
    value = None
    if neg_block is not None:
        kind, kidx, pv = neg_block
        y = [zero] * n
        if kind == "1x1":
            y[kidx] = one
            value = pv
        else:
            y[kidx] = one
            y[kidx + 1] = one if pv < 0 else -one
            value = -2 * abs(pv)
        z = list(y)
        for i in range(n - 1, -1, -1):
            acc = y[i]
            for j in range(i + 1, n):
                if lmat[j][i]:
                    acc -= lmat[j][i] * z[j]
            z[i] = acc
        v = [zero] * n
        for i in range(n):
            v[perm[i]] = z[i]
        direction = tuple(v)
    fact = SymmetricFactorization(Inertia(pos, neg, nul), direction, value)
    return fact, used_block


# --------------------------------------------------------------------------
# Reference: the list elimination that the packed-row one replaced.  It
# keeps the upper triangle of the active block as lists of ints, one
# denominator per row, and builds each pivot row from the column entries of
# the rows above it.  Pivots, row-add congruences and back substitution
# are the same, so the two return the same factorization, value for value.

def _reference_full_row(tri, den, q):
    d = math.lcm(*den[:q + 1])
    col = [tri[v][q - v] * (d // den[v]) for v in range(q)]
    return col + (tri[q] if d == den[q] else [e * (d // den[q]) for e in tri[q]]), d


def reference_list_elimination(rows):
    a, scale = exact._integer_matrix(rows)
    n = len(a)
    act, order = list(range(n)), list(range(n))
    tri, den = [a[i][i:] for i in range(n)], [1] * n
    cols, adds = [], []
    neg, value, det = 0, None, 1
    while act:
        for s, x in enumerate(order):
            q = bisect_left(act, x)
            if tri[q][0]:
                break
        else:
            t, u = next(((t, t + j) for t, row in enumerate(tri) for j, e in enumerate(row) if e),
                        (0, 0))
            if t == u:
                break
            ry, dy = _reference_full_row(tri, den, u)
            d = math.lcm(den[t], dy)
            tri[t] = [d // den[t] * e + d // dy * w for e, w in zip(tri[t], ry[t:])]
            tri[t][0], den[t] = 2 * d // dy * ry[t], d
            for v in range(t):
                tri[v][t - v] += tri[v][u - v]
            for kept_act, kept, _ in cols:
                kept[bisect_left(kept_act, act[t])] += kept[bisect_left(kept_act, act[u])]
            adds.append((act[t], act[u]))
            continue
        pr, pd = _reference_full_row(tri, den, q)
        p = pr[q]
        if value is None:
            cols.append((act, pr, q))
            if p < 0:
                value = Fraction(p, pd * scale)
        det = det * p // pd
        neg += p < 0
        order[s] = order[0]
        del order[0]
        for t, c in enumerate(pr):
            if not c or t == q:
                continue
            row, dt = tri[t], den[t]
            k, r = divmod(c * dt, p * pd)
            if not r:
                tri[t] = (list(map(sub, row, pr[t:])) if k == 1
                          else [e - k * v for e, v in zip(row, pr[t:])])
                continue
            g = math.gcd(dt, pd)
            f, k, dt = p * (pd // g), c * (dt // g), p * (pd // g) * dt
            if p < 0:
                f, k, dt = -f, -k, -dt
            g = math.gcd(dt, det)
            h = dt // g
            row = [(f * e - k * v) // h for e, v in zip(row, pr[t:])]
            h = math.gcd(g, *row)
            tri[t], den[t] = [e // h for e in row] if h > 1 else row, g // h
        for t in range(q):
            del tri[t][q - t]
        del tri[q], den[q]
        act = act[:q] + act[q + 1:]
    inertia = Inertia(n - len(act) - neg, neg, len(act))
    if value is None:
        return SymmetricFactorization(inertia, None, None)
    kept_act, _, q = cols.pop()
    z, zden = {kept_act[q]: 1}, 1
    for kept_act, pr, q in reversed(cols):
        s = sum(pr[bisect_left(kept_act, x)] * zx for x, zx in z.items())
        h = pr[q] // math.gcd(s, pr[q])
        if h > 1:
            z, zden = {x: zx * h for x, zx in z.items()}, zden * h
        z[kept_act[q]] = -s * h // pr[q]
    v = [z.get(x, 0) if zden == 1 else Fraction(z.get(x, 0), zden) for x in range(n)]
    for i, j in reversed(adds):
        v[j] += v[i]
    return SymmetricFactorization(inertia, tuple(v), value)


def assert_matches_list_reference(rows):
    """The same factorization as the list kernel, down to the type of each
    witness entry (ints when the back substitution needs no denominator)."""
    fact = symmetric_elimination(rows)
    ref = reference_list_elimination(rows)
    assert fact == ref
    assert [type(c) for c in fact.negative_direction or ()] == \
        [type(c) for c in ref.negative_direction or ()]


def reference_quadratic_form(rows, v):
    """v^T A v by Fraction arithmetic on every entry."""
    n = len(rows)
    total = Fraction(0)
    vf = [Fraction(c) for c in v]
    for i in range(n):
        if vf[i] == 0:
            continue
        acc = Fraction(0)
        for j in range(n):
            if vf[j]:
                acc += Fraction(rows[i][j]) * vf[j]
        total += vf[i] * acc
    return total


def assert_matches_reference(rows):
    """Identical factorization unless the reference needed a 2x2 block;
    then identical inertia and a witness that replays exactly.  Returns
    whether the block occurred.  Always identical to the list kernel."""
    assert_matches_list_reference(rows)
    fact = symmetric_elimination(rows)
    ref, used_block = reference_elimination(rows)
    if not used_block:
        assert fact == ref
    assert fact.inertia == ref.inertia
    assert (fact.negative_direction is None) == fact.is_psd
    if not fact.is_psd:
        assert quadratic_form(rows, fact.negative_direction) == fact.negative_value < 0
    return used_block


def symmetric_from_upper(n, upper):
    rows = [[Fraction(0)] * n for _ in range(n)]
    it = iter(upper)
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = next(it)
    return rows


small_rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
)


@st.composite
def rational_symmetric_matrices(draw, max_n=9):
    n = draw(st.integers(1, max_n))
    m = n * (n + 1) // 2
    return symmetric_from_upper(n, draw(st.lists(small_rationals, min_size=m, max_size=m)))


@settings(max_examples=300, deadline=None)
@given(rational_symmetric_matrices())
def test_matches_reference_on_random_rational_matrices(rows):
    assert_matches_reference(rows)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 9), st.data())
def test_matches_reference_on_rank_deficient_outer_products(n, data):
    rank = data.draw(st.integers(1, n - 1))
    rows = [[Fraction(0)] * n for _ in range(n)]
    for _ in range(rank):
        u = data.draw(st.lists(small_rationals, min_size=n, max_size=n))
        sign = data.draw(st.sampled_from((-1, 1)))
        for i in range(n):
            for j in range(n):
                rows[i][j] += sign * u[i] * u[j]
    assert_matches_reference(rows)
    fact = symmetric_elimination(rows)
    assert fact.inertia.zero >= n - rank


@pytest.mark.parametrize("make,d,bound", [
    (divisor_lattice, 1, 12), (divisor_lattice, 2, 4), (min_lattice, 1, 10),
    (min_lattice, 2, 4), (min_lattice, 3, 2),
])
def test_matches_reference_on_summatory_meet_matrices(make, d, bound):
    rng = random.Random(1000 * d + bound)
    lat = make(d)
    for _ in range(6):
        g = {}
        f = summatory_function(
            lat, lambda z: g.setdefault(z, Fraction(rng.randint(-3, 4), rng.randint(1, 3))),
            certify_nonneg=False)
        m = meet_matrix(lat.covering_set(bound), f)
        assert_matches_reference(m.rows)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(divisor_lattice, 1, 12), (divisor_lattice, 2, 4), (divisor_lattice, 3, 2),
                        (min_lattice, 1, 10), (min_lattice, 2, 4), (min_lattice, 3, 2)]),
       st.data())
def test_permuted_summatory_meet_matrices(case, data):
    # P A P^T with A = E diag(g) E^T: member order is no linear extension
    # here, so multipliers that the pivot does not divide and row
    # denominators above 1 occur; the inertia is still the sign counts of g
    make, d, bound = case
    lat = make(d)
    s = lat.covering_set(bound)
    g = {z: data.draw(small_rationals) for z in s.members}
    rows = meet_matrix(s, summatory_function(lat, g.__getitem__, certify_nonneg=False)).rows
    perm = data.draw(st.permutations(range(len(rows))))
    permuted = [[rows[i][j] for j in perm] for i in perm]
    fact = symmetric_elimination(permuted)
    signs = (sum(v > 0 for v in g.values()), sum(v < 0 for v in g.values()),
             sum(v == 0 for v in g.values()))
    assert fact.inertia.as_tuple() == signs
    assert_matches_reference(permuted)


HYPERBOLIC = [[0, 1], [1, 0]]


def direct_sum(*blocks):
    n = sum(len(b) for b in blocks)
    rows = [[Fraction(0)] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                rows[at + i][at + j] = Fraction(v)
        at += len(b)
    return rows


@pytest.mark.parametrize("blocks,inertia", [
    ([HYPERBOLIC], (1, 1, 0)),
    ([HYPERBOLIC, HYPERBOLIC], (2, 2, 0)),
    ([HYPERBOLIC, HYPERBOLIC, HYPERBOLIC], (3, 3, 0)),
    ([[[0, -3], [-3, 0]], [[0, Fraction(1, 2)], [Fraction(1, 2), 0]]], (2, 2, 0)),
    ([[[0, 0], [0, 0]], HYPERBOLIC], (1, 1, 2)),
    ([[[2]], HYPERBOLIC, [[0]]], (2, 1, 1)),
    ([[[0, 1, 1], [1, 0, 1], [1, 1, 0]]], (1, 2, 0)),
    ([[[0, 2, 0, 0], [2, 0, 1, 0], [0, 1, 0, 3], [0, 0, 3, 0]]], (2, 2, 0)),
])
def test_all_zero_diagonal_blocks(blocks, inertia):
    rows = direct_sum(*blocks)
    assert assert_matches_reference(rows)
    assert symmetric_elimination(rows).inertia.as_tuple() == inertia


def test_all_zero_diagonal_after_a_negative_pivot_keeps_the_witness():
    # the first pivot (-5) is negative; the hyperbolic block comes later
    rows = direct_sum([[-5]], HYPERBOLIC, [[0, 2], [2, 0]])
    fact = symmetric_elimination(rows)
    assert fact.inertia.as_tuple() == (2, 3, 0)
    assert fact.negative_direction == (1, 0, 0, 0, 0)
    assert fact.negative_value == -5


def test_scaled_integer_elimination_keeps_inertia_of_tiny_entries():
    rows = [[Fraction(1, 10 ** 30), Fraction(1, 3)], [Fraction(1, 3), Fraction(1, 7)]]
    fact = symmetric_elimination(rows)
    assert fact.inertia.as_tuple() == (1, 1, 0)
    assert quadratic_form(rows, fact.negative_direction) == fact.negative_value < 0
    assert_matches_reference(rows)



@pytest.mark.parametrize("big", [2 ** 14 - 1, 2 ** 30, 2 ** 62, 2 ** 100])
def test_matches_list_reference_at_each_field_width(big):
    # entries at the top of a 16-, 32- and 64-bit field and inside a 128-bit
    # one, of both signs and next to small ones; a row update leaves the
    # field the matrix started with
    rng = random.Random(big % 1_000_003)
    values = (0, 1, -1, 2, big, -big, big - 1, 1 - big)
    for _ in range(60):
        n = rng.randint(1, 8)
        assert_matches_list_reference(
            symmetric_from_upper(n, [rng.choice(values) for _ in range(n * (n + 1) // 2)]))


def test_fields_widen_as_the_scaled_rows_grow(monkeypatch):
    # tridiagonal (1, 3, 1): the pivot block determinants, and with them
    # the scaled rows, grow by (3 + 5 ** 0.5) / 2 > 2 at every pivot; the
    # last pivot is negative, so the witness runs back over pivot rows kept
    # at every width
    n = 60
    rows = [[3 if i == j else int(abs(i - j) == 1) for j in range(n)] for i in range(n)]
    rows[-1][-1] = -3
    widths = []
    repacked = exact._repacked

    def spy(packed, fields, bound):
        wide = repacked(packed, fields, bound)
        widths.append(wide.w)
        return wide

    monkeypatch.setattr(exact, "_repacked", spy)
    assert_matches_list_reference(rows)
    assert widths[:3] == [32, 64, 128]
    fact = symmetric_elimination(rows)
    assert fact.inertia.as_tuple() == (n - 1, 1, 0)
    assert quadratic_form(rows, fact.negative_direction) == fact.negative_value < 0


# Runs in a fresh interpreter: the exact oracle on a 100 x 100 summatory
# meet matrix, then whether NumPy was imported.
ORACLE_PROBE = """
import sys
from meetpd import divisor_lattice, meet_matrix, psd_oracle, summatory_function
lat = divisor_lattice(2)
f = summatory_function(lat, lambda z: (7 * z[0] + 3 * z[1]) % 5 - 1, certify_nonneg=False)
rep = psd_oracle(meet_matrix(lat.covering_set(10), f))
print(rep.method, list(rep.inertia), "numpy" in sys.modules)
"""


def test_exact_oracle_does_not_import_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", ORACLE_PROBE],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    g = [(7 * a + 3 * b) % 5 - 1 for a in range(1, 11) for b in range(1, 11)]
    inertia = [sum(v > 0 for v in g), sum(v < 0 for v in g), g.count(0)]
    assert proc.stdout.strip() == f"exact {inertia} False"

@settings(max_examples=100, deadline=None)
@given(rational_symmetric_matrices(), st.data())
def test_quadratic_form_matches_fraction_reference(rows, data):
    v = data.draw(st.lists(small_rationals, min_size=len(rows), max_size=len(rows)))
    assert quadratic_form(rows, v) == reference_quadratic_form(rows, v)


def test_quadratic_form_accepts_ints_floats_and_strings():
    rows = [[1, 2.5], [2.5, "1/3"]]
    assert quadratic_form(rows, [1, "-1/2"]) == Fraction(1) - Fraction(5, 2) + Fraction(1, 12)
    assert quadratic_form(rows, [0, 0]) == 0


def random_symmetric(rng, n, lo=-6, hi=6):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = Fraction(rng.randint(lo, hi))
            rows[i][j] = rows[j][i] = v
    return rows


def numpy_inertia(rows, tol=1e-8):
    eigs = np.linalg.eigvalsh(np.array([[float(v) for v in r] for r in rows]))
    scale = max(1.0, float(np.max(np.abs(eigs))))
    pos = int(np.sum(eigs > tol * scale))
    neg = int(np.sum(eigs < -tol * scale))
    return pos, neg, len(eigs) - pos - neg


def test_inertia_matches_float_eigenvalues_on_random_matrices():
    rng = random.Random(41)
    for _ in range(120):
        n = rng.randint(1, 7)
        rows = random_symmetric(rng, n)
        inertia = symmetric_elimination(rows).inertia
        assert inertia.as_tuple() == numpy_inertia(rows)


def test_zero_matrix_is_psd():
    rows = [[Fraction(0)] * 3 for _ in range(3)]
    fact = symmetric_elimination(rows)
    assert fact.is_psd
    assert fact.inertia.as_tuple() == (0, 0, 3)
    assert fact.negative_direction is None


def test_hyperbolic_block_inertia():
    rows = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    fact = symmetric_elimination(rows)
    assert fact.inertia.as_tuple() == (1, 1, 0)
    assert not fact.is_psd
    v = fact.negative_direction
    assert quadratic_form(rows, v) == fact.negative_value < 0


def test_negative_direction_replays_negative():
    rng = random.Random(53)
    found = 0
    while found < 60:
        n = rng.randint(2, 8)
        rows = random_symmetric(rng, n)
        fact = symmetric_elimination(rows)
        if fact.is_psd:
            continue
        value = quadratic_form(rows, fact.negative_direction)
        assert value == fact.negative_value
        assert value < 0
        found += 1


def test_gcd_matrices_are_positive_definite():
    for n in [1, 2, 5, 10]:
        rows = [[Fraction(math.gcd(i, j)) for j in range(1, n + 1)] for i in range(1, n + 1)]
        fact = symmetric_elimination(rows)
        assert fact.inertia.as_tuple() == (n, 0, 0)


def test_rank_deficient_psd():
    # outer product of (1, 2, 3) with itself: rank 1, PSD
    v = [1, 2, 3]
    rows = [[Fraction(a * b) for b in v] for a in v]
    fact = symmetric_elimination(rows)
    assert fact.is_psd
    assert fact.inertia.as_tuple() == (1, 0, 2)


def test_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        symmetric_elimination([[1, 2], [3, 4]])


def test_rejects_nonsquare():
    with pytest.raises(ValueError):
        symmetric_elimination([[1, 2, 3], [2, 1, 1]])


# --------------------------------------------------------------------------
# A meet matrix is packed from its factor meet tables (KronMatrix); the
# list path packs the same entries gathered to n^2 rows.

def _builtin_on(make, d, bound, name, alpha=None):
    lat = make(d)
    return meet_matrix(lat.covering_set(bound), to_lattice_function(builtin(name, alpha, d), lat))


def _signed_summatory(make, d, bound, seed):
    rng, lat = random.Random(seed), make(d)
    g = {}
    f = summatory_function(lat, lambda z: g.setdefault(z, rng.randint(-3, 4)), certify_nonneg=False)
    return meet_matrix(lat.covering_set(bound), f)


def _hasse_matrix():
    # M3 with a top: 0 < a, b, c < t, values with a negative Mobius inversion
    lat = load_hasse(["elem 0", "elem a", "elem b", "elem c", "elem t", "edge 0 a", "edge 0 b",
                      "edge 0 c", "edge a t", "edge b t", "edge c t"])
    values = {"0": 1, "a": 3, "b": -2, "c": Fraction(5, 2), "t": 4}
    return meet_matrix(subset(lat, list(values)), table_function(lat, values))


def _reconstructed():
    lat = divisor_lattice(2)
    f = summatory_function(lat, lambda z: Fraction(z[0] - z[1], z[0] + 1), certify_nonneg=False)
    return reconstruct(kron_decompose_d(lat.covering_set(6).factors, f))


KRON_CASES = {
    "divisor1": lambda: _builtin_on(divisor_lattice, 1, 16, "gcd_pow", 1),
    "divisor1_wide": lambda: _builtin_on(divisor_lattice, 1, 64, "gcd_pow", -1),  # w = 128
    "divisor2": lambda: _signed_summatory(divisor_lattice, 2, 6, 1),
    "divisor2_wide": lambda: _builtin_on(divisor_lattice, 2, 6, "lcm_pow", 20),  # w = 128
    "divisor3": lambda: _builtin_on(divisor_lattice, 3, 3, "lcm_pow", 1),
    "min1_fractions": lambda: _builtin_on(min_lattice, 1, 20, "gcd_pow", -1),
    "min2": lambda: _signed_summatory(min_lattice, 2, 5, 2),
    "min3": lambda: _builtin_on(min_lattice, 3, 3, "mu_d"),
    "not_meet_closed": lambda: meet_matrix(subset(divisor_lattice(), [4, 6, 9, 10, 15]),
                                           builtin("gcd_pow", 1)),
    "not_meet_closed_product": lambda: meet_matrix(
        product_subset([subset(divisor_lattice(), [6, 10, 15]), subset(divisor_lattice(), [2, 3])]),
        builtin("lcm_pow", 1, 2)),
    "hasse": _hasse_matrix,
    "reconstructed": _reconstructed,
}


@pytest.mark.parametrize("case", sorted(KRON_CASES))
def test_a_meet_matrix_packs_from_its_tables_as_its_gathered_rows(case):
    m = KRON_CASES[case]()
    rows, den = m.integer_rows()
    assert len(m.kron) == len(rows) == m.n and list(m.kron) == rows
    packed, bound, diag, fields, scale = exact._packed_rows(m.kron)
    expected = exact._packed_rows(rows)
    assert (packed, bound, diag, fields.w, fields.lo, scale) == (
        expected[0], expected[1], expected[2], expected[3].w, expected[3].lo, 1)
    assert symmetric_elimination(m.kron) == symmetric_elimination(rows)
    assert case != "min1_fractions" or den > 1


@pytest.mark.parametrize("case", sorted(KRON_CASES))
def test_the_oracle_reports_a_meet_matrix_as_its_rational_rows(case):
    m = KRON_CASES[case]()
    got, want = psd_oracle(m), psd_oracle(m.rows)
    assert (got.is_psd, got.method, got.inertia) == (want.is_psd, "exact", want.inertia)
    assert got.min_eigenvalue == want.min_eigenvalue  # read from the gathered rows
    if not got.is_psd:
        assert got.witness.labels == tuple(m.subset.members)
        assert (got.witness.vector, got.witness.value) == (want.witness.vector, want.witness.value)
        assert quadratic_form(m.rows, got.witness.vector) == got.witness.value < 0


@pytest.mark.parametrize("nums,tables", [
    ([1, 2, 3, 4], [[[0, 1], [2, 3]]]),  # asymmetric
    ([1, 2, 3], [[[0, 1], [1, 2]], [[0, 1]]]),  # not square
    ([1, Fraction(1, 2), 3], [[[0, 1], [1, 2]]]),  # not ints
    ([1.0, 2, 3], [[[0, 1], [1, 2]]]),
])
def test_a_kron_matrix_of_a_bad_table_or_values_is_refused(nums, tables):
    strides = [len(t) for t in tables[1:]] + [1]
    with pytest.raises(ValueError):
        symmetric_elimination(KronMatrix(nums, tables, strides))


def test_char_poly_known_cases():
    assert char_poly([[Fraction(5)]]) == (1, -5)
    # identity 2x2: (lambda - 1)^2
    assert char_poly([[1, 0], [0, 1]]) == (1, -2, 1)
    # [[2, 1], [1, 2]]: lambda^2 - 4 lambda + 3
    assert char_poly([[2, 1], [1, 2]]) == (1, -4, 3)


def test_char_poly_matches_numpy():
    rng = random.Random(67)
    for _ in range(40):
        n = rng.randint(1, 6)
        rows = random_symmetric(rng, n, -4, 4)
        coeffs = char_poly(rows)
        expected = np.poly(np.array([[float(v) for v in r] for r in rows]))
        assert np.allclose([float(c) for c in coeffs], expected, atol=1e-6)
