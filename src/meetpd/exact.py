"""Exact rational sums, and exact linear algebra for symmetric matrices.

Symmetric congruence elimination decides inertia with no tolerance, on
the matrix times the lcm of its denominators (int rows are taken as they
are).  The pivot is the first nonzero diagonal in search order, member
order for a meet matrix, whose Schur complements are then meet matrices
with 0/1 multipliers (Haukkanen 1996).  Each active row is ints over its
own denominator: it is skipped if its pivot-column entry is 0, takes an
int multiple of the pivot row if there is one, and else is cross-multiplied
and divided by common factors, to a divisor of the pivot block's
determinant (the Bareiss 1968 bound).  An all-zero active diagonal with
a_ij != 0 takes the congruence "add row and column j to i".  The witness
of the first negative pivot k of P A P^T = L D L^T is v = P^T L^-T e_k,
by back substitution, mapped back through the row-add congruences.
"""

import math
from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction
from itertools import chain
from operator import sub


class Inertia(namedtuple("Inertia", "positive negative zero")):
    __slots__ = ()

    def as_tuple(self):
        return tuple(self)


class SymmetricFactorization(
        namedtuple("SymmetricFactorization", "inertia negative_direction negative_value")):
    __slots__ = ()

    @property
    def is_psd(self):
        return self.inertia.negative == 0


def _rational(v):
    return v if isinstance(v, (int, Fraction)) else Fraction(v)


def rational_sum(terms):
    """Exact sum of v * w over (value, int weight) pairs, as one Fraction.

    Values are ints or Fractions.  The sum runs on ints over one running
    common denominator, raised only when a term's denominator does not
    divide it, so the only Fraction built (and reduced) is the result.
    """
    num, den = 0, 1
    for v, w in terms:
        vd = v.denominator
        if den % vd:
            s = vd // math.gcd(den, vd)
            num *= s
            den *= s
        num += v.numerator * (den // vd) * w
    return Fraction(num, den)


def _integer_matrix(rows):
    """The matrix times the lcm c of its denominators, as ints, and c.

    Rows of ints are taken as they are, with c = 1.
    """
    if set(map(type, chain.from_iterable(rows))) <= {int}:
        a, c = [list(row) for row in rows], 1
    else:
        q = [[_rational(v) for v in row] for row in rows]
        c = math.lcm(*{v.denominator for row in q for v in row})
        a = [[v.numerator * (c // v.denominator) for v in row] for row in q]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    if a != [list(col) for col in zip(*a)]:
        i, j = next((i, j) for i in range(n) for j in range(i + 1, n) if a[i][j] != a[j][i])
        raise ValueError(f"matrix is not symmetric at ({i}, {j})")
    return a, c


def _full_row(tri, den, q):
    """Row q of the active block, as ints over one positive denominator, and that denominator."""
    d = math.lcm(*den[:q + 1])
    col = [tri[v][q - v] * (d // den[v]) for v in range(q)]
    return col + (tri[q] if d == den[q] else [e * (d // den[q]) for e in tri[q]]), d


def symmetric_elimination(rows):
    """Exact inertia of a symmetric rational matrix by pivoted elimination."""
    a, scale = _integer_matrix(rows)
    n = len(a)
    act, order = list(range(n)), list(range(n))  # active indices: ascending, in search order
    tri, den = [a[i][i:] for i in range(n)], [1] * n  # tri[t][u - t] / den[t]: a[act[t]][act[u]]
    cols = []  # (active indices, pivot row, its position), up to the first negative pivot
    adds = []  # row-add congruences (i, j): row and column j added to i
    neg, value = 0, None  # the number of negative pivots, and the first one
    det = 1  # determinant of the pivot block; det times an active entry is an int
    while act:
        for s, x in enumerate(order):
            q = bisect_left(act, x)
            if tri[q][0]:
                break
        else:  # the active diagonal is zero: add row/column u to t, the first a_tu != 0
            t, u = next(((t, t + j) for t, row in enumerate(tri) for j, e in enumerate(row) if e),
                        (0, 0))
            if t == u:
                break  # the active block is zero
            ry, dy = _full_row(tri, den, u)
            d = math.lcm(den[t], dy)
            tri[t] = [d // den[t] * e + d // dy * w for e, w in zip(tri[t], ry[t:])]
            tri[t][0], den[t] = 2 * d // dy * ry[t], d
            for v in range(t):
                tri[v][t - v] += tri[v][u - v]
            for kept_act, kept, _ in cols:
                kept[bisect_left(kept_act, act[t])] += kept[bisect_left(kept_act, act[u])]
            adds.append((act[t], act[u]))
            continue
        pr, pd = _full_row(tri, den, q)
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
                continue  # a zero multiplier leaves the row as it is
            row, dt = tri[t], den[t]
            k, r = divmod(c * dt, p * pd)
            if not r:  # row - k * pivot row, over dt
                tri[t] = (list(map(sub, row, pr[t:])) if k == 1
                          else [e - k * v for e, v in zip(row, pr[t:])])
                continue
            g = math.gcd(dt, pd)  # over p lcm(dt, pd), then divided back
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
    inertia = Inertia(n - len(act) - neg, neg, len(act))  # act: the zero block left
    if value is None:
        return SymmetricFactorization(inertia, None, None)
    # z = L^-T e_k on ints over zden, by back substitution: L[j][i] = pr_i[j] / pr_i[q_i]
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


def quadratic_form(rows, v):
    """v^T A v in exact arithmetic.

    v and the block of A on v's support are scaled to integers by the lcm
    of their denominators, so the sum runs on ints and is divided once.
    """
    vq = [_rational(c) for c in v]
    support = [i for i, c in enumerate(vq) if c]
    block = [[_rational(rows[i][j]) for j in support] for i in support]
    vden = math.lcm(*(vq[i].denominator for i in support))
    aden = math.lcm(*{x.denominator for row in block for x in row})
    w = [vq[i].numerator * (vden // vq[i].denominator) for i in support]
    total = sum(wi * sum(x.numerator * (aden // x.denominator) * wj for x, wj in zip(row, w))
                for wi, row in zip(w, block))
    return Fraction(total, aden * vden * vden)


def char_poly(rows):
    """Coefficients of det(lambda I - A), leading coefficient first.

    Faddeev-LeVerrier recurrence, run on ints: on B = c A (c the lcm of
    A's denominators) every coefficient and iterate is an integer, and A's
    k-th coefficient is B's over c**k.  Returns (1, c1, ..., cn) for
    lambda^n + c1 lambda^(n-1) + ... + cn.
    """
    b, c = _integer_matrix(rows)
    n = len(b)
    coeffs = [1]
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        cols = list(zip(*m))
        m = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in b]
        coeffs.append(-sum(m[i][i] for i in range(n)) // k)
        for i in range(n):
            m[i][i] += coeffs[k]
    return tuple(Fraction(ck, c ** k) for k, ck in enumerate(coeffs))
