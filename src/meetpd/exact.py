"""Exact rational sums, and exact linear algebra for symmetric matrices.

Symmetric congruence elimination with diagonal pivoting decides inertia
(and hence positive semidefiniteness) without any tolerance.  The
elimination is fraction-free (Bareiss 1968, "Sylvester's identity and
multistep integer-preserving Gaussian elimination"): the matrix is first
multiplied by the lcm of its denominators, a positive scalar congruence
that keeps the inertia (rows that are all ints are taken as they are, so
a caller holding the matrix as ints over a common denominator, as a
MeetMatrix does, skips that conversion), and every active entry is then
an integer bordered minor of the leading pivot block, so each update
divides exactly by the previous pivot.  The pivot is the largest |diagonal|
(first in search order on ties).  When the active block has an all-zero
diagonal but a nonzero entry a_ij, the unimodular congruence "add row
and column j to row and column i" makes a_ii = 2 a_ij the next pivot, so
the elimination always runs to completion.  For matrices that are not
positive semidefinite, a rational vector v with v^T A v < 0 is reported:
v = P^T L^-T e_k for the first negative pivot k of P A P^T = L D L^T,
computed fraction-free as the adjugate column adj(B) e_k of the leading
pivot block B (and mapped back through any row-add congruences).
"""

import math
from collections import namedtuple
from fractions import Fraction
from itertools import chain


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
    for row in a:
        if len(row) != n:
            raise ValueError("matrix must be square")
    if a != [list(col) for col in zip(*a)]:
        i, j = next((i, j) for i in range(n) for j in range(i + 1, n) if a[i][j] != a[j][i])
        raise ValueError(f"matrix is not symmetric at ({i}, {j})")
    return a, c


def _entry(tri, t, u):
    return tri[t][u - t] if t <= u else tri[u][t - u]


def symmetric_elimination(rows):
    """Exact inertia of a symmetric rational matrix by pivoted elimination."""
    a, scale = _integer_matrix(rows)
    n = len(a)
    act = list(range(n))  # active indices, ascending
    tri = [a[i][i:] for i in range(n)]  # tri[t][u - t]: entry (act[t], act[u]), t <= u
    order = list(range(n))  # active indices in pivot search order
    pivots = []  # eliminated indices, in pivot order
    saved = []  # bordered pivot rows {index: entry}, up to the first negative pivot
    adds = []  # row-add congruences (i, j): row and column j added to i
    prev = 1  # previous pivot = leading principal minor of the eliminated block
    pos = neg = 0
    first_negative = None
    while act:
        where = {x: t for t, x in enumerate(act)}
        q = -1
        best = 0
        for s, x in enumerate(order):
            d = abs(tri[where[x]][0])
            if d > best:
                q, qs, best = where[x], s, d
        if q < 0:
            pair = next(((x, y) for s, x in enumerate(order) for y in order[s + 1:]
                         if _entry(tri, where[x], where[y])), None)
            if pair is None:
                break
            # all active diagonal entries are zero: add row/column y to x
            x, y = pair
            t, u = where[x], where[y]
            row = [_entry(tri, t, v) + _entry(tri, u, v) for v in range(len(act))]
            row[t] = 2 * _entry(tri, t, u)
            for v in range(t):
                tri[v][t - v] = row[v]
            tri[t] = row[t:]
            for kept in saved:
                kept[x] += kept[y]
            adds.append(pair)
            continue
        piv = tri[q][0]
        r = [tri[t][q - t] for t in range(q)] + tri[q]
        if first_negative is None:
            saved.append(dict(zip(act, r)))
        if (piv > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
            if first_negative is None:
                first_negative = len(pivots)
        pivots.append(act[q])
        order[qs] = order[0]
        del order[0]
        del act[q], r[q], tri[q]
        for t in range(q):
            del tri[t][q - t]
        tri = [[(piv * e - c * rj) // prev for e, rj in zip(row, r[t:])]
               for t, (row, c) in enumerate(zip(tri, r))]
        prev = piv
    inertia = Inertia(pos, neg, n - pos - neg)
    if first_negative is None:
        return SymmetricFactorization(inertia, None, None)
    # y = adj(B) e_k by fraction-free back substitution on the saved rows:
    # U[i][i] y_i = -sum_{j > i} U[i][j] y_j, with y_k = det of B's leading k block
    k = first_negative
    lead = pivots[:k + 1]
    minors = [1] + [r[x] for r, x in zip(saved, lead)]
    y = {lead[k]: minors[k]}
    for i in range(k - 1, -1, -1):
        r = saved[i]
        y[lead[i]] = -sum(r[x] * y[x] for x in lead[i + 1:]) // minors[i + 1]
    v = [Fraction(0)] * n
    for x, yx in y.items():
        v[x] = Fraction(yx, minors[k])
    for i, j in reversed(adds):
        v[j] += v[i]
    value = Fraction(minors[k + 1], minors[k] * scale)
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
