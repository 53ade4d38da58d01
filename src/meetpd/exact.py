"""Exact rational sums, and exact linear algebra for symmetric matrices.

Symmetric congruence elimination decides inertia with no tolerance, on
the matrix times the lcm of its denominators (int rows are taken as they
are).  The pivot is the first nonzero diagonal in search order, member
order for a meet matrix, whose Schur complements are then meet matrices
with 0/1 multipliers (Haukkanen 1996).  Each row is a full row of n
entries over its own denominator, packed into one int of n signed w-bit
fields, so "row minus k times the pivot row" is one big-int subtraction;
the n x n matrix takes n^2 w / 8 bytes.  w starts from the largest entry.
A ``KronMatrix``, a meet matrix on its meet tables, is packed chunk by
chunk: a row is one join of the bytes of its chunks, each encoded once,
all the chunks at one prefix point in one encoding; with one prefix point
(d = 1) a chunk is a row, encoded as it is packed.
Each row keeps a bound on its fields, raised at each update by what the
pivot row's largest field can add; when a bound would leave its field,
the row's bound is first refreshed from its fields, and if that is not
enough every row is unpacked and repacked at a wider w.  Once the lowest
active column is past half of the stored ones (pivots in member order
eliminate the low columns first), every row drops the columns below it.
The pivot row is unpacked once per pivot, for its multipliers and its
bound.  A row with an int multiplier takes the int multiple of the pivot
row; any other is cross-multiplied and divided by a divisor of the pivot
block's determinant (the Bareiss 1968 bound), which divides every field
at once.  An all-zero active diagonal with a_ij != 0 takes the
congruence "add row and column j to i".  The witness of the first
negative pivot k of P A P^T = L D L^T is v = P^T L^-T e_k, by back
substitution over the pivot rows, mapped back through the row-add
congruences.
"""

import math
import sys
from array import array
from collections import namedtuple
from fractions import Fraction
from itertools import chain, compress

_TYPECODES = {array(t).itemsize * 8: t for t in "hiq"}  # field width in bits: array typecode
_BIG_ENDIAN = sys.byteorder == "big"


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


def _native(fields):
    """An array read from or written as little-endian bytes, in native byte order."""
    if _BIG_ENDIAN:
        fields.byteswap()
    return fields


def _width(bound):
    """The field width, 16, 32 or a multiple of 64 bits, that holds -bound .. bound.

    Below 16 bits, a meet matrix of 1,024 members spends more on reading
    its rows' bounds back than 8-bit fields save.
    """
    bits = bound.bit_length() + 1
    return next((w for w in (16, 32) if bits <= w), -(-bits // 64) * 64)


class _Fields:
    """Rows of signed w-bit fields, each row one int: the sum of e_i << (w * (i - lo)).

    Field i holds column i, for lo <= i < n; the columns below lo are zero
    in every row and not stored.  Adding two such ints, or scaling one,
    does so to every field at once, and the result is exact even where a
    field leaves its range; only reading the fields back needs each in
    -2**(w-1) .. 2**(w-1) - 1.  To read, adding the bias (2**(w-1) in every
    field) makes the fields unsigned, so no borrow crosses them, and xor
    with the bias leaves each field's two's complement bytes.
    """

    def __init__(self, n, w, lo=0):
        self.n, self.w, self.lo = n, w, lo
        self.limit = 1 << (w - 1)  # every field is below limit in absolute value
        self.bias = int.from_bytes((bytes(w // 8 - 1) + b"\x80") * (n - lo), "little")

    def encode(self, values):
        """The w-bit fields of a sequence of values, as little-endian bytes."""
        w = self.w
        if w in _TYPECODES:
            return _native(array(_TYPECODES[w], values)).tobytes()
        return b"".join([v.to_bytes(w // 8, "little", signed=True) for v in values])

    def pack(self, data):
        """The row whose fields from column lo on are encoded in data."""
        return (int.from_bytes(data, "little") ^ self.bias) - self.bias

    def unpack(self, row):
        """The n fields of row, those below lo zero: an array for w <= 64, else a list."""
        w, size = self.w, self.n * self.w // 8
        data = ((row + self.bias) ^ self.bias).to_bytes(size - self.lo * w // 8, "little")
        data = bytes(size - len(data)) + data
        if w in _TYPECODES:
            return _native(array(_TYPECODES[w], data))
        wb, zero = w // 8, bytes(w // 8)
        fields = [0] * self.n  # only the nonzero fields are converted
        for i in compress(range(self.n), [data[j:j + wb] != zero for j in range(0, size, wb)]):
            fields[i] = int.from_bytes(data[i * wb:(i + 1) * wb], "little", signed=True)
        return fields


def _peak(fields):
    """The largest absolute value in a nonempty sequence."""
    return max(max(fields), -min(fields))


def _repacked(packed, fields, bound):
    """Repack every row in place at the width that holds bound, and that width's _Fields."""
    wide = _Fields(fields.n, _width(bound), fields.lo)
    packed[:] = [wide.pack(wide.encode(fields.unpack(row)[wide.lo:])) for row in packed]
    return wide


def _trimmed(packed, fields, lo):
    """Drop the columns below lo, zero in every row, from every row in place; the new _Fields."""
    shift = fields.w * (lo - fields.lo)
    packed[:] = [row >> shift for row in packed]
    return _Fields(fields.n, fields.w, lo)


class KronMatrix:
    """The matrix with nums[sum of T_t[i_t][j_t] s_t] at (i, j), i and j index
    tuples in lexicographic order, for ints nums, square symmetric tables T_t
    (lists of lists) and strides s_t: a meet matrix on its factors' meet tables."""

    __slots__ = ("nums", "tables", "strides")

    def __init__(self, nums, tables, strides):
        self.nums, self.tables, self.strides = nums, tables, strides

    def __len__(self):
        return math.prod(map(len, self.tables))

    def __iter__(self):
        return iter(self.gather(self.nums))

    def layout(self):
        """(prefixes, inner): row (h, r), h an index tuple of the first d - 1 tables
        and r a row of the last, is nums[a + b] for a in prefixes[h], b in inner[r]."""
        *outer, inner = [t if s == 1 else [[p * s for p in row] for row in t]
                         for t, s in zip(self.tables, self.strides)]
        prefixes = [[0]]
        for t in outer:
            prefixes = [[a + b for a in acc for b in row] for acc in prefixes for row in t]
        return prefixes, inner

    def gather(self, seq):
        """The rows, with each position p replaced by seq[p]."""
        prefixes, inner = self.layout()
        return [[seq[a + b] for a in prefix for b in row] for prefix in prefixes for row in inner]


def _packed_rows(rows):
    """(packed rows, their bounds, diagonal, _Fields, scale) of the rows times scale,
    the lcm of their denominators.  KronMatrix row (h, r) joins the bytes of the chunks
    nums[a + b], b in inner[r], for a in prefixes[h], each encoded and its peak taken once:
    the chunks at one point a end to end, in one encoding and one pass of peaks, or
    with one prefix point each chunk, a row, encoded as it is packed."""
    if not isinstance(rows, KronMatrix):
        a, scale = _integer_matrix(rows)
        bound = list(map(_peak, a))
        fields = _Fields(len(a), _width(max(bound, default=0)))
        packed = [fields.pack(fields.encode(row)) for row in a]
        return packed, bound, [a[x][x] for x in range(len(a))], fields, scale
    nums = rows.nums
    if not set(map(type, nums)) <= {int}:
        raise ValueError("a KronMatrix holds ints")
    if any(t != [list(col) for col in zip(*t)] for t in rows.tables):
        raise ValueError("a KronMatrix's tables must be square and symmetric")
    prefixes, inner = rows.layout()
    span = max(map(max, inner), default=-1) + 1  # the chunks at a read nums[a:a + span]
    size = len(inner[0])  # inner rows have one length
    chunks = {a: list(map(nums[a:a + span].__getitem__, chain.from_iterable(inner)))
              for a in set(chain.from_iterable(prefixes))}  # a's chunks end to end
    peaks = {a: list(map(max, zip(*[map(abs, vs)] * size))) for a, vs in chunks.items()}
    fields = _Fields(len(rows), _width(max(chain.from_iterable(peaks.values()), default=0)))
    if len(prefixes) > 1:  # a chunk is part of several rows: encode a point's chunks at once
        step = size * fields.w // 8
        data = {a: [blob[i:i + step] for i in range(0, len(blob), step)]
                for a, vs in chunks.items() for blob in [fields.encode(vs)]}
    else:  # one prefix: a chunk is a row, encoded as packed, so no row's bytes are held twice
        data = {a: (fields.encode(vs[i:i + size]) for i in range(0, len(vs), size))
                for a, vs in chunks.items()}
    packed = [fields.pack(b"".join(parts)) for p in prefixes for parts in zip(*map(data.get, p))]
    bound = [max(ps) for p in prefixes for ps in zip(*map(peaks.get, p))]
    diag = [nums[p[h] + row[r]] for h, p in enumerate(prefixes) for r, row in enumerate(inner)]
    return packed, bound, diag, fields, 1


def symmetric_elimination(rows):
    """Exact inertia of a symmetric rational matrix, or KronMatrix, by pivoted elimination."""
    packed, bound, diag, fields, scale = _packed_rows(rows)
    n, den = len(packed), [1] * len(packed)  # packed[x] / den[x]: row x of the active block
    order = list(range(n))  # the active indices, in search order
    cols = []  # (pivot, its packed row and _Fields, len(adds) then), up to the first negative pivot
    adds = []  # row-add congruences (i, j): row and column j added to i
    neg, value = 0, None  # the number of negative pivots, and the first one
    # det times the pivots p / pd is the pivot block's determinant; the product is
    # costly on wide entries, so it is only taken when a cross-multiplied row needs it
    det, pivots = 1, []
    while order:
        for s, x in enumerate(order):
            if diag[x]:
                break
        else:  # the active diagonal is zero: add row/column u to t, the first a_tu != 0
            t = next((t for t in sorted(order) if packed[t]), None)
            if t is None:
                break  # the active block is zero
            u = ((packed[t] & -packed[t]).bit_length() - 1) // fields.w + fields.lo
            ry, du, dt = fields.unpack(packed[u]), den[u], den[t]
            den[t] = d = math.lcm(dt, du)
            bound[t] = bound[t] * (d // dt) + bound[u] * (d // du)
            col = [(v, e * den[v] // du) for v, e in enumerate(ry) if e]  # column u, to column t
            for v, e in col:
                bound[v] += abs(e)
            if max(bound) >= fields.limit:
                fields = _repacked(packed, fields, max(bound))
            packed[t] = packed[t] * (d // dt) + packed[u] * (d // du)
            for v, e in col:
                packed[v] += e << fields.w * (t - fields.lo)
            diag[t] = 2 * ry[t] * (d // du)
            adds.append((t, u))
            continue
        row, pd, p = packed[x], den[x], diag[x]
        pr = fields.unpack(row)
        bp = _peak(pr)
        if value is None:
            cols.append((x, row, fields, len(adds)))
            if p < 0:
                value = Fraction(p, pd * scale)
        pivots.append((p, pd))
        neg += p < 0
        order[s] = order[0]
        del order[0]
        pr[x], pp, limit = 0, p * pd, fields.limit  # pr: the nonzero multipliers
        for t in compress(range(n), pr):
            c, dt = pr[t], den[t]
            k, r = (1, 0) if c * dt == pp else divmod(c * dt, pp)
            if not r:  # row - k * pivot row, over dt
                b = bound[t] + abs(k) * bp
                if b >= limit:  # refresh the row's bound; repack only if that is not enough
                    b = _peak(fields.unpack(packed[t])) + abs(k) * bp
                    if b >= limit:
                        fields = _repacked(packed, fields, b)
                        row, limit = packed[x], fields.limit
                packed[t] -= row if k == 1 else k * row
                diag[t] -= k * c
                bound[t] = b
                continue
            g = math.gcd(dt, pd)  # over p lcm(dt, pd), then divided back
            f, k, dt = p * (pd // g), c * (dt // g), p * (pd // g) * dt
            if p < 0:
                f, k, dt = -f, -k, -dt
            if pivots:  # det times an active entry is an int
                det = det * math.prod(p for p, _ in pivots) // math.prod(d for _, d in pivots)
                pivots.clear()
            g = math.gcd(dt, det)
            h = dt // g  # divides every field of f * row - k * pivot row
            b = (abs(f) * bound[t] + abs(k) * bp) // h
            if b >= limit:  # as above
                b = (abs(f) * _peak(fields.unpack(packed[t])) + abs(k) * bp) // h
                if b >= limit:
                    fields = _repacked(packed, fields, b)
                    row, limit = packed[x], fields.limit
            packed[t], den[t], bound[t] = (f * packed[t] - k * row) // h, g, b
            diag[t] = (f * diag[t] - k * c) // h
        packed[x] = bound[x] = 0
        if order and 2 * (order[0] - fields.lo) >= n - fields.lo and order[0] == min(order):
            # half the stored columns are eliminated: in member order, the low ones
            fields = _trimmed(packed, fields, order[0])
    inertia = Inertia(n - len(order) - neg, neg, len(order))  # order: the zero block left
    if value is None:
        return SymmetricFactorization(inertia, None, None)
    # z = L^-T e_k on ints over zden, by back substitution: L[j][i] = pr_i[j] / pr_i[x_i]
    z, zden = {cols.pop()[0]: 1}, 1
    for x, row, fields, done in reversed(cols):
        pr = fields.unpack(row)
        if done < len(adds):  # the row-add congruences made after this pivot
            pr = list(pr)
            for i, j in adds[done:]:
                pr[i] += pr[j]
        s = sum(pr[y] * zy for y, zy in z.items())
        h = pr[x] // math.gcd(s, pr[x])
        if h > 1:
            z, zden = {y: zy * h for y, zy in z.items()}, zden * h
        z[x] = -s * h // pr[x]
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
