"""Independent reference arithmetic for the benchmark's correctness gates.

Nothing here imports meetpd: every expected value is recomputed from
closed forms (trial-division factorization, the classical Mobius
function, and the product formulas for the Mobius functions of the
divisor, MIN and Boolean lattices), so a gate never trusts the code it
checks.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product


@lru_cache(maxsize=None)
def factor(n):
    """Prime factorization of n as a tuple of (prime, exponent)."""
    out = []
    p = 2
    while p * p <= n:
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        if k:
            out.append((p, k))
        p += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


@lru_cache(maxsize=None)
def divisors(n):
    ds = [1]
    for p, k in factor(n):
        ds = [d * p ** e for d in ds for e in range(k + 1)]
    return tuple(sorted(ds))


@lru_cache(maxsize=None)
def signed_squarefree_divisors(n):
    """Pairs (s, mu(s)) for the squarefree divisors s of n."""
    out = [(1, 1)]
    for p, _ in factor(n):
        out += [(s * p, -m) for s, m in out]
    return tuple(out)


def mobius(n):
    fs = factor(n)
    if any(k > 1 for _, k in fs):
        return 0
    return -1 if len(fs) % 2 else 1


def ramanujan_sum(m, n):
    return sum(d * mobius(n // d) for d in divisors(math.gcd(m, n)))


def builtin_value(spec, point):
    """Value of a CLI builtin spec such as ``gcd_pow:2`` at an integer tuple."""
    name, _, param = spec.partition(":")
    if name == "gcd_pow":
        return Fraction(math.gcd(*point)) ** int(param)
    if name == "lcm_pow":
        return Fraction(math.lcm(*point)) ** int(param)
    if name == "divisor_count":
        return Fraction(math.prod(len(divisors(c)) for c in point))
    if name == "zeta_d":
        return Fraction(1)
    if name == "ramanujan_C":
        return Fraction(ramanujan_sum(*point))
    raise ValueError(f"no reference for builtin {spec!r}")


def grid_points(bound, d):
    """{1..bound}^d in lexicographic order (1-tuples for d = 1)."""
    return list(iter_product(range(1, bound + 1), repeat=d))


def meet(family, x, y):
    op = math.gcd if family == "divisor" else min
    return tuple(op(a, b) for a, b in zip(x, y))


def lower_set(family, x):
    if family == "divisor":
        return list(iter_product(*(divisors(c) for c in x)))
    return list(iter_product(*(range(1, c + 1) for c in x)))


def inverted_value(family, value, x):
    """Mobius-inverted value at x of a function on a lower closed grid.

    Divisor family: the sum over squarefree quotients s of
    mu(s) f(x / s), coordinatewise.  MIN family: the alternating sum over
    the unit steps below x.
    """
    if family == "divisor":
        choices = [signed_squarefree_divisors(c) for c in x]
        total = Fraction(0)
        for picks in iter_product(*choices):
            sign = math.prod(m for _, m in picks)
            total += sign * value(tuple(c // s for c, (s, _) in zip(x, picks)))
        return total
    total = Fraction(0)
    for steps in iter_product((0, 1), repeat=len(x)):
        z = tuple(c - e for c, e in zip(x, steps))
        if min(z) >= 1:
            total += (-1) ** sum(steps) * value(z)
    return total


def inverted_grid(family, value, bound, d):
    """Mobius-inverted values of value() over {1..bound}^d, keyed by point."""
    return {x: inverted_value(family, value, x) for x in grid_points(bound, d)}


def summatory_grid(family, g, bound, d):
    """f(x) = sum of g over the lower set of x, for every grid point x."""
    return {x: sum((g[z] for z in lower_set(family, x)), Fraction(0))
            for x in grid_points(bound, d)}


def quadratic_form(rows, v):
    """v^T A v for a matrix of Fractions."""
    total = Fraction(0)
    for vi, row in zip(v, rows):
        if vi:
            total += vi * sum((a * vj for a, vj in zip(row, v) if vj), Fraction(0))
    return total
