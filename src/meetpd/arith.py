"""Multivariate arithmetic functions on the positive integers.

An arithmetic function of d variables is a ``LatticeFunction`` on the
cached ``divisor_lattice(d)``: its elements are positive integers at
d = 1 and d-tuples of them above, and the lattice's own ``meet`` is the
componentwise gcd.  This module holds d-variate Dirichlet convolution,
the grid criterion (the diagonal criterion of ``pdcheck`` on the divisor
grid {1..m}^d), and the named example functions exposed on the command
line.
"""

import math
from fractions import Fraction
from itertools import product as iter_product

from .errors import ArityMismatchError, ExponentLimitError, UnknownBuiltinError
from .exact import rational_sum
from .intfun import divisors, mobius_int
from .meetmatrix import LatticeFunction, constant_function, meet_composed_function
from .pdcheck import pd_criterion
from .posets import divisor_lattice


def _coords(x):
    """The coordinates of an element of divisor_lattice(d), as a tuple."""
    return x if isinstance(x, tuple) else (x,)


def _element(coords):
    """The element of divisor_lattice(len(coords)) with these coordinates."""
    return coords if len(coords) > 1 else coords[0]


def dirichlet_convolve_d(f, g, point):
    """(f * g)(i) summed over all componentwise divisor tuples k of i."""
    d = f.lattice.arity
    if g.lattice.arity != d:
        raise ArityMismatchError(f"arities differ: {d} vs {g.lattice.arity}")
    point = _coords(point)
    if len(point) != d:
        raise ArityMismatchError(f"point has length {len(point)}, expected {d}")
    terms = ((f(_element(ks)) * g(_element(tuple(i // k for i, k in zip(point, ks)))), 1)
             for ks in iter_product(*(divisors(i) for i in point)))
    return rational_sum(terms)


def ramanujan_C(m, n):
    """Ramanujan's sum: the total of d * mu(n/d) over divisors d of gcd(m, n)."""
    if m < 1 or n < 1:
        raise ValueError("arguments must be positive integers")
    return sum(d * mobius_int(n // d) for d in divisors(math.gcd(m, n)))


def pd_check_grid(f, bound):
    """Grid criterion: the diagonal criterion on {1..bound}^d of the divisor lattice.

    Points are scanned in lexicographic order and the first strictly
    negative inverted value becomes an element witness; otherwise the
    verdict is positive on the tested grid.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    return pd_criterion(f, divisor_lattice(f.lattice.arity), bound)


MAX_EXPONENT = 700  # n^700 has at most 4,215 digits for n <= 2^20; str() allows 4,300


def _power_value(base, alpha):
    if alpha.denominator == 1:
        k = int(alpha)
        return base ** k if k >= 0 else Fraction(1, base ** -k)
    return float(base) ** float(alpha)


def builtin(name, alpha=None, d=None, g=None):
    """Named arithmetic function on divisor_lattice(d).

    Known names: gcd_pow, lcm_pow (exponent alpha; integer exponents stay
    exact, others fall back to floats flagged exact=False), zeta_d,
    delta_d, mu_d, divisor_count, ramanujan_C (these five take no
    exponent: ValueError), meet_composed (wraps a univariate g around the
    componentwise gcd).
    """
    arity = 1 if d is None else d
    if arity < 1:
        raise ValueError("arity must be at least 1")
    lattice = divisor_lattice(arity)

    if name in ("gcd_pow", "lcm_pow"):
        if alpha is None:
            raise ValueError(f"{name} needs an exponent")
        a = Fraction(alpha)
        if abs(a) > MAX_EXPONENT:
            raise ExponentLimitError(f"exponent {a} exceeds the limit of {MAX_EXPONENT} in size")
        if name == "gcd_pow":
            base = LatticeFunction(divisor_lattice(), lambda n: _power_value(n, a),
                                   name=f"n^{a}", exact=a.denominator == 1)
            return meet_composed_function(base, arity, name=f"gcd_pow:{a}")
        return LatticeFunction(lattice, lambda x: _power_value(math.lcm(*_coords(x)), a),
                               name=f"lcm_pow:{a}", exact=a.denominator == 1)

    if alpha is not None and name in ("zeta_d", "delta_d", "mu_d", "divisor_count", "ramanujan_C"):
        raise ValueError(f"{name} takes no parameter")

    if name == "zeta_d":
        return constant_function(lattice, 1, name=f"zeta_{arity}")

    if name == "delta_d":
        return LatticeFunction(lattice, lambda x: int(x == lattice.least), name=f"delta_{arity}")

    if name == "mu_d":
        return LatticeFunction(lattice, lambda x: math.prod(map(mobius_int, _coords(x))),
                               name=f"mu_{arity}")

    if name == "divisor_count":
        return LatticeFunction(lattice, lambda x: math.prod(map(len, map(divisors, _coords(x)))),
                               name=f"divisor_count_{arity}")

    if name == "ramanujan_C":
        if d not in (None, 2):
            raise ValueError("ramanujan_C is bivariate")
        return LatticeFunction(divisor_lattice(2), lambda x: ramanujan_C(*x), name="ramanujan_C")

    if name == "meet_composed":
        if g is None:
            raise ValueError("meet_composed needs a univariate function g")
        if g.lattice.arity != 1:
            raise ArityMismatchError("meet_composed wraps a univariate function")
        return meet_composed_function(g, arity)

    raise UnknownBuiltinError(f"unknown builtin {name!r}")


def to_lattice_function(f, lattice):
    """f on the given lattice: f itself when that is its own lattice.

    Otherwise f is moved onto the lattice, which should have the same
    elements (for example the MIN lattice of the same arity): the moved
    function calls f, so an element f does not know fails to evaluate.
    """
    if lattice == f.lattice:
        return f
    if lattice.arity != f.lattice.arity:
        raise ArityMismatchError(
            f"lattice arity {lattice.arity} does not match function arity {f.lattice.arity}")
    return LatticeFunction(lattice, f, name=f.name, exact=f.exact)

