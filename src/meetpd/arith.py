"""Multivariate arithmetic functions on the positive integers.

An arithmetic function of d variables is a ``LatticeFunction`` on the
cached ``divisor_lattice(d)``: its elements are positive integers at
d = 1 and d-tuples of them above.  This module holds the componentwise
GCD operator, d-variate Dirichlet convolution, the grid and factored
positivity criteria (both read Mobius-inverted values from
``incidence.inverted_values`` over the divisor lattice), and the named
example functions exposed on the command line.
"""

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product

from .errors import ArityMismatchError, UnknownBuiltinError
from .exact import rational_sum
from .incidence import inverted_values
from .intfun import divisors, mobius_int
from .meetmatrix import LatticeFunction, constant_function, meet_composed_function
from .pdcheck import NEGATIVE, POSITIVE, ElementWitness, PDVerdict, pd_criterion
from .posets import divisor_lattice


def _coords(x):
    """The coordinates of an element of divisor_lattice(d), as a tuple."""
    return x if isinstance(x, tuple) else (x,)


def _element(coords):
    """The element of divisor_lattice(len(coords)) with these coordinates."""
    return coords if len(coords) > 1 else coords[0]


def gcd_d(x, y):
    """Componentwise gcd of two equal-length tuples of positive integers."""
    if len(x) != len(y):
        raise ArityMismatchError(f"tuples have different lengths {len(x)} and {len(y)}")
    return tuple(math.gcd(a, b) for a, b in zip(x, y))


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


def dirichlet_convolution(f, g, name=None):
    """The convolution as a new memoized arithmetic function."""
    if f.lattice.arity != g.lattice.arity:
        raise ArityMismatchError(f"arities differ: {f.lattice.arity} vs {g.lattice.arity}")
    label = name or f"({f.name}*{g.name})"
    return LatticeFunction(divisor_lattice(f.lattice.arity),
                           lambda x: dirichlet_convolve_d(f, g, x), name=label)


@lru_cache(maxsize=None)
def mu_star_mu(n):
    """(mu * mu)(n) by direct divisor-sum convolution."""
    return sum(mobius_int(d) * mobius_int(n // d) for d in divisors(n))


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


class FactoredCheck(namedtuple("FactoredCheck", "verdict sign_classes index_set tables")):
    __slots__ = ()


def pd_check_factored(components, bound):
    """Separable criterion for f = g_1 (x) ... (x) g_d on {1..bound}^d.

    Each component's Mobius-inverted table on [1..bound] is classified as
    nonnegative, nonpositive, mixed, or identically zero.  The product is
    positive definite on the grid iff no component is sign-mixed and the
    strictly-nonpositive components pair up evenly; an identically zero
    component makes the whole product vanish on the grid.  Zero components
    are kept out of the index set except when one is needed to pad its
    cardinality to even.
    """
    gs = list(components)
    if not gs:
        raise ValueError("need at least one component")
    if bound < 1:
        raise ValueError("bound must be at least 1")
    cover = divisor_lattice().covering_set(bound)
    tables = []
    classes = []
    for g in gs:
        if g.lattice.arity != 1:
            raise ArityMismatchError(f"components must be univariate, got arity {g.lattice.arity}")
        tab = tuple(v for _, v in inverted_values(g, cover))
        tables.append(tab)
        has_pos = any(v > 0 for v in tab)
        has_neg = any(v < 0 for v in tab)
        if has_pos and has_neg:
            classes.append("mixed")
        elif has_neg:
            classes.append("nonpositive")
        elif has_pos:
            classes.append("nonnegative")
        else:
            classes.append("zero")

    nonpos = [i for i, c in enumerate(classes) if c == "nonpositive"]
    zeros = [i for i, c in enumerate(classes) if c == "zero"]
    mixed = [i for i, c in enumerate(classes) if c == "mixed"]
    positive = bool(zeros) or (not mixed and len(nonpos) % 2 == 0)

    index_set = list(nonpos)
    if positive and len(index_set) % 2 == 1 and zeros:
        index_set.append(zeros[0])
    index_set.sort()

    if positive:
        verdict = PDVerdict(POSITIVE, bound, None)
    else:
        point, value = _factored_witness(classes, tables, mixed)
        elem = point if len(gs) > 1 else point[0]
        verdict = PDVerdict(NEGATIVE, bound, ElementWitness(elem, value))
    return FactoredCheck(verdict, tuple(classes), tuple(index_set), tuple(tables))


def _factored_witness(classes, tables, mixed):
    # pick one coordinate per component so the product of inverted values
    # is strictly negative; a mixed component supplies the adjustable sign
    flip = mixed[0] if mixed else None
    choice = [None] * len(classes)
    sign = 1
    for i, (cls, tab) in enumerate(zip(classes, tables)):
        if i == flip:
            continue
        if cls == "nonpositive":
            j = next(j for j, v in enumerate(tab) if v < 0)
            sign = -sign
        elif cls == "mixed":
            j = next(j for j, v in enumerate(tab) if v != 0)
            if tab[j] < 0:
                sign = -sign
        else:  # nonnegative; zero classes cannot occur on this path
            j = next(j for j, v in enumerate(tab) if v > 0)
        choice[i] = j
    if flip is not None:
        want_negative = sign > 0
        tab = tables[flip]
        j = next(
            j for j, v in enumerate(tab)
            if (v < 0 if want_negative else v > 0)
        )
        choice[flip] = j
    value = Fraction(1)
    for i, j in enumerate(choice):
        value *= tables[i][j]
    assert value < 0
    return tuple(j + 1 for j in choice), value


def _power_value(base, alpha):
    if alpha.denominator == 1:
        k = int(alpha)
        if k >= 0:
            return Fraction(base ** k)
        return Fraction(1, base ** (-k))
    return float(base) ** float(alpha)


def builtin(name, alpha=None, d=None, g=None):
    """Named arithmetic function on divisor_lattice(d).

    Known names: gcd_pow, lcm_pow (exponent alpha; integer exponents stay
    exact, others fall back to floats flagged exact=False), zeta_d,
    delta_d, mu_d, divisor_count, ramanujan_C, meet_composed (wraps a
    univariate g around the componentwise gcd).
    """
    arity = 1 if d is None else d
    if arity < 1:
        raise ValueError("arity must be at least 1")
    lattice = divisor_lattice(arity)

    if name == "gcd_pow":
        if alpha is None:
            raise ValueError("gcd_pow needs an exponent")
        a = Fraction(alpha)
        base = LatticeFunction(divisor_lattice(), lambda n: _power_value(n, a),
                               name=f"n^{a}", exact=a.denominator == 1)
        return meet_composed_function(base, arity, name=f"gcd_pow:{a}")

    if name == "lcm_pow":
        if alpha is None:
            raise ValueError("lcm_pow needs an exponent")
        a = Fraction(alpha)
        return LatticeFunction(lattice, lambda x: _power_value(math.lcm(*_coords(x)), a),
                               name=f"lcm_pow:{a}", exact=a.denominator == 1)

    if name == "zeta_d":
        return constant_function(lattice, 1, name=f"zeta_{arity}")

    if name == "delta_d":
        return LatticeFunction(lattice, lambda x: int(x == lattice.least), name=f"delta_{arity}")

    if name == "mu_d":
        return LatticeFunction(lattice, lambda x: math.prod(mobius_int(c) for c in _coords(x)),
                               name=f"mu_{arity}")

    if name == "divisor_count":
        return LatticeFunction(lattice, lambda x: math.prod(len(divisors(c)) for c in _coords(x)),
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


def to_lattice_function(f, lattice=None):
    """f on the given lattice: f itself when that is its own lattice.

    Otherwise f is moved onto the lattice, which should have the same
    elements (for example the MIN lattice of the same arity): the moved
    function calls f, so an element f does not know fails to evaluate.
    The moved function has no collapse marker (composed_from): f is g of
    the meet in f's own lattice, which is not the meet of the new one.
    """
    if lattice is None or lattice == f.lattice:
        return f
    if lattice.arity != f.lattice.arity:
        raise ArityMismatchError(
            f"lattice arity {lattice.arity} does not match function arity {f.lattice.arity}")
    return LatticeFunction(lattice, f, name=f.name, exact=f.exact)


def table_to_csv(f, bound):
    """CSV rows ``i1,...,id,value`` over the grid {1..bound}^d."""
    lines = []
    for x in divisor_lattice(f.lattice.arity).covering_set(bound):
        lines.append(",".join(str(c) for c in _coords(x)) + "," + str(f(x)))
    return "\n".join(lines) + "\n"
