"""Multivariate arithmetic functions on the positive integers.

The componentwise GCD operator, d-variate Dirichlet convolution, the
grid and factored positivity criteria (both read Mobius-inverted values
from ``incidence.inverted_values`` over the divisor lattice), and the
named example functions exposed on the command line.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product

from .errors import ArityMismatchError, EvaluationError, MeetPDError, UnknownBuiltinError
from .incidence import inverted_values
from .intfun import divisors, mobius_int
from .meetmatrix import LatticeFunction
from .pdcheck import NEGATIVE, POSITIVE, ElementWitness, PDVerdict, pd_criterion
from .posets import ProductLattice, divisor_lattice


class ArithmeticFunction:
    """d-variate function on positive integer tuples, memoized.

    Values are exact rationals unless the function was built through a
    float fallback (exact=False), in which case it is only suitable for
    the float oracle.
    """

    def __init__(self, arity, fn, name="f", exact=True, factors=None, composed_from=None):
        if arity < 1:
            raise ValueError("arity must be at least 1")
        self.arity = arity
        self._fn = fn
        self.name = name
        self.exact = exact
        self.factors = tuple(factors) if factors is not None else None
        self.composed_from = composed_from
        self._memo = {}

    def _point(self, args):
        if len(args) == 1 and isinstance(args[0], tuple):
            point = args[0]
        else:
            point = args
        if len(point) != self.arity:
            raise ArityMismatchError(f"{self.name} takes {self.arity} arguments, got {len(point)}")
        for c in point:
            if not isinstance(c, int) or isinstance(c, bool) or c < 1:
                raise ValueError(f"arguments must be positive integers, got {c!r}")
        return tuple(point)

    def __call__(self, *args):
        point = self._point(args)
        memo = self._memo
        if point in memo:
            return memo[point]
        try:
            v = self._fn(point)
        except MeetPDError:
            raise
        except Exception as exc:
            raise EvaluationError(f"{self.name} failed at {point!r}: {exc}") from exc
        if self.exact:
            v = Fraction(v)
        memo[point] = v
        return v

    def __repr__(self):
        return f"ArithmeticFunction({self.name}, arity {self.arity})"


def gcd_d(x, y):
    """Componentwise gcd of two equal-length tuples of positive integers."""
    if len(x) != len(y):
        raise ArityMismatchError(f"tuples have different lengths {len(x)} and {len(y)}")
    return tuple(math.gcd(a, b) for a, b in zip(x, y))


def dirichlet_convolve_d(f, g, point):
    """(f * g)(i) summed over all componentwise divisor tuples k of i."""
    if f.arity != g.arity:
        raise ArityMismatchError(f"arities differ: {f.arity} vs {g.arity}")
    if not isinstance(point, tuple):
        point = (point,)
    if len(point) != f.arity:
        raise ArityMismatchError(f"point has length {len(point)}, expected {f.arity}")
    total = Fraction(0)
    for ks in iter_product(*(divisors(i) for i in point)):
        total += f(ks) * g(tuple(i // k for i, k in zip(point, ks)))
    return total


def dirichlet_convolution(f, g, name=None):
    """The convolution as a new memoized arithmetic function."""
    if f.arity != g.arity:
        raise ArityMismatchError(f"arities differ: {f.arity} vs {g.arity}")
    label = name or f"({f.name}*{g.name})"
    return ArithmeticFunction(f.arity, lambda pt: dirichlet_convolve_d(f, g, pt), name=label)


@lru_cache(maxsize=None)
def mu_star_mu(n):
    """(mu * mu)(n) by direct divisor-sum convolution."""
    return sum(mobius_int(d) * mobius_int(n // d) for d in divisors(n))


def ramanujan_C(m, n):
    """Ramanujan's sum: the total of d * mu(n/d) over divisors d of gcd(m, n)."""
    if m < 1 or n < 1:
        raise ValueError("arguments must be positive integers")
    return sum(d * mobius_int(n // d) for d in divisors(math.gcd(m, n)))


def _grid_points(bound, d):
    return iter_product(*(range(1, bound + 1) for _ in range(d)))


def pd_check_grid(f, bound):
    """Grid criterion: the diagonal criterion on {1..bound}^d of the divisor lattice.

    Points are scanned in lexicographic order and the first strictly
    negative inverted value becomes an element witness; otherwise the
    verdict is positive on the tested grid.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    return pd_criterion(to_lattice_function(f), None, bound)


@dataclass(frozen=True)
class FactoredCheck:
    verdict: PDVerdict
    sign_classes: tuple
    index_set: tuple
    tables: tuple


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
        if g.arity != 1:
            raise ArityMismatchError(f"components must be univariate, got arity {g.arity}")
        tab = tuple(v for _, v in inverted_values(to_lattice_function(g), cover))
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


def _power_function(alpha, name):
    a = Fraction(alpha)
    return ArithmeticFunction(1, lambda pt: _power_value(pt[0], a),
                              name=name, exact=a.denominator == 1)


def builtin(name, alpha=None, d=None, g=None):
    """Named arithmetic function.

    Known names: gcd_pow, lcm_pow (exponent alpha; integer exponents stay
    exact, others fall back to floats flagged oracle-only), zeta_d,
    delta_d, mu_d, divisor_count, ramanujan_C, meet_composed (wraps a
    univariate g around the componentwise gcd).
    """
    arity = 1 if d is None else d
    if arity < 1:
        raise ValueError("arity must be at least 1")

    if name == "gcd_pow":
        if alpha is None:
            raise ValueError("gcd_pow needs an exponent")
        a = Fraction(alpha)
        exact = a.denominator == 1
        base = _power_function(a, f"n^{a}")

        def fn(pt):
            gv = math.gcd(*pt)
            return _power_value(gv, a)

        return ArithmeticFunction(arity, fn, name=f"gcd_pow:{a}", exact=exact,
                                  composed_from=base)

    if name == "lcm_pow":
        if alpha is None:
            raise ValueError("lcm_pow needs an exponent")
        a = Fraction(alpha)
        exact = a.denominator == 1

        def fn(pt):
            lv = math.lcm(*pt)
            return _power_value(lv, a)

        return ArithmeticFunction(arity, fn, name=f"lcm_pow:{a}", exact=exact)

    if name == "zeta_d":
        return ArithmeticFunction(arity, lambda pt: Fraction(1), name=f"zeta_{arity}")

    if name == "delta_d":
        return ArithmeticFunction(
            arity, lambda pt: Fraction(1) if all(c == 1 for c in pt) else Fraction(0),
            name=f"delta_{arity}")

    if name == "mu_d":
        def fn(pt):
            out = 1
            for c in pt:
                v = mobius_int(c)
                if v == 0:
                    return Fraction(0)
                out *= v
            return Fraction(out)

        return ArithmeticFunction(arity, fn, name=f"mu_{arity}")

    if name == "divisor_count":
        def fn(pt):
            out = 1
            for c in pt:
                out *= len(divisors(c))
            return Fraction(out)

        return ArithmeticFunction(arity, fn, name=f"divisor_count_{arity}")

    if name == "ramanujan_C":
        if d not in (None, 2):
            raise ValueError("ramanujan_C is bivariate")
        return ArithmeticFunction(2, lambda pt: Fraction(ramanujan_C(pt[0], pt[1])),
                                  name="ramanujan_C")

    if name == "meet_composed":
        if g is None:
            raise ValueError("meet_composed needs a univariate function g")
        if g.arity != 1:
            raise ArityMismatchError("meet_composed wraps a univariate function")
        return ArithmeticFunction(arity, lambda pt: g(math.gcd(*pt)),
                                  name=f"{g.name}(gcd)", exact=g.exact, composed_from=g)

    raise UnknownBuiltinError(f"unknown builtin {name!r}")


def to_lattice_function(f, lattice=None):
    """Adapt an arithmetic function to a lattice function.

    Defaults to the d-fold divisor lattice; any lattice whose elements are
    the same integer tuples (for example the MIN lattice) works too.  A
    meet-composed source keeps its collapse marker, with the inner
    function transplanted onto the base lattice.
    """
    lat = lattice if lattice is not None else divisor_lattice(f.arity)
    arity = getattr(lat, "arity", 1)
    if arity != f.arity:
        raise ArityMismatchError(f"lattice arity {arity} does not match function arity {f.arity}")
    composed = None
    if f.composed_from is not None:
        inner = f.composed_from
        base = lat.factors[0] if isinstance(lat, ProductLattice) else lat
        composed = LatticeFunction(base, lambda x: inner(x), name=inner.name, exact=inner.exact)
    return LatticeFunction(lat, lambda x: f(x), name=f.name, exact=f.exact,
                           composed_from=composed)


def table_to_csv(f, bound):
    """CSV rows ``i1,...,id,value`` over the grid {1..bound}^d."""
    lines = []
    for point in _grid_points(bound, f.arity):
        lines.append(",".join(str(c) for c in point) + "," + str(f(point)))
    return "\n".join(lines) + "\n"
