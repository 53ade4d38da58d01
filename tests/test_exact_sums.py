"""The exact sums on ints (``exact.rational_sum``) against per-term Fraction sums.

Each reference below adds one Fraction per term, the plain definition of
the sum, and every comparison is exact equality of rationals.
"""

import gc
import time
import weakref
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meetpd.arith import dirichlet_convolve_d
from meetpd.errors import EvaluationError
from meetpd.exact import rational_sum
from meetpd.incidence import inverted_values
from meetpd.intfun import mobius_int
from meetpd.meetmatrix import meet_matrix, summatory_function, table_function
from meetpd.posets import ProductLattice, divisor_lattice, min_lattice

FAMILIES = {"divisor": divisor_lattice, "min": min_lattice}
MAX_BOUND = {1: 12, 2: 6, 3: 3}


def rationals():
    """Mixed denominators 1..12, and float-derived values with denominators up to 2**52."""
    return st.one_of(
        st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12)),
        st.integers(-2 ** 53, 2 ** 53).map(lambda k: Fraction(k / 2 ** 52)),
    )


@st.composite
def grids(draw, families=tuple(FAMILIES)):
    """A covering set of a divisor or MIN family at d = 1..3 with a random value table."""
    d = draw(st.integers(1, 3))
    family = FAMILIES[draw(st.sampled_from(families))](d)
    cover = family.covering_set(draw(st.integers(1, MAX_BOUND[d])))
    values = draw(st.lists(rationals(), min_size=len(cover), max_size=len(cover)))
    return family, cover, dict(zip(cover.members, values))


def ambient_mu(lattice, z, x):
    """Closed-form Mobius value of the divisor or MIN lattice, or of a power of one."""
    if isinstance(lattice, ProductLattice):
        return prod(ambient_mu(f, a, b) for f, a, b in zip(lattice.factors, z, x))
    if lattice.kind == "divisor":
        return mobius_int(x // z) if x % z == 0 else 0
    return {0: 1, 1: -1}.get(x - z, 0)  # MIN is a chain


def reference_inverted_values(f, cover):
    out = []
    for x in cover.members:
        total = Fraction(0)
        for z in cover.members:
            if cover.leq(z, x):
                total += f(z) * ambient_mu(cover.lattice, z, x)
        out.append((x, total))
    return out


@settings(max_examples=150, deadline=None)
@given(grids())
def test_inverted_values_equal_the_per_term_fraction_sum(grid):
    family, cover, values = grid
    f = table_function(family, values)
    got = list(inverted_values(f, cover))
    assert got == reference_inverted_values(f, cover)
    assert all(type(v) is Fraction for _, v in got)


@settings(max_examples=150, deadline=None)
@given(grids(), st.data())
def test_inverted_values_switch_to_rational_sums_at_the_first_fraction(grid, data):
    # integer values up to a random member, fractional from it on: the first
    # denominator other than 1 arrives part-way, in a later block
    family, cover, values = grid
    cut = data.draw(st.integers(0, len(cover) - 1))
    table = {}
    for i, (x, v) in enumerate(values.items()):
        if i < cut:
            v = Fraction(round(v))
        elif i == cut and v.denominator == 1:
            v += Fraction(1, 2)
        table[x] = v
    f = table_function(family, table)
    got = list(inverted_values(f, cover))
    assert got == reference_inverted_values(f, cover)
    assert all(type(v) is Fraction for _, v in got)


def test_inverted_values_with_a_prime_denominator_at_every_member():
    # no common denominator across the scan: each value keeps its own
    family = min_lattice(2)
    cover = family.covering_set(60)
    primes = [p for p in range(2, 40000) if all(p % q for q in range(2, int(p ** 0.5) + 1))]
    table = {x: Fraction(1, p) for x, p in zip(cover.members, primes)}
    f = table_function(family, table)
    start = time.perf_counter()
    got = dict(inverted_values(f, cover))
    assert time.perf_counter() - start < 1.0
    # MIN is a product of chains: the inverted value is a finite difference
    tab = lambda i, j: table.get((i, j), 0)  # noqa: E731
    assert got == {(i, j): tab(i, j) - tab(i - 1, j) - tab(i, j - 1) + tab(i - 1, j - 1)
                   for i, j in cover.members}


@settings(max_examples=150, deadline=None)
@given(grids(), st.data())
def test_summatory_function_equals_the_per_term_fraction_sum(grid, data):
    family, cover, _ = grid
    # g values as the callers give them: Fractions, ints, raw floats and strings
    raw = st.one_of(rationals(), rationals().map(str), st.integers(-9, 9),
                    st.integers(-2 ** 53, 2 ** 53).map(lambda k: k / 2 ** 52))
    g = {x: data.draw(raw) for x in cover.members}
    f = summatory_function(family, g.__getitem__, certify_nonneg=False)
    for x in cover.members:
        expected = Fraction(0)
        for z in family.lower_set(x):
            expected += Fraction(g[z])
        assert f(x) == expected


@settings(max_examples=150, deadline=None)
@given(grids(), st.sampled_from(["member", "reversed", "random"]), st.booleans(), st.data())
def test_summatory_values_in_any_order_equal_the_lower_set_sums(grid, order, certify, data):
    # a call sums g over the lower set, whatever points came before it; over
    # the lower closed cover, meet_matrix sums f from g once instead
    family, cover, values = grid
    g = {x: abs(v) if certify else v for x, v in values.items()}
    calls = []
    f = summatory_function(family, lambda z: calls.append(z) or g[z], certify_nonneg=certify)
    points = list(cover.members)
    if order == "reversed":
        points.reverse()
    elif order == "random":
        points = data.draw(st.permutations(points))[:data.draw(st.integers(1, len(points)))]
    sums = {x: sum((g[z] for z in family.lower_set(x)), Fraction(0)) for x in cover.members}
    for x in points:
        assert f(x) == sums[x]
    calls.clear()
    m = meet_matrix(cover, f)
    assert calls == list(cover.members)  # g once per member, in member order
    assert m.values == [sums[x] for x in cover.members]


def test_a_dropped_summatory_function_is_freed_without_the_cyclic_collector():
    lattice = min_lattice(2)
    f = summatory_function(lattice, lambda _z: 1)
    meet_matrix(lattice.covering_set(4), f)
    assert f((2, 3)) == 6
    ref = weakref.ref(f)
    gc.disable()
    try:
        del f
        assert ref() is None
    finally:
        gc.enable()


@settings(max_examples=150, deadline=None)
@given(grids(families=("divisor",)), st.data())
def test_dirichlet_convolution_equals_the_per_term_fraction_sum(grid, data):
    family, cover, values = grid
    f = table_function(family, values)
    g = table_function(family, dict(zip(cover.members, reversed(values.values()))))
    point = data.draw(st.sampled_from(cover.members))
    coords = point if isinstance(point, tuple) else (point,)
    expected = Fraction(0)
    for k in family.lower_set(point):
        ks = k if isinstance(k, tuple) else (k,)
        rest = tuple(i // j for i, j in zip(coords, ks))
        expected += f(k) * g(rest if len(rest) > 1 else rest[0])
    assert dirichlet_convolve_d(f, g, point) == expected


@given(st.lists(st.tuples(rationals(), st.integers(-5, 5))))
def test_rational_sum_is_the_exact_sum(terms):
    expected = Fraction(0)
    for v, w in terms:
        expected += v * w
    got = rational_sum(terms)
    assert got == expected and type(got) is Fraction


@pytest.mark.parametrize("lattice, x, bad, value, message", [
    (divisor_lattice(), 12, (4, 6), Fraction(-1, 3), "at 4: -1/3"),
    (divisor_lattice(2), (2, 2), ((2, 1), (1, 2)), -0.5, "at (1, 2): -1/2"),
    (min_lattice(), 5, (3,), -2, "at 3: -2"),
])
def test_summatory_certificate_raises_at_the_first_negative_source(lattice, x, bad, value,
                                                                   message):
    seen = []

    def g(z):
        seen.append(z)
        return value if z in bad else 1

    f = summatory_function(lattice, g)
    with pytest.raises(EvaluationError) as info:
        f(x)
    assert str(info.value) == f"summatory source is negative {message}"
    # g is not evaluated past the first negative source
    lower = list(lattice.lower_set(x))
    first = next(i for i, z in enumerate(lower) if z in bad)
    assert seen == lower[:first + 1]
