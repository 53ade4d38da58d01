import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meetpd.errors import (
    ArityLimitError,
    CycleError,
    DuplicateElementError,
    NotASemilatticeError,
)
from meetpd.incidence import _recursive_rows, mobius
from meetpd.intfun import mobius_int
from meetpd.posets import (
    MAX_ARITY,
    DivisorLattice,
    ElementSubset,
    MeetSemilattice,
    Poset,
    ProductLattice,
    divisor_lattice,
    lattice_power,
    linear_extension,
    load_hasse,
    lower_closure,
    meet_closure,
    min_lattice,
    product_subset,
    subset,
)


def test_singleton_poset_has_least():
    p = Poset(["a"], [])
    assert p.least == "a"
    assert p.leq("a", "a")


def test_chain_transitivity():
    p = Poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert p.leq("a", "c")
    assert not p.leq("c", "a")
    assert p.least == "a"


def test_cycle_detected():
    with pytest.raises(CycleError):
        Poset(["a", "b"], [("a", "b"), ("b", "a")])


def test_self_loop_detected():
    with pytest.raises(CycleError):
        Poset(["a"], [("a", "a")])


def test_duplicate_element_rejected():
    with pytest.raises(DuplicateElementError):
        Poset(["a", "a"], [])


def test_unknown_edge_endpoint_rejected():
    with pytest.raises(ValueError):
        Poset(["a"], [("a", "b")])


def test_divisor_meet_is_gcd():
    assert divisor_lattice().meet(4, 6) == 2


def test_min_meet_is_min():
    assert min_lattice().meet(3, 7) == 3


def test_antichain_without_bottom_is_not_a_semilattice():
    with pytest.raises(NotASemilatticeError):
        MeetSemilattice(["a", "b"], [])


def test_explicit_semilattice_meets():
    # diamond: bottom 0, incomparable a/b, top 1
    lat = MeetSemilattice(["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    assert isinstance(lat, Poset)
    assert lat.meet("a", "b") == "0"
    assert lat.meet("a", "1") == "a"
    assert lat.least == "0"


def test_product_meet_componentwise():
    prod = divisor_lattice(2)
    assert prod.meet((4, 9), (6, 3)) == (2, 3)


def test_lattice_power_refuses_an_arity_above_the_limit_before_building(monkeypatch):
    def build(self, factors):
        raise AssertionError("a product lattice was built")

    assert len(lattice_power(DivisorLattice(), MAX_ARITY).factors) == MAX_ARITY
    monkeypatch.setattr(ProductLattice, "__init__", build)
    for d in (MAX_ARITY + 1, 10 ** 9):
        with pytest.raises(ArityLimitError):
            lattice_power(DivisorLattice(), d)


def test_integer_lattices_are_equal_by_exact_type():
    assert DivisorLattice() == DivisorLattice()
    assert hash(DivisorLattice()) == hash(DivisorLattice())
    for d in (1, 2):
        assert divisor_lattice(d) != min_lattice(d)


def test_lattice_powers_are_shared_instances():
    assert divisor_lattice(2) is lattice_power(DivisorLattice(), 2)
    assert all(f is divisor_lattice() for f in divisor_lattice(3).factors)
    assert all(f is min_lattice() for f in min_lattice(2).factors)


def test_mixed_product_divisor_min():
    prod = ProductLattice([divisor_lattice(), min_lattice()])
    assert prod.meet((4, 5), (6, 2)) == (2, 2)
    assert prod.leq((2, 3), (4, 7))
    assert not prod.leq((2, 3), (3, 7))


def test_meet_and_lower_closed_flags():
    dl = divisor_lattice()
    s = subset(dl, [1, 2, 3, 6])
    assert s.meet_closed
    assert s.lower_closed
    t = subset(dl, [2, 3])
    assert not t.meet_closed
    u = subset(dl, [1, 4])
    assert u.meet_closed
    assert not u.lower_closed


def test_lower_closed_implies_meet_closed_on_samples():
    dl = divisor_lattice()
    rng = random.Random(7)
    for _ in range(25):
        seed = rng.sample(range(1, 40), rng.randint(1, 4))
        s = lower_closure(subset(dl, seed))
        assert s.lower_closed
        assert s.meet_closed


def test_lower_closure_of_six():
    dl = divisor_lattice()
    assert lower_closure(subset(dl, [6])).members == (1, 2, 3, 6)


def test_meet_closure_of_four_six():
    dl = divisor_lattice()
    assert set(meet_closure(subset(dl, [4, 6])).members) == {2, 4, 6}


def test_closures_idempotent():
    dl = divisor_lattice()
    s = lower_closure(subset(dl, [12, 10]))
    assert lower_closure(s).members == s.members
    t = meet_closure(subset(dl, [4, 6, 10]))
    assert meet_closure(t).members == t.members


def test_linear_extension_tie_break():
    dl = divisor_lattice()
    assert subset(dl, [6, 1, 2, 3]).members == (1, 2, 3, 6)


def test_linear_extension_stable_on_sorted_chain():
    dl = divisor_lattice()
    assert subset(dl, [1, 2, 4, 8]).members == (1, 2, 4, 8)


def test_linear_extension_preserves_antichain_order():
    dl = divisor_lattice()
    assert subset(dl, [5, 2, 3]).members == (5, 2, 3)


def test_linear_extension_property_exhaustive_small():
    dl = divisor_lattice()
    rng = random.Random(11)
    for _ in range(40):
        members = rng.sample(range(1, 60), rng.randint(1, 12))
        ordered = linear_extension(dl, members)
        for i, x in enumerate(ordered):
            for j, y in enumerate(ordered):
                if dl.leq(x, y):
                    assert i <= j or x == y


def test_subset_duplicate_member_rejected():
    with pytest.raises(DuplicateElementError):
        subset(divisor_lattice(), [2, 2])


def test_subset_foreign_member_rejected():
    with pytest.raises(ValueError):
        subset(divisor_lattice(), [0])
    with pytest.raises(ValueError):
        subset(divisor_lattice(2), [(1, 2, 3)])


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(st.integers(1, 60), st.integers(1, 60)),
    st.tuples(st.integers(1, 60), st.integers(1, 60)),
    st.tuples(st.integers(1, 60), st.integers(1, 60)),
)
def test_universal_property_of_product_meet(x, y, z):
    prod = ProductLattice([divisor_lattice(), min_lattice()])
    m = prod.meet(x, y)
    assert prod.leq(m, x) and prod.leq(m, y)
    below_both = prod.leq(z, x) and prod.leq(z, y)
    assert below_both == prod.leq(z, m)


def test_product_meet_componentwise_bulk():
    rng = random.Random(3)
    combos = [
        (divisor_lattice(), divisor_lattice()),
        (divisor_lattice(), min_lattice()),
        (min_lattice(), min_lattice()),
    ]
    for left, right in combos:
        prod = ProductLattice([left, right])
        for _ in range(1000):
            x = (rng.randint(1, 200), rng.randint(1, 200))
            y = (rng.randint(1, 200), rng.randint(1, 200))
            assert prod.meet(x, y) == (left.meet(x[0], y[0]), right.meet(x[1], y[1]))


def test_covering_sets_are_lower_closed_grids():
    for fam, d in [(divisor_lattice(1), 1), (divisor_lattice(2), 2), (min_lattice(2), 2)]:
        s = fam.covering_set(5)
        assert len(s) == 5 ** d
        assert s.lower_closed


def test_product_subset_lex_order():
    dl = divisor_lattice()
    s = subset(dl, [1, 2])
    grid = product_subset([s, s])
    assert grid.members == ((1, 1), (1, 2), (2, 1), (2, 2))
    assert grid.factors == (s, s)


DIAMOND = MeetSemilattice(["0", "x", "y", "1"], [("0", "x"), ("0", "y"), ("x", "1"), ("y", "1")])

# factor subsets with a coordinate outside each; {4, 6} and {x, y} are not
# meet closed, {2, 3} is meet closed but not lower closed
FACTORS = [
    (lambda m: divisor_lattice().covering_set(m), 99),
    (lambda m: min_lattice().covering_set(m), 99),
    (lambda m: subset(divisor_lattice(), [4, 6]), 2),
    (lambda m: subset(divisor_lattice(), [2, 3][:m]), 1),
    (lambda m: DIAMOND.covering_set(), "z"),
    (lambda m: subset(DIAMOND, ["x", "y"]), "0"),
]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, len(FACTORS) - 1), st.integers(1, 5)),
                min_size=1, max_size=3))
def test_product_subset_matches_the_materialized_product(picks):
    # reference: the member list and position dict a product subset kept
    # before it computed both from its factors
    factors = [FACTORS[k][0](m) for k, m in picks]
    foreign = [FACTORS[k][1] for k, _ in picks]
    grid = product_subset(factors)
    members = [tuple(c) for c in itertools.product(*(s.members for s in factors))]
    if len(factors) == 1:
        members = [x for (x,) in members]
    pos = {x: i for i, x in enumerate(members)}
    ref = ElementSubset(grid.lattice, members, _presorted=True)
    assert list(grid) == members and grid.members == tuple(members)
    assert len(grid) == len(members) == len(pos)
    assert grid.shape == tuple(map(len, factors)) and grid.factors == tuple(factors)
    assert all(x in grid and grid.index(x) == pos[x] for x in members)
    x = members[-1]
    coords = x if len(factors) > 1 else (x,)
    outside = [coords[:t] + (c,) + coords[t + 1:] for t, c in enumerate(foreign)]
    outside += [coords + coords[:1], coords[:-1]]
    if len(factors) > 1:
        outside += [coords[0]]
    for y in outside:
        assert y not in grid
        with pytest.raises(KeyError):
            grid.index(y)
    assert mobius(grid) == mobius(ref)
    assert grid.meet_closed == ref.meet_closed
    assert grid.lower_closed == ref.lower_closed


def test_product_subset_skips_the_member_checks(monkeypatch):
    # members built from checked factor members are not checked again;
    # a subset given by the user still is
    calls = []
    contains = ProductLattice.contains
    monkeypatch.setattr(ProductLattice, "contains",
                        lambda self, x: calls.append(x) or contains(self, x))
    dl = divisor_lattice()
    grid = product_subset([dl.covering_set(6), subset(dl, [1, 2, 4])])
    assert len(grid) == 18 and calls == []
    with pytest.raises(DuplicateElementError):
        subset(grid.lattice, [(1, 2), (1, 2)])
    with pytest.raises(ValueError):
        subset(grid.lattice, [(1, 0)])
    assert calls == [(1, 2), (1, 0)]


def test_explicit_meet_agrees_with_gcd_oracle():
    # rebuild lower closed divisor sets as explicit posets from cover edges
    # and compare the computed meet table against gcd
    import math

    rng = random.Random(23)
    dl = divisor_lattice()
    for _ in range(20):
        seed = rng.sample(range(1, 50), rng.randint(2, 6))
        members = lower_closure(subset(dl, seed)).members
        covers = [
            (str(a), str(b))
            for a in members
            for b in members
            if a != b and b % a == 0
            and not any(a != c != b and c % a == 0 and b % c == 0 for c in members)
        ]
        lat = MeetSemilattice([str(x) for x in members], covers)
        for x in members:
            for y in members:
                assert lat.meet(str(x), str(y)) == str(math.gcd(x, y))


def test_least_member():
    dl = divisor_lattice()
    assert subset(dl, [1, 2, 3]).least_member == 1
    assert subset(dl, [2, 3]).least_member is None


def _generic_rows(cover):
    """x -> {z: mu(z, x)} over z < x, from Rota's recursion (which mobius
    routes around on covering sets of the integer families)."""
    return {x: dict(zip(zs[:-1], ws[:-1]))
            for x, (zs, ws) in zip(cover.members, _recursive_rows(cover))}


def _shuffled_hasse_divisors(n, seed):
    """Hasse lines of the divisors of n, elem and edge lines in a shuffled order."""
    rng = random.Random(seed)
    ds = [d for d in range(1, n + 1) if n % d == 0]
    elems = [f"elem {d}" for d in ds]
    edges = [f"edge {d} {d * p}" for d in ds for p in (2, 3, 5, 7) if n % (d * p) == 0]
    rng.shuffle(elems)
    rng.shuffle(edges)
    return elems + edges


@pytest.mark.parametrize("lattice, bound", [
    (divisor_lattice(1), 60), (divisor_lattice(2), 8), (divisor_lattice(3), 4),
    (min_lattice(1), 30), (min_lattice(2), 6), (min_lattice(3), 3),
    (ProductLattice((divisor_lattice(), min_lattice())), 12),
    (ProductLattice((load_hasse(_shuffled_hasse_divisors(36, 1)), min_lattice())), 3),
])
def test_mobius_below_is_the_generic_row_on_lower_closed_covering_sets(lattice, bound):
    for x, row in _generic_rows(lattice.covering_set(bound)).items():
        got = lattice.mobius_below(x)
        assert dict(got) == row and len(got) == len(row)


@pytest.mark.parametrize("n, seed", [(60, 2), (210, 3), (360, 4)])
def test_mobius_below_on_a_hasse_lattice_listed_out_of_order(n, seed):
    lattice = load_hasse(_shuffled_hasse_divisors(n, seed))
    # some element is listed before one of its lower covers
    assert any(lattice.elements.index(a) > lattice.elements.index(b)
               for a, b in lattice.cover_edges)
    rows = _generic_rows(lattice.covering_set())
    for x in lattice.elements:
        closed = {str(z): mobius_int(int(x) // z) for z in range(1, int(x))
                  if int(x) % z == 0 and mobius_int(int(x) // z)}
        assert dict(lattice.mobius_below(x)) == rows[x] == closed
        assert len(lattice.mobius_below(x)) == len(closed)


def test_load_hasse_explicit(tmp_path):
    path = tmp_path / "lat.txt"
    path.write_text(
        "# a diamond\n"
        "elem bot\nelem a\nelem b\nelem top\n"
        "edge bot a\nedge bot b\nedge a top\nedge b top\n"
    )
    lat = load_hasse(path)
    assert lat.meet("a", "b") == "bot"
    assert lat.least == "bot"


def test_load_hasse_family(tmp_path):
    path = tmp_path / "fam.txt"
    path.write_text("family divisor d=2\n")
    fam = load_hasse(path)
    assert fam.meet((4, 9), (6, 3)) == (2, 3)


def test_load_hasse_rejects_mixed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("family min d=1\nelem a\n")
    with pytest.raises(ValueError):
        load_hasse(path)


def test_load_hasse_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("vertex a\n")
    with pytest.raises(ValueError):
        load_hasse(path)


class _OrderOnly:
    """Lattice stub with meets but no enumerable lower sets."""

    least = 1

    def leq(self, x, y):
        return y % x == 0

    def meet(self, x, y):
        import math

        return math.gcd(x, y)

    def contains(self, x):
        return isinstance(x, int) and x >= 1


def test_lower_closure_needs_enumerable_ambient():
    from meetpd.errors import AmbientNotEnumerableError

    s = subset(_OrderOnly(), [1, 2, 4])
    assert s.meet_closed
    with pytest.raises(AmbientNotEnumerableError):
        s.lower_closed
    with pytest.raises(AmbientNotEnumerableError):
        lower_closure(s)
