"""Permutation arithmetic, group families, and the wreath construction."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arboreal.perm_groups import (
    NotASubgroupError,
    Perm,
    PermGroup,
    check_freeness,
    check_group_table,
    check_orbit_preservation,
    cyclic_table,
    mulclose,
    orbits,
    point_stabilizer,
    wreath_embedding,
)


def test_finite_perm_validation():
    with pytest.raises(ValueError):
        Perm([0, 0, 1])
    p = Perm.from_cycles(3, (0, 1, 2))
    assert [p(c) for c in range(3)] == [1, 2, 0]


def test_finite_compose_and_inverse():
    p = Perm.from_cycles(3, (0, 1, 2))
    q = Perm.from_cycles(3, (1, 2))
    assert (p * q)(1) == p(q(1))
    assert (p * p.inv()).is_identity()
    assert (q * q).is_identity()


def _random_affine(rng):
    shift = rng.randint(-5, 5)
    pts = rng.sample(range(-6, 7), rng.randint(0, 4))
    images = pts[:]
    rng.shuffle(images)
    return Perm(shift=shift, patch=dict(zip(pts, images)))


def test_integer_perm_laws_on_random_triples():
    rng = random.Random(11)
    for _ in range(1000):
        a, b, c = (_random_affine(rng) for _ in range(3))
        x = rng.randint(-20, 20)
        assert ((a * b) * c)(x) == (a * (b * c))(x)
        assert (a * a.inv()).is_identity()
        assert a.inv()(a(x)) == x


def test_integer_perm_normal_form_equality():
    a = Perm(shift=2, patch={0: 1, 1: 0})
    b = Perm(shift=2, patch={1: 0, 0: 1, 5: 5})
    assert a == b and hash(a) == hash(b)
    assert Perm.z_translation(0).is_identity()


def test_finite_group_closure_validation():
    # a generator list is closed, not rejected: the 3-cycle gives C3, and the
    # identity with (0 1) and (1 2) gives Sym(3)
    c3 = PermGroup.generated([Perm.from_cycles(3, (0, 1, 2))])
    assert c3.elements == PermGroup.cyclic(3).elements
    assert c3.describe()["amenability_reason"] == "finite (order 3)"
    sym3 = PermGroup.generated([Perm.identity(3), Perm.from_cycles(3, (0, 1)),
                                Perm.from_cycles(3, (1, 2))])
    assert sym3.elements == PermGroup.symmetric(3).elements
    alt3 = PermGroup.alternating(3)
    assert len(alt3.elements) == 3
    assert len(PermGroup.symmetric(3).elements) == 6
    assert len(PermGroup.cyclic(5).elements) == 5


def _naive_closure(gens):
    """Add all pairwise products until none is new."""
    els = set(gens)
    while True:
        new = {a * b for a in els for b in els} - els
        if not new:
            return els
        els |= new


def _perms(degree):
    return st.permutations(range(degree)).map(Perm)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 5).flatmap(lambda d: st.lists(_perms(d), min_size=1, max_size=3)),
       st.data())
def test_generated_equals_the_naive_closure(gens, data):
    closure = sorted(_naive_closure(gens), key=Perm.key)
    # the same group from redundant members before or after the generators,
    # and from all of its elements in any order
    redundant = data.draw(st.lists(st.sampled_from(closure), min_size=1, max_size=4))
    for listed in (redundant + gens, gens + redundant, data.draw(st.permutations(closure))):
        assert PermGroup.generated(listed).elements == tuple(closure)
    G = PermGroup.generated(gens)
    els = set(G.elements)
    assert els == set(closure)
    assert list(G.elements) == closure
    assert G.degree == gens[0].degree
    for a in G.elements:
        assert a.inv() in els
        for b in G.elements:
            assert a * b in els


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 5).flatmap(_perms), min_size=2, max_size=4).filter(
    lambda gens: len({p.degree for p in gens}) > 1))
def test_generated_rejects_mixed_degrees(gens):
    with pytest.raises(ValueError, match="^finite groups need a common finite degree$"):
        PermGroup.generated(gens)


@pytest.mark.parametrize("build, degree", [
    (PermGroup.symmetric, 0), (PermGroup.alternating, 0), (PermGroup.trivial, 0),
    (PermGroup.cyclic, -3), (lambda d: PermGroup.generated([Perm(range(d))]), 0),
], ids=["symmetric", "alternating", "trivial", "cyclic", "generated"])
def test_finite_group_on_no_colors_is_rejected(build, degree):
    with pytest.raises(ValueError, match=f"^color-set degree must be at least 1, got {degree}$"):
        build(degree)


def test_generated_rejects_an_empty_list_and_integer_perms():
    with pytest.raises(ValueError, match="^empty element list$"):
        PermGroup.generated([])
    with pytest.raises(ValueError, match="^finite groups need a common finite degree$"):
        PermGroup.generated([Perm.z_translation(1)])


@pytest.mark.parametrize("degree", range(1, 7))
def test_symmetric_and_alternating_match_an_enumeration(degree):
    tables = list(itertools.permutations(range(degree)))
    even = [t for t in tables
            if sum(t[i] > t[j] for i in range(degree) for j in range(i + 1, degree)) % 2 == 0]
    assert [p.key() for p in PermGroup.symmetric(degree).elements] == [("f", t) for t in tables]
    assert [p.key() for p in PermGroup.alternating(degree).elements] == [("f", t) for t in even]


def test_freeness_predicate():
    assert check_freeness(PermGroup.alternating(3))
    assert not check_freeness(PermGroup.symmetric(3))
    assert check_freeness(PermGroup.z_translations())
    # finitary parts fix cofinitely many points, so the affine family is not free
    assert not check_freeness(PermGroup.z_finitary_affine())


def test_freeness_of_cyclic_groups():
    assert check_freeness(PermGroup.cyclic(5))
    assert not check_freeness(PermGroup.alternating(5))


def test_orbit_preservation():
    alt3, sym3 = PermGroup.alternating(3), PermGroup.symmetric(3)
    assert check_orbit_preservation(alt3, sym3)
    assert check_orbit_preservation(PermGroup.z_translations(), PermGroup.z_finitary_affine())
    assert not check_orbit_preservation(PermGroup.trivial(3), sym3)
    with pytest.raises(NotASubgroupError):
        check_orbit_preservation(sym3, alt3)


def test_point_stabilizer_finite():
    sym3 = PermGroup.symmetric(3)
    stab = point_stabilizer(sym3, 0)
    assert len(stab.elements) == 2
    assert Perm.from_cycles(3, (1, 2)) in stab.elements
    assert len(point_stabilizer(PermGroup.alternating(3), 0).elements) == 1
    # closure under the group laws
    for p in stab.elements:
        assert stab.contains(p.inv())
        for q in stab.elements:
            assert stab.contains(p * q)


def test_point_stabilizer_integer_family():
    stab = point_stabilizer(PermGroup.z_finitary_affine(), 0)
    assert stab.kind == "z_stabilizer"
    assert stab.contains(Perm.z_swap(1, 2))
    assert not stab.contains(Perm.z_swap(0, 2))
    assert not stab.contains(Perm.z_translation(1))
    # nonzero shifts fixing the point still belong to the stabilizer family
    tricky = Perm(shift=5, patch={0: -5, -5: 0})
    assert tricky(0) == 0 and stab.contains(tricky)
    sample = stab.sample_nontrivial()
    assert stab.contains(sample) and not sample.is_identity()


@pytest.mark.parametrize("build", [
    pytest.param(lambda: PermGroup.trivial(3), id="trivial-3"),
    pytest.param(lambda: PermGroup.cyclic(1), id="cyclic-1"),
    pytest.param(lambda: PermGroup.alternating(2), id="alternating-2"),
    pytest.param(lambda: PermGroup.generated([Perm(range(4))] * 2), id="listed-identity"),
    pytest.param(lambda: point_stabilizer(PermGroup.cyclic(3), 0), id="stabilizer-order-1"),
    pytest.param(lambda: point_stabilizer(PermGroup.symmetric(4), 0), id="stabilizer-order-6"),
])
def test_reason_is_trivial_exactly_at_order_one(build):
    # the reason follows from the group, whichever constructor built it
    G = build()
    n = len(G.elements)
    assert G.amenability_reason == ("trivial" if n == 1 else f"finite (order {n})")
    assert G.describe()["amenability_reason"] == G.amenability_reason


def test_group_table_validation():
    table, e, inv = check_group_table(cyclic_table(4))
    assert table == tuple(map(tuple, cyclic_table(4)))
    assert (e, inv) == (0, [0, 3, 2, 1])
    # Z/3 with its identity at index 2: x * y = x + y + 1 mod 3
    assert check_group_table([[(i + j + 1) % 3 for j in range(3)] for i in range(3)])[1:] == (
        2, [1, 0, 2])
    for bad in ([[0, 1], [1, 1]], 5, [5], [[0, 1], [1, "0"]], [[0, 1], [1, 0.0]]):
        with pytest.raises(ValueError):
            check_group_table(bad)


def test_wreath_z2_z2():
    F, Fp, points, embed = wreath_embedding(cyclic_table(2), cyclic_table(2))
    assert len(points) == 4
    assert len(F.elements) == 4
    assert len(Fp.elements) == 8
    assert Fp.contains_group(F)
    assert check_freeness(F)
    assert orbits(F) == [frozenset(range(4))]
    stab = point_stabilizer(Fp, 0)
    assert len(stab.elements) == 2
    g = embed[1]
    assert Fp.contains(g) and not g.is_identity()


def test_wreath_z3_z2():
    F, Fp, points, embed = wreath_embedding(cyclic_table(3), cyclic_table(2))
    assert len(points) == 9
    assert len(Fp.elements) == 18
    assert check_freeness(F)
    stab = point_stabilizer(Fp, 0)
    assert len(stab.elements) == 2  # isomorphic to A = Z/2
    assert (stab.elements[0] * stab.elements[1]) in stab.elements


def _sym3_table():
    els = list(itertools.permutations(range(3)))
    return [[els.index(tuple(p[i] for i in q)) for q in els] for p in els]


def _wreath_listing(gamma, a):
    """Every (f, alpha) in Gamma wr A as a permutation of the functions
    A -> Gamma, listed exhaustively: (f, alpha) . x = t -> f(t) x(alpha^-1 t).
    Returns the points, the sorted base group, the sorted wreath product and
    the embedding of Gamma at the identity coordinate of A."""
    gt, ge, _ = check_group_table(gamma)
    at, ae, a_inv = check_group_table(a)
    ng, na = len(gt), len(at)
    points = list(itertools.product(range(ng), repeat=na))
    index = {x: i for i, x in enumerate(points)}

    def perm(f, alpha):
        return Perm([index[tuple(gt[f[t]][x[at[a_inv[alpha]][t]]] for t in range(na))]
                     for x in points])

    base = sorted({perm(f, ae) for f in points}, key=Perm.key)
    full = sorted({perm(f, alpha) for f in points for alpha in range(na)}, key=Perm.key)
    embed = {g: perm(tuple(g if t == ae else ge for t in range(na)), ae) for g in range(ng)}
    return points, base, full, embed


# Z/3 as x * y = x + y + 1 mod 3, whose identity is at index 2
Z3_IDENTITY_AT_2 = [[(i + j + 1) % 3 for j in range(3)] for i in range(3)]

WREATH_PAIRS = [pytest.param(cyclic_table(g), cyclic_table(n), id=f"z{g}-z{n}")
                for g in range(2, 9) for n in range(2, 7) if g ** n <= 64] + [
    pytest.param(_sym3_table(), cyclic_table(2), id="sym3-z2"),
    pytest.param(cyclic_table(2), _sym3_table(), id="z2-sym3"),
    pytest.param(Z3_IDENTITY_AT_2, cyclic_table(2), id="z3e2-z2"),
    pytest.param(cyclic_table(2), Z3_IDENTITY_AT_2, id="z2-z3e2"),
]


@pytest.mark.parametrize("gamma, a", WREATH_PAIRS)
def test_wreath_embedding_matches_the_exhaustive_listing(gamma, a):
    F, Fp, points, embed = wreath_embedding(gamma, a)
    ref_points, base, full, ref_embed = _wreath_listing(gamma, a)
    assert points == ref_points
    assert list(F.elements) == base and list(Fp.elements) == full
    assert len(full) == len(points) * len(a)  # faithful
    assert (F.amenability_reason, Fp.amenability_reason) == (
        f"finite (order {len(base)})", f"finite (order {len(full)})")
    assert embed == ref_embed
    # every point stabilizer is the listed one, a conjugate of Stab(x0)
    x0 = points.index((check_group_table(gamma)[1],) * len(a))  # constant at Gamma's identity
    stab0 = [p for p in full if p(x0) == x0]
    for x in range(len(points)):
        stab = [p for p in full if p(x) == x]
        assert list(point_stabilizer(Fp, x).elements) == stab
        g = next(p for p in full if p(x0) == x)
        assert {g * s * g.inv() for s in stab0} == set(stab)


def test_wreath_rejects_trivial_factors():
    with pytest.raises(ValueError):
        wreath_embedding(cyclic_table(2), cyclic_table(1))
    with pytest.raises(ValueError):
        wreath_embedding(cyclic_table(1), cyclic_table(2))
    # the all-zero table is no group table, but the one-row Gamma fails first
    with pytest.raises(ValueError, match="^trivial Gamma"):
        wreath_embedding([[0]], [[0, 0], [0, 0]])


def test_wreath_degree_cap_comes_before_the_table_checks():
    # the all-zero 9x9 table is no group table, but 9^2 colors fail first
    with pytest.raises(ValueError, match="^color-set degree must be at most 64, got 81$"):
        wreath_embedding([[0] * 9 for _ in range(9)], cyclic_table(2))


def test_group_families_at_their_caps():
    assert len(PermGroup.cyclic(64).elements) == 64
    assert PermGroup.trivial(64).degree == 64
    assert len(mulclose([Perm.from_cycles(6, (0, 1)), Perm.from_cycles(6, range(6))])) == 720


def test_finite_group_laws_exhaustively_sym3():
    sym3 = PermGroup.symmetric(3)
    els = sym3.elements
    ident = Perm.identity(3)
    for a in els:
        assert (a * a.inv()) == ident
        for b in els:
            for c in els:
                assert (a * b) * c == a * (b * c)
