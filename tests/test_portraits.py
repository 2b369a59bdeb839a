"""Branch-constant portrait arithmetic: group laws, cocycle, canonical forms,
class membership, and the structural lemmas about edge fixators and torsion.
"""

import hashlib
import json
import random

import pytest

from arboreal.perm_groups import Perm, PermGroup
from arboreal.portraits import (
    GroupClass,
    PortraitError,
    TreeAut,
    aut_from_data,
    aut_to_data,
    end_image_prefix,
    enumerate_branch_constant,
    random_element,
)
from arboreal.tree_core import V0, enumerate_ball, periodic_end, ray_prefix

ALT3 = PermGroup.alternating(3)
SYM3 = PermGroup.symmetric(3)
G_CLASS = GroupClass.prescribed(ALT3, SYM3)
U_ALT3 = GroupClass.universal(ALT3)


def ball3():
    return sorted(enumerate_ball(V0, 3, range(3)))


def test_identity_evaluates_trivially():
    e = TreeAut.identity(3)
    assert e.evaluate((0, 1, 2)) == (0, 1, 2)
    assert e.is_identity()


def test_edge_inversion_from_constant():
    g = TreeAut.from_constant(Perm.identity(3), (0,))
    assert g.evaluate((0,)) == V0
    assert g.evaluate(V0) == (0,)
    assert (g * g).is_identity()
    assert g.inverse() == g


def test_rigid_translation_one_step_recursion():
    g = TreeAut.from_constant(Perm.identity(3), (0, 1))
    assert g.evaluate((0,)) == (0, 1, 0)
    assert g.inverse().base == (1, 0)
    assert (g * g.inverse()).is_identity()


def test_rotation_fixes_base_and_permutes_neighbors():
    g = TreeAut.from_constant(Perm.from_cycles(3, (0, 1, 2)), V0)
    assert g.evaluate(V0) == V0
    assert g.evaluate((0,)) == (1,)
    assert g.evaluate((2,)) == (0,)


def test_constructor_rejects_bad_portraits():
    with pytest.raises(PortraitError):
        TreeAut((0,), {(0,): Perm.identity(3)})  # core missing the base vertex
    with pytest.raises(PortraitError):
        # incompatible core edge: parent sends color 0 to 1, child fixes it
        TreeAut(
            V0,
            {V0: Perm.from_cycles(3, (0, 1, 2)), (0,): Perm.identity(3)},
            {
                (V0, 1): Perm.from_cycles(3, (0, 1, 2)),
                (V0, 2): Perm.from_cycles(3, (0, 1, 2)),
                ((0,), 1): Perm.identity(3),
                ((0,), 2): Perm.identity(3),
            },
        )
    with pytest.raises(PortraitError):
        TreeAut(V0, {V0: Perm.identity(3)}, {(V0, 0): Perm.identity(3)})  # frontier gaps


def test_evaluate_is_a_bijection_on_balls():
    g = random_element(G_CLASS, 2, seed=5)
    ball = ball3()
    images = {g.evaluate(v) for v in ball}
    assert len(images) == len(ball)


def test_canonicalize_absorbs_redundant_padding():
    f = Perm.from_cycles(3, (0, 1, 2))
    g = TreeAut.from_constant(f, V0)
    core, branches, defaults = g.extended(enumerate_ball(V0, 2, range(3)))
    assert len(core) == 10
    padded = TreeAut(g.base, core, branches, defaults)
    assert padded.core == {V0: f}
    assert padded == g
    # every element is built canonical, and absorbing preserves evaluation
    assert padded.canonical() is padded
    for v in ball3():
        assert padded.evaluate(v) == g.evaluate(v)


def test_two_paddings_reach_the_same_canonical_form():
    g = random_element(G_CLASS, 2, seed=9)
    p1 = TreeAut(g.base, *g.extended(enumerate_ball(V0, 3, range(3))))
    p2 = TreeAut(g.base, *g.extended(enumerate_ball(V0, 4, range(3))))
    assert p1.key() == p2.key() == g.key()
    for v in ball3():
        assert p1.evaluate(v) == g.evaluate(v)


def test_group_axioms_on_random_elements():
    els = [random_element(G_CLASS, 2, seed=s) for s in range(24)]
    e = TreeAut.identity(3)
    for i, g in enumerate(els):
        h = els[(i + 1) % len(els)]
        k = els[(i + 2) % len(els)]
        assert (g * h) * k == g * (h * k)
        assert g * e == g and e * g == g
        assert g * g.inverse() == e
        assert g.inverse().inverse() == g


def test_compose_matches_pointwise_composition():
    rng = random.Random(2)
    for s in range(12):
        g = random_element(G_CLASS, 2, seed=100 + s)
        h = random_element(G_CLASS, 2, seed=200 + s)
        gh = g * h
        for v in rng.sample(ball3(), 10):
            assert gh.evaluate(v) == g.evaluate(h.evaluate(v))


def test_cocycle_identity_on_radius_3_ball():
    for s in range(8):
        g = random_element(G_CLASS, 2, seed=300 + s)
        h = random_element(G_CLASS, 2, seed=400 + s)
        gh = g * h
        for v in ball3():
            lhs = gh.local_action(v)
            rhs = g.local_action(h.evaluate(v)) * h.local_action(v)
            assert lhs == rhs


def test_preimage_inverts_evaluate():
    for s in range(8):
        g = random_element(G_CLASS, 2, seed=500 + s)
        for v in ball3()[:20]:
            assert g.preimage(g.evaluate(v)) == v


def test_membership_of_identity_and_constants():
    assert U_ALT3.contains(TreeAut.identity(3))
    assert G_CLASS.contains(TreeAut.identity(3))
    rot = TreeAut.from_constant(Perm.from_cycles(3, (1, 2)), V0)
    assert not U_ALT3.contains(rot)
    assert not G_CLASS.contains(rot)  # odd constant everywhere is not almost-in-F


def test_membership_star_uses_base_parity():
    star = GroupClass.prescribed_star(ALT3, SYM3)
    glide = TreeAut.from_constant(Perm.identity(3), (0, 1))
    assert star.contains(glide)
    inv = TreeAut.from_constant(Perm.identity(3), (0,))
    assert not star.contains(inv)


def test_membership_rejects_domain_mismatch():
    g4 = TreeAut.identity(4)
    with pytest.raises(ValueError):
        U_ALT3.contains(g4)


def test_random_element_is_deterministic_and_in_class():
    a = random_element(G_CLASS, 2, seed=7)
    b = random_element(G_CLASS, 2, seed=7)
    assert a == b
    assert G_CLASS.contains(a)
    c = random_element(U_ALT3, 2, seed=3)
    assert U_ALT3.contains(c)


def test_random_element_trivial_group_gives_rigid_motions():
    cls = GroupClass.universal(PermGroup.trivial(3))
    for s in range(6):
        g = random_element(cls, 2, seed=s)
        canon = g.canonical()
        assert all(p.is_identity() for p in canon.core.values())


def test_enumeration_of_universal_elements_radius_2():
    bases = sorted(enumerate_ball(V0, 2, range(3)))
    els = enumerate_branch_constant(ALT3, 2, bases)
    # 10 base images, and a free transitive action leaves 3 compatible portraits each
    assert len(els) == 30
    for g in els:
        assert U_ALT3.contains(g)


def test_edge_fixators_trivial_for_free_local_group():
    """Elements of the universal group fixing both endpoints of an edge are
    trivial: exhaustively over core radius 2, and directly because the local
    action at an endpoint fixes the edge color, hence is trivial by freeness."""
    bases = sorted(enumerate_ball(V0, 2, range(3)))
    els = enumerate_branch_constant(ALT3, 2, bases)
    fixers = [g for g in els if g.evaluate(V0) == V0 and g.evaluate((0,)) == (0,)]
    assert len(fixers) == 1 and fixers[0].is_identity()
    # direct argument: sigma at the endpoint fixes the color and lies in a free group
    stab = [p for p in ALT3.elements if p(0) == 0]
    assert all(p.is_identity() for p in stab)


def test_star_subgroup_torsion_free_over_integer_colors():
    """With translation local actions, powers of a nontrivial bipartite
    element never return to the identity (up to exponent 20)."""
    star = GroupClass.prescribed_star(PermGroup.z_translations(), PermGroup.z_translations())
    e = TreeAut.identity(None)
    for s in range(40):
        g = random_element(star, 2, seed=s)
        if g == e:
            continue
        p = g
        for _ in range(20):
            assert p != e
            p = g * p


def test_integer_color_compose_and_invert():
    t = TreeAut.from_constant(Perm.z_translation(2), V0)
    s = TreeAut.from_constant(Perm.z_translation(-2), V0)
    assert (t * s).is_identity()
    assert t.inverse() == s
    g = TreeAut.from_constant(Perm.z_translation(1), (0, 1))
    assert (g * g.inverse()).is_identity()
    assert g.evaluate((5,)) == g.evaluate((5,))  # deterministic
    gh = g * g
    for v in [(0,), (1, 2), (-3, 4)]:
        assert gh.evaluate(v) == g.evaluate(g.evaluate(v))


def test_end_image_prefix_matches_direct_limit():
    g = TreeAut.from_constant(Perm.identity(3), (0, 1))
    xi = periodic_end((), (0, 1))
    img = end_image_prefix(g, xi, 10)
    # the translation shifts its own axis end onto itself
    assert img == ray_prefix(xi, 10)
    rot = TreeAut.from_constant(Perm.from_cycles(3, (0, 1, 2)), V0)
    moved = end_image_prefix(rot, xi, 10)
    assert moved[0] == 1


def test_serialization_round_trip():
    for s in (1, 4, 9):
        g = random_element(G_CLASS, 2, seed=s)
        assert aut_from_data(aut_to_data(g)) == g
    t = TreeAut.from_constant(Perm(shift=1, patch={3: 4, 4: 3}), (0,))
    assert aut_from_data(aut_to_data(t)) == t


def test_equality_matches_ball_evaluation_oracle():
    """Structural equality of canonical forms against the independent
    evaluate-on-a-ball oracle, both directions."""
    pool = [random_element(G_CLASS, 2, seed=800 + s) for s in range(10)]
    probes = sorted(enumerate_ball(V0, 4, range(3)))
    for i, g in enumerate(pool):
        for j, h in enumerate(pool):
            same_struct = g == h
            same_eval = all(g.evaluate(v) == h.evaluate(v) for v in probes)
            assert same_struct == same_eval, (i, j)


def test_unrestricted_class_accepts_everything_with_matching_degree():
    cls = GroupClass.universal(SYM3)  # U(Sym(3)) holds every degree-3 element
    rot = TreeAut.from_constant(Perm.from_cycles(3, (1, 2)), V0)
    assert cls.contains(rot)
    g = random_element(cls, 2, seed=1)
    assert cls.contains(g)


def test_random_element_draws_are_pinned():
    # many seeded tests rest on this stream; a change to the draw order
    # or to which vertices may take F' actions shows here first
    z = PermGroup.z_translations()
    classes = [G_CLASS, GroupClass.prescribed_star(ALT3, SYM3), U_ALT3, GroupClass.universal(SYM3),
               GroupClass.universal(PermGroup.trivial(3)), GroupClass.prescribed_star(z, z)]
    digest = hashlib.sha256()
    for cls in classes:
        for s in range(40):
            data = aut_to_data(random_element(cls, 2, seed=s))
            digest.update(json.dumps(data, sort_keys=True).encode())
    assert digest.hexdigest() == "65637522f0ed3382811d948be297b336af6930fff234b9a478c0057e22060c4c"


def test_constructor_rejects_defaults_off_the_core():
    z_id, f_id = Perm.identity(None), Perm.identity(3)
    full = {(V0, c): f_id for c in range(3)}
    with pytest.raises(PortraitError, match="default at non-core vertex"):
        TreeAut(V0, {V0: z_id}, defaults={V0: z_id, (3,): z_id})
    with pytest.raises(PortraitError, match="default at non-core vertex"):
        TreeAut(V0, {V0: f_id}, defaults={V0: f_id, (1,): f_id})
    # a fully listed frontier still has its default checked
    with pytest.raises(PortraitError, match="default at non-core vertex"):
        TreeAut(V0, {V0: f_id}, full, defaults={(1,): f_id})
    with pytest.raises(PortraitError, match="does not match degree"):
        TreeAut(V0, {V0: f_id}, full, defaults={V0: z_id})


@pytest.mark.parametrize("sigma, default", [
    (Perm.identity(3), Perm.from_cycles(3, (0, 1))),
    (Perm.identity(None), Perm.z_swap(0, 1)),
], ids=["finite", "integer"])
def test_default_must_agree_with_the_core_at_unlisted_frontier_colors(sigma, default):
    # both color sets check a default by the same rule and reject it with
    # the same message
    with pytest.raises(PortraitError, match=r"breaks compatibility at colors \[0, 1\]"):
        TreeAut(V0, {V0: sigma}, defaults={V0: default})


@pytest.mark.parametrize("f, deg", [
    (Perm.from_cycles(5, (0, 1, 2, 3, 4)), 5), (Perm.z_translation(2), None),
], ids=["finite", "integer"])
def test_degree_is_derived_from_the_core(f, deg):
    g = TreeAut.from_constant(f, (0,))
    assert g.deg == (g * g).deg == g.inverse().deg == deg


def test_constructor_rejects_a_core_of_mixed_degrees():
    core = {V0: Perm.identity(3), (0,): Perm.identity(4)}
    with pytest.raises(PortraitError, match="does not match degree 3"):
        TreeAut(V0, core, defaults=core)
