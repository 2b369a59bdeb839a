"""Isometry classification, axis ends, half-tree fixation, and the witnesses
for independent hyperbolic elements."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arboreal.cstar_obstruction import fixator_witness, resolve_groups, standard_generators
from arboreal.dynamics import (
    Elliptic,
    Hyperbolic,
    Inversion,
    _axis_ray,
    axis_and_ends,
    classify_isometry,
    enumerate_products,
    fixes_half_tree_pointwise,
    general_type_witness,
)
from arboreal.perm_groups import Perm, PermGroup
from arboreal.portraits import GroupClass, TreeAut, image_prefix, random_element
from arboreal.tree_core import V0, distance, enumerate_ball, half_tree

ALT3 = PermGroup.alternating(3)
SYM3 = PermGroup.symmetric(3)
G_CLASS = GroupClass.prescribed(ALT3, SYM3)

IDENT3 = Perm.identity(3)
ROT = Perm.from_cycles(3, (0, 1, 2))


def brute_force_classification(g, window=range(3)):
    """Oracle: minimal displacement over the ball of radius d(v0, g v0) + 2."""
    r = distance(V0, g.evaluate(V0)) + 2
    ball = sorted(enumerate_ball(V0, r, window))
    disp = {v: distance(v, g.evaluate(v)) for v in ball}
    m = min(disp.values())
    if m == 0:
        return "elliptic", 0
    if m == 1:
        for v, d in disp.items():
            if d == 1 and g.evaluate(g.evaluate(v)) == v:
                return "inversion", 1
    return "hyperbolic", m


def kind_of(cls):
    return {Elliptic: "elliptic", Inversion: "inversion", Hyperbolic: "hyperbolic"}[type(cls)]


def test_identity_is_elliptic_at_base():
    assert classify_isometry(TreeAut.identity(3)) == Elliptic(V0)


def test_edge_inversion_classification():
    g = TreeAut.from_constant(IDENT3, (0,))
    cls = classify_isometry(g)
    assert isinstance(cls, Inversion)
    assert {cls.edge.tail, cls.edge.head} == {V0, (0,)}


def test_rigid_glide_is_hyperbolic_of_length_2():
    g = TreeAut.from_constant(IDENT3, (0, 1))
    cls = classify_isometry(g)
    assert isinstance(cls, Hyperbolic) and cls.length == 2
    assert brute_force_classification(g) == ("hyperbolic", 2)
    w = cls.axis_point
    p = g
    for n in range(1, 6):
        assert distance(w, p.evaluate(w)) == n * cls.length
        p = g * p


def test_rotation_is_elliptic():
    cls = classify_isometry(TreeAut.from_constant(ROT, V0))
    assert isinstance(cls, Elliptic) and cls.fixed_vertex == V0


def test_classification_matches_brute_force_on_random_elements():
    for s in range(60):
        g = random_element(G_CLASS, 2, seed=1000 + s)
        cls = classify_isometry(g)
        kind, length = brute_force_classification(g)
        assert kind_of(cls) == kind
        if kind == "hyperbolic":
            assert cls.length == length
            assert distance(cls.axis_point, g.evaluate(cls.axis_point)) == length


def test_classification_is_conjugation_equivariant():
    for s in range(20):
        g = random_element(G_CLASS, 2, seed=2000 + s)
        h = random_element(G_CLASS, 2, seed=3000 + s)
        c1, c2 = classify_isometry(g), classify_isometry(h * g * h.inverse())
        assert kind_of(c1) == kind_of(c2)
        if isinstance(c1, Hyperbolic):
            assert c1.length == c2.length


def test_axis_ends_of_the_glide():
    g = TreeAut.from_constant(IDENT3, (0, 1))
    att, rep = axis_and_ends(g, 8)
    assert att == (0, 1, 0, 1, 0, 1, 0, 1)
    assert rep == (1, 0, 1, 0, 1, 0, 1, 0)
    assert axis_and_ends(g.inverse(), 8) == (rep, att)


def test_axis_ends_reject_non_hyperbolic():
    with pytest.raises(ValueError):
        axis_and_ends(TreeAut.identity(3), 8)


def test_axis_ends_conjugation_equivariance_to_depth_8():
    g = TreeAut.from_constant(IDENT3, (0, 1))
    for s in range(8):
        h = random_element(G_CLASS, 2, seed=4000 + s)
        att, rep = axis_and_ends(g, 8 + len(h.base))
        catt, crep = axis_and_ends(h * g * h.inverse(), 8)
        assert catt == image_prefix(h, att, 8)
        assert crep == image_prefix(h, rep, 8)


def test_identity_fixes_every_half_tree():
    e = TreeAut.identity(3)
    for h in [half_tree(V0, 0), half_tree((0, 1), 2), half_tree((1,), 1)]:
        assert fixes_half_tree_pointwise(e, h)
        assert fixes_half_tree_pointwise(e, h.reversed())


def test_edge_inversion_moves_its_own_half_tree():
    g = TreeAut.from_constant(IDENT3, (0,))
    assert not fixes_half_tree_pointwise(g, half_tree(V0, 0))
    assert not fixes_half_tree_pointwise(g, half_tree((0,), 0))


def test_half_tree_fixation_agrees_with_ball_oracle():
    # the last two edges, a co-cylinder and a cylinder with 4-letter tails,
    # lie beyond every core; the radius-7 ball reaches two levels past them
    halves = [half_tree(V0, 0), half_tree((0,), 1), half_tree((1, 0), 2),
              half_tree((0,), 0), half_tree((0, 1), 1),
              half_tree((0, 1, 0, 1), 1), half_tree((1, 0, 1, 0), 2)]
    ball = sorted(enumerate_ball(V0, 7, range(3)))
    from arboreal.tree_core import half_tree_contains

    for s in range(80):
        # Sym(3) branch constants can fix an edge color without being trivial
        cls = G_CLASS if s < 40 else GroupClass.universal(SYM3)
        g = random_element(cls, 2, seed=5000 + s)
        for h in halves:
            decided = fixes_half_tree_pointwise(g, h)
            oracle = all(
                g.evaluate(v) == v for v in ball if half_tree_contains(h, v)
            )
            assert decided == oracle


def test_half_tree_fixation_reads_no_default_the_padding_left_uncovered():
    # at (1,) the frontier colors 0 and 2 tie one to one, so the smaller
    # color makes the swap on the branch of (1, 0) the default; padding
    # (1, 0) into the core leaves that default covering no frontier color,
    # and the half-tree beyond the edge from (1, 0) to (1,) is fixed
    swap = Perm.from_cycles(3, (1, 2))
    g = TreeAut(V0, {V0: IDENT3, (1,): IDENT3}, {((1,), 0): swap, ((1,), 2): IDENT3}, {V0: IDENT3})
    assert g.defaults == {V0: IDENT3, (1,): swap}
    h = half_tree((1, 0), 0)
    assert fixes_half_tree_pointwise(g, h)
    assert not fixes_half_tree_pointwise(g, h.reversed())


def test_half_tree_fixation_over_integer_colors():
    # constant translation moves every co-cylinder half-tree, fixes none
    t = TreeAut.from_constant(Perm.z_translation(1), V0)
    assert not fixes_half_tree_pointwise(t, half_tree(V0, 0))
    assert fixes_half_tree_pointwise(TreeAut.identity(None), half_tree(V0, 5))


def exhaustive_products(gens, max_len):
    """Reference BFS: every word of each length, duplicates included, in lex
    order; the first word of each new element is yielded."""
    alphabet = []
    for g in gens:
        alphabet += [g, g.inverse()]
    seen = {TreeAut.identity(gens[0].deg).key()}
    layer = [((), TreeAut.identity(gens[0].deg))]
    for _ in range(max_len):
        layer = [(w + (i,), el * a) for w, el in layer for i, a in enumerate(alphabet)]
        for w, el in layer:
            if el.key() not in seen:
                seen.add(el.key())
                yield w, el


@pytest.mark.parametrize("name, length", [
    pytest.param("g-alt3-sym3", 3, id="alt3"),
    pytest.param("z-translations", 3, id="z-translations"),
    ("g-cycle5-alt5", 3),
    ("wreath-z2-z2", 2),
    ("wreath-z2-z3", 2),
    ("wreath-z3-z2", 2),
])
def test_pruned_products_match_exhaustive_bfs(name, length):
    # the wreath alphabets repeat letters: the inverse of an F-constant is
    # another F-constant, and the edge flip (0,) is its own inverse
    gens = generator_set(name)
    pruned = [(w, el.key()) for w, el in enumerate_products(gens, length)]
    assert pruned == [(w, el.key()) for w, el in exhaustive_products(gens, length)]
    assert list(enumerate_products(gens, 0)) == []


def test_general_type_witness_found_for_universal_generators():
    gens = [TreeAut.from_constant(ROT, (0,)), TreeAut.from_constant(ROT, (0, 1))]
    found = general_type_witness(gens, 3)
    assert found is not None
    g1, g2 = found
    assert isinstance(classify_isometry(g1), Hyperbolic)
    assert isinstance(classify_isometry(g2), Hyperbolic)
    assert len(set(axis_and_ends(g1, 12) + axis_and_ends(g2, 12))) == 4


def eager_general_type_witness(gens, search_len):
    """Reference search: both axis rays of every hyperbolic product, to depth
    max(2 s^2 m, 8), before the first pair is tested; pairs in order of the
    later element, then of the earlier one."""
    m = max(len(g.base) for g in gens)
    if m == 0:
        return None
    depth = max(2 * search_len * search_len * m, 8)
    hyperbolics = [el for _, el in enumerate_products(gens, search_len)
                   if isinstance(classify_isometry(el), Hyperbolic)]
    rays = [axis_and_ends(el, depth) for el in hyperbolics]
    for j in range(len(hyperbolics)):
        for i in range(j):
            if len(set(rays[i] + rays[j])) == 4:
                return hyperbolics[i], hyperbolics[j]
    return None


PRESETS = ["g-alt3-sym3", "g-cycle5-alt5", "wreath-z2-z2", "wreath-z2-z3",
           "wreath-z3-z2", "z-translations"]


def generator_set(name):
    """Standard generators of a preset; "rot", whose products have translation
    lengths below the bound s m; "glide-fix", the glide and two half-tree
    fixators, where the first hyperbolic shares an end with the next nine and
    the first pair is (3, 4) of 44 hyperbolics at s = 3; or "elliptic", a
    single generator fixing v0 (m = 0)."""
    if name == "rot":
        return [TreeAut.from_constant(ROT, (0,)), TreeAut.from_constant(ROT, (0, 1))]
    if name == "glide-fix":
        fix = [fixator_witness(ALT3, SYM3, half_tree(tail, 0)) for tail in [V0, (1,)]]
        return [TreeAut.from_constant(IDENT3, (0, 1))] + fix
    if name == "elliptic":
        return [TreeAut.from_constant(ROT, V0)]
    F, _, _ = resolve_groups({"preset": name})
    return standard_generators(F)


def keys(pair):
    return None if pair is None else [g.key() for g in pair]


@pytest.mark.parametrize("name", PRESETS + ["rot", "glide-fix", "elliptic"])
def test_lazy_general_type_witness_matches_eager_reference(name):
    gens = generator_set(name)
    for search_len in (1, 2, 3):
        expected = eager_general_type_witness(gens, search_len)
        assert keys(general_type_witness(gens, search_len)) == keys(expected)
        if name in PRESETS and search_len == 3:
            assert expected is not None


def count_draws(monkeypatch, gens, search_len):
    """The witness search's result and the number of products it drew."""
    drawn = []

    def counting(*args):
        for item in enumerate_products(*args):
            drawn.append(item)
            yield item

    monkeypatch.setattr("arboreal.dynamics.enumerate_products", counting)
    found = general_type_witness(gens, search_len)
    monkeypatch.undo()
    return found, len(drawn)


@pytest.mark.parametrize("search_len", [1, 2, 3])
@pytest.mark.parametrize("name", PRESETS + ["rot", "glide-fix", "elliptic"])
def test_general_type_witness_stops_at_the_deciding_product(monkeypatch, name, search_len):
    gens = generator_set(name)
    found, drawn = count_draws(monkeypatch, gens, search_len)
    ball = [el.key() for _, el in enumerate_products(gens, search_len)]
    if found is not None:
        assert drawn == ball.index(found[1].key()) + 1
    else:
        assert drawn == (0 if name == "elliptic" else len(ball))


def test_general_type_witness_draw_counts_at_search_length_3(monkeypatch):
    counts = {name: count_draws(monkeypatch, generator_set(name), 3)[1]
              for name in ("wreath-z3-z2", "wreath-z2-z3", "rot", "glide-fix")}
    assert counts == {"wreath-z3-z2": 12, "wreath-z2-z3": 14, "rot": 6, "glide-fix": 7}


def test_general_type_witness_needs_no_products_when_every_generator_fixes_v0(monkeypatch):
    assert count_draws(monkeypatch, generator_set("elliptic"), 3) == (None, 0)


def test_general_type_witness_not_found_for_identity():
    assert general_type_witness([TreeAut.identity(3)], 3) is None


def test_general_type_witness_not_found_for_a_single_hyperbolic():
    g = TreeAut.from_constant(IDENT3, (0, 1))
    assert general_type_witness([g], 3) is None


Z_F, Z_FP = PermGroup.z_translations(), PermGroup.z_finitary_affine()
Z_WINDOW = range(-2, 3)
z_words = st.lists(st.sampled_from(list(Z_WINDOW)), max_size=2).filter(
    lambda w: all(a != b for a, b in zip(w, w[1:]))).map(tuple)
finite_generators = st.builds(
    lambda seed: random_element(G_CLASS, 2, seed), st.integers(0, 10**6))
integer_generators = st.one_of(
    st.builds(lambda tail, color: fixator_witness(Z_F, Z_FP, half_tree(tail, color)),
              z_words, st.sampled_from(list(Z_WINDOW))),
    st.builds(lambda shift, base: TreeAut.from_constant(Perm.z_translation(shift), base),
              st.integers(-2, 2), z_words),
)


@pytest.mark.parametrize("generators", [finite_generators, integer_generators],
                         ids=["finite", "integer"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(), search_len=st.integers(1, 3))
def test_general_type_witness_agrees_with_the_eager_reference(generators, data, search_len):
    gens = data.draw(st.lists(generators, min_size=1, max_size=3))
    assert keys(general_type_witness(gens, search_len)) == keys(
        eager_general_type_witness(gens, search_len))


def test_hyperbolic_axis_point_translates_linearly():
    found = 0
    for s in range(60):
        g = random_element(G_CLASS, 2, seed=6000 + s)
        cls = classify_isometry(g)
        if not isinstance(cls, Hyperbolic):
            continue
        found += 1
        w = cls.axis_point
        p = g
        for n in range(1, 6):
            assert distance(w, p.evaluate(w)) == n * cls.length
            p = g * p
        if found >= 10:
            break
    assert found >= 3


def test_half_tree_fixation_oracle_over_integer_colors():
    """Decision procedure vs direct evaluation over a window ball, for
    elements whose portraits carry defaults and exceptions."""
    from arboreal.cstar_obstruction import fixator_witness
    from arboreal.perm_groups import PermGroup
    from arboreal.tree_core import half_tree_contains

    F, Fp = PermGroup.z_translations(), PermGroup.z_finitary_affine()
    w1 = fixator_witness(F, Fp, half_tree(V0, 0))
    w2 = fixator_witness(F, Fp, half_tree((1,), 2))
    glide = TreeAut.from_constant(Perm.z_translation(1), (0, 1))
    elements = [w1, w2, w1 * w2, glide, w1 * glide, TreeAut.identity(None)]
    halves = [half_tree(V0, 0), half_tree(V0, 2), half_tree((0,), 0),
              half_tree((1,), 2), half_tree((2, 1), 0)]
    ball = sorted(enumerate_ball(V0, 4, range(-2, 4)))
    for g in elements:
        for h in halves:
            decided = fixes_half_tree_pointwise(g, h)
            ball_fixed = all(
                g.evaluate(v) == v for v in ball if half_tree_contains(h, v)
            )
            if decided:
                assert ball_fixed
            else:
                # moved witnesses for these elements lie within the window
                assert not ball_fixed, (g, h)


def reference_axis_and_ends(g, depth):
    """axis_and_ends with the axis walk of the fixed length |w| + depth + 4,
    which is never shorter than the proven one, from the axis point w."""
    w = classify_isometry(g).axis_point

    def ray(element):
        prev = cur = w
        for _ in range(len(w) + depth + 4):
            prev, cur = cur, element.evaluate(cur)
        assert cur[:depth] == prev[:depth]
        return cur[:depth]

    return ray(g), ray(g.inverse())


@pytest.mark.parametrize("name", PRESETS)
def test_axis_walk_of_proven_length_matches_the_long_walk(name):
    for _, el in enumerate_products(generator_set(name), 3):
        if isinstance(classify_isometry(el), Hyperbolic):
            for depth in (8, 24):
                assert axis_and_ends(el, depth) == reference_axis_and_ends(el, depth)


def test_axis_walk_of_a_glide_conjugated_away_from_v0():
    # the constant identity portrait with base b acts as v -> b v (reduced), so
    # this is v -> b (01) b^-1 v: translation length 2 along the axis b (01)^Z,
    # whose nearest point to v0 is b
    b = TreeAut.from_constant(IDENT3, (2, 0, 2))
    g = b * TreeAut.from_constant(IDENT3, (0, 1)) * b.inverse()
    cls = classify_isometry(g)
    assert cls.length == 2 and len(cls.axis_point) >= 3
    for depth in (8, 24):
        att, rep = axis_and_ends(g, depth)
        assert (att, rep) == reference_axis_and_ends(g, depth)
        assert att == ((2, 0, 2) + (0, 1) * depth)[:depth]
        assert rep == ((2, 0, 2) + (1, 0) * depth)[:depth]


def test_axis_walk_length_is_tight_from_behind_the_projection():
    # (10)^3 lies on the glide's axis, 6 steps behind v0, the projection of v0:
    # after ceil((6 + 8) / 2) + 1 = 8 steps the last two orbit words are
    # (01)^4 and (01)^5, and one step less would leave (01)^3, too short
    g = TreeAut.from_constant(IDENT3, (0, 1))
    assert _axis_ray(g, (1, 0) * 3, 2, 8) == (0, 1) * 4
    assert _axis_ray(g.inverse(), (0, 1) * 3, 2, 8) == (1, 0) * 4


def recurrence_runs(g, start, length, depth):
    """True when `_axis_ray` extends its walk by the branch recurrence: the
    depth lies past max(|start|, longest core vertex + 1) + L."""
    return depth > max(len(start), max(map(len, g.core)) + 1) + length


def assert_axis_certified(g, ray, length):
    # g moves ray[:D-L] by exactly L onto ray, so ray is an axis ray prefix
    assert g.evaluate(ray[: len(ray) - length]) == ray


@pytest.mark.parametrize("name", PRESETS)
def test_axis_rays_past_the_short_walk_match_the_long_walk(name):
    # z-translations has integer colors, where the branch constant is a
    # callable permutation without a table
    runs = 0
    for _, el in enumerate_products(generator_set(name), 3):
        cls = classify_isometry(el)
        if isinstance(cls, Hyperbolic):
            for depth in (36, 64):
                att, rep = axis_and_ends(el, depth)
                assert (att, rep) == reference_axis_and_ends(el, depth)
                assert_axis_certified(el, att, cls.length)
                assert_axis_certified(el.inverse(), rep, cls.length)
                runs += recurrence_runs(el, cls.axis_point, cls.length, depth)
    assert runs > 0


def test_axis_rays_of_the_conjugated_glide_past_the_short_walk():
    b = TreeAut.from_constant(IDENT3, (2, 0, 2))
    g = b * TreeAut.from_constant(IDENT3, (0, 1)) * b.inverse()
    w = classify_isometry(g).axis_point
    for depth in (36, 64):
        assert recurrence_runs(g, w, 2, depth)
        att, rep = axis_and_ends(g, depth)
        assert (att, rep) == reference_axis_and_ends(g, depth)
        assert att == ((2, 0, 2) + (0, 1) * depth)[:depth]
        assert rep == ((2, 0, 2) + (1, 0) * depth)[:depth]
        assert_axis_certified(g, att, 2)
        assert_axis_certified(g.inverse(), rep, 2)


def test_axis_rays_from_behind_the_projection_past_the_short_walk():
    g = TreeAut.from_constant(IDENT3, (0, 1))
    for depth in (36, 64):
        for el, start, ray in [(g, (1, 0) * 3, (0, 1) * (depth // 2)),
                               (g.inverse(), (0, 1) * 3, (1, 0) * (depth // 2))]:
            assert recurrence_runs(el, start, 2, depth)
            assert _axis_ray(el, start, 2, depth) == ray
            assert_axis_certified(el, ray, 2)


def test_axis_ray_with_a_non_involutive_branch_constant():
    # past the core the rotation maps the tail letter by letter, so the ray
    # is periodic with the rotation's orbit, not with a two-letter period
    g = TreeAut.from_constant(ROT, (0,)) * TreeAut.from_constant(IDENT3, (0, 1))
    cls = classify_isometry(g)
    assert isinstance(cls, Hyperbolic)
    for depth in (36, 64):
        assert recurrence_runs(g, cls.axis_point, cls.length, depth)
        att, rep = axis_and_ends(g, depth)
        assert (att, rep) == reference_axis_and_ends(g, depth)
        assert_axis_certified(g, att, cls.length)
        assert_axis_certified(g.inverse(), rep, cls.length)


def test_axis_ray_certificate_failure_is_an_internal_error(monkeypatch):
    # the recurrence driven by the inverse of the true branch constant: the
    # certificate refuses the prefix it builds
    g = TreeAut.from_constant(ROT, (0,)) * TreeAut.from_constant(IDENT3, (0, 1))
    cls = classify_isometry(g)
    local_action = TreeAut.local_action
    monkeypatch.setattr(TreeAut, "local_action", lambda self, v: local_action(self, v).inv())
    with pytest.raises(AssertionError, match="certificate"):
        _axis_ray(g, cls.axis_point, cls.length, 64)
