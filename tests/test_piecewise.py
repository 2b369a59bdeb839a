"""Piecewise-prescribed automorphisms over the Bass-Serre tree of a free
product and over the colored regular tree."""

import random

import pytest

from arboreal.perm_groups import Perm, PermGroup, cyclic_table, wreath_embedding
from arboreal.piecewise import (
    PiecewiseAut,
    RegularTreeModel,
    ht_contains,
    ht_disjoint,
    hull,
    piecewise_decomposition,
    psl2z_tree,
    pw_half_tree_fixator,
)
from arboreal.portraits import GroupClass, TreeAut, random_element
from arboreal.tree_core import V0

ALT3 = PermGroup.alternating(3)
SYM3 = PermGroup.symmetric(3)


def ball(tree, center, r):
    out = {center}
    frontier = [center]
    for _ in range(r):
        nxt = []
        for v in frontier:
            for n in tree.neighbors(v):
                if n not in out:
                    out.add(n)
                    nxt.append(n)
        frontier = nxt
    return sorted(out)


def test_free_product_tree_is_biregular():
    t = psl2z_tree()
    root_a, root_b = (0, ()), (1, ())
    assert len(t.neighbors(root_a)) == 2
    assert len(t.neighbors(root_b)) == 3
    assert root_b in t.neighbors(root_a)
    assert root_a in t.neighbors(root_b)
    for v in ball(t, root_a, 4):
        expect = 2 if v[0] == 0 else 3
        assert len(t.neighbors(v)) == expect
        for n in t.neighbors(v):
            assert t.distance(v, n) == 1


def test_free_product_normal_forms():
    t = psl2z_tree()
    a = t.letter(0, 1)
    b = t.letter(1, 1)
    assert t.multiply(a, a) == ()
    assert t.multiply(b, t.multiply(b, b)) == ()
    w = t.multiply(a, b)
    assert t.multiply(w, t.invert(w)) == ()
    # b * b = b^2 merges into a single letter
    assert t.multiply(b, b) == ((1, 2),)


def test_free_product_action_preserves_adjacency():
    t = psl2z_tree()
    rng = random.Random(5)
    words = [(), t.letter(0, 1), t.multiply(t.letter(0, 1), t.letter(1, 2))]
    verts = ball(t, (0, ()), 4)
    for g in words:
        for _ in range(30):
            u, v = rng.choice(verts), rng.choice(verts)
            assert t.distance(t.act(g, u), t.act(g, v)) == t.distance(u, v)


def test_b_generator_fixes_its_vertex_and_rotates_edges():
    t = psl2z_tree()
    b = t.letter(1, 1)
    vb = (1, ())
    assert t.act(b, vb) == vb
    nbrs = t.neighbors(vb)
    images = [t.act(b, n) for n in nbrs]
    assert sorted(images) == sorted(nbrs)
    assert images != nbrs  # a genuine 3-cycle on the star


def test_identity_and_global_elements_validate():
    t = psl2z_tree()
    e = PiecewiseAut.identity(t)
    assert e.validate()[0]
    assert e.is_identity()
    g = PiecewiseAut.global_element(t, t.letter(1, 1))
    assert g.validate()[0]
    assert not g.is_identity()


def test_same_element_on_every_branch_is_the_global_element():
    t = psl2z_tree()
    vb = (1, ())
    b = t.letter(1, 1)
    pieces = {(vb, n): b for n in t.neighbors(vb)}
    assembled = PiecewiseAut(t, [vb], {vb: vb}, pieces)
    assert assembled.validate()[0]
    assert assembled == PiecewiseAut.global_element(t, b)


def test_invalid_overlapping_images_diagnosed():
    t = psl2z_tree()
    vb = (1, ())
    nbrs = t.neighbors(vb)
    b = t.letter(1, 1)
    # one branch is rotated onto a neighbor branch that stays put
    n1 = nbrs[-1]
    pieces = {n: () for n in nbrs}
    pieces = {(vb, n): (b if n == n1 else ()) for n in nbrs}
    bad = PiecewiseAut(t, [vb], {vb: vb}, pieces)
    ok, msg = bad.validate()
    assert not ok and "image collision" in msg


def test_missing_piece_diagnosed():
    t = psl2z_tree()
    vb = (1, ())
    nbrs = t.neighbors(vb)
    pieces = {(vb, n): () for n in nbrs[:-1]}
    bad = PiecewiseAut(t, [vb], {vb: vb}, pieces)
    ok, msg = bad.validate()
    assert not ok and "frontier" in msg


def test_branch_swap_fixator_on_psl2z_tree():
    t = psl2z_tree()
    vb = (1, ())
    b = t.letter(1, 1)
    nbrs = t.neighbors(vb)
    n1 = nbrs[-1]  # the empty-coset neighbor (0, ())
    n2 = t.act(b, n1)
    gamma = pw_half_tree_fixator(t, b, vb, n1, n2)
    ok, msg = gamma.validate()
    assert ok, msg
    assert not gamma.is_identity()
    # the third branch is fixed pointwise
    n3 = next(n for n in nbrs if n not in (n1, n2))
    assert gamma.fixes_half_tree((vb, n3))
    assert not gamma.fixes_half_tree((vb, n1))
    # acts like b beyond n1, like b^{-1} beyond n2
    deep = t.act(b, t.act(b, (0, ())))
    for v in ball(t, (0, ()), 3):
        if ht_contains(t, (vb, n1), v):
            assert gamma.apply(v) == t.act(b, v)


def test_branch_swap_fixator_rejects_bad_inputs():
    t = psl2z_tree()
    vb = (1, ())
    va = (0, ())
    b = t.letter(1, 1)
    a = t.letter(0, 1)
    nbrs = t.neighbors(vb)
    n1 = nbrs[-1]
    with pytest.raises(ValueError):
        pw_half_tree_fixator(t, (), vb, n1, n1)  # identity cannot swap edges
    wrong = next(n for n in nbrs if n not in (n1, t.act(b, n1)))
    with pytest.raises(ValueError):
        pw_half_tree_fixator(t, b, vb, n1, wrong)  # not the image edge
    with pytest.raises(ValueError):
        # degree-two vertex on the order-two side
        na = t.neighbors(va)
        pw_half_tree_fixator(t, a, va, na[0], t.act(a, na[0]))


def test_pw_compose_identity_and_inverse():
    t = psl2z_tree()
    vb = (1, ())
    b = t.letter(1, 1)
    nbrs = t.neighbors(vb)
    n1 = nbrs[-1]
    gamma = pw_half_tree_fixator(t, b, vb, n1, t.act(b, n1))
    e = PiecewiseAut.identity(t)
    assert gamma * e == gamma
    assert e * gamma == gamma
    assert (gamma * gamma.inverse()).is_identity()
    inv = gamma.inverse()
    assert inv.validate()[0]


def _random_pw(tree, rng, catalog):
    out = PiecewiseAut.identity(tree)
    for _ in range(rng.randint(1, 3)):
        out = out * rng.choice(catalog)
    return out


def _pw_catalog(t):
    vb = (1, ())
    b = t.letter(1, 1)
    b2 = t.letter(1, 2)
    a = t.letter(0, 1)
    nbrs = t.neighbors(vb)
    n1 = nbrs[-1]
    deeper = t.act(t.multiply(a, b), vb)
    cat = [
        PiecewiseAut.global_element(t, a),
        PiecewiseAut.global_element(t, b),
        PiecewiseAut.global_element(t, t.multiply(a, b)),
        pw_half_tree_fixator(t, b, vb, n1, t.act(b, n1)),
        pw_half_tree_fixator(t, b2, vb, n1, t.act(b2, n1)),
    ]
    g = t.multiply(t.multiply(a, b), t.multiply(t.letter(1, 1), t.invert(t.multiply(a, b))))
    return cat


def test_pw_compose_agrees_pointwise_on_balls():
    t = psl2z_tree()
    rng = random.Random(7)
    cat = _pw_catalog(t)
    verts = ball(t, (0, ()), 4)
    for _ in range(40):
        p = _random_pw(t, rng, cat)
        q = _random_pw(t, rng, cat)
        ok, msg = (p * q).validate()
        assert ok, msg
        pq = p * q
        for v in rng.sample(verts, 12):
            assert pq.apply(v) == p.apply(q.apply(v))
        assert ((p * q) * q.inverse()) == p


def test_pw_half_tree_fixation_agrees_with_ball_oracle():
    # products of fixators at vb and at its conjugates under three movers,
    # against `apply` over a radius-8 ball, on every edge within radius 3
    t = psl2z_tree()
    vb = (1, ())
    a, b = t.letter(0, 1), t.letter(1, 1)
    fixators = [pw_half_tree_fixator(t, b, vb, n, t.act(b, n)) for n in t.neighbors(vb)]
    cat = []
    for m in [(), a, t.multiply(a, b)]:
        mover = PiecewiseAut.global_element(t, m)
        cat += [mover * f * mover.inverse() for f in fixators]
    rng = random.Random(11)
    elements = cat + [rng.choice(cat) * rng.choice(cat) for _ in range(30)]
    edges = [(u, n) for u in ball(t, t.root, 3) for n in t.neighbors(u)]
    verts = ball(t, t.root, 8)
    fixed = 0
    for p in elements:
        for edge in edges:
            decided = p.fixes_half_tree(edge)
            assert decided == all(p.apply(v) == v for v in verts if ht_contains(t, edge, v))
            fixed += decided
    assert 0 < fixed < len(elements) * len(edges)


def test_pw_associativity_on_random_triples():
    t = psl2z_tree()
    rng = random.Random(13)
    cat = _pw_catalog(t)
    for _ in range(25):
        p, q, r = (_random_pw(t, rng, cat) for _ in range(3))
        assert (p * q) * r == p * (q * r)


def test_two_fixators_at_disjoint_edges_compose_validly():
    t = psl2z_tree()
    vb = (1, ())
    b = t.letter(1, 1)
    nbrs = t.neighbors(vb)
    n1 = nbrs[-1]
    g1 = pw_half_tree_fixator(t, b, vb, n1, t.act(b, n1))
    # conjugate the construction to a distant vertex
    mover = PiecewiseAut.global_element(t, t.multiply(t.letter(0, 1), t.letter(1, 1)))
    g2 = mover * g1 * mover.inverse()
    prod = g1 * g2
    ok, msg = prod.validate()
    assert ok, msg
    verts = ball(t, (0, ()), 4)
    for v in verts:
        assert prod.apply(v) == g1.apply(g2.apply(v))


def test_piecewise_decomposition_identity_and_constant():
    e = TreeAut.identity(3)
    pw = piecewise_decomposition(e, ALT3)
    assert pw.is_identity()
    const = TreeAut.from_constant(Perm.from_cycles(3, (0, 1, 2)), (0,))
    pwc = piecewise_decomposition(const, ALT3)
    model = pwc.tree
    for v in ball(model, V0, 4):
        assert pwc.apply(v) == const.evaluate(v)


def test_piecewise_decomposition_random_round_trip():
    cls = GroupClass.prescribed(ALT3, SYM3)
    model = RegularTreeModel(3)
    verts = ball(model, V0, 5)
    for s in range(25):
        g = random_element(cls, 2, seed=7000 + s)
        pw = piecewise_decomposition(g, ALT3)
        ok, msg = pw.validate()
        assert ok, msg
        for v in verts:
            assert pw.apply(v) == g.evaluate(v)
        # pieces are constant portraits with local action in F
        for piece in pw.pieces.values():
            canon = piece.canonical()
            assert len(canon.core) == 1
            assert all(ALT3.contains(f) for f in canon.branches.values())


def test_piecewise_decomposition_rejects_foreign_elements():
    # a constant portrait with odd local action everywhere is not almost-Alt(3)
    g = TreeAut.from_constant(Perm.from_cycles(3, (1, 2)), V0)
    with pytest.raises(ValueError):
        piecewise_decomposition(g, ALT3)


def test_piecewise_decomposition_at_degree_8():
    # F = (Z/2)^3 on 8 colors: Sym(8) (order 40320) is above the group cap
    F, Fp, _, _ = wreath_embedding(cyclic_table(2), cyclic_table(3))
    consts = [TreeAut.from_constant(f, base)
              for f in F.elements[1:4] for base in (V0, (0,), (3, 5))]
    elements = consts + [g * h for g, h in zip(consts, consts[3:] + consts[:3])]
    elements += [random_element(GroupClass.prescribed(F, Fp), 1, seed=s) for s in range(3)]
    verts = ball(RegularTreeModel(8), V0, 3)
    for g in elements:
        pw = piecewise_decomposition(g, F)
        ok, msg = pw.validate()
        assert ok, msg
        assert all(pw.apply(v) == g.evaluate(v) for v in verts)
    with pytest.raises(ValueError, match="almost-prescribed"):
        piecewise_decomposition(elements[0], ALT3)  # F on 3 colors


def test_half_tree_helpers_on_free_product_tree():
    t = psl2z_tree()
    va, vb = (0, ()), (1, ())
    e1 = (va, vb)
    e2 = (vb, va)
    assert not ht_disjoint(t, e1, e1)
    assert ht_disjoint(t, e1, e2)
    nbrs = t.neighbors(vb)
    n_other = next(n for n in nbrs if n != va)
    assert ht_contains(t, (va, vb), n_other)
    assert not ht_contains(t, (vb, va), n_other)
    sub = hull(t, [va, n_other])
    assert vb in sub
