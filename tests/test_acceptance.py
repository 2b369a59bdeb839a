"""Acceptance suite: every criterion runs at its stated tolerance (all checks
are exact) and prints one pass/fail line.  Run with `pytest -s
tests/test_acceptance.py` to see the lines as they complete."""

import time

from arboreal.cstar_obstruction import (
    convolution_annihilation_check,
    disjoint_support_check,
    disjoint_support_pair,
    fixator_filtration_check,
    fixator_witness,
    orbit_truncate,
    standard_generators,
)
from arboreal.dynamics import (
    Elliptic,
    Inversion,
    classify_isometry,
    fixes_half_tree_pointwise,
)
from arboreal.perm_groups import (
    Perm,
    PermGroup,
    check_freeness,
    cyclic_table,
    orbits,
    wreath_embedding,
)
from arboreal.piecewise import (
    RegularTreeModel,
    piecewise_decomposition,
    psl2z_tree,
    pw_half_tree_fixator,
)
from arboreal.portraits import (
    GroupClass,
    TreeAut,
    enumerate_branch_constant,
    random_element,
)
from arboreal.tree_core import (
    V0,
    DirectedEdge,
    distance,
    enumerate_ball,
    half_tree,
    periodic_end,
)

ALT3 = PermGroup.alternating(3)
SYM3 = PermGroup.symmetric(3)
G_ALT3_SYM3 = GroupClass.prescribed(ALT3, SYM3)


class Criterion:
    """Context manager: times the block, enforces the budget, prints a line."""

    def __init__(self, number: int, label: str, budget_s: float):
        self.number = number
        self.label = label
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        ok = exc_type is None and elapsed < self.budget_s
        verdict = "PASS" if ok else "FAIL"
        print(f"[criterion {self.number}] {verdict} ({elapsed:.2f}s / {self.budget_s:.0f}s) "
              f"- {self.label}")
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its {self.budget_s}s budget: {elapsed:.2f}s"
            )
        return False


def test_criterion_1_group_axioms_and_cocycle():
    with Criterion(1, "group axioms and cocycle identity on 500 random elements", 10):
        els = [random_element(G_ALT3_SYM3, 2, seed=s) for s in range(500)]
        e = TreeAut.identity(3)
        ball3 = sorted(enumerate_ball(V0, 3, range(3)))
        for i, g in enumerate(els):
            h = els[(i + 1) % 500]
            k = els[(i + 2) % 500]
            gh = g * h
            assert (gh * k) == (g * (h * k))
            assert g * e == g and e * g == g
            assert (g * g.inverse()) == e
            for v in ball3:
                assert gh.local_action(v) == g.local_action(h.evaluate(v)) * h.local_action(v)


def test_criterion_2_edge_fixators_trivial():
    with Criterion(2, "edge fixators in U(Alt(3)) are trivial, exhaustive at radius 2", 30):
        bases = sorted(enumerate_ball(V0, 2, range(3)))
        elements = enumerate_branch_constant(ALT3, 2, bases)
        assert len(elements) == 30  # 10 base images x 3 portraits each (free action)
        survivors = [
            g for g in elements if g.evaluate(V0) == V0 and g.evaluate((0,)) == (0,)
        ]
        assert len(survivors) == 1 and survivors[0].is_identity()


def test_criterion_3_star_subgroup_torsion_free_over_integers():
    with Criterion(3, "bipartite translation-prescribed elements are torsion free", 30):
        star = GroupClass.prescribed_star(PermGroup.z_translations(), PermGroup.z_translations())
        e = TreeAut.identity(None)
        for s in range(200):
            g = random_element(star, 3, seed=s)
            if g == e:
                continue
            power = g
            for _ in range(20):
                assert power != e
                power = g * power


def test_criterion_4_fixator_witness_presets():
    presets = [
        ("Alt(3) < Sym(3)", ALT3, SYM3),
        ("C5 < Alt(5)", PermGroup.cyclic(5), PermGroup.alternating(5)),
    ]
    wf, wfp, _, _ = wreath_embedding(cyclic_table(2), cyclic_table(2))
    presets.append(("Z/2 wreath Z/2", wf, wfp))
    for label, F, Fp in presets:
        with Criterion(4, f"half-tree fixator witness over {label}", 5):
            h = half_tree(V0, 0)
            g = fixator_witness(F, Fp, h)
            assert not g.is_identity()
            assert fixes_half_tree_pointwise(g, h)
            assert GroupClass.prescribed(F, Fp).contains(g)
            assert not GroupClass.universal(F).contains(g)


def test_criterion_5_convolution_identity():
    with Criterion(5, "disjoint support and convolution annihilation on the orbit", 60):
        edge = DirectedEdge(V0, 0)
        a, b = disjoint_support_pair(ALT3, SYM3, edge)
        gens = [a, b] + standard_generators(ALT3)
        xi = periodic_end((), (0, 1))
        orbit = orbit_truncate(gens, xi, 3, 16)
        assert not orbit.depth_warning
        assert disjoint_support_check(a, b, orbit)
        report = convolution_annihilation_check(a, b, orbit)
        assert report.total == len(orbit.points) and report.passed == report.total
        assert a * b == b * a


def test_criterion_6_classification_against_brute_force():
    with Criterion(6, "midpoint descent equals brute-force minimal displacement", 60):
        for s in range(200):
            g = random_element(G_ALT3_SYM3, 2, seed=9000 + s)
            cls = classify_isometry(g)
            r = distance(V0, g.evaluate(V0)) + 2
            ball = enumerate_ball(V0, r, range(3))
            disp = {v: distance(v, g.evaluate(v)) for v in ball}
            minimum = min(disp.values())
            if isinstance(cls, Elliptic):
                assert minimum == 0
                assert g.evaluate(cls.fixed_vertex) == cls.fixed_vertex
            elif isinstance(cls, Inversion):
                assert minimum == 1
                tail, head = cls.edge.tail, cls.edge.head
                assert g.evaluate(tail) == head and g.evaluate(head) == tail
            else:
                assert minimum == cls.length > 0
                w = cls.axis_point
                assert distance(w, g.evaluate(w)) == cls.length
                assert distance(w, g.evaluate(g.evaluate(w))) == 2 * cls.length


def test_criterion_7_piecewise_identification_round_trip():
    with Criterion(7, "almost-prescribed elements decompose into constant pieces", 60):
        model = RegularTreeModel(3)
        ball5 = sorted(enumerate_ball(V0, 5, range(3)))
        for s in range(100):
            g = random_element(G_ALT3_SYM3, 2, seed=11000 + s)
            pw = piecewise_decomposition(g, ALT3)
            ok, msg = pw.validate()
            assert ok, msg
            for v in ball5:
                assert pw.apply(v) == g.evaluate(v)
            for piece in pw.pieces.values():
                canon = piece.canonical()
                assert all(ALT3.contains(f) for f in canon.branches.values())


def test_criterion_8_branch_swap_witness_psl2z():
    with Criterion(8, "branch-swap element over the (2,3)-biregular tree", 5):
        tree = psl2z_tree()
        vb = (1, ())
        b = tree.letter(1, 1)
        n1 = (0, ())
        n2 = tree.act(b, n1)
        gamma = pw_half_tree_fixator(tree, b, vb, n1, n2)
        ok, msg = gamma.validate()
        assert ok, msg
        assert not gamma.is_identity()
        third = next(n for n in tree.neighbors(vb) if n not in (n1, n2))
        assert gamma.fixes_half_tree((vb, third))


def test_criterion_9_fixator_filtration():
    with Criterion(9, "filtration bottom: trivial kernel and onto point stabilizer", 30):
        h = half_tree(V0, 0)
        level0 = fixator_filtration_check(ALT3, SYM3, h, 0)
        assert level0.ok and level0.details["fixers"] == 1
        level1 = fixator_filtration_check(ALT3, SYM3, h, 1)
        assert level1.ok and level1.details["stabilizer_order"] == 2


def test_criterion_10_wreath_embeddings():
    cases = [(2, 2), (3, 2), (2, 3)]
    with Criterion(10, "wreath pairs: free transitive base, faithful, stabilizers = A", 10):
        for n, m in cases:
            F, Fp, points, embed = wreath_embedding(cyclic_table(n), cyclic_table(m))
            npts = len(points)
            assert npts == n**m
            assert check_freeness(F)
            assert orbits(F) == [frozenset(range(npts))]
            # faithful: no two pairs (f, alpha) act alike
            assert len(F.elements) == n**m
            assert len(Fp.elements) == n**m * m
            x0 = points.index(tuple(0 for _ in range(m)))
            stab0 = [p for p in Fp.elements if p(x0) == x0]
            assert len(stab0) == m
            assert any(_perm_order(p) == m for p in stab0)  # a cyclic copy of A
            for x in range(npts):
                mover = next(p for p in Fp.elements if p(x0) == x)
                conjugate = sorted((mover * p * mover.inv()).key() for p in stab0)
                stab_x = sorted(p.key() for p in Fp.elements if p(x) == x)
                assert stab_x == conjugate
            for g in embed.values():
                assert Fp.contains(g)
            nontrivial = [g for g in embed.values() if not g.is_identity()]
            assert len(nontrivial) == n - 1


def _perm_order(p):
    order, q = 1, p
    while not q.is_identity():
        q = q * p
        order += 1
    return order
