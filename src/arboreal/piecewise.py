"""Automorphisms acting piecewise like a given group.

A piecewise element is a finite subtree with an explicit vertex map, plus one
global group element per complementary component; the assembled map must be a
tree automorphism.  Two tree models are supported:

* the Bass-Serre tree of a free product A * B of two finite groups, whose
  vertices are cosets of A and B named by alternating normal-form words (the
  tree is (|A|, |B|)-biregular and A * B acts by left multiplication with
  trivial edge stabilizers), and

* the colored regular tree, with constant-portrait automorphisms of the
  universal group as pieces -- for a finite color set every almost-prescribed
  element decomposes piecewise into such constants.

Components of the complement are keyed by their frontier directed edge
(subtree vertex, outside neighbor); a piece applies to everything strictly
beyond that edge.
"""

from __future__ import annotations

from .perm_groups import PermGroup, check_group_table, cyclic_table
from .portraits import TreeAut
from .tree_core import V0, distance as word_distance, geodesic as word_geodesic, neighbor

Letter = tuple[int, int]  # (side, element index), never the identity
Word = tuple[Letter, ...]
BiVertex = tuple[int, Word]  # (side, alternating word not ending on its own side)


class FreeProductTree:
    """Bass-Serre tree of A * B for finite groups given by multiplication
    tables.  Side 0 carries A-cosets, side 1 carries B-cosets; the base edge
    joins the two empty-word vertices.  Group elements are normal-form words.
    """

    def __init__(self, table_a, table_b):
        checked = check_group_table(table_a), check_group_table(table_b)
        self.tables, self.ident, self.inv = zip(*checked)
        if len(self.tables[0]) < 2 or len(self.tables[1]) < 2:
            raise ValueError("both free factors must be nontrivial")
        self.root: BiVertex = (0, ())

    # -- elements ---------------------------------------------------------

    def letter(self, side: int, idx: int) -> Word:
        if idx == self.ident[side]:
            return ()
        return ((side, idx),)

    def multiply(self, w1: Word, w2: Word) -> Word:
        out = list(w1)
        for s, i in w2:
            if out and out[-1][0] == s:
                prod = self.tables[s][out[-1][1]][i]
                if prod == self.ident[s]:
                    out.pop()
                else:
                    out[-1] = (s, prod)
            else:
                out.append((s, i))
        return tuple(out)

    def invert(self, w: Word) -> Word:
        return tuple((s, self.inv[s][i]) for s, i in reversed(w))

    def identity_element(self) -> Word:
        return ()

    def is_identity_element(self, g: Word) -> bool:
        return g == ()

    # -- vertices -----------------------------------------------------------

    def act(self, g: Word, v: BiVertex) -> BiVertex:
        side, w = v
        m = self.multiply(g, w)
        if m and m[-1][0] == side:
            m = m[:-1]
        return (side, m)

    def neighbors(self, v: BiVertex) -> list[BiVertex]:
        side, w = v
        other = 1 - side
        out: list[BiVertex] = []
        for i in range(len(self.tables[side])):
            if i != self.ident[side]:
                out.append((other, w + ((side, i),)))
        out.append((other, w[:-1] if w else ()))
        return out

    def degree(self, v: BiVertex) -> int:
        return len(self.tables[v[0]])

    def parent(self, v: BiVertex):
        side, w = v
        if w:
            return (1 - side, w[:-1])
        return (0, ()) if side == 1 else None

    def depth(self, v: BiVertex) -> int:
        d = 0
        while v != self.root:
            v = self.parent(v)
            d += 1
        return d

    def geodesic(self, u: BiVertex, v: BiVertex) -> list[BiVertex]:
        up, vp = [u], [v]
        du, dv = self.depth(u), self.depth(v)
        while du > dv:
            up.append(self.parent(up[-1]))
            du -= 1
        while dv > du:
            vp.append(self.parent(vp[-1]))
            dv -= 1
        while up[-1] != vp[-1]:
            up.append(self.parent(up[-1]))
            vp.append(self.parent(vp[-1]))
        return up + vp[-2::-1]

    def distance(self, u: BiVertex, v: BiVertex) -> int:
        return len(self.geodesic(u, v)) - 1


def psl2z_tree() -> FreeProductTree:
    """The (2,3)-biregular Bass-Serre tree of Z/2 * Z/3."""
    return FreeProductTree(cyclic_table(2), cyclic_table(3))


class RegularTreeModel:
    """The colored regular tree with constant-portrait automorphisms of the
    universal group as global elements."""

    def __init__(self, degree: int):
        self.deg = degree
        self.root = V0

    def act(self, g: TreeAut, v):
        return g.evaluate(v)

    def multiply(self, g: TreeAut, h: TreeAut) -> TreeAut:
        return g * h

    def invert(self, g: TreeAut) -> TreeAut:
        return g.inverse()

    def identity_element(self) -> TreeAut:
        return TreeAut.identity(self.deg)

    def is_identity_element(self, g: TreeAut) -> bool:
        return g.is_identity()

    def neighbors(self, v) -> list:
        return [neighbor(v, c) for c in range(self.deg)]

    def degree(self, v) -> int:
        return self.deg

    def geodesic(self, u, v) -> list:
        return word_geodesic(u, v)

    def distance(self, u, v) -> int:
        return word_distance(u, v)


# -- model-generic half-tree tests (edges as (tail, head) vertex pairs) ------


def ht_contains(tree, edge, x) -> bool:
    tail, head = edge
    return tree.distance(head, x) < tree.distance(tail, x)


def ht_disjoint(tree, e1, e2) -> bool:
    if e1 == e2:
        return False
    if e1 == (e2[1], e2[0]):
        return True
    return not ht_contains(tree, e1, e2[1]) and not ht_contains(tree, e2, e1[1])


def hull(tree, pts) -> frozenset:
    pts = sorted(pts)
    root = pts[0]
    out = set()
    for x in pts:
        out.update(tree.geodesic(root, x))
    return frozenset(out)


class PiecewiseAut:
    """A tree automorphism given by a finite subtree, an explicit map on it,
    and one global element per complementary component."""

    def __init__(self, tree, subtree, vmap, pieces):
        self.tree = tree
        self.subtree = frozenset(subtree)
        self.vmap = dict(vmap)
        self.pieces = dict(pieces)

    # -- structure ----------------------------------------------------------

    def frontier(self) -> list[tuple]:
        out = []
        for u in sorted(self.subtree):
            for n in self.tree.neighbors(u):
                if n not in self.subtree:
                    out.append((u, n))
        return out

    def validate(self) -> tuple[bool, str]:
        """Check the data assembles to an automorphism; on failure the
        diagnostic names the first broken invariant."""
        t = self.tree
        if not self.subtree:
            return False, "empty subtree"
        if set(self.vmap) != set(self.subtree):
            return False, "vertex map does not cover the subtree"
        anchor = sorted(self.subtree)[0]
        for u in self.subtree:
            if any(v not in self.subtree for v in t.geodesic(anchor, u)):
                return False, "subtree is not connected"
        if len(set(self.vmap.values())) != len(self.vmap):
            return False, "vertex map is not injective"
        for u in self.subtree:
            for n in t.neighbors(u):
                if n in self.subtree and t.distance(self.vmap[u], self.vmap[n]) != 1:
                    return False, "vertex map breaks adjacency inside the subtree"
        frontier = self.frontier()
        if set(self.pieces) != set(frontier):
            return False, "pieces do not match the frontier edges"
        image_edges = []
        for (u, n) in frontier:
            g = self.pieces[(u, n)]
            gn = t.act(g, n)
            if t.distance(self.vmap[u], gn) != 1:
                return False, f"frontier adjacency fails at {(u, n)}"
            image_edges.append((t.act(g, u), gn))
        for i in range(len(image_edges)):
            for j in range(i + 1, len(image_edges)):
                if not ht_disjoint(t, image_edges[i], image_edges[j]):
                    return False, "image collision between two pieces"
            for x in self.vmap.values():
                if ht_contains(t, image_edges[i], x):
                    return False, "image collision between a piece and the subtree map"
        return True, "ok"

    # -- evaluation -----------------------------------------------------------

    def _entry_edge(self, v) -> tuple:
        anchor = sorted(self.subtree)[0]
        path = self.tree.geodesic(v, anchor)
        for k, x in enumerate(path):
            if x in self.subtree:
                return (x, path[k - 1])
        raise AssertionError("geodesic missed the subtree")

    def piece_at(self, v):
        """The global element acting on the component containing v."""
        if v in self.subtree:
            raise ValueError("vertex lies in the explicit subtree")
        return self.pieces[self._entry_edge(v)]

    def apply(self, v):
        if v in self.subtree:
            return self.vmap[v]
        return self.tree.act(self.piece_at(v), v)

    # -- group structure --------------------------------------------------------

    @classmethod
    def identity(cls, tree) -> "PiecewiseAut":
        root = tree.root
        pieces = {(root, n): tree.identity_element() for n in tree.neighbors(root)}
        return cls(tree, [root], {root: root}, pieces)

    @classmethod
    def global_element(cls, tree, g) -> "PiecewiseAut":
        root = tree.root
        pieces = {(root, n): g for n in tree.neighbors(root)}
        return cls(tree, [root], {root: tree.act(g, root)}, pieces)

    def inverse(self) -> "PiecewiseAut":
        t = self.tree
        sub = frozenset(self.vmap.values())
        vmap = {v: u for u, v in self.vmap.items()}
        pieces = {}
        for (u, n), g in self.pieces.items():
            pieces[(self.vmap[u], t.act(g, n))] = t.invert(g)
        return PiecewiseAut(t, sub, vmap, pieces)

    def __mul__(self, other: "PiecewiseAut") -> "PiecewiseAut":
        """self after other, with the subtree refined so every component
        carries a single composed element."""
        p, q = self, other
        t = self.tree
        q_inv = q.inverse()
        pts = set(q.subtree) | {q_inv.apply(x) for x in p.subtree}
        sub = hull(t, pts)
        vmap = {x: p.apply(q.apply(x)) for x in sub}
        pieces = {}
        for u in sorted(sub):
            for n in t.neighbors(u):
                if n in sub:
                    continue
                gq = q.piece_at(n)
                gp = p.piece_at(q.apply(n))
                pieces[(u, n)] = t.multiply(gp, gq)
        return PiecewiseAut(t, sub, vmap, pieces)

    def expanded(self, target) -> "PiecewiseAut":
        """The same automorphism over a larger subtree; each new frontier
        component inherits the element that was already acting on it."""
        target = hull(self.tree, frozenset(target) | self.subtree)
        vmap = {x: self.apply(x) for x in target}
        pieces = {}
        for u in sorted(target):
            for n in self.tree.neighbors(u):
                if n not in target:
                    pieces[(u, n)] = self.piece_at(n)
        return PiecewiseAut(self.tree, target, vmap, pieces)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PiecewiseAut) or self.tree is not other.tree:
            return NotImplemented
        target = hull(self.tree, set(self.subtree) | set(other.subtree))
        a, b = self.expanded(target), other.expanded(target)
        return a.vmap == b.vmap and a.pieces == b.pieces

    def is_identity(self) -> bool:
        return self == PiecewiseAut.identity(self.tree)

    def fixes_half_tree(self, edge) -> bool:
        """Pointwise fixation of the half-tree given by (tail, head).

        Over a subtree holding both ends of the edge, each component of the
        complement is connected and misses the edge, so it lies inside the
        half-tree iff the subtree vertex it hangs from does.  The half-tree
        is then fixed iff its subtree vertices are fixed and every piece hung
        from one of them fixes its whole component.  A component holds an
        edge, and at degree three or more a vertex with its whole star; a
        global element fixing that much is trivial in both models (edge
        stabilizers of A * B are trivial, and a constant portrait is the
        identity once it fixes a star), so such pieces must be the identity."""
        t = self.tree
        p = self.expanded(edge)
        inside = {u for u in p.subtree if ht_contains(t, edge, u)}
        return all(p.vmap[u] == u for u in inside) and all(
            t.is_identity_element(g) for (u, _), g in p.pieces.items() if u in inside
        )


def pw_half_tree_fixator(tree, g, v, n1, n2) -> PiecewiseAut:
    """The piecewise element acting like g beyond the edge (v, n1), like its
    inverse beyond (v, n2), and trivially elsewhere.

    Requires g to fix v and carry the first edge to the second, the two edges
    to differ, and v to have degree at least three (so a whole half-tree is
    fixed pointwise)."""
    nbrs = tree.neighbors(v)
    if n1 not in nbrs or n2 not in nbrs:
        raise ValueError("both edges must be incident to the vertex")
    if n1 == n2:
        raise ValueError("the two edges must differ")
    if tree.act(g, v) != v:
        raise ValueError("the element must fix the vertex")
    if tree.act(g, n1) != n2:
        raise ValueError("the element must carry the first edge to the second")
    if tree.degree(v) < 3:
        raise ValueError("the vertex must have degree at least three")
    pieces = {}
    for n in nbrs:
        if n == n1:
            pieces[(v, n)] = g
        elif n == n2:
            pieces[(v, n)] = tree.invert(g)
        else:
            pieces[(v, n)] = tree.identity_element()
    out = PiecewiseAut(tree, [v], {v: v}, pieces)
    ok, msg = out.validate()
    if not ok:
        raise AssertionError(f"fixator assembly failed: {msg}")
    return out


def piecewise_decomposition(g: TreeAut, F: PermGroup) -> PiecewiseAut:
    """Rewrite an almost-prescribed element over a finite color set as a
    piecewise element whose pieces are constant portraits of the universal
    group of F: identity-compatible with g outside the core, so the local
    actions stay in the full symmetric group everywhere and in F off the
    core."""
    if g.deg is None:
        raise ValueError("the identification needs a finite color set")
    d = g.deg
    # every local action lies in Sym(d), so only the tail rules are checked
    if F.degree != d or not all(map(F.contains, [*g.branches.values(), *g.defaults.values()])):
        raise ValueError("element does not have almost-prescribed local action")
    model = RegularTreeModel(d)
    vmap = {u: g.evaluate(u) for u in g.core}
    pieces = {}
    for u in g.core:
        for c in g.frontier_colors(u):
            n = u + (c,)
            f = g.frontier_rule(u, c)
            b = g.evaluate(n)
            for letter in reversed(n):
                b = neighbor(b, f(letter))
            piece = TreeAut.from_constant(f, b)
            if piece.evaluate(n) != g.evaluate(n):
                raise AssertionError("constant piece misses the branch image")
            pieces[(u, n)] = piece
    out = PiecewiseAut(model, set(g.core), vmap, pieces)
    ok, msg = out.validate()
    if not ok:
        raise AssertionError(f"piecewise decomposition invalid: {msg}")
    return out
