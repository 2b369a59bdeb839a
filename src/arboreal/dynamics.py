"""Classification of tree isometries and the dynamics built on it: axes and
their boundary ends, pointwise fixation of half-trees, independent-hyperbolic
witnesses, and table-tennis certificates for free subgroups.

Every returned classification is certified by the defining identities: a
fixed vertex for elliptic elements, a swapped edge for inversions, and
d(w, g w) = L with d(w, g^2 w) = 2 L for a hyperbolic element with axis
point w and translation length L.
"""

from __future__ import annotations

import itertools

from .portraits import TreeAut
from .tree_core import (
    V0,
    DirectedEdge,
    FrozenRecord,
    Vertex,
    distance,
    geodesic,
    half_tree_contains,
    half_tree_subset,
    half_trees_disjoint,
)


class Elliptic(FrozenRecord):
    __slots__ = ("fixed_vertex",)

    def __init__(self, fixed_vertex: Vertex):
        super().__init__(fixed_vertex)


class Inversion(FrozenRecord):
    __slots__ = ("edge",)

    def __init__(self, edge: DirectedEdge):
        super().__init__(edge)


class Hyperbolic(FrozenRecord):
    __slots__ = ("length", "axis_point")

    def __init__(self, length: int, axis_point: Vertex):
        super().__init__(length, axis_point)


def classify_isometry(g: TreeAut):
    """Elliptic, inversion, or hyperbolic, by midpoint descent.

    The displacement function v -> d(v, g v) is convex on the tree, so
    stepping to the midpoint of [v, g v] (for odd length, the mid-edge
    endpoint nearer the image) reaches the minimal-displacement set within
    d(base, g(base)) steps; the answer is certified before returning.
    """
    v: Vertex = V0
    bound = distance(V0, g.evaluate(V0)) + 3
    for _ in range(bound):
        w = g.evaluate(v)
        k = distance(v, w)
        if k == 0:
            return Elliptic(v)
        if k == 1 and g.evaluate(w) == v:
            color = w[-1] if len(w) > len(v) else v[-1]
            return Inversion(DirectedEdge(v, color))
        if distance(v, g.evaluate(w)) == 2 * k:
            return Hyperbolic(k, v)
        path = geodesic(v, w)
        v = path[k // 2] if k % 2 == 0 else path[(k + 1) // 2]
    raise AssertionError("midpoint descent failed to converge")


def _axis_ray(element: TreeAut, start: Vertex, length: int, depth: int) -> Vertex:
    """The first `depth` letters of the end that the forward orbit of `start`
    converges to, for `start` on the axis and translation length `length`.

    The projection p of the base vertex onto the axis lies on the geodesic
    from `start` to the base vertex, so d(start, p) <= |start|.  Once
    k * length >= |start| + depth, the word of element^k(start) runs through
    p and then along the axis past p for at least `depth` letters, so it is
    a prefix of the limit ray of at least that length.  Walking
    ceil((|start| + depth) / length) + 1 steps makes both of the last two
    orbit words such prefixes; their agreement is still asserted.
    """
    prev = cur = start
    for _ in range(-(-(len(start) + depth) // length) + 1):
        prev, cur = cur, element.evaluate(cur)
    if len(cur) < depth or cur[:depth] != prev[:depth]:
        raise AssertionError("axis ray prefix failed to stabilize")
    return cur[:depth]


def axis_and_ends(g: TreeAut, depth: int) -> tuple[Vertex, Vertex]:
    """Ray prefixes of length `depth` of the attracting and repelling fixed
    ends of a hyperbolic element."""
    cls = classify_isometry(g)
    if not isinstance(cls, Hyperbolic):
        raise ValueError(f"axis ends need a hyperbolic element, got {cls!r}")
    w, length = cls.axis_point, cls.length
    return _axis_ray(g, w, length, depth), _axis_ray(g.inverse(), w, length, depth)


# -- pointwise fixation of half-trees ----------------------------------------


def fixes_half_tree_pointwise(g: TreeAut, h: DirectedEdge) -> bool:
    """True iff g fixes every vertex of the half-tree beyond the edge h.

    Criterion: g fixes h pointwise iff g fixes the head of h and its local
    action is the identity at every vertex of h.  If so, g(neighbor(v, c)) =
    neighbor(g(v), c) walks the fixed head out to all of h.  Conversely, at a
    vertex of h every neighbor but at most one (the tail, at the head) lies
    in h and is fixed, and a permutation fixing all colors but one fixes
    that one too.

    The maps of `g.extended` have a core that holds both ends of h's edge, so
    every branch is a connected set that misses that edge, and it lies in h
    iff the core vertex it hangs from does.  The local actions on h are then
    the core permutations of the core vertices in h and the branch rules and
    defaults hung from them.
    """
    core, branches, defaults = g.extended([h.tail, h.head])
    inside = {u for u in core if half_tree_contains(h, u)}
    perms = itertools.chain(
        (core[u] for u in inside),
        (f for (u, _), f in branches.items() if u in inside),
        (f for u, f in defaults.items() if u in inside),
    )
    return g.evaluate(h.head) == h.head and all(p.is_identity() for p in perms)


# -- products, independence witnesses, table tennis ---------------------------


def distinct_letters(gens: list[TreeAut]) -> list[tuple[int, TreeAut]]:
    """The alphabet of both word searches: (index, letter) for gens[i] at 2i
    and its inverse at 2i+1, without each letter equal, as an element, to an
    earlier one or to the identity.  A word through such a letter gives the
    product, or the end image, of the word through the earlier letter or of
    the word without it, and either search meets that word first."""
    if not gens:
        raise ValueError("need at least one generator")
    seen = {TreeAut.identity(gens[0].deg)}
    letters = []
    for i, a in enumerate(a for g in gens for a in (g, g.inverse())):
        if a not in seen:
            seen.add(a)
            letters.append((i, a))
    return letters


def enumerate_products(gens: list[TreeAut], max_len: int):
    """All nontrivial products of the generators and their inverses up to the
    given length, deduplicated in canonical form, in deterministic
    breadth-first word order.  Yields (word, element) with word a tuple of
    alphabet indices (2i for gens[i], 2i+1 for its inverse), each word the
    (length, lex)-first one for its element.

    Only those first words are extended, and only by `distinct_letters`: the
    first word of an element has as its prefix the first word of that
    prefix's element, so extending any other word could never yield."""
    letters = distinct_letters(gens)
    identity = TreeAut.identity(gens[0].deg)
    seen = {identity.key()}
    layer: list[tuple[tuple[int, ...], TreeAut]] = [((), identity)]
    for _ in range(max_len):
        nxt = []
        for word, el in layer:
            for i, a in letters:
                el2 = el * a
                if el2.key() not in seen:
                    seen.add(el2.key())
                    nxt.append((word + (i,), el2))
                    yield word + (i,), el2
        layer = nxt


def general_type_witness(gens: list[TreeAut], search_len: int):
    """Search products of the generators for two hyperbolic elements whose
    four axis ends are pairwise distinct to depth max(2 Lmax s, 8), where
    s = `search_len` and Lmax is the largest translation length in the ball.

    Returns the first such pair in `itertools.combinations` order over the
    hyperbolic products, the pair an eager search of the whole ball returns,
    or None when no witness exists within the length bound -- absence of a
    witness is never evidence against the action being of general type.

    Products are drawn lazily.  With m the largest |g.base| of a generator,
    a product w has translation length <= d(v0, w v0) <= s m, and the power
    h^(s // k) of a hyperbolic h whose first word has k letters lies in the
    ball.  So Lmax = s m as soon as some (s // k) l(h) reaches s m; if none
    does, the ball is drained and Lmax is the largest (s // k) l(h).  Pairs
    are then tested in order, so draws stop at the product that decides one.
    """
    bound = search_len * max(len(g.base) for g in gens)
    if bound == 0:
        return None  # every generator fixes v0, so every product is elliptic
    products = enumerate_products(gens, search_len)
    hyperbolics: list[TreeAut] = []

    def draw() -> int:
        # Append the next hyperbolic h; return (s // k) l(h), or 0 once spent.
        for word, el in products:
            cls = classify_isometry(el)
            if isinstance(cls, Hyperbolic):
                hyperbolics.append(el)
                return search_len // len(word) * cls.length
        return 0

    lmax = 0
    while lmax < bound and (reach := draw()):
        lmax = max(lmax, reach)
    depth = max(2 * lmax * search_len, 8)
    ends: dict[int, tuple[Vertex, Vertex]] = {}
    i = 0
    while i < len(hyperbolics) or draw():
        j = i + 1
        while j < len(hyperbolics) or draw():
            for k in (i, j):
                if k not in ends:
                    ends[k] = axis_and_ends(hyperbolics[k], depth)
            if len(set(ends[i] + ends[j])) == 4:
                return hyperbolics[i], hyperbolics[j]
            j += 1
        i += 1
    return None


class FreeGroupCertificate(FrozenRecord):
    """Half-trees and verified inclusions witnessing that two hyperbolic
    elements (at the given power) play table tennis, hence generate a free
    group of rank two.  The half-trees are h1+, h1-, h2+, h2-."""

    __slots__ = ("power", "half_trees", "inclusions", "end_depth")

    def __init__(self, power: int,
                 half_trees: tuple[DirectedEdge, DirectedEdge, DirectedEdge, DirectedEdge],
                 inclusions: tuple[str, ...] = (), end_depth: int = 0):
        super().__init__(power, half_trees, inclusions, end_depth)

    def to_data(self) -> dict:
        return {
            "power": self.power,
            "half_trees": [
                {"tail": list(h.tail), "color": h.color} for h in self.half_trees
            ],
            "inclusions": list(self.inclusions),
            "end_depth": self.end_depth,
        }


def _image_half_tree(t: TreeAut, h: DirectedEdge) -> DirectedEdge:
    return DirectedEdge(t.evaluate(h.tail), t.local_action(h.tail)(h.color))


def _maps_complement_into(t: TreeAut, h_from: DirectedEdge, h_to: DirectedEdge) -> bool:
    """Check t(T minus h_from) is inside h_to, exactly, on half-tree edges."""
    return half_tree_subset(_image_half_tree(t, h_from.reversed()), h_to)


def ping_pong_certificate(g1: TreeAut, g2: TreeAut, power: int):
    """Find four pairwise-disjoint half-trees around the two axes such that
    the given powers map the complement of each repelling half-tree into the
    matching attracting one.  Returns None when no configuration exists at
    this power (a caller may raise the power); precondition violations raise.
    """
    if power < 1:
        raise ValueError("power must be positive")
    cls1, cls2 = classify_isometry(g1), classify_isometry(g2)
    if not isinstance(cls1, Hyperbolic) or not isinstance(cls2, Hyperbolic):
        raise ValueError("both elements must be hyperbolic")
    reach = 2 * power * max(cls1.length, cls2.length) + 8
    depth = reach + 2
    rays = axis_and_ends(g1, depth) + axis_and_ends(g2, depth)
    if len(set(rays)) < 4:
        raise ValueError("end pairs coincide; no table-tennis configuration")
    t1 = g1**power
    t2 = g2**power
    t1i, t2i = t1.inverse(), t2.inverse()

    def edge_at(ray: Vertex, r: int) -> DirectedEdge:
        return DirectedEdge(ray[: r - 1], ray[r - 1])

    radii = itertools.product(range(1, reach + 1), repeat=4)
    for rs in sorted(radii, key=lambda rs: (sum(rs), rs)):
        hs = tuple(edge_at(ray, r) for ray, r in zip(rays, rs))
        if any(
            not half_trees_disjoint(hs[i], hs[j])
            for i in range(4)
            for j in range(i + 1, 4)
        ):
            continue
        checks = [
            ("g1^p maps complement of h1- into h1+", t1, hs[1], hs[0]),
            ("g1^-p maps complement of h1+ into h1-", t1i, hs[0], hs[1]),
            ("g2^p maps complement of h2- into h2+", t2, hs[3], hs[2]),
            ("g2^-p maps complement of h2+ into h2-", t2i, hs[2], hs[3]),
        ]
        if all(_maps_complement_into(t, a, b) for _, t, a, b in checks):
            return FreeGroupCertificate(
                power=power,
                half_trees=hs,
                inclusions=tuple(name for name, *_ in checks),
                end_depth=depth,
            )
    return None
