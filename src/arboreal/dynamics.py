"""Classification of tree isometries and the dynamics built on it: axes and
their boundary ends, pointwise fixation of half-trees, and
independent-hyperbolic witnesses.

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
    Record,
    Vertex,
    distance,
    geodesic,
    half_tree_contains,
)


class Elliptic(Record):
    __slots__ = ("fixed_vertex",)

    def __init__(self, fixed_vertex: Vertex):
        super().__init__(fixed_vertex)


class Inversion(Record):
    __slots__ = ("edge",)

    def __init__(self, edge: DirectedEdge):
        super().__init__(edge)


class Hyperbolic(Record):
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
    """The first `depth` letters of the end xi that the forward orbit of
    `start` converges to, for `start` on the axis and translation length
    `length` (L below).

    The walk.  The projection p of the base vertex onto the axis lies on
    the geodesic from `start` to the base vertex, so d(start, p) <= |start|.
    Once k * L >= |start| + d, the word of element^k(start) runs through p
    and then along the axis past p for at least d letters, so it is a prefix
    of xi of at least that length.  Walking ceil((|start| + d) / L) + 1
    steps makes both of the last two orbit words such prefixes; their
    agreement is still asserted.  The walk runs only to
    d = min(depth, d0), where d0 = max(|start|, m + 1) + L and m is the
    longest core vertex.

    The recurrence.  Let x0 = d0 - L.  For i >= x0 the vertex xi[:i] lies
    on the axis beyond p (i >= |start| >= |p|), so the element maps it to
    xi[:i+L] and its edge of color xi[i] to the edge of color xi[i+L]:
    xi[i+L] = sigma(element, xi[:i])(xi[i]).  And xi[:i] lies outside the
    core (i > m), in the branch that xi[:x0] lies in, so that local action is
    the branch constant f at xi[:x0].  Hence xi[i+L] = f(xi[i]) extends the
    walked prefix to any depth D, one letter at a time.

    The certificate.  The prefix is checked with one evaluation: the element
    must map v = xi[:D-L] to xi[:D].  A vertex that a hyperbolic element
    moves by exactly L lies on its axis, and so does its image.  The image
    extends v, so the geodesic from the base vertex to it meets the axis at
    p and then runs along it through v to the image, in the direction of
    translation: xi[:D] is a prefix of the attracting end's ray, whatever
    the recurrence computed.  A failed check raises AssertionError.
    """
    d0 = max(len(start), max(map(len, element.core)) + 1) + length
    walked = min(depth, d0)
    prev = cur = start
    for _ in range(-(-(len(start) + walked) // length) + 1):
        prev, cur = cur, element.evaluate(cur)
    if len(cur) < walked or cur[:walked] != prev[:walked]:
        raise AssertionError("axis ray prefix failed to stabilize")
    if depth <= d0:
        return cur[:depth]
    ray = list(cur[:d0])
    f = element.local_action(ray[: d0 - length])
    for i in range(d0 - length, depth - length):
        ray.append(f(ray[i]))
    ray = tuple(ray)
    if element.evaluate(ray[: depth - length]) != ray:
        raise AssertionError("axis ray recurrence failed its certificate")
    return ray


def axis_and_ends(g: TreeAut, depth: int, cls: Hyperbolic | None = None) -> tuple[Vertex, Vertex]:
    """Ray prefixes of length `depth` of the attracting and repelling fixed
    ends of a hyperbolic element.  `cls`, if given, is the element's
    classification, which is then not computed again."""
    if cls is None:
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


# -- products and independence witnesses -------------------------------------


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
    given length, each element once by its canonical form, in deterministic
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
    four axis ends are pairwise distinct to depth max(2 s^2 m, 8), where
    s = `search_len` and m is the largest |g.base| of a generator.

    Each hyperbolic product, in `enumerate_products` order, is tested against
    every earlier one, and the first pair found is returned as (earlier,
    later): pairs run in order of the later element, then of the earlier.
    None means no witness exists within the length bound -- absence of a
    witness is never evidence against the action being of general type.

    `axis_and_ends` certifies its ray prefixes at any depth, so four distinct
    prefixes prove four distinct ends.  The depth is set by the inputs alone:
    every product w has translation length at most d(v0, w v0) <= s m, and
    the ends are compared over 2 s such lengths.
    """
    bound = search_len * max(len(g.base) for g in gens)
    if bound == 0:
        return None  # every generator fixes v0, so every product is elliptic
    depth = max(2 * search_len * bound, 8)
    seen: list[tuple[TreeAut, tuple[Vertex, Vertex]]] = []
    for _, el in enumerate_products(gens, search_len):
        if isinstance(cls := classify_isometry(el), Hyperbolic):
            ends = axis_and_ends(el, depth, cls)
            for earlier, earlier_ends in seen:
                if len(set(earlier_ends + ends)) == 4:
                    return earlier, el
            seen.append((el, ends))
    return None
