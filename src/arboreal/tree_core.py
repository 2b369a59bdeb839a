"""Colored regular trees as reduced words of edge colors.

The tree of degree |Omega| carries an edge coloring in which every color
appears exactly once at every vertex.  Fixing a base vertex, each vertex is
named by the color sequence of the geodesic reaching it: a reduced word (no
two consecutive letters equal) over the color set.  The base vertex is the
empty word, and crossing the edge of color c from a vertex appends c to its
word, unless the word already ends in c, in which case it removes it.

Colors are ints.  A finite color set is {0, ..., d-1} with d >= 3; the
non-locally-finite tree uses all of Z, and any enumeration then requires an
explicit finite color window.  The tree itself is never materialized.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import repeat
from operator import ne

Vertex = tuple[int, ...]

V0: Vertex = ()


def is_reduced(word: Iterable[int]) -> bool:
    """True iff no two consecutive letters are equal."""
    word = tuple(word)
    return all(map(ne, word, word[1:]))


def check_vertex(word: Iterable[int]) -> Vertex:
    """Validate and return a vertex word (reduced tuple of int colors)."""
    v = tuple(word)
    if not all(map(isinstance, v, repeat(int))):
        raise ValueError(f"colors must be ints: {v!r}")
    if not is_reduced(v):
        raise ValueError(f"word is not reduced: {v!r}")
    return v


def neighbor(v: Vertex, c: int) -> Vertex:
    """Cross the edge of color c at v.

    Involution: neighbor(neighbor(v, c), c) == v.
    """
    if v and v[-1] == c:
        return v[:-1]
    return v + (c,)


def common_prefix_len(u: Vertex, w: Vertex) -> int:
    n = 0
    for a, b in zip(u, w):
        if a != b:
            break
        n += 1
    return n


def distance(u: Vertex, w: Vertex) -> int:
    return len(u) + len(w) - 2 * common_prefix_len(u, w)


def geodesic(u: Vertex, w: Vertex) -> list[Vertex]:
    """The unique simple path from u to w, endpoints included."""
    k = common_prefix_len(u, w)
    down = [u[:i] for i in range(len(u), k, -1)]
    up = [w[:i] for i in range(k, len(w) + 1)]
    return down + up


def prefix_closure(verts: Iterable[Vertex]) -> set[Vertex]:
    """All prefixes of the given words; a connected subtree containing V0."""
    out: set[Vertex] = {V0}
    for v in verts:
        for i in range(1, len(v) + 1):
            out.add(v[:i])
    return out


def enumerate_ball(v: Vertex, r: int, window: Iterable[int]) -> set[Vertex]:
    """All vertices within distance r of v whose letters lie in the window."""
    window = sorted(set(window))
    if r > 0 and not window:
        raise ValueError("empty color window with positive radius")
    out = {v}
    frontier = [v]
    for _ in range(r):
        nxt = []
        for u in frontier:
            for c in window:
                w = neighbor(u, c)
                if w not in out:
                    out.add(w)
                    nxt.append(w)
        frontier = nxt
    return out


class Record:
    """A plain value type whose fields are its `__slots__`, in order.  The
    subclass `__init__` passes the field values to this one in that order.
    Two instances of one class are equal when their fields are, and the repr
    is `Name(field=value, ...)`.  A record is mutable and so unhashable; a
    `FrozenRecord` is neither."""

    __slots__ = ()
    __hash__ = None

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A read-only record, hashed by its field values."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")


class DirectedEdge(FrozenRecord):
    """The edge of the given color at the tail vertex, oriented tail -> head.

    It names the half-tree beyond it, the component of the tree minus the
    edge that contains the head; the reversed edge names the complement.
    """

    __slots__ = ("tail", "color")

    def __init__(self, tail: Vertex, color: int):
        super().__init__(tail, color)

    @property
    def head(self) -> Vertex:
        return neighbor(self.tail, self.color)

    @property
    def is_cylinder(self) -> bool:
        """True when the head extends the tail, so membership is a prefix test."""
        return len(self.head) > len(self.tail)

    def reversed(self) -> "DirectedEdge":
        return DirectedEdge(self.head, self.color)


def half_tree(tail: Iterable[int], color: int) -> DirectedEdge:
    return DirectedEdge(check_vertex(tail), color)


def is_prefix(p: Vertex, w: Vertex) -> bool:
    return len(p) <= len(w) and w[: len(p)] == p


def half_tree_contains(h: DirectedEdge, x) -> bool:
    """Membership of a vertex or end in a half-tree, decided from a prefix.

    When the head extends the tail the half-tree is the set of words having
    the head as a prefix; otherwise it is the complement of the words having
    the tail as a prefix.
    """
    if isinstance(x, tuple):
        word: Vertex = x
    else:
        depth = len(h.head) if h.is_cylinder else len(h.tail)
        word = x.ray_prefix(depth)
    if h.is_cylinder:
        return is_prefix(h.head, word)
    return not is_prefix(h.tail, word)


def half_trees_disjoint(h1: DirectedEdge, h2: DirectedEdge) -> bool:
    """Exact disjointness test on vertex sets."""
    if h1 == h2:
        return False
    if h1 == h2.reversed():
        return True
    return not half_tree_contains(h2, h1.head) and not half_tree_contains(h1, h2.head)


def half_tree_subset(h1: DirectedEdge, h2: DirectedEdge) -> bool:
    """Exact test for h1 being contained in h2."""
    if h1 == h2:
        return True
    if h1 == h2.reversed():
        return False
    return not half_tree_contains(h1, h2.tail) and half_tree_contains(h2, h1.head)


def _primitive(period: Vertex) -> Vertex:
    n = len(period)
    for k in range(1, n + 1):
        if n % k == 0 and period == period[:k] * (n // k):
            return period[:k]
    return period


class PeriodicEnd:
    """A boundary end whose ray from the base vertex is eventually periodic.

    Stored in the canonical form with the shortest prefix and primitive
    period, so equality of ends is structural equality.
    """

    __slots__ = ("prefix", "period")

    def __init__(self, prefix: Iterable[int], period: Iterable[int]):
        p = check_vertex(prefix)
        q = tuple(period)
        if not q:
            raise ValueError("period must be nonempty")
        if not is_reduced(p + q + q):
            raise ValueError(f"ray {p!r} + ({q!r})^oo is not reduced")
        q = _primitive(q)
        while p and p[-1] == q[-1]:
            p = p[:-1]
            q = q[-1:] + q[:-1]
        object.__setattr__(self, "prefix", p)
        object.__setattr__(self, "period", q)

    def ray_prefix(self, depth: int) -> Vertex:
        """The first `depth` letters of the ray from the base vertex."""
        word = list(self.prefix)
        while len(word) < depth:
            word.extend(self.period)
        return tuple(word[:depth])

    def __eq__(self, other) -> bool:
        if not isinstance(other, PeriodicEnd):
            return NotImplemented
        return self.prefix == other.prefix and self.period == other.period

    def __hash__(self) -> int:
        return hash((self.prefix, self.period))

    def __repr__(self) -> str:
        pre = "".join(map(str, self.prefix))
        per = "".join(map(str, self.period))
        return f"End({pre}({per})^oo)"
