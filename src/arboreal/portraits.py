"""Tree automorphisms as branch-constant portraits, with exact arithmetic.

An automorphism g of the colored tree is determined by the image of the base
vertex together with its portrait: the local permutation sigma(g, v) that g
induces on the edge colors around each vertex v.  A portrait is admissible
iff adjacent vertices agree on the color of the edge joining them, and every
admissible portrait (with any base image) assembles to an automorphism.

This module computes in the subgroup of branch-constant elements: portraits
that are constant beyond a finite prefix-closed core, one constant per
branch.  Every witness element constructed here is of this shape and the
family is closed under composition and inversion.  Composition obeys the
cocycle rule sigma(g h, v) = sigma(g, h(v)) * sigma(h, v).

Finite and integer color sets share one view of the branch rules at a core
vertex u: explicit rules for some frontier colors, plus an optional default
rule for every frontier color not listed.  Over the integers u has infinitely
many branches, so it always carries a default and lists only the exceptions
to it.  A finite frontier is always listed in full: defaults given at a
finite degree are expanded into explicit rules when the element is built, so
a finite element stores no defaults and serializes without them.

Every element is built in its canonical (minimal-core) form, so equal
automorphisms have equal stored maps.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import chain

from .perm_groups import Perm, PermGroup, perm_disagreement
from .tree_core import (
    V0,
    FrozenRecord,
    Vertex,
    check_vertex,
    common_prefix_len,
    enumerate_ball,
    neighbor,
    prefix_closure,
)


class PortraitError(ValueError):
    """The data does not describe a valid branch-constant automorphism."""


class TreeAut:
    """A branch-constant tree automorphism.

    base      -- image of the base vertex.
    core      -- prefix-closed finite map vertex -> local permutation.
    branches  -- explicit branch rules keyed by frontier edge (vertex, color).
    defaults  -- per core vertex, the rule of every frontier color that
                 `branches` leaves out.  Integer colors need one at every
                 core vertex.  Once validated, finite defaults are expanded
                 into explicit rules, so a finite element keeps this map
                 empty; integer ones drop the explicit rules equal to them.
    deg       -- derived from the core: the finite degree, or None.

    `frontier_rule(u, c)` reads the branch rules at u the same way on both
    color sets.  Invariant: every instance is canonical.  The constructor
    validates the data as given and then absorbs every redundant core leaf,
    so the stored core is the unique minimal one and equality and hashing
    compare the stored maps.  Instances are immutable, so each computes its
    inverse and key at most once and keeps them (`_inv`, `_key`).
    """

    __slots__ = ("deg", "base", "core", "branches", "defaults", "_inv", "_key")

    def __init__(self, base, core, branches=None, defaults=None):
        self.base = check_vertex(base)
        self.core = {check_vertex(v): p for v, p in core.items()}
        if V0 not in self.core:
            raise PortraitError("core must contain the base vertex")
        self.deg = self.core[V0].degree
        self.branches = {(check_vertex(u), int(c)): f for (u, c), f in (branches or {}).items()}
        self.defaults = {check_vertex(v): p for v, p in (defaults or {}).items()}
        self._inv = self._key = None
        self._validate()
        if self.deg is not None:
            for u, f in self.defaults.items():
                for c in self.frontier_colors(u):
                    self.branches.setdefault((u, c), f)
            self.defaults = {}
        else:
            self.branches = {e: f for e, f in self.branches.items() if f != self.defaults[e[0]]}
        self._absorb_leaves()

    # -- structure helpers ---------------------------------------------------

    def _core_edge_colors(self, u: Vertex) -> set[int]:
        cols = {w[-1] for w in self.core if w and w[:-1] == u}
        if u:
            cols.add(u[-1])
        return cols

    def frontier_colors(self, u: Vertex) -> list[int]:
        """Frontier colors at a core vertex (finite degree only)."""
        if self.deg is None:
            raise PortraitError("frontier is infinite over integer colors")
        return [c for c in range(self.deg) if self.is_frontier_color(u, c)]

    def is_frontier_color(self, u: Vertex, c: int) -> bool:
        return (not u or c != u[-1]) and u + (c,) not in self.core

    def frontier_rule(self, u: Vertex, c: int) -> Perm:
        if not self.is_frontier_color(u, c):
            raise PortraitError(f"({u}, {c}) is not a frontier edge")
        f = self.branches.get((u, c))
        return self.defaults[u] if f is None else f

    def _validate(self):
        if self.deg is not None and self.deg < 3:
            raise PortraitError("finite color sets need at least three colors")
        for v in self.core:
            if v and v[:-1] not in self.core:
                raise PortraitError(f"core is not connected at {v!r}")
        for p in chain(self.core.values(), self.branches.values(), self.defaults.values()):
            if p.degree != self.deg:
                raise PortraitError(f"permutation domain {p!r} does not match degree {self.deg}")
        # adjacent core vertices agree on the joining edge color
        for v, p in self.core.items():
            if v and self.core[v[:-1]](v[-1]) != p(v[-1]):
                raise PortraitError(f"edge compatibility fails at core edge into {v!r}")
        # branch rules agree with the core on the frontier edge color
        for (u, c), f in self.branches.items():
            if u not in self.core or not self.is_frontier_color(u, c):
                raise PortraitError(f"branch rule at non-frontier edge ({u!r}, {c})")
            if f(c) != self.core[u](c):
                raise PortraitError(f"edge compatibility fails at frontier ({u!r}, {c})")
        # a default agrees with the core at every frontier color it covers
        for u, f in self.defaults.items():
            if u not in self.core:
                raise PortraitError(f"default at non-core vertex {u!r}")
            bad = perm_disagreement(f, self.core[u])
            if bad is None:
                raise PortraitError(f"default at {u!r} disagrees with the core cofinitely")
            bad = sorted(c for c in bad
                         if self.is_frontier_color(u, c) and (u, c) not in self.branches)
            if bad:
                raise PortraitError(f"default at {u!r} breaks compatibility at colors {bad}")
        # every frontier edge has a rule: a listed one or its vertex's default
        for u in self.core.keys() - self.defaults.keys():
            if self.deg is None:
                raise PortraitError(f"core vertex {u!r} lacks a default branch constant")
            missing = [c for c in self.frontier_colors(u) if (u, c) not in self.branches]
            if missing:
                raise PortraitError(f"frontier edges without rules at {u!r}: {missing}")

    def _absorb_leaves(self):
        """Reach the unique minimal core: a core leaf whose branch rules and
        default all equal its permutation becomes its parent's rule there.
        One sweep from the longest vertices down suffices, since a parent is
        visited after its children.  That rule agrees with the core edge it
        replaces, so the maps stay valid without a second validation."""
        core, branches, defaults = self.core, self.branches, self.defaults
        rules: dict[Vertex, dict[int, Perm]] = {}
        for (u, c), f in branches.items():
            rules.setdefault(u, {})[c] = f
        children = Counter(v[:-1] for v in core if v)
        for u in sorted(core, key=len, reverse=True):
            sigma = core[u]
            if (
                not u
                or children[u]
                or defaults.get(u, sigma) != sigma
                or any(f != sigma for f in rules.get(u, {}).values())
            ):
                continue
            del core[u]
            defaults.pop(u, None)
            for c in rules.pop(u, ()):
                del branches[(u, c)]
            parent = u[:-1]
            children[parent] -= 1
            if defaults.get(parent) != sigma:
                rules.setdefault(parent, {})[u[-1]] = branches[(parent, u[-1])] = sigma

    # -- evaluation ---------------------------------------------------------

    def local_action(self, v) -> Perm:
        """sigma(g, v): core lookup, else the constant of the branch holding v."""
        v = tuple(v)
        if v in self.core:
            return self.core[v]
        p = v
        while p not in self.core:
            p = p[:-1]
        return self.frontier_rule(p, v[len(p)])

    def evaluate(self, v) -> Vertex:
        """Image of the vertex: walk the word through the local actions.

        Prefixes inside the core use its permutations, one letter at a time.
        Once the walk leaves the core it stays in the branch of the frontier
        edge it crossed, whose constant f maps the whole tail at once.  The
        image letters can only cancel against w before the first of them is
        appended: v is reduced and f is a bijection, so consecutive image
        letters differ, and an appended letter is never undone by the next.
        So w is cut back once and extended once, in time linear in |v|.
        """
        v = tuple(v)
        w = self.base
        core = self.core
        i, n = 0, len(v)
        while i < n and v[:i] in core:
            w = neighbor(w, core[v[:i]](v[i]))
            i += 1
        if i < n:
            f = self.frontier_rule(v[: i - 1], v[i - 1])
            img = tuple(map(f.table.__getitem__ if f.table is not None else f, v[i:]))
            j, k = len(w), 0
            while j and k < len(img) and w[j - 1] == img[k]:
                j -= 1
                k += 1
            w = w[:j] + img[k:]
        return w

    def preimage(self, x) -> Vertex:
        """The vertex mapped to x, found by walking the image geodesic."""
        x = tuple(x)
        y: Vertex = V0
        w = self.base
        while w != x:
            k = common_prefix_len(w, x)
            c_img = x[len(w)] if len(w) == k else w[-1]
            c = self.local_action(y).inv()(c_img)
            y = neighbor(y, c)
            w = neighbor(w, c_img)
        return y

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_constant(f: Perm, base=V0) -> "TreeAut":
        """The automorphism with constant portrait f sending the base vertex
        to `base`; constant portraits always satisfy edge compatibility."""
        return TreeAut(base, {V0: f}, defaults={V0: f})

    @staticmethod
    def identity(deg: int | None) -> "TreeAut":
        return TreeAut.from_constant(Perm.identity(deg))

    # -- core surgery ---------------------------------------------------------

    def extended(self, verts) -> tuple[dict, dict, dict]:
        """The maps (core, branches, defaults) of this automorphism over the
        prefix closure of its core plus verts: a new core vertex carries the
        constant of the branch it was in as its default.  An element built
        from them absorbs the padding again."""
        target = prefix_closure(set(self.core) | {tuple(v) for v in verts})
        core = {v: self.local_action(v) for v in target}
        defaults = {u: core[u] for u in target if u not in self.core}
        defaults.update(self.defaults)
        branches = {(u, c): f for (u, c), f in self.branches.items() if u + (c,) not in target}
        return core, branches, defaults

    def canonical(self) -> "TreeAut":
        """The canonical (minimal-core) form, which every element already is."""
        return self

    # -- group operations -----------------------------------------------------

    def __mul__(self, other: "TreeAut") -> "TreeAut":
        """Composition (g * h)(v) = g(h(v)), returned in canonical form, by
        the cocycle rule sigma(g h, n) = sigma(g, h(n)) * sigma(h, n).  h's
        image of and local action at each support vertex are carried down
        from its parent, so each frontier edge takes one step from its tail.
        """
        g, h = self, other
        if g.deg != h.deg:
            raise PortraitError("cannot compose automorphisms of different trees")
        support = prefix_closure(set(h.core) | {h.preimage(u) for u in g.core})
        img, act = {V0: h.base}, {V0: h.core[V0]}  # u -> h(u), sigma(h, u)

        def step(u: Vertex, c: int) -> tuple[Vertex, Perm]:
            # h(n) and sigma(h, n) at n = u + (c,); sigma(h, n) is h's core
            # permutation at n, its frontier rule at (u, c), or u's constant
            n = u + (c,)
            rule = h.core[n] if n in h.core else h.frontier_rule(u, c) if u in h.core else act[u]
            return neighbor(img[u], act[u](c)), rule

        for u in sorted(support, key=len)[1:]:
            img[u], act[u] = step(u[:-1], u[-1])

        def rule(u: Vertex, c: int) -> Perm:
            x, s = step(u, c)
            return g.local_action(x) * s

        core = {u: g.local_action(img[u]) * act[u] for u in support}
        branches = {}
        defaults = {}
        for u in support:
            if g.deg is None:
                # the colors whose rule may differ from the generic one, and a
                # fresh color standing in for all the others
                hu = img[u]
                if hu in g.core:
                    img_special = {c for (w, c) in g.branches if w == hu}
                    img_special |= g._core_edge_colors(hu)
                else:
                    img_special = {hu[-1]} if hu else set()
                inv = act[u].inv()
                colors = {c for (w, c) in h.branches if w == u} | {inv(c) for c in img_special}
                blocked = colors | {w[-1] for w in support if w and w[:-1] == u}
                if u:
                    blocked.add(u[-1])
                defaults[u] = rule(u, max(blocked, default=0) + 1)
                colors = sorted(colors)
            else:
                colors = range(g.deg)
            for c in colors:
                if (not u or c != u[-1]) and u + (c,) not in support:
                    branches[(u, c)] = rule(u, c)
        return TreeAut(g.evaluate(h.base), core, branches, defaults)

    def inverse(self) -> "TreeAut":
        """The inverse automorphism: sigma(g^-1, g(v)) = sigma(g, v)^-1.
        Computed once; the inverse keeps this element as its own inverse.
        The rules repeat a few permutations many times, so each distinct one
        is inverted once."""
        if self._inv is None:
            base = self.preimage(V0)
            core, branches, defaults = self.extended([base])
            images = {u: self.evaluate(u) for u in core}
            rules = chain(core.values(), branches.values(), defaults.values())
            inv = {p: p.inv() for p in dict.fromkeys(rules)}
            inv_core = {images[u]: inv[sigma] for u, sigma in core.items()}
            inv_branches = {(images[u], core[u](c)): inv[f] for (u, c), f in branches.items()}
            inv_defaults = {images[u]: inv[f] for u, f in defaults.items()}
            self._inv = TreeAut(base, inv_core, inv_branches, inv_defaults)
            self._inv._inv = self
        return self._inv

    def __pow__(self, n: int) -> "TreeAut":
        if n < 0:
            return self.inverse() ** (-n)
        out = TreeAut.identity(self.deg)
        for _ in range(n):
            out = self * out
        return out

    def is_identity(self) -> bool:
        rules = chain(self.core.values(), self.branches.values(), self.defaults.values())
        return self.base == V0 and len(self.core) == 1 and all(p.is_identity() for p in rules)

    def key(self):
        """The canonical maps as a tuple; computed once."""
        if self._key is None:
            rules = (self.core.items(), self.branches.items(), self.defaults.items())
            self._key = (self.deg, self.base,
                         *(tuple(sorted((x, p.key()) for x, p in r)) for r in rules))
        return self._key

    def __eq__(self, other) -> bool:
        return isinstance(other, TreeAut) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"TreeAut(base={''.join(map(str, self.base)) or 'v0'}, core={len(self.core)})"


# -- group classes ----------------------------------------------------------


class GroupClass(FrozenRecord):
    """G(F, F'): local action in F' everywhere and in F at all but finitely
    many vertices, which is U(F) when F' = F; with `star`, its subgroup
    G(F, F')* of the elements that preserve the tree's bipartition."""

    __slots__ = ("F", "Fp", "star")

    def __init__(self, F: PermGroup, Fp: PermGroup, star: bool = False):
        super().__init__(F, Fp, star)

    @staticmethod
    def universal(F: PermGroup) -> "GroupClass":
        return GroupClass(F, F)

    @staticmethod
    def prescribed(F: PermGroup, Fp: PermGroup) -> "GroupClass":
        if not Fp.contains_group(F):
            raise ValueError("the prescribed pair needs F <= F'")
        return GroupClass(F, Fp)

    @staticmethod
    def prescribed_star(F: PermGroup, Fp: PermGroup) -> "GroupClass":
        plain = GroupClass.prescribed(F, Fp)
        return GroupClass(plain.F, plain.Fp, star=True)

    def contains(self, g: TreeAut) -> bool:
        if g.deg != self.F.degree:
            raise ValueError("element tree degree does not match the class")
        tails = chain(g.branches.values(), g.defaults.values())
        ok = all(map(self.Fp.contains, g.core.values())) and all(map(self.F.contains, tails))
        # bipartition preserved iff the base vertex moves an even distance
        return ok and not (self.star and len(g.base) % 2)


# -- random and exhaustive element generation --------------------------------


def random_element(cls: GroupClass, core_radius: int, seed: int) -> TreeAut:
    """A seeded random member of the class with core inside the given radius.

    Finite color sets draw compatible portraits vertex by vertex; over the
    integers only the translation family is generated (its portraits are
    forced to be constant by edge compatibility).
    """
    import random  # only here, so that importing the package leaves it unloaded

    rng = random.Random(seed)
    F, Fp, d = cls.F, cls.Fp, cls.F.degree
    if d is None:
        if F.kind != "z_translations":
            raise ValueError("integer-color random elements: translation family only")
        window = max(2, core_radius + 1)
        shift = rng.randint(-window, window)
        length = rng.randint(0, core_radius)
        if cls.star and length % 2:
            length -= 1
        base = _random_reduced_word(rng, length, range(-window, window + 1))
        return TreeAut.from_constant(Perm.z_translation(shift), base)

    verts = {V0}
    layer = [V0]
    for _ in range(core_radius):
        nxt = []
        for u in layer:
            for c in range(d):
                if u and c == u[-1]:
                    continue
                if rng.random() < 0.4:
                    v = u + (c,)
                    verts.add(v)
                    nxt.append(v)
        layer = nxt
    n_exc = 0 if F.contains_group(Fp) else rng.randint(0, 2)
    exc = set(rng.sample(sorted(verts), min(n_exc, len(verts))))
    core: dict[Vertex, Perm] = {}
    for u in sorted(verts, key=lambda v: (len(v), v)):
        allowed = Fp if u in exc else F
        if u == V0:
            cand = list(allowed.elements)
        else:
            need = core[u[:-1]](u[-1])
            cand = [p for p in allowed.elements if p(u[-1]) == need]
        if not cand:
            raise ValueError(f"no compatible local action at {u!r}")
        core[u] = rng.choice(cand)
    branches = {}
    for u in sorted(verts, key=lambda v: (len(v), v)):
        for c in range(d):
            if (u and c == u[-1]) or u + (c,) in verts:
                continue
            need = core[u](c)
            cand = [p for p in F.elements if p(c) == need]
            if not cand:
                raise ValueError(f"no branch constant in F for ({u!r}, {c})")
            branches[(u, c)] = rng.choice(cand)
    length = rng.randint(0, core_radius)
    if cls.star and length % 2:
        length -= 1
    base = _random_reduced_word(rng, length, range(d))
    g = TreeAut(base, core, branches)
    assert cls.contains(g)
    return g


def _random_reduced_word(rng: random.Random, length: int, window) -> Vertex:
    word: list[int] = []
    colors = list(window)
    for _ in range(length):
        c = rng.choice(colors)
        while word and c == word[-1]:
            c = rng.choice(colors)
        word.append(c)
    return tuple(word)


def enumerate_branch_constant(F: PermGroup, core_radius: int, bases) -> list[TreeAut]:
    """All elements with local actions in F whose canonical core fits in the
    given ball, for each allowed base image.  Exhaustive: portraits are padded
    to the full ball and every compatible assignment is produced, so the list
    covers every such element exactly once (canonical dedup).
    """
    if F.kind != "finite":
        raise ValueError("exhaustive enumeration needs a finite group")
    d = F.degree
    verts = sorted(enumerate_ball(V0, core_radius, range(d)), key=lambda v: (len(v), v))
    out: dict[tuple, TreeAut] = {}  # key -> first element with it
    for base in bases:
        stack: list[dict[Vertex, Perm]] = [{}]
        for u in verts:
            nxt = []
            for partial in stack:
                if u == V0:
                    cand = list(F.elements)
                else:
                    need = partial[u[:-1]](u[-1])
                    cand = [p for p in F.elements if p(u[-1]) == need]
                for p in cand:
                    d2 = dict(partial)
                    d2[u] = p
                    nxt.append(d2)
            stack = nxt
        vert_set = set(verts)
        edges = [
            (u, c)
            for u in verts
            for c in range(d)
            if (not u or c != u[-1]) and u + (c,) not in vert_set
        ]
        for core in stack:
            rule_stack: list[dict] = [{}]
            for (u, c) in edges:
                need = core[u](c)
                cand = [p for p in F.elements if p(c) == need]
                rule_stack = [{**r, (u, c): p} for r in rule_stack for p in cand]
            for branches in rule_stack:
                g = TreeAut(base, core, branches)
                out.setdefault(g.key(), g)
    return list(out.values())


# -- end images ---------------------------------------------------------------


def image_prefix(g: TreeAut, ray: Vertex, depth: int) -> Vertex:
    """The first `depth` letters of the ray of g applied to any end whose
    ray starts with `ray`.

    Exact: the image of a deep enough ray vertex is a prefix of the image
    ray, and a ray prefix of length depth + len(g.base) guarantees enough
    letters; a shorter one is refused.
    """
    if len(ray) < depth + len(g.base):
        raise ValueError(
            f"ray prefix of length {len(ray)} is too short for {depth} exact letters "
            f"under displacement {len(g.base)}"
        )
    img = g.evaluate(ray)
    if len(img) < depth:
        raise AssertionError("image ray shorter than requested depth")
    return img[:depth]


def end_image_prefix(g: TreeAut, end, depth: int) -> Vertex:
    """The first `depth` letters of the ray of g applied to the end."""
    return image_prefix(g, end.ray_prefix(depth + len(g.base)), depth)


# -- serialization -------------------------------------------------------------


def perm_to_data(p: Perm):
    if p.kind == "f":
        return list(p.table)
    return {"shift": p.shift, "patch": [[x, y] for x, y in p.patch]}


def require_key(spec, key: str, what: str):
    """spec[key]; a missing key is bad input (ValueError), not a KeyError."""
    if not isinstance(spec, dict) or key not in spec:
        raise ValueError(f"{what} must be an object with the key {key!r}")
    return spec[key]


def json_typed(value, kind: type, what: str):
    """value, if it is exactly a JSON integer (kind int) or string (kind
    str); anything else is bad input, a ValueError.  The test is on the exact
    type because bool is a subclass of int and a JSON boolean is no integer."""
    if type(value) is not kind:
        name = "integer" if kind is int else "string"
        raise ValueError(f"{what} must be a JSON {name}, got {json.dumps(value, default=repr)}")
    return value


def _json_list(value, item: type, what: str, width: int | None = None) -> list:
    """value, if it is a list of entries of exactly the type `item` (int for
    JSON integers, not booleans), each of length `width` if given; else bad input."""
    if not isinstance(value, list) or not all(type(x) is item for x in value):
        name = "JSON integers" if item is int else "lists"
        raise ValueError(f"{what} must be a list of {name}, got {json.dumps(value, default=repr)}")
    if width is not None and any(len(x) != width for x in value):
        raise ValueError(f"each entry of {what} must have {width} entries, got {json.dumps(value)}")
    return value


def _unique_map(pairs, what: str) -> dict:
    """dict(pairs), if no key repeats; else bad input, which a dict would
    resolve silently in favour of the last entry."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"{what} entry {key!r} is listed twice")
        out[key] = value
    return out


def perm_from_data(data) -> Perm:
    """A table of JSON integers, or an integer shift with a patch of integer
    pairs; any other shape, or a patch that lists a point twice, is bad input."""
    if isinstance(data, list):
        return Perm.from_table(_json_list(data, int, "permutation table"))
    shift, patch = (require_key(data, k, "integer-color permutation") for k in ("shift", "patch"))
    pairs = (_json_list(pair, int, "patch pair") for pair in _json_list(patch, list, "patch", 2))
    return Perm.z_affine(json_typed(shift, int, "permutation shift"), _unique_map(pairs, "patch"))


def aut_to_data(g: TreeAut) -> dict:
    out = {
        "degree": g.deg,
        "base": list(g.base),
        "core": sorted([list(v), perm_to_data(p)] for v, p in g.core.items()),
        "branches": sorted([list(u), col, perm_to_data(f)] for (u, col), f in g.branches.items()),
    }
    if g.deg is None:
        out["defaults"] = sorted([list(v), perm_to_data(p)] for v, p in g.defaults.items())
    return out


def aut_from_data(data) -> TreeAut:
    """The element of `aut_to_data`; any other shape is bad input, and so is
    a permutation of another degree than the serialized one, a core vertex,
    frontier edge or defaults vertex listed twice or, at a finite degree d, a
    vertex letter or branch color outside range(d)."""
    keys = ("degree", "base", "core", "branches")
    deg, base, core, branches = (require_key(data, k, "serialized element") for k in keys)
    if deg is not None:
        json_typed(deg, int, "element degree, if not null,")

    def color(c, what: str) -> int:
        json_typed(c, int, what)
        if deg is not None and c not in range(deg):
            raise ValueError(f"{what} {c} is outside range({deg})")
        return c

    def vertex(v, what: str) -> Vertex:
        return tuple(color(c, f"{what} letter") for c in _json_list(v, int, what))

    def perm(spec) -> Perm:
        if (p := perm_from_data(spec)).degree != deg:
            raise ValueError(f"element degree {json.dumps(deg)} does not match its permutations' "
                             f"degree {json.dumps(p.degree)}")
        return p

    core = _unique_map(((vertex(v, "core vertex"), perm(p))
                        for v, p in _json_list(core, list, "core", 2)), "core")
    branches = _unique_map((((vertex(u, "branch vertex"), color(c, "branch color")), perm(f))
                            for u, c, f in _json_list(branches, list, "branches", 3)), "branches")
    defaults = _unique_map(((vertex(v, "defaults vertex"), perm(p))
                            for v, p in _json_list(data.get("defaults", []), list, "defaults", 2)),
                           "defaults")
    return TreeAut(vertex(base, "base"), core, branches, defaults)
