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

Finite and integer color sets store the branch rules at a core vertex u the
same way: a default rule, the one most frontier colors of u follow, and
explicit rules for the colors that differ from it.  Over the integers u has
infinitely many branches, of which all but finitely many follow one rule.
At a finite degree the smallest color breaks a tie, and a vertex with no
frontier color has no default.  A finite element still serializes every
frontier rule explicitly and no defaults.

Every element is built in its canonical (minimal-core) form, so equal
automorphisms have equal stored maps.

When F acts freely, U(F) is the constant portraits, one permutation at every
vertex: adjacent local actions agree on the color of the edge between them,
and two elements of a free F that agree at one color are equal.  Constants
multiply and invert in closed form.  Other elements are first padded
(`extended`) to a core whose image under the element holds v0; the element
maps the padded frontier edges one to one onto those of the image core, so
products and inverses combine the padded maps rule by rule.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import chain

from .perm_groups import Perm, PermGroup, perm_disagreement
from .tree_core import (
    V0,
    End,
    Record,
    Vertex,
    check_vertex,
    common_prefix_len,
    enumerate_ball,
    neighbor,
    prefix_closure,
    ray_prefix,
    trim_end,
)


class PortraitError(ValueError):
    """The data does not describe a valid branch-constant automorphism."""


def _domain_error(p: Perm, deg: int | None) -> PortraitError:
    return PortraitError(f"permutation domain {p!r} does not match degree {deg}")


def _absorb_leaves(core, rules, defaults, kids, deg):
    """Reach the unique minimal core: a core leaf whose frontier rules all
    equal its permutation becomes its parent's listed rule there.  A finite
    leaf whose colors are all listed ignores its default, which covers none.
    One sweep from the longest vertices down suffices, since a parent is
    visited after its children.  That rule agrees with the core edge it
    replaces, so the maps stay valid without a second validation."""
    for u in sorted(core, key=len, reverse=True):
        sigma, own = core[u], rules.get(u, {})
        if (
            u
            and not kids[u]
            and all(f == sigma for f in own.values())
            and (defaults.get(u) == sigma or (deg is not None and len(own) == deg - 1))
        ):
            del core[u]
            rules.pop(u, None)
            defaults.pop(u, None)
            kids[u[:-1]] -= 1
            rules.setdefault(u[:-1], {})[u[-1]] = sigma


class TreeAut:
    """A branch-constant tree automorphism.

    base      -- image of the base vertex.
    core      -- prefix-closed finite map vertex -> local permutation.
    branches  -- explicit branch rules keyed by frontier edge (vertex, color).
    defaults  -- per core vertex, the rule of every frontier color that
                 `branches` leaves out.  Integer colors need one at every
                 core vertex.  Once validated, each vertex keeps the rule of
                 the most frontier colors (at a finite degree, of the
                 smallest color among equals) as its default, and `branches`
                 only the rules that differ from it, so a finite vertex has
                 a default exactly when it has a frontier color.
    deg       -- derived from the core: the finite degree, or None.

    `frontier_rule(u, c)` reads the branch rules at u the same way on both
    color sets.  Invariant: every instance is canonical.  The constructor
    validates the data as given and then absorbs every redundant core leaf,
    so the stored core is the unique minimal one and equality and hashing
    compare the stored maps.  Instances are immutable, so each computes its
    inverse and key at most once and keeps them (`_inv`, `_key`).  `_cut`,
    for `end_image`, is the greatest length of the base and a core vertex.
    """

    __slots__ = ("deg", "base", "core", "branches", "defaults", "_inv", "_key", "_cut")

    def __init__(self, base, core, branches=None, defaults=None):
        self.base = check_vertex(base)
        core = {check_vertex(v): p for v, p in core.items()}
        if V0 not in core:
            raise PortraitError("core must contain the base vertex")
        self.deg = deg = core[V0].degree
        if deg is not None and deg < 3:
            raise PortraitError("finite color sets need at least three colors")
        defaults = {check_vertex(v): p for v, p in (defaults or {}).items()}
        # one pass over each map checks it; `kids` counts each core vertex's
        # core children and `rules` collects its listed rules by color
        kids = dict.fromkeys(core, 0)
        for v, p in core.items():
            if p.degree != deg:
                raise _domain_error(p, deg)
            if v:
                parent = core.get(v[:-1])
                if parent is None:
                    raise PortraitError(f"core is not connected at {v!r}")
                # adjacent core vertices agree on the joining edge color; a
                # parent of another degree fails its own check
                if parent.degree == deg and parent(v[-1]) != p(v[-1]):
                    raise PortraitError(f"edge compatibility fails at core edge into {v!r}")
                kids[v[:-1]] += 1
        rules: dict[Vertex, dict[int, Perm]] = {}
        for (u, c), f in (branches or {}).items():
            u, c = check_vertex(u), int(c)
            if f.degree != deg:
                raise _domain_error(f, deg)
            sigma = core.get(u)
            if sigma is None or (u and c == u[-1]) or u + (c,) in core:
                raise PortraitError(f"branch rule at non-frontier edge ({u!r}, {c})")
            if f(c) != sigma(c):
                raise PortraitError(f"edge compatibility fails at frontier ({u!r}, {c})")
            rules.setdefault(u, {})[c] = f
        # a default agrees with the core at every frontier color it covers
        for u, f in defaults.items():
            if f.degree != deg:
                raise _domain_error(f, deg)
            if u not in core:
                raise PortraitError(f"default at non-core vertex {u!r}")
            bad = perm_disagreement(f, core[u])
            if bad is None:
                raise PortraitError(f"default at {u!r} disagrees with the core cofinitely")
            listed = rules.get(u, ())
            bad = sorted(c for c in bad
                         if (not u or c != u[-1]) and u + (c,) not in core and c not in listed)
            if bad:
                raise PortraitError(f"default at {u!r} breaks compatibility at colors {bad}")
        if len(core) > 1:
            _absorb_leaves(core, rules, defaults, kids, deg)
        # every frontier edge has a rule, and each vertex keeps its canonical
        # default and the rules that differ from it
        self.core, self.branches, self.defaults = core, {}, {}
        for u in core:
            own, f = rules.get(u, {}), defaults.get(u)
            exc = {c: r for c, r in own.items() if r != f}
            if deg is None:
                if f is None:
                    raise PortraitError(f"core vertex {u!r} lacks a default branch constant")
            elif f is None or 2 * len(exc) >= deg - kids[u] - bool(u):
                # f is no strict majority of u's deg - kids[u] - bool(u)
                # frontier rules, so they are counted
                frontier = {c: own.get(c, f) for c in range(deg)
                            if (not u or c != u[-1]) and u + (c,) not in core}
                missing = [c for c, r in frontier.items() if r is None]
                if missing:
                    raise PortraitError(f"frontier edges without rules at {u!r}: {missing}")
                counts = Counter(frontier.values())
                f = max(counts, key=counts.__getitem__, default=None)
                exc = {c: r for c, r in frontier.items() if r != f}
            if f is not None:
                self.defaults[u] = f
            self.branches.update(((u, c), r) for c, r in exc.items())
        self._inv = self._key = None
        self._cut = max(map(len, (self.base, *core)))

    # -- structure helpers ---------------------------------------------------

    def frontier_colors(self, u: Vertex) -> list[int]:
        """Frontier colors at a core vertex (finite degree only)."""
        if self.deg is None:
            raise PortraitError("frontier is infinite over integer colors")
        return [c for c in range(self.deg) if self.is_frontier_color(u, c)]

    def is_frontier_color(self, u: Vertex, c: int) -> bool:
        return (not u or c != u[-1]) and u + (c,) not in self.core

    def _constant(self) -> Perm | None:
        """f if the portrait is the constant f (core {V0}, no exceptions), else None."""
        return self.core[V0] if len(self.core) == 1 and not self.branches else None

    def frontier_rule(self, u: Vertex, c: int) -> Perm:
        if not self.is_frontier_color(u, c):
            raise PortraitError(f"({u}, {c}) is not a frontier edge")
        f = self.branches.get((u, c))
        return self.defaults[u] if f is None else f

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

    def end_image(self, end: End) -> End:
        """The image of the end prefix + period^oo; both ends are canonical
        (prefix, period) pairs, as `periodic_end` returns them.  The ray is cut after whole
        periods at `_cut` letters or more and evaluated one period further.
        That period lies past the core, so the constant f of the end's branch
        maps it (the core agrees with f on the edge into the branch), and
        past len(base) letters, after which the image ray, a geodesic from
        g(v0), stops nearing v0 and cancels nothing.  So the image end is
        g(cut ray) + f(period)^oo; f is a bijection, so f(period) is
        primitive, and only the trim to the shortest prefix is left."""
        prefix, period = end
        n = len(period)
        image = self.evaluate(prefix + period * -((self._cut - len(prefix)) // -n) + period)
        return trim_end(image[:-n], image[-n:])

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
        constant of the branch it was in as its default.  As in a stored
        element, a finite default is kept only where it covers a frontier
        color.  An element built from them absorbs the padding again.  This
        is the one padded form: products, inverses and
        `dynamics.fixes_half_tree_pointwise` read it."""
        target = prefix_closure(set(self.core) | {tuple(v) for v in verts})
        core = {v: self.local_action(v) for v in target}
        defaults = {u: core[u] for u in target if u not in self.core}
        defaults.update(self.defaults)
        branches = {(u, c): f for (u, c), f in self.branches.items() if u + (c,) not in target}
        if self.deg is not None:
            # a default stays only where a frontier color is neither a core
            # child, nor the parent, nor listed
            taken = Counter(v[:-1] for v in target if v) + Counter(u for u, _ in branches)
            defaults = {u: f for u, f in defaults.items() if taken[u] + bool(u) < self.deg}
        return core, branches, defaults

    def canonical(self) -> "TreeAut":
        """The canonical (minimal-core) form, which every element already is."""
        return self

    # -- group operations -----------------------------------------------------

    def __mul__(self, other: "TreeAut") -> "TreeAut":
        """Composition (g * h)(v) = g(h(v)), in canonical form, by the cocycle
        rule sigma(g h, n) = sigma(g, h(n)) * sigma(h, n).  h is padded to a
        core S holding h^-1 of g's core and g to h(S), which is connected and
        holds v0, so it is g's padded core; h maps each frontier edge (u, c)
        of S and its branch onto the edge (h(u), sigma(h, u)(c)) of h(S) and
        its branch.  So the padded maps compose vertex by vertex: the
        defaults' product, except at each color either factor lists (h's at
        u, g's at h(u) pulled back through sigma(h, u)).  A product with the
        identity is the other factor itself, which keeps its cached key and
        inverse; constants f, f' give the constant f * f' moving v0 to g(h(v0)).
        """
        g, h = self, other
        if g.deg != h.deg:
            raise PortraitError("cannot compose automorphisms of different trees")
        if h.is_identity():
            return g
        if g.is_identity():
            return h
        if (f := g._constant()) is not None and (f_h := h._constant()) is not None:
            return TreeAut.from_constant(f * f_h, g.evaluate(h.base))
        core_h, branches_h, defaults_h = h.extended(h.preimage(u) for u in g.core)
        img = {u: h.evaluate(u) for u in core_h}
        core_g, branches_g, defaults_g = g.extended(img.values())
        pre = {x: u for u, x in img.items()}
        # the frontier edges of S at which either factor lists a rule
        listed = set(branches_h) | {(pre[x], core_h[pre[x]].inv()(c)) for x, c in branches_g}
        core = {u: core_g[x] * core_h[u] for u, x in img.items()}
        branches = {(u, c): branches_g.get((img[u], core_h[u](c)), defaults_g.get(img[u]))
                    * branches_h.get((u, c), defaults_h.get(u)) for u, c in listed}
        defaults = {u: defaults_g[img[u]] * f
                    for u, f in defaults_h.items() if img[u] in defaults_g}
        return TreeAut(g.evaluate(h.base), core, branches, defaults)

    def inverse(self) -> "TreeAut":
        """The inverse automorphism: sigma(g^-1, g(v)) = sigma(g, v)^-1.
        Computed once; the inverse keeps this element as its own inverse.  A
        constant f inverts to the constant f^-1 moving v0 to g^-1(v0); else g
        is padded to a core S holding g^-1(v0), so g(S) holds v0, and each
        rule at (u, c) inverts to one at (g(u), sigma(g, u)(c))."""
        if self._inv is None:
            base = self.preimage(V0)
            if (f := self._constant()) is not None:
                self._inv = TreeAut.from_constant(f.inv(), base)
            else:
                core, branches, defaults = self.extended([base])
                images = {u: self.evaluate(u) for u in core}
                inv_core = {images[u]: sigma.inv() for u, sigma in core.items()}
                inv_branches = {(images[u], core[u](c)): f.inv() for (u, c), f in branches.items()}
                inv_defaults = {images[u]: f.inv() for u, f in defaults.items()}
                self._inv = TreeAut(base, inv_core, inv_branches, inv_defaults)
            self._inv._inv = self
        return self._inv

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


class GroupClass(Record):
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
    covers every such element exactly once (by its canonical key).
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


def end_image_prefix(g: TreeAut, end: End, depth: int) -> Vertex:
    """The first `depth` letters of the ray of g applied to the end."""
    return image_prefix(g, ray_prefix(end, depth + len(g.base)), depth)


# -- serialization -------------------------------------------------------------


def perm_to_data(p: Perm):
    if p.table is not None:
        return list(p.table)
    return {"shift": p.shift, "patch": [[x, y] for x, y in sorted(p.patch.items())]}


def require_key(spec, key: str, what: str):
    """spec[key]; a missing key is bad input (ValueError), not a KeyError."""
    if not isinstance(spec, dict) or key not in spec:
        raise ValueError(f"{what} must be an object with the key {key!r}")
    return spec[key]


def decode_json(text: str, what: str):
    """The JSON value in `text`.  Text nested too deeply for the decoder is
    bad input, a ValueError naming `what`, not a RecursionError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{what} is nested too deeply to decode") from None


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
        return Perm(_json_list(data, int, "permutation table"))
    shift, patch = (require_key(data, k, "integer-color permutation") for k in ("shift", "patch"))
    pairs = (_json_list(pair, int, "patch pair") for pair in _json_list(patch, list, "patch", 2))
    return Perm(shift=json_typed(shift, int, "permutation shift"), patch=_unique_map(pairs, "patch"))


def aut_to_data(g: TreeAut) -> dict:
    """The element as JSON data.  At a finite degree every frontier rule is
    listed and no defaults are written; over the integers the defaults and
    the rules that differ from them are."""
    if g.deg is None:
        branches = g.branches.items()
    else:
        branches = (((u, c), g.frontier_rule(u, c)) for u in g.core for c in g.frontier_colors(u))
    out = {
        "degree": g.deg,
        "base": list(g.base),
        "core": sorted([list(v), perm_to_data(p)] for v, p in g.core.items()),
        "branches": sorted([list(u), col, perm_to_data(f)] for (u, col), f in branches),
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
