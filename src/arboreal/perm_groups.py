"""Permutation groups on the color set, with the predicates the tree
constructions need: free actions, orbit preservation, point stabilizers, and
the wreath-product realization Gamma^(A) <= Gamma wr A acting on the cosets
of A.

Two flavors of permutation are supported: finite lookup tables on
{0, ..., d-1}, and integer permutations in the normal form
x -> shift + patch(x) where the patch is a finitary bijection of Z.
Amenability is never decided; group families carry a free-text
`amenability_reason` annotation that is propagated into certificates.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable


class NotASubgroupError(ValueError):
    """Containment F <= F' failed where an operation requires it."""


class Perm:
    """A bijection of the color set.

    With a table it is finite: `table[c]` is the image of c on {0..d-1}.
    Without, it is the integer permutation x -> shift + patch.get(x, x); the
    patch is a finitary bijection stored without fixed points, which makes
    the pair (shift, patch) a unique normal form, so equality is structural.
    `kind` is derived: "f" with a table, "z" without.
    """

    __slots__ = ("kind", "table", "shift", "patch", "_pmap")

    def __init__(self, table=None, shift=0, patch=()):
        if table is not None:
            self.kind = "f"
            self.table = tuple(table)
            d = len(self.table)
            if sorted(self.table) != list(range(d)):
                raise ValueError(f"not a bijection of range({d}): {table!r}")
            self.shift = 0
            self.patch = ()
            self._pmap = None
        else:
            self.kind = "z"
            self.table = None
            self.shift = int(shift)
            items = {int(x): int(y) for x, y in dict(patch).items() if int(x) != int(y)}
            if sorted(items.values()) != sorted(items):
                raise ValueError(f"patch is not a finitary bijection: {patch!r}")
            self.patch = tuple(sorted(items.items()))
            self._pmap = dict(items)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_table(table: Iterable[int]) -> "Perm":
        return Perm(table)

    @staticmethod
    def identity(degree: int | None) -> "Perm":
        if degree is None:
            return Perm()
        return Perm(range(degree))

    @staticmethod
    def from_cycles(degree: int, *cycles: Iterable[int]) -> "Perm":
        table = list(range(degree))
        for cyc in cycles:
            cyc = list(cyc)
            for i, c in enumerate(cyc):
                table[c] = cyc[(i + 1) % len(cyc)]
        return Perm(table)

    @staticmethod
    def z_translation(shift: int) -> "Perm":
        return Perm(shift=shift)

    @staticmethod
    def z_swap(p: int, q: int) -> "Perm":
        return Perm(patch={p: q, q: p})

    @staticmethod
    def z_affine(shift: int, patch) -> "Perm":
        return Perm(shift=shift, patch=patch)

    # -- group operations --------------------------------------------------

    @property
    def degree(self) -> int | None:
        return None if self.kind == "z" else len(self.table)

    def __call__(self, c: int) -> int:
        if self.kind == "f":
            return self.table[c]
        return self.shift + self._pmap.get(c, c)

    def __mul__(self, other: "Perm") -> "Perm":
        """Composition: (p * q)(c) = p(q(c))."""
        if self.kind != other.kind or self.degree != other.degree:
            raise ValueError("permutation domains mismatch")
        if self.kind == "f":
            return Perm([self.table[x] for x in other.table])
        # (s1,f1)(s2,f2): x -> s1 + f1(s2 + f2(x)); renormalize the finitary
        # part by conjugating through s2 so the result is again (shift, patch).
        f1 = dict(self.patch)
        f2 = dict(other.patch)
        s2 = other.shift
        keys = set(f2) | {y - s2 for y in f1}
        patch = {}
        for x in keys:
            t = s2 + f2.get(x, x)
            patch[x] = f1.get(t, t) - s2
        return Perm(shift=self.shift + s2, patch=patch)

    def inv(self) -> "Perm":
        if self.kind == "f":
            table = [0] * len(self.table)
            for i, j in enumerate(self.table):
                table[j] = i
            return Perm(table)
        s = self.shift
        patch = {y + s: x + s for x, y in self.patch}
        return Perm(shift=-s, patch=patch)

    def is_identity(self) -> bool:
        if self.kind == "f":
            return all(self.table[i] == i for i in range(len(self.table)))
        return self.shift == 0 and not self.patch

    def moved_colors(self) -> set[int] | None:
        """The finite set of moved colors, or None when cofinitely many move."""
        if self.kind == "f":
            return {c for c in range(len(self.table)) if self.table[c] != c}
        if self.shift != 0:
            return None
        return {x for x, _ in self.patch}

    def key(self):
        if self.kind == "f":
            return ("f", self.table)
        return ("z", self.shift, self.patch)

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        if self.kind == "z":
            if self.is_identity():
                return "Perm(z:id)"
            return f"Perm(z:+{self.shift},{dict(self.patch)})" if self.patch else f"Perm(z:+{self.shift})"
        moved = self.moved_colors()
        if not moved:
            return "Perm(id)"
        cycles = []
        seen = set()
        for c in sorted(moved):
            if c in seen:
                continue
            cyc = [c]
            seen.add(c)
            x = self.table[c]
            while x != c:
                cyc.append(x)
                seen.add(x)
                x = self.table[x]
            cycles.append("(" + " ".join(map(str, cyc)) + ")")
        return "Perm" + "".join(cycles)


def perm_disagreement(p: Perm, q: Perm) -> set[int] | None:
    """Colors where p and q differ; None when they differ cofinitely often."""
    if p.kind == "f":
        return {c for c in range(len(p.table)) if p.table[c] != q.table[c]}
    if p.shift != q.shift:
        return None
    keys = {x for x, _ in p.patch} | {x for x, _ in q.patch}
    return {x for x in keys if p(x) != q(x)}


def mulclose(gens: Iterable[Perm]) -> list[Perm]:
    """Close a finite generating set under composition."""
    gens = list(gens)
    els = {g.key(): g for g in gens}
    frontier = list(gens)
    while frontier:
        new = []
        for a in gens:
            for b in frontier:
                c = a * b
                if c.key() not in els:
                    els[c.key()] = c
                    new.append(c)
        frontier = new
    return sorted(els.values(), key=Perm.key)


class PermGroup:
    """A permutation group on the color set, given as one of a few families.

    kind "finite": the full element list (validated closed, with identity and
    inverses).  kind "z_translations": all integer shifts.  kind "z_finitary":
    finitary permutations composed with shifts, i.e. all normal forms
    (shift, patch).  kind "z_stabilizer": the members of z_finitary fixing a
    designated point -- a described family, not enumerable.
    """

    __slots__ = ("kind", "elements", "degree", "point", "amenability_reason")

    def __init__(self, kind, elements=None, point=None, amenability_reason=None):
        self.kind = kind
        self.point = point
        if kind == "finite":
            els = sorted({p.key(): p for p in elements}.values(), key=Perm.key)
            if not els:
                raise ValueError("empty element list")
            d = els[0].degree
            if d is None or any(p.degree != d for p in els):
                raise ValueError("finite groups need a common finite degree")
            tables = {p.table for p in els}
            if tuple(range(d)) not in tables:
                raise ValueError("identity missing")
            for p in els:
                if p.inv().table not in tables:
                    raise ValueError(f"inverse of {p} missing")
                for q in els:
                    if tuple(map(p.table.__getitem__, q.table)) not in tables:
                        raise ValueError(f"product {p}*{q} escapes the list")
            self.elements = tuple(els)
            self.degree = d
            self.amenability_reason = amenability_reason or f"finite (order {len(els)})"
        elif kind in ("z_translations", "z_finitary", "z_stabilizer"):
            self.elements = None
            self.degree = None
            if kind == "z_translations":
                self.amenability_reason = amenability_reason or "infinite cyclic"
            elif kind == "z_finitary":
                self.amenability_reason = amenability_reason or "locally finite ⋊ Z"
            else:
                if point is None:
                    raise ValueError("stabilizer family needs its point")
                self.amenability_reason = amenability_reason or "(locally finite)-by-Z"
        else:
            raise ValueError(f"unknown kind {kind!r}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_elements(elements: Iterable[Perm], reason=None) -> "PermGroup":
        return PermGroup("finite", elements=elements, amenability_reason=reason)

    @staticmethod
    def generated(gens: Iterable[Perm]) -> "PermGroup":
        return PermGroup("finite", elements=mulclose(list(gens)))

    @staticmethod
    def trivial(degree: int) -> "PermGroup":
        return PermGroup.from_elements([Perm.identity(degree)], reason="trivial")

    @staticmethod
    def symmetric(degree: int) -> "PermGroup":
        els = [Perm.from_table(t) for t in itertools.permutations(range(degree))]
        return PermGroup.from_elements(els)

    @staticmethod
    def alternating(degree: int) -> "PermGroup":
        els = []
        for t in itertools.permutations(range(degree)):
            inv = sum(1 for i in range(degree) for j in range(i + 1, degree) if t[i] > t[j])
            if inv % 2 == 0:
                els.append(Perm.from_table(t))
        return PermGroup.from_elements(els)

    @staticmethod
    def cyclic(degree: int) -> "PermGroup":
        """The group generated by the full cycle (0 1 ... d-1); acts freely."""
        return PermGroup.generated([Perm.from_cycles(degree, range(degree))])

    @staticmethod
    def z_translations() -> "PermGroup":
        return PermGroup("z_translations")

    @staticmethod
    def z_finitary_affine() -> "PermGroup":
        return PermGroup("z_finitary")

    # -- membership and structure ------------------------------------------

    def contains(self, p: Perm) -> bool:
        if self.kind == "finite":
            return p.kind == "f" and p.degree == self.degree and p in self.elements
        if p.kind != "z":
            return False
        if self.kind == "z_translations":
            return not p.patch
        if self.kind == "z_stabilizer":
            return p(self.point) == self.point
        return True

    def is_trivial(self) -> bool:
        if self.kind == "finite":
            return len(self.elements) == 1
        return False

    def sample_nontrivial(self) -> Perm | None:
        """A deterministic nontrivial member, or None for the trivial group."""
        if self.kind == "finite":
            for p in self.elements:
                if not p.is_identity():
                    return p
            return None
        if self.kind == "z_translations":
            return Perm.z_translation(1)
        if self.kind == "z_stabilizer":
            a = self.point
            return Perm.z_swap(a + 1, a + 2)
        return Perm.z_translation(1)

    def contains_group(self, other: "PermGroup") -> bool:
        if other.kind == "finite":
            return self.kind == "finite" and self.degree == other.degree and all(
                self.contains(p) for p in other.elements
            )
        if other.kind == "z_translations":
            return self.kind in ("z_translations", "z_finitary")
        if other.kind == "z_finitary":
            return self.kind == "z_finitary"
        return False

    def describe(self) -> dict:
        if self.kind == "finite":
            return {
                "kind": "finite",
                "degree": self.degree,
                "perms": [list(p.table) for p in self.elements],
                "amenability_reason": self.amenability_reason,
            }
        out = {"kind": self.kind, "amenability_reason": self.amenability_reason}
        if self.point is not None:
            out["point"] = self.point
        return out

    def __repr__(self) -> str:
        if self.kind == "finite":
            return f"PermGroup(finite, order {len(self.elements)}, degree {self.degree})"
        return f"PermGroup({self.kind})"


def check_freeness(F: PermGroup) -> bool:
    """True iff no non-identity element of F fixes a point of the color set."""
    if F.kind == "finite":
        return all(
            p.is_identity() or not any(p(c) == c for c in range(F.degree))
            for p in F.elements
        )
    if F.kind == "z_translations":
        return True
    return False  # finitary parts fix cofinitely many points


def orbits(F: PermGroup) -> list[frozenset[int]]:
    if F.kind != "finite":
        raise ValueError("orbit listing needs a finite group")
    seen: set[int] = set()
    out = []
    for c in range(F.degree):
        if c in seen:
            continue
        orb = {p(c) for p in F.elements}
        seen |= orb
        out.append(frozenset(orb))
    return out


def check_orbit_preservation(F: PermGroup, Fp: PermGroup) -> bool:
    """True iff every element of Fp maps each F-orbit into itself.

    Raises NotASubgroupError when F is not contained in Fp, which is a
    distinct failure from returning False.
    """
    if not Fp.contains_group(F):
        raise NotASubgroupError(f"{F!r} is not contained in {Fp!r}")
    if Fp.kind != "finite":
        return True  # single orbit Z in both integer families
    return all(
        frozenset(p(c) for c in orb) == orb for orb in orbits(F) for p in Fp.elements
    )


def point_stabilizer(Fp: PermGroup, a: int) -> PermGroup:
    """The subgroup of Fp fixing the color a."""
    if Fp.kind == "finite":
        els = [p for p in Fp.elements if p(a) == a]
        reason = "trivial" if len(els) == 1 else f"finite (order {len(els)})"
        return PermGroup.from_elements(els, reason=reason)
    if Fp.kind == "z_finitary":
        return PermGroup("z_stabilizer", point=a)
    raise ValueError(f"point stabilizer unsupported for kind {Fp.kind!r}")


# -- finite group tables and the wreath construction -----------------------


def check_group_table(table) -> tuple[tuple[tuple[int, ...], ...], int, list[int]]:
    """Validate a multiplication table (indices, row i * column j) and return
    it with its identity and the list of inverses.

    Requires a nonempty square list of lists of JSON integers with a
    two-sided identity, inverses and associativity; the identity may sit at
    any index.
    """
    if not isinstance(table, list) or not all(isinstance(row, list) for row in table):
        raise ValueError("group table must be a list of lists of JSON integers")
    t = tuple(tuple(row) for row in table)
    n = len(t)
    if n == 0 or any(len(row) != n for row in t):
        raise ValueError("table must be square and nonempty")
    if any(type(x) is not int or x not in range(n) for row in t for x in row):
        raise ValueError("table entries must be integers indexing elements")
    ids = [e for e in range(n) if all(t[e][x] == x == t[x][e] for x in range(n))]
    if len(ids) != 1:
        raise ValueError("table has no two-sided identity")
    e = ids[0]
    for x in range(n):
        if e not in t[x]:
            raise ValueError(f"element {x} has no inverse")
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if t[t[x][y]][z] != t[x][t[y][z]]:
                    raise ValueError("table is not associative")
    return t, e, [row.index(e) for row in t]


def cyclic_table(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def wreath_embedding(gamma_table, a_table):
    """Realize F = Gamma^(A) inside F' = Gamma wr A acting on the cosets of A.

    The point set is the functions A -> Gamma (coset representatives), indexed
    in lexicographic order.  F is the base group acting by pointwise left
    multiplication; F' adds the A-shift of coordinates.  Returns
    (F, F', points, embed) where embed maps each Gamma element to the
    permutation given by the function supported at the identity coordinate.

    Construction-time guarantees, verified exhaustively: F acts freely and
    transitively, F' acts faithfully, and every point stabilizer in F' is a
    conjugate of the shift copy of A.
    """
    gt, ge, _ = check_group_table(gamma_table)
    at, ae, a_inv = check_group_table(a_table)
    ng, na = len(gt), len(at)
    if ng < 2:
        raise ValueError("trivial Gamma: faithfulness of the wreath action fails")
    if na < 2:
        raise ValueError("trivial A: the construction needs a nontrivial shift group")

    points = list(itertools.product(range(ng), repeat=na))
    index = {x: i for i, x in enumerate(points)}

    def act(f, alpha, x):
        # (f, alpha) . x = f * (alpha-shifted x), shifted by t -> x(alpha^-1 t)
        return tuple(gt[f[t]][x[at[a_inv[alpha]][t]]] for t in range(na))

    def as_perm(f, alpha) -> Perm:
        return Perm.from_table([index[act(f, alpha, x)] for x in points])

    base = list(itertools.product(range(ng), repeat=na))
    F = PermGroup.from_elements([as_perm(f, ae) for f in base])
    Fp = PermGroup.from_elements([as_perm(f, alpha) for f in base for alpha in range(na)])

    def delta(g: int):
        return tuple(g if t == ge else ge for t in range(na))

    embed = {g: as_perm(delta(g), ae) for g in range(ng)}

    npts = len(points)
    # a group keeps one copy of each distinct permutation, so the action is
    # faithful iff the pairs (f, alpha) all give distinct permutations
    if len(F.elements) != ng ** na or len(Fp.elements) != ng ** na * na:
        raise AssertionError("wreath action is not faithful")
    if not check_freeness(F):
        raise AssertionError("base group does not act freely")
    x0 = index[tuple(ge for _ in range(na))]
    if {p(x0) for p in F.elements} != set(range(npts)):
        raise AssertionError("base group is not transitive")
    shift_copy = {as_perm(tuple(ge for _ in range(na)), alpha).key() for alpha in range(na)}
    for x in range(npts):
        stab = {p.key() for p in Fp.elements if p(x) == x}
        g = next(p for p in Fp.elements if p(x0) == x)
        conj = {(g * Perm(k[1]) * g.inv()).key() for k in shift_copy}
        if stab != conj:
            raise AssertionError("a point stabilizer is not a conjugate of A")

    return F, Fp, points, embed
