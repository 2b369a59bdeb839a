"""Permutation groups on the color set, with the predicates the tree
constructions need: free actions, orbit preservation, point stabilizers, and
the wreath-product realization Gamma^(A) <= Gamma wr A acting on the cosets
of A.

Two flavors of permutation are supported: finite lookup tables on
{0, ..., d-1}, and integer permutations in the normal form
x -> shift + patch(x) where the patch is a finitary bijection of Z.
Amenability is never decided: each group carries a free-text
`amenability_reason`, computed from its family (and, for a finite group, its
order) and propagated into certificates.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable

# The largest color set and finite group the constructors build.  Every
# finite group is the closure of a few generators (Sym(d) of (0 1) and
# (0 1 ... d-1), Alt(d) of the 3-cycles (0 1 k)), computed once at about
# |G| x (number of generators used) products: on a 2-core Xeon with Python
# 3.11, Sym(6) (order 720) takes 0.006 s and the wreath pair on 64 colors
# 0.035 s.
# The caps run first, from the degree and order alone; a wreath pair's degree
# is checked before its multiplication tables, whose validation is cubic in
# their order.
MAX_DEGREE = 64
MAX_ORDER = 720

# why each integer family is amenable; a finite group's reason is its order
_FAMILY_REASONS = {"z_translations": "infinite cyclic", "z_finitary": "locally finite ⋊ Z",
                  "z_stabilizer": "(locally finite)-by-Z"}


class NotASubgroupError(ValueError):
    """Containment F <= F' failed where an operation requires it."""


class Perm:
    """A bijection of the color set.

    With a table it is finite: `table[c]` is the image of c on {0..d-1}, and
    `degree` is the table's length.  Without, it is the integer permutation
    x -> shift + patch.get(x, x) of degree None; the patch is a dict holding
    a finitary bijection without fixed points, which makes the pair
    (shift, patch) a unique normal form, so equality is structural.  A
    finite permutation has shift 0 and the empty patch ().
    """

    __slots__ = ("degree", "table", "shift", "patch")

    def __init__(self, table=None, shift=0, patch=()):
        if table is not None:
            self.table = tuple(table)
            self.degree = d = len(self.table)
            if sorted(self.table) != list(range(d)):
                raise ValueError(f"not a bijection of range({d}): {table!r}")
            self.shift = 0
            self.patch = ()
        else:
            self.degree = None
            self.table = None
            self.shift = int(shift)
            self.patch = {int(x): int(y) for x, y in dict(patch).items() if int(x) != int(y)}
            if sorted(self.patch.values()) != sorted(self.patch):
                raise ValueError(f"patch is not a finitary bijection: {patch!r}")

    # -- constructors ------------------------------------------------------

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

    # -- group operations --------------------------------------------------

    def __call__(self, c: int) -> int:
        if self.table is not None:
            return self.table[c]
        return self.shift + self.patch.get(c, c)

    def __mul__(self, other: "Perm") -> "Perm":
        """Composition: (p * q)(c) = p(q(c))."""
        if self.degree != other.degree:
            raise ValueError("permutation domains mismatch")
        if self.table is not None:
            return Perm([self.table[x] for x in other.table])
        # (s1,f1)(s2,f2): x -> s1 + f1(s2 + f2(x)); renormalize the finitary
        # part by conjugating through s2 so the result is again (shift, patch).
        f1, f2 = self.patch, other.patch
        s2 = other.shift
        keys = set(f2) | {y - s2 for y in f1}
        patch = {}
        for x in keys:
            t = s2 + f2.get(x, x)
            patch[x] = f1.get(t, t) - s2
        return Perm(shift=self.shift + s2, patch=patch)

    def inv(self) -> "Perm":
        if self.table is not None:
            table = [0] * len(self.table)
            for i, j in enumerate(self.table):
                table[j] = i
            return Perm(table)
        s = self.shift
        patch = {y + s: x + s for x, y in self.patch.items()}
        return Perm(shift=-s, patch=patch)

    def is_identity(self) -> bool:
        if self.table is not None:
            return all(self.table[i] == i for i in range(len(self.table)))
        return self.shift == 0 and not self.patch

    def key(self):
        if self.table is not None:
            return ("f", self.table)
        return ("z", self.shift, tuple(sorted(self.patch.items())))

    def __eq__(self, other) -> bool:
        # the fields that `key` holds, compared without building it
        return (isinstance(other, Perm) and self.table == other.table
                and self.shift == other.shift and self.patch == other.patch)

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        if self.table is None:
            if self.is_identity():
                return "Perm(z:id)"
            if self.patch:
                return f"Perm(z:+{self.shift},{dict(sorted(self.patch.items()))})"
            return f"Perm(z:+{self.shift})"
        moved = [c for c, x in enumerate(self.table) if x != c]
        if not moved:
            return "Perm(id)"
        cycles = []
        seen = set()
        for c in moved:
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
    if p.table is not None:
        return {c for c in range(len(p.table)) if p.table[c] != q.table[c]}
    if p.shift != q.shift:
        return None
    keys = set(p.patch) | set(q.patch)
    return {x for x in keys if p(x) != q(x)}


def _check_degree(degree: int) -> None:
    if degree < 1:
        raise ValueError(f"color-set degree must be at least 1, got {degree}")
    if degree > MAX_DEGREE:
        raise ValueError(f"color-set degree must be at most {MAX_DEGREE}, got {degree}")


def _check_order(order: int) -> None:
    if order > MAX_ORDER:
        raise ValueError(f"group order must be at most {MAX_ORDER}, got {order}")


def mulclose(gens: Iterable[Perm]) -> list[Perm]:
    """Close a finite generating set under composition, one generator at a
    time, skipping those already in the closure H so far: H is closed under
    the earlier ones, so a new g starts from g H and at least doubles the
    order.  A ValueError as soon as the closure passes MAX_ORDER elements."""
    used, els = [], {}
    for g in gens:
        if g.key() in els:
            continue
        used.append(g)
        candidates = [g * h for h in els.values()] or [g]
        while candidates:
            frontier = []
            for c in candidates:
                if c.key() not in els:
                    els[c.key()] = c
                    frontier.append(c)
                    if len(els) > MAX_ORDER:
                        raise ValueError(f"group order must be at most {MAX_ORDER}, "
                                         f"got at least {len(els)}")
            candidates = [a * b for a in used for b in frontier]
    return sorted(els.values(), key=Perm.key)


class PermGroup:
    """A permutation group on the color set, given as one of a few families.

    kind "finite": the closure of generators of one finite degree (checked
    on the generators), computed once by `mulclose`, which stops past
    MAX_ORDER, and sorted by `Perm.key`; the constructor says why it needs no
    closure check.  kind "z_translations": all integer shifts.  kind
    "z_finitary": finitary permutations composed with shifts, i.e. all normal
    forms (shift, patch).  kind "z_stabilizer": the members of z_finitary
    fixing a designated point -- a described family, not enumerable.
    """

    __slots__ = ("kind", "elements", "degree", "point", "amenability_reason")

    def __init__(self, kind, gens=None, point=None):
        self.kind = kind
        self.point = point
        if kind == "finite":
            gens = list(gens)
            if not gens:
                raise ValueError("empty element list")
            d = gens[0].degree
            if d is None or any(p.degree != d for p in gens):
                raise ValueError("finite groups need a common finite degree")
            _check_degree(d)
            # a set that holds the generators, is closed under left multiplication
            # by each, and whose members are all products of them is closed under
            # composition, so it also holds the identity and every inverse (powers)
            self.elements = tuple(mulclose(gens))
            self.degree = d
            n = len(self.elements)
            self.amenability_reason = "trivial" if n == 1 else f"finite (order {n})"
        elif kind in _FAMILY_REASONS:
            if kind == "z_stabilizer" and point is None:
                raise ValueError("stabilizer family needs its point")
            self.elements = None
            self.degree = None
            self.amenability_reason = _FAMILY_REASONS[kind]
        else:
            raise ValueError(f"unknown kind {kind!r}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def generated(gens: Iterable[Perm]) -> "PermGroup":
        return PermGroup("finite", gens)

    @staticmethod
    def trivial(degree: int) -> "PermGroup":
        _check_degree(degree)
        return PermGroup.generated([Perm.identity(degree)])

    @staticmethod
    def symmetric(degree: int) -> "PermGroup":
        """The closure of (0 1) and (0 1 ... d-1)."""
        _check_degree(degree)  # first, so that d! stays cheap to compute
        _check_order(math.prod(range(2, degree + 1)))
        return PermGroup.generated([Perm.from_cycles(degree, range(min(degree, 2))),
                                    Perm.from_cycles(degree, range(degree))])

    @staticmethod
    def alternating(degree: int) -> "PermGroup":
        """The closure of the 3-cycles (0 1 k); the identity alone for d <= 2."""
        _check_degree(degree)
        _check_order(math.prod(range(3, degree + 1)))
        return PermGroup.generated([Perm.identity(degree)] + [
            Perm.from_cycles(degree, (0, 1, k)) for k in range(2, degree)])

    @staticmethod
    def cyclic(degree: int) -> "PermGroup":
        """The group generated by the full cycle (0 1 ... d-1); acts freely."""
        _check_degree(degree)
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
            return p.degree == self.degree and p in self.elements
        if p.table is not None:
            return False
        if self.kind == "z_translations":
            return not p.patch
        if self.kind == "z_stabilizer":
            return p(self.point) == self.point
        return True

    def sample_nontrivial(self) -> Perm | None:
        """A deterministic nontrivial member, or None for the trivial group."""
        if self.kind == "finite":
            for p in self.elements:
                if not p.is_identity():
                    return p
            return None
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
        return PermGroup.generated([p for p in Fp.elements if p(a) == a])
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


def check_wreath_degree(ng: int, na: int) -> None:
    """Check the degree ng^na of Gamma wr A on ng^na points from the two
    orders alone.  With more than 64 coordinates and two elements of Gamma,
    or more than 64 elements of Gamma and two coordinates, the degree is
    above the cap and may have too many digits to print, so it is named as a
    power."""
    if (na > MAX_DEGREE and ng > 1) or (ng > MAX_DEGREE and na > 1):
        raise ValueError(f"color-set degree must be at most {MAX_DEGREE}, got {ng}^{na}")
    _check_degree(ng ** na)


def wreath_embedding(gamma_table, a_table):
    """Realize F = Gamma^(A) inside F' = Gamma wr A acting on the cosets of A.

    The point set is the functions A -> Gamma (coset representatives), indexed
    in lexicographic order.  F is the base group acting by pointwise left
    multiplication; F' adds the A-shift of coordinates.  Returns
    (F, F', points, embed) where embed maps each Gamma element to the
    permutation given by the function supported at the identity coordinate.

    F is the closure of the functions supported at one coordinate, F' of
    those and the A-shifts.  Construction-time guarantees, each checked once:
    F' acts faithfully (F and F' have the orders of Gamma^(A) and Gamma wr A,
    whose images they are), F acts freely (on every element) and transitively
    (the orbit of x0, the constant identity function), and every point
    stabilizer in F' is a conjugate of the shift copy of A (equal at x0).
    """
    if not isinstance(gamma_table, list) or not isinstance(a_table, list):
        raise ValueError("group table must be a list of lists of JSON integers")
    # before the cubic table checks; at most 64 points bound |A| by 6, so
    # the order |Gamma|^|A| |A| of F' by 384
    check_wreath_degree(len(gamma_table), len(a_table))
    gt, ge, _ = check_group_table(gamma_table)
    if len(gt) < 2:  # before a's cubic check: one row caps nothing, as 1^|A| = 1
        raise ValueError("trivial Gamma: faithfulness of the wreath action fails")
    at, ae, a_inv = check_group_table(a_table)
    ng, na = len(gt), len(at)
    if na < 2:
        raise ValueError("trivial A: the construction needs a nontrivial shift group")

    points = list(itertools.product(range(ng), repeat=na))
    index = {x: i for i, x in enumerate(points)}

    def act(f, alpha, x):
        # (f, alpha) . x = f * (alpha-shifted x), shifted by t -> x(alpha^-1 t)
        return tuple(gt[f[t]][x[at[a_inv[alpha]][t]]] for t in range(na))

    def as_perm(f, alpha) -> Perm:
        return Perm([index[act(f, alpha, x)] for x in points])

    def delta(s: int, g: int):
        return tuple(g if t == s else ge for t in range(na))

    ident = (ge,) * na
    base = [as_perm(delta(s, g), ae) for s in range(na) for g in range(ng) if g != ge]
    shifts = [as_perm(ident, alpha) for alpha in range(na)]
    F = PermGroup.generated(base)
    Fp = PermGroup.generated(base + shifts)
    embed = {g: as_perm(delta(ae, g), ae) for g in range(ng)}

    # a group keeps one copy of each distinct permutation, so the action is
    # faithful iff the closures are as large as Gamma^(A) and Gamma wr A
    if len(F.elements) != ng ** na or len(Fp.elements) != ng ** na * na:
        raise AssertionError("wreath action is not faithful")
    if not check_freeness(F):
        raise AssertionError("base group does not act freely")
    x0 = index[ident]
    if {p(x0) for p in F.elements} != set(range(len(points))):
        raise AssertionError("base group is not transitive")
    # Stab(g.x0) = g Stab(x0) g^-1 and F is transitive, so x0 decides every point
    if {p for p in Fp.elements if p(x0) == x0} != set(shifts):
        raise AssertionError("a point stabilizer is not a conjugate of A")

    return F, Fp, points, embed
