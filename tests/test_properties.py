"""Property tests of the branch-rule view shared by finite and integer
colors: canonical forms, a default plus exceptions at a finite degree,
serialization, the group laws, vertex evaluation against a letter-by-letter
reference walk, exact end images against image ray prefixes, and one
canonical (prefix, period) pair for every spelling of a periodic ray.

Finite elements are random members of G(Alt(3), Sym(3)) and U(Sym(3)), and
for end images of G(C5, Alt(5)); degree-8 elements of the G(F, F') of the
wreath pair (Z/2)^3 <= Z/2 wr Z/3 are products of one to three random
members and half-tree fixator witnesses, and integer elements are short
products of witnesses and translation constants, so that their portraits
carry defaults and exceptions.  Products of standard generators of U(F), for
F = Alt(3), the degree-8 wreath F, the integer translations and Sym(3) acting
on itself, are constant portraits, which multiply and invert in closed form.
"""

from collections import Counter
from itertools import permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from arboreal.cstar_obstruction import fixator_witness, standard_generators
from arboreal.perm_groups import Perm, PermGroup, cyclic_table, wreath_embedding
from arboreal.portraits import (
    GroupClass,
    TreeAut,
    aut_from_data,
    aut_to_data,
    end_image_prefix,
    random_element,
)
from arboreal.tree_core import (
    V0,
    enumerate_ball,
    half_tree,
    neighbor,
    periodic_end,
    prefix_closure,
    ray_prefix,
)

ALT3 = PermGroup.alternating(3)
SYM3 = PermGroup.symmetric(3)
Z_F, Z_FP = PermGroup.z_translations(), PermGroup.z_finitary_affine()
# degree 8, where most frontier colors of a vertex share one rule
WREATH_F, WREATH_FP = wreath_embedding(cyclic_table(2), cyclic_table(3))[:2]
WREATH_CLASS = GroupClass.prescribed(WREATH_F, WREATH_FP)
WINDOW = range(-2, 3)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


def _random_elements(classes, radii):
    return st.builds(random_element, st.sampled_from(classes), radii, st.integers(0, 10**6))


def _reduced_words(max_len: int, colors=WINDOW):
    return st.lists(st.sampled_from(list(colors)), max_size=max_len).filter(
        lambda w: all(a != b for a, b in zip(w, w[1:]))
    ).map(tuple)


def _product(factors):
    out = factors[0]
    for f in factors[1:]:
        out = out * f
    return out


degree3_elements = _random_elements([GroupClass.prescribed(ALT3, SYM3), GroupClass.universal(SYM3)],
                                    st.integers(0, 2))
# one random draw is mostly a constant (F acts freely, so a vertex whose
# permutation lies in F has one matching rule); products of draws and
# fixator witnesses carry exceptions.  A core radius of 0 gives only constants
degree8_factors = st.one_of(
    _random_elements([WREATH_CLASS], st.integers(1, 2)),
    st.builds(
        lambda tail, color: fixator_witness(WREATH_F, WREATH_FP, half_tree(tail, color)),
        _reduced_words(1, range(8)),
        st.integers(0, 7),
    ),
)
degree8_elements = st.lists(degree8_factors, min_size=1, max_size=3).map(_product)
finite_elements = st.one_of(degree3_elements, degree8_elements)

integer_factors = st.one_of(
    st.builds(
        lambda tail, color: fixator_witness(Z_F, Z_FP, half_tree(tail, color)),
        _reduced_words(2),
        st.sampled_from(list(WINDOW)),
    ),
    st.builds(
        lambda shift, base: TreeAut.from_constant(Perm.z_translation(shift), base),
        st.integers(-2, 2),
        _reduced_words(2),
    ),
)


integer_elements = st.lists(integer_factors, min_size=1, max_size=2).map(_product)
elements = st.one_of(finite_elements, integer_elements)


def _generator_products(F):
    """Products of one to four standard generators of U(F) and their
    inverses: constant portraits, which multiply and invert in closed form."""
    gens = standard_generators(F)
    letters = gens + [g.inverse() for g in gens]
    return st.lists(st.sampled_from(letters), min_size=1, max_size=4).map(_product)


def _left_regular(elements):
    """The group of permutation tables acting on itself by left multiplication."""
    index = {p: i for i, p in enumerate(elements)}
    return PermGroup.generated(
        [Perm([index[tuple(g[x] for x in p)] for p in elements]) for g in elements])


# Sym(3) acting freely on six colors: F is abelian in the other families,
# where a product of constants shows no order of its factors
REGULAR_SYM3 = _left_regular(sorted(permutations(range(3))))
constant_kinds = [_generator_products(F) for F in (ALT3, WREATH_F, Z_F, REGULAR_SYM3)]
# the strategies whose elements act on one tree, so that they compose
same_tree_kinds = [degree3_elements, degree8_elements, integer_elements, *constant_kinds]


def _ball(g, radius=2):
    return enumerate_ball(V0, radius, range(g.deg) if g.deg is not None else WINDOW)


@PROPERTY
@given(elements)
def test_canonical_is_idempotent(g):
    c = g.canonical()
    assert c.canonical() is c
    rebuilt = TreeAut(c.base, c.core, c.branches, c.defaults)
    assert rebuilt.canonical() is rebuilt
    assert rebuilt.key() == c.key()


@PROPERTY
@given(elements)
def test_extended_then_canonical_returns_the_key(g):
    core, branches, defaults = g.extended(_ball(g))
    assert all(core[v] == g.local_action(v) for v in core)
    padded = TreeAut(g.base, core, branches, defaults)
    assert padded.key() == g.key()
    assert all(padded.evaluate(v) == g.evaluate(v) for v in _ball(g, 3))


@PROPERTY
@given(finite_elements, st.integers(0, 2))
def test_finite_frontier_is_stored_as_its_majority_rule_and_exceptions(g, radius):
    for u in g.core:
        frontier = {c: g.local_action(u + (c,)) for c in g.frontier_colors(u)}
        counts = Counter(frontier.values())
        # the rule of the most frontier colors, the smallest color breaking ties
        majority = next((f for f in frontier.values() if counts[f] == max(counts.values())), None)
        assert g.defaults.get(u) == majority
        assert {c for (w, c) in g.branches if w == u} == {
            c for c, f in frontier.items() if f != majority}
    assert all(f != g.defaults[u] for (u, _), f in g.branches.items())
    # the padded maps keep a default only where it covers a frontier color;
    # the full explicit listing of their frontier rebuilds the element, and
    # so does the rule of each vertex's last frontier color as its default
    # with only the rules that differ from it listed
    core, branches, defaults = g.extended(_ball(g, radius))
    full, last = {}, {}
    for u in core:
        cols = [c for c in range(g.deg) if (not u or c != u[-1]) and u + (c,) not in core]
        assert (u in defaults) == any((u, c) not in branches for c in cols)
        full.update(((u, c), g.local_action(u + (c,))) for c in cols)
        if cols:
            last[u] = g.local_action(u + (cols[-1],))
    sparse = {(u, c): f for (u, c), f in full.items() if f != last[u]}
    for h in (TreeAut(g.base, core, full), TreeAut(g.base, core, sparse, last)):
        assert h == g
        assert (h.branches, h.defaults) == (g.branches, g.defaults)
    data = aut_to_data(g)
    assert "defaults" not in data
    assert data["branches"] == sorted(
        [list(u), c, list(g.local_action(u + (c,)).table)]
        for u in g.core for c in g.frontier_colors(u))


def _absorbable_leaves(g):
    """The non-root core leaves whose branch rules and default all equal
    their own permutation."""
    parents = {v[:-1] for v in g.core if v}
    rules = {}
    for (u, _), f in g.branches.items():
        rules.setdefault(u, []).append(f)
    for u, f in g.defaults.items():
        rules.setdefault(u, []).append(f)
    return [
        u for u, sigma in g.core.items()
        if u and u not in parents and all(f == sigma for f in rules.get(u, []))
    ]


@PROPERTY
@given(st.data())
def test_products_and_inverses_are_built_canonical(data):
    kind = data.draw(st.sampled_from(same_tree_kinds))
    g, h = data.draw(kind), data.draw(kind)
    for x in (g * h, g.inverse(), (h * g).inverse()):
        assert x.canonical() is x
        assert _absorbable_leaves(x) == []


@PROPERTY
@given(elements)
def test_serialization_round_trip(g):
    back = aut_from_data(aut_to_data(g))
    assert back == g
    assert aut_to_data(back) == aut_to_data(g)


@PROPERTY
@given(st.data())
def test_group_laws(data):
    kind = data.draw(st.sampled_from(same_tree_kinds))
    g, h, k = data.draw(kind), data.draw(kind), data.draw(kind)
    assert (g * h) * k == g * (h * k)
    assert (g * g.inverse()).is_identity()
    assert (g.inverse() * g).is_identity()
    # the unit law returns the other factor itself, not an equal copy; of
    # two identities, the left one
    e = TreeAut.identity(g.deg)
    assert g * e is g
    assert e * g is (e if g.is_identity() else g)
    gh = g * h
    for v in _ball(g):
        assert g.inverse().evaluate(g.evaluate(v)) == v
        assert gh.evaluate(v) == g.evaluate(h.evaluate(v))
        assert gh.local_action(v) == g.local_action(h.evaluate(v)) * h.local_action(v)


def reference_product(g, h):
    """g * h with every rule read per edge, g.local_action(h.evaluate(n)) *
    h.local_action(n), each walked from the base vertex."""
    support = prefix_closure(set(h.core) | {h.preimage(u) for u in g.core})

    def rule(n):
        return g.local_action(h.evaluate(n)) * h.local_action(n)

    core = {u: rule(u) for u in support}
    branches, defaults = {}, {}
    for u in support:
        if g.deg is None:
            # every color whose rule can differ from the generic one, and a
            # fresh color past all of them for the default
            hu = h.evaluate(u)
            if hu in g.core:
                special = {c for (w, c) in g.branches if w == hu} | set(hu[-1:])
                special |= {w[-1] for w in g.core if w and w[:-1] == hu}
            else:
                special = {hu[-1]} if hu else set()
            inv = h.local_action(u).inv()
            colors = {c for (w, c) in h.branches if w == u} | {inv(c) for c in special}
            blocked = colors | {w[-1] for w in support if w and w[:-1] == u} | set(u[-1:])
            defaults[u] = rule(u + (max(blocked, default=0) + 1,))
        else:
            colors = range(g.deg)
        for c in colors:
            if (not u or c != u[-1]) and u + (c,) not in support:
                branches[(u, c)] = rule(u + (c,))
    return TreeAut(g.evaluate(h.base), core, branches, defaults)


@PROPERTY
@given(st.data())
def test_product_matches_the_per_edge_reference(data):
    kind = data.draw(st.sampled_from(same_tree_kinds))
    g, h = data.draw(kind), data.draw(kind)
    assert aut_to_data(g * h) == aut_to_data(reference_product(g, h))
    assert g.inverse() is g.inverse()
    assert g.inverse().inverse() == g


evaluated_elements = st.one_of(*constant_kinds, elements)


def reference_evaluate(g, v):
    """g(v) by crossing one edge per letter, each colored by sigma(g, prefix)."""
    w = g.base
    for i, c in enumerate(v):
        w = neighbor(w, g.local_action(v[:i])(c))
    return w


@PROPERTY
@given(st.data())
def test_evaluate_matches_the_letter_by_letter_walk(data):
    g = data.draw(evaluated_elements)
    words = _reduced_words(12, range(g.deg) if g.deg is not None else WINDOW)
    v = data.draw(words)
    assert g.evaluate(v) == reference_evaluate(g, v)
    # the vertex mapped into g.base[:k] + tail: its image walk first climbs
    # back through g.base, so image letters cancel before any is appended
    k = data.draw(st.integers(0, len(g.base)))
    x = g.base[:k] + data.draw(words)
    if all(a != b for a, b in zip(x, x[1:])):
        u = g.preimage(x)
        assert g.evaluate(u) == reference_evaluate(g, u) == x


C5, ALT5 = PermGroup.cyclic(5), PermGroup.alternating(5)
# elements that move v0 up to three steps: random members of the two finite
# classes, and constant portraits, which move it furthest for their core
end_elements = st.one_of(
    st.builds(
        random_element,
        st.sampled_from([GroupClass.prescribed(ALT3, SYM3), GroupClass.prescribed(C5, ALT5)]),
        st.integers(0, 3),  # the core radius, which also bounds the displacement
        st.integers(0, 10**6),
    ),
    *(st.builds(TreeAut.from_constant, st.sampled_from(F.elements), _reduced_words(3, range(d)))
      for F, d in [(ALT3, 3), (C5, 5)]),
    st.builds(lambda shift, base: TreeAut.from_constant(Perm.z_translation(shift), base),
              st.integers(-2, 2), _reduced_words(3)),
    integer_elements,
)


@PROPERTY
@given(st.data())
def test_end_image_is_the_canonical_end_of_the_image_rays(data):
    g = data.draw(end_elements)
    colors = list(range(g.deg)) if g.deg is not None else list(WINDOW)
    # the ray starts along the geodesic to g^-1(v0), which the image ray
    # retraces towards v0, or to a deepest core vertex, for a drawn length
    lead = data.draw(st.sampled_from([g.inverse().base, max(g.core, key=len)]))
    ray = list(lead[: data.draw(st.integers(0, len(lead)))])
    for _ in range(data.draw(st.integers(max(0, 3 - len(ray)), 4))):
        ray.append(data.draw(st.sampled_from([c for c in colors if not ray or c != ray[-1]])))
    # every split of the ray into a nonempty prefix and a period of two or
    # three letters that repeats reduced
    ends = [periodic_end(ray[:s], ray[s:s + n]) for s in range(1, len(ray) - 1) for n in (2, 3)
            if s + n <= len(ray) and ray[s + n - 1] != ray[s]]
    for eta in ends:
        pair = g.end_image(eta)
        assert periodic_end(*pair) == pair
        assert ray_prefix(pair, 64) == end_image_prefix(g, eta, 64)
        assert g.inverse().end_image(pair) == eta


def _draw_ray(data, colors):
    """A prefix of up to four letters and a period of two to four letters
    whose ray prefix + period^oo is reduced; the prefix need not be the
    shortest, nor the period primitive."""
    n, m = data.draw(st.integers(0, 4)), data.draw(st.integers(2, 4))
    word = []
    for i in range(n + m):
        # the period's last letter also differs from its first, which follows it
        banned = {word[-1], word[n]} if i == n + m - 1 else set(word[-1:])
        word.append(data.draw(st.sampled_from([c for c in colors if c not in banned])))
    return tuple(word[:n]), tuple(word[n:])


@PROPERTY
@given(st.data())
def test_periodic_end_is_one_pair_for_every_spelling_of_a_ray(data):
    colors = data.draw(st.sampled_from([range(3), range(5), WINDOW]))
    prefix, period = _draw_ray(data, colors)
    pair = periodic_end(prefix, period)
    assert periodic_end(*pair) == pair
    assert ray_prefix(pair, 64) == ray_prefix((prefix, period), 64)
    # the prefix extended by whole periods and by a rotation, and powers of
    # the rotated period
    for j in range(3):
        for k in range(len(period)):
            turned = period[k:] + period[:k]
            for m in range(1, 4):
                assert periodic_end(prefix + period * j + period[:k], turned * m) == pair
    # both pairs are at most four letters of prefix and of period, so their
    # rays agree for 64 letters only if they are one periodic ray
    other = periodic_end(*_draw_ray(data, colors))
    assert (other == pair) == (ray_prefix(other, 64) == ray_prefix(pair, 64))
