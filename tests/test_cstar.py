"""Witness construction, orbit truncation, the convolution identity, the
fixator filtration, and certificate round-trips."""

import functools
import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arboreal import cstar_obstruction
from arboreal.cstar_obstruction import (
    OrbitTruncation,
    build_certificate,
    convolution_annihilation_check,
    disjoint_support_check,
    disjoint_support_pair,
    fixator_filtration_check,
    fixator_witness,
    orbit_truncate,
    parse_certificate,
    require_admissible_pair,
    resolve_groups,
    serialize_certificate,
    standard_generators,
    verify_certificate,
)
from arboreal.dynamics import fixes_half_tree_pointwise
from arboreal.perm_groups import Perm, PermGroup, cyclic_table, point_stabilizer
from arboreal.portraits import (
    GroupClass,
    TreeAut,
    aut_from_data,
    end_image_prefix,
    random_element,
)
from arboreal.tree_core import (
    V0,
    DirectedEdge,
    half_tree,
    is_reduced,
    periodic_end,
    ray_prefix,
)

ALT3 = PermGroup.alternating(3)
SYM3 = PermGroup.symmetric(3)


def test_fixator_witness_known_small_case():
    h = half_tree(V0, 0)
    g = fixator_witness(ALT3, SYM3, h)
    # the only nontrivial stabilizer of 0 in Sym(3) is the transposition (1 2),
    # and freeness forces the matching branch constants to be the 3-cycles
    assert g.local_action(V0) == Perm.from_cycles(3, (1, 2))
    assert g.frontier_rule(V0, 1) == Perm.from_cycles(3, (0, 1, 2))
    assert g.frontier_rule(V0, 2) == Perm.from_cycles(3, (0, 2, 1))
    assert g.frontier_rule(V0, 0).is_identity()
    assert not g.is_identity()
    assert fixes_half_tree_pointwise(g, h)
    assert GroupClass.prescribed(ALT3, SYM3).contains(g)
    assert not GroupClass.universal(ALT3).contains(g)


def test_fixator_witness_on_deeper_half_trees():
    for h in [half_tree((1,), 2), half_tree((0, 1), 0), half_tree((2,), 2), half_tree((0,), 0)]:
        g = fixator_witness(ALT3, SYM3, h)
        assert not g.is_identity()
        assert fixes_half_tree_pointwise(g, h)
        assert GroupClass.prescribed(ALT3, SYM3).contains(g)
        assert not GroupClass.universal(ALT3).contains(g)


def test_fixator_witness_rejects_degenerate_pairs():
    # the witness trusts its pair; the one admissibility check rejects these
    with pytest.raises(ValueError, match="proper subgroup"):
        require_admissible_pair(ALT3, ALT3)
    with pytest.raises(ValueError, match="act freely"):
        require_admissible_pair(SYM3, SYM3)
    with pytest.raises(ValueError, match="act freely"):
        # Sym(3) does not act freely
        require_admissible_pair(SYM3, PermGroup.symmetric(3))
    with pytest.raises(ValueError, match="proper subgroup"):
        require_admissible_pair(PermGroup.z_translations(), PermGroup.z_translations())


def test_fixator_witness_over_integer_colors():
    F, Fp = PermGroup.z_translations(), PermGroup.z_finitary_affine()
    h = half_tree(V0, 0)
    g = fixator_witness(F, Fp, h)
    assert not g.is_identity()
    assert fixes_half_tree_pointwise(g, h)
    assert GroupClass.prescribed(F, Fp).contains(g)
    sigma = g.local_action(V0)
    assert sigma(0) == 0 and not sigma.is_identity()


def test_disjoint_support_pair_commutes_and_separates():
    e = DirectedEdge(V0, 0)
    a, b = disjoint_support_pair(ALT3, SYM3, e)
    assert not a.is_identity() and not b.is_identity()
    # support separation: each fixes the other's half-tree pointwise
    assert fixes_half_tree_pointwise(a, e.reversed())
    assert fixes_half_tree_pointwise(b, e)
    assert a * b == b * a


def assert_end_of(end, el, xi):
    """end is the canonical pair of el(xi): `periodic_end` keeps it as it
    is, and its ray agrees with the reference image ray for 64 letters, far
    past the prefix of either end here, so both are the same periodic ray."""
    assert periodic_end(*end) == end
    assert end_image_prefix(el, xi, 64) == ray_prefix(end, 64)


def independent_orbit_enumeration(gens, xi, length, depth):
    """Second enumerator, coded differently: every word up to the length in
    (length, lex) order from itertools.product, its element folded from
    TreeAut products, and the first word kept for each end image prefix."""
    deg = gens[0].deg
    alphabet = []
    for g in gens:
        alphabet += [g, g.inverse()]
    elements = {(): TreeAut.identity(deg)}
    points, seen = [], set()
    for n in range(length + 1):
        for word in itertools.product(range(len(alphabet)), repeat=n):
            if n:
                elements[word] = elements[word[:-1]] * alphabet[word[-1]]
            pref = end_image_prefix(elements[word], xi, depth)
            if pref not in seen:
                seen.add(pref)
                points.append((word, pref))
    return points


def test_orbit_truncation_matches_independent_enumerator():
    gens = [
        TreeAut.from_constant(Perm.from_cycles(3, (0, 1, 2)), V0),
        TreeAut.from_constant(Perm.identity(3), (0, 1)),
    ]
    xi = periodic_end((), (0, 1))
    assert not orbit_truncate(gens, xi, 3, 16).depth_warning
    cases = [(gens, 3)]
    # wreath-z2-z2 repeats letters: the inverse of each F-constant is itself
    for preset, length in [("g-alt3-sym3", 3), ("z-translations", 3), ("wreath-z2-z2", 2)]:
        F, Fp, _ = resolve_groups({"preset": preset})
        a, b = disjoint_support_pair(F, Fp, DirectedEdge(V0, 0))
        cases.append(([a, b] + standard_generators(F), length))
    # a shallow depth makes many words collide, so the labels test which
    # word is kept for each depth prefix, not only the point set
    for gens, length in cases:
        for depth in (1, 3, 16):
            orbit = orbit_truncate(gens, xi, length, depth)
            expected = independent_orbit_enumeration(gens, xi, length, depth)
            assert [(w, ray_prefix(end, depth)) for w, end in orbit.points] == expected
            # each label's product maps the end to its point, exactly
            for word, end in orbit.points:
                assert_end_of(end, word_element(gens, word), xi)


def word_element(gens, word):
    el = TreeAut.identity(gens[0].deg)
    for i in word:
        el = el * (gens[i // 2] if i % 2 == 0 else gens[i // 2].inverse())
    return el


RANDOM_CLASSES = [GroupClass.prescribed(ALT3, SYM3), GroupClass.universal(SYM3)]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data())
def test_orbit_truncation_matches_independent_enumerator_on_random_generators(data):
    # every letter's inverse is in the alphabet, so each layer from the second
    # on meets words that a cancelling letter would send back a layer
    cls = data.draw(st.sampled_from(RANDOM_CLASSES))
    seeds = data.draw(st.lists(st.integers(0, 10**6), min_size=2, max_size=4))
    gens = [random_element(cls, 2, seed) for seed in seeds]
    length = data.draw(st.integers(2, 3))
    xi = periodic_end((), (0, 1))
    for depth in (1, 3, 16):
        orbit = orbit_truncate(gens, xi, length, depth)
        expected = independent_orbit_enumeration(gens, xi, length, depth)
        assert [(w, ray_prefix(end, depth)) for w, end in orbit.points] == expected
        for word, end in orbit.points:
            assert_end_of(end, word_element(gens, word), xi)


def test_orbit_truncation_trivial_cases():
    xi = periodic_end((), (0, 1))
    gens = [TreeAut.identity(3)]
    orbit = orbit_truncate(gens, xi, 4, 12)
    assert len(orbit.points) == 1
    orbit0 = orbit_truncate(standard_generators(ALT3), xi, 0, 12)
    assert len(orbit0.points) == 1


def test_orbit_truncation_depth_warning():
    gens = [TreeAut.from_constant(Perm.identity(3), (0, 1))]
    orbit = orbit_truncate(gens, periodic_end((), (0, 1)), 3, 4)
    assert orbit.depth_warning


def test_disjoint_support_and_annihilation_full_pipeline():
    e = DirectedEdge(V0, 0)
    a, b = disjoint_support_pair(ALT3, SYM3, e)
    gens = [a, b] + standard_generators(ALT3)
    xi = periodic_end((), (0, 1))
    orbit = orbit_truncate(gens, xi, 3, 16)
    assert len(orbit.points) > 10
    assert disjoint_support_check(a, b, orbit)
    report = convolution_annihilation_check(a, b, orbit)
    assert report.ok and report.total == len(orbit.points)


def test_disjoint_support_check_detects_overlap():
    e = DirectedEdge(V0, 0)
    a, _ = disjoint_support_pair(ALT3, SYM3, e)
    gens = [a] + standard_generators(ALT3)
    orbit = orbit_truncate(gens, periodic_end((), (0, 1)), 2, 14)
    # the same element on both sides moves some orbit point twice
    assert not disjoint_support_check(a, a, orbit)
    # an identity side is disjoint from anything
    assert disjoint_support_check(TreeAut.identity(3), a, orbit)


def reference_annihilation(a, b, orbit):
    """The failures and overlaps of the point checks with a eta, b eta and
    a b eta each from its own evaluation, and a b eta through the product.
    Ends are compared by their first 64 letters, far past the prefix of any
    end here, so equal prefixes mean equal ends."""
    ab = a * b
    failures, overlaps = [], []
    for word, end in orbit.points:
        eta = ray_prefix(end, 64)
        a_eta, b_eta = end_image_prefix(a, end, 64), end_image_prefix(b, end, 64)
        ab_eta = end_image_prefix(ab, end, 64)
        if a_eta != eta and b_eta != eta:
            overlaps.append(word)
        if sorted([eta, ab_eta]) != sorted([a_eta, b_eta]):
            failures.append(word)
    return failures, overlaps


def test_annihilation_report_overlaps_are_the_points_both_sides_move():
    e = DirectedEdge(V0, 0)
    a, b = disjoint_support_pair(ALT3, SYM3, e)
    gens = [a] + standard_generators(ALT3)
    orbit = orbit_truncate(gens, periodic_end((), (0, 1)), 2, 14)
    glide = gens[-1]
    pairs = [(a, a), (TreeAut.identity(3), a), (a, b), (b, a), (a, glide), (glide, b)]
    for x, y in pairs:
        report = convolution_annihilation_check(x, y, orbit)
        failures, overlaps = reference_annihilation(x, y, orbit)
        assert report.overlaps == overlaps
        assert [w for w, _ in report.failures] == failures
        assert report.total == len(orbit.points) and report.passed == report.total - len(failures)
        assert disjoint_support_check(x, y, orbit) == (not overlaps)
    assert convolution_annihilation_check(a, a, orbit).overlaps
    assert convolution_annihilation_check(TreeAut.identity(3), a, orbit).overlaps == []
    assert convolution_annihilation_check(a, b, orbit).overlaps == []
    # a pair that breaks the identity, so the failure words are tested too
    assert convolution_annihilation_check(a, glide, orbit).failures


def test_annihilation_reads_the_letters_past_the_depth_that_a_needs():
    # b fixes the first three letters of the point and changes the fourth;
    # the glide a cancels two letters, so a b eta is not a eta although
    # b eta is eta at depth 3
    a = TreeAut.from_constant(Perm.identity(3), (0, 1))
    b = fixator_witness(ALT3, SYM3, DirectedEdge((1, 0, 2), 2))
    # the ray (1, 0, 2, 1, 0, 1, 0, ...)
    orbit = OrbitTruncation(1, 3, [((), ((1, 0, 2), (1, 0)))], 0, False)
    report = convolution_annihilation_check(a, b, orbit)
    assert [w for w, _ in report.failures] == reference_annihilation(a, b, orbit)[0] == [()]
    assert report.failures[0][1] == "(1, 0, 2) -> (2, 1, 0), (1, 0, 2), (2, 0, 2)"


def test_overlapping_witnesses_give_the_pinned_disjoint_support_certificate(monkeypatch):
    # the same fixator on both sides, with the fixation stage passed, fails
    # at disjoint support: the body is the one the two-pass pipeline wrote
    a, _ = disjoint_support_pair(ALT3, SYM3, DirectedEdge(V0, 0))
    monkeypatch.setattr(cstar_obstruction, "disjoint_support_pair", lambda F, Fp, e: (a, a))
    monkeypatch.setattr(cstar_obstruction, "fixes_half_tree_pointwise", lambda g, h: True)
    cert = build_certificate({"preset": "g-alt3-sym3"})
    assert cert["status"] == "INVALID:disjoint_support"
    assert cert["checks"]["disjoint_support"] is False and "annihilation" not in cert["checks"]
    text = serialize_certificate(cert)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "97ff7905821fec885e290dca17206758f72454a9bd4b2960fd1eafc9a3abe288")


def test_orbit_and_point_checks_take_elements_that_move_the_base_vertex_far():
    # displacement 3, beyond every generator's: ends are exact, so neither
    # the orbit nor the point checks depend on how far an element moves v0
    a, b = disjoint_support_pair(ALT3, SYM3, DirectedEdge(V0, 0))
    far = TreeAut.from_constant(Perm.identity(3), (0, 1, 0))
    xi = periodic_end((), (0, 1))
    gens = [far, a, b] + standard_generators(ALT3)
    for depth in (1, 3, 12):
        orbit = orbit_truncate(gens, xi, 2, depth)
        expected = independent_orbit_enumeration(gens, xi, 2, depth)
        assert [(w, ray_prefix(end, depth)) for w, end in orbit.points] == expected
    for x, y in [(far, b), (a, far), (a, b)]:
        report = convolution_annihilation_check(x, y, orbit)
        failures, overlaps = reference_annihilation(x, y, orbit)
        assert report.overlaps == overlaps
        assert [w for w, _ in report.failures] == failures
        assert disjoint_support_check(x, y, orbit) == (not overlaps)
    assert convolution_annihilation_check(far, b, orbit).overlaps


def test_filtration_level_0_trivial_kernel():
    report = fixator_filtration_check(ALT3, SYM3, half_tree(V0, 0), 0)
    assert report.ok
    assert report.details["fixers"] == 1
    assert report.details["enumerated"] == 30


def test_filtration_level_1_onto_stabilizer():
    report = fixator_filtration_check(ALT3, SYM3, half_tree(V0, 0), 1)
    assert report.ok
    assert report.details["stabilizer_order"] == 2
    assert all(report.details["hits"].values())


def test_filtration_rejects_level_2():
    with pytest.raises(ValueError):
        fixator_filtration_check(ALT3, SYM3, half_tree(V0, 0), 2)


def test_resolve_groups_sources():
    F, Fp, _ = resolve_groups({"preset": "g-alt3-sym3"})
    assert F.degree == 3 and len(F.elements) == 3 and len(Fp.elements) == 6
    F, Fp, _ = resolve_groups({"preset": "wreath-z2-z2"})
    assert F.degree == 4 and len(Fp.elements) == 8
    with pytest.raises(ValueError):
        resolve_groups({})
    with pytest.raises(ValueError):
        resolve_groups({"preset": "g-alt3-sym3", "wreath": {"gamma": [[0]], "a": [[0]]}})
    with pytest.raises(ValueError):
        resolve_groups({"preset": "no-such"})
    with pytest.raises(ValueError, match="not an \\(F, F'\\) pair"):
        resolve_groups({"free_product": {"a": [[0, 1], [1, 0]], "b": [[0, 1], [1, 0]]}})


@pytest.mark.parametrize("n, m", [(2, 2), (3, 2), (2, 3)])
def test_wreath_config_certifies_as_its_preset(n, m):
    # the wreath tables of Z/n and Z/m name the preset's pair: the bodies
    # differ only in the config and the group label
    tables = {"gamma": cyclic_table(n), "a": cyclic_table(m)}
    wreath = build_certificate({"wreath": tables})
    preset = build_certificate({"preset": f"wreath-z{n}-z{m}"})
    assert wreath["status"] == "VALID"
    assert wreath["group"].pop("label") == "G(wreath pair)"
    assert preset["group"].pop("label") == f"G(Z/{n}^(Z/{m}), Z/{n} wr Z/{m})"
    del wreath["config"], preset["config"]
    assert wreath == preset


def test_build_certificate_valid_for_alt3_sym3():
    cert = build_certificate({"preset": "g-alt3-sym3"})
    assert cert["status"] == "VALID"
    assert cert["checks"]["general_type"]["found"]
    assert cert["checks"]["disjoint_support"] is True
    assert cert["checks"]["annihilation"]["failures"] == []
    assert cert["checks"]["commute"] is True
    assert cert["group"]["edge_stabilizer_amenability"].startswith("finite")
    a, b = aut_from_data(cert["witness_a"]), aut_from_data(cert["witness_b"])
    assert a * b == b * a


def test_build_certificate_invalid_when_groups_coincide():
    with pytest.raises(ValueError, match="proper subgroup"):
        build_certificate(
            {"groups": {"F": {"kind": "alternating", "degree": 3},
                        "Fp": {"kind": "alternating", "degree": 3}}}
        )


def test_build_certificate_wreath_preset():
    cert = build_certificate({"preset": "wreath-z2-z2", "depth": 14})
    assert cert["status"] == "VALID"
    assert cert["group"]["omega"] == 4


def test_certificate_round_trip_and_reverify():
    cert = build_certificate({"preset": "g-alt3-sym3"})
    text = serialize_certificate(cert)
    parsed = parse_certificate(text)
    assert serialize_certificate(parsed) == text
    ok, msg = verify_certificate(text)
    assert ok, msg
    # determinism: rebuilding from the same config is byte-identical
    assert serialize_certificate(build_certificate(cert["config"])) == text


def test_certificate_rejects_bad_version():
    with pytest.raises(ValueError):
        parse_certificate("someother-cert/9\n{}")


def test_fixator_witness_for_non_transitive_free_pair():
    # the double transposition acts freely with two orbits; the Klein group
    # preserves them, so the construction needs no transitivity
    F = PermGroup.generated([Perm.from_cycles(4, (0, 1), (2, 3))])
    Fp = PermGroup.generated([Perm.from_cycles(4, (0, 1)), Perm.from_cycles(4, (2, 3))])
    h = half_tree(V0, 0)
    g = fixator_witness(F, Fp, h)
    assert not g.is_identity()
    assert fixes_half_tree_pointwise(g, h)
    assert GroupClass.prescribed(F, Fp).contains(g)
    assert not GroupClass.universal(F).contains(g)


def _closure(gens):
    """The permutation group, as a set of tables, generated by gens."""
    elements = {tuple(range(len(gens[0])))}
    frontier = list(elements)
    while frontier:
        frontier = [q for q in {tuple(p[i] for i in g) for p in frontier for g in gens}
                    if q not in elements]
        elements.update(frontier)
    return frozenset(elements)


def _admissible_pairs(d):
    """Every pair (F, F') of subgroups of Sym(d), each given by generators,
    with F free, F' preserving the F-orbits and F a proper subgroup of F'."""
    identity = tuple(range(d))

    def free(group):
        return all(g == identity or all(g[c] != c for c in range(d)) for g in group)

    sym = list(itertools.permutations(range(d)))
    # a free group's elements generate free cyclic groups; the free groups of
    # degree at most 5 are cyclic or Klein four, so pairs of them suffice
    semiregular = [p for p in sym if free(_closure([p]))]
    frees = {}
    for pair in itertools.combinations_with_replacement(semiregular, 2):
        F = _closure(list(pair))
        if free(F):
            frees.setdefault(F, list(pair))
    pairs = []
    for F, F_gens in frees.items():
        orbits = {frozenset(g[c] for g in F) for c in range(d)}
        preserving = [p for p in sym if all({p[c] for c in o} == o for o in orbits)]
        # the overgroups of F in `preserving`: <H, x> depends on x only through
        # the coset Hx, so one representative per coset is enough
        overgroups, todo = {F: F_gens}, [F]
        while todo:
            H = todo.pop()
            covered = set(H)
            for x in preserving:
                if x in covered:
                    continue
                covered.update(tuple(h[i] for i in x) for h in H)
                gens = overgroups[H] + [x]
                K = _closure(gens)
                if K not in overgroups:
                    overgroups[K] = gens
                    todo.append(K)
        pairs += [(F_gens, gens) for K, gens in overgroups.items() if K != F]
    return sorted(pairs)


def _listed_status(F, Fp):
    """The status of the wl=2 certificate of the pair, each group listed by
    its generator tables."""
    groups = {name: {"kind": "listed", "perms": [list(p) for p in gens]}
              for name, gens in (("F", F), ("Fp", Fp))}
    return build_certificate({"groups": groups, "word_length": 2})["status"]


@pytest.mark.parametrize("degree, count", [(3, 1), (4, 14), (5, 24)])
def test_every_admissible_pair_of_small_degree_certifies_valid(degree, count):
    pairs = _admissible_pairs(degree)
    assert len(pairs) == count
    invalid = []
    for F, Fp in pairs:
        status = _listed_status(F, Fp)
        if status != "VALID":
            invalid.append((F, Fp, status))
    assert invalid == []


@functools.cache
def _small_pairs():
    return [pair for d in (3, 4, 5) for pair in _admissible_pairs(d)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_relabelling_the_colors_keeps_the_status(data):
    """Conjugating F and F' by a color permutation pi gives an isomorphic
    pair on an isomorphic colored tree, so the verdict must not move."""
    F, Fp = data.draw(st.sampled_from(_small_pairs()))
    pi = data.draw(st.permutations(range(len(F[0]))))

    def relabel(gens):  # the tables of pi g pi^-1
        return [tuple(pi[g[pi.index(c)]] for c in range(len(pi))) for g in gens]

    assert _listed_status(relabel(F), relabel(Fp)) == _listed_status(F, Fp)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_fixators_at_any_short_edge_fix_their_half_trees(data):
    """At an edge whose tail has 0 to 2 letters, the disjoint-support pair is
    nontrivial, passes both fixations and commutes, and each nontrivial
    sigma fixing the edge color gives a witness that fixes the half-tree:
    every such sigma of a degree 3 to 5 pair, and a drawn finitary one over
    the integer colors -3..3."""
    pair = data.draw(st.one_of(st.just(None), st.sampled_from(_small_pairs())))
    if pair is None:
        F, Fp, colors = PermGroup.z_translations(), PermGroup.z_finitary_affine(), range(-3, 4)
    else:
        F, Fp = (PermGroup.generated([Perm(t) for t in gens]) for gens in pair)
        colors = range(F.degree)
    n = data.draw(st.integers(0, 2))
    tail = data.draw(st.lists(st.sampled_from(colors), min_size=n, max_size=n).filter(is_reduced))
    e = half_tree(tail, data.draw(st.sampled_from(colors)))

    a, b = disjoint_support_pair(F, Fp, e)
    assert not a.is_identity() and not b.is_identity()
    assert fixes_half_tree_pointwise(a, e.reversed()) and fixes_half_tree_pointwise(b, e)
    assert a * b == b * a

    stab = point_stabilizer(Fp, e.color)
    if stab.kind == "finite":
        sigmas = [sigma for sigma in stab.elements if not sigma.is_identity()]
    else:
        others = [c for c in colors if c != e.color]
        moved = data.draw(st.lists(st.sampled_from(others), min_size=2, max_size=3, unique=True))
        image = data.draw(st.permutations(moved).filter(lambda p: p != moved))
        sigmas = [Perm(patch=dict(zip(moved, image)))]
    for sigma in sigmas:
        assert fixes_half_tree_pointwise(fixator_witness(F, Fp, e, sigma), e)


def test_integer_witness_has_swap_core_and_translation_branches():
    F, Fp = PermGroup.z_translations(), PermGroup.z_finitary_affine()
    g = fixator_witness(F, Fp, half_tree(V0, 0))
    sigma = g.local_action(V0)
    # deterministic choice: the transposition of the two colors above the edge color
    assert sigma == Perm.z_swap(1, 2)
    # branch constants are the translations matching sigma, identity by default
    assert g.frontier_rule(V0, 1) == Perm.z_translation(1)
    assert g.frontier_rule(V0, 2) == Perm.z_translation(-1)
    assert g.frontier_rule(V0, 0).is_identity()
    assert g.frontier_rule(V0, 7).is_identity()


def test_disjoint_pair_on_all_finite_presets():
    from arboreal.perm_groups import cyclic_table, wreath_embedding

    wf, wfp, _, _ = wreath_embedding(cyclic_table(2), cyclic_table(2))
    pairs = [
        (ALT3, SYM3),
        (PermGroup.cyclic(5), PermGroup.alternating(5)),
        (wf, wfp),
    ]
    for F, Fp in pairs:
        e = DirectedEdge(V0, 0)
        a, b = disjoint_support_pair(F, Fp, e)
        assert a * b == b * a
        assert fixes_half_tree_pointwise(a, e.reversed())
        assert fixes_half_tree_pointwise(b, e)


def test_integer_color_compose_matches_pointwise_on_window_ball():
    """The default-plus-exceptions bookkeeping under composition, checked
    against direct pointwise evaluation over a window of integer colors."""
    from arboreal.tree_core import enumerate_ball

    F, Fp = PermGroup.z_translations(), PermGroup.z_finitary_affine()
    w1 = fixator_witness(F, Fp, half_tree(V0, 0))
    w2 = fixator_witness(F, Fp, half_tree((1,), 2))
    glide = TreeAut.from_constant(Perm.z_translation(1), (0, 1))
    ball = sorted(enumerate_ball(V0, 3, range(-2, 5)))
    for g, h in [(w1, glide), (glide, w1), (w1, w2), (w2, w1 * glide), (w1 * w2, glide)]:
        gh = g * h
        for v in ball:
            assert gh.evaluate(v) == g.evaluate(h.evaluate(v))
        assert (gh * gh.inverse()).is_identity()
        for v in ball:
            assert gh.inverse().evaluate(gh.evaluate(v)) == v
