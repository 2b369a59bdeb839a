"""The finite obstruction pipeline and its certificates.

Given permutation groups F < F' with F acting freely and F' preserving the
F-orbits, the group of tree automorphisms with local action prescribed by F'
everywhere and by F almost everywhere contains nontrivial pointwise fixators
of half-trees.  Fixators supported in the two half-trees of one edge have
disjoint support on any boundary orbit, so the convolution operator
(1-a)(1-b) kills every basis vector of the orbit's ell^2 space:
delta_eta - delta_{b eta} - delta_{a eta} + delta_{ab eta} = 0.

This module builds the witnesses, truncates a boundary orbit to finite depth,
checks the identity point by point, and bundles everything into a versioned,
re-verifiable certificate.  Amenability facts are never decided: they enter
certificates only as structural annotations carried by the permutation
groups.
"""

from __future__ import annotations

import json

from .dynamics import distinct_letters, fixes_half_tree_pointwise, general_type_witness
from .perm_groups import (
    Perm,
    PermGroup,
    check_freeness,
    check_orbit_preservation,
    cyclic_table,
    point_stabilizer,
    wreath_embedding,
)
from .portraits import (
    GroupClass,
    TreeAut,
    aut_to_data,
    enumerate_branch_constant,
    image_prefix,
    json_typed,
    require_key,
)
from .tree_core import (
    V0,
    DirectedEdge,
    PeriodicEnd,
    Record,
    enumerate_ball,
    neighbor,
)

CERT_VERSION = "arboreal-cert/1"


# -- witness construction ------------------------------------------------------


def _require_admissible_pair(F: PermGroup, Fp: PermGroup):
    if not check_freeness(F):
        raise ValueError("F must act freely on the color set")
    if not check_orbit_preservation(F, Fp):
        raise ValueError("F' must preserve the orbits of F")
    if F.contains_group(Fp):  # F <= F' holds once the orbit check has passed
        raise ValueError("F must be a proper subgroup of F'")


def _matching_f_element(F: PermGroup, b: int, target: int) -> Perm:
    """The element of F sending b to target (unique when F acts freely)."""
    if F.kind == "finite":
        for p in F.elements:
            if p(b) == target:
                return p
        raise AssertionError(f"no element of F sends {b} to {target}")
    if F.kind == "z_translations":
        return Perm.z_translation(target - b)
    raise ValueError(f"unsupported F kind {F.kind!r}")


def fixator_witness(F: PermGroup, Fp: PermGroup, h: DirectedEdge, sigma: Perm | None = None) -> TreeAut:
    """A nontrivial automorphism fixing the half-tree beyond the edge h pointwise.

    The local action is the identity throughout the half-tree, a nontrivial
    stabilizer element sigma of the edge color at the facing vertex, and on
    every other branch at the facing vertex the F-element matching sigma on
    the branch color.  The result lies in G(F,F') but (for nontrivial sigma
    and free F) not in U(F).
    """
    _require_admissible_pair(F, Fp)
    t, a = h.tail, h.color
    deg = F.degree
    if sigma is None:
        sigma = point_stabilizer(Fp, a).sample_nontrivial()
        if sigma is None:
            raise AssertionError("no nontrivial stabilizer despite admissible pair")
    if sigma(a) != a:
        raise ValueError("sigma must fix the color of the defining edge")

    # the path from the base vertex to t moves rigidly; at t the default is
    # the identity, which is the matching F-element at every color that sigma
    # fixes because F acts freely, so only the moved colors need rules
    rest = Perm.identity(deg)
    if h.is_cylinder and t:
        rest = _matching_f_element(F, t[-1], sigma(t[-1]))
    core = {t[:k]: rest for k in range(len(t))}
    core[t] = sigma
    defaults = {**core, t: Perm.identity(deg)}
    branches = {
        (t, c): _matching_f_element(F, c, sigma(c))
        for c in sigma.moved_colors() or ()
        if not t or c != t[-1]
    }
    img = t
    for k in range(len(t), 0, -1):
        img = neighbor(img, core[t[:k]](t[k - 1]))
    g = TreeAut(img, core, branches, defaults)

    if g.is_identity():
        raise AssertionError("witness collapsed to the identity")
    if not fixes_half_tree_pointwise(g, h):
        raise AssertionError("witness fails to fix its half-tree")
    if not GroupClass.prescribed(F, Fp).contains(g):
        raise AssertionError("witness escapes the prescribed class")
    return g


def disjoint_support_pair(F: PermGroup, Fp: PermGroup, e: DirectedEdge) -> tuple[TreeAut, TreeAut]:
    """Nontrivial fixators of the two half-trees at e: the first fixes the
    tail side (so its support lies in the head side), the second the reverse.
    Disjointly supported automorphisms commute."""
    a = fixator_witness(F, Fp, e.reversed())
    b = fixator_witness(F, Fp, e)
    return a, b


# -- orbit truncation and the convolution identity ----------------------------


class OrbitTruncation(Record):
    """Products of the generators up to the word length, applied to the base
    end, with image rays deduplicated at the stated depth.

    Each point is (word, ray): the minimal word, in (length, lex) order, that
    maps the end to the point, and a ray prefix of its image with at least
    depth + 2 * margin exact letters, where margin bounds the displacement
    of every generator.  The point itself is ray[:depth].
    """

    __slots__ = ("word_length", "depth", "margin", "points", "heuristic_bound", "depth_warning")

    def __init__(self, word_length: int, depth: int, margin: int,
                 points: list[tuple[tuple[int, ...], tuple[int, ...]]],
                 heuristic_bound: int, depth_warning: bool):
        super().__init__(word_length, depth, margin, points, heuristic_bound, depth_warning)


def orbit_truncate(
    gens: list[TreeAut], xi: PeriodicEnd, word_length: int, depth: int
) -> OrbitTruncation:
    """Enumerate the orbit of the end under short products of the generators.

    Breadth-first over ray prefixes, never over group elements: the word
    (i,) + w maps the end to a_i(w(xi)), so layer k applies each letter of
    `distinct_letters` to the rays of layer k-1, and each letter costs at
    most `margin` exact letters.  Two words of length <= k whose rays agree
    on depth + (L-k) * margin letters reach the same depth prefix under
    every extension to length L, so only the first of them is kept.
    Deduplication is ray-prefix equality at the stated depth, so the point
    count is a lower bound for the true orbit; a depth below the recorded
    heuristic bound only raises a warning flag.
    """
    letters = distinct_letters(gens)
    margin = max(len(g.base) for g in gens)
    bound = 2 * word_length * margin + len(xi.prefix) + len(xi.period)
    layer = [((), xi.ray_prefix(depth + (word_length + 2) * margin))]
    kept = list(layer)
    for k in range(1, word_length + 1):
        carried = depth + (word_length + 2 - k) * margin
        dedup = depth + (word_length - k) * margin
        seen = {ray[:dedup] for _, ray in kept}
        nxt = []
        for i, a in letters:
            for word, ray in layer:
                img = image_prefix(a, ray, carried)
                key = img[:dedup]
                if key not in seen:
                    seen.add(key)
                    nxt.append(((i,) + word, img))
        layer = nxt
        kept += layer
    seen = set()
    points = []
    for word, ray in kept:
        if ray[:depth] not in seen:
            seen.add(ray[:depth])
            points.append((word, ray))
    return OrbitTruncation(
        word_length=word_length,
        depth=depth,
        margin=margin,
        points=points,
        heuristic_bound=bound,
        depth_warning=depth < bound,
    )


def _check_margin(orbit: OrbitTruncation, *witnesses: TreeAut) -> None:
    for g in witnesses:
        if len(g.base) > orbit.margin:
            raise ValueError(
                f"witness displacement {len(g.base)} exceeds the orbit's margin {orbit.margin}"
            )


def disjoint_support_check(a: TreeAut, b: TreeAut, orbit: OrbitTruncation) -> bool:
    """True iff no truncated orbit point is moved by both a and b."""
    _check_margin(orbit, a, b)
    depth = orbit.depth
    for _, ray in orbit.points:
        eta = ray[:depth]
        if image_prefix(a, ray, depth) != eta and image_prefix(b, ray, depth) != eta:
            return False
    return True


class AnnihilationReport(Record):
    """Point-by-point verdicts for the convolution identity
    delta_eta - delta_{b eta} - delta_{a eta} + delta_{ab eta} = 0."""

    __slots__ = ("total", "passed", "failures")

    def __init__(self, total: int, passed: int, failures: list[tuple[tuple[int, ...], str]]):
        super().__init__(total, passed, failures)

    @property
    def ok(self) -> bool:
        return self.passed == self.total


def convolution_annihilation_check(a: TreeAut, b: TreeAut, orbit: OrbitTruncation) -> AnnihilationReport:
    """Verify, at the truncation depth, that applying (1-a)(1-b) to each
    orbit point's basis vector gives zero: the multiset {eta, a b eta} must
    equal {a eta, b eta}."""
    _check_margin(orbit, a, b)
    depth = orbit.depth
    failures = []
    for word, ray in orbit.points:
        eta = ray[:depth]
        a_eta = image_prefix(a, ray, depth)
        b_ray = image_prefix(b, ray, len(ray) - len(b.base))
        ab_eta = image_prefix(a, b_ray, depth)
        b_eta = b_ray[:depth]
        if sorted([eta, ab_eta]) != sorted([a_eta, b_eta]):
            failures.append((word, f"{eta} -> {a_eta}, {b_eta}, {ab_eta}"))
    return AnnihilationReport(
        total=len(orbit.points),
        passed=len(orbit.points) - len(failures),
        failures=failures,
    )


# -- the fixator filtration ----------------------------------------------------


class FiltrationReport(Record):
    __slots__ = ("level", "ok", "details")

    def __init__(self, level: int, ok: bool, details: dict):
        super().__init__(level, ok, details)


def fixator_filtration_check(F: PermGroup, Fp: PermGroup, h: DirectedEdge, level: int) -> FiltrationReport:
    """Check the bottom of the filtration of half-tree fixators by how far
    out their local actions leave F.

    Level 0: the fixators with local action in F everywhere are trivial
    (exhaustive over core radius 2 when F acts freely).  Level 1: the local
    action at the facing vertex maps the level-1 fixators onto the full point
    stabilizer of the edge color in F' (explicit preimages).  Higher levels
    are combinatorially out of reach and rejected.
    """
    if level >= 2:
        raise ValueError("filtration levels >= 2 are unsupported (combinatorial blow-up)")
    _require_admissible_pair(F, Fp)
    if level == 0:
        if F.kind != "finite":
            raise ValueError("level-0 enumeration needs a finite color set")
        bases = sorted(enumerate_ball(V0, 2, range(F.degree)))
        elements = enumerate_branch_constant(F, 2, bases)
        fixers = [g for g in elements if fixes_half_tree_pointwise(g, h)]
        ok = len(fixers) == 1 and fixers[0].is_identity()
        return FiltrationReport(
            level=0,
            ok=ok,
            details={"enumerated": len(elements), "fixers": len(fixers)},
        )
    stab = point_stabilizer(Fp, h.color)
    if stab.kind != "finite":
        raise ValueError("level-1 surjectivity needs a listable stabilizer")
    hits = {}
    for tau in stab.elements:
        if tau.is_identity():
            g = TreeAut.identity(F.degree)
        else:
            g = fixator_witness(F, Fp, h, sigma=tau)
        ok_tau = (
            g.local_action(h.tail) == tau
            and fixes_half_tree_pointwise(g, h)
            and GroupClass.prescribed(F, Fp).contains(g)
        )
        hits[str(tau)] = ok_tau
    return FiltrationReport(
        level=1,
        ok=all(hits.values()),
        details={"stabilizer_order": len(stab.elements), "hits": hits},
    )


# -- presets, pipeline, certificates -------------------------------------------


def group_source(config: dict) -> str:
    """The one group source a config names: preset, groups, wreath, or the
    free-product tables that only `witness` reads."""
    sources = [k for k in ("preset", "groups", "wreath", "free_product") if config.get(k)]
    if len(sources) != 1:
        raise ValueError(f"exactly one group source required, got {sources or 'none'}")
    return sources[0]


def resolve_groups(config: dict) -> tuple[PermGroup, PermGroup, str]:
    """Resolve the (F, F') pair named by a config: a preset name, an explicit
    finite pair, or wreath parameters.  Exactly one source must be given."""
    source = group_source(config)
    if source == "free_product":
        raise ValueError("free_product tables name a free-product tree, not an (F, F') pair")
    if source == "preset":
        name = json_typed(config["preset"], str, "preset")
        if name == "g-alt3-sym3":
            return PermGroup.alternating(3), PermGroup.symmetric(3), "G(Alt(3), Sym(3))"
        if name == "g-cycle5-alt5":
            return PermGroup.cyclic(5), PermGroup.alternating(5), "G(C5, Alt(5))"
        if name == "z-translations":
            return (
                PermGroup.z_translations(),
                PermGroup.z_finitary_affine(),
                "G(translations, finitary-affine) on integer colors",
            )
        if name.startswith("wreath-z"):
            try:
                n, m = (int(s[1:]) for s in name[len("wreath-") :].split("-"))
            except Exception as exc:
                raise ValueError(f"bad wreath preset {name!r}") from exc
            F, Fp, _, _ = wreath_embedding(cyclic_table(n), cyclic_table(m))
            return F, Fp, f"G(Z/{n}^(Z/{m}), Z/{n} wr Z/{m})"
        raise ValueError(f"unknown preset {name!r}")
    if source == "groups":
        spec = config["groups"]
        F = _group_from_spec(require_key(spec, "F", "groups"))
        Fp = _group_from_spec(require_key(spec, "Fp", "groups"))
        return F, Fp, spec.get("label", "G(F, F')")
    wreath = config["wreath"]
    gamma, a = require_key(wreath, "gamma", "wreath"), require_key(wreath, "a", "wreath")
    F, Fp, _, _ = wreath_embedding(gamma, a)
    return F, Fp, "G(wreath pair)"


def _group_from_spec(spec) -> PermGroup:
    kind = json_typed(require_key(spec, "kind", "group spec"), str, "group spec kind")
    finite = {"symmetric": PermGroup.symmetric, "alternating": PermGroup.alternating,
              "cyclic": PermGroup.cyclic, "trivial": PermGroup.trivial}
    if kind in finite:
        degree = require_key(spec, "degree", f"{kind} group spec")
        return finite[kind](json_typed(degree, int, f"{kind} group spec degree"))
    if kind == "listed":
        perms = require_key(spec, "perms", "listed group spec")
        if not isinstance(perms, list) or not all(
            isinstance(t, list) and all(type(x) is int for x in t) for t in perms
        ):
            raise ValueError("listed group spec perms must be a list of lists of JSON integers, "
                             f"got {json.dumps(perms, default=repr)}")
        return PermGroup.generated([Perm.from_table(t) for t in perms])
    if kind == "z_translations":
        return PermGroup.z_translations()
    if kind == "z_finitary":
        return PermGroup.z_finitary_affine()
    raise ValueError(f"unknown group kind {kind!r}")


def standard_generators(F: PermGroup) -> list[TreeAut]:
    """A deterministic generating set for the universal group of F: constant
    portraits at the base vertex plus two rigid motions."""
    gens: list[TreeAut] = []
    if F.kind == "finite":
        gens += [TreeAut.from_constant(p, V0) for p in F.elements if not p.is_identity()]
    else:
        gens.append(TreeAut.from_constant(Perm.z_translation(1), V0))
    ident = Perm.identity(F.degree)
    gens.append(TreeAut.from_constant(ident, (0,)))
    gens.append(TreeAut.from_constant(ident, (0, 1)))
    return gens


_NEW_LIST = object()  # a default that stands for a new empty list


class Certificate(Record):
    """The desk-scale evidence bundle: group data, the witness pair and its
    defining edge, orbit truncation parameters, per-stage check results, and
    the depth caveats that qualify them.  `caveats` defaults to a new empty
    list.  The fields, in order, are the keys of the serialized body besides
    "version"."""

    __slots__ = ("config", "group", "edge", "witness_a", "witness_b", "orbit", "checks",
                 "caveats", "status")

    def __init__(self, config: dict, group: dict, edge: dict, witness_a: dict | None,
                 witness_b: dict | None, orbit: dict | None, checks: dict,
                 caveats: list[str] = _NEW_LIST, status: str = "VALID"):
        caveats = [] if caveats is _NEW_LIST else caveats
        super().__init__(config, group, edge, witness_a, witness_b, orbit, checks, caveats, status)

    def to_dict(self) -> dict:
        # the field values themselves, not copies: callers only read them
        return {"version": CERT_VERSION, **{name: getattr(self, name) for name in self.__slots__}}


# the integer bounds of a config and their defaults
_BOUND_DEFAULTS = {"word_length": 3, "depth": 16, "seed": 0, "search_len": 3}


def normalize_config(config: dict) -> dict:
    """The config with every key filled in.  A config that is not a JSON
    object, or a bound that is not a JSON integer (null, a boolean, a float
    or a string), is bad input: a ValueError."""
    if not isinstance(config, dict):
        raise ValueError(f"config must be a JSON object, got {json.dumps(config, default=repr)}")
    group_source(config)  # on the raw config: the copy below drops free_product
    out = {key: config.get(key) for key in ("preset", "groups", "wreath")}
    for key, default in _BOUND_DEFAULTS.items():
        out[key] = json_typed(config.get(key, default), int, key)
    if min(out["word_length"], out["depth"], out["search_len"]) < 1:
        raise ValueError("numeric bounds must be positive")
    return out


def build_certificate(config: dict) -> Certificate:
    """Run the whole pipeline for one configuration.

    Stages: independent-hyperbolic witness search, half-tree fixator pair at
    a fixed edge, orbit truncation of the periodic end (01)^oo, the disjoint
    support check, the convolution annihilation identity, and the
    commutation of the pair.  The first failing stage marks the certificate
    INVALID.  Deterministic for a fixed config.
    """
    cfg = normalize_config(config)
    cert = Certificate(
        config=cfg, group={}, edge={}, witness_a=None, witness_b=None, orbit=None, checks={}
    )
    F, Fp, label = resolve_groups(cfg)
    edge = DirectedEdge(V0, 0)
    stab_reason = None
    try:
        stab_reason = point_stabilizer(Fp, edge.color).amenability_reason
    except ValueError:
        stab_reason = "unavailable"
    cert.group = {
        "label": label,
        "omega": "Z" if F.degree is None else F.degree,
        "F": F.describe(),
        "Fp": Fp.describe(),
        "edge_stabilizer_amenability": stab_reason,
    }
    cert.edge = {"tail": list(edge.tail), "color": edge.color}

    gens = standard_generators(F)
    witness = general_type_witness(gens, cfg["search_len"])
    cert.checks["general_type"] = {
        "found": witness is not None,
        "search_len": cfg["search_len"],
    }
    if witness is None:
        cert.status = "INVALID:general_type"
        return cert

    try:
        a, b = disjoint_support_pair(F, Fp, edge)
    except (ValueError, AssertionError) as exc:
        cert.status = "INVALID:fixator_witness"
        cert.checks["fixator_witness"] = {"error": str(exc)}
        return cert
    cert.witness_a = aut_to_data(a)
    cert.witness_b = aut_to_data(b)

    fix_a = fixes_half_tree_pointwise(a, edge.reversed())
    fix_b = fixes_half_tree_pointwise(b, edge)
    cert.checks["half_tree_fixation"] = {"a_fixes_tail_side": fix_a, "b_fixes_head_side": fix_b}
    if not (fix_a and fix_b):
        cert.status = "INVALID:half_tree_fixation"
        return cert

    xi = PeriodicEnd((), (0, 1))
    orbit = orbit_truncate([a, b] + gens, xi, cfg["word_length"], cfg["depth"])
    cert.orbit = {
        "end": {"prefix": list(xi.prefix), "period": list(xi.period)},
        "word_length": orbit.word_length,
        "depth": orbit.depth,
        "points": len(orbit.points),
        "heuristic_bound": orbit.heuristic_bound,
        "depth_warning": orbit.depth_warning,
    }
    cert.caveats.append(f"orbit points identified by ray prefixes at depth {orbit.depth}")
    if orbit.depth_warning:
        cert.caveats.append(
            f"depth {orbit.depth} below the heuristic bound {orbit.heuristic_bound}"
        )

    disjoint = disjoint_support_check(a, b, orbit)
    cert.checks["disjoint_support"] = disjoint
    if not disjoint:
        cert.status = "INVALID:disjoint_support"
        return cert

    report = convolution_annihilation_check(a, b, orbit)
    cert.checks["annihilation"] = {
        "total": report.total,
        "passed": report.passed,
        "failures": [list(w) for w, _ in report.failures],
    }
    if not report.ok:
        cert.status = "INVALID:annihilation"
        return cert

    commute = (a * b) == (b * a)
    cert.checks["commute"] = commute
    if not commute:
        cert.status = "INVALID:commute"
        return cert

    cert.status = "VALID"
    return cert


# -- certificate (de)serialization ----------------------------------------------


def serialize_certificate(cert: Certificate) -> str:
    body = json.dumps(cert.to_dict(), sort_keys=True, indent=1)
    return f"{CERT_VERSION}\n{body}\n"


def parse_certificate(text: str) -> Certificate:
    header, _, body = text.partition("\n")
    if header.strip() != CERT_VERSION:
        raise ValueError(f"unsupported certificate version {header.strip()!r}")
    data = json.loads(body)
    if not isinstance(data, dict):
        raise ValueError("certificate body must be a JSON object")
    if data.get("version") != CERT_VERSION:
        raise ValueError("certificate body version mismatch")
    return Certificate(
        **{name: require_key(data, name, "certificate body") for name in Certificate.__slots__}
    )


def verify_certificate(text: str) -> tuple[bool, str]:
    """Re-run the pipeline from the embedded config and compare bit-for-bit;
    on a mismatch, name the first JSON key path where the two differ."""
    cert = parse_certificate(text)
    rebuilt = build_certificate(cert.config)
    if serialize_certificate(rebuilt) == text:
        return True, "certificate re-verified bit-identically"
    path = _first_difference(cert.to_dict(), rebuilt.to_dict())
    where = "in formatting only" if path is None else "at " + ".".join(map(str, path))
    return False, f"re-run disagrees with the stored certificate {where}"


def _first_difference(a, b, path=()):
    """The key path, in serialized order, of the first place where two JSON
    values differ (list positions are indices), or None if they are equal."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            if k not in a or k not in b:
                return path + (k,)
            found = _first_difference(a[k], b[k], path + (k,))
            if found is not None:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            found = _first_difference(x, y, path + (i,))
            if found is not None:
                return found
        return None if len(a) == len(b) else path + (min(len(a), len(b)),)
    return None if type(a) is type(b) and a == b else path
