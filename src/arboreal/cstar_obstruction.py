"""The finite obstruction pipeline and its certificates.

Given permutation groups F < F' with F acting freely and F' preserving the
F-orbits, the group of tree automorphisms with local action prescribed by F'
everywhere and by F almost everywhere contains nontrivial pointwise fixators
of half-trees.  Fixators supported in the two half-trees of one edge have
disjoint support on any boundary orbit, so the convolution operator
(1-a)(1-b) kills every basis vector of the orbit's ell^2 space:
delta_eta - delta_{b eta} - delta_{a eta} + delta_{ab eta} = 0.

This module builds the witnesses, enumerates a boundary orbit as exact ends,
checks the identity on each of them exactly, and bundles everything into a
versioned, re-verifiable certificate.  Amenability facts are never decided:
they enter certificates only as structural annotations that the permutation
groups record.
"""

from __future__ import annotations

import json

from .dynamics import distinct_letters, fixes_half_tree_pointwise, general_type_witness
from .perm_groups import (
    Perm,
    PermGroup,
    check_freeness,
    check_orbit_preservation,
    check_wreath_degree,
    cyclic_table,
    orbits,
    perm_disagreement,
    point_stabilizer,
    wreath_embedding,
)
from .portraits import (
    GroupClass,
    TreeAut,
    aut_to_data,
    decode_json,
    enumerate_branch_constant,
    json_typed,
    require_key,
)
from .tree_core import (
    V0,
    DirectedEdge,
    End,
    Record,
    enumerate_ball,
    neighbor,
    periodic_end,
    ray_prefix,
)

CERT_VERSION = "arboreal-cert/1"
# the keys of a certificate body after "version", in the order they are built
BODY_KEYS = ("config", "group", "edge", "witness_a", "witness_b", "orbit", "checks", "caveats",
             "status")


# -- witness construction ------------------------------------------------------


def require_admissible_pair(F: PermGroup, Fp: PermGroup) -> None:
    """Raise ValueError, naming the failed hypothesis, unless F acts freely,
    F is a proper subgroup of F' and F' preserves the F-orbits."""
    if not check_freeness(F):
        raise ValueError("F must act freely on the color set")
    if not Fp.contains_group(F) or F.contains_group(Fp):
        raise ValueError(f"F must be a proper subgroup of F', got F = {F!r} and F' = {Fp!r}")
    if not check_orbit_preservation(F, Fp):
        raise ValueError("F' must preserve the orbits of F")


def _matching_f_element(F: PermGroup, b: int, target: int) -> Perm:
    """The element of the free group F (finite, or Z) sending b to target."""
    if F.kind == "z_translations":
        return Perm.z_translation(target - b)
    for p in F.elements:
        if p(b) == target:
            return p
    raise AssertionError(f"no element of F sends {b} to {target}")


def fixator_witness(F: PermGroup, Fp: PermGroup, h: DirectedEdge, sigma: Perm | None = None) -> TreeAut:
    """A nontrivial automorphism fixing the half-tree beyond the edge h pointwise.

    The local action is the identity throughout the half-tree, a nontrivial
    stabilizer element sigma of the edge color at the facing vertex, and on
    every other branch at the facing vertex the F-element matching sigma on
    the branch color.  The result lies in G(F,F') but (for nontrivial sigma)
    not in U(F).  The pair must pass `require_admissible_pair`.
    """
    t, a = h.tail, h.color
    deg = F.degree
    if sigma is None:
        sigma = point_stabilizer(Fp, a).sample_nontrivial()
        if sigma is None:
            raise AssertionError("no nontrivial stabilizer despite admissible pair")
    if sigma(a) != a:
        raise ValueError("sigma must fix the color of the defining edge")

    # the path from the base vertex to t moves rigidly; at t the default is
    # the F-element that matches sigma at cofinitely many colors: the
    # identity on finite colors, the translation by sigma's shift on the
    # integers.  F acts freely, so only the colors where sigma and the
    # default differ need rules
    rest = Perm.identity(deg)
    if h.is_cylinder and t:
        rest = _matching_f_element(F, t[-1], sigma(t[-1]))
    core = {t[:k]: rest for k in range(len(t))}
    core[t] = sigma
    default = Perm.identity(deg) if deg is not None else Perm.z_translation(sigma.shift)
    defaults = {**core, t: default}
    branches = {
        (t, c): _matching_f_element(F, c, sigma(c))
        for c in perm_disagreement(sigma, default)
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


def disjoint_support_pair(F: PermGroup, Fp: PermGroup, e: DirectedEdge, sigma: Perm | None = None
                          ) -> tuple[TreeAut, TreeAut]:
    """Nontrivial fixators of the two half-trees at e: the first fixes the
    tail side (so its support lies in the head side), the second the reverse.
    Both take one sigma fixing e's color, by default the one `fixator_witness`
    takes; disjointly supported ones commute."""
    if sigma is None:
        sigma = point_stabilizer(Fp, e.color).sample_nontrivial()
    a = fixator_witness(F, Fp, e.reversed(), sigma)
    b = fixator_witness(F, Fp, e, sigma)
    return a, b


# -- orbit truncation and the convolution identity ----------------------------


def orbit_truncate(gens: list[TreeAut], xi: End, word_length: int, depth: int
                   ) -> tuple[dict, list[tuple[tuple[int, ...], End]]]:
    """Enumerate the orbit of the end under short products of the generators,
    as the certificate's orbit block and the points behind it.

    Breadth-first over exact ends, never over group elements: the word
    (i,) + w maps the end to a_i(w(xi)), so layer k applies each letter of
    `distinct_letters` to the ends of layer k-1 and keeps an image only if
    no earlier word reached that same end.  The tail w of the first word of
    an end is the first word of its own end, so this keeps the first word
    of every end within the word length.  The points are (word, end) pairs,
    one for each ray prefix of the stated depth: the first word, in (length,
    lex) order, whose image of xi has that prefix, and that image as the
    (prefix, period) pair of `periodic_end`; so their count is a lower bound
    for the true orbit.  The block is the certificate's `orbit` value: the
    end, the bounds, the point count, and a heuristic bound that grows with
    the largest generator displacement, with a flag, which no check reads,
    for a depth below it.
    """
    letters = distinct_letters(gens)
    margin = max(len(g.base) for g in gens)
    bound = 2 * word_length * margin + len(xi[0]) + len(xi[1])
    layer = [((), xi)]
    kept = list(layer)
    seen = {layer[0][1]}
    for _ in range(word_length):
        nxt = []
        for i, a in letters:
            for word, end in layer:
                img = a.end_image(end)
                if img not in seen:
                    seen.add(img)
                    nxt.append(((i,) + word, img))
        layer = nxt
        kept += layer
    firsts = {}
    for word, end in kept:
        firsts.setdefault(ray_prefix(end, depth), (word, end))
    points = list(firsts.values())
    block = {"end": {"prefix": list(xi[0]), "period": list(xi[1])}, "word_length": word_length,
             "depth": depth, "points": len(points), "heuristic_bound": bound,
             "depth_warning": depth < bound}
    return block, points


def disjoint_support_check(a: TreeAut, b: TreeAut, points: list, depth: int) -> bool:
    """True iff no orbit point is moved by both a and b."""
    return not convolution_annihilation_check(a, b, points, depth).overlaps


class AnnihilationReport(Record):
    """Point-by-point verdicts for the convolution identity
    delta_eta - delta_{b eta} - delta_{a eta} + delta_{ab eta} = 0, and the
    words of the points that both a and b move (empty for disjoint support)."""

    __slots__ = ("total", "passed", "failures", "overlaps")

    def __init__(self, total: int, passed: int, failures: list[tuple[tuple[int, ...], str]],
                 overlaps: list[tuple[int, ...]]):
        super().__init__(total, passed, failures, overlaps)

    @property
    def ok(self) -> bool:
        return self.passed == self.total


def convolution_annihilation_check(a: TreeAut, b: TreeAut, points: list, depth: int
                                   ) -> AnnihilationReport:
    """Verify on exact ends that applying (1-a)(1-b) to each orbit point's
    basis vector gives zero: the multiset {eta, a b eta} must equal
    {a eta, b eta}.  One pass per point computes b eta and, where b moves
    eta, a eta and a b eta, and records the point's word if both a and b
    move it.  Where b fixes eta both multisets are {eta, a eta}, so the point
    passes and is no overlap whatever a eta is.  A failure names the four
    ends by their ray prefixes at the given depth."""
    failures, overlaps = [], []
    for word, eta in points:
        b_eta = b.end_image(eta)
        if b_eta == eta:
            continue
        a_eta, ab_eta = a.end_image(eta), a.end_image(b_eta)
        if a_eta != eta:
            overlaps.append(word)
        if sorted([eta, ab_eta]) != sorted([a_eta, b_eta]):
            rays = [ray_prefix(end, depth) for end in (eta, a_eta, b_eta, ab_eta)]
            failures.append((word, "{} -> {}, {}, {}".format(*rays)))
    return AnnihilationReport(
        total=len(points),
        passed=len(points) - len(failures),
        failures=failures,
        overlaps=overlaps,
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
    require_admissible_pair(F, Fp)
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


def pair_source(config: dict) -> str:
    """The group source of a config that must name an (F, F') pair: any of
    `group_source` but the free-product tables."""
    source = group_source(config)
    if source == "free_product":
        raise ValueError("free_product tables name a free-product tree, not an (F, F') pair")
    return source


def resolve_groups(config: dict) -> tuple[PermGroup, PermGroup, str]:
    """Resolve the (F, F') pair named by a config: a preset name, an explicit
    finite pair, or wreath parameters.  Exactly one source must be given."""
    source = pair_source(config)
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
            if name != f"wreath-z{n}-z{m}":  # int() also reads signs, spaces and other digits
                raise ValueError(f"bad wreath preset {name!r}")
            # the cap from n and m, before a table of n^2 or m^2 entries exists.
            # Past it both are at most 64 unless one is 0 or 1, and
            # wreath_embedding rejects such a pair with the same message when
            # the other factor is Z/2, so no larger table is built for it
            check_wreath_degree(n, m)
            if min(n, m) < 2:
                n, m = min(n, 2), min(m, 2)
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
        return PermGroup.generated([Perm(t) for t in perms])
    if kind == "z_translations":
        return PermGroup.z_translations()
    if kind == "z_finitary":
        return PermGroup.z_finitary_affine()
    raise ValueError(f"unknown group kind {kind!r}")


def standard_generators(F: PermGroup) -> list[TreeAut]:
    """A deterministic generating set for U(F), F free: by Bass-Serre theory,
    the vertex stabilizer F (constants at the base vertex) and one edge
    inversion at the base vertex per F-orbit, plus the glide to (0, 1).
    Each is a constant portrait, and so is every product of them."""
    gens: list[TreeAut] = []
    if F.kind == "finite":
        gens += [TreeAut.from_constant(p, V0) for p in F.elements if not p.is_identity()]
        edge_colors = [min(o) for o in orbits(F)]
    else:
        gens.append(TreeAut.from_constant(Perm.z_translation(1), V0))
        edge_colors = [0]
    ident = Perm.identity(F.degree)
    gens += [TreeAut.from_constant(ident, (c,)) for c in edge_colors]
    gens.append(TreeAut.from_constant(ident, (0, 1)))
    return gens


# the integer bounds of a config and their defaults
_BOUND_DEFAULTS = {"word_length": 3, "depth": 16, "seed": 0, "search_len": 3}
# the largest accepted bounds: the orbit grows about fivefold per letter, and
# word_length 6 on wreath-z3-z2 already takes about 2 s (2-core Xeon, Python 3.11)
_BOUND_CAPS = {"word_length": 6, "depth": 64, "search_len": 4}


def normalize_config(config: dict) -> dict:
    """The config with every key filled in.  A config that is not a JSON
    object, a bound that is not a JSON integer (null, a boolean, a float or
    a string), or a bound below 1 or above its cap in `_BOUND_CAPS` is bad
    input: a ValueError, raised before any group is built."""
    if not isinstance(config, dict):
        raise ValueError(f"config must be a JSON object, got {json.dumps(config, default=repr)}")
    pair_source(config)  # on the raw config: the copy below drops free_product
    out = {key: config.get(key) for key in ("preset", "groups", "wreath")}
    for key, default in _BOUND_DEFAULTS.items():
        out[key] = json_typed(config.get(key, default), int, key)
    if min(out["word_length"], out["depth"], out["search_len"]) < 1:
        raise ValueError("numeric bounds must be positive")
    for key, cap in _BOUND_CAPS.items():
        if out[key] > cap:
            raise ValueError(f"{key} must be at most {cap}, got {out[key]}")
    return out


def build_certificate(config: dict) -> dict:
    """Run the whole pipeline for one configuration.

    Stages: independent-hyperbolic witness search, half-tree fixator pair at
    a fixed edge, orbit truncation of the periodic end (01)^oo, the disjoint
    support check, the convolution annihilation identity, and the
    commutation of the pair.  The first failing stage marks the certificate
    INVALID.  Deterministic for a fixed config.

    The certificate is its JSON body: "version", then `BODY_KEYS` in order.
    A stage that does not run leaves its key null, or out of "checks".
    """
    cfg = normalize_config(config)
    F, Fp, label = resolve_groups(cfg)
    require_admissible_pair(F, Fp)
    edge = DirectedEdge(V0, 0)
    stab = point_stabilizer(Fp, edge.color)
    cert = {"version": CERT_VERSION, **dict.fromkeys(BODY_KEYS), "config": cfg, "checks": {},
            "caveats": []}
    checks, caveats = cert["checks"], cert["caveats"]
    cert["group"] = {
        "label": label,
        "omega": "Z" if F.degree is None else F.degree,
        "F": F.describe(),
        "Fp": Fp.describe(),
        "edge_stabilizer_amenability": stab.amenability_reason,
    }
    cert["edge"] = {"tail": list(edge.tail), "color": edge.color}

    gens = standard_generators(F)
    witness = general_type_witness(gens, cfg["search_len"])
    checks["general_type"] = {"found": witness is not None, "search_len": cfg["search_len"]}
    if witness is None:
        cert["status"] = "INVALID:general_type"
        return cert

    a, b = disjoint_support_pair(F, Fp, edge, stab.sample_nontrivial())
    cert["witness_a"] = aut_to_data(a)
    cert["witness_b"] = aut_to_data(b)

    fix_a = fixes_half_tree_pointwise(a, edge.reversed())
    fix_b = fixes_half_tree_pointwise(b, edge)
    checks["half_tree_fixation"] = {"a_fixes_tail_side": fix_a, "b_fixes_head_side": fix_b}
    if not (fix_a and fix_b):
        cert["status"] = "INVALID:half_tree_fixation"
        return cert

    orbit, points = orbit_truncate([a, b] + gens, periodic_end((), (0, 1)), cfg["word_length"],
                                   cfg["depth"])
    cert["orbit"] = orbit
    caveats.append(f"orbit points identified by ray prefixes at depth {orbit['depth']}")
    if orbit["depth_warning"]:
        caveats.append(f"depth {orbit['depth']} below the heuristic bound {orbit['heuristic_bound']}")

    report = convolution_annihilation_check(a, b, points, orbit["depth"])
    checks["disjoint_support"] = not report.overlaps
    if report.overlaps:
        cert["status"] = "INVALID:disjoint_support"
        return cert
    checks["annihilation"] = {
        "total": report.total,
        "passed": report.passed,
        "failures": [list(w) for w, _ in report.failures],
    }
    if not report.ok:
        cert["status"] = "INVALID:annihilation"
        return cert

    commute = (a * b) == (b * a)
    checks["commute"] = commute
    cert["status"] = "VALID" if commute else "INVALID:commute"
    return cert


# -- certificate (de)serialization ----------------------------------------------


def serialize_certificate(cert: dict) -> str:
    body = json.dumps(cert, sort_keys=True, indent=1)
    return f"{CERT_VERSION}\n{body}\n"


def parse_certificate(text: str) -> dict:
    """The decoded body of a certificate, every key kept.  A wrong version
    or a missing key of `BODY_KEYS` (the first, in their order) is a
    ValueError."""
    header, _, body = text.partition("\n")
    if header.strip() != CERT_VERSION:
        raise ValueError(f"unsupported certificate version {header.strip()!r}")
    data = decode_json(body, "certificate body")
    if not isinstance(data, dict):
        raise ValueError("certificate body must be a JSON object")
    if data.get("version") != CERT_VERSION:
        raise ValueError("certificate body version mismatch")
    for key in BODY_KEYS:
        require_key(data, key, "certificate body")
    return data


def verify_certificate(text: str) -> tuple[bool, str]:
    """Re-run the pipeline from the embedded config and compare bit-for-bit;
    on a mismatch, name the first JSON key path where the two differ."""
    body = parse_certificate(text)
    rebuilt = build_certificate(body["config"])
    if serialize_certificate(rebuilt) == text:
        return True, "certificate re-verified bit-identically"
    path = _first_difference(body, rebuilt)
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
