"""The mutation catalogue: changes to the source that the tier-1 tests must
catch, and a runner that checks they still do.

Each entry names one exact text of one source file, its replacement, and
the pytest node ids of which at least one must fail once the replacement is
made.  Run from the repository root, with pytest installed:

    python tests/mutants.py            # every entry, then the no-op control
    python tests/mutants.py ID ...     # only the named entries

The runner copies `src/`, `tests/` and `README.md` to a temporary directory
(the command-line tests find `src` next to `tests`), applies one entry at a
time, runs its node ids with `pytest -x` and reports the entry as killed (a
node failed) or survived (all passed).  The control `NO_OP` rewrites a line
into an equivalent one, so it must survive: that shows the runner can tell
the two apart.  The exit status is 0 when every entry is killed and the
control survives, 1 otherwise.

`tests/test_mutants.py` (tier-1) checks that each old text occurs exactly
once in the current source.  A change that moves or rewrites such a text
must update the entry, or retire it into `RETIRED` with the reason.  This
file is not named `test_*.py`, so pytest does not collect it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

Mutant = namedtuple("Mutant", "id file old new nodes")

PORTRAITS = "src/arboreal/portraits.py"
CLI = "src/arboreal/cli.py"
CSTAR = "src/arboreal/cstar_obstruction.py"

GROUP_LAWS = "tests/test_properties.py::test_group_laws"
PRODUCT_REFERENCE = "tests/test_properties.py::test_product_matches_the_per_edge_reference"
END_IMAGE = "tests/test_properties.py::test_end_image_is_the_canonical_end_of_the_image_rays"
PARSER = ["tests/test_cli.py::test_parser_accepts_what_argparse_accepted",
          "tests/test_cli.py::test_parser_rejects_what_argparse_rejected"]

MUTANTS = [
    # the edge inversions of U(F)'s generators: one per F-orbit, not only at
    # color 0 (an intransitive F then generates too little to be of general type)
    Mutant("standard-generators-one-edge", CSTAR,
           "edge_colors = [min(o) for o in orbits(F)]",
           "edge_colors = [0]",
           ["tests/test_cstar.py::test_every_admissible_pair_of_small_degree_certifies_valid",
            "tests/test_cstar.py::test_relabelling_the_colors_keeps_the_status"]),
    # the image of a periodic end: the trim, and the cut past the base and the core
    Mutant("end-image-no-trim", PORTRAITS,
           "return trim_end(image[:-n], image[-n:])",
           "return image[:-n], image[-n:]",
           [END_IMAGE]),
    Mutant("end-image-cut-without-base", PORTRAITS,
           "self._cut = max(map(len, (self.base, *core)))",
           "self._cut = max(map(len, core))",
           [END_IMAGE]),
    Mutant("end-image-cut-short-of-base", PORTRAITS,
           "self._cut = max(map(len, (self.base, *core)))",
           "self._cut = max(len(self.base) - 1, *map(len, core))",
           [END_IMAGE]),
    Mutant("end-image-cut-short-of-core", PORTRAITS,
           "self._cut = max(map(len, (self.base, *core)))",
           "self._cut = max(len(self.base), *(len(u) - 1 for u in core))",
           [END_IMAGE, "tests/test_cstar.py::test_orbit_truncation_matches_independent_enumerator"]),
    # the padded form keeps a finite default only where it covers a frontier color
    Mutant("extended-keeps-stale-defaults", PORTRAITS,
           "defaults = {u: f for u, f in defaults.items() if taken[u] + bool(u) < self.deg}",
           "defaults = dict(defaults)",
           ["tests/test_dynamics.py::test_half_tree_fixation_reads_no_default_the_padding_left_uncovered",
            "tests/test_properties.py::test_finite_frontier_is_stored_as_its_majority_rule_and_exceptions"]),
    # the plain command-line reader hands everything else to argparse
    Mutant("parser-dash-led-value", CLI,
           'if flag not in flags or value[:1] == "-":',
           "if flag not in flags:",
           PARSER),
    Mutant("parser-element-not-required", CLI,
           'if command != "classify" or args["element"] is not None:',
           "if True:",
           PARSER),
    Mutant("parser-dash-led-certificate", CLI,
           'if len(rest) == 1 and rest[0][:1] != "-":',
           "if len(rest) == 1:",
           [*PARSER, "tests/test_cli.py::test_parser_help_exits_0"]),
    Mutant("parser-odd-length", CLI,
           "elif len(rest) % 2 == 0:",
           "else:",
           PARSER),
    # the closed form of constant portraits
    Mutant("constant-product-swapped", PORTRAITS,
           "return TreeAut.from_constant(f * f_h, g.evaluate(h.base))",
           "return TreeAut.from_constant(f_h * f, g.evaluate(h.base))",
           [GROUP_LAWS, PRODUCT_REFERENCE]),
    Mutant("constant-product-base", PORTRAITS,
           "return TreeAut.from_constant(f * f_h, g.evaluate(h.base))",
           "return TreeAut.from_constant(f * f_h, h.evaluate(g.base))",
           [GROUP_LAWS, PRODUCT_REFERENCE]),
    Mutant("constant-inverse-base", PORTRAITS,
           "self._inv = TreeAut.from_constant(f.inv(), base)",
           "self._inv = TreeAut.from_constant(f.inv(), self.base)",
           [GROUP_LAWS]),
    # the general product composes both factors' padded rule maps
    Mutant("product-core-swapped", PORTRAITS,
           "core = {u: core_g[x] * core_h[u] for u, x in img.items()}",
           "core = {u: core_h[u] * core_g[x] for u, x in img.items()}",
           [GROUP_LAWS, PRODUCT_REFERENCE]),
    Mutant("product-rule-swapped", PORTRAITS,
           "branches = {(u, c): branches_g.get((img[u], core_h[u](c)), defaults_g.get(img[u]))\n"
           "                    * branches_h.get((u, c), defaults_h.get(u)) for u, c in listed}",
           "branches = {(u, c): branches_h.get((u, c), defaults_h.get(u))\n"
           "                    * branches_g.get((img[u], core_h[u](c)), defaults_g.get(img[u]))"
           " for u, c in listed}",
           [GROUP_LAWS, PRODUCT_REFERENCE]),
    Mutant("product-drops-g-colors", PORTRAITS,
           "listed = set(branches_h) | {(pre[x], core_h[pre[x]].inv()(c)) for x, c in branches_g}",
           "listed = set(branches_h)",
           [GROUP_LAWS, PRODUCT_REFERENCE]),
    Mutant("product-drops-h-colors", PORTRAITS,
           "listed = set(branches_h) | {(pre[x], core_h[pre[x]].inv()(c)) for x, c in branches_g}",
           "listed = {(pre[x], core_h[pre[x]].inv()(c)) for x, c in branches_g}",
           [GROUP_LAWS, PRODUCT_REFERENCE]),
    # the fixator's branch rules at the edge's tail
    Mutant("fixator-skips-first-letter", CSTAR,
           "if not t or c != t[-1]",
           "if not t or c != t[0]",
           ["tests/test_cstar.py::test_fixators_at_any_short_edge_fix_their_half_trees"]),
    Mutant("fixator-branches-at-base", CSTAR,
           "(t, c): _matching_f_element(F, c, sigma(c))",
           "((), c): _matching_f_element(F, c, sigma(c))",
           ["tests/test_cstar.py::test_fixators_at_any_short_edge_fix_their_half_trees"]),
]

# the control: an equivalent spelling of the end-image trim
NO_OP = Mutant("no-op", PORTRAITS,
               "return trim_end(image[:-n], image[-n:])",
               "return trim_end(image[:len(image) - n], image[len(image) - n:])",
               [END_IMAGE])

# entries whose old text is gone from the source, each with the reason
RETIRED = [
    ("product-finite-special-colors",
     "the general product no longer treats a finite degree's frontier colors apart: "
     "it composes both factors' padded rule maps, which product-drops-g-colors and "
     "product-drops-h-colors mutate"),
]

# a mutant is killed by its first failing example: Hypothesis neither shrinks
# it nor replays examples that an earlier entry saved
CONFTEST = """from hypothesis import Phase, settings

settings.register_profile("mutants", phases=[Phase.explicit, Phase.generate, Phase.target],
                          database=None)
settings.load_profile("mutants")
"""


def run(mutant: Mutant, tree: Path) -> str:
    """'killed' or 'survived' for one entry applied to the copy at tree;
    raises RuntimeError when pytest does not run the nodes (a missing node
    id, a collection error)."""
    path = tree / mutant.file
    original = path.read_text()
    if original.count(mutant.old) != 1:
        raise RuntimeError(f"{mutant.id}: the old text does not occur exactly once")
    path.write_text(original.replace(mutant.old, mutant.new))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.nodes],
            cwd=tree, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"})
    finally:
        path.write_text(original)
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"{mutant.id}: pytest exited {proc.returncode}\n{proc.stdout[-2000:]}")
    return "survived" if proc.returncode == 0 else "killed"


def main(ids: list[str]) -> int:
    entries = [*MUTANTS, NO_OP]
    unknown = set(ids) - {m.id for m in entries}
    if unknown:
        print(f"unknown entries: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name, ignore=skip)
        shutil.copy(ROOT / "README.md", tree)
        (tree / "tests" / "conftest.py").write_text(CONFTEST)
        for m in entries:
            if ids and m.id not in ids:
                continue
            t0 = time.perf_counter()
            outcome = run(m, tree)
            expected = "survived" if m is NO_OP else "killed"
            ok &= outcome == expected
            flag = "" if outcome == expected else f"  (expected {expected})"
            print(f"{m.id:32} {outcome:9} {time.perf_counter() - t0:5.1f} s{flag}", flush=True)
    for rid, reason in RETIRED:
        print(f"{rid:32} retired: {reason}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
