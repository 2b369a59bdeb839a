"""Batch front-end: parse a run configuration, drive the pipeline, and emit
certificates and human-readable reports.

Subcommands: certify (full pipeline to a certificate file), classify (isometry
type and class membership of one element), orbit (truncated boundary orbit),
witness (half-tree fixator witnesses, or the branch-swap element over the
free-product preset "pslz"), verify (re-run a stored certificate).  Configs
are JSON files; the same data can be given by flags.

`COMMANDS` lists each command's flags.  `parse_args` reads the plain form,
`--flag value` with full flag names, itself, and hands every other argv to an
argparse parser built from the same table, so argparse alone defines the
syntax: prefixes, `--flag=value`, `--`, -h/--help, and usage errors, which
exit 2 with `error:` on stderr.
`orbit` prints the certificate's orbit: words over the witness pair a, b and
then the standard generators of F.

Exit status: 0 success/VALID; 1 when a stage fails on an admissible pair
(INVALID); 2 for parse or configuration errors, among them a pair that
breaks a hypothesis (F acts freely, F is a proper subgroup of F', F'
preserves the F-orbits), rejected before any stage runs; 3 for any other
exception, an internal error such as a failed consistency check: a bug.
"""

from __future__ import annotations

import json
import sys

from .cstar_obstruction import (
    build_certificate,
    disjoint_support_pair,
    fixator_witness,
    group_source,
    normalize_config,
    orbit_truncate,
    require_admissible_pair,
    resolve_groups,
    serialize_certificate,
    standard_generators,
    verify_certificate,
)
from .dynamics import Elliptic, Inversion, classify_isometry
from .perm_groups import point_stabilizer
from .portraits import GroupClass, TreeAut, aut_from_data, aut_to_data, decode_json, require_key
from .tree_core import V0, DirectedEdge, periodic_end, ray_prefix


def _load_config(args) -> dict:
    config: dict = {}
    if args.get("config"):
        with open(args["config"]) as fh:
            config = decode_json(fh.read(), "config file")
        if not isinstance(config, dict):
            raise ValueError("config file must hold a JSON object")
    if args.get("preset"):
        if config.get("preset") and config["preset"] != args["preset"]:
            raise ValueError("preset given both in the config file and on the command line")
        config["preset"] = args["preset"]
    for key in ("word_length", "depth", "seed"):
        value = args.get(key)
        if value is not None:
            config[key] = value
    return config


def _parse_element(text: str, gens: list[TreeAut], deg) -> TreeAut:
    text = text.strip()
    if text == "identity":
        return TreeAut.identity(deg)
    if text.startswith("{"):
        return aut_from_data(decode_json(text, "--element"))
    el = TreeAut.identity(deg)
    for token in text.split():
        inverse = token.endswith("^-1")
        name = token[:-3] if inverse else token
        if not (name.startswith("g") and name[1:].isascii() and name[1:].isdecimal()):
            raise ValueError(f"bad generator token {token!r}")
        idx = int(name[1:])
        if not 0 <= idx < len(gens):
            raise ValueError(f"generator index {idx} out of range (have {len(gens)})")
        el = el * (gens[idx].inverse() if inverse else gens[idx])
    return el


def _write_or_print(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_certify(args) -> int:
    cert = build_certificate(_load_config(args))
    text = serialize_certificate(cert)
    out_path = args["out"] or "certificate.txt"
    with open(out_path, "w") as fh:
        fh.write(text)
    print(f"group: {cert['group'].get('label', '?')}")
    for stage, result in sorted(cert["checks"].items()):
        print(f"check {stage}: {result}")
    for caveat in cert["caveats"]:
        print(f"caveat: {caveat}")
    print(f"status: {cert['status']}")
    print(f"certificate written to {out_path}")
    return 0 if cert["status"] == "VALID" else 1


def cmd_classify(args) -> int:
    config = _load_config(args)
    F, Fp, label = resolve_groups(config)
    g = _parse_element(args["element"], standard_generators(F), F.degree)
    cls = classify_isometry(g)
    if isinstance(cls, Elliptic):
        vname = "".join(map(str, cls.fixed_vertex)) or "v0"
        lines = [f"isometry type: elliptic, fixes vertex {vname}", "translation length: 0"]
    elif isinstance(cls, Inversion):
        tail = "".join(map(str, cls.edge.tail)) or "v0"
        lines = [f"isometry type: inversion of the color-{cls.edge.color} edge at {tail}",
                 "translation length: 0"]
    else:
        lines = ["isometry type: hyperbolic", f"translation length: {cls.length}"]
    flags = {
        "U(F)": GroupClass.universal(F).contains(g),
        "G(F,F')": GroupClass.prescribed(F, Fp).contains(g),
        "G(F,F')*": GroupClass.prescribed_star(F, Fp).contains(g),
    }
    lines += [f"member of {name}: {'yes' if member else 'no'}" for name, member in flags.items()]
    _write_or_print("\n".join(lines) + "\n", args["out"])
    return 0


def cmd_orbit(args) -> int:
    config = normalize_config(_load_config(args))
    F, Fp, label = resolve_groups(config)
    require_admissible_pair(F, Fp)
    # the certificate's orbit: the witness pair, then the generators of F
    gens = [*disjoint_support_pair(F, Fp, DirectedEdge(V0, 0)), *standard_generators(F)]
    xi = periodic_end((), (0, 1))
    orbit = orbit_truncate(gens, xi, config["word_length"], config["depth"])
    pre, per = ("".join(map(str, w)) for w in xi)
    print(f"group: {label}")
    print(f"end: End({pre}({per})^oo), word length {orbit.word_length}, depth {orbit.depth}")
    if orbit.depth_warning:
        print(f"warning: depth below heuristic bound {orbit.heuristic_bound}")
    print(f"points: {len(orbit.points)}")
    lines = []
    for word, end in orbit.points:
        wname = ".".join(map(str, word)) or "e"
        lines.append(f"  {wname}: {''.join(map(str, ray_prefix(end, orbit.depth)))}")
    output = "\n".join(lines) + "\n"
    _write_or_print(output, args["out"])
    return 0


def cmd_witness(args) -> int:
    config = _load_config(args)
    source = group_source(config)
    if source == "free_product" or config.get("preset") == "pslz":
        # only this branch needs the piecewise module, so only it loads it
        from .piecewise import FreeProductTree, psl2z_tree, pw_half_tree_fixator

        if source == "free_product":
            tables = config["free_product"]
            tree = FreeProductTree(*(require_key(tables, k, "free_product") for k in "ab"))
        else:
            tree = psl2z_tree()
        side = 1 if len(tree.tables[1]) >= 3 else 0
        v = (side, ())
        rotor = tree.letter(side, next(
            i for i in range(len(tree.tables[side])) if i != tree.ident[side]
        ))
        n1 = (1 - side, ())
        gamma = pw_half_tree_fixator(tree, rotor, v, n1, tree.act(rotor, n1))
        ok, msg = gamma.validate()
        sizes = (len(tree.tables[0]), len(tree.tables[1]))
        print(f"branch-swap element over the {sizes}-biregular free-product tree")
        print(f"valid: {ok} ({msg})")
        print(f"nontrivial: {not gamma.is_identity()}")
        third = next(n for n in tree.neighbors(v) if n not in (n1, tree.act(rotor, n1)))
        print(f"fixes the half-tree beyond {third}: {gamma.fixes_half_tree((v, third))}")
        return 0
    F, Fp, label = resolve_groups(config)
    require_admissible_pair(F, Fp)
    stab = point_stabilizer(Fp, 0)
    g = fixator_witness(F, Fp, DirectedEdge(V0, 0), stab.sample_nontrivial())
    print(f"group: {label}")
    print(f"witness fixing the half-tree at edge (v0, color 0); stabilizer reason: "
          f"{stab.amenability_reason}")
    data = json.dumps(aut_to_data(g), sort_keys=True)
    _write_or_print(data + "\n", args["out"])
    return 0


def cmd_verify(args) -> int:
    with open(args["certificate"]) as fh:
        text = fh.read()
    ok, msg = verify_certificate(text)
    print(msg)
    return 0 if ok else 1


# each command: its handler, summary and the options it takes.  Every option
# but the positional `certificate` is a flag with one value, an int for the
# bounds.
COMMANDS = {
    "certify": (cmd_certify, "run the full pipeline and write a certificate",
                ("--preset", "--config", "--word-length", "--depth", "--seed", "--out")),
    "classify": (cmd_classify, "classify one element and report class membership",
                 ("--preset", "--config", "--out", "--element")),
    "orbit": (cmd_orbit, "print a truncated boundary orbit",
              ("--preset", "--config", "--word-length", "--depth", "--out")),
    "witness": (cmd_witness, "construct and print a half-tree fixator witness",
                ("--preset", "--config", "--out")),
    "verify": (cmd_verify, "re-run a stored certificate and compare", ("certificate",)),
}
_INTS = ("--word-length", "--depth", "--seed")


def _key(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_")


def parse_args(argv: list[str]) -> dict:
    """Parse the command line: the command and every option of that command,
    None where not given.  The plain form, a command and then full flag names
    each followed by a value that does not start with a dash (for `verify`,
    one such path), is read here; every other argv goes to argparse, which
    prints help, reports usage errors and reads prefixes, `=`, `--` and
    values that start with a dash."""
    command, rest = (argv[0], argv[1:]) if argv else (None, [])
    if command in COMMANDS:
        flags = COMMANDS[command][2]
        args = {"command": command, **dict.fromkeys(map(_key, flags))}
        if command == "verify":
            if len(rest) == 1 and rest[0][:1] != "-":
                args["certificate"] = rest[0]
                return args
        elif len(rest) % 2 == 0:
            try:
                for flag, value in zip(rest[::2], rest[1::2]):
                    if flag not in flags or value[:1] == "-":
                        break
                    args[_key(flag)] = int(value) if flag in _INTS else value
                else:
                    if command != "classify" or args["element"] is not None:
                        return args
            except ValueError:  # argparse reports the value that is not an int
                pass
    return _parse_with_argparse(argv)


def _parse_with_argparse(argv: list[str]) -> dict:
    import argparse  # only help and the argv outside the plain form need it

    parser = argparse.ArgumentParser(
        prog="arboreal", description="certificates for prescribed-local-action tree groups")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary, flags) in COMMANDS.items():
        command = sub.add_parser(name, help=summary, description=summary)
        for flag in flags:
            kwargs = {"type": int} if flag in _INTS else {}
            if flag == "--element":
                kwargs["required"] = True
            command.add_argument(flag, **kwargs)
    return vars(parser.parse_args(argv))


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return COMMANDS[args["command"]][0](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # any other exception is a bug, not bad input
        print(f"internal error: {exc} ({type(exc).__name__})", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
