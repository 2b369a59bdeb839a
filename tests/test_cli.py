"""Command-line front-end: exit codes, determinism, and report content."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from arboreal.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_certify_preset_writes_valid_certificate(tmp_path, capsys):
    out = tmp_path / "cert.txt"
    code, stdout, _ = run_cli(
        ["certify", "--preset", "g-alt3-sym3", "--out", str(out)], capsys
    )
    assert code == 0
    assert "status: VALID" in stdout
    text = out.read_text()
    assert text.startswith("arboreal-cert/1\n")


def test_certify_is_byte_identical_for_fixed_config(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    run_cli(["certify", "--preset", "g-alt3-sym3", "--seed", "5", "--out", str(a)], capsys)
    run_cli(["certify", "--preset", "g-alt3-sym3", "--seed", "5", "--out", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_certify_invalid_pair_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "groups": {"F": {"kind": "alternating", "degree": 3},
                   "Fp": {"kind": "alternating", "degree": 3}},
    }))
    code, stdout, _ = run_cli(
        ["certify", "--config", str(cfg), "--out", str(tmp_path / "c.txt")], capsys
    )
    assert code == 1
    assert "INVALID:fixator_witness" in stdout


def test_malformed_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    code, _, err = run_cli(["certify", "--config", str(cfg)], capsys)
    assert code == 2
    assert "error:" in err


def test_missing_group_source_exits_2(capsys):
    code, _, err = run_cli(["certify"], capsys)
    assert code == 2


def test_conflicting_group_sources_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": "g-alt3-sym3",
                               "wreath": {"gamma": [[0]], "a": [[0]]}}))
    code, _, err = run_cli(["certify", "--config", str(cfg)], capsys)
    assert code == 2


def test_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "cert.txt"
    run_cli(["certify", "--preset", "wreath-z2-z2", "--depth", "14", "--out", str(out)], capsys)
    code, stdout, _ = run_cli(["verify", str(out)], capsys)
    assert code == 0
    assert "bit-identically" in stdout


def test_verify_names_the_first_tampered_key_path(tmp_path, capsys):
    out = tmp_path / "cert.txt"
    run_cli(["certify", "--preset", "g-alt3-sym3", "--word-length", "2", "--out", str(out)], capsys)
    text = out.read_text()
    tampered = text.replace('"total": ', '"total": 1', 1)
    assert tampered != text
    out.write_text(tampered)
    code, stdout, _ = run_cli(["verify", str(out)], capsys)
    assert code == 1
    assert "disagrees" in stdout
    assert stdout.strip().endswith("at checks.annihilation.total")


@pytest.mark.parametrize(
    "tamper, message",
    [
        (lambda data: {**data, "config": [1]}, "config must be a JSON object, got [1]"),
        (lambda data: [1], "certificate body must be a JSON object"),
    ],
)
def test_verify_non_object_config_or_body_exits_2(tmp_path, capsys, tamper, message):
    out = tmp_path / "cert.txt"
    run_cli(["certify", "--preset", "g-alt3-sym3", "--word-length", "2", "--out", str(out)], capsys)
    header, _, body = out.read_text().partition("\n")
    out.write_text(header + "\n" + json.dumps(tamper(json.loads(body))) + "\n")
    code, stdout, err = run_cli(["verify", str(out)], capsys)
    assert code == 2
    assert stdout == ""
    assert err == f"error: {message}\n"


def test_classify_identity(capsys):
    code, stdout, _ = run_cli(
        ["classify", "--preset", "g-alt3-sym3", "--element", "identity"], capsys
    )
    assert code == 0
    assert "elliptic" in stdout and "fixes vertex v0" in stdout
    assert "member of U(F): yes" in stdout
    assert "member of G(F,F'): yes" in stdout


def test_classify_generator_word(capsys):
    # g3 is the rigid glide with base (0, 1) in the standard generator list
    code, stdout, _ = run_cli(
        ["classify", "--preset", "g-alt3-sym3", "--element", "g3"], capsys
    )
    assert code == 0
    assert "hyperbolic" in stdout
    assert "translation length: 2" in stdout


def test_classify_serialized_witness_element(tmp_path, capsys):
    code, witness_json, _ = run_cli(["witness", "--preset", "g-alt3-sym3"], capsys)
    assert code == 0
    payload = witness_json.strip().splitlines()[-1]
    code, stdout, _ = run_cli(
        ["classify", "--preset", "g-alt3-sym3", "--element", payload], capsys
    )
    assert code == 0
    assert "elliptic" in stdout
    assert "member of U(F): no" in stdout
    assert "member of G(F,F'): yes" in stdout


def test_classify_writes_its_report_to_out(tmp_path, capsys):
    argv = ["classify", "--preset", "g-alt3-sym3", "--element", "g3"]
    _, printed, _ = run_cli(argv, capsys)
    out = tmp_path / "report.txt"
    code, stdout, _ = run_cli([*argv, "--out", str(out)], capsys)
    assert code == 0
    assert stdout == ""
    assert out.read_text() == printed


CLASSIFY = ["classify", "--preset", "g-alt3-sym3", "--element", "identity"]
WITNESS = ["witness", "--preset", "g-alt3-sym3"]


@pytest.mark.parametrize("argv", [
    [*CLASSIFY, "--word-length", "2"], [*CLASSIFY, "--depth", "8"], [*CLASSIFY, "--seed", "1"],
    [*WITNESS, "--word-length", "2"], [*WITNESS, "--depth", "8"], [*WITNESS, "--seed", "1"],
    ["orbit", "--preset", "g-alt3-sym3", "--seed", "1"],
    ["verify", "cert.txt", "--out", "out.txt"],
], ids=lambda a: f"{a[0]}{a[-2]}")
def test_options_no_stage_reads_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


_ID3 = [0, 1, 2]
_ELEMENT3 = {"degree": 3, "base": [], "core": [[[], _ID3]],
             "branches": [[[], c, _ID3] for c in range(3)]}
_ZID = {"shift": 0, "patch": []}
_ELEMENT_Z = {"degree": None, "base": [], "core": [[[], _ZID]], "branches": [],
              "defaults": [[[], _ZID]]}
_ZSWAP_TWICE = {"shift": 0, "patch": [[1, 2], [2, 1], [1, 2]]}  # the swap of 1 and 2


@pytest.mark.parametrize("preset, element, named", [
    pytest.param("g-alt3-sym3", "q9", None, id="bad-word"),
    # a generator token that is not g<index> is named whole, not by int()
    pytest.param("g-alt3-sym3", "gx", "bad generator token 'gx'", id="token-gx"),
    pytest.param("g-alt3-sym3", "g", "bad generator token 'g'", id="token-g"),
    pytest.param("g-alt3-sym3", "g1^-1^-1", "bad generator token 'g1^-1^-1'", id="token-double-inverse"),
    pytest.param("g-alt3-sym3", {**_ELEMENT3, "core": 5}, None, id="core-int"),
    pytest.param("g-alt3-sym3", {**_ELEMENT3, "base": 5}, None, id="base-int"),
    pytest.param("g-alt3-sym3", {**_ELEMENT3, "core": [[5, _ID3]]}, None, id="vertex-int"),
    pytest.param("g-alt3-sym3", {**_ELEMENT3, "degree": "3"}, None, id="degree-str"),
    pytest.param("g-alt3-sym3", {**_ELEMENT3, "core": [[[], [0, "x", 2]]]}, None, id="table-str"),
    pytest.param("g-alt3-sym3", {**_ELEMENT3, "core": [[[], [0, True, 2]]]}, None, id="table-bool"),
    pytest.param("g-alt3-sym3", {**_ELEMENT3, "branches": [[[], "0", _ID3]] + _ELEMENT3["branches"][1:]},
                 None, id="color-str"),
    pytest.param("z-translations", {**_ELEMENT_Z, "core": [[[], {"shift": 0, "patch": 5}]]},
                 None, id="patch-int"),
    pytest.param("z-translations", {**_ELEMENT_Z, "core": [[[], {"shift": "0", "patch": []}]]},
                 None, id="shift-str"),
    # a row of the wrong width is named by its field, not by Python's unpacking
    pytest.param("g-alt3-sym3", {**_ELEMENT3, "core": [[[]]]}, "core", id="core-row-width"),
    pytest.param("z-translations", {**_ELEMENT_Z, "core": [[[], {"shift": 0, "patch": [[1, 2, 3]]}]]},
                 "patch", id="patch-pair-width"),
    # the serialized degree must be that of the permutations
    pytest.param("g-alt3-sym3", {**_ELEMENT3, "degree": 4}, "degree", id="degree-4-tables-3"),
    pytest.param("g-alt3-sym3", {**_ELEMENT3, "degree": None}, "degree", id="degree-null-tables-3"),
    # at a finite degree every vertex letter and branch color is in range(degree)
    pytest.param("g-alt3-sym3", {**_ELEMENT3, "base": [5]}, "base", id="base-letter-5"),
    pytest.param("g-alt3-sym3", {**_ELEMENT3, "base": [-1]}, "base", id="base-letter-negative"),
    pytest.param("g-alt3-sym3", {**_ELEMENT3, "core": _ELEMENT3["core"] + [[[7], _ID3]]},
                 "core vertex", id="core-vertex-letter-7"),
    pytest.param("g-alt3-sym3", {**_ELEMENT3, "branches": _ELEMENT3["branches"] + [[[], 9, _ID3]]},
                 "branch color", id="branch-color-9"),
    # an entry listed twice is refused, not resolved in favour of the last one
    pytest.param("g-alt3-sym3", {**_ELEMENT3, "core": [[[], [1, 0, 2]], [[], _ID3]]},
                 "core entry () is listed twice", id="core-vertex-twice"),
    pytest.param("g-alt3-sym3", {**_ELEMENT3, "branches": _ELEMENT3["branches"] + [[[], 0, _ID3]]},
                 "branches entry ((), 0) is listed twice", id="frontier-edge-twice"),
    pytest.param("z-translations", {**_ELEMENT_Z, "defaults": [[[], _ZID], [[], _ZID]]},
                 "defaults entry () is listed twice", id="defaults-vertex-twice"),
    pytest.param("z-translations", {**_ELEMENT_Z, "core": [[[], _ZSWAP_TWICE]],
                                    "defaults": [[[], _ZSWAP_TWICE]]},
                 "patch entry 1 is listed twice", id="patch-point-twice"),
])
def test_classify_bad_element_exits_2(preset, element, named, capsys):
    text = element if isinstance(element, str) else json.dumps(element)
    code, _, err = run_cli(["classify", "--preset", preset, "--element", text], capsys)
    assert code == 2
    assert err.startswith("error: ")
    if named:
        assert named in err


@pytest.mark.parametrize("preset, element", [
    ("g-alt3-sym3", _ELEMENT3), ("z-translations", _ELEMENT_Z)])
def test_classify_serialized_identity(preset, element, capsys):
    # the elements each malformed case above alters in one field are valid
    code, stdout, _ = run_cli(
        ["classify", "--preset", preset, "--element", json.dumps(element)], capsys)
    assert code == 0
    assert "elliptic, fixes vertex v0" in stdout


def test_orbit_report(capsys):
    code, stdout, _ = run_cli(
        ["orbit", "--preset", "g-alt3-sym3", "--word-length", "2", "--depth", "12"], capsys
    )
    assert code == 0
    assert "points:" in stdout
    assert "e: 010101010101" in stdout


def test_witness_pslz_preset(capsys):
    code, stdout, _ = run_cli(["witness", "--preset", "pslz"], capsys)
    assert code == 0
    assert "valid: True" in stdout
    assert "nontrivial: True" in stdout
    assert "fixes the half-tree" in stdout


def test_witness_free_product_tables_config(tmp_path, capsys):
    cfg = tmp_path / "fp.json"
    cfg.write_text(json.dumps({
        "free_product": {"a": [[0, 1], [1, 0]],
                         "b": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]},
    }))
    code, stdout, _ = run_cli(["witness", "--config", str(cfg)], capsys)
    assert code == 0
    assert "(2, 3)-biregular" in stdout
    assert "valid: True" in stdout


@pytest.mark.parametrize("config, sources", [
    pytest.param({"preset": "g-alt3-sym3",
                  "free_product": {"a": [[0, 1], [1, 0]],
                                   "b": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}},
                 ["preset", "free_product"], id="preset-and-free-product"),
    pytest.param({"preset": "pslz", "wreath": {"gamma": [[0, 1], [1, 0]], "a": [[0, 1], [1, 0]]}},
                 ["preset", "wreath"], id="pslz-and-wreath"),
])
def test_witness_rejects_two_group_sources(tmp_path, capsys, config, sources):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, stdout, err = run_cli(["witness", "--config", str(cfg)], capsys)
    assert code == 2
    assert stdout == ""
    assert err == f"error: exactly one group source required, got {sources}\n"


@pytest.mark.parametrize("command", ["certify", "orbit"])
def test_free_product_beside_a_preset_exits_2(tmp_path, capsys, command):
    # the normalized config holds no free_product key, so only a check of
    # the raw config sees the second source
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": "g-alt3-sym3",
                               "free_product": {"a": [[0, 1], [1, 0]],
                                                "b": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}}))
    out = tmp_path / "out.txt"
    code, stdout, err = run_cli([command, "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 2
    assert stdout == ""
    assert err == "error: exactly one group source required, got ['preset', 'free_product']\n"
    assert not out.exists()


def test_witness_degree_two_free_product_exits_2(tmp_path, capsys):
    cfg = tmp_path / "fp22.json"
    cfg.write_text(json.dumps({
        "free_product": {"a": [[0, 1], [1, 0]], "b": [[0, 1], [1, 0]]},
    }))
    code, _, err = run_cli(["witness", "--config", str(cfg)], capsys)
    assert code == 2
    assert "degree" in err


def test_internal_error_exits_3(tmp_path, capsys, monkeypatch):
    def broken(config):
        raise AssertionError("axis ray prefix failed to stabilize")

    monkeypatch.setattr("arboreal.cli.build_certificate", broken)
    code, _, err = run_cli(
        ["certify", "--preset", "g-alt3-sym3", "--out", str(tmp_path / "c.txt")], capsys
    )
    assert code == 3
    assert "internal error: axis ray prefix failed to stabilize" in err


def test_search_len_below_1_is_a_config_error(tmp_path, capsys):
    for search_len in (0, -2):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"preset": "g-alt3-sym3", "search_len": search_len}))
        out = tmp_path / "c.txt"
        code, _, err = run_cli(["certify", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == 2
        assert "error: numeric bounds must be positive" in err
        assert not out.exists()


def test_groups_spec_without_F_exits_2(tmp_path, capsys):
    sym3 = {"kind": "symmetric", "degree": 3}
    cases = [
        ({"Fp": sym3}, "groups must be an object with the key 'F'"),
        ({"F": 3, "Fp": sym3}, "group spec must be an object with the key 'kind'"),
    ]
    for groups, message in cases:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"groups": groups}))
        code, _, err = run_cli(
            ["certify", "--config", str(cfg), "--out", str(tmp_path / "c.txt")], capsys
        )
        assert code == 2
        assert f"error: {message}" in err


def test_internal_key_error_exits_3(tmp_path, capsys, monkeypatch):
    def broken(config):
        raise KeyError("orbit")

    monkeypatch.setattr("arboreal.cli.build_certificate", broken)
    code, _, err = run_cli(
        ["certify", "--preset", "g-alt3-sym3", "--out", str(tmp_path / "c.txt")], capsys
    )
    assert code == 3
    assert "internal error: missing key 'orbit'" in err


@pytest.mark.parametrize("key", ["word_length", "depth", "seed", "search_len"])
@pytest.mark.parametrize("value, shown", [(None, "null"), (True, "true"), (2.0, "2.0"),
                                          ("2", '"2"')])
def test_non_integer_bound_is_a_config_error(tmp_path, capsys, key, value, shown):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": "g-alt3-sym3", key: value}))
    out = tmp_path / "c.txt"
    code, stdout, err = run_cli(["certify", "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 2
    assert stdout == ""
    assert err == f"error: {key} must be a JSON integer, got {shown}\n"
    assert not out.exists()


SYM3 = {"kind": "symmetric", "degree": 3}


@pytest.mark.parametrize("command", [["certify"], ["classify", "--element", "identity"],
                                     ["orbit"], ["witness"]], ids=lambda c: c[0])
@pytest.mark.parametrize("config, message", [
    pytest.param({"preset": [1]}, "preset must be a JSON string, got [1]", id="preset-list"),
    pytest.param({"preset": 7}, "preset must be a JSON string, got 7", id="preset-int"),
    pytest.param({"groups": {"F": {"kind": "alternating", "degree": "3"}, "Fp": SYM3}},
                 'alternating group spec degree must be a JSON integer, got "3"',
                 id="degree-string"),
    pytest.param({"groups": {"F": {"kind": "alternating", "degree": 3.0}, "Fp": SYM3}},
                 "alternating group spec degree must be a JSON integer, got 3.0",
                 id="degree-float"),
    pytest.param({"groups": {"F": {"kind": ["alternating"], "degree": 3}, "Fp": SYM3}},
                 'group spec kind must be a JSON string, got ["alternating"]', id="kind-list"),
    pytest.param({"groups": {"F": {"kind": "listed", "perms": 5}, "Fp": SYM3}},
                 "listed group spec perms must be a list of lists of JSON integers, got 5",
                 id="perms-int"),
    pytest.param({"groups": {"F": {"kind": "listed", "perms": [[0, 1, "x"]]}, "Fp": SYM3}},
                 "listed group spec perms must be a list of lists of JSON integers, "
                 'got [[0, 1, "x"]]', id="perms-string-entry"),
    pytest.param({"wreath": {"gamma": 5, "a": [[0]]}},
                 "group table must be a list of lists of JSON integers", id="wreath-gamma-int"),
    pytest.param({"wreath": {"gamma": [[0, 1], [1, 0.0]], "a": [[0, 1], [1, 0]]}},
                 "table entries must be integers indexing elements", id="wreath-float-entry"),
])
def test_ill_typed_group_source_is_a_config_error(tmp_path, capsys, command, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out.txt"
    code, stdout, err = run_cli([*command, "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 2
    assert stdout == ""
    assert err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("tables, message", [
    pytest.param({"a": 5, "b": [[0]]}, "group table must be a list of lists of JSON integers",
                 id="table-int"),
    pytest.param({"a": [[0, 1], [1, 0]], "b": [[0, 1], [1, True]]},
                 "table entries must be integers indexing elements", id="bool-entry"),
])
def test_ill_typed_free_product_table_is_a_config_error(tmp_path, capsys, tables, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"free_product": tables}))
    code, stdout, err = run_cli(["witness", "--config", str(cfg)], capsys)
    assert code == 2
    assert stdout == ""
    assert err == f"error: {message}\n"


def test_package_root_and_cli_leave_piecewise_unloaded():
    probe = (
        "import json, sys\n"
        "import arboreal\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('arboreal.'))\n"
        "import arboreal.cli\n"
        "print(json.dumps([loaded, 'arboreal.piecewise' in sys.modules]))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == [[], False]


def test_cli_import_leaves_heavy_stdlib_modules_unloaded():
    # -S keeps the site module's .pth files, which may preload any of these,
    # out of the result
    probe = ("import arboreal.cli, sys\n"
             "print(sorted(m for m in ('dataclasses', 'inspect', 'ast', 'dis', 'typing', 'random')"
             " if m in sys.modules))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-S", "-c", probe], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"
