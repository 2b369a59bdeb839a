"""Command-line front-end: exit codes, determinism, and report content."""

import argparse
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arboreal.cli import main, parse_args
from arboreal.cstar_obstruction import normalize_config
from arboreal.perm_groups import cyclic_table


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


def test_certify_inadmissible_pair_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "groups": {"F": {"kind": "alternating", "degree": 3},
                   "Fp": {"kind": "alternating", "degree": 3}},
    }))
    out = tmp_path / "c.txt"
    code, stdout, err = run_cli(["certify", "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 2
    assert "error: F must be a proper subgroup of F'" in err
    assert stdout == ""
    assert not out.exists()


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


def test_non_object_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1]")
    out = tmp_path / "c.txt"
    code, stdout, err = run_cli(["certify", "--config", str(cfg), "--out", str(out)], capsys)
    assert (code, stdout, err) == (2, "", "error: config file must hold a JSON object\n")
    assert not out.exists()


def test_config_preset_disagreeing_with_the_flag_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": "wreath-z2-z2"}))
    out = tmp_path / "c.txt"
    code, stdout, err = run_cli(["certify", "--config", str(cfg), "--preset", "g-alt3-sym3",
                                 "--out", str(out)], capsys)
    assert (code, stdout) == (2, "")
    assert err == "error: preset given both in the config file and on the command line\n"
    assert not out.exists()


def test_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "cert.txt"
    run_cli(["certify", "--preset", "wreath-z2-z2", "--depth", "14", "--out", str(out)], capsys)
    code, stdout, _ = run_cli(["verify", str(out)], capsys)
    assert code == 0
    assert "bit-identically" in stdout


def _bump_witness_a_table(text):
    header, _, body = text.partition("\n")
    data = json.loads(body)
    data["witness_a"]["core"][0][1][0] += 1
    return f"{header}\n{json.dumps(data, sort_keys=True, indent=1)}\n"


@pytest.mark.parametrize("tamper, path", [
    pytest.param(lambda text: text.replace('"total": ', '"total": 1', 1),
                 "checks.annihilation.total", id="annihilation-total"),
    # a list entry is named by its index: the first entry of the table of
    # the first core row
    pytest.param(_bump_witness_a_table, "witness_a.core.0.1.0", id="list-entry"),
])
def test_verify_names_the_first_tampered_key_path(tmp_path, capsys, tamper, path):
    out = tmp_path / "cert.txt"
    run_cli(["certify", "--preset", "g-alt3-sym3", "--word-length", "2", "--out", str(out)], capsys)
    text = out.read_text()
    tampered = tamper(text)
    assert tampered != text
    out.write_text(tampered)
    code, stdout, _ = run_cli(["verify", str(out)], capsys)
    assert code == 1
    assert stdout == f"re-run disagrees with the stored certificate at {path}\n"


def test_verify_names_an_unknown_body_key(tmp_path, capsys):
    # parsing keeps only the certificate's fields, so the key is found in the
    # decoded body, not blamed on the formatting
    out = tmp_path / "cert.txt"
    run_cli(["certify", "--preset", "g-alt3-sym3", "--word-length", "2", "--out", str(out)], capsys)
    header, _, body = out.read_text().partition("\n")
    out.write_text(header + "\n" + json.dumps({**json.loads(body), "extra": 1}, indent=1) + "\n")
    code, stdout, _ = run_cli(["verify", str(out)], capsys)
    assert (code, stdout) == (1, "re-run disagrees with the stored certificate at extra\n")


@pytest.mark.parametrize(
    "tamper, message",
    [
        (lambda data: {**data, "config": [1]}, "config must be a JSON object, got [1]"),
        (lambda data: [1], "certificate body must be a JSON object"),
        (lambda data: {**data, "version": "arboreal-cert/0"}, "certificate body version mismatch"),
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


def test_classify_reports_an_inversion(capsys):
    # g2 is the rigid motion with base (0,), which swaps the ends of the color-0 edge
    code, stdout, _ = run_cli(
        ["classify", "--preset", "g-alt3-sym3", "--element", "g2"], capsys
    )
    assert code == 0
    assert stdout.splitlines() == [
        "isometry type: inversion of the color-0 edge at v0",
        "translation length: 0",
        "member of U(F): yes",
        "member of G(F,F'): yes",
        "member of G(F,F')*: no",
    ]


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
    pytest.param("g-alt3-sym3", "g\u0663", "bad generator token 'g\u0663'", id="token-non-ascii-digit"),
    pytest.param("g-alt3-sym3", "g99", "generator index 99 out of range (have 4)", id="index-99"),
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
    # well-formed data that is no branch-constant automorphism
    pytest.param("g-alt3-sym3", {**_ELEMENT3, "core": _ELEMENT3["core"] + [[[0, 1], _ID3]]},
                 "core is not connected at (0, 1)", id="core-disconnected"),
    pytest.param("g-alt3-sym3", {**_ELEMENT3, "core": _ELEMENT3["core"] + [[[0], _ID3]]},
                 "branch rule at non-frontier edge ((), 0)", id="branch-at-core-edge"),
    pytest.param("g-alt3-sym3", {**_ELEMENT3, "branches": [[[], 0, [1, 0, 2]]]
                                 + _ELEMENT3["branches"][1:]},
                 "edge compatibility fails at frontier ((), 0)", id="branch-incompatible"),
    pytest.param("z-translations", {**_ELEMENT_Z, "defaults": [[[], {"shift": 1, "patch": []}]]},
                 "default at () disagrees with the core cofinitely", id="default-shifted"),
    pytest.param("z-translations", {**_ELEMENT_Z, "defaults": []},
                 "core vertex () lacks a default branch constant", id="default-missing"),
    pytest.param("g-alt3-sym3", {"degree": 2, "base": [], "core": [[[], [0, 1]]], "branches": []},
                 "finite color sets need at least three colors", id="degree-2"),
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


def test_orbit_below_the_heuristic_depth_warns(capsys):
    code, stdout, _ = run_cli(
        ["orbit", "--preset", "g-alt3-sym3", "--word-length", "3", "--depth", "4"], capsys
    )
    assert code == 0
    assert stdout.splitlines()[2] == "warning: depth below heuristic bound 14"
    assert "points: 23" in stdout


PRESETS = ["g-alt3-sym3", "g-cycle5-alt5", "wreath-z2-z2", "wreath-z2-z3", "wreath-z3-z2",
           "z-translations"]


@pytest.mark.parametrize("preset", PRESETS)
def test_orbit_prints_the_certificates_orbit(tmp_path, capsys, preset):
    out = tmp_path / "c.txt"
    assert main(["certify", "--preset", preset, "--out", str(out)]) == 0
    capsys.readouterr()
    code, stdout, _ = run_cli(["orbit", "--preset", preset], capsys)
    assert code == 0
    points = json.loads(out.read_text().partition("\n")[2])["orbit"]["points"]
    assert f"points: {points}\n" in stdout


def test_orbit_inadmissible_pair_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_pair(_spec("trivial", 3), _spec("symmetric", 3))))
    code, stdout, err = run_cli(["orbit", "--config", str(cfg)], capsys)
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: {ORBITS}")


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


FREE_PRODUCT = {"a": [[0, 1], [1, 0]], "b": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}


@pytest.mark.parametrize("command", ["certify", "orbit", "verify"])
def test_free_product_alone_exits_2(tmp_path, capsys, command):
    # the one source names no (F, F') pair, which the raw config shows
    # before the normalized copy drops the key
    cfg, out = tmp_path / "cfg.json", tmp_path / "out.txt"
    cfg.write_text(json.dumps({"free_product": FREE_PRODUCT}))
    if command == "verify":
        cert = tmp_path / "cert.txt"
        run_cli(["certify", "--preset", "g-alt3-sym3", "--word-length", "2", "--out", str(cert)],
                capsys)
        header, _, body = cert.read_text().partition("\n")
        body = json.dumps({**json.loads(body), "config": {"free_product": FREE_PRODUCT}})
        cert.write_text(f"{header}\n{body}\n")
        argv = ["verify", str(cert)]
    else:
        argv = [command, "--config", str(cfg), "--out", str(out)]
    code, stdout, err = run_cli(argv, capsys)
    assert code == 2
    assert stdout == ""
    assert err == "error: free_product tables name a free-product tree, not an (F, F') pair\n"
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


def test_search_len_1_finds_no_general_type_pair(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": "g-alt3-sym3", "search_len": 1}))
    out = tmp_path / "c.txt"
    code, stdout, _ = run_cli(["certify", "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 1
    assert "check general_type: {'found': False, 'search_len': 1}" in stdout
    assert "status: INVALID:general_type" in stdout


@pytest.mark.parametrize("fp_kind, code, status, amenability", [
    ("z_finitary", 0, "VALID", "(locally finite)-by-Z"),
    ("z_translations", 2, None, None),  # F = F': bad input, no certificate
])
def test_integer_color_group_specs(tmp_path, capsys, fp_kind, code, status, amenability):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"groups": {"F": {"kind": "z_translations"},
                                          "Fp": {"kind": fp_kind}}}))
    out = tmp_path / "c.txt"
    got, stdout, err = run_cli(["certify", "--config", str(cfg), "--out", str(out)], capsys)
    assert got == code
    if status is None:
        assert "error: F must be a proper subgroup of F'" in err
        assert not out.exists()
        return
    assert f"status: {status}\n" in stdout
    body = json.loads(out.read_text().partition("\n")[2])
    assert body["group"]["edge_stabilizer_amenability"] == amenability


CAPS = {"word_length": 6, "depth": 64, "search_len": 4}


@pytest.mark.parametrize("command", ["certify", "orbit", "verify"])
@pytest.mark.parametrize("key, value", [(key, cap + 1) for key, cap in CAPS.items()]
                         + [("word_length", 100)])
def test_bound_above_its_cap_exits_2_before_any_group_is_built(
        tmp_path, capsys, monkeypatch, command, key, value):
    out = tmp_path / "c.txt"
    if command == "verify":
        run_cli(["certify", "--preset", "g-alt3-sym3", "--word-length", "2", "--out", str(out)],
                capsys)
        header, _, body = out.read_text().partition("\n")
        data = json.loads(body)
        data["config"][key] = value
        out.write_text(header + "\n" + json.dumps(data) + "\n")
        argv = ["verify", str(out)]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"preset": "g-alt3-sym3", key: value}))
        argv = [command, "--config", str(cfg), "--out", str(out)]

    def no_groups(config):
        raise AssertionError("groups built for an oversized config")

    monkeypatch.setattr("arboreal.cli.resolve_groups", no_groups)
    monkeypatch.setattr("arboreal.cstar_obstruction.resolve_groups", no_groups)
    code, stdout, err = run_cli(argv, capsys)
    assert (code, stdout) == (2, "")
    assert err == f"error: {key} must be at most {CAPS[key]}, got {value}\n"
    assert command == "verify" or not out.exists()


@pytest.mark.parametrize("key", sorted(CAPS))
def test_bound_at_its_cap_is_accepted(key):
    config = normalize_config({"preset": "g-alt3-sym3", key: CAPS[key]})
    assert config[key] == CAPS[key]


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
    assert "internal error: 'orbit' (KeyError)" in err


@pytest.mark.parametrize("exc_type", [IndexError, TypeError])
@pytest.mark.parametrize("command", ["certify", "verify"])
def test_unexpected_exception_exits_3(tmp_path, capsys, monkeypatch, command, exc_type):
    cert = tmp_path / "c.txt"
    assert main(["certify", "--preset", "g-alt3-sym3", "--word-length", "2",
                 "--out", str(cert)]) == 0
    capsys.readouterr()

    def broken(*args):
        raise exc_type("a bug in a stage")

    monkeypatch.setattr("arboreal.cstar_obstruction.orbit_truncate", broken)
    argv = (["verify", str(cert)] if command == "verify" else
            ["certify", "--preset", "g-alt3-sym3", "--out", str(tmp_path / "d.txt")])
    code, _, err = run_cli(argv, capsys)
    assert code == 3
    assert err == f"internal error: a bug in a stage ({exc_type.__name__})\n"


def _pair(F, Fp):
    return {"groups": {"F": F, "Fp": Fp}}


def _spec(kind, degree=None):
    return {"kind": kind} if degree is None else {"kind": kind, "degree": degree}


FREE = "F must act freely on the color set"
PROPER = "F must be a proper subgroup of F'"
ORBITS = "F' must preserve the orbits of F"


@pytest.mark.parametrize("config, hypothesis", [
    (_pair(_spec("cyclic", 3), _spec("cyclic", 3)), PROPER),
    (_pair(_spec("z_translations"), _spec("z_translations")), PROPER),
    (_pair(_spec("symmetric", 3), _spec("symmetric", 3)), FREE),
    (_pair(_spec("z_finitary"), _spec("z_finitary")), FREE),
    (_pair(_spec("cyclic", 4), _spec("alternating", 4)), PROPER),
    (_pair(_spec("cyclic", 3), _spec("symmetric", 4)), PROPER),
    (_pair(_spec("cyclic", 3), _spec("z_finitary")), PROPER),
    (_pair(_spec("z_translations"), _spec("symmetric", 3)), PROPER),
    (_pair(_spec("trivial", 3), _spec("symmetric", 3)), ORBITS),
    (_pair({"kind": "listed", "perms": [[1, 0, 3, 2]]}, _spec("symmetric", 4)), ORBITS),
], ids=["C3=C3", "Z=Z", "Sym3=Sym3", "Zfin=Zfin", "C4<Alt4", "C3<Sym4", "C3<Zfin", "Z<Sym3",
        "trivial3<Sym3", "double-transposition<Sym4"])
def test_inadmissible_pair_exits_2_before_any_stage(tmp_path, capsys, monkeypatch,
                                                     config, hypothesis):
    calls = []

    def search(*args):
        calls.append(args)
        raise AssertionError("the general-type search ran")

    monkeypatch.setattr("arboreal.cstar_obstruction.general_type_witness", search)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "c.txt"
    code, stdout, err = run_cli(["certify", "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith(f"error: {hypothesis}")
    assert stdout == ""
    assert not out.exists()
    assert calls == []


@pytest.mark.parametrize("command", ["certify", "orbit", "witness"])
def test_admissibility_is_checked_once_per_command(tmp_path, capsys, monkeypatch, command):
    from arboreal import cstar_obstruction

    calls = []
    check = cstar_obstruction.require_admissible_pair

    def counted(F, Fp):
        calls.append((F, Fp))
        return check(F, Fp)

    monkeypatch.setattr("arboreal.cstar_obstruction.require_admissible_pair", counted)
    monkeypatch.setattr("arboreal.cli.require_admissible_pair", counted)
    code, _, _ = run_cli([command, "--preset", "g-alt3-sym3", "--out", str(tmp_path / "c.txt")],
                         capsys)
    assert code == 0
    assert len(calls) == 1


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


# an order whose square has more digits than int-to-str conversion allows
NINES = "9" * 3000


# every element of C2^10, the products of the swaps of colors 2i and 2i + 1: a
# group listed whole, which its closure must reject at its 721st element
C2_10 = [[c ^ 1 if m >> (c // 2) & 1 else c for c in range(20)] for m in range(1024)]


def _no_tables(*args, **kwargs):
    raise AssertionError("permutations listed for an oversized group")


@pytest.mark.parametrize("command", [["certify"], ["classify", "--element", "identity"],
                                     ["orbit"], ["witness"], ["verify"]], ids=lambda c: c[0])
@pytest.mark.parametrize("config, message", [
    pytest.param({"preset": "wreath-z2-z7"}, "color-set degree must be at most 64, got 128",
                 id="wreath-z2-z7"),
    pytest.param({"preset": "wreath-z2-z20"},
                 "color-set degree must be at most 64, got 1048576", id="wreath-z2-z20"),
    pytest.param({"preset": f"wreath-z{NINES}-z2"},
                 f"color-set degree must be at most 64, got {NINES}^2", id="wreath-3000-digits"),
    pytest.param({"wreath": {"gamma": cyclic_table(3), "a": cyclic_table(4)}},
                 "color-set degree must be at most 64, got 81", id="wreath-tables"),
    pytest.param({"wreath": {"gamma": cyclic_table(2), "a": [[0]] * 15000}},
                 "color-set degree must be at most 64, got 2^15000", id="wreath-15000-rows"),
    pytest.param({"groups": {"F": {"kind": "cyclic", "degree": 65}, "Fp": SYM3}},
                 "color-set degree must be at most 64, got 65", id="cyclic-65"),
    pytest.param({"groups": {"F": {"kind": "trivial", "degree": 65}, "Fp": SYM3}},
                 "color-set degree must be at most 64, got 65", id="trivial-65"),
    pytest.param({"groups": {"F": {"kind": "cyclic", "degree": 30},
                             "Fp": {"kind": "symmetric", "degree": 30}}},
                 f"group order must be at most 720, got {math.factorial(30)}", id="symmetric-30"),
    pytest.param({"groups": {"F": {"kind": "alternating", "degree": 7}, "Fp": SYM3}},
                 "group order must be at most 720, got 2520", id="alternating-7"),
    pytest.param({"groups": {"F": {"kind": "listed",
                                   "perms": [[1, 0, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6, 0]]},
                             "Fp": SYM3}},
                 "group order must be at most 720, got at least 721", id="listed-sym7"),
    pytest.param({"groups": {"F": {"kind": "listed", "perms": C2_10}, "Fp": SYM3}},
                 "group order must be at most 720, got at least 721", id="listed-c2-10"),
    # and below the lower cap, on no colors
    pytest.param({"groups": {"F": {"kind": "symmetric", "degree": 0}, "Fp": SYM3}},
                 "color-set degree must be at least 1, got 0", id="symmetric-0"),
    pytest.param({"groups": {"F": {"kind": "trivial", "degree": 0}, "Fp": SYM3}},
                 "color-set degree must be at least 1, got 0", id="trivial-0"),
    pytest.param({"groups": {"F": {"kind": "cyclic", "degree": -3}, "Fp": SYM3}},
                 "color-set degree must be at least 1, got -3", id="cyclic-minus-3"),
    pytest.param({"groups": {"F": SYM3, "Fp": {"kind": "listed", "perms": [[]]}}},
                 "color-set degree must be at least 1, got 0", id="listed-no-colors"),
])
def test_group_above_its_cap_exits_2_before_it_is_built(
        tmp_path, capsys, monkeypatch, command, config, message):
    out = tmp_path / "out.txt"
    if command == ["verify"]:
        run_cli(["certify", "--preset", "g-alt3-sym3", "--word-length", "2", "--out", str(out)],
                capsys)
        header, _, body = out.read_text().partition("\n")
        data = json.loads(body)
        data["config"].update({"preset": None, **config})
        out.write_text(header + "\n" + json.dumps(data) + "\n")
        argv = ["verify", str(out)]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [*command, "--config", str(cfg), "--out", str(out)]
    # wreath_embedding lists its points through itertools.product, and no
    # other constructor uses itertools: every finite group is the closure of
    # its generators, which stops once it passes the order cap
    monkeypatch.setattr("arboreal.perm_groups.itertools",
                        SimpleNamespace(permutations=_no_tables, product=_no_tables))
    code, stdout, err = run_cli(argv, capsys)
    assert (code, stdout) == (2, "")
    assert err == f"error: {message}\n"
    assert command == ["verify"] or not out.exists()


@pytest.mark.parametrize("config", [
    pytest.param({"preset": "wreath-z2-z6"}, id="degree-64"),
    pytest.param({"groups": {"F": {"kind": "cyclic", "degree": 6},
                             "Fp": {"kind": "symmetric", "degree": 6}}}, id="order-720"),
])
def test_group_at_its_cap_is_accepted(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, stdout, err = run_cli(["classify", "--config", str(cfg), "--element", "identity"],
                                capsys)
    assert (code, err) == (0, "")
    assert "member of G(F,F'): yes" in stdout


# far past the JSON decoder's nesting limit on Python 3.10 to 3.13; 3.13
# decodes 5000 levels
DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("command, what", [
    (["verify"], "certificate body"),
    (["certify", "--config"], "config file"),
    (["orbit", "--config"], "config file"),
    (["classify", "--preset", "g-alt3-sym3", "--element"], "--element"),
], ids=lambda c: c[0] if isinstance(c, list) else None)
def test_deeply_nested_json_input_exits_2(tmp_path, capsys, command, what):
    path = tmp_path / "input.txt"
    path.write_text("arboreal-cert/1\n" + DEEP + "\n" if command == ["verify"] else DEEP)
    if command[0] == "classify":
        argv = [*command, '{"base": ' + DEEP + "}"]
    else:
        argv = [*command, str(path)]
    code, stdout, err = run_cli(argv, capsys)
    assert (code, stdout) == (2, "")
    assert err == f"error: {what} is nested too deeply to decode\n"


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


def _readme_command_lines() -> list[list[str]]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```sh\n(.*?)```", readme.split("## Command line", 1)[1], re.S)
    return [shlex.split(line)[1:] for line in block.group(1).splitlines()]


def test_plain_form_runs_of_every_command_leave_argparse_and_gettext_unloaded(tmp_path):
    # the README's command lines, in order: verify reads what certify writes
    lines = _readme_command_lines()
    assert {argv[0] for argv in lines} == {"certify", "classify", "orbit", "witness", "verify"}
    probe = ("import json, sys\n"
             "import arboreal.cli\n"
             "for argv in json.loads(sys.argv[1]):\n"
             "    assert arboreal.cli.main(argv) == 0, argv\n"
             "print(sorted(m for m in ('argparse', 'gettext') if m in sys.modules), file=sys.stderr)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-S", "-c", probe, json.dumps(lines)],
                          env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path,
                          capture_output=True, text=True, check=True)
    assert proc.stderr == "[]\n"


@pytest.mark.parametrize("preset", ["wreath-z+2-z2", "wreath-z 2-z2", "wreath-z02-z2",
                                    "wreath-z2-z2 ", "wreath-z\u0662-z2"],
                         ids=["plus", "space", "leading-zero", "trailing-space", "arabic-indic-digit"])
def test_wreath_preset_spelled_other_than_its_orders_exits_2(tmp_path, capsys, preset):
    out = tmp_path / "c.txt"
    code, stdout, err = run_cli(["certify", "--preset", preset, "--out", str(out)], capsys)
    assert (code, stdout) == (2, "")
    assert err == f"error: bad wreath preset {preset!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("preset", ["wreath-z100000-z2", "wreath-z2-z100000", "wreath-z1-z100000"])
def test_oversized_wreath_preset_exits_2_before_any_table(tmp_path, preset):
    # each table of such a preset would hold 10^10 entries; under the address
    # space limit building one fails (exit 3) instead of exhausting the host
    probe = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
             "from arboreal.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-S", "-c", probe, "certify", "--preset", preset,
                           "--out", str(tmp_path / "c.txt")],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
                          timeout=60)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr.startswith("error: ")
    assert not (tmp_path / "c.txt").exists()


def _build_parser() -> argparse.ArgumentParser:
    """The argparse parser the command line used before its flag table: the
    reference that `parse_args` must agree with."""
    parser = argparse.ArgumentParser(
        prog="arboreal",
        description="certificates for prescribed-local-action tree groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, helptext: str, *bounds: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--preset", help="named group preset, e.g. g-alt3-sym3")
        p.add_argument("--config", help="path to a JSON config file")
        for flag in bounds:
            p.add_argument(flag, type=int, default=None)
        p.add_argument("--out", help="output path")
        return p

    command("certify", "run the full pipeline and write a certificate",
            "--word-length", "--depth", "--seed")
    command("classify", "classify one element and report class membership").add_argument(
        "--element", required=True,
        help="serialized element (JSON) or word in g0, g1, ... with ^-1")
    command("orbit", "print a truncated boundary orbit", "--word-length", "--depth")
    command("witness", "construct and print a half-tree fixator witness")
    sub.add_parser("verify", help="re-run a stored certificate and compare").add_argument(
        "certificate", help="path to a certificate file")
    return parser


ACCEPTED = [
    ["certify", "--preset", "g-alt3-sym3"],
    ["certify", "--preset=g-alt3-sym3", "--word-length=3", "--out=c.txt", "--config=a=b"],
    ["certify", "--word", "2", "--d", "5", "--pre", "p", "--se=4", "--o", "o.txt"],
    ["certify", "--depth", "3", "--preset", "p", "--depth", "7", "--preset", "q"],
    ["certify", "--depth", "-1", "--seed=-5", "--word-length", " 2"],
    ["certify", "--out", "-", "--preset", "", "--config="],
    ["classify", "--element", "g3 g0^-1", "--preset", "p"],
    ["classify", "--element", "-g0 g1", "--el=--x"],
    ["orbit", "--config", "c.json", "--word-length", "4", "--depth", "12"],
    ["witness"],
    ["witness", "--out", "w.json", "--pres", "pslz"],
    ["verify", "cert.txt"],
    ["verify", "--", "cert.txt"],
    ["verify", "--", "--out"],
    ["verify", "-"],
    ["verify", "-1"],
]

REJECTED = [
    [],
    ["--preset", "p"],
    ["frob"],
    ["certify", "--out", "--preset", "p"],
    ["certify", "--out"],
    ["certify", "--preset", "-x"],
    ["certify", "--depth", "x"],
    ["certify", "--depth", "2.5"],
    ["certify", "--depth="],
    # "--" is a prefix of every flag; it is the only ambiguous one, since no
    # two flags of one command share a first letter
    ["certify", "--=3"],
    ["certify", "--bogus"],
    ["certify", "-x"],
    ["certify", "stray"],
    ["certify", "--", "--preset", "p"],
    ["certify", "--element", "g0"],
    ["certify", "--help=1"],
    ["classify", "--preset", "p"],
    ["classify", "--element"],
    ["orbit", "--seed", "1"],
    ["witness", "--depth", "3"],
    ["verify"],
    ["verify", "a", "b"],
    ["verify", "c.txt", "--out", "o.txt"],
]

HELP = [["-h"], ["--help"], ["--he"], ["certify", "-h"], ["classify", "--help"],
        ["verify", "--h"], ["certify", "--bogus", "-h"], ["orbit", "--depth", "3", "-h"]]


def _argv_id(argv):
    return "|".join(argv).replace(" ", "_") or "no-arguments"


@pytest.mark.parametrize("argv", ACCEPTED, ids=_argv_id)
def test_parser_accepts_what_argparse_accepted(argv):
    assert parse_args(argv) == vars(_build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", REJECTED, ids=_argv_id)
def test_parser_rejects_what_argparse_rejected(argv, capsys):
    for parse in (parse_args, _build_parser().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", HELP, ids=_argv_id)
def test_parser_help_exits_0(argv, capsys):
    for parse in (parse_args, _build_parser().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: arboreal")


def _outcome(parse, argv):
    """What parse makes of argv: the dict it returns, or its exit code and
    whether it printed usage (help) or `error:` (a usage error)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            return parse(argv)
        except SystemExit as exc:
            code = exc.code
    if code == 0:
        return code, out.getvalue().startswith("usage: arboreal")
    return code, "error:" in err.getvalue()


FLAGS = ["--preset", "--config", "--word-length", "--depth", "--seed", "--out", "--element"]
# unique prefixes of some flags, and "--", which is a prefix of all of them
PREFIXES = ["--p", "--con", "--w", "--word", "--d", "--s", "--o", "--el", "--"]
VALUES = st.sampled_from(["2", "16", "-1", "-5", "0", " 3", "2.5", "-.5", "x", "", "a b",
                          "-a b", "-x", "--x", "c.txt", "identity", "g3 g0^-1", "verify"])
TOKENS = st.one_of(
    st.sampled_from(FLAGS), st.sampled_from(PREFIXES), VALUES,
    st.sampled_from(["-h", "--help", "--he", "-h1", "-", "--bogus"]),
    st.builds("{}={}".format, st.sampled_from(FLAGS + PREFIXES), VALUES),
)
COMMAND_WORDS = st.sampled_from(["certify", "classify", "orbit", "witness", "verify"])
ARGVS = st.one_of(
    # near the plain form: a command, then flags of any command with values
    st.builds(lambda command, pairs: [command, *(word for pair in pairs for word in pair)],
              COMMAND_WORDS, st.lists(st.tuples(st.sampled_from(FLAGS), VALUES), max_size=3)),
    st.builds(lambda path: ["verify", path], VALUES),
    st.builds(lambda command, rest: [command, *rest],
              st.one_of(COMMAND_WORDS, st.sampled_from(["frob", "-h", "--preset"])),
              st.lists(TOKENS, max_size=6)),
    st.lists(TOKENS, max_size=3),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ARGVS)
def test_parser_agrees_with_argparse_on_random_argv(argv):
    got = _outcome(parse_args, argv)
    assert got == _outcome(lambda a: vars(_build_parser().parse_args(a)), argv)
    assert isinstance(got, dict) or got[1]


def test_negative_depth_reaches_the_config_check(tmp_path, capsys):
    out = tmp_path / "c.txt"
    code, stdout, err = run_cli(["certify", "--preset", "g-alt3-sym3", "--depth", "-1",
                                 "--out", str(out)], capsys)
    assert (code, stdout, err) == (2, "", "error: numeric bounds must be positive\n")
    assert not out.exists()
