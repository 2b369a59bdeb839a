"""Byte identity of `arboreal orbit`: the sha256 of its stdout for every
preset at word length 3 and depths 3 and 16 is pinned, so a change to the
orbit enumeration that alters which points it lists, their words or their
depth prefixes fails here.  The orbit is the certificate's: words over the
witness pair a, b and then the standard generators of F."""

import hashlib

import pytest

from arboreal.cli import main

PINNED = {
    ("g-alt3-sym3", 3): "776be70ff04871238585b39218b7a0fb03e06ca154251681165c90d890a0abfa",
    ("g-alt3-sym3", 16): "221d8f7726b37aeed9c725573e310fe486677c473c08a0e0b413d1c062b3dc26",
    ("g-cycle5-alt5", 3): "3db6fb7af72e4278483892d3e5f448548755703ad747560a8b37383166109f02",
    ("g-cycle5-alt5", 16): "35e5d37fe529babc63b5a4e9dbd5eb5aabbf99b5cab961151fd8ce42d495338b",
    ("wreath-z2-z2", 3): "d17ccda9dd5ed25efddf64e8fbaa0dae604f85d7e9e7d87499128fdac12b42fa",
    ("wreath-z2-z2", 16): "dcda644f676d4a9a67d263edf674190b01c24f9c2cfa83f366d74f84bb62c59b",
    ("wreath-z2-z3", 3): "edc5030c550d94956fbe8a36aab671b34e5403ba6e245a9ed11436ca969e2b55",
    ("wreath-z2-z3", 16): "c2c168147e4c15e5745e0a7e98db8487d6912232ce58e3297c3088e946bc4e99",
    ("wreath-z3-z2", 3): "a019c31e325dfc2fcedd023563b02c0610b36072f99b74173403582e653da4fc",
    ("wreath-z3-z2", 16): "021200ec83e40f780eb8eaaf44f2a409757ee89cfecf7096c1c215eee9290e89",
    ("z-translations", 3): "62c7bf6c16c6465f0fa31e287ba9d4aed64ffc99762d2aff3224c86e0e66988f",
    ("z-translations", 16): "0b778929aa5a3e8bd04c449717f16c5e3885b321f21f438dc2886971159bad60",
}


@pytest.mark.parametrize("preset, depth", sorted(PINNED))
def test_orbit_output_is_pinned(preset, depth, capsys):
    assert main(["orbit", "--preset", preset, "--word-length", "3", "--depth", str(depth)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED[preset, depth]
