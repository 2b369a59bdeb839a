"""Byte identity of `arboreal orbit`: the sha256 of its stdout for every
preset at word length 3 and depths 3 and 16 is pinned, so a change to the
orbit enumeration that alters which points it lists, their words or their
depth prefixes fails here."""

import hashlib

import pytest

from arboreal.cli import main

PINNED = {
    ("g-alt3-sym3", 3): "7f1431a00b9f2357628d913f7df2d1b821eb8e64a64c3757b0fe859795611997",
    ("g-alt3-sym3", 16): "204719c41168e6269185c72cfb35902e5fc8a090492693ee7bcd76f91746f494",
    ("g-cycle5-alt5", 3): "f46e347a33bed8b0e8f8c50bd721f092bd986baac5b1485f79544bdaf71b4839",
    ("g-cycle5-alt5", 16): "f2c8c11aeaae5fa3ee3052793113ea758cd5e3ed3b332881e6d933e06c4692f5",
    ("wreath-z2-z2", 3): "bdfbaf77d31e2e80d82289b615e39ef306567f3d5eefecbc1a682f639a96ab1d",
    ("wreath-z2-z2", 16): "05156118c43e2853c45465400c2dd046b60ab9e8004cadf60871134a842707e2",
    ("wreath-z2-z3", 3): "dd9671b5fe58e00f0d33b3e879c57b1483e35ad05bbab570421bb0cc2f67da9f",
    ("wreath-z2-z3", 16): "969746a6bdd11ed61acc765afa980bf2d6c9ed7828c1a7e52cc3b4d0f11758ac",
    ("wreath-z3-z2", 3): "7fc7718b2d88a1cd4febd465745f85014a2535f43af7a18db0f10ede1a25bd5f",
    ("wreath-z3-z2", 16): "be48768b6a099de1c85d73b3217bc9d65e8d7baf92d4cb07dc251b7a40a4c811",
    ("z-translations", 3): "276521a069f1ceb1e93d23f848cb0d02ee491fd9074b9051a23b6afe65e3da42",
    ("z-translations", 16): "a6c45b76d4477dab532b0b9b9e63020f0fe179a6d5afa1a0f1e7f577b5ecf6d2",
}


@pytest.mark.parametrize("preset, depth", sorted(PINNED))
def test_orbit_output_is_pinned(preset, depth, capsys):
    assert main(["orbit", "--preset", preset, "--word-length", "3", "--depth", str(depth)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED[preset, depth]
