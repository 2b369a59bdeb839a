"""Byte identity of certificates: the sha256 of every preset's certificate
at word lengths 3 and 4 (defaults otherwise) is pinned, so a change to any
stage that alters a certificate's bytes fails here."""

import hashlib

import pytest

from arboreal.cstar_obstruction import build_certificate, serialize_certificate

PINNED = {
    ("g-alt3-sym3", 3): "f7186375c14d502365ea986a31b29c16465580cf7a235b88759e9c710ae2ebcd",
    ("g-alt3-sym3", 4): "e486c7b74c5119f5b4aecb3923b84e106e4860865a9f79d36293e3b9b9b334bf",
    ("g-cycle5-alt5", 3): "3392751231ac74303db62993fd8679baad142b565c98186d2e553b1860bf821d",
    ("g-cycle5-alt5", 4): "b5fa37e5691a2693a81b7bf8b9b92712ffbdf246eb2aadbee7dae53a7c56f986",
    ("wreath-z2-z2", 3): "aa6b734a815350bf436265b0bac6af187f2144215f96116e3670cffb8f07b830",
    ("wreath-z2-z2", 4): "c80c70c60f41193d73c6bb64f3ab55d929aa512e6c72a457109ad7fe38f59458",
    ("wreath-z2-z3", 3): "dc2e62593fccf288ba73862089c8833de74e8e0514ab6899147f08cf75f804d0",
    ("wreath-z2-z3", 4): "04796189c0ecbf9b8bf20bd1a8a9a77c4ede15986256917a7178aa24f30bcf90",
    ("wreath-z3-z2", 3): "40635aec413134e70c922f10d6aa043184c40715a1c86a5aa3563d856a36d1c9",
    ("wreath-z3-z2", 4): "f071bacfe1f4b3d0fc9b7000257a0c4a05abb5050e0490a3d6bff31dea588b0c",
    ("z-translations", 3): "6acdc3a919ec510edcc21efcde4b49f86e7df2eb0882cb40d61e360ebfcac481",
    ("z-translations", 4): "00eda0f0a97650c52ee41b0523c59b8796fc248cdcbd7591d3240de90389c0be",
}


@pytest.mark.parametrize("preset, word_length", sorted(PINNED))
def test_certificate_bytes_are_pinned(preset, word_length):
    text = serialize_certificate(build_certificate({"preset": preset, "word_length": word_length}))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED[preset, word_length]
