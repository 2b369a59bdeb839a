"""Value semantics of the plain records: construction by position or keyword
with the documented defaults, equality by field within one class, read-only
fields, hashing by field values, and the `Name(field=value, ...)` repr; and
the keys of a certificate body."""

import json

import pytest

from arboreal.cstar_obstruction import (
    BODY_KEYS,
    AnnihilationReport,
    FiltrationReport,
    OrbitTruncation,
    build_certificate,
    parse_certificate,
    serialize_certificate,
)
from arboreal.dynamics import Elliptic, Hyperbolic, Inversion
from arboreal.perm_groups import PermGroup
from arboreal.portraits import GroupClass
from arboreal.tree_core import DirectedEdge

ALT3, SYM3 = PermGroup.alternating(3), PermGroup.symmetric(3)
E0, E1 = DirectedEdge((), 0), DirectedEdge((0,), 1)

# (class, field names, a value for every field, defaults of the trailing
# fields, whether those values are hashable: none of them a list or a dict)
RECORDS = [
    (DirectedEdge, ("tail", "color"), ((0,), 1), {}, True),
    (Elliptic, ("fixed_vertex",), ((0, 1),), {}, True),
    (Inversion, ("edge",), (E1,), {}, True),
    (Hyperbolic, ("length", "axis_point"), (2, (0,)), {}, True),
    (GroupClass, ("F", "Fp", "star"), (ALT3, SYM3, True), {"star": False}, True),
    (OrbitTruncation, ("word_length", "depth", "points", "heuristic_bound", "depth_warning"),
     (2, 8, [((), (0, 1))], 6, False), {}, False),
    (AnnihilationReport, ("total", "passed", "failures", "overlaps"),
     (3, 2, [((1,), "x")], [(1,)]), {}, False),
    (FiltrationReport, ("level", "ok", "details"), (1, True, {"hits": {}}), {}, False),
]
IDS = [r[0].__name__ for r in RECORDS]


@pytest.mark.parametrize("cls, names, values, defaults, hashable", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, names, values, defaults, hashable):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    for obj in (by_position, by_keyword):
        assert tuple(getattr(obj, n) for n in names) == values
    assert by_position == by_keyword
    required = values[: len(names) - len(defaults)]
    with_defaults = cls(*required)
    assert {n: getattr(with_defaults, n) for n in defaults} == defaults
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*required[:-1])


@pytest.mark.parametrize("cls, names, values, defaults, hashable", RECORDS, ids=IDS)
def test_equality_is_by_field_within_the_class(cls, names, values, defaults, hashable):
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b
    for i in range(len(names)):
        changed = list(values)
        changed[i] = ("another", i)
        assert a != cls(*changed)
    # neither a tuple of the same values nor a record of another class equals it
    assert a != values
    other = Elliptic if cls is not Elliptic else Inversion
    assert a != other(values[0])


@pytest.mark.parametrize("cls, names, values, defaults, hashable", RECORDS, ids=IDS)
def test_frozen_records_hash_and_refuse_assignment(cls, names, values, defaults, hashable):
    a, b = cls(*values), cls(*values)
    if hashable:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    else:
        with pytest.raises(TypeError):
            hash(a)
    for n in names:
        with pytest.raises(AttributeError):
            setattr(a, n, None)
        with pytest.raises(AttributeError):
            delattr(a, n)
    assert a == b
    with pytest.raises(AttributeError):
        a.not_a_field = 1


@pytest.mark.parametrize("cls, names, values, defaults, hashable", RECORDS, ids=IDS)
def test_repr_names_every_field(cls, names, values, defaults, hashable):
    fields = ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
    assert repr(cls(*values)) == f"{cls.__name__}({fields})"


def test_repr_examples():
    assert repr(DirectedEdge((0,), 1)) == "DirectedEdge(tail=(0,), color=1)"
    assert repr(Hyperbolic(2, ())) == "Hyperbolic(length=2, axis_point=())"
    assert repr(Inversion(E0)) == "Inversion(edge=DirectedEdge(tail=(), color=0))"
    assert repr(AnnihilationReport(1, 1, [], [])) == (
        "AnnihilationReport(total=1, passed=1, failures=[], overlaps=[])")


def test_certificate_body_keys_are_the_fields_in_order():
    cert = build_certificate({"preset": "g-alt3-sym3", "word_length": 2})
    assert list(cert) == ["version", *BODY_KEYS]


def test_parse_names_the_first_missing_key_in_field_order():
    # "group" precedes "edge" among the body keys, though not alphabetically
    text = serialize_certificate(build_certificate({"preset": "g-alt3-sym3", "word_length": 2}))
    header, body = text.split("\n", 1)
    data = json.loads(body)
    # a value given, even the null of a tampered body, is kept as it is
    data["caveats"] = None
    assert parse_certificate(f"{header}\n{json.dumps(data)}\n")["caveats"] is None
    del data["edge"], data["group"]
    with pytest.raises(ValueError, match="with the key 'group'"):
        parse_certificate(f"{header}\n{json.dumps(data)}\n")
