"""Bounded input fuzzing of the command line: `certify` and `verify` on
drawn configs, and `classify` on drawn `--element` JSON, each exit 0, 1 or
2 and never 3, the status of an internal error.

A config names its groups by a preset, a pair of group specs of every kind
(`listed` among them), or a pair of small wreath tables, each of them well
formed or not; its bounds and degrees run from -2 to 7, past both ends of
their range, and any field may hold a value of a wrong JSON type.  A
certificate that `certify` writes verifies.  A `verify` input is also a real
certificate whose config is replaced by a drawn one, and sometimes another
body key by a drawn value.  An element is the serialized form of a group
member with up to two drawn subtrees replaced.  The runs are derandomized,
and each example has a deadline: every input either fails fast or is small.
"""

import contextlib
import io
import json
from datetime import timedelta

from hypothesis import given, settings
from hypothesis import strategies as st

from arboreal.cli import main
from arboreal.cstar_obstruction import (
    BODY_KEYS,
    build_certificate,
    resolve_groups,
    serialize_certificate,
    standard_generators,
)
from arboreal.perm_groups import cyclic_table
from arboreal.portraits import GroupClass, aut_to_data, random_element

FUZZ = settings(max_examples=100, deadline=timedelta(seconds=5), derandomize=True)

# JSON values of every type, small enough to be cheap wherever they land
WRONG = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 9), st.floats(-2, 2), st.text(max_size=3),
    st.lists(st.integers(-2, 4), max_size=3), st.dictionaries(st.text(max_size=2), st.none(),
                                                               max_size=1),
)


def _mostly(good, other):
    """Five times in six the good strategy, else the other one (drawn on the
    larger index, since Hypothesis favours small ones)."""
    return st.integers(0, 5).flatmap(lambda i: other if i == 5 else good)


def _or_wrong(good):
    return _mostly(good, WRONG)


# a bound or a degree, in its range more often than not
BOUND = _or_wrong(st.one_of(st.integers(1, 6), st.integers(-2, 7)))


def _perm_lists(degree):
    perm = st.one_of(st.permutations(range(degree)),
                     st.lists(st.integers(-1, degree), max_size=degree + 1))
    return st.lists(perm, max_size=3)


GROUP_SPEC = _or_wrong(st.one_of(
    st.fixed_dictionaries({
        "kind": st.sampled_from(["symmetric", "alternating", "cyclic", "trivial"]),
        "degree": BOUND}),
    st.fixed_dictionaries({"kind": st.just("listed"),
                           "perms": _or_wrong(st.integers(0, 6).flatmap(_perm_lists))}),
    st.fixed_dictionaries({"kind": st.sampled_from(["z_translations", "z_finitary", "free"])}),
))


def _table(orders):
    """A cyclic group table of one of the orders, or a table of at most as
    many rows that need not be a group table."""
    rows = st.lists(st.integers(-1, 3), max_size=3)
    return _or_wrong(st.one_of(st.sampled_from([cyclic_table(n) for n in orders]),
                               st.lists(rows, max_size=max(orders))))


# wreath tables of at most 9 colors: at word length 6, certify takes about a
# minute on the 27 colors of Z/3 wr Z/3
GAMMA, A = _table((1, 2, 3)), _table((1, 2))
PRESETS = ["g-alt3-sym3", "g-cycle5-alt5", "wreath-z2-z2", "wreath-z3-z2", "wreath-z2-z3",
           "z-translations", "pslz", "wreath-z1-z2", "wreath-z2-z64", "wreath-z02-z2", "none"]
PAIR = st.one_of(
    st.fixed_dictionaries({"preset": _or_wrong(st.sampled_from(PRESETS))}),
    st.fixed_dictionaries({"groups": _or_wrong(st.fixed_dictionaries(
        {"F": GROUP_SPEC, "Fp": GROUP_SPEC}, optional={"label": WRONG}))}),
    st.fixed_dictionaries({"wreath": _or_wrong(st.one_of(
        st.fixed_dictionaries({"gamma": GAMMA, "a": A}),
        st.sampled_from([{"gamma": cyclic_table(n), "a": cyclic_table(m)}
                         for n, m in [(2, 2), (3, 2), (2, 3)]]),
    ))}),
)
# free-product tables, two sources or none: no pair
NO_PAIR = st.one_of(
    st.fixed_dictionaries({"free_product": st.fixed_dictionaries({"a": GAMMA, "b": GAMMA})}),
    st.just({"preset": "g-alt3-sym3", "wreath": {"gamma": [[0]], "a": [[0]]}}),
    st.just({}),
)
BOUNDS = st.fixed_dictionaries({}, optional={
    key: BOUND for key in ("word_length", "depth", "seed", "search_len")})
CONFIG = _or_wrong(st.tuples(_mostly(PAIR, NO_PAIR), BOUNDS).map(
    lambda parts: {**parts[0], **parts[1]}))


def _run(argv) -> int:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors, such as a value like a flag
            code = exc.code
    assert code in (0, 1, 2), (code, err.getvalue())
    return code


@settings(FUZZ, max_examples=200)
@given(CONFIG)
def test_certify_on_any_config_exits_0_1_or_2_and_verifies(tmp_path_factory, config):
    root = tmp_path_factory.mktemp("certify")
    (root / "config.json").write_text(json.dumps(config))
    code = _run(["certify", "--config", str(root / "config.json"), "--out", str(root / "cert.txt")])
    # a certificate is written exactly for a pair that the stages ran on
    assert (root / "cert.txt").exists() == (code != 2)
    if code != 2:
        assert _run(["verify", str(root / "cert.txt")]) == 0


CERT = json.loads(serialize_certificate(build_certificate(
    {"preset": "g-alt3-sym3", "word_length": 2})).partition("\n")[2])


@FUZZ
@given(CONFIG, st.one_of(st.just(None), st.tuples(st.sampled_from(BODY_KEYS), WRONG)))
def test_verify_on_any_embedded_config_exits_0_1_or_2(tmp_path_factory, config, tamper):
    body = {**CERT, "config": config}
    if tamper is not None:
        body[tamper[0]] = tamper[1]
    path = tmp_path_factory.mktemp("verify") / "cert.txt"
    path.write_text(serialize_certificate(body))
    _run(["verify", str(path)])


def _mutated(data, value):
    """value with one drawn subtree replaced by a value of any JSON type."""
    if isinstance(value, (list, dict)) and value and data.draw(st.integers(0, 3)):
        keys = sorted(value) if isinstance(value, dict) else range(len(value))
        key = data.draw(st.sampled_from(keys))
        copy = dict(value) if isinstance(value, dict) else list(value)
        copy[key] = _mutated(data, value[key])
        return copy
    return data.draw(WRONG)


@FUZZ
@given(st.sampled_from(["g-alt3-sym3", "wreath-z2-z2", "z-translations"]), st.integers(0, 99),
       st.data())
def test_classify_on_any_element_json_exits_0_1_or_2(preset, seed, data):
    F, Fp, _ = resolve_groups({"preset": preset})
    members = standard_generators(F) + [random_element(GroupClass.prescribed(F, Fp), 2, seed)]
    element = aut_to_data(data.draw(st.sampled_from(members)))
    for _ in range(data.draw(st.integers(0, 2))):
        element = _mutated(data, element)
    code = _run(["classify", "--preset", preset, "--element", json.dumps(element)])
    assert code in (0, 2)
