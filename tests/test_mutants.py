"""The mutation catalogue in `tests/mutants.py` stays applicable: each entry's
old text occurs exactly once in the current source, and each node it names
is a test that exists.  Running the catalogue is a separate, slower step."""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CATALOGUE = runpy.run_path(str(ROOT / "tests" / "mutants.py"))
ENTRIES = [*CATALOGUE["MUTANTS"], CATALOGUE["NO_OP"]]


def test_entry_ids_are_distinct():
    ids = [m.id for m in ENTRIES] + [rid for rid, _ in CATALOGUE["RETIRED"]]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("mutant", ENTRIES, ids=lambda m: m.id)
def test_each_mutant_text_occurs_once(mutant):
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.nodes
    for node in mutant.nodes:
        path, _, name = node.partition("::")
        assert f"\ndef {name.split('[')[0]}(" in (ROOT / path).read_text(), node
