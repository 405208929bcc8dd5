"""Every mutant of ``tests/mutants.py`` still patches the source it names.

The mutants themselves run outside tier-1 (``python tests/mutate.py``);
this only keeps the list from rotting as the source changes.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_patch_applies_once(mutant):
    assert mutant.old != mutant.new
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
