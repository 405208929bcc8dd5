"""The examples in the library's docstrings run and hold."""

from __future__ import annotations

import doctest
import importlib
from pathlib import Path

import pytest

import superverma

MODULES = sorted(
    path.stem for path in Path(superverma.__file__).parent.glob("*.py") if path.stem != "__init__"
)

# modules whose docstrings hold examples; a rename that dropped them all
# would otherwise pass as zero examples run
WITH_EXAMPLES = {"borels", "linalg", "superalgebra"}


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    results = doctest.testmod(importlib.import_module(f"superverma.{name}"))
    assert results.failed == 0
    assert (results.attempted > 0) == (name in WITH_EXAMPLES)
