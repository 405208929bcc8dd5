"""Every mutant of ``tests/mutants.py`` still patches the source it names.

The mutants themselves run outside tier-1 (``python tests/mutate.py``);
this only keeps the list from rotting as the source and the tests change.
"""

from __future__ import annotations

import os
import subprocess
import sys
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


@pytest.fixture(scope="module")
def collected() -> set[str]:
    """The node ids that pytest collects from the files the killers name,
    parametrization ids included."""
    files = sorted({m.killer.partition("::")[0] for m in MUTANTS})
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *files],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout[-2000:]
    return {line for line in proc.stdout.splitlines() if "::" in line}


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_killer_names_a_test_of_the_suite(mutant, collected):
    # mutate.py reads a killer that names no test as unpinned; a typo here,
    # in the test's name or in its parametrization id, would only show there
    path = mutant.killer.partition("::")[0]
    assert path.startswith("tests/test_") and path != "tests/test_mutants.py"
    assert mutant.killer in collected


def test_the_mutated_suite_leaves_out_the_patch_check():
    # on a mutated copy the patched text is gone, so the patch check would
    # fail there and count every mutant as killed
    from mutate import TIER1

    assert "--ignore=tests/test_mutants.py" in TIER1


def test_the_mutated_suite_runs_the_end_to_end_files_last():
    # a mutant that breaks a CLI scenario, a workload or a shared fixture of
    # the criteria would otherwise be reported there, before any unit test
    # that names it (a file named on the command line is collected even when
    # ignored)
    from mutate import END_TO_END, TIER1

    files = [arg for arg in TIER1 if arg.startswith("tests/")]
    assert files[-3:] == [
        "tests/test_cli.py",
        "tests/test_benchmark_contract.py",
        "tests/test_acceptance.py",
    ]
    assert list(END_TO_END) == files[-3:] and len(set(files)) == len(files)
    assert "tests/test_mutants.py" not in files
    assert len(files) == len(list((ROOT / "tests").glob("test_*.py"))) - 1
