"""Run tier-1 against every mutant of ``tests/mutants.py``.

Usage:
    python tests/mutate.py [NAME ...]

Each mutant is applied to a fresh temporary copy of the whole checkout (the
benchmark's tests import its sibling ``src/``), and tier-1 runs there with
that copy's ``src`` first on ``PYTHONPATH``, stopping at the first failure.
The run leaves out ``tests/test_mutants.py``: on the mutated copy the patched
text is gone, so its patch check would fail for every mutant.  The
end-to-end files, the benchmark contract and then the acceptance criteria,
run last, so a mutant is reported by the first unit test that fails on it
rather than by a whole-workload check or an exception in a shared fixture
of the criteria.  A mutant is killed when the suite fails.  Prints one line per
mutant and exits 1 if any survives.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache")
PATCH_CHECK = "tests/test_mutants.py"
END_TO_END = ("tests/test_benchmark_contract.py", "tests/test_acceptance.py")
TIER1 = [
    "-m",
    "pytest",
    "-q",
    "-x",
    "-p",
    "no:cacheprovider",
    "--continue-on-collection-errors",
    f"--ignore={PATCH_CHECK}",
    *sorted(
        f"tests/{path.name}"
        for path in (ROOT / "tests").glob("test_*.py")
        if f"tests/{path.name}" not in (PATCH_CHECK, *END_TO_END)
    ),
    *END_TO_END,
]


def killed(mutant) -> tuple[bool, str]:
    """Whether tier-1 fails on the mutant, and the suite's summary line with
    the first failing test."""
    with tempfile.TemporaryDirectory(prefix="superverma-mutant-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        mutant.apply(copy)
        path = os.pathsep.join(p for p in (str(copy / "src"), os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, *TIER1],
            cwd=copy,
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
        )
    lines = proc.stdout.strip().splitlines()
    failing = [line for line in lines if line.startswith(("FAILED", "ERROR"))]
    summary = lines[-1] if lines else proc.stderr.strip()[-200:]
    return proc.returncode != 0, "; ".join([summary, *failing[:1]])


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    survivors = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        dead, summary = killed(mutant)
        survivors += not dead
        print(f"{'killed' if dead else 'SURVIVED'}  {mutant.name}: {summary}", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
