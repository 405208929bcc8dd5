"""Run tier-1 against every mutant of ``tests/mutants.py``.

Usage:
    python tests/mutate.py [NAME ...]

Each mutant is applied to a fresh temporary copy of the whole checkout (the
benchmark's tests import its sibling ``src/``), with that copy's ``src``
first on ``PYTHONPATH``.  Its named killer runs there alone first: a mutant
whose killer fails, or breaks an import the killer needs, is killed and
pinned.  A mutant whose killer passes (or names no test) is reported
"unpinned", and tier-1 then runs on the copy,
stopping at the first failure, to tell whether any other test kills it.
That run leaves out ``tests/test_mutants.py``: on the mutated copy the
patched text is gone, so its patch check would fail for every mutant.  The
end-to-end files, the CLI scenarios, the benchmark contract and then the
acceptance criteria, run last, so a mutant is reported by the first unit
test that fails on it rather than by a whole-scenario check or an exception
in a shared fixture of the criteria.  Prints one line per mutant and exits 1
if any mutant survives or is unpinned.
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
END_TO_END = (
    "tests/test_cli.py",
    "tests/test_benchmark_contract.py",
    "tests/test_acceptance.py",
)
PYTEST = ["-m", "pytest", "-q", "-p", "no:cacheprovider"]
TIER1 = [
    *PYTEST,
    "-x",
    "--continue-on-collection-errors",
    f"--ignore={PATCH_CHECK}",
    *sorted(
        f"tests/{path.name}"
        for path in (ROOT / "tests").glob("test_*.py")
        if f"tests/{path.name}" not in (PATCH_CHECK, *END_TO_END)
    ),
    *END_TO_END,
]
# pytest's exit statuses that say the killer never ran: a node id that names
# no test is a usage error (4), or collects none (5).  Any other failure, a
# failed test (1) or an import broken by the patch (2), kills the mutant.
NOT_RUN = (4, 5)


def _run(copy: Path, args: list[str]) -> tuple[int, str]:
    """Run pytest with ``args`` on the mutated copy: its exit status, and
    its summary line with the first failing test."""
    path = os.pathsep.join(p for p in (str(copy / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=copy,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    failing = [line for line in lines if line.startswith(("FAILED", "ERROR"))]
    summary = lines[-1] if lines else proc.stderr.strip()[-200:]
    return proc.returncode, "; ".join([summary, *failing[:1]])


def judge(mutant) -> tuple[str, str]:
    """``killed`` when the mutant's killer fails on it, or cannot be
    collected on the mutated copy; otherwise
    ``unpinned`` or ``SURVIVED``, as tier-1 fails on it or not.  Returns the
    outcome and the summary of the last run."""
    with tempfile.TemporaryDirectory(prefix="superverma-mutant-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        mutant.apply(copy)
        status, summary = _run(copy, [*PYTEST, mutant.killer])
        if status and status not in NOT_RUN:
            return "killed", summary
        status, summary = _run(copy, TIER1)
    return ("unpinned" if status != 0 else "SURVIVED"), summary


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    missed = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        outcome, summary = judge(mutant)
        missed += outcome != "killed"
        print(f"{outcome}  {mutant.name} [{mutant.killer}]: {summary}", flush=True)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
