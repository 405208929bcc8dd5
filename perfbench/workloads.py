"""Workloads of the superverma benchmark: seeded inputs and expected verdicts.

Each workload is a list of calls into the public ``superverma.verify``
scenarios.  A call carries the verdict expected for every case key; a pass
is correct when each report holds exactly those keys with those verdicts.
Only verdicts are compared, never ``detail``, so rewording a detail does not
break the benchmark.

The default seed gives the inputs the benchmark was defined on.  Another
seed draws new rank-3 tuples for ``sweep-rank3`` and ``deep-rank3``, each
with the same pattern of equal coordinates as the default tuple it replaces.
A case certifies a doubled Verma exactly when the two coordinates of its
simple odd root are equal, so every seed keeps the default's matched cases
(208 of 480 in ``sweep-rank3``) and does the same kind and amount of
certification work.  ``sweep-rank2`` and ``examples`` are exhaustive or
fixed and ignore the seed.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from itertools import product
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

DEFAULT_SEED = 0
CERTIFIED = "CERTIFIED-TO-DEPTH"
GRID = range(-2, 3)

RANK2_DEPTH = 6
# the default rank-3 sample of verify_conjecture(3)
RANK3_SAMPLE = (
    (0, 0, 0, 0, 0, 0),
    (1, 0, 1, 1, 0, 1),
    (2, 1, 0, 2, 1, 0),
    (1, 2, 0, 1, 0, 2),
    (-1, 1, 2, -1, 1, 2),
    (2, 0, 1, 1, 0, 2),
    (0, 1, 2, 2, 1, 0),
    (1, 1, 1, 2, 2, 2),
)
RANK3_DEPTH = 4
# (label as the program takes it, label as report keys print it, default tuple)
DEEP_CASES = (((2, 1), "(21)", (1, 0, 1, 1, 0, 1)), ((3,), "(3)", (2, 1, 0, 2, 1, 0)))
DEEP_DEPTH = 9


class ProgramMissing(RuntimeError):
    """The checkout holds no importable superverma sources."""


def import_program():
    """Import ``superverma.verify`` from this checkout's ``src`` directory."""
    if not (SRC / "superverma" / "__init__.py").is_file():
        raise ProgramMissing(f"no superverma sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import superverma.verify as verify

    if Path(verify.__file__).resolve().parent.parent != SRC:
        raise ProgramMissing(f"superverma was imported from {verify.__file__}, not {SRC}")
    return verify


def src_line_count() -> int:
    return sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "superverma").glob("*.py"))
    )


@dataclass(frozen=True)
class Call:
    """One scenario call and the verdict expected for each of its case keys."""

    scenario: str
    kwargs: dict
    expected: dict


def _load_expected() -> dict:
    return json.loads((HERE / "expected.json").read_text())


def _case_key(label: str, alpha, t) -> str:
    return f"b={label} alpha={alpha[0]},{alpha[1]} t=({','.join(str(x) for x in t)})"


def _conjecture_call(n, pairs, grid, depth=None, label=None, label_text=None) -> Call:
    if label_text is not None:
        pairs = [p for p in pairs if p[0] == label_text]
    expected = {_case_key(b, a, t): CERTIFIED for b, a in pairs for t in grid}
    kwargs: dict = {"n": n, "grid": [list(t) for t in grid]}
    if depth is not None:
        kwargs["depth"] = depth
    if label is not None:
        kwargs["label"] = label
    return Call("verify_conjecture", kwargs, expected)


def _draw_like(rng: random.Random, t, taken) -> tuple:
    """A tuple of [-2,2]^6, not yet taken, whose coordinates are equal and
    ordered exactly as those of ``t``: the distinct values of ``t`` are
    replaced by a random increasing choice of as many values of the grid."""
    values = sorted(set(t))
    while True:
        mapping = dict(zip(values, sorted(rng.sample(GRID, len(values)))))
        drawn = tuple(mapping[x] for x in t)
        if drawn not in taken:
            return drawn


def build(name: str, seed: int) -> list[Call]:
    """The calls of one workload for one seed."""
    expected = _load_expected()
    pairs = {int(n): p for n, p in expected["pairs"].items()}
    if name == "sweep-rank2":
        grid = list(product(GRID, repeat=4))
        return [_conjecture_call(2, pairs[2], grid, depth=RANK2_DEPTH)]
    if name == "sweep-rank3":
        grid = list(RANK3_SAMPLE)
        if seed != DEFAULT_SEED:
            rng = random.Random(seed)
            grid = []
            for t in RANK3_SAMPLE:
                grid.append(_draw_like(rng, t, grid))
        return [_conjecture_call(3, pairs[3], grid, depth=RANK3_DEPTH)]
    if name == "examples":
        return [Call(e["scenario"], e["kwargs"], e["verdicts"]) for e in expected["examples"]]
    if name == "deep-rank3":
        rng = random.Random(seed)
        calls = []
        for label, text, t in DEEP_CASES:
            if seed != DEFAULT_SEED:
                t = _draw_like(rng, t, ())
            calls.append(
                _conjecture_call(3, pairs[3], [t], DEEP_DEPTH, list(label), text)
            )
        return calls
    raise ValueError(f"unknown workload {name!r}")


def check(call: Call, report_json: str | None) -> tuple[int, int, dict]:
    """Check one report: (cases attempted, cases reported, problem by case key).

    A case is attempted when it is expected or reported; it fails when it is
    missing, unexpected, reported twice or has another verdict.  A call that
    raised has no report, and each of its expected cases fails."""
    if report_json is None:
        return len(call.expected), 0, {key: "no report" for key in call.expected}
    cases = json.loads(report_json)["cases"]
    got: dict = {}
    problems = {}
    for case in cases:
        if case["key"] in got:
            problems[case["key"]] = "reported twice"
        got[case["key"]] = case["verdict"]
    keys = call.expected.keys() | got.keys()
    for key in keys - problems.keys():
        want, have = call.expected.get(key), got.get(key)
        if want != have:
            problems[key] = f"expected {want}, got {have}"
    return len(keys), len(cases), problems
