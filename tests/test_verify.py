"""Tests for the named verification scenarios and their reports."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from superverma import superalgebra, verify
from superverma.verify import (
    CaseResult,
    FAIL,
    INCONCLUSIVE,
    PASS,
    ScenarioReport,
    _axioms_case,
    _first_mismatch,
    _fmt_tuple,
    _judge_conjecture,
    default_conjecture_grid,
    default_mabg_grid,
    verify_conjecture,
    verify_gl22_examples,
    verify_maBG,
    verify_structure,
)
from superverma.borels import all_borels, format_label, odd_simple_roots
from superverma.homology import CERTIFIED, REFUTED
from superverma.modules import PBWLayout, verma_realization
from superverma.superalgebra import root_weight
from superverma.weights import from_tuple, par

from oracles import bilinear_form, report_json


# ---------------------------------------------------------------------------
# Report plumbing.


def test_report_counts_ok_and_sorting():
    cases = (
        CaseResult("b", PASS),
        CaseResult("a", CERTIFIED),
        CaseResult("c", FAIL, {"why": "x"}),
    )
    rep = ScenarioReport("demo", {"n": 2}, tuple(sorted(cases, key=lambda c: c.key)), 7)
    assert [c.key for c in rep.cases] == ["a", "b", "c"]
    assert rep.counts() == {CERTIFIED: 1, FAIL: 1, PASS: 1}
    assert not rep.ok
    assert [c.key for c in rep.failures()] == ["c"]
    assert "demo: 3 cases" in rep.summary()
    assert "FAILED" in rep.summary()


def test_report_json_is_deterministic_and_excludes_timing():
    r1 = verify_structure(1)
    r2 = verify_structure(1)
    assert r1.to_json() == r2.to_json()
    doc = json.loads(r1.to_json())
    assert set(doc) == {"scenario", "params", "cases", "wall_time_ms"}
    assert doc["wall_time_ms"] is None
    timed = json.loads(r1.to_json(timing=True))
    assert isinstance(timed["wall_time_ms"], int)


_SHARED = {"expected": "zero"}
# keys that ``json.dumps`` escapes: a quote, a backslash, control characters,
# and non-ASCII text inside and outside the basic plane
_ODD_KEYS = (
    'q"uote', "back\\slash", "new\nline", "tab\t", "caf\u00e9", "snow\u2603", "face\U0001f600",
)
SERIALIZED_CASES = {
    "empty": (),
    "none-detail": (CaseResult("a", PASS), CaseResult("b", PASS, {})),
    # one detail object under two verdicts, and another detail under the
    # first verdict: a frame is keyed by the pair
    "shared-detail": (
        CaseResult("a", CERTIFIED, _SHARED),
        CaseResult("b", REFUTED, _SHARED),
        CaseResult("c", CERTIFIED, {"expected": "double-verma"}),
        CaseResult("d", CERTIFIED, _SHARED),
    ),
    "nested-detail": (
        CaseResult(
            "a",
            FAIL,
            {"z": [1, {"b": [2, [3, -4]], "a": None}], "a": {"y": "\u00e9\"", "x": [[-1, 0.5]]}},
        ),
    ),
    "odd-keys": tuple(CaseResult(key, PASS, {"k": key}) for key in sorted(_ODD_KEYS)),
}


@pytest.mark.parametrize("timing", [False, True], ids=["plain", "timed"])
@pytest.mark.parametrize("name", sorted(SERIALIZED_CASES))
def test_report_bytes_are_those_of_the_direct_serializer(name, timing):
    rep = ScenarioReport("demo", {"n": 2, "tuples": [[1, -1]]}, SERIALIZED_CASES[name], 7)
    assert rep.to_json(timing=timing) == report_json(rep, timing=timing)


@pytest.mark.parametrize("workload", ["sweep-rank2", "sweep-rank3", "examples", "deep-rank3"])
def test_workload_report_bytes_are_those_of_the_direct_serializer(workload):
    for call in _benchmark_workloads().build(workload, 0):
        rep = getattr(verify, call.scenario)(**call.kwargs)
        assert rep.to_json() == report_json(rep), call.scenario


def test_first_mismatch_payload_carries_weight_and_dims():
    payload = _first_mismatch({(1, 0): (1, 0)}, {(1, 0): (0, 1)})
    assert payload == {"weight": [1, 0], "dims": [1, 0], "expected": [0, 1]}
    assert _first_mismatch({}, {}) == {}


# ---------------------------------------------------------------------------
# Conjecture sweeps.


def test_conjecture_rank_one_reproduces_closed_table():
    rep = verify_conjecture(1)
    assert rep.ok
    assert rep.counts() == {CERTIFIED: 50}
    # matched anchors certify the two-class census, unmatched the empty one
    by_key = {c.key: c for c in rep.cases}
    assert by_key["b=() alpha=1,2 t=(1,1)"].detail == {"expected": "pair"}
    assert by_key["b=() alpha=1,2 t=(1,0)"].detail == {"expected": "zero"}
    assert by_key["b=(1) alpha=2,1 t=(1,1)"].detail == {"expected": "pair"}


def test_conjecture_slice_certifies_both_branches():
    grid = [(1, 0, 1, 0), (2, 0, 1, 0), (1, 1, 1, 0), (0, 0, 0, 0)]
    rep = verify_conjecture(2, label=(1,), alpha=(1, 3), grid=grid, depth=5)
    assert rep.ok
    assert len(rep.cases) == 4
    details = {c.key: c.detail["expected"] for c in rep.cases}
    assert details["b=(1) alpha=1,3 t=(1,0,1,0)"] == "double-verma"
    assert details["b=(1) alpha=1,3 t=(2,0,1,0)"] == "zero"
    assert details["b=(1) alpha=1,3 t=(0,0,0,0)"] == "double-verma"


def test_conjecture_sweeps_all_simple_odd_roots_of_a_borel():
    rep = verify_conjecture(2, label=(1,), grid=[(1, 0, 1, 0)], depth=5)
    roots = {c.key.split(" ")[1] for c in rep.cases}
    assert roots == {"alpha=1,3", "alpha=3,2", "alpha=2,4"}
    assert rep.ok


def test_conjecture_rejects_foreign_alpha_and_bad_grid():
    with pytest.raises(ValueError):
        verify_conjecture(2, label=(1,), alpha=(2, 3))
    with pytest.raises(ValueError):
        verify_conjecture(2, grid=[(1, 0, 1)])


def _level_class(n, hw, alpha) -> tuple[int, int]:
    """The level ``-(hw, alpha)`` of the anchor ``hw``, by the invariant form
    of the oracle, and its parity."""
    return -bilinear_form(n, hw, root_weight(n, alpha)), par(n, hw)


def _count_judgements(monkeypatch) -> list:
    """Patch the sweep's judge to record the level class of each anchor it
    judges, in order; return that list."""
    judged = []
    judge = verify._judge_conjecture

    def counted(n, label, m, alpha, level):
        judged.append(_level_class(n, m.datum.hw, alpha))
        return judge(n, label, m, alpha, level)

    monkeypatch.setattr(verify, "_judge_conjecture", counted)
    return judged


def test_conjecture_level_classes_share_one_judgement(monkeypatch):
    # a root's tuples are judged once per level, and only once: on a Verma
    # layout the anchor parity cancels from the census, so the tuples of one
    # level at both parities share one judgement
    judged = _count_judgements(monkeypatch)
    label, alpha = (1,), (1, 3)
    grid = default_conjecture_grid(2)
    rep = verify_conjecture(2, label=label, alpha=alpha, grid=grid, depth=6)
    assert rep.counts() == {CERTIFIED: len(grid)}
    classes = {_level_class(2, from_tuple(2, t, label), alpha) for t in grid}
    levels = {level for level, _parity in classes}
    assert sorted(level for level, _parity in judged) == sorted(levels)
    assert len(levels) < len(grid)
    assert {(0, 0), (0, 1)} <= classes


def test_a_layout_whose_parity_does_not_cancel_stops_the_sweep(monkeypatch):
    # negative control of the parity gate: a level class spans both anchor
    # parities only because the census on a Verma layout reads none; on a
    # layout whose raw parities left their delta sums the sweep stops
    # rather than give one verdict to both parities
    monkeypatch.setattr(PBWLayout, "parities_follow_deltas", property(lambda self: False))
    with pytest.raises(AssertionError, match="anchor parity does not cancel"):
        verify_conjecture(2, label=(1,), alpha=(1, 3), depth=6)


def _benchmark_workloads():
    """The benchmark's ``perfbench/workloads.py``, loaded as a module."""
    import importlib.util

    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", root / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    return workloads


def _seed_seven_rank_three_draws() -> list[tuple]:
    """The rank-3 tuples that the benchmark's ``sweep-rank3`` workload draws
    at seed 7."""
    (call,) = _benchmark_workloads().build("sweep-rank3", 7)
    return [tuple(t) for t in call.kwargs["grid"]]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_level_read_from_the_tuple_is_minus_the_invariant_form(n):
    # the sweep keys each tuple by the level it reads from the tuple and
    # rho; the oracle forms the anchor and pairs it with the root.  The
    # sweep's roots are simple, where (rho, alpha) = 0, so the other odd
    # roots are what pin the rho term
    from superverma.borels import rho_vector
    from superverma.superalgebra import all_roots, is_odd_root

    grid = default_conjecture_grid(n)
    if n == 3:
        grid += _seed_seven_rank_three_draws()
    odd_roots = [r for r in all_roots(n) if is_odd_root(n, r)]
    for label in all_borels(n):
        rho = rho_vector(n, label)
        simple = odd_simple_roots(n, label)
        assert {bilinear_form(n, rho, root_weight(n, a)) for a in simple} == {0}
        for alpha in odd_roots:
            want = [
                -bilinear_form(n, from_tuple(n, t, label), root_weight(n, alpha))
                for t in grid
            ]
            assert verify._tuple_levels(n, rho, alpha, grid) == want


@pytest.mark.parametrize("n", [2, 3])
def test_every_default_case_matches_a_fresh_judgement(n):
    # the other side of the level classes, the only sharing of the sweep:
    # each tuple of the default grid judged on a layout of its own gets the
    # verdict and detail of the sweep, also where one class spans both
    # anchor parities
    swept = {c.key: (c.verdict, c.detail) for c in verify_conjecture(n).cases}
    fresh, parities = {}, {}
    for label in all_borels(n):
        for t in default_conjecture_grid(n):
            m = verma_realization(n, label, t, verify.DEFAULT_DEPTH[n])
            for alpha in sorted(odd_simple_roots(n, label)):
                level, parity = _level_class(n, m.datum.hw, alpha)
                parities.setdefault((label, alpha, level), set()).add(parity)
                verdict, detail, _result = _judge_conjecture(n, label, m, alpha, level)
                key = f"b={format_label(label)} alpha={alpha[0]},{alpha[1]} t=({_fmt_tuple(t)})"
                fresh[key] = (verdict, detail)
    assert fresh == swept
    assert {0, 1} in parities.values()


@pytest.mark.parametrize("side", ["record", "certificate"])
def test_a_class_whose_reads_the_level_does_not_fix_is_judged_tuple_by_tuple(
    monkeypatch, side
):
    # negative control of the gate: once the homology run, or the certificate
    # made from it, reads hw_1, which is no multiple of the level form of
    # (1, 3), no tuple may take another's verdict.  Every tuple of the grid
    # is matched, so each class makes a certificate
    label, alpha = (1,), (1, 3)
    grid = [(a, b, a, c) for a in (-1, 0, 1) for b in (-1, 0, 1) for c in (-1, 0, 1)]
    args = dict(n=2, label=label, alpha=alpha, grid=grid, depth=6)
    judged = _count_judgements(monkeypatch)
    expected = verify_conjecture(**args).cases
    assert {_level_class(2, from_tuple(2, t, label), alpha) for t in grid} == {(0, 0), (0, 1)}
    assert [level for level, _parity in judged] == [0]
    hw_1 = ((0, 1),)
    if side == "record":
        ds = verify.ds_homology

        def reading_hw1(m, a):
            result = ds(m, a)
            result.reads.add(hw_1)
            return result

        monkeypatch.setattr(verify, "ds_homology", reading_hw1)
    else:
        certify = verify.certify_verma_iso

        def reading_hw1(result, target_label, target_tuple):
            cert = certify(result, target_label, target_tuple)
            result.reads.add(hw_1)
            return cert

        monkeypatch.setattr(verify, "certify_verma_iso", reading_hw1)
    judged.clear()
    assert verify_conjecture(**args).cases == expected
    assert len(judged) == len(grid)


def test_a_refuted_class_is_judged_tuple_by_tuple(monkeypatch):
    # a REFUTED detail names weights at its own anchor, so no tuple takes
    # another's: with every certificate refuting at its anchor, each tuple
    # is judged and reports its own weight
    from superverma.homology import Certificate

    def refuting(result, target_label, target_tuple):
        return Certificate(REFUTED, 0, {"weight": list(result.source.datum.hw)})

    monkeypatch.setattr(verify, "certify_verma_iso", refuting)
    judged = _count_judgements(monkeypatch)
    label, alpha = (1,), (1, 3)
    grid = [(a, b, a, c) for a in (-1, 0, 1) for b in (-1, 0, 1) for c in (-1, 0, 1)]
    rep = verify_conjecture(2, label=label, alpha=alpha, grid=grid, depth=6)
    assert len(judged) == len(grid)
    by_key = {c.key: c for c in rep.cases}
    for t in grid:
        case = by_key[f"b=(1) alpha=1,3 t=({_fmt_tuple(t)})"]
        assert case.verdict == REFUTED
        assert case.detail == {"weight": list(from_tuple(2, t, label))}


def test_a_borel_job_certifies_once_per_signature(monkeypatch):
    # the doubled-Verma certificate runs once per level class of a root,
    # the only sharing of the sweep: on Verma data the matched tuples of a
    # root form one class, whatever their number and anchor parities
    from itertools import product

    from superverma.verify import _conjecture_cases_for_borel

    certify = verify.certify_verma_iso
    runs: dict = {}

    def counted(result, target_label, *rest):
        key = (result.alpha, target_label, result.source.level(result.alpha))
        runs[key] = runs.get(key, 0) + 1
        return certify(result, target_label, *rest)

    monkeypatch.setattr(verify, "certify_verma_iso", counted)
    grid = list(product(range(-2, 3), repeat=4))
    entries = sorted((t, f"{_fmt_tuple(t)})") for t in grid)
    cases = _conjecture_cases_for_borel((2, (1,), None, entries, 6))
    assert {c.verdict for c in cases} == {CERTIFIED}
    matched = sum(c.detail == {"expected": "double-verma"} for c in cases)
    assert runs and max(runs.values()) == 1
    assert sum(runs.values()) < matched


def _fresh_run(code: str, jobs: int) -> dict:
    """Run ``code`` in a new interpreter with ``SUPERVERMA_JOBS=jobs``; it
    binds ``report``, and the result holds that report's JSON and the
    worker-pool modules loaded by then."""
    src = str(Path(verify.__file__).resolve().parents[1])
    env = dict(os.environ, SUPERVERMA_JOBS=str(jobs))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = code + (
        "\nimport json, sys\n"
        "pool = sorted(m for m in sys.modules if m.partition('.')[0] in"
        " ('concurrent', 'multiprocessing'))\n"
        "print(json.dumps({'pool': pool, 'report': report.to_json()}))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_a_one_job_run_never_loads_the_worker_pool():
    run = _fresh_run(
        "import superverma.cli, superverma.verify\n"
        "report = superverma.verify.verify_conjecture(1)",
        jobs=1,
    )
    assert run["pool"] == []
    assert json.loads(run["report"])["cases"]


def test_conjecture_parallel_workers_match_sequential(monkeypatch):
    # one job per Borel: a single label would never start the pool
    grid = default_conjecture_grid(2)[:40]
    run = _fresh_run(
        "from superverma.verify import verify_conjecture\n"
        f"report = verify_conjecture(2, grid={grid!r}, depth=4)",
        jobs=2,
    )
    assert "concurrent.futures.process" in run["pool"]
    monkeypatch.setenv("SUPERVERMA_JOBS", "1")
    assert run["report"] == verify_conjecture(2, grid=grid, depth=4).to_json()


# ---------------------------------------------------------------------------
# Anchored-module scenario.


def test_mabg_grid_passes_and_reports_parity_twist():
    rep = verify_maBG(2)
    assert rep.ok
    assert len(rep.cases) == len(default_mabg_grid(2)) == 25
    by_key = {c.key: c for c in rep.cases}
    assert by_key["t=(1,2,1,2)"].detail == {"parity_twist": 1}
    assert by_key["t=(2,1,2,1)"].detail == {"parity_twist": 0}


def test_mabg_rank_three_sample_passes():
    rep = verify_maBG(3)
    assert rep.ok
    assert rep.params["depth"] == 3


def test_mabg_rejects_unmatched_tuple():
    with pytest.raises(ValueError):
        verify_maBG(2, grid=[(1, 2, 1, 3)])


def test_mabg_empty_valid_region_is_inconclusive():
    # at depth 0 the homology has no complete weight at either rank: no
    # census can pass or fail there
    for n, size in ((2, 25), (3, 6)):
        rep = verify_maBG(n, depth=0)
        assert len(rep.cases) == size
        assert {c.verdict for c in rep.cases} == {INCONCLUSIVE}
        assert {json.dumps(c.detail) for c in rep.cases} == {
            json.dumps({"reason": "valid region is empty"})
        }


def test_default_grids_exist_only_where_defined():
    assert len(default_conjecture_grid(1)) == 25
    assert len(default_conjecture_grid(3)) == 8
    assert len(default_mabg_grid(3)) == 6
    for n in (0, 4, 5):
        with pytest.raises(ValueError, match=f"no default grid at rank {n}"):
            default_conjecture_grid(n)
    for n in (1, 4):
        with pytest.raises(ValueError, match=f"no default grid at rank {n}"):
            default_mabg_grid(n)


# ---------------------------------------------------------------------------
# Worked rank-2 examples.


def test_gl22_examples_all_pass():
    rep = verify_gl22_examples()
    assert rep.ok
    keys = [c.key for c in rep.cases]
    assert [k for k in keys if k.startswith("seq-")] == [f"seq-{i}" for i in range(1, 9)]
    assert {"pbw-anchored-e13", "pbw-union-e23", "pbw-union-e32"} <= set(keys)
    assert {"direct-e23", "direct-e32", "union-ind-e23"} <= set(keys)
    by_key = {c.key: c for c in rep.cases}
    # the two sequences with a twisted middle factor leak an error module
    assert by_key["seq-5"].detail == {"slack": [[[2, -2], 1]]}
    assert by_key["seq-8"].detail == {"slack": [[[1, -1], 1], [[2, -2], 1]]}
    for i in (1, 2, 3, 4, 6, 7):
        assert by_key[f"seq-{i}"].detail == {"slack": []}


def test_every_gl22_inconclusive_names_its_reason():
    # a truncated census or slack is INCONCLUSIVE at every depth, never FAIL
    seen = 0
    for depth in range(7):
        for case in verify_gl22_examples(depth).cases:
            assert case.verdict != FAIL, (depth, case.key, case.detail)
            if case.verdict == INCONCLUSIVE:
                assert case.detail and case.detail.get("reason"), (depth, case.key)
                seen += 1
    assert seen


@pytest.mark.parametrize(
    "scenario, depths",
    [
        (lambda d: verify_maBG(2, depth=d), range(4)),
        (lambda d: verify_maBG(3, depth=d), range(4)),
        (lambda d: verify_conjecture(1, depth=d), range(4)),
        (lambda d: verify_conjecture(2, depth=d), range(4)),
        (lambda d: verify_conjecture(3, depth=d), range(5)),
    ],
    ids=["mabg2", "mabg3", "conjecture1", "conjecture2", "conjecture3"],
)
def test_every_shallow_inconclusive_names_its_reason(scenario, depths):
    # depths 0-1 of the rank-2 and rank-3 conjectures run the level classes
    # through empty and shallow valid regions; a shallow
    # region may leave a case undecided, never refute it
    seen = 0
    for depth in depths:
        for case in scenario(depth).cases:
            assert case.verdict not in (FAIL, REFUTED), (depth, case.key, case.detail)
            if case.verdict == INCONCLUSIVE:
                assert case.detail and case.detail.get("reason"), (depth, case.key)
                seen += 1
    assert seen


# ---------------------------------------------------------------------------
# Structural invariants.


def test_structure_passes_for_module_ranks():
    for n in (2, 3):
        rep = verify_structure(n)
        assert rep.ok, rep.failures()
        keys = {c.key for c in rep.cases}
        assert {
            "axioms",
            "borel-count",
            "borel-graph",
            "rho",
            "contraction",
            "character-independence",
            "bg-product-character",
            "bg-of-verma",
            "functor-identity",
            "induced-brackets",
        } == keys


def test_structure_combinatorial_only_at_outer_ranks():
    for n in (1, 4):
        rep = verify_structure(n)
        assert rep.ok
        keys = {c.key for c in rep.cases}
        assert "character-independence" not in keys
        assert {"axioms", "borel-count", "borel-graph", "rho"} <= keys


def test_structure_rejects_large_rank():
    with pytest.raises(ValueError):
        verify_structure(5)


def _negate_bracket(monkeypatch, flipped) -> None:
    """Negate the structure constants of the ordered unit pairs in
    ``flipped`` wherever the axioms check reads ``bracket``: directly, and
    through ``bracket_elements``."""
    original = superalgebra.bracket

    def mutant(n, a, b):
        terms = original(n, a, b)
        return tuple((u, -c) for u, c in terms) if (a, b) in flipped else terms

    monkeypatch.setattr(verify, "bracket", mutant)
    monkeypatch.setattr(superalgebra, "bracket", mutant)


E12_E23, E23_E12 = ((1, 2), (2, 3)), ((2, 3), (1, 2))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize(
    "flipped, detail",
    [
        # negating [e12, e23] with its mirror keeps antisymmetry
        ({E12_E23, E23_E12}, {"triple": [[1, 2], [1, 3], [2, 1]]}),
        ({E12_E23}, {"pair": [[1, 2], [2, 3]]}),
    ],
    ids=["jacobi", "antisymmetry"],
)
def test_axioms_refute_a_negated_structure_constant(monkeypatch, n, flipped, detail):
    _negate_bracket(monkeypatch, flipped)
    case = _axioms_case(n)
    assert (case.verdict, case.detail) == (FAIL, detail)


@pytest.mark.parametrize(
    "n, triple", [(2, [[1, 1], [1, 2], [2, 3]]), (3, [[2, 3], [1, 2], [2, 1]])]
)
@pytest.mark.parametrize(
    "wrong",
    [lambda terms: tuple((u, -c) for u, c in terms), lambda terms: ()],
    ids=["negated", "emptied"],
)
def test_a_wrong_inner_bracket_fails_the_jacobi_check(monkeypatch, n, triple, wrong):
    # only the inner brackets, whose emptiness decides which bilinear
    # brackets run, see [e12, e23] and its mirror change: antisymmetry holds,
    # so the Jacobi identity alone must catch it
    original = superalgebra.bracket

    def mutant(n, a, b):
        terms = original(n, a, b)
        return wrong(terms) if (a, b) in (E12_E23, E23_E12) else terms

    monkeypatch.setattr(verify, "bracket", mutant)
    case = _axioms_case(n)
    assert (case.verdict, case.detail) == (FAIL, {"triple": triple})


@pytest.mark.parametrize("n, pairs, triples", [(2, 256, 4096), (3, 1296, 10_000)])
def test_axioms_pass_on_the_true_bracket(n, pairs, triples):
    case = _axioms_case(n)
    assert (case.verdict, case.detail) == (PASS, {"pairs": pairs, "triples": triples})


def test_the_rank3_jacobi_check_reads_the_seeded_draws_in_order(monkeypatch):
    import random

    from superverma.superalgebra import all_units

    calls = []
    original = superalgebra.bracket

    def recorded(n, a, b):
        calls.append((a, b))
        return original(n, a, b)

    monkeypatch.setattr(verify, "bracket", recorded)
    assert _axioms_case(3).verdict == PASS
    units = all_units(3)
    rng = random.Random(20240817)
    draws = [(rng.choice(units), rng.choice(units), rng.choice(units)) for _ in range(10_000)]
    # two brackets per pair, then [y,z], [x,y] and [x,z] per triple
    jacobi = calls[2 * len(units) ** 2 :]
    assert jacobi == [c for x, y, z in draws for c in ((y, z), (x, y), (x, z))]


# ---------------------------------------------------------------------------
# Default report bytes.

# sha256 of ``to_json()`` of each default report; a change that is meant to
# keep behaviour must keep these, ``detail`` included
DEFAULT_REPORTS = {
    "mabg2": (
        lambda: verify_maBG(2),
        "922a3ad3830a09766672efe1811eda05762c530924afd19504f633f5fbaba87a",
    ),
    "mabg3": (
        lambda: verify_maBG(3),
        "97cb0af4de9074555693cf1221c4d9c7abfdbc6f8d1475be0a6d5e2223864544",
    ),
    "gl22": (
        verify_gl22_examples,
        "4510b86cc8e350004bd67d84060e190035000a44aea83c18caeaaee6b435bbff",
    ),
    "structure2": (
        lambda: verify_structure(2),
        "66437f566afc98d8e03e149e67ee3ee476dbc0a77f92ec3344f5c2accf93278b",
    ),
    "structure3": (
        lambda: verify_structure(3),
        "772ac467d58b7c2aa2bce274e1bf22d21864c4bf6b47044f0818a73a3908ce2e",
    ),
    "conjecture1": (
        lambda: verify_conjecture(1),
        "99b8a484213060765bc045e2419f748e741ee74fbbc4683a6021e699ead48f61",
    ),
    "conjecture2": (
        lambda: verify_conjecture(2),
        "a4788023da643cf1e3245b3fc9df27985beb947a8fddf44ea034b264cbec0518",
    ),
    "conjecture3": (
        lambda: verify_conjecture(3),
        "744eeb79c2f091b37232c7abc42e1e8031e134541c554ac826e396b9cc8daf60",
    ),
}


@pytest.mark.parametrize("name", sorted(DEFAULT_REPORTS))
def test_default_report_bytes_are_pinned(name):
    run, expected = DEFAULT_REPORTS[name]
    assert hashlib.sha256(run().to_json().encode()).hexdigest() == expected
