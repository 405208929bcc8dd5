"""Named verification scenarios over the whole library, reported as verdicts.

Each ``verify_*`` function runs one family of checks end to end and returns
a :class:`ScenarioReport` whose cases carry one verdict each:

* ``verify_conjecture`` -- rank-one homology of a Verma module is either a
  doubled Verma for the inherited Borel (matched anchor) or zero (unmatched),
  checked by the same certificates at every rank; at rank 1 the doubled
  Verma of gl(0|0) is the pair of anchor classes;
* ``verify_maBG``       -- homology of an anchored enlarged-Borel module is
  the one-size-down module with a parity twist;
* ``verify_gl22_examples`` -- the eight six-term sequences in the maximal
  atypical rank-2 block, the golden straightening formulas, and the two
  direct rank-2 homology computations;
* ``verify_structure``  -- the cross-module invariants: bracket axioms,
  Borel combinatorics, rho vectors, characters, contraction identities,
  factorwise homology, and induced-action bracket relations.

Reports are deterministic: cases are sorted by key and all numeric work is
exact, so repeated runs produce identical content.  Set the environment
variable ``SUPERVERMA_JOBS`` to a number greater than 1 to spread the Borel
sweeps of ``verify_conjecture`` over worker processes; the worker-pool
modules are imported only then, so a one-job run never loads them.
"""

from __future__ import annotations

import json
import os
import random
import time
from collections import Counter
from dataclasses import dataclass
from itertools import product
from math import comb
from operator import attrgetter
from typing import NamedTuple

from .borels import (
    all_borels,
    b_inner,
    b_outer,
    ber_weight,
    borel_graph,
    format_label,
    hypercube_gamma,
    hypercube_label,
    normalize_label,
    odd_simple_roots,
    rho_half_sum,
    rho_vector,
)
from .homology import (
    CERTIFIED,
    INCONCLUSIVE,
    REFUTED,
    DSResult,
    certify_verma_iso,
    certify_zero,
    contraction_check,
    ds_borel_label,
    ds_homology,
    ds_tensor_factor,
    gl11_ds_table,
    ses_supercharacter_check,
    induced_bracket_check,
    parity_cancels,
    projected_ds_census,
    unfixed_read,
)
from .modules import (
    Realization,
    bg_module,
    bg_realization,
    level_form,
    parabolic_IJ_realization,
    union_borel_datum,
    verma_realization,
)
from .superalgebra import (
    all_units,
    bracket,
    bracket_elements,
    root_weight,
    unit_parity,
)
from .weights import (
    add_weights,
    in_lambda_BG,
    in_lambda_maBG,
    par,
    pr_alpha,
    to_tuple,
    verma_character,
    bg_character,
)

PASS = "PASS"
FAIL = "FAIL"

DEFAULT_DEPTH = {1: 8, 2: 6, 3: 4}
GRID_RANGE = (-2, 2)

# fixed sample tuples for rank 3, mixing matched and unmatched anchors
N3_CONJECTURE_SAMPLE = (
    (0, 0, 0, 0, 0, 0),
    (1, 0, 1, 1, 0, 1),
    (2, 1, 0, 2, 1, 0),
    (1, 2, 0, 1, 0, 2),
    (-1, 1, 2, -1, 1, 2),
    (2, 0, 1, 1, 0, 2),
    (0, 1, 2, 2, 1, 0),
    (1, 1, 1, 2, 2, 2),
)
N3_MABG_SAMPLE = ((0, 0, 0), (1, 2, 0), (2, -1, 1), (-2, 1, 2), (1, 1, 1), (2, 2, -2))


class CaseResult(NamedTuple):
    """One named check inside a scenario: its key, its verdict and an
    optional detail.  A named tuple, since a sweep makes one per case."""

    key: str
    verdict: str
    detail: dict | None = None

    def to_jsonable(self) -> dict:
        return {"key": self.key, "verdict": self.verdict, "detail": self.detail}


@dataclass(frozen=True)
class ScenarioReport:
    """Deterministic record of one scenario run: cases sorted by key."""

    scenario: str
    params: dict
    cases: tuple[CaseResult, ...]
    wall_time_ms: int

    @property
    def ok(self) -> bool:
        return all(c.verdict in (PASS, CERTIFIED) for c in self.cases)

    def counts(self) -> dict[str, int]:
        return dict(sorted(Counter(c.verdict for c in self.cases).items()))

    def failures(self) -> tuple[CaseResult, ...]:
        return tuple(c for c in self.cases if c.verdict not in (PASS, CERTIFIED))

    def to_json(self, timing: bool = False) -> str:
        """Serialize the report; timing is excluded by default so that the
        serialized form is byte-identical across runs."""
        doc = {
            "scenario": self.scenario,
            "params": self.params,
            "cases": [c.to_jsonable() for c in self.cases],
            "wall_time_ms": self.wall_time_ms if timing else None,
        }
        return json.dumps(doc, sort_keys=True)

    def summary(self) -> str:
        counts = ", ".join(f"{k}={v}" for k, v in self.counts().items())
        status = "ok" if self.ok else "FAILED"
        return f"{self.scenario}: {len(self.cases)} cases ({counts}) -> {status}"


def _finish(scenario: str, params: dict, cases, started: float) -> ScenarioReport:
    ordered = tuple(sorted(cases, key=attrgetter("key")))
    return ScenarioReport(
        scenario, params, ordered, int((time.monotonic() - started) * 1000)
    )


def _fmt_tuple(t) -> str:
    return ",".join(map(str, t))


def _place(parity: int) -> tuple[int, int]:
    return (1, 0) if parity % 2 == 0 else (0, 1)


def _job_count() -> int:
    try:
        return max(int(os.environ.get("SUPERVERMA_JOBS", "1")), 1)
    except ValueError:
        return 1


def _census_table(result) -> dict:
    return {w: d for w, d in result.dim_table.items() if d != (0, 0)}


# ---------------------------------------------------------------------------
# Scenario: rank-one homology of Verma modules.


def default_conjecture_grid(n: int):
    """The full ``GRID_RANGE`` grid at ranks 1 and 2, the sample at rank 3."""
    lo, hi = GRID_RANGE
    if n in (1, 2):
        return list(product(range(lo, hi + 1), repeat=2 * n))
    if n == 3:
        return list(N3_CONJECTURE_SAMPLE)
    raise ValueError(f"no default grid at rank {n}")


def _judge_conjecture(n, label, m, alpha, level) -> tuple[str, dict | None, DSResult]:
    """Certify a zero census off the matched hyperplane (``level != 0``), the
    doubled Verma of the inherited Borel on it; rank 1 inherits gl(0|0) and
    its target is the pair of anchor classes.  Returns the verdict, its
    detail and the homology the certificate read."""
    r = ds_homology(m, alpha)
    if level:
        cert = certify_zero(r)
        detail = {"expected": "zero"} if cert.ok else dict(cert.detail)
        return cert.verdict, detail, r
    target_label = ds_borel_label(n, label, alpha)
    target = to_tuple(n - 1, pr_alpha(n, m.datum.hw, alpha), target_label)
    cert = certify_verma_iso(r, target_label, target)
    kind = "pair" if n == 1 else "double-verma"
    detail = {"expected": kind} if cert.ok else dict(cert.detail)
    return cert.verdict, detail, r


def _tuple_levels(n: int, rho, alpha, tuples) -> list[int]:
    """The level ``-(hw, alpha)`` of the anchor of each tuple, read from the
    tuple: with ``hw = plain(t) - rho`` and ``plain`` negating the delta
    block, it is ``sum(c * sign_i * t_i) - sum(c * rho_i)`` over the two
    terms ``(i, c)`` of :func:`~superverma.modules.level_form`, ``sign_i``
    being ``-1`` on the delta block."""
    (i, ci), (j, cj) = level_form(n, alpha)
    base = ci * rho[i] + cj * rho[j]
    if i >= n:
        ci = -ci
    if j >= n:
        cj = -cj
    return [ci * t[i] + cj * t[j] - base for t in tuples]


def _conjecture_cases_for_borel(args) -> list[CaseResult]:
    """The cases of one Borel job ``(n, label, alpha, grid, depth)``.

    Every tuple of the job has the same PBW layout; it is straightened once,
    by the first realization, and dropped when the job returns.  For each
    root the tuples fall into level classes, the level read from the tuple
    with the job's ``rho`` (:func:`_tuple_levels`); each tuple's key text is
    formatted once per job.  One realization, of the class's least tuple, is
    judged; the other tuples take its verdict and detail only where every
    form its record and that record's certificates read is a multiple of the
    level form, so that each of them recalls the same numbers.  A level
    class spans both anchor parities: the census reads none on a Verma
    layout, which :func:`~superverma.homology.parity_cancels` checks as an
    invariant.  A class that fails the gate of forms, and a ``REFUTED``
    verdict, whose detail names weights, are judged again tuple by tuple.
    """
    n, label, alpha, grid, depth = args
    alphas = [alpha] if alpha is not None else sorted(odd_simple_roots(n, label))
    cases: list[CaseResult] = []
    rho = rho_vector(n, label)
    entries = sorted((t, f"{_fmt_tuple(t)})") for t in grid)
    tuples = [t for t, _tail in entries]
    layout = None
    prefix = f"b={format_label(label)}"
    for a in alphas:
        head = f"{prefix} alpha={a[0]},{a[1]} t=("
        form = level_form(n, a)
        classes: dict[int, list[tuple]] = {}
        for entry, level in zip(entries, _tuple_levels(n, rho, a, tuples)):
            classes.setdefault(level, []).append(entry)
        for level, members in classes.items():
            least = members[0][0]
            m = verma_realization(n, label, least, depth, layout)
            layout = m.layout
            if not parity_cancels(m):
                raise AssertionError(
                    f"the anchor parity does not cancel on the layout of {format_label(label)}"
                )
            verdict, detail, r = _judge_conjecture(n, label, m, a, level)
            if verdict != REFUTED and unfixed_read(r, form) is None:
                cases.extend(CaseResult(head + tail, verdict, detail) for _t, tail in members)
                continue
            for t, tail in members:
                v, d = verdict, detail
                if t != least:
                    view = verma_realization(n, label, t, depth, layout)
                    v, d, _r = _judge_conjecture(n, label, view, a, level)
                cases.append(CaseResult(head + tail, v, d))
    return cases


def verify_conjecture(
    n: int, label=None, alpha=None, grid=None, depth: int | None = None
) -> ScenarioReport:
    """Check the rank-one homology of Verma modules over a tuple grid.

    For each Borel (one, or all of them), each of its simple odd roots (or
    the given one), and each anchor tuple: when the anchor pairs to zero
    with the root, certify the homology as the doubled inherited Verma;
    otherwise certify that it vanishes on the valid region.

    The tuples of a Borel and root are judged by level class: the level
    ``-(hw, alpha)`` of the anchor, read from the tuple.  Each class judges
    its least tuple on the Borel's shared layout.  Its other tuples take
    that verdict and detail when every form read by the homology record, and
    by the certificates kept in it, is a multiple of the level form
    (:func:`~superverma.homology.unfixed_read`): then every anchor of the
    class reads the same numbers.  The anchor parity ``par(n, hw)`` splits
    no class: on a Verma layout the census places both sides of each
    comparison at one parity, an invariant checked per class by
    :func:`~superverma.homology.parity_cancels`, whose failure raises
    ``AssertionError``.  A class that fails the gate of forms, and a
    ``REFUTED`` verdict, are judged tuple by tuple, each on its own
    realization.
    """
    if n < 1:
        raise ValueError(f"rank must be at least 1, got {n}")
    started = time.monotonic()
    depth = DEFAULT_DEPTH.get(n, 4) if depth is None else depth
    labels = list(all_borels(n)) if label is None else [normalize_label(label, n)]
    if alpha is not None:
        for b in labels:
            if alpha not in odd_simple_roots(n, b):
                raise ValueError(
                    f"{alpha} is not a simple odd root of {format_label(b)}"
                )
    grid = default_conjecture_grid(n) if grid is None else [tuple(t) for t in grid]
    for t in grid:
        if len(t) != 2 * n:
            raise ValueError(f"grid tuple {t} has length {len(t)}, expected {2 * n}")
    params = {
        "n": n,
        "depth": depth,
        "borels": [format_label(b) for b in labels],
        "alpha": None if alpha is None else f"{alpha[0]},{alpha[1]}",
        "tuples": len(grid),
    }
    jobs = [(n, b, alpha, grid, depth) for b in labels]
    workers = min(_job_count(), len(jobs))
    if workers > 1:
        # imported only here, so a one-job run never loads the pool modules
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(_conjecture_cases_for_borel, jobs))
    else:
        batches = [_conjecture_cases_for_borel(job) for job in jobs]
    cases = [case for batch in batches for case in batch]
    return _finish("conjecture", params, cases, started)


# ---------------------------------------------------------------------------
# Scenario: homology of anchored enlarged-Borel modules.


def default_mabg_grid(n: int):
    """Matched diagonals over ``GRID_RANGE`` at rank 2, the sample at rank 3."""
    lo, hi = GRID_RANGE
    if n == 2:
        diags = product(range(lo, hi + 1), repeat=n)
    elif n == 3:
        diags = N3_MABG_SAMPLE
    else:
        raise ValueError(f"no default grid at rank {n}")
    return [tuple(d) + tuple(d) for d in diags]


def verify_maBG(n: int, grid=None, depth: int | None = None) -> ScenarioReport:
    """Check that homology of the anchored module drops the rank by one.

    Every grid tuple must have all diagonal pairs matched (the anchored
    family); a tuple outside the family is a precondition error.  The
    census must equal the one-size-down anchored census with the parity
    twist of the first pair; at rank 2 the census must be exactly one class
    sitting at the anchor weight.  A tuple whose valid region is empty is
    ``INCONCLUSIVE``.
    """
    started = time.monotonic()
    depth = (3 if n == 3 else DEFAULT_DEPTH.get(n, 4)) if depth is None else depth
    grid = default_mabg_grid(n) if grid is None else [tuple(t) for t in grid]
    for t in grid:
        if len(t) != 2 * n:
            raise ValueError(f"grid tuple {t} has length {len(t)}, expected {2 * n}")
        if not in_lambda_maBG(t):
            raise ValueError(f"tuple {t} is not in the matched-diagonal family")
    params = {"n": n, "depth": depth, "tuples": len(grid)}
    cases = []
    for t in grid:
        key = f"t=({_fmt_tuple(t)})"
        m = bg_realization(n, t, depth)
        r = ds_homology(m, (1, n + 1))
        if r.valid_depth < 0:
            cases.append(CaseResult(key, INCONCLUSIVE, {"reason": "valid region is empty"}))
            continue
        specs = [("simple", t[k], t[k]) for k in range(n)]
        expected = dict(ds_tensor_factor(n, specs, depth).table)
        actual = _census_table(r)
        twist = t[0] % 2
        detail: dict = {"parity_twist": twist}
        verdict = PASS
        if actual != expected:
            verdict = FAIL
            detail["mismatch"] = _first_mismatch(actual, expected)
        elif n == 2:
            hw = m.datum.hw
            if actual != {hw: _place(par(n, hw))}:
                verdict = FAIL
                detail["mismatch"] = {"reason": "census is not a single anchor class"}
        cases.append(CaseResult(key, verdict, detail))
    return _finish("mabg", params, cases, started)


def _first_mismatch(actual: dict, expected: dict) -> dict:
    for w in sorted(set(actual) | set(expected)):
        if actual.get(w, (0, 0)) != expected.get(w, (0, 0)):
            return {
                "weight": list(w),
                "dims": list(actual.get(w, (0, 0))),
                "expected": list(expected.get(w, (0, 0))),
            }
    return {}


# ---------------------------------------------------------------------------
# Scenario: the rank-2 maximal atypical block worked examples.


def _rank1_expected(summands) -> dict:
    """Projected census of a sum of rank-1 modules given as (kind, c, twist):
    kind "L" is the one-dimensional module at the matched pair (c | c), kind
    "M" the two-dimensional standard Verma; parities are canonical per
    weight, shifted by the twist."""
    table: dict = {}
    for kind, c, twist in summands:
        weights = [(c, -c)] if kind == "L" else [(c, -c), (c - 1, -(c - 1))]
        for w in weights:
            e, o = _place(par(1, w) + twist)
            cur = table.get(w, (0, 0))
            table[w] = (cur[0] + e, cur[1] + o)
    return table


def _projected_census(result):
    """The projected census, and a test for the projected weights that the
    truncation leaves undecided: those with a lift outside the valid region,
    and those with no lift in the module region at all, which a deeper
    truncation may still reach."""
    projected, incomplete = projected_ds_census(result)
    lifted = {pr_alpha(result.n, mu, result.alpha) for mu in result.source.weight_spaces}
    return projected, lambda nu: nu in incomplete or nu not in lifted


def _six_term_case(key, sub, mid, quot, expected_parts, expected_slack) -> CaseResult:
    results = [ds_homology(m, (1, 3)) for m in (sub, mid, quot)]
    try:
        report = ses_supercharacter_check(*results)
    except ValueError as err:
        return CaseResult(key, FAIL, {"reason": str(err)})
    detail: dict = {"slack": report["slack"]}
    if not report["ok"]:
        return CaseResult(key, FAIL, {"failures": report["failures"], **detail})
    # completeness, then census, then slack: a weight the truncation cuts
    # off is never read as a mismatch
    names = ("sub", "mid", "quot")
    censuses = [_projected_census(r) for r in results]
    expected = [_rank1_expected(summands) for summands in expected_parts]
    for name, (_, undecided), want in zip(names, censuses, expected, strict=True):
        if any(undecided(w) for w in want):
            return CaseResult(
                key, INCONCLUSIVE, {"reason": f"{name} census truncated", **detail}
            )
    for name, (projected, _), want in zip(names, censuses, expected, strict=True):
        if projected != want:
            return CaseResult(
                key,
                FAIL,
                {"reason": f"{name} census mismatch", **_first_mismatch(projected, want)},
            )
    if report["slack"] != expected_slack:
        got = {tuple(w): k for w, k in report["slack"]}
        want_slack = {tuple(w): k for w, k in expected_slack}
        wrong = [w for w in got.keys() | want_slack.keys() if got.get(w) != want_slack.get(w)]
        if all(any(undecided(w) for _, undecided in censuses) for w in wrong):
            return CaseResult(
                key, INCONCLUSIVE, {"reason": "error-module slack truncated", **detail}
            )
        return CaseResult(
            key, FAIL, {"reason": "error-module slack mismatch", **detail}
        )
    return CaseResult(key, PASS, detail)


def _sequence_cases(a: int, b: int, depth: int) -> list[CaseResult]:
    """The eight short exact sequences of the rank-2 matched-diagonal block,
    with the displayed homology of each term and of the error module."""
    pa = a % 2
    seqs = {
        "seq-1": (
            bg_realization(2, (a - 1, b, a - 1, b), depth),
            bg_module(2, [("verma_eps", a, a), ("simple", b, b)], depth),
            bg_realization(2, (a, b, a, b), depth),
            ([("L", b, 1 + pa)], [("L", b, 0), ("L", b, 1)], [("L", b, pa)]),
            [],
        ),
        "seq-2": (
            bg_realization(2, (a, b - 1, a, b - 1), depth),
            bg_module(2, [("simple", a, a), ("verma_eps", b, b)], depth),
            bg_realization(2, (a, b, a, b), depth),
            ([("L", b - 1, pa)], [("M", b, pa)], [("L", b, pa)]),
            [],
        ),
        "seq-3": (
            bg_module(2, [("verma_eps", a, a), ("simple", b - 1, b - 1)], depth),
            verma_realization(2, (1,), (a, b, a, b), depth),
            bg_module(2, [("verma_eps", a, a), ("simple", b, b)], depth),
            (
                [("L", b - 1, 0), ("L", b - 1, 1)],
                [("M", b, 0), ("M", b, 1)],
                [("L", b, 0), ("L", b, 1)],
            ),
            [],
        ),
        "seq-4": (
            bg_module(2, [("simple", a - 1, a - 1), ("verma_eps", b, b)], depth),
            verma_realization(2, (1,), (a, b, a, b), depth),
            bg_module(2, [("simple", a, a), ("verma_eps", b, b)], depth),
            ([("M", b, 1 + pa)], [("M", b, 0), ("M", b, 1)], [("M", b, pa)]),
            [],
        ),
        "seq-5": (
            bg_realization(2, (a + 1, b, a + 1, b), depth),
            bg_module(2, [("verma_delta", a + 1, a + 1), ("simple", b, b)], depth),
            bg_realization(2, (a, b, a, b), depth),
            ([("L", b, 1 + pa)], [], [("L", b, pa)]),
            [[[b, -b], 1]],
        ),
        "seq-6": (
            bg_realization(2, (a, b + 1, a, b + 1), depth),
            bg_module(2, [("simple", a, a), ("verma_delta", b + 1, b + 1)], depth),
            bg_realization(2, (a, b, a, b), depth),
            ([("L", b + 1, pa)], [("M", b + 1, pa)], [("L", b, pa)]),
            [],
        ),
        "seq-7": (
            bg_module(2, [("verma_eps", a, a), ("simple", b + 1, b + 1)], depth),
            verma_realization(2, (2,), (a, b + 1, a, b + 1), depth),
            bg_module(2, [("verma_eps", a, a), ("simple", b, b)], depth),
            (
                [("L", b + 1, 0), ("L", b + 1, 1)],
                [("M", b + 1, 0), ("M", b + 1, 1)],
                [("L", b, 0), ("L", b, 1)],
            ),
            [],
        ),
        "seq-8": (
            bg_module(2, [("simple", a + 1, a + 1), ("verma_eps", b, b)], depth),
            verma_realization(2, (1, 1), (a + 1, b, a + 1, b), depth),
            bg_module(2, [("simple", a, a), ("verma_eps", b, b)], depth),
            ([("M", b, 1 + pa)], [], [("M", b, pa)]),
            sorted([[[b, -b], 1], [[b - 1, -(b - 1)], 1]]),
        ),
    }
    return [
        _six_term_case(key, sub, mid, quot, parts, slack)
        for key, (sub, mid, quot, parts, slack) in seqs.items()
    ]


def _formula_case(key: str, checker) -> CaseResult:
    mismatches = checker()
    if mismatches:
        return CaseResult(key, FAIL, {"mismatch": mismatches[0]})
    return CaseResult(key, PASS, None)


def _check_anchored_raising(depth: int):
    """Straightening of the odd raising unit against the anchored PBW basis
    e21^a e23^b e41^c e43^d, for all branches on the two odd exponents."""
    r = bg_realization(2, (2, -1, 2, -1), depth)

    def mono(a21=0, a23=0, a41=0, a43=0):
        return r.monomial({(2, 1): a21, (2, 3): a23, (4, 1): a41, (4, 3): a43})

    bad = []
    for a21, a43 in product(range(4), range(4)):
        want00 = {mono(a21 - 1, 1, 0, a43): -a21} if a21 else {}
        want01 = {mono(a21, 0, 0, a43 + 1): 1}
        if a21:
            want01[mono(a21 - 1, 1, 1, a43)] = -a21
        checks = [
            (mono(a21, 0, 0, a43), want00),
            (mono(a21, 1, 0, a43), {}),
            (mono(a21, 0, 1, a43), want01),
            (mono(a21, 1, 1, a43), {mono(a21, 1, 0, a43 + 1): -1}),
        ]
        for vec, want in checks:
            got = r.act_unit_on_basis((1, 3), vec)
            if got != want:
                bad.append({"exponents": [a21, a43], "vector": str(vec)})
    return bad


def _union_module(hw, depth: int) -> Realization:
    return Realization(union_borel_datum(2, [(), (1,)], hw), depth)


def _check_union_raisings(depth: int, unit):
    """Straightening of a raising unit against the two-Borel span's PBW basis
    e21^a e31^b e41^c e42^d e43^e, for all branches on the odd exponents."""
    r = _union_module((2, 1, -1, -3), depth)

    def mono(a21=0, a31=0, a41=0, a42=0, a43=0):
        return r.monomial(
            {(2, 1): a21, (3, 1): a31, (4, 1): a41, (4, 2): a42, (4, 3): a43}
        )

    bad = []
    for a21, a41, a43 in product(range(4), range(2), range(4)):
        if unit == (2, 3):
            want11 = {
                mono(a21 + 1, 0, a41, 1, a43): 1,
                mono(a21, 1, a41, 0, a43 + 1): -((-1) ** a41),
            }
            checks = [
                (mono(a21, 0, a41, 0, a43), {}),
                (mono(a21, 1, a41, 0, a43), {mono(a21 + 1, 0, a41, 0, a43): 1}),
                (
                    mono(a21, 0, a41, 1, a43),
                    {mono(a21, 0, a41, 0, a43 + 1): (-1) ** a41},
                ),
                (mono(a21, 1, a41, 1, a43), want11),
            ]
        else:
            want00: dict = {}
            if a21:
                want00[mono(a21 - 1, 1, a41, 0, a43)] = a21
            if a43:
                want00[mono(a21, 0, a41, 1, a43 - 1)] = -a43 * (-1) ** a41
            checks = [
                (mono(a21, 0, a41, 0, a43), want00),
                (
                    mono(a21, 0, a41, 1, a43),
                    {mono(a21 - 1, 1, a41, 1, a43): a21} if a21 else {},
                ),
                (
                    mono(a21, 1, a41, 0, a43),
                    {mono(a21, 1, a41, 1, a43 - 1): a43 * (-1) ** a41}
                    if a43
                    else {},
                ),
                (mono(a21, 1, a41, 1, a43), {}),
            ]
        for vec, want in checks:
            got = r.act_unit_on_basis(unit, vec)
            if got != want:
                bad.append({"exponents": [a21, a41, a43], "vector": str(vec)})
    return bad


def _direct_cases(depth: int) -> list[CaseResult]:
    """Direct rank-2 homology computations at an anchor of the shape
    (a, b, -b, -c): both mixed-pair odd roots give a doubled standard Verma
    on the surviving pair, and the two-Borel induction underneath them has
    a one-copy census with the parity twist of the matched pair."""
    a, b, c = 2, 1, -1
    hw = (a, b, -b, -c)
    cases = []

    for key, label, alpha in (
        ("direct-e23", (), (2, 3)),
        ("direct-e32", (1,), (3, 2)),
    ):
        m = verma_realization(2, label, to_tuple(2, hw, label), depth)
        r = ds_homology(m, alpha)
        target_label = ds_borel_label(2, label, alpha)
        target = to_tuple(1, pr_alpha(2, hw, alpha), target_label)
        cert = certify_verma_iso(r, target_label, target)
        detail = dict(cert.detail) if cert.detail else None
        cases.append(CaseResult(key, cert.verdict, detail))

    u = _union_module(hw, depth)
    projected, undecided = _projected_census(ds_homology(u, (2, 3)))
    expected = {
        (a, -c): _place((b + c) % 2),
        (a - 1, -c + 1): _place((b + c + 1) % 2),
    }
    if any(undecided(w) for w in expected):
        cases.append(
            CaseResult("union-ind-e23", INCONCLUSIVE, {"reason": "projected census truncated"})
        )
    elif projected == expected:
        cases.append(CaseResult("union-ind-e23", PASS, {"parity_twist": b % 2}))
    else:
        cases.append(
            CaseResult("union-ind-e23", FAIL, _first_mismatch(projected, expected))
        )

    for key, label, alpha, step in (
        ("union-ses-e23", (), (2, 3), (3, 2)),
        ("union-ses-e32", (1,), (3, 2), (2, 3)),
    ):
        sub = _union_module(add_weights(hw, root_weight(2, step)), depth)
        mid = verma_realization(2, label, to_tuple(2, hw, label), depth)
        quot = _union_module(hw, depth)
        try:
            report = ses_supercharacter_check(
                *(ds_homology(m, alpha) for m in (sub, mid, quot))
            )
        except ValueError as err:
            cases.append(CaseResult(key, FAIL, {"reason": str(err)}))
            continue
        good = report["ok"] and report["slack"] == []
        detail = {"slack": report["slack"]}
        cases.append(CaseResult(key, PASS if good else FAIL, detail))
    return cases


def verify_gl22_examples(depth: int | None = None) -> ScenarioReport:
    """Run the worked rank-2 examples: the eight six-term sequences of the
    matched-diagonal block, the frozen straightening formulas, and the
    direct homology computations off the matched diagonal."""
    started = time.monotonic()
    depth = DEFAULT_DEPTH[2] if depth is None else depth
    a, b = 1, 2
    cases = _sequence_cases(a, b, depth)
    cases.append(_formula_case("pbw-anchored-e13", lambda: _check_anchored_raising(depth)))
    cases.append(
        _formula_case("pbw-union-e23", lambda: _check_union_raisings(depth, (2, 3)))
    )
    cases.append(
        _formula_case("pbw-union-e32", lambda: _check_union_raisings(depth, (3, 2)))
    )
    cases.extend(_direct_cases(depth))
    return _finish("gl22", {"depth": depth, "a": a, "b": b}, cases, started)


# ---------------------------------------------------------------------------
# Scenario: cross-module structural invariants.


def _axioms_case(n: int) -> CaseResult:
    units = all_units(n)
    parity = {u: unit_parity(n, u) for u in units}
    pairs = 0
    for x in units:
        for y in units:
            sign = -1 if parity[x] and parity[y] else 1
            lhs = dict(bracket(n, x, y))
            rhs = {u: -sign * co for u, co in bracket(n, y, x)}
            if lhs != rhs:
                return CaseResult("axioms", FAIL, {"pair": [list(x), list(y)]})
            pairs += 1

    def jacobi(xu, yu, zu) -> bool:
        # [x,[y,z]] = [[x,y],z] + (-1)^{|x||y|} [y,[x,z]] on integer combinations
        sign = -1 if parity[xu] and parity[yu] else 1
        lhs = bracket_elements(n, ((xu, 1),), bracket(n, yu, zu))
        rhs = bracket_elements(n, bracket(n, xu, yu), ((zu, 1),))
        for w, c in bracket_elements(n, ((yu, 1),), bracket(n, xu, zu)).items():
            rhs[w] = rhs.get(w, 0) + sign * c
        return lhs == {w: c for w, c in rhs.items() if c}

    triples = 0
    if n <= 2:
        for xu in units:
            for yu in units:
                for zu in units:
                    if not jacobi(xu, yu, zu):
                        return CaseResult(
                            "axioms", FAIL, {"triple": [list(xu), list(yu), list(zu)]}
                        )
                    triples += 1
    else:
        rng = random.Random(20240817)
        for _ in range(10_000):
            xu, yu, zu = rng.choice(units), rng.choice(units), rng.choice(units)
            if not jacobi(xu, yu, zu):
                return CaseResult(
                    "axioms", FAIL, {"triple": [list(xu), list(yu), list(zu)]}
                )
            triples += 1
    return CaseResult("axioms", PASS, {"pairs": pairs, "triples": triples})


def _borel_cases(n: int) -> list[CaseResult]:
    counts = [len(all_borels(k)) for k in range(1, 6)]
    expected = [comb(2 * k, k) for k in range(1, 6)]
    cases = [
        CaseResult(
            "borel-count",
            PASS if counts == expected else FAIL,
            {"counts": counts},
        )
    ]
    vertices, edges = borel_graph(n)
    ok = len(vertices) == comb(2 * n, n)
    detail: dict = {"vertices": len(vertices), "edges": len(edges)}
    # the corner-box labels induce a hypercube: adjacent iff one bit flips
    cube = {g: hypercube_label(n, g) for g in product((0, 1), repeat=n)}
    cube_labels = set(cube.values())
    induced = {e for e in edges if e[0] in cube_labels and e[1] in cube_labels}
    expected_induced = set()
    for g1, l1 in cube.items():
        for g2, l2 in cube.items():
            if sum(x != y for x, y in zip(g1, g2, strict=True)) == 1:
                expected_induced.add(tuple(sorted((l1, l2))))
    ok = ok and induced == expected_induced
    if n == 3:
        edge_set = set(edges)
        ok = ok and tuple(sorted(((), (1,)))) in edge_set
        neighbors = sorted(
            v for e in edges for v in e if (2, 1) in e and v != (2, 1)
        )
        ok = ok and neighbors == [(1, 1), (2,), (2, 1, 1), (2, 2), (3, 1)]
        detail["central-cube-edges"] = len(induced)
    cases.append(CaseResult("borel-graph", PASS if ok else FAIL, detail))
    return cases


def _rho_case(n: int) -> CaseResult:
    proportional = []
    for label in all_borels(n):
        if rho_vector(n, label) != rho_half_sum(n, label):
            return CaseResult("rho", FAIL, {"label": format_label(label)})
        vec = rho_vector(n, label)
        if _is_multiple_of_ber(n, vec):
            proportional.append(label)
    ok = (
        rho_vector(n, b_outer(n)) == (0,) * 2 * n
        and rho_vector(n, b_inner(n)) == ber_weight(n)
        and sorted(proportional) == sorted([b_outer(n), b_inner(n)])
    )
    return CaseResult("rho", PASS if ok else FAIL, {"labels": len(all_borels(n))})


def _is_multiple_of_ber(n: int, vec) -> bool:
    c = vec[0]
    return vec == tuple([c] * n + [-c] * n)


def _character_independence_case(n: int) -> CaseResult:
    depth = 4 if n == 2 else 3
    tuples = [(2, 0, -1, -3), (1, 1, 0, 0)] if n == 2 else [(2, 1, 0, -1, -2, 1)]
    labels = list(all_borels(n))
    checked = 0
    for t in tuples:
        censuses = [verma_realization(n, lab, t, depth).census() for lab in labels]
        base = censuses[0]
        for other in censuses[1:]:
            if base.disagreement(other) is not None:
                return CaseResult(
                    "character-independence",
                    FAIL,
                    {"t": list(t), "weight": list(base.disagreement(other))},
                )
            checked += 1
    return CaseResult("character-independence", PASS, {"comparisons": checked})


def _bg_product_case(n: int) -> CaseResult:
    depth = 5 if n == 2 else 4
    tuples = (
        [(1, 2, 1, 2), (2, 0, 2, -1), (1, 0, 2, 3)]
        if n == 2
        else [(1, 2, 0, 1, 2, 0), (2, 1, 0, 2, 1, -1)]
    )
    for t in tuples:
        if not in_lambda_BG(t):
            return CaseResult("bg-product-character", FAIL, {"t": list(t)})
        got = bg_realization(n, t, depth).census()
        want = bg_character(n, t, depth)
        if got != want:
            return CaseResult("bg-product-character", FAIL, {"t": list(t)})
    return CaseResult("bg-product-character", PASS, {"tuples": len(tuples)})


def _bg_of_verma_case(n: int) -> CaseResult:
    depth = 4 if n == 2 else 3
    t = (3, 1, -1, -2) if n == 2 else (3, 1, 0, -1, -2, -4)
    gammas = (
        list(product((0, 1), repeat=n)) if n == 2 else [(0, 0, 0), (1, 0, 1)]
    )
    for gamma in gammas:
        specs = [
            ("verma_delta" if g else "verma_eps", t[k], t[n + k])
            for k, g in enumerate(gamma)
        ]
        label = hypercube_label(n, gamma)
        if hypercube_gamma(n, label) != tuple(gamma):
            return CaseResult("bg-of-verma", FAIL, {"gamma": list(gamma)})
        got = bg_module(n, specs, depth).census()
        want = verma_character(n, label, t, depth)
        if got != want:
            return CaseResult("bg-of-verma", FAIL, {"gamma": list(gamma)})
    return CaseResult("bg-of-verma", PASS, {"gammas": len(gammas)})


def _functor_identity_case(n: int) -> CaseResult:
    cases = (
        [
            ((), (1,), (1, 0, 1, 0), 4),
            ((1,), (), (1, 0, 1, 0), 4),
            ((), (), (2, 0, 1, 0), 4),
        ]
        if n == 2
        else [((), (1,), (1, 1, 0, 1, 1, 0), 4), ((), (2, 1), (0, 1, 0, 0, 1, 0), 3)]
    )
    for label1, label2, t, depth in cases:
        m = parabolic_IJ_realization(n, label1, label2, t, depth)
        r = ds_homology(m, (1, n + 1))
        kind = "verma_eps" if label1 == () else "verma_delta"
        first = gl11_ds_table(kind, t[0], t[n])
        expected: dict = {}
        for (c, d), (e1, o1) in first.items():
            for w_amb, _p in m.levi.factors[1].states:
                mu = list(w_amb)
                mu[0], mu[n] = c, d
                mu = tuple(mu)
                if m.datum.depth_of(mu) > r.valid_depth:
                    continue
                cur = expected.get(mu, [0, 0])
                cur[par(n, mu)] += e1 + o1
                expected[mu] = cur
        if _census_table(r) != {w: tuple(v) for w, v in expected.items()}:
            return CaseResult(
                "functor-identity", FAIL, {"labels": [list(label1), list(label2)]}
            )
    return CaseResult("functor-identity", PASS, {"cases": len(cases)})


def _induced_bracket_case(n: int) -> CaseResult:
    if n == 2:
        m = verma_realization(2, (1,), (0, 1, 0, 1), 4)
        pairs = [((2, 4), (4, 2)), ((4, 2), (2, 4)), ((2, 4), (2, 2)), ((2, 2), (4, 2))]
    else:
        m = verma_realization(3, (2, 1), (1, 1, 0, 1, 1, 0), 4)
        pairs = [((2, 5), (5, 2)), ((3, 6), (6, 3)), ((2, 3), (3, 5))]
    r = ds_homology(m, (1, n + 1))
    report = induced_bracket_check(r, pairs)
    verdict = PASS if report["ok"] and report["checked"] else FAIL
    return CaseResult(
        "induced-brackets", verdict, {"comparisons": report["checked"]}
    )


def verify_structure(n: int) -> ScenarioReport:
    """Run the cross-module invariants at a given rank: bracket axioms,
    Borel combinatorics and the reflection graph, rho vectors, character
    identities, the contracting homotopy, factorwise homology of degree-zero
    inductions, and bracket relations of the induced centralizer action."""
    if not 1 <= n <= 4:
        raise ValueError("structure checks support ranks 1 through 4")
    started = time.monotonic()
    cases = [_axioms_case(n), _rho_case(n)]
    cases.extend(_borel_cases(n))
    if 2 <= n <= 3:
        result = contraction_check(n, 6)
        cases.append(
            CaseResult(
                "contraction",
                PASS if result["ok"] else FAIL,
                {"monomials": result["monomials"]},
            )
        )
    if 2 <= n <= 3:
        cases.append(_character_independence_case(n))
        cases.append(_bg_product_case(n))
        cases.append(_bg_of_verma_case(n))
        cases.append(_functor_identity_case(n))
        cases.append(_induced_bracket_case(n))
    return _finish("structure", {"n": n}, cases, started)
