"""Per-layer spans around superverma's public functions, installed from outside.

The tracer replaces each hooked function by a wrapper that counts the call
and times it.  A span's self time is its duration minus the time covered by
the spans it caused, so the self times of all layers add up to (nearly) the
traced wall time.  Totals are aggregated in memory as they happen; no
per-span record is kept, because ``rank`` alone runs half a million times
per pass of the rank-2 sweep.

Modules bind imported names in their own namespace (``verify`` holds its own
``ds_homology``, ``homology`` its own ``rank``), so a function is replaced in
every ``superverma`` module that bound it.  Methods are replaced on their
class.  A hook whose target no longer exists is skipped with a warning and
leaves its metrics out, so the same benchmark runs on commits before and
after a rename.  ``Realization.act_unit_on_basis`` is deliberately not
hooked: it recurses about 1.35 million times per pass of the rank-2 sweep.
"""

from __future__ import annotations

import functools
import sys
import weakref
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Hook:
    """One public function or method and the metrics its spans feed."""

    module: str
    target: str  # "name" or "Class.method"; "*" is every public function
    calls: str | None  # metric counting the calls
    time: str  # metric summing the self time
    probe: Callable | None = None  # (tracer, args, kwargs, result) -> None
    context: Callable | None = None  # args -> realization the span works on


def _realization_of_result(args):
    return args[0].source


def _probe_realize(tracer, args, kwargs, result):
    tracer.add("modules.basis_vectors", sum(len(b) for b in args[0].weight_spaces.values()))


def _probe_unit_matrix(tracer, args, kwargs, result):
    tracer.add("modules.matrix_cells", result.nrows * result.ncols)
    key = (args[1:], tuple(sorted(kwargs.items())))
    tracer.repeat("modules.unit_matrix_repeat_ratio", args[0], key)


def _probe_rank(tracer, args, kwargs, result):
    m = args[0]
    tracer.add("linalg.rank_cells", m.nrows * m.ncols)
    tracer.peak("linalg.max_dim", max(m.nrows, m.ncols))
    tracer.repeat("linalg.rank_repeat_ratio", tracer.realization(), m)


def _probe_ds(tracer, args, kwargs, result):
    tracer.add("homology.weights_checked", len(result.dim_table))


HOOKS = (
    Hook("superverma.modules", "Realization.__init__", "modules.realize_calls",
         "modules.realize_s", _probe_realize),
    Hook("superverma.modules", "Realization.unit_matrix", "modules.unit_matrix_calls",
         "modules.unit_matrix_s", _probe_unit_matrix),
    Hook("superverma.modules", "Realization.act_unit", "modules.act_unit_calls",
         "modules.act_unit_s"),
    Hook("superverma.linalg", "rank", "linalg.rank_calls", "linalg.rank_s", _probe_rank),
    Hook("superverma.linalg", "kernel_basis", "linalg.kernel_calls", "linalg.kernel_s"),
    Hook("superverma.linalg", "image_basis", "linalg.image_calls", "linalg.image_s"),
    Hook("superverma.linalg", "quotient_basis", "linalg.quotient_calls", "linalg.quotient_s"),
    Hook("superverma.homology", "ds_homology", "homology.ds_calls", "homology.ds_self_s",
         _probe_ds, context=lambda args: args[0]),
    Hook("superverma.homology", "DSResult.classes_at", "homology.classes_calls",
         "homology.classes_s", context=_realization_of_result),
    Hook("superverma.homology", "certify_verma_iso", "homology.certify_iso_calls",
         "homology.certify_iso_self_s", context=_realization_of_result),
    Hook("superverma.homology", "certify_zero", None, "homology.certify_zero_s"),
    Hook("superverma.homology", "contraction_check", None, "homology.contraction_s"),
    Hook("superverma.homology", "induced_action", None, "homology.induced_action_s",
         context=_realization_of_result),
    Hook("superverma.homology", "ses_supercharacter_check", None, "homology.ses_check_s"),
    Hook("superverma.superalgebra", "bracket_elements",
         "superalgebra.bracket_elements_calls", "superalgebra.bracket_elements_s"),
    Hook("superverma.weights", "verma_character", "weights.character_calls",
         "weights.character_s"),
    Hook("superverma.weights", "bg_character", "weights.character_calls",
         "weights.character_s"),
    Hook("superverma.borels", "*", None, "borels.s"),
    Hook("superverma.verify", "verify_conjecture", None, "verify.self_s"),
    Hook("superverma.verify", "verify_maBG", None, "verify.self_s"),
    Hook("superverma.verify", "verify_gl22_examples", None, "verify.self_s"),
    Hook("superverma.verify", "verify_structure", None, "verify.self_s"),
    Hook("superverma.verify", "ScenarioReport.to_json", None, "verify.report_s"),
)

# metrics derived by probes, and the hook whose probe yields each of them
PROBED = {
    "modules.basis_vectors": "modules.realize_s",
    "modules.matrix_cells": "modules.unit_matrix_s",
    "modules.unit_matrix_repeat_ratio": "modules.unit_matrix_s",
    "linalg.rank_cells": "linalg.rank_s",
    "linalg.max_dim": "linalg.rank_s",
    "linalg.rank_repeat_ratio": "linalg.rank_s",
    "homology.weights_checked": "homology.ds_self_s",
}
RATIOS = {"modules.unit_matrix_repeat_ratio", "linalg.rank_repeat_ratio"}
# metrics that are not totals, so not divided by the number of passes
NOT_SUMMED = RATIOS | {"linalg.max_dim"}


def _warn(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)


class Tracer:
    """Installs the hooks and accumulates calls, self times and probe values."""

    def __init__(self):
        self.values: dict[str, float] = {}
        self._ratios: dict[str, list[int]] = {}  # name -> [repeats, requests]
        self._seen: dict[str, weakref.WeakKeyDictionary] = {}
        self._unowned: dict[str, set] = {}
        self._stack: list[list[float]] = [[0.0]]  # child time of each open span
        self._contexts: list = [None]
        self._patches: list[tuple[object, str, object]] = []
        self._broken: set[str] = set()

    # -- accumulation -------------------------------------------------

    def add(self, name: str, amount: float) -> None:
        self.values[name] += amount

    def peak(self, name: str, value: float) -> None:
        self.values[name] = max(self.values[name], value)

    def repeat(self, name: str, owner, key) -> None:
        """Count a request and whether ``owner`` saw an equal ``key`` before."""
        if owner is None:
            seen = self._unowned.setdefault(name, set())
        else:
            seen = self._seen.setdefault(name, weakref.WeakKeyDictionary()).setdefault(
                owner, set()
            )
        ratio = self._ratios.setdefault(name, [0, 0])
        ratio[1] += 1
        if key in seen:
            ratio[0] += 1
        else:
            seen.add(key)

    def realization(self):
        """The realization the innermost enclosing span works on."""
        return self._contexts[-1]

    def new_pass(self) -> None:
        """Forget which keys were seen: repeats count within one pass."""
        self._seen.clear()
        self._unowned.clear()

    def metrics(self) -> dict[str, float]:
        """Totals so far: counts, self times, probe values and ratios."""
        out = dict(self.values)
        for name in RATIOS & out.keys():
            repeats, requests = self._ratios.get(name, (0, 0))
            out[name] = repeats / requests if requests else 0.0
        for name in self._broken:
            out.pop(name, None)
        return out

    def self_time(self) -> float:
        """Sum of the self times of every hooked layer."""
        times = {hook.time for hook in HOOKS}
        return sum(v for k, v in self.values.items() if k in times)

    # -- installation -------------------------------------------------

    def install(self) -> None:
        for hook in HOOKS:
            targets = self._targets(hook)
            if not targets:
                continue
            for owner, attr, original in targets:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._wrap(hook, original))
            names = [hook.calls, hook.time]
            names += [k for k, source in PROBED.items() if source == hook.time]
            self.values.update((name, 0) for name in names if name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _targets(self, hook: Hook) -> list:
        """(owner, attribute, original) for every binding the hook replaces."""
        module = sys.modules.get(hook.module)
        if module is None:
            return self._skip(f"module {hook.module} is not loaded")
        if hook.target == "*":
            found = [
                t
                for name, value in list(vars(module).items())
                if not name.startswith("_")
                and callable(value)
                and not isinstance(value, type)
                and getattr(value, "__module__", None) == hook.module
                for t in self._bindings(value)
            ]
            return found or self._skip(f"{hook.module} has no public functions")
        if "." in hook.target:
            cls_name, method = hook.target.split(".", 1)
            cls = getattr(module, cls_name, None)
            if not isinstance(cls, type) or method not in vars(cls):
                return self._skip(f"{hook.module}.{hook.target} does not exist")
            return [(cls, method, vars(cls)[method])]
        original = getattr(module, hook.target, None)
        if original is None:
            return self._skip(f"{hook.module}.{hook.target} does not exist")
        return self._bindings(original)

    @staticmethod
    def _bindings(original) -> list:
        return [
            (module, attr, original)
            for name, module in sorted(sys.modules.items())
            if name == "superverma" or name.startswith("superverma.")
            for attr, value in list(vars(module).items())
            if value is original
        ]

    @staticmethod
    def _skip(reason: str) -> list:
        _warn(f"hook skipped, its metrics are left out: {reason}")
        return []

    def _wrap(self, hook: Hook, fn):
        stack = self._stack
        contexts = self._contexts
        values = self.values
        calls_name, time_name = hook.calls, hook.time
        probe, context = hook.probe, hook.context

        def run_probe(args, kwargs, result):
            try:
                probe(self, args, kwargs, result)
            except (AttributeError, KeyError, TypeError, IndexError) as err:
                for name, source in PROBED.items():
                    if source == time_name and name not in self._broken:
                        _warn(f"{name} left out: {type(err).__name__}: {err}")
                        self._broken.add(name)

        def wrapper(*args, **kwargs):
            if context is not None:
                try:
                    contexts.append(context(args))
                except (AttributeError, IndexError):
                    contexts.append(None)
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                values[time_name] += end - start - frame[0]
                if calls_name:
                    values[calls_name] += 1
                if context is not None:
                    contexts.pop()
                # the parent span excludes this one and the probe below
                stack[-1][0] += end - start
            if probe is not None:
                probe_start = perf_counter()
                run_probe(args, kwargs, return_value)
                stack[-1][0] += perf_counter() - probe_start
            return return_value

        return functools.update_wrapper(wrapper, fn)
