"""The benchmark's last line carries every metric that BENCHMARK.json declares.

A hook that no longer finds its function drops that layer's metrics from the
result line, with only a warning on stderr; so the declared names are
checked here on a short run of the cheapest workload at both trace levels.
One pass of ``sweep-rank2`` also checks its 7,500 verdicts end to end: it is
the workload on which views of one layout share rank-one homology tables.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize(
    "workload, trace, declared",
    [
        pytest.param("examples", 0, "end_to_end", id="0-end_to_end"),
        pytest.param("examples", 1, "per_layer", id="1-per_layer"),
        pytest.param("sweep-rank2", 0, "end_to_end", id="sweep-rank2-0-end_to_end"),
    ],
)
def test_benchmark_result_line_carries_the_declared_metrics(workload, trace, declared):
    done = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            "--workload", workload,
            "--seconds", "0.01",
            "--trace", str(trace),
        ],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in DECLARED[declared]}
