"""The benchmark's own test: exact counts repeat, and the traced run
attributes its time to named layers.

Runs the traced benchmark twice per workload on one seed and asserts
that every count metric (units ``count`` and ``bytes``) is identical,
that every output passed its oracle, and that at least nine tenths of
the traced wall time lands in named layers. The catch-all layers (the
batch worker's and the daemon dispatcher's own time, and transport)
do not count towards that share, so work that no layer's functions
cover lowers it. Run from the root of a checkout (a few minutes)::

    python3 -m pytest layerbench/test_counts.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNT_UNITS = ("count", "bytes")


def traced(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [
            sys.executable, "layerbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", "1",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_counts_repeat_exactly(workload):
    first, second = traced(workload, 3), traced(workload, 3)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0, result
        assert result["metrics"]["trace.attributed"]["value"] >= 0.9
    counts = [
        m["name"] for m in SPEC["per_layer"] if m["unit"] in COUNT_UNITS
    ]
    assert counts
    for name in counts:
        assert (
            first["metrics"][name]["value"] == second["metrics"][name]["value"]
        ), name
