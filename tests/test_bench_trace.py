"""A short traced benchmark run of every workload ends in a full result line.

A traced run that loses a wrapped function reports its per-layer metrics as
``null``; one that fails reports ``correct`` false or prints no result. Each
run here takes about two seconds and writes only under ``bench/out/``.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PER_LAYER = [m["name"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]]


def _reject_constant(token):
    raise ValueError(f"non-finite constant {token} in the result line")


@pytest.mark.parametrize("workload", ["kshot-grid", "train-20k", "stack", "score"])
def test_a_traced_run_reports_every_layer(workload):
    run = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
                          "--seconds", "0.5", "--trace", "1"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True
    assert sorted(result["metrics"]) == sorted(PER_LAYER)
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (name, value)
