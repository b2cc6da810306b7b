"""``scripts/bench_pairs.py`` counts a run only when its last line is a full result."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checkout(tmp_path, last_line: str) -> str:
    """A checkout whose ``bench/run.py`` prints one line of output."""
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(
        f"print('progress')\nprint({last_line!r})\n", encoding="utf-8")
    return str(tmp_path)


def _result(value):
    return {"correct": True, "attempted": 1, "failed": 0,
            "metrics": {"wall_s": {"value": value, "unit": "s"}}}


def test_a_full_result_is_counted(bench_pairs, tmp_path):
    line = json.dumps(_result(0.5))
    result, problem = bench_pairs.run_once(_checkout(tmp_path, line), "stack", 1, 1.0, 0)
    assert problem is None and result["metrics"]["wall_s"]["value"] == 0.5


@pytest.mark.parametrize("line, reason", [
    (json.dumps(_result(None)), "null value at metrics.wall_s.value"),
    (json.dumps(_result(float("nan"))), "non-finite number NaN"),
    ('{"correct": true, "metrics": null}', "null value at metrics"),
    ("not json", "not a result"),
])
def test_a_null_or_non_finite_metric_is_not_a_result(bench_pairs, tmp_path, line, reason):
    result, problem = bench_pairs.run_once(_checkout(tmp_path, line), "stack", 1, 1.0, 0)
    assert result is None
    assert "not a result" in problem and reason in problem
