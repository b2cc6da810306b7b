"""``scripts/bench_pairs.py`` counts a run only when its last line is a full result.

Its ``--workload`` choices are the workloads of its own checkout's ``BENCHMARK.json``.
"""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load(script: Path):
    spec = importlib.util.spec_from_file_location("bench_pairs", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench_pairs():
    return _load(ROOT / "scripts" / "bench_pairs.py")


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


def test_counts_find_a_function_under_every_module_that_binds_it(bench_pairs, tmp_path):
    # a stand-in package: booster binds tree's grow_trees under its own name,
    # and one round of the stand-in workload makes a known number of calls
    # and routes a known number of rows, bins passed by position or by name
    package = tmp_path / "src" / "fewboost"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("", encoding="utf-8")
    (package / "tree.py").write_text(
        "def _best_splits():\n    pass\n\n\n"
        "def grow_trees():\n    _best_splits()\n    _best_splits()\n    return [Tree()]\n\n\n"
        "class Tree:\n    def predict_bins(self, bins):\n        return bins\n", encoding="utf-8")
    (package / "booster.py").write_text(
        "from .tree import grow_trees\n\n\n"
        "def compute_gradients():\n    pass\n\n\n"
        "def train():\n    compute_gradients()\n"
        "    for tree in grow_trees():\n"
        "        tree.predict_bins([[0, 1]] * 5)\n        tree.predict_bins(bins=[[2]] * 7)\n",
        encoding="utf-8")
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "workloads.py").write_text(
        "from fewboost import booster\n\n\n"
        "class Workload:\n"
        "    def __init__(self, seed, workdir):\n"
        "        self.ops = [self.round] * seed\n\n"
        "    def setup(self):\n        pass\n\n"
        "    def ready(self):\n        pass\n\n"
        "    def round(self):\n        booster.train()\n        booster.compute_gradients()\n\n\n"
        "WORKLOADS = {'stack': Workload}\n", encoding="utf-8")
    counts = bench_pairs.count_calls(str(tmp_path), "stack", 3, str(tmp_path))
    assert counts == {"_best_splits": 6, "grow_trees": 3, "compute_gradients": 6,
                      "predict_bins": 6, "routed_rows": 3 * (5 + 7)}


def _workload_args(name: str) -> list[str]:
    return ["parent", "change", "--workload", name, "--seeds", "1-2"]


def test_every_declared_workload_parses_and_no_other(bench_pairs, tmp_path, capsys):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]
    for workload in declared:
        args = bench_pairs.build_parser().parse_args(_workload_args(workload["name"]))
        assert args.workload == workload["name"]
    with pytest.raises(SystemExit):
        bench_pairs.build_parser().parse_args(_workload_args("no-such-workload"))
    assert "invalid choice: 'no-such-workload'" in capsys.readouterr().err
    # a copy of the script reads the workload list of its own checkout
    (tmp_path / "scripts").mkdir()
    shutil.copy(ROOT / "scripts" / "bench_pairs.py", tmp_path / "scripts")
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps({"workloads": declared + [{"name": "tier1"}]}), encoding="utf-8")
    copy = _load(tmp_path / "scripts" / "bench_pairs.py")
    assert copy.build_parser().parse_args(_workload_args("tier1")).workload == "tier1"
