"""Smoke tests: the example scripts run to the end on tiny inputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

from fewboost.dataset import schema_for, write_csv
from fewboost.synth import make_synthetic_binary

ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args, cwd):
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                          text=True, timeout=300)


def test_run_fsl_benchmark_on_a_csv(tmp_path):
    ds = make_synthetic_binary(n_rows=80, seed=0)
    write_csv(ds, tmp_path / "tiny.csv")
    (tmp_path / "tiny.schema.json").write_text(json.dumps(schema_for(ds)), encoding="utf-8")
    done = _run("run_fsl_benchmark.py", "--data", "tiny.csv", "--schema", "tiny.schema.json",
                "--shots", "4,16", "--seeds", "2", "--out", "report.json", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert "16-shot" in done.stdout
    assert json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))["cells"]


def test_run_stacking_demo(tmp_path):
    done = _run("run_stacking_demo.py", "--rows", "400", "--held-out", "100",
                "--k-per-model", "40", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert "held-out blend MSE" in done.stdout
