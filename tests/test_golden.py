"""Byte-identity gate: fixed-seed outputs must keep their recorded digests.

The digests in ``golden.json`` are rebuilt by ``scripts/golden.py``; a
change that alters one on purpose regenerates the file with
``python3 scripts/golden.py --write``.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from fewboost.dataset import schema_for, write_csv
from fewboost.synth import make_synthetic_stock

ROOT = Path(__file__).resolve().parents[1]


def _golden_module():
    spec = importlib.util.spec_from_file_location("golden", ROOT / "scripts" / "golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_the_golden_digests():
    golden = _golden_module()
    recorded = json.loads((ROOT / "tests" / "golden.json").read_text(encoding="utf-8"))
    got = golden.build_digests()
    differ = sorted(name for name in recorded["digests"] | got
                    if recorded["digests"].get(name) != got.get(name))
    assert not differ, (
        f"digests differ: {differ}; recorded with {recorded['versions']}, "
        f"rebuilt with {golden.versions()}")


def test_stack_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    ds = make_synthetic_stock(n_rows=400, seed=0)
    write_csv(ds, tmp_path / "stock.csv")
    (tmp_path / "stock.schema.json").write_text(json.dumps(schema_for(ds)), encoding="utf-8")
    digests = []
    for hash_seed in ("0", "12345"):
        out = tmp_path / f"pipeline-{hash_seed}.json"
        path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        subprocess.run([sys.executable, "-m", "fewboost.cli", "stack",
                        "--data", str(tmp_path / "stock.csv"),
                        "--schema", str(tmp_path / "stock.schema.json"),
                        "--k-per-model", "50", "--out", str(out)],
                       env=env, check=True, capture_output=True)
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests[0] == digests[1]
