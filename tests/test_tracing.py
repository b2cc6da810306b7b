"""The benchmark's traced run finds every function it wraps.

``bench/tracing.py`` wraps public fewboost functions by name; a renamed or
deleted one makes its per-layer metrics ``null`` in a traced benchmark run.
These tests import the ``bench`` package from the repository root.
"""

import importlib
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import tracing  # noqa: E402
from fewboost import (booster, cli, default_preset, fsl, fsl_preset,  # noqa: E402
                      make_default_zoo, make_synthetic_binary, make_synthetic_stock,
                      schema_for, stacking, write_csv)
from fewboost.dataset import bin_features  # noqa: E402

DIST = {"sell": 0.25, "hold": 0.5, "buy": 0.25}


def test_every_traced_name_resolves_to_a_callable():
    for name, (module, attr, _) in tracing.WRAPPED.items():
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"traced name {name!r}: {module}.{attr} is not callable"


def test_a_traced_run_measures_every_layer(tmp_path):
    binary = make_synthetic_binary(n_rows=120, seed=0)
    stock = make_synthetic_stock(n_rows=400, seed=0)
    write_csv(stock, tmp_path / "stock.csv")
    (tmp_path / "stock.schema.json").write_text(json.dumps(schema_for(stock)), encoding="utf-8")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.phase("round"):
            # called through their modules, whose names the tracer wraps
            fsl.run_benchmark(binary, [8, 16], [0],
                              {"fsl": fsl_preset(), "default": default_preset()})
            params = default_preset()
            booster.train(bin_features(binary, params.max_bin, params.min_data_in_bin), params)
            pipeline = stacking.fit_stacking(stock, make_default_zoo(stock, 50, seed=0), DIST)
            stacking.save_pipeline(pipeline, tmp_path / "pipeline.json")
            stacking.load_pipeline(tmp_path / "pipeline.json")
            assert cli.main(["predict", "--model", str(tmp_path / "pipeline.json"),
                             "--data", str(tmp_path / "stock.csv"),
                             "--schema", str(tmp_path / "stock.schema.json"),
                             "--out", str(tmp_path / "scores.csv")]) == 0
    finally:
        tracer.uninstall()
    assert not tracer.unmeasured
    metrics = tracer.metrics(setup_passes=1, rounds=1)
    assert set(metrics) == set(tracing.PER_LAYER)
    for name, metric in metrics.items():
        value = metric["value"]
        assert isinstance(value, float) and math.isfinite(value), (name, value)
    for name in ("fsl.run_benchmark_s", "booster.train_s", "stacking.train_level0_s",
                 "cli.predict_s", "booster.bundle_bytes"):
        assert metrics[name]["value"] > 0, name


def test_a_traced_pipeline_predict_counts_its_bundle_decode(tmp_path):
    stock = make_synthetic_stock(n_rows=300, seed=0)
    write_csv(stock, tmp_path / "stock.csv")
    pipeline = stacking.fit_stacking(stock, make_default_zoo(stock, 40, seed=0), DIST)
    stacking.save_pipeline(pipeline, tmp_path / "pipeline.json")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.phase("round"):
            assert cli.main(["predict", "--model", str(tmp_path / "pipeline.json"),
                             "--data", str(tmp_path / "stock.csv"),
                             "--out", str(tmp_path / "scores.csv")]) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(setup_passes=1, rounds=1)
    assert metrics["booster.bundle_bytes"]["value"] == (tmp_path / "pipeline.json").stat().st_size
    assert 0 < metrics["booster.bundle_decode_s"]["value"] < metrics["cli.predict_s"]["value"]
