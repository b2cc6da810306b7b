#!/usr/bin/env python3
"""Golden digests: SHA-256 of fewboost's outputs on a small fixed set of inputs.

Usage, from the root of a checkout:

    python3 scripts/golden.py           # print the digests as JSON
    python3 scripts/golden.py --write   # regenerate tests/golden.json

``tests/test_golden.py`` rebuilds the same set in-process and compares every
digest with ``tests/golden.json``. The set is:

- ``grid``: the k-shot report (``to_dict()`` JSON and ``to_text()``) on a
  400-row ``make_synthetic_binary``, shots 4/16/64, 3 seeds, both presets;
- ``bundle``: a 20-round default-preset regression bundle on a 3,000-row
  ``make_synthetic_stock`` with missing values in two numeric columns and the
  categorical one, and ``bundle_scores``, its scores on every row;
- ``level0``: the model JSON of the default zoo's five level-0 models on the
  1,600-row ``make_synthetic_stock`` at 200 shots per model;
- ``pipeline``, ``pipeline_scores`` and ``pipeline_actions``: the stacked
  pipeline fitted on that zoo, its JSON bundle, blended scores and actions;
- ``predict_model`` and ``predict_pipeline``: the CSV that ``fewboost
  predict`` writes for the ``bundle`` model and for that pipeline, each
  scoring its own table in reversed row order, so a scoring file that lists
  categories in another order than the training data;
- ``bundle_file`` and ``pipeline_file``: the bytes ``save_model`` and
  ``save_pipeline`` write for that model and that pipeline;
- ``calibrate``: the thresholds file that ``fewboost calibrate`` writes from
  the ``predict_pipeline`` CSV;
- ``bench_report``: the JSON report and its ``.txt`` table that ``fewboost
  bench`` writes for a 200-row ``make_synthetic_binary`` table written with
  ``write_csv``, shots 4/16, 2 seeds, ``fsl`` preset.

The digests named after a model or a pipeline hash its sorted-key
``to_dict()`` JSON; the ``_file``, ``predict_*``, ``calibrate`` and
``bench_report`` digests hash the bytes a writer puts on disk.

A change that alters a digest on purpose regenerates the file and says which
digests changed and why.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden.json")
TARGET_DIST = {"sell": 0.25, "hold": 0.5, "buy": 0.25}


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            part = part.encode("utf-8")
        elif isinstance(part, np.ndarray):
            part = np.ascontiguousarray(part, dtype=part.dtype.newbyteorder("<")).tobytes()
        h.update(part)
    return h.hexdigest()


def _json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _cli(*argv) -> None:
    """Run one ``fewboost`` command, its stdout discarded; raise unless it exits 0."""
    from fewboost.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"fewboost {argv[0]} exited {code}")


def _file_digests(save, bundle, ds, name: str, tmp: str) -> tuple[str, str]:
    """Digests of ``bundle``'s file and of ``fewboost predict`` on ``ds`` in reversed row order.

    The prediction CSV stays in ``tmp`` as ``<name>.csv``.
    """
    from fewboost.dataset import write_csv

    path, data, out = (os.path.join(tmp, f"{name}{ext}") for ext in (".json", ".rows.csv", ".csv"))
    save(bundle, path)
    write_csv(ds.take(range(ds.n_rows - 1, -1, -1)), data)
    _cli("predict", "--model", path, "--data", data, "--out", out)
    return _sha(_read(path)), _sha(_read(out))


def _bench_report_digest(tmp: str) -> str:
    """Digest of the JSON report and ``.txt`` table ``fewboost bench`` writes."""
    from fewboost.dataset import schema_for, write_csv
    from fewboost.synth import make_synthetic_binary

    ds = make_synthetic_binary(n_rows=200, seed=2)
    data, schema, out = (os.path.join(tmp, f) for f in ("grid.csv", "grid.schema.json",
                                                          "report.json"))
    write_csv(ds, data)
    with open(schema, "w", encoding="utf-8") as fh:
        json.dump(schema_for(ds), fh)
    _cli("bench", "--data", data, "--schema", schema, "--preset", "fsl", "--shots", "4,16",
         "--seeds", "2", "--out", out)
    return _sha(_read(out), _read(os.path.join(tmp, "report.txt")))


def build_digests() -> dict[str, str]:
    """Rebuild every golden output and return its digest, by name."""
    if os.path.join(ROOT, "src") not in sys.path:
        sys.path.insert(0, os.path.join(ROOT, "src"))
    import dataclasses

    from fewboost import (bin_features, default_preset, fit_stacking, fsl_preset,
                          make_default_zoo, make_synthetic_binary, make_synthetic_stock,
                          predict, run_benchmark, save_model, save_pipeline, train)

    out = {}
    report = run_benchmark(make_synthetic_binary(n_rows=400, seed=1), [4, 16, 64], [0, 1, 2],
                           {"fsl": fsl_preset(), "default": default_preset()})
    out["grid"] = _sha(_json(report.to_dict()), report.to_text())

    ds = make_synthetic_stock(n_rows=3000, seed=3)
    holes = np.random.default_rng(3).random((ds.n_rows, 3)) < 0.05
    for col, j in enumerate((0, 9, ds.n_features - 1)):
        ds.values[holes[:, col], j] = np.nan
    params = dataclasses.replace(default_preset(), objective="mse", n_rounds=20)
    model = train(bin_features(ds, params.max_bin, params.min_data_in_bin), params)
    out["bundle"] = _sha(_json(model.to_dict()))
    out["bundle_scores"] = _sha(predict(model, ds.values))

    stock = make_synthetic_stock(n_rows=1600, seed=0)
    configs = make_default_zoo(stock, k_per_model=200, seed=0)
    pipeline = fit_stacking(stock, configs, TARGET_DIST, seed=0)
    out["level0"] = _sha(_json([fit.model.to_dict() for fit in pipeline.fits]))
    scores = pipeline.predict_score(stock.values)
    out["pipeline"] = _sha(_json(pipeline.to_dict()))
    out["pipeline_scores"] = _sha(scores)
    out["pipeline_actions"] = _sha(pipeline.thresholds.apply(scores))

    with tempfile.TemporaryDirectory() as tmp:
        out["bundle_file"], out["predict_model"] = _file_digests(save_model, model, ds,
                                                                 "model", tmp)
        out["pipeline_file"], out["predict_pipeline"] = _file_digests(
            save_pipeline, pipeline, stock, "pipeline", tmp)
        thresholds = os.path.join(tmp, "thresholds.json")
        _cli("calibrate", "--data", os.path.join(tmp, "pipeline.csv"),
             "--target-dist", "0.25,0.5,0.25", "--out", thresholds)
        out["calibrate"] = _sha(_read(thresholds))
        out["bench_report"] = _bench_report_digest(tmp)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true", help=f"regenerate {GOLDEN}")
    args = ap.parse_args(argv)
    doc = {"versions": versions(), "digests": build_digests()}
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.write:
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
