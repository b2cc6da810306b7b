"""Fast tests of the benchmark: small workloads, and checks that bite.

Run from the repository root:

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from bench import oracles, run as bench_run, workloads as wl
from fewboost import booster, fsl, metrics


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload so that one round takes about a second."""
    for cls, sizes in {
        wl.KShotGrid: {"SHOTS": (4, 16, 64), "GRID_SEEDS": 1, "SETUP_LOADS": 2},
        wl.Train20k: {"N_TRAIN": 1500, "N_HOLD": 500, "SETUP_LOADS": 1},
        wl.Stack: {"N_FIT": 700, "N_HOLD": 300, "K_PER_MODEL": 60, "SETUP_LOADS": 1},
        wl.Score: {"N_TRAIN": 300, "N_SCORE": 200, "PIPE_FIT": 700, "PIPE_SCORE": 200,
                   "PIPE_K": 60, "SETUP_LOADS": 1},
    }.items():
        for name, value in sizes.items():
            monkeypatch.setattr(cls, name, value)
    monkeypatch.setattr(bench_run, "SETUP_PASSES", 2)


def _run(tmp_path, workload, trace=False, seed=3):
    return bench_run.run(workload, seed, 0.0, trace, str(tmp_path))


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_workload_runs_with_all_checks(small, tmp_path, workload):
    result = _run(tmp_path, workload)
    assert result["correct"]
    assert result["attempted"] == wl.WORKLOADS[workload](3, str(tmp_path)).ops_per_round
    m = result["metrics"]
    assert set(m) == {"setup_s", "wall_s", "peak_rss_mb", "quality"}
    assert all(v["value"] > 0 for v in m.values())
    # only the pipeline calls of the score workload fail, all of them
    assert result["failed"] == (2 if workload == "score" else 0)


def test_untraced_run_leaves_the_program_alone(small, tmp_path):
    originals = {n: getattr(booster, n) for n in ("train", "predict", "load_model")}
    _run(tmp_path, "train-20k")
    assert all(getattr(booster, n) is f for n, f in originals.items())


def test_traced_run_reports_every_layer(small, tmp_path, monkeypatch):
    from bench import tracing

    monkeypatch.setattr(bench_run, "OUT", str(tmp_path))
    before = fsl.run_benchmark
    grid = _run(tmp_path, "kshot-grid", trace=True)["metrics"]
    assert fsl.run_benchmark is before  # uninstalled afterwards
    assert set(grid) == set(tracing.PER_LAYER)
    assert grid["fsl.cells"]["value"] == 6
    assert grid["tree.trees"]["value"] == 600
    assert 0 < grid["tree.split_yield"]["value"] < 1
    assert grid["tree.single_leaf_trees"]["value"] >= 200  # default cells at k=4 and 16
    assert grid["tree.grow_self_s"]["value"] < grid["tree.grow_tree_s"]["value"]
    score = _run(tmp_path, "score", trace=True)["metrics"]
    assert 0 < score["cli.io_s"]["value"] < score["cli.predict_s"]["value"]
    assert score["booster.bundle_bytes"]["value"] > 0
    assert score["tree.split_yield"]["value"] == 0.0  # scoring scans nothing
    assert all(v["value"] is not None for v in score.values())


def test_missing_function_marks_its_layer_unmeasured(small, tmp_path, monkeypatch):
    from bench import tracing

    monkeypatch.setitem(tracing.WRAPPED, "train_mlp", ("fewboost.mlp", "no_such_fn", None))
    monkeypatch.setattr(bench_run, "OUT", str(tmp_path))
    result = _run(tmp_path, "stack", trace=True)
    assert result["correct"]
    assert result["metrics"]["mlp.train_s"]["value"] is None
    assert result["metrics"]["mlp.epochs"]["value"] is None
    assert result["metrics"]["stacking.train_level0_s"]["value"] > 0


# ---------------------------------------------------------------------------
# the oracles agree with the program where they should


def test_auc_oracle_matches_program_bit_for_bit():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 300))
        y = rng.integers(0, 2, n).astype(float)
        y[:2] = (0.0, 1.0)
        s = np.round(rng.standard_normal(n), int(rng.integers(0, 3)))  # with ties
        assert oracles.auc(y, s) == metrics.auc(y, s).value


def test_r2_oracle():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    assert oracles.r2(y, y) == 1.0
    assert oracles.r2(y, np.full(4, y.mean())) == 0.0


# ---------------------------------------------------------------------------
# every check rejects a corrupted output


def _raises(fn, *args, **kwargs):
    with pytest.raises(wl.CheckFailed):
        fn(*args, **kwargs)


@pytest.fixture
def grid(small, tmp_path):
    g = wl.KShotGrid(3, str(tmp_path))
    g.setup()
    g.ready()
    g.check([op() for op in g.ops])
    return g


def test_grid_checks_reject_corruption(grid):
    value, model = grid.recompute(grid.presets["fsl"], 16, grid.grid_seeds[0])
    wl.check_cell("fsl", 16, 0, value, value, model, gate_closed=False)
    # flipped scores turn AUC a into 1 - a
    _raises(wl.check_cell, "fsl", 16, 0, value, 1.0 - value, model, gate_closed=False)
    # a default cell under the leaf floor must be a constant with AUC 0.5
    stalled, const = grid.recompute(grid.presets["default"], 4, grid.grid_seeds[0])
    wl.check_cell("default", 4, 0, stalled, stalled, const, gate_closed=True)
    _raises(wl.check_cell, "default", 4, 0, 0.5, 0.5, model, gate_closed=True)
    _raises(wl.check_cell, "default", 4, 0, 0.51, 0.51, const, gate_closed=True)
    _raises(wl.check_fsl_learns, [0.5, 0.55, 0.6])
    # a repeated grid must give the same report
    report = grid.ops[0]()
    report.cells["fsl"][16].aucs[0] += 1e-12
    _raises(grid.check, [report])


@pytest.fixture
def trained(small, tmp_path):
    t = wl.Train20k(3, str(tmp_path))
    t.setup()
    t.ready()
    t.check([op() for op in t.ops])
    return t


def test_train_checks_reject_corruption(trained):
    model, scores = trained.first
    y, logit = trained.hold.columns["target"], trained.hold.logit
    wl.check_auc_margin(y, scores, logit, trained.AUC_MARGIN)
    _raises(wl.check_auc_margin, y, -scores, logit, trained.AUC_MARGIN)

    perm = np.random.default_rng(1).permutation(scores.size)
    wl.check_permutation(model, trained.x_hold, scores, perm)
    one_moved = scores.copy()
    one_moved[[0, 1]] = one_moved[[1, 0]]
    if one_moved[0] == scores[0]:  # equal scores: move a row whose score differs
        j = int(np.flatnonzero(scores != scores[0])[0])
        one_moved = scores.copy()
        one_moved[[0, j]] = one_moved[[j, 0]]
    _raises(wl.check_permutation, model, trained.x_hold, one_moved, perm)

    wl.check_round_trip(model, trained.x_hold, scores)
    nudged = scores.copy()
    nudged[3] = np.nextafter(nudged[3], 1.0)
    _raises(wl.check_round_trip, model, trained.x_hold, nudged)

    wl.check_leaf_budget(model, trained.params.num_leaves)
    _raises(wl.check_leaf_budget, model, 2)
    _raises(trained.check, [(model, nudged)])


@pytest.fixture
def stacked(small, tmp_path):
    s = wl.Stack(3, str(tmp_path))
    s.setup()
    s.ready()
    s.check([op() for op in s.ops])
    return s


def test_stack_checks_reject_corruption(stacked):
    configs, pipeline, scores = stacked.first
    shots = [c.shot_indices for c in configs]
    n = stacked.ds.n_rows
    meta = np.setdiff1d(np.arange(n), np.concatenate(shots))
    wl.check_partition(shots, meta, n)
    overlapping = [shots[0], np.append(shots[1][1:], shots[0][0])]
    _raises(wl.check_partition, overlapping, meta, n)
    _raises(wl.check_partition, shots, np.append(meta[1:], shots[0][0]), n)

    blended = pipeline.predict_score(stacked.ds.values[meta])
    actions = pipeline.thresholds.apply(blended)
    wl.check_action_counts(actions, wl.TARGET_DIST)
    # move the sell threshold up by one row
    order = np.sort(blended)
    n_sell = int(np.sum(actions == -1))
    moved = wl.stacking.ActionThresholds(
        t_low=0.5 * (order[n_sell] + order[n_sell + 1]), t_high=pipeline.thresholds.t_high)
    _raises(wl.check_action_counts, moved.apply(blended), wl.TARGET_DIST)

    y = stacked.hold.columns["Perform"]
    wl.check_beats_constant(y, scores)
    _raises(wl.check_beats_constant, y, np.full(y.size, y.mean()))
    _raises(wl.check_beats_constant, y, -scores)


@pytest.fixture
def scored(small, tmp_path):
    s = wl.Score(3, str(tmp_path))
    s.setup()
    s.ready()
    return s


def test_score_checks_reject_corruption(scored):
    outputs = [op() for op in scored.ops]
    assert scored.check(outputs) == 2  # the two pipeline calls
    kind, _, order, out = scored.files[0]
    got = oracles.read_scores(out, "score")
    restored = wl.check_model_scores(got, scored.expected[0], order, None)
    _raises(wl.check_model_scores, got[::-1].copy(), scored.expected[0], order, None)
    one_moved = restored.copy()
    one_moved[[0, 1]] = one_moved[[1, 0]]
    _raises(wl.check_model_scores, got, scored.expected[0], order, one_moved)

    # a pipeline output that matches the vocabulary-encoded scores is not failed
    for i, (kind, _, _, out) in enumerate(scored.files):
        if kind == "pipeline":
            want = scored.expected[i]
            with open(out, "w", encoding="utf-8") as fh:
                fh.write("row_id,blended_score,action\n")
                for j, (s, a) in enumerate(zip(want, scored.pipeline.thresholds.apply(want))):
                    fh.write(f"{j},{float(s)!r},{int(a)}\n")
    assert scored.check(outputs) == 0
    # and flipping the model file's scores is an error, not a counted failure
    kind, _, _, out = scored.files[0]
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("row_id,score\n")
        for j, s in enumerate(got):
            fh.write(f"{j},{1.0 - float(s)!r}\n")
    _raises(scored.check, outputs)


# ---------------------------------------------------------------------------
# the command line


def test_refuses_to_run_without_program_sources(tmp_path):
    bench_dir = os.path.join(tmp_path, "bench")
    os.makedirs(bench_dir)
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(here, "run.py"), encoding="utf-8") as src, \
            open(os.path.join(bench_dir, "run.py"), "w", encoding="utf-8") as dst:
        dst.write(src.read())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "score", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_result_line_and_record(tmp_path, monkeypatch, capsys, small):
    monkeypatch.setattr(bench_run, "OUT", str(tmp_path))
    assert bench_run.main(["--workload", "train-20k", "--seed", "5", "--seconds", "0",
                           "--trace", "0"]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    with open(os.path.join(tmp_path, "train-20k-seed5-trace0.json"), encoding="utf-8") as fh:
        env = json.load(fh)["environment"]
    assert env["seed"] == 5 and env["nproc"] >= 1 and "blas_threads" in env
    assert env["fewboost_threads"] == "1"
