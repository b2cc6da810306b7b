"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``. Criterion 2 needs the
heart-disease CSV (see README); it is skipped when the file is absent and
criterion 3 stands in for it.
"""

import functools
import os
import time

import numpy as np
import pytest

from fewboost.booster import predict, train
from fewboost.dataset import (CATEGORICAL, NUMERIC, Dataset, bin_features,
                              load_csv, schema_for, write_csv)
from fewboost.fsl import default_preset, fsl_preset, run_cell, sample_k_shot
from fewboost.metrics import auc, mse
from fewboost.mlp import init_mlp
from fewboost.params import Params
from fewboost.stacking import (calibrate_thresholds, fit_stacking,
                               make_default_zoo, train_level0)
from fewboost.synth import make_synthetic_binary, make_synthetic_stock
from fewboost.tree import NodeStats, build_histogram, find_best_split
from fewboost.booster import GradientPairs

import reference_tree

from helpers import (brute_force_auc, brute_force_best_split,
                     finite_diff_grads, max_relative_error)


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except pytest.skip.Exception:
                print(f"\n[criterion {num}] SKIP {desc}")
                raise
            except BaseException:
                print(f"\n[criterion {num}] FAIL {desc}")
                raise
            print(f"\n[criterion {num}] PASS {desc}")
        return wrapper
    return deco


def _mixed_binary_dataset(seed):
    """Binary task with numeric and categorical columns."""
    rng = np.random.default_rng(seed)
    n = 300
    num = rng.standard_normal((n, 3))
    cat = rng.integers(0, 4, size=n).astype(float)
    logit = 2.0 * num[:, 0] + (cat - 1.5)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(float)
    return Dataset(
        feature_names=["a", "b", "c", "g"],
        kinds=[NUMERIC] * 3 + [CATEGORICAL],
        values=np.column_stack([num, cat]),
        categories=[None, None, None, ["g0", "g1", "g2", "g3"]],
        target=y, target_name="y", name="mixed",
    )


@criterion(1, "gate stall: default preset, k <= 19 -> single-leaf trees, AUC exactly 0.5")
def test_criterion_1_gate_stall(tmp_path):
    start = time.perf_counter()
    params = default_preset()
    datasets = [make_synthetic_binary(n_rows=300, seed=0), _mixed_binary_dataset(1)]
    for i, ds in enumerate(datasets):
        # go through an actual CSV file, as a user would
        path = tmp_path / f"d{i}.csv"
        write_csv(ds, path)
        ds = load_csv(path, schema_for(ds))
        for k in (4, 10, 16, 19):
            shot = sample_k_shot(ds, k, seed=k)
            sub = ds.take(shot.indices)
            model = train(bin_features(sub, params.max_bin, params.min_data_in_bin),
                          params)
            assert model.all_single_leaf()
            eval_idx = np.setdiff1d(np.arange(ds.n_rows), shot.indices)
            scores = predict(model, ds.values[eval_idx])
            assert auc(ds.target[eval_idx], scores).value == 0.5
    assert time.perf_counter() - start < 5.0


def _heart_paths():
    csv_path = os.environ.get("FEWBOOST_HEART_CSV", "data/heart.csv")
    schema_path = os.environ.get("FEWBOOST_HEART_SCHEMA", "data/heart.schema.json")
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isabs(csv_path):
        csv_path = os.path.join(here, csv_path)
    if not os.path.isabs(schema_path):
        schema_path = os.path.join(here, schema_path)
    return csv_path, schema_path


@criterion(2, "few-shot recovery on the heart dataset (median AUC over 20 seeds)")
def test_criterion_2_heart_recovery():
    csv_path, schema_path = _heart_paths()
    if not (os.path.exists(csv_path) and os.path.exists(schema_path)):
        pytest.skip("heart dataset not present; criterion 3 substitutes "
                    "(see README for data setup)")
    start = time.perf_counter()
    ds = load_csv(csv_path, schema_path)
    params = fsl_preset()
    for k, floor in ((4, 0.70), (64, 0.85)):
        aucs = [run_cell(ds, k, seed, params) for seed in range(20)]
        assert np.median(aucs) >= floor, f"{k}-shot median {np.median(aucs):.4f} < {floor}"
    assert time.perf_counter() - start < 120.0


@criterion(3, "few-shot recovery on synthetic data (8-shot mean AUC >= 0.75; "
              "default preset exactly 0.5)")
def test_criterion_3_synthetic_recovery():
    start = time.perf_counter()
    ds = make_synthetic_binary(n_rows=500, n_features=6, n_informative=2,
                               noise_sd=1.0, seed=0)
    fsl_aucs = [run_cell(ds, 8, seed, fsl_preset()) for seed in range(20)]
    assert np.mean(fsl_aucs) >= 0.75, f"mean {np.mean(fsl_aucs):.4f} < 0.75"
    default_aucs = [run_cell(ds, 8, seed, default_preset()) for seed in range(20)]
    assert set(default_aucs) == {0.5}
    assert time.perf_counter() - start < 30.0


@criterion(4, "split search equals the exhaustive oracle on 100 random instances")
def test_criterion_4_split_oracle():
    rng = np.random.default_rng(20240)
    checked_splits = 0
    for _ in range(100):
        n = int(rng.integers(2, 65))
        n_features = int(rng.integers(1, 6))
        min_leaf = int(rng.choice([1, 2, 5]))
        bins_by_feature = [rng.integers(0, int(rng.integers(2, 17)), size=n)
                           for _ in range(n_features)]
        grads = GradientPairs(grad=rng.standard_normal(n), hess=rng.random(n) + 0.1)
        from fewboost.dataset import BinnedDataset, FeatureBins

        mapper = [FeatureBins(name=f"f{j}", kind="numeric",
                              n_real_bins=int(b.max()) + 1,
                              edges=np.arange(1, int(b.max()) + 1, dtype=float))
                  for j, b in enumerate(bins_by_feature)]
        bds = BinnedDataset(mapper=mapper,
                            bins=np.column_stack([b.astype(np.uint32)
                                                  for b in bins_by_feature]),
                            target=None, max_bin=255, min_data_in_bin=1)
        stats = NodeStats.from_rows(np.arange(n), grads)
        params = Params(min_data_in_leaf=min_leaf)
        best = None
        for f in range(n_features):
            hist = build_histogram(bds, f, stats, grads)
            cand = find_best_split(hist, stats, params)
            if cand is not None and (best is None or cand.gain > best.gain):
                best = cand
        oracle = brute_force_best_split(bins_by_feature, grads.grad, grads.hess,
                                        min_leaf)
        if oracle is None:
            assert best is None
        else:
            best_gain, tied = oracle
            # unique maximum: exact (feature, boundary) agreement; tied
            # maxima are identical/mirrored partitions and any member is
            # the correct answer
            assert (best.feature, best.threshold_bin) in tied
            if len(tied) == 1:
                assert (best.feature, best.threshold_bin) == tied[0]
            assert abs(best.gain - best_gain) < 1e-9
            checked_splits += 1
    assert checked_splits > 50  # the instances must actually exercise splits


@criterion(5, "hand instance: variance-form gain 1.0 at the third-bin boundary, "
              "argmax identical under both evaluators")
def test_criterion_5_unit_gain_instance():
    grads = GradientPairs(grad=np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0]),
                          hess=np.ones(6))
    from fewboost.dataset import BinnedDataset, FeatureBins

    mapper = [FeatureBins(name="f0", kind="numeric", n_real_bins=6,
                          edges=np.arange(1.0, 6.0))]
    bds = BinnedDataset(mapper=mapper,
                        bins=np.arange(6, dtype=np.uint32).reshape(-1, 1),
                        target=None, max_bin=255, min_data_in_bin=1)
    stats = NodeStats.from_rows(np.arange(6), grads)
    hist = build_histogram(bds, 0, stats, grads)
    params = Params(min_data_in_leaf=1)
    # the variance form lives in the frozen reference; the library scores in hessian form
    v = reference_tree.find_best_split(hist, stats, params, gain_form="variance")
    h = find_best_split(hist, stats, params)
    assert v.threshold_bin == 2 and h.threshold_bin == 2
    assert abs(v.gain - 1.0) < 1e-12
    assert abs(reference_tree.variance_gain(3.0, 3, -3.0, 3, 6) - 1.0) < 1e-15
    assert h.gain == 6.0  # (3^2/3 + 3^2/3) - 0^2/6, n_node times the variance form


@criterion(6, "rank-based AUC equals pairwise brute force within 1e-12 "
              "on 1000 random instances")
def test_criterion_6_auc_oracle():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, size=n).astype(float)
        if labels.min() == labels.max():
            labels[0] = 1.0 - labels[0]
        if rng.random() < 0.5:
            scores = rng.integers(0, max(2, n // 10), size=n).astype(float)  # ties
        else:
            scores = rng.standard_normal(n)
        assert abs(auc(labels, scores).value - brute_force_auc(labels, scores)) < 1e-12


@criterion(7, "MLP analytic gradients match central finite differences "
              "(rel. error < 1e-4) on 20 random networks")
def test_criterion_7_mlp_gradients():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 9))
        mlp = init_mlp(d, rng=rng)
        x = rng.standard_normal((int(rng.integers(5, 30)), d))
        y = rng.standard_normal(x.shape[0])
        _, gw, gb = mlp.loss_and_grads(x, y)
        fw, fbias = finite_diff_grads(mlp, x, y, h=1e-5)
        worst = max(worst, max_relative_error(gw, fw), max_relative_error(gb, fbias))
    assert worst < 1e-4, f"worst relative error {worst:.2e}"


@criterion(8, "threshold calibration: action counts within 1 of n*p on 1000 "
              "random distinct-score vectors")
def test_criterion_8_calibration_exactness():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        n = int(rng.integers(2, 400))
        scores = rng.permutation(n).astype(float) + rng.random()  # distinct
        p = rng.dirichlet((1.0, 1.0, 1.0))
        if rng.random() < 0.1:  # exercise zero-mass edges too
            p = np.array([0.0, p[0] + p[1], p[2]])
            p = p / p.sum()
        dist = {"sell": float(p[0]), "hold": float(p[1]), "buy": float(p[2])}
        actions = calibrate_thresholds(scores, dist).apply(scores)
        for action, prob in zip((-1, 0, 1), p):
            count = int((actions == action).sum())
            assert abs(count - n * prob) <= 1.0, (n, prob, count)


@criterion(9, "stacked pipeline: five-config zoo on 300-shot partitions beats the "
              "constant predictor on held-out rows; shot sets disjoint")
def test_criterion_9_stacking_end_to_end():
    start = time.perf_counter()
    full = make_synthetic_stock(n_rows=2500, seed=0)
    ds = full.take(np.arange(2000))
    held = full.take(np.arange(2000, 2500))

    configs = make_default_zoo(ds, k_per_model=300, seed=0)
    assert len(configs) == 5
    variants = {c.name: c for c in configs}
    assert sum(c.params.extra_trees for c in configs) == 4  # one greedy variant
    assert variants["extra-base-winsor"].winsor_quantiles == (0.005, 0.995)
    assert len({c.feature_set for c in configs}) >= 3  # feature-subset variants

    result = train_level0(ds, configs)
    # disjointness audit: shot sets pairwise disjoint and none in the meta pool
    all_shots = np.concatenate([c.shot_indices for c in configs])
    assert len(np.unique(all_shots)) == 5 * 300
    assert np.intersect1d(all_shots, result.meta_indices).size == 0

    pipeline = fit_stacking(ds, configs, {"sell": 0.25, "hold": 0.5, "buy": 0.25},
                            seed=0)
    blend = pipeline.predict_score(held.values)
    meta_targets = ds.target[result.meta_indices]
    baseline = mse(held.target, np.full(held.n_rows, meta_targets.mean())).value
    achieved = mse(held.target, blend).value
    assert achieved <= baseline, f"{achieved:.6f} > baseline {baseline:.6f}"
    assert time.perf_counter() - start < 120.0
