import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewboost import stacking
from fewboost.booster import predict, train
from fewboost.dataset import bin_features
from fewboost.errors import ValidationError
from fewboost.fsl import fsl_preset
from fewboost.metrics import mae, mse
from fewboost.stacking import (ActionThresholds, Level0Config,
                               calibrate_thresholds, fit_stacking,
                               level0_predictions, load_pipeline,
                               make_default_zoo, partition_shots,
                               save_pipeline, train_level0, winsorize)
from fewboost.synth import make_synthetic_stock


# --- partitioning -------------------------------------------------------------


def test_partition_counts():
    parts, leftover = partition_shots(10, 3, 3, seed=0)
    assert len(parts) == 3
    assert all(len(p) == 3 for p in parts)
    assert len(leftover) == 1


def test_partition_exact_cover_leaves_empty_pool():
    parts, leftover = partition_shots(9, 3, 3, seed=0)
    assert len(leftover) == 0


def test_partition_capacity_error():
    with pytest.raises(ValidationError, match="capacity"):
        partition_shots(8, 3, 3, seed=0)


@given(st.integers(0, 10_000))
@settings(max_examples=200, deadline=None)
def test_partition_disjoint_union(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 200))
    m = int(rng.integers(1, 5))
    k = int(rng.integers(1, max(2, n // m)))
    parts, leftover = partition_shots(n, k, m, seed=seed)
    union = np.concatenate(parts)
    assert len(union) == k * m
    assert len(np.unique(union)) == k * m
    combined = np.sort(np.concatenate([union, leftover]))
    assert np.array_equal(combined, np.arange(n))


# --- winsorize -----------------------------------------------------------------


def test_winsorize_noop_inside_bounds():
    # tied extremes put the interpolated quantiles at min/max: nothing clips
    y = np.array([1.0, 1.0, 2.0, 3.0, 3.0])
    assert np.array_equal(winsorize(y, 0.2, 0.8), y)


def test_winsorize_full_range_identity():
    y = np.array([5.0, -3.0, 9.0])
    assert np.array_equal(winsorize(y, 0.0, 1.0), y)


def test_winsorize_hand_quantiles():
    # sorted [-100,1,2,3,100]: 25% rank -> 1.0, 75% rank -> 3.0 (interpolated)
    y = np.array([-100.0, 1.0, 2.0, 3.0, 100.0])
    out = winsorize(y, 0.25, 0.75)
    assert np.array_equal(out, [1.0, 1.0, 2.0, 3.0, 3.0])


def test_winsorize_validates_quantiles():
    with pytest.raises(ValidationError):
        winsorize(np.arange(5.0), 0.8, 0.2)


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_winsorize_idempotent(seed):
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(int(rng.integers(3, 60)))
    once = winsorize(y, 0.1, 0.9)
    lo, hi = np.quantile(y, 0.1), np.quantile(y, 0.9)
    assert np.array_equal(np.clip(once, lo, hi), once)
    # order of unclipped values preserved
    inside = (y > lo) & (y < hi)
    assert np.array_equal(np.argsort(once[inside]), np.argsort(y[inside]))


# --- level-0 -------------------------------------------------------------------


def _zoo(ds, k=60, seed=0):
    params = dataclasses.replace(fsl_preset(), objective="mse", n_rounds=30)
    return make_default_zoo(ds, k_per_model=k, seed=seed, params=params)


def test_train_level0_five_columns():
    ds = make_synthetic_stock(n_rows=400, seed=0)
    result = train_level0(ds, _zoo(ds))
    assert result.meta_features.shape == (400 - 5 * 60, 5)
    assert len(result.fits) == 5


def test_train_level0_disjointness_enforced():
    ds = make_synthetic_stock(n_rows=400, seed=0)
    configs = _zoo(ds)
    clash = dataclasses.replace(configs[1], shot_indices=configs[0].shot_indices)
    with pytest.raises(ValidationError, match="overlap"):
        train_level0(ds, [configs[0], clash])


def test_train_level0_empty_meta_pool_rejected():
    ds = make_synthetic_stock(n_rows=300, seed=0)
    configs = _zoo(ds)  # 5 * 60 == 300 rows -> nothing left over
    with pytest.raises(ValidationError, match="meta pool"):
        train_level0(ds, configs)


def test_train_level0_extra_trees_is_the_only_difference():
    ds = make_synthetic_stock(n_rows=300, seed=1)
    parts, _ = partition_shots(ds.n_rows, 80, 1, seed=0)
    base = dataclasses.replace(fsl_preset(), objective="mse", n_rounds=20,
                               extra_trees=False)
    features = tuple(range(ds.n_features))
    cfg_greedy = Level0Config("greedy", features, base, parts[0])
    cfg_extra = Level0Config(
        "extra", features, dataclasses.replace(base, extra_trees=True), parts[0])
    result = train_level0(ds, [cfg_greedy])
    # same shots, same features: only the split-selection path differs
    result2 = train_level0(ds, [cfg_extra])
    assert result.meta_features.shape == result2.meta_features.shape
    assert not np.array_equal(result.meta_features, result2.meta_features)


def _train_alone(ds, cfg):
    """One config trained by itself, as level-0 training would without a batch."""
    sub = ds.take(cfg.shot_indices).select_features(cfg.feature_set)
    if cfg.winsor_quantiles is not None:
        sub.target = winsorize(sub.target, *cfg.winsor_quantiles)
    params = dataclasses.replace(cfg.params, objective="mse")
    return train(bin_features(sub, params.max_bin, params.min_data_in_bin), params)


def _count_train_many(monkeypatch):
    calls = []
    real = stacking.train_many

    def counted(datasets, params_list):
        calls.append(len(datasets))
        return real(datasets, params_list)

    monkeypatch.setattr(stacking, "train_many", counted)
    return calls


def test_train_level0_trains_the_zoo_as_one_batch_equal_to_each_alone(monkeypatch):
    ds = make_synthetic_stock(n_rows=500, seed=2)
    configs = _zoo(ds, k=60, seed=3)
    assert {c.params.extra_trees for c in configs} == {True, False}
    calls = _count_train_many(monkeypatch)
    result = train_level0(ds, configs)
    assert calls == [5]
    for j, (cfg, fit) in enumerate(zip(configs, result.fits)):
        alone = _train_alone(ds, cfg)
        assert fit.config is cfg
        assert json.dumps(fit.model.to_dict()) == json.dumps(alone.to_dict())
        want = predict(alone, ds.values[np.ix_(result.meta_indices, cfg.feature_set)])
        assert np.array_equal(result.meta_features[:, j], want)


def test_train_level0_batches_configs_with_different_parameters(monkeypatch):
    ds = make_synthetic_stock(n_rows=500, seed=2)
    configs = _zoo(ds, k=60, seed=3)
    configs[2] = dataclasses.replace(
        configs[2], params=dataclasses.replace(configs[2].params, num_leaves=6))
    configs[4] = dataclasses.replace(
        configs[4], params=dataclasses.replace(configs[4].params, n_rounds=12,
                                               min_data_in_leaf=5))
    calls = _count_train_many(monkeypatch)
    result = train_level0(ds, configs)
    assert calls == [5]
    for cfg, fit in zip(configs, result.fits):
        assert json.dumps(fit.model.to_dict()) == json.dumps(_train_alone(ds, cfg).to_dict())


@pytest.mark.parametrize("broken, message", [
    ({"shot_indices": np.array([], dtype=np.intp)}, "training requires at least one row"),
    ({"winsor_quantiles": (0.9, 0.1)},
     "field 'winsor_quantiles' is [0.9, 0.1], but quantiles must satisfy 0 <= lo_q < hi_q <= 1"),
])
def test_train_level0_failing_config_names_itself_before_any_training(monkeypatch, broken,
                                                                      message):
    ds = make_synthetic_stock(n_rows=400, seed=0)
    configs = _zoo(ds)
    configs[-1] = dataclasses.replace(configs[-1], **broken)

    def no_training(*_):
        raise AssertionError("a model trained before every config was checked")

    monkeypatch.setattr(stacking, "train_many", no_training)
    with pytest.raises(ValidationError) as info:
        train_level0(ds, configs)
    assert str(info.value) == f"level-0 config {configs[-1].name!r}: {message}"


@pytest.mark.parametrize("feature_set", [(99,), (0, 13), (-1,)])
def test_train_level0_out_of_range_feature_names_its_config(monkeypatch, feature_set):
    ds = make_synthetic_stock(n_rows=400, seed=0)
    assert ds.n_features == 13
    configs = _zoo(ds)
    configs[1] = dataclasses.replace(configs[1], feature_set=feature_set)

    def no_training(*_):
        raise AssertionError("a model trained before every config was checked")

    monkeypatch.setattr(stacking, "train_many", no_training)
    with pytest.raises(ValidationError) as info:
        train_level0(ds, configs)
    bad = [j for j in feature_set if not 0 <= j < 13][0]
    assert str(info.value) == (f"level-0 config {configs[1].name!r}: "
                               f"feature index {bad} out of range for 13 features")


def test_level0_beats_constant_baseline_within_margin():
    ds = make_synthetic_stock(n_rows=700, seed=2)
    result = train_level0(ds, _zoo(ds, k=100, seed=1))
    meta_y = ds.target[result.meta_indices]
    baseline = mse(meta_y, np.full(len(meta_y), meta_y.mean())).value
    for col in range(result.meta_features.shape[1]):
        model_mse = mse(meta_y, result.meta_features[:, col]).value
        assert np.isfinite(model_mse)
        assert model_mse <= 1.5 * baseline


def test_winsorized_config_clamps_training_target():
    ds = make_synthetic_stock(n_rows=300, seed=3)
    y = ds.target.copy()
    y[0] = 100.0  # one wild outlier
    ds.target = y
    parts, _ = partition_shots(ds.n_rows, 100, 1, seed=0)
    params = dataclasses.replace(fsl_preset(), objective="mse", n_rounds=10)
    cfg = Level0Config("w", tuple(range(ds.n_features)), params, parts[0],
                       winsor_quantiles=(0.01, 0.99))
    result = train_level0(ds, [cfg])
    # prediction range cannot chase the outlier once the target is clipped
    assert result.meta_features.max() < 50.0


# --- calibration ----------------------------------------------------------------


def test_calibrate_uniform_grid():
    scores = np.arange(1.0, 101.0)
    th = calibrate_thresholds(scores, {"sell": 0.25, "hold": 0.5, "buy": 0.25})
    actions = th.apply(scores)
    assert (actions == -1).sum() == 25
    assert (actions == 0).sum() == 50
    assert (actions == 1).sum() == 25
    assert 25.0 < th.t_low < 26.0
    assert 75.0 < th.t_high < 76.0


def test_calibrate_degenerate_all_hold():
    scores = np.arange(10.0)
    th = calibrate_thresholds(scores, {"sell": 0.0, "hold": 1.0, "buy": 0.0})
    assert th.t_low == -np.inf and th.t_high == np.inf
    assert np.all(th.apply(scores) == 0)


def test_calibrate_tied_scores_collapse_to_hold():
    scores = np.full(20, 3.7)
    th = calibrate_thresholds(scores, {"sell": 0.4, "hold": 0.2, "buy": 0.4})
    assert np.all(th.apply(scores) == 0)


def test_calibrate_validates_distribution():
    scores = np.arange(5.0)
    with pytest.raises(ValidationError):
        calibrate_thresholds(scores, {"sell": 0.5, "hold": 0.2, "buy": 0.2})
    with pytest.raises(ValidationError):
        calibrate_thresholds(scores, {"sell": 0.5, "hold": 0.5})
    with pytest.raises(ValidationError):
        calibrate_thresholds(np.array([]), {"sell": 0.3, "hold": 0.4, "buy": 0.3})


@given(st.integers(0, 10_000))
@settings(max_examples=200, deadline=None)
def test_calibrate_exact_on_distinct_scores(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 300))
    scores = rng.permutation(n).astype(float)  # distinct by construction
    p = rng.dirichlet((1.0, 1.0, 1.0))
    dist = {"sell": p[0], "hold": p[1], "buy": p[2]}
    th = calibrate_thresholds(scores, dist)
    actions = th.apply(scores)
    for action, prob in zip((-1, 0, 1), p):
        assert abs((actions == action).sum() - n * prob) <= 1.0


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_threshold_monotone_in_buy_mass(seed):
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal(int(rng.integers(5, 100)))
    p_sell = float(rng.uniform(0.0, 0.3))
    p3a = float(rng.uniform(0.0, 0.3))
    p3b = float(rng.uniform(p3a, 0.6))
    ta = calibrate_thresholds(scores, {"sell": p_sell, "hold": 1 - p_sell - p3a, "buy": p3a})
    tb = calibrate_thresholds(scores, {"sell": p_sell, "hold": 1 - p_sell - p3b, "buy": p3b})
    assert tb.t_high <= ta.t_high


# --- end-to-end pipeline ----------------------------------------------------------


def test_predict_actions_mapping():
    th = ActionThresholds(t_low=-1.0, t_high=1.0)
    assert list(th.apply([-5.0, 0.0, 5.0])) == [-1, 0, 1]


def test_pipeline_fit_predict_and_round_trip(tmp_path):
    ds = make_synthetic_stock(n_rows=600, seed=4)
    configs = _zoo(ds, k=80, seed=2)
    dist = {"sell": 0.25, "hold": 0.5, "buy": 0.25}
    pipeline = fit_stacking(ds, configs, dist, seed=0)
    actions = pipeline.predict_actions(ds.values)
    assert set(np.unique(actions)).issubset({-1, 0, 1})

    path = tmp_path / "pipeline.json"
    save_pipeline(pipeline, path)
    loaded = load_pipeline(path)
    assert np.array_equal(loaded.predict_score(ds.values),
                          pipeline.predict_score(ds.values))
    assert np.array_equal(loaded.predict_actions(ds.values), actions)


@pytest.fixture(scope="module")
def pipeline_doc():
    ds = make_synthetic_stock(n_rows=400, seed=0)
    pipeline = fit_stacking(ds, _zoo(ds), {"sell": 0.25, "hold": 0.5, "buy": 0.25}, seed=0)
    return pipeline.to_dict()


def _first_split(entry):
    return next(t["root"] for t in entry["model"]["trees"] if "feature" in t["root"])


@pytest.mark.parametrize("break_it, message", [
    (lambda d: d.pop("level0"), "^missing field 'level0'$"),
    (lambda d: d["level0"][2].pop("params"), "^level-0 entry 2: missing field 'params'$"),
    (lambda d: _first_split(d["level0"][1]).__setitem__("count", float("nan")),
     r"^level-0 entry 1: tree \d+: node 0: field 'count' must be an integer, got nan$"),
    (lambda d: _first_split(d["level0"][3]).pop("count"),
     r"^level-0 entry 3: tree \d+: node 0: missing field 'count'$"),
    (lambda d: d["level0"][0]["model"].pop("trees"), "^level-0 entry 0: missing field 'trees'$"),
    (lambda d: d["blender"].pop("weights"), "^blender: missing field 'weights'$"),
    (lambda d: d["blender"]["weights"].pop(),
     "^blender: takes 4 inputs, but the pipeline has 5 level-0 models$"),
    (lambda d: d["thresholds"].__setitem__("t_low", "x"),
     "^thresholds: field 't_low' must be a finite number, got 'x'$"),
    (lambda d: d.__setitem__("level0", 7), "^field 'level0' must be a list, got int$"),
    (lambda d: d.__setitem__("version", 7), "^unsupported pipeline version 7$"),
    (lambda d: d.__setitem__("version", True), "^unsupported pipeline version True$"),
    (lambda d: d.__setitem__("version", 1), "^unsupported pipeline version 1$"),
])
def test_load_pipeline_names_what_does_not_decode(tmp_path, pipeline_doc, break_it, message):
    # a missing level-0 list, a bad level-0 model or a bad blender raises
    # ValidationError naming the part, never a raw KeyError or ValueError
    doc = json.loads(json.dumps(pipeline_doc))
    break_it(doc)
    path = tmp_path / "pipeline.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValidationError, match=message):
        load_pipeline(path)
    with pytest.raises(ValidationError, match=message):
        stacking.StackingPipeline.from_dict(doc)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_calibrate_thresholds_rejects_non_finite_scores(bad):
    # np.sort put a NaN last, as the highest score: [nan, 1, 2, 3] gave
    # t_low=1.5 and t_high=inf without an error
    with pytest.raises(ValidationError, match=f"^scores must be finite, got {bad!r} at entry 0$"):
        calibrate_thresholds([bad, 1.0, 2.0, 3.0], {"sell": 0.25, "hold": 0.75, "buy": 0.0})


@pytest.mark.parametrize("doc, message", [
    ({"t_low": float("nan"), "t_high": 1.0}, "^field 't_low' must be a finite number, got nan$"),
    ({"t_low": None, "t_high": float("nan")}, "^field 't_high' must be a finite number, got nan$"),
    ({"t_low": "nan", "t_high": None}, "^field 't_low' must be a finite number, got 'nan'$"),
])
def test_thresholds_reject_nan(doc, message):
    # a NaN t_low compares false with every score, so nothing would ever sell
    with pytest.raises(ValidationError, match=message):
        ActionThresholds.from_dict(doc)
    with pytest.raises(ValidationError, match="thresholds must not be NaN"):
        ActionThresholds(t_low=-np.inf if doc["t_low"] is None else float(doc["t_low"]),
                         t_high=np.inf if doc["t_high"] is None else float(doc["t_high"]))


@pytest.mark.parametrize("dist, actions, doc", [
    ({"sell": 1.0, "hold": 0.0, "buy": 0.0}, [-1, -1, -1], {"t_low": "inf", "t_high": None}),
    ({"sell": 0.0, "hold": 0.0, "buy": 1.0}, [1, 1, 1], {"t_low": None, "t_high": "-inf"}),
], ids=["sell-all", "buy-all"])
def test_thresholds_that_act_on_every_row_survive_a_save(tmp_path, pipeline_doc, dist, actions,
                                                         doc):
    thresholds = calibrate_thresholds([1.0, 2.0, 3.0], dist)
    assert list(thresholds.apply([1.0, 2.0, 3.0])) == actions
    assert thresholds.to_dict() == doc
    assert ActionThresholds.from_dict(doc) == thresholds
    # null keeps its meaning: the infinity that turns an action off
    assert ActionThresholds.from_dict({"t_low": None, "t_high": None}) == ActionThresholds(
        -np.inf, np.inf)
    pipeline = stacking.StackingPipeline.from_dict(pipeline_doc)
    pipeline.thresholds = thresholds
    path = tmp_path / "pipeline.json"
    save_pipeline(pipeline, path)
    json.loads(path.read_text(encoding="utf-8"), parse_constant=pytest.fail)
    rows = make_synthetic_stock(n_rows=50, seed=1).values
    assert set(load_pipeline(path).predict_actions(rows).tolist()) == {actions[0]}


def test_pipeline_writes_nothing_to_stdout_and_scores_are_finite(capsys, monkeypatch):
    # a benchmark run's last stdout line is its JSON result: the stacked
    # pipeline must print nothing and give finite scores and blend weights
    blenders = []
    real = stacking.fit_blender

    def recorded(*args, **kwargs):
        blender = real(*args, **kwargs)
        blenders.append(blender)
        return blender

    monkeypatch.setattr(stacking, "fit_blender", recorded)
    full = make_synthetic_stock(n_rows=1200, seed=6)
    train_ds, held = full.take(np.arange(900)), full.take(np.arange(900, 1200))
    configs = make_default_zoo(train_ds, k_per_model=100, seed=7)
    pipeline = fit_stacking(train_ds, configs, {"sell": 0.25, "hold": 0.5, "buy": 0.25},
                            seed=7)
    scores = pipeline.predict_score(held.values)
    assert capsys.readouterr().out == ""
    assert scores.shape == (300,) and np.isfinite(scores).all()
    assert len(blenders) == 1 and blenders[0].weights.size == len(configs)
    assert np.isfinite(blenders[0].weights).all() and np.isfinite(blenders[0].intercept)


def test_pipeline_actions_beat_always_hold_on_held_out():
    full = make_synthetic_stock(n_rows=1300, seed=5)
    train_ds = full.take(np.arange(900))
    held = full.take(np.arange(900, 1300))
    dist = {"sell": 0.25, "hold": 0.5, "buy": 0.25}
    pipeline = fit_stacking(train_ds, _zoo(train_ds, k=120, seed=3), dist, seed=0)
    predicted = pipeline.predict_actions(held.values)
    # true actions: discretize the held-out target by the same distribution
    true_actions = calibrate_thresholds(held.target, dist).apply(held.target)
    pipeline_mae = mae(true_actions, predicted).value
    hold_mae = mae(true_actions, np.zeros(len(true_actions))).value
    assert pipeline_mae <= hold_mae


def test_level0_predictions_column_order():
    ds = make_synthetic_stock(n_rows=400, seed=7)
    result = train_level0(ds, _zoo(ds, k=60, seed=4))
    recomputed = level0_predictions(result.fits, ds.values[result.meta_indices])
    assert np.array_equal(recomputed, result.meta_features)


def test_make_default_zoo_feature_groups():
    ds = make_synthetic_stock(n_rows=400, seed=9)
    configs = make_default_zoo(ds, k_per_model=50, seed=0)
    by_name = {c.name: c for c in configs}
    assert len(configs) == 5
    rel = {j for j, n in enumerate(ds.feature_names) if n.startswith("dI")}
    cat = {j for j, k in enumerate(ds.kinds) if k == "categorical"}
    assert set(by_name["extra-base"].feature_set) == rel | cat
    assert set(by_name["extra-no-cats"].feature_set) == rel
    assert set(by_name["extra-with-static"].feature_set) == set(range(ds.n_features))
    assert by_name["extra-base-winsor"].winsor_quantiles == (0.005, 0.995)
    assert by_name["gbdt-base"].params.extra_trees is False
    assert by_name["extra-base"].params.extra_trees is True
