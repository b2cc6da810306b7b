import dataclasses
import json
import math

import numpy as np
import pytest

from fewboost.booster import (Model, check_trainable, compute_gradients, load_model,
                              predict, save_model, train, train_many)
from fewboost.dataset import Dataset, bin_features
from fewboost.errors import ValidationError
from fewboost.fsl import default_preset, fsl_preset, sample_k_shot
from fewboost.params import Params
from fewboost.synth import make_synthetic_binary

from helpers import corrupt_bundle, logloss


def _numeric_ds(values, target):
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    names = [f"x{j}" for j in range(arr.shape[1])]
    return Dataset(names, ["numeric"] * arr.shape[1], arr,
                   [None] * arr.shape[1], np.asarray(target, dtype=float), "y", "t")


def _mixed_binary(n_rows, seed):
    """The synthetic binary task plus a 5-category column, with missing values."""
    ds = make_synthetic_binary(n_rows=n_rows, seed=seed)
    rng = np.random.default_rng(seed)
    values = np.column_stack([ds.values, rng.integers(0, 5, n_rows)]).astype(float)
    values[rng.random(values.shape) < 0.05] = np.nan
    return Dataset(ds.feature_names + ["c"], ds.kinds + ["categorical"], values,
                   ds.categories + [[f"c{i}" for i in range(5)]], ds.target, "y", "mixed")


# --- gradients ---------------------------------------------------------------


def test_gradients_logloss_at_zero_score():
    g = compute_gradients("binary-logloss", [1.0], [0.0])
    assert g.grad[0] == pytest.approx(-0.5)
    assert g.hess[0] == pytest.approx(0.25)


def test_gradients_mse():
    g = compute_gradients("mse", [3.0], [5.0])
    assert g.grad[0] == 2.0 and g.hess[0] == 1.0


def test_gradients_mae_sign():
    g = compute_gradients("mae", [1.0, 5.0, 3.0], [3.0, 3.0, 3.0])
    assert list(g.grad) == [1.0, -1.0, 0.0]
    assert list(g.hess) == [1.0, 1.0, 1.0]


def test_gradients_logloss_saturation():
    # numeric check of sigmoid saturation: y=0 at +20 raw score
    g = compute_gradients("binary-logloss", [0.0], [20.0])
    p = 1.0 / (1.0 + math.exp(-20.0))
    assert abs(g.grad[0] - 1.0) < 1e-8
    assert g.hess[0] == pytest.approx(p * (1 - p), abs=1e-12)
    assert g.hess[0] < 1e-8


def test_gradients_unknown_objective():
    with pytest.raises(ValidationError):
        compute_gradients("poisson", [1.0], [1.0])


# --- training ----------------------------------------------------------------


def test_default_preset_small_n_trains_only_stumps():
    ds = make_synthetic_binary(n_rows=16, seed=0)
    params = default_preset()  # min_data_in_leaf=20 > 16
    model = train(bin_features(ds, params.max_bin, params.min_data_in_bin), params)
    assert model.all_single_leaf()
    scores = predict(model, ds.values)
    assert np.all(scores == scores[0])  # constant over all inputs


def test_fsl_preset_learns_separable_data():
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.normal(-2, 0.3, 8), rng.normal(2, 0.3, 8)])
    extra = rng.standard_normal((16, 1))
    ds = _numeric_ds(np.column_stack([x, extra]), [0.0] * 8 + [1.0] * 8)
    params = dataclasses.replace(fsl_preset(), seed=1)
    model = train(bin_features(ds, params.max_bin, params.min_data_in_bin), params)
    train_pred = predict(model, ds.values)
    base = np.full(16, ds.target.mean())
    assert logloss(ds.target, train_pred) < logloss(ds.target, base)


def test_mse_depth_one_oracle():
    # split lands between 3 and 4; leaves are the residual means 0 and 1
    ds = _numeric_ds([1, 2, 3, 4, 5, 6], [0, 0, 0, 1, 1, 1])
    params = Params(objective="mse", n_rounds=1, eta=1.0, num_leaves=2,
                    min_data_in_leaf=1)
    model = train(bin_features(ds, params.max_bin, params.min_data_in_bin), params)
    tree = model.trees[0]
    assert tree.num_leaves_used == 2
    assert predict(model, [[2.0]])[0] == pytest.approx(0.0)
    assert predict(model, [[5.0]])[0] == pytest.approx(1.0)


def test_single_leaf_round_shifts_by_leaf_value():
    ds = _numeric_ds([1, 2, 3], [1.0, 2.0, 3.0])
    params = Params(objective="mse", n_rounds=1, eta=0.5, num_leaves=2,
                    min_data_in_leaf=5)  # gate closed
    model = train(bin_features(ds, params.max_bin, params.min_data_in_bin), params)
    assert model.trees[0].is_single_leaf
    # residuals sum to zero at the mean baseline, so the leaf value is 0
    assert predict(model, ds.values)[0] == pytest.approx(2.0)


def test_objective_target_mismatch():
    ds = _numeric_ds([1, 2, 3], [0.0, 0.5, 1.0])
    with pytest.raises(ValidationError):
        train(bin_features(ds, 255, 1), Params(objective="binary-logloss"))


def test_shrinkage_linearity():
    ds = _numeric_ds([1, 2, 3, 4, 5, 6], [0, 0, 0, 1, 1, 1])
    params = Params(objective="mse", n_rounds=1, eta=0.3, num_leaves=2,
                    min_data_in_leaf=1)
    model = train(bin_features(ds, params.max_bin, params.min_data_in_bin), params)
    doubled = Model(trees=model.trees, base_score=model.base_score,
                    params=dataclasses.replace(model.params, eta=0.6),
                    mapper=model.mapper)
    d1 = predict(model, ds.values) - model.base_score
    d2 = predict(doubled, ds.values) - model.base_score
    assert np.allclose(d2, 2 * d1)


def test_bagging_count():
    ds = make_synthetic_binary(n_rows=16, seed=1)
    params = dataclasses.replace(
        fsl_preset(), min_data_in_leaf=16, n_rounds=5)  # stumps, bag = floor(.5*16)
    model = train(bin_features(ds, params.max_bin, params.min_data_in_bin), params)
    for tree in model.trees:
        assert tree.nodes[0].count == 8


def test_bagging_disabled_when_freq_zero():
    ds = make_synthetic_binary(n_rows=32, seed=1)
    params = Params(bagging_fraction=0.5, bagging_freq=0, min_data_in_leaf=32,
                    n_rounds=3)
    model = train(bin_features(ds, params.max_bin, params.min_data_in_bin), params)
    for tree in model.trees:
        assert tree.nodes[0].count == 32


def test_train_determinism():
    ds = make_synthetic_binary(n_rows=64, seed=5)
    params = dataclasses.replace(fsl_preset(), n_rounds=20, seed=7)
    bds = bin_features(ds, params.max_bin, params.min_data_in_bin)
    m1 = train(bds, params)
    m2 = train(bds, params)
    assert json.dumps(m1.to_dict()) == json.dumps(m2.to_dict())
    m3 = train(bds, dataclasses.replace(params, seed=8))
    assert json.dumps(m3.to_dict()) != json.dumps(m1.to_dict())


def test_constant_model_auc_exactly_half():
    from fewboost.metrics import auc

    ds = make_synthetic_binary(n_rows=200, seed=2)
    shot = sample_k_shot(ds, 16, 0)
    params = default_preset()
    sub = ds.take(shot.indices)
    model = train(bin_features(sub, params.max_bin, params.min_data_in_bin), params)
    assert model.all_single_leaf()
    scores = predict(model, ds.values)
    assert auc(ds.target, scores).value == 0.5


# --- prediction ----------------------------------------------------------------


def test_zero_tree_model_returns_base_score():
    ds = _numeric_ds([1, 2, 3], [1.0, 2.0, 3.0])
    params = Params(objective="mse", n_rounds=0)
    model = train(bin_features(ds, params.max_bin, params.min_data_in_bin), params)
    assert len(model.trees) == 0
    assert np.allclose(predict(model, [[10.0], [-10.0]]), 2.0)


def test_binary_scores_in_open_unit_interval():
    ds = make_synthetic_binary(n_rows=40, seed=3)
    params = dataclasses.replace(fsl_preset(), n_rounds=30)
    model = train(bin_features(ds, params.max_bin, params.min_data_in_bin), params)
    scores = predict(model, ds.values)
    assert np.all(scores > 0.0) and np.all(scores < 1.0)


def test_predict_arity_mismatch():
    ds = _numeric_ds([1, 2, 3], [0.0, 1.0, 0.0])
    model = train(bin_features(ds, 255, 1), Params(objective="mse", n_rounds=1,
                                                   min_data_in_leaf=1))
    with pytest.raises(ValidationError):
        predict(model, [[1.0, 2.0]])


def test_predict_handles_missing_and_out_of_range():
    ds = make_synthetic_binary(n_rows=50, seed=4)
    params = dataclasses.replace(fsl_preset(), n_rounds=10)
    model = train(bin_features(ds, params.max_bin, params.min_data_in_bin), params)
    rows = ds.values[:3].copy()
    rows[0, 0] = np.nan
    rows[1, 1] = 1e9
    rows[2, 2] = -1e9
    scores = predict(model, rows)
    assert np.all(np.isfinite(scores))


# --- serialization --------------------------------------------------------------


def test_model_round_trip_bit_exact(tmp_path):
    ds = make_synthetic_binary(n_rows=80, seed=6)
    params = dataclasses.replace(fsl_preset(), n_rounds=25, seed=3)
    model = train(bin_features(ds, params.max_bin, params.min_data_in_bin), params)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    a = predict(model, ds.values)
    b = predict(loaded, ds.values)
    assert np.array_equal(a, b)  # bit-identical, not merely close
    assert loaded.params == model.params


def test_model_round_trip_with_categoricals(tmp_path):
    from fewboost.synth import make_synthetic_stock

    ds = make_synthetic_stock(n_rows=120, seed=1)
    params = dataclasses.replace(fsl_preset(), objective="mse", n_rounds=15)
    model = train(bin_features(ds, params.max_bin, params.min_data_in_bin), params)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(predict(model, ds.values), predict(loaded, ds.values))


def test_model_rejects_foreign_document(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "something-else"}), encoding="utf-8")
    with pytest.raises(ValidationError):
        load_model(path)


@pytest.mark.parametrize("fault, message", [
    ("feature", "split feature 99 is not one of the model's 6 features"),
    ("leaf", "field 'leaf' must be a finite number, got nan"),
    ("base_score", "^field 'base_score' must be a finite number, got inf$"),
    ("edges", r"^feature \d+: field 'edges' entry 0 must be a finite number, got nan$"),
])
def test_load_model_rejects_an_out_of_range_feature_or_a_non_finite_number(tmp_path, fault,
                                                                           message):
    ds = make_synthetic_binary(n_rows=80, seed=6)
    params = dataclasses.replace(fsl_preset(), n_rounds=5, seed=3)
    model = train(bin_features(ds, params.max_bin, params.min_data_in_bin), params)
    assert model.n_features == 6
    path = tmp_path / "model.json"
    path.write_text(json.dumps(corrupt_bundle(model.to_dict(), fault)), encoding="utf-8")
    with pytest.raises(ValidationError, match=message):
        load_model(path)


@pytest.mark.parametrize("fault, message", [
    ("count-nan", r"tree \d+: node 0: field 'count' must be an integer, got nan"),
    ("count-inf", r"tree \d+: node 0: field 'count' must be an integer, got inf"),
    ("count-text", r"tree \d+: node 0: field 'count' must be an integer, got 'x'"),
    ("count-missing", r"tree \d+: node 0: missing field 'count'"),
])
def test_load_model_names_a_node_field_that_does_not_decode(tmp_path, fault, message):
    # a bad field raises ValidationError naming its tree, node and field,
    # from the Python API as from the CLI
    ds = make_synthetic_binary(n_rows=80, seed=6)
    params = dataclasses.replace(fsl_preset(), n_rounds=5, seed=3)
    model = train(bin_features(ds, params.max_bin, params.min_data_in_bin), params)
    doc = corrupt_bundle(model.to_dict(), fault)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValidationError, match=message):
        load_model(path)
    with pytest.raises(ValidationError, match=message):
        Model.from_dict(doc)


@pytest.mark.parametrize("break_it, message", [
    (lambda d: d.pop("features"), "missing field 'features'"),
    (lambda d: d["features"][0].pop("name"), "feature 0: missing field 'name'"),
    (lambda d: d.__setitem__("trees", 3), "^field 'trees' must be a list, got int$"),
    (lambda d: d["trees"].__setitem__(1, [1, 2]), "tree 1: TypeError"),
    (lambda d: d["trees"][0].pop("root"), "tree 0: missing field 'root'"),
    (lambda d: d["trees"][0]["root"].__setitem__("left", "leaf"),
     "tree 0: node 1: a node must be an object, got str"),
    (lambda d: d["trees"][0]["root"].__setitem__("left_cats", ["c"]),
     "tree 0: node 0: field 'left_cats' entry 0 must be an integer, got 'c'"),
    (lambda d: d.__setitem__("base_score", "x"), "field 'base_score' must be a finite number"),
    (lambda d: d.__setitem__("params", []), "params: parameters must be a mapping"),
])
def test_model_from_dict_turns_every_decoding_error_into_a_validation_error(break_it, message):
    ds = make_synthetic_binary(n_rows=200, seed=1)
    params = dataclasses.replace(fsl_preset(), n_rounds=3, seed=0)
    doc = train(bin_features(ds, params.max_bin, params.min_data_in_bin), params).to_dict()
    assert "feature" in doc["trees"][0]["root"]
    break_it(doc)
    with pytest.raises(ValidationError, match=message):
        Model.from_dict(doc)


@pytest.mark.parametrize("preset", [default_preset, fsl_preset])
def test_train_many_equals_training_each_model_alone(preset):
    # one lockstep batch over differently sized and binned data, one seed each
    ds = _mixed_binary(300, seed=3)
    datasets, params_list = [], []
    for i, k in enumerate((6, 16, 40, 64, 150)):
        params = dataclasses.replace(preset(), n_rounds=15, seed=10 + i)
        shot = sample_k_shot(ds, k, seed=i)
        datasets.append(bin_features(ds.take(shot.indices), params.max_bin,
                                     params.min_data_in_bin))
        params_list.append(params)
    batch = train_many(datasets, params_list)
    assert len(batch) == len(datasets)
    for bds, params, model in zip(datasets, params_list, batch):
        assert json.dumps(model.to_dict()) == json.dumps(train(bds, params).to_dict())


@pytest.mark.parametrize("preset", [default_preset, fsl_preset])
def test_train_many_mixes_greedy_and_extra_trees_models(preset):
    # greedy and extra-trees models share one batch; each equals training it alone
    ds = _mixed_binary(300, seed=4)
    datasets, params_list = [], []
    for i, (k, extra) in enumerate(((16, True), (40, False), (64, True), (150, False))):
        params = dataclasses.replace(preset(), n_rounds=15, seed=20 + i, extra_trees=extra)
        shot = sample_k_shot(ds, k, seed=i)
        datasets.append(bin_features(ds.take(shot.indices), params.max_bin,
                                     params.min_data_in_bin))
        params_list.append(params)
    batch = train_many(datasets, params_list)
    for bds, params, model in zip(datasets, params_list, batch):
        assert model.params == params
        assert json.dumps(model.to_dict()) == json.dumps(train(bds, params).to_dict())
    # a batch that also differs in num_leaves trains each model as if alone
    other = dataclasses.replace(params_list[1], num_leaves=params_list[1].num_leaves + 1)
    for bds, params, model in zip(datasets, [params_list[0], other],
                                  train_many(datasets[:2], [params_list[0], other])):
        assert json.dumps(model.to_dict()) == json.dumps(train(bds, params).to_dict())


def test_train_many_accepts_mixed_parameters_and_rejects_a_length_mismatch():
    bds = bin_features(make_synthetic_binary(n_rows=40, seed=0), 255, 3)
    assert train_many([], []) == []
    params_list = [Params(seed=1, n_rounds=5), Params(seed=2, num_leaves=4, n_rounds=5)]
    for params, model in zip(params_list, train_many([bds, bds], params_list)):
        assert json.dumps(model.to_dict()) == json.dumps(train(bds, params).to_dict())
    with pytest.raises(ValidationError):
        train_many([bds, bds], [Params()])


def test_train_many_mixes_presets_and_round_counts():
    # fsl and default models, each with its own n_rounds, in one batch: a model
    # leaves the batch after its last round and equals training it alone
    ds = _mixed_binary(300, seed=5)
    datasets, params_list = [], []
    for i, (preset, k, rounds) in enumerate(((fsl_preset, 16, 12), (default_preset, 64, 7),
                                             (fsl_preset, 64, 0), (default_preset, 150, 20),
                                             (fsl_preset, 40, 3))):
        params = dataclasses.replace(preset(), n_rounds=rounds, seed=30 + i)
        shot = sample_k_shot(ds, k, seed=i)
        datasets.append(bin_features(ds.take(shot.indices), params.max_bin,
                                     params.min_data_in_bin))
        params_list.append(params)
    batch = train_many(datasets, params_list)
    for bds, params, model in zip(datasets, params_list, batch):
        assert model.params == params
        assert len(model.trees) == params.n_rounds
        assert json.dumps(model.to_dict()) == json.dumps(train(bds, params).to_dict())


def test_train_many_mixes_objectives_and_round_counts():
    # binary-logloss, mse and mae models, interleaved, each with its own
    # n_rounds: the per-objective gradient buffers give each model the
    # gradients it would compute alone
    from fewboost.synth import make_synthetic_stock

    binary = _mixed_binary(300, seed=6)
    stock = make_synthetic_stock(n_rows=300, seed=6)
    datasets, params_list = [], []
    for i, (objective, preset, k, rounds) in enumerate((
            ("mse", fsl_preset, 40, 9), ("binary-logloss", fsl_preset, 16, 12),
            ("mae", default_preset, 150, 4), ("mse", default_preset, 64, 14),
            ("binary-logloss", default_preset, 150, 6), ("mae", fsl_preset, 24, 11),
            ("mse", fsl_preset, 30, 0), ("binary-logloss", fsl_preset, 64, 12))):
        params = dataclasses.replace(preset(), objective=objective, n_rounds=rounds, seed=40 + i)
        if objective == "binary-logloss":
            ds, rows = binary, sample_k_shot(binary, k, seed=i).indices
        else:
            ds, rows = stock, np.arange(i, i + k)
        datasets.append(bin_features(ds.take(rows), params.max_bin, params.min_data_in_bin))
        params_list.append(params)
    batch = train_many(datasets, params_list)
    for bds, params, model in zip(datasets, params_list, batch):
        assert model.objective == params.objective and len(model.trees) == params.n_rounds
        assert json.dumps(model.to_dict()) == json.dumps(train(bds, params).to_dict())


def test_check_trainable_rejects_non_finite_targets():
    for bad in (np.nan, np.inf, -np.inf):
        ds = make_synthetic_binary(n_rows=40, seed=0)
        ds.target[7] = bad
        bds = bin_features(ds, 255, 3)
        for params in (Params(), Params(objective="mse")):
            with pytest.raises(ValidationError, match="finite"):
                check_trainable(bds, params)
            with pytest.raises(ValidationError, match="finite"):
                train(bds, params)
