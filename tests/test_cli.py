import csv
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewboost.cli import main
from fewboost.dataset import schema_for, write_csv
from fewboost.synth import make_synthetic_binary, make_synthetic_stock

from helpers import corrupt_bundle


@pytest.fixture()
def binary_csv(tmp_path):
    ds = make_synthetic_binary(n_rows=120, seed=0)
    data = tmp_path / "bin.csv"
    schema = tmp_path / "bin.schema.json"
    write_csv(ds, data)
    schema.write_text(json.dumps(schema_for(ds)), encoding="utf-8")
    return data, schema


@pytest.fixture()
def stock_csv(tmp_path):
    ds = make_synthetic_stock(n_rows=260, seed=0)
    data = tmp_path / "stock.csv"
    schema = tmp_path / "stock.schema.json"
    write_csv(ds, data)
    schema.write_text(json.dumps(schema_for(ds)), encoding="utf-8")
    return data, schema


def test_bench_writes_report_and_table(tmp_path, binary_csv, capsys):
    data, schema = binary_csv
    out = tmp_path / "report.json"
    code = main(["bench", "--data", str(data), "--schema", str(schema),
                 "--preset", "default", "--shots", "4,8", "--seeds", "2",
                 "--seed", "0", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["cells"]["default"]["4"]["mean"] == 0.5
    assert report["cells"]["default"]["8"]["mean"] == 0.5
    table = (tmp_path / "report.txt").read_text(encoding="utf-8")
    assert "4-shot" in table and "Average" in table
    assert "0.5000" in capsys.readouterr().out


def test_bench_missing_schema_fails_without_output(tmp_path, binary_csv):
    data, _ = binary_csv
    out = tmp_path / "report.json"
    code = main(["bench", "--data", str(data), "--schema", str(tmp_path / "nope.json"),
                 "--shots", "4", "--seeds", "1", "--out", str(out)])
    assert code == 1
    assert not out.exists()


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_bench_without_seeds_fails_without_output(tmp_path, binary_csv, capsys, seeds):
    data, schema = binary_csv
    out = tmp_path / "report.json"
    code = main(["bench", "--data", str(data), "--schema", str(schema),
                 "--shots", "8", "--seeds", seeds, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: seeds must be non-empty")
    assert not out.exists() and not (tmp_path / "report.txt").exists()


def test_bench_with_a_repeated_shot_count_fails_without_output(tmp_path, binary_csv, capsys):
    data, schema = binary_csv
    out = tmp_path / "report.json"
    code = main(["bench", "--data", str(data), "--schema", str(schema),
                 "--shots", "8,8", "--seeds", "1", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error: shots must not repeat a value, got 8 more than once\n"
    assert not out.exists() and not (tmp_path / "report.txt").exists()


def test_bench_partial_failure_exit_code(tmp_path, binary_csv):
    data, schema = binary_csv
    out = tmp_path / "report.json"
    # 200 shots exceed the 120 rows: every cell of that column fails
    code = main(["bench", "--data", str(data), "--schema", str(schema),
                 "--preset", "fsl", "--shots", "8,200", "--seeds", "1",
                 "--out", str(out)])
    assert code == 2
    assert out.exists()


def test_train_predict_round_trip(tmp_path, binary_csv):
    data, schema = binary_csv
    model_path = tmp_path / "model.json"
    assert main(["train", "--data", str(data), "--schema", str(schema),
                 "--preset", "fsl", "--seed", "3", "--out", str(model_path)]) == 0

    preds = tmp_path / "preds.csv"
    assert main(["predict", "--model", str(model_path), "--data", str(data),
                 "--out", str(preds)]) == 0
    lines = preds.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "row_id,score"
    assert len(lines) == 121

    # scores written from the file equal in-memory predictions bit-exactly
    from fewboost.booster import load_model, predict
    from fewboost.dataset import load_csv

    model = load_model(model_path)
    ds = load_csv(data, json.loads(schema.read_text(encoding="utf-8")))
    expected = predict(model, ds.values)
    got = np.array([float(line.split(",")[1]) for line in lines[1:]])
    assert np.array_equal(got, expected)


def test_predict_rejects_bundle_without_features(tmp_path, binary_csv, capsys):
    data, schema = binary_csv
    model_path = tmp_path / "model.json"
    assert main(["train", "--data", str(data), "--schema", str(schema),
                 "--preset", "fsl", "--seed", "3", "--out", str(model_path)]) == 0
    doc = json.loads(model_path.read_text(encoding="utf-8"))
    del doc["features"]
    model_path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    preds = tmp_path / "preds.csv"
    assert main(["predict", "--model", str(model_path), "--data", str(data),
                 "--out", str(preds)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "features" in err
    assert not preds.exists()


def test_train_deterministic_output_bytes(tmp_path, binary_csv):
    data, schema = binary_csv
    out1 = tmp_path / "m1.json"
    out2 = tmp_path / "m2.json"
    for out in (out1, out2):
        assert main(["train", "--data", str(data), "--schema", str(schema),
                     "--preset", "fsl", "--seed", "9", "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_params_file_overrides(tmp_path, binary_csv):
    data, schema = binary_csv
    params_file = tmp_path / "params.json"
    params_file.write_text(json.dumps({"n_rounds": 3, "min_data_in_leaf": 1}),
                           encoding="utf-8")
    model_path = tmp_path / "model.json"
    assert main(["train", "--data", str(data), "--schema", str(schema),
                 "--preset", "file", "--params", str(params_file),
                 "--out", str(model_path)]) == 0
    doc = json.loads(model_path.read_text(encoding="utf-8"))
    assert doc["params"]["n_rounds"] == 3
    assert len(doc["trees"]) == 3


def test_params_file_unknown_key_fails(tmp_path, binary_csv):
    data, schema = binary_csv
    params_file = tmp_path / "params.json"
    params_file.write_text(json.dumps({"not_a_knob": 1}), encoding="utf-8")
    assert main(["train", "--data", str(data), "--schema", str(schema),
                 "--preset", "file", "--params", str(params_file),
                 "--out", str(tmp_path / "m.json")]) == 1


def test_stack_and_pipeline_predict(tmp_path, stock_csv):
    data, schema = stock_csv
    bundle = tmp_path / "pipeline.json"
    code = main(["stack", "--data", str(data), "--schema", str(schema),
                 "--preset", "fsl", "--k-per-model", "40", "--seed", "0",
                 "--target-dist", "0.25,0.5,0.25", "--out", str(bundle)])
    assert code == 0
    doc = json.loads(bundle.read_text(encoding="utf-8"))
    assert doc["format"] == "fewboost-pipeline"
    assert len(doc["level0"]) == 5

    preds = tmp_path / "actions.csv"
    assert main(["predict", "--model", str(bundle), "--data", str(data),
                 "--schema", str(schema), "--out", str(preds)]) == 0
    lines = preds.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "row_id,blended_score,action"
    actions = {int(line.split(",")[2]) for line in lines[1:]}
    assert actions.issubset({-1, 0, 1})


def test_stack_capacity_error(tmp_path, stock_csv):
    data, schema = stock_csv
    code = main(["stack", "--data", str(data), "--schema", str(schema),
                 "--k-per-model", "100", "--out", str(tmp_path / "p.json")])
    assert code == 1  # 5 * 100 > 260 rows


def test_calibrate_command(tmp_path):
    scores = tmp_path / "scores.csv"
    scores.write_text("row_id,score\n" + "\n".join(f"{i},{i}" for i in range(100)) + "\n",
                      encoding="utf-8")
    out = tmp_path / "thresholds.json"
    assert main(["calibrate", "--data", str(scores),
                 "--target-dist", "0.25,0.5,0.25", "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert 24.0 < doc["t_low"] < 25.0
    assert 74.0 < doc["t_high"] < 75.0


def test_calibrate_rejects_bad_distribution(tmp_path):
    scores = tmp_path / "scores.csv"
    scores.write_text("score\n1\n2\n3\n", encoding="utf-8")
    code = main(["calibrate", "--data", str(scores),
                 "--target-dist", "0.4,0.4,0.1", "--out", str(tmp_path / "t.json")])
    assert code == 1


@pytest.mark.parametrize("row, problem", [
    ("1,abc", "row 3, column 'score': non-numeric token 'abc'"),
    ("1,nan", "row 3, column 'score': non-finite target 'nan'"),
    ("1", "row 3: expected 2 fields, got 1"),
])
def test_calibrate_rejects_malformed_score_without_output(tmp_path, capsys, row, problem):
    # the scores are read by the shared CSV decoder, so its messages are the ones reported
    scores = tmp_path / "scores.csv"
    scores.write_text(f"row_id,score\n0,0.5\n{row}\n2,0.7\n", encoding="utf-8")
    out = tmp_path / "t.json"
    code = main(["calibrate", "--data", str(scores),
                 "--target-dist", "0.25,0.5,0.25", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {scores}: {problem}\n"
    assert not out.exists()


def test_stack_defaults_to_the_few_shot_preset(tmp_path, stock_csv):
    data, schema = stock_csv
    bundles = []
    for preset in ([], ["--preset", "fsl"]):
        out = tmp_path / f"pipeline{len(bundles)}.json"
        assert main(["stack", "--data", str(data), "--schema", str(schema), *preset,
                     "--k-per-model", "40", "--seed", "0", "--out", str(out)]) == 0
        bundles.append(out.read_bytes())
    assert bundles[0] == bundles[1]


@pytest.mark.parametrize("overrides, field", [
    ({"num_leaves": "4"}, "num_leaves"),
    ({"extra_trees": 1}, "extra_trees"),
    ({"eta": True}, "eta"),
    ({"cat_l2": None}, "cat_l2"),
])
def test_params_file_with_a_wrong_type_fails_without_output(tmp_path, binary_csv, capsys,
                                                            overrides, field):
    data, schema = binary_csv
    params_file = tmp_path / "params.json"
    params_file.write_text(json.dumps(overrides), encoding="utf-8")
    out = tmp_path / "m.json"
    assert main(["train", "--data", str(data), "--schema", str(schema),
                 "--preset", "file", "--params", str(params_file), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {field} must be ")
    assert not out.exists()


@pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
def test_stack_rejects_a_non_finite_target_without_output(tmp_path, stock_csv, capsys, token):
    data, schema = stock_csv
    target = next(c for c, kind in json.loads(schema.read_text(encoding="utf-8")).items()
                  if kind == "target")
    with open(data, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    rows[7][rows[0].index(target)] = token  # file row 8
    with open(data, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)
    out = tmp_path / "pipeline.json"
    assert main(["stack", "--data", str(data), "--schema", str(schema),
                 "--k-per-model", "40", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {data}: row 8, column {target!r}: non-finite target {token!r}\n")
    assert not out.exists()


# --- scoring against the training vocabulary -----------------------------


@pytest.fixture(scope="module")
def scoring_bundles(tmp_path_factory):
    """A model and a pipeline trained on one stock table, and its in-memory scores."""
    from fewboost.booster import predict, save_model, train
    from fewboost.dataset import bin_features
    from fewboost.fsl import fsl_preset
    from fewboost.stacking import fit_stacking, make_default_zoo, save_pipeline

    tmp = tmp_path_factory.mktemp("scoring")
    ds = make_synthetic_stock(n_rows=300, seed=4)
    params = dataclasses.replace(fsl_preset(), objective="mse", n_rounds=20)
    model = train(bin_features(ds, params.max_bin, params.min_data_in_bin), params)
    pipeline = fit_stacking(ds, make_default_zoo(ds, 40, seed=0),
                            {"sell": 0.25, "hold": 0.5, "buy": 0.25}, seed=0)
    # the scoring file's category order can only matter if a model splits on it
    assert any(fit.model.mapper[nd.feature].kind == "categorical"
               for fit in pipeline.fits for t in fit.model.trees for nd in t.internal_nodes())
    save_model(model, tmp / "model.json")
    save_pipeline(pipeline, tmp / "pipeline.json")
    return {"ds": ds, "dir": tmp,
            "model": (tmp / "model.json", "score", predict(model, ds.values)),
            "pipeline": (tmp / "pipeline.json", "blended_score", pipeline.predict_score(ds.values))}


def _write_rows(ds, rows, cols, path):
    """Rows ``rows`` of ``ds`` as CSV, its feature columns in the order ``cols``."""
    write_csv(ds.take(rows), path)
    with open(path, encoding="utf-8", newline="") as fh:
        table = list(csv.reader(fh))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([row[j] for j in cols] for row in table)


def _scores(path, column):
    with open(path, encoding="utf-8", newline="") as fh:
        table = list(csv.reader(fh))
    return np.array([float(row[table[0].index(column)]) for row in table[1:]])


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=8, deadline=None)
def test_scores_do_not_depend_on_the_scoring_files_row_order(scoring_bundles, seed):
    """Mapped back by row, scores are the training-vocabulary scores."""
    ds, tmp = scoring_bundles["ds"], scoring_bundles["dir"]
    rng = np.random.default_rng(seed)
    order = rng.permutation(ds.n_rows)
    _write_rows(ds, order, rng.permutation(ds.n_features + 1), tmp / "rows.csv")
    for kind in ("model", "pipeline"):
        bundle, column, want = scoring_bundles[kind]
        out = tmp / f"{kind}-scores.csv"
        assert main(["predict", "--model", str(bundle), "--data", str(tmp / "rows.csv"),
                     "--out", str(out)]) == 0
        got = np.empty(ds.n_rows)
        got[order] = _scores(out, column)
        assert np.array_equal(got, want), kind


def test_pipeline_predict_without_schema_uses_the_training_vocabulary(tmp_path, scoring_bundles):
    ds = scoring_bundles["ds"]
    bundle, _, want = scoring_bundles["pipeline"]
    rows = np.arange(ds.n_rows)[::-1]
    _write_rows(ds, rows, range(ds.n_features + 1), tmp_path / "rows.csv")
    out = tmp_path / "actions.csv"
    assert main(["predict", "--model", str(bundle), "--data", str(tmp_path / "rows.csv"),
                 "--out", str(out)]) == 0
    assert np.array_equal(_scores(out, "blended_score"), want[rows])
    from fewboost.stacking import load_pipeline

    actions = load_pipeline(bundle).thresholds.apply(want[rows])
    assert np.array_equal(_scores(out, "action"), actions)


@pytest.mark.parametrize("kind", ["model", "pipeline"])
def test_predict_without_a_needed_column_fails_without_output(tmp_path, scoring_bundles,
                                                              capsys, kind):
    ds = scoring_bundles["ds"]
    bundle = scoring_bundles[kind][0]
    keep = [j for j, name in enumerate(ds.feature_names) if name != "Group"]
    _write_rows(ds, np.arange(10), keep, tmp_path / "rows.csv")
    out = tmp_path / "scores.csv"
    assert main(["predict", "--model", str(bundle), "--data", str(tmp_path / "rows.csv"),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {tmp_path / 'rows.csv'}: missing feature column 'Group'\n"
    assert not out.exists()


def test_predict_rejects_a_pipeline_whose_models_disagree_on_a_column(tmp_path, scoring_bundles,
                                                                      capsys):
    ds = scoring_bundles["ds"]
    doc = json.loads(scoring_bundles["pipeline"][0].read_text(encoding="utf-8"))
    entry = next(e for e in doc["level0"][1:] if ds.n_features - 1 in e["feature_set"])
    feature = entry["model"]["features"][entry["feature_set"].index(ds.n_features - 1)]
    feature["categories"] = feature["categories"][::-1]
    bundle = tmp_path / "pipeline.json"
    bundle.write_text(json.dumps(doc), encoding="utf-8")
    write_csv(ds, tmp_path / "rows.csv")
    out = tmp_path / "scores.csv"
    assert main(["predict", "--model", str(bundle), "--data", str(tmp_path / "rows.csv"),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {bundle}: level-0 models disagree on the name, kind or categories of input "
        f"column {ds.n_features - 1} ('Group')\n")
    assert not out.exists()


# --- CSV faults end in one error line -----------------------------------------


def _corrupt(text: str, fault: str) -> bytes:
    """``text`` as bytes that are not UTF-8, or with a first field over the csv field limit."""
    if fault == "not-utf8":
        return b"\xff\xfe" + text.encode("utf-8")
    header, first, rest = text.split("\n", 2)
    return f"{header}\n{'x' * 200_000}{first[first.index(','):]}\n{rest}".encode("utf-8")


@pytest.mark.parametrize("fault, problem", [
    ("not-utf8", "not UTF-8 text (invalid start byte)"),
    ("long-field", f"line 2: field larger than field limit ({csv.field_size_limit()})"),
])
@pytest.mark.parametrize("command", ["train", "bench", "stack", "predict", "calibrate"])
def test_a_malformed_csv_fails_with_one_error_line_and_no_output(tmp_path, binary_csv, capsys,
                                                                 command, fault, problem):
    data, schema = binary_csv
    out = tmp_path / "out.json"
    args = ["--schema", str(schema), "--out", str(out)]
    if command == "predict":
        model = tmp_path / "model.json"
        assert main(["train", "--data", str(data), *args[:2], "--out", str(model)]) == 0
        args = ["--model", str(model), "--out", str(out)]
    elif command == "calibrate":
        data = tmp_path / "scores.csv"
        data.write_text("row_id,score\n0,0.5\n1,0.7\n", encoding="utf-8")
        args = ["--target-dist", "0.25,0.5,0.25", "--out", str(out)]
    bad = tmp_path / "bad.csv"
    bad.write_bytes(_corrupt(data.read_text(encoding="utf-8"), fault))
    capsys.readouterr()
    assert main([command, "--data", str(bad), *args]) == 1
    assert capsys.readouterr().err == f"error: {bad}: {problem}\n"
    assert not out.exists() and not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("command", ["train", "predict"])
def test_a_csv_that_repeats_a_column_name_fails_with_one_error_line_and_no_output(
        tmp_path, binary_csv, capsys, command):
    # a second x0 column (x1's values) was trained on as its own feature and
    # scored from the first x0 column
    data, schema = binary_csv
    out = tmp_path / "out.json"
    with open(data, encoding="utf-8", newline="") as fh:
        rows = [row + [row[1]] for row in csv.reader(fh)]
    rows[0][-1] = "x0"
    bad = tmp_path / "bad.csv"
    with open(bad, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)
    args = ["--schema", str(schema), "--out", str(out)]
    if command == "predict":
        model = tmp_path / "model.json"
        assert main(["train", "--data", str(data), *args[:2], "--out", str(model)]) == 0
        args = ["--model", str(model), "--out", str(out)]
    capsys.readouterr()
    assert main([command, "--data", str(bad), *args]) == 1
    assert capsys.readouterr().err == (f"error: {bad}: CSV column name(s) repeated in the "
                                       f"header: ['x0']\n")
    assert not out.exists()


# --- JSON and bundle faults end in one error line ------------------------------


@pytest.mark.parametrize("command", ["train --schema", "train --params", "predict --model"])
def test_a_json_file_that_is_not_utf8_fails_with_one_error_line_and_no_output(
        tmp_path, binary_csv, capsys, command):
    data, schema = binary_csv
    out = tmp_path / "out.json"
    bad = tmp_path / "bad.json"
    if command == "train --schema":
        good = schema
        args = ["train", "--data", str(data), "--schema", str(bad)]
    elif command == "train --params":
        good = tmp_path / "params.json"
        good.write_text(json.dumps({"n_rounds": 3}), encoding="utf-8")
        args = ["train", "--data", str(data), "--schema", str(schema), "--preset", "file",
                "--params", str(bad)]
    else:
        good = tmp_path / "model.json"
        assert main(["train", "--data", str(data), "--schema", str(schema),
                     "--out", str(good)]) == 0
        args = ["predict", "--data", str(data), "--model", str(bad)]
    bad.write_bytes(b"\xff\xfe" + good.read_bytes())
    capsys.readouterr()
    assert main([*args, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: not UTF-8 text (invalid start byte)\n"
    assert not out.exists()


@pytest.mark.parametrize("fault, message", [
    ("feature", "tree 0: split feature 99 is not one of the model's 6 features"),
    ("leaf", "leaf value must be a finite number, got nan"),
])
def test_predict_with_a_malformed_bundle_fails_with_one_error_line_and_no_output(
        tmp_path, binary_csv, capsys, fault, message):
    data, schema = binary_csv
    model = tmp_path / "model.json"
    assert main(["train", "--data", str(data), "--schema", str(schema), "--preset", "fsl",
                 "--out", str(model)]) == 0
    doc = corrupt_bundle(json.loads(model.read_text(encoding="utf-8")), fault)
    model.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "scores.csv"
    capsys.readouterr()
    assert main(["predict", "--model", str(model), "--data", str(data), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert not out.exists()


@pytest.mark.parametrize("kind, fault, message", [
    ("model", "count-nan", "field 'count' must be an integer, got nan"),
    ("model", "count-missing", "missing field 'count'"),
    ("pipeline", "level0", "missing field 'level0'"),
])
def test_predict_names_the_bundle_file_when_it_does_not_decode(tmp_path, scoring_bundles, capsys,
                                                               kind, fault, message):
    ds = scoring_bundles["ds"]
    doc = json.loads(scoring_bundles[kind][0].read_text(encoding="utf-8"))
    if kind == "model":
        doc = corrupt_bundle(doc, fault)
    else:
        del doc[fault]
    bundle = tmp_path / f"{kind}.json"
    bundle.write_text(json.dumps(doc), encoding="utf-8")
    write_csv(ds, tmp_path / "rows.csv")
    out = tmp_path / "scores.csv"
    capsys.readouterr()
    assert main(["predict", "--model", str(bundle), "--data", str(tmp_path / "rows.csv"),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bundle}: ") and err.count("\n") == 1 and message in err
    assert not out.exists()
