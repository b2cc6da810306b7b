import csv
import json

import numpy as np
import pytest

from fewboost.cli import main
from fewboost.dataset import schema_for, write_csv
from fewboost.synth import make_synthetic_binary, make_synthetic_stock


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
    ("1,abc", "non-numeric score 'abc'"),
    ("1,nan", "non-finite score 'nan'"),
    ("1", "expected 2 fields, got 1"),
])
def test_calibrate_rejects_malformed_score_without_output(tmp_path, capsys, row, problem):
    scores = tmp_path / "scores.csv"
    scores.write_text(f"row_id,score\n0,0.5\n{row}\n2,0.7\n", encoding="utf-8")
    out = tmp_path / "t.json"
    code = main(["calibrate", "--data", str(scores),
                 "--target-dist", "0.25,0.5,0.25", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {scores}: row 3: {problem}\n"
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
