import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewboost.dataset import (bin_features, load_csv, load_schema, schema_for,
                              write_csv)
from fewboost.errors import ParseError, SchemaError, ValidationError
from fewboost.synth import make_synthetic_binary


def _write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


SCHEMA3 = {"age": "numeric", "job": "categorical", "y": "target"}


def test_load_csv_basic(tmp_path):
    path = _write(tmp_path, "age,job,y\n31,teacher,1\n44,clerk,0\n27,teacher,1\n")
    ds = load_csv(path, SCHEMA3)
    assert ds.n_rows == 3
    assert ds.n_features == 2
    assert ds.feature_names == ["age", "job"]
    assert np.array_equal(ds.target, [1.0, 0.0, 1.0])


def test_load_csv_empty_numeric_cell_is_missing_not_zero(tmp_path):
    path = _write(tmp_path, "age,job,y\n,teacher,1\n44,clerk,0\n")
    ds = load_csv(path, SCHEMA3)
    assert np.isnan(ds.values[0, 0])
    assert ds.values[1, 0] == 44.0


def test_load_csv_first_appearance_codes(tmp_path):
    path = _write(tmp_path, "age,job,y\n1,b,0\n2,a,0\n3,b,1\n")
    ds = load_csv(path, SCHEMA3)
    assert list(ds.values[:, 1]) == [0.0, 1.0, 0.0]
    assert ds.categories[1] == ["b", "a"]


def test_load_csv_empty_categorical_cell_is_missing(tmp_path):
    path = _write(tmp_path, "age,job,y\n1,,0\n2,a,1\n")
    ds = load_csv(path, SCHEMA3)
    assert np.isnan(ds.values[0, 1])
    assert ds.categories[1] == ["a"]


def test_load_csv_non_numeric_token_raises_with_location(tmp_path):
    path = _write(tmp_path, "age,job,y\n31,teacher,1\noops,clerk,0\n")
    with pytest.raises(ParseError, match=r"row 3.*'age'"):
        load_csv(path, SCHEMA3)


@pytest.mark.parametrize("token", ["nan", "NaN", "inf", "-inf", "Infinity"])
def test_load_csv_non_finite_target_raises_with_location(tmp_path, token):
    path = _write(tmp_path, f"age,job,y\n31,teacher,1\n44,clerk,0\n27,clerk,{token}\n")
    with pytest.raises(ParseError) as info:
        load_csv(path, SCHEMA3)
    assert str(info.value) == f"{path}: row 4, column 'y': non-finite target {token!r}"


def test_load_csv_ragged_row_raises(tmp_path):
    path = _write(tmp_path, "age,job,y\n31,teacher,1\n44,clerk\n")
    with pytest.raises(ParseError, match="row 3"):
        load_csv(path, SCHEMA3)


def test_load_csv_no_target_in_schema_raises(tmp_path):
    path = _write(tmp_path, "age,job,y\n31,teacher,1\n")
    with pytest.raises(SchemaError):
        load_csv(path, {"age": "numeric", "job": "categorical", "y": "ignore"})


def test_load_csv_unknown_column_raises(tmp_path):
    path = _write(tmp_path, "age,job,extra,y\n31,teacher,x,1\n")
    with pytest.raises(SchemaError, match="extra"):
        load_csv(path, SCHEMA3)


def test_load_csv_ignore_columns_skipped(tmp_path):
    path = _write(tmp_path, "age,id,y\n31,a1,1\n40,a2,0\n")
    ds = load_csv(path, {"age": "numeric", "id": "ignore", "y": "target"})
    assert ds.feature_names == ["age"]


def test_load_schema_rejects_unknown_kind(tmp_path):
    p = tmp_path / "schema.json"
    p.write_text(json.dumps({"a": "float"}), encoding="utf-8")
    with pytest.raises(SchemaError):
        load_schema(p)


def test_csv_round_trip(tmp_path):
    ds = make_synthetic_binary(n_rows=40, seed=3)
    path = tmp_path / "round.csv"
    write_csv(ds, path)
    again = load_csv(path, schema_for(ds))
    assert np.array_equal(again.values, ds.values)
    assert np.array_equal(again.target, ds.target)


# --- binning -------------------------------------------------------------


def _numeric_ds(values):
    from fewboost.dataset import Dataset

    arr = np.asarray(values, dtype=float).reshape(-1, 1)
    return Dataset(["x"], ["numeric"], arr, [None], np.zeros(len(arr)), "y", "t")


def test_bin_equal_frequency_forced():
    bds = bin_features(_numeric_ds([1, 2, 3, 4, 5, 6]), max_bin=3, min_data_in_bin=2)
    fb = bds.mapper[0]
    assert fb.n_real_bins == 3
    assert list(bds.bins[:, 0]) == [0, 0, 1, 1, 2, 2]


def test_bin_constant_column_single_bin():
    bds = bin_features(_numeric_ds([7, 7, 7, 7]), max_bin=255, min_data_in_bin=3)
    assert bds.mapper[0].n_real_bins == 1
    assert len(bds.mapper[0].edges) == 0


def test_bin_count_matches_reference_partitioner():
    # reference equal-frequency partitioner: floor(n / min_data_in_bin)
    # chunks of the sorted values, each chunk holding >= min_data_in_bin rows
    values = np.arange(1, 101, dtype=float)
    expected_bins = len(values) // 3
    chunks = np.array_split(np.sort(values), expected_bins)
    assert all(len(c) >= 3 for c in chunks)
    assert expected_bins == 33

    bds = bin_features(_numeric_ds(values), max_bin=255, min_data_in_bin=3)
    fb = bds.mapper[0]
    assert fb.n_real_bins == expected_bins
    counts = np.bincount(bds.bins[:, 0], minlength=fb.n_bins)
    assert counts[fb.missing_bin] == 0
    assert counts[: fb.n_real_bins].min() >= 3


def test_bin_max_bin_cap():
    bds = bin_features(_numeric_ds(np.arange(100.0)), max_bin=10, min_data_in_bin=1)
    assert bds.mapper[0].n_real_bins <= 10


def test_bin_missing_values_routed_to_missing_bin():
    bds = bin_features(_numeric_ds([1.0, np.nan, 3.0, np.nan]), max_bin=8, min_data_in_bin=1)
    fb = bds.mapper[0]
    assert bds.bins[1, 0] == fb.missing_bin
    assert bds.bins[3, 0] == fb.missing_bin


def test_bin_categorical_one_bin_per_code():
    from fewboost.dataset import Dataset

    values = np.array([[0.0], [1.0], [0.0], [2.0]])
    ds = Dataset(["c"], ["categorical"], values, [["x", "y", "z"]],
                 np.zeros(4), "y", "t")
    bds = bin_features(ds, max_bin=255, min_data_in_bin=3)
    fb = bds.mapper[0]
    assert fb.n_real_bins == 3
    assert list(bds.bins[:, 0]) == [0, 1, 0, 2]


def test_bin_preconditions():
    ds = _numeric_ds([1, 2, 3])
    with pytest.raises(ValidationError):
        bin_features(ds, max_bin=1, min_data_in_bin=1)
    with pytest.raises(ValidationError):
        bin_features(ds, max_bin=8, min_data_in_bin=0)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_bin_round_trip_and_population(data):
    n = data.draw(st.integers(1, 60))
    values = np.array(data.draw(st.lists(
        st.one_of(st.floats(-100, 100), st.just(np.nan)),
        min_size=n, max_size=n)))
    mdib = data.draw(st.integers(1, 5))
    max_bin = data.draw(st.integers(2, 32))
    bds = bin_features(_numeric_ds(values), max_bin=max_bin, min_data_in_bin=mdib)
    fb = bds.mapper[0]
    edges = fb.edges
    assert np.all(np.diff(edges) > 0)
    assert fb.n_real_bins <= max_bin

    bins = bds.bins[:, 0]
    for v, b in zip(values, bins):
        if np.isnan(v):
            assert b == fb.missing_bin
            continue
        lo = -np.inf if b == 0 else edges[b - 1]
        hi = np.inf if b >= len(edges) else edges[b]
        assert lo < v <= hi

    counts = np.bincount(bins[~np.isnan(values)].astype(int), minlength=fb.n_bins)
    populated = np.flatnonzero(counts[: fb.n_real_bins] > 0)
    if populated.size > 1:
        # all populated bins except the last hold >= min_data_in_bin rows
        assert counts[populated[:-1]].min() >= mdib


def test_bin_determinism(tmp_path):
    ds = make_synthetic_binary(n_rows=60, seed=9)
    path = tmp_path / "d.csv"
    write_csv(ds, path)
    a = load_csv(path, schema_for(ds))
    b = load_csv(path, schema_for(ds))
    ba = bin_features(a, 255, 3)
    bb = bin_features(b, 255, 3)
    assert np.array_equal(ba.bins, bb.bins)
    for fa, fb_ in zip(ba.mapper, bb.mapper):
        assert np.array_equal(fa.edges, fb_.edges)


def test_take_and_select_features():
    ds = make_synthetic_binary(n_rows=30, seed=2)
    sub = ds.take([3, 5, 7]).select_features([1, 4])
    assert sub.n_rows == 3 and sub.n_features == 2
    assert sub.feature_names == [ds.feature_names[1], ds.feature_names[4]]
    assert np.array_equal(sub.values[:, 0], ds.values[[3, 5, 7], 1])
