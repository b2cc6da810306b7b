"""The chunked, column-wise CSV decoder against the frozen row-by-row loader.

``tests/reference_csv.py`` is the loader the decoder replaced. The
properties below write random files (numeric, categorical, ``ignore`` and
target columns; empty cells; ``nan``/``inf`` tokens; quoted commas and
newlines; blank lines; non-ASCII categories) and demand equal datasets from
both, or the same error class and message. The decoder's block size is
patched down to 1, 2 and 3 records so that every case crosses block
boundaries: categories that first appear in a later block, and a first bad
row that sits in a later block behind a good one.
"""

import csv
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_csv
from fewboost import dataset
from fewboost.dataset import FeatureBins, encode_csv, load_csv
from fewboost.errors import ParseError, SchemaError

CHUNKS = [1, 2, 3, dataset._CHUNK_ROWS]

NUMERIC_TOKENS = ["", "0", "-0", "1.5", "-2", "1e3", " 7 ", "nan", "NaN", "-nan", "inf",
                  "-Infinity", "3.25", "1_000"]
CATEGORY_TOKENS = ["", "a", "b", "c", "é", "日本", "x,y", "two\nlines", 'say "hi"', " a",
                   "Ωmega"]
TARGET_TOKENS = ["0", "1", "-3.5", "2e-3", "0.1", " 4 "]
KINDS = ["numeric", "categorical", "ignore"]
BAD_ROWS = ["ragged-short", "ragged-long", "numeric", "target-empty", "target-text",
            "target-nan", "target-inf"]


def _token(kind):
    if kind == "numeric":
        return st.one_of(st.sampled_from(NUMERIC_TOKENS),
                         st.floats(allow_nan=False).map(repr))
    if kind == "categorical":
        return st.one_of(st.sampled_from(CATEGORY_TOKENS),
                         st.text(alphabet="abé日,\n\"", min_size=1, max_size=3))
    if kind == "target":
        return st.one_of(st.sampled_from(TARGET_TOKENS),
                         st.floats(allow_nan=False, allow_infinity=False).map(repr))
    return st.text(st.characters(exclude_categories=("Cs",)), max_size=4)


@st.composite
def tables(draw):
    """(header, schema, rows with None for a blank line)."""
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=0, max_size=6))
    kinds.insert(draw(st.integers(0, len(kinds))), "target")
    header = [f"col{i}" if i % 3 else f"cöl {i}" for i in range(len(kinds))]
    schema = dict(zip(header, kinds))
    n_rows = draw(st.integers(0, 9))
    rows = []
    for _ in range(n_rows):
        if draw(st.integers(0, 5)) == 0:
            rows.append(None)
        rows.append([draw(_token(kind)) for kind in kinds])
    return header, schema, rows


def _write(directory, header, rows):
    path = os.path.join(directory, "data.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        for row in rows:
            writer.writerow([] if row is None else row)
    return path


def _outcome(load, path, schema):
    try:
        return load(path, schema), None
    except Exception as exc:  # the class and message are what is compared
        return None, (type(exc), str(exc))


def _assert_same_dataset(got, want):
    assert got.feature_names == want.feature_names
    assert got.kinds == want.kinds
    assert got.categories == want.categories
    assert got.target_name == want.target_name and got.name == want.name
    assert got.values.shape == want.values.shape and got.values.dtype == np.float64
    nan = np.isnan(want.values)
    assert np.array_equal(np.isnan(got.values), nan)
    assert np.where(nan, 0.0, got.values).tobytes() == np.where(nan, 0.0, want.values).tobytes()
    if want.target is None:
        assert got.target is None
    else:
        assert got.target.dtype == np.float64 and got.target.tobytes() == want.target.tobytes()


def _compare(path, schema, chunk):
    with mock.patch.object(dataset, "_CHUNK_ROWS", chunk):
        got, got_error = _outcome(load_csv, path, schema)
    want, want_error = _outcome(reference_csv.load_csv, path, schema)
    assert got_error == want_error
    if want is not None:
        _assert_same_dataset(got, want)
    return want_error


@given(table=tables(), chunk=st.sampled_from(CHUNKS))
@settings(max_examples=300, deadline=None)
def test_load_csv_matches_the_row_by_row_loader(table, chunk):
    header, schema, rows = table
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(tmp, header, rows)
        error = _compare(path, schema, chunk)
    assert error is None


def _corrupt(row, header, schema, how):
    row = list(row)
    numeric = [i for i, c in enumerate(header) if schema[c] == "numeric"]
    t = header.index(next(c for c, k in schema.items() if k == "target"))
    if how == "ragged-short" and len(row) > 1:
        row.pop()
    elif how.startswith("ragged"):
        row.append("1")
    elif how == "numeric" and numeric:
        row[numeric[-1]] = "abc"
    elif how == "target-empty":
        row[t] = ""
    elif how == "target-text":
        row[t] = "one"
    elif how == "target-nan":
        row[t] = "nan"
    else:
        row[t] = "-inf"
    return row


@given(table=tables(), chunk=st.sampled_from(CHUNKS), data=st.data())
@settings(max_examples=300, deadline=None)
def test_malformed_rows_raise_what_the_row_by_row_loader_raises(table, chunk, data):
    header, schema, rows = table
    body = [i for i, r in enumerate(rows) if r is not None]
    if not body:
        rows, body = rows + [["1"] * len(header)], [len(rows)]
    # one or two bad rows, the later ones drawn more often, in any block
    bad = st.sampled_from(body[len(body) // 2:] + body)
    for i in data.draw(st.lists(bad, min_size=1, max_size=2, unique=True)):
        rows[i] = _corrupt(rows[i], header, schema, data.draw(st.sampled_from(BAD_ROWS)))
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(tmp, header, rows)
        error = _compare(path, schema, chunk)
    assert error is not None and error[0] is ParseError


@given(table=tables(), chunk=st.sampled_from(CHUNKS),
       how=st.sampled_from(["empty", "unknown", "absent", "absent-target"]))
@settings(max_examples=60, deadline=None)
def test_malformed_files_raise_what_the_row_by_row_loader_raises(table, chunk, how):
    header, schema, rows = table
    schema = dict(schema)
    if how == "empty":
        header, rows = None, []
    elif how == "unknown":
        header = header + ["stray"]
        rows = [None if r is None else r + ["x"] for r in rows]
    elif how == "absent":
        schema["gone"] = "numeric"
    else:
        t = header.index(next(c for c, k in schema.items() if k == "target"))
        header = header[:t] + header[t + 1:]
        rows = [None if r is None else r[:t] + r[t + 1:] for r in rows]
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(tmp, header, rows)
        error = _compare(path, schema, chunk)
    assert error is not None
    assert error[0] is (ParseError if how == "empty" else SchemaError)


def test_the_first_bad_row_is_named_across_blocks(tmp_path):
    rows = [[str(i), "a", "1"] for i in range(7)]
    rows[5][2] = "nan"   # later block, target
    rows[4] = ["4", "b"]  # earlier row, ragged
    path = _write(str(tmp_path), ["x", "c", "y"], rows)
    schema = {"x": "numeric", "c": "categorical", "y": "target"}
    for chunk in (1, 2, 3, 5):
        with mock.patch.object(dataset, "_CHUNK_ROWS", chunk):
            with pytest.raises(ParseError) as info:
                load_csv(path, schema)
        assert str(info.value) == f"{path}: row 6: expected 3 fields, got 2"


def test_categories_first_seen_in_a_later_block_get_the_next_code(tmp_path):
    path = _write(str(tmp_path), ["c", "y"],
                  [["b", "0"], ["", "1"], None, ["a", "0"], ["b", "1"], ["é", "0"]])
    with mock.patch.object(dataset, "_CHUNK_ROWS", 2):
        ds = load_csv(path, {"c": "categorical", "y": "target"})
    assert ds.categories == [["b", "a", "é"]]
    assert np.array_equal(ds.values[:, 0], [0.0, np.nan, 1.0, 0.0, 2.0], equal_nan=True)


# --- scoring files against a trained vocabulary --------------------------


def _columns():
    return [FeatureBins("x", "numeric", 2, edges=np.array([0.5])),
            None,
            FeatureBins("c", "categorical", 3, categories=("a", "b", "é"))]


@pytest.mark.parametrize("chunk", CHUNKS)
def test_encode_csv_codes_by_the_trained_vocabulary(tmp_path, chunk):
    path = _write(str(tmp_path), ["c", "extra", "x"],
                  [["é", "q", "1.5"], ["new", "q", ""], None, ["", "q", "nan"], ["a", "q", "-2"]])
    with mock.patch.object(dataset, "_CHUNK_ROWS", chunk):
        x = encode_csv(path, _columns())
    want = np.array([[1.5, np.nan, 2.0], [np.nan, np.nan, np.nan], [np.nan, np.nan, np.nan],
                     [-2.0, np.nan, 0.0]])
    assert np.array_equal(x, want, equal_nan=True)


@pytest.mark.parametrize("rows, message", [
    ([["a", "1"], ["b"]], "row 3: expected 2 fields, got 1"),
    ([["a", "1"], ["b", "two"]], "row 3, column 'x': non-numeric token 'two'"),
])
def test_encode_csv_names_the_first_bad_row(tmp_path, rows, message):
    path = _write(str(tmp_path), ["c", "x"], rows)
    with mock.patch.object(dataset, "_CHUNK_ROWS", 1):
        with pytest.raises(ParseError) as info:
            encode_csv(path, _columns())
    assert str(info.value) == f"{path}: {message}"


def test_encode_csv_needs_every_read_column(tmp_path):
    path = _write(str(tmp_path), ["x"], [["1"]])
    with pytest.raises(SchemaError, match="missing feature column 'c'"):
        encode_csv(path, _columns())
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(ParseError, match="file is empty"):
        encode_csv(empty, _columns())


def test_a_header_that_repeats_a_column_name_is_a_schema_error(tmp_path):
    # load_csv kept both columns of a name and encode_csv read the first one
    # twice, so a model trained on the second scored it from the first
    path = _write(str(tmp_path), ["x", "c", "x", "y", "c"], [["1", "a", "2", "0", "b"]])
    message = r"data\.csv: CSV column name\(s\) repeated in the header: \['c', 'x'\]$"
    with pytest.raises(SchemaError, match=message):
        load_csv(path, {"x": "numeric", "c": "categorical", "y": "target"})
    with pytest.raises(SchemaError, match=message):
        encode_csv(path, _columns())


def test_encode_csv_of_a_header_only_file_has_no_rows(tmp_path):
    path = _write(str(tmp_path), ["x", "c"], [])
    x = encode_csv(path, _columns())
    assert x.shape == (0, 3) and x.dtype == np.float64
