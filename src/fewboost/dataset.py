"""Tabular data loading and histogram binning.

A :class:`Dataset` stores one float64 matrix: numeric cells hold raw values,
categorical cells hold dense non-negative category codes, and NaN marks a
missing entry in either kind of column. :func:`bin_features` turns a dataset
into the small-integer bin representation the trainer consumes.

CSV parsing: one decoder reads both training files (:func:`load_csv`, which
codes categories by first appearance) and scoring files (:func:`encode_csv`,
which codes them against a trained model's category lists). It reads a
block of a few hundred records at a time with :mod:`csv`, transposes the
block, and converts it column by column: numeric columns through ``float``
(an empty cell is NaN), categorical ones through one dict lookup per cell.
Only a block that holds a bad row is decoded again one record at a time,
by the same code, to name the first bad row's error.

Binning contract for numeric features: greedy equal-frequency partition over
the sorted distinct values, targeting ``n // min_data_in_bin`` bins (capped at
``max_bin``). Every produced bin holds at least ``min_data_in_bin`` rows except
possibly the last one, which absorbs whatever remainder the distinct-value
granularity forces. Each feature additionally reserves one trailing bin for
missing values. Categorical features map every category code to its own bin;
categories are never merged at binning time.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import itertools
import json
import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import ParseError, SchemaError, ValidationError

NUMERIC = "numeric"
CATEGORICAL = "categorical"
SCHEMA_KINDS = {NUMERIC, CATEGORICAL, "target", "ignore"}


@dataclass
class Dataset:
    """Columnar table with a numeric target.

    ``values`` is an ``(n_rows, n_features)`` float64 matrix. Categorical
    columns hold first-appearance category codes (0, 1, ...); NaN is the
    missing marker everywhere.
    """

    feature_names: list[str]
    kinds: list[str]
    values: np.ndarray
    categories: list[list[str] | None]
    target: np.ndarray
    target_name: str = "target"
    name: str = "data"

    @property
    def n_rows(self) -> int:
        return int(self.values.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.values.shape[1])

    def take(self, indices) -> "Dataset":
        """Row subset (copy), preserving column metadata and category codes."""
        idx = np.asarray(indices, dtype=np.intp)
        return dataclasses.replace(self, values=self.values[idx], target=self.target[idx])

    def select_features(self, feature_indices: Sequence[int]) -> "Dataset":
        """Column subset (copy), keeping all rows."""
        cols = [int(j) for j in feature_indices]
        return dataclasses.replace(
            self, feature_names=[self.feature_names[j] for j in cols],
            kinds=[self.kinds[j] for j in cols], values=self.values[:, cols],
            categories=[self.categories[j] for j in cols], target=self.target.copy())


def read_json(path):
    """The parsed content of the UTF-8 JSON file ``path``.

    A file that is not UTF-8 text, not JSON, or nested deeper than the
    interpreter's recursion limit raises :class:`ParseError` naming the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: not JSON ({exc})") from None
        except RecursionError:
            raise ParseError(f"{path}: JSON nested too deeply") from None


def write_json(path, doc) -> None:
    """Write every JSON file (bundle, report, thresholds): UTF-8, 2-space indent, final newline.

    The document is encoded before the file is opened, so one that does not encode leaves no file.
    """
    try:
        text = json.dumps(doc, indent=2)
    except RecursionError:
        raise ValidationError(f"{path}: nested too deeply to write as JSON") from None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_schema(schema: Mapping[str, str] | str | os.PathLike) -> dict[str, str]:
    """A schema ``{column_name: kind}``, given as a mapping or as the path of a JSON file.

    Every kind must be one of :data:`SCHEMA_KINDS`, else :class:`SchemaError`.
    """
    raw = schema if isinstance(schema, Mapping) else read_json(schema)
    if not isinstance(raw, Mapping):
        raise SchemaError("schema must be a JSON object mapping column names to kinds")
    for col, kind in raw.items():
        if kind not in SCHEMA_KINDS:
            raise SchemaError(f"column {col!r}: unknown kind {kind!r}")
    return dict(raw)


def load_csv(path, schema: Mapping[str, str] | str | os.PathLike) -> Dataset:
    """Load an RFC-4180-style CSV with a header row and a target column into a :class:`Dataset`.

    ``schema`` maps every CSV column to one of ``numeric``, ``categorical``,
    ``target`` or ``ignore`` (see :func:`load_schema`); exactly one column
    is the target. Empty cells are missing values; categorical strings are
    encoded as dense codes in order of first appearance. A target cell must
    hold a finite number: an empty, non-numeric, ``nan`` or infinite one
    raises :class:`ParseError` naming its row and column. A malformed file
    raises the error of its first bad row: the field count, then the
    features in column order, then the target. Scoring files, which code
    categories by a trained vocabulary, are read by :func:`encode_csv`.
    """
    schema = load_schema(schema)
    target_cols = [c for c, k in schema.items() if k == "target"]
    if not target_cols:
        raise SchemaError("schema declares no target column")
    if len(target_cols) > 1:
        raise SchemaError(f"schema declares multiple target columns: {target_cols}")
    target_col = target_cols[0]

    with open_csv(path) as reader:
        header = _read_header(path, reader)

        unknown = [c for c in header if c not in schema]
        if unknown:
            raise SchemaError(f"CSV column(s) not named in schema: {unknown}")
        missing_cols = [c for c, k in schema.items() if c not in header and k != "ignore"]
        if missing_cols:
            raise SchemaError(f"schema column(s) absent from CSV: {missing_cols}")

        feat_pos = [i for i, c in enumerate(header) if schema[c] in (NUMERIC, CATEGORICAL)]
        kinds = [schema[header[i]] for i in feat_pos]
        vocabs = [{} if k == CATEGORICAL else None for k in kinds]
        values, target = _decode(path, reader, header, list(zip(feat_pos, vocabs)),
                                 header.index(target_col), grow=True)

    return Dataset(
        feature_names=[header[i] for i in feat_pos],
        kinds=kinds,
        values=values,
        categories=[None if v is None else list(v) for v in vocabs],
        target=target,
        target_name=target_col,
        name=os.path.splitext(os.path.basename(str(path)))[0],
    )


def encode_csv(path, columns: Sequence[FeatureBins | None]) -> np.ndarray:
    """Read a scoring CSV and encode it against a trained vocabulary.

    Column ``j`` of the returned matrix is the file's column named
    ``columns[j].name``: numeric cells as floats, categorical cells as their
    index in ``columns[j].categories``. Empty cells and categories absent
    from that list are NaN, whatever order the file lists them in. A None
    entry is a column nothing reads: it is all NaN and the file need not
    hold it. Other file columns, a target among them, are not read.
    """
    with open_csv(path) as reader:
        header = _read_header(path, reader)
        cols: list[tuple[int | None, dict[str, float] | None]] = []
        for fb in columns:
            if fb is None:
                cols.append((None, None))
            elif fb.name not in header:
                raise SchemaError(f"{path}: missing feature column {fb.name!r}")
            else:
                vocab = None if fb.kind == NUMERIC else {
                    c: float(i) for i, c in enumerate(fb.categories or ())}
                cols.append((header.index(fb.name), vocab))
        values, _ = _decode(path, reader, header, cols, None, grow=False)
    return values


# CSV records decoded per block. A block's cells are Python strings, about
# 60 bytes each, so this bounds the transient memory of a load.
_CHUNK_ROWS = 256


@contextlib.contextmanager
def open_csv(path) -> Iterator:
    """A :mod:`csv` reader over the UTF-8 file ``path``, closed on exit.

    A file that is not UTF-8 text, or a field longer than
    ``csv.field_size_limit()``, raises :class:`ParseError` naming the file.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            yield reader
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:
            raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None


def _read_header(path, reader) -> list[str]:
    """The header row; a column named twice raises SchemaError, as no reader can pick one."""
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(f"{path}: file is empty, header row required") from None
    if len(set(header)) < len(header):
        repeated = sorted({c for c in header if header.count(c) > 1})
        raise SchemaError(f"{path}: CSV column name(s) repeated in the header: {repeated}")
    return header


def _decode(path, reader, header, columns, target_pos, *, grow):
    """Decode the records after the header, one block of records at a time.

    ``columns`` gives each output column's header position (None: absent,
    all NaN) and its vocabulary (None: numeric; else category -> code).
    With ``grow``, a category not in the vocabulary is added to it with the
    next code; without, it decodes to NaN. Returns the value matrix and the
    target column (None without ``target_pos``). A block that fails is
    decoded again one record at a time, and the first bad record's fault
    raises :class:`ParseError` naming its row.
    """
    blocks, targets = [], []
    row_no = 2  # file row number of the block's first record
    while records := list(itertools.islice(reader, _CHUNK_ROWS)):
        rows = records if all(records) else [r for r in records if r]
        if rows:
            try:
                block, target = _decode_block(rows, header, columns, target_pos, grow)
            except ValueError:
                for row_no, row in enumerate(records, start=row_no):
                    if row:
                        try:
                            _decode_block([row], header, columns, target_pos, grow)
                        except ValueError as exc:
                            raise ParseError(f"{path}: row {row_no}{exc}") from None
                raise
            blocks.append(block)
            targets.append(target)
        row_no += len(records)
    values = np.concatenate(blocks) if blocks else np.empty((0, len(columns)))
    if target_pos is None:
        return values, None
    return values, np.concatenate(targets) if targets else np.empty(0)


def _decode_block(rows, header, columns, target_pos, grow):
    """One block, column by column; ValueError if any row in it is bad.

    The error's message names the fault of a one-record block, after its row
    number: the field count, else the first bad feature cell in ``columns``
    order, else the target cell.
    """
    n, first = len(rows), rows[0]
    if set(map(len, rows)) != {len(header)}:
        raise ValueError(f": expected {len(header)} fields, got {len(first)}")
    cells = list(zip(*rows))
    out = np.empty((n, len(columns)))
    for j, (pos, vocab) in enumerate(columns):
        if pos is None:
            out[:, j] = np.nan
            continue
        col = cells[pos]
        if vocab is None:
            if "" in col:
                col = [tok or "nan" for tok in col]
            try:
                out[:, j] = np.fromiter(map(float, col), np.float64, n)
            except ValueError:
                raise ValueError(f", column {header[pos]!r}: non-numeric token {first[pos]!r}")
            continue
        if grow:
            for tok in dict.fromkeys(col):
                if tok and tok not in vocab:
                    vocab[tok] = float(len(vocab))
        out[:, j] = np.fromiter(map(vocab.get, col, itertools.repeat(math.nan, n)),
                                np.float64, n)
    if target_pos is None:
        return out, None
    tok = first[target_pos]
    try:
        target = np.fromiter(map(float, cells[target_pos]), np.float64, n)
    except ValueError:
        raise ValueError(f", column {header[target_pos]!r}: non-numeric token {tok!r}"
                         if tok else ": missing target value")
    if not np.isfinite(target).all():
        raise ValueError(f", column {header[target_pos]!r}: non-finite target {tok!r}")
    return out, target


def write_csv(ds: Dataset, path) -> None:
    """Write a dataset back out as CSV (missing values become empty cells)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(ds.feature_names) + [ds.target_name])
        for i in range(ds.n_rows):
            row = []
            for j in range(ds.n_features):
                v = ds.values[i, j]
                if math.isnan(v):
                    row.append("")
                elif ds.kinds[j] == CATEGORICAL:
                    row.append(ds.categories[j][int(v)])
                else:
                    row.append(repr(float(v)))
            writer.writerow(row + [repr(float(ds.target[i]))])


def schema_for(ds: Dataset) -> dict[str, str]:
    """Schema mapping that round-trips ``write_csv`` output through ``load_csv``."""
    schema = {name: kind for name, kind in zip(ds.feature_names, ds.kinds)}
    schema[ds.target_name] = "target"
    return schema


@dataclass(frozen=True)
class FeatureBins:
    """Per-feature binning rule.

    Numeric: ``edges`` are strictly increasing thresholds placed at midpoints
    between adjacent distinct values; bin ``i`` covers the half-open interval
    ``(edges[i-1], edges[i]]``. Categorical: code ``c`` maps to bin ``c``.
    The index ``n_real_bins`` is reserved for missing values.
    """

    name: str
    kind: str
    n_real_bins: int
    edges: np.ndarray | None = None
    categories: tuple[str, ...] | None = None

    @property
    def missing_bin(self) -> int:
        return self.n_real_bins

    @property
    def n_bins(self) -> int:
        return self.n_real_bins + 1

    def bin_values(self, col: np.ndarray) -> np.ndarray:
        """Map one column of raw values to bin indices."""
        col = np.asarray(col, dtype=np.float64)
        out = np.full(col.shape, self.missing_bin, dtype=np.uint32)
        ok = ~np.isnan(col)
        if self.kind == NUMERIC:
            edges = self.edges if self.edges is not None else np.empty(0)
            out[ok] = np.searchsorted(edges, col[ok], side="left").astype(np.uint32)
        else:
            codes = col[ok].astype(np.int64)
            valid = (codes >= 0) & (codes < self.n_real_bins)
            binned = np.where(valid, codes, self.missing_bin).astype(np.uint32)
            out[ok] = binned
        return out


@dataclass
class BinnedDataset:
    """Histogram-binned encoding of a dataset; immutable after construction."""

    mapper: list[FeatureBins]
    bins: np.ndarray  # (n_rows, n_features) uint32
    target: np.ndarray | None

    @property
    def n_rows(self) -> int:
        return int(self.bins.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.bins.shape[1])

    @cached_property
    def scan_fields(self) -> np.ndarray:
        """Each feature's missing-value bin and categorical flag: a (2, n_features) array.

        The split scan reads these per sampled feature; they are computed on
        first use and kept for the dataset's lifetime.
        """
        return np.array([[fb.missing_bin for fb in self.mapper],
                         [fb.kind == CATEGORICAL for fb in self.mapper]],
                        dtype=np.intp).reshape(2, len(self.mapper))


def _numeric_bin_groups(counts: np.ndarray, max_bin: int, min_data_in_bin: int) -> list[int]:
    """Greedy equal-frequency grouping of distinct-value counts.

    Returns the end index (exclusive, into the distinct-value array) of each
    bin. Targets ``n // min_data_in_bin`` bins capped at ``max_bin``; all bins
    except possibly the last hold >= min_data_in_bin rows.
    """
    n = int(counts.sum())
    m = len(counts)
    n_target = max(1, min(max_bin, n // min_data_in_bin))
    ends: list[int] = []
    i = 0
    remaining = n
    b = 0
    while i < m and b < n_target:
        bins_left = n_target - b
        if bins_left == 1:
            taken = remaining
            i = m
        else:
            target = max(min_data_in_bin, remaining // bins_left)
            taken = 0
            while i < m and taken < target:
                taken += int(counts[i])
                i += 1
        ends.append(i)
        remaining -= taken
        b += 1
    return ends


def _bin_numeric_feature(col: np.ndarray, max_bin: int, min_data_in_bin: int) -> np.ndarray:
    """Compute bin edges for one numeric column (NaN-aware)."""
    finite = col[~np.isnan(col)]
    if finite.size == 0:
        return np.empty(0, dtype=np.float64)
    distinct, counts = np.unique(finite, return_counts=True)
    ends = _numeric_bin_groups(counts, max_bin, min_data_in_bin)
    # Midpoint between the last value of a bin and the first value of the
    # next. For values so close that the midpoint rounds up to the higher
    # one, fall back to the lower value itself: assignment is "v <= edge
    # goes left", so that still separates the two unambiguously.
    edges = []
    for e in ends[:-1]:
        lo, hi = distinct[e - 1], distinct[e]
        mid = 0.5 * (lo + hi)
        edges.append(mid if mid < hi else lo)
    return np.asarray(edges, dtype=np.float64)


def bin_features(ds: Dataset, max_bin: int, min_data_in_bin: int) -> BinnedDataset:
    """Bin every feature of ``ds``; deterministic for identical inputs."""
    if max_bin < 2:
        raise ValidationError("max_bin must be >= 2")
    if min_data_in_bin < 1:
        raise ValidationError("min_data_in_bin must be >= 1")
    mapper: list[FeatureBins] = []
    for j in range(ds.n_features):
        if ds.kinds[j] == NUMERIC:
            edges = _bin_numeric_feature(ds.values[:, j], max_bin, min_data_in_bin)
            fb = FeatureBins(
                name=ds.feature_names[j], kind=NUMERIC,
                n_real_bins=len(edges) + 1, edges=edges,
            )
        else:
            cats = tuple(ds.categories[j] or ())
            fb = FeatureBins(
                name=ds.feature_names[j], kind=CATEGORICAL,
                n_real_bins=max(1, len(cats)), categories=cats,
            )
        mapper.append(fb)
    return BinnedDataset(mapper=mapper, bins=bin_matrix(mapper, ds.values), target=ds.target.copy())


def bin_matrix(mapper: Sequence[FeatureBins], rows: np.ndarray) -> np.ndarray:
    """Route a raw-value matrix through stored binning rules."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != len(mapper):
        raise ValidationError(
            f"expected a 2-d matrix with {len(mapper)} feature columns, got shape {rows.shape}"
        )
    if len(mapper) == 0:
        return np.empty((rows.shape[0], 0), dtype=np.uint32)
    return np.column_stack([fb.bin_values(rows[:, j]) for j, fb in enumerate(mapper)])
