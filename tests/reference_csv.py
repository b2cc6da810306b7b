"""Frozen row-by-row CSV loader: the oracle for ``fewboost.dataset.load_csv``.

This is the plain loader that the chunked, column-wise decoder replaced:
every cell of every row goes through its own Python branch, so the codes,
values and error messages are easy to read off. It shares no parsing code
with the library (only the ``Dataset`` container, the schema reader and the
error classes), so a property test can demand that both give equal datasets
and raise the same error for the same malformed file.
"""

from __future__ import annotations

import csv
import math
import os
from typing import Mapping

import numpy as np

from fewboost.dataset import CATEGORICAL, NUMERIC, SCHEMA_KINDS, Dataset, load_schema
from fewboost.errors import ParseError, SchemaError


def load_csv(path, schema, *, require_target: bool = True, name: str | None = None) -> Dataset:
    """Load a CSV with a header row; categorical codes by first appearance."""
    if not isinstance(schema, Mapping):
        schema = load_schema(schema)
    for col, kind in schema.items():
        if kind not in SCHEMA_KINDS:
            raise SchemaError(f"column {col!r}: unknown kind {kind!r}")

    target_cols = [c for c, k in schema.items() if k == "target"]
    if require_target and not target_cols:
        raise SchemaError("schema declares no target column")
    if len(target_cols) > 1:
        raise SchemaError(f"schema declares multiple target columns: {target_cols}")
    target_col = target_cols[0] if target_cols else None

    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: file is empty, header row required") from None

        unknown = [c for c in header if c not in schema]
        if unknown:
            raise SchemaError(f"CSV column(s) not named in schema: {unknown}")
        missing_cols = [c for c, k in schema.items() if c not in header and k != "ignore"]
        if target_col is not None and target_col in missing_cols and not require_target:
            missing_cols.remove(target_col)
        if missing_cols:
            raise SchemaError(f"schema column(s) absent from CSV: {missing_cols}")

        feat_pos = [i for i, c in enumerate(header) if schema[c] in (NUMERIC, CATEGORICAL)]
        feature_names = [header[i] for i in feat_pos]
        kinds = [schema[header[i]] for i in feat_pos]
        target_pos = header.index(target_col) if (target_col is not None and target_col in header) else None

        code_maps: list[dict[str, int] | None] = [
            {} if k == CATEGORICAL else None for k in kinds
        ]
        rows: list[list[float]] = []
        targets: list[float] = []
        n_fields = len(header)
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != n_fields:
                raise ParseError(f"{path}: row {row_no}: expected {n_fields} fields, got {len(row)}")
            out = []
            for j, pos in enumerate(feat_pos):
                tok = row[pos]
                if tok == "":
                    out.append(math.nan)
                elif kinds[j] == NUMERIC:
                    try:
                        out.append(float(tok))
                    except ValueError:
                        raise ParseError(
                            f"{path}: row {row_no}, column {header[pos]!r}: "
                            f"non-numeric token {tok!r}"
                        ) from None
                else:
                    codes = code_maps[j]
                    assert codes is not None
                    out.append(float(codes.setdefault(tok, len(codes))))
            rows.append(out)
            if target_pos is not None:
                tok = row[target_pos]
                if tok == "":
                    raise ParseError(f"{path}: row {row_no}: missing target value")
                try:
                    value = float(tok)
                except ValueError:
                    raise ParseError(
                        f"{path}: row {row_no}, column {target_col!r}: "
                        f"non-numeric token {tok!r}"
                    ) from None
                if not math.isfinite(value):
                    raise ParseError(
                        f"{path}: row {row_no}, column {target_col!r}: "
                        f"non-finite target {tok!r}"
                    )
                targets.append(value)

    values = np.asarray(rows, dtype=np.float64).reshape(len(rows), len(feat_pos))
    categories = [
        None if cm is None else [s for s, _ in sorted(cm.items(), key=lambda kv: kv[1])]
        for cm in code_maps
    ]
    return Dataset(
        feature_names=feature_names,
        kinds=kinds,
        values=values,
        categories=categories,
        target=np.asarray(targets, dtype=np.float64) if target_pos is not None else None,
        target_name=target_col if target_col is not None else "target",
        name=name if name is not None else os.path.splitext(os.path.basename(str(path)))[0],
    )
