"""Reference computations the benchmark checks fewboost against.

Nothing here imports fewboost: AUC, R^2, CSV reading and row encoding are
written apart from the program, so a fault in its code cannot hide in the
check that is meant to catch it.
"""

from __future__ import annotations

import csv
import math

import numpy as np


def auc(labels, scores) -> float:
    """Pairwise AUC: the share of (positive, negative) pairs ranked right.

    Ties count one half. The count is exact in integers, so the result is
    the correctly rounded quotient and equals any exact rank-based AUC bit
    for bit.
    """
    labels = np.asarray(labels, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    pos = np.sort(scores[labels == 1.0])
    neg = np.sort(scores[labels == 0.0])
    if pos.size == 0 or neg.size == 0:
        raise ValueError("auc needs both classes")
    # for each positive: negatives strictly below it and negatives equal to it
    below = np.searchsorted(neg, pos, side="left")
    not_above = np.searchsorted(neg, pos, side="right")
    twice_wins = int(np.sum(2 * below + (not_above - below), dtype=np.int64))
    return (twice_wins / 2) / (pos.size * neg.size)


def r2(y, yhat) -> float:
    """Coefficient of determination against the mean of ``y``."""
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    sse = math.fsum((yhat - y) ** 2)
    sst = math.fsum((y - y.mean()) ** 2)
    return 1.0 - sse / sst


def read_csv_columns(path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a CSV file, as strings."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [row for row in reader if row]
    return header, rows


def encode_rows(header, rows, columns) -> np.ndarray:
    """Encode string rows into a float matrix against a training vocabulary.

    ``columns`` lists ``(name, vocabulary)`` in model feature order, where
    ``vocabulary`` is None for a numeric column and the training category
    list for a categorical one. Empty cells and unseen categories are NaN.
    """
    pos = [header.index(name) for name, _ in columns]
    codes = [None if vocab is None else {c: float(i) for i, c in enumerate(vocab)}
             for _, vocab in columns]
    out = np.empty((len(rows), len(columns)), dtype=np.float64)
    for i, row in enumerate(rows):
        for j, (p, code) in enumerate(zip(pos, codes)):
            tok = row[p]
            if tok == "":
                out[i, j] = math.nan
            elif code is None:
                out[i, j] = float(tok)
            else:
                out[i, j] = code.get(tok, math.nan)
    return out


def read_scores(path, column: str) -> np.ndarray:
    """One float column of a CSV written by ``fewboost predict``, by row id."""
    header, rows = read_csv_columns(path)
    rid, col = header.index("row_id"), header.index(column)
    ids = np.asarray([int(r[rid]) for r in rows])
    if not np.array_equal(ids, np.arange(len(rows))):
        raise ValueError(f"{path}: row ids are not 0..n-1 in order")
    return np.asarray([float(r[col]) for r in rows], dtype=np.float64)
