"""Seeded input tables for the benchmark workloads.

Every table is made from the workload seed alone and written as CSV plus a
JSON schema, so the program reads it through its own parser. The binary
tables come from a known logit, which lets the checks compare a model with
the rule that generated its data.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from fewboost.synth import make_synthetic_stock


@dataclass
class Table:
    """Columns as written to CSV, with the truth the benchmark keeps."""

    header: list[str]
    kinds: dict[str, str]          # schema: column -> numeric/categorical/target
    columns: dict[str, np.ndarray]  # float for numeric and target, str for categorical
    logit: np.ndarray | None = None

    @property
    def n_rows(self) -> int:
        return len(next(iter(self.columns.values())))

    def take(self, idx) -> "Table":
        idx = np.asarray(idx)
        return Table(list(self.header), dict(self.kinds),
                     {k: v[idx] for k, v in self.columns.items()},
                     None if self.logit is None else self.logit[idx])

    def rows(self, with_target: bool = True) -> tuple[list[str], list[list[str]]]:
        header = [h for h in self.header if with_target or self.kinds[h] != "target"]
        cols = []
        for h in header:
            col = self.columns[h]
            if self.kinds[h] == "categorical":
                cols.append(list(col))
            else:
                cols.append(["" if np.isnan(v) else repr(float(v)) for v in col])
        return header, [list(r) for r in zip(*cols)]

    def write(self, csv_path, schema_path=None, with_target: bool = True) -> None:
        header, rows = self.rows(with_target)
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        if schema_path is not None:
            with open(schema_path, "w", encoding="utf-8") as fh:
                json.dump(self.kinds, fh)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def binary_table(rng: np.random.Generator, n_rows: int, n_numeric: int, n_informative: int,
                 categorical: dict[str, int], missing_rate: float = 0.0,
                 strength: float = 1.0, target: str = "target") -> Table:
    """Binary target drawn from a logistic model with a known logit.

    The first ``n_informative`` numeric columns and every categorical column
    carry signal, scaled by ``strength``; the rest are noise. Categorical levels are named
    ``<column>_<letter>`` and drawn with unequal frequencies. With
    ``missing_rate`` > 0 the last numeric and the last categorical column
    have that share of cells emptied after the logit is fixed.
    """
    header, kinds, columns = [], {}, {}
    logit = np.full(n_rows, -0.3)
    for j in range(n_numeric):
        name = f"x{j + 1:02d}"
        x = np.round(rng.standard_normal(n_rows) * 10.0 + 50.0, 2)
        if j < n_informative:
            logit += strength * rng.uniform(0.6, 1.2) * rng.choice((-1.0, 1.0)) * (x - 50.0) / 10.0
        header.append(name)
        kinds[name] = "numeric"
        columns[name] = x
    for name, n_levels in categorical.items():
        levels = np.asarray([f"{name}_{chr(97 + i)}" for i in range(n_levels)])
        weights = rng.uniform(0.5, 1.5, size=n_levels)
        codes = rng.choice(n_levels, size=n_rows, p=weights / weights.sum())
        offsets = strength * rng.normal(0.0, 0.8, size=n_levels)
        logit += offsets[codes]
        header.append(name)
        kinds[name] = "categorical"
        columns[name] = levels[codes]
    if missing_rate > 0:
        num = [h for h in header if kinds[h] == "numeric"][-1]
        cat = [h for h in header if kinds[h] == "categorical"][-1]
        columns[num] = np.where(rng.random(n_rows) < missing_rate, np.nan, columns[num])
        columns[cat] = np.where(rng.random(n_rows) < missing_rate, "", columns[cat])
    y = (rng.random(n_rows) < _sigmoid(logit)).astype(np.float64)
    header.append(target)
    kinds[target] = "target"
    columns[target] = y
    return Table(header, kinds, columns, logit)


def stock_table(n_rows: int, seed: int) -> Table:
    """The synthetic market table of ``fewboost.synth`` as CSV columns."""
    ds = make_synthetic_stock(n_rows=n_rows, seed=seed)
    header, kinds, columns = [], {}, {}
    for j, name in enumerate(ds.feature_names):
        header.append(name)
        kinds[name] = ds.kinds[j]
        if ds.kinds[j] == "categorical":
            vocab = np.asarray(ds.categories[j])
            columns[name] = vocab[ds.values[:, j].astype(np.int64)]
        else:
            columns[name] = ds.values[:, j].copy()
    header.append(ds.target_name)
    kinds[ds.target_name] = "target"
    columns[ds.target_name] = ds.target.copy()
    return Table(header, kinds, columns)
