"""Few-shot presets and the k-shot benchmark harness.

``default_preset`` is the engine's standard configuration; ``fsl_preset``
is the few-shot regime: a leaf floor of one row so tiny training sets can
split at all, randomized thresholds, a small leaf budget, halved feature and
row sampling, and categorical restrictions lifted.

``run_benchmark`` replays the k-shot protocol: for every (preset, shot
count, seed) cell it draws a stratified train set, trains, and scores AUC on
every row not drawn. Cells are reported as mean, sd and median over seeds,
plus a per-preset average across shot counts. Every cell of the grid, of
every preset, shot count and seed, trains in one lockstep batch, so each
growth step makes one split scan for all of them; the report is the same as
training each cell alone with ``run_cell``.
"""

from __future__ import annotations

import dataclasses
import statistics
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .booster import Model, check_trainable, predict, train, train_many
from .dataset import Dataset, bin_features
from .errors import FewboostError, ValidationError
from .metrics import auc
from .params import Params


def default_preset() -> Params:
    """Standard large-sample parameters."""
    return Params()


def fsl_preset() -> Params:
    """Few-shot parameters: minimal counting restrictions, randomized splits."""
    return Params(
        extra_trees=True,
        num_leaves=4,
        eta=0.05,
        min_data_in_leaf=1,
        feature_fraction=0.5,
        bagging_fraction=0.5,
        bagging_freq=1,
        min_data_per_group=1,
        cat_l2=0.0,
        cat_smooth=0.0,
        max_cat_to_onehot=100,
        min_data_in_bin=3,
    )


@dataclass(frozen=True)
class ShotSample:
    """A stratified k-row draw: the train indices of one benchmark cell."""

    indices: np.ndarray
    k: int
    seed: int
    class_counts: dict[float, int]


def _stratified_quotas(counts: np.ndarray, k: int) -> np.ndarray:
    """Largest-remainder per-class quotas: proportional, each class >= 1."""
    n = int(counts.sum())
    exact = k * counts / n
    q = np.minimum(np.floor(exact).astype(np.int64), counts)
    while q.sum() < k:
        remainder = np.where(q < counts, exact - q, -np.inf)
        q[int(np.argmax(remainder))] += 1
    for c in np.flatnonzero(q == 0):
        donor = int(np.argmax(np.where(q > 1, q, -1)))
        assert q[donor] > 1, "quota correction needs a class with spare shots"
        q[donor] -= 1
        q[c] += 1
    return q


def sample_k_shot(ds: Dataset, k: int, seed: int) -> ShotSample:
    """Draw k rows without replacement, stratified by target class.

    Per-class quotas follow the class priors with largest-remainder
    correction, and every class receives at least one row.
    """
    if ds.target is None:
        raise ValidationError("k-shot sampling requires a target column")
    if k > ds.n_rows:
        raise ValidationError(f"k={k} exceeds the {ds.n_rows} available rows")
    classes, counts = np.unique(ds.target, return_counts=True)
    if k < len(classes):
        raise ValidationError(f"k={k} is below the number of classes ({len(classes)})")
    quotas = _stratified_quotas(counts, k)
    rng = np.random.default_rng(seed)
    picked = []
    class_counts: dict[float, int] = {}
    for cls, quota in zip(classes, quotas):
        members = np.flatnonzero(ds.target == cls)
        picked.append(rng.choice(members, size=int(quota), replace=False))
        class_counts[float(cls)] = int(quota)
    indices = np.sort(np.concatenate(picked)).astype(np.intp)
    return ShotSample(indices=indices, k=k, seed=seed, class_counts=class_counts)


@dataclass
class BenchmarkCell:
    """All per-seed results for one (preset, shot count) grid cell."""

    preset: str
    k: int
    aucs: list[float | None] = field(default_factory=list)
    failures: list[tuple[int, str]] = field(default_factory=list)

    @property
    def values(self) -> list[float]:
        return [a for a in self.aucs if a is not None]

    @property
    def mean(self) -> float | None:
        v = self.values
        return float(np.mean(v)) if v else None

    @property
    def sd(self) -> float | None:
        v = self.values
        return float(np.std(v)) if v else None

    @property
    def median(self) -> float | None:
        v = self.values
        return float(statistics.median(v)) if v else None  # np.median imports numpy.ma


@dataclass
class BenchmarkReport:
    dataset: str
    shots: list[int]
    seeds: list[int]
    presets: list[str]
    cells: dict[str, dict[int, BenchmarkCell]]

    def cell(self, preset: str, k: int) -> BenchmarkCell:
        return self.cells[preset][k]

    def average(self, preset: str) -> float | None:
        means = [self.cells[preset][k].mean for k in self.shots]
        if any(m is None for m in means):
            return None
        return float(np.mean([m for m in means if m is not None]))

    @property
    def has_failures(self) -> bool:
        return any(c.failures for row in self.cells.values() for c in row.values())

    def to_dict(self) -> dict:
        return {
            "format": "fewboost-benchmark",
            "version": 1,
            "dataset": self.dataset,
            "shots": self.shots,
            "seeds": self.seeds,
            "presets": self.presets,
            "cells": {
                preset: {
                    str(k): {
                        "aucs": cell.aucs,
                        "mean": cell.mean,
                        "sd": cell.sd,
                        "median": cell.median,
                        "failures": [{"seed": s, "error": m} for s, m in cell.failures],
                    }
                    for k, cell in row.items()
                }
                for preset, row in self.cells.items()
            },
            "average": {preset: self.average(preset) for preset in self.presets},
        }

    def to_text(self) -> str:
        """Aligned table: one row per preset, one column per shot count."""
        headers = ["Dataset", "Preset"] + [f"{k}-shot" for k in self.shots] + ["Average"]
        rows = []
        for preset in self.presets:
            cells = []
            for k in self.shots:
                m = self.cells[preset][k].mean
                cells.append("failed" if m is None else f"{m:.4f}")
            avg = self.average(preset)
            rows.append([self.dataset, preset] + cells + ["n/a" if avg is None else f"{avg:.4f}"])
        widths = [max(len(headers[i]), *(len(r[i]) for r in rows)) for i in range(len(headers))]
        lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
        for r in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
        return "\n".join(lines) + "\n"


def _shot_cell(ds: Dataset, k: int, params: Params):
    """A cell's evaluation rows and its binned k-shot sample, checked for training.

    ``params.seed`` seeds the shot draw. Raises what the cell fails on.
    """
    shot = sample_k_shot(ds, k, params.seed)
    mask = np.ones(ds.n_rows, dtype=bool)
    mask[shot.indices] = False
    eval_idx = np.flatnonzero(mask)
    if eval_idx.size == 0:
        raise ValidationError("no rows left for evaluation")
    bds = bin_features(ds.take(shot.indices), params.max_bin, params.min_data_in_bin)
    check_trainable(bds, params)
    return eval_idx, bds


def _cell_auc(ds: Dataset, eval_idx: np.ndarray, model: Model) -> float:
    return auc(ds.target[eval_idx], predict(model, ds.values[eval_idx])).value


def run_cell(ds: Dataset, k: int, seed: int, params: Params) -> float:
    """Train on a k-shot sample and return AUC on all non-sampled rows."""
    params = dataclasses.replace(params, seed=seed)
    eval_idx, bds = _shot_cell(ds, k, params)
    return _cell_auc(ds, eval_idx, train(bds, params))


def run_benchmark(ds: Dataset, shots: Sequence[int], seeds: Sequence[int],
                  presets: Mapping[str, Params]) -> BenchmarkReport:
    """Evaluate every (preset, shot count, seed) cell of the grid.

    ``presets`` maps each preset's name to its parameters, in report order.
    Cell failures (validation or undefined-metric errors) are recorded in
    the report instead of aborting the grid; a failing cell keeps the
    message :func:`run_cell` would raise. The shot sample for a given
    (k, seed) is identical across presets, so presets are compared on the
    same splits. Every cell is sampled, binned and checked first, and the
    cells that pass train together in one
    :func:`~fewboost.booster.train_many` batch, presets mixed; the report
    equals one built cell by cell with :func:`run_cell`.
    """
    if not shots:
        raise ValidationError("shots must be non-empty")
    if not seeds:
        raise ValidationError("seeds must be non-empty")
    named = list(presets.items())
    shots = [int(k) for k in shots]
    seeds = [int(s) for s in seeds]
    # (preset position, k, seed) -> (AUC, error message)
    results: dict[tuple[int, int, int], tuple[float | None, str | None]] = {}
    ready, datasets, params_list = [], [], []
    for i, (_, preset) in enumerate(named):
        for s in seeds:
            params = dataclasses.replace(preset, seed=s)
            for k in shots:
                try:
                    eval_idx, bds = _shot_cell(ds, k, params)
                except FewboostError as exc:
                    results[i, k, s] = (None, str(exc))
                    continue
                ready.append(((i, k, s), eval_idx))
                datasets.append(bds)
                params_list.append(params)
    for (key, eval_idx), model in zip(ready, train_many(datasets, params_list)):
        try:
            results[key] = (_cell_auc(ds, eval_idx, model), None)
        except FewboostError as exc:
            results[key] = (None, str(exc))
    cells = {name: {k: BenchmarkCell(preset=name, k=k) for k in shots} for name, _ in named}
    for i, (name, _) in enumerate(named):
        for k in shots:
            cell = cells[name][k]
            for s in seeds:
                value, err = results[i, k, s]
                cell.aucs.append(value)
                if err is not None:
                    cell.failures.append((s, err))
    return BenchmarkReport(
        dataset=ds.name, shots=shots, seeds=seeds,
        presets=[name for name, _ in named], cells=cells,
    )
