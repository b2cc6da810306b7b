"""Evaluation metrics: AUC with midrank tie handling, MAE, MSE, R2."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UndefinedMetricError, ValidationError


@dataclass(frozen=True)
class MetricValue:
    name: str
    value: float
    n: int

    def __float__(self) -> float:
        return self.value


def _pair(a, b, metric: str) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValidationError(f"{metric}: length mismatch {a.shape} vs {b.shape}")
    if a.size == 0:
        raise ValidationError(f"{metric}: empty input")
    return a, b


def _midranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with tied values sharing the mean of their rank range."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    cum = np.cumsum(counts)
    group_rank = cum - (counts - 1) / 2.0
    return group_rank[inverse]


def auc(labels, scores) -> MetricValue:
    """Probability a random positive outranks a random negative, ties at 1/2.

    Computed rank-based (Mann-Whitney with midranks), so constant scores give
    exactly 0.5.
    """
    labels, scores = _pair(labels, scores, "auc")
    # no bare np.unique here: it imports numpy.ma (about 1 MB) on first use
    if not np.all((labels == 0.0) | (labels == 1.0)):
        uniq = np.unique(labels, return_counts=True)[0]
        raise ValidationError(f"auc: labels must be binary 0/1, got values {uniq}")
    pos = labels == 1.0
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("auc: both classes must be present")
    ranks = _midranks(scores)
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return MetricValue("auc", float(u / (n_pos * n_neg)), labels.size)


def mae(y, yhat) -> MetricValue:
    y, yhat = _pair(y, yhat, "mae")
    return MetricValue("mae", float(np.mean(np.abs(yhat - y))), y.size)


def mse(y, yhat) -> MetricValue:
    y, yhat = _pair(y, yhat, "mse")
    return MetricValue("mse", float(np.mean((yhat - y) ** 2)), y.size)


def r2(y, yhat) -> MetricValue:
    y, yhat = _pair(y, yhat, "r2")
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst == 0.0:
        raise UndefinedMetricError("r2: target is constant")
    sse = float(np.sum((yhat - y) ** 2))
    return MetricValue("r2", 1.0 - sse / sst, y.size)
