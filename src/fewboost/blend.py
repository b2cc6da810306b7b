"""Non-negative linear blender for the stacked pipeline.

The blend is ``intercept + sum_j w_j * x_j`` over the level-0 predictions
with every weight ``w_j >= 0`` and a free intercept, fitted by least squares
(Breiman, "Stacked regressions", MLJ 1996). Centering the columns and the
target removes the intercept from the problem; the weights then solve a
non-negative least-squares problem, done here with the Lawson–Hanson
active-set method on the normal equations, and the intercept is what the
centering took out. The fit is closed-form and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, number, numbers


def _solve_gram(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A solution of ``g x = v`` for a small Gram matrix ``g``, by elimination.

    An unknown whose pivot falls to rounding level belongs to a column that
    depends on earlier ones; it is set to 0, which leaves a least-squares
    solution. Plain Python floats keep the result free of the BLAS and
    LAPACK build.
    """
    n = v.size
    m = [row + [rhs] for row, rhs in zip(g.tolist(), v.tolist())]
    tiny = 1e-12 * max((abs(m[i][i]) for i in range(n)), default=0.0)
    pivots = []
    for k in range(n):
        if m[k][k] <= tiny:
            continue
        pivots.append(k)
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    x = [0.0] * n
    for k in reversed(pivots):
        x[k] = (m[k][n] - sum(m[k][j] * x[j] for j in range(k + 1, n))) / m[k][k]
    return np.array(x)


def nnls(a, b) -> np.ndarray:
    """Lawson–Hanson non-negative least squares: argmin ||a x - b|| subject to x >= 0.

    Works on the normal equations ``a.T a`` and ``a.T b``, each entry summed
    by numpy's own reduction; each passive-set subproblem is solved by
    :func:`_solve_gram`, so collinear columns are handled. The outer loop
    stops after ``3 n`` steps, in case rounding keeps freeing a weight that
    falls straight back to zero.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.ndim != 2 or a.shape[0] != b.size:
        raise ValidationError(f"nnls: matrix {a.shape} does not match {b.size} targets")
    n = a.shape[1]
    cols = [a[:, j] for j in range(n)]
    ata = np.array([[(ci * cj).sum() for cj in cols] for ci in cols]).reshape(n, n)
    atb = np.array([(c * b).sum() for c in cols])
    scale = max(float(np.abs(ata).sum(axis=0).max(initial=0.0)), 1.0)
    tol = 10.0 * np.finfo(np.float64).eps * max(a.shape) * scale
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)

    def solve(mask):
        s = np.zeros(n)
        s[mask] = _solve_gram(ata[np.ix_(mask, mask)], atb[mask])
        return s

    for _ in range(3 * n):
        w = atb - (ata * x).sum(axis=1)
        if passive.all() or not (w[~passive] > tol).any():
            break
        passive[np.argmax(np.where(passive, -np.inf, w))] = True
        s = solve(passive)
        while (s[passive] <= 0).any():
            # step back towards x until the first passive weight reaches zero
            blocking = np.flatnonzero(passive & (s <= 0))
            step = x[blocking] - s[blocking]  # 0 only for a weight already at zero
            ratios = np.divide(x[blocking], step, out=np.zeros(blocking.size), where=step > 0)
            x = x + ratios.min() * (s - x)
            x[blocking[np.argmin(ratios)]] = 0.0
            passive &= x > 0
            x[~passive] = 0.0
            s = solve(passive)
        x = s
    return x


@dataclass(frozen=True)
class LinearBlender:
    """Blend ``intercept + sum_j weights[j] * x[:, j]``; every weight is non-negative."""

    weights: np.ndarray
    intercept: float

    def forward(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.weights.size:
            raise ValidationError(
                f"expected input of shape (n, {self.weights.size}), got {x.shape}")
        # columns are added in order, so a score never depends on the BLAS build
        out = np.full(x.shape[0], self.intercept)
        for j, w in enumerate(self.weights.tolist()):
            out += w * x[:, j]
        return out

    def to_dict(self) -> dict:
        return {"kind": "nnls", "weights": self.weights.tolist(),
                "intercept": float(self.intercept)}

    @classmethod
    def from_dict(cls, d: dict) -> "LinearBlender":
        """Decode :meth:`to_dict`'s form: finite numbers, and no weight below 0, as fitted."""
        if d.get("kind") != "nnls":
            raise ValidationError(f"unknown blender kind {d.get('kind')!r}")
        weights = numbers("weights", d["weights"])
        at = next((at for at, w in enumerate(weights) if w < 0), None)
        if at is not None:
            raise ValidationError(f"field 'weights' entry {at} must be >= 0, got {weights[at]!r}")
        return cls(weights=np.asarray(weights, dtype=np.float64),
                   intercept=number("intercept", d["intercept"]))


def fit_blender(meta_features, targets) -> LinearBlender:
    """Non-negative least-squares weights plus a free intercept for the meta rows."""
    x = np.asarray(meta_features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64).ravel()
    if x.ndim != 2 or x.shape[0] != y.size or y.size == 0:
        raise ValidationError(f"meta features {x.shape} do not match {y.size} targets")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValidationError("meta features and targets must be finite")
    x_mean, y_mean = x.mean(axis=0), float(y.mean())
    weights = nnls(x - x_mean, y - y_mean)
    shift = sum(m * w for m, w in zip(x_mean.tolist(), weights.tolist()))
    return LinearBlender(weights=weights, intercept=y_mean - shift)
