"""Small dense regression network trained with full-batch adam.

The blender architecture is fixed at two ReLU hidden layers of 10 and 5
units feeding a single linear output. Training minimizes MSE, checkpoints
the weights with the best validation R2 after each epoch, and stops at the
epoch cap or after 8 epochs without improvement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UndefinedMetricError, ValidationError
from .metrics import r2

HIDDEN_SIZES = (10, 5)
ADAM_LR = 1e-3
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
PATIENCE = 8


@dataclass
class MLP:
    """Weights/biases per layer; ReLU on hidden layers, identity output."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def layer_sizes(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.weights[0].shape[0]:
            raise ValidationError(
                f"expected input of shape (n, {self.weights[0].shape[0]}), got {x.shape}"
            )
        h = x
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = np.maximum(h @ w + b, 0.0)
        return (h @ self.weights[-1] + self.biases[-1]).ravel()

    def loss_and_grads(self, x: np.ndarray, y: np.ndarray):
        """Mean squared error and its gradients w.r.t. every weight/bias."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        n = y.size
        pre: list[np.ndarray] = []
        acts: list[np.ndarray] = [x]
        h = x
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            z = h @ w + b
            pre.append(z)
            h = np.maximum(z, 0.0)
            acts.append(h)
        pred = (h @ self.weights[-1] + self.biases[-1]).ravel()
        loss = float(np.mean((pred - y) ** 2))

        delta = (2.0 / n) * (pred - y)[:, None]
        grads_w: list[np.ndarray] = [np.empty(0)] * len(self.weights)
        grads_b: list[np.ndarray] = [np.empty(0)] * len(self.biases)
        for layer in range(len(self.weights) - 1, -1, -1):
            grads_w[layer] = acts[layer].T @ delta
            grads_b[layer] = delta.sum(axis=0)
            if layer > 0:
                delta = (delta @ self.weights[layer].T) * (pre[layer - 1] > 0.0)
        return loss, grads_w, grads_b

    def copy(self) -> "MLP":
        return MLP([w.copy() for w in self.weights], [b.copy() for b in self.biases])

    def to_dict(self) -> dict:
        return {
            "layer_sizes": self.layer_sizes,
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MLP":
        """Decode :meth:`to_dict`'s form: ValidationError unless the layers chain to one output.

        Each weight matrix takes the previous layer's width, each bias
        matches its layer, the last layer has one output, and every entry is finite.
        """
        weights = [np.asarray(w, dtype=np.float64) for w in d["weights"]]
        biases = [np.asarray(b, dtype=np.float64) for b in d["biases"]]
        if not weights or len(weights) != len(biases):
            raise ValidationError(f"needs one bias vector per weight matrix, at least one, "
                                  f"got {len(weights)} and {len(biases)}")
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.ndim != 2:
                raise ValidationError(f"layer {i}: weights must be a matrix, got shape {w.shape}")
            rows = weights[i - 1].shape[1] if i else w.shape[0]
            cols = 1 if i == len(weights) - 1 else w.shape[1]
            if w.shape != (rows, cols) or b.shape != (cols,):
                raise ValidationError(f"layer {i}: weights must have shape {(rows, cols)} and "
                                      f"biases {(cols,)}, got {w.shape} and {b.shape}")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValidationError(f"layer {i}: weights and biases must be finite numbers")
        return cls(weights=weights, biases=biases)


def init_mlp(input_dim: int, hidden=HIDDEN_SIZES, rng: np.random.Generator | None = None,
             zero_output: bool = False) -> MLP:
    """He-initialized network; ``zero_output`` zeroes the final layer so the
    initial prediction is exactly the output bias."""
    rng = rng if rng is not None else np.random.default_rng(0)
    sizes = [int(input_dim), *hidden, 1]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    if zero_output:
        weights[-1][:] = 0.0
    return MLP(weights=weights, biases=biases)


def _fold_standardizer(mlp: MLP, mean: np.ndarray, sd: np.ndarray) -> MLP:
    # absorb (x - mean) / sd into the first layer so the net takes raw inputs
    out = mlp.copy()
    out.biases[0] = out.biases[0] - (mean / sd) @ out.weights[0]
    out.weights[0] = out.weights[0] / sd[:, None]
    return out


def train_mlp(meta_features, targets, val_fraction: float = 0.10, max_epochs: int = 64,
              seed: int = 0) -> tuple[MLP, list[float]]:
    """Fit the blender with full-batch adam and R2-based early stopping.

    Returns the best-validation-R2 network and the per-epoch validation R2
    history. Inputs are standardized internally (folded back into the first
    layer), and the output layer starts at zero weights with the mean target
    as bias, so epoch one already matches the constant predictor.
    """
    x = np.asarray(meta_features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64).ravel()
    if x.ndim != 2 or x.shape[0] != y.size:
        raise ValidationError(f"meta features {x.shape} do not match {y.size} targets")
    n = y.size
    if n < 20:
        raise ValidationError(f"need at least 20 meta rows, got {n}")
    if np.ptp(y) == 0.0:
        raise UndefinedMetricError("targets are constant, validation R2 is undefined")

    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_val = max(1, int(round(val_fraction * n)))
    val_idx, train_idx = perm[:n_val], perm[n_val:]

    mean = x[train_idx].mean(axis=0)
    sd = x[train_idx].std(axis=0)
    sd = np.where(sd < 1e-12, 1.0, sd)
    xs = (x - mean) / sd
    x_train, y_train = xs[train_idx], y[train_idx]
    x_val, y_val = xs[val_idx], y[val_idx]

    mlp = init_mlp(x.shape[1], rng=rng, zero_output=True)
    mlp.biases[-1][:] = y_train.mean()

    ms_w = [np.zeros_like(w) for w in mlp.weights]
    vs_w = [np.zeros_like(w) for w in mlp.weights]
    ms_b = [np.zeros_like(b) for b in mlp.biases]
    vs_b = [np.zeros_like(b) for b in mlp.biases]

    best_r2 = -np.inf
    best = mlp.copy()
    bad_epochs = 0
    history: list[float] = []
    for t in range(1, max_epochs + 1):
        _, gw, gb = mlp.loss_and_grads(x_train, y_train)
        c1 = 1.0 - ADAM_BETA1 ** t
        c2 = 1.0 - ADAM_BETA2 ** t
        for params, grads, ms, vs in (
            (mlp.weights, gw, ms_w, vs_w),
            (mlp.biases, gb, ms_b, vs_b),
        ):
            for p, g, m, v in zip(params, grads, ms, vs):
                m *= ADAM_BETA1
                m += (1.0 - ADAM_BETA1) * g
                v *= ADAM_BETA2
                v += (1.0 - ADAM_BETA2) * g * g
                p -= ADAM_LR * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        val_r2 = r2(y_val, mlp.forward(x_val)).value
        history.append(val_r2)
        if val_r2 > best_r2:
            best_r2 = val_r2
            best = mlp.copy()
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= PATIENCE:
                break
    return _fold_standardizer(best, mean, sd), history
