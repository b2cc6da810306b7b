import numpy as np
import pytest

from fewboost.errors import UndefinedMetricError, ValidationError
from fewboost.metrics import r2
from fewboost.mlp import init_mlp, train_mlp

from helpers import finite_diff_grads, max_relative_error


def test_layer_sizes_fixed_architecture():
    mlp = init_mlp(5)
    assert mlp.layer_sizes == [5, 10, 5, 1]


def test_zero_weights_forward_returns_output_bias():
    mlp = init_mlp(4)
    for w in mlp.weights:
        w[:] = 0.0
    mlp.biases[-1][:] = 3.25
    x = np.random.default_rng(0).standard_normal((7, 4))
    assert np.allclose(mlp.forward(x), 3.25)


def test_forward_shape_validation():
    mlp = init_mlp(3)
    with pytest.raises(ValidationError):
        mlp.forward(np.zeros((5, 4)))


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    worst = 0.0
    for trial in range(5):
        d = int(rng.integers(2, 9))
        mlp = init_mlp(d, rng=rng)
        x = rng.standard_normal((12, d))
        y = rng.standard_normal(12)
        _, gw, gb = mlp.loss_and_grads(x, y)
        fw, fbias = finite_diff_grads(mlp, x, y)
        worst = max(worst,
                    max_relative_error(gw, fw),
                    max_relative_error(gb, fbias))
    assert worst < 1e-4


def test_train_mlp_requires_enough_rows():
    with pytest.raises(ValidationError):
        train_mlp(np.zeros((10, 2)), np.arange(10.0))


def test_train_mlp_rejects_constant_targets():
    with pytest.raises(UndefinedMetricError):
        train_mlp(np.random.default_rng(0).standard_normal((30, 2)), np.ones(30))


def test_train_mlp_learns_linear_blend():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((200, 3))
    y = 2.0 * x[:, 0] - 1.0 * x[:, 1] + 0.05 * rng.standard_normal(200)
    mlp, history = train_mlp(x, y, seed=0)
    assert 1 <= len(history) <= 64
    pred = mlp.forward(x)
    # better than the constant predictor
    assert np.mean((pred - y) ** 2) < np.var(y)


def test_best_checkpoint_at_least_first_epoch():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((100, 4))
    y = x[:, 0] + 0.1 * rng.standard_normal(100)
    mlp, history = train_mlp(x, y, seed=1)
    # recompute validation split exactly as train_mlp does
    val_rng = np.random.default_rng(1)
    perm = val_rng.permutation(100)
    n_val = max(1, int(round(0.10 * 100)))
    val_idx = perm[:n_val]
    final_r2 = r2(y[val_idx], mlp.forward(x[val_idx])).value
    assert final_r2 >= history[0] - 1e-12
    assert final_r2 == pytest.approx(max(history), abs=1e-12)


def test_early_stopping_at_patience():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((50, 2))
    y = rng.standard_normal(50)  # pure noise: no sustained improvement
    _, history = train_mlp(x, y, seed=2)
    assert len(history) <= 64


def test_epoch_cap():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((300, 3))
    y = x[:, 0] - x[:, 1]
    _, history = train_mlp(x, y, max_epochs=64, seed=3)
    assert len(history) <= 64
