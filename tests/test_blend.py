import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewboost.blend import LinearBlender, fit_blender, nnls
from fewboost.errors import ValidationError
from fewboost.stacking import fit_stacking, make_default_zoo
from fewboost.synth import make_synthetic_stock


def _brute_force_nnls(a, b):
    """The least residual over every support whose least-squares solution is non-negative."""
    n = a.shape[1]
    best = np.linalg.norm(b)  # the empty support: x = 0
    for k in range(1, n + 1):
        for support in itertools.combinations(range(n), k):
            cols = list(support)
            x = np.linalg.lstsq(a[:, cols], b, rcond=None)[0]
            if (x >= 0).all():
                best = min(best, np.linalg.norm(a[:, cols] @ x - b))
    return best


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_nnls_reaches_the_brute_force_optimum(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 30)), int(rng.integers(1, 6))
    a = rng.standard_normal((m, n)) * float(rng.choice([1e-3, 1.0, 1e3]))
    if n > 1 and rng.random() < 0.3:
        a[:, 1] = 2.0 * a[:, 0]  # collinear columns
    b = rng.standard_normal(m)
    x = nnls(a, b)
    assert x.shape == (n,) and (x >= 0).all()
    residual = np.linalg.norm(a @ x - b)
    assert residual <= _brute_force_nnls(a, b) * (1 + 1e-9) + 1e-9


def test_nnls_kkt_conditions():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((200, 5))
    b = a @ np.array([1.0, -2.0, 0.5, 0.0, -0.1]) + 0.1 * rng.standard_normal(200)
    x = nnls(a, b)
    grad = a.T @ (b - a @ x)  # minus half the residual gradient
    assert np.all(grad[x == 0] <= 1e-9)
    assert np.allclose(grad[x > 0], 0.0, atol=1e-9)
    assert x[1] == 0 and x[0] > 0 and x[2] > 0


def test_nnls_rejects_mismatched_shapes():
    with pytest.raises(ValidationError):
        nnls(np.zeros((4, 2)), np.zeros(5))


def test_fit_blender_is_ols_with_intercept_when_weights_are_positive():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((300, 3))
    y = 2.0 + x @ np.array([0.5, 1.5, 0.25]) + 0.01 * rng.standard_normal(300)
    blender = fit_blender(x, y)
    design = np.column_stack([np.ones(300), x])
    ols = np.linalg.lstsq(design, y, rcond=None)[0]
    assert blender.intercept == pytest.approx(ols[0], abs=1e-10)
    assert np.allclose(blender.weights, ols[1:], atol=1e-10)


def test_fit_blender_clamps_negative_weights_and_centres_the_intercept():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((400, 2))
    y = 1.0 + x[:, 0] - x[:, 1]
    blender = fit_blender(x, y)
    assert blender.weights[1] == 0.0 and blender.weights[0] > 0
    # a free intercept: the blend's mean equals the target mean
    assert blender.forward(x).mean() == pytest.approx(y.mean(), abs=1e-12)


def test_fit_blender_constant_target_gives_the_mean():
    x = np.random.default_rng(2).standard_normal((50, 4))
    blender = fit_blender(x, np.full(50, 0.3))
    assert np.all(blender.weights == 0.0)
    assert np.allclose(blender.forward(x), 0.3)


@pytest.mark.parametrize("x, y", [(np.zeros((5, 2)), np.zeros(4)),
                                  (np.zeros((0, 2)), np.zeros(0)),
                                  (np.array([[1.0, np.nan]]), np.zeros(1)),
                                  (np.zeros((2, 2)), np.array([0.0, np.inf]))])
def test_fit_blender_rejects_bad_input(x, y):
    with pytest.raises(ValidationError):
        fit_blender(x, y)


def test_blender_round_trip_and_validation():
    blender = LinearBlender(weights=np.array([0.25, 0.0, 1.5]), intercept=-0.125)
    x = np.random.default_rng(4).standard_normal((9, 3))
    again = LinearBlender.from_dict(blender.to_dict())
    assert np.array_equal(again.forward(x), blender.forward(x))
    with pytest.raises(ValidationError):
        blender.forward(np.zeros((2, 4)))
    with pytest.raises(ValidationError, match="kind"):
        LinearBlender.from_dict({"kind": "mlp", "weights": [1.0], "intercept": 0.0})
    with pytest.raises(ValidationError, match="finite"):
        LinearBlender.from_dict({"kind": "nnls", "weights": [float("nan")], "intercept": 0.0})


def test_pipeline_bundle_stores_the_blender():
    ds = make_synthetic_stock(n_rows=500, seed=2)
    pipeline = fit_stacking(ds, make_default_zoo(ds, k_per_model=60, seed=1),
                            {"sell": 0.25, "hold": 0.5, "buy": 0.25})
    assert isinstance(pipeline.blender, LinearBlender)
    doc = pipeline.to_dict()
    assert doc["version"] == 2 and doc["blender"]["kind"] == "nnls" and "mlp" not in doc
    assert all(w >= 0 for w in doc["blender"]["weights"])
