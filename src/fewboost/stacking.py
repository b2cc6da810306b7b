"""Stacked ensemble over disjoint few-shot partitions.

Level-0 models are boosted-tree regressors, each trained on its own
disjoint shot set with its own feature subset and optional winsorized
target, so diversity comes from the sample space as much as from the model
space. The zoo trains as one lockstep batch
(:func:`~fewboost.booster.train_many`), whatever parameters its configs
carry: each boosting round grows every model's tree together, with one split
scan per growth step. Their predictions on the leftover (meta) rows are
blended by non-negative least squares with a free intercept
(:mod:`~fewboost.blend`), and the blended score is discretized into
sell/hold/buy actions by thresholds calibrated to a target action
distribution. Bundles written with the earlier MLP blender
(:mod:`~fewboost.mlp`) still load and score.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .blend import LinearBlender, fit_blender
from .booster import Model, check_trainable, predict, train_many
from .dataset import CATEGORICAL, Dataset, FeatureBins, bin_features, read_json
from .errors import ValidationError, decoding
from .fsl import fsl_preset
from .mlp import MLP
from .params import Params

ACTIONS = ("sell", "hold", "buy")


def partition_shots(n: int, k_per_model: int, m_models: int, seed: int
                    ) -> tuple[list[np.ndarray], np.ndarray]:
    """Disjoint uniform-random index sets of size k, plus the leftover pool."""
    if k_per_model < 1 or m_models < 1:
        raise ValidationError("k_per_model and m_models must be >= 1")
    if m_models * k_per_model > n:
        raise ValidationError(
            f"partition capacity exceeded: {m_models} models x {k_per_model} shots > {n} rows"
        )
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    parts = [np.sort(perm[i * k_per_model:(i + 1) * k_per_model]).astype(np.intp)
             for i in range(m_models)]
    leftover = np.sort(perm[m_models * k_per_model:]).astype(np.intp)
    return parts, leftover


def winsorize(y, lo_q: float, hi_q: float) -> np.ndarray:
    """Clip to the empirical [lo_q, hi_q] quantiles (linear interpolation)."""
    if not 0.0 <= lo_q < hi_q <= 1.0:
        raise ValidationError("quantiles must satisfy 0 <= lo_q < hi_q <= 1")
    y = np.asarray(y, dtype=np.float64)
    return np.clip(y, float(np.quantile(y, lo_q)), float(np.quantile(y, hi_q)))


@dataclass(frozen=True)
class Level0Config:
    """One base model: its shots, feature subset, target transform, params."""

    name: str
    feature_set: tuple[int, ...]
    params: Params
    shot_indices: np.ndarray
    winsor_quantiles: tuple[float, float] | None = None


@dataclass
class Level0Fit:
    config: Level0Config
    model: Model


@dataclass
class Level0Result:
    fits: list[Level0Fit]
    meta_features: np.ndarray
    meta_indices: np.ndarray


def _check_disjoint(configs: Sequence[Level0Config]) -> None:
    seen: dict[int, str] = {}
    for cfg in configs:
        for idx in cfg.shot_indices:
            idx = int(idx)
            if idx in seen:
                raise ValidationError(
                    f"shot sets overlap: row {idx} in both {seen[idx]!r} and {cfg.name!r}"
                )
            seen[idx] = cfg.name


def train_level0(ds: Dataset, configs: Sequence[Level0Config]) -> Level0Result:
    """Train every config on its own shots; predict all of them on the meta pool.

    Level-0 models are regressors: the objective is forced to squared error.
    The meta pool is every row not claimed by any shot set and must be
    non-empty. Every config's feature indices are checked, and every config
    is sliced, winsorized, binned and checked before any model trains; a
    failing config raises ``level-0 config '<name>': <message>``. Then all
    configs train as one :func:`~fewboost.booster.train_many` batch, and
    each model equals the one :func:`~fewboost.booster.train` returns for
    its config alone. ``meta_features`` columns follow config order.
    """
    if not configs:
        raise ValidationError("at least one level-0 config is required")
    if ds.target is None:
        raise ValidationError("level-0 training requires a target column")
    _check_disjoint(configs)
    mask = np.ones(ds.n_rows, dtype=bool)
    for cfg in configs:
        mask[np.asarray(cfg.shot_indices, dtype=np.intp)] = False
    meta_indices = np.flatnonzero(mask).astype(np.intp)
    if meta_indices.size == 0:
        raise ValidationError("meta pool is empty: shot sets cover every row")

    datasets, params_list = [], []
    for cfg in configs:
        try:
            bad = [j for j in cfg.feature_set if not 0 <= j < ds.n_features]
            if bad:
                raise ValidationError(
                    f"feature index {bad[0]} out of range for {ds.n_features} features")
            sub = ds.take(cfg.shot_indices).select_features(cfg.feature_set)
            if cfg.winsor_quantiles is not None:
                lo, hi = cfg.winsor_quantiles
                sub.target = winsorize(sub.target, lo, hi)
            params = dataclasses.replace(cfg.params, objective="mse")
            bds = bin_features(sub, params.max_bin, params.min_data_in_bin)
            check_trainable(bds, params)
        except ValidationError as exc:
            raise ValidationError(f"level-0 config {cfg.name!r}: {exc}") from exc
        datasets.append(bds)
        params_list.append(params)

    fits = [Level0Fit(config=cfg, model=model)
            for cfg, model in zip(configs, train_many(datasets, params_list))]
    meta_cols = [predict(fit.model, ds.values[np.ix_(meta_indices, fit.config.feature_set)])
                 for fit in fits]
    return Level0Result(
        fits=fits,
        meta_features=np.column_stack(meta_cols),
        meta_indices=meta_indices,
    )


def level0_predictions(fits: Sequence[Level0Fit], rows: np.ndarray) -> np.ndarray:
    """Matrix of per-model predictions on full-arity raw rows."""
    rows = np.asarray(rows, dtype=np.float64)
    cols = [predict(fit.model, rows[:, list(fit.config.feature_set)]) for fit in fits]
    return np.column_stack(cols)


@dataclass(frozen=True)
class ActionThresholds:
    """Score cutpoints: below t_low sells, above t_high buys, else holds."""

    t_low: float
    t_high: float

    def __post_init__(self) -> None:
        if self.t_low > self.t_high:
            raise ValidationError(
                f"t_low {self.t_low} must not exceed t_high {self.t_high}")

    def apply(self, scores) -> np.ndarray:
        s = np.asarray(scores, dtype=np.float64)
        return np.where(s < self.t_low, -1, np.where(s > self.t_high, 1, 0)).astype(np.int64)


def _check_target_dist(target_dist: Mapping[str, float]) -> tuple[float, float, float]:
    missing = [a for a in ACTIONS if a not in target_dist]
    if missing:
        raise ValidationError(f"target distribution is missing actions: {missing}")
    p = tuple(float(target_dist[a]) for a in ACTIONS)
    if any(v < 0 for v in p):
        raise ValidationError("action probabilities must be non-negative")
    if abs(sum(p) - 1.0) > 1e-9:
        raise ValidationError(f"action probabilities must sum to 1, got {sum(p)}")
    return p


def calibrate_thresholds(scores, target_dist: Mapping[str, float]) -> ActionThresholds:
    """Cut scores so the empirical action frequencies match ``target_dist``.

    Thresholds sit at midpoints between the order statistics around rank
    ``n * p``, which keeps every achieved action count within one row of its
    target on distinct scores. Zero-probability edge actions get infinite
    sentinels, and fully tied scores collapse to hold whenever hold has mass.
    """
    p_sell, p_hold, p_buy = _check_target_dist(target_dist)
    s = np.asarray(scores, dtype=np.float64).ravel()
    if s.size == 0:
        raise ValidationError("scores must be non-empty")
    n = s.size
    xs = np.sort(s)
    n_sell = int(round(n * p_sell))
    n_buy = int(round(n * p_buy))
    if n_sell + n_buy > n:
        n_buy = n - n_sell

    if n_sell == 0:
        t_low = -np.inf
    elif n_sell == n:
        t_low = np.inf
    else:
        t_low = 0.5 * (xs[n_sell - 1] + xs[n_sell])
    if n_buy == 0:
        t_high = np.inf
    elif n_buy == n:
        t_high = -np.inf
    else:
        t_high = 0.5 * (xs[n - n_buy - 1] + xs[n - n_buy])
    return ActionThresholds(t_low=float(t_low), t_high=float(t_high))


@dataclass
class StackingPipeline:
    """Level-0 fits, their blender and the action thresholds.

    ``blender`` is a :class:`~fewboost.blend.LinearBlender`, or an
    :class:`~fewboost.mlp.MLP` in a pipeline loaded from a version-1 bundle.
    """

    fits: list[Level0Fit]
    blender: LinearBlender | MLP
    thresholds: ActionThresholds

    def predict_score(self, rows) -> np.ndarray:
        return self.blender.forward(level0_predictions(self.fits, rows))

    def predict_actions(self, rows) -> np.ndarray:
        """Level-0 predictions -> blend -> thresholds -> {-1, 0, +1}."""
        return self.thresholds.apply(self.predict_score(rows))

    def feature_columns(self) -> list[FeatureBins | None]:
        """The binning rule of every input column, in dataset order.

        Column ``feature_set[i]`` of a fit is its model's feature ``i``. The
        arity is the largest index any fit reads plus one; a column no fit
        reads is None. :func:`~fewboost.dataset.encode_csv` takes this list.
        """
        columns: dict[int, FeatureBins] = {}
        for fit in self.fits:
            for j, fb in zip(fit.config.feature_set, fit.model.mapper):
                seen = columns.setdefault(j, fb)
                if (seen.name, seen.kind, seen.categories) != (fb.name, fb.kind, fb.categories):
                    raise ValidationError(f"level-0 models disagree on the name, kind or "
                                          f"categories of input column {j} ({seen.name!r})")
        return [columns.get(j) for j in range(max(columns, default=-1) + 1)]

    def to_dict(self) -> dict:
        def enc(v: float) -> float | None:
            return None if np.isinf(v) else float(v)

        mlp = isinstance(self.blender, MLP)
        return {
            "format": "fewboost-pipeline",
            "version": 1 if mlp else 2,
            "level0": [
                {
                    "name": fit.config.name,
                    "feature_set": list(fit.config.feature_set),
                    "winsor_quantiles": (
                        None if fit.config.winsor_quantiles is None
                        else list(fit.config.winsor_quantiles)
                    ),
                    "shot_indices": [int(i) for i in fit.config.shot_indices],
                    "params": fit.config.params.to_dict(),
                    "model": fit.model.to_dict(),
                }
                for fit in self.fits
            ],
            "mlp" if mlp else "blender": self.blender.to_dict(),
            "thresholds": {
                "t_low": enc(self.thresholds.t_low),
                "t_high": enc(self.thresholds.t_high),
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "StackingPipeline":
        """Decode a pipeline bundle document.

        A missing field or a value that does not decode raises
        :class:`ValidationError` naming the part that is bad (``level-0
        entry 2: tree 3: ...``), as a bad level-0 model does.
        """
        if not isinstance(d, dict) or d.get("format") != "fewboost-pipeline":
            raise ValidationError("not a fewboost pipeline document")
        with decoding():
            fits = []
            for k, entry in enumerate(d["level0"]):
                with decoding(f"level-0 entry {k}"):
                    cfg = Level0Config(
                        name=entry["name"],
                        feature_set=tuple(int(j) for j in entry["feature_set"]),
                        params=Params.from_dict(entry["params"]),
                        shot_indices=np.asarray(entry["shot_indices"], dtype=np.intp),
                        winsor_quantiles=(
                            None if entry["winsor_quantiles"] is None
                            else tuple(entry["winsor_quantiles"])
                        ),
                    )
                    fits.append(Level0Fit(config=cfg, model=Model.from_dict(entry["model"])))
            with decoding("blender"):
                blender = (MLP.from_dict(d["mlp"]) if "mlp" in d
                           else LinearBlender.from_dict(d["blender"]))
            with decoding("thresholds"):
                th = d["thresholds"]
                thresholds = ActionThresholds(
                    t_low=-np.inf if th["t_low"] is None else float(th["t_low"]),
                    t_high=np.inf if th["t_high"] is None else float(th["t_high"]),
                )
            return cls(fits=fits, blender=blender, thresholds=thresholds)


def save_pipeline(pipeline: StackingPipeline, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(pipeline.to_dict(), fh, indent=2)
        fh.write("\n")


def load_pipeline(path, doc: dict | None = None) -> StackingPipeline:
    """Decode the pipeline bundle at ``path``; ``doc`` is its already-parsed JSON, if at hand."""
    return StackingPipeline.from_dict(read_json(path) if doc is None else doc)


def make_default_zoo(ds: Dataset, k_per_model: int, seed: int = 0,
                     params: Params | None = None) -> list[Level0Config]:
    """Five-model zoo over disjoint shot partitions.

    Feature groups are detected by name: ``dI*`` columns are relative
    features, other ``I*`` columns are static, and categorical columns form
    their own group (falling back to all-numeric as the relative set when
    the naming convention is absent). The zoo varies the split-selection
    mode, the target transform, and the feature set:

    1. randomized trees on the base set (relative + categorical)
    2. greedy trees on the base set
    3. randomized trees on the base set with a winsorized target
    4. randomized trees with categoricals removed
    5. randomized trees with static features added back
    """
    base_params = params if params is not None else dataclasses.replace(
        fsl_preset(), objective="mse")
    relative = [j for j, name in enumerate(ds.feature_names)
                if name.startswith("dI") and ds.kinds[j] != CATEGORICAL]
    cats = [j for j, kind in enumerate(ds.kinds) if kind == CATEGORICAL]
    static = [j for j in range(ds.n_features) if j not in relative and j not in cats]
    if not relative:
        relative, static = static, []
    base = tuple(sorted(relative + cats))
    no_cats = tuple(sorted(relative))
    with_static = tuple(sorted(relative + cats + static))

    parts, _ = partition_shots(ds.n_rows, k_per_model, 5, seed)
    spec = [
        ("extra-base", base, None, True),
        ("gbdt-base", base, None, False),
        ("extra-base-winsor", base, (0.005, 0.995), True),
        ("extra-no-cats", no_cats, None, True),
        ("extra-with-static", with_static, None, True),
    ]
    configs = []
    for i, (name, feats, quantiles, extra) in enumerate(spec):
        configs.append(Level0Config(
            name=name,
            feature_set=feats,
            params=dataclasses.replace(base_params, extra_trees=extra, seed=seed + i),
            shot_indices=parts[i],
            winsor_quantiles=quantiles,
        ))
    return configs


def fit_stacking(ds: Dataset, configs: Sequence[Level0Config],
                 target_dist: Mapping[str, float], seed: int = 0) -> StackingPipeline:
    """Full pipeline: level-0 fits, non-negative linear blend, threshold calibration.

    The blend is fitted on every meta row in closed form, so it draws
    nothing: ``seed`` is accepted for callers of the earlier, seeded MLP
    blender and changes nothing.
    """
    result = train_level0(ds, configs)
    blender = fit_blender(result.meta_features, ds.target[result.meta_indices])
    thresholds = calibrate_thresholds(blender.forward(result.meta_features), target_dist)
    return StackingPipeline(fits=result.fits, blender=blender, thresholds=thresholds)
