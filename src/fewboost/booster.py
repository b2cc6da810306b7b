"""Gradient boosting driver: losses, bagging schedule, ensemble prediction.

A model is the initial score plus the eta-scaled sum of tree outputs, pushed
through the objective's link (sigmoid for binary log-loss, identity
otherwise). Training is deterministic for a fixed seed. :func:`train_many`
trains a batch of models in lockstep, each under its own parameters: each
boosting round grows the tree of every model still short of its
``n_rounds`` in one :func:`~fewboost.tree.grow_trees` call, whose growth
steps each make one split scan for all of them, whatever their presets.
The training scores of all models of one objective live in one buffer, each
model's a slice of it, so each round computes every model's gradients with
one :func:`compute_gradients` call per objective. :func:`train` is a batch
of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import (CATEGORICAL, NUMERIC, BinnedDataset, FeatureBins, bin_matrix,
                      read_json, write_json)
from .errors import ValidationError, decoding, integer
from .params import Params
from .tree import GrowJob, Tree, grow_trees

BASE_SCORE_CLAMP = 10.0  # log-odds clamp when the training target is single-class


@dataclass
class GradientPairs:
    """First and second loss derivatives per row (columnar)."""

    grad: np.ndarray
    hess: np.ndarray


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def compute_gradients(objective: str, targets, scores) -> GradientPairs:
    """Per-row gradient/hessian of the loss at the current raw scores.

    binary-logloss: grad = sigmoid(score) - y, hess = p(1-p).
    mse: grad = score - y, hess = 1.
    mae: grad = sign(score - y), hess = 1 (constant-hessian surrogate).
    """
    y = np.asarray(targets, dtype=np.float64)
    s = np.asarray(scores, dtype=np.float64)
    if y.shape != s.shape:
        raise ValidationError("targets and scores must have equal length")
    if objective == "binary-logloss":
        p = _sigmoid(s)
        return GradientPairs(grad=p - y, hess=p * (1.0 - p))
    if objective == "mse":
        return GradientPairs(grad=s - y, hess=np.ones_like(s))
    if objective == "mae":
        return GradientPairs(grad=np.sign(s - y), hess=np.ones_like(s))
    raise ValidationError(f"unknown objective {objective!r}")


def _initial_score(objective: str, y: np.ndarray) -> float:
    if objective in ("mse", "mae"):
        return float(np.mean(y))
    p = float(np.mean(y))
    if p <= 0.0:
        return -BASE_SCORE_CLAMP
    if p >= 1.0:
        return BASE_SCORE_CLAMP
    return math.log(p / (1.0 - p))


@dataclass
class Model:
    """Trained ensemble plus the binning rules needed to score raw rows."""

    trees: list[Tree]
    base_score: float
    objective: str
    params: Params
    mapper: list[FeatureBins]

    @property
    def n_features(self) -> int:
        return len(self.mapper)

    def raw_scores(self, rows: np.ndarray) -> np.ndarray:
        bins = bin_matrix(self.mapper, np.asarray(rows, dtype=np.float64))
        out = np.full(bins.shape[0], self.base_score, dtype=np.float64)
        for tree in self.trees:
            out += self.params.eta * tree.predict_bins(bins)
        return out

    def all_single_leaf(self) -> bool:
        return all(t.is_single_leaf for t in self.trees)

    def to_dict(self) -> dict:
        features = []
        for fb in self.mapper:
            d: dict = {"name": fb.name, "kind": fb.kind, "n_real_bins": fb.n_real_bins}
            if fb.edges is not None:
                d["edges"] = [float(e) for e in fb.edges]
            if fb.categories is not None:
                d["categories"] = list(fb.categories)
            features.append(d)
        return {
            "format": "fewboost-model",
            "version": 1,
            "objective": self.objective,
            "base_score": self.base_score,
            "params": self.params.to_dict(),
            "features": features,
            "trees": [t.to_dict() for t in self.trees],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Model":
        """Decode a model bundle document.

        A missing field, a value that does not decode or is not a JSON
        integer where one is due, a non-finite base score, a feature whose
        binning fields disagree (see :func:`_check_bins`), an ``objective``
        other than the params' own, or a bad tree (each checked in one pass
        by :meth:`~fewboost.tree.Tree.from_dict`, a split's ``missing_bin``
        against its feature's) raises :class:`ValidationError` naming the
        part (``tree 3: node 5: ...``).
        """
        if not isinstance(d, dict) or d.get("format") != "fewboost-model":
            raise ValidationError("not a fewboost model document")
        if d.get("version") != 1:
            raise ValidationError(f"unsupported model version {d.get('version')!r}")
        with decoding():
            mapper = []
            for j, f in enumerate(d["features"]):
                with decoding(f"feature {j}"):
                    fb = FeatureBins(
                        name=f["name"], kind=f["kind"],
                        n_real_bins=integer("n_real_bins", f["n_real_bins"]),
                        edges=np.asarray(f["edges"], dtype=np.float64) if "edges" in f else None,
                        categories=tuple(f["categories"]) if "categories" in f else None,
                    )
                    _check_bins(fb)
                mapper.append(fb)
            with decoding("base_score"):
                base_score = float(d["base_score"])
            if not math.isfinite(base_score):
                raise ValidationError(f"base_score must be a finite number, got {base_score!r}")
            with decoding("params"):
                params = Params.from_dict(d["params"])
            if d["objective"] != params.objective:
                raise ValidationError(f"objective {d['objective']!r} is not the params' "
                                      f"objective {params.objective!r}")
            trees, missing_bins = [], [fb.missing_bin for fb in mapper]
            for i, t in enumerate(d["trees"]):
                try:
                    trees.append(Tree.from_dict(t, missing_bins))
                except ValidationError as exc:
                    raise ValidationError(f"tree {i}: {exc}") from exc
            return cls(trees=trees, base_score=base_score, objective=params.objective,
                       params=params, mapper=mapper)


def _check_bins(fb: FeatureBins) -> None:
    """Raise ValidationError unless a decoded feature's binning fields agree.

    ``kind`` is numeric or categorical. A numeric feature has
    ``n_real_bins - 1`` finite, strictly increasing ``edges`` (an absent
    list holds none); a categorical one has ``n_real_bins`` categories, or
    none and one bin.
    """
    if fb.kind == NUMERIC:
        edges = np.empty(0) if fb.edges is None else fb.edges
        if edges.ndim != 1 or edges.size != fb.n_real_bins - 1:
            raise ValidationError(f"field 'edges' must be a list of n_real_bins - 1 = "
                                  f"{fb.n_real_bins - 1} numbers, got {edges.size}")
        if not np.isfinite(edges).all():
            raise ValidationError("bin edges must be finite numbers")
        if edges.size > 1 and not (edges[1:] > edges[:-1]).all():
            at = int(np.argmin(edges[1:] > edges[:-1])) + 1
            raise ValidationError(f"field 'edges' must be strictly increasing, got "
                                  f"{edges[at]!r} after {edges[at - 1]!r} at entry {at}")
    elif fb.kind == CATEGORICAL:
        n = len(fb.categories or ())
        if fb.n_real_bins != max(n, 1):
            raise ValidationError(f"field 'categories' must hold n_real_bins = "
                                  f"{fb.n_real_bins} names, got {n}")
    else:
        raise ValidationError(f"field 'kind' must be {NUMERIC!r} or {CATEGORICAL!r}, "
                              f"got {fb.kind!r}")


def check_trainable(bds: BinnedDataset, params: Params) -> None:
    """Raise :class:`ValidationError` if ``bds`` cannot be trained under ``params``."""
    if bds.target is None:
        raise ValidationError("training requires a target column")
    if bds.n_rows < 1:
        raise ValidationError("training requires at least one row")
    if not np.all(np.isfinite(bds.target)):
        raise ValidationError("training targets must be finite numbers")
    if params.objective == "binary-logloss" and not np.all(np.isin(bds.target, (0.0, 1.0))):
        raise ValidationError("binary-logloss requires targets in {0, 1}")


class _Boosting:
    """One model's state between boosting rounds: generator, scores, gradients and trees.

    ``scores`` is the model's slice of its objective's :class:`_ScoreBuffer`,
    and ``grads`` its slice of that buffer's latest gradients.
    """

    def __init__(self, bds: BinnedDataset, params: Params, scores: np.ndarray):
        self.bds, self.params = bds, params
        self.rng = np.random.default_rng(params.seed)
        self.base = _initial_score(params.objective, bds.target)
        self.scores = scores
        self.scores.fill(self.base)
        self.grads: GradientPairs | None = None
        self.all_rows = np.arange(bds.n_rows, dtype=np.intp)
        self.all_feats = np.arange(bds.n_features, dtype=np.intp)
        self.bag = self.all_rows
        self.trees: list[Tree] = []

    def next_job(self, it: int) -> GrowJob:
        """Round ``it``'s bag and feature sample, drawn in that order, with its gradients."""
        bds, params, rng = self.bds, self.params, self.rng
        n = bds.n_rows
        if params.bagging_freq > 0 and params.bagging_fraction < 1.0:
            if it % params.bagging_freq == 0:
                size = max(1, math.floor(params.bagging_fraction * n + 1e-9))
                self.bag = np.sort(rng.choice(n, size=size, replace=False)).astype(np.intp)
            rows = self.bag
        else:
            rows = self.all_rows
        if params.feature_fraction < 1.0 and bds.n_features > 1:
            size = max(1, math.floor(params.feature_fraction * bds.n_features + 0.5))
            feats = np.sort(rng.choice(bds.n_features, size=size, replace=False))
        else:
            feats = self.all_feats
        return GrowJob(bds, self.grads, rows, feats, rng, params)

    def add(self, tree: Tree) -> None:
        self.scores += self.params.eta * tree.predict_bins(self.bds.bins)
        self.trees.append(tree)

    def model(self) -> Model:
        return Model(trees=self.trees, base_score=self.base, objective=self.params.objective,
                     params=self.params, mapper=list(self.bds.mapper))


class _ScoreBuffer:
    """The training targets and scores of every model of one objective, one buffer each.

    The models are laid out by descending ``n_rounds``, so those still
    training in any round are a prefix of the buffer, and one
    :func:`compute_gradients` call over that prefix gives each of them its
    round's gradients. The loss derivatives are elementwise, so each model's
    slice equals a call over its rows alone.
    """

    def __init__(self, objective: str, pairs: Sequence[tuple[BinnedDataset, Params]]):
        self.objective = objective
        ends = np.cumsum([bds.n_rows for bds, _ in pairs]).tolist()
        self.spans = list(zip([0] + ends[:-1], ends))
        self.targets = np.concatenate([bds.target for bds, _ in pairs])
        self.scores = np.empty(ends[-1], dtype=np.float64)
        self.runs = [_Boosting(bds, params, self.scores[lo:hi])
                     for (bds, params), (lo, hi) in zip(pairs, self.spans)]

    def gradients(self, it: int) -> None:
        """Set the gradients of every model that grows a tree in round ``it``."""
        active = sum(it < run.params.n_rounds for run in self.runs)
        if active == 0:
            return
        end = self.spans[active - 1][1]
        grads = compute_gradients(self.objective, self.targets[:end], self.scores[:end])
        for run, (lo, hi) in zip(self.runs[:active], self.spans):
            run.grads = GradientPairs(grad=grads.grad[lo:hi], hess=grads.hess[lo:hi])


def train_many(datasets: Sequence[BinnedDataset], params_list: Sequence[Params]) -> list[Model]:
    """Train one model per (dataset, params) pair, growing each round's trees in lockstep.

    The parameters may differ in any field. Each model draws from its own
    ``default_rng(seed)`` in the order :func:`train` uses (bag, then
    features, then the tree's draws), and each round's trees grow together
    through :func:`~fewboost.tree.grow_trees`, each under its own model's
    parameters; a model leaves the batch once its ``n_rounds`` trees are
    grown. So every model equals the one :func:`train` returns for its pair
    alone. The models of one objective keep their scores in one buffer, and
    each round computes their gradients in one :func:`compute_gradients`
    call. Every dataset is checked by :func:`check_trainable` before any
    training starts.
    """
    if len(datasets) != len(params_list):
        raise ValidationError("train_many needs one Params per dataset")
    for bds, params in zip(datasets, params_list):
        check_trainable(bds, params)
    by_objective: dict[str, list[int]] = {}
    for i in sorted(range(len(datasets)), key=lambda i: -params_list[i].n_rounds):
        by_objective.setdefault(params_list[i].objective, []).append(i)
    buffers = [_ScoreBuffer(objective, [(datasets[i], params_list[i]) for i in members])
               for objective, members in by_objective.items()]
    run_of = {i: run for members, buffer in zip(by_objective.values(), buffers)
              for i, run in zip(members, buffer.runs)}
    runs = [run_of[i] for i in range(len(datasets))]
    for it in range(max((p.n_rounds for p in params_list), default=0)):
        for buffer in buffers:
            buffer.gradients(it)
        active = [run for run in runs if it < run.params.n_rounds]
        for run, tree in zip(active, grow_trees([run.next_job(it) for run in active])):
            run.add(tree)
    return [run.model() for run in runs]


def train(bds: BinnedDataset, params: Params) -> Model:
    """Run ``n_rounds`` boosting iterations over a binned dataset.

    Each iteration recomputes gradients at the current predictions, applies
    the bagging schedule (a fresh row subset of size
    floor(bagging_fraction * n) every ``bagging_freq`` iterations) and
    per-tree feature sampling, then grows one tree and advances predictions
    by ``eta`` times its output. A tree whose gate is closed everywhere stays
    a single leaf and only shifts predictions by a constant. This is
    :func:`train_many` on one model.
    """
    return train_many([bds], [params])[0]


def predict(model: Model, rows) -> np.ndarray:
    """Score raw (unbinned) feature rows through the stored binning rules.

    Binary log-loss models return probabilities clipped to the open (0, 1)
    interval; regression objectives return raw scores.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ValidationError(f"expected a 2-d row matrix, got shape {rows.shape}")
    if rows.shape[1] != model.n_features:
        raise ValidationError(
            f"row arity {rows.shape[1]} does not match the model's {model.n_features} features"
        )
    raw = model.raw_scores(rows)
    if model.objective == "binary-logloss":
        return np.clip(_sigmoid(raw), 1e-15, 1.0 - 1e-15)
    return raw


def save_model(model: Model, path) -> None:
    write_json(path, model.to_dict())


def load_model(path, doc: dict | None = None) -> Model:
    """Decode the model bundle at ``path``; ``doc`` is its already-parsed JSON, if at hand."""
    return Model.from_dict(read_json(path) if doc is None else doc)
