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
from .errors import (ValidationError, array, bundle_version, decoding, integer, number, numbers,
                     string)
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
    params: Params
    mapper: list[FeatureBins]

    @property
    def objective(self) -> str:
        return self.params.objective

    @property
    def n_features(self) -> int:
        return len(self.mapper)

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
        trees = []
        for i, t in enumerate(self.trees):
            try:
                trees.append(t.to_dict())
            except RecursionError:
                raise ValidationError(f"tree {i}: too deep to write as JSON") from None
        return {
            "format": "fewboost-model",
            "version": 1,
            "objective": self.objective,
            "base_score": self.base_score,
            "params": self.params.to_dict(),
            "features": features,
            "trees": trees,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Model":
        """Decode a model bundle document.

        A ``version`` other than the JSON integer 1, a missing field, a value
        that does not decode or is not of its JSON type (by the rules of
        :mod:`~fewboost.errors`), a feature whose binning fields disagree (see
        :func:`_check_bins`), an ``objective`` other than the params' own, or a
        bad tree (checked in one pass by :meth:`~fewboost.tree.Tree.from_dict`,
        a split's ``missing_bin`` against its feature's) raises
        :class:`ValidationError` naming the part (``tree 3: node 5: ...``).
        """
        bundle_version(d, "model", 1)
        with decoding():
            mapper = []
            for j, f in enumerate(array("features", d["features"])):
                with decoding(f"feature {j}"):
                    fb = FeatureBins(
                        name=string("name", f["name"]), kind=f["kind"],
                        n_real_bins=integer("n_real_bins", f["n_real_bins"]),
                        edges=(np.asarray(numbers("edges", f["edges"]), dtype=np.float64)
                               if "edges" in f else None),
                        categories=(tuple(array("categories", f["categories"]))
                                    if "categories" in f else None),
                    )
                    _check_bins(fb)
                mapper.append(fb)
            base_score = number("base_score", d["base_score"])
            with decoding("params"):
                params = Params.from_dict(d["params"])
            if d["objective"] != params.objective:
                raise ValidationError(f"objective {d['objective']!r} is not the params' "
                                      f"objective {params.objective!r}")
            trees, missing_bins = [], [fb.missing_bin for fb in mapper]
            for i, t in enumerate(array("trees", d["trees"])):
                try:
                    trees.append(Tree.from_dict(t, missing_bins))
                except ValidationError as exc:
                    raise ValidationError(f"tree {i}: {exc}") from exc
            return cls(trees=trees, base_score=base_score, params=params, mapper=mapper)


def _check_bins(fb: FeatureBins) -> None:
    """Raise ValidationError unless a decoded feature's binning fields agree.

    ``kind`` is numeric or categorical. A numeric feature has
    ``n_real_bins - 1`` strictly increasing ``edges`` (an absent list holds
    none; each edge was decoded by :func:`~fewboost.errors.numbers`); a
    categorical one has ``n_real_bins`` distinct string categories, or none
    and one bin.
    """
    if fb.kind == NUMERIC:
        edges = np.empty(0) if fb.edges is None else fb.edges
        if edges.size != fb.n_real_bins - 1:
            raise ValidationError(f"field 'edges' must be a list of n_real_bins - 1 = "
                                  f"{fb.n_real_bins - 1} numbers, got {edges.size}")
        if edges.size > 1 and not (edges[1:] > edges[:-1]).all():
            at = int(np.argmin(edges[1:] > edges[:-1])) + 1
            raise ValidationError(f"field 'edges' must be strictly increasing, got "
                                  f"{edges[at]!r} after {edges[at - 1]!r} at entry {at}")
    elif fb.kind == CATEGORICAL:
        cats = fb.categories or ()
        if fb.n_real_bins != max(len(cats), 1):
            raise ValidationError(f"field 'categories' must hold n_real_bins = "
                                  f"{fb.n_real_bins} names, got {len(cats)}")
        if not {*map(type, cats)} <= {str} or len(set(cats)) < len(cats):
            at, name = next((at, c) for at, c in enumerate(cats)
                            if type(c) is not str or c in cats[:at])
            raise ValidationError(f"field 'categories' must hold distinct strings, "
                                  f"got {name!r} at entry {at}")
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

    :class:`_ScoreBuffer` makes ``scores`` a slice of its objective's buffer,
    and ``grads`` a slice of that buffer's latest gradients.
    """

    def __init__(self, bds: BinnedDataset, params: Params):
        self.bds, self.params = bds, params
        self.rng = np.random.default_rng(params.seed)
        self.base = _initial_score(params.objective, bds.target)
        self.scores = np.full(bds.n_rows, self.base)
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
        return Model(trees=self.trees, base_score=self.base, params=self.params,
                     mapper=list(self.bds.mapper))


class _ScoreBuffer:
    """The training targets and scores of every model of one objective, one buffer each.

    One :func:`compute_gradients` call over the whole buffer gives each model
    its round's gradients; the loss derivatives are elementwise, so each
    model's slice equals a call over its rows alone, and a model that has
    grown all its trees just leaves its slice unread.
    """

    def __init__(self, objective: str, runs: Sequence[_Boosting]):
        self.objective, self.runs = objective, runs
        ends = np.cumsum([run.bds.n_rows for run in runs]).tolist()
        self.spans = list(zip([0] + ends[:-1], ends))
        self.targets = np.concatenate([run.bds.target for run in runs])
        self.scores = np.concatenate([run.scores for run in runs])
        for run, (lo, hi) in zip(runs, self.spans):
            run.scores = self.scores[lo:hi]

    def gradients(self) -> None:
        grads = compute_gradients(self.objective, self.targets, self.scores)
        for run, (lo, hi) in zip(self.runs, self.spans):
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
    runs = [_Boosting(bds, params) for bds, params in zip(datasets, params_list)]
    buffers = [_ScoreBuffer(objective, [run for run in runs if run.params.objective == objective])
               for objective in dict.fromkeys(params.objective for params in params_list)]
    for it in range(max((p.n_rounds for p in params_list), default=0)):
        for buffer in buffers:
            buffer.gradients()
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
    interval; regression objectives return raw scores. Rows that are not a
    matrix with one column per feature raise :class:`ValidationError`.
    """
    bins = bin_matrix(model.mapper, rows)
    raw = np.full(bins.shape[0], model.base_score, dtype=np.float64)
    for tree in model.trees:
        raw += model.params.eta * tree.predict_bins(bins)
    if model.objective == "binary-logloss":
        return np.clip(_sigmoid(raw), 1e-15, 1.0 - 1e-15)
    return raw


def save_model(model: Model, path) -> None:
    write_json(path, model.to_dict())


def load_model(path, doc: dict | None = None) -> Model:
    """Decode the model bundle at ``path``; ``doc`` is its already-parsed JSON, if at hand."""
    return Model.from_dict(read_json(path) if doc is None else doc)
