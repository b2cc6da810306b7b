"""Leaf-wise tree growth, many trees in lockstep, one split scan per step.

:func:`grow_trees` grows several independent trees together. At each growth
step every tree with a non-empty frontier and room in its leaf budget pops
and splits its best leaf, and all the new children, of every tree, go to one
split scan; at the first step the scan takes the roots. For each tree the
pops, splits and random draws come in the same order as growing it alone,
so a tree does not depend on which other trees share its steps. Each job
may carry its own :class:`~fewboost.params.Params`: the scan gate, the leaf
budget, greedy or extra-trees selection, the leaf floor and the categorical
knobs are that tree's own, so trees of different presets share one batch and
every scan of it. :func:`grow_tree` is a batch of one. A greedy tree whose
split reaches its leaf budget sends the two children to no scan, since it
never splits again and its scans draw nothing; an extra-trees tree's
children are still scanned, because their draws advance its generator.

A tree's set-up reads its sampled features' scan fields (missing-value bin
and categorical flag) with one index into
:attr:`~fewboost.dataset.BinnedDataset.scan_fields`, which each dataset
computes once. Each growth step preallocates one ragged (3, rows, width)
block of (node, feature) rows, padded to the widest feature of the batch,
and each scanned node writes its gradient, hessian and row-count histograms
straight into its rows of it, one ``bincount`` per statistic over
feature-offset bin ids of the node's own rows. Column ``missing_bin`` of a
row holds its missing-value rows, and padded columns are never admissible.
One fused pass scores every candidate of every row against the row's own
leaf floor, in one buffer that holds every candidate with the missing rows
sent right and, for the rows that hold missing rows, sent left as well. A
numeric row's candidates are its boundaries (a ``cumsum`` along the row). A
categorical row with at most its node's ``max_cat_to_onehot`` present
categories has one-vs-other splits (the bin itself); one with more has
prefix cuts: its categories are ordered by their smoothed gradient/hessian
ratio, each prefix of that order is a left set, and ``cat_l2`` joins every
hessian of the row. Selection is vectorised too, by a per-row mode: a greedy
tree's rows take their first best candidate with one ``argmax``; an
extra-trees tree's rows count their admissible boundaries or prefix cuts,
and all of that tree's rows of one step draw with a single
``rng.integers(0, sizes)``, which yields the same stream as one draw per row
in node and feature order. Across a node's features the first strictly
highest gain wins, among gains that are finite and positive. The public
one-feature selectors (:func:`find_best_split`, :func:`extra_random_split`,
:func:`categorical_split`) run the same scan on a one-row block. Every float
sum is accumulated in the same order as a one-feature-at-a-time scan would
(no histogram is derived by subtraction), so the trees do not depend on how
many features or nodes share a scan.

A boundary is admissible only when both children hold at least
``min_data_in_leaf`` rows. A node with fewer than ``2 * min_data_in_leaf``
rows therefore has no admissible boundary; it stays a leaf before any
histogram is built or random draw made. This gate is what makes tiny
training sets unsplittable under large leaf floors.

The gain of a split is the hessian-weighted children score
``GL^2/HL + GR^2/HR`` minus the parent score ``(GL+GR)^2/(HL+HR)``.

Rows whose feature value is missing sit in a reserved trailing bin and are
attached to whichever side of a split yields the higher gain
(``default_left``; the left side on a tie).

Rows are routed through a node by one kernel, ``_route``, which prediction
(:meth:`Tree.predict_bins`, and so the training-score update) and the
grower's partition share. It reads the node feature's bin column as a 1-D
view of the (rows x features) bin matrix, in any memory order, and gathers
it once for the node's rows; at the root, which every row reaches, it
compares the column in place. The go-left mask is one comparison (``<=``
the threshold bin, ``==`` a single category, ``isin`` for several), the
missing-value bin is folded into it with one op, and the two sides come
back as row ids in their original order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from math import isfinite
from typing import Any, Iterator, NamedTuple, Sequence

import numpy as np

from .dataset import BinnedDataset, CATEGORICAL
from .errors import DECODE_ERRORS, ValidationError, describe, integer
from .params import Params

LEAF_VALUE_CLAMP = 1e4

# ---------------------------------------------------------------------------
# split-search state


@dataclass
class FeatureHistogram:
    """Per-bin accumulated gradient statistics for one feature at one node."""

    feature: int
    sum_grad: np.ndarray
    sum_hess: np.ndarray
    count: np.ndarray
    missing_bin: int
    is_categorical: bool = False


@dataclass
class NodeStats:
    """Rows at a node plus their folded gradient totals."""

    row_set: np.ndarray
    n: int
    sum_grad: float
    sum_hess: float

    @classmethod
    def from_rows(cls, rows, grads) -> "NodeStats":
        rows = np.asarray(rows, dtype=np.intp)
        return cls(
            row_set=rows,
            n=int(rows.size),
            sum_grad=float(grads.grad[rows].sum()),
            sum_hess=float(grads.hess[rows].sum()),
        )


class SplitCandidate(NamedTuple):
    """A single admissible split: numeric boundary or category subset."""

    feature: int
    gain: float
    n_left: int
    n_right: int
    default_left: bool
    threshold_bin: int | None = None
    left_cats: tuple[int, ...] | None = None


# ---------------------------------------------------------------------------
# gain evaluators


def _score(g, h):
    """Per-side score g^2/h; 0/0 is 0, x/0 is +inf. Call under ``np.errstate``."""
    return np.where(h > 0, g * g / h, np.where(g == 0, 0.0, np.inf))


def _missing_left(sides, miss, total, running, out):
    """The children of every candidate with its missing rows sent left, written to ``out``.

    ``sides`` stacks the left and right child of each candidate with the
    missing rows sent right, each as (sum_grad, sum_hess, rows) on the next
    axis; ``miss`` and ``total`` are the missing rows' and the node's sums
    and broadcast against one child. The right child becomes
    ``(right - miss)`` in the ``running`` rows (numeric running sums) and
    ``total - (left + miss)`` in the others: the two round differently, and
    each kind of row keeps its own formula.
    """
    np.add(sides[0], miss, out=out[0])
    if running.all():
        np.subtract(sides[1], miss, out=out[1])
    else:
        np.subtract(total, out[0], out=out[1])
        if running.any():
            out[1][:, running] = sides[1][:, running] - miss[:, running]


def _gains(sides, parent, min_leaf):
    """Gain of every candidate from its children's sums, laid out as in :func:`_missing_left`.

    Returns the gains and the mask of candidates with a child of fewer than
    ``min_leaf`` rows. The gain is the children score minus ``parent``, and
    -inf where that mask is set or the gain is NaN. Call under
    ``np.errstate``.
    """
    g, h, n = sides[:, 0], sides[:, 1], sides[:, 2]
    score = _score(g, h)
    gain = score[0] + score[1] - parent
    unfit = (n[0] < min_leaf) | (n[1] < min_leaf)
    gain[unfit | np.isnan(gain)] = -np.inf
    return gain, unfit


def _category_order(hist, k: int, params: Params) -> np.ndarray:
    """The categories whose prefixes are a prefix-cut row's left sets, in order.

    ``hist`` is the row's (3, width) gradient, hessian and row-count
    histogram, with its missing-value rows in column ``k``. Categories
    holding at least one and at least ``min_data_per_group`` rows are ordered
    by the smoothed score ``sum_grad / (sum_hess + cat_smooth)``, ties by
    category; the rest always route right. Call under ``np.errstate``.
    """
    grad, hess, count = hist[:, :k]
    eligible = np.flatnonzero((count > 0) & (count >= params.min_data_per_group))
    g, denom = grad[eligible], hess[eligible] + params.cat_smooth
    signed_inf = np.where(g > 0, np.inf, np.where(g < 0, -np.inf, 0.0))
    return eligible[np.argsort(np.where(denom > 0, g / denom, signed_inf), kind="stable")]


# ---------------------------------------------------------------------------
# histogram construction


def _histograms(offset_bins: np.ndarray, grad: np.ndarray, hess: np.ndarray,
                out: np.ndarray) -> None:
    """Write the gradient, hessian and row-count sums per flat bin id into ``out``.

    ``offset_bins`` is a (rows x features) array of bin ids already offset
    into one flat block per feature, and ``out`` a (3, bins) float array,
    one row per statistic; each statistic is one ``bincount``. Every bin
    accumulates its rows in row order, exactly as a per-feature ``bincount``
    would, so the sums are bit-identical to it.
    """
    flat = offset_bins.ravel()
    n_features = offset_bins.shape[1]
    size = out.shape[1]
    out[0] = np.bincount(flat, weights=grad.repeat(n_features), minlength=size)
    out[1] = np.bincount(flat, weights=hess.repeat(n_features), minlength=size)
    out[2] = np.bincount(flat, minlength=size)


# Kept public because bench/tracing.py wraps it by name; growth builds histograms in _scan.
def build_histogram(bds: BinnedDataset, feature: int, node: NodeStats, grads) -> FeatureHistogram:
    """Accumulate grad/hess/count per bin over the node's rows."""
    fb = bds.mapper[feature]
    rows = node.row_set
    sum_grad, sum_hess, count = block = np.empty((3, fb.n_bins))
    _histograms(bds.bins[rows, feature][:, None], grads.grad[rows], grads.hess[rows], block)
    return FeatureHistogram(
        feature=feature, sum_grad=sum_grad, sum_hess=sum_hess,
        count=count.astype(np.int64), missing_bin=fb.missing_bin,
        is_categorical=fb.kind == CATEGORICAL,
    )


# ---------------------------------------------------------------------------
# the split scan


def _best_splits(meta, hist, totals, starts, node_params: Sequence[Params],
                 draws) -> list[SplitCandidate | None]:
    """Best split of every node in a ragged (node, feature) histogram block, in one pass.

    Node ``j`` owns rows ``starts[j]:starts[j + 1]``, one per sampled feature
    in feature order, ``totals`` is the (3, nodes) array of every node's
    (sum_grad, sum_hess, n) and ``node_params[j]`` its tree's parameters,
    whose leaf floor, one-vs-other limit and categorical knobs its rows use.
    ``meta`` holds the rows' (feature, missing-value column, categorical
    flag), one row of ``meta`` per field. ``hist`` is the (3, rows, width) block of
    gradient, hessian and row-count histograms; row ``r`` is feature
    ``features[r]``: real bins first, its missing-value rows in column
    ``missing[r]``, zero padding after that.

    Every row's candidates share one pass. Column ``d`` is a left set: real
    bins ``0..d`` for a numeric row (a running sum), category ``d`` alone for
    a categorical row with at most ``max_cat_to_onehot`` present categories
    (the bin itself), and otherwise the first ``d + 1`` categories of
    :func:`_category_order` (a prefix cut, each summed on its own, since a
    running sum rounds differently from 8 categories on). The left and right
    sums with the missing rows sent right fill one buffer; the rows that hold
    missing rows append a copy with them sent left (elsewhere both directions
    give the same sums). Prefix cuts then add ``cat_l2`` to every hessian of
    their children and of their parent, and every gain of the buffer is
    scored at once. Inadmissible columns are masked once and greedy rows take
    one ``argmax``.

    ``draws`` lists ``(rng, lo, hi)`` for every extra-trees tree: the rows
    ``lo:hi`` belong to the tree drawing from ``rng``, and each of them with
    an admissible numeric boundary or prefix cut draws one. A boundary is
    admissible with a non-NaN gain whose children hold ``min_data_in_leaf``
    rows in one missing direction, a prefix cut on those row counts alone.
    Every other row is greedy and keeps its first best candidate; one-vs-other
    rows are greedy in every tree. Across a node's rows the first strictly
    highest gain wins (the missing rows go left on a tie), and a row's gain
    counts only if it is finite and positive.
    """
    starts = np.asarray(starts)
    n_nodes = starts.size - 1
    width = hist.shape[2] - 1  # the last column is no row's left set
    if width < 1:  # no feature has a real bin
        return [None] * n_nodes
    features, missing, is_cat = meta
    is_cat = is_cat.astype(bool)
    n_rows = features.size
    rows = np.arange(n_rows)
    node_size = starts[1:] - starts[:-1]
    node_of = np.repeat(np.arange(n_nodes), node_size)
    min_leaf = np.array([p.min_data_in_leaf for p in node_params])[node_of, None]
    total = totals[:, node_of, None]
    miss = hist[:, rows, missing][:, :, None]
    numeric = ~is_cat
    extra = np.zeros(n_rows, dtype=bool)  # rows of extra-trees trees
    for _, lo, hi in draws:
        extra[lo:hi] = True
    one_hot = is_cat.copy()
    if is_cat.any():
        present = (hist[2, :, :-1] > 0) & (np.arange(width) < missing[:, None])
        max_onehot = np.array([p.max_cat_to_onehot for p in node_params])[node_of]
        one_hot &= present.sum(axis=1) <= max_onehot
    prefix = is_cat & ~one_hot
    drawing = extra & ~one_hot
    # a numeric boundary needs a real bin on its right, and a prefix cut a category
    limit = missing - numeric
    orders = {}

    with np.errstate(divide="ignore", invalid="ignore"):
        parent = _score(total[0], total[1])
        # the children of every candidate with the missing rows sent right,
        # then with them sent left in the rows that hold missing rows
        held = np.flatnonzero(miss[2, :, 0] > 0)
        scored = np.concatenate([rows, held]) if held.size else slice(None)
        sides = np.empty((2, 3, n_rows + held.size, width))
        right = sides[:, :, :n_rows]
        np.cumsum(hist[:, :, :-1], axis=2, out=right[0])
        if one_hot.any():
            right[0][:, one_hot] = hist[:, one_hot, :-1]
        for r in np.flatnonzero(prefix).tolist():
            order = _category_order(hist[:, r], int(missing[r]), node_params[node_of[r]])
            orders[r], limit[r] = order, order.size
            cats = hist[:, r].take(order, axis=1)  # C order: each row sums as a 1-D sum
            for d in range(order.size):
                right[0, :, r, d] = cats[:, :d + 1].sum(axis=1)
        np.subtract(total, right[0], out=right[1])
        if held.size:
            _missing_left(right[:, :, held], miss[:, held], total[:, held], numeric[held],
                          sides[:, :, n_rows:])
        if orders:
            l2 = np.zeros((n_rows, 1))
            l2[list(orders), 0] = [node_params[node_of[r]].cat_l2 for r in orders]
            sides[:, 1, prefix[scored]] += l2[scored][prefix[scored]]
            parent[prefix] = _score(total[0, prefix], total[1, prefix] + l2[prefix])
        gains, unfit = _gains(sides, parent[scored], min_leaf[scored])
        best = gains[:n_rows]
        if held.size:
            use_left = gains[n_rows:] >= best[held]
            best[held] = np.where(use_left, gains[n_rows:], best[held])
        # one-vs-other columns must be categories present at the node
        inadmissible = np.arange(width) >= limit[:, None]
        if one_hot.any():
            inadmissible[one_hot] |= ~present[one_hot]
        best[inadmissible] = -np.inf

    sizes = np.zeros(n_rows, dtype=np.int64)  # admissible draws per row
    drawn = np.zeros(n_rows, dtype=np.int64)
    if draws:
        admissible = best > -np.inf
        cut = prefix & extra
        if cut.any():
            fits = ~unfit[:n_rows]
            if held.size:
                fits[held] |= ~unfit[n_rows:]
            admissible[cut] = fits[cut] & ~inadmissible[cut]
        sizes[drawing] = admissible[drawing].sum(axis=1)
        # one draw per tree over its rows with an admissible candidate
        nonzero = np.flatnonzero(sizes)
        bounds = np.searchsorted(nonzero, [d[1:] for d in draws]).tolist()
        for (rng, _, _), (a, b) in zip(draws, bounds):
            if b > a:
                idx = nonzero[a:b]
                drawn[idx] = rng.integers(0, sizes[idx])
    # each row's column: greedy rows their first best, drawing rows their drawn-th admissible
    pick = np.argmax(best, axis=1)
    if drawing.any():
        pick[drawing] = np.argmax(np.cumsum(admissible[drawing], axis=1)
                                  > drawn[drawing, None], axis=1)
    gain = best[rows, pick]
    n_left = sides[0, 2, rows, pick]
    default_left = np.ones(n_rows, dtype=bool)
    if held.size:
        default_left[held] = use_left[np.arange(held.size), pick[held]]
        n_left[held] += np.where(default_left[held], miss[2, held, 0], 0.0)

    # first strictly highest finite positive gain per node: a padded argmax
    valid = np.where((gain > 0) & (gain < np.inf), gain, -np.inf)
    table = np.full((n_nodes, int(node_size.max())), -np.inf)
    table[node_of, rows - starts[node_of]] = valid
    best_row = np.argmax(table, axis=1)
    split = np.flatnonzero(table[np.arange(n_nodes), best_row] > -np.inf)
    chosen = starts[split] + best_row[split]
    out: list[SplitCandidate | None] = [None] * n_nodes
    for j, r, f, g, nl, n, d, left, cat in zip(
            split.tolist(), chosen.tolist(), features[chosen].tolist(), gain[chosen].tolist(),
            n_left[chosen].astype(np.int64).tolist(), totals[2, split].astype(np.int64).tolist(),
            pick[chosen].tolist(), default_left[chosen].tolist(), is_cat[chosen].tolist()):
        if not cat:
            cats = None
        elif r in orders:
            cats = tuple(sorted(orders[r][:d + 1].tolist()))
        else:
            cats = (d,)
        out[j] = SplitCandidate(f, g, nl, n - nl, left, None if cat else d, cats)
    return out


# The one-feature selectors below stay public because bench/tracing.py wraps them by name.
def _one_feature(hist: FeatureHistogram, node: NodeStats, params: Params,
                 rng: np.random.Generator | None) -> SplitCandidate | None:
    """The node scan over a single feature's histogram."""
    meta = np.array([[hist.feature], [hist.missing_bin], [hist.is_categorical]], dtype=np.intp)
    block = np.array([hist.sum_grad, hist.sum_hess, hist.count], dtype=np.float64)[:, None]
    return _best_splits(meta, block, np.array([[node.sum_grad], [node.sum_hess], [node.n]]),
                        [0, 1], [params], [] if rng is None else [(rng, 0, 1)])[0]


def find_best_split(hist: FeatureHistogram, node: NodeStats,
                    params: Params) -> SplitCandidate | None:
    """Best admissible boundary for a numeric feature, or None.

    None means not splittable: either no boundary passes the
    ``min_data_in_leaf`` gate on both sides, or the best gain is not a
    finite positive number.
    """
    if hist.is_categorical:
        raise ValidationError("find_best_split handles numeric features; use categorical_split")
    return _one_feature(hist, node, params, None)


def extra_random_split(hist: FeatureHistogram, node: NodeStats, params: Params,
                       rng: np.random.Generator) -> SplitCandidate | None:
    """One uniformly random admissible boundary instead of the greedy best.

    Admissibility is the same ``min_data_in_leaf`` gate (a boundary counts as
    admissible when at least one missing-value direction passes with a
    non-NaN gain). The drawn boundary keeps its higher-gain missing direction
    and is still rejected if its gain is not finite-positive.
    """
    if hist.is_categorical:
        raise ValidationError("extra_random_split handles numeric features; use categorical_split")
    return _one_feature(hist, node, params, rng)


def categorical_split(hist: FeatureHistogram, node: NodeStats, params: Params,
                      rng: np.random.Generator | None = None) -> SplitCandidate | None:
    """Best admissible categorical split, or None.

    With at most ``max_cat_to_onehot`` distinct categories at the node, every
    one-vs-other split (a single category on the left) is evaluated. With
    more, categories are ordered by the smoothed score
    ``sum_grad / (sum_hess + cat_smooth)``, categories holding fewer than
    ``min_data_per_group`` rows are dropped from the ordering (their rows
    always route right), and prefix cuts of the ordering are scanned with
    ``cat_l2`` added to each side's hessian denominator. When ``rng`` is
    given and ``extra_trees`` is on, the prefix cut is drawn uniformly from
    the admissible ones (both children hold ``min_data_in_leaf`` rows in
    either missing direction, whatever the gain) instead of greedily
    maximized.
    """
    if not hist.is_categorical:
        raise ValidationError("categorical_split requires a categorical feature histogram")
    return _one_feature(hist, node, params, rng if params.extra_trees else None)


# ---------------------------------------------------------------------------
# tree structure and growth


@dataclass(slots=True)
class TreeNode:
    """One node; a leaf has ``feature`` -1. Slots keep a batch's many small trees light."""

    value: float = 0.0
    count: int = 0
    feature: int = -1
    threshold_bin: int = -1
    left_cats: tuple[int, ...] | None = None
    missing_bin: int = -1
    default_left: bool = False
    left: int = -1
    right: int = -1

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


@dataclass(slots=True)
class Tree:
    nodes: list[TreeNode] = field(default_factory=list)
    num_leaves_used: int = 0

    @property
    def is_single_leaf(self) -> bool:
        return len(self.nodes) == 1

    def internal_nodes(self) -> Iterator[TreeNode]:
        return (nd for nd in self.nodes if not nd.is_leaf)

    def predict_bins(self, bins: np.ndarray) -> np.ndarray:
        """Leaf value per row of a binned (rows x features) matrix, in any memory order."""
        out = np.zeros(bins.shape[0], dtype=np.float64)
        nodes = self.nodes
        stack: list[tuple[int, np.ndarray | None]] = [(0, None)]  # None: every row
        while stack:
            nid, rows = stack.pop()
            nd = nodes[nid]
            if nd.feature < 0:
                if rows is None:
                    out.fill(nd.value)
                else:
                    out[rows] = nd.value
            elif rows is None or rows.size:
                left, right = _route(bins[:, nd.feature], rows, nd)
                stack.append((nd.left, left))
                stack.append((nd.right, right))
        return out

    def to_dict(self) -> dict:
        return {"num_leaves_used": self.num_leaves_used, "root": self._node_dict(0)}

    def _node_dict(self, nid: int) -> dict:
        nd = self.nodes[nid]
        if nd.is_leaf:
            return {"leaf": nd.value, "count": nd.count}
        d = {
            "feature": nd.feature,
            "count": nd.count,
            "default_left": nd.default_left,
            "missing_bin": nd.missing_bin,
            "left": self._node_dict(nd.left),
            "right": self._node_dict(nd.right),
        }
        if nd.left_cats is not None:
            d["left_cats"] = [int(c) for c in nd.left_cats]
        else:
            d["threshold_bin"] = nd.threshold_bin
        return d

    @classmethod
    def from_dict(cls, d: dict, missing_bins: Sequence[int]) -> "Tree":
        """Decode one bundle tree of a model with these features' missing bins, or ValidationError.

        One pass builds and checks each node: integer fields and ``left_cats``
        entries must be JSON integers (not a bool, a float or a string),
        ``default_left`` a bool, a leaf value a finite number, and a split
        feature one of ``missing_bins`` with its own ``missing_bin``. A bad
        node's message names it by its depth-first index, and its field; so
        does a tree too deep to recurse.
        """
        nodes: list[TreeNode] = []

        def build(nd: dict) -> int:
            nid = len(nodes)
            try:
                count = nd["count"]
                if type(count) is not int:
                    raise _BadField("count")
                if "leaf" in nd:
                    value = nd["leaf"]
                    if type(value) is int:
                        value = float(value)
                    if type(value) is not float or not isfinite(value):
                        raise _BadField("leaf")
                    nodes.append(TreeNode(value, count))
                    return nid
                feature, missing_bin = nd["feature"], nd["missing_bin"]
                default_left = nd["default_left"]
                if type(feature) is not int:
                    raise _BadField("feature")
                if type(missing_bin) is not int:
                    raise _BadField("missing_bin")
                if type(default_left) is not bool:
                    raise _BadField("default_left")
                if "left_cats" in nd:
                    cats, threshold_bin = nd["left_cats"], -1
                    if type(cats) is not list or not {*map(type, cats)} <= {int}:
                        raise _BadField("left_cats")
                    cats = tuple(cats)
                else:
                    cats, threshold_bin = None, nd["threshold_bin"]
                    if type(threshold_bin) is not int:
                        raise _BadField("threshold_bin")
                left, right = nd["left"], nd["right"]
            except DECODE_ERRORS as exc:
                raise ValidationError(f"node {nid}: {_node_fault(nd, exc)}") from exc
            if not 0 <= feature < len(missing_bins):
                raise ValidationError(f"split feature {feature} is not one of the model's "
                                      f"{len(missing_bins)} features")
            if missing_bin != (want := missing_bins[feature]):
                raise ValidationError(f"node {nid}: field 'missing_bin' must be {want}, "
                                      f"feature {feature}'s missing bin, got {missing_bin}")
            # positional, in field order: keywords cost more per node
            node = TreeNode(0.0, count, feature, threshold_bin, cats, missing_bin, default_left)
            nodes.append(node)
            node.left = build(left)
            node.right = build(right)
            return nid

        try:
            tree = cls(nodes=nodes, num_leaves_used=integer("num_leaves_used",
                                                             d["num_leaves_used"]))
            build(d["root"])
        except DECODE_ERRORS as exc:  # a RecursionError raised between two nodes, too
            raise ValidationError(describe(exc)) from exc
        return tree


class _BadField(ValueError):
    """A bundle node's field, named by the one argument, holds a bad value."""


def _node_fault(nd: Any, exc: Exception) -> str:
    """What keeps a bundle node from decoding, in words, once decoding it has raised ``exc``."""
    if not isinstance(nd, dict):
        return f"a node must be an object, got {type(nd).__name__}"
    if not isinstance(exc, _BadField):
        return describe(exc)
    key = exc.args[0]
    if key == "leaf":
        return f"leaf value must be a finite number, got {nd[key]!r}"
    want = {"default_left": "a bool", "left_cats": "a list of integers"}.get(key, "an integer")
    return f"field {key!r} must be {want}, got {nd[key]!r}"


def _route(col: np.ndarray, rows: np.ndarray | None,
           node: TreeNode) -> tuple[np.ndarray, np.ndarray]:
    """Split ``rows`` at an internal ``node``: the rows that go left, then those that go right.

    ``col`` is the bin column of the node's feature, a 1-D view of any
    stride, and ``rows`` the row ids that reach the node; None means every
    row, and the column is compared in place. A row goes left when its bin
    is at most ``threshold_bin`` or one of ``left_cats``; a row in
    ``missing_bin`` goes left exactly when ``default_left`` is set. Both
    results keep the order of ``rows``.
    """
    fb = col if rows is None else col[rows]
    cats = node.left_cats
    if cats is None:
        go = fb <= node.threshold_bin
    elif len(cats) == 1:
        go = fb == cats[0]
    else:
        go = np.isin(fb, cats)
    if node.default_left:
        go |= fb == node.missing_bin
    else:
        go &= fb != node.missing_bin
    left, right = go.nonzero()[0], (~go).nonzero()[0]
    if rows is None:
        return left, right
    return rows[left], rows[right]


def _leaf_value(stats: NodeStats) -> float:
    if stats.sum_hess <= 0.0:
        return 0.0
    v = -stats.sum_grad / stats.sum_hess
    return min(max(v, -LEAF_VALUE_CLAMP), LEAF_VALUE_CLAMP)


class GrowJob(NamedTuple):
    """One tree to grow: its data, gradients, in-bag rows, features, generator and params.

    Every job of a batch needs its own generator. ``params`` governs this
    tree alone: its leaf floor and budget, greedy or extra-trees selection
    and the categorical knobs.
    """

    bds: BinnedDataset
    grads: Any
    row_set: Any
    feature_subset: Any
    rng: np.random.Generator
    params: Params


class _Grower:
    """One tree's growth state: its frontier of scanned leaves and its scan fields."""

    def __init__(self, job: GrowJob):
        row_set = np.asarray(job.row_set, dtype=np.intp)
        if row_set.size == 0:
            raise ValidationError("grow_tree requires a non-empty row set")
        self.bds, self.grads, self.rng, self.params = job.bds, job.grads, job.rng, job.params
        features = np.sort(np.asarray(job.feature_subset, dtype=np.intp))
        # the scan's per-feature row fields, as _best_splits reads them
        self.features = features
        self.meta = np.vstack([features, self.bds.scan_fields[:, features]])
        self.width = int(self.meta[1].max()) + 1 if features.size else 0
        self.offset_bins: np.ndarray | None = None  # built at the tree's first scanned node
        self.root = NodeStats.from_rows(row_set, self.grads)
        self.tree = Tree(nodes=[TreeNode(value=_leaf_value(self.root), count=self.root.n)],
                         num_leaves_used=1)
        self.frontier: list[tuple[float, int, SplitCandidate, NodeStats]] = []

    def split(self) -> list[tuple["_Grower", int, NodeStats]]:
        """Split the best frontier leaf; return the children to scan, left first.

        A greedy tree that this split brings to its leaf budget returns none:
        it never splits again, and its scans draw nothing. An extra-trees
        tree's children are scanned even then, since their draws advance the
        generator that the model's next round draws its bag from.
        """
        _, nid, cand, stats = heapq.heappop(self.frontier)
        nodes = self.tree.nodes
        node = nodes[nid]
        node.feature = cand.feature
        node.default_left = cand.default_left
        node.missing_bin = self.bds.mapper[cand.feature].missing_bin
        if cand.left_cats is not None:
            node.left_cats = cand.left_cats
        else:
            node.threshold_bin = cand.threshold_bin
        left_rows, right_rows = _route(self.bds.bins[:, cand.feature], stats.row_set, node)
        assert left_rows.size == cand.n_left and right_rows.size == cand.n_right

        left_stats = NodeStats.from_rows(left_rows, self.grads)
        right_stats = NodeStats.from_rows(right_rows, self.grads)
        node.left = len(nodes)
        nodes.append(TreeNode(value=_leaf_value(left_stats), count=left_stats.n))
        node.right = len(nodes)
        nodes.append(TreeNode(value=_leaf_value(right_stats), count=right_stats.n))
        self.tree.num_leaves_used += 1
        if self.tree.num_leaves_used >= self.params.num_leaves and not self.params.extra_trees:
            return []
        return [(self, node.left, left_stats), (self, node.right, right_stats)]


def _scan(pending: list[tuple[_Grower, int, NodeStats]],
          width: int) -> list[SplitCandidate | None]:
    """One split scan over every pending node; each tree's nodes are adjacent."""
    out: list[SplitCandidate | None] = [None] * len(pending)
    scanned, starts, draws = [], [0], []
    for i, (grower, _, stats) in enumerate(pending):
        # no boundary can leave min_data_in_leaf rows on both sides
        if stats.n < 2 * grower.params.min_data_in_leaf or grower.features.size == 0:
            continue
        scanned.append(i)
        lo, hi = starts[-1], starts[-1] + grower.features.size
        starts.append(hi)
        if grower.params.extra_trees:
            if draws and draws[-1][0] is grower.rng:
                draws[-1] = (grower.rng, draws[-1][1], hi)
            else:
                draws.append((grower.rng, lo, hi))
    if not scanned:
        return out
    # each scanned node's rows of the step's meta, totals and (3, rows, width) histogram block
    meta = np.empty((3, starts[-1]), dtype=np.intp)
    totals = np.empty((3, len(scanned)))
    hist = np.empty((3, starts[-1] * width))
    for j, i in enumerate(scanned):
        grower, _, stats = pending[i]
        lo, hi = starts[j], starts[j + 1]
        meta[:, lo:hi] = grower.meta
        totals[:, j] = stats.sum_grad, stats.sum_hess, stats.n
        if grower.offset_bins is None:
            grower.offset_bins = (grower.bds.bins[:, grower.features]
                                  + np.arange(hi - lo) * width)
        rows = stats.row_set
        _histograms(grower.offset_bins[rows], grower.grads.grad[rows], grower.grads.hess[rows],
                    hist[:, lo * width:hi * width])
    cands = _best_splits(meta, hist.reshape(3, starts[-1], width), totals, starts,
                         [pending[i][0].params for i in scanned], draws)
    for i, cand in zip(scanned, cands):
        out[i] = cand
    return out


def grow_trees(jobs: Sequence[GrowJob]) -> list[Tree]:
    """Grow one tree per job leaf-wise (best-first) under the leaf budget, in lockstep.

    Each tree follows its job's ``params`` and splits the frontier leaf with
    the highest candidate gain until its ``num_leaves`` is reached or nothing
    is splittable. All trees take their growth steps together, and each step
    scans every new leaf of every tree at once; a tree comes out as
    :func:`grow_tree` would grow it alone under its own parameters, and its
    generator ends in the same state. Leaf values are the Newton step ``-sum_grad / sum_hess``
    clamped to +-1e4.
    """
    growers = [_Grower(job) for job in jobs]
    width = max((g.width for g in growers), default=0)
    pending = [(g, 0, g.root) for g in growers]
    while pending:
        for (grower, nid, stats), cand in zip(pending, _scan(pending, width)):
            if cand is not None:
                heapq.heappush(grower.frontier, (-cand.gain, nid, cand, stats))
        pending = [child for g in growers
                   if g.frontier and g.tree.num_leaves_used < g.params.num_leaves
                   for child in g.split()]
    return [g.tree for g in growers]


def grow_tree(bds: BinnedDataset, grads, row_set, feature_subset, params: Params,
              rng: np.random.Generator) -> Tree:
    """Grow one tree leaf-wise (best-first): :func:`grow_trees` on one job."""
    return grow_trees([GrowJob(bds, grads, row_set, feature_subset, rng, params)])[0]
