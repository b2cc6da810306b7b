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
every scan of it. :func:`grow_tree` is a batch of one.

Each scanned node builds its gradient, hessian and row-count histograms with
one ``bincount`` each over feature-offset bin ids, laid out as a (features x
bins) block. The scan stacks these blocks into one ragged block of (node,
feature) rows, padded to the widest feature of the batch; column
``missing_bin`` of a row holds its missing-value rows, and padded columns are
never admissible. Numeric boundaries are scored by one ``cumsum`` along the
rows, against each row's own leaf floor. Categorical features with at most
their node's ``max_cat_to_onehot`` present categories score every
one-vs-other split in the same vectorised pass. With more categories, the
categories are ordered by their smoothed gradient/hessian ratio and each
prefix of that order is a candidate left set. Selection is vectorised too,
by a per-row mode: a greedy tree's rows take their first best boundary; an
extra-trees tree's rows count their admissible boundaries, and all of that
tree's rows of one step draw with a single ``rng.integers(0, sizes)``, which
yields the same stream as one draw per row in node and feature order. Across
a node's features the first strictly highest gain wins, among gains that are
finite and positive. The public one-feature selectors
(:func:`find_best_split`, :func:`extra_random_split`,
:func:`categorical_split`) run the same scan on a one-row block. Every float
sum is accumulated in the same order as a one-feature-at-a-time scan would
(no histogram is derived by subtraction), so the trees do not depend on how
many features or nodes share a scan.

A boundary is admissible only when both children hold at least
``min_data_in_leaf`` rows. A node with fewer than ``2 * min_data_in_leaf``
rows therefore has no admissible boundary; it stays a leaf before any
histogram is built or random draw made. This gate is what makes tiny
training sets unsplittable under large leaf floors.

Two gain evaluators are provided. The default is the hessian-weighted
children score ``GL^2/HL + GR^2/HR`` minus the parent score
``(GL+GR)^2/(HL+HR)``. The alternative is the count-normalized variance form
``(GL^2/n_left + GR^2/n_right) / n_node``, kept for cross-checking: with unit
hessians the children score equals ``n_node`` times the variance form, so
both evaluators rank boundaries identically.

Rows whose feature value is missing sit in a reserved trailing bin and are
attached to whichever side of a split yields the higher gain
(``default_left``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Iterator, NamedTuple, Sequence

import numpy as np

from .dataset import BinnedDataset, CATEGORICAL
from .errors import ValidationError
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


@dataclass(frozen=True)
class SplitCandidate:
    """A single admissible split: numeric boundary or category subset."""

    feature: int
    gain: float
    n_left: int
    n_right: int
    default_left: bool
    threshold_bin: int | None = None
    left_cats: tuple[int, ...] | None = None

    @property
    def is_categorical(self) -> bool:
        return self.left_cats is not None


# ---------------------------------------------------------------------------
# gain evaluators


def _score(g, h):
    """Per-side score g^2/h; 0/0 is 0, x/0 is +inf. Call under ``np.errstate``."""
    return np.where(h > 0, g * g / h, np.where(g == 0, 0.0, np.inf))


def _side_score(g, h):
    """Hessian-form per-side score g^2/h; 0/0 is 0, x/0 is +inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return _score(np.asarray(g, dtype=np.float64), np.asarray(h, dtype=np.float64))


def children_score(g_left: float, h_left: float, g_right: float, h_right: float) -> float:
    """Hessian-form two-child score GL^2/HL + GR^2/HR."""
    return float(_side_score(g_left, h_left) + _side_score(g_right, h_right))


def split_gain(g_left: float, h_left: float, g_right: float, h_right: float) -> float:
    """Children score minus the parent score (always >= 0 for h > 0)."""
    return children_score(g_left, h_left, g_right, h_right) - float(
        _side_score(g_left + g_right, h_left + h_right)
    )


def variance_gain(g_left, n_left, g_right, n_right, n_node) -> np.ndarray | float:
    """Count-normalized variance-after-split: (GL^2/nl + GR^2/nr) / n_node.

    ``n_node`` may be an array that broadcasts against the sides.
    """
    g_left = np.asarray(g_left, dtype=np.float64)
    g_right = np.asarray(g_right, dtype=np.float64)
    nl = np.asarray(n_left, dtype=np.float64)
    nr = np.asarray(n_right, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        left = np.where(nl > 0, g_left * g_left / np.where(nl > 0, nl, 1.0), 0.0)
        right = np.where(nr > 0, g_right * g_right / np.where(nr > 0, nr, 1.0), 0.0)
    out = (left + right) / np.asarray(n_node, dtype=np.float64)
    return float(out) if np.ndim(out) == 0 else out


def _gain(gl, hl, nl, gr, hr, nr, parent, n_node, min_leaf, gain_form: str):
    """Elementwise gain of sending (gl, hl, nl) left and (gr, hr, nr) right.

    Returns the gain, -inf where a side holds fewer than ``min_leaf`` rows or
    the gain is NaN, and the row-count gate itself. ``parent`` is the parent
    score of the hessian form, ``n_node`` the node's row count and
    ``min_leaf`` the leaf floor; all three broadcast against the sides.
    """
    ok = (nl >= min_leaf) & (nr >= min_leaf)
    if gain_form == "hessian":
        gain = _score(gl, hl) + _score(gr, hr) - parent
    elif gain_form == "variance":
        gain = variance_gain(gl, nl, gr, nr, n_node)
    else:
        raise ValidationError(f"unknown gain_form {gain_form!r}")
    return np.where(ok, np.where(np.isnan(gain), -np.inf, gain), -np.inf), ok


def _both_directions(miss_left, miss_right, parent, n_node, min_leaf,
                     gain_form: str = "hessian"):
    """Score each candidate with its missing rows on either side.

    ``miss_left`` and ``miss_right`` are the (gl, hl, nl, gr, hr, nr)
    partitions with the missing rows sent left and right. Returns the better
    direction's gain (ties go left), ``default_left``, the left row count and
    whether either direction passes the row-count gate.
    """
    gain_l, ok_l = _gain(*miss_left, parent, n_node, min_leaf, gain_form)
    gain_r, ok_r = _gain(*miss_right, parent, n_node, min_leaf, gain_form)
    use_left = gain_l >= gain_r
    n_left = np.where(use_left, miss_left[2], miss_right[2])
    return np.where(use_left, gain_l, gain_r), use_left, n_left, ok_l | ok_r


def _left_sets(gl, hl, nl, mg, mh, mc, tg, th, tn, min_leaf, l2: float, parent):
    """Both missing directions for category sets whose sums exclude missing rows.

    ``tg``, ``th`` and ``tn`` are the node's totals. ``l2`` is added to every
    hessian, and ``parent`` must include it too.
    """
    gml, hml, nml = gl + mg, hl + mh, nl + mc
    hr, hmr = th - hl, th - hml
    if l2:
        hl, hr, hml, hmr = hl + l2, hr + l2, hml + l2, hmr + l2
    return _both_directions((gml, hml, nml, tg - gml, hmr, tn - nml),
                            (gl, hl, nl, tg - gl, hr, tn - nl), parent, tn, min_leaf)


# ---------------------------------------------------------------------------
# histogram construction


def _histograms(offset_bins: np.ndarray, grad: np.ndarray, hess: np.ndarray, size: int):
    """Gradient, hessian and row-count sums per flat bin id.

    ``offset_bins`` is a (rows x features) array of bin ids already offset
    into one flat block per feature; each statistic is one ``bincount``.
    Every bin accumulates its rows in row order, exactly as a per-feature
    ``bincount`` would, so the sums are bit-identical to it.
    """
    flat = offset_bins.ravel()
    n_features = offset_bins.shape[1]
    return (np.bincount(flat, weights=np.repeat(grad, n_features), minlength=size),
            np.bincount(flat, weights=np.repeat(hess, n_features), minlength=size),
            np.bincount(flat, minlength=size))


def build_histogram(bds: BinnedDataset, feature: int, node: NodeStats, grads) -> FeatureHistogram:
    """Accumulate grad/hess/count per bin over the node's rows."""
    fb = bds.mapper[feature]
    rows = node.row_set
    sum_grad, sum_hess, count = _histograms(bds.bins[rows, feature][:, None],
                                            grads.grad[rows], grads.hess[rows], fb.n_bins)
    return FeatureHistogram(
        feature=feature, sum_grad=sum_grad, sum_hess=sum_hess,
        count=count.astype(np.int64), missing_bin=fb.missing_bin,
        is_categorical=fb.kind == CATEGORICAL,
    )


# ---------------------------------------------------------------------------
# the split scan


def _best_splits(features, missing, is_cat, grad, hess, count, totals, starts,
                 node_params: Sequence[Params], gain_form: str,
                 draws) -> list[SplitCandidate | None]:
    """Best split of every node in a ragged (node, feature) histogram block.

    Node ``j`` owns rows ``starts[j]:starts[j + 1]``, one per sampled feature
    in feature order, ``totals`` holds every node's (sum_grad, sum_hess, n)
    and ``node_params[j]`` its tree's parameters: each row is gated by its
    node's ``min_data_in_leaf`` and ``max_cat_to_onehot``, and its prefix
    cuts use its node's categorical knobs. Row ``r`` of
    ``grad``/``hess``/``count`` is the histogram of feature ``features[r]``:
    real bins first, its missing-value rows in column ``missing[r]``, zero
    padding after that. Numeric boundary ``d`` sends real bins ``0..d`` left.

    ``draws`` lists ``(rng, lo, hi)`` for every extra-trees tree: the rows
    ``lo:hi`` belong to the tree drawing from ``rng``, and each of them with
    an admissible numeric boundary or prefix cut draws one, numeric
    boundaries scored in hessian form. Every other row is greedy and keeps
    its first best candidate, numeric boundaries scored under ``gain_form``.
    One-vs-other categorical splits are greedy in every row. Across a node's
    rows the first strictly highest gain wins, and a row's gain counts only
    if it is finite and positive.
    """
    n_nodes = len(starts) - 1
    width = grad.shape[1]
    if width < 2:  # no feature has a real bin
        return [None] * n_nodes
    n_rows = len(features)
    rows = np.arange(n_rows)
    node_size = np.diff(starts)
    node_of = np.repeat(np.arange(n_nodes), node_size)
    tg, th, tn = (np.asarray(t)[node_of][:, None] for t in totals)
    # each row's leaf floor and one-vs-other limit, from its node's parameters
    min_leaf, max_onehot = np.array([(p.min_data_in_leaf, p.max_cat_to_onehot)
                                     for p in node_params])[node_of].T
    min_leaf = min_leaf[:, None]
    mg, mh, mc = (a[rows, missing][:, None] for a in (grad, hess, count))
    numeric = ~is_cat
    extra = np.zeros(n_rows, dtype=bool)  # rows of extra-trees trees
    for _, lo, hi in draws:
        extra[lo:hi] = True
    greedy = ~extra
    # each row's chosen boundary, category or prefix: column, gain, side, rows left
    pick = np.zeros(n_rows, dtype=np.intp)
    gain = np.full(n_rows, -np.inf)
    left = np.zeros(n_rows, dtype=bool)
    n_left = np.zeros(n_rows, dtype=np.int64)
    sizes = np.zeros(n_rows, dtype=np.int64)  # admissible draws per row

    def choose(mask, row_gain, row_left, row_n, col):
        idx = np.flatnonzero(mask)
        col = col[idx]
        pick[idx], gain[idx] = col, row_gain[idx, col]
        left[idx], n_left[idx] = row_left[idx, col], row_n[idx, col]

    with np.errstate(divide="ignore", invalid="ignore"):
        parent = _score(tg, th)
        if numeric.any():
            cg, ch, cc = (np.cumsum(a[:, :-1], axis=1) for a in (grad, hess, count))

            def numeric_gains(form):
                return _both_directions(
                    (cg + mg, ch + mh, cc + mc, tg - cg - mg, th - ch - mh, tn - cc - mc),
                    (cg, ch, cc, tg - cg, th - ch, tn - cc), parent, tn, min_leaf, form)[:3]

            num_gain, num_left, num_n = numeric_gains("hessian" if draws else gain_form)
            if draws and gain_form != "hessian" and greedy.any():
                # the greedy rows of a mixed batch keep their own gain form
                num_gain, num_left, num_n = (
                    np.where(extra[:, None], a, b)
                    for a, b in zip((num_gain, num_left, num_n), numeric_gains(gain_form)))
            # from the last real bin on, no real bin is left on the right
            num_gain[np.arange(width - 1) >= missing[:, None] - 1] = -np.inf
            if draws:
                admissible = num_gain > -np.inf
                drawing = numeric & extra
                sizes[drawing] = admissible.sum(axis=1)[drawing]
        # categorical features with more present categories take prefix cuts
        one_hot = is_cat.copy()
        if is_cat.any():
            present = (count > 0) & (np.arange(width) < missing[:, None])
            one_hot &= present.sum(axis=1) <= max_onehot
        if one_hot.any():
            one_gain, one_left, one_n, _ = _left_sets(grad, hess, count, mg, mh, mc,
                                                      tg, th, tn, min_leaf, 0.0, parent)
            one_gain[~present] = -np.inf
            choose(one_hot, one_gain, one_left, one_n, np.argmax(one_gain, axis=1))
        prefix_rows = np.flatnonzero(is_cat & ~one_hot).tolist()
        cuts = {}
        for r in prefix_rows:
            j = node_of[r]
            cuts[r] = _prefix_cuts(grad[r], hess[r], count[r], int(missing[r]),
                                   totals[0][j], totals[1][j], totals[2][j], node_params[j])
            if extra[r] and cuts[r] is not None:
                sizes[r] = cuts[r][4].size

        drawn = np.zeros(n_rows, dtype=np.int64)
        for rng, lo, hi in draws:
            idx = lo + np.flatnonzero(sizes[lo:hi])
            if idx.size:
                drawn[idx] = rng.integers(0, sizes[idx])
        if numeric.any():
            choose(numeric & greedy, num_gain, num_left, num_n, np.argmax(num_gain, axis=1))
            if draws:
                # the drawn-th admissible boundary of each row
                col = np.argmax(np.cumsum(admissible, axis=1) > drawn[:, None], axis=1)
                choose(drawing & (sizes > 0), num_gain, num_left, num_n, col)
        for r in prefix_rows:
            if cuts[r] is None:
                continue
            cut_gain, cut_left, cut_n, _, admissible_cuts = cuts[r]
            if not extra[r]:
                p = int(np.argmax(cut_gain))
            elif admissible_cuts.size:
                p = int(admissible_cuts[drawn[r]])
            else:
                continue
            pick[r], gain[r], left[r], n_left[r] = p, cut_gain[p], cut_left[p], cut_n[p]

    # first strictly highest finite positive gain per node: a padded argmax
    valid = np.where((gain > 0) & (gain < np.inf), gain, -np.inf)
    table = np.full((n_nodes, int(node_size.max())), -np.inf)
    table[node_of, rows - np.asarray(starts)[node_of]] = valid
    best = np.argmax(table, axis=1)
    out: list[SplitCandidate | None] = [None] * n_nodes
    for j in np.flatnonzero(table[np.arange(n_nodes), best] > -np.inf).tolist():
        r = int(starts[j] + best[j])
        nl, d = int(n_left[r]), int(pick[r])
        if not is_cat[r]:
            cats = None
        elif r in cuts:
            cats = tuple(int(c) for c in np.sort(cuts[r][3][: d + 1]))
        else:
            cats = (d,)
        out[j] = SplitCandidate(feature=int(features[r]), gain=float(gain[r]), n_left=nl,
                                n_right=int(totals[2][j]) - nl, default_left=bool(left[r]),
                                threshold_bin=None if is_cat[r] else d, left_cats=cats)
    return out


def _prefix_cuts(grad, hess, count, k: int, tg, th, tn, params: Params):
    """Every prefix cut of one categorical histogram row, or None if none exists.

    Categories holding at least ``min_data_per_group`` rows are ordered by
    the smoothed score ``sum_grad / (sum_hess + cat_smooth)`` (ties by
    category); the rest always route right. Prefix ``p`` of the order (the
    first ``p + 1`` categories) is a left set, scored with ``cat_l2`` added to
    every hessian. Each prefix is summed on its own: a running sum rounds
    differently once a prefix holds 8 or more categories. Returns each cut's
    gain, ``default_left`` and left row count, the category order, and the
    cuts admissible for a random draw (either missing direction passes the
    row-count gate).
    """
    eligible = np.flatnonzero((count[:k] > 0) & (count[:k] >= params.min_data_per_group))
    if eligible.size == 0:
        return None
    g, denom = grad[eligible], hess[eligible] + params.cat_smooth
    signed_inf = np.where(g > 0, np.inf, np.where(g < 0, -np.inf, 0.0))
    ratio = np.where(denom > 0, g / denom, signed_inf)
    order = eligible[np.argsort(ratio, kind="stable")]
    prefixes = [order[:p] for p in range(1, order.size + 1)]
    l2 = params.cat_l2
    gain, use_left, n_left, admissible = _left_sets(
        np.array([grad[s].sum() for s in prefixes]), np.array([hess[s].sum() for s in prefixes]),
        np.cumsum(count[order]), grad[k], hess[k], count[k], tg, th, tn,
        params.min_data_in_leaf, l2, _score(np.float64(tg), np.float64(th + l2)))
    return gain, use_left, n_left, order, np.flatnonzero(admissible)


def _one_feature(hist: FeatureHistogram, node: NodeStats, params: Params, gain_form: str,
                 rng: np.random.Generator | None) -> SplitCandidate | None:
    """The node scan over a single feature's histogram."""
    return _best_splits(np.array([hist.feature]), np.array([hist.missing_bin]),
                        np.array([hist.is_categorical]), hist.sum_grad[None, :],
                        hist.sum_hess[None, :], hist.count[None, :],
                        ([node.sum_grad], [node.sum_hess], [node.n]), [0, 1], [params],
                        gain_form, [] if rng is None else [(rng, 0, 1)])[0]


def find_best_split(hist: FeatureHistogram, node: NodeStats, params: Params,
                    gain_form: str = "hessian") -> SplitCandidate | None:
    """Best admissible boundary for a numeric feature, or None.

    None means not splittable: either no boundary passes the
    ``min_data_in_leaf`` gate on both sides, or the best gain is not a
    finite positive number.
    """
    if hist.is_categorical:
        raise ValidationError("find_best_split handles numeric features; use categorical_split")
    return _one_feature(hist, node, params, gain_form, None)


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
    return _one_feature(hist, node, params, "hessian", rng)


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
    the admissible ones instead of greedily maximized.
    """
    if not hist.is_categorical:
        raise ValidationError("categorical_split requires a categorical feature histogram")
    return _one_feature(hist, node, params, "hessian", rng if params.extra_trees else None)


# ---------------------------------------------------------------------------
# tree structure and growth


def _goes_left(fb: np.ndarray, left_cats, threshold_bin: int) -> np.ndarray:
    """Which bin ids go left, before missing rows are routed (no ``isin`` for one category)."""
    if left_cats is None:
        return fb <= threshold_bin
    if len(left_cats) == 1:
        return fb == left_cats[0]
    return np.isin(fb, left_cats)


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
        """Leaf value per row of a binned matrix (vectorized routing)."""
        n = bins.shape[0]
        out = np.zeros(n, dtype=np.float64)
        root = self.nodes[0]
        if root.is_leaf:
            out[:] = root.value
            return out
        stack: list[tuple[int, np.ndarray]] = [(0, np.arange(n, dtype=np.intp))]
        while stack:
            nid, idx = stack.pop()
            nd = self.nodes[nid]
            if nd.is_leaf:
                out[idx] = nd.value
                continue
            if idx.size == 0:
                continue
            fb = bins[idx, nd.feature]
            go_left = np.where(fb == nd.missing_bin, nd.default_left,
                               _goes_left(fb, nd.left_cats, nd.threshold_bin))
            stack.append((nd.left, idx[go_left]))
            stack.append((nd.right, idx[~go_left]))
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
    def from_dict(cls, d: dict) -> "Tree":
        tree = cls(num_leaves_used=int(d["num_leaves_used"]))

        def build(nd: dict) -> int:
            nid = len(tree.nodes)
            if "leaf" in nd:
                tree.nodes.append(TreeNode(value=float(nd["leaf"]), count=int(nd["count"])))
                return nid
            tree.nodes.append(TreeNode())
            node = tree.nodes[nid]
            node.feature = int(nd["feature"])
            node.count = int(nd["count"])
            node.default_left = bool(nd["default_left"])
            node.missing_bin = int(nd["missing_bin"])
            if "left_cats" in nd:
                node.left_cats = tuple(int(c) for c in nd["left_cats"])
            else:
                node.threshold_bin = int(nd["threshold_bin"])
            node.left = build(nd["left"])
            node.right = build(nd["right"])
            return nid

        build(d["root"])
        return tree


def _leaf_value(stats: NodeStats) -> float:
    if stats.sum_hess <= 0.0:
        return 0.0
    v = -stats.sum_grad / stats.sum_hess
    return min(max(v, -LEAF_VALUE_CLAMP), LEAF_VALUE_CLAMP)


class GrowJob(NamedTuple):
    """One tree to grow: its data, gradients, in-bag rows, features, generator and params.

    Every job of a batch needs its own generator. ``params`` governs this
    tree alone (its leaf floor and budget, greedy or extra-trees selection
    and the categorical knobs); None means the ``params`` passed to
    :func:`grow_trees`.
    """

    bds: BinnedDataset
    grads: Any
    row_set: Any
    feature_subset: Any
    rng: np.random.Generator
    params: Params | None = None


class _Grower:
    """One tree's growth state: its frontier of scanned leaves and its offset bins."""

    def __init__(self, job: GrowJob, params: Params | None):
        row_set = np.asarray(job.row_set, dtype=np.intp)
        if row_set.size == 0:
            raise ValidationError("grow_tree requires a non-empty row set")
        self.params = params if job.params is None else job.params
        if self.params is None:
            raise ValidationError("a grow job without params needs grow_trees(params=...)")
        self.bds, self.grads, self.rng = job.bds, job.grads, job.rng
        features = sorted(int(f) for f in job.feature_subset)
        fbs = [self.bds.mapper[f] for f in features]
        self.features = np.array(features, dtype=np.intp)
        self.missing = np.array([fb.missing_bin for fb in fbs], dtype=np.intp)
        self.is_cat = np.array([fb.kind == CATEGORICAL for fb in fbs], dtype=bool)
        self.width = int(self.missing.max()) + 1 if features else 0
        self.offset_bins: np.ndarray | None = None  # built at the first scanned node
        self.root = NodeStats.from_rows(row_set, self.grads)
        self.tree = Tree(nodes=[TreeNode(value=_leaf_value(self.root), count=self.root.n)],
                         num_leaves_used=1)
        self.frontier: list[tuple[float, int, SplitCandidate, NodeStats]] = []

    def histograms(self, stats: NodeStats, width: int):
        """The node's (features x width) gradient, hessian and count histograms."""
        n_features = self.features.size
        if self.offset_bins is None:
            self.offset_bins = self.bds.bins[:, self.features] + np.arange(n_features) * width
        rows = stats.row_set
        block = _histograms(self.offset_bins[rows], self.grads.grad[rows],
                            self.grads.hess[rows], n_features * width)
        return [a.reshape(n_features, width) for a in block]

    def split(self) -> list[tuple["_Grower", int, NodeStats]]:
        """Split the best frontier leaf; return both children, left first."""
        _, nid, cand, stats = heapq.heappop(self.frontier)
        fb = self.bds.bins[stats.row_set, cand.feature]
        missing_bin = self.bds.mapper[cand.feature].missing_bin
        go_left = np.where(fb == missing_bin, cand.default_left,
                           _goes_left(fb, cand.left_cats, cand.threshold_bin))
        left_rows = stats.row_set[go_left]
        right_rows = stats.row_set[~go_left]
        assert left_rows.size == cand.n_left and right_rows.size == cand.n_right

        left_stats = NodeStats.from_rows(left_rows, self.grads)
        right_stats = NodeStats.from_rows(right_rows, self.grads)
        nodes = self.tree.nodes
        node = nodes[nid]
        node.feature = cand.feature
        node.default_left = cand.default_left
        node.missing_bin = missing_bin
        if cand.left_cats is not None:
            node.left_cats = cand.left_cats
        else:
            node.threshold_bin = cand.threshold_bin
        node.left = len(nodes)
        nodes.append(TreeNode(value=_leaf_value(left_stats), count=left_stats.n))
        node.right = len(nodes)
        nodes.append(TreeNode(value=_leaf_value(right_stats), count=right_stats.n))
        self.tree.num_leaves_used += 1
        return [(self, node.left, left_stats), (self, node.right, right_stats)]


def _scan(pending: list[tuple[_Grower, int, NodeStats]], width: int,
          gain_form: str) -> list[SplitCandidate | None]:
    """One split scan over every pending node; each tree's nodes are adjacent."""
    out: list[SplitCandidate | None] = [None] * len(pending)
    scanned, growers, hists, totals, starts, draws = [], [], [], ([], [], []), [0], []
    for i, (grower, _, stats) in enumerate(pending):
        # no boundary can leave min_data_in_leaf rows on both sides
        if stats.n < 2 * grower.params.min_data_in_leaf or grower.features.size == 0:
            continue
        scanned.append(i)
        growers.append(grower)
        hists.append(grower.histograms(stats, width))
        for t, v in zip(totals, (stats.sum_grad, stats.sum_hess, stats.n)):
            t.append(v)
        lo, hi = starts[-1], starts[-1] + grower.features.size
        starts.append(hi)
        if grower.params.extra_trees:
            if draws and draws[-1][0] is grower.rng:
                draws[-1] = (grower.rng, draws[-1][1], hi)
            else:
                draws.append((grower.rng, lo, hi))
    if not scanned:
        return out
    grad, hess, count = (np.concatenate([h[s] for h in hists]) for s in range(3))
    cands = _best_splits(np.concatenate([g.features for g in growers]),
                         np.concatenate([g.missing for g in growers]),
                         np.concatenate([g.is_cat for g in growers]),
                         grad, hess, count, totals, starts, [g.params for g in growers],
                         gain_form, draws)
    for i, cand in zip(scanned, cands):
        out[i] = cand
    return out


def grow_trees(jobs: Sequence[GrowJob], params: Params | None = None,
               gain_form: str = "hessian") -> list[Tree]:
    """Grow one tree per job leaf-wise (best-first) under the leaf budget, in lockstep.

    Each tree follows its job's ``params`` (``params`` here for a job
    without any) and splits the frontier leaf with the highest candidate
    gain until its ``num_leaves`` is reached or nothing is splittable. All
    trees take their growth steps together, and each step scans every new
    leaf of every tree at once; a tree comes out as :func:`grow_tree` would
    grow it alone under its own parameters, and its generator ends in the
    same state. Leaf values are the Newton step ``-sum_grad / sum_hess``
    clamped to +-1e4.
    """
    growers = [_Grower(job, params) for job in jobs]
    width = max((g.width for g in growers), default=0)
    pending = [(g, 0, g.root) for g in growers]
    while pending:
        for (grower, nid, stats), cand in zip(pending, _scan(pending, width, gain_form)):
            if cand is not None:
                heapq.heappush(grower.frontier, (-cand.gain, nid, cand, stats))
        pending = [child for g in growers
                   if g.frontier and g.tree.num_leaves_used < g.params.num_leaves
                   for child in g.split()]
    return [g.tree for g in growers]


def grow_tree(bds: BinnedDataset, grads, row_set, feature_subset, params: Params,
              rng: np.random.Generator, gain_form: str = "hessian") -> Tree:
    """Grow one tree leaf-wise (best-first): :func:`grow_trees` on one job."""
    return grow_trees([GrowJob(bds, grads, row_set, feature_subset, rng)], params, gain_form)[0]
