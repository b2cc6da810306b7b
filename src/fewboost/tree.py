"""Leaf-wise tree growth with one histogram split scan per node.

Each node is evaluated by a single scan that covers every sampled feature at
once. Its gradient, hessian and row-count histograms come from one
``bincount`` each over feature-offset bin ids, laid out as a padded
(features x bins) block; column ``missing_bin`` of a feature's row holds its
missing-value rows. Numeric boundaries are scored by one ``cumsum`` along
the rows of that block. Categorical features with at most
``max_cat_to_onehot`` present categories score every one-vs-other split in
the same vectorised pass. With more categories, the categories are ordered
by their smoothed gradient/hessian ratio and each prefix of that order is a
candidate left set. Only the per-feature selection runs in Python: the
greedy first maximum, or the extra-trees draw of one admissible boundary.
The public one-feature selectors (:func:`find_best_split`,
:func:`extra_random_split`, :func:`categorical_split`) run the same scan on
a one-row block. Every float sum is accumulated in the same order as a
one-feature-at-a-time scan would (no histogram is derived by subtraction),
so the trees do not depend on how many features share a scan.

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
from typing import Iterator

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
    """Count-normalized variance-after-split: (GL^2/nl + GR^2/nr) / n_node."""
    g_left = np.asarray(g_left, dtype=np.float64)
    g_right = np.asarray(g_right, dtype=np.float64)
    nl = np.asarray(n_left, dtype=np.float64)
    nr = np.asarray(n_right, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        left = np.where(nl > 0, g_left * g_left / np.where(nl > 0, nl, 1.0), 0.0)
        right = np.where(nr > 0, g_right * g_right / np.where(nr > 0, nr, 1.0), 0.0)
    out = (left + right) / float(n_node)
    return float(out) if np.ndim(out) == 0 else out


def _gain(gl, hl, nl, gr, hr, nr, parent, n_node: int, min_leaf: int, gain_form: str):
    """Elementwise gain of sending (gl, hl, nl) left and (gr, hr, nr) right.

    Returns the gain, -inf where a side holds fewer than ``min_leaf`` rows or
    the gain is NaN, and the row-count gate itself. ``parent`` is the parent
    score of the hessian form.
    """
    ok = (nl >= min_leaf) & (nr >= min_leaf)
    if gain_form == "hessian":
        gain = _score(gl, hl) + _score(gr, hr) - parent
    elif gain_form == "variance":
        gain = variance_gain(gl, nl, gr, nr, n_node)
    else:
        raise ValidationError(f"unknown gain_form {gain_form!r}")
    return np.where(ok, np.where(np.isnan(gain), -np.inf, gain), -np.inf), ok


def _both_directions(miss_left, miss_right, parent, node: NodeStats, min_leaf: int,
                     gain_form: str = "hessian"):
    """Score each candidate with its missing rows on either side.

    ``miss_left`` and ``miss_right`` are the (gl, hl, nl, gr, hr, nr)
    partitions with the missing rows sent left and right. Returns the better
    direction's gain (ties go left), ``default_left``, the left row count and
    whether either direction passes the row-count gate.
    """
    gain_l, ok_l = _gain(*miss_left, parent, node.n, min_leaf, gain_form)
    gain_r, ok_r = _gain(*miss_right, parent, node.n, min_leaf, gain_form)
    use_left = gain_l >= gain_r
    n_left = np.where(use_left, miss_left[2], miss_right[2])
    return np.where(use_left, gain_l, gain_r), use_left, n_left, ok_l | ok_r


def _left_sets(gl, hl, nl, mg, mh, mc, node: NodeStats, min_leaf: int, l2: float, parent):
    """Both missing directions for category sets whose sums exclude missing rows.

    ``l2`` is added to every hessian, and ``parent`` must include it too.
    """
    tg, th, tn = node.sum_grad, node.sum_hess, node.n
    gml, hml, nml = gl + mg, hl + mh, nl + mc
    hr, hmr = th - hl, th - hml
    if l2:
        hl, hr, hml, hmr = hl + l2, hr + l2, hml + l2, hmr + l2
    return _both_directions((gml, hml, nml, tg - gml, hmr, tn - nml),
                            (gl, hl, nl, tg - gl, hr, tn - nl), parent, node, min_leaf)


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


def _best_split(features, missing, is_cat, grad, hess, count, node: NodeStats,
                params: Params, gain_form: str,
                rng: np.random.Generator | None) -> SplitCandidate | None:
    """Best split over one node's (features x bins) histogram block, or None.

    Row ``i`` of ``grad``/``hess``/``count`` is the histogram of feature
    ``features[i]``: real bins first, its missing-value rows in column
    ``missing[i]``, zero padding after that. Numeric boundary ``d`` sends real
    bins ``0..d`` left. Without ``rng`` each feature keeps its first best
    candidate under ``gain_form``. With ``rng`` (extra-trees) each feature
    draws one admissible numeric boundary or prefix cut, in feature order,
    and scores it in hessian form; one-vs-other categorical splits stay
    greedy. Across features the first strictly highest gain wins, and a
    feature's gain counts only if it is finite and positive.
    """
    width = grad.shape[1]
    if width < 2:  # no feature has a real bin
        return None
    min_leaf = params.min_data_in_leaf
    tg, th, tn = node.sum_grad, node.sum_hess, node.n
    rows = np.arange(len(features))
    mg, mh, mc = (a[rows, missing][:, None] for a in (grad, hess, count))
    with np.errstate(divide="ignore", invalid="ignore"):
        parent = _score(np.float64(tg), np.float64(th))
        if not is_cat.all():
            cg, ch, cc = (np.cumsum(a[:, :-1], axis=1) for a in (grad, hess, count))
            num_gain, num_left, num_n, _ = _both_directions(
                (cg + mg, ch + mh, cc + mc, tg - cg - mg, th - ch - mh, tn - cc - mc),
                (cg, ch, cc, tg - cg, th - ch, tn - cc),
                parent, node, min_leaf, gain_form if rng is None else "hessian")
            # from the last real bin on, no real bin is left on the right
            num_gain[np.arange(width - 1) >= missing[:, None] - 1] = -np.inf
            num_best = np.argmax(num_gain, axis=1).tolist()
        # categorical features with more present categories take prefix cuts
        one_hot = is_cat.copy()
        if is_cat.any():
            present = (count > 0) & (np.arange(width) < missing[:, None])
            one_hot &= present.sum(axis=1) <= params.max_cat_to_onehot
        if one_hot.any():
            one_gain, one_left, one_n, _ = _left_sets(grad, hess, count, mg, mh, mc,
                                                      node, min_leaf, 0.0, parent)
            one_gain[~present] = -np.inf
            one_best = np.argmax(one_gain, axis=1).tolist()

        # strict > keeps the lowest feature index on gain ties
        best: SplitCandidate | None = None
        top = 0.0
        for i, (f, cat, one) in enumerate(zip(features, is_cat.tolist(), one_hot.tolist())):
            if cat and not one:
                cand = _prefix_split(f, grad[i], hess[i], count[i], int(missing[i]),
                                     node, params, rng)
                if cand is not None and top < cand.gain < np.inf:
                    top, best = cand.gain, cand
                continue
            if cat:
                gain, left, n_left, d = one_gain, one_left, one_n, one_best[i]
            elif rng is None:
                gain, left, n_left, d = num_gain, num_left, num_n, num_best[i]
            else:
                admissible = np.flatnonzero(num_gain[i] > -np.inf)
                if admissible.size == 0:
                    continue
                gain, left, n_left = num_gain, num_left, num_n
                d = int(admissible[int(rng.integers(admissible.size))])
            if top < gain[i, d] < np.inf:
                top, nl = float(gain[i, d]), int(n_left[i, d])
                best = SplitCandidate(feature=f, gain=top, n_left=nl, n_right=tn - nl,
                                      default_left=bool(left[i, d]),
                                      threshold_bin=None if cat else d,
                                      left_cats=(d,) if cat else None)
    return best


def _prefix_split(feature: int, grad, hess, count, k: int, node: NodeStats, params: Params,
                  rng: np.random.Generator | None) -> SplitCandidate | None:
    """Best (or, with ``rng``, a random admissible) prefix cut of one feature.

    Categories holding at least ``min_data_per_group`` rows are ordered by
    the smoothed score ``sum_grad / (sum_hess + cat_smooth)`` (ties by
    category); the rest always route right. Each prefix of the order is a
    left set, scored with ``cat_l2`` added to every hessian. Each prefix is
    summed on its own: a running sum rounds differently once a prefix holds
    8 or more categories. A cut is admissible for the random draw when
    either missing direction passes the row-count gate.
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
        np.cumsum(count[order]), grad[k], hess[k], count[k], node, params.min_data_in_leaf,
        l2, _score(np.float64(node.sum_grad), np.float64(node.sum_hess + l2)))
    if rng is None:
        p = int(np.argmax(gain))
    else:
        admissible = np.flatnonzero(admissible)
        if admissible.size == 0:
            return None
        p = int(admissible[int(rng.integers(admissible.size))])
    nl = int(n_left[p])
    return SplitCandidate(feature=feature, gain=float(gain[p]), n_left=nl, n_right=node.n - nl,
                          default_left=bool(use_left[p]),
                          left_cats=tuple(int(c) for c in np.sort(prefixes[p])))


def _one_feature(hist: FeatureHistogram, node: NodeStats, params: Params, gain_form: str,
                 rng: np.random.Generator | None) -> SplitCandidate | None:
    """The node scan over a single feature's histogram."""
    return _best_split([hist.feature], np.array([hist.missing_bin]),
                       np.array([hist.is_categorical]), hist.sum_grad[None, :],
                       hist.sum_hess[None, :], hist.count[None, :], node, params, gain_form, rng)


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


@dataclass
class TreeNode:
    value: float = 0.0
    count: int = 0
    feature: int = -1
    threshold_bin: int = -1
    left_cats: np.ndarray | None = None
    missing_bin: int = -1
    default_left: bool = False
    left: int = -1
    right: int = -1

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


@dataclass
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
            if nd.left_cats is not None:
                go_left = np.isin(fb, nd.left_cats)
            else:
                go_left = fb <= nd.threshold_bin
            go_left = np.where(fb == nd.missing_bin, nd.default_left, go_left)
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
                node.left_cats = np.asarray(nd["left_cats"], dtype=np.int64)
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
    return float(np.clip(v, -LEAF_VALUE_CLAMP, LEAF_VALUE_CLAMP))


def grow_tree(bds: BinnedDataset, grads, row_set, feature_subset, params: Params,
              rng: np.random.Generator, gain_form: str = "hessian") -> Tree:
    """Grow one tree leaf-wise (best-first) under the leaf budget.

    The frontier leaf with the highest candidate gain is split until
    ``num_leaves`` is reached or nothing is splittable. Leaf values are the
    Newton step ``-sum_grad / sum_hess`` clamped to +-1e4.
    """
    row_set = np.asarray(row_set, dtype=np.intp)
    if row_set.size == 0:
        raise ValidationError("grow_tree requires a non-empty row set")
    features = sorted(int(f) for f in feature_subset)
    fbs = [bds.mapper[f] for f in features]
    missing = np.array([fb.missing_bin for fb in fbs], dtype=np.intp)
    is_cat = np.array([fb.kind == CATEGORICAL for fb in fbs], dtype=bool)
    width = int(missing.max()) + 1 if features else 0
    offset_bins: np.ndarray | None = None  # built at the first scanned node
    scan_rng = rng if params.extra_trees else None

    def evaluate(stats: NodeStats) -> SplitCandidate | None:
        nonlocal offset_bins
        # no boundary can leave min_data_in_leaf rows on both sides
        if stats.n < 2 * params.min_data_in_leaf:
            return None
        if offset_bins is None:
            offset_bins = bds.bins[:, features] + np.arange(len(features)) * width
        rows = stats.row_set
        block = _histograms(offset_bins[rows], grads.grad[rows], grads.hess[rows],
                            len(features) * width)
        return _best_split(features, missing, is_cat,
                           *(a.reshape(len(features), width) for a in block),
                           stats, params, gain_form, scan_rng)

    tree = Tree()
    root_stats = NodeStats.from_rows(row_set, grads)
    tree.nodes.append(TreeNode(value=_leaf_value(root_stats), count=root_stats.n))
    tree.num_leaves_used = 1

    frontier: list[tuple[float, int, SplitCandidate, NodeStats]] = []
    cand = evaluate(root_stats)
    if cand is not None:
        heapq.heappush(frontier, (-cand.gain, 0, cand, root_stats))

    while frontier and tree.num_leaves_used < params.num_leaves:
        _, nid, cand, stats = heapq.heappop(frontier)
        fb = bds.bins[stats.row_set, cand.feature]
        if cand.left_cats is not None:
            go_left = np.isin(fb, np.asarray(cand.left_cats, dtype=np.int64))
        else:
            go_left = fb <= cand.threshold_bin
        missing_bin = bds.mapper[cand.feature].missing_bin
        go_left = np.where(fb == missing_bin, cand.default_left, go_left)
        left_rows = stats.row_set[go_left]
        right_rows = stats.row_set[~go_left]
        assert left_rows.size == cand.n_left and right_rows.size == cand.n_right

        left_stats = NodeStats.from_rows(left_rows, grads)
        right_stats = NodeStats.from_rows(right_rows, grads)
        node = tree.nodes[nid]
        node.feature = cand.feature
        node.default_left = cand.default_left
        node.missing_bin = missing_bin
        if cand.left_cats is not None:
            node.left_cats = np.asarray(cand.left_cats, dtype=np.int64)
        else:
            node.threshold_bin = cand.threshold_bin
        node.left = len(tree.nodes)
        tree.nodes.append(TreeNode(value=_leaf_value(left_stats), count=left_stats.n))
        node.right = len(tree.nodes)
        tree.nodes.append(TreeNode(value=_leaf_value(right_stats), count=right_stats.n))
        tree.num_leaves_used += 1

        for child_id, child_stats in ((node.left, left_stats), (node.right, right_stats)):
            child_cand = evaluate(child_stats)
            if child_cand is not None:
                heapq.heappush(frontier, (-child_cand.gain, child_id, child_cand, child_stats))
    return tree
