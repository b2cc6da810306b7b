"""Frozen per-feature tree grower: the oracle for ``fewboost.tree.grow_tree``.

This is the plain, one-feature-at-a-time split search that the library's
node-level scan replaced: build one feature's histogram, scan its numeric
boundaries or categorical subsets with scalar gain calls, keep the best, and
move on to the next feature. It is kept readable rather than fast, and it
shares no split-search code with the library (only the tree containers), so
a property test can demand that both grow byte-identical trees and leave the
random generator in the same state.
"""

from __future__ import annotations

import heapq

import numpy as np

from fewboost.dataset import CATEGORICAL
from fewboost.errors import ValidationError
from fewboost.tree import (LEAF_VALUE_CLAMP, FeatureHistogram, NodeStats,
                           SplitCandidate, Tree, TreeNode)


def _side_score(g, h):
    """Hessian-form per-side score g^2/h; 0/0 is 0, x/0 is +inf."""
    g = np.asarray(g, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    safe = h > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(safe, g * g / np.where(safe, h, 1.0),
                       np.where(g == 0, 0.0, np.inf))
    return out


def variance_gain(g_left, n_left, g_right, n_right, n_node):
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


def _finite_or_neg_inf(gain):
    return np.where(np.isnan(gain), -np.inf, gain)


def build_histogram(bds, feature, node, grads):
    """Accumulate grad/hess/count per bin over the node's rows."""
    fb = bds.mapper[feature]
    b = bds.bins[node.row_set, feature]
    nb = fb.n_bins
    return FeatureHistogram(
        feature=feature,
        sum_grad=np.bincount(b, weights=grads.grad[node.row_set], minlength=nb),
        sum_hess=np.bincount(b, weights=grads.hess[node.row_set], minlength=nb),
        count=np.bincount(b, minlength=nb).astype(np.int64),
        missing_bin=fb.missing_bin,
        is_categorical=fb.kind == CATEGORICAL,
    )


def _numeric_scan(hist, node, min_leaf, gain_form):
    """Cumulative boundary scan; returns per-boundary gains and counts.

    Boundary ``d`` sends real bins ``0..d`` left and the rest right; missing
    rows are tried on both sides and the better direction is kept (ties go
    left). Inadmissible boundaries get gain -inf.
    """
    k = hist.missing_bin
    if k < 2:
        return None
    cg = np.cumsum(hist.sum_grad[:k])[:-1]
    ch = np.cumsum(hist.sum_hess[:k])[:-1]
    cc = np.cumsum(hist.count[:k])[:-1]
    mg = float(hist.sum_grad[k])
    mh = float(hist.sum_hess[k])
    mc = int(hist.count[k])
    tg, th, tn = node.sum_grad, node.sum_hess, node.n

    nl_r, nr_r = cc, tn - cc
    nl_l, nr_l = cc + mc, tn - cc - mc
    ok_r = (nl_r >= min_leaf) & (nr_r >= min_leaf)
    ok_l = (nl_l >= min_leaf) & (nr_l >= min_leaf)

    if gain_form == "hessian":
        parent = float(_side_score(tg, th))
        gain_r = _side_score(cg, ch) + _side_score(tg - cg, th - ch) - parent
        gain_l = _side_score(cg + mg, ch + mh) + _side_score(tg - cg - mg, th - ch - mh) - parent
    elif gain_form == "variance":
        gain_r = variance_gain(cg, nl_r, tg - cg, nr_r, tn)
        gain_l = variance_gain(cg + mg, nl_l, tg - cg - mg, nr_l, tn)
    else:
        raise ValidationError(f"unknown gain_form {gain_form!r}")

    gain_r = np.where(ok_r, _finite_or_neg_inf(gain_r), -np.inf)
    gain_l = np.where(ok_l, _finite_or_neg_inf(gain_l), -np.inf)
    use_left = gain_l >= gain_r
    gain = np.where(use_left, gain_l, gain_r)
    n_left = np.where(use_left, nl_l, nl_r)
    return gain, use_left, n_left


def find_best_split(hist, node, params, gain_form="hessian"):
    """Best admissible boundary for a numeric feature, or None."""
    if hist.is_categorical:
        raise ValidationError("find_best_split handles numeric features; use categorical_split")
    scan = _numeric_scan(hist, node, params.min_data_in_leaf, gain_form)
    if scan is None:
        return None
    gain, use_left, n_left = scan
    d = int(np.argmax(gain))
    best = float(gain[d])
    if not (np.isfinite(best) and best > 0.0):
        return None
    nl = int(n_left[d])
    return SplitCandidate(
        feature=hist.feature, gain=best, n_left=nl, n_right=node.n - nl,
        default_left=bool(use_left[d]), threshold_bin=d,
    )


def extra_random_split(hist, node, params, rng):
    """One uniformly random admissible boundary instead of the greedy best."""
    if hist.is_categorical:
        raise ValidationError("extra_random_split handles numeric features; use categorical_split")
    scan = _numeric_scan(hist, node, params.min_data_in_leaf, "hessian")
    if scan is None:
        return None
    gain, use_left, n_left = scan
    admissible = np.flatnonzero(gain > -np.inf)
    if admissible.size == 0:
        return None
    d = int(admissible[int(rng.integers(admissible.size))])
    best = float(gain[d])
    if not (np.isfinite(best) and best > 0.0):
        return None
    nl = int(n_left[d])
    return SplitCandidate(
        feature=hist.feature, gain=best, n_left=nl, n_right=node.n - nl,
        default_left=bool(use_left[d]), threshold_bin=d,
    )


def _best_direction(gl, hl, nl, tg, th, tn, mg, mh, mc, min_leaf, l2=0.0):
    """Evaluate one left-set (gl, hl, nl exclude missing) with both missing
    directions; returns (gain, n_left, default_left) or None."""
    best = None
    for put_left in (True, False):
        g_left = gl + mg if put_left else gl
        h_left = hl + mh if put_left else hl
        n_left = nl + mc if put_left else nl
        n_right = tn - n_left
        if n_left < min_leaf or n_right < min_leaf:
            continue
        g_right = tg - g_left
        h_right = th - h_left
        gain = (
            float(_side_score(g_left, h_left + l2))
            + float(_side_score(g_right, h_right + l2))
            - float(_side_score(tg, th + l2))
        )
        if np.isnan(gain):
            gain = -np.inf
        # ties keep the left direction (True is tried first)
        if best is None or gain > best[0]:
            best = (gain, n_left, put_left)
    return best


def categorical_split(hist, node, params, rng=None):
    """Best admissible categorical split (one-vs-other or sorted prefix), or None."""
    if not hist.is_categorical:
        raise ValidationError("categorical_split requires a categorical feature histogram")
    k = hist.missing_bin
    min_leaf = params.min_data_in_leaf
    present = np.flatnonzero(hist.count[:k] > 0)
    if present.size == 0:
        return None
    mg = float(hist.sum_grad[k])
    mh = float(hist.sum_hess[k])
    mc = int(hist.count[k])
    tg, th, tn = node.sum_grad, node.sum_hess, node.n

    best = None
    if present.size <= params.max_cat_to_onehot:
        for c in present:
            res = _best_direction(
                float(hist.sum_grad[c]), float(hist.sum_hess[c]), int(hist.count[c]),
                tg, th, tn, mg, mh, mc, min_leaf,
            )
            if res is None:
                continue
            gain, n_left, default_left = res
            if best is None or gain > best.gain:
                best = SplitCandidate(
                    feature=hist.feature, gain=gain, n_left=n_left,
                    n_right=tn - n_left, default_left=default_left,
                    left_cats=(int(c),),
                )
    else:
        eligible = [int(c) for c in present if hist.count[c] >= params.min_data_per_group]
        if not eligible:
            return None

        def smoothed(c):
            denom = float(hist.sum_hess[c]) + params.cat_smooth
            g = float(hist.sum_grad[c])
            if denom <= 0:
                return np.inf if g > 0 else (-np.inf if g < 0 else 0.0)
            return g / denom

        order = sorted(eligible, key=lambda c: (smoothed(c), c))
        cuts = range(1, len(order) + 1)
        if rng is not None and params.extra_trees:
            admissible = [
                p for p in cuts
                if _prefix_direction(order, p, hist, tg, th, tn, mg, mh, mc, min_leaf, params.cat_l2)
                is not None
            ]
            if not admissible:
                return None
            cuts = [admissible[int(rng.integers(len(admissible)))]]
        for p in cuts:
            res = _prefix_direction(order, p, hist, tg, th, tn, mg, mh, mc, min_leaf, params.cat_l2)
            if res is None:
                continue
            gain, n_left, default_left = res
            if best is None or gain > best.gain:
                best = SplitCandidate(
                    feature=hist.feature, gain=gain, n_left=n_left,
                    n_right=tn - n_left, default_left=default_left,
                    left_cats=tuple(sorted(order[:p])),
                )
    if best is None or not (np.isfinite(best.gain) and best.gain > 0.0):
        return None
    return best


def _prefix_direction(order, p, hist, tg, th, tn, mg, mh, mc, min_leaf, l2):
    cats = order[:p]
    gl = float(hist.sum_grad[cats].sum())
    hl = float(hist.sum_hess[cats].sum())
    nl = int(hist.count[cats].sum())
    return _best_direction(gl, hl, nl, tg, th, tn, mg, mh, mc, min_leaf, l2)


def _leaf_value(stats):
    if stats.sum_hess <= 0.0:
        return 0.0
    v = -stats.sum_grad / stats.sum_hess
    return float(np.clip(v, -LEAF_VALUE_CLAMP, LEAF_VALUE_CLAMP))


def grow_tree(bds, grads, row_set, feature_subset, params, rng, gain_form="hessian"):
    """Grow one tree leaf-wise (best-first), evaluating one feature at a time."""
    row_set = np.asarray(row_set, dtype=np.intp)
    if row_set.size == 0:
        raise ValidationError("grow_tree requires a non-empty row set")
    features = sorted(int(f) for f in feature_subset)

    def evaluate(stats):
        best = None
        for f in features:
            hist = build_histogram(bds, f, stats, grads)
            if hist.is_categorical:
                cand = categorical_split(hist, stats, params,
                                         rng if params.extra_trees else None)
            elif params.extra_trees:
                cand = extra_random_split(hist, stats, params, rng)
            else:
                cand = find_best_split(hist, stats, params, gain_form)
            # strict > keeps the lowest feature index on gain ties
            if cand is not None and (best is None or cand.gain > best.gain):
                best = cand
        return best

    tree = Tree()
    root_stats = NodeStats.from_rows(row_set, grads)
    tree.nodes.append(TreeNode(value=_leaf_value(root_stats), count=root_stats.n))
    tree.num_leaves_used = 1

    frontier = []
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
