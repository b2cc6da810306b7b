"""Independent oracle implementations used to verify library results.

Everything here is deliberately naive (pairwise loops, exhaustive scans,
finite differences) and shares no code with the library paths it checks.
:func:`corrupt_bundle` makes the malformed model bundles that loading must
reject.
"""

from __future__ import annotations

import json

import numpy as np


def brute_force_auc(labels, scores) -> float:
    """O(P*N) pairwise AUC with half credit for ties."""
    labels = np.asarray(labels, dtype=float)
    scores = np.asarray(scores, dtype=float)
    pos = scores[labels == 1.0]
    neg = scores[labels == 0.0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def brute_force_split_candidates(bins_by_feature, grad, hess, min_leaf):
    """Exhaustive split scan from row-level data.

    ``bins_by_feature`` is a list of per-row bin index arrays (no missing
    values). Returns every admissible (feature, boundary, gain) triple under
    hessian-form gain.
    """
    grad = np.asarray(grad, dtype=float)
    hess = np.asarray(hess, dtype=float)
    n = len(grad)
    tg, th = grad.sum(), hess.sum()

    def score(g, h):
        if h > 0:
            return g * g / h
        return 0.0 if g == 0 else np.inf

    parent = score(tg, th)
    out = []
    for f, bins in enumerate(bins_by_feature):
        bins = np.asarray(bins)
        for d in range(int(bins.max())):
            left = bins <= d
            nl = int(left.sum())
            nr = n - nl
            if nl < min_leaf or nr < min_leaf:
                continue
            gl, hl = grad[left].sum(), hess[left].sum()
            out.append((f, d, score(gl, hl) + score(tg - gl, th - hl) - parent))
    return out


def brute_force_best_split(bins_by_feature, grad, hess, min_leaf, tol=1e-9):
    """Best admissible split as an equivalence class.

    Returns (best_gain, tied) where ``tied`` lists every (feature, boundary)
    whose gain is within ``tol`` of the maximum. Distinct maximal candidates
    are mathematically tied partitions (identical or mirrored); float noise
    from summation order makes their computed gains differ in the last ulp,
    so any member of the class is a correct answer. Returns None when no
    admissible boundary has finite positive gain.
    """
    cands = brute_force_split_candidates(bins_by_feature, grad, hess, min_leaf)
    cands = [(f, d, -np.inf if np.isnan(g) else g) for f, d, g in cands]
    if not cands:
        return None
    best_gain = max(g for _, _, g in cands)
    if not (np.isfinite(best_gain) and best_gain > 0):
        return None
    margin = max(tol, tol * abs(best_gain))
    tied = [(f, d) for f, d, g in cands if g >= best_gain - margin]
    return best_gain, tied


def logloss(y, p) -> float:
    y = np.asarray(y, dtype=float)
    p = np.clip(np.asarray(p, dtype=float), 1e-12, 1 - 1e-12)
    return float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))


def finite_diff_grads(mlp, x, y, h=1e-5):
    """Central-difference gradients of the MLP's MSE loss, per parameter."""

    def loss() -> float:
        pred = mlp.forward(x)
        return float(np.mean((pred - y) ** 2))

    grads_w, grads_b = [], []
    for arr, sink in ((mlp.weights, grads_w), (mlp.biases, grads_b)):
        for param in arr:
            g = np.zeros_like(param)
            it = np.nditer(param, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = param[idx]
                param[idx] = orig + h
                up = loss()
                param[idx] = orig - h
                down = loss()
                param[idx] = orig
                g[idx] = (up - down) / (2 * h)
            sink.append(g)
    return grads_w, grads_b


def max_relative_error(analytic, numeric) -> float:
    worst = 0.0
    for a, b in zip(analytic, numeric):
        denom = np.maximum(np.abs(a) + np.abs(b), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - b) / denom)))
    return worst


def corrupt_bundle(doc: dict, fault: str) -> dict:
    """A copy of a trained model bundle with one fault.

    ``fault`` is ``feature`` (the first split reads feature 99), ``leaf`` (a
    NaN leaf), ``base_score`` (an infinite base score), ``edges`` (a NaN
    bin edge), or ``count-nan``, ``count-inf``, ``count-text`` and
    ``count-missing`` (the first split's row count is NaN, infinite, the
    string ``"x"`` or absent).
    """
    doc = json.loads(json.dumps(doc))
    split = next(t["root"] for t in doc["trees"] if "feature" in t["root"])
    if fault == "feature":
        split["feature"] = 99
    elif fault.startswith("count-"):
        bad = {"nan": float("nan"), "inf": float("inf"), "text": "x"}
        if fault == "count-missing":
            del split["count"]
        else:
            split["count"] = bad[fault[len("count-"):]]
    elif fault == "leaf":
        leaf = split["left"]
        while "leaf" not in leaf:
            leaf = leaf["left"]
        leaf["leaf"] = float("nan")
    elif fault == "base_score":
        doc["base_score"] = float("inf")
    else:
        next(f for f in doc["features"] if "edges" in f)["edges"][0] = float("nan")
    return doc
