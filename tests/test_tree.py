import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewboost.booster import GradientPairs, compute_gradients
from fewboost.dataset import BinnedDataset, FeatureBins
from fewboost.fsl import default_preset, fsl_preset
from fewboost.params import OBJECTIVES, Params
from fewboost.tree import (GrowJob, NodeStats, Tree, TreeNode, build_histogram,
                           categorical_split, extra_random_split,
                           find_best_split, grow_tree, grow_trees)

import reference_route
import reference_tree
from helpers import brute_force_best_split


def _binned_from_bins(bins_by_feature, kinds=None, n_real=None):
    """Assemble a BinnedDataset straight from per-feature bin index arrays."""
    bins = np.column_stack([np.asarray(b, dtype=np.uint32) for b in bins_by_feature])
    n_features = bins.shape[1]
    kinds = kinds or ["numeric"] * n_features
    mapper = []
    for j in range(n_features):
        k = n_real[j] if n_real else int(bins[:, j].max()) + 1
        if kinds[j] == "numeric":
            mapper.append(FeatureBins(name=f"f{j}", kind="numeric", n_real_bins=k,
                                      edges=np.arange(1, k, dtype=float)))
        else:
            mapper.append(FeatureBins(name=f"f{j}", kind="categorical", n_real_bins=k,
                                      categories=tuple(f"c{i}" for i in range(k))))
    return BinnedDataset(mapper=mapper, bins=bins, target=None,
                         max_bin=255, min_data_in_bin=1)


def _grads(grad, hess=None):
    grad = np.asarray(grad, dtype=float)
    hess = np.ones_like(grad) if hess is None else np.asarray(hess, dtype=float)
    return GradientPairs(grad=grad, hess=hess)


def _node(n):
    return np.arange(n, dtype=np.intp)


P1 = Params(min_data_in_leaf=1, num_leaves=31)


def _children_score(g_left, h_left, g_right, h_right):
    """Hessian-form two-child score GL^2/HL + GR^2/HR, from the reference's side score."""
    return float(reference_tree._side_score(g_left, h_left)
                 + reference_tree._side_score(g_right, h_right))


# --- histograms -----------------------------------------------------------


def test_histogram_single_row():
    bds = _binned_from_bins([[3]], n_real=[6])
    grads = _grads([0.5])
    stats = NodeStats.from_rows(_node(1), grads)
    hist = build_histogram(bds, 0, stats, grads)
    assert hist.sum_grad[3] == 0.5
    assert hist.sum_hess[3] == 1.0
    assert hist.count[3] == 1
    mask = np.ones(hist.count.shape, dtype=bool)
    mask[3] = False
    assert hist.sum_grad[mask].sum() == 0 and hist.count[mask].sum() == 0


def test_histogram_totals_match_direct_summation():
    rng = np.random.default_rng(0)
    bins = rng.integers(0, 8, size=100)
    grads = _grads(rng.standard_normal(100), rng.random(100))
    bds = _binned_from_bins([bins], n_real=[8])
    stats = NodeStats.from_rows(_node(100), grads)
    hist = build_histogram(bds, 0, stats, grads)
    assert hist.sum_grad.sum() == pytest.approx(grads.grad.sum())
    assert hist.sum_hess.sum() == pytest.approx(grads.hess.sum())
    assert hist.count.sum() == 100
    # per-bin as well, against a plain python loop
    for b in range(8):
        sel = bins == b
        assert hist.sum_grad[b] == pytest.approx(grads.grad[sel].sum())


def test_histogram_empty_bins_zero():
    bds = _binned_from_bins([[0, 5]], n_real=[8])
    grads = _grads([1.0, -1.0])
    stats = NodeStats.from_rows(_node(2), grads)
    hist = build_histogram(bds, 0, stats, grads)
    for b in (1, 2, 3, 4, 6, 7):
        assert hist.sum_grad[b] == 0 and hist.sum_hess[b] == 0 and hist.count[b] == 0


# --- find_best_split -------------------------------------------------------


def _hist_for(bins, grads, n_real=None):
    bds = _binned_from_bins([bins], n_real=[n_real] if n_real else None)
    stats = NodeStats.from_rows(_node(len(grads.grad)), grads)
    return build_histogram(bds, 0, stats, grads), stats


def test_gate_blocks_small_nodes_regardless_of_gradients():
    rng = np.random.default_rng(1)
    grads = _grads(rng.standard_normal(16))
    hist, stats = _hist_for(rng.integers(0, 8, size=16), grads)
    assert find_best_split(hist, stats, Params(min_data_in_leaf=20)) is None


def test_hand_instance_unit_gain():
    # one row per bin, gradients +-1, unit hessians: the middle boundary
    # scores (1/6)*(3^2/3 + 3^2/3) = 1.0 under the reference's variance evaluator
    grads = _grads([1, 1, 1, -1, -1, -1])
    hist, stats = _hist_for([0, 1, 2, 3, 4, 5], grads)
    cand_v = reference_tree.find_best_split(hist, stats, P1, gain_form="variance")
    assert cand_v is not None
    assert cand_v.threshold_bin == 2
    assert cand_v.gain == pytest.approx(1.0, abs=1e-12)
    cand_h = find_best_split(hist, stats, P1)
    assert cand_h.threshold_bin == 2
    assert cand_h.n_left == 3 and cand_h.n_right == 3
    # hessian-form children score equals n * V when hessians are 1
    assert _children_score(3, 3, -3, 3) == pytest.approx(6 * 1.0)


def test_all_zero_gradients_not_splittable():
    grads = _grads([0, 0, 0, 0])
    hist, stats = _hist_for([0, 1, 2, 3], grads)
    assert find_best_split(hist, stats, P1) is None


def test_admissibility_skips_and_breaks():
    # min_data_in_leaf=2 with one row per bin: boundaries 0 and n-2 blocked
    grads = _grads([1.0, -2.0, 3.0, -4.0, 5.0])
    hist, stats = _hist_for([0, 1, 2, 3, 4], grads)
    cand = find_best_split(hist, stats, Params(min_data_in_leaf=2))
    assert cand is not None
    assert 1 <= cand.threshold_bin <= 2
    assert min(cand.n_left, cand.n_right) >= 2


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_best_split_matches_exhaustive_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 65))
    n_features = int(rng.integers(1, 6))
    min_leaf = int(rng.choice([1, 2, 5]))
    bins_by_feature = [rng.integers(0, int(rng.integers(2, 17)), size=n)
                       for _ in range(n_features)]
    grads = _grads(rng.standard_normal(n), rng.random(n) + 0.1)
    bds = _binned_from_bins(bins_by_feature,
                            n_real=[int(b.max()) + 1 for b in bins_by_feature])
    stats = NodeStats.from_rows(_node(n), grads)
    params = Params(min_data_in_leaf=min_leaf)

    best = None
    for f in range(n_features):
        hist = build_histogram(bds, f, stats, grads)
        cand = find_best_split(hist, stats, params)
        if cand is not None and (best is None or cand.gain > best.gain):
            best = cand
    oracle = brute_force_best_split(bins_by_feature, grads.grad, grads.hess, min_leaf)
    if oracle is None:
        assert best is None
    else:
        best_gain, tied = oracle
        assert best is not None
        assert (best.feature, best.threshold_bin) in tied
        if len(tied) == 1:
            assert (best.feature, best.threshold_bin) == tied[0]
        assert best.gain == pytest.approx(best_gain, abs=1e-9)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_gain_form_argmax_agreement_unit_hessians(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 40))
    bins = rng.integers(0, 8, size=n)
    grads = _grads(rng.standard_normal(n))  # unit hessians
    hist, stats = _hist_for(bins, grads, n_real=8)
    h = find_best_split(hist, stats, P1)
    v = reference_tree.find_best_split(hist, stats, P1, gain_form="variance")
    if h is None or v is None:
        assert h is None and v is None
        return
    assert h.threshold_bin == v.threshold_bin
    # children score = n * V at the chosen boundary
    assert h.gain + _children_score(stats.sum_grad, stats.sum_hess, 0.0, 1.0) == pytest.approx(
        stats.n * v.gain, rel=1e-12, abs=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_gain_non_negative(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 50))
    bins = rng.integers(0, 12, size=n)
    grads = _grads(rng.standard_normal(n), rng.random(n) + 0.05)
    hist, stats = _hist_for(bins, grads, n_real=12)
    cand = find_best_split(hist, stats, P1)
    if cand is not None:
        assert cand.gain >= 0


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_monotone_relabel_invariance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 40))
    bins = rng.integers(0, 6, size=n)
    grads = _grads(rng.standard_normal(n), rng.random(n) + 0.1)
    hist, stats = _hist_for(bins, grads, n_real=6)
    cand = find_best_split(hist, stats, P1)

    # strictly increasing relabeling with gaps
    relabel = np.cumsum(rng.integers(1, 4, size=6)) - 1
    new_bins = relabel[bins]
    hist2, stats2 = _hist_for(new_bins, grads, n_real=int(new_bins.max()) + 1)
    cand2 = find_best_split(hist2, stats2, P1)
    if cand is None:
        assert cand2 is None
        return
    left_before = bins <= cand.threshold_bin
    left_after = new_bins <= cand2.threshold_bin
    assert np.array_equal(left_before, left_after)
    assert cand2.gain == pytest.approx(cand.gain, rel=1e-12, abs=1e-12)


# --- extra_random_split -----------------------------------------------------


def test_extra_single_admissible_matches_greedy():
    grads = _grads([2.0, -1.0])
    hist, stats = _hist_for([0, 1], grads)
    greedy = find_best_split(hist, stats, P1)
    rnd = extra_random_split(hist, stats, P1, np.random.default_rng(0))
    assert greedy == rnd


def test_extra_deterministic_under_seed():
    rng_bins = np.random.default_rng(5)
    grads = _grads(rng_bins.standard_normal(30), rng_bins.random(30) + 0.1)
    hist, stats = _hist_for(rng_bins.integers(0, 10, size=30), grads, n_real=10)
    a = extra_random_split(hist, stats, P1, np.random.default_rng(42))
    b = extra_random_split(hist, stats, P1, np.random.default_rng(42))
    assert a == b


def test_extra_uniform_over_admissible_boundaries():
    # five bins, one row each: four admissible boundaries at min_data_in_leaf=1
    grads = _grads([3.0, -1.0, 2.0, -2.0, 1.0])
    hist, stats = _hist_for([0, 1, 2, 3, 4], grads)
    rng = np.random.default_rng(7)
    counts = np.zeros(4)
    for _ in range(10000):
        cand = extra_random_split(hist, stats, P1, rng)
        counts[cand.threshold_bin] += 1
    freqs = counts / counts.sum()
    assert np.all(np.abs(freqs - 0.25) <= 0.02)


def test_extra_respects_gate():
    grads = _grads([1.0, 1.0, -1.0, -1.0])
    hist, stats = _hist_for([0, 1, 2, 3], grads)
    params = Params(min_data_in_leaf=2)
    rng = np.random.default_rng(0)
    for _ in range(50):
        cand = extra_random_split(hist, stats, params, rng)
        assert cand is not None
        assert cand.threshold_bin == 1  # the only boundary with 2 rows per side


# --- categorical splits ------------------------------------------------------


def _cat_hist(bins, grads, n_cats):
    bds = _binned_from_bins([bins], kinds=["categorical"], n_real=[n_cats])
    stats = NodeStats.from_rows(_node(len(grads.grad)), grads)
    return build_histogram(bds, 0, stats, grads), stats


def test_categorical_one_vs_other_path():
    grads = _grads([1.0, 1.2, -2.0, -2.2, 0.1, 0.2])
    hist, stats = _cat_hist([0, 0, 1, 1, 2, 2], grads, 3)
    params = Params(min_data_in_leaf=1, max_cat_to_onehot=100)
    cand = categorical_split(hist, stats, params)
    assert cand is not None
    assert len(cand.left_cats) == 1  # one-vs-other form
    # brute force over the three single-category candidates
    best = None
    for c in range(3):
        left = np.isin([0, 0, 1, 1, 2, 2], [c])
        gl, hl = grads.grad[left].sum(), grads.hess[left].sum()
        gr, hr = grads.grad[~left].sum(), grads.hess[~left].sum()
        gain = _children_score(gl, hl, gr, hr) - _children_score(gl + gr, hl + hr, 0, 1)
        if best is None or gain > best[1]:
            best = (c, gain)
    assert cand.left_cats == (best[0],)
    assert cand.gain == pytest.approx(best[1], rel=1e-12)


def test_categorical_ordered_scan_matches_raw_ordering_when_smoothing_off():
    # one row per category, cat_smooth=0: ordering is grad/hess order
    grads = _grads([3.0, -1.0, 2.0, -2.0, 0.5])
    hist, stats = _cat_hist([0, 1, 2, 3, 4], grads, 5)
    params = Params(min_data_in_leaf=1, max_cat_to_onehot=1,
                    cat_smooth=0.0, cat_l2=0.0, min_data_per_group=1)
    cand = categorical_split(hist, stats, params)
    assert cand is not None
    order = np.argsort(grads.grad)  # hess=1 so score order is grad order
    p = len(cand.left_cats)
    assert set(cand.left_cats) == set(order[:p].tolist())


def test_categorical_min_data_per_group_drops_small_categories():
    # category 2 has fewer than min_data_per_group rows: never on the left
    bins = [0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2]
    grads = _grads([1.0] * 5 + [-1.0] * 5 + [5.0, 5.0])
    hist, stats = _cat_hist(bins, grads, 3)
    params = Params(min_data_in_leaf=1, max_cat_to_onehot=1,
                    cat_smooth=0.0, cat_l2=0.0, min_data_per_group=5)
    cand = categorical_split(hist, stats, params)
    assert cand is not None
    assert 2 not in cand.left_cats
    # counts still partition the node
    assert cand.n_left + cand.n_right == stats.n


def test_categorical_unsplittable_when_gate_blocks():
    grads = _grads([1.0, -1.0])
    hist, stats = _cat_hist([0, 1], grads, 2)
    assert categorical_split(hist, stats, Params(min_data_in_leaf=2)) is None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # saturated sigmoids divide by ~0
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=500, deadline=None)
def test_selectors_match_frozen_reference_gain_for_gain(seed):
    # a tree records no gains, so the tree properties cannot see a gain that
    # rounds differently; each selector's candidate, gain compared by ==,
    # and its generator must equal the reference's on the same histogram
    rng = np.random.default_rng(seed)
    categorical = bool(rng.integers(2))
    n = int(rng.integers(1, 80))
    # 8 to 12 categories reach the prefixes whose running sums round differently
    k = int(rng.integers(8, 13) if categorical else rng.integers(1, 13))
    bds = _binned_from_bins([rng.integers(0, k + 1, size=n)],  # bin k is the missing bin
                            kinds=["categorical" if categorical else "numeric"], n_real=[k])
    y = rng.integers(0, 2, size=n).astype(float)
    scores = rng.standard_normal(n) * float(rng.choice([0.5, 3.0, 40.0, 1000.0]))
    grads = compute_gradients("binary-logloss", y, scores)
    stats = NodeStats.from_rows(np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)),
                                                   replace=False)), grads)
    hist = build_histogram(bds, 0, stats, grads)
    params = Params(min_data_in_leaf=int(rng.choice([1, 2, 3, 5])),
                    extra_trees=bool(rng.integers(2)), max_cat_to_onehot=1,
                    min_data_per_group=int(rng.choice([1, 2])), cat_l2=0.0,
                    cat_smooth=float(rng.choice([0.0, 1.0, 10.0])))
    tree_seed = int(rng.integers(2**32))
    if categorical:
        calls = [(categorical_split, reference_tree.categorical_split, True)]
    else:
        calls = [(find_best_split, reference_tree.find_best_split, False),
                 (extra_random_split, reference_tree.extra_random_split, True)]
    args = (hist, stats, params)
    for selector, reference, draws in calls:
        lib_rng, ref_rng = np.random.default_rng(tree_seed), np.random.default_rng(tree_seed)
        got = selector(*args, lib_rng) if draws else selector(*args)
        want = reference(*args, ref_rng) if draws else reference(*args)
        assert got == want  # a SplitCandidate compares its gain by ==
        assert lib_rng.random() == ref_rng.random()


def test_a_prefix_cut_with_a_nan_gain_still_takes_part_in_the_draw():
    # zero hessians and cat_l2 0 make every gain inf - inf = NaN; the prefix
    # cuts still pass the row-count gate, so an extra-trees row draws among
    # them (and then rejects the drawn NaN gain), unlike a numeric boundary
    grads = _grads([1.0, -1.0, 2.0, -2.0, 0.5, 0.25], hess=[0.0] * 6)
    hist, stats = _cat_hist([0, 0, 1, 1, 2, 2], grads, 3)
    params = Params(min_data_in_leaf=1, extra_trees=True, max_cat_to_onehot=1,
                    min_data_per_group=1, cat_l2=0.0)
    lib_rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    assert categorical_split(hist, stats, params, lib_rng) is None
    assert reference_tree.categorical_split(hist, stats, params, ref_rng) is None
    # both drew, and from the same state
    assert lib_rng.random() == ref_rng.random() != np.random.default_rng(5).random()
    numeric, stats = _hist_for([0, 0, 1, 1, 2, 2], grads, n_real=3)
    untouched = np.random.default_rng(5)
    assert extra_random_split(numeric, stats, params, untouched) is None
    assert untouched.random() == np.random.default_rng(5).random()  # no boundary to draw


# --- grow_tree ---------------------------------------------------------------


def test_grow_single_leaf_when_gate_closed():
    rng = np.random.default_rng(3)
    grads = _grads(rng.standard_normal(10), rng.random(10) + 0.5)
    bds = _binned_from_bins([rng.integers(0, 4, size=10)], n_real=[4])
    tree = grow_tree(bds, grads, _node(10), [0], Params(min_data_in_leaf=20),
                     np.random.default_rng(0))
    assert tree.is_single_leaf
    expected = -grads.grad.sum() / grads.hess.sum()
    assert tree.nodes[0].value == pytest.approx(expected)


def test_grow_respects_leaf_budget():
    rng = np.random.default_rng(4)
    n = 64
    bins = [rng.integers(0, 12, size=n) for _ in range(3)]
    grads = _grads(rng.standard_normal(n))
    bds = _binned_from_bins(bins, n_real=[12, 12, 12])
    params = Params(min_data_in_leaf=1, num_leaves=4)
    tree = grow_tree(bds, grads, _node(n), [0, 1, 2], params, np.random.default_rng(0))
    assert 1 <= tree.num_leaves_used <= 4
    assert sum(nd.is_leaf for nd in tree.nodes) == tree.num_leaves_used


def test_grow_depth_one_oracle_instance():
    # mse residuals for targets [0,0,0,1,1,1] from a 0.5 baseline
    grads = _grads([0.5, 0.5, 0.5, -0.5, -0.5, -0.5])
    bds = _binned_from_bins([[0, 0, 0, 1, 1, 1]], n_real=[2])
    params = Params(min_data_in_leaf=1, num_leaves=2)
    tree = grow_tree(bds, grads, _node(6), [0], params, np.random.default_rng(0))
    assert tree.num_leaves_used == 2
    out = tree.predict_bins(bds.bins)
    assert np.allclose(out[:3], -0.5)
    assert np.allclose(out[3:], 0.5)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_gate_soundness_full_tree_audit(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 80))
    min_leaf = int(rng.choice([1, 2, 5]))
    bins = [rng.integers(0, 10, size=n) for _ in range(3)]
    grads = _grads(rng.standard_normal(n), rng.random(n) + 0.1)
    bds = _binned_from_bins(bins, n_real=[10, 10, 10])
    params = Params(min_data_in_leaf=min_leaf, num_leaves=16,
                    extra_trees=bool(rng.integers(2)))
    tree = grow_tree(bds, grads, _node(n), [0, 1, 2], params, np.random.default_rng(seed))
    for nd in tree.internal_nodes():
        left, right = tree.nodes[nd.left], tree.nodes[nd.right]
        assert min(left.count, right.count) >= min_leaf
        assert left.count + right.count == nd.count


def test_grow_same_tree_under_both_gain_forms_with_unit_hessians():
    # per-node argmax agreement implies identical trees once the leaf budget
    # does not bind (a binding budget can reorder best-first splitting)
    rng = np.random.default_rng(11)
    n = 48
    bins = [rng.integers(0, 8, size=n) for _ in range(4)]
    grads = _grads(rng.standard_normal(n))  # unit hessians, mse-style
    bds = _binned_from_bins(bins, n_real=[8] * 4)
    params = Params(min_data_in_leaf=2, num_leaves=64)
    t1 = grow_tree(bds, grads, _node(n), range(4), params, np.random.default_rng(0))
    t2 = reference_tree.grow_tree(bds, grads, _node(n), range(4), params,
                                  np.random.default_rng(0), gain_form="variance")
    assert np.allclose(t1.predict_bins(bds.bins), t2.predict_bins(bds.bins))
    structure1 = sorted((nd.feature, nd.threshold_bin, nd.count) for nd in t1.internal_nodes())
    structure2 = sorted((nd.feature, nd.threshold_bin, nd.count) for nd in t2.internal_nodes())
    assert structure1 == structure2


def test_missing_rows_follow_learned_default_direction():
    # feature value missing for two rows whose gradients match the right side
    bins = np.array([0, 0, 0, 1, 1, 1, 2, 2], dtype=np.uint32)  # bin 2 = missing
    mapper = [FeatureBins(name="f0", kind="numeric", n_real_bins=2,
                          edges=np.array([0.5]))]
    bds = BinnedDataset(mapper=mapper, bins=bins.reshape(-1, 1), target=None,
                        max_bin=255, min_data_in_bin=1)
    grads = _grads([1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.1, -0.9])
    params = Params(min_data_in_leaf=1, num_leaves=2)
    tree = grow_tree(bds, grads, _node(8), [0], params, np.random.default_rng(0))
    root = tree.nodes[0]
    assert not root.is_leaf
    assert root.default_left is False  # missing joins the negative-gradient side
    out = tree.predict_bins(bds.bins.reshape(-1, 1))
    assert out[6] == out[3]  # missing rows routed with the right child


def test_leaf_value_clamped():
    grads = _grads([-1.0], [1e-12])
    bds = _binned_from_bins([[0]], n_real=[2])
    tree = grow_tree(bds, grads, _node(1), [0], Params(min_data_in_leaf=1),
                     np.random.default_rng(0))
    assert tree.nodes[0].value == pytest.approx(1e4)


def test_variance_gain_helper_matches_formula():
    assert reference_tree.variance_gain(3.0, 3, -3.0, 3, 6) == pytest.approx(1.0)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_grow_stress_mixed_types_and_missing(seed):
    # crash-safety and gate audit over mixed numeric/categorical data with
    # missing values, both split-selection modes, tiny leaf floors
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 60))
    n_cats = int(rng.integers(2, 12))
    num_real = int(rng.integers(1, 6))
    num_bins = rng.integers(0, num_real + 1, size=n)   # + 1 includes missing
    cat_bins = rng.integers(0, n_cats + 1, size=n)
    bds = _binned_from_bins([num_bins, cat_bins], kinds=["numeric", "categorical"],
                            n_real=[num_real, n_cats])
    grads = _grads(rng.standard_normal(n), rng.random(n) + 1e-3)
    params = Params(
        min_data_in_leaf=int(rng.choice([1, 2, 5])),
        num_leaves=int(rng.integers(2, 9)),
        extra_trees=bool(rng.integers(2)),
        max_cat_to_onehot=int(rng.choice([1, 4, 100])),
        min_data_per_group=int(rng.choice([1, 3])),
        cat_l2=float(rng.choice([0.0, 10.0])),
        cat_smooth=float(rng.choice([0.0, 10.0])),
    )
    tree = grow_tree(bds, grads, _node(n), [0, 1], params, np.random.default_rng(seed))
    assert tree.num_leaves_used <= params.num_leaves
    for nd in tree.internal_nodes():
        left, right = tree.nodes[nd.left], tree.nodes[nd.right]
        assert min(left.count, right.count) >= params.min_data_in_leaf
    out = tree.predict_bins(bds.bins)
    assert np.all(np.isfinite(out))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # saturated sigmoids divide by ~0
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=500, deadline=None)
def test_grow_tree_matches_frozen_reference(seed):
    # the node-level scan must grow the per-feature reference's tree byte for
    # byte and leave the generator where the reference leaves it
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 65))
    n_features = int(rng.integers(1, 7))
    kinds = [str(rng.choice(["numeric", "categorical"])) for _ in range(n_features)]
    n_real = [int(rng.integers(1, 13)) for _ in range(n_features)]
    # bin n_real[j] is the missing bin
    bins = [rng.integers(0, k + 1, size=n) for k in n_real]
    bds = _binned_from_bins(bins, kinds=kinds, n_real=n_real)
    objective = str(rng.choice(OBJECTIVES))
    if objective == "binary-logloss":
        y = rng.integers(0, 2, size=n).astype(float)
    else:
        y = rng.standard_normal(n)
    # wide scores saturate the sigmoid: zero hessians and infinite gains
    scores = rng.standard_normal(n) * float(rng.choice([0.5, 3.0, 40.0, 1000.0]))
    grads = compute_gradients(objective, y, scores)
    params = Params(
        objective=objective,
        min_data_in_leaf=int(rng.choice([1, 2, 3, 5, 20])),
        num_leaves=int(rng.integers(2, 9)),
        extra_trees=bool(rng.integers(2)),
        max_cat_to_onehot=int(rng.choice([1, 3, 100])),
        min_data_per_group=int(rng.choice([1, 2, 5])),
        cat_l2=float(rng.choice([0.0, 1.0, 10.0])),
        cat_smooth=float(rng.choice([0.0, 1.0, 10.0])),
    )
    rows = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
    feats = rng.choice(n_features, size=int(rng.integers(1, n_features + 1)), replace=False)
    tree_seed = int(rng.integers(2**32))

    lib_rng, ref_rng = np.random.default_rng(tree_seed), np.random.default_rng(tree_seed)
    got = grow_tree(bds, grads, rows, feats, params, lib_rng)
    want = reference_tree.grow_tree(bds, grads, rows, feats, params, ref_rng)
    assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
    assert lib_rng.random() == ref_rng.random()


def _random_grow_input(rng, objective):
    """One tree's data, as the frozen-reference property draws it."""
    n = int(rng.integers(1, 65))
    n_features = int(rng.integers(1, 7))
    kinds = [str(rng.choice(["numeric", "categorical"])) for _ in range(n_features)]
    n_real = [int(rng.integers(1, 13)) for _ in range(n_features)]
    # bin n_real[j] is the missing bin
    bds = _binned_from_bins([rng.integers(0, k + 1, size=n) for k in n_real],
                            kinds=kinds, n_real=n_real)
    if objective == "binary-logloss":
        y = rng.integers(0, 2, size=n).astype(float)
    else:
        y = rng.standard_normal(n)
    scores = rng.standard_normal(n) * float(rng.choice([0.5, 3.0, 40.0, 1000.0]))
    grads = compute_gradients(objective, y, scores)
    rows = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
    feats = rng.choice(n_features, size=int(rng.integers(1, n_features + 1)), replace=False)
    return bds, grads, rows, feats


def _random_params(rng, objective):
    """Parameters that reach every branch of the scan, as the properties draw them."""
    return Params(
        objective=objective,
        min_data_in_leaf=int(rng.choice([1, 2, 3, 5, 20])),
        num_leaves=int(rng.integers(2, 9)),
        extra_trees=bool(rng.integers(2)),
        max_cat_to_onehot=int(rng.choice([1, 3, 100])),
        min_data_per_group=int(rng.choice([1, 2, 5])),
        cat_l2=float(rng.choice([0.0, 1.0, 10.0])),
        cat_smooth=float(rng.choice([0.0, 1.0, 10.0])),
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # saturated sigmoids divide by ~0
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=400, deadline=None)
def test_grow_trees_in_lockstep_match_frozen_reference(seed):
    # trees grown in one batch, with differently binned data and their own
    # generators, each equal the reference grown alone, draws included
    rng = np.random.default_rng(seed)
    objective = str(rng.choice(OBJECTIVES))
    params = _random_params(rng, objective)
    jobs, tree_seeds = [], []
    for _ in range(int(rng.integers(1, 7))):
        tree_seeds.append(int(rng.integers(2**32)))
        jobs.append(GrowJob(*_random_grow_input(rng, objective),
                            rng=np.random.default_rng(tree_seeds[-1]), params=params))
    got = grow_trees(jobs)
    assert len(got) == len(jobs)
    for job, tree, tree_seed in zip(jobs, got, tree_seeds):
        ref_rng = np.random.default_rng(tree_seed)
        want = reference_tree.grow_tree(job.bds, job.grads, job.row_set, job.feature_subset,
                                        params, ref_rng)
        assert json.dumps(tree.to_dict()) == json.dumps(want.to_dict())
        assert job.rng.random() == ref_rng.random()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # saturated sigmoids divide by ~0
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=400, deadline=None)
def test_mixed_greedy_and_extra_trees_batch_matches_frozen_reference(seed):
    # greedy and extra-trees jobs share every scan of one batch; each tree
    # equals the reference grown alone in its own mode, draws included
    rng = np.random.default_rng(seed)
    objective = str(rng.choice(OBJECTIVES))
    params = _random_params(rng, objective)
    n_jobs = int(rng.integers(2, 7))
    modes = [True, False] + [bool(rng.integers(2)) for _ in range(n_jobs - 2)]
    rng.shuffle(modes)
    jobs, tree_seeds = [], []
    for extra in modes:
        tree_seeds.append(int(rng.integers(2**32)))
        jobs.append(GrowJob(*_random_grow_input(rng, objective),
                            rng=np.random.default_rng(tree_seeds[-1]),
                            params=dataclasses.replace(params, extra_trees=extra)))
    got = grow_trees(jobs)
    assert len(got) == len(jobs)
    for job, tree, tree_seed in zip(jobs, got, tree_seeds):
        ref_rng = np.random.default_rng(tree_seed)
        want = reference_tree.grow_tree(job.bds, job.grads, job.row_set, job.feature_subset,
                                        job.params, ref_rng)
        assert json.dumps(tree.to_dict()) == json.dumps(want.to_dict())
        assert job.rng.random() == ref_rng.random()



@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # saturated sigmoids divide by ~0
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=400, deadline=None)
def test_batch_of_jobs_with_their_own_params_matches_frozen_reference(seed):
    # jobs differing in every parameter the grower reads share every scan of
    # one batch; each tree equals the reference grown alone under its own
    # parameters, draws included
    rng = np.random.default_rng(seed)
    jobs, tree_seeds = [], []
    for _ in range(int(rng.integers(2, 7))):
        objective = str(rng.choice(OBJECTIVES))
        params = _random_params(rng, objective)
        tree_seeds.append(int(rng.integers(2**32)))
        jobs.append(GrowJob(*_random_grow_input(rng, objective),
                            rng=np.random.default_rng(tree_seeds[-1]), params=params))
    got = grow_trees(jobs)
    assert len(got) == len(jobs)
    for job, tree, tree_seed in zip(jobs, got, tree_seeds):
        ref_rng = np.random.default_rng(tree_seed)
        want = reference_tree.grow_tree(job.bds, job.grads, job.row_set, job.feature_subset,
                                        job.params, ref_rng)
        assert json.dumps(tree.to_dict()) == json.dumps(want.to_dict())
        assert job.rng.random() == ref_rng.random()



# --- routing --------------------------------------------------------------


def _random_tree(rng, n_bins):
    """A hand-built tree over features with ``n_bins[j]`` bins, the last one missing.

    Splits mix numeric thresholds (some at or past the missing bin) and
    category sets of one or more bins (some holding the missing bin), either
    ``default_left``; leaf values include -0.0, infinities and NaN.
    """
    tree = Tree()

    def build(depth):
        nid = len(tree.nodes)
        if depth >= 5 or rng.random() < 0.25 * depth:
            value = float(rng.choice([rng.standard_normal(), -0.0, np.inf, -np.inf, np.nan],
                                     p=[0.8, 0.05, 0.05, 0.05, 0.05]))
            tree.nodes.append(TreeNode(value=value, count=1))
            return nid
        f = int(rng.integers(len(n_bins)))
        node = TreeNode(feature=f, missing_bin=n_bins[f] - 1, default_left=bool(rng.integers(2)))
        if rng.random() < 0.5:
            node.threshold_bin = int(rng.integers(-1, n_bins[f] + 1))
        else:
            k = int(rng.integers(1, n_bins[f] + 1))
            node.left_cats = tuple(sorted(rng.choice(n_bins[f], size=k, replace=False).tolist()))
        tree.nodes.append(node)
        node.left = build(depth + 1)
        node.right = build(depth + 1)
        return nid

    build(0)
    return tree


def _layouts(rng, bins):
    """``bins`` as a C-order, an F-order and a non-contiguous column-strided matrix."""
    wide = np.empty((bins.shape[0], 2 * bins.shape[1] + 1), dtype=bins.dtype)
    wide[:, 1::2] = bins
    wide[:, ::2] = rng.integers(0, 1000, size=wide[:, ::2].shape)  # never read
    return [np.ascontiguousarray(bins), np.asfortranarray(bins), wide[:, 1::2]]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # saturated sigmoids divide by ~0
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=400, deadline=None)
def test_predict_bins_matches_the_frozen_router(seed):
    # the column-wise kernel gives every row the leaf value the frozen
    # per-tree router gives it, bit for bit, on grown and hand-built trees,
    # for 0, 1 or many rows in any memory layout
    rng = np.random.default_rng(seed)
    if rng.random() < 0.5:
        objective = str(rng.choice(OBJECTIVES))
        bds, grads, rows, feats = _random_grow_input(rng, objective)
        preset = [default_preset, fsl_preset, lambda: _random_params(rng, objective)]
        params = dataclasses.replace(preset[int(rng.integers(3))](), objective=objective)
        tree = grow_tree(bds, grads, rows, feats, params, np.random.default_rng(seed))
        n_bins = [fb.missing_bin + 1 for fb in bds.mapper]
    else:
        n_bins = [int(rng.integers(1, 13)) for _ in range(int(rng.integers(1, 7)))]
        tree = _random_tree(rng, n_bins)
    n = int(rng.choice([0, 1, int(rng.integers(2, 200))]))
    # with the missing bin present in some columns, absent from the rest
    top = [k if rng.random() < 0.5 else k - 1 for k in n_bins]
    bins = np.column_stack([rng.integers(0, max(t, 1), size=n) for t in top]
                           ).astype(np.uint32).reshape(n, len(n_bins))
    want = reference_route.predict_bins(tree, np.ascontiguousarray(bins))
    for layout in _layouts(rng, bins):
        got = tree.predict_bins(layout)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
