"""Frozen per-tree router: the oracle for ``fewboost.tree.Tree.predict_bins``.

This is the router that the column-wise kernel (``fewboost.tree._route``)
replaced. It walks the tree with a stack of (node, row ids), starting from
every row. At each internal node it gathers the node's bins with one 2-D
fancy index, ``bins[idx, feature]``, sends rows in ``missing_bin`` to
``default_left`` and the rest left when their bin is at most
``threshold_bin`` or one of ``left_cats``, and splits the row ids with two
boolean compressions. It shares no routing code with the library (only the
tree containers), so a property test can demand bit-identical leaf values.
"""

from __future__ import annotations

import numpy as np


def _goes_left(fb, left_cats, threshold_bin):
    if left_cats is None:
        return fb <= threshold_bin
    if len(left_cats) == 1:
        return fb == left_cats[0]
    return np.isin(fb, left_cats)


def predict_bins(tree, bins):
    """Leaf value per row of a binned (rows x features) matrix."""
    n = bins.shape[0]
    out = np.zeros(n, dtype=np.float64)
    root = tree.nodes[0]
    if root.is_leaf:
        out[:] = root.value
        return out
    stack = [(0, np.arange(n, dtype=np.intp))]
    while stack:
        nid, idx = stack.pop()
        nd = tree.nodes[nid]
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
