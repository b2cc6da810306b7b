#!/usr/bin/env python3
"""End-to-end stacking demo on the synthetic market-indicator task.

Fits the five-model zoo on disjoint shot partitions, blends by NNLS,
calibrates action thresholds, and reports per-model and blended MSE on a
held-out slice plus the achieved action distribution.
"""

import argparse
import sys

import numpy as np

from fewboost.metrics import mse
from fewboost.stacking import fit_stacking, make_default_zoo, train_level0
from fewboost.synth import make_synthetic_stock


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rows", type=int, default=2500)
    ap.add_argument("--held-out", type=int, default=500)
    ap.add_argument("--k-per-model", type=int, default=300)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    full = make_synthetic_stock(n_rows=args.rows, seed=args.seed)
    n_train = args.rows - args.held_out
    ds = full.take(np.arange(n_train))
    held = full.take(np.arange(n_train, args.rows))

    configs = make_default_zoo(ds, k_per_model=args.k_per_model, seed=args.seed)
    result = train_level0(ds, configs)
    meta_y = ds.target[result.meta_indices]
    print(f"{'model':20s} {'features':>8s} {'meta MSE':>10s}")
    for fit, col in zip(result.fits, result.meta_features.T):
        print(f"{fit.config.name:20s} {len(fit.config.feature_set):8d} "
              f"{mse(meta_y, col).value:10.6f}")

    dist = {"sell": 0.25, "hold": 0.5, "buy": 0.25}
    pipeline = fit_stacking(ds, configs, dist, seed=args.seed)
    blend = pipeline.predict_score(held.values)
    baseline = mse(held.target, np.full(held.n_rows, meta_y.mean())).value
    print(f"\nheld-out blend MSE   {mse(held.target, blend).value:.6f}")
    print(f"held-out constant MSE {baseline:.6f}")

    actions = pipeline.predict_actions(held.values)
    n = len(actions)
    print(f"\naction distribution on held-out rows "
          f"(target sell/hold/buy = {dist['sell']}/{dist['hold']}/{dist['buy']}):")
    for name, code in (("sell", -1), ("hold", 0), ("buy", 1)):
        print(f"  {name:5s} {np.mean(actions == code):.3f} ({(actions == code).sum()}/{n})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
