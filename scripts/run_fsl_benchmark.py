#!/usr/bin/env python3
"""Compare the default and few-shot presets over a k-shot AUC grid.

Runs on a user CSV (``--data`` + ``--schema``) or, by default, on the
built-in synthetic binary task. Prints the aligned table and optionally
writes the JSON report.

Example:
    python3 scripts/run_fsl_benchmark.py --shots 4,8,16,32,64 --seeds 20
"""

import argparse
import sys

from fewboost.dataset import load_csv, write_json
from fewboost.fsl import default_preset, fsl_preset, run_benchmark
from fewboost.synth import make_synthetic_binary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--data", default=None, help="CSV path (synthetic data if omitted)")
    ap.add_argument("--schema", default=None, help="JSON schema path")
    ap.add_argument("--shots", default="4,8,16,32,64")
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rows", type=int, default=500, help="synthetic rows")
    ap.add_argument("--out", default=None, help="optional JSON report path")
    args = ap.parse_args()

    if args.data:
        if not args.schema:
            ap.error("--schema is required with --data")
        ds = load_csv(args.data, args.schema)
    else:
        ds = make_synthetic_binary(n_rows=args.rows, seed=args.seed)

    shots = [int(tok) for tok in args.shots.split(",")]
    seeds = list(range(args.seed, args.seed + args.seeds))
    report = run_benchmark(
        ds, shots, seeds,
        presets={"fsl": fsl_preset(), "default": default_preset()},
    )
    print(report.to_text(), end="")
    for preset in report.presets:
        for k in shots:
            cell = report.cell(preset, k)
            if cell.median is not None:
                print(f"  {preset:8s} {k:3d}-shot  median={cell.median:.4f}  "
                      f"sd={cell.sd:.4f}")
    if args.out:
        write_json(args.out, report.to_dict())
        print(f"report written to {args.out}")
    return 2 if report.has_failures else 0


if __name__ == "__main__":
    sys.exit(main())
