#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload with alternating pairs of runs.

Usage, from anywhere:

    python3 scripts/bench_pairs.py PARENT CHANGE --workload kshot-grid --seeds 501-510

``--workload`` takes any workload that the ``BENCHMARK.json`` of this
script's own checkout names.

For every seed, ``bench/run.py`` runs once in each checkout, in a fresh
process, with its own ``--seconds`` and ``--trace``. Which side runs first
alternates from seed to seed, so a drift in the host's speed does not favour
one side. Every run must exit 0 and end its standard output with one JSON
result line (no ``NaN``, ``Infinity`` or ``null`` value) that reports
``"correct": true``.
A run that does not is reported with its seed and side, its pair is left out
of the comparison, and the script exits 1 after the last pair.

For each metric it prints both sides' median and quartiles over the pairs
whose runs are both correct, the number of those pairs in which the change
was better (the direction comes from PARENT's ``BENCHMARK.json``), and
whether the medians differ by more than the parent's interquartile range.
``--counts`` also counts, in one round of the workload at the first seed,
each side's split scans (``tree._best_splits`` calls), ``grow_trees`` calls,
``compute_gradients`` calls, ``Tree.predict_bins`` calls and the rows they
route (``bins.shape[0]`` summed over the calls, as the traced
``tree.routed_rows``). ``--out FILE`` writes all of it, and every run's
result, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

# One round of a workload with the split scan, the batch grower, the
# gradient pass and tree routing counted. Runs inside the checkout: argv is
# (workload, seed, scratch directory).
COUNT_CALLS = r"""
import importlib
import sys
sys.path[:0] = ["src", "."]
from bench.workloads import WORKLOADS

wl = WORKLOADS[sys.argv[1]](int(sys.argv[2]), sys.argv[3])
wl.SETUP_LOADS = 1
wl.setup()
wl.ready()
counts = {}
for module, name in (("fewboost.tree", "_best_splits"), ("fewboost.tree", "grow_trees"),
                     ("fewboost.booster", "compute_gradients")):
    original = getattr(importlib.import_module(module), name, None)
    if original is None:
        counts[name] = None
        continue
    counts[name] = 0

    def counted(*args, _fn=original, _name=name, **kwargs):
        counts[_name] += 1
        return _fn(*args, **kwargs)

    for module in [m for n, m in sys.modules.items() if n.startswith("fewboost")]:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, counted)
# Tree.predict_bins is a method: count its calls and routed rows (len(bins)) on the class
tree_cls = getattr(importlib.import_module("fewboost.tree"), "Tree", None)
predict_bins = getattr(tree_cls, "predict_bins", None)
if predict_bins is None:
    counts["predict_bins"] = counts["routed_rows"] = None
else:
    counts["predict_bins"] = counts["routed_rows"] = 0

    def counted_predict_bins(self, bins, *args, **kwargs):
        counts["predict_bins"] += 1
        counts["routed_rows"] += len(bins)
        return predict_bins(self, bins, *args, **kwargs)

    tree_cls.predict_bins = counted_predict_bins
for op in wl.ops:
    op()
print(__import__("json").dumps(counts))
"""


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def _reject(constant: str):
    raise ValueError(f"non-finite number {constant} in the result line")


def _nulls(value, path: str = "") -> list[str]:
    """The paths of every ``null`` in a parsed result line."""
    if value is None:
        return [path or "the result"]
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in _nulls(v, f"{path}.{k}" if path else k)]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in _nulls(v, f"{path}[{i}]")]
    return []


def run_once(checkout: str, workload: str, seed: int, seconds: float,
             trace: int) -> tuple[dict | None, str | None]:
    """One ``bench/run.py`` run: its parsed last stdout line, and what is wrong with the run.

    The result is None when the run exited non-zero or its last line is not
    a JSON result; the problem is None for a correct result.
    """
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    stderr = proc.stderr.strip()[-2000:]
    if proc.returncode != 0 or not lines:
        return None, f"exit {proc.returncode}, {len(lines)} stdout lines: {stderr}"
    try:
        result = json.loads(lines[-1], parse_constant=_reject)
        nulls = _nulls(result)
        if nulls:
            raise ValueError(f"null value at {', '.join(nulls[:5])}")
    except ValueError as exc:
        return None, f"last stdout line is not a result ({exc}): {lines[-1][:500]!r}"
    if not isinstance(result, dict) or result.get("correct") is not True:
        return result, f"result is not correct: {stderr}"
    return result, None


def count_calls(checkout: str, workload: str, seed: int, scratch: str) -> dict:
    proc = subprocess.run([sys.executable, "-c", COUNT_CALLS, workload, str(seed), scratch],
                          cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's median and quartiles, and the pairs the change won."""
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        got = [(p["parent"]["metrics"][name]["value"], p["change"]["metrics"][name]["value"])
               for p in pairs]
        got = [(a, b) for a, b in got if a is not None and b is not None]
        if not got:
            out[name] = None
            continue
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        parent = _quartiles([a for a, _ in got])
        change = _quartiles([b for _, b in got])
        out[name] = {
            "better": better.get(name, "lower"),
            "parent": parent,
            "change": change,
            "pairs": len(got),
            "change_better": sum(sign * (b - a) > 0 for a, b in got),
            "equal": sum(a == b for a, b in got),
            "median_gap_exceeds_parent_iqr":
                abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"],
        }
    return out


def build_parser() -> argparse.ArgumentParser:
    """The command line; ``--workload`` choices come from this checkout's ``BENCHMARK.json``."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="checkout the change is compared against")
    ap.add_argument("change", help="checkout with the change")
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seeds", required=True, type=_seed_range, help="inclusive range A-B")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--counts", action="store_true",
                    help="also count split scans, grow_trees, compute_gradients and "
                         "Tree.predict_bins calls, and routed rows, at the first seed")
    ap.add_argument("--out", default=None, help="write the summary and every run as JSON")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(sides["parent"], "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    better = {m["name"]: m["better"]
              for m in declared.get("end_to_end", []) + declared.get("per_layer", [])}

    pairs, problems = [], []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0], "problems": {}}
        for side in order:
            pair[side], problem = run_once(sides[side], args.workload, seed, args.seconds,
                                           args.trace)
            if problem is not None:
                pair["problems"][side] = problem
                problems.append(f"seed {seed} {side}: {problem}")
        pairs.append(pair)
        print(f"seed {seed} ({order[0]} first): " + ", ".join(
            f"{side} " + (pair["problems"][side] if side in pair["problems"] else
                          f"failed {pair[side]['failed']}/{pair[side]['attempted']}")
            for side in ("parent", "change")), file=sys.stderr)

    good = [p for p in pairs if not p["problems"]]
    print(f"{args.workload}: {len(good)} of {len(pairs)} pairs with both runs correct, "
          f"seeds {args.seeds[0]}-{args.seeds[-1]}, --seconds {args.seconds:g} "
          f"--trace {args.trace}")
    summary = summarize(good, better) if good else {}
    print(f"{'metric':34} {'parent median [q1, q3]':30} {'change median [q1, q3]':30} "
          f"{'change better':>13}  gap > parent IQR")
    for name, s in summary.items():
        if s is None:
            print(f"{name:34} unmeasured")
            continue

        def fmt(q):
            return f"{q['median']:.4g} [{q['q1']:.4g}, {q['q3']:.4g}]"

        print(f"{name:34} {fmt(s['parent']):30} {fmt(s['change']):30} "
              f"{s['change_better']:>6}/{s['pairs']:<6}  {s['median_gap_exceeds_parent_iqr']}")
    for side in ("parent", "change"):
        failed = sum(p[side]["failed"] for p in good)
        attempted = sum(p[side]["attempted"] for p in good)
        print(f"{side}: failed {failed} of {attempted} operations")
    for problem in problems:
        print(f"not a correct result: {problem}")

    record = {"workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
              "trace": args.trace, "summary": summary, "problems": problems, "pairs": pairs}
    if args.counts:
        record["counts"] = {}
        for side, checkout in sides.items():
            with tempfile.TemporaryDirectory() as scratch:
                record["counts"][side] = count_calls(checkout, args.workload, args.seeds[0],
                                                     scratch)
            print(f"{side}: one round at seed {args.seeds[0]}: {record['counts'][side]}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
