"""Command-line entry point.

Commands: ``bench`` (k-shot AUC grid), ``train`` (warns when every tree is a
single leaf), ``predict`` (model or pipeline bundles), ``stack`` (partition
-> level-0 -> blender -> thresholds) and ``calibrate`` (recompute thresholds
for a scores file). Exit codes: 0 success, 1 usage/validation/I-O error, 2
partial benchmark failure.

``predict`` reads the scoring CSV's columns by name and codes its categories
against the bundle's training vocabulary (``dataset.encode_csv``), so the
scores do not depend on the file's row or column order. It needs no
``--schema``; the flag is still accepted. A bundle is checked as it
decodes, strictly: an integer field must hold a JSON integer.

``calibrate`` reads its scores with the same CSV decoder (``load_csv``, the
score column as the target and every other column ignored), so a malformed
scores file fails with that decoder's message. Every JSON output goes
through ``dataset.write_json``.

Identical inputs and ``--seed`` produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import os
import sys

from .booster import Model, load_model, predict, save_model, train
from .dataset import bin_features, encode_csv, load_csv, open_csv, read_json, write_json
from .errors import FewboostError, ValidationError
from .fsl import default_preset, fsl_preset, run_benchmark
from .params import Params
from .stacking import (calibrate_thresholds, fit_stacking, load_pipeline, make_default_zoo,
                       save_pipeline)


def _resolve_params(args) -> Params:
    if args.preset == "file" and not args.params:
        raise ValidationError("--preset file requires --params <file>")
    base = fsl_preset() if args.preset == "fsl" else default_preset()
    return Params.from_dict(read_json(args.params), base=base) if args.params else base


def _parse_shots(text: str) -> list[int]:
    try:
        shots = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValidationError(f"--shots must be a comma list of integers, got {text!r}") from None
    if not shots:
        raise ValidationError("--shots must name at least one shot count")
    return shots


def _parse_target_dist(text: str) -> dict[str, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValidationError("--target-dist must be three comma-separated probabilities")
    try:
        p = [float(tok) for tok in parts]
    except ValueError:
        raise ValidationError(f"--target-dist values must be numbers, got {text!r}") from None
    return {"sell": p[0], "hold": p[1], "buy": p[2]}


def cmd_bench(args) -> int:
    ds = load_csv(args.data, args.schema)
    params = _resolve_params(args)
    shots = _parse_shots(args.shots)
    seeds = list(range(args.seed, args.seed + args.seeds))
    presets = {args.preset if args.preset != "file" else "custom": params}
    report = run_benchmark(ds, shots, seeds, presets)
    write_json(args.out, report.to_dict())
    txt_path = os.path.splitext(args.out)[0] + ".txt"
    with open(txt_path, "w", encoding="utf-8") as fh:
        fh.write(report.to_text())
    print(report.to_text(), end="")
    return 2 if report.has_failures else 0


def cmd_train(args) -> int:
    ds = load_csv(args.data, args.schema)
    params = _resolve_params(args)
    if args.seed is not None:
        params = Params.from_dict({"seed": args.seed}, base=params)
    bds = bin_features(ds, params.max_bin, params.min_data_in_bin)
    model = train(bds, params)
    save_model(model, args.out)
    if model.trees and model.all_single_leaf():  # a root's count is the rows its tree saw
        print(f"warning: every tree is a single leaf: the leaf floor is 2*min_data_in_leaf = "
              f"{2 * params.min_data_in_leaf} rows, and each tree saw "
              f"{model.trees[0].nodes[0].count}", file=sys.stderr)
    print(f"wrote model to {args.out}")
    return 0


def _load_bundle(path: str):
    """The model or pipeline in a bundle file, which is parsed once."""
    doc = read_json(path)
    fmt = doc.get("format") if isinstance(doc, dict) else None
    load = {"fewboost-model": load_model, "fewboost-pipeline": load_pipeline}.get(fmt)
    if load is None:
        raise ValidationError(f"{path}: unknown bundle format {fmt!r}")
    try:
        return load(path, doc)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def cmd_predict(args) -> int:
    bundle = _load_bundle(args.model)
    if isinstance(bundle, Model):
        header = ["row_id", "score"]
        columns = [predict(bundle, encode_csv(args.data, bundle.mapper)).tolist()]
    else:
        # columns by name against the level-0 vocabularies; --schema is not needed
        scores = bundle.predict_score(encode_csv(args.data, bundle.feature_columns()))
        header = ["row_id", "blended_score", "action"]
        columns = [scores.tolist(), bundle.thresholds.apply(scores).tolist()]
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        # csv writes a float as its repr
        writer.writerows(zip(itertools.count(), *columns))
    print(f"wrote predictions to {args.out}")
    return 0


def cmd_stack(args) -> int:
    ds = load_csv(args.data, args.schema)
    configs = make_default_zoo(ds, k_per_model=args.k_per_model, seed=args.seed,
                               params=_resolve_params(args))
    target_dist = _parse_target_dist(args.target_dist)
    pipeline = fit_stacking(ds, configs, target_dist, seed=args.seed)
    save_pipeline(pipeline, args.out)
    print(f"wrote pipeline to {args.out}")
    return 0


def cmd_calibrate(args) -> int:
    with open_csv(args.data) as reader:
        header = next(reader, [])
    col = next((c for c in ("blended_score", "score") if c in header), None)
    if col is None:
        raise ValidationError(f"{args.data}: expected a 'score' or 'blended_score' column")
    scores = load_csv(args.data, {c: "target" if c == col else "ignore" for c in header}).target
    thresholds = calibrate_thresholds(scores, _parse_target_dist(args.target_dist))
    write_json(args.out, {"format": "fewboost-thresholds", "version": 1, **thresholds.to_dict()})
    print(f"wrote thresholds to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fewboost")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, preset="default"):
        p.add_argument("--data", required=True, help="input CSV path")
        p.add_argument("--schema", required=True, help="JSON column-type schema")
        p.add_argument("--preset", default=preset, choices=["default", "fsl", "file"])
        p.add_argument("--params", default=None, help="JSON parameter overrides")

    p = sub.add_parser("bench", help="k-shot AUC benchmark grid")
    add_common(p)
    p.add_argument("--shots", default="4,8,16,32,64", help="comma list of shot counts")
    p.add_argument("--seeds", type=int, default=20, help="seeds per cell")
    p.add_argument("--seed", type=int, default=0, help="first seed")
    p.add_argument("--out", required=True, help="JSON report path (.txt table alongside)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("train", help="train one model")
    add_common(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="model bundle path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score rows with a model or pipeline bundle")
    p.add_argument("--model", required=True, help="model or pipeline bundle")
    p.add_argument("--data", required=True, help="input CSV path")
    p.add_argument("--schema", default=None,
                   help="accepted and not needed: the bundle types its columns")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("stack", help="fit the stacked few-shot pipeline")
    add_common(p, preset="fsl")
    p.add_argument("--k-per-model", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--target-dist", default="0.25,0.5,0.25",
                   help="sell,hold,buy probabilities")
    p.add_argument("--out", required=True, help="pipeline bundle path")
    p.set_defaults(func=cmd_stack)

    p = sub.add_parser("calibrate", help="recompute action thresholds for a scores CSV")
    p.add_argument("--data", required=True, help="CSV with a score/blended_score column")
    p.add_argument("--target-dist", required=True, help="sell,hold,buy probabilities")
    p.add_argument("--out", required=True, help="thresholds JSON path")
    p.set_defaults(func=cmd_calibrate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FewboostError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
