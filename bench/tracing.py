"""Per-layer tracing for the benchmark's traced run.

:class:`Tracer` wraps public fewboost functions in place, in every fewboost
module namespace that binds them, so a call made through any caller's
lookup is recorded. Each call while a phase is open becomes a span (name,
parent span, start, end, phase and one work count), kept in memory and
written out by :meth:`Tracer.dump`. Nothing here is imported by an untraced
run.

A function that no longer exists under its recorded name is left alone, and
every metric built on it reports ``None`` (unmeasured) instead of failing
the run.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
from array import array

import numpy as np

# traced name -> (module, attribute path, work count from (args, kwargs, result))
WRAPPED = {
    "load_csv": ("fewboost.dataset", "load_csv", lambda a, k, r: r.n_rows),
    "bin_features": ("fewboost.dataset", "bin_features", None),
    "bin_matrix": ("fewboost.dataset", "bin_matrix", lambda a, k, r: r.shape[0]),
    "grow_tree": ("fewboost.tree", "grow_tree",
                  lambda a, k, r: sum(1 for _ in r.internal_nodes())),
    "build_histogram": ("fewboost.tree", "build_histogram",
                        lambda a, k, r: _arg(a, k, 2, "node").n),
    "find_best_split": ("fewboost.tree", "find_best_split", None),
    "extra_random_split": ("fewboost.tree", "extra_random_split", None),
    "categorical_split": ("fewboost.tree", "categorical_split", None),
    "predict_bins": ("fewboost.tree", "Tree.predict_bins",
                     lambda a, k, r: _arg(a, k, 1, "bins").shape[0]),
    "train": ("fewboost.booster", "train", None),
    "compute_gradients": ("fewboost.booster", "compute_gradients", None),
    "predict": ("fewboost.booster", "predict", None),
    "load_model": ("fewboost.booster", "load_model",
                   lambda a, k, r: os.path.getsize(_arg(a, k, 0, "path"))),
    "load_pipeline": ("fewboost.stacking", "load_pipeline",
                      lambda a, k, r: os.path.getsize(_arg(a, k, 0, "path"))),
    "run_benchmark": ("fewboost.fsl", "run_benchmark", None),
    "run_cell": ("fewboost.fsl", "run_cell", None),
    "auc": ("fewboost.metrics", "auc", None),
    "train_mlp": ("fewboost.mlp", "train_mlp", lambda a, k, r: len(r[1])),
    "train_level0": ("fewboost.stacking", "train_level0", None),
    "level0_predictions": ("fewboost.stacking", "level0_predictions", None),
    "calibrate_thresholds": ("fewboost.stacking", "calibrate_thresholds", None),
    "cmd_predict": ("fewboost.cli", "cmd_predict", None),
}

SCANS = ("find_best_split", "extra_random_split", "categorical_split")
DECODE = ("load_model", "load_pipeline")
# cmd_predict children that are bundle decode or scoring; the rest is I/O
NOT_IO = DECODE + ("predict", "level0_predictions")

# per-layer metric -> (unit, statistic, traced names); statistics:
#   time: summed span duration; calls: span count; count: summed work count
#   self: summed duration minus that of direct child spans
PER_LAYER = {
    "dataset.load_csv_s": ("s", "time", ("load_csv",)),
    "dataset.load_csv_rows": ("rows", "count", ("load_csv",)),
    "dataset.bin_features_s": ("s", "time", ("bin_features",)),
    "dataset.bin_matrix_s": ("s", "time", ("bin_matrix",)),
    "dataset.bin_matrix_rows": ("rows", "count", ("bin_matrix",)),
    "tree.grow_tree_s": ("s", "time", ("grow_tree",)),
    "tree.trees": ("trees", "calls", ("grow_tree",)),
    "tree.build_histogram_s": ("s", "time", ("build_histogram",)),
    "tree.histogram_rows": ("rows", "count", ("build_histogram",)),
    "tree.split_scan_s": ("s", "time", SCANS),
    "tree.split_scan_calls": ("calls", "calls", SCANS),
    "tree.split_yield": ("ratio", "yield", ("grow_tree",) + SCANS),
    "tree.categorical_split_s": ("s", "time", ("categorical_split",)),
    "tree.categorical_split_calls": ("calls", "calls", ("categorical_split",)),
    "tree.grow_self_s": ("s", "self", ("grow_tree",)),
    "tree.single_leaf_trees": ("trees", "stalled", ("grow_tree",)),
    "tree.predict_bins_s": ("s", "time", ("predict_bins",)),
    "tree.routed_rows": ("row-trees", "count", ("predict_bins",)),
    "booster.train_s": ("s", "time", ("train",)),
    "booster.compute_gradients_s": ("s", "time", ("compute_gradients",)),
    "booster.predict_s": ("s", "time", ("predict",)),
    "booster.bundle_decode_s": ("s", "time", DECODE),
    "booster.bundle_bytes": ("bytes", "count", DECODE),
    "fsl.run_benchmark_s": ("s", "time", ("run_benchmark",)),
    "fsl.cells": ("cells", "calls", ("run_cell",)),
    "metrics.auc_s": ("s", "time", ("auc",)),
    "mlp.train_s": ("s", "time", ("train_mlp",)),
    "mlp.epochs": ("epochs", "count", ("train_mlp",)),
    "stacking.train_level0_s": ("s", "time", ("train_level0",)),
    "stacking.level0_predictions_s": ("s", "time", ("level0_predictions",)),
    "stacking.calibrate_s": ("s", "time", ("calibrate_thresholds",)),
    "cli.predict_s": ("s", "time", ("cmd_predict",)),
    "cli.io_s": ("s", "io", ("cmd_predict",) + NOT_IO),
}

PHASES = ("setup", "round")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


class Tracer:
    """Span recorder; spans are only taken while a phase is open."""

    def __init__(self):
        self.names = list(WRAPPED)
        self.name_id = array("i")
        self.parent = array("q")
        self.phase_id = array("b")
        self.start = array("d")
        self.end = array("d")
        self.count = array("d")
        self.unmeasured: set[str] = set()
        self._stack: list[int] = []
        self._phase = -1
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def phase(self, name: str):
        self._phase = PHASES.index(name)
        try:
            yield
        finally:
            self._phase = -1

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "fewboost" or n.startswith("fewboost.")]
        for nid, (traced, (module, attr, count)) in enumerate(WRAPPED.items()):
            owner = sys.modules.get(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if owner is None or not callable(original):
                self.unmeasured.add(traced)
                continue
            wrapper = self._wrap(nid, original, count)
            places = [owner] if path else modules
            for place in places:
                for key, value in list(vars(place).items()):
                    if value is original:
                        self._patched.append((place, key, original))
                        setattr(place, key, wrapper)

    def uninstall(self) -> None:
        for place, key, original in reversed(self._patched):
            setattr(place, key, original)
        self._patched.clear()

    def _wrap(self, nid, fn, count):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._phase < 0:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            sid = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(parent)
            tracer.phase_id.append(tracer._phase)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.count.append(0.0)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.start[sid] = t0
                tracer.end[sid] = t1
            if count is not None:
                try:
                    tracer.count[sid] = count(args, kwargs, result)
                except Exception:  # a changed signature: the count is unmeasured
                    tracer.unmeasured.add(tracer.names[nid])
            return result

        traced.__wrapped__ = fn
        return traced

    def _arrays(self):
        name = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        phase = np.frombuffer(self.phase_id, dtype=np.int8)
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        count = np.frombuffer(self.count, dtype=np.float64)
        return name, parent, phase, dur, count

    def metrics(self, setup_passes: int, rounds: int) -> dict:
        """Per-layer figures for one set-up pass plus one round."""
        name, parent, phase, dur, count = self._arrays()
        ids = {n: i for i, n in enumerate(self.names)}
        has_parent = parent >= 0
        child_dur = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        not_io = np.isin(name, [ids[n] for n in NOT_IO])
        sel = has_parent & not_io
        not_io_child = np.bincount(parent[sel], weights=dur[sel], minlength=dur.size)
        per = np.where(phase == 0, 1.0 / max(setup_passes, 1), 1.0 / max(rounds, 1))

        def total(names, values):
            mask = np.isin(name, [ids[n] for n in names])
            return float(np.sum(values[mask] * per[mask]))

        out = {}
        for metric, (unit, stat, names) in PER_LAYER.items():
            if any(n in self.unmeasured for n in names):
                value = None
            elif stat == "time":
                value = total(names, dur)
            elif stat == "calls":
                value = total(names, np.ones_like(dur))
            elif stat == "count":
                value = total(names, count)
            elif stat == "self":
                value = total(names, dur - child_dur)
            elif stat == "stalled":
                value = total(names, (count == 0).astype(np.float64))
            elif stat == "yield":
                scans = total(SCANS, np.ones_like(dur))
                value = total(("grow_tree",), count) / scans if scans else 0.0
            else:  # io
                value = total(("cmd_predict",), dur - not_io_child)
            out[metric] = {"value": value, "unit": unit}
        return out

    def dump(self, path: str) -> None:
        name, parent, phase, dur, count = self._arrays()
        np.savez_compressed(path, names=np.asarray(self.names), name=name, parent=parent,
                            phase=phase, start=np.frombuffer(self.start, dtype=np.float64),
                            end=np.frombuffer(self.end, dtype=np.float64), count=count)
