"""The four benchmark workloads and the checks on their outputs.

Each workload makes its inputs from the seed when constructed (untimed),
then offers the runner:

* ``setup()`` -- one set-up pass: the program calls that load the inputs.
* ``ops`` -- the operations of one round, as zero-argument callables that
  the runner times one by one. Every round does the same work.
* ``ready()`` -- the benchmark's own preparation that needs the loaded
  inputs, once after the set-up passes and untimed.
* ``check(outputs)`` -- verifies one round's outputs and returns how many of
  its operations failed. A wrong output that is not a known fault raises
  :class:`CheckFailed`.
* ``finish()`` -- the checks too costly for every round, once.
* ``quality()`` -- the workload's quality score.

Program calls go through module attributes (``dataset.load_csv``), so the
traced run sees them. The ``check_*`` functions take the outputs as
arguments, which lets the tests feed them corrupted outputs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os

import numpy as np

from fewboost import booster, cli, dataset, fsl, stacking

from . import oracles
from .inputs import binary_table, stock_table

TARGET_DIST = {"sell": 0.25, "hold": 0.5, "buy": 0.25}


class CheckFailed(Exception):
    """A program output disagrees with the benchmark's own computation."""


def _check(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _hold_out(table, n_train: int, workdir: str, name: str):
    """Write the first ``n_train`` rows as CSV; return the paths and the rest."""
    csv_path = os.path.join(workdir, f"{name}.csv")
    schema_path = os.path.join(workdir, f"{name}.schema.json")
    table.take(np.arange(n_train)).write(csv_path, schema_path)
    return csv_path, schema_path, table.take(np.arange(n_train, table.n_rows))


def _encode(table, ds) -> np.ndarray:
    """Feature rows of ``table``, encoded against the vocabulary of ``ds``."""
    header, rows = table.rows(with_target=False)
    return oracles.encode_rows(header, rows, list(zip(ds.feature_names, ds.categories)))


# ---------------------------------------------------------------------------
# checks


def check_cell(name, k, seed, recomputed, reported, model, gate_closed) -> None:
    """One grid cell: the report's AUC is ours; a closed gate gives a constant."""
    _check(recomputed == reported,
           f"{name} k={k} seed={seed}: recomputed AUC {recomputed!r} != report {reported!r}")
    if gate_closed:
        _check(reported == 0.5 and all(t.is_single_leaf for t in model.trees),
               f"{name} k={k} seed={seed}: the leaf floor shuts every split, yet the "
               "model is not a constant scoring AUC 0.5")


def check_fsl_learns(aucs_at_16_up) -> None:
    mean = float(np.mean(aucs_at_16_up))
    _check(mean > 0.6, f"fsl mean AUC at k >= 16 is {mean:.4f}, not clearly above 0.5")


def check_auc_margin(labels, scores, logit, margin) -> None:
    got, best = oracles.auc(labels, scores), oracles.auc(labels, logit)
    _check(got >= best - margin,
           f"held-out AUC {got:.4f} trails the generating logit's {best:.4f} by over {margin}")


def check_permutation(model, x, scores, perm) -> None:
    _check(np.array_equal(booster.predict(model, x[perm]), scores[perm]),
           "scores of row-permuted rows are not the permuted scores")


def check_round_trip(model, x, scores) -> None:
    again = booster.Model.from_dict(model.to_dict())
    _check(np.array_equal(booster.predict(again, x), scores),
           "a bundle round trip changed the scores")


def check_leaf_budget(model, num_leaves) -> None:
    leaves = max(sum(nd.is_leaf for nd in t.nodes) for t in model.trees)
    _check(leaves <= num_leaves, f"a tree has {leaves} leaves, over the budget of {num_leaves}")


def check_partition(shot_sets, meta_indices, n_rows) -> None:
    claimed = np.concatenate(shot_sets)
    _check(np.unique(claimed).size == claimed.size, "shot sets overlap")
    _check(np.array_equal(np.sort(meta_indices), np.setdiff1d(np.arange(n_rows), claimed)),
           "the meta pool is not the complement of the shot sets")


def check_action_counts(actions, target_dist) -> None:
    """Each action's count is less than one row off its target count."""
    for code, action in zip((-1, 0, 1), ("sell", "hold", "buy")):
        count, target = int(np.sum(actions == code)), actions.size * target_dist[action]
        _check(abs(count - target) < 1,
               f"{count} {action} actions on {actions.size} meta rows, target {target}")


def check_beats_constant(y, scores) -> None:
    _check(oracles.r2(y, scores) > 0.0, "held-out R^2 does not beat the constant predictor")


def check_model_scores(got, want, order, by_row) -> np.ndarray:
    """CLI model scores equal ``predict``; mapped back, they match other orders."""
    _check(np.array_equal(got, want), "CLI scores differ from predict on the same rows")
    restored = np.empty_like(got)
    restored[order] = got
    if by_row is not None:
        _check(np.array_equal(restored, by_row), "model scores depend on the file's row order")
    return restored


# ---------------------------------------------------------------------------
# workloads


class KShotGrid:
    """``run_benchmark`` over the fsl and default presets on a heart-sized table.

    One operation is one grid cell (preset, shot count, grid seed); a round
    is one ``run_benchmark`` call over the whole grid. The closing checks
    recompute every ``default`` cell and the ``fsl`` cells of the first grid
    seed; the ``fsl`` cells cost about 0.5 s each.
    """

    name = "kshot-grid"
    SHOTS = (4, 8, 16, 32, 64)
    GRID_SEEDS = 2
    N_ROWS = 303
    CATEGORICAL = {"sex": 2, "cp": 4, "fbs": 2, "restecg": 3, "exang": 2, "slope": 3, "thal": 3}
    SETUP_LOADS = 400  # load_csv calls per set-up pass; one load is ~2.5 ms

    def __init__(self, seed: int, workdir: str):
        table = binary_table(_rng(seed, 1), self.N_ROWS, n_numeric=6, n_informative=3,
                             categorical=self.CATEGORICAL, missing_rate=0.02, strength=2.0)
        self.csv = os.path.join(workdir, "heart.csv")
        self.schema = os.path.join(workdir, "heart.schema.json")
        table.write(self.csv, self.schema)
        self.grid_seeds = [seed * 100 + i for i in range(self.GRID_SEEDS)]
        self.presets = {"fsl": fsl.fsl_preset(), "default": fsl.default_preset()}
        self.ops_per_round = len(self.presets) * len(self.SHOTS) * self.GRID_SEEDS
        self.ops = [self._grid]
        self.report = None

    def setup(self) -> None:
        for _ in range(self.SETUP_LOADS):
            self.ds = dataset.load_csv(self.csv, self.schema)

    def ready(self) -> None:
        pass

    def _grid(self):
        return fsl.run_benchmark(self.ds, self.SHOTS, self.grid_seeds, self.presets)

    def check(self, outputs) -> int:
        (report,) = outputs
        if self.report is None:
            self.report, self.doc = report, report.to_dict()
        _check(report.to_dict() == self.doc, "a repeated grid gave a different report")
        return sum(len(c.failures) for row in report.cells.values() for c in row.values())

    def recompute(self, params, k: int, seed: int):
        """One cell's AUC, by the benchmark's own AUC, and its model."""
        ds = self.ds
        shot = fsl.sample_k_shot(ds, k, seed)
        rest = np.ones(ds.n_rows, dtype=bool)
        rest[shot.indices] = False
        bds = dataset.bin_features(ds.take(shot.indices), params.max_bin, params.min_data_in_bin)
        model = booster.train(bds, dataclasses.replace(params, seed=seed))
        return oracles.auc(ds.target[rest], booster.predict(model, ds.values[rest])), model

    def finish(self) -> None:
        for name, params in self.presets.items():
            seeds = self.grid_seeds[:1] if name == "fsl" else self.grid_seeds
            for k in self.SHOTS:
                for i, s in enumerate(seeds):
                    value, model = self.recompute(params, k, s)
                    check_cell(name, k, s, value, self.report.cell(name, k).aucs[i], model,
                               gate_closed=k < 2 * params.min_data_in_leaf)
        fsl_cells = [self.report.cell("fsl", k) for k in self.SHOTS if k >= 16]
        check_fsl_learns([a for cell in fsl_cells for a in cell.aucs])

    def quality(self) -> float:
        return float(np.mean([a for k in self.SHOTS for a in self.report.cell("fsl", k).aucs]))


class Train20k:
    """Default-preset ``train`` on 20k rows, then ``predict`` on held-out rows.

    One operation, and a round, is one train plus the held-out predict.
    """

    name = "train-20k"
    N_TRAIN = 20_000
    N_HOLD = 5_000
    N_ROUNDS = 5  # boosting rounds; the preset's 100 would take ~30 s per train
    AUC_MARGIN = 0.1  # held-out AUC may trail the generating logit's by this much
    SETUP_LOADS = 1

    def __init__(self, seed: int, workdir: str):
        table = binary_table(_rng(seed, 2), self.N_TRAIN + self.N_HOLD, n_numeric=20,
                             n_informative=6, categorical={"region": 12}, missing_rate=0.01)
        self.csv, self.schema, self.hold = _hold_out(table, self.N_TRAIN, workdir, "train")
        self.params = dataclasses.replace(fsl.default_preset(), n_rounds=self.N_ROUNDS)
        self.ops_per_round = 1
        self.ops = [self._train]
        self.first = None

    def setup(self) -> None:
        p = self.params
        for _ in range(self.SETUP_LOADS):
            self.ds = dataset.load_csv(self.csv, self.schema)
            self.bds = dataset.bin_features(self.ds, p.max_bin, p.min_data_in_bin)

    def ready(self) -> None:
        self.x_hold = _encode(self.hold, self.ds)

    def _train(self):
        model = booster.train(self.bds, self.params)
        return model, booster.predict(model, self.x_hold)

    def check(self, outputs) -> int:
        ((model, scores),) = outputs
        if self.first is None:
            self.first = model, scores
        _check(np.array_equal(scores, self.first[1]), "a repeated train gave other scores")
        return 0

    def finish(self) -> None:
        model, scores = self.first
        check_auc_margin(self.hold.columns["target"], scores, self.hold.logit, self.AUC_MARGIN)
        check_permutation(model, self.x_hold, scores, _rng(0, 20).permutation(scores.size))
        check_round_trip(model, self.x_hold, scores)
        check_leaf_budget(model, self.params.num_leaves)

    def quality(self) -> float:
        return oracles.auc(self.hold.columns["target"], self.first[1])


class Stack:
    """``fit_stacking`` with the default zoo, then ``predict_score`` on held-out rows.

    One operation, and a round, is one zoo, pipeline fit and held-out scoring.
    """

    name = "stack"
    N_FIT = 2000
    N_HOLD = 1000
    K_PER_MODEL = 200
    SETUP_LOADS = 15  # load_csv calls per set-up pass; one load is ~20 ms

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        table = stock_table(self.N_FIT + self.N_HOLD, seed)
        self.csv, self.schema, self.hold = _hold_out(table, self.N_FIT, workdir, "stock")
        self.ops_per_round = 1
        self.ops = [self._fit]
        self.first = None

    def setup(self) -> None:
        for _ in range(self.SETUP_LOADS):
            self.ds = dataset.load_csv(self.csv, self.schema)

    def ready(self) -> None:
        self.x_hold = _encode(self.hold, self.ds)

    def _fit(self):
        configs = stacking.make_default_zoo(self.ds, self.K_PER_MODEL, seed=self.seed)
        pipeline = stacking.fit_stacking(self.ds, configs, TARGET_DIST, seed=self.seed)
        return configs, pipeline, pipeline.predict_score(self.x_hold)

    def check(self, outputs) -> int:
        (out,) = outputs
        if self.first is None:
            self.first = out
        _check(np.array_equal(out[2], self.first[2]), "a repeated fit gave other scores")
        return 0

    def finish(self) -> None:
        configs, pipeline, scores = self.first
        level0 = stacking.train_level0(self.ds, configs)
        check_partition([c.shot_indices for c in configs], level0.meta_indices, self.ds.n_rows)
        meta = self.ds.values[level0.meta_indices]
        check_action_counts(pipeline.thresholds.apply(pipeline.predict_score(meta)), TARGET_DIST)
        check_beats_constant(self.hold.columns["Perform"], scores)

    def quality(self) -> float:
        return oracles.r2(self.hold.columns["Perform"], self.first[2])


class Score:
    """``fewboost predict`` through ``cli.main`` on a model and a pipeline bundle.

    One operation is one CLI call; a round scores a shuffled and a reversed
    copy of each bundle's rows. The pipeline bundle and its files do not
    depend on the seed. Its calls fail every time, because the CLI codes the
    scoring file's categories by first appearance instead of by the training
    vocabulary, and they are counted as failed.
    """

    name = "score"
    N_TRAIN = 1000
    N_SCORE = 4000
    PIPE_FIT = 1600
    PIPE_SCORE = 800
    PIPE_K = 200  # shots per zoo model
    SETUP_LOADS = 15  # decodes of both bundles per set-up pass; one is ~20 ms

    def __init__(self, seed: int, workdir: str):
        table = binary_table(_rng(seed, 4), self.N_TRAIN + self.N_SCORE, n_numeric=8,
                             n_informative=4, categorical={"region": 9, "channel": 3},
                             missing_rate=0.02, strength=2.0)
        csv_path, schema_path, self.score_rows = _hold_out(table, self.N_TRAIN, workdir, "model")
        ds = dataset.load_csv(csv_path, schema_path)
        params = fsl.fsl_preset()
        self.model_path = os.path.join(workdir, "model.json")
        booster.save_model(booster.train(dataset.bin_features(
            ds, params.max_bin, params.min_data_in_bin), params), self.model_path)

        # the pipeline side is fixed: seed 0 whatever the workload seed
        csv_path, self.pipe_schema, pipe_rows = _hold_out(
            stock_table(self.PIPE_FIT + self.PIPE_SCORE, 0), self.PIPE_FIT, workdir, "stock")
        ds = dataset.load_csv(csv_path, self.pipe_schema)
        pipeline = stacking.fit_stacking(ds, stacking.make_default_zoo(ds, self.PIPE_K, seed=0),
                                         TARGET_DIST, seed=0)
        self.pipe_path = os.path.join(workdir, "pipeline.json")
        stacking.save_pipeline(pipeline, self.pipe_path)

        self.files = []
        for kind, rows, perm in (
                ("model", self.score_rows, _rng(seed, 41).permutation(self.N_SCORE)),
                ("pipeline", pipe_rows, _rng(0, 42).permutation(self.PIPE_SCORE))):
            for tag, order in (("shuffled", perm), ("reversed", perm[::-1])):
                path = os.path.join(workdir, f"{kind}-{tag}")
                rows.take(order).write(path + ".csv", with_target=False)
                self.files.append((kind, path + ".csv", order, path + ".out.csv"))
        self.ops_per_round = len(self.files)
        self.ops = [lambda f=f: self._predict(*f) for f in self.files]
        self.seen = [(None, False)] * len(self.files)

    def setup(self) -> None:
        for _ in range(self.SETUP_LOADS):
            self.model = booster.load_model(self.model_path)
            self.pipeline = stacking.load_pipeline(self.pipe_path)

    def ready(self) -> None:
        """Scores of every file, its rows encoded here against the training vocabulary."""
        model_cols = [(fb.name, fb.categories) for fb in self.model.mapper]
        pipe_cols = {}
        for fit in self.pipeline.fits:
            for j, fb in zip(fit.config.feature_set, fit.model.mapper):
                pipe_cols[j] = (fb.name, fb.categories)
        pipe_cols = [pipe_cols[j] for j in range(len(pipe_cols))]
        cat_splits = sum(fit.model.mapper[nd.feature].kind == "categorical"
                         for fit in self.pipeline.fits for t in fit.model.trees
                         for nd in t.internal_nodes())
        _check(cat_splits > 0, "precondition: the pipeline never splits on a categorical, "
               "so the scoring file's category order could not matter")
        self.expected = []
        for kind, csv_path, _, _ in self.files:
            header, rows = oracles.read_csv_columns(csv_path)
            if kind == "model":
                x = oracles.encode_rows(header, rows, model_cols)
                self.expected.append(booster.predict(self.model, x))
            else:
                x = oracles.encode_rows(header, rows, pipe_cols)
                self.expected.append(self.pipeline.predict_score(x))

    def _predict(self, kind, csv_path, _order, out):
        argv = ["predict", "--model", self.model_path if kind == "model" else self.pipe_path,
                "--data", csv_path, "--out", out]
        if kind == "pipeline":
            argv += ["--schema", self.pipe_schema]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, outputs) -> int:
        """Check every output; a file identical to one checked before passes as it did."""
        failed, by_row = 0, None
        for i, (kind, _, order, out) in enumerate(self.files):
            code, want = outputs[i], self.expected[i]
            _check(code == 0, f"fewboost predict exited {code}")
            with open(out, "rb") as fh:
                content = fh.read()
            if content == self.seen[i][0]:
                failed += self.seen[i][1]
                continue
            if kind == "model":
                by_row = check_model_scores(oracles.read_scores(out, "score"), want, order, by_row)
                bad = False
            else:
                got = oracles.read_scores(out, "blended_score")
                actions = oracles.read_scores(out, "action")
                bad = not (np.array_equal(got, want)
                           and np.array_equal(actions, self.pipeline.thresholds.apply(want)))
            self.seen[i] = (content, bad)
            failed += bad
        return failed

    def finish(self) -> None:
        pass

    def quality(self) -> float:
        _, _, order, out = self.files[0]
        labels = self.score_rows.columns["target"][order]
        return oracles.auc(labels, oracles.read_scores(out, "score"))


WORKLOADS = {w.name: w for w in (KShotGrid, Train20k, Stack, Score)}
