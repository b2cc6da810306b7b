import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewboost.booster import train
from fewboost.dataset import Dataset, bin_features
from fewboost.errors import FewboostError, ValidationError
from fewboost.fsl import (BenchmarkCell, BenchmarkReport, default_preset,
                          fsl_preset, run_benchmark, run_cell, sample_k_shot,
                          _stratified_quotas)
from fewboost.synth import make_synthetic_binary


def test_fsl_preset_values():
    p = fsl_preset()
    assert p.extra_trees is True
    assert p.num_leaves == 4
    assert p.eta == 0.05
    assert p.min_data_in_leaf == 1
    assert p.feature_fraction == 0.5
    assert p.bagging_fraction == 0.5
    assert p.bagging_freq == 1
    assert p.min_data_per_group == 1
    assert p.cat_l2 == 0.0
    assert p.cat_smooth == 0.0
    assert p.max_cat_to_onehot == 100
    assert p.min_data_in_bin == 3


def test_default_preset_values():
    p = default_preset()
    assert p.extra_trees is False
    assert p.num_leaves == 31
    assert p.eta == 0.1
    assert p.min_data_in_leaf == 20
    assert p.feature_fraction == 1.0
    assert p.bagging_fraction == 1.0
    assert p.bagging_freq == 0
    assert p.min_data_per_group == 100
    assert p.cat_l2 == 10.0
    assert p.cat_smooth == 10.0
    assert p.max_cat_to_onehot == 4
    assert p.min_data_in_bin == 3


def _balanced_ds(n):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n, 2))
    y = np.array([0.0, 1.0] * (n // 2))
    return Dataset(["a", "b"], ["numeric"] * 2, x, [None, None], y, "y", "t")


def test_sample_balanced_binary_even_split():
    ds = _balanced_ds(100)
    shot = sample_k_shot(ds, 4, 0)
    assert shot.class_counts == {0.0: 2, 1.0: 2}
    assert len(shot.indices) == 4
    assert len(set(shot.indices.tolist())) == 4


def test_sample_k_equals_n_takes_everything():
    ds = _balanced_ds(10)
    shot = sample_k_shot(ds, 10, 3)
    assert np.array_equal(shot.indices, np.arange(10))


def test_quota_largest_remainder():
    # priors (0.9, 0.1) at k=8 -> quotas (7, 1)
    quotas = _stratified_quotas(np.array([90, 10]), 8)
    assert list(quotas) == [7, 1]


def test_quota_every_class_at_least_one():
    quotas = _stratified_quotas(np.array([97, 2, 1]), 4)
    assert quotas.sum() == 4
    assert quotas.min() >= 1


def test_quota_never_exceeds_class_size():
    quotas = _stratified_quotas(np.array([3, 97]), 50)
    assert quotas[0] <= 3
    assert quotas.sum() == 50


def test_sample_validation():
    ds = _balanced_ds(10)
    with pytest.raises(ValidationError):
        sample_k_shot(ds, 11, 0)
    with pytest.raises(ValidationError):
        sample_k_shot(ds, 1, 0)  # below the number of classes


def test_sample_reproducible_and_seed_sensitive():
    ds = _balanced_ds(200)
    a = sample_k_shot(ds, 16, 5)
    b = sample_k_shot(ds, 16, 5)
    c = sample_k_shot(ds, 16, 6)
    assert np.array_equal(a.indices, b.indices)
    assert not np.array_equal(a.indices, c.indices)


@given(st.integers(0, 10_000), st.integers(2, 40))
@settings(max_examples=60, deadline=None)
def test_sample_partitions_dataset(seed, k):
    ds = _balanced_ds(60)
    shot = sample_k_shot(ds, k, seed)
    assert len(shot.indices) == k
    eval_idx = np.setdiff1d(np.arange(60), shot.indices)
    assert len(eval_idx) + k == 60
    assert shot.k == k and shot.seed == seed
    assert sum(shot.class_counts.values()) == k


# --- benchmark grid ---------------------------------------------------------


def test_benchmark_default_preset_stalls_at_half():
    ds = make_synthetic_binary(n_rows=120, seed=0)
    report = run_benchmark(ds, shots=[4, 8, 16], seeds=[0, 1],
                           presets={"default": default_preset()})
    for k in (4, 8, 16):
        cell = report.cell("default", k)
        assert cell.values == [0.5, 0.5]
        assert cell.mean == 0.5
    assert report.average("default") == 0.5


def test_benchmark_average_is_mean_of_cells():
    ds = make_synthetic_binary(n_rows=150, seed=1)
    report = run_benchmark(ds, shots=[8, 16], seeds=[0, 1, 2],
                           presets={"fsl": fsl_preset()})
    means = [report.cell("fsl", 8).mean, report.cell("fsl", 16).mean]
    assert report.average("fsl") == pytest.approx(np.mean(means))


def test_benchmark_grid_cardinality():
    ds = make_synthetic_binary(n_rows=100, seed=2)
    report = run_benchmark(ds, shots=[8], seeds=[0],
                           presets={"default": default_preset(), "fsl": fsl_preset()})
    assert report.presets == ["default", "fsl"]
    for preset in report.presets:
        assert len(report.cells[preset]) == 1
        assert len(report.cell(preset, 8).aucs) == 1


def test_benchmark_marks_failed_cells_without_aborting():
    ds = make_synthetic_binary(n_rows=30, seed=3)
    # k=25 exceeds rows remaining? no: k<=n, but leaves only 5 eval rows; force
    # a genuine failure instead with k > n for one shot count
    report = run_benchmark(ds, shots=[8, 40], seeds=[0],
                           presets={"fsl": fsl_preset()})
    assert report.cell("fsl", 8).mean is not None
    failed = report.cell("fsl", 40)
    assert failed.mean is None
    assert failed.failures and failed.failures[0][0] == 0
    assert report.has_failures
    assert report.average("fsl") is None


def test_benchmark_same_shots_across_presets():
    ds = make_synthetic_binary(n_rows=80, seed=4)
    a = sample_k_shot(ds, 8, 11)
    b = sample_k_shot(ds, 8, 11)
    assert np.array_equal(a.indices, b.indices)


def test_benchmark_empty_shots_rejected():
    ds = make_synthetic_binary(n_rows=50, seed=5)
    with pytest.raises(ValidationError):
        run_benchmark(ds, shots=[], seeds=[0], presets={"fsl": fsl_preset()})


def test_benchmark_empty_seeds_rejected():
    ds = make_synthetic_binary(n_rows=50, seed=5)
    with pytest.raises(ValidationError, match="seeds"):
        run_benchmark(ds, shots=[8], seeds=[], presets={"fsl": fsl_preset()})


@pytest.mark.parametrize("shots, seeds, message", [
    ([8, 4, 8], [0, 1], "shots must not repeat a value, got 8 more than once$"),
    ([8], [0, 0], "seeds must not repeat a value, got 0 more than once$"),
])
def test_benchmark_rejects_a_repeated_shot_count_or_seed(shots, seeds, message):
    # a repeated value once gave one cell an AUC per repeat and a column per repeat
    ds = make_synthetic_binary(n_rows=50, seed=5)
    with pytest.raises(ValidationError, match=message):
        run_benchmark(ds, shots=shots, seeds=seeds, presets={"fsl": fsl_preset()})


def test_benchmark_report_serialization_and_text():
    ds = make_synthetic_binary(n_rows=100, seed=6)
    report = run_benchmark(ds, shots=[8, 16], seeds=[0, 1],
                           presets={"default": default_preset()})
    d = report.to_dict()
    assert d["format"] == "fewboost-benchmark"
    assert d["cells"]["default"]["8"]["mean"] == 0.5
    assert d["average"]["default"] == 0.5
    text = report.to_text()
    lines = text.strip().splitlines()
    assert "8-shot" in lines[0] and "Average" in lines[0]
    assert lines[1].startswith(report.dataset)


def _cell_by_cell(ds, shots, seeds, presets):
    """The grid's report built one ``run_cell`` at a time."""
    cells = {name: {k: BenchmarkCell(preset=name, k=k) for k in shots} for name in presets}
    for name, params in presets.items():
        for k in shots:
            for s in seeds:
                try:
                    value = run_cell(ds, k, s, params)
                except FewboostError as exc:
                    value = None
                    cells[name][k].failures.append((s, str(exc)))
                cells[name][k].aucs.append(value)
    return BenchmarkReport(dataset=ds.name, shots=list(shots), seeds=list(seeds),
                           presets=list(presets), cells=cells)


def test_benchmark_equals_report_built_cell_by_cell():
    ds = make_synthetic_binary(n_rows=150, seed=7)
    shots, seeds = [4, 8, 16, 32, 64], [0, 1, 2]
    presets = {"fsl": fsl_preset(), "default": default_preset()}
    report = run_benchmark(ds, shots, seeds, presets)
    assert report.to_dict() == _cell_by_cell(ds, shots, seeds, presets).to_dict()


def test_benchmark_failing_cells_leave_the_rest_of_a_row_alone():
    # 2 positives in 30 rows: k=29 draws both, so only its AUC is undefined
    # (after training); k=30 leaves no evaluation rows; k=31 cannot be drawn
    ds = make_synthetic_binary(n_rows=30, seed=10)
    ds.target[:] = 0.0
    ds.target[[3, 17]] = 1.0
    shots, seeds = [8, 29, 30, 31, 12], [0, 1]
    presets = {"fsl": fsl_preset()}
    report = run_benchmark(ds, shots, seeds, presets)
    assert report.to_dict() == _cell_by_cell(ds, shots, seeds, presets).to_dict()
    for k in (29, 30, 31):
        for s, message in report.cell("fsl", k).failures:
            with pytest.raises(FewboostError) as exc:
                run_cell(ds, k, s, fsl_preset())
            assert message == str(exc.value)
    assert [len(report.cell("fsl", k).failures) for k in shots] == [0, 2, 2, 2, 0]
    assert report.cell("fsl", 8).aucs == [run_cell(ds, 8, s, fsl_preset()) for s in seeds]


def test_benchmark_trains_the_whole_grid_in_one_batch(monkeypatch):
    # every cell that samples and bins, of both presets and every seed, trains
    # in one train_many call; the failing k=100 cells never reach it
    from fewboost import fsl

    calls = []
    real = fsl.train_many

    def counted(datasets, params_list):
        calls.append(sorted((p.extra_trees, p.seed, bds.n_rows)
                            for bds, p in zip(datasets, params_list)))
        return real(datasets, params_list)

    monkeypatch.setattr(fsl, "train_many", counted)
    ds = make_synthetic_binary(n_rows=80, seed=12)
    report = run_benchmark(ds, [4, 8, 100], [0, 1],
                           {"fsl": fsl_preset(), "default": default_preset()})
    assert calls == [sorted((extra, s, k) for extra in (True, False)
                            for s in (0, 1) for k in (4, 8))]
    assert [len(report.cell(p, 100).failures) for p in ("fsl", "default")] == [2, 2]


def test_grid_and_train_write_nothing_to_stdout(capsys):
    # bench/run.py's last stdout line must stay its JSON result
    ds = make_synthetic_binary(n_rows=80, seed=11)
    run_benchmark(ds, [4, 8, 100], [0], {"fsl": fsl_preset(), "default": default_preset()})
    train(bin_features(ds, 255, 3), fsl_preset())
    assert capsys.readouterr().out == ""


def test_benchmark_five_shot_columns():
    ds = make_synthetic_binary(n_rows=150, seed=8)
    report = run_benchmark(ds, shots=[4, 8, 16, 32, 64], seeds=[0],
                           presets={"default": default_preset()})
    header = report.to_text().splitlines()[0]
    for col in ("4-shot", "8-shot", "16-shot", "32-shot", "64-shot", "Average"):
        assert col in header
    assert len(report.cells["default"]) == 5


def test_benchmark_runtime_roughly_linear_in_grid_size():
    import time

    ds = make_synthetic_binary(n_rows=100, seed=9)
    presets = {"fsl": fsl_preset()}
    run_benchmark(ds, shots=[8], seeds=[0], presets=presets)  # warm-up
    t0 = time.perf_counter()
    run_benchmark(ds, shots=[8], seeds=[0], presets=presets)
    single = time.perf_counter() - t0
    t0 = time.perf_counter()
    run_benchmark(ds, shots=[8], seeds=[0, 1, 2, 3], presets=presets)
    quad = time.perf_counter() - t0
    # linear within 2x, with generous absolute slack against timer noise
    assert quad <= 2 * 4 * single + 0.5


def test_every_parameter_independently_settable():
    import dataclasses

    base = default_preset()
    tweaks = {
        "extra_trees": True, "num_leaves": 4, "eta": 0.05,
        "min_data_in_leaf": 1, "feature_fraction": 0.5,
        "bagging_fraction": 0.5, "bagging_freq": 1, "min_data_per_group": 1,
        "cat_l2": 0.0, "cat_smooth": 0.0, "max_cat_to_onehot": 100,
        "min_data_in_bin": 5,
    }
    for field, value in tweaks.items():
        p = dataclasses.replace(base, **{field: value})
        assert getattr(p, field) == value
        # no other field moved
        for other in tweaks:
            if other != field:
                assert getattr(p, other) == getattr(base, other)
