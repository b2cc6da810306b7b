#!/usr/bin/env python3
"""Run one fewboost benchmark workload and print its result as JSON.

Usage, from the root of a checkout:

    python3 bench/run.py --workload kshot-grid --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, from a run with every traced layer wrapped. The same
object, with the run's environment added, is written to
``bench/out/<workload>-seed<n>-trace<t>.json``; a traced run also writes its
spans there. See ``bench/README.md``.
"""

from __future__ import annotations

import os

# One compute thread: fix the BLAS pool before numpy is imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["FEWBOOST_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_PASSES = 5


def _blas_threads() -> int | None:
    """Threads of numpy's bundled OpenBLAS, or None when it cannot be asked."""
    import ctypes
    import glob

    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            try:
                f = getattr(ctypes.CDLL(lib), fn)
            except (OSError, AttributeError):
                continue
            f.restype = ctypes.c_int
            return int(f())
    return None


def _environment(seed: int, workload: str, trace: bool) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": _blas_threads(),
        "fewboost_threads": os.environ.get("FEWBOOST_THREADS"),
    }


def _peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child, in MB."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def wall_seconds(op_times: list[list[float]]) -> float:
    """The timed phase per round: every operation's time, summed, over the rounds.

    ``op_times[r][u]`` is the time of operation ``u`` in round ``r``. The
    mean, not the median: the host's speed is bimodal, and a median of a
    run's rounds jumps between the modes where the mean moves smoothly.
    """
    return float(sum(map(sum, op_times)) / len(op_times))


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    from bench.workloads import WORKLOADS, CheckFailed

    wl = WORKLOADS[workload](seed, workdir)
    tracer = None
    if trace:
        from bench.tracing import Tracer
        tracer = Tracer()
        tracer.install()

    def phase(name):
        return tracer.phase(name) if tracer else contextlib.nullcontext()

    correct, attempted, failed, quality = True, 0, 0, None
    setup_times, op_times = [], []

    def set_up():
        gc.collect()
        with phase("setup"):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)

    try:
        set_up()
        wl.ready()
        # Whole rounds, until the next one would end further past the
        # deadline than it starts before it. The other set-up passes are
        # spread over the run, one as each further share of it has passed,
        # so that set-up and rounds meet the same host speed.
        measured = 0.0
        while not op_times or measured + 0.5 * measured / len(op_times) < seconds:
            gc.collect()
            outputs, times = [], []
            with phase("round"):
                for op in wl.ops:
                    t0 = time.perf_counter()
                    outputs.append(op())
                    times.append(time.perf_counter() - t0)
            op_times.append(times)
            measured += sum(times)
            attempted += wl.ops_per_round
            failed += wl.check(outputs)
            passes = len(setup_times)
            if passes < SETUP_PASSES and measured >= passes * seconds / SETUP_PASSES:
                set_up()
        while len(setup_times) < SETUP_PASSES:
            set_up()
        wl.finish()
        quality = wl.quality()
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
        if not attempted:  # no round could run: count one, failed
            attempted = failed = wl.ops_per_round
    finally:
        if tracer:
            tracer.uninstall()

    if tracer:
        metrics = tracer.metrics(setup_passes=len(setup_times), rounds=len(op_times))
        tracer.dump(os.path.join(OUT, f"{workload}-seed{seed}-spans.npz"))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": wall_seconds(op_times) if op_times else None, "unit": "s"},
            "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
            "quality": {"value": quality, "unit": "score"},
        }
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "setup_times": setup_times,
        "op_times": op_times,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["kshot-grid", "train-20k", "stack", "score"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fewboost", "__init__.py")):
        print(f"error: no fewboost sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = dict(result, environment=_environment(args.seed, args.workload, bool(args.trace)))
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
