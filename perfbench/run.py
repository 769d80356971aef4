"""Benchmark for gtl: run one workload through ``gtl.cli.main`` and report metrics.

    python3 perfbench/run.py --workload tate-klein4 --seed 0 --seconds 20 --trace 0

The program is imported from ``src/`` next to this directory.  Each run:

1. sets up ``SETUP_REPEATS`` times and reports the median as ``setup_s``.
   One set-up is a fresh interpreter importing ``gtl.cli``, generating the
   seeded input files, and a small warm-up pass through the same commands;
2. runs passes back to back (a single-threaded closed loop) until
   ``--seconds`` have elapsed, gating every pass on correctness;
3. prints, as its last line, one JSON object with ``correct``, ``attempted``,
   ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: the median wall time
of a pass, set-up time, peak resident memory, and the share of passes that
were correct.  The two times are in reference seconds (see ``calibrate``); the
line before the result gives them as measured.  With ``--trace 1`` untraced and traced passes alternate, and the
metrics are those of ``spans.PER_LAYER``, medians over the traced passes.
"""

from __future__ import annotations

import os

# Pin every thread pool before numpy loads, so that a later BLAS-routed kernel
# or the removal of GTL_THREADS is compared at equal threading.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "GTL_THREADS": "1"}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import spans  # noqa: E402

try:
    import workloads
except ImportError as exc:
    sys.exit(f"perfbench: cannot import the program: {exc}")

SETUP_REPEATS = 5
IMPORT_PROBE = f"import sys; sys.path.insert(0, {str(workloads.SRC)!r}); import gtl.cli"

# Times are reported in reference seconds: measured seconds scaled by
# CALIBRATION_REF_S / (median time of the calibration kernel in the same run).
# On a shared machine the speed drifts by 20% and more within minutes, and a
# kernel timed between the passes follows that drift.  The kernel is the
# benchmark's own code, so a change to gtl never changes it.
CALIBRATION_REF_S = 0.275
_CAL_RNG = np.random.default_rng(0)
_CAL_SMALL = _CAL_RNG.integers(0, 7, (96, 160))
# Shaped like the augmented systems that dominate tate-hh6: memory-bound row operations.
_CAL_LARGE = np.hstack([_CAL_RNG.integers(0, 3, (900, 30)), np.eye(900, dtype=np.int64)])
_CAL_LEFT = _CAL_RNG.integers(0, 7, (120, 400))
_CAL_RIGHT = _CAL_RNG.integers(0, 7, (400, 120))


def _eliminate(mat: np.ndarray, p: int, columns: int) -> None:
    """Row reduction mod p of the first ``columns`` columns, with per-column
    numpy row operations like gtl's own."""
    m, r = mat.copy(), 0
    for c in range(columns):
        if r == m.shape[0]:
            break
        nz = np.flatnonzero(m[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        m[[r, i]] = m[[i, r]]
        m[r] = m[r] * pow(int(m[r, c]), -1, p) % p
        factors = m[:, c].copy()
        factors[r] = 0
        hit = np.flatnonzero(factors)
        m[hit] = (m[hit] - factors[hit, None] * m[r][None, :]) % p
        r += 1


def calibrate() -> float:
    """Wall seconds of fixed small and large eliminations and integer matrix products."""
    start = perf_counter()
    _eliminate(_CAL_LARGE, 3, 16)
    for _ in range(6):
        _eliminate(_CAL_SMALL, 7, _CAL_SMALL.shape[1])
        (_CAL_LEFT @ _CAL_RIGHT) % 7
    return perf_counter() - start


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": PINNED_ENV,
        "seed": seed,
        "input_variant": workloads.input_variant(seed),
    }


def set_up(prepare, seed: int, workdir: Path, calibrations: list[float]):
    """One timed set-up: fresh import, input generation, warm-up pass."""
    calibrations.append(calibrate())
    start = perf_counter()
    subprocess.run([sys.executable, "-I", "-c", IMPORT_PROBE], check=True, timeout=120)
    case = prepare(seed, workdir)
    for argv in case.warmup:
        workloads.run_cli(argv)
    return perf_counter() - start, case


def timed_pass(case: workloads.Case, tracer: spans.Tracer | None):
    """One pass, untraced or under ``tracer``; returns (results, wall seconds)."""
    gc.collect()
    with spans.installed(tracer) if tracer is not None else contextlib.nullcontext():
        start = perf_counter()
        results = case.run()
        return results, perf_counter() - start


def measure(case: workloads.Case, reference: str, seconds: float, trace: bool, calibrations: list[float]):
    """Closed loop of passes; returns (attempted, failed, walls, tracers).

    ``walls[traced]`` holds the wall times of the correct passes.  With
    ``trace`` the passes alternate untraced, traced, untraced, ...  The
    calibration kernel runs between passes.
    """
    walls: dict[bool, list[float]] = {False: [], True: []}
    tracers: list[spans.Tracer] = []
    attempted = failed = 0
    start = perf_counter()
    while attempted < (2 if trace else 1) or perf_counter() - start < seconds:
        traced = trace and attempted % 2 == 1
        tracer = spans.Tracer() if traced else None
        attempted += 1
        calibrations.append(calibrate())
        try:
            results, wall = timed_pass(case, tracer)
            reason = workloads.gate(case, results, reference)
        except Exception as exc:  # a crashing pass is a failed pass, not a failed run
            reason = f"{type(exc).__name__}: {exc}"
        if reason is not None:
            failed += 1
            print(f"pass {attempted} failed: {reason}", file=sys.stderr)
            continue
        walls[traced].append(wall)
        if traced:
            tracers.append(tracer)
    return attempted, failed, walls, tracers


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    prepare = workloads.WORKLOADS[workload_name]
    reference = workloads.load_references()[workload_name][workloads.input_variant(seed)]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=workloads.SRC.parent) as tmp:
        calibrations: list[float] = []
        setups = [set_up(prepare, seed, Path(tmp), calibrations) for _ in range(SETUP_REPEATS)]
        attempted, failed, walls, tracers = measure(setups[-1][1], reference, seconds, trace, calibrations)
        calibrations.append(calibrate())
    untraced = _median(walls[False])
    scale = CALIBRATION_REF_S / _median(calibrations)
    print("measured " + json.dumps({"wall_s": untraced, "setup_s": _median(t for t, _ in setups),
                                    "calibration_s": _median(calibrations), "passes": walls[False]}), flush=True)
    if trace:
        per_pass = [spans.layer_metrics(t, w, untraced) for t, w in zip(tracers, walls[True])]
        metrics = {
            name: {"value": _median(p[name] for p in per_pass), "unit": unit}
            for name, unit, _ in spans.PER_LAYER
        }
    else:
        metrics = {
            "wall_s": {"value": untraced * scale, "unit": "s"},
            "setup_s": {"value": _median(t for t, _ in setups) * scale, "unit": "s"},
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"},
            "ok_frac": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print("env " + json.dumps(environment(args.seed), sort_keys=True), flush=True)
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
