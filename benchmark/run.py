"""Benchmark of the grasslvq CLI on seeded synthetic workloads.

    python3 benchmark/run.py --workload train-mnist --seed 1 --seconds 25 --trace 0

One client drives ``grasslvq.cli.main`` in-process in a closed loop: the next
command starts when the previous one has returned and passed its checks.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. See README.md.
"""

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Fixed before numpy loads; the thread count alone moves the timings.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the thread setting)

import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
MIN_INVOCATIONS = 3
# Median time of calibration() on the 2-vCPU Xeon VM the bounds were set on.
CALIBRATION_NOMINAL_S = 0.015

END_TO_END = [
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("accuracy", "ratio"),
    ("peak_rss_mb", "MB"),
]


class Operations:
    """Attempted and failed operations; a failure is an exception or a failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, fn, *args):
        """Call fn, counting it; returns its result, or None when it failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # counted and reported; the run goes on
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None


def environment(seed, workload):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
        "workload": workload.name,
        "shapes": workload.shapes,
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def invoke(workload, ops, tracer=None):
    """One timed CLI command, checked outside the timed call.

    Returns (seconds, accuracy), or None when the command or a check failed.
    """
    from workloads import run_cli

    def command():
        if tracer is None:
            return run_cli(workload.argv)
        with tracing.traced(tracer):
            return run_cli(workload.argv)

    def checked():
        stdout, wall = command()
        return wall, workload.check(stdout)

    return ops.run(checked)


# Runs one CLI command and prints its peak RSS in kB as the last stderr line.
# VmHWM belongs to the new address space; ru_maxrss would carry over the
# benchmark's own resident size through fork and exec.
RSS_CHILD = """
import sys
from grasslvq.cli import main
rc = main(sys.argv[1:])
with open("/proc/self/status") as f:
    print([line.split()[1] for line in f if line.startswith("VmHWM:")][0],
          file=sys.stderr)
sys.exit(rc)
"""


def import_seconds():
    """Wall time of a fresh interpreter that imports the package, numpy included.

    No timeout: with one, Popen.wait polls in sleeps of up to 50 ms, which
    would round the measurement up to that step.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import grasslvq.cli"],
                   env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
    return time.perf_counter() - start


def peak_rss_mb(workload, ops):
    """Peak resident memory of the timed command run as its own process.

    In the benchmark's process the high-water mark depends on how many
    commands ran before it and on the allocator's history; a fresh process
    does not, and is what a user runs.
    """
    from workloads import CheckFailed

    def child():
        proc = subprocess.run(
            [sys.executable, "-c", RSS_CHILD, *workload.argv],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise CheckFailed(f"exited {proc.returncode}: {proc.stderr.strip()}")
        workload.check(proc.stdout)
        return int(proc.stderr.split()[-1]) / 1024

    return ops.run(child)


_CAL_A, _CAL_B = (np.linalg.qr(m)[0] for m in
                  np.random.default_rng(0).standard_normal((2, 784, 12)))


def calibration():
    """Seconds for a fixed loop of small SVDs and file reads, like the workloads'.

    It uses numpy and the benchmark's own file only, so no change to grasslvq
    moves it; only the speed of the machine does.
    """
    start = time.perf_counter()
    for _ in range(200):
        _, s, _ = np.linalg.svd(_CAL_A.T @ _CAL_B)
        float(np.sum(np.arccos(np.clip(s, 0.0, 1.0)) ** 2))
    for _ in range(20):
        with open(__file__, "rb") as f:
            f.read()
    return time.perf_counter() - start


def measure(workload, ops, seconds):
    """Closed loop for `seconds`.

    Returns (wall, accuracy, calibration seconds) of every command that
    passed; the calibration runs right after the command, outside its timing.
    """
    results = []
    deadline = time.perf_counter() + seconds
    attempts = 0
    while attempts < MIN_INVOCATIONS or time.perf_counter() < deadline:
        attempts += 1
        result = invoke(workload, ops)
        if result is not None:
            results.append((*result, calibration()))
    return results


def measure_traced(workload, ops, seconds):
    """Alternates untraced and traced commands for `seconds`.

    Returns the untraced walls and, per traced command, (wall, layer metrics).
    """
    untraced, traced_runs = [], []
    deadline = time.perf_counter() + seconds
    pairs = 0
    while pairs < MIN_INVOCATIONS - 1 or time.perf_counter() < deadline:
        pairs += 1
        result = invoke(workload, ops)
        if result is not None:
            untraced.append(result[0])
        tracer = tracing.Tracer()
        result = invoke(workload, ops, tracer)
        if result is not None:
            traced_runs.append((result[0], tracing.layer_metrics(tracer)))
    return untraced, traced_runs


def end_to_end(workload, ops, seconds, work):
    # Inputs are written once, untimed. The thousands of PGM files of
    # eval-sets-yaleb took 0.3 s to 3 s of kernel time to create on ext4 in a
    # VM, varying over minutes; the traced run reports synth.generate.total_s.
    work.mkdir(parents=True)
    workload.generate(str(work))
    # Set-up times are scaled to nominal machine speed like items_per_s.
    import_times, setup_times = [], []
    for _ in range(SETUP_REPEATS):
        import_t = import_seconds()
        start = time.perf_counter()
        workload.setup()
        setup_t = time.perf_counter() - start
        scale = CALIBRATION_NOMINAL_S / calibration()
        import_times.append(import_t * scale)
        setup_times.append(setup_t * scale)
    import_s = statistics.median(import_times)
    ops.run(workload.reference)
    invoke(workload, ops)  # warm-up: file cache, lazy numpy set-up
    results = measure(workload, ops, seconds)
    rss = peak_rss_mb(workload, ops)
    if not results or rss is None:
        return None
    # On a shared VM the machine's speed moves by a third between phases of
    # seconds to minutes. Each command's wall time is rescaled by the speed
    # the calibration measured right after it, relative to its nominal time.
    # The per-command figures printed below are unscaled.
    walls = [wall for wall, _, _ in results]
    scaled = [wall * CALIBRATION_NOMINAL_S / cal for wall, _, cal in results]
    q1, median, q3 = quartiles([workload.items / wall for wall in walls])
    values = {
        "setup_s": import_s + statistics.median(setup_times),
        "items_per_s": workload.items * len(scaled) / sum(scaled),
        "accuracy": statistics.median(acc for _, acc, _ in results),
        "peak_rss_mb": rss,
    }
    print(f"setup_s = {values['setup_s']:.4f} s at nominal machine speed "
          f"(medians of {SETUP_REPEATS}: fresh-process import {import_s:.4f} s, "
          f"set-up {[round(t, 4) for t in setup_times]})")
    print(f"items_per_s = {values['items_per_s']:.4f} 1/s at nominal machine "
          f"speed (unscaled {workload.items * len(walls) / sum(walls):.4f}; "
          f"per command q1 {q1:.4f}, median {median:.4f}, q3 {q3:.4f}; "
          f"n={len(walls)} commands of {workload.items} items; calibration "
          f"median {statistics.median(c for _, _, c in results):.5f} s)")
    print(f"accuracy = {values['accuracy']!r} ratio")
    print(f"peak_rss_mb = {values['peak_rss_mb']:.2f} MB")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(workload, ops, seconds, work):
    work.mkdir(parents=True)
    setup_tracer = tracing.Tracer()
    with tracing.traced(setup_tracer):
        workload.generate(str(work))
        workload.setup()
    synth_s = tracing.layer_metrics(setup_tracer)["synth.generate.total_s"]
    ops.run(workload.reference)
    invoke(workload, ops)  # warm-up
    untraced, traced_runs = measure_traced(workload, ops, seconds)
    if not untraced or not traced_runs:
        return None
    # counts repeat exactly, so median_low reports the observed integer
    values = {name: (statistics.median_low if unit in ("count", "bytes")
                     else statistics.median)([m[name] for _, m in traced_runs])
              for name, unit, _ in tracing.PER_LAYER if name in traced_runs[0][1]}
    values["synth.generate.total_s"] = synth_s
    values["cli.main.untraced_s"] = statistics.median(untraced)
    values["tracing_overhead_s"] = (
        statistics.median(wall for wall, _ in traced_runs)
        - values["cli.main.untraced_s"])
    print(f"per-layer medians of {len(traced_runs)} traced commands; "
          f"synth.generate.total_s is from the traced input generation")
    for name, unit, _ in tracing.PER_LAYER:
        print(f"{name} = {values[name]!r} {unit}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in tracing.PER_LAYER}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the smoke run")
    args = parser.parse_args(argv)

    if not (SRC / "grasslvq" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'grasslvq'} not found",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](
        args.seed, workloads.SIZES[args.size])
    print("env " + json.dumps(environment(args.seed, workload)))

    work = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    ops = Operations()
    try:
        if args.trace:
            metrics = per_layer(workload, ops, args.seconds, work)
        else:
            metrics = end_to_end(workload, ops, args.seconds, work)
    except Exception:  # set-up failed: there is nothing to measure
        traceback.print_exc(file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    if metrics is None:
        print("error: no command succeeded", file=sys.stderr)
        return 1
    print(f"error_rate = {ops.failed / ops.attempted!r} ratio "
          f"({ops.failed} failed of {ops.attempted} attempted)")
    correct = ops.failed == 0
    print(json.dumps({"correct": correct, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
