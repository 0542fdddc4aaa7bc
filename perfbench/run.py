"""Run one benchmark workload and print its metrics as the last line of output.

From the repository root:

    python3 perfbench/run.py --workload criterion5 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics (trials_per_s, setup_s,
peak_rss_mb).  ``--trace 1`` runs one traced round and prints the per-layer
metrics instead.  The program is imported from ``src/``
of the checkout this file sits in; without it the command fails.  See
perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / "perfbench" / "_runs"

# BLAS and OpenMP read these once, when numpy loads; forked sweep workers
# inherit both the environment and the loaded library.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Most set-up samples per run, spread over its `--seconds`.
SETUP_SAMPLES = 10
IMPORT_REPEATS = 3


def run_call(call):
    """Time one call; a call that raises is counted as failed."""
    start = time.perf_counter()
    try:
        out, failed = call.run(), 0
    except Exception:
        traceback.print_exc()
        out, failed = None, 1
    return time.perf_counter() - start, out, failed


def run_round(calls):
    """Run each call once; returns the call times, the outputs and the failure count."""
    results = [run_call(call) for call in calls]
    return [r[0] for r in results], [r[1] for r in results], sum(r[2] for r in results)


def checked(workload, outputs):
    import checks

    try:
        workload.check(outputs)
    except checks.CheckError as exc:
        print(f"check failed on {workload.name}: {exc}", file=sys.stderr)
        return False
    return True


def forked_rss_kb():
    """Peak resident set of a child forked from this process that exits at once.

    A forked worker starts out with the parent's pages, which count in its own
    resident set too; this is that inherited part.
    """
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    return os.wait4(pid, 0)[2].ru_maxrss


def peak_rss_mb(workers, base_kb):
    """Own peak RSS, plus per worker what the largest worker's peak adds to `base_kb`."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers else 0
    return (own + workers * max(0, child - base_kb)) / 1024.0


def timed_run(workload, seconds):
    """End-to-end metrics from whole rounds repeated until `seconds` have passed.

    The host's speed drifts on a scale of seconds, so set-up samples (the
    set-up round, one trial per cell) are spread over the run, one per
    `seconds / SETUP_SAMPLES` of timed calls up to SETUP_SAMPLES, rather than
    taken in one burst.  A new round starts only while the run would end
    nearer to `seconds` with it than without it.
    """
    setup_calls = workload.calls(setup=True)
    run_round(setup_calls)  # warm-up: first calls, lazy imports, caches
    base_kb = forked_rss_kb() if workload.workers else 0
    calls = workload.calls()
    interval = seconds / SETUP_SAMPLES
    setup, rounds, attempted, failed, correct = [], [], 0, 0, True
    start, calls_s = time.perf_counter(), 0.0
    while not rounds or (time.perf_counter() - start) * (1 + 0.5 / len(rounds)) < seconds:
        times, outputs = [], []
        for call in calls:
            while len(setup) < SETUP_SAMPLES and len(setup) <= calls_s / interval:
                setup.append(sum(run_round(setup_calls)[0]))
            elapsed, out, bad = run_call(call)
            calls_s += elapsed
            times.append(elapsed)
            outputs.append(out)
            failed += bad
        rounds.append(times)
        attempted += len(calls)
        correct = checked(workload, outputs) and correct
    metrics = {
        "trials_per_s": (len(rounds) * sum(c.trials for c in calls) / calls_s, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(workload.workers, base_kb), "MB"),
    }
    detail = {"setup_samples_s": setup, "round_call_s": rounds, "fork_base_rss_kb": base_kb,
              "worker_peak_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}
    return correct, attempted, failed, metrics, detail


def cli_import_seconds():
    """`import gausshelp` in a fresh interpreter, interpreter start excluded."""
    code = ("import time; t = time.perf_counter(); import gausshelp; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout)


def traced_run(workload, seed):
    """Per-layer metrics from one traced round.

    The tracing overhead is the number of spans times the measured cost of one
    traced call: the host's speed drifts more between two rounds than tracing
    adds to one, so a traced round's wall time minus an untraced round's would
    mostly show the drift.
    """
    import spans

    calls = workload.calls()
    run_round(workload.calls(setup=True))  # warm-up
    tracer = spans.Tracer()
    with tracer.patched():
        start = time.perf_counter()
        _, outputs, failed = run_round(calls)
        traced_s = time.perf_counter() - start
    correct = checked(workload, outputs)
    tracer.write(RUNS / f"spans-{workload.name}-seed{seed}.csv")

    span_cost_s = tracer.span_cost_s()
    overhead_s = span_cost_s * len(tracer.spans)
    import_s = statistics.median(cli_import_seconds() for _ in range(IMPORT_REPEATS))
    values = spans.per_layer_metrics(tracer.layers(), sum(c.trials for c in calls),
                                     import_s, overhead_s)
    metrics = {name: (value, spans.PER_LAYER_UNITS[name]) for name, value in values.items()}
    detail = {"traced_s": traced_s, "spans": len(tracer.spans), "span_cost_s": span_cost_s}
    return correct, len(calls), failed, metrics, detail


def machine_info():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    package = SRC / "gausshelp"
    if not (package / "__init__.py").is_file():
        print(f"error: the program's sources are missing: {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gausshelp

    if Path(gausshelp.__file__).resolve().parent != package.resolve():
        print(f"error: gausshelp was imported from {gausshelp.__file__}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.NAMES}")

    machine = machine_info()
    print("machine: " + json.dumps(machine), flush=True)
    RUNS.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=RUNS)
    try:
        workload = workloads.make(args.workload, args.seed, workdir,
                                  workers=1 if args.trace else None)
        if args.trace:
            result = traced_run(workload, args.seed)
        else:
            result = timed_run(workload, args.seconds)
    finally:
        shutil.rmtree(workdir)
    correct, attempted, failed, metrics, detail = result

    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(line, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=machine, detail=detail)
    with open(RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
