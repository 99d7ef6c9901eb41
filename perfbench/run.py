"""Benchmark runner: one workload, one seed, one process.

    env OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \
        python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the program from ./src.  The
BLAS thread count is fixed by the command in BENCHMARK.json and echoed in
the header line.

--trace 0 runs the workload's round of operations, the same every time,
closed loop from this single thread, for about S seconds of operation time;
it sets the workload up before the first round and after each one (setup_s
is the median) and prints the end-to-end metrics, taken from each
operation's median time over the rounds; the raw times go to
perfbench/out/durations-<workload>-seed<n>.json.  --trace 1 runs one round, each
operation once untraced and once traced, and prints the per-layer metrics
and the tracing overhead; the spans go to perfbench/out/.  Both check every
output and print one JSON line last.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPS = 10
TAIL_MIN_OPS = 40
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_ops(workload, inputs, indices):
    """Run the given operations; returns (durations in s, outputs, failed).

    An operation that raises counts as failed and leaves None as its output.
    """
    durations, outputs, failed = [], [], 0
    for index in indices:
        start = time.perf_counter()
        try:
            output = workload.op(inputs, index)
            bad = workload.failed(output)
        except Exception:  # a failed operation is counted, not fatal
            print(f"perfbench: operation {index} raised", file=sys.stderr)
            traceback.print_exc()
            output, bad = None, True
        durations.append(time.perf_counter() - start)
        outputs.append(output)
        failed += bool(bad)
    return durations, outputs, failed


def tail(durations_ms):
    """Highest of p50/p90/p95/p99/p99.9 with at least ten samples beyond it."""
    n = len(durations_ms)
    if n < TAIL_MIN_OPS:
        return None
    ordered = sorted(durations_ms)
    for p in (99.9, 99.0, 95.0, 90.0, 50.0):
        if round(n * (100.0 - p) / 100.0, 9) >= 10.0:
            return p, ordered[math.ceil(n * p / 100.0) - 1]
    return None


def timed_run(workload, seed, seconds):
    """The workload's round, the same operations every time, run again and
    again for `seconds` of operation time: a round that would end past the
    deadline, at the mean round time so far, is not started, but the first
    always is.  The first round's outputs are checked; each later round's
    must repeat them.

    ops_per_s and op_ms_p50 come from each operation's median time over the
    rounds, so a phase of interference from other tenants of the host that
    covers fewer than half the rounds does not move them.  The plain
    wall-clock rate and median are printed as a text line.

    The workload is set up SETUP_REPS times before the first round and once
    after every round; setup_s is the median of all of them.
    """
    import checks

    setup_times = []

    def set_up():
        start = time.perf_counter()
        result = workload.setup()
        setup_times.append(time.perf_counter() - start)
        return result

    for _ in range(SETUP_REPS):
        inputs = set_up()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    durations, errors, failed = [], [], 0
    first = None
    wall = 0.0
    rounds = 0
    while rounds == 0 or wall * (rounds + 1) / rounds <= seconds:
        start = time.perf_counter()
        d, outputs, f = run_ops(workload, inputs, range(workload.round_size))
        wall += time.perf_counter() - start
        rounds += 1
        durations += d
        failed += f
        if first is None:
            first = outputs
            errors += workload.check(inputs, outputs)
        else:
            errors += checks.check_repeat(first, outputs, workload.same)
        del outputs
        set_up()
    end = resource.getrusage(resource.RUSAGE_SELF)
    durations_ms = [d * 1e3 for d in durations]
    with open(OUT_DIR / f"durations-{workload.name}-seed{seed}.json", "w") as fh:
        json.dump({"round_size": workload.round_size, "setup_s": setup_times, "op_s": durations}, fh)
    per_op = [statistics.median(durations[i :: workload.round_size]) for i in range(workload.round_size)]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (workload.round_size / sum(per_op), "1/s"),
        "op_ms_p50": (statistics.median(per_op) * 1e3, "ms"),
        "peak_rss_mb": (end.ru_maxrss / 1024.0, "MB"),
    }
    notes = [
        f"setup_s is the median of {len(setup_times)} set-ups",
        f"{rounds} rounds of {workload.round_size} operations in {wall:.2f} s: wall-clock "
        f"{len(durations) / wall:.6g} ops/s, median {statistics.median(durations_ms):.4f} ms",
        f"the rounds and set-ups took {end.ru_utime - usage.ru_utime:.2f} s user and "
        f"{end.ru_stime - usage.ru_stime:.2f} s system time, "
        f"{end.ru_minflt - usage.ru_minflt} minor page faults",
    ]
    tail_value = tail(durations_ms)
    if tail_value is None:
        notes.append(f"op_ms_tail not reported: {len(durations)} operations, fewer than {TAIL_MIN_OPS}")
    else:
        p, value = tail_value
        notes.append(f"op_ms_tail {value:.4f} ms (p{p:g} of {len(durations)} operations, wall-clock)")
    return metrics, len(durations), failed, errors, notes + workload.notes


def trace_run(workload, seed):
    """The set-up and each operation of one round run once untraced and once
    traced, the order alternating (the set-up untraced first, as a warm-up),
    so both sides see the same warm caches."""
    import tracing

    recorder = tracing.Recorder()
    untraced = traced = 0.0
    outputs, failed = [], 0
    for index in range(-1, workload.round_size):
        for tracing_on in (index % 2 == 0, index % 2 == 1):
            recorder.op = index
            with tracing.traced(recorder) if tracing_on else contextlib.nullcontext():
                start = time.perf_counter()
                if index < 0:
                    result = workload.setup()
                else:
                    _, result, bad = run_ops(workload, inputs, [index])
                elapsed = time.perf_counter() - start
            if not tracing_on:
                untraced += elapsed
                continue
            traced += elapsed
            if index < 0:
                inputs = result
            else:
                outputs += result
                failed += bad
    metrics = tracing.layer_metrics(recorder.spans)
    metrics["trace.overhead_pct"] = (100.0 * (traced - untraced) / untraced, "%")
    metrics["trace.spans"] = (len(recorder.spans), "count")
    path = OUT_DIR / f"trace-{workload.name}-seed{seed}.jsonl"
    recorder.write(path, {"workload": workload.name, "seed": seed, "ops": workload.round_size})
    notes = [
        f"set-up and {workload.round_size} operations took {untraced:.3f} s untraced"
        f" and {traced:.3f} s traced",
        f"{len(recorder.spans)} spans written to {path.relative_to(ROOT)}",
        "pbvi.backup.gflop is computed from the shapes as 2*A*W*K*S*(S+B), not measured",
    ]
    errors = workload.check(inputs, outputs)
    return metrics, workload.round_size, failed, errors, notes + workload.notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "pomdp_perception" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}, not one of {workloads.NAMES}",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.make(args.workload, args.seed, str(OUT_DIR))
    blas = " ".join(f"{v}={os.environ.get(v, 'unset')}" for v in BLAS_VARS)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} {blas}")

    if args.trace:
        metrics, attempted, failed, errors, notes = trace_run(workload, args.seed)
    else:
        metrics, attempted, failed, errors, notes = timed_run(workload, args.seed, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    print(f"  attempted {attempted}, failed {failed}, check errors {len(errors)}")
    for error in errors[:20]:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
