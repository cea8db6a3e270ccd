"""Benchmark of rmcodes: three closed-loop workloads with output checks.

Run from the repository root:

    python3 bench/run.py --workload group-scan --seed 0 --seconds 35 --trace 0

The load is closed-loop: one client process runs one job at a time, and a
job is one call into a public rmcodes function, rmcodes.cli.main among
them.  Inputs come from --seed alone.  With --trace 0 the run repeats whole
passes of the workload's job list while the measured pass time stays
within --seconds (at least one pass) and reports the end-to-end metrics,
taking each job at its fastest pass.  With --trace 1 it runs two untraced
passes and one traced pass and reports the per-layer metrics.  Human-readable
lines come first; the last line is one JSON object with the keys correct,
attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = {
    "group-scan": "group_scan",
    "distance-law": "distance_law",
    "cli-session": "cli_session",
}
SETUP_SAMPLES = 5  # set-ups per run, each in a fresh interpreter
IMPORT_SAMPLES = 5  # fresh-interpreter imports of rmcodes.cli per traced run
CLI_IMPORT = ("import time; t0 = time.perf_counter(); import rmcodes.cli; "
              "print(time.perf_counter() - t0)")


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=harness.PINNED_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up and print it (used for the setup_s samples)")
    ap.add_argument("--pin", action="store_true",
                    help="run one pass and pin its digests for the pinned seed")
    return ap.parse_args(argv)


def _timed_setup(module, seed):
    """Seconds from before the first rmcodes import to the first timed job:
    import, towers, input generation and filling the lazy caches."""
    t0 = time.perf_counter()
    mod = importlib.import_module(module)
    state = mod.setup(seed)
    return time.perf_counter() - t0, mod, state


def _probe(cmd):
    """The number a fresh interpreter prints last, timed inside that interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def _probe_setup(args):
    return _probe([sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--setup-only"])


def _report_failures(failures, limit=20):
    for name, why in failures[:limit]:
        print(f"FAILED {name}: {why}")
    if len(failures) > limit:
        print(f"... and {len(failures) - limit} more failed jobs")


def _measure(args, mod, state, workdir, pinned):
    """Whole passes while the measured time stays within --seconds.

    Every pass runs the same jobs in the same order; job i's times over the
    passes are times[i].
    """
    walls, times, attempted, failures = [], None, 0, []
    while True:
        record = harness.run_pass(mod.jobs(state, workdir / f"pass{len(walls)}"))
        _, failed = harness.verify(record, pinned)
        walls.append(record.wall_s)
        if times is None:
            times = [[] for _ in record.times_s]
        for job_times, t in zip(times, record.times_s):
            job_times.append(t)
        attempted += len(record.jobs)
        failures += failed
        del record  # no pass holds the results of the one before
        if sum(walls) + walls[-1] > args.seconds:
            return walls, times, attempted, failures


def _metric(metrics, name, value, unit, note):
    metrics[name] = {"value": value, "unit": unit}
    print(f"{name:34} = {value:.6g} {unit}  ({note})")


def _untraced(args, module, workdir, pinned):
    dt, mod, state = _timed_setup(module, args.seed)
    walls, times, attempted, failures = _measure(args, mod, state, workdir, pinned)
    setups = [dt] + [_probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # A job's latency is its fastest pass: the host's speed drifts by tens
    # of percent from one minute to the next, and the fastest of a job's
    # repetitions, spread over the run, is the one it disturbed least.
    ms = [min(job_times) * 1000 for job_times in times]
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8]
    print(f"workload {args.workload}, seed {args.seed}: closed loop, one client, "
          f"one job in flight; {len(walls)} pass(es) of {len(times)} jobs, "
          f"median pass {statistics.median(walls):.4f} s")
    metrics = {}
    _metric(metrics, "setup_s", statistics.median(setups), "s",
            f"median of {len(setups)} set-ups in fresh interpreters")
    _metric(metrics, "wall_s", sum(ms) / 1000, "s",
            f"{len(ms)} jobs, each at its fastest of {len(walls)} passes")
    _metric(metrics, "job_p50_ms", statistics.median(ms), "ms",
            f"n={len(ms)} jobs, each at its fastest of {len(walls)} passes")
    _metric(metrics, "job_p90_ms", p90, "ms",
            f"n={len(ms)} jobs, {sum(t > p90 for t in ms)} above")
    _metric(metrics, "peak_rss_mb", rss_mb, "MB", "workload process")
    print(f"{'failed_ratio':34} = {len(failures) / attempted:.6g}  "
          f"({len(failures)} of {attempted} jobs)")
    _report_failures(failures)
    return attempted, len(failures), metrics


def _traced(args, module, workdir, pinned):
    tracer = tracing.Tracer()
    mod = importlib.import_module(module)
    tracer.install("setup")
    state = mod.setup(args.seed)
    tracer.uninstall()
    warm = harness.run_pass(mod.jobs(state, workdir / "pass0"))  # fills the lazy caches
    plain = harness.run_pass(mod.jobs(state, workdir / "pass1"))
    tracer.install("pass")
    traced = harness.run_pass(mod.jobs(state, workdir / "pass2"))
    tracer.uninstall()
    tracer.import_s = [_probe([sys.executable, "-c", CLI_IMPORT])
                       for _ in range(IMPORT_SAMPLES)]
    passes = (warm, plain, traced)
    failures = [f for record in passes for f in harness.verify(record, pinned)[1]]
    attempted = sum(len(record.jobs) for record in passes)
    print(f"workload {args.workload}, seed {args.seed}: traced run, "
          f"untraced pass {plain.wall_s:.3f} s, traced pass {traced.wall_s:.3f} s")
    metrics = {}
    for name, (value, unit) in tracer.layer_metrics(traced.wall_s - plain.wall_s).items():
        _metric(metrics, name, value, unit, "traced set-up and pass")
    print("top (phase, parent -> function) rows by self time:")
    print("\n".join(tracer.top_rows()))
    _report_failures(failures)
    return attempted, len(failures), metrics


def _pin(args, module, workdir):
    if args.seed != harness.PINNED_SEED:
        print(f"error: digests are pinned for seed {harness.PINNED_SEED} only", file=sys.stderr)
        return 2
    mod = importlib.import_module(module)
    record = harness.run_pass(mod.jobs(mod.setup(args.seed), workdir / "pass0"))
    digests, failures = harness.verify(record, None)
    if failures:
        _report_failures(failures)
        return 1
    harness.write_digests(args.workload, digests)
    print(f"pinned {len(digests)} digests for {args.workload}")
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "rmcodes" / "__init__.py").is_file():
        print(f"error: rmcodes sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    module = WORKLOADS[args.workload]
    if args.setup_only:
        print(_timed_setup(module, args.seed)[0])
        return 0
    # write bytecode before anything is timed, so no run pays for compiling
    for path in (SRC, BENCH):
        compileall.compile_dir(str(path), quiet=1)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.pin:
            return _pin(args, module, workdir)
        pinned = harness.pinned_digests(args.workload, args.seed)
        run = _traced if args.trace else _untraced
        attempted, failed, metrics = run(args, module, workdir, pinned)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
