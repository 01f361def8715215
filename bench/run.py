#!/usr/bin/env python3
"""Benchmark of the paraunitary package: one closed-loop workload per run.

    python3 bench/run.py --workload verify|factor_deep|cli_lattice \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its
``src/``.  With ``--trace 0`` the last line of stdout carries the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a separate traced run.  The line before it is a full report:
failure classes, failures per slice, sample counts and thread count.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# set-up runs at least this often and for at least this long; setup_s is
# the median
SETUP_REPEATS = 5
SETUP_MIN_S = 2.0
# p90 needs 100 samples for 10 beyond it
MIN_OK = 100
# stop adding cycles here even below MIN_OK, so a run ends well within 180 s
CAP_SECONDS = 120.0

# (name, unit) of the metrics of a --trace 0 run, as listed in BENCHMARK.json
END_TO_END = (
    ("setup_s", "s"),
    ("ok_ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# whole-run figures a --trace 1 run adds to tracing.PER_LAYER
BENCH_LAYER = [
    ("bench.traced_wall_s", "s", "lower"),
    ("bench.traced_ok_ops_per_s", "1/s", "higher"),
    ("bench.spans", "count", "lower"),
    ("bench.failed_frac", "ratio", "lower"),
    ("bench.wrong_frac", "ratio", "lower"),
]

# failure classes counted by the known-defect census of a --trace 1 run
# ("oracle_reject" is measure.WRONG)
DEFECT_CLASSES = ("NumericalError", "InputError", "exit_1", "exit_2", "oracle_reject")
DEFECT_LAYER = [
    ("known_defects.attempted", "count", "lower"),
    ("known_defects.failed", "count", "lower"),
    *[(f"known_defects.{c}", "count", "lower") for c in DEFECT_CLASSES],
]


# One BLAS thread: the caller is single-threaded, a second BLAS thread
# competes with other tenants of a shared host for the second core, and
# the package's rank decisions (hence its known failures) depend on the
# BLAS summation order, which changes with the thread count.
BLAS_THREADS = 1


def _threads() -> int:
    return min(BLAS_THREADS, len(os.sched_getaffinity(0)))


def _pin_threads(n: int) -> None:
    """Set BLAS/OpenMP thread counts; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)


def _import_package() -> None:
    """Import ``paraunitary`` from this checkout's src/, and from nowhere else."""
    if not (SRC / "paraunitary" / "__init__.py").is_file():
        raise SystemExit(f"no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import paraunitary

    if Path(paraunitary.__file__).resolve().parent != (SRC / "paraunitary").resolve():
        raise SystemExit(f"paraunitary imported from {paraunitary.__file__}, not {SRC}")


def _report(name, seed, threads, summary, metrics, extra) -> dict:
    shares = {
        "failed_frac": {"value": summary.failed / summary.attempted, "unit": "ratio"},
        "wrong_frac": {"value": summary.wrong / summary.attempted, "unit": "ratio"},
    }
    return {
        "workload": name,
        "seed": seed,
        "blas_threads": threads,
        "attempted": summary.attempted,
        "ok_samples": summary.ok,
        "metrics": {**metrics, **shares},
        "failures": summary.failures,
        "failures_by_slice": summary.failures_by_slice,
        "failure_examples": summary.examples,
        **extra,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    threads = _threads()
    _pin_threads(threads)
    _import_package()

    import measure
    import speed
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"{wl.name}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ref = speed.Reference(wl.reference)
    setup_ref = speed.Reference(wl.setup_reference)
    try:
        if args.trace:
            tracer = tracing.Tracer()
            undo = tracing.install(tracer)
            try:
                cycle_ops = tracer.root("bench.setup", wl.setup)(args.seed, str(workdir))
                outcomes = measure.run_loop(
                    lambda c: [dataclasses.replace(op, call=tracer.root("bench.op", op.call))
                               for op in cycle_ops(c)],
                    args.seconds, MIN_OK, CAP_SECONDS, ref)
            finally:
                undo()
            summary = measure.summarize(outcomes)
            census = [measure.run_op(op) for op in wl.defects(args.seed, str(workdir))]
            defects = measure.count_failures(census)
            values = tracing.layer_metrics(tracer)
            values.update({
                "bench.traced_wall_s": summary.raw_timed_s,
                "bench.traced_ok_ops_per_s": summary.ok / summary.timed_s,
                "bench.spans": len(tracer.name),
                "bench.failed_frac": summary.failed / summary.attempted,
                "bench.wrong_frac": summary.wrong / summary.attempted,
                "known_defects.attempted": len(census),
                "known_defects.failed": sum(defects[0].values()),
                **{f"known_defects.{c}": defects[0].get(c, 0) for c in DEFECT_CLASSES},
            })
            units = {name: unit
                     for name, unit, _ in tracing.PER_LAYER + BENCH_LAYER + DEFECT_LAYER}
            # one file per workload, replaced by each traced run
            trace_path = OUT / f"trace-{wl.name}.json"
            tracer.write(str(trace_path))
            extra = {
                "trace_file": str(trace_path.relative_to(ROOT)),
                "known_defects": {"attempted": len(census), "failures": defects[0],
                                  "failures_by_slice": defects[1],
                                  "failure_examples": defects[2]},
            }
        else:
            setup_s, setup_scaled = [], []
            while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_MIN_S:
                setup_ref.sample_window()
                t0 = time.perf_counter()
                cycle_ops = wl.setup(args.seed, str(workdir))
                setup_s.append(time.perf_counter() - t0)
                setup_scaled.append(setup_s[-1] * setup_ref.scale())
            outcomes = measure.run_loop(cycle_ops, args.seconds, MIN_OK, CAP_SECONDS, ref)
            summary = measure.summarize(outcomes)
            values = {
                "setup_s": statistics.median(setup_scaled),
                "ok_ops_per_s": summary.ok / summary.timed_s,
                "op_p50_ms": summary.p50_ms,
                "op_p90_ms": summary.p90_ms,
                # ru_maxrss is in KiB on Linux
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = dict(END_TO_END)
            extra = {
                "setup_runs": len(setup_s),
                "unscaled": {
                    "setup_s": statistics.median(setup_s),
                    "ok_ops_per_s": summary.ok / summary.raw_timed_s,
                    "op_p50_ms": summary.raw_p50_ms,
                    "op_p90_ms": summary.raw_p90_ms,
                },
            }
            defects = ({}, {}, {})  # the census runs in the traced run only
    except measure.TooFewSamples as exc:
        print(f"benchmark invalid: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    extra["host_speed"] = {
        "reference": wl.reference,
        "reference_samples": len(ref.times),
        "reference_median_ms": statistics.median(ref.times) * 1e3,
        "nominal_ms": ref.nominal_s * 1e3,
    }
    if setup_ref.times:  # set-up is scaled in a --trace 0 run only
        extra["host_speed"]["setup_reference"] = wl.setup_reference
        extra["host_speed"]["setup_reference_median_ms"] = (
            statistics.median(setup_ref.times) * 1e3)
    print(json.dumps(_report(wl.name, args.seed, threads, summary, metrics, extra)))
    print(json.dumps({
        # a wrong answer in the census is a wrong answer too
        "correct": summary.wrong == 0 and not defects[0].get(measure.WRONG),
        "attempted": summary.attempted,
        "failed": summary.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
