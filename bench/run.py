"""imutrace benchmark: run a workload for a fixed time and check every op's outputs.

    python3 bench/run.py --workload grid-mock --seed 1 --seconds 50 --trace 0

Run it from the root of a checkout; the package is imported from ``src``.
Each workload is one closed-loop client running one op at a time:

  grid-mock  ``imutrace run --per-class 12`` with the mock provider
  live-stub  ``classify_windows`` over 96 windows, cot then do, against a
             local stub provider at concurrency 2

The workload is set up several times (the median is ``setup_s``) and ops run
until the next one would overrun ``--seconds``, but at least three. With
``--trace 0`` it prints the end-to-end metrics, medians over the ops. With ``--trace 1`` it runs
untraced ops for half the time, then one op with spans around every layer,
and prints the per-layer metrics listed in ``bench/layers.json``.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The line before it, starting
``detail``, records the machine, every op's sample, the output digests and
the trace accounting. A traced op's spans are written to
``.bench_work/spans-<workload>-s<seed>.json``. ``--workload all`` runs the
workloads in turn and keys its last line's metrics ``<workload>/<metric>``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS, OpSample

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# Set-up runs at least SETUP_REPEATS times, and more while it has taken under
# SETUP_MIN_S in all, so that a cheap set-up still gets a steady median.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 9
# An untraced run measures at least MIN_OPS ops, so that its median of a long
# op, such as grid-mock's, spans more than one stretch of host speed and is
# not set by one slow op.
MIN_OPS = 3
# Stop the op loop early once this many ops have failed.
MAX_FAILURES = 3


def machine_record() -> dict:
    import numpy

    cpu_model = ""
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas_cfg = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas_cfg.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads_env": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "loadavg_at_start": list(os.getloadavg()),
    }


def run_op(workload, index: int, traced: bool) -> OpSample:
    started = time.perf_counter()
    try:
        return workload.op(index, traced)
    except Exception as exc:  # an op that raises is counted as failed, not fatal
        return OpSample(time.perf_counter() - started, 0.0, 0.0,
                        error=f"{type(exc).__name__}: {exc}")


def measure(workload, seconds: float, trace: bool):
    """Untraced ops until the next would overrun the budget, then one traced op if asked."""
    budget = seconds / 2 if trace else seconds
    min_ops = 1 if trace else MIN_OPS
    samples = []
    started = time.perf_counter()
    while True:
        samples.append(run_op(workload, len(samples), traced=False))
        typical = statistics.median(s.wall_s for s in samples)
        if len(samples) >= min_ops and time.perf_counter() - started + typical > budget:
            break
        if sum(1 for s in samples if s.error) >= MAX_FAILURES:
            break
    traced = run_op(workload, len(samples), traced=True) if trace else None
    return samples, traced


def timing_summary(values: list[float]) -> dict:
    pm = tracing.tail_permille(len(values))
    return {
        "count": len(values),
        "median": statistics.median(values),
        "tail_pct": pm / 10.0 if pm else None,
        "tail": tracing.percentile(values, pm) if pm else None,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, specs: list[dict]) -> dict:
    """Set up, measure and report one workload; returns its result object."""
    machine = machine_record()
    work = WORK / f"{name}-s{seed}-p{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](ROOT, seed, work)
    try:
        setup_samples = []
        while len(setup_samples) < SETUP_REPEATS or (
            sum(setup_samples) < SETUP_MIN_S and len(setup_samples) < SETUP_MAX_REPEATS
        ):
            started = time.perf_counter()
            workload.setup()
            setup_samples.append(time.perf_counter() - started)
        samples, traced = measure(workload, seconds, trace)
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)

    every = samples + ([traced] if traced is not None else [])
    attempted = len(every)
    errors = [s.error for s in every if s.error]
    walls = [s.wall_s for s in samples]
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine,
        "setup_s": setup_samples,
        "ops": [
            {"wall_s": s.wall_s, "cpu_s": s.cpu_s, "peak_rss_mb": s.peak_rss_mb,
             "error": s.error, "stub": s.stub, "traced": s is traced}
            for s in every
        ],
        "run_s": timing_summary(walls),
        "fail_rate": len(errors) / attempted,
        "errors": errors,
        "digests": workload.digests,
    }

    if trace:
        spans = traced.spans or []
        spans_path = WORK / f"spans-{name}-s{seed}.json"
        metrics = tracing.layer_metrics(spans, specs, traced.wall_s, statistics.median(walls),
                                        traced.stub)
        detail["trace_accounting"] = tracing.accounting(spans)
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
        tracing.dump_spans(spans, str(spans_path), {"detail": detail})
    else:
        metrics = {
            "run_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(s.cpu_s for s in samples), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(s.peak_rss_mb for s in samples),
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        }

    print(f"{name} seed {seed}: {attempted} ops attempted, {len(errors)} failed"
          f"{' (one traced)' if trace else ''}; run_s is the median of {len(walls)}")
    for metric, m in metrics.items():
        print(f"  {metric:<36} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_rate':<36} {detail['fail_rate']:>14.6g} ratio")
    if trace:
        acc = detail["trace_accounting"]
        print(f"  layer self times sum to {acc['self_sum_s']:.6g} s over the {acc['covered_s']:.6g} s"
              f" their spans cover (threads overlap by {acc['overlap_s']:.6g} s);"
              f" {metrics['trace.unaccounted_s']['value']:.6g} s of the traced op is in no span")
    for err in errors:
        print(f"  failed op: {err}")
    print("detail " + json.dumps(detail, sort_keys=True))
    return {"correct": not errors, "attempted": attempted, "failed": len(errors),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="imutrace benchmark")
    parser.add_argument("--workload", required=True,
                        help=f"one of {', '.join(WORKLOADS)}, or all to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "imutrace" / "__init__.py").is_file():
        print(f"bench: no imutrace package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("bench: --seed must be >= 0", file=sys.stderr)
        return 2
    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}, expected one of "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    specs = json.loads((BENCH / "layers.json").read_text(encoding="utf-8"))["per_layer"]
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), specs)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run each workload in a process of its own, as a single-workload run would."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"bench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{metric}": m for name, r in results.items()
                    for metric, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
