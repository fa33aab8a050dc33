"""End-to-end and per-layer benchmark of the real offload engine.

    python3 benchmarks/e2e/run.py --workload train_ssd --seed 0 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --workload all --quick

One invocation runs one workload in this process (``--workload all`` runs
each in a subprocess of its own), checks its outputs, prints every metric
by name with unit and direction, writes a results file (and, when traced,
a Chrome trace) under ``--out-dir``, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics from an untraced run; ``--trace 1`` reports the
per-layer metrics from a traced run that follows a shorter untraced one.
The exit code is 0 only when no checked operation failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

# One load-generating thread, BLAS on it.  Must be set before numpy loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")


def pin_to_one_cpu() -> None:
    """Run every thread of this process on one CPU.

    On the 2-vCPU VM the benchmark was built on, waking a thread on the
    *other* vCPU costs an IPI and a VM exit: a two-thread ping-pong takes
    12 us per round trip when the kernel keeps both threads on one vCPU
    and 65 us when it spreads them, and which of the two it does is a
    scheduler state that persists for minutes (it flipped after every
    15 s ``engine_replay`` run).  ``kv_serve``, whose every demand fetch
    is such a hand-off, read 6300 or 2600 block accesses/s accordingly.
    Pinned, the hand-off is always the cheap one and the numbers are the
    program's CPU cost; device time is modelled by sleeps, which still
    overlap compute.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, default=20.0, help="seconds to measure for")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0, help="1: traced run, per-layer metrics"
    )
    parser.add_argument(
        "--quick", action="store_true", help="2 steps / 1 round / 4 requests; for the smoke test"
    )
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=ROOT / ".bench_e2e",
        help="results, traces and the store directory; by default inside the checkout",
    )
    return parser.parse_args(argv)


def run_workload(args: argparse.Namespace) -> int:
    """Run one workload here; returns the exit code."""
    import catalog
    import harness

    names = [w.name for w in catalog.WORKLOADS]
    if args.workload not in names:
        message = f"unknown workload {args.workload!r}; expected 'all' or one of {names}"
        print(message, file=sys.stderr)
        return 2
    out_dir = args.out_dir.resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    pin_to_one_cpu()
    harness.warm_blas()

    trace, quick = bool(args.trace), args.quick
    if args.workload in catalog.TRAIN:
        import wl_train as module

        outcome = module.run(args.workload, args.seed, args.seconds, trace, quick, out_dir)
    elif args.workload == "engine_replay":
        import wl_replay as module

        outcome = module.run(args.seed, args.seconds, trace, quick, out_dir)
    else:
        import wl_kv as module

        outcome = module.run(args.seed, args.seconds, trace, quick, out_dir)
    end_to_end, per_layer, report, checks = outcome
    end_to_end["rss_peak_mb"] = harness.Metric(harness.rss_peak_mb())

    defined = catalog.PER_LAYER if trace else catalog.END_TO_END
    measured = per_layer if trace else end_to_end
    records = {}
    for spec in defined:
        metric = measured.get(spec.name, harness.Metric(0.0))  # 0: not on this workload
        checks.check(math.isfinite(metric.value), f"{spec.name} is not finite")
        records[spec.name] = metric.record(spec.unit, spec.better)

    arrow = {"higher": "^", "lower": "v"}
    print(f"== {args.workload}  seed={args.seed}  {'traced' if trace else 'untraced'} ==")
    applies = {spec.name: getattr(spec, "workloads", (args.workload,)) for spec in defined}
    for name, rec in records.items():
        if args.workload not in applies[name]:
            continue  # a layer this workload never enters: reported (as 0), not shown
        spread = f"  n={rec['n']} q1={rec['q1']:.6g} q3={rec['q3']:.6g}" if "q1" in rec else ""
        print(f"  {name:<40}{rec['value']:>16.6g} {rec['unit']:<6} {arrow[rec['better']]}{spread}")
    for line in report:
        print(line)
    for note in checks.notes:
        print(f"FAILED: {note}")

    results = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": quick,
        "params": module.PARAMS,
        "environment": harness.environment(out_dir),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": records,
        # A traced run also measured the end-to-end metrics, in its shorter
        # untraced phase; they are kept here but are not what it reports.
        "end_to_end_of_untraced_phase": {
            spec.name: end_to_end[spec.name].record(spec.unit, spec.better)
            for spec in catalog.END_TO_END
        },
        "report": report,
    }
    results_path = out_dir / f"results-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(results_path, "w") as out:
        json.dump(results, out, indent=1)

    last_line = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": rec["value"], "unit": rec["unit"]} for name, rec in records.items()
        },
    }
    print(json.dumps(last_line))
    return 0 if checks.failed == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own subprocess, one after the other."""
    import catalog

    attempted = failed = 0
    metrics = {}
    code = 0
    for workload in catalog.WORKLOADS:
        command = [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload.name,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
            "--out-dir",
            str(args.out_dir),
        ] + (["--quick"] if args.quick else [])
        done = subprocess.run(command, capture_output=True, text=True, timeout=600)
        lines = done.stdout.rstrip().splitlines()
        sys.stderr.write(done.stderr)
        if done.returncode not in (0, 1) or not lines:
            print(f"{workload.name}: exit code {done.returncode}, no result", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        attempted += last["attempted"]
        failed += last["failed"]
        code = max(code, done.returncode)
        for name, value in last["metrics"].items():
            metrics[f"{workload.name}:{name}"] = value
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"the program under test is missing: no {SRC / 'repro'}", file=sys.stderr)
        return 2
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
