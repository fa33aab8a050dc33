"""Where an offloaded training step's time goes, by thread.

    python3 scripts/thread_cpu.py --workload train_ssd --steps 20

Builds the benchmark's own rig (``benchmarks/e2e/wl_train._Rig``,
unmodified) pinned to one CPU as ``benchmarks/e2e/run.py`` pins it,
alternates OFFLOAD and KEEP steps and prints the median per step of:
wall time; the main thread's user / system CPU and minor faults
(``RUSAGE_THREAD``); the CPU of every other thread — lane workers and,
under ``uring``, the reaper — read from its own clock
(``time.pthread_getcpuclockid``); idle = wall − main − workers, which on
one CPU is the time nobody ran; and the CPU spent inside ``zlib.crc32``,
``os.pwritev``, ``os.preadv``, ``os.open``, ``os.close`` and
``os.unlink``, timed by wrappers this tool installs in its own process
(they add roughly a microsecond a call to the step they measure).

The span tracer of ``run.py --trace 1`` says which *call* time sits in;
this says which *thread* burned it, which is what separates hand-off
cost (idle) from work (CPU) in ``trainer.unattributed_ms_per_step``.
"""

from __future__ import annotations

import argparse
import os
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
import zlib
from pathlib import Path
from typing import Callable, Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
E2E = ROOT / "benchmarks" / "e2e"
WRAPPED = (
    (zlib, "crc32"),
    (os, "pwritev"),
    (os, "preadv"),
    (os, "open"),
    (os, "close"),
    (os, "unlink"),
)
PER_STEP = ("wall_ms", "main_user_ms", "main_sys_ms", "workers_cpu_ms", "idle_ms", "main_minflt")


class CallClock:
    """Per-call CPU of a few functions, summed over every thread."""

    def __init__(self) -> None:
        #: (thread ident, name) -> [calls, cpu seconds]; a thread writes
        #: only its own rows, so no lock sits on the measured path.
        self._rows: Dict[Tuple[int, str], List[float]] = {}
        self._originals: List[Tuple[object, str, Callable]] = []

    def install(self) -> None:
        for module, attr in WRAPPED:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(f"{module.__name__}.{attr}", original))

    def uninstall(self) -> None:
        for module, attr, original in self._originals:
            setattr(module, attr, original)
        self._originals.clear()

    def _wrap(self, name: str, original: Callable) -> Callable:
        rows, thread_time, get_ident = self._rows, time.thread_time, threading.get_ident

        def timed(*args, **kwargs):
            start = thread_time()
            try:
                return original(*args, **kwargs)
            finally:
                spent = thread_time() - start
                row = rows.get((get_ident(), name))
                if row is None:
                    row = rows[(get_ident(), name)] = [0, 0.0]
                row[0] += 1
                row[1] += spent

        return timed

    def totals(self) -> Dict[str, Tuple[int, float]]:
        out: Dict[str, Tuple[int, float]] = {}
        for (_, name), (calls, cpu_s) in list(self._rows.items()):
            seen = out.get(name, (0, 0.0))
            out[name] = (seen[0] + calls, seen[1] + cpu_s)
        return out


def other_threads_cpu_s() -> float:
    """CPU seconds consumed so far by every live thread but this one."""
    total = 0.0
    for thread in threading.enumerate():
        if thread is threading.current_thread() or thread.ident is None:
            continue
        try:
            total += time.clock_gettime(time.pthread_getcpuclockid(thread.ident))
        except OSError:  # the thread exited between enumerate() and here
            pass
    return total


def measure(rig, which: str, clock: CallClock) -> Dict[str, float]:
    """One step of ``which``; every value in milliseconds or counts."""
    calls_before = clock.totals()
    workers_before = other_threads_cpu_s()
    usage_before = resource.getrusage(resource.RUSAGE_THREAD)
    wall_s, _result = rig.step(which)
    usage = resource.getrusage(resource.RUSAGE_THREAD)
    # A step ends with the cache drained, so the workers' clocks are at rest.
    workers_s = other_threads_cpu_s() - workers_before
    user_s = usage.ru_utime - usage_before.ru_utime
    sys_s = usage.ru_stime - usage_before.ru_stime
    row = {
        "wall_ms": wall_s * 1e3,
        "main_user_ms": user_s * 1e3,
        "main_sys_ms": sys_s * 1e3,
        "main_minflt": float(usage.ru_minflt - usage_before.ru_minflt),
        "workers_cpu_ms": workers_s * 1e3,
        "idle_ms": (wall_s - user_s - sys_s - workers_s) * 1e3,
    }
    for name, (calls, cpu_s) in clock.totals().items():
        calls_0, cpu_0 = calls_before.get(name, (0, 0.0))
        row[f"{name}.calls"] = float(calls - calls_0)
        row[f"{name}.cpu_ms"] = (cpu_s - cpu_0) * 1e3
    return row


def report(workload: str, steps: int, rows: Dict[str, List[Dict[str, float]]]) -> List[str]:
    def median(which: str, key: str) -> float:
        return statistics.median(row.get(key, 0.0) for row in rows[which])

    lines = [f"{workload}: medians over {steps} OFFLOAD and {steps} KEEP steps, one pinned CPU"]
    lines.append(f"{'per step':<18}{'OFFLOAD':>12}{'KEEP':>12}{'gap':>12}")
    for key in PER_STEP:
        off, keep = median("offload", key), median("keep", key)
        lines.append(f"{key:<18}{off:>12.2f}{keep:>12.2f}{off - keep:>12.2f}")
    lines.append(f"{'OFFLOAD, per call':<18}{'calls/step':>12}{'cpu_ms/step':>12}{'us/call':>12}")
    for module, attr in WRAPPED:
        name = f"{module.__name__}.{attr}"
        calls, cpu_ms = median("offload", f"{name}.calls"), median("offload", f"{name}.cpu_ms")
        per_call_us = cpu_ms * 1e3 / calls if calls else 0.0
        lines.append(f"{name:<18}{calls:>12.1f}{cpu_ms:>12.3f}{per_call_us:>12.2f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("train_ssd", "train_tiered"), default="train_ssd")
    parser.add_argument("--steps", type=int, default=20, help="measured steps of each kind")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.steps < 1:
        parser.error("--steps must be >= 1")
    for path in (str(ROOT / "src"), str(E2E)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import run as e2e_run  # sets the one-BLAS-thread environment before numpy loads
    import wl_train

    e2e_run.pin_to_one_cpu()
    out_dir = Path(tempfile.mkdtemp(prefix="thread-cpu-"))
    clock = CallClock()
    rows: Dict[str, List[Dict[str, float]]] = {"offload": [], "keep": []}
    rig = wl_train._Rig(args.workload, args.seed, out_dir)  # runs one discarded step of each
    try:
        clock.install()
        for _ in range(args.steps):
            for which in ("offload", "keep"):
                rows[which].append(measure(rig, which, clock))
    finally:
        clock.uninstall()
        rig.close()
        shutil.rmtree(out_dir, ignore_errors=True)
    print("\n".join(report(args.workload, args.steps, rows)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
