"""Where an offloaded training step's time goes, by thread.

    python3 scripts/thread_cpu.py --workload train_ssd --steps 20

Builds the benchmark's own rig (``benchmarks/e2e/wl_train._Rig``,
unmodified) pinned to one CPU as ``benchmarks/e2e/run.py`` pins it,
alternates OFFLOAD and KEEP steps and prints the median per step of:
wall time; the main thread's user / system CPU and minor faults
(``RUSAGE_THREAD``), for the whole step and split at the edges of
``Tensor.backward`` into forward (everything before it) and backward;
the CPU of every other thread — lane workers and, under ``uring``, the
reaper — read from its own clock (``time.pthread_getcpuclockid``), and
their minor faults (``/proc/self/task/<tid>/stat``); idle = wall −
main − workers, which on one CPU is the time nobody ran; and the CPU
spent inside ``repro.io.checksum.crc32`` (the stores' checksum entry point),
``os.pwritev``, ``os.preadv``, ``os.open``, ``os.close``,
``os.unlink`` and ``os.ftruncate`` (the one metadata call left on a
recycled file's write path), timed by wrappers this tool installs in its own process
(they add roughly a microsecond a call to the step they measure).

After the last step it prints glibc's per-arena census from
``malloc_info``: each arena's system bytes (what it holds from the
kernel) and free bytes (what of that no allocation uses).  Arena 0 is
the main thread's; glibc gives every other thread that allocates an
arena of its own as it first does, so with the live threads printed
beside it the rest are the lane workers'.  A libc without
``malloc_info`` (musl, macOS) gets a printed note instead.

The span tracer of ``run.py --trace 1`` says which *call* time sits in;
this says which *thread* burned it, which is what separates hand-off
cost (idle) from work (CPU) in ``trainer.unattributed_ms_per_step``.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
import xml.etree.ElementTree as ElementTree
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
E2E = ROOT / "benchmarks" / "e2e"
#: ``(module, function)``: resolved at install, once ``src`` is importable.
WRAPPED = (
    ("repro.io.checksum", "crc32"),
    ("os", "pwritev"),
    ("os", "preadv"),
    ("os", "open"),
    ("os", "close"),
    ("os", "unlink"),
    ("os", "ftruncate"),
)
PER_STEP = (
    "wall_ms",
    "main_user_ms",
    "main_sys_ms",
    "workers_cpu_ms",
    "idle_ms",
    "main_minflt",
    "workers_minflt",
    "forward_user_ms",
    "forward_sys_ms",
    "forward_minflt",
    "backward_user_ms",
    "backward_sys_ms",
    "backward_minflt",
)


class CallClock:
    """Per-call CPU of a few functions, summed over every thread."""

    def __init__(self) -> None:
        #: (thread ident, name) -> [calls, cpu seconds]; a thread writes
        #: only its own rows, so no lock sits on the measured path.
        self._rows: Dict[Tuple[int, str], List[float]] = {}
        self._originals: List[Tuple[object, str, Callable]] = []

    def install(self) -> None:
        for module_name, attr in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(f"{module_name}.{attr}", original))

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


class PhaseClock:
    """The main thread's ``RUSAGE_THREAD`` at the entry and exit of the
    outermost ``Tensor.backward`` call: where forward ends and backward
    begins (a step has one micro-batch, so one backward)."""

    def __init__(self) -> None:
        self.entered: Optional[resource.struct_rusage] = None
        self.left: Optional[resource.struct_rusage] = None
        self._original: Optional[Callable] = None

    def install(self) -> None:
        from repro.tensor.tensor import Tensor

        self._original = original = Tensor.backward
        depth = [0]

        def backward(tensor, *args, **kwargs):
            if depth[0] == 0:
                self.entered = resource.getrusage(resource.RUSAGE_THREAD)
            depth[0] += 1
            try:
                return original(tensor, *args, **kwargs)
            finally:
                depth[0] -= 1
                if depth[0] == 0:
                    self.left = resource.getrusage(resource.RUSAGE_THREAD)

        Tensor.backward = backward

    def uninstall(self) -> None:
        from repro.tensor.tensor import Tensor

        if self._original is not None:
            Tensor.backward = self._original
            self._original = None


def _usage_row(prefix: str, start, end) -> Dict[str, float]:
    return {
        f"{prefix}_user_ms": (end.ru_utime - start.ru_utime) * 1e3,
        f"{prefix}_sys_ms": (end.ru_stime - start.ru_stime) * 1e3,
        f"{prefix}_minflt": float(end.ru_minflt - start.ru_minflt),
    }


def _other_threads() -> List[threading.Thread]:
    return [
        thread
        for thread in threading.enumerate()
        if thread is not threading.current_thread() and thread.ident is not None
    ]


def other_threads_cpu_s() -> float:
    """CPU seconds consumed so far by every live thread but this one."""
    total = 0.0
    for thread in _other_threads():
        try:
            total += time.clock_gettime(time.pthread_getcpuclockid(thread.ident))
        except OSError:  # the thread exited between enumerate() and here
            pass
    return total


def other_threads_minflt() -> int:
    """Minor faults taken so far by every live thread but this one:
    field 10 of ``/proc/self/task/<tid>/stat`` (0 where there is no /proc)."""
    total = 0
    for thread in _other_threads():
        try:
            with open(f"/proc/self/task/{thread.native_id}/stat") as stat:
                # The command name may hold spaces; the fields after it do not.
                total += int(stat.read().rsplit(")", 1)[1].split()[7])
        except OSError:  # no /proc, or the thread exited
            pass
    return total


def measure(rig, which: str, clock: CallClock, phases: PhaseClock) -> Dict[str, float]:
    """One step of ``which``; every value in milliseconds or counts."""
    calls_before = clock.totals()
    workers_before = other_threads_cpu_s()
    faults_before = other_threads_minflt()
    usage_before = resource.getrusage(resource.RUSAGE_THREAD)
    phases.entered = phases.left = None
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
        "workers_minflt": float(other_threads_minflt() - faults_before),
        "idle_ms": (wall_s - user_s - sys_s - workers_s) * 1e3,
    }
    if phases.entered is not None and phases.left is not None:
        row.update(_usage_row("forward", usage_before, phases.entered))
        row.update(_usage_row("backward", phases.entered, phases.left))
    for name, (calls, cpu_s) in clock.totals().items():
        calls_0, cpu_0 = calls_before.get(name, (0, 0.0))
        row[f"{name}.calls"] = float(calls - calls_0)
        row[f"{name}.cpu_ms"] = (cpu_s - cpu_0) * 1e3
    return row


def report(workload: str, steps: int, rows: Dict[str, List[Dict[str, float]]]) -> List[str]:
    def median(which: str, key: str) -> float:
        return statistics.median(row.get(key, 0.0) for row in rows[which])

    lines = [f"{workload}: medians over {steps} OFFLOAD and {steps} KEEP steps, one pinned CPU"]
    lines.append(f"{'per step':<26}{'OFFLOAD':>12}{'KEEP':>12}{'gap':>12}")
    for key in PER_STEP:
        off, keep = median("offload", key), median("keep", key)
        lines.append(f"{key:<26}{off:>12.2f}{keep:>12.2f}{off - keep:>12.2f}")
    lines.append(f"{'OFFLOAD, per call':<26}{'calls/step':>12}{'cpu_ms/step':>12}{'us/call':>12}")
    for module_name, attr in WRAPPED:
        name = f"{module_name}.{attr}"
        calls, cpu_ms = median("offload", f"{name}.calls"), median("offload", f"{name}.cpu_ms")
        per_call_us = cpu_ms * 1e3 / calls if calls else 0.0
        lines.append(f"{name:<26}{calls:>12.1f}{cpu_ms:>12.3f}{per_call_us:>12.2f}")
    return lines


def malloc_arenas() -> Optional[List[Tuple[int, int, int]]]:
    """``(arena, system bytes, free bytes)`` for every glibc malloc arena,
    parsed from ``malloc_info``; None where libc has no ``malloc_info``."""
    libc = ctypes.CDLL(None)
    try:
        malloc_info, open_memstream = libc.malloc_info, libc.open_memstream
    except AttributeError:
        return None
    open_memstream.restype = ctypes.c_void_p
    open_memstream.argtypes = [ctypes.POINTER(ctypes.c_void_p), ctypes.POINTER(ctypes.c_size_t)]
    malloc_info.argtypes = [ctypes.c_int, ctypes.c_void_p]
    libc.fclose.argtypes = [ctypes.c_void_p]
    libc.free.argtypes = [ctypes.c_void_p]
    text, size = ctypes.c_void_p(), ctypes.c_size_t()
    stream = open_memstream(ctypes.byref(text), ctypes.byref(size))
    if not stream:
        return None
    malloc_info(0, stream)
    libc.fclose(stream)
    try:
        report = ctypes.string_at(text.value, size.value).decode()
    finally:
        libc.free(text)
    arenas = []
    for heap in ElementTree.fromstring(report).iter("heap"):
        sizes = {(e.tag, e.get("type")): int(e.get("size")) for e in heap if e.get("size")}
        free = sizes[("total", "fast")] + sizes[("total", "rest")]
        arenas.append((int(heap.get("nr")), sizes[("system", "current")], free))
    return arenas


def arena_report(steps: int) -> List[str]:
    arenas = malloc_arenas()
    if arenas is None:
        return ["malloc arenas: this libc has no malloc_info (glibc only); no arena census"]
    threads = ", ".join(thread.name for thread in threading.enumerate())
    lines = [
        f"malloc arenas after {steps} OFFLOAD/KEEP step pairs (arena 0 is the main thread's;"
        f" live threads: {threads})",
        f"{'arena':<26}{'system MB':>12}{'free MB':>12}{'in use MB':>12}",
    ]
    for nr, system, free in arenas:
        used = system - free
        lines.append(f"{nr:<26}{system / 1e6:>12.2f}{free / 1e6:>12.2f}{used / 1e6:>12.2f}")
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
    clock, phases = CallClock(), PhaseClock()
    rows: Dict[str, List[Dict[str, float]]] = {"offload": [], "keep": []}
    rig = wl_train._Rig(args.workload, args.seed, out_dir)  # runs one discarded step of each
    try:
        clock.install()
        phases.install()
        for _ in range(args.steps):
            for which in ("offload", "keep"):
                rows[which].append(measure(rig, which, clock, phases))
        arenas = arena_report(args.steps)  # while the rig's threads are alive
    finally:
        phases.uninstall()
        clock.uninstall()
        rig.close()
        shutil.rmtree(out_dir, ignore_errors=True)
    print("\n".join(report(args.workload, args.steps, rows) + arenas))
    return 0


if __name__ == "__main__":
    sys.exit(main())
