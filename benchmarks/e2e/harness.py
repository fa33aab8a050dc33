"""Shared plumbing of the end-to-end benchmark: sampling, clocks, scratch
directories, environment records and the checks every workload ends with.

Nothing here knows about a particular workload; ``run.py`` and the three
``wl_*`` modules import it.
"""

from __future__ import annotations

import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: The checkout that holds ``benchmarks/e2e``.
ROOT = Path(__file__).resolve().parents[2]

#: Set-up is repeated and the median reported: one set-up is a single
#: sample of a sub-second interval, and ``engine_replay``'s is bimodal
#: (0.15 s or 0.3 s).  At least 5 set-ups, then more while they are cheap:
#: until 3 s have gone into them, and never more than 15.
SETUP_REPEATS = (5, 15)
SETUP_SECONDS = 3.0


# --------------------------------------------------------------------- samples
class Sample:
    """Timing (or ratio) samples of one quantity, summarised by quartiles."""

    def __init__(self, values: Iterable[float] = ()) -> None:
        self.values: List[float] = [float(v) for v in values]

    def add(self, value: float) -> None:
        self.values.append(float(value))

    def __len__(self) -> int:
        return len(self.values)

    @property
    def median(self) -> float:
        return statistics.median(self.values) if self.values else 0.0

    def quartiles(self) -> Tuple[float, float]:
        if len(self.values) < 2:
            return (self.median, self.median)
        q1, _, q3 = statistics.quantiles(self.values, n=4)
        return (q1, q3)

    def tail(self) -> Tuple[float, float]:
        """``(percentile, value)`` of the highest percentile that still has
        ten samples beyond it; with eleven samples or fewer, the maximum
        (percentile 100), which the reader must take as a single sample."""
        if not self.values:
            return (100.0, 0.0)
        ordered = sorted(self.values)
        n = len(ordered)
        if n <= 10:
            return (100.0, ordered[-1])
        return (100.0 * (n - 10) / n, ordered[n - 11])


class Metric:
    """One reported number and, where it is the median of per-iteration
    values in its own unit, those values."""

    def __init__(self, value: float, sample: Optional[Sample] = None) -> None:
        self.value = float(value)
        self.sample = sample

    @classmethod
    def median_of(cls, values: Iterable[float]) -> "Metric":
        sample = values if isinstance(values, Sample) else Sample(values)
        return cls(sample.median, sample)

    def record(self, unit: str, better: str) -> Dict[str, object]:
        out: Dict[str, object] = {"value": self.value, "unit": unit, "better": better, "n": 1}
        if self.sample is not None and len(self.sample):
            q1, q3 = self.sample.quartiles()
            out.update(n=len(self.sample), q1=q1, q3=q3)
        return out


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``; 0 when the denominator is 0, which the
    catalog documents as 'does not apply to this workload'."""
    return numerator / denominator if denominator else 0.0


# ---------------------------------------------------------------------- clocks
class Budget:
    """A wall-clock budget for one measured phase.

    ``more(done)`` answers 'run another iteration?': yes until ``seconds``
    have passed, but never fewer than ``at_least`` iterations and — in
    ``--quick`` mode — exactly ``at_least``.
    """

    def __init__(self, seconds: float, at_least: int, quick: bool) -> None:
        self.seconds = seconds
        self.at_least = at_least
        self.quick = quick
        self.started = time.perf_counter()

    def more(self, done: int) -> bool:
        if done < self.at_least:
            return True
        if self.quick:
            return False
        return time.perf_counter() - self.started < self.seconds


def median_setup(build: Callable[[], object], teardown: Callable[[object], None], quick: bool):
    """Run ``build`` repeatedly (see :data:`SETUP_REPEATS`; once when
    ``quick``), tearing down all but the last; returns
    ``(setup_seconds_sample, last)``."""
    fewest, most = (1, 1) if quick else SETUP_REPEATS
    sample = Sample()
    built = None
    while len(sample) < fewest or (len(sample) < most and sum(sample.values) < SETUP_SECONDS):
        if built is not None:
            teardown(built)
        start = time.perf_counter()
        built = build()
        sample.add(time.perf_counter() - start)
    return sample, built


def warm_blas() -> None:
    """The first matmul of a process pays for BLAS thread-pool start-up
    (1.0 s against 0.19 s steady in the prototype); pay it before any timer."""
    a = np.random.default_rng(0).standard_normal((384, 384)).astype(np.float32)
    for _ in range(4):
        a = a @ a
        a /= np.abs(a).max()


# ------------------------------------------------------------------ scratch dir
def scratch_dir(out_dir: Path, label: str) -> Path:
    """A fresh store directory under ``out_dir`` (inside the checkout: the
    benchmark writes nowhere else)."""
    base = out_dir / "store"
    base.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{label}-", dir=base))


def remove_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def filesystem_of(path: Path) -> str:
    """Filesystem type holding ``path`` (longest matching mount point)."""
    best, fs = "", "unknown"
    try:
        resolved = str(path.resolve())
        with open("/proc/mounts") as mounts:
            for line in mounts:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1]
                prefix = mount if mount.endswith("/") else mount + "/"
                if (resolved == mount or resolved.startswith(prefix)) and len(mount) > len(best):
                    best, fs = mount, parts[2]
    except OSError:
        pass
    return fs


# ------------------------------------------------------------------ environment
def git_commit() -> str:
    """The checkout's commit, or ``unknown`` (the driver's checkout is not
    a git repository)."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def environment(out_dir: Path) -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [],
        "store_fs": filesystem_of(out_dir),
        "git_commit": git_commit(),
        "argv": sys.argv[1:],
    }


def rss_peak_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------- checks
class Checks:
    """Counts operations whose output was checked and the ones that were wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


def check_books(checks: Checks, sched_stats, label: str) -> None:
    """``submitted == executed + failed + cancelled`` once drained."""
    if sched_stats is None:
        return
    settled = sched_stats.executed + sched_stats.failed + sched_stats.cancelled
    checks.check(
        sched_stats.submitted == settled,
        f"{label}: scheduler books do not reconcile "
        f"(submitted={sched_stats.submitted}, settled={settled})",
    )
    checks.check(sched_stats.failed == 0, f"{label}: {sched_stats.failed} requests failed")


def thread_names() -> List[str]:
    return sorted(t.name for t in threading.enumerate())


def check_no_thread_leak(checks: Checks, before: Sequence[str], label: str) -> None:
    """``engine.shutdown()`` joins its workers; give stragglers a moment."""
    deadline = time.monotonic() + 2.0
    while time.monotonic() < deadline and len(thread_names()) > len(before):
        time.sleep(0.01)
    after = thread_names()
    checks.check(
        len(after) <= len(before),
        f"{label}: threads left behind: {sorted(set(after) - set(before))}",
    )
