"""``engine_replay``'s exact per-layer rows, pinned.

``benchmarks/e2e/wl_replay.py`` drives the scheduler, the offloader and
a 4 MiB-chunk store with no model and no compute.  Most of what
``run.py --trace 1`` prints for it is time, which a shared machine
cannot gate; the rows below are ratios of integer counts to the bytes
moved, the same on every run, so they gate the request path without
flaking.  The workload's own module is imported, not copied: a change
that moves one of these rows moves it in the benchmark too.  Update the
pins on purpose.

At ``QUICK_POPULATIONS`` (32 x 16 KiB and 4 x 1 MiB float32) one traced
round stores and loads 4.5 MiB (4,718,592 bytes) each way:
"""

import sys
from pathlib import Path

import pytest

E2E = Path(__file__).parents[2] / "benchmarks" / "e2e"
MIB = 1 << 20
#: Bytes one quick round moves: stored + loaded.
MOVED = 2 * (32 * 16 * 1024 + 4 * MIB)

ENGINE_REPLAY_PINS = {
    # 36 stores + 36 loads, one request each: nothing coalesces or cancels.
    "scheduler.requests_per_step": 72.0,
    # One pwritev per 4 MiB chunk flushed.
    "store.write_syscalls_per_mb": 1 / (4 * MIB / 1e6),
    # Four preadv per 4 MiB read back from flushed chunks.
    "store.read_syscalls_per_mb": 4 / (4 * MIB / 1e6),
    # One copy per store (the staging append) and one per load.
    "buffers.copies_per_mb": 72 / (MOVED / 1e6),
    # The same 1 + 4 syscalls, as the lanes book them.
    "backend.syscalls_per_mb": 5 / (MOVED / 1e6),
}


@pytest.fixture
def wl_replay():
    sys.path.insert(0, str(E2E))
    try:
        import wl_replay

        yield wl_replay
    finally:
        sys.path.remove(str(E2E))


def test_engine_replay_exact_rows_are_pinned(tmp_path, wl_replay):
    assert wl_replay.QUICK_POPULATIONS == {"small": (32, 4096), "large": (4, 262144)}
    _, per_layer, _, checks = wl_replay.run(
        seed=0, seconds=1.0, trace=True, quick=True, out_dir=tmp_path
    )
    assert (checks.failed, checks.notes) == (0, [])
    rows = {name: per_layer[name].value for name in ENGINE_REPLAY_PINS}
    assert rows == pytest.approx(ENGINE_REPLAY_PINS, rel=1e-12)
