"""Engine lifecycle: idempotent close, context manager, and leak-freedom.

``build_engine(...)`` / ``shutdown()`` cycles leak **nothing** — no
worker threads, no file descriptors — so a process that builds engines
over and over (a test suite, a sweep) keeps a flat footprint.
"""

import os
import threading

import numpy as np
import pytest

from repro.core.engine import EngineConfig, EngineStats, build_engine
from repro.core.ids import TensorID

DATA = np.arange(256, dtype=np.float32)
TID = TensorID(stamp=1, shape=(256,))


def _cycle(config):
    """One full engine life: build (which starts the lane workers and
    the uring reaper), store and load, shut down."""
    engine = build_engine(config)
    engine.offloader.store(TID, DATA)
    back = engine.offloader.load(TID, DATA.shape, DATA.dtype)
    assert np.array_equal(back, DATA)
    engine.shutdown()


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize(
    "config",
    [
        EngineConfig(target="cpu"),
        EngineConfig(target="ssd", store_dir="PLACEHOLDER"),
        EngineConfig(target="ssd", store_dir="PLACEHOLDER", chunk_bytes=4096),
        EngineConfig(
            target="ssd",
            store_dir="PLACEHOLDER",
            chunk_bytes=4096,
            io_backend="uring",
        ),
        # A pool too small for DATA: the store demotes straight to the
        # SSD tier's chunk store, on the default backend.
        EngineConfig(
            target="tiered",
            store_dir="PLACEHOLDER",
            cpu_pool_bytes=512,
            chunk_bytes=4096,
        ),
    ],
    ids=["cpu", "ssd", "ssd-chunked", "ssd-chunked-uring", "tiered"],
)
def test_twenty_cycles_leak_no_threads_or_fds(tmp_path, config):
    config.store_dir = tmp_path if config.store_dir else None
    _cycle(config)  # warm-up: imports, pytest plumbing, etc.
    threads_before = threading.active_count()
    fds_before = _open_fds()
    for _ in range(20):
        _cycle(config)
    assert threading.active_count() == threads_before
    assert _open_fds() == fds_before


def test_shutdown_is_idempotent(tmp_path):
    engine = build_engine(
        EngineConfig(target="ssd", store_dir=tmp_path, chunk_bytes=4096)
    )
    engine.offloader.store(TID, DATA)
    assert not engine.closed
    engine.shutdown()
    assert engine.closed
    engine.shutdown()  # second close is a no-op, not an error
    engine.close()  # alias
    assert engine.closed


def test_engine_context_manager(tmp_path):
    with build_engine(
        EngineConfig(target="ssd", store_dir=tmp_path, chunk_bytes=4096)
    ) as engine:
        engine.offloader.store(TID, DATA)
        assert not engine.closed
    assert engine.closed


def test_scheduler_and_backends_close_aliases(tmp_path):
    """Every layer of the I/O plane is a context manager with an
    idempotent ``close`` — the leak-freedom building blocks."""
    from repro.io.scheduler import IOScheduler
    from repro.io.uring import UringBackend

    with IOScheduler(workers=2) as sched:
        pass
    sched.close()  # idempotent after __exit__

    with UringBackend() as backend:
        pass
    backend.close()


def test_stats_available_after_shutdown(tmp_path):
    """A closed engine still reports (it no longer mutates), and its
    endurance books show the shutdown's clear reclaimed every byte."""
    engine = build_engine(
        EngineConfig(target="ssd", store_dir=tmp_path, chunk_bytes=DATA.nbytes)
    )
    engine.offloader.store(TID, DATA)  # fills, and so flushes, one chunk
    engine.shutdown()
    stats = engine.stats()
    assert isinstance(stats, EngineStats)
    assert stats.endurance is not None
    assert stats.endurance.bytes_written == DATA.nbytes
    assert stats.endurance.reclaimed_bytes == DATA.nbytes
    assert stats.endurance.dead_bytes == 0
