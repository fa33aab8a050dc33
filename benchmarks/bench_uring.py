"""Benchmarks for the lane backends (PR 8, one store path since PR 14).

The reaper backend against inline settlement on the scheduler's store
path, plus the simulated GDS routing in the SSD store.  That a backend
never changes what reaches the kernel is asserted deterministically in
``test_backends_issue_identical_syscalls``.
"""

import numpy as np

from repro.io import (
    GDSRegistry,
    IORequest,
    IOScheduler,
    Priority,
    TensorFileStore,
    UringBackend,
)
from repro.tensor.tensor import Tensor

from benchmarks.conftest import emit

MiB = 1 << 20
#: Store-path working set: 16 x 1 MiB tensors per measured round.
N_TENSORS = 16
TENSOR = np.random.default_rng(11).random(MiB // 8)  # 1 MiB of float64


def _store_round(sched, store):
    requests = [
        sched.submit(
            IORequest(
                lambda i=i: store.write(f"t{i}", TENSOR),
                kind="store",
                priority=Priority.STORE,
                tensor_id=f"t{i}",
                nbytes=TENSOR.nbytes,
            )
        )
        for i in range(N_TENSORS)
    ]
    assert sched.drain(30)
    for request in requests:
        assert request.error is None


def _run_one_round(tmp_path, name, backend):
    """One deterministic round; returns (store, lane stats, sched stats)."""
    sched = IOScheduler(num_store_workers=1, num_load_workers=1, backend=backend)
    store = TensorFileStore(tmp_path / name)
    try:
        _store_round(sched, store)
        lanes = sched.backend_stats_snapshot()
        stats = sched.stats
        assert stats.submitted == stats.executed + stats.failed + stats.cancelled
    finally:
        sched.shutdown()
    return store, lanes["ssd"], stats


def test_uring_backend_store_round(benchmark, tmp_path):
    sched = IOScheduler(
        num_store_workers=1, num_load_workers=1, backend=UringBackend()
    )
    store = TensorFileStore(tmp_path)
    try:
        benchmark(_store_round, sched, store)
        lane = sched.backend_stats_snapshot()["ssd"]
        emit(
            "SQ/CQ backend — uring store round (16 x 1 MiB)",
            [f"syscalls: {lane.syscalls} over {lane.batches} batches",
             f"requests batched: {lane.batched_requests}",
             f"reaped: {lane.reaped} (lag {lane.reap_lag_s * 1e3:.1f} ms)"],
        )
        assert lane.reaped > 0
    finally:
        sched.shutdown()


def test_thread_backend_store_round(benchmark, tmp_path):
    sched = IOScheduler(num_store_workers=1, num_load_workers=1)
    store = TensorFileStore(tmp_path)
    try:
        benchmark(_store_round, sched, store)
    finally:
        sched.shutdown()


def test_backends_issue_identical_syscalls(tmp_path):
    """Asserted deterministically: at identical bytes written, the
    reaper backend reaches the kernel exactly as often as inline
    settlement — the store, not the backend, issues the syscalls."""
    thread_store, thread_lane, _ = _run_one_round(tmp_path, "thread", None)
    uring_store, uring_lane, _ = _run_one_round(tmp_path, "uring", UringBackend())
    assert uring_store.bytes_written == thread_store.bytes_written
    assert uring_store.write_syscalls == thread_store.write_syscalls
    assert uring_lane.syscalls == thread_lane.syscalls == thread_store.write_syscalls
    emit(
        "lane backends — syscalls at equal bytes (16 x 1 MiB stores)",
        [f"thread: {thread_lane.syscalls} syscalls",
         f"uring:  {uring_lane.syscalls} syscalls"],
    )


def test_gds_sim_store_skips_bounce_copies(tmp_path):
    """Registered storages route past the host bounce buffer: the
    ``bounce_copies_skipped`` counter must move on a registered round."""
    registry = GDSRegistry()
    sched = IOScheduler(
        num_store_workers=1, num_load_workers=1, backend=UringBackend()
    )
    store = TensorFileStore(tmp_path, gds=registry)
    tensors = [Tensor(TENSOR.copy()) for _ in range(N_TENSORS)]
    for t in tensors:
        registry.register(t.untyped_storage())
    try:
        requests = [
            sched.submit(
                IORequest(
                    lambda i=i: store.write(f"t{i}", tensors[i].data),
                    kind="store",
                    priority=Priority.STORE,
                    tensor_id=f"t{i}",
                    nbytes=TENSOR.nbytes,
                )
            )
            for i in range(N_TENSORS)
        ]
        assert sched.drain(30)
        for request in requests:
            assert request.error is None
        books = store.copy_stats.snapshot()
        emit(
            "GDS-sim routing (16 registered stores)",
            [f"bounce copies skipped: {books.bounce_copies_skipped}",
             f"bounce copies staged: {books.bounce_copies}"],
        )
        assert books.bounce_copies_skipped > 0
        assert books.bounce_copies == 0
        assert store.arena.stats().outstanding_bytes == 0
    finally:
        sched.shutdown()
