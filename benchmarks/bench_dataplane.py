"""Benchmarks for the zero-copy offload data plane (PR 5).

Store/load rounds of the pooled/streaming copy path on every backend,
plus the arena's lease/release hot path.  Each bench asserts the
deterministic invariant (real allocations skipped) so the data plane
cannot silently fall back to a copy per tensor.
"""

import numpy as np

from repro.core.ids import TensorID
from repro.core.offloader import CPUOffloader, PinnedMemoryPool
from repro.io.buffers import BufferArena
from repro.io.chunkstore import ChunkedTensorStore
from repro.io.filestore import TensorFileStore

from benchmarks.conftest import emit

MiB = 1 << 20
#: Store-path working set: 16 x 1 MiB tensors per measured round.
N_TENSORS = 16
TENSOR = np.random.default_rng(7).random(MiB // 8)  # 1 MiB of float64
NAMES = [f"t{i}" for i in range(N_TENSORS)]
TIDS = [TensorID(stamp=i, shape=TENSOR.shape) for i in range(N_TENSORS)]


def _store_round(store):
    for name in NAMES:
        store.write(name, TENSOR)


def _load_round(store):
    for name in NAMES:
        store.read(name, TENSOR.shape, TENSOR.dtype)


def test_dataplane_filestore_store(benchmark, tmp_path):
    store = TensorFileStore(tmp_path)
    benchmark(_store_round, store)
    emit(
        "Data plane — filestore store path (pooled/streaming)",
        [f"copies: {store.copy_stats.snapshot().copies}",
         f"allocs avoided: {store.copy_stats.snapshot().allocs_avoided}"],
    )
    assert store.copy_stats.snapshot().allocs_avoided > 0


def test_dataplane_filestore_load(benchmark, tmp_path):
    store = TensorFileStore(tmp_path)
    _store_round(store)
    benchmark(_load_round, store)
    assert store.copy_stats.snapshot().allocs_avoided > 0


def test_dataplane_chunkstore_store(benchmark, tmp_path):
    store = ChunkedTensorStore(tmp_path, chunk_bytes=4 * MiB)
    benchmark(_store_round, store)
    assert store.copy_stats.snapshot().allocs_avoided > 0


def test_dataplane_cpu_store(benchmark):
    """CPU-tier stores copy into leased arena buffers.

    The win here is structural, not a microbench ratio: both paths are
    one memcpy, and in a tight same-size loop the OS allocator caches
    the freed block just like the arena does — so the gated invariant is
    the alloc avoidance (no per-store allocation / first-touch page
    faults, memory bounded by the retention cap), which is what shows up
    under real allocator pressure."""
    offloader = CPUOffloader(PinnedMemoryPool())

    def round_():
        for tid in TIDS:
            offloader.store(tid, TENSOR)

    round_()  # steady state needs a first round to overwrite, even with timing disabled
    benchmark(round_)
    stats = offloader.arena.stats()
    emit(
        "Data plane — CPU-pool store path (arena-backed)",
        [f"arena hit rate: {stats.hit_rate:.0%}",
         f"allocs avoided: {stats.allocs_avoided}"],
    )
    # Steady state: every overwrite reuses the evicted buffer's class.
    assert stats.allocs_avoided > 0
    offloader.shutdown()


def test_dataplane_buffers_arena_lease_hot_path(benchmark):
    """Lease/release cycle cost — runs on every pooled CPU store, so it
    must stay in the microseconds."""
    arena = BufferArena()

    def round_():
        for _ in range(64):
            lease = arena.lease(MiB)
            lease.release()

    benchmark(round_)
    stats = arena.stats()
    assert stats.leaked == 0
    assert stats.hit_rate > 0.9
