"""Service mode's durable index (PR 9).

The two costs the long-running service pays that a single-run engine
never does — **manifest replay** on every restart and **chunk
compaction** on the endurance path — plus a deterministic GC-reclaim
assertion so the compactor cannot silently stop reclaiming.
"""

import numpy as np

from repro.io.chunkstore import ChunkedTensorStore
from repro.io.manifest import read_journal

from benchmarks.conftest import emit

KiB = 1 << 10
CHUNK_BYTES = 16 * KiB
TENSOR_ELEMS = 1024  # 4 KiB float32 => 4 tensors per chunk
TENSOR = np.random.default_rng(9).standard_normal(TENSOR_ELEMS).astype(np.float32)


def _populate(root, num_tensors, release_every=None):
    """A durable store with ``num_tensors`` flushed tensors; optionally
    deletes every ``release_every``-th one so chunks carry dead bytes."""
    store = ChunkedTensorStore(root, chunk_bytes=CHUNK_BYTES, durable=True)
    for i in range(num_tensors):
        store.write(f"t{i}_{TENSOR_ELEMS}", TENSOR)
        if (i + 1) % 4 == 0:
            store.flush()
    store.flush()
    if release_every:
        for i in range(0, num_tensors, release_every):
            store.delete(f"t{i}_{TENSOR_ELEMS}")
    store.close()
    return store


def _replay(root):
    reopened = ChunkedTensorStore(root, chunk_bytes=CHUNK_BYTES, durable=True)
    try:
        assert reopened.manifest_records_replayed > 0
        assert not reopened.replay_was_torn
        return reopened.manifest_records_replayed
    finally:
        reopened.close()


def test_manifest_replay_small_store(tmp_path):
    """Cold-open replay cost at a small store (restart latency floor)."""
    _populate(tmp_path, num_tensors=32)
    records = _replay(tmp_path)
    emit(
        "service — manifest replay (small store)",
        [f"32 tensors, {records} journal records replayed per cold open"],
    )


def test_manifest_replay_large_store(tmp_path):
    """Replay cost with 16x the records — the curve restart latency
    follows as a service accumulates flush/delete history."""
    _populate(tmp_path, num_tensors=512, release_every=2)
    records = _replay(tmp_path)
    emit(
        "service — manifest replay (large store)",
        [f"512 tensors + deletes, {records} journal records replayed per cold open"],
    )


def test_service_compaction_throughput(tmp_path):
    """One full compaction pass over half-dead chunks reclaims bytes."""
    _populate(tmp_path, num_tensors=64, release_every=2)
    store = ChunkedTensorStore(tmp_path, chunk_bytes=CHUNK_BYTES, durable=True)
    reclaimed = store.compact(max_dead_ratio=0.5)
    store.close()
    assert reclaimed > 0
    emit(
        "service — compaction throughput",
        [f"{reclaimed} dead bytes reclaimed per pass over 16 half-dead chunks"],
    )


def test_service_gc_reclaim_books_deterministic(tmp_path):
    """Compaction reclaims exactly the dead bytes it found, the books
    balance, and a cold replay reproduces them — deterministically, so
    the bench file keeps asserting the endurance win, not just timing it.
    """
    num_tensors = 64
    _populate(tmp_path, num_tensors=num_tensors, release_every=2)

    store = ChunkedTensorStore(tmp_path, chunk_bytes=CHUNK_BYTES, durable=True)
    dead_before = store.dead_bytes
    assert dead_before == (num_tensors // 2) * TENSOR.nbytes

    reclaimed = store.compact(max_dead_ratio=0.5)
    assert reclaimed == dead_before  # every half-dead chunk crossed the threshold
    assert store.gc_runs == num_tensors * TENSOR.nbytes // CHUNK_BYTES
    assert store.gc_reclaimed_dead_bytes == dead_before
    assert store.dead_bytes == 0
    # Live tensors moved, not lost: every odd tensor reads back bit-exact.
    for i in range(1, num_tensors, 2):
        assert np.array_equal(
            store.read(f"t{i}_{TENSOR_ELEMS}", (TENSOR_ELEMS,), np.float32), TENSOR
        )
    books = (
        store.bytes_written,
        store.reclaimed_bytes,
        store.gc_runs,
        store.gc_bytes_rewritten,
        store.gc_reclaimed_dead_bytes,
    )
    store.close()

    records, torn = read_journal(store.manifest_path)
    assert not torn and any(r["op"] == "compact" for r in records)

    replayed = ChunkedTensorStore(tmp_path, chunk_bytes=CHUNK_BYTES, durable=True)
    assert (
        replayed.bytes_written,
        replayed.reclaimed_bytes,
        replayed.gc_runs,
        replayed.gc_bytes_rewritten,
        replayed.gc_reclaimed_dead_bytes,
    ) == books
    replayed.close()

    emit(
        "service — GC reclaim (deterministic)",
        [
            f"{store.gc_runs} chunks compacted, {dead_before} dead bytes "
            f"reclaimed, books replay exactly"
        ],
    )
