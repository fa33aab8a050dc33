"""Tests for the zero-copy data plane: the buffer arena's lease/release
accounting (including under concurrency and fault interleavings), the
streaming checksum writers' byte-for-byte equivalence with the
``frame_payload`` reference frame, and the conditional-copy
bit-exactness fixes."""

import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ids import TensorID
from repro.core.offloader import CPUOffloader, PinnedMemoryPool, SSDOffloader
from repro.core.policy import Tier
from repro.io.buffers import (
    MIN_SIZE_CLASS,
    BufferArena,
    owned_copy,
    size_class,
)
from repro.io.chunkstore import ChunkedTensorStore
from repro.io.errors import IntegrityError
from repro.io.faults import FaultPlan, inject_faults
from repro.io.filestore import (
    FRAME_HEADER_BYTES,
    TensorFileStore,
    frame_payload,
    unframe_payload,
)
from repro.io.scheduler import IORequest, IOScheduler, Priority
from tests.conftest import assert_tier_books, build_tier

DATA = np.arange(256, dtype=np.float32)  # 1 KiB


def _tid(i: int) -> TensorID:
    return TensorID(stamp=i, shape=(256,))


# ------------------------------------------------------------------ the arena
def test_size_class_binning():
    assert size_class(0) == MIN_SIZE_CLASS
    assert size_class(1) == MIN_SIZE_CLASS
    assert size_class(MIN_SIZE_CLASS) == MIN_SIZE_CLASS
    assert size_class(MIN_SIZE_CLASS + 1) == 2 * MIN_SIZE_CLASS
    assert size_class(100_000) == 1 << 17
    with pytest.raises(ValueError):
        size_class(-1)


def test_lease_reuse_hits_the_pool():
    arena = BufferArena()
    first = arena.lease(10_000)
    buf = first.array
    first.release()
    second = arena.lease(12_000)  # same 16 KiB class
    assert second.array is buf  # the exact buffer came back
    second.release()
    stats = arena.stats()
    assert stats.leases == 2
    assert stats.releases == 2
    assert stats.hits == 1
    assert stats.misses == 1
    assert stats.allocs_avoided == 1
    assert stats.hit_rate == 0.5
    assert stats.outstanding == 0
    assert stats.leaked == 0


def test_lease_view_and_idempotent_release():
    arena = BufferArena()
    lease = arena.lease(DATA.nbytes)
    view = lease.view(DATA.shape, DATA.dtype)
    np.copyto(view, DATA)
    assert view.shape == DATA.shape and view.dtype == DATA.dtype
    np.testing.assert_array_equal(view, DATA)
    with pytest.raises(ValueError):
        lease.view((1 << 20,), np.float64)  # larger than the lease
    lease.release()
    lease.release()  # idempotent: no double-free, books stay exact
    stats = arena.stats()
    assert stats.releases == 1
    assert stats.outstanding == 0


def test_retention_cap_tied_to_pinned_pool():
    pool = PinnedMemoryPool(capacity_bytes=MIN_SIZE_CLASS)
    arena = BufferArena(pool=pool)
    a, b = arena.lease(100), arena.lease(100)
    a.release()
    b.release()  # second buffer exceeds the pool-tied retention cap
    stats = arena.stats()
    assert stats.retained_bytes == MIN_SIZE_CLASS
    assert stats.trimmed_buffers == 1
    # The cap is read live: growing the pool grows the arena with it.
    pool.capacity_bytes = 4 * MIN_SIZE_CLASS
    c, d = arena.lease(100), arena.lease(100)
    c.release()
    d.release()
    assert arena.stats().retained_bytes == 2 * MIN_SIZE_CLASS


def test_trim_drops_free_buffers_only():
    arena = BufferArena()
    held = arena.lease(100)
    batch = [arena.lease(100) for _ in range(3)]
    for lease in batch:
        lease.release()
    assert arena.stats().retained_bytes == 3 * MIN_SIZE_CLASS
    dropped = arena.trim(MIN_SIZE_CLASS)
    assert dropped == 2
    assert arena.stats().retained_bytes == MIN_SIZE_CLASS
    assert arena.stats().outstanding == 1  # the held lease is untouched
    held.release()


def test_concurrent_release_of_one_lease_returns_it_once():
    """release() is advertised as safe without coordination: racing
    releases of the SAME lease must return the buffer exactly once
    (a double return would alias two future leases onto one buffer)."""
    arena = BufferArena()
    for _ in range(50):
        lease = arena.lease(100)
        barrier = threading.Barrier(4)

        def racer():
            barrier.wait()
            lease.release()

        threads = [threading.Thread(target=racer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        a, b = arena.lease(100), arena.lease(100)
        assert a.array is not b.array  # never handed out aliased
        a.release()
        b.release()
    stats = arena.stats()
    assert stats.releases == stats.leases
    assert stats.outstanding == 0
    assert stats.leaked == 0


def test_concurrent_lease_release_no_corruption_no_leaks():
    arena = BufferArena()
    errors = []

    def worker(seed: int) -> None:
        rng = np.random.default_rng(seed)
        try:
            for i in range(200):
                nbytes = int(rng.integers(1, 64 * 1024))
                lease = arena.lease(nbytes)
                view = lease.array[:nbytes]
                view[:] = seed % 251
                if not np.all(view == seed % 251):
                    errors.append(f"corrupted lease in thread {seed}")
                lease.release()
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(repr(exc))

    threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    stats = arena.stats()
    assert stats.leases == stats.releases == 8 * 200
    assert stats.outstanding == 0
    assert stats.leaked == 0


# --------------------------------------------------- streaming writer parity
def test_filestore_streaming_bytes_identical_to_legacy_frame(tmp_path):
    data = np.random.default_rng(3).random((31, 17)).astype(np.float32)
    store = TensorFileStore(tmp_path)
    store.write("t", data)
    written = store.path_for("t").read_bytes()
    # The streaming writer's file IS the reference frame, byte for byte
    # (so a store written before the streaming path existed replays).
    assert written == frame_payload(data.tobytes())
    assert unframe_payload(written, "t") == data.tobytes()
    np.testing.assert_array_equal(store.read("t", data.shape, data.dtype), data)
    # Cross-read: the streaming reader accepts a hand-framed file.
    other = np.random.default_rng(4).random((31, 17)).astype(np.float32)
    store.path_for("u").write_bytes(frame_payload(other.tobytes()))
    np.testing.assert_array_equal(store.read("u", other.shape, other.dtype), other)


def test_filestore_streaming_write_avoids_copies(tmp_path):
    store = TensorFileStore(tmp_path)
    store.write("t", DATA)
    snap = store.copy_stats.snapshot()
    assert snap.copies == 0  # contiguous input: zero Python-level memcpys
    assert snap.allocs_avoided == 2  # tobytes() + header concat
    store.write("t", np.asfortranarray(np.random.random((8, 8))))
    assert store.copy_stats.snapshot().copies == 1  # the contiguity copy
    store.read("t", (8, 8), np.float64)
    assert store.copy_stats.snapshot().allocs_avoided == 5  # reads skip the whole-file slurp


def test_chunkstore_streaming_bytes_identical_to_legacy(tmp_path):
    tensors = {
        f"t{i}": np.random.default_rng(i).random(97 + i).astype(np.float32)
        for i in range(5)
    }
    store = ChunkedTensorStore(tmp_path, chunk_bytes=1 << 20)
    for name, arr in tensors.items():
        store.write(name, arr)
    store.flush()
    # A chunk file is the tensors' raw bytes back to back (checksums live
    # in the index), exactly what per-tensor tobytes() staging produced.
    assert store.path_for("t0").read_bytes() == b"".join(
        arr.tobytes() for arr in tensors.values()
    )
    for name, arr in tensors.items():
        np.testing.assert_array_equal(store.read(name, arr.shape, arr.dtype), arr)
    # Per tensor: no tobytes() staging temp, no ranged-read bytes temp;
    # per flush: no bytes() payload temp.
    assert store.copy_stats.snapshot().allocs_avoided == 2 * len(tensors) + 1


def test_chunkstore_open_chunk_read_is_an_owned_copy(tmp_path):
    store = ChunkedTensorStore(tmp_path, chunk_bytes=1 << 20)
    store.write("t", DATA)
    first = store.read("t", DATA.shape, DATA.dtype)
    # Growing the staging buffer afterwards must neither raise (a live
    # buffer export would make the bytearray unresizable) nor mutate the
    # returned array.
    store.write("u", np.random.random(4096))
    np.testing.assert_array_equal(first, DATA)


# ----------------------------------------------- torn-write read validation
def test_filestore_rejects_torn_file_before_reading_payload(tmp_path):
    store = TensorFileStore(tmp_path)
    store.write("t", DATA)
    path = store.path_for("t")
    raw = path.read_bytes()
    # (a) shorter than the header
    path.write_bytes(raw[: FRAME_HEADER_BYTES - 4])
    with pytest.raises(IntegrityError, match="shorter than the frame header"):
        store.read("t", DATA.shape, DATA.dtype)
    # (b) truncated payload: the header-vs-file-size check fires without
    # any payload bytes being read
    path.write_bytes(raw[: FRAME_HEADER_BYTES + DATA.nbytes // 2])
    with pytest.raises(IntegrityError, match="torn write"):
        store.read("t", DATA.shape, DATA.dtype)
    # (c) intact file, but the caller asks for the wrong size: a
    # deterministic bug, surfaced fail-fast as a NON-retryable
    # ValueError (retrying a correct file cannot help, and the repeats
    # would count against the lane's health for no device fault)
    path.write_bytes(raw)
    with pytest.raises(ValueError, match="caller expected"):
        store.read("t", (DATA.size * 2,), DATA.dtype)
    # (d) trailing garbage beyond the frame
    path.write_bytes(raw + b"junk")
    with pytest.raises(IntegrityError, match="torn write"):
        store.read("t", DATA.shape, DATA.dtype)


def test_filestore_read_is_one_preadv(tmp_path, monkeypatch):
    """The probe byte coming back empty *is* the EOF answer: an intact
    file costs one ``preadv``; only a transfer short by more than the
    probe is resumed (and then told EOF, and rejected as torn)."""
    store = TensorFileStore(tmp_path)
    store.write("t", DATA)
    calls = []
    real_preadv = os.preadv
    monkeypatch.setattr(os, "preadv", lambda *a: calls.append(a) or real_preadv(*a))
    before = store.read_syscalls
    np.testing.assert_array_equal(store.read("t", DATA.shape, DATA.dtype), DATA)
    assert len(calls) == 1 and store.read_syscalls - before == 1
    path = store.path_for("t")
    raw = path.read_bytes()
    path.write_bytes(raw[:-1])  # short by the probe *and* one payload byte
    with pytest.raises(IntegrityError, match="torn write"):
        store.read("t", DATA.shape, DATA.dtype)
    assert len(calls) == 3
    path.write_bytes(raw + b"x")  # oversized: the probe fills, nothing to resume
    with pytest.raises(IntegrityError, match="torn write"):
        store.read("t", DATA.shape, DATA.dtype)
    assert len(calls) == 4


def test_filestore_streaming_detects_bit_rot(tmp_path):
    store = TensorFileStore(tmp_path)
    store.write("t", DATA)
    path = store.path_for("t")
    raw = bytearray(path.read_bytes())
    raw[FRAME_HEADER_BYTES + 13] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(IntegrityError, match="checksum mismatch"):
        store.read("t", DATA.shape, DATA.dtype)


def test_chunkstore_length_checked_before_payload_moves(tmp_path):
    store = ChunkedTensorStore(tmp_path, chunk_bytes=1 << 20)
    store.write("t", DATA)
    # An intact index that disagrees with the caller is a deterministic
    # shape/dtype bug: fail fast, non-retryable, no payload bytes moved.
    with pytest.raises(ValueError, match="caller expects"):
        store.read("t", (DATA.size * 2,), DATA.dtype)  # open chunk
    store.flush()
    with pytest.raises(ValueError, match="caller expects"):
        store.read("t", (DATA.size * 2,), DATA.dtype)  # flushed chunk


# --------------------------------------------------- conditional-copy bugfix
def test_owned_copy_single_copy_both_ways():
    src = np.arange(64, dtype=np.float32)
    same = owned_copy(src, np.float32)
    assert same.dtype == np.float32
    np.testing.assert_array_equal(same, src)
    assert same.base is None and same is not src  # owned, not a view
    converted = owned_copy(src, np.float64)
    assert converted.dtype == np.float64
    np.testing.assert_array_equal(converted, src.astype(np.float64))


def test_cpu_offloader_load_bit_exact_and_owned():
    off = CPUOffloader(PinnedMemoryPool())
    data = np.random.default_rng(5).random(256).astype(np.float32)
    off.store(_tid(1), data)
    for dtype in (np.float32, np.float64):
        pooled = off.load(_tid(1), data.shape, dtype)
        assert pooled.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(pooled, data.astype(dtype))
    # Ownership: mutating the resident buffer must not reach the loaded
    # copy (the GPU-reinstate boundary owns its bytes).
    loaded = off.load(_tid(1), data.shape, np.float32)
    off._residents[_tid(1)].buf[:] = 0.0
    np.testing.assert_array_equal(loaded, data)
    off.shutdown()


# --------------------------------------------------- CPU offloader + arena
def test_cpu_store_reuses_arena_buffers():
    off = CPUOffloader(PinnedMemoryPool())
    off.store(_tid(1), DATA)
    off.evict(_tid(1))
    off.store(_tid(2), DATA * 2)  # same size class: reuse, not realloc
    stats = off.arena.stats()
    assert stats.hits == 1
    assert stats.outstanding == 1
    np.testing.assert_array_equal(off.load(_tid(2), DATA.shape, DATA.dtype), DATA * 2)
    off.shutdown()
    assert off.arena.stats().outstanding == 0


def test_cpu_store_overwrite_releases_old_lease():
    off = CPUOffloader(PinnedMemoryPool())
    off.store(_tid(1), DATA)
    off.store(_tid(1), DATA * 3)
    stats = off.arena.stats()
    assert stats.outstanding == 1  # the overwritten lease went back
    np.testing.assert_array_equal(off.load(_tid(1), DATA.shape, DATA.dtype), DATA * 3)
    off.shutdown()


def test_pool_exhaustion_leaks_no_lease():
    off = CPUOffloader(PinnedMemoryPool(capacity_bytes=DATA.nbytes))
    off.store(_tid(1), DATA)
    with pytest.raises(MemoryError):
        off.store(_tid(2), DATA)
    stats = off.arena.stats()
    assert stats.outstanding == 1  # only the resident tensor's lease
    assert stats.leaked == 0
    off.shutdown()


# ------------------------------------------- tiered demotion lease lifecycle
def _hold_workers(sched: IOScheduler, lane: str = "ssd"):
    """Park every worker of a lane on a gate so submissions stay PENDING.

    Blockers are ``load``-kind: loads never coalesce, so each of the
    lane's workers claims exactly one and parks on the gate.
    """
    n_workers = 4  # workers per lane below
    gate = threading.Event()
    started = threading.Semaphore(0)

    def block():
        started.release()
        gate.wait()

    for _ in range(n_workers):
        sched.submit(
            IORequest(block, kind="load", priority=Priority.BLOCKING_LOAD, lane=lane)
        )
    for _ in range(n_workers):
        assert started.acquire(timeout=5), "lane workers failed to park"
    return gate


@pytest.fixture
def sched():
    scheduler = IOScheduler(workers=4)
    yield scheduler
    scheduler.shutdown()


def test_demotion_transfers_lease_and_releases_on_write(tmp_path, sched):
    off = build_tier(tmp_path, cpu_pool_bytes=2 * DATA.nbytes, scheduler=sched)
    for i in range(4):  # 2 fit, 2 demote
        off.store(_tid(i), DATA + i)
    assert sched.drain(10)
    assert_tier_books(off)
    assert off.stats.demotions == 2
    for i in range(4):
        np.testing.assert_array_equal(
            off.load(_tid(i), DATA.shape, DATA.dtype), DATA + i
        )
    assert sched.drain(10)
    for i in range(4):
        off.release(_tid(i))
    assert sched.drain(10)
    assert off.arena.stats().outstanding == 0
    off.shutdown()
    assert off.arena.stats().leaked == 0


def test_cancelled_demotion_hands_lease_back(tmp_path, sched):
    off = build_tier(tmp_path, cpu_pool_bytes=2 * DATA.nbytes, scheduler=sched)
    gate = _hold_workers(sched)  # demotion writes stay queued
    try:
        for i in range(3):
            off.store(_tid(i), DATA + i)
        # tid 0's spill is queued; releasing it cancels the write and
        # returns the parked lease to the arena.
        assert off.stats.demotions == 1
        off.release(_tid(0))
        assert off.stats.cancelled_demotions == 1
    finally:
        gate.set()
    assert sched.drain(10)
    assert_tier_books(off)
    off.shutdown()
    assert off.arena.stats().leaked == 0


def test_demotion_forward_promotion_adopts_lease_zero_copy(tmp_path, sched):
    off = build_tier(tmp_path, cpu_pool_bytes=2 * DATA.nbytes, scheduler=sched)
    gate = _hold_workers(sched)
    try:
        for i in range(3):
            off.store(_tid(i), DATA + i)
        assert off.stats.demotions == 1
        # Free room, then re-read the queued victim: the parked buffer
        # (and its lease) re-enter the CPU tier without an SSD round trip.
        off.release(_tid(1))
        loaded = off.load(_tid(0), DATA.shape, DATA.dtype)
        np.testing.assert_array_equal(loaded, DATA)
        assert off.stats.promotions == 1
        assert off.stats.cancelled_demotions == 1
        assert off.tier_of(_tid(0)) is Tier.CPU
    finally:
        gate.set()
    assert sched.drain(10)
    assert_tier_books(off)
    off.shutdown()
    assert off.arena.stats().leaked == 0


def test_failed_demotion_reinstates_lease_with_exact_books(tmp_path, sched):
    """PR 4's failover chaos path, re-run under arena accounting: a
    demotion write hitting a dead SSD reinstates the parked buffer (and
    its lease) into the CPU tier — nothing leaks, nothing double-frees."""
    off = build_tier(tmp_path, cpu_pool_bytes=2 * DATA.nbytes, scheduler=sched)
    inject_faults(off, FaultPlan.dead(after_ops=0))
    for i in range(4):
        off.store(_tid(i), DATA + i)
    assert sched.drain(10)
    assert off.ssd_dead
    assert off.stats.failovers >= 1
    assert_tier_books(off)
    for i in range(4):  # every tensor survived, bit-exact, via the pool
        np.testing.assert_array_equal(
            off.load(_tid(i), DATA.shape, DATA.dtype), DATA + i
        )
    off.shutdown()
    stats = off.arena.stats()
    assert stats.outstanding == 0
    assert stats.leaked == 0


# ----------------------------------------------------- property: no leaks
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["store", "load", "release", "restore", "watermark"]),
        st.integers(min_value=0, max_value=7),
    ),
    min_size=1,
    max_size=40,
)


@settings(deadline=None, max_examples=25)
@given(_OPS)
def test_arena_leases_always_reconcile(ops):
    """Random store/load/release/re-store/watermark interleavings over
    the tiered hierarchy: after a drain the arena books must balance —
    ``leased == released + outstanding``, every outstanding lease a live
    resident or parked spill, and shutdown returns everything."""
    import tempfile

    sched = IOScheduler(workers=2)
    with tempfile.TemporaryDirectory() as tmp:
        off = build_tier(tmp, cpu_pool_bytes=3 * DATA.nbytes, scheduler=sched)
        stored = set()
        try:
            for op, i in ops:
                if op in ("store", "restore"):
                    off.store(_tid(i), DATA + i)
                    stored.add(i)
                elif op == "load" and i in stored:
                    np.testing.assert_array_equal(
                        off.load(_tid(i), DATA.shape, DATA.dtype), DATA + i
                    )
                elif op == "release" and i in stored:
                    off.release(_tid(i))
                    stored.discard(i)
                elif op == "watermark":
                    off.set_free_watermark(2 * DATA.nbytes)
                    off.apply_watermark()
            assert sched.drain(10)
            assert_tier_books(off)
            off.shutdown()
            stats = off.arena.stats()
            assert stats.outstanding == 0
            assert stats.leaked == 0
        finally:
            sched.shutdown()
