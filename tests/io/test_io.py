"""Tests for the async I/O substrate: jobs on a lane, file store, GDS paths."""

import errno
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.device.pcie import GPU_LINK_GEN4_X16
from repro.device.ssd import INTEL_OPTANE_P5800X_1600GB, RAID0Array
from repro.io import (
    BounceBufferPath,
    ChunkedTensorStore,
    DirectGDSPath,
    IORequest,
    IOScheduler,
    Priority,
    TensorFileStore,
)
from repro.io import aio
from repro.io.aio import JobState
from tests.conftest import free_file_names


# ------------------------------------------------- IOJob on a scheduler lane
# The paper's two FIFO pools became IOScheduler lanes; these pin down the
# IOJob contract (result, error capture, callbacks, closure drop) and the
# lane's pending/drain/shutdown books as a plain submitter sees them.
def _sched(**kwargs) -> IOScheduler:
    return IOScheduler(
        workers=2, lanes=("ssd",), **kwargs
    )


def _submit(sched: IOScheduler, fn) -> IORequest:
    return sched.submit(IORequest(fn, kind="store", priority=Priority.STORE))


def test_pool_executes_jobs():
    sched = _sched()
    job = _submit(sched, lambda: 42)
    assert job.wait(5)
    assert job.result == 42
    assert job.state is JobState.DONE
    sched.shutdown()


def test_pool_fifo_order_single_worker():
    """``fifo=True`` with one free worker executes in strict submission
    order (the paper's single-queue pool)."""
    sched = _sched(fifo=True, coalesce_bytes=0)
    release = threading.Event()
    held = threading.Event()

    def hold():
        held.set()
        release.wait(5)

    _submit(sched, hold)  # parks one of the lane's two workers
    assert held.wait(5)
    order = []
    jobs = [_submit(sched, lambda i=i: order.append(i)) for i in range(20)]
    # Release the parked worker only once the free one has run all 20,
    # so two workers never execute concurrently.
    assert jobs[-1].wait(5)
    release.set()
    assert sched.drain(5)
    assert order == list(range(20))
    sched.shutdown()


def test_pool_error_captured_not_raised():
    sched = _sched()

    def boom():
        raise ValueError("io error")

    job = _submit(sched, boom)
    job.wait(5)
    assert job.state is JobState.FAILED
    assert isinstance(job.error, ValueError)
    sched.shutdown()


def test_pool_done_callback_fires():
    sched = _sched()
    fired = threading.Event()
    release = threading.Event()
    job = _submit(sched, release.wait)
    job.add_done_callback(lambda j: fired.set())
    release.set()
    assert fired.wait(5)
    sched.shutdown()


def test_pool_done_callback_after_completion_runs_immediately():
    sched = _sched()
    job = _submit(sched, lambda: 1)
    job.wait(5)
    fired = []
    job.add_done_callback(lambda j: fired.append(1))
    assert fired == [1]
    sched.shutdown()


def test_pool_drops_closure_after_run():
    """The job must not pin the stored tensor after completion (GPU memory
    is reclaimed by refcount once the store finishes)."""
    sched = _sched()
    job = _submit(sched, lambda: None)
    job.wait(5)
    assert job.fn is None
    sched.shutdown()


def test_pool_pending_and_drain():
    sched = _sched(coalesce_bytes=0)
    release = threading.Event()
    _submit(sched, release.wait)
    _submit(sched, release.wait)
    _submit(sched, lambda: 1)  # both workers are held: this one queues
    assert sched.pending() == 3
    assert not sched.drain(0.01)
    release.set()
    assert sched.drain(5)
    assert sched.pending() == 0
    sched.shutdown()


def test_pool_shutdown_rejects_new_work():
    """A submission refused at shutdown leaves every book untouched."""
    sched = _sched()
    _submit(sched, lambda: 1)
    sched.shutdown()
    late = IORequest(lambda: 1, kind="store", priority=Priority.STORE, nbytes=64)
    with pytest.raises(RuntimeError):
        sched.submit(late)
    assert late.state is JobState.PENDING  # never enqueued, never run
    assert sched.stats.submitted == sched.stats.executed == 1
    books = sched.tenants.stats_of("default")
    assert books.submitted == 1 and books.submitted_bytes == 0


def test_pool_validation():
    with pytest.raises(ValueError):
        _sched(retry_backoff_s=-1.0)
    with pytest.raises(ValueError):
        IOScheduler(workers=-1)


# ------------------------------------------------- the lazy completion event
# ``done_event`` builds its threading.Event only for a thread that waits
# before the job is terminal.  Each test parks a waiter inside that Event's
# wait (an Event whose wait() says so first), then takes one terminal path
# and checks the waiter wakes.
class _ParkedWaiter:
    """A thread blocked in ``job.wait``; ``parked`` is set from inside the
    lazily built Event's wait, so the job is not yet terminal then."""

    def __init__(self, monkeypatch, job) -> None:
        parked = self.parked = threading.Event()

        class _SaysWhenWaiting(threading.Event):
            def wait(self, timeout=None):
                parked.set()
                return super().wait(timeout)

        # Only the job module's view of ``threading`` changes.
        monkeypatch.setattr(aio, "threading", SimpleNamespace(Event=_SaysWhenWaiting))
        self.job, self.woke = job, []
        self.thread = threading.Thread(target=lambda: self.woke.append(job.wait(10)))
        self.thread.start()
        assert parked.wait(10), "the waiter never reached the Event"
        monkeypatch.undo()

    def assert_woken(self) -> None:
        self.thread.join(10)
        assert not self.thread.is_alive() and self.woke == [True]
        assert self.job.done_event.is_set()


def test_a_parked_waiter_wakes_on_complete(monkeypatch):
    job = aio.IOJob(lambda: 7)
    assert job.claim()
    waiter = _ParkedWaiter(monkeypatch, job)
    job.complete(*job.run_body())
    waiter.assert_woken()
    assert (job.state, job.result) == (JobState.DONE, 7)


def test_a_parked_waiter_wakes_on_cancel(monkeypatch):
    job = aio.IOJob(lambda: 7)
    waiter = _ParkedWaiter(monkeypatch, job)
    assert job.cancel()
    waiter.assert_woken()
    assert job.state is JobState.CANCELLED


def test_a_parked_waiter_wakes_on_a_failed_complete(monkeypatch):
    def wedged():
        raise TimeoutError("wedged")

    job = aio.IOJob(wedged)
    assert job.claim()
    waiter = _ParkedWaiter(monkeypatch, job)
    job.complete(*job.run_body())
    waiter.assert_woken()
    assert job.state is JobState.FAILED
    assert job.result is None and isinstance(job.error, TimeoutError)


def test_a_parked_waiter_wakes_when_settling_cannot_complete(monkeypatch):
    """The settle loop's last resort: ``complete`` raises every time, so
    the request is failed and its event set directly."""
    sched = IOScheduler(workers=0, lanes=("ssd",))
    request = IORequest(lambda: 7, kind="load", priority=Priority.BLOCKING_LOAD, nbytes=8)
    waiter = _ParkedWaiter(monkeypatch, request)

    def broken(result, error):
        raise RuntimeError("settle bug")

    request.complete = broken
    sched.run_inline(request)
    waiter.assert_woken()
    assert request.state is JobState.FAILED
    assert "left non-terminal" in str(request.error)
    # The books stay open (complete never ran): close them so shutdown drains.
    sched._close_books(request)
    sched.shutdown()
    assert sched.stats.failed == 1


def test_waiting_on_a_finished_job_builds_no_event():
    job = aio.IOJob(lambda: 7)
    job.run()
    assert job.wait() and job.wait(0) and job.done_event.is_set()
    assert job.done_event._event is None
    pending = aio.IOJob(lambda: 7)
    assert not pending.wait(0)  # a waiter that gives up still built one
    assert pending.done_event._event is not None


# --------------------------------------------------------------- TensorFileStore
def test_filestore_roundtrip(tmp_path):
    store = TensorFileStore(tmp_path)
    data = np.random.default_rng(0).standard_normal((4, 5)).astype(np.float32)
    store.write("t1", data)
    back = store.read("t1", (4, 5), np.float32)
    assert np.array_equal(back, data)


def test_filestore_roundtrip_fp16(tmp_path):
    store = TensorFileStore(tmp_path)
    data = np.ones((8,), dtype=np.float16)
    store.write("t2", data)
    assert store.read("t2", (8,), np.float16).dtype == np.float16


def test_filestore_missing_tensor(tmp_path):
    store = TensorFileStore(tmp_path)
    with pytest.raises(FileNotFoundError):
        store.read("nope", (1,), np.float32)


def test_filestore_stats(tmp_path):
    store = TensorFileStore(tmp_path)
    data = np.zeros(16, dtype=np.float32)
    store.write("a", data)
    store.read("a", (16,), np.float32)
    assert store.bytes_written == 64
    assert store.bytes_read == 64
    assert store.write_count == store.read_count == 1
    store.reset_stats()
    assert store.bytes_written == 0


def test_filestore_throttle_slows_io(tmp_path):
    data = np.zeros(25000, dtype=np.float32)  # 100 KB
    slow = TensorFileStore(tmp_path / "slow", throttle_bytes_per_s=1e6)
    start = time.monotonic()
    slow.write("x", data)
    assert time.monotonic() - start >= 0.09


def test_filestore_delete_and_clear(tmp_path):
    store = TensorFileStore(tmp_path)
    store.write("a", np.zeros(4, dtype=np.float32))
    store.write("b", np.zeros(4, dtype=np.float32))
    a_file = store.path_for("a")
    store.delete("a")
    store.delete("a")  # idempotent
    assert store.path_for("a") is None
    with pytest.raises(FileNotFoundError):
        store.read("a", (4,), np.float32)
    assert free_file_names(store) == {a_file.name} and a_file.exists()  # kept for reuse
    store.write("c", np.ones(4, dtype=np.float32))
    assert store.path_for("c") == a_file and free_file_names(store) == set()
    store.clear()
    assert store.path_for("b") is None and list(tmp_path.iterdir()) == []


# ----------------------------------------------------------- ChunkedTensorStore
CHUNK = 4096
ELEMS = 256  # 1 KiB float32 => 4 tensors per chunk


def _tensor(i):
    return np.random.default_rng(i).standard_normal(ELEMS).astype(np.float32)


def _fill(store, n):
    for i in range(n):
        store.write(f"t{i}_{ELEMS}", _tensor(i))
    store.flush()


def test_chunkstore_roundtrip(tmp_path):
    store = ChunkedTensorStore(tmp_path, chunk_bytes=256)
    data = np.random.default_rng(0).standard_normal((4, 5)).astype(np.float32)
    store.write("t1", data)
    assert np.array_equal(store.read("t1", (4, 5), np.float32), data)


def test_chunkstore_serves_open_chunk_from_memory(tmp_path):
    store = ChunkedTensorStore(tmp_path, chunk_bytes=1 << 20)
    data = np.arange(8, dtype=np.float16)
    store.write("t1", data)
    # Nothing flushed yet: zero physical writes, read still succeeds.
    assert store.write_count == 0
    assert store.num_chunks == 0
    back = store.read("t1", (8,), np.float16)
    assert back.dtype == np.float16 and np.array_equal(back, data)


def test_chunkstore_coalesces_many_small_writes(tmp_path):
    store = ChunkedTensorStore(tmp_path, chunk_bytes=1024)
    data = np.zeros(64, dtype=np.float32)  # 256 B each, 4 per chunk
    for i in range(16):
        store.write(f"t{i}", data)
    assert store.write_count == 4  # 16 tensors -> 4 chunk files
    assert store.bytes_written == 16 * 256
    for i in range(16):
        assert np.array_equal(store.read(f"t{i}", (64,), np.float32), data)


def test_chunkstore_oversized_tensor_flushes_immediately(tmp_path):
    store = ChunkedTensorStore(tmp_path, chunk_bytes=128)
    big = np.arange(256, dtype=np.float32)  # 1 KiB > chunk_bytes
    store.write("big", big)
    assert store.write_count == 1
    assert np.array_equal(store.read("big", (256,), np.float32), big)


def test_chunkstore_refcount_reclaims_chunk(tmp_path):
    store = ChunkedTensorStore(tmp_path, chunk_bytes=512)
    data = np.zeros(64, dtype=np.float32)  # 256 B: two tensors fill a chunk
    store.write("a", data)
    store.write("b", data)
    assert store.num_chunks == 1
    chunk_path = store.path_for("a")
    assert chunk_path.exists()
    store.delete("a")
    assert store.path_for("b") == chunk_path  # "b" still pins the chunk
    assert store.reclaimed_bytes == 0
    store.delete("b")
    # Refcount hit zero: space reclaimed, the file kept for the next chunk.
    assert store.reclaimed_bytes == 512
    assert store.num_chunks == 0 and store.path_for("b") is None
    with pytest.raises(FileNotFoundError):
        store.read("b", (64,), np.float32)
    store.delete("b")  # idempotent
    opens = store.fds.opens
    store.write("c", data + 1)
    store.write("d", data + 2)  # the next chunk rewrites the file in place
    assert store.path_for("c") == chunk_path and store.fds.opens == opens
    assert chunk_path.read_bytes() == (data + 1).tobytes() + (data + 2).tobytes()
    assert [p.name for p in tmp_path.iterdir()] == [chunk_path.name]


def test_chunkstore_delete_open_entry_never_writes(tmp_path):
    store = ChunkedTensorStore(tmp_path, chunk_bytes=1 << 20)
    store.write("a", np.zeros(4, dtype=np.float32))
    store.delete("a")
    store.flush()
    assert store.write_count == 0
    assert list(tmp_path.glob("*.bin")) == []


def test_chunkstore_dead_bytes_accounting(tmp_path):
    store = ChunkedTensorStore(tmp_path, chunk_bytes=512)
    data = np.zeros(64, dtype=np.float32)  # 256 B
    store.write("a", data)
    store.write("b", data)  # flushes a 512 B chunk
    store.write("c", data)  # open chunk
    assert store.dead_bytes == 0
    store.delete("a")  # hole inside the live flushed chunk
    assert store.dead_bytes == 256
    store.delete("c")  # open-chunk hole -> buffer dropped entirely
    assert store.dead_bytes == 256
    store.delete("b")  # chunk refcount 0 -> file reclaimed, hole gone
    assert store.dead_bytes == 0
    assert store.reclaimed_bytes == 512


def test_chunkstore_overwrite_replaces_bytes(tmp_path):
    store = ChunkedTensorStore(tmp_path, chunk_bytes=256)
    store.write("a", np.zeros(64, dtype=np.float32))
    store.write("a", np.ones(64, dtype=np.float32))
    assert store.read("a", (64,), np.float32)[0] == 1.0


def test_chunkstore_missing_tensor(tmp_path):
    store = ChunkedTensorStore(tmp_path)
    with pytest.raises(FileNotFoundError):
        store.read("nope", (1,), np.float32)


def test_chunkstore_clear_removes_chunks(tmp_path):
    store = ChunkedTensorStore(tmp_path, chunk_bytes=128)
    for i in range(4):
        store.write(f"t{i}", np.zeros(64, dtype=np.float32))
    assert store.num_chunks > 0
    store.clear()
    assert store.num_chunks == 0
    assert list(tmp_path.glob("*.bin")) == []


def test_chunkstore_validation(tmp_path):
    with pytest.raises(ValueError):
        ChunkedTensorStore(tmp_path, chunk_bytes=0)
    with pytest.raises(ValueError):
        ChunkedTensorStore(tmp_path, throttle_bytes_per_s=0)


def test_chunkstore_close_is_idempotent_and_keeps_data(tmp_path):
    store = ChunkedTensorStore(tmp_path, chunk_bytes=CHUNK)
    _fill(store, 4)
    store.close()
    store.close()
    assert list(tmp_path.glob("chunk*.bin"))


def test_chunkstore_leaves_no_files_after_clear(tmp_path):
    """Scratch space: the store writes nothing but chunk files, and
    ``clear`` (what shutdown calls) removes them all."""
    store = ChunkedTensorStore(tmp_path, chunk_bytes=CHUNK)
    _fill(store, 6)  # a full chunk and a half-full one, both flushed
    store.close()
    assert {p.name for p in tmp_path.iterdir()} == {"chunk0.bin", "chunk1.bin"}
    store.clear()
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------------ file recycling
def test_delete_then_read_misses_and_keeps_the_descriptor_for_reuse(tmp_path):
    """A chunk reclaimed at refcount zero keeps its file and descriptor:
    its tensors miss, and the next chunk is written through the same
    descriptor — no open, no close, no unlink."""
    store = ChunkedTensorStore(tmp_path, chunk_bytes=CHUNK)
    _fill(store, 4)  # exactly one flushed chunk
    path = store.path_for(f"t0_{ELEMS}")
    store.read(f"t0_{ELEMS}", (ELEMS,), np.float32)
    assert len(store.fds) == 1  # the flush's descriptor served the read
    for i in range(4):
        store.delete(f"t{i}_{ELEMS}")  # refcount 0 -> recycled
    assert path.exists() and len(store.fds) == 1
    with pytest.raises(FileNotFoundError):
        store.read(f"t0_{ELEMS}", (ELEMS,), np.float32)
    _fill(store, 4)
    assert store.path_for(f"t0_{ELEMS}") == path
    assert (store.fds.opens, store.fds.closes) == (1, 0)
    assert np.array_equal(store.read(f"t3_{ELEMS}", (ELEMS,), np.float32), _tensor(3))
    store.clear()


@pytest.mark.parametrize("kind", ["file", "chunk"])
def test_a_late_reader_never_gets_the_next_tensors_bytes(tmp_path, kind, monkeypatch):
    """The reader has found its tensor's file and borrowed the
    descriptor, then stalls; meanwhile the tensor is released and a
    same-size tensor written.  The writer must not take the borrowed
    file (a file store's frame crc sits in the file, so a same-size
    rewrite would pass every check): the reader gets its own bytes and
    the new tensor lands in another file, and once the reader is done
    the released file is recycled."""
    import repro.io.chunkstore as chunk_module
    import repro.io.filestore as file_module

    module = chunk_module if kind == "chunk" else file_module
    if kind == "chunk":
        store = ChunkedTensorStore(tmp_path, chunk_bytes=ELEMS * 4)  # a chunk per tensor
    else:
        store = TensorFileStore(tmp_path)
    store.write("a", _tensor(1))
    store.flush()
    a_file = store.path_for("a")
    in_read, resume = threading.Event(), threading.Event()
    real_preadv = module.preadv_full

    def stalled_preadv(*args, **kwargs):
        in_read.set()
        assert resume.wait(10)
        return real_preadv(*args, **kwargs)

    monkeypatch.setattr(module, "preadv_full", stalled_preadv)
    got = {}

    def late_reader():
        try:
            got["a"] = store.read("a", (ELEMS,), np.float32)
        except Exception as exc:  # reported by the asserts below
            got["a"] = exc

    reader = threading.Thread(target=late_reader)
    reader.start()
    try:
        assert in_read.wait(10)
        monkeypatch.setattr(module, "preadv_full", real_preadv)
        store.delete("a")
        store.write("b", _tensor(2))  # same size as "a"
        store.flush()
    finally:
        resume.set()
        reader.join(10)
    assert not reader.is_alive()
    assert isinstance(got["a"], np.ndarray), got["a"]
    assert np.array_equal(got["a"], _tensor(1)), "the late reader got another tensor's bytes"
    assert store.path_for("b") != a_file
    store.write("c", _tensor(3))  # the reader is gone: its file is free again
    store.flush()
    assert store.path_for("c") == a_file
    assert np.array_equal(store.read("c", (ELEMS,), np.float32), _tensor(3))
    assert np.array_equal(store.read("b", (ELEMS,), np.float32), _tensor(2))
    assert len(list(tmp_path.iterdir())) == 2  # never more files than peak live tensors
    store.clear()
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------------- write-leveling
def test_write_leveling_spreads_chunks_across_roots(tmp_path):
    roots = [tmp_path / "nvme1", tmp_path / "nvme2"]
    store = ChunkedTensorStore(tmp_path / "nvme0", chunk_bytes=CHUNK, roots=roots)
    _fill(store, 24)  # 6 chunks across 3 equal roots
    per_root = store.root_bytes_written
    assert len(per_root) == 3 and all(b > 0 for b in per_root)
    assert max(per_root) - min(per_root) <= CHUNK  # leveled within one chunk
    # Every tensor reads back from whichever root its chunk landed on.
    for i in range(24):
        assert np.array_equal(store.read(f"t{i}_{ELEMS}", (ELEMS,), np.float32), _tensor(i))
    for root in [tmp_path / "nvme0", *roots]:
        assert list(root.glob("chunk*.bin"))
    store.clear()


def test_single_root_layout_unchanged_by_leveling(tmp_path):
    """Ties break to root 0: without extra roots (or with the primary
    named again) chunks are numbered in flush order, each file holding
    its tensors back to back in write order."""
    for name, roots in (("a", None), ("b", [tmp_path / "b"])):
        store = ChunkedTensorStore(tmp_path / name, chunk_bytes=CHUNK, roots=roots)
        _fill(store, 8)
        assert sorted(p.name for p in (tmp_path / name).iterdir()) == ["chunk0.bin", "chunk1.bin"]
        for chunk in range(2):
            expected = b"".join(_tensor(4 * chunk + i).tobytes() for i in range(4))
            assert (tmp_path / name / f"chunk{chunk}.bin").read_bytes() == expected
        store.clear()


def _live_chunk_bytes(store, root_index):
    """Bytes of the live chunks on one root (the gate runs under the store's lock)."""
    return sum(m.total_bytes for m in store._chunks.values() if m.root_index == root_index)


def test_a_full_root_is_written_again_once_its_chunks_are_reclaimed(tmp_path):
    """Root 0 refuses writes past 8 KiB of live chunks.  Every tensor is
    deleted at step end, so the root empties each step: it must leave the
    full set then, and write-leveling must keep placing chunks on it."""
    root0, root1 = tmp_path / "nvme0", tmp_path / "nvme1"
    store = ChunkedTensorStore(root0, chunk_bytes=CHUNK, roots=[root1])

    def gate(root_index, nbytes):
        if root_index == 0 and _live_chunk_bytes(store, 0) + nbytes > 2 * CHUNK:
            raise OSError(errno.ENOSPC, "injected: root 0 full")

    store.fault_gate = gate
    data = np.ones(CHUNK // 4, dtype=np.float32)  # one chunk per tensor
    written = []
    for step in range(4):
        for i in range(6):
            store.write(f"s{step}_t{i}", data)
        for i in range(6):
            store.delete(f"s{step}_t{i}")
        with store.fds.lock:
            assert _live_chunk_bytes(store, 0) == 0
        assert store.full_roots == (), f"step {step}: root 0 is empty but still marked full"
        written.append(store.root_bytes_written[0])
    assert store.enospc_root_skips >= 4  # the gate bit every step
    assert all(later > earlier for earlier, later in zip(written, written[1:])), written
    store.clear()


# A paced chunk store models a slow device, not a slow index: the flush's
# pacing sleep happens after the store lock is released.
PACED_CHUNK_BYTES = 64 << 10
PACING_S = 0.4  # one chunk at the modelled bandwidth


def _paced_store(root) -> ChunkedTensorStore:
    return ChunkedTensorStore(
        root, chunk_bytes=PACED_CHUNK_BYTES, throttle_bytes_per_s=PACED_CHUNK_BYTES / PACING_S
    )


def test_paced_chunk_store_serves_reads_while_a_flush_paces(tmp_path):
    store = _paced_store(tmp_path)
    early = np.arange(16, dtype=np.float32)
    store.write("early", early)
    store.flush()  # 64 bytes: paces for a fraction of a millisecond
    chunk = np.ones(PACED_CHUNK_BYTES // 4, dtype=np.float32)
    writer = threading.Thread(target=store.write, args=("chunk", chunk))
    writer.start()
    deadline = time.monotonic() + 5
    while store.write_count < 2 and time.monotonic() < deadline:
        time.sleep(0.001)  # until the chunk's flush has published its index
    start = time.monotonic()
    assert np.array_equal(store.read("early", early.shape, early.dtype), early)
    elapsed = time.monotonic() - start
    still_pacing = writer.is_alive()
    writer.join()
    assert still_pacing, "the flush stopped pacing before the read was tried"
    assert elapsed < PACING_S / 2, f"read waited {elapsed:.3f}s behind a pacing flush"
    store.clear()


def test_paced_chunk_store_overlaps_the_pacing_of_concurrent_flushes(tmp_path):
    store = _paced_store(tmp_path)
    chunk = np.ones(PACED_CHUNK_BYTES // 4, dtype=np.float32)
    writers = [
        threading.Thread(target=store.write, args=(f"chunk{i}", chunk)) for i in range(2)
    ]
    start = time.monotonic()
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join()
    elapsed = time.monotonic() - start
    assert store.write_count == 2 and store.bytes_written == 2 * PACED_CHUNK_BYTES
    # Each write still takes its own pacing; the two sleeps overlap.
    assert PACING_S <= elapsed < 1.6 * PACING_S, f"two flushes took {elapsed:.3f}s"
    store.clear()


# ------------------------------------------------------------------------- GDS
def test_direct_path_bounded_by_slower_hop():
    array = RAID0Array(INTEL_OPTANE_P5800X_1600GB, num_ssds=4)
    path = DirectGDSPath(GPU_LINK_GEN4_X16, array)
    assert path.write_bandwidth() == pytest.approx(
        min(GPU_LINK_GEN4_X16.bandwidth, array.write_bw)
    )
    assert path.write_time(0) == 0.0
    assert path.read_time(10**9) > 0


def test_bounce_path_slower_than_direct():
    """The motivation for GDS: the CPU bounce buffer path loses bandwidth."""
    array = RAID0Array(INTEL_OPTANE_P5800X_1600GB, num_ssds=4)
    direct = DirectGDSPath(GPU_LINK_GEN4_X16, array)
    bounce = BounceBufferPath(GPU_LINK_GEN4_X16, array, host_contention=0.6)
    assert bounce.write_bandwidth() < direct.write_bandwidth()
    assert bounce.write_time(10**9) > direct.write_time(10**9)


def test_bounce_serialized_worse_than_double_buffered():
    array = RAID0Array(INTEL_OPTANE_P5800X_1600GB, num_ssds=4)
    buffered = BounceBufferPath(GPU_LINK_GEN4_X16, array, double_buffered=True)
    serialized = BounceBufferPath(GPU_LINK_GEN4_X16, array, double_buffered=False)
    assert serialized.write_bandwidth() < buffered.write_bandwidth()


def test_bounce_validation():
    array = RAID0Array(INTEL_OPTANE_P5800X_1600GB, num_ssds=1)
    with pytest.raises(ValueError):
        BounceBufferPath(GPU_LINK_GEN4_X16, array, host_contention=0.0)
