"""Tests for the I/O plane below the scheduler, bottom-up.

The vectored-syscall helpers, the stores' LRU FD table (borrow /
deferred close, O_DIRECT grant/fallback/demotion, leak-freedom), the one
positioned-I/O path of both stores (bit-identical files, the torn-write
/ oversize / mismatch / bit-rot taxonomy, buffered and ``O_DIRECT``),
the reaper backend under a live scheduler (books reconcile, reap lag
recorded), backend equivalence on real training (losses, syscalls,
bytes and files identical across thread/uring/gds-sim), and chaos on
the uring backend (seeded transient faults heal to bit-exact results;
whole-batch failures leave every worker alive).
"""

import gc
import mmap
import os
import sys
import threading

import numpy as np
import pytest

from repro.core import (
    EngineConfig,
    EngineConfigError,
    OffloadPolicy,
    PolicyConfig,
    build_engine,
)
from repro.data import SyntheticCorpus, TokenBatchLoader
from repro.device import GPU
from repro.io import (
    ChunkedTensorStore,
    FDTable,
    GDSRegistry,
    IORequest,
    IOScheduler,
    Priority,
    TensorFileStore,
    UringBackend,
)
from repro.io.aio import syscall_tape
from repro.io.errors import IntegrityError
from repro.io.faults import FaultPlan, inject_faults
from repro.io.fdtable import preadv_full, pwritev_full
from repro.io.filestore import FRAME_HEADER_BYTES, frame_payload
from repro.models import GPT, ModelConfig
from repro.optim import SGD
from repro.train import PlacementStrategy, Trainer


# ------------------------------------------------------------ vectored helpers
def test_pwritev_preadv_roundtrip(tmp_path):
    path = str(tmp_path / "v.bin")
    fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        head = b"header--"
        body = np.arange(64, dtype=np.float32)
        assert pwritev_full(fd, [head, body]) == len(head) + body.nbytes
        back_head = bytearray(len(head))
        back_body = np.empty_like(body)
        got = preadv_full(fd, [back_head, memoryview(back_body)])
        assert got == len(head) + body.nbytes
        assert bytes(back_head) == head
        assert np.array_equal(back_body, body)
        # EOF shortfall: the probe buffer stays unfilled, got reports it.
        probe = bytearray(4)
        assert preadv_full(fd, [probe], offset=got) == 0
    finally:
        os.close(fd)


def test_vectored_helpers_count_syscalls(tmp_path):
    fd = os.open(str(tmp_path / "t.bin"), os.O_RDWR | os.O_CREAT, 0o644)
    try:
        tape = syscall_tape()
        with tape:
            pwritev_full(fd, [b"abc", b"def"])
            preadv_full(fd, [bytearray(6)])
        # One pwritev + one preadv in the common (no-short-I/O) case.
        assert tape.count == 2
    finally:
        os.close(fd)


# ------------------------------------------------------------------- FD table
def test_fdtable_caches_descriptors(tmp_path):
    table = FDTable(max_open=8)
    path = str(tmp_path / "a.bin")
    with table.borrow_write(path) as (fd, direct, cached):
        assert not direct and not cached
        os.write(fd, b"x")
    with table.borrow_write(path) as (fd2, _, cached2):
        assert fd2 == fd and cached2
    with table.borrow_read(path) as rfd:
        assert rfd == fd  # buffered entry is shared
    assert table.opens == 1
    table.close_all()
    assert len(table) == 0
    assert table.closes == 1


def test_fdtable_lru_eviction(tmp_path):
    table = FDTable(max_open=2)
    paths = [str(tmp_path / f"{i}.bin") for i in range(3)]
    for p in paths:
        with table.borrow_write(p):
            pass
    assert len(table) == 2
    assert table.closes == 1  # paths[0] evicted (least recently used)
    # The evicted path transparently reopens (O_TRUNC: fresh file).
    with table.borrow_write(paths[0]) as (_, _, cached):
        assert not cached
    assert table.opens == 4
    table.close_all()


def test_fdtable_invalidate_forgets_deleted_paths(tmp_path):
    table = FDTable()
    path = str(tmp_path / "gone.bin")
    with table.borrow_write(path):
        pass
    os.unlink(path)
    table.invalidate(path)
    with pytest.raises(FileNotFoundError):
        with table.borrow_read(path):
            pass
    table.invalidate(path)  # idempotent on unknown paths
    table.close_all()


def _is_open(fd):
    try:
        os.fstat(fd)
    except OSError:
        return False
    return True


def test_fdtable_closes_a_deleted_files_descriptor_at_the_next_create(tmp_path):
    """A deleted file's pages must be freed right before the next file's
    first write, not at delete time (docs/architecture.md section 10)."""
    table = FDTable()
    paths = [str(tmp_path / f"dead{i}.bin") for i in range(3)]
    fds = []
    for i, path in enumerate(paths):
        with table.borrow_write(path) as (fd, _, _):
            os.write(fd, b"abc"[i : i + 1])
            fds.append(fd)
    for path in paths:
        os.unlink(path)
        table.invalidate(path)
    # Forgotten by the table, the names gone, the descriptors still open.
    assert len(table) == 0 and table.closes == 0 and list(tmp_path.iterdir()) == []
    assert [os.pread(fd, 1, 0) for fd in fds] == [b"a", b"b", b"c"]
    live = str(tmp_path / "live.bin")
    with table.borrow_write(live):  # a create: closes the oldest, and only it
        assert table.closes == 1
        assert [os.pread(fd, 1, 0) for fd in fds[1:]] == [b"b", b"c"]
    with table.borrow_read(live):  # not a create: closes nothing
        pass
    with table.borrow_write(live):  # cached descriptor, no open at all
        pass
    assert table.closes == 1
    table.close_all()
    assert table.opens == table.closes == 4 and not any(_is_open(fd) for fd in fds)


def test_fdtable_holds_a_bounded_number_of_deleted_descriptors(tmp_path, monkeypatch):
    monkeypatch.setattr("repro.io.fdtable.LIMBO_FDS", 2)
    gc.collect()
    before = _open_fds()
    table = FDTable()
    paths = [str(tmp_path / f"{i}.bin") for i in range(5)]
    for path in paths:
        with table.borrow_write(path):
            pass
    for path in paths:  # a step end: every file dies, none is born
        os.unlink(path)
        table.invalidate(path)
    # Past the bound the oldest is closed at once.
    assert (table.opens, table.closes) == (5, 3) and _open_fds() == before + 2
    del table
    gc.collect()  # a dropped table closes the waiting descriptors too
    assert _open_fds() == before


def test_fdtable_read_demotes_direct_descriptors(tmp_path):
    if not hasattr(os, "O_DIRECT"):
        pytest.skip("platform has no O_DIRECT")
    table = FDTable()
    path = str(tmp_path / "d.bin")
    with table.borrow_write(path, direct=True) as (fd, direct, cached):
        if not direct:
            # Refused at open: the caller sees a fresh buffered descriptor.
            assert not cached and table.opens == 1
            pytest.skip("filesystem refused O_DIRECT")
        # O_DIRECT demands an aligned source; an anonymous mmap page is.
        os.pwrite(fd, mmap.mmap(-1, 4096), 0)
    # Loads need a buffered descriptor (unaligned destination arrays):
    # the direct entry is closed and replaced by a fresh buffered open.
    with table.borrow_read(path) as rfd:
        assert (table.opens, table.closes) == (2, 1)
        assert os.pread(rfd, 4, 0) == b"\0" * 4
    # And the buffered entry replaced the direct one in the table.
    with table.borrow_write(path, direct=True) as borrowed:
        assert borrowed == (rfd, False, True)
    table.close_all()


def test_fdtable_validation():
    with pytest.raises(ValueError):
        FDTable(max_open=0)


@pytest.mark.parametrize("drop", ["evict", "invalidate"])
def test_borrowed_descriptor_outlives_eviction_and_invalidate(tmp_path, drop):
    """Descriptors are borrowed, not handed out: one dropped from the
    table mid-transfer is closed only when its borrower returns, so the
    fd number cannot be reused under the transfer and the bytes cannot
    land in another tensor's file."""
    table = FDTable(max_open=1)
    p, q, r = (str(tmp_path / f"{n}.bin") for n in "pqr")
    borrowed, resume = threading.Event(), threading.Event()
    errors = []

    def transfer():  # thread A: a two-part transfer into P
        try:
            with table.borrow_write(p) as (fd, _, _):
                pwritev_full(fd, [b"first-"])
                borrowed.set()
                assert resume.wait(10)
                pwritev_full(fd, [b"second"], offset=6)
        except BaseException as exc:
            errors.append(exc)

    a = threading.Thread(target=transfer)
    a.start()
    assert borrowed.wait(10)
    # Thread B, while A is mid-transfer: drop P from the table, then open
    # more files — a closed fd number would be handed to one of them.
    if drop == "evict":
        with table.borrow_write(q) as (qfd, _, _):
            pwritev_full(qfd, [b"Q"])
    else:
        table.invalidate(p)
    assert table.closes == 0, "P's close must wait for its borrower"
    with table.borrow_write(q) as (qfd, _, _):
        pwritev_full(qfd, [b"Q"])
    with table.borrow_write(r) as (rfd, _, _):
        pwritev_full(rfd, [b"R"])
    resume.set()
    a.join(10)
    assert not a.is_alive() and not errors
    assert (tmp_path / "p.bin").read_bytes() == b"first-second"
    assert (tmp_path / "q.bin").read_bytes() == b"Q"
    assert (tmp_path / "r.bin").read_bytes() == b"R"
    # The deferred close happened when A returned; nothing leaked.
    table.close_all()
    assert table.opens == table.closes


def test_fdtable_thrash_never_crosses_files(tmp_path):
    """Stress: more workers than cores over a table far smaller than the
    working set.  Every transfer must land in its own file (a premature
    close would surface as EBADF or as another thread's bytes)."""
    table = FDTable(max_open=2)
    workers, rounds = 8, 150
    errors = []

    def worker(i):
        path = str(tmp_path / f"w{i}.bin")
        mine = bytes([i]) * 512
        back = bytearray(len(mine))
        try:
            for _ in range(rounds):
                with table.borrow_write(path) as (fd, _, _):
                    pwritev_full(fd, [mine[:256], mine[256:]])
                with table.borrow_read(path) as fd:
                    assert preadv_full(fd, [back]) == len(mine)
                assert back == mine
        except BaseException as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    assert len(table) <= 2
    table.close_all()
    assert table.opens == table.closes


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def test_dropped_stores_keep_no_descriptors_open(tmp_path):
    """Most callers never close a store; dropping it must be enough."""
    data = np.arange(64, dtype=np.float32)
    gc.collect()
    before = _open_fds()
    for i in range(200):
        store = (
            TensorFileStore(tmp_path / f"f{i}")
            if i % 2
            else ChunkedTensorStore(tmp_path / f"c{i}", chunk_bytes=data.nbytes)
        )
        store.write("t", data)
        assert len(store.fds) == 1
        del store
    gc.collect()
    assert _open_fds() == before


# ------------------------------------------- stores: one positioned-I/O path
DATA = np.random.default_rng(0).standard_normal((32, 8)).astype(np.float32)


def _make_store(kind, root):
    if kind == "chunk":
        return ChunkedTensorStore(root, chunk_bytes=1 << 20)
    return TensorFileStore(root, direct=kind == "file-direct")


def _written(kind, root, names=("t",)):
    """A store of ``kind`` holding DATA under each name, flushed to disk."""
    store = _make_store(kind, root)
    for name in names:
        store.write(name, DATA)
    if kind == "chunk":
        store.flush()
    return store


#: Byte offset of the first tensor's payload inside its file.
_PAYLOAD_AT = {"file-buffered": FRAME_HEADER_BYTES, "file-direct": FRAME_HEADER_BYTES, "chunk": 0}

STORE_KINDS = pytest.mark.parametrize("kind", sorted(_PAYLOAD_AT))


@STORE_KINDS
def test_store_files_are_the_reference_bytes(tmp_path, kind):
    names = ("a", "b", "c")
    store = _written(kind, tmp_path, names)
    if kind == "chunk":
        # A chunk file is the tensors' raw bytes back to back.
        assert store.path_for("a").read_bytes() == DATA.tobytes() * len(names)
    else:
        # Buffered or O_DIRECT (granted or refused): the reference frame.
        for name in names:
            assert store.path_for(name).read_bytes() == frame_payload(DATA.tobytes())
    for name in names:
        assert np.array_equal(store.read(name, DATA.shape, DATA.dtype), DATA)
    assert store.bytes_written == store.bytes_read == DATA.nbytes * len(names)
    store.close()


@STORE_KINDS
def test_store_detects_torn_write(tmp_path, kind):
    store = _written(kind, tmp_path)
    path = store.path_for("t")
    path.write_bytes(path.read_bytes()[:-8])  # tear the tail off
    with pytest.raises(IntegrityError, match="torn write"):
        store.read("t", DATA.shape, DATA.dtype)
    store.close()


@STORE_KINDS
def test_store_detects_bit_rot(tmp_path, kind):
    store = _written(kind, tmp_path)
    path = store.path_for("t")
    raw = bytearray(path.read_bytes())
    raw[_PAYLOAD_AT[kind] + 13] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(IntegrityError, match="checksum mismatch"):
        store.read("t", DATA.shape, DATA.dtype)
    store.close()


@STORE_KINDS
def test_store_shape_mismatch_is_caller_error(tmp_path, kind):
    store = _written(kind, tmp_path)
    with pytest.raises(ValueError):
        store.read("t", (DATA.size // 2,), DATA.dtype)  # fewer bytes than stored
    with pytest.raises(ValueError):
        store.read("t", (DATA.size * 2,), DATA.dtype)  # more bytes than stored
    with pytest.raises(ValueError):
        store.read("t", DATA.shape, np.float64)  # dtype mismatch
    store.close()


@STORE_KINDS
def test_store_missing_tensor(tmp_path, kind):
    store = _written(kind, tmp_path)
    with pytest.raises(FileNotFoundError):
        store.read("nope", (1,), np.float32)
    store.delete("t")
    with pytest.raises(FileNotFoundError):
        store.read("t", DATA.shape, DATA.dtype)
    assert len(store.fds) == 0  # the delete forgot the descriptor
    store.close()


@pytest.mark.parametrize("kind", ["file-buffered", "file-direct"])
def test_filestore_rejects_short_and_oversized_files(tmp_path, kind):
    store = _written(kind, tmp_path)
    path = store.path_for("t")
    raw = path.read_bytes()
    path.write_bytes(raw[: FRAME_HEADER_BYTES - 4])  # shorter than the header
    with pytest.raises(IntegrityError, match="shorter than the frame header"):
        store.read("t", DATA.shape, DATA.dtype)
    path.write_bytes(raw + b"junk")  # more than the frame claims
    with pytest.raises(IntegrityError, match="torn write"):
        store.read("t", DATA.shape, DATA.dtype)
    path.write_bytes(raw)
    assert np.array_equal(store.read("t", DATA.shape, DATA.dtype), DATA)
    store.close()


def test_filestore_rewrite_drops_a_longer_stale_frame(tmp_path):
    store = TensorFileStore(tmp_path)
    store.write("t", np.ones(256, dtype=np.float32))
    short = np.arange(8, dtype=np.float32)
    store.write("t", short)  # reuses the cached descriptor: must ftruncate
    assert store.path_for("t").read_bytes() == frame_payload(short.tobytes())
    store.close()


def test_filestore_odirect_write_bit_identical(tmp_path):
    data = np.random.default_rng(1).standard_normal((100,)).astype(np.float32)
    store = TensorFileStore(tmp_path, direct=True)
    if not store.direct:
        pytest.skip("platform has no O_DIRECT")
    store.write("t", data)
    back = store.read("t", data.shape, data.dtype)
    assert np.array_equal(back, data)
    # ftruncate after the padded direct write — or the buffered fallback:
    # the on-disk frame is byte-identical to the reference either way.
    assert store.path_for("t").read_bytes() == frame_payload(data.tobytes())
    assert store.arena.stats().outstanding_bytes == 0
    if store.copy_stats.snapshot().direct_fallbacks:
        store.close()
        pytest.skip("filesystem refused O_DIRECT")
    # Aligned staging went through the arena, and every lease came back.
    assert store.arena.stats().aligned_leases >= 1
    store.close()


# ------------------------------------------------------- backend + scheduler
def _roundtrip(sched, store, n=12):
    data = np.arange(256, dtype=np.float32)
    stores = [
        sched.submit(
            IORequest(
                lambda i=i: store.write(f"t{i}", data),
                kind="store",
                priority=Priority.STORE,
                tensor_id=f"t{i}",
                nbytes=data.nbytes,
            )
        )
        for i in range(n)
    ]
    assert sched.drain(10)
    for req in stores:
        assert req.error is None
    loads = [
        sched.submit(
            IORequest(
                lambda i=i: store.read(f"t{i}", data.shape, data.dtype),
                kind="load",
                priority=Priority.PREFETCH_LOAD,
                tensor_id=f"t{i}",
                nbytes=data.nbytes,
            )
        )
        for i in range(n)
    ]
    assert sched.drain(10)
    for req in loads:
        assert req.error is None
        assert np.array_equal(req.result, data)
    return data.nbytes * n


def test_uring_backend_books_reconcile_and_batch(tmp_path):
    backend = UringBackend()
    sched = IOScheduler(workers=2, backend=backend)
    store = TensorFileStore(tmp_path)
    try:
        _roundtrip(sched, store)
        stats = sched.stats
        assert stats.submitted == stats.executed + stats.failed + stats.cancelled
        assert stats.failed == 0
        lanes = sched.backend_stats_snapshot()
        ssd = lanes["ssd"]
        assert ssd.syscalls == store.write_syscalls + store.read_syscalls
        assert ssd.batches > 0
        # Every claimed request was reaped, and reap lag was measured —
        # in the backend's lane books, the one place it is kept.
        assert ssd.reaped == stats.executed + stats.failed
        assert ssd.reap_lag_s >= 0.0
    finally:
        sched.shutdown()
        store.close()
    assert backend._reaper is None  # shutdown joined the reaper


def test_backends_issue_identical_syscalls_bytes_and_files(tmp_path):
    """A backend decides who settles a completion, never what reaches the
    kernel: the same requests cost the same syscalls, move the same bytes
    and leave byte-identical files under thread, uring and gds-sim."""
    runs = {}
    for name in ("thread", "uring", "gds-sim"):
        sched = IOScheduler(
            workers=2,
            backend=None if name == "thread" else UringBackend(),
        )
        # gds-sim = the reaper plus a registry handed to the store; the
        # round-trip's arrays are unregistered, so every write bounces.
        store = TensorFileStore(
            tmp_path / name, gds=GDSRegistry() if name == "gds-sim" else None
        )
        try:
            _roundtrip(sched, store)
            lane = sched.backend_stats_snapshot()["ssd"]
        finally:
            sched.shutdown()
            store.close()
        runs[name] = (
            store.write_syscalls,
            store.read_syscalls,
            store.bytes_written,
            store.bytes_read,
            lane.syscalls,
            {p.name: p.read_bytes() for p in sorted(store.root.iterdir())},
        )
    assert runs["thread"] == runs["uring"] == runs["gds-sim"]
    assert runs["thread"][0] > 0 and runs["thread"][1] > 0


def test_gds_sim_routes_registered_tensors_past_the_bounce(tmp_path):
    from repro.tensor.tensor import Tensor

    registry = GDSRegistry()
    sched = IOScheduler(
        workers=2, backend=UringBackend()
    )
    store = TensorFileStore(tmp_path, gds=registry)
    registered = Tensor(np.arange(64, dtype=np.float32))
    registry.register(registered.untyped_storage())
    unregistered = np.ones(64, dtype=np.float32)
    try:
        for name, payload in (("reg", registered.data), ("unreg", unregistered)):
            sched.submit(
                IORequest(
                    lambda n=name, p=payload: store.write(n, p),
                    kind="store",
                    priority=Priority.STORE,
                    tensor_id=name,
                    nbytes=payload.nbytes,
                )
            )
        assert sched.drain(10)
        books = store.copy_stats.snapshot()
        assert books.bounce_copies_skipped == 1  # registered: direct
        assert books.bounce_copies == 1  # unregistered: staged
        # Bounce staging leases all returned to the arena.
        assert store.arena.stats().outstanding_bytes == 0
        # Both frames are bit-identical to the reference regardless of
        # routing.
        assert store.path_for("reg").read_bytes() == frame_payload(
            registered.data.tobytes()
        )
        assert store.path_for("unreg").read_bytes() == frame_payload(
            unregistered.tobytes()
        )
    finally:
        sched.shutdown()
        store.close()


# ------------------------------------------------- engine config + end to end
def test_engine_config_validates_io_backend(tmp_path):
    with pytest.raises(EngineConfigError, match="io_backend"):
        EngineConfig(target="ssd", store_dir=tmp_path, io_backend="epoll").validate()
    # io_direct is a property of the per-tensor SSD store: any backend
    # may carry it, a target or store that would ignore it may not.
    EngineConfig(target="ssd", store_dir=tmp_path, io_direct=True).validate()
    with pytest.raises(EngineConfigError, match="io_direct"):
        EngineConfig(target="cpu", io_direct=True).validate()
    with pytest.raises(EngineConfigError, match="io_direct"):
        EngineConfig(
            target="ssd", store_dir=tmp_path, chunk_bytes=4096, io_direct=True
        ).validate()


def test_engine_builds_selected_backend(tmp_path):
    engine = build_engine(
        EngineConfig(target="ssd", store_dir=tmp_path / "u", io_backend="uring")
    )
    try:
        assert isinstance(engine.scheduler.backend, UringBackend)
        assert engine.stats().io_backend == "uring"
        # No registry, no routing: register_tensor is a no-op.
        assert engine.offloader.gds is None
        assert engine.offloader.file_store.gds is None
    finally:
        engine.shutdown()
    engine = build_engine(
        EngineConfig(
            target="ssd", store_dir=tmp_path / "g", io_backend="gds-sim", io_direct=True
        )
    )
    try:
        assert isinstance(engine.scheduler.backend, UringBackend)
        assert engine.stats().io_backend == "gds-sim"
        # The store routes on the offloader's registry: pack-time
        # registration is what sends stores past the bounce buffer.
        assert engine.offloader.gds is not None
        assert engine.offloader.file_store.gds is engine.offloader.gds
        assert engine.offloader.file_store.direct == hasattr(os, "O_DIRECT")
    finally:
        engine.shutdown()


CONFIG = ModelConfig(
    arch="gpt", hidden=64, num_layers=2, vocab_size=97, seq_len=32, head_dim=32
)
STEPS = 3


def _train(tmp_path, name, io_backend="thread", plan=None):
    """Train the reference model on ``io_backend``; mirrors the chaos suite."""
    gpu = GPU()
    model = GPT(CONFIG, rng=np.random.default_rng(0)).to(gpu)
    policy = OffloadPolicy(PolicyConfig(min_offload_numel=256))
    engine = build_engine(
        target="ssd", store_dir=tmp_path / name, policy=policy, io_backend=io_backend
    )
    cache = engine.cache()
    injector = inject_faults(cache.offloader, plan) if plan is not None else None
    trainer = Trainer(
        model,
        SGD(model.parameters(), lr=1e-3),
        gpu,
        strategy=PlacementStrategy.OFFLOAD,
        cache=cache,
    )
    loader = TokenBatchLoader(
        SyntheticCorpus(vocab_size=CONFIG.vocab_size, seed=5),
        batch_size=2,
        seq_len=CONFIG.seq_len,
        device=gpu,
    )
    losses = []
    try:
        for _ in range(STEPS):
            losses.append(trainer.train_step([loader.next_batch()]).loss)
        stats = cache.scheduler.stats
        assert stats.submitted == stats.executed + stats.failed + stats.cancelled
        assert cache.scheduler.pending() == 0
        for worker in cache.scheduler._workers:
            assert worker.is_alive(), f"worker {worker.name} died"
        engine_stats = engine.stats()
        store = cache.offloader.file_store
        per_op = (
            store.write_syscalls / store.write_count,
            store.read_syscalls / store.read_count,
        )
    finally:
        trainer.close()
    return losses, stats, engine_stats, injector, per_op


def test_backends_train_bit_exact(tmp_path):
    """The acceptance: thread/uring/gds-sim produce identical losses on
    real training and pay the same syscalls per store operation, with
    every backend's request books reconciling exactly."""
    thread_losses, _, thread_stats, _, thread_per_op = _train(tmp_path, "thread")
    uring_losses, _, uring_stats, _, uring_per_op = _train(tmp_path, "uring", "uring")
    gds_losses, _, gds_stats, _, gds_per_op = _train(tmp_path, "gds", "gds-sim")
    assert uring_losses == thread_losses
    assert gds_losses == thread_losses
    # How many stores run (vs. being cancelled by data forwarding) is a
    # race by design; what one write and one read cost is not.
    assert thread_per_op == uring_per_op == gds_per_op
    assert uring_stats.io_lanes["ssd"].syscalls > 0
    assert uring_stats.io_lanes["ssd"].reaped > 0
    # Pack-time registration routes offloaded tensors past the bounce,
    # and only a store that was handed a registry routes at all.
    assert gds_stats.dataplane.bounce_copies_skipped > 0
    for stats in (thread_stats, uring_stats):
        assert stats.dataplane.bounce_copies == 0
        assert stats.dataplane.bounce_copies_skipped == 0


def test_thread_backend_books_but_never_reaps(tmp_path):
    """The thread backend has no completion reaper — the lane worker
    settles inline, so ``reaped`` stays zero and no reap lag is ever
    recorded — while its syscall books come from the same tape."""
    _, _, engine_stats, _, _ = _train(tmp_path, "thread")
    lanes = engine_stats.io_lanes
    busy = [ls for ls in lanes.values() if ls.batches]
    assert busy, "the ssd lane must have executed batches"
    assert all(ls.syscalls > 0 for ls in busy)
    assert all(ls.reaped == 0 and ls.reap_lag_s == 0.0 for ls in lanes.values())


@pytest.mark.parametrize("seed", (0, 1))
def test_uring_chaos_transient_faults_heal_bit_exact(tmp_path, seed):
    """PR 4's chaos plan on the uring backend: seeded transient faults
    heal through the retry budget to bit-exact losses with all workers
    alive."""
    clean, _, _, _, _ = _train(tmp_path, "clean", "uring")
    plan = FaultPlan.transient(rate=0.25, seed=seed)
    faulted, stats, _, injector, _ = _train(tmp_path, f"faulted{seed}", "uring", plan)
    assert injector.fault_stats.injected_transient > 0, "the plan must bite"
    assert stats.retries >= injector.fault_stats.injected_transient
    assert stats.failed == 0, "every transient fault must heal"
    assert faulted == clean, "chaos must not change the numerics"
