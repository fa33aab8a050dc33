"""Tests for the I/O plane below the scheduler, bottom-up.

The vectored-syscall helpers, the stores' LRU FD table (borrow /
deferred close, leak-freedom), the one positioned-I/O path of both
stores (bit-identical files, the torn-write / oversize / mismatch /
bit-rot taxonomy),
the reaper backend under a live scheduler (books reconcile, reap lag
recorded), backend equivalence on real training (losses, syscalls,
bytes and files identical across thread/uring), and chaos on
the uring backend (seeded transient faults heal to bit-exact results;
whole-batch failures leave every worker alive).
"""

import errno
import gc
import os
import sys
import threading
from contextlib import contextmanager

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
@contextmanager
def _borrow(table, path, create=True):
    """Take ``path``'s descriptor and give it back, each under the
    table's lock, the way a store does around one transfer."""
    with table.lock:
        entry = table.take(path, create=create)
    try:
        yield entry
    finally:
        with table.lock:
            table.give_back(entry)


def test_fdtable_caches_descriptors(tmp_path):
    table = FDTable(max_open=8)
    path = str(tmp_path / "a.bin")
    with _borrow(table, path) as entry:
        assert table.opens == 1
        os.write(entry.fd, b"x")
    with _borrow(table, path) as again:
        assert again.fd == entry.fd and table.opens == 1
    with _borrow(table, path, create=False) as read:
        assert read.fd == entry.fd  # one descriptor serves writes and reads
    assert table.opens == 1
    table.close_all()
    assert len(table) == 0
    assert table.closes == 1


def test_fdtable_lru_eviction(tmp_path):
    table = FDTable(max_open=2)
    paths = [str(tmp_path / f"{i}.bin") for i in range(3)]
    for p in paths:
        with _borrow(table, p):
            pass
    assert len(table) == 2
    assert table.closes == 1  # paths[0] evicted (least recently used)
    # The evicted path transparently reopens, without truncating it.
    with _borrow(table, paths[1]) as entry:
        os.write(entry.fd, b"kept")
    with _borrow(table, paths[2]):
        pass
    with _borrow(table, paths[0]):
        pass
    assert table.opens == 4
    with _borrow(table, paths[1], create=False) as entry:  # evicted by paths[0]: a reopen
        assert os.pread(entry.fd, 4, 0) == b"kept"
    assert table.opens == 5
    table.close_all()


def test_fdtable_validation():
    with pytest.raises(ValueError):
        FDTable(max_open=0)


@pytest.mark.parametrize("drop", ["evict", "close_all"])
def test_borrowed_descriptor_outlives_eviction_and_close_all(tmp_path, drop):
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
            with _borrow(table, p) as entry:
                pwritev_full(entry.fd, [b"first-"])
                borrowed.set()
                assert resume.wait(10)
                pwritev_full(entry.fd, [b"second"], offset=6)
        except BaseException as exc:
            errors.append(exc)

    a = threading.Thread(target=transfer)
    a.start()
    assert borrowed.wait(10)
    # Thread B, while A is mid-transfer: drop P from the table, then open
    # more files — a closed fd number would be handed to one of them.
    if drop == "evict":
        with _borrow(table, q) as entry:
            pwritev_full(entry.fd, [b"Q"])
    else:
        table.close_all()
    assert table.closes == 0, "P's close must wait for its borrower"
    with table.lock:
        assert table.busy(p), "a store must not recycle P under its borrower"
    with _borrow(table, q) as entry:
        pwritev_full(entry.fd, [b"Q"])
    with _borrow(table, r) as entry:
        pwritev_full(entry.fd, [b"R"])
    resume.set()
    a.join(10)
    assert not a.is_alive() and not errors
    with table.lock:
        assert not table.busy(p)
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
                with _borrow(table, path) as entry:
                    pwritev_full(entry.fd, [mine[:256], mine[256:]])
                with _borrow(table, path, create=False) as entry:
                    assert preadv_full(entry.fd, [back]) == len(mine)
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
    return TensorFileStore(root)


def _written(kind, root, names=("t",)):
    """A store of ``kind`` holding DATA under each name, flushed to disk."""
    store = _make_store(kind, root)
    for name in names:
        store.write(name, DATA)
    if kind == "chunk":
        store.flush()
    return store


#: Byte offset of the first tensor's payload inside its file.
_PAYLOAD_AT = {"file-buffered": FRAME_HEADER_BYTES, "chunk": 0}

STORE_KINDS = pytest.mark.parametrize("kind", sorted(_PAYLOAD_AT))


@STORE_KINDS
def test_store_files_are_the_reference_bytes(tmp_path, kind):
    names = ("a", "b", "c")
    store = _written(kind, tmp_path, names)
    if kind == "chunk":
        # A chunk file is the tensors' raw bytes back to back.
        assert store.path_for("a").read_bytes() == DATA.tobytes() * len(names)
    else:
        # A per-tensor file is the reference frame.
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
    path = store.path_for("t")
    store.delete("t")
    with pytest.raises(FileNotFoundError):
        store.read("t", DATA.shape, DATA.dtype)
    # Released, not unlinked: the file and its descriptor wait for reuse.
    assert path.exists() and len(store.fds) == 1
    store.close()


def test_filestore_rejects_short_and_oversized_files(tmp_path):
    store = _written("file-buffered", tmp_path)
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


def test_filestore_rewrite_drops_a_longer_stale_frame(tmp_path, monkeypatch):
    store = TensorFileStore(tmp_path)
    store.write("a", np.ones(256, dtype=np.float32))
    longer = store.path_for("a")
    store.delete("a")
    truncates = []
    real_ftruncate = os.ftruncate
    monkeypatch.setattr(os, "ftruncate", lambda fd, n: (truncates.append(n), real_ftruncate(fd, n)))
    short = np.arange(8, dtype=np.float32)
    store.write("b", short)  # recycles a's longer file: must ftruncate
    assert store.path_for("b") == longer
    assert truncates == [len(frame_payload(short.tobytes()))]
    assert longer.read_bytes() == frame_payload(short.tobytes())
    assert np.array_equal(store.read("b", short.shape, short.dtype), short)
    store.close()


def test_filestore_open_failure_frees_the_file_it_took(tmp_path, monkeypatch):
    store = TensorFileStore(tmp_path)
    real_take = store.fds.take

    def refuse(*args, **kwargs):
        raise OSError(errno.EMFILE, "too many open files")

    monkeypatch.setattr(store.fds, "take", refuse)
    with pytest.raises(OSError):
        store.write("t", DATA)
    monkeypatch.setattr(store.fds, "take", real_take)
    store.write("t", DATA)  # the refused file went back to the pool
    assert store.path_for("t").name == "f0.bin"
    assert np.array_equal(store.read("t", DATA.shape, DATA.dtype), DATA)
    store.close()


@pytest.mark.parametrize("kind", ["file", "chunk"])
def test_a_longer_file_left_by_an_earlier_run_is_truncated(tmp_path, kind):
    # Files are named by number, so a store built in the directory of a
    # run that crashed writes its first frame over that run's file.
    for stale in ("f0.bin", "chunk0.bin"):
        (tmp_path / stale).write_bytes(b"\xa5" * 4096)
    if kind == "file":
        store = TensorFileStore(tmp_path)
    else:
        store = ChunkedTensorStore(tmp_path, chunk_bytes=64)
    data = np.arange(16, dtype=np.float32)
    store.write("t", data)
    store.flush()
    assert store.path_for("t").name == ("f0.bin" if kind == "file" else "chunk0.bin")
    if kind == "file":
        assert store.path_for("t").read_bytes() == frame_payload(data.tobytes())
    else:
        assert store.path_for("t").stat().st_size == data.nbytes  # the chunk, no stale tail
    assert np.array_equal(store.read("t", data.shape, data.dtype), data)
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
    and leave byte-identical files under thread and uring."""
    runs = {}
    for name in ("thread", "uring"):
        sched = IOScheduler(
            workers=2,
            backend=None if name == "thread" else UringBackend(),
        )
        store = TensorFileStore(tmp_path / name)
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
    assert runs["thread"] == runs["uring"]
    assert runs["thread"][0] > 0 and runs["thread"][1] > 0


# ------------------------------------------------- engine config + end to end
def test_engine_config_validates_io_backend(tmp_path):
    with pytest.raises(EngineConfigError, match="io_backend"):
        EngineConfig(target="ssd", store_dir=tmp_path, io_backend="epoll").validate()
    for backend in ("thread", "uring"):
        EngineConfig(target="ssd", store_dir=tmp_path, io_backend=backend).validate()


def test_engine_builds_selected_backend(tmp_path):
    engine = build_engine(
        EngineConfig(target="ssd", store_dir=tmp_path / "u", io_backend="uring")
    )
    try:
        assert isinstance(engine.scheduler.backend, UringBackend)
        assert engine.stats().io_backend == "uring"
    finally:
        engine.shutdown()


CONFIG = ModelConfig(
    arch="gpt", hidden=64, num_layers=2, vocab_size=97, seq_len=32, head_dim=32
)
STEPS = 3


def _train(tmp_path, name, io_backend="thread", plan=None, after_first_step=None):
    """Train the reference model on ``io_backend``; mirrors the chaos suite.
    ``after_first_step`` runs where the steady-state books start."""
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
    store = cache.offloader.file_store
    try:
        for step in range(STEPS):
            losses.append(trainer.train_step([loader.next_batch()]).loss)
            if step == 0:
                store.reset_stats()  # per-operation costs: steady state only
                files = store.fds.opens
                if after_first_step is not None:
                    after_first_step()
        stats = cache.scheduler.stats
        assert stats.submitted == stats.executed + stats.failed + stats.cancelled
        assert cache.scheduler.pending() == 0
        for worker in cache.scheduler._workers:
            assert worker.is_alive(), f"worker {worker.name} died"
        engine_stats = engine.stats()
        books = (
            store.write_syscalls,
            store.write_count,
            store.read_syscalls,
            store.read_count,
            store.fds.opens - files,  # files created after the first step
        )
    finally:
        trainer.close()
    return losses, stats, engine_stats, injector, books


def test_backends_train_bit_exact(tmp_path, monkeypatch):
    """The acceptance: thread/uring produce identical losses on real
    training and pay the same syscalls per store operation once the
    first step has created the files, with every backend's request books
    reconciling exactly."""
    truncates = []
    real_ftruncate = os.ftruncate
    monkeypatch.setattr(os, "ftruncate", lambda *a: (truncates.append(a), real_ftruncate(*a))[1])
    runs = {}
    for name in ("thread", "uring"):
        losses, _, engine_stats, _, books = _train(
            tmp_path, name, name, after_first_step=truncates.clear
        )
        write_syscalls, writes, read_syscalls, reads, new_files = books
        # How many stores run (vs. being cancelled by data forwarding) is a
        # race by design, so a later step may store one tensor more than
        # the files the first one left: recycling then opens and truncates
        # a new file, or truncates a longer one.  What one write and one
        # read cost is not.
        per_write = (write_syscalls - new_files - len(truncates)) / writes
        runs[name] = (losses, per_write, read_syscalls / reads)
    assert runs["thread"] == runs["uring"]
    assert runs["thread"][1:] == (1.0, 1.0)
    assert engine_stats.io_lanes["ssd"].syscalls > 0  # the uring run's
    assert engine_stats.io_lanes["ssd"].reaped > 0


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


@pytest.mark.parametrize(
    "chunk_bytes, min_offload_numel",
    [(None, 256), (128 << 10, 16384)],
    ids=["file", "chunk"],
)
def test_steady_steps_open_close_and_truncate_nothing(
    tmp_path, monkeypatch, chunk_bytes, min_offload_numel
):
    """Recycling's exact counts on three steps of a small GPT: once the
    first step has created the files, a step opens, closes and truncates
    nothing, and the file store writes each tensor with one ``pwritev``.
    Every store lands before backward, so no forwarding race changes
    which tensors reach the store from one step to the next.  The chunk
    store offloads only the four 64 KiB MLP activations, two to a chunk:
    with mixed sizes, which tensors share a chunk follows the two lane
    workers' order, so chunk lengths (and with them truncates, and the
    chunk count) can move from step to step."""
    truncates = []
    real_ftruncate = os.ftruncate
    monkeypatch.setattr(os, "ftruncate", lambda *a: (truncates.append(a), real_ftruncate(*a))[1])
    gpu = GPU()
    model = GPT(CONFIG, rng=np.random.default_rng(0)).to(gpu)
    loader = TokenBatchLoader(
        SyntheticCorpus(vocab_size=CONFIG.vocab_size, seed=5),
        batch_size=2,
        seq_len=CONFIG.seq_len,
        device=gpu,
    )
    policy = OffloadPolicy(PolicyConfig(min_offload_numel=min_offload_numel))
    with build_engine(
        target="ssd", store_dir=tmp_path, chunk_bytes=chunk_bytes, policy=policy
    ) as engine:
        cache = engine.cache()
        cache.register_weights(model)
        cache.attach(model)
        store = engine.file_store
        for step in range(3):
            if step == 1:
                first = (store.fds.opens, store.fds.closes, len(truncates))
                store.reset_stats()
            with cache:
                loss = model(*loader.next_batch())
                assert cache.scheduler.drain(10)
                cache.on_backward_begin()
                loss.backward()
                cache.on_backward_end()
            cache.on_step_end()
            model.zero_grad()
        assert first[0] > 0 and store.write_count > 0
        assert (store.fds.opens, store.fds.closes, len(truncates)) == first
        assert store.write_syscalls == store.write_count  # one pwritev each
        cache.shutdown()


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
