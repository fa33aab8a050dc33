"""Tests for the batched SQ/CQ I/O backend (:mod:`repro.io.uring`).

Covers the layers bottom-up: the vectored-syscall helpers, the LRU FD
table (O_DIRECT grant/fallback/demotion), the stores' vectored entry
points (bit-identical frames, torn-write taxonomy, strictly fewer
syscalls), the backend under a live scheduler (books reconcile, reap
lag recorded), backend equivalence on real training (losses bit-exact
across thread/uring/gds-sim), and chaos on the uring backend (seeded
transient faults heal to bit-exact results; whole-batch failures leave
every worker alive).
"""

import mmap
import os

import numpy as np
import pytest

from repro.core import (
    EngineConfig,
    EngineConfigError,
    OffloadPolicy,
    PolicyConfig,
    TensorCache,
    build_engine,
)
from repro.data import SyntheticCorpus, TokenBatchLoader
from repro.device import GPU
from repro.io import (
    BufferArena,
    ChunkedTensorStore,
    FDTable,
    GDSRegistry,
    GDSSimBackend,
    IOContext,
    IORequest,
    IOScheduler,
    Priority,
    TensorFileStore,
    UringBackend,
    io_context,
)
from repro.io.aio import syscall_tape
from repro.io.errors import IntegrityError
from repro.io.faults import FaultPlan, inject_faults
from repro.io.filestore import frame_payload
from repro.io.uring import preadv_full, pwritev_full
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
    fd, direct, cached, fell_back = table.acquire_write(path)
    assert not direct and not cached and not fell_back
    os.write(fd, b"x")
    fd2, _, cached2, _ = table.acquire_write(path)
    assert fd2 == fd and cached2
    assert table.acquire_read(path) == fd  # buffered entry is shared
    assert table.opens == 1
    table.close_all()
    assert len(table) == 0
    assert table.closes == 1


def test_fdtable_lru_eviction(tmp_path):
    table = FDTable(max_open=2)
    paths = [str(tmp_path / f"{i}.bin") for i in range(3)]
    fds = [table.acquire_write(p)[0] for p in paths]
    assert len(table) == 2
    assert table.closes == 1  # paths[0] evicted (least recently used)
    # The evicted path transparently reopens (O_TRUNC: fresh file).
    fd0, _, cached, _ = table.acquire_write(paths[0])
    assert not cached
    assert table.opens == 4
    del fds, fd0
    table.close_all()


def test_fdtable_invalidate_forgets_deleted_paths(tmp_path):
    table = FDTable()
    path = str(tmp_path / "gone.bin")
    table.acquire_write(path)
    os.unlink(path)
    table.invalidate(path)
    with pytest.raises(FileNotFoundError):
        table.acquire_read(path)
    table.invalidate(path)  # idempotent on unknown paths
    table.close_all()


def test_fdtable_read_demotes_direct_descriptors(tmp_path):
    table = FDTable(direct=True)
    path = str(tmp_path / "d.bin")
    fd, direct, _, fell_back = table.acquire_write(path)
    if not direct:
        assert fell_back or not table.direct  # refused: fallback was counted
        table.close_all()
        pytest.skip("filesystem refused O_DIRECT")
    # O_DIRECT demands an aligned source; an anonymous mmap page is.
    page = mmap.mmap(-1, 4096)
    os.pwrite(fd, page, 0)
    # Loads need a buffered descriptor (unaligned destination arrays):
    # the direct entry is closed and replaced by a fresh buffered open.
    rfd = table.acquire_read(path)
    assert (table.opens, table.closes) == (2, 1)
    assert os.pread(rfd, 4, 0) == b"\0" * 4
    # And the buffered entry replaced the direct one in the table.
    assert table.acquire_write(path) == (rfd, False, True, False)
    table.close_all()


def test_fdtable_validation():
    with pytest.raises(ValueError):
        FDTable(max_open=0)


# ----------------------------------------------- stores: vectored entry points
def _ctx(tmp_path, direct=False, arena=None, gds=None):
    return IOContext(
        fds=FDTable(direct=direct), lane="ssd", arena=arena, gds=gds
    )


def test_filestore_vectored_bit_identical_and_fewer_syscalls(tmp_path):
    data = np.random.default_rng(0).standard_normal((32, 8)).astype(np.float32)
    classic = TensorFileStore(tmp_path / "classic")
    classic.write("t", data)
    vectored = TensorFileStore(tmp_path / "vectored")
    ctx = _ctx(tmp_path)
    with io_context(ctx):
        vectored.write("t", data)
        back = vectored.read("t", data.shape, data.dtype)
    assert np.array_equal(back, data)
    # Same checksum frame, byte for byte.
    assert (
        vectored.path_for("t").read_bytes() == classic.path_for("t").read_bytes()
    )
    # Strictly fewer kernel round-trips than the classic buffered path
    # (write: open+write+close -> pwritev on a table descriptor).
    classic.read("t", data.shape, data.dtype)
    assert vectored.write_syscalls < classic.write_syscalls
    assert vectored.read_syscalls < classic.read_syscalls
    ctx.fds.close_all()


def test_filestore_vectored_detects_torn_write(tmp_path):
    store = TensorFileStore(tmp_path)
    data = np.ones(64, dtype=np.float32)
    ctx = _ctx(tmp_path)
    with io_context(ctx):
        store.write("t", data)
    path = store.path_for("t")
    framed = path.read_bytes()
    path.write_bytes(framed[:-8])  # tear the tail off
    ctx.fds.invalidate(str(path))  # descriptor cache must not mask the tear
    with io_context(ctx):
        with pytest.raises(IntegrityError):
            store.read("t", (64,), np.float32)
    ctx.fds.close_all()


def test_filestore_vectored_shape_mismatch_is_caller_error(tmp_path):
    store = TensorFileStore(tmp_path)
    ctx = _ctx(tmp_path)
    with io_context(ctx):
        store.write("t", np.ones(64, dtype=np.float32))
        with pytest.raises(ValueError):
            store.read("t", (32,), np.float32)  # fewer bytes than on disk
        with pytest.raises(ValueError):
            store.read("t", (128,), np.float32)  # more bytes than on disk
    ctx.fds.close_all()


def test_filestore_vectored_missing_tensor(tmp_path):
    store = TensorFileStore(tmp_path)
    with io_context(_ctx(tmp_path)):
        with pytest.raises(FileNotFoundError):
            store.read("nope", (1,), np.float32)


def test_filestore_odirect_write_bit_identical(tmp_path):
    data = np.random.default_rng(1).standard_normal((100,)).astype(np.float32)
    store = TensorFileStore(tmp_path)
    arena = BufferArena()
    ctx = _ctx(tmp_path, direct=True, arena=arena)
    if not ctx.fds.direct:
        pytest.skip("platform has no O_DIRECT")
    with io_context(ctx):
        store.write("t", data)
        back = store.read("t", data.shape, data.dtype)
    if ctx.fds.direct_fallbacks:
        ctx.fds.close_all()
        pytest.skip("filesystem refused O_DIRECT")
    assert np.array_equal(back, data)
    # Aligned staging went through the arena, and every lease came back.
    assert arena.stats().aligned_leases >= 1
    assert arena.stats().outstanding_bytes == 0
    # ftruncate after the padded direct write: the on-disk frame is
    # byte-identical to the buffered path's.
    assert store.path_for("t").read_bytes() == frame_payload(data.tobytes())
    ctx.fds.close_all()


def test_chunkstore_vectored_bit_identical_and_fewer_syscalls(tmp_path):
    data = np.random.default_rng(2).standard_normal((64,)).astype(np.float32)
    classic = ChunkedTensorStore(tmp_path / "classic", chunk_bytes=256)
    vectored = ChunkedTensorStore(tmp_path / "vectored", chunk_bytes=256)
    classic.write("t", data)
    classic.read("t", data.shape, data.dtype)
    ctx = _ctx(tmp_path)
    with io_context(ctx):
        vectored.write("t", data)
        back = vectored.read("t", data.shape, data.dtype)
    assert np.array_equal(back, data)
    assert (
        vectored.path_for("t").read_bytes() == classic.path_for("t").read_bytes()
    )
    assert vectored.write_syscalls < classic.write_syscalls
    assert vectored.read_syscalls < classic.read_syscalls
    ctx.fds.close_all()


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
    sched = IOScheduler(num_store_workers=1, num_load_workers=1, backend=backend)
    store = TensorFileStore(tmp_path)
    try:
        _roundtrip(sched, store)
        stats = sched.stats
        assert stats.submitted == stats.executed + stats.failed + stats.cancelled
        assert stats.failed == 0
        lanes = sched.backend_stats_snapshot()
        ssd = lanes["ssd"]
        assert ssd.syscalls > 0
        assert ssd.batches > 0
        # Every claimed request was reaped, and reap lag was measured.
        assert ssd.reaped == stats.executed + stats.failed
        assert ssd.reap_lag_s >= 0.0
        windows = sched.consume_completion_stats()
        assert windows["ssd"]["write"].reap_lag_s >= 0.0
    finally:
        sched.shutdown()
    assert len(backend.fds) == 0  # shutdown closes the FD table


def test_uring_strictly_fewer_syscalls_than_thread(tmp_path):
    counts = {}
    for name, backend in (("thread", None), ("uring", UringBackend())):
        sched = IOScheduler(
            num_store_workers=1, num_load_workers=1, backend=backend
        )
        store = TensorFileStore(tmp_path / name)
        try:
            nbytes = _roundtrip(sched, store)
            counts[name] = (store.write_syscalls + store.read_syscalls, nbytes)
        finally:
            sched.shutdown()
    assert counts["uring"][1] == counts["thread"][1]  # identical bytes
    assert counts["uring"][0] < counts["thread"][0]


def test_gds_sim_routes_registered_tensors_past_the_bounce(tmp_path):
    from repro.tensor.tensor import Tensor

    registry = GDSRegistry()
    backend = GDSSimBackend(registry=registry)
    sched = IOScheduler(num_store_workers=1, num_load_workers=1, backend=backend)
    store = TensorFileStore(tmp_path)
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
        lanes = sched.backend_stats_snapshot()
        assert lanes["ssd"].bounce_copies_skipped == 1  # registered: direct
        assert lanes["ssd"].bounce_copies == 1  # unregistered: staged
        # Bounce staging leases all returned to the arena.
        assert backend.arena.stats().outstanding_bytes == 0
        # Both frames are bit-identical to the classic path regardless
        # of routing.
        assert store.path_for("reg").read_bytes() == frame_payload(
            registered.data.tobytes()
        )
        assert store.path_for("unreg").read_bytes() == frame_payload(
            unregistered.tobytes()
        )
    finally:
        sched.shutdown()


# ------------------------------------------------- engine config + end to end
def test_engine_config_validates_io_backend(tmp_path):
    with pytest.raises(EngineConfigError, match="io_backend"):
        EngineConfig(target="ssd", store_dir=tmp_path, io_backend="epoll").validate()
    with pytest.raises(EngineConfigError, match="io_direct"):
        EngineConfig(target="ssd", store_dir=tmp_path, io_direct=True).validate()


def test_engine_builds_selected_backend(tmp_path):
    engine = build_engine(
        EngineConfig(target="ssd", store_dir=tmp_path / "u", io_backend="uring")
    )
    try:
        assert isinstance(engine.scheduler.backend, UringBackend)
        assert engine.stats().io_backend == "uring"
    finally:
        engine.shutdown()
    engine = build_engine(
        EngineConfig(target="ssd", store_dir=tmp_path / "g", io_backend="gds-sim")
    )
    try:
        backend = engine.scheduler.backend
        assert isinstance(backend, GDSSimBackend)
        # The backend consults the offloader's registry: pack-time
        # registration is what routes stores past the bounce buffer.
        assert backend.registry is engine.offloader.gds
    finally:
        engine.shutdown()


CONFIG = ModelConfig(
    arch="gpt", hidden=64, num_layers=2, vocab_size=97, seq_len=32, head_dim=32
)
STEPS = 3


def _train(tmp_path, name, backend=None, plan=None):
    """Train the reference model on ``backend``; mirrors the chaos suite."""
    gpu = GPU()
    model = GPT(CONFIG, rng=np.random.default_rng(0)).to(gpu)
    policy = OffloadPolicy(PolicyConfig(min_offload_numel=256))
    scheduler = (
        IOScheduler(backend=backend) if backend is not None else None
    )
    cache = TensorCache(
        build_engine(target="ssd", store_dir=tmp_path / name, policy=policy).offloader,
        policy=policy,
        scheduler=scheduler,
    )
    if isinstance(backend, GDSSimBackend):
        backend.registry = cache.offloader.gds
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
        lanes = cache.scheduler.backend_stats_snapshot()
    finally:
        trainer.close()
    return losses, stats, lanes, injector


def test_backends_train_bit_exact(tmp_path):
    """The tentpole acceptance: thread/uring/gds-sim produce identical
    losses on real training, with uring issuing strictly fewer syscalls,
    and every backend's request books reconciling exactly."""
    thread_losses, _, _, _ = _train(tmp_path, "thread")
    uring_losses, _, uring_lanes, _ = _train(
        tmp_path, "uring", backend=UringBackend()
    )
    gds_losses, _, gds_lanes, _ = _train(
        tmp_path, "gds", backend=GDSSimBackend()
    )
    assert uring_losses == thread_losses
    assert gds_losses == thread_losses
    assert uring_lanes["ssd"].syscalls > 0
    assert uring_lanes["ssd"].reaped > 0
    # Pack-time registration routes offloaded tensors past the bounce.
    assert gds_lanes["ssd"].bounce_copies_skipped > 0


def test_thread_backend_books_but_never_reaps(tmp_path):
    """The thread backend under the backend seam keeps the classic
    buffered path (its syscall books count the legacy open/write/close
    constants) and has no completion reaper — completions apply inline,
    so ``reaped`` stays zero and no reap lag is ever recorded."""
    _, _, lanes, _ = _train(tmp_path, "thread")
    busy = [ls for ls in lanes.values() if ls.batches]
    assert busy, "the ssd lane must have executed batches"
    assert all(ls.syscalls > 0 for ls in busy)
    assert all(ls.reaped == 0 and ls.reap_lag_s == 0.0 for ls in lanes.values())


@pytest.mark.parametrize("seed", (0, 1))
def test_uring_chaos_transient_faults_heal_bit_exact(tmp_path, seed):
    """PR 4's chaos plan on the uring backend: seeded transient faults
    (whole batches fail at once under SQ/CQ) heal through the retry
    budget to bit-exact losses with all workers alive."""
    clean, _, _, _ = _train(tmp_path, "clean", backend=UringBackend())
    plan = FaultPlan.transient(rate=0.25, seed=seed)
    faulted, stats, _, injector = _train(
        tmp_path, f"faulted{seed}", backend=UringBackend(), plan=plan
    )
    assert injector.fault_stats.injected_transient > 0, "the plan must bite"
    assert stats.retries >= injector.fault_stats.injected_transient
    assert stats.failed == 0, "every transient fault must heal"
    assert faulted == clean, "chaos must not change the numerics"
