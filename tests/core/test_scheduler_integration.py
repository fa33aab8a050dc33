"""Cache-level tests of the priority I/O scheduler.

The store-cancellation race (forwarding consumes a tensor while its
store is PENDING vs RUNNING), deadline promotion of pending prefetches,
demotion cancellation in the tiered offloader, and the trace surface.
"""

import threading

import numpy as np
import pytest

from repro.core import OffloadPolicy, PolicyConfig, SSDOffloader, TensorCache
from repro.core.policy import Tier
from repro.core.tensor_cache import RecordState
from repro.io import IORequest, IOScheduler, Priority
from repro.io.aio import JobState
from repro.io.trace import attach_tracer
from repro.tensor.tensor import Tensor
from tests.conftest import build_tier

# No TieredOffloader built here may do device I/O under its tier lock.
pytestmark = pytest.mark.usefixtures("tier_lock_discipline")


def _policy():
    return OffloadPolicy(PolicyConfig(min_offload_numel=64))


def _tensor(gpu, seed=0, shape=(64, 64)):
    rng = np.random.default_rng(seed)
    return Tensor(
        rng.standard_normal(shape).astype(np.float32), device=gpu, requires_grad=True
    )


def _gate_store(offloader):
    """Make every store block on the returned gate (loads unaffected).

    Also returns a semaphore released as each gated store *starts*, so
    tests wait for "a worker claimed the store" as an event instead of
    sleeping and hoping.
    """
    gate = threading.Event()
    started = threading.Semaphore(0)
    original = offloader.store

    def gated(tid, data):
        started.release()
        gate.wait(5)
        original(tid, data)

    offloader.store = gated
    return gate, started


def _gate_load(offloader):
    gate = threading.Event()
    started = threading.Semaphore(0)
    original = offloader.load

    def gated(tid, shape, dtype):
        started.release()
        gate.wait(5)
        return original(tid, shape, dtype)

    offloader.load = gated
    return gate, started


def _park_ssd_workers(sched, gate, n=2):
    """Occupy the SSD lane's workers on ``gate``; returns once every
    worker is provably inside a gate job (barrier, not a sleep)."""
    barrier = threading.Barrier(n + 1)

    def hold():
        barrier.wait(5)
        gate.wait(5)

    for _ in range(n):
        sched.submit(
            IORequest(hold, kind="load", priority=Priority.BLOCKING_LOAD, lane="ssd")
        )
    barrier.wait(5)


# --------------------------------------------------------- cancellation race
def test_forwarding_cancels_pending_store(gpu, tmp_path):
    """PENDING side of the race: the store is still queued when
    forwarding consumes the tensor — it must be cancelled and never
    reach the SSD."""
    offloader = SSDOffloader(tmp_path / "s")
    gate, started = _gate_store(offloader)
    # coalesce_bytes=0: with batching on, a worker may claim a queued
    # store behind its gated batch head, making "which store is PENDING"
    # nondeterministic — this test pins it down.
    cache = TensorCache(
        offloader,
        policy=_policy(),
        scheduler=IOScheduler(
            workers=2, coalesce_bytes=0
        ),
    )
    try:
        with cache:
            # Two stores occupy both SSD-lane workers (blocked on the
            # gate); the third store is deterministically PENDING.
            t1, t2, t3 = (_tensor(gpu, seed=i) for i in range(3))
            tid1 = cache.pack_hook(t1)
            tid2 = cache.pack_hook(t2)
            assert started.acquire(timeout=5)  # workers claim the
            assert started.acquire(timeout=5)  # first two stores
            tid3 = cache.pack_hook(t3)

            out = cache.unpack_hook(tid3)  # forwarding hits a PENDING store
            assert out is t3
            assert cache.stats.forwarded_tensors == 1
            assert cache.stats.cancelled_stores == 1
            assert cache.stats.cancelled_store_bytes == t3.nbytes
            rec = cache._find_record(tid3)
            assert rec.state is RecordState.LOADED
            assert rec.store_job.state is JobState.CANCELLED

            gate.set()
            cache.scheduler.drain(5)
            # Only the two claimed stores hit the backend.
            assert offloader.file_store.write_count == 2
            # The other two records completed normally.
            for tid in (tid1, tid2):
                r = cache._find_record(tid)
                assert r.state is RecordState.OFFLOADED
        # Step end releases exactly the copies that were written: the
        # cancelled store left nothing behind to release.
        released = []
        original_release = offloader.release
        offloader.release = lambda tid: (released.append(tid), original_release(tid))
        cache.on_step_end()
        assert sorted(released, key=str) == sorted((tid1, tid2), key=str)
        assert list((tmp_path / "s").iterdir()) == []
    finally:
        gate.set()
        cache.shutdown()


def test_forwarding_running_store_completes(gpu, tmp_path):
    """RUNNING side of the race: cancel must fail, the write finishes,
    and the store-done callback publishes the forwarded tensor."""
    offloader = SSDOffloader(tmp_path / "s")
    gate, started = _gate_store(offloader)
    # coalesce_bytes=0: with batching on, a worker may claim a queued
    # store behind its gated batch head, making "which store is PENDING"
    # nondeterministic — this test pins it down.
    cache = TensorCache(
        offloader,
        policy=_policy(),
        scheduler=IOScheduler(
            workers=2, coalesce_bytes=0
        ),
    )
    try:
        with cache:
            t1 = _tensor(gpu, seed=1)
            tid1 = cache.pack_hook(t1)
            assert started.acquire(timeout=5)  # a worker claims the store: RUNNING
            rec = cache._find_record(tid1)
            assert rec.store_job.state is JobState.RUNNING

            timer = threading.Timer(0.1, gate.set)
            timer.start()
            out = cache.unpack_hook(tid1)  # blocks until the store lands
            timer.join()
            assert out is t1
            assert cache.stats.forwarded_tensors == 1
            assert cache.stats.cancelled_stores == 0  # too late to cancel
            assert rec.state is RecordState.LOADED
            cache.scheduler.drain(5)
            assert offloader.file_store.write_count == 1  # the write happened
    finally:
        gate.set()
        cache.shutdown()


def test_running_store_visited_many_times_is_one_forwarding_hit(gpu, tmp_path):
    """Prefetch-ahead, the backward pre-hook and unpack each revisit a
    record whose store is still running; the record is forwarded once."""
    offloader = SSDOffloader(tmp_path / "s")
    gate, started = _gate_store(offloader)
    cache = TensorCache(
        offloader,
        policy=_policy(),
        scheduler=IOScheduler(workers=2, coalesce_bytes=0),
    )
    try:
        with cache:
            t1 = _tensor(gpu, seed=1)
            tid1 = cache.pack_hook(t1)
            assert started.acquire(timeout=5)  # RUNNING: too late to cancel
            rec = cache._find_record(tid1)
            for blocking in (False, False, True, True):
                cache._ensure_available(rec, blocking=blocking)
                assert rec.forwarded and rec.state is RecordState.OFFLOADING
            assert cache.stats.forwarded_tensors == 1
            assert cache.accounting.forwarding_hits == 1

            timer = threading.Timer(0.05, gate.set)
            timer.start()
            assert cache.unpack_hook(tid1) is t1  # one more visit, then the store lands
            timer.join()
            assert cache.stats.forwarded_tensors == 1
            assert cache.accounting.forwarding_hits == 1
            assert rec.state is RecordState.LOADED
    finally:
        gate.set()
        cache.shutdown()


# ----------------------------------------------------------------- promotion
def test_backward_arrival_promotes_pending_prefetch(gpu, tmp_path):
    offloader = SSDOffloader(tmp_path / "s")
    cache = TensorCache(
        offloader,
        policy=_policy(),
        prefetch_window=8,
        scheduler=IOScheduler(workers=2),
    )
    try:
        with cache:
            tensors = [_tensor(gpu, seed=i) for i in range(3)]
            tids = [cache.pack_hook(t) for t in tensors]
            cache.scheduler.drain(5)  # all three are OFFLOADED

            gate, started = _gate_load(offloader)
            cache.on_backward_begin()  # prefetches tids[2], tids[1], tids[0]
            assert started.acquire(timeout=5)  # both lane workers are
            assert started.acquire(timeout=5)  # inside gated loads
            # Two loads run gated; the oldest is a PENDING prefetch.
            rec0 = cache._find_record(tids[0])
            assert rec0.state is RecordState.LOADING
            assert rec0.load_job.state is JobState.PENDING
            assert rec0.load_job.priority is Priority.PREFETCH_LOAD

            timer = threading.Timer(0.1, gate.set)
            timer.start()
            out = cache.unpack_hook(tids[0])  # its backward has arrived
            timer.join()
            assert np.array_equal(out.data, tensors[0].data)
            assert cache.stats.promoted_loads == 1
            assert cache.scheduler.stats.promotions == 1
            assert rec0.load_job.priority is Priority.BLOCKING_LOAD
    finally:
        cache.shutdown()


# -------------------------------------------------------- tiered cancellation
def _tid(i):
    from repro.core.ids import TensorID

    return TensorID(stamp=i, shape=(64, 64))


def test_cache_and_tier_on_different_schedulers_are_refused(tmp_path):
    """A tiered offloader queues its demotions on, and reads degraded
    mode off, the scheduler it was built on: a cache on another one
    would promote, cancel and drain the wrong queues."""
    tiered = build_tier(tmp_path / "t", cpu_pool_bytes=1 << 16)
    other = IOScheduler(workers=1)
    try:
        with pytest.raises(ValueError, match="different IOScheduler"):
            TensorCache(tiered, policy=_policy(), scheduler=other)
        # Given none, or the tier's own, the cache works on the tier's.
        assert TensorCache(tiered, policy=_policy()).scheduler is tiered.scheduler
        cache = TensorCache(tiered, policy=_policy(), scheduler=tiered.scheduler)
        assert cache.scheduler is tiered.scheduler
    finally:
        other.shutdown()
        tiered.shutdown()


def test_released_victim_cancels_queued_demotion(tmp_path):
    """A demotion queued behind the gate is cancelled when its tensor is
    released first: the SSD write never happens."""
    sched = IOScheduler(workers=2)
    data = np.ones((64, 64), dtype=np.float32)
    tiered = build_tier(tmp_path / "t", cpu_pool_bytes=data.nbytes, scheduler=sched)
    gate = threading.Event()
    _park_ssd_workers(sched, gate)
    try:
        tiered.store(_tid(1), data)          # fills the pool
        tiered.store(_tid(2), data)          # demotes tid 1 (queued spill)
        assert tiered.stats.demotions == 1
        assert tiered.tier_of(_tid(1)) is Tier.SSD
        assert "!queued" in tiered.location(_tid(1))
        assert tiered.ssd.file_store.write_count == 0

        tiered.release(_tid(1))              # the spill is now pointless
        assert tiered.stats.cancelled_demotions == 1
        gate.set()
        assert sched.drain(5)
        assert tiered.ssd.file_store.write_count == 0  # write reclaimed
    finally:
        gate.set()
        sched.shutdown()
        tiered.shutdown()


def test_load_of_queued_demotion_forwards_and_promotes(tmp_path):
    """Re-reading a victim whose spill is still queued serves the
    in-flight buffer; with pool room again, the write is cancelled and
    the tensor reinstated (promotion without an SSD round-trip)."""
    sched = IOScheduler(workers=2)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 64)).astype(np.float32)
    b = rng.standard_normal((64, 64)).astype(np.float32)
    tiered = build_tier(tmp_path / "t", cpu_pool_bytes=a.nbytes, scheduler=sched)
    gate = threading.Event()
    _park_ssd_workers(sched, gate)
    try:
        tiered.store(_tid(1), a)
        tiered.store(_tid(2), b)             # demotes tid 1, spill queued
        tiered.release(_tid(2))              # frees the pool again

        out = tiered.load(_tid(1), (64, 64), np.dtype(np.float32))
        assert np.array_equal(out, a)
        assert tiered.stats.demotion_forward_hits == 1
        assert tiered.stats.cancelled_demotions == 1
        assert tiered.stats.promotions == 1
        assert tiered.tier_of(_tid(1)) is Tier.CPU
        gate.set()
        assert sched.drain(5)
        assert tiered.ssd.file_store.write_count == 0
        # Served from the pool on the next read.
        again = tiered.load(_tid(1), (64, 64), np.dtype(np.float32))
        assert np.array_equal(again, a)
        assert tiered.stats.cpu_hits == 1
    finally:
        gate.set()
        sched.shutdown()
        tiered.shutdown()


def test_full_pool_lets_queued_demotion_proceed(tmp_path):
    """When the pool is still full, the load serves the in-flight buffer
    but must NOT cancel the spill — the queued buffer is the only copy."""
    sched = IOScheduler(workers=2)
    rng = np.random.default_rng(1)
    a = rng.standard_normal((64, 64)).astype(np.float32)
    b = rng.standard_normal((64, 64)).astype(np.float32)
    tiered = build_tier(tmp_path / "t", cpu_pool_bytes=a.nbytes, scheduler=sched)
    gate = threading.Event()
    _park_ssd_workers(sched, gate)
    try:
        tiered.store(_tid(1), a)
        tiered.store(_tid(2), b)             # pool now holds b; a queued
        out = tiered.load(_tid(1), (64, 64), np.dtype(np.float32))
        assert np.array_equal(out, a)
        assert tiered.stats.demotion_forward_hits == 1
        assert tiered.stats.cancelled_demotions == 0
        gate.set()
        assert sched.drain(5)
        assert tiered.ssd.file_store.write_count == 1  # the spill landed
        again = tiered.load(_tid(1), (64, 64), np.dtype(np.float32))
        assert np.array_equal(again, a)
    finally:
        gate.set()
        sched.shutdown()
        tiered.shutdown()


# -------------------------------------------------------------------- tracing
def test_trace_shows_cancellation(gpu, tmp_path):
    offloader = SSDOffloader(tmp_path / "s")
    gate, started = _gate_store(offloader)
    # coalesce_bytes=0: with batching on, a worker may claim a queued
    # store behind its gated batch head, making "which store is PENDING"
    # nondeterministic — this test pins it down.
    cache = TensorCache(
        offloader,
        policy=_policy(),
        scheduler=IOScheduler(
            workers=2, coalesce_bytes=0
        ),
    )
    tracer = attach_tracer(cache)
    try:
        with cache:
            for i in range(3):
                cache.pack_hook(_tensor(gpu, seed=i))
            assert started.acquire(timeout=5)  # two stores claimed; the
            assert started.acquire(timeout=5)  # third is left PENDING
            tids = list(cache.current.records)
            cache.unpack_hook(tids[2])  # cancels the pending third store
            gate.set()
            cache.scheduler.drain(5)
        stats = tracer.stats()
        assert stats.cancelled_stores == 1
        assert stats.cancelled_bytes > 0
        cancel_events = [e for e in tracer.events if e.kind == "cancel"]
        assert len(cancel_events) == 1
        assert cancel_events[0].priority == "STORE"
        assert "x" in tracer.render_ascii()
    finally:
        gate.set()
        cache.shutdown()


def test_load_during_inflight_spill_write_serves_buffer(tmp_path):
    """Once the spill write has started (buffer claimed, tier lock
    released), loads of that tid are served from the in-flight buffer
    without blocking on — or blocking — the write."""
    sched = IOScheduler(workers=2)
    rng = np.random.default_rng(2)
    a = rng.standard_normal((64, 64)).astype(np.float32)
    b = rng.standard_normal((64, 64)).astype(np.float32)
    tiered = build_tier(tmp_path / "t", cpu_pool_bytes=a.nbytes, scheduler=sched)
    write_started = threading.Event()
    write_gate = threading.Event()
    original = tiered.ssd.store

    def gated_ssd_store(tid, data):
        write_started.set()
        write_gate.wait(5)
        original(tid, data)

    tiered.ssd.store = gated_ssd_store
    try:
        tiered.store(_tid(1), a)
        tiered.store(_tid(2), b)  # demotes tid 1; spill queued
        assert write_started.wait(5)  # the lane worker is inside the write
        # Serve the read while the write is mid-flight and the pool full.
        out = tiered.load(_tid(1), (64, 64), np.dtype(np.float32))
        assert np.array_equal(out, a)
        assert tiered.stats.demotion_forward_hits == 1
        # An unrelated tid is not blocked by the in-flight write either.
        assert np.array_equal(
            tiered.load(_tid(2), (64, 64), np.dtype(np.float32)), b
        )
        write_gate.set()
        assert sched.drain(5)
        # The write landed; a normal SSD read works now.
        assert np.array_equal(
            tiered.load(_tid(1), (64, 64), np.dtype(np.float32)), a
        )
        # release waits for the landed write, then reclaims the file.
        tiered.release(_tid(1))
        assert tiered.ssd.file_store.read_count >= 1
    finally:
        write_gate.set()
        sched.shutdown()
        tiered.shutdown()


def test_drain_covers_cross_lane_resubmission(tmp_path):
    """drain() must not return while work spawned onto an already-checked
    lane is still pending (cpu-lane store -> ssd-lane demotion)."""
    sched = IOScheduler(workers=2)
    data = np.ones((64, 64), dtype=np.float32)
    tiered = build_tier(tmp_path / "t", cpu_pool_bytes=data.nbytes, scheduler=sched)
    try:
        # Submit the pool-overflowing store pair through the cpu lane, the
        # way the cache does, so the demotion is queued from lane work.
        r1 = IORequest(
            lambda: tiered.store(_tid(1), data), kind="store",
            priority=Priority.STORE, nbytes=data.nbytes, lane="cpu",
        )
        r2 = IORequest(
            lambda: tiered.store(_tid(2), data), kind="store",
            priority=Priority.STORE, nbytes=data.nbytes, lane="cpu",
        )
        sched.submit(r1)
        sched.submit(r2)
        assert sched.drain(5)
        # After drain, the demotion's SSD write has fully landed.
        assert sched.pending() == 0
        assert tiered.ssd.file_store.write_count == 1
    finally:
        sched.shutdown()
        tiered.shutdown()


def test_lost_forwarding_race_reload_keeps_counters_exact(gpu, tmp_path):
    """Regression: when the store finished just before forwarding could
    adopt the reference (tensor already dropped), the record falls back
    to a plain reload — the forwarding counters must NOT count that as a
    hit.  The pre-fix code incremented them before resolving the race
    and never rolled them back."""
    offloader = SSDOffloader(tmp_path / "s")
    cache = TensorCache(offloader, policy=_policy())
    try:
        with cache:
            t1 = _tensor(gpu, seed=3)
            tid1 = cache.pack_hook(t1)
            cache.scheduler.drain(5)  # store landed: OFFLOADED, tensor dropped
            rec = cache._find_record(tid1)
            assert rec.state is RecordState.CONSUMED or rec.tensor is None
            # Reconstruct the losing side of the race: the consumer read
            # OFFLOADING before the store-done callback published
            # OFFLOADED, but by the time it acts the job is done and the
            # reference is gone.
            rec.state = RecordState.OFFLOADING
            assert rec.store_job.done_event.is_set()
            assert rec.tensor is None

            out = cache.unpack_hook(tid1)  # must reload, not "forward"
            assert np.array_equal(out.data, t1.data)
            assert cache.stats.forwarded_tensors == 0
            assert cache.accounting.forwarding_hits == 0
            assert cache.stats.loaded_tensors == 1
            assert rec.forwarded is False
            assert rec.state is RecordState.LOADED
    finally:
        cache.shutdown()
