"""Tests for the priority-aware I/O scheduler.

Covers the three tentpole behaviours end to end at the scheduler level:
priority inversion (a blocking load queued behind N stores completes
first), the store-cancellation race (PENDING cancels, RUNNING does not),
and coalesced-store accounting (adjacent small stores run as one batch
and land in one chunk).
"""

import threading
import time

import numpy as np
import pytest

from repro.io import (
    ChunkedTensorStore,
    IORequest,
    IOScheduler,
    Priority,
    TenantQuotaError,
    TenantRegistry,
    UringBackend,
)
from repro.io.aio import JobState
from repro.io.trace import IOTracer
from tests.conftest import block_workers


def _req(fn, kind="store", priority=Priority.STORE, nbytes=0, tid="t", lane="ssd", tenant=None):
    return IORequest(
        fn, kind=kind, priority=priority, tensor_id=tid, nbytes=nbytes, lane=lane, tenant=tenant
    )


def make_scheduler(**kwargs):
    kwargs.setdefault("workers", 2)
    return IOScheduler(**kwargs)


def test_validation():
    with pytest.raises(ValueError):
        IOScheduler(workers=-1)
    with pytest.raises(ValueError):
        IOScheduler(lanes=())
    with pytest.raises(ValueError):
        IOScheduler(coalesce_bytes=-1)
    with pytest.raises(ValueError):
        _req(lambda: None, kind="compact")
    sched = make_scheduler()
    with pytest.raises(ValueError):
        sched.submit(_req(lambda: None, lane="tape"))
    sched.shutdown()


def test_executes_and_drains():
    sched = make_scheduler()
    done = []
    for i in range(8):
        sched.submit(_req(lambda i=i: done.append(i)))
    assert sched.drain(5)
    assert sorted(done) == list(range(8))
    assert sched.pending() == 0
    assert sched.stats.executed == 8
    sched.shutdown()
    with pytest.raises(RuntimeError):
        sched.submit(_req(lambda: None))


# ------------------------------------------------------------------- priority
def test_priority_inversion_blocking_load_overtakes_stores():
    order = []
    gate = threading.Event()
    sched = IOScheduler(workers=2, lanes=("ssd",))
    # Occupy both workers so subsequent submissions stay queued.
    block_workers(sched, gate)
    for i in range(6):
        sched.submit(_req(lambda i=i: order.append(f"s{i}"), nbytes=64, tid=f"s{i}"))
    load = sched.submit(
        _req(
            lambda: order.append("load"),
            kind="load",
            priority=Priority.BLOCKING_LOAD,
            tid="hot",
        )
    )
    gate.set()
    assert sched.drain(5)
    # The blocking load was submitted last but ran before every queued
    # store (priority dequeue), instead of after all of them (FIFO).
    assert order[0] == "load"
    assert load.state is JobState.DONE
    sched.shutdown()


def test_fifo_mode_preserves_submission_order():
    order = []
    gate = threading.Event()
    sched = IOScheduler(
        workers=2, lanes=("ssd",), fifo=True
    )
    block_workers(sched, gate)
    for i in range(6):
        sched.submit(_req(lambda i=i: order.append(f"s{i}"), tid=f"s{i}"))
    sched.submit(
        _req(lambda: order.append("load"), kind="load", priority=Priority.BLOCKING_LOAD)
    )
    gate.set()
    assert sched.drain(5)
    assert order[-1] == "load"  # FIFO: the load waits out the backlog
    sched.shutdown()


def test_priority_scheduler_cuts_blocking_load_latency_vs_fifo():
    """The acceptance metric at the scheduler level: same bandwidth
    (same per-op sleep), same backlog — strictly lower load latency."""

    def run(fifo):
        gate = threading.Event()
        # coalesce_bytes=0 isolates the variable under test: with
        # batching on, one worker drains the whole store backlog as a
        # batch and frees the other for the load even in FIFO mode.
        sched = IOScheduler(
            workers=2,
            lanes=("ssd",),
            fifo=fifo,
            coalesce_bytes=0,
        )
        block_workers(sched, gate)
        for i in range(6):
            sched.submit(_req(lambda: time.sleep(0.02), tid=f"s{i}"))
        t0 = time.monotonic()
        load = sched.submit(
            _req(lambda: None, kind="load", priority=Priority.BLOCKING_LOAD)
        )
        gate.set()
        assert load.wait(5)
        latency = time.monotonic() - t0
        sched.shutdown()
        return latency

    fifo_latency = run(fifo=True)     # waits behind 6 x 20 ms of stores
    priority_latency = run(fifo=False)  # overtakes the whole backlog
    assert priority_latency < fifo_latency
    assert fifo_latency >= 0.05  # sanity: the backlog was real


# --------------------------------------------------------------- cancellation
def test_cancel_pending_store_never_runs():
    ran = []
    gate = threading.Event()
    sched = IOScheduler(workers=2, lanes=("ssd",))
    block_workers(sched, gate)
    victim = sched.submit(_req(lambda: ran.append("victim"), nbytes=128, tid="v"))
    assert sched.cancel(victim)
    assert victim.state is JobState.CANCELLED
    assert victim.done_event.is_set()
    gate.set()
    assert sched.drain(5)
    assert ran == []  # the cancelled store never touched the backend
    assert sched.stats.cancelled == 1
    assert sched.stats.cancelled_stores == 1
    assert sched.stats.cancelled_bytes == 128
    sched.shutdown()


def test_cancel_running_store_fails():
    started = threading.Event()
    release = threading.Event()
    sched = make_scheduler()

    def slow_store():
        started.set()
        release.wait(5)

    job = sched.submit(_req(slow_store))
    assert started.wait(5)
    assert not sched.cancel(job)  # RUNNING: the write is already in flight
    release.set()
    assert job.wait(5)
    assert job.state is JobState.DONE
    assert sched.stats.cancelled == 0
    sched.shutdown()


def test_cancelled_request_fires_done_callback():
    gate = threading.Event()
    sched = IOScheduler(workers=2, lanes=("ssd",))
    block_workers(sched, gate)
    seen = []
    job = sched.submit(_req(lambda: None))
    job.add_done_callback(lambda j: seen.append(j.state))
    sched.cancel(job)
    gate.set()
    sched.drain(5)
    assert seen == [JobState.CANCELLED]
    sched.shutdown()


# ------------------------------------------------------------------ promotion
def test_promote_pending_prefetch_overtakes_stores():
    order = []
    gate = threading.Event()
    sched = IOScheduler(workers=2, lanes=("ssd",))
    block_workers(sched, gate)
    # Demotions sit between loads and stores: a pending prefetch behind a
    # demotion overtakes it once promoted to the blocking class.
    sched.submit(_req(lambda: order.append("demote"), kind="demote", priority=Priority.DEMOTION))
    prefetch = sched.submit(
        _req(lambda: order.append("load"), kind="load", priority=Priority.PREFETCH_LOAD)
    )
    assert sched.promote(prefetch)
    assert prefetch.priority is Priority.BLOCKING_LOAD
    assert sched.stats.promotions == 1
    gate.set()
    assert sched.drain(5)
    assert order == ["load", "demote"]
    sched.shutdown()


def test_promote_noops():
    sched = make_scheduler()
    assert not sched.promote(None)
    job = sched.submit(_req(lambda: None, kind="load", priority=Priority.PREFETCH_LOAD))
    job.wait(5)
    assert not sched.promote(job)  # already finished
    blocking = _req(lambda: None, kind="load", priority=Priority.BLOCKING_LOAD)
    assert not sched.promote(blocking)  # already at the top class
    sched.shutdown()
    fifo = IOScheduler(workers=2, fifo=True)
    pending = _req(lambda: None, kind="load", priority=Priority.PREFETCH_LOAD)
    assert not fifo.promote(pending)  # FIFO mode ignores priority
    fifo.shutdown()


# ----------------------------------------------------------------- coalescing
def test_small_stores_coalesce_into_one_chunk(tmp_path):
    """Adjacent small stores drain as one batch; with a chunked backend
    they land in one chunk file instead of one write each."""
    store = ChunkedTensorStore(tmp_path / "chunks", chunk_bytes=1 << 20)
    gate = threading.Event()
    sched = IOScheduler(
        workers=2,
        lanes=("ssd",),
        coalesce_bytes=1 << 20,
    )
    block_workers(sched, gate)
    data = np.ones((256,), dtype=np.float32)  # 1 KiB each
    for i in range(16):
        sched.submit(
            _req(
                lambda i=i: store.write(f"t{i}", data),
                nbytes=data.nbytes,
                tid=f"t{i}",
            )
        )
    gate.set()
    assert sched.drain(5)
    store.flush()
    assert sched.stats.coalesced_batches >= 1
    assert sched.stats.coalesced_requests >= 8
    # 16 tensors, one open chunk: a single physical write on flush.
    assert store.write_count == 1
    sched.shutdown()
    store.clear()


def test_oversized_store_runs_alone(tmp_path):
    gate = threading.Event()
    sched = IOScheduler(
        workers=2, lanes=("ssd",), coalesce_bytes=1024
    )
    block_workers(sched, gate)
    sched.submit(_req(lambda: None, nbytes=4096))  # > coalesce_bytes
    sched.submit(_req(lambda: None, nbytes=4096))
    gate.set()
    assert sched.drain(5)
    assert sched.stats.coalesced_batches == 0
    sched.shutdown()


def test_coalescing_disabled():
    sched = IOScheduler(workers=2, coalesce_bytes=0)
    for i in range(8):
        sched.submit(_req(lambda: None, nbytes=16, tid=f"t{i}"))
    sched.drain(5)
    assert sched.stats.coalesced_batches == 0
    sched.shutdown()


# -------------------------------------------------------------------- lanes
def test_lanes_are_independent():
    """A store backlog on the SSD lane never delays the CPU lane."""
    gate = threading.Event()
    sched = IOScheduler(workers=2)
    block_workers(sched, gate)
    cpu_done = threading.Event()
    sched.submit(_req(cpu_done.set, lane="cpu"))
    assert cpu_done.wait(2)  # ran while the SSD lane was still gated
    assert sched.pending("cpu") == 0
    assert sched.pending("ssd") == 2
    gate.set()
    assert sched.drain(5)
    sched.shutdown()


def test_submitted_by_class_accounting():
    sched = make_scheduler()
    sched.submit(_req(lambda: None, kind="store", priority=Priority.STORE))
    sched.submit(_req(lambda: None, kind="load", priority=Priority.PREFETCH_LOAD))
    sched.submit(_req(lambda: None, kind="load", priority=Priority.BLOCKING_LOAD))
    sched.drain(5)
    assert sched.stats.submitted == 3
    assert sched.stats.submitted_by_class == {
        "STORE": 1,
        "PREFETCH_LOAD": 1,
        "BLOCKING_LOAD": 1,
    }
    sched.shutdown()


# ------------------------------------------------ coalescing x cancellation
def test_cancelled_batch_member_not_counted_as_coalesced():
    """Regression: a store claimed into a coalesced batch can still lose
    claim() to a concurrent cancel before the worker reaches it.  Booking
    the batch at pop time counted that member as coalesced work that
    never ran; accounting must follow claim()."""
    head_started = threading.Event()
    head_gate = threading.Event()
    gate = threading.Event()
    ran = []
    sched = IOScheduler(workers=2, lanes=("ssd",))
    block_workers(sched, gate)

    def head_fn():
        head_started.set()
        head_gate.wait(5)
        ran.append("head")

    head = sched.submit(_req(head_fn, nbytes=64, tid="head"))
    victim = sched.submit(_req(lambda: ran.append("victim"), nbytes=128, tid="victim"))
    tail = sched.submit(_req(lambda: ran.append("tail"), nbytes=32, tid="tail"))
    gate.set()  # one worker pops the whole batch, blocks inside the head
    assert head_started.wait(5)
    # The batch is popped; the victim is claimed into it but not yet
    # claim()ed — the cancel must win and un-count it.
    assert sched.cancel(victim)
    head_gate.set()
    assert sched.drain(5)
    assert sorted(ran) == ["head", "tail"]
    assert victim.state is JobState.CANCELLED
    assert sched.stats.coalesced_batches == 1
    assert sched.stats.coalesced_requests == 1  # only the tail ran behind the head
    assert sched.stats.coalesced_bytes == 32
    assert sched.stats.cancelled_stores == 1
    assert head.state is JobState.DONE and tail.state is JobState.DONE
    sched.shutdown()


def test_batch_of_one_survivor_counts_no_coalescing():
    """If every trailing member is cancelled before the worker reaches
    it, the batch degenerates to a single store — zero coalescing."""
    head_started = threading.Event()
    head_gate = threading.Event()
    gate = threading.Event()
    sched = IOScheduler(workers=2, lanes=("ssd",))
    block_workers(sched, gate)

    def head_fn():
        head_started.set()
        head_gate.wait(5)

    sched.submit(_req(head_fn, nbytes=64, tid="head"))
    trailing = [sched.submit(_req(lambda: None, nbytes=16, tid=f"t{i}")) for i in range(3)]
    gate.set()
    assert head_started.wait(5)
    for req in trailing:
        assert sched.cancel(req)
    head_gate.set()
    assert sched.drain(5)
    assert sched.stats.coalesced_batches == 0
    assert sched.stats.coalesced_requests == 0
    assert sched.stats.coalesced_bytes == 0
    assert sched.stats.cancelled == 3
    sched.shutdown()


# --------------------------------------------------------------- promotions
def test_promoted_request_stale_heap_entry_runs_once():
    """Promotion unlinks the request from its old class and re-pushes it
    under the new one: exactly one queue entry, exactly one execution."""
    gate = threading.Event()
    ran = []
    sched = IOScheduler(workers=2, lanes=("ssd",))
    block_workers(sched, gate)
    prefetch = sched.submit(
        _req(lambda: ran.append("load"), kind="load", priority=Priority.PREFETCH_LOAD)
    )
    sched.submit(_req(lambda: ran.append("store"), nbytes=64))
    assert sched.promote(prefetch)
    gate.set()
    assert sched.drain(5)
    assert sorted(ran) == ["load", "store"]  # no double execution
    assert sched.stats.executed == 4  # 2 gates + load + store, nothing twice
    assert sched.stats.submitted == 4
    sched.shutdown()


def test_stale_entry_skipped_inside_batch_scan():
    """A promoted store pops as the batch head from its new class; the
    batch scan behind it must not meet it again in its old class, and
    must keep coalescing the plain stores."""
    gate = threading.Event()
    ran = []
    sched = IOScheduler(workers=2, lanes=("ssd",))
    block_workers(sched, gate)
    head = sched.submit(_req(lambda: ran.append("head"), nbytes=64, tid="head"))
    sched.submit(_req(lambda: ran.append("b"), nbytes=16, tid="b"))
    sched.submit(_req(lambda: ran.append("c"), nbytes=16, tid="c"))
    # Raise the head one class (store -> demotion): it pops first, and
    # the batch scan then walks the STORE class it used to sit in.
    assert sched.promote(head, Priority.DEMOTION)
    gate.set()
    assert sched.drain(5)
    assert sorted(ran) == ["b", "c", "head"]
    assert ran[0] == "head"  # promoted: ran before the plain stores
    assert sched.stats.coalesced_batches == 1
    assert sched.stats.coalesced_requests == 2
    assert sched.stats.promotions == 1
    sched.shutdown()


def test_lone_tenant_large_request_served_without_drr_rounds():
    """Registry-less scheduler: every request is the default tenant's, a
    ring of one.  A 4 MiB head (64 quanta) is served directly, without
    consulting the weight once."""
    gate = threading.Event()
    ran = []
    sched = IOScheduler(workers=2, lanes=("ssd",))

    def no_weight(name):
        raise AssertionError("a ring of one must not run DRR rounds")

    sched.tenants.weight = no_weight
    block_workers(sched, gate)
    big = sched.submit(_req(lambda: ran.append("big"), nbytes=4 << 20, tid="big"))
    small = sched.submit(_req(lambda: ran.append("small"), nbytes=64, tid="small"))
    gate.set()
    assert sched.drain(5)
    assert big.state is JobState.DONE and small.state is JobState.DONE
    assert sorted(ran) == ["big", "small"]
    sched.shutdown()


# ------------------------------------------------------------------- drain
def test_drain_timeout_expires_with_work_in_flight():
    gate = threading.Event()
    sched = make_scheduler()
    sched.submit(_req(gate.wait, nbytes=8))
    t0 = time.monotonic()
    assert not sched.drain(timeout=0.2)
    assert time.monotonic() - t0 >= 0.2
    assert sched.pending() == 1
    gate.set()
    assert sched.drain(5)
    assert sched.pending() == 0
    sched.shutdown()


def test_drain_zero_timeout_on_busy_scheduler():
    gate = threading.Event()
    sched = make_scheduler()
    sched.submit(_req(gate.wait))
    assert not sched.drain(timeout=0)
    gate.set()
    assert sched.drain(5)
    sched.shutdown()


# ---------------------------------------------------------------- shutdown
def test_shutdown_under_load_stress():
    """Shutdown racing a storm of submitters from several threads: every
    accepted request reaches a terminal state, the workers exit, and
    late submitters get a clean RuntimeError instead of a hang."""
    sched = IOScheduler(workers=4)
    accepted = []
    accepted_lock = threading.Lock()
    rejections = []

    backlog = threading.Event()

    def submitter(lane):
        for i in range(100):
            try:
                req = sched.submit(
                    _req(lambda: time.sleep(0.0005), nbytes=16, tid=f"{lane}{i}", lane=lane)
                )
            except RuntimeError:
                rejections.append(1)
                return
            with accepted_lock:
                accepted.append(req)
                if len(accepted) >= 40:
                    backlog.set()  # a real backlog exists; shutdown may race

    threads = [
        threading.Thread(target=submitter, args=(lane,))
        for lane in ("ssd", "cpu", "ssd", "cpu")
    ]
    for t in threads:
        t.start()
    assert backlog.wait(5)  # shutdown races live submitters, not an empty queue
    sched.shutdown()
    for t in threads:
        t.join(timeout=5)
        assert not t.is_alive()
    for worker in sched._workers:
        assert not worker.is_alive()
    assert all(req.done_event.is_set() for req in accepted)
    assert sched.pending() == 0
    with pytest.raises(RuntimeError):
        sched.submit(_req(lambda: None))
    sched.shutdown()  # idempotent


def test_concurrent_shutdown_calls_are_idempotent():
    sched = make_scheduler()
    for i in range(16):
        sched.submit(_req(lambda: time.sleep(0.001), tid=f"t{i}"))
    threads = [threading.Thread(target=sched.shutdown) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5)
        assert not t.is_alive()
    assert sched.stats.executed == 16


def test_workers_zero_runs_nothing_until_the_caller_serves_a_lane():
    """With no lane workers the caller is the worker loop: each
    ``serve_next`` runs one dequeued request, in the production dequeue
    order, on the calling thread."""
    sched = IOScheduler(workers=0, name="zero-workers")
    assert not [t for t in threading.enumerate() if t.name.startswith("zero-workers")]
    ran = []
    for i in range(2):
        sched.submit(_req(lambda i=i: ran.append(("store", i)), tid=f"s{i}"))
    sched.submit(_req(lambda: ran.append(("load", threading.current_thread())),
                      kind="load", priority=Priority.BLOCKING_LOAD))
    assert ran == [] and sched.pending("ssd") == 3
    assert sched.serve_next("ssd")
    assert ran == [("load", threading.current_thread())]  # the load overtook
    while sched.serve_next("ssd"):
        pass
    assert ran[1:] == [("store", 0), ("store", 1)]
    assert not sched.serve_next("ssd") and sched.pending() == 0
    assert sched.stats.executed == 3
    sched.shutdown()


def test_workers_zero_shutdown_finishes_queued_work_without_hanging():
    sched = IOScheduler(workers=0)
    requests = [sched.submit(_req(lambda: None, tid=f"t{i}")) for i in range(4)]
    closer = threading.Thread(target=sched.shutdown)
    closer.start()
    closer.join(timeout=5)
    assert not closer.is_alive()
    assert all(r.state is JobState.DONE for r in requests)
    assert sched.pending() == 0 and sched.stats.executed == 4


# ------------------------------------------------ a waiter runs its request
# ``IORequest.wait()`` without a timeout runs a request no lane worker
# has claimed yet on the waiting thread, through the queued path's own
# books, events and claim-vs-cancel race.
def test_a_waiter_runs_its_request_on_a_scheduler_without_workers():
    """``submit(r).wait()`` on ``workers=0`` returns ``r`` DONE instead
    of blocking forever; a helper thread keeps a regression a failure."""
    sched = IOScheduler(workers=0)
    seen = {}

    def waiter():
        load = _req(threading.get_ident, kind="load", priority=Priority.BLOCKING_LOAD)
        request = sched.submit(load)
        seen["waited"] = request.wait()
        seen["request"] = request

    thread = threading.Thread(target=waiter, daemon=True)
    thread.start()
    thread.join(5)
    try:
        assert not thread.is_alive(), "wait() on a workers=0 scheduler deadlocked"
        request = seen["request"]
        assert seen["waited"] and request.state is JobState.DONE
        assert request.result == thread.ident
        assert sched.pending() == 0 and sched.stats.executed == 1
    finally:
        sched.shutdown()


@pytest.mark.parametrize("backend", [None, UringBackend], ids=["thread", "uring"])
def test_a_waiter_runs_an_unclaimed_request_on_its_own_thread(backend):
    """Every worker is held, so nobody else can run ``r``: the waiter
    does, in ``r``'s tenant scope, with one event of each kind, and
    settles it itself under either backend."""
    from repro.io.tenancy import current_tenant

    sched = make_scheduler(tenants=TenantRegistry(), backend=backend() if backend else None)
    gate = threading.Event()
    events, ran = [], []
    try:
        block_workers(sched, gate)
        sched.add_listener(lambda event, req: events.append((event, req.tensor_id)))
        body = lambda: ran.append((threading.get_ident(), current_tenant())) or "ok"
        request = sched.submit(_req(body, "load", Priority.PREFETCH_LOAD, tid="r", tenant="t"))
        assert request.wait() and request.result == "ok"
        assert ran == [(threading.get_ident(), "t")]
        assert current_tenant() == "default"  # the scope ended with the body
        gate.set()
        assert sched.drain(5) and sched.pending() == 0
        assert [event for event, tid in events if tid == "r"] == ["submit", "start", "done"]
        stats = sched.stats_snapshot()
        assert stats.submitted == stats.executed == 3  # two gates and r
        assert sched.tenants.stats_of("t").executed == 1
        assert sched.backend_stats_snapshot()["ssd"].reaped == (2 if backend else 0)  # the gates
    finally:
        gate.set()
        sched.shutdown()


def test_a_waiter_runs_nothing_cancelled_and_a_timed_wait_runs_nothing():
    sched = make_scheduler()
    gate = threading.Event()
    ran = []
    try:
        block_workers(sched, gate)
        cancelled = sched.submit(_req(lambda: ran.append("cancelled"), tid="c"))
        assert sched.cancel(cancelled)
        assert cancelled.wait() and cancelled.state is JobState.CANCELLED
        timed = sched.submit(_req(lambda: ran.append(threading.get_ident()), tid="w"))
        assert not timed.wait(timeout=0.05)
        assert timed.state is JobState.PENDING and ran == []
        gate.set()
        assert timed.wait(5) and ran and ran[0] != threading.get_ident()  # a worker ran it
        assert sched.drain(5)
        stats = sched.stats_snapshot()
        assert (stats.submitted, stats.executed, stats.cancelled) == (4, 3, 1)
    finally:
        gate.set()
        sched.shutdown()


def test_submit_and_wait_runs_each_body_exactly_once():
    """Waiters race free workers for 500 requests, loads and coalescible
    stores, under a shortened switch interval: whoever claims, each
    body runs once and the books reconcile."""
    import sys

    sched = make_scheduler(tenants=TenantRegistry())
    runs = [0] * 500

    def request(i):
        kind, priority = ("store", Priority.STORE) if i % 2 else ("load", Priority.PREFETCH_LOAD)
        return _req(lambda: runs.__setitem__(i, runs[i] + 1), kind, priority, 64, f"t{i}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for i in range(0, len(runs), 2):
            pair = [sched.submit(request(i)), sched.submit(request(i + 1))]
            for submitted in pair:
                assert submitted.wait() and submitted.state is JobState.DONE
        assert sched.drain(5) and sched.pending() == 0
    finally:
        sys.setswitchinterval(interval)
        sched.shutdown()
    assert runs == [1] * len(runs)
    stats = sched.stats_snapshot()
    assert stats.submitted == stats.executed == len(runs)
    assert (stats.failed, stats.cancelled) == (0, 0)
    assert sched.tenants.stats_of("default").executed == len(runs)


def test_a_fifo_waiter_leaves_its_request_in_submission_order():
    """FIFO mode keeps strict submission order: an untimed wait on a
    queued urgent load does not run it ahead of the store before it."""
    sched = make_scheduler(fifo=True, workers=1)
    gate = threading.Event()
    order = []
    try:
        block_workers(sched, gate)
        first = sched.submit(_req(lambda: order.append("a"), tid="a"))
        body = lambda: order.append(("b", threading.get_ident()))
        second = sched.submit(_req(body, "load", Priority.BLOCKING_LOAD, tid="b"))
        waiter = threading.Thread(target=second.wait, daemon=True)
        waiter.start()
        waiter.join(0.2)
        assert waiter.is_alive() and order == []  # the waiter did not run b
        gate.set()
        waiter.join(5)
        assert not waiter.is_alive() and first.state is second.state is JobState.DONE
        assert order[0] == "a" and order[1][0] == "b" and order[1][1] != waiter.ident
    finally:
        gate.set()
        sched.shutdown()


def test_a_fifo_waiter_without_workers_serves_the_lane_in_order():
    """With ``workers=0`` the FIFO waiter is the lane's worker: it runs
    every request queued before its own, in order, then its own."""
    sched = IOScheduler(workers=0, fifo=True)
    order = []
    requests = [
        sched.submit(_req(lambda: order.append("a"), tid="a")),
        sched.submit(_req(lambda: order.append("b"), "load", Priority.BLOCKING_LOAD, tid="b")),
        sched.submit(_req(lambda: order.append("c"), tid="c")),
    ]
    waiter = threading.Thread(target=requests[1].wait, daemon=True)
    waiter.start()
    waiter.join(5)
    try:
        assert not waiter.is_alive(), "wait() on a workers=0 FIFO scheduler deadlocked"
        assert order == ["a", "b"] and requests[2].state is JobState.PENDING
        assert sched.pending() == 1
    finally:
        sched.shutdown()


# ------------------------------------------------------ completion telemetry
# The scheduler exports one thing per executed request, the "done"
# event; IOTracer is the listener that aggregates it per (lane, channel).
# Each test reads the tracer after shutdown(): the workers are joined,
# so every done event has been delivered.
def _traced(sched):
    tracer = IOTracer()
    tracer.listen(sched)
    return tracer


def test_tracer_aggregates_done_events_per_lane_and_channel():
    """Per-(lane, channel) bytes/count/busy from the done events."""
    sched = IOScheduler(workers=2)
    tracer = _traced(sched)
    sched.submit(_req(lambda: time.sleep(0.002), nbytes=1024, tid="w"))
    sched.submit(
        _req(lambda: time.sleep(0.002), kind="load", priority=Priority.BLOCKING_LOAD,
             nbytes=2048, tid="r")
    )
    sched.submit(_req(lambda: None, kind="demote", priority=Priority.DEMOTION,
                      nbytes=256, tid="d"))
    sched.submit(_req(lambda: None, nbytes=512, tid="c", lane="cpu"))
    assert sched.drain(5)
    sched.shutdown()
    channels = tracer.channels()
    ssd_write = channels["ssd", "write"]
    assert ssd_write.nbytes == 1024 + 256  # stores and demotions share the channel
    assert ssd_write.count == 2
    assert ssd_write.busy_s > 0
    ssd_read = channels["ssd", "read"]
    assert ssd_read.nbytes == 2048 and ssd_read.count == 1
    assert channels["cpu", "write"].nbytes == 512
    assert {e.kind for e in tracer.events} == {"store", "load", "demote"}
    assert all(e.end_s >= e.start_s for e in tracer.events)
    stats = tracer.stats()
    assert stats.store_bytes == 1024 + 256 + 512 and stats.store_bandwidth > 0
    # reset() starts the next window empty.
    tracer.reset()
    assert tracer.channels() == {}


def test_cancelled_requests_never_reach_completion_stats():
    gate = threading.Event()
    sched = IOScheduler(workers=2, lanes=("ssd",))
    tracer = _traced(sched)
    block_workers(sched, gate)
    victim = sched.submit(_req(lambda: None, nbytes=4096, tid="v"))
    assert sched.cancel(victim)
    gate.set()
    assert sched.drain(5)
    sched.shutdown()
    assert ("ssd", "write") not in tracer.channels()
    assert [(e.kind, e.tensor_id) for e in tracer.events if e.kind != "load"] == [("cancel", "v")]


def test_idle_tracer_reports_no_channel_and_no_bandwidth():
    """A tracer that saw nothing reports no channel and no bandwidth."""
    idle = IOTracer()
    assert idle.channels() == {}
    assert idle.stats().store_bandwidth == 0.0 and idle.stats().load_bandwidth == 0.0


def test_busy_time_is_interval_union_not_per_request_sum():
    """Regression: with several workers draining one lane concurrently,
    busy_s must be the union of execution intervals — summing each
    request's wall duration would overcount the overlap and understate
    the observed bandwidth by up to the concurrency factor."""
    # coalesce_bytes=0: coalescing would drain all four on one worker
    # sequentially, which is exactly the non-overlapping case.
    sched = IOScheduler(
        workers=4, lanes=("ssd",), coalesce_bytes=0
    )
    tracer = _traced(sched)
    for i in range(4):  # 4 workers run these ~concurrently
        sched.submit(_req(lambda: time.sleep(0.05), nbytes=1024, tid=f"t{i}"))
    assert sched.drain(5)
    sched.shutdown()
    window = tracer.channels()["ssd", "write"]
    assert window.count == 4 and window.nbytes == 4096
    # Union of 4 overlapping ~50 ms intervals: well under the 200 ms a
    # per-request sum would record, and at least one interval long.
    assert 0.045 <= window.busy_s < 0.15


def test_observers_on_one_scheduler_see_the_same_windows():
    """Nothing is drained: two tracers on one scheduler aggregate the
    same done events, and reading one leaves the other's windows whole."""
    sched = IOScheduler(workers=2)
    tracers = [_traced(sched), _traced(sched)]
    sched.submit(_req(lambda: time.sleep(0.002), nbytes=1000, tid="w"))
    sched.submit(_req(lambda: time.sleep(0.002), kind="load",
                      priority=Priority.BLOCKING_LOAD, nbytes=300, tid="r", lane="cpu"))
    assert sched.drain(5)
    sched.shutdown()
    first = tracers[0].stats()
    tracers[0].reset()
    seen = tracers[1].stats()
    assert len(tracers[1].events) == 2
    assert (seen.store_bytes, seen.load_bytes, seen.load_count) == (1000, 300, 1)
    assert (first.store_bytes, first.load_bytes, first.load_count) == (1000, 300, 1)
    # Each tracer times from its own epoch: the same intervals, up to rounding.
    assert seen.store_busy_s == pytest.approx(first.store_busy_s) and seen.store_busy_s > 0
    assert seen.load_busy_s == pytest.approx(first.load_busy_s) and seen.load_busy_s > 0


class _StatsLockSpy:
    """Counts acquisitions of ``IOScheduler._stats_lock`` (cf.
    ``tests/conftest.py::TierLockSpy``)."""

    def __init__(self, lock):
        self._lock = lock
        self.acquires = 0

    def __enter__(self):
        self.acquires += 1
        return self._lock.__enter__()

    def __exit__(self, *exc):
        return self._lock.__exit__(*exc)


@pytest.mark.parametrize("backend", [None, UringBackend], ids=["thread", "uring"])
def test_default_scheduler_takes_the_stats_lock_twice_per_request(backend):
    """submit books the request, its completion books the outcome;
    starting and finishing it take no scheduler lock (4 holds per
    request before the windows left the request path, 5 under uring)."""
    sched = IOScheduler(backend=backend() if backend else None)
    spy = sched._stats_lock = _StatsLockSpy(sched._stats_lock)
    total = 40
    for i in range(total):  # loads: a coalesced store books its batch under the lock too
        sched.submit(_req(lambda: None, "load", Priority.PREFETCH_LOAD, 64, f"t{i}"))
    assert sched.drain(5)
    assert sched.stats.executed == total
    assert spy.acquires <= 2 * total
    sched.shutdown()


# ------------------------------------------------- the synchronous entry
def _load(fn, nbytes, tenant, tid="t"):
    return _req(fn, "load", Priority.BLOCKING_LOAD, nbytes, tid, lane="cpu", tenant=tenant)


def _books(sched, events, tracer):
    """Everything ``submit()`` and ``run_inline()`` must agree on."""
    stats = sched.stats_snapshot()
    assert stats.submitted == stats.executed + stats.failed + stats.cancelled
    windows = {key: (use.count, use.nbytes) for key, use in tracer.channels().items()}
    health = {
        lane: (s.failures, s.consecutive_failures, s.dead)
        for lane, s in sched.health.snapshot().items()
    }
    tenant_health = {
        key: (s.failures, s.consecutive_failures)
        for key, s in sched.health.tenant_snapshot().items()
    }
    backend = {
        lane: (s.batches, s.batched_requests, s.reaped)
        for lane, s in sched.backend_stats_snapshot().items()
    }
    tenants = {name: vars(s) for name, s in sched.tenants.stats_snapshot().items()}
    return stats, tenants, windows, health, tenant_health, backend, sorted(events)


def _same_requests(run, threads):
    """Five loads for two tenants, one of them failing, through ``run``."""
    registry = TenantRegistry()
    registry.register("a", byte_quota=1000)
    registry.register("b")
    sched = make_scheduler(tenants=registry)
    events = []
    sched.add_listener(lambda event, req: events.append((req.tensor_id, event)))
    tracer = _traced(sched)

    def body(i):
        threads.append(threading.get_ident())
        if i == 3:
            raise ValueError("boom")  # not retryable: fails on the first attempt
        return i

    try:
        requests = [
            _load(lambda i=i: body(i), 100 * (i + 1), "ab"[i % 2], tid=f"t{i}") for i in range(5)
        ]
        for request in requests:
            run(sched, request)
            assert request.done_event.is_set()
        assert sched.pending() == 0 and sched.drain(1)
        assert [r.state for r in requests] == [
            JobState.FAILED if i == 3 else JobState.DONE for i in range(5)
        ]
        assert [r.result for r in requests] == [0, 1, 2, None, 4]
        assert isinstance(requests[3].error, ValueError)
        sched.shutdown()  # workers joined: every done event is delivered
        return _books(sched, events, tracer)
    finally:
        sched.shutdown()


def test_run_inline_runs_on_the_caller_and_keeps_submits_books():
    queued_threads, inline_threads = [], []
    queued = _same_requests(lambda sched, req: sched.submit(req).wait(5), queued_threads)
    inline = _same_requests(lambda sched, req: sched.run_inline(req), inline_threads)
    me = threading.get_ident()
    assert inline_threads == [me] * 5
    assert me not in queued_threads
    assert inline == queued
    stats, tenants, windows, health, tenant_health, backend, events = inline
    assert (stats.submitted, stats.executed, stats.failed, stats.failed_bytes) == (5, 4, 1, 400)
    assert stats.submitted_by_class == {"BLOCKING_LOAD": 5}
    assert windows == {("cpu", "read"): (4, 100 + 200 + 300 + 500)}
    assert tenants["b"]["failed"] == 1 and tenants["b"]["executed"] == 1
    # Tenant "a" is charged its three loads and nothing was refunded.
    assert tenants["a"]["quota_charged_bytes"] == 100 + 300 + 500
    assert tenants["a"]["quota_refunded_bytes"] == 0
    assert events == sorted(
        (f"t{i}", event) for i in range(5) for event in ("submit", "start", "done")
    )


def test_run_inline_failure_is_booked_and_refunds_quota():
    registry = TenantRegistry()
    registry.register("q", byte_quota=100)
    sched = make_scheduler(tenants=registry)
    try:
        def boom():
            raise ValueError("boom")

        failed = sched.run_inline(_load(boom, 60, "q"))
        assert failed.state is JobState.FAILED and isinstance(failed.error, ValueError)
        assert sched.stats.failed == 1 and sched.stats.failed_bytes == 60
        books = registry.stats_of("q")
        assert (books.submitted, books.failed, books.quota_in_use_bytes) == (1, 1, 0)
        # The refund is what lets the next 60 bytes in; a third 60 is over.
        assert sched.run_inline(_load(lambda: "ok", 60, "q")).result == "ok"
        with pytest.raises(TenantQuotaError):
            sched.run_inline(_load(lambda: "no", 60, "q"))
        books = registry.stats_of("q")
        assert (books.submitted, books.executed, books.rejected) == (2, 1, 1)
        assert sched.stats.submitted == 2
        assert sched.pending() == 0 and sched.drain(1)
    finally:
        sched.shutdown()


def test_run_inline_refused_after_shutdown_rolls_the_tenant_books_back():
    registry = TenantRegistry()
    registry.register("q", byte_quota=100)
    sched = make_scheduler(tenants=registry)
    sched.shutdown()
    request = _load(lambda: None, 60, "q")
    with pytest.raises(RuntimeError, match="shut down"):
        sched.run_inline(request)
    assert request.state is JobState.PENDING  # never claimed, never run
    books = registry.stats_of("q")
    assert (books.submitted, books.submitted_bytes, books.quota_in_use_bytes) == (0, 0, 0)
    assert sched.stats.submitted == 0 and sched.pending() == 0


def test_run_inline_settles_on_the_caller_under_the_reaper_backend():
    sched = make_scheduler(backend=UringBackend())
    try:
        settled_on = []
        inline = _load(lambda: "inline", 64, None, tid="i")
        inline.add_done_callback(lambda job: settled_on.append(threading.get_ident()))
        assert sched.run_inline(inline).result == "inline"
        assert settled_on == [threading.get_ident()]
        lanes = sched.backend_stats_snapshot()
        assert lanes["cpu"].batches == 1 and lanes["cpu"].reaped == 0
        # The queued path on the same scheduler still goes through the reaper.
        queued = sched.submit(_load(lambda: "queued", 64, None, tid="q"))
        assert queued.wait(5) and sched.drain(5)
        assert sched.backend_stats_snapshot()["cpu"].reaped == 1
        assert sched.stats.executed == 2
    finally:
        sched.shutdown()


def test_a_backend_raising_after_a_hand_off_leaves_the_member_to_its_reaper(monkeypatch):
    """``_run_batch``'s containment fails only a member the backend left
    running without handing it off: one already on the reaper's queue is
    settled there, once, with one ``done`` event."""
    backend = UringBackend()
    sched = IOScheduler(workers=1, lanes=("ssd",), backend=backend)
    gate, reaper_parked, behind_ran = threading.Event(), threading.Event(), threading.Event()
    done = {}

    def listener(event, request):
        if event == "done":
            done[request.tensor_id] = done.get(request.tensor_id, 0) + 1
            if request.tensor_id == "park":  # hold the reaper here
                reaper_parked.set()
                gate.wait(5)

    sched.add_listener(listener)
    real_hand_off = backend._hand_off

    def hand_off_then_raise(batch, request, result, error):
        real_hand_off(batch, request, result, error)
        if request.tensor_id == "victim":
            raise RuntimeError("backend bug after the hand-off")

    try:
        sched.submit(_req(lambda: None, "load", Priority.BLOCKING_LOAD, 64, "park"))
        assert reaper_parked.wait(5)
        monkeypatch.setattr(backend, "_hand_off", hand_off_then_raise)
        victim = sched.submit(_req(lambda: "v", "load", Priority.BLOCKING_LOAD, 64, "victim"))
        # One worker: "behind" runs only once the victim's containment is over.
        sched.submit(_req(behind_ran.set, "load", Priority.BLOCKING_LOAD, 64, "behind"))
        assert behind_ran.wait(5)
        assert victim.state is JobState.RUNNING  # queued for the reaper, not failed
        gate.set()
        assert sched.drain(5)
        assert victim.state is JobState.DONE and victim.result == "v"
        assert done == {"park": 1, "victim": 1, "behind": 1}
        stats = sched.stats_snapshot()
        assert (stats.executed, stats.failed) == (3, 0)
    finally:
        gate.set()
        sched.shutdown()


def test_run_inline_races_the_queued_path_and_the_books_still_reconcile():
    """Eight callers mix inline and queued requests on one lane under a
    shortened switch interval: a lost update on ``pending``, the stats or
    a tenant's books would leave ``drain()`` hanging or a count short."""
    import sys

    registry = TenantRegistry()
    sched = make_scheduler(tenants=registry, lanes=("cpu",))
    tracer = _traced(sched)
    callers, per_caller = 8, 150
    ran = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        def caller(c):
            for i in range(per_caller):
                request = _load(lambda: ran.append(1), 64, f"tenant{c % 3}", tid=f"c{c}-{i}")
                if i % 2:
                    sched.run_inline(request)
                    assert request.state is JobState.DONE
                else:
                    sched.submit(request)

        threads = [threading.Thread(target=caller, args=(c,)) for c in range(callers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not any(thread.is_alive() for thread in threads)
        assert sched.drain(10) and sched.pending() == 0
    finally:
        sys.setswitchinterval(interval)
        sched.shutdown()
    total = callers * per_caller
    stats = sched.stats_snapshot()
    assert (stats.submitted, stats.executed, stats.failed, stats.cancelled) == (total, total, 0, 0)
    assert len(ran) == total
    tenants = registry.stats_snapshot()
    assert sum(t.submitted for t in tenants.values()) == total
    assert all(t.submitted == t.executed for t in tenants.values())
    assert tracer.channels()["cpu", "read"].count == total
