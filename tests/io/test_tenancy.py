"""Fairness and isolation battery for the multi-tenant QoS layer.

The three headline bars (the PR's acceptance numbers):

- equal-weight tenants under contention split the shared lane with a
  Jain fairness index >= 0.9 (FIFO measurably lower);
- weighted tenants get bandwidth proportional to weight within 20%;
- a byte-quota-capped tenant never executes a byte past its budget.

Plus the supporting unit surface: tenant scopes, registry admission
books, DRR no-starvation, over-quota rejection, per-tenant telemetry,
tenant-scoped lane health and tiered-SSD death isolation, per-tenant
placement hooks, pool/arena per-tenant accounting, and the
regression guard that the default (single-tenant) path dequeues in
exactly the pre-tenancy order (priority class, then submission order),
and that ``fifo=True`` is strict submission order even with a registry.
"""

import threading

import numpy as np
import pytest

from repro.core.ids import TensorID
from repro.core.offloader import CPUOffloader, PinnedMemoryPool, SSDOffloader
from repro.core.policy import OffloadPolicy, Tier
from repro.io import (
    BufferArena,
    IORequest,
    IOScheduler,
    Priority,
    TenantContext,
    TenantQuotaError,
    TenantRegistry,
    current_tenant,
    jain_index,
    tenant_scope,
)
from repro.io.errors import PermanentIOError
from repro.io.health import LaneHealthTracker
from repro.io.scheduler import _FairQueue
from repro.io.tenancy import DEFAULT_TENANT
from repro.sim.step_sim import MultiTenantHarness, TenantJobSpec
from tests.conftest import build_tier


def _req(fn, kind="store", priority=Priority.STORE, nbytes=0, tid="t",
         lane="ssd", tenant=None):
    return IORequest(
        fn, kind=kind, priority=priority, tensor_id=tid, nbytes=nbytes,
        lane=lane, tenant=tenant,
    )


def _block_worker(sched, gate, n=2, lane="ssd"):
    """Park the lane's ``n`` workers on ``gate`` so later submissions
    stay queued (same barrier idiom as test_scheduler — the gate jobs
    are blocking loads, which dequeue first and never coalesce)."""
    barrier = threading.Barrier(n + 1)

    def hold():
        barrier.wait(5)
        gate.wait(5)

    reqs = []
    for i in range(n):
        req = _req(hold, kind="load", priority=Priority.BLOCKING_LOAD,
                   tid=f"gate{i}", lane=lane)
        sched.submit(req)
        reqs.append(req)
    barrier.wait(5)
    return reqs


# ---------------------------------------------------------------- scopes


def test_tenant_scope_defaults_and_nesting():
    assert current_tenant() == DEFAULT_TENANT
    with tenant_scope("a"):
        assert current_tenant() == "a"
        with tenant_scope("b"):
            assert current_tenant() == "b"
        assert current_tenant() == "a"
    assert current_tenant() == DEFAULT_TENANT


def test_request_inherits_scope_tenant():
    with tenant_scope("teamX"):
        req = _req(lambda: None)
    assert req.tenant == "teamX"
    assert _req(lambda: None, tenant="explicit").tenant == "explicit"
    assert _req(lambda: None).tenant == DEFAULT_TENANT


def test_worker_executes_in_request_tenant_scope():
    seen = {}
    sched = IOScheduler(
        workers=2, lanes=("ssd",),
        tenants=TenantRegistry(),
    )
    try:
        sched.submit(_req(lambda: seen.setdefault("t", current_tenant()),
                          tenant="worker-scope"))
        sched.drain()
    finally:
        sched.shutdown()
    assert seen["t"] == "worker-scope"


# -------------------------------------------------------------- registry


def test_registry_register_and_weight():
    reg = TenantRegistry()
    reg.register("a", weight=2.0)
    reg.register(TenantContext(name="b", weight=0.5))
    assert reg.weight("a") == 2.0
    assert reg.weight("b") == 0.5
    assert reg.weight("unknown") == 1.0
    with pytest.raises(ValueError):
        TenantContext(name="bad", weight=0.0)


def test_jain_index_edges():
    assert jain_index([]) == 1.0
    assert jain_index([0.0, 0.0]) == 1.0
    assert jain_index([5, 5, 5, 5]) == pytest.approx(1.0)
    assert jain_index([1, 0, 0, 0]) == pytest.approx(0.25)


def test_registry_quota_charge_and_refund_books():
    reg = TenantRegistry()
    reg.register("q", byte_quota=100)
    assert reg.admit("q", 60) == "ok"
    assert reg.admit("q", 60) == "reject"  # over budget
    stats = reg.stats_of("q")
    assert stats.quota_in_use_bytes == 60
    assert stats.rejected == 1 and stats.rejected_bytes == 60
    # Executed work stays charged (the quota is a cumulative admission
    # budget); only cancellations/failures refund.
    with reg.lock:
        reg.finish_locked("q", "executed", 60, retries=0)
    assert reg.stats_of("q").quota_in_use_bytes == 60
    assert reg.admit("q", 60) == "reject"
    assert reg.admit("q", 40) == "ok"  # fills the quota
    assert reg.admit("q", 40) == "reject"
    with reg.lock:  # a cancelled (or failed) request's outcome carries its refund
        reg.finish_locked("q", "cancelled", 40)
    assert reg.admit("q", 40) == "ok"
    stats = reg.stats_of("q")
    assert (stats.submitted, stats.executed, stats.cancelled) == (3, 1, 1)
    assert stats.quota_in_use_bytes == 100


# ------------------------------------------------------- fairness bars


def _equal_jobs(n=4, tensors=24, nbytes=48 << 10):
    return [TenantJobSpec(name=f"job{i}", num_tensors=tensors,
                          tensor_bytes=nbytes) for i in range(n)]


def test_equal_weight_contention_jain_bar():
    """Bar 1: equal tenants split the contended window, Jain >= 0.9."""
    fair = MultiTenantHarness(_equal_jobs(), fair=True).run()
    fifo = MultiTenantHarness(_equal_jobs(), fair=False).run()
    assert fair.contended_jain >= 0.9, fair.contended_jain
    # The naive-FIFO baseline is measurably less fair: sequential bursts
    # serve the first tenant to completion before touching the rest.
    assert fifo.contended_jain < fair.contended_jain - 0.05


def test_weighted_tenants_bandwidth_proportional_bar():
    """Bar 2: contended-window service tracks weight within 20%."""
    jobs = [
        TenantJobSpec(name="heavy", weight=2.0, num_tensors=40,
                      tensor_bytes=32 << 10),
        TenantJobSpec(name="light", weight=1.0, num_tensors=40,
                      tensor_bytes=32 << 10),
    ]
    result = MultiTenantHarness(jobs, fair=True).run()
    shares = {m.name: m.contended_bytes for m in result.tenants.values()}
    ratio = shares["heavy"] / shares["light"]
    assert 2.0 * 0.8 <= ratio <= 2.0 * 1.2, ratio


def test_quota_capped_tenant_never_exceeds_budget_bar():
    """Bar 3: a byte-quota tenant executes at most its budget."""
    quota = 6 * (64 << 10)
    jobs = [
        TenantJobSpec(name="capped", num_tensors=20, tensor_bytes=64 << 10,
                      byte_quota=quota),
        TenantJobSpec(name="free", num_tensors=20, tensor_bytes=64 << 10),
    ]
    result = MultiTenantHarness(jobs, fair=True).run()
    capped = result.tenants["capped"]
    assert capped.executed_bytes <= quota
    assert capped.executed_bytes == quota  # budget fully usable, too
    assert capped.rejected_bytes == 20 * (64 << 10) - quota
    free = result.tenants["free"]
    assert free.executed_bytes == 20 * (64 << 10)  # uncapped tenant whole


# ----------------------------------------------------- DRR mechanics


def test_drr_no_starvation_bounded_wait():
    """A one-request tenant is served within its deficit bound even
    while a heavy tenant floods the same class."""
    reg = TenantRegistry(quantum_bytes=1024)
    reg.register("heavy", weight=1.0)
    reg.register("tiny", weight=1.0)
    queue = _FairQueue(reg)
    for i in range(64):
        queue.push(_req(lambda: None, nbytes=1024, tid=f"h{i}", tenant="heavy"))
    queue.push(_req(lambda: None, nbytes=512, tid="t0", tenant="tiny"))
    order = []
    while True:
        popped = queue.pop()
        if popped is None:
            break
        order.append(popped.tenant)
    served_at = order.index("tiny")
    # One quantum covers the tiny request: it must land within the first
    # ring pass (heavy can burst at most ceil(quantum/1024)=1 ahead of
    # the pointer arrival, plus scheduling slack).
    assert served_at <= 2, order[:8]
    assert len(order) == 65


def test_drr_weighted_byte_shares():
    """Byte shares over one contended drain track weights."""
    reg = TenantRegistry(quantum_bytes=4096)
    reg.register("w2", weight=2.0)
    reg.register("w1", weight=1.0)
    queue = _FairQueue(reg)
    for i in range(60):
        queue.push(_req(lambda: None, nbytes=1024, tid=f"a{i}", tenant="w2"))
        queue.push(_req(lambda: None, nbytes=1024, tid=f"b{i}", tenant="w1"))
    served = {"w2": 0, "w1": 0}
    # Drain only the contended prefix (both queues non-empty).
    for _ in range(90):
        popped = queue.pop()
        served[popped.tenant] += popped.nbytes
    ratio = served["w2"] / served["w1"]
    assert 1.6 <= ratio <= 2.4, served


def test_fair_path_respects_priority_classes():
    """Fairness is intra-class: a blocking load beats every queued store
    regardless of tenant."""
    reg = TenantRegistry()
    queue = _FairQueue(reg)
    for i in range(4):
        queue.push(_req(lambda: None, nbytes=1024, tid=f"s{i}", tenant="bulk"))
    load = _req(lambda: None, kind="load", priority=Priority.BLOCKING_LOAD,
                nbytes=64, tid="urgent", tenant="interactive")
    queue.push(load)
    assert queue.pop() is load


# ------------------------------------------------------- quota admission


def test_reject_policy_raises_quota_error():
    reg = TenantRegistry()
    reg.register("r", byte_quota=10)
    sched = IOScheduler(workers=2,
                        lanes=("ssd",), tenants=reg, coalesce_bytes=0)
    try:
        sched.submit(_req(lambda: None, nbytes=10, tid="ok", tenant="r"))
        with pytest.raises(TenantQuotaError):
            sched.submit(_req(lambda: None, nbytes=1, tid="no", tenant="r"))
        sched.drain()
    finally:
        sched.shutdown()
    assert reg.stats_of("r").rejected == 1


def test_rejected_submission_is_admitted_once_a_cancel_refunds():
    """Rejection is the only over-quota answer, and it holds nothing: a
    caller that cancels admitted work gets the headroom back and simply
    submits again."""
    reg = TenantRegistry()
    reg.register("r", byte_quota=100)
    sched = IOScheduler(workers=2, lanes=("ssd",), tenants=reg, coalesce_bytes=0)
    gate = threading.Event()
    try:
        _block_worker(sched, gate)
        queued = sched.submit(_req(lambda: None, nbytes=80, tid="queued", tenant="r"))
        retry = _req(lambda: None, nbytes=80, tid="retry", tenant="r")
        with pytest.raises(TenantQuotaError):
            sched.submit(retry)
        assert sched.cancel(queued)  # refunds its 80 bytes
        sched.submit(retry)  # the same request, now within budget
        gate.set()
        assert sched.drain(5)
    finally:
        gate.set()
        sched.shutdown()
    books = reg.stats_of("r")
    assert (books.submitted, books.executed, books.cancelled, books.rejected) == (2, 1, 1, 1)
    assert books.quota_in_use_bytes == 80


# ------------------------------------------------- per-tenant telemetry


def test_scheduler_books_reconcile_per_tenant():
    reg = TenantRegistry()
    sched = IOScheduler(workers=2,
                        lanes=("ssd",), tenants=reg, coalesce_bytes=0)
    gate = threading.Event()
    try:
        _block_worker(sched, gate)
        ok = [_req(lambda: None, nbytes=10, tid=f"ok{i}", tenant="t") for i in range(3)]
        for req in ok:
            sched.submit(req)
        victim = _req(lambda: None, nbytes=10, tid="victim", tenant="t")
        sched.submit(victim)
        assert sched.cancel(victim)
        gate.set()
        sched.drain()
    finally:
        gate.set()
        sched.shutdown()
    stats = reg.stats_of("t")
    assert stats.submitted == 4
    assert stats.executed + stats.failed + stats.cancelled == stats.submitted
    assert stats.cancelled == 1 and stats.executed == 3


# --------------------------------------------- health / tier isolation


def test_lane_health_tenant_scoping():
    health = LaneHealthTracker()
    health.mark_dead("ssd", tenant="a")
    assert health.is_dead("ssd", "a")
    assert not health.is_dead("ssd")
    assert not health.is_dead("ssd", "b")
    assert set(health.dead_tenants("ssd")) == {"a"}
    # Global death covers every tenant; a global revive clears the
    # tenant scopes too (the device came back for everyone).
    health.mark_dead("ssd")
    assert health.is_dead("ssd", "b")
    health.revive("ssd")
    assert not health.is_dead("ssd")
    assert not health.is_dead("ssd", "a")


def test_tiered_tenant_ssd_death_isolated(tmp_path):
    """A permanent SSD failure inside tenant A's store latches degraded
    mode for A only: B keeps the SSD tier, the global latch stays off."""
    policy = OffloadPolicy()
    policy.config.cpu_tier_max_tensor_bytes = 0  # force SSD placement
    off = build_tier(tmp_path, cpu_pool_bytes=1 << 20, policy=policy)
    real_store = off.ssd.store

    def flaky_store(tid, data):
        if current_tenant() == "a":
            raise PermanentIOError("tenant A's namespace bricked")
        return real_store(tid, data)

    off.ssd.store = flaky_store
    data = np.arange(256, dtype=np.float32)
    tid_a = TensorID(stamp=1, shape=data.shape)
    tid_b = TensorID(stamp=2, shape=data.shape)
    try:
        with tenant_scope("a"):
            off.store(tid_a, data)  # fails over to the CPU tier
        assert off.ssd_dead_for("a")
        assert not off.ssd_dead  # global latch untouched
        assert off.tier_of(tid_a) is Tier.CPU
        with tenant_scope("b"):
            off.store(tid_b, data)  # B's SSD placement still works
        assert off.tier_of(tid_b) is Tier.SSD
        assert not off.ssd_dead_for("b")
        with tenant_scope("a"):
            got = off.load(tid_a, data.shape, data.dtype)
        np.testing.assert_array_equal(got, data)
    finally:
        off.ssd.store = real_store
        off.shutdown()


def test_make_room_skips_dead_tenant_victims(tmp_path):
    """Pool pressure never demotes a resident whose tenant's SSD is
    dead — their parked bytes have nowhere to go."""
    off = build_tier(tmp_path, cpu_pool_bytes=2048)
    data = np.zeros(256, dtype=np.float32)  # 1024 bytes
    tid_dead = TensorID(stamp=1, shape=data.shape)
    tid_live = TensorID(stamp=2, shape=data.shape)
    tid_new = TensorID(stamp=3, shape=data.shape)
    try:
        with tenant_scope("doomed"):
            off.store(tid_dead, data)
        with tenant_scope("healthy"):
            off.store(tid_live, data)
        off.scheduler.health.mark_dead("ssd", "doomed")
        # Pool is full (2 x 1024); the next store must demote exactly the
        # healthy tenant's resident, though doomed's is older (LRU head).
        with tenant_scope("healthy"):
            off.store(tid_new, data)
        assert off.tier_of(tid_dead) is Tier.CPU
        assert off.tier_of(tid_live) is Tier.SSD
        assert off.tier_of(tid_new) is Tier.CPU
    finally:
        off.shutdown()


# ------------------------------------------------- caller's placement


def test_tiered_store_honours_the_callers_tier_under_a_tenant_scope(tmp_path):
    """``store(..., tier=...)`` overrides the pool-first rule for that
    one store; a store without a tier, and ``store_lane``, still follow
    the policy.  A tenant whose SSD is dead lands on CPU whatever the
    caller asked for."""
    off = build_tier(tmp_path, cpu_pool_bytes=1 << 20)
    data = np.arange(128, dtype=np.float32)
    tid_cold, tid_warm, tid_dead = (TensorID(stamp=i, shape=data.shape) for i in (1, 2, 3))
    try:
        with tenant_scope("cold"):
            off.store(tid_cold, data, tier=Tier.SSD)
            assert off.store_lane(tid_cold, data.nbytes) == "cpu"
        with tenant_scope("warm"):
            off.store(tid_warm, data)
        assert off.tier_of(tid_cold) is Tier.SSD
        assert off.tier_of(tid_warm) is Tier.CPU
        off.scheduler.health.mark_dead("ssd", "doomed")
        with tenant_scope("doomed"):
            off.store(tid_dead, data, tier=Tier.SSD)
        assert off.tier_of(tid_dead) is Tier.CPU
        with tenant_scope("cold"):
            assert np.array_equal(off.load(tid_cold, data.shape, data.dtype), data)
    finally:
        off.shutdown()


# --------------------------------------- pool / arena tenant accounting


def test_pinned_pool_per_tenant_accounting():
    pool = PinnedMemoryPool(capacity_bytes=None)
    pool.alloc(100, tenant="a")
    pool.alloc(50, tenant="b")
    with tenant_scope("a"):
        pool.alloc(10)  # scope-resolved owner
    assert pool.used_by("a") == 110
    assert pool.used_by("b") == 50
    with pytest.raises(ValueError):
        pool.free(60, tenant="b")  # over-free per tenant, global fine
    pool.free(110, tenant="a")
    pool.free(50, tenant="b")
    assert pool.used_by_tenant() == {}
    assert pool.used == 0


def test_arena_per_tenant_outstanding():
    arena = BufferArena()
    with tenant_scope("a"):
        lease_a = arena.lease(4096)
    lease_b = arena.lease(4096, tenant="b")
    snap = arena.stats()
    assert snap.outstanding_by_tenant == {"a": 1, "b": 1}
    assert arena.outstanding_for("a") == 1
    lease_a.release()
    lease_b.release()
    assert arena.stats().outstanding_by_tenant == {}


def test_cpu_offloader_frees_against_owning_tenant():
    off = CPUOffloader(PinnedMemoryPool())
    data = np.zeros(256, dtype=np.float32)
    tid = TensorID(stamp=1, shape=data.shape)
    with tenant_scope("owner"):
        off.store(tid, data)
    assert off.pool.used_by("owner") == data.nbytes
    assert off.owner_of(tid) == "owner"
    # Evicted from a different tenant's thread: the bytes still come off
    # the owner's account, not the evictor's.
    with tenant_scope("other"):
        off.evict(tid)
    assert off.pool.used_by_tenant() == {}
    off.shutdown()


def test_cpu_offloader_shutdown_clears_all_tenants():
    off = CPUOffloader(PinnedMemoryPool())
    data = np.zeros(64, dtype=np.float32)
    for i, tenant in enumerate(("a", "b", "c")):
        with tenant_scope(tenant):
            off.store(TensorID(stamp=i, shape=data.shape), data)
    assert len(off.pool.used_by_tenant()) == 3
    off.shutdown()
    assert off.pool.used_by_tenant() == {}
    assert off.pool.used == 0


# ------------------------------------------------- regression guard


def test_default_tenant_fair_path_matches_legacy_order():
    """The single-tenant queue dequeues in exactly the pre-tenancy order
    (priority class, then submission order), with or without an explicit
    registry — the byte-identical guard for single-job workloads."""

    def run(sched):
        order = []
        gate = threading.Event()
        hold = threading.Event()
        try:
            _block_worker(sched, gate)
            stores = [
                sched.submit(_req(lambda i=i: order.append(f"s{i}"),
                                  nbytes=1024, tid=f"s{i}"))
                for i in range(6)
            ]
            for i in range(3):
                sched.submit(_req(lambda i=i: order.append(f"l{i}"),
                                  kind="load", priority=Priority.PREFETCH_LOAD,
                                  nbytes=512, tid=f"l{i}"))
            sched.submit(_req(lambda: order.append("d0"), kind="demote",
                              priority=Priority.DEMOTION, nbytes=256, tid="d0"))
            # One worker stays parked so a single worker executes: the
            # execution order IS the dequeue order.
            sched.submit(_req(hold.wait, kind="load",
                              priority=Priority.BLOCKING_LOAD, tid="hold"))
            gate.set()
            assert stores[-1].wait(5)  # lowest class, last submitted
            hold.set()
            sched.drain()
        finally:
            gate.set()
            hold.set()
            sched.shutdown()
        return order

    expected = ["l0", "l1", "l2", "d0", "s0", "s1", "s2", "s3", "s4", "s5"]
    implicit = run(IOScheduler(workers=2,
                               lanes=("ssd",), coalesce_bytes=0))
    explicit = run(IOScheduler(workers=2,
                               lanes=("ssd",), coalesce_bytes=0,
                               tenants=TenantRegistry()))
    assert implicit == expected
    assert explicit == expected


def test_fifo_with_registry_is_strict_submission_order():
    """``fifo=True`` files every request under one class and one
    subqueue: two tenants of unequal weight and mixed priority classes
    still dequeue in exact submission order, and promotion is a no-op."""
    reg = TenantRegistry(quantum_bytes=1024)
    reg.register("heavy", weight=4.0)
    reg.register("light", weight=1.0)
    sched = IOScheduler(workers=2,
                        lanes=("ssd",), coalesce_bytes=0, fifo=True,
                        tenants=reg)
    script = [
        ("light", "store", Priority.STORE),
        ("heavy", "store", Priority.STORE),
        ("light", "load", Priority.PREFETCH_LOAD),
        ("heavy", "load", Priority.BLOCKING_LOAD),
        ("light", "demote", Priority.DEMOTION),
        ("heavy", "store", Priority.STORE),
        ("light", "load", Priority.BLOCKING_LOAD),
        ("heavy", "load", Priority.PREFETCH_LOAD),
    ]
    order = []
    gate = threading.Event()
    hold = threading.Event()
    try:
        # Gate jobs go first in FIFO order too; afterwards one worker is
        # re-parked on ``hold`` so a single worker executes the script.
        _block_worker(sched, gate)
        sched.submit(_req(hold.wait, tid="hold"))
        requests = [
            sched.submit(_req(lambda i=i: order.append(i), kind=kind,
                              priority=priority, nbytes=4096, tid=f"r{i}",
                              tenant=tenant))
            for i, (tenant, kind, priority) in enumerate(script)
        ]
        assert not sched.promote(requests[2])  # queued prefetch: no-op in FIFO
        assert requests[2].priority is Priority.PREFETCH_LOAD
        gate.set()
        assert requests[-1].wait(5)
        hold.set()
        assert sched.drain(5)
    finally:
        gate.set()
        hold.set()
        sched.shutdown()
    assert order == list(range(len(script)))
    assert sched.stats.promotions == 0
    for tenant in ("heavy", "light"):
        books = reg.stats_of(tenant)
        assert books.submitted == books.executed == 4
