"""Tests for the tiered offload hierarchy (GPU -> pinned CPU -> SSD).

Covers the offloader-level mechanics (placement, demotion on pool
exhaustion, promotion on load, refcounted chunk reclaim), the policy's
tier-placement rule, the cache integration (per-record tier, forwarding
across tiers, end-to-end training equivalence), the ``build_engine``
target axis, and the chunk-coalescing write-count win.
"""

import numpy as np
import pytest

from repro.core import (
    CPUOffloader,
    OffloadPolicy,
    PolicyConfig,
    SSDOffloader,
    TensorCache,
    Tier,
    TieredOffloader,
    build_engine,
)
from repro.core.ids import TensorID
from repro.io import ChunkedTensorStore, TensorFileStore

from tests.conftest import assert_tier_books, build_tier
from tests.core.test_tensor_cache import _fresh_model, _run_model_step

# No TieredOffloader built here may do device I/O under its tier lock.
pytestmark = pytest.mark.usefixtures("tier_lock_discipline")

DATA = np.arange(256, dtype=np.float32)  # 1 KiB


def _tid(i: int) -> TensorID:
    return TensorID(stamp=i, shape=(256,))


@pytest.fixture
def tiered(tmp_path):
    off = build_tier(SSDOffloader(tmp_path / "tiers"), cpu_pool_bytes=2 * DATA.nbytes)
    yield off
    off.shutdown()


# ------------------------------------------------------------ the entry machine
def _entry_in(state):
    """An entry walked from (new) to ``state`` along legal edges, holding
    a buffer and a counting stand-in for its arena lease."""
    from repro.core.tiered import _LEGAL_TRANSITIONS, _Entry

    paths = {None: []}
    frontier = [None]
    while frontier:
        here = frontier.pop(0)
        for there in _LEGAL_TRANSITIONS[here]:
            if there not in paths:
                paths[there] = paths[here] + [there]
                frontier.append(there)
    assert set(paths) == set(_LEGAL_TRANSITIONS)  # every state is reachable

    class Lease:
        released = 0

        def release(self):
            self.released += 1

    entry = _Entry("tenant")
    entry.hold(DATA.copy(), Lease())
    for step in paths[state]:
        entry.trans_state(step)
    return entry


def test_entry_trans_state_admits_exactly_the_table():
    from repro.core.tiered import _LEGAL_TRANSITIONS, _State

    for old, legal in _LEGAL_TRANSITIONS.items():
        for new in _State:
            entry = _entry_in(old)
            before = (entry.state, entry.buf, entry.lease, entry.idle)
            if new in legal:
                entry.trans_state(new)
                assert entry.state is new
                continue
            with pytest.raises(RuntimeError, match="illegal tier transition"):
                entry.trans_state(new)
            assert (entry.state, entry.buf, entry.lease, entry.idle) == before


def test_entry_owns_buffer_and_lease_until_the_bytes_leave_the_host():
    """Resident, parked or mid-write the entry keeps both; landing on the
    SSD or being dropped releases the lease exactly once; a write in
    flight is what makes the entry busy."""
    from repro.core.tiered import _State

    for state in (_State.CPU, _State.QUEUED, _State.SPILLING):
        entry = _entry_in(state)
        lease = entry.lease
        assert entry.buf is not None and lease.released == 0
        assert (entry.idle is not None) == (state is _State.SPILLING)
        entry.trans_state(_State.SSD if state is _State.SPILLING else _State.GONE)
        assert entry.buf is None and entry.lease is None and lease.released == 1
        assert entry.idle is None


# ------------------------------------------------------------------ placement
def test_policy_place_prefers_cpu_when_it_fits():
    policy = OffloadPolicy()
    assert policy.place(nbytes=100, cpu_free_bytes=1000) is Tier.CPU
    assert policy.place(nbytes=2000, cpu_free_bytes=1000) is Tier.SSD
    assert policy.place(nbytes=100, cpu_free_bytes=None) is Tier.SSD


def test_policy_place_large_tensor_bypasses_pool():
    policy = OffloadPolicy(PolicyConfig(cpu_tier_max_tensor_bytes=512))
    assert policy.place(nbytes=513, cpu_free_bytes=10_000) is Tier.SSD
    assert policy.place(nbytes=512, cpu_free_bytes=10_000) is Tier.CPU


# ------------------------------------------------------- demotion / promotion
def test_store_lands_in_cpu_until_pool_fills(tiered):
    tiered.store(_tid(1), DATA)
    tiered.store(_tid(2), DATA)
    assert tiered.tier_of(_tid(1)) is Tier.CPU
    assert tiered.tier_of(_tid(2)) is Tier.CPU
    assert tiered.pool.used == 2 * DATA.nbytes
    assert tiered.stats.demotions == 0


def test_pool_exhaustion_demotes_lru_to_ssd(tiered):
    tiered.store(_tid(1), DATA)
    tiered.store(_tid(2), DATA + 1)
    tiered.store(_tid(3), DATA + 2)  # pool full: oldest (1) spills
    assert tiered.tier_of(_tid(1)) is Tier.SSD
    assert tiered.tier_of(_tid(2)) is Tier.CPU
    assert tiered.tier_of(_tid(3)) is Tier.CPU
    assert tiered.stats.demotions == 1
    assert tiered.stats.demoted_bytes == DATA.nbytes
    # The demoted bytes survive the move intact.
    assert np.array_equal(tiered.load(_tid(1), (256,), np.float32), DATA)


def test_lru_order_follows_loads(tiered):
    tiered.store(_tid(1), DATA)
    tiered.store(_tid(2), DATA + 1)
    tiered.load(_tid(1), (256,), np.float32)  # 1 becomes most-recent
    tiered.store(_tid(3), DATA + 2)  # now 2 is the LRU victim
    assert tiered.tier_of(_tid(1)) is Tier.CPU
    assert tiered.tier_of(_tid(2)) is Tier.SSD


def test_load_promotes_ssd_tensor_when_pool_has_room(tmp_path):
    off = build_tier(SSDOffloader(tmp_path), cpu_pool_bytes=2 * DATA.nbytes)
    try:
        big = np.arange(1024, dtype=np.float32)  # 4 KiB: never fits the pool
        off.store(TensorID(stamp=9, shape=(1024,)), big)
        assert off.tier_of(TensorID(stamp=9, shape=(1024,))) is Tier.SSD

        off.store(_tid(1), DATA)
        off.demote(_tid(1))
        off.scheduler.drain()  # the spill landed: the load below reads the SSD
        assert off.tier_of(_tid(1)) is Tier.SSD
        back = off.load(_tid(1), (256,), np.float32)  # prefetch: promote
        assert np.array_equal(back, DATA)
        assert off.tier_of(_tid(1)) is Tier.CPU
        assert off.stats.promotions == 1
        # Promotion moves (not copies): a second load is a pure CPU hit.
        off.load(_tid(1), (256,), np.float32)
        assert off.stats.cpu_hits >= 1
    finally:
        off.shutdown()


def test_promotion_never_demotes_the_warm_set(tmp_path):
    off = build_tier(SSDOffloader(tmp_path), cpu_pool_bytes=2 * DATA.nbytes)
    try:
        off.store(_tid(1), DATA)
        off.store(_tid(2), DATA + 1)
        off.store(_tid(3), DATA + 2)  # demotes 1 to SSD; pool full
        off.load(_tid(1), (256,), np.float32)  # no room: stays on SSD
        assert off.tier_of(_tid(1)) is Tier.SSD
        assert off.stats.promotions == 0
        assert off.tier_of(_tid(2)) is Tier.CPU
        assert off.tier_of(_tid(3)) is Tier.CPU
    finally:
        off.shutdown()


def test_release_frees_whichever_tier(tiered):
    tiered.store(_tid(1), DATA)
    tiered.store(_tid(2), DATA)
    tiered.store(_tid(3), DATA)  # 1 demoted to SSD
    tiered.release(_tid(2))
    assert tiered.pool.used == DATA.nbytes
    tiered.release(_tid(1))
    with pytest.raises((KeyError, FileNotFoundError)):
        tiered.load(_tid(1), (256,), np.float32)
    tiered.release(_tid(1))  # idempotent


def test_restore_across_tiers_drops_old_backing(tmp_path):
    """Re-storing an SSD-resident tensor into the CPU tier must release
    the SSD copy (and vice versa) — a tensor lives in exactly one tier."""
    off = build_tier(SSDOffloader(tmp_path), cpu_pool_bytes=2 * DATA.nbytes)
    try:
        off.store(_tid(1), DATA)
        off.demote(_tid(1))
        off.scheduler.drain()
        ssd_path = off.ssd.file_store.path_for(_tid(1).filename())
        assert ssd_path.exists()
        off.store(_tid(1), DATA + 5)  # lands in CPU again
        assert off.tier_of(_tid(1)) is Tier.CPU
        assert not ssd_path.exists()  # old SSD copy reclaimed
        assert np.array_equal(off.load(_tid(1), (256,), np.float32), DATA + 5)

        # Same-tier CPU overwrite: frees the old bytes first, so the pool
        # neither grows nor demotes an innocent resident to make room.
        off.store(_tid(2), DATA)
        used_before = off.pool.used
        off.store(_tid(2), DATA + 7)
        assert off.pool.used == used_before
        assert off.tier_of(_tid(1)) is Tier.CPU  # no spurious demotion
        assert off.stats.demotions == 1  # only the explicit demote above
    finally:
        off.shutdown()


def test_tiered_honours_shared_policy(tmp_path):
    policy = OffloadPolicy(
        PolicyConfig(cpu_tier_max_tensor_bytes=DATA.nbytes - 1)
    )
    engine = build_engine(
        target="tiered", store_dir=tmp_path, cpu_pool_bytes=8 * DATA.nbytes, policy=policy
    )
    off = engine.offloader
    try:
        off.store(_tid(1), DATA)  # above the cap: bypasses the pool
        assert off.tier_of(_tid(1)) is Tier.SSD
        assert off.pool.used == 0
    finally:
        engine.shutdown()


def test_location_names_the_tier(tiered):
    assert tiered.location(_tid(1)).startswith("tier:gpu:")
    tiered.store(_tid(1), DATA)
    assert tiered.location(_tid(1)).startswith("tier:cpu:")
    tiered.demote(_tid(1))
    assert tiered.location(_tid(1)).startswith("tier:ssd")  # "!queued" until it lands
    tiered.scheduler.drain()
    assert tiered.location(_tid(1)).startswith("tier:ssd:")


# -------------------------------------------------------------------- factory
def test_build_engine_targets(tmp_path):
    with build_engine(target="ssd", store_dir=tmp_path / "s") as engine:
        assert isinstance(engine.offloader, SSDOffloader)
    with build_engine(target="cpu", cpu_pool_bytes=1024) as engine:
        assert isinstance(engine.offloader, CPUOffloader)
        assert engine.offloader.pool.capacity_bytes == 1024
    policy = OffloadPolicy()
    with build_engine(
        target="tiered",
        store_dir=tmp_path / "t",
        cpu_pool_bytes=2048,
        chunk_bytes=512,
        policy=policy,
    ) as engine:
        assert isinstance(engine.offloader, TieredOffloader)
        assert engine.offloader.policy is policy  # one policy governs decide() and place()


# ---------------------------------------------------------- cache integration
def _tiered_cache(tmp_path, cpu_pool_bytes, store=TensorFileStore, **store_kwargs):
    return TensorCache(
        build_tier(
            SSDOffloader(store(tmp_path / "cache-tiers", **store_kwargs)),
            cpu_pool_bytes=cpu_pool_bytes,
        ),
        policy=OffloadPolicy(PolicyConfig(min_offload_numel=64)),
    )


def test_tiered_training_matches_baseline(gpu, tiny_gpt_config, tmp_path):
    baseline = _fresh_model(gpu, tiny_gpt_config)
    loss0, grads0, peak0 = _run_model_step(baseline, gpu)

    cache = _tiered_cache(tmp_path, cpu_pool_bytes=32 * 1024)  # forces spills
    try:
        model = _fresh_model(gpu, tiny_gpt_config)
        cache.register_weights(model)
        cache.attach(model)
        loss1, grads1, peak1 = _run_model_step(model, gpu, cache)
        assert loss0 == pytest.approx(loss1, abs=1e-6)
        for name in grads0:
            assert np.array_equal(grads0[name], grads1[name]), name
        stats = cache.offloader.stats
        # Both warm and cold tiers saw traffic; the pool never overflowed.
        assert stats.cpu_stored_bytes > 0
        assert stats.ssd_stored_bytes + stats.demoted_bytes > 0
        assert peak1 < peak0
    finally:
        cache.shutdown()


def test_cache_records_tier_per_activation(gpu, tiny_gpt_config, tmp_path):
    cache = _tiered_cache(tmp_path, cpu_pool_bytes=32 * 1024)
    try:
        model = _fresh_model(gpu, tiny_gpt_config)
        cache.register_weights(model)
        cache.attach(model)
        rng = np.random.default_rng(3)
        from repro.tensor.tensor import Tensor

        tokens = Tensor(
            rng.integers(0, tiny_gpt_config.vocab_size, (2, 16)).astype(np.int64),
            device=gpu,
        )
        targets = Tensor(
            rng.integers(0, tiny_gpt_config.vocab_size, (2, 16)).astype(np.int64),
            device=gpu,
        )
        with cache:
            loss = model(tokens, targets)
            cache.scheduler.drain()
            offloader = cache.offloader
            tids = list(cache.current.records)
            tiers = {offloader.tier_of(tid) for tid in tids}
            # The bounded pool splits the step's records across both tiers,
            # and the offloader names each one's tier and path (the Fig. 4
            # "file path" column has one owner).
            assert Tier.CPU in tiers and Tier.SSD in tiers
            for tid in tids:
                tier = offloader.tier_of(tid)
                assert offloader.location(tid).startswith(f"tier:{tier.value}:")
            cache.on_backward_begin()
            loss.backward()
            cache.on_backward_end()
        cache.on_step_end()
    finally:
        cache.shutdown()


def test_forwarding_across_tiers(gpu, tiny_gpt_config, tmp_path):
    """A load racing an in-flight tiered store adopts the in-memory
    reference, whichever tier the store is headed for."""
    cache = TensorCache(
        build_tier(
            # A slow SSD tier: stores stay in flight.
            SSDOffloader(TensorFileStore(tmp_path / "fwd-tiers", throttle_bytes_per_s=5e5)),
            cpu_pool_bytes=32 * 1024,
        ),
        policy=OffloadPolicy(PolicyConfig(min_offload_numel=64)),
    )
    try:
        model = _fresh_model(gpu, tiny_gpt_config)
        cache.register_weights(model)
        cache.attach(model)
        loss1, _, _ = _run_model_step(model, gpu, cache)
        assert cache.stats.forwarded_tensors > 0
        baseline = _fresh_model(gpu, tiny_gpt_config)
        loss0, _, _ = _run_model_step(baseline, gpu)
        assert loss0 == pytest.approx(loss1, abs=1e-6)
    finally:
        cache.shutdown()


def test_tiered_step_end_reclaims_all_tiers(gpu, tiny_gpt_config, tmp_path):
    cache = _tiered_cache(tmp_path, cpu_pool_bytes=32 * 1024)
    try:
        model = _fresh_model(gpu, tiny_gpt_config)
        cache.register_weights(model)
        cache.attach(model)
        _run_model_step(model, gpu, cache)
        assert_tier_books(cache.offloader, drained=True)
    finally:
        cache.shutdown()


# ----------------------------------------------------------- chunk coalescing
def test_chunked_ssd_writes_at_least_4x_fewer_files(gpu, tiny_gpt_config, tmp_path):
    """Acceptance: for a quickstart-sized step, chunk coalescing cuts the
    SSD write count by >= 4x versus one file per tensor.

    How many stores forwarding cancels before they run differs from run
    to run, so each ratio's two sides come from the *same* run: stores
    executed against physical writes made.
    """

    def run_step(offloader):
        cache = TensorCache(
            offloader, policy=OffloadPolicy(PolicyConfig(min_offload_numel=64))
        )
        try:
            model = _fresh_model(gpu, tiny_gpt_config)
            cache.register_weights(model)
            cache.attach(model)
            _run_model_step(model, gpu, cache)
            executed = cache.stats.stored_tensors - cache.stats.cancelled_stores
            return executed, offloader.file_store.write_count
        finally:
            cache.shutdown()

    executed, per_tensor_writes = run_step(SSDOffloader(tmp_path / "per-tensor"))
    # One file per store that actually ran.
    assert per_tensor_writes == executed

    executed, chunk_writes = run_step(
        SSDOffloader(ChunkedTensorStore(tmp_path / "chunked", chunk_bytes=64 * 1024))
    )
    assert executed >= 4 * max(chunk_writes, 1)


def test_tiered_with_chunked_ssd_trains_correctly(gpu, tiny_gpt_config, tmp_path):
    baseline = _fresh_model(gpu, tiny_gpt_config)
    loss0, _, _ = _run_model_step(baseline, gpu)
    cache = _tiered_cache(
        tmp_path, cpu_pool_bytes=32 * 1024, store=ChunkedTensorStore, chunk_bytes=64 * 1024
    )
    try:
        model = _fresh_model(gpu, tiny_gpt_config)
        cache.register_weights(model)
        cache.attach(model)
        loss1, _, _ = _run_model_step(model, gpu, cache)
        assert loss0 == pytest.approx(loss1, abs=1e-6)
    finally:
        cache.shutdown()


# ------------------------------------------------------------- tier failover
def test_direct_ssd_store_fails_over_to_cpu_on_permanent_error(tmp_path):
    """A policy-bypass (oversized) store hitting a dead SSD lands in the
    pinned pool instead of failing, and the SSD tier is written off."""
    from repro.core import OffloadPolicy, PolicyConfig
    from repro.io.faults import FaultPlan, inject_faults

    data = np.ones((64, 64), dtype=np.float32)
    off = build_tier(
        SSDOffloader(tmp_path / "t"),
        cpu_pool_bytes=4 * data.nbytes,
        policy=OffloadPolicy(PolicyConfig(cpu_tier_max_tensor_bytes=data.nbytes // 2)),
    )
    inject_faults(off, FaultPlan.dead(after_ops=0))
    try:
        off.store(_tid(1), data)  # placed SSD (too big for the pool cap)
        assert off.ssd_dead
        assert off.stats.failovers == 1
        assert off.stats.failover_bytes == data.nbytes
        assert off.tier_of(_tid(1)) is Tier.CPU
        out = off.load(_tid(1), (64, 64), np.dtype(np.float32))
        assert np.array_equal(out, data)
        # Subsequent placements skip the dead tier outright.
        off.store(_tid(2), data)
        assert off.tier_of(_tid(2)) is Tier.CPU
        assert off.store_lane(_tid(3), data.nbytes) == "cpu"
        assert off.stats.failovers == 1  # no second failover needed
    finally:
        off.shutdown()


def test_queued_demotion_reinstates_to_cpu_when_ssd_dies(tmp_path):
    """An async spill whose write hits the dead SSD must not lose the
    buffer: the victim is reinstated in the pool (past its cap) and
    stays loadable."""
    from repro.io import IOScheduler
    from repro.io.faults import FaultPlan, inject_faults

    sched = IOScheduler(workers=2, retry_backoff_s=0)
    rng = np.random.default_rng(9)
    a = rng.standard_normal((64, 64)).astype(np.float32)
    b = rng.standard_normal((64, 64)).astype(np.float32)
    off = build_tier(SSDOffloader(tmp_path / "t"), cpu_pool_bytes=a.nbytes, scheduler=sched)
    inject_faults(off, FaultPlan.dead(after_ops=0))
    try:
        off.store(_tid(1), a)
        off.store(_tid(2), b)  # demotes tid 1; the queued spill will fail
        assert sched.drain(5)
        assert off.ssd_dead
        assert off.stats.failovers == 1
        assert off.tier_of(_tid(1)) is Tier.CPU
        assert off.pool.overflow_bytes == a.nbytes  # both tensors share a 1-tensor pool
        assert np.array_equal(off.load(_tid(1), (64, 64), np.dtype(np.float32)), a)
        assert np.array_equal(off.load(_tid(2), (64, 64), np.dtype(np.float32)), b)
    finally:
        sched.shutdown()
        off.shutdown()


def test_sync_demotion_on_dead_ssd_keeps_victim_resident(tmp_path):
    """A dead SSD write leaves the victim in the pool (no data loss),
    over its cap by exactly the victim, and trips degraded mode."""
    from repro.io.faults import FaultPlan, inject_faults

    data = np.ones((64, 64), dtype=np.float32)
    off = build_tier(SSDOffloader(tmp_path / "t"), cpu_pool_bytes=data.nbytes)
    inject_faults(off, FaultPlan.dead(after_ops=0))
    try:
        off.store(_tid(1), data)
        off.store(_tid(2), data)  # wants to demote tid 1; the SSD is dead
        assert off.scheduler.drain(5)
        assert off.ssd_dead
        assert off.tier_of(_tid(1)) is Tier.CPU
        assert off.tier_of(_tid(2)) is Tier.CPU
        assert off.pool.overflow_bytes == data.nbytes
        out = off.load(_tid(1), (64, 64), np.dtype(np.float32))
        assert np.array_equal(out, data)
    finally:
        off.shutdown()


def test_threshold_death_opens_the_breaker_without_a_placement(tmp_path):
    """Degraded mode has one owner: the failure streak that makes the
    scheduler write the ssd lane off opens the tier's breaker there and
    then — no store has to come by and notice."""
    import errno

    from repro.io import IORequest, IOScheduler, Priority
    from repro.io.breaker import BreakerState

    sched = IOScheduler(workers=1, retry_backoff_s=0)
    off = build_tier(tmp_path / "t", cpu_pool_bytes=4 * DATA.nbytes, scheduler=sched)

    def flaky_device():
        raise OSError(errno.EIO, "injected: the device errors out")

    try:
        assert off.breaker.state == BreakerState.CLOSED
        for _ in range(sched.health.death_threshold):
            request = IORequest(
                flaky_device, kind="load", priority=Priority.BLOCKING_LOAD, max_retries=0
            )
            assert sched.submit(request).wait(5)
        assert sched.drain(5)
        assert off.breaker.state == BreakerState.OPEN and off.ssd_dead
        assert off.breaker is sched.health.breaker("ssd")
        assert off.store_lane(_tid(1), DATA.nbytes) == "cpu"
    finally:
        sched.shutdown()
        off.shutdown()


def test_overlapping_probes_keep_their_own_canary(tmp_path):
    """Single-flight is per breaker, so a tenant's probe (store path) and
    the global one (service housekeeping) can overlap: here the tenant's
    whole probe runs between the global probe's write and its read-back.
    Each must find its own sentinel — a shared key let the inner probe
    delete the outer one's, failing a probe of a healthy device."""
    off = build_tier(tmp_path / "t", cpu_pool_bytes=4 * DATA.nbytes)
    health = off.scheduler.health
    now = [0.0]
    for tenant in (None, "t"):
        health.breaker("ssd", tenant)._clock = lambda: now[0]
        health.mark_dead("ssd", tenant)
    now[0] = 60.0  # past both backoffs
    store = off.ssd.file_store
    read = store.read
    inner = []

    def read_with_a_probe_inside(tensor_id, shape, dtype):
        if not inner:
            inner.append("running")
            inner[0] = off.maybe_probe_ssd("t")
        return read(tensor_id, shape, dtype)

    store.read = read_with_a_probe_inside
    try:
        assert off.maybe_probe_ssd() is True
        assert inner == [True]
        for tenant in (None, "t"):
            stats = health.breaker("ssd", tenant).stats
            assert (stats.probe_successes, stats.probe_failures) == (1, 0)
        assert not list((tmp_path / "t").iterdir())  # both sentinels deleted
    finally:
        off.shutdown()


@pytest.mark.parametrize("tenant", [None, "doomed"])
def test_watermark_never_demotes_into_an_open_breaker(tmp_path, tenant):
    """Proactive demotion picks its victims the way pool pressure does:
    with the SSD written off — for everyone, or for the tenant that owns
    every resident — the watermark writes nothing and moves nothing."""
    from repro.io.tenancy import DEFAULT_TENANT, tenant_scope

    off = build_tier(SSDOffloader(tmp_path / "t"), cpu_pool_bytes=4 * DATA.nbytes)
    writes = []
    ssd_store = off.ssd.store
    off.ssd.store = lambda tid, data: (writes.append(tid), ssd_store(tid, data))
    try:
        with tenant_scope(tenant or DEFAULT_TENANT):
            for i in range(4):
                off.store(_tid(i), DATA + i)
        off.scheduler.health.mark_dead("ssd", tenant)
        assert off.ssd_dead_for(tenant or DEFAULT_TENANT)
        off.set_free_watermark(2 * DATA.nbytes)
        assert off.apply_watermark() == 0
        assert not writes
        assert all(off.tier_of(_tid(i)) is Tier.CPU for i in range(4))
        assert_tier_books(off)
    finally:
        off.shutdown()


def test_failed_over_demotion_still_feeds_ssd_lane_health(tmp_path):
    """Review regression: a demotion whose SSD write exhausted its
    retries and was reinstated into the CPU tier completes DONE — the
    ssd lane must still record the failure, so a persistently flaky SSD
    accumulates toward the death verdict instead of being masked."""
    from repro.io import IOScheduler
    from repro.io.faults import FaultPlan, inject_faults

    sched = IOScheduler(workers=2, retry_backoff_s=0)
    data = np.ones((64, 64), dtype=np.float32)
    off = build_tier(SSDOffloader(tmp_path / "t"), cpu_pool_bytes=data.nbytes, scheduler=sched)
    # Every write op faults more attempts than any retry budget covers.
    inject_faults(off, FaultPlan(transient_write_rate=1.0, transient_repeats=10))
    try:
        off.store(_tid(1), data)
        off.store(_tid(2), data)  # demotes tid 1; the spill write flakes out
        assert sched.drain(5)
        assert off.stats.failovers == 1
        assert off.tier_of(_tid(1)) is Tier.CPU
        assert not off.ssd_dead  # transient exhaustion alone is not death...
        health = sched.health.snapshot()["ssd"]
        assert health.failures == 1  # ...but the lane learned about it
        assert health.consecutive_failures == 1
    finally:
        sched.shutdown()
        off.shutdown()


def test_sync_direct_ssd_store_retries_transient_faults(tmp_path):
    """A survivable transient plan must not fail a direct (policy-bypass)
    store or the load after it: the tier itself never retries an SSD
    call — the request around it does, re-entering store()/load() with
    the books consistent."""
    from repro.core import OffloadPolicy, PolicyConfig
    from repro.io import IORequest, Priority
    from repro.io.faults import FaultPlan, inject_faults

    data = np.ones((64, 64), dtype=np.float32)
    off = build_tier(
        SSDOffloader(tmp_path / "t"),
        cpu_pool_bytes=4 * data.nbytes,
        policy=OffloadPolicy(PolicyConfig(cpu_tier_max_tensor_bytes=data.nbytes // 2)),
    )
    injector = inject_faults(off, FaultPlan.transient(rate=1.0))

    def run(fn, kind):
        request = IORequest(fn, kind=kind, priority=Priority.STORE, nbytes=data.nbytes)
        assert off.scheduler.submit(request).wait(5) and request.error is None
        return request.result

    try:
        # SSD placement; first write attempt faults
        run(lambda: off.store(_tid(1), data), "store")
        assert injector.fault_stats.injected_transient >= 1
        assert off.tier_of(_tid(1)) is Tier.SSD  # healed, landed on SSD
        assert not off.ssd_dead
        # The load heals its read fault the same way.
        out = run(lambda: off.load(_tid(1), (64, 64), np.dtype(np.float32)), "load")
        assert np.array_equal(out, data)
        assert injector.fault_stats.injected_transient >= 2
    finally:
        off.shutdown()


# --------------------------------------------------------- durable rehydration
def test_durable_tiered_rehydrates_ssd_tier_map(tmp_path):
    """A restarted durable tiered engine must remember which tensors
    live on SSD — the replayed store index seeds the tier map, so loads
    of pre-crash tensors hit SSD instead of raising 'never stored'."""
    first = build_tier(
        SSDOffloader(ChunkedTensorStore(tmp_path / "t", chunk_bytes=4096, durable=True)),
        cpu_pool_bytes=4 * DATA.nbytes,
    )
    try:
        for i in range(3):
            first.store(_tid(i), DATA + i)
            assert first.demote(_tid(i))  # force SSD residency
        first.scheduler.drain()
        first.flush()
    finally:
        first.shutdown()  # durable: close() keeps the chunk files

    second = build_tier(
        SSDOffloader(ChunkedTensorStore(tmp_path / "t", chunk_bytes=4096, durable=True)),
        cpu_pool_bytes=4 * DATA.nbytes,
    )
    try:
        for i in range(3):
            assert second.tier_of(_tid(i)) is Tier.SSD
            assert np.array_equal(
                second.load(_tid(i), DATA.shape, DATA.dtype), DATA + i
            )
    finally:
        second.shutdown()


def test_volatile_tiered_starts_empty(tmp_path):
    """Without durable=True the store clears on shutdown, so a second
    offloader on the same directory sees nothing — the pre-PR9 contract."""
    first = build_tier(
        SSDOffloader(ChunkedTensorStore(tmp_path / "t", chunk_bytes=4096)),
        cpu_pool_bytes=4 * DATA.nbytes,
    )
    first.store(_tid(1), DATA)
    first.demote(_tid(1))
    first.scheduler.drain()
    first.shutdown()

    second = build_tier(
        SSDOffloader(ChunkedTensorStore(tmp_path / "t", chunk_bytes=4096)),
        cpu_pool_bytes=4 * DATA.nbytes,
    )
    try:
        assert second.tier_of(_tid(1)) is Tier.GPU  # "never stored" default
        with pytest.raises(KeyError):
            second.load(_tid(1), DATA.shape, DATA.dtype)
    finally:
        second.shutdown()
