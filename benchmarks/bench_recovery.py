"""The self-healing degraded modes (PR 10).

The two hot paths this PR adds to every request — the circuit-breaker
state machine and the adaptive hedge-delay derivation — plus the
failover store path a dead SSD reroutes through, and two deterministic
recovery assertions: hedged reads must win races under a browning-out
lane, and a healed tier must resurrect via canary probes with the
post-resurrection store bit-exact.
"""

import threading
import time
from collections import deque

import numpy as np

from repro.core import OffloadPolicy, PolicyConfig, TensorID
from repro.core.engine import EngineConfig, build_engine
from repro.io.breaker import BreakerState, CircuitBreaker
from repro.io.faults import FaultPlan, inject_faults
from repro.io.scheduler import IORequest, IOScheduler, Priority

from benchmarks.conftest import emit

TENSOR = np.random.default_rng(10).standard_normal(1024).astype(np.float32)


def _ssd_placing_policy():
    """4 KiB tensors place onto the SSD tier even with a roomy pool, so
    the degraded paths under test actually engage."""
    return OffloadPolicy(PolicyConfig(cpu_tier_max_tensor_bytes=2048))


# ------------------------------------------------------------- hot paths
def test_breaker_trip_probe_close_cycle():
    """One full incident on the breaker state machine: trip -> backoff
    -> half-open probe -> close.  Pure state machine on a fake clock —
    the cost every failed/healed I/O pays at the bookkeeping layer."""
    clock = [0.0]
    breaker = CircuitBreaker(backoff_s=1.0, probe_budget=1, clock=lambda: clock[0])

    def cycle():
        breaker.trip("bench incident")
        clock[0] += 2.0
        assert breaker.allow_probe()
        assert breaker.record_probe_success()

    cycle()
    assert breaker.state == BreakerState.CLOSED
    assert breaker.stats.resurrections == breaker.stats.trips
    emit(
        "recovery — breaker trip/probe/close cycle",
        [f"{breaker.stats.trips} incidents cycled, all resurrected"],
    )


def test_hedge_delay_derivation_hot_path():
    """The adaptive hedge delay (p99 clamped to 4*p50 over the lane's
    duration window) is recomputed on every watchdog scan with a
    blocking load in flight — it must stay cheap."""
    sched = IOScheduler(workers=2, hedge=True)
    try:
        window = deque(maxlen=64)
        for i in range(64):
            window.append(0.010 if i % 8 else 0.200)
        with sched._stats_lock:
            sched._load_durations["ssd"] = window
        delay = sched.hedge_delay_for("ssd")
    finally:
        sched.shutdown()
    assert 0.002 <= delay <= 4.0 * 0.200
    emit(
        "recovery — adaptive hedge delay derivation",
        [f"64-sample window -> {delay * 1e3:.1f} ms hedge delay"],
    )


def test_failover_store_latency_dead_ssd(tmp_path):
    """Store latency on the degraded path: the SSD is dead, so every
    placement reroutes into the pinned CPU tier — the latency a training
    step actually pays while the breaker is OPEN."""
    engine = build_engine(
        target="tiered",
        store_dir=tmp_path / "store",
        cpu_pool_bytes=1 << 20,
        policy=_ssd_placing_policy(),
    )
    offloader = engine.offloader
    try:
        injector = inject_faults(offloader, FaultPlan(seed=0))
        injector.kill()
        offloader.store(TensorID(stamp=0, shape=(1024,)), TENSOR)  # trips
        assert offloader.ssd_dead
        counter = [1]

        def store_release():
            tid = TensorID(stamp=counter[0], shape=(1024,))
            counter[0] += 1
            offloader.store(tid, TENSOR)
            offloader.release(tid)

        store_release()
        # The tripping store failed over; every later placement skips
        # the dead tier outright and lands on the CPU directly.
        assert offloader.stats.failovers >= 1
        assert offloader.stats.cpu_stored_tensors >= counter[0] - 1
        assert offloader.stats.ssd_stored_tensors == 0
        emit(
            "recovery — failover store latency (dead SSD -> CPU tier)",
            [f"{counter[0] - 1} stores rerouted, 0 failures"],
        )
    finally:
        engine.shutdown()


# ------------------------------------------------- deterministic asserts
def test_recovery_hedge_wins_under_brownout():
    """A browning-out lane (sporadic 150 ms stalls) must lose races to
    hedges: the hedged run completes every blocking load without a
    single one paying the stall."""
    stall_every = 4

    def load(i):
        def body():
            if i % stall_every == 0:
                time.sleep(0.15)  # the brownout straggler
            return TENSOR

        return body

    sched = IOScheduler(
        workers=5, hedge=True, hedge_delay_s=0.01
    )
    latencies = []
    try:
        for i in range(8):
            req = IORequest(
                load(i),
                kind="load",
                priority=Priority.BLOCKING_LOAD,
                lane="ssd",
                hedge_fn=lambda: TENSOR,
            )
            start = time.monotonic()
            sched.submit(req)
            assert req.wait(timeout=10.0)
            latencies.append(time.monotonic() - start)
        stats = sched.stats
    finally:
        sched.shutdown()
    assert stats.hedges_issued >= 1
    assert stats.hedges_won >= 1
    # Every stalled primary was rescued: no blocking load paid the stall.
    assert max(latencies) < 0.15
    emit(
        "recovery — hedge win rate under brownout",
        [
            f"{stats.hedges_issued} hedges issued, {stats.hedges_won} won, "
            f"p-max {max(latencies) * 1e3:.1f} ms vs 150 ms stall"
        ],
    )


def test_recovery_resurrection_time_to_first_store(tmp_path):
    """Kill -> heal -> canary probes must resurrect the tier within a
    few backoff periods, and the first post-resurrection store/load
    round-trip must be bit-exact."""
    backoff_s = 0.002
    engine = build_engine(
        EngineConfig(
            target="tiered",
            store_dir=tmp_path / "store",
            cpu_pool_bytes=1 << 20,
            policy=_ssd_placing_policy(),
            probe_backoff_s=backoff_s,
        )
    )
    offloader = engine.offloader
    try:
        injector = inject_faults(offloader, FaultPlan(seed=0))
        injector.kill()
        offloader.store(TensorID(stamp=0, shape=(1024,)), TENSOR)  # trips
        assert offloader.ssd_dead
        injector.heal()
        healed_at = time.monotonic()
        deadline = healed_at + 5.0
        while offloader.ssd_dead and time.monotonic() < deadline:
            offloader.maybe_probe_ssd()
            time.sleep(backoff_s)
        assert not offloader.ssd_dead, "probes did not resurrect the tier"
        tid = TensorID(stamp=1, shape=(1024,))
        offloader.store(tid, TENSOR)
        elapsed = time.monotonic() - healed_at
        out = offloader.load(tid, TENSOR.shape, TENSOR.dtype)
        assert np.array_equal(out, TENSOR)
        assert offloader.stats.resurrections == 1
        emit(
            "recovery — resurrection time to first store",
            [
                f"heal -> resurrected + first bit-exact store in "
                f"{elapsed * 1e3:.1f} ms ({backoff_s * 1e3:.0f} ms probe backoff)"
            ],
        )
    finally:
        engine.shutdown()


def test_recovery_breaker_single_flight_under_contention():
    """Eight threads storming ``allow_probe`` get exactly one canary
    slot — a recovering device is never hammered."""
    clock = [10.0]
    breaker = CircuitBreaker(backoff_s=1.0, clock=lambda: clock[0])
    breaker.trip("storm bench")
    clock[0] += 2.0  # backoff elapsed: exactly one canary slot is up
    grants = []
    barrier = threading.Barrier(8)

    def worker():
        barrier.wait(5)
        grants.append(breaker.allow_probe())

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(5)
    assert sum(grants) == 1
    emit(
        "recovery — probe single-flight under contention",
        ["8 concurrent probers, 1 canary slot granted"],
    )
