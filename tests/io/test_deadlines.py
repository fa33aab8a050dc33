"""Tests for per-class deadlines, hedged reads, and the brownout verdict.

The watchdog's scan is public with an injectable ``now``
(:meth:`IOScheduler._watchdog_scan`), so abandon/hedge decisions are
driven deterministically here — real wall-clock stalls appear only in
the end-to-end hedging test, with generous thresholds.
"""

import threading
import time

import pytest

from repro.io import IORequest, IOScheduler, Priority, TenantRegistry
from repro.io.aio import JobState
from repro.io.errors import DeadlineExceededError, is_device_error, is_retryable
from repro.io.health import LaneHealthTracker


def make_scheduler(**kwargs):
    kwargs.setdefault("workers", 2)
    return IOScheduler(**kwargs)


def _load(fn, **kwargs):
    kwargs.setdefault("priority", Priority.BLOCKING_LOAD)
    return IORequest(fn, kind="load", **kwargs)


# --------------------------------------------------------------- knobs


def test_deadline_validation():
    with pytest.raises(ValueError):
        IOScheduler(deadlines={"NOT_A_CLASS": 1.0})
    with pytest.raises(ValueError):
        IOScheduler(deadlines={"STORE": 0.0})
    with pytest.raises(ValueError):
        IOScheduler(hedge_delay_s=-1.0)
    with pytest.raises(ValueError):
        IOScheduler(slow_request_s=0.0)


def test_watchdog_thread_only_when_needed():
    plain = make_scheduler()
    try:
        assert plain._watchdog is None
    finally:
        plain.shutdown()
    armed = make_scheduler(deadlines={"STORE": 1.0})
    try:
        assert armed._watchdog is not None
        assert armed._watchdog.is_alive()
    finally:
        armed.shutdown()


def test_deadline_exceeded_is_permanent_device_error():
    err = DeadlineExceededError("stuck")
    assert not is_retryable(err)
    assert is_device_error(err)


# ----------------------------------------------------------- abandons


def test_watchdog_abandons_past_deadline():
    sched = make_scheduler(deadlines={"BLOCKING_LOAD": 0.05})
    gate = threading.Event()
    try:
        req = _load(lambda: gate.wait(5))
        sched.submit(req)
        deadline = time.monotonic() + 5
        while not req.started_at and time.monotonic() < deadline:
            time.sleep(0.001)
        assert req.started_at
        # Deterministic: drive the scan with an explicit late 'now'.
        sched._watchdog_scan(now=req.started_at + 1.0)
        assert req.wait(2)
        assert req.state is JobState.FAILED
        assert isinstance(req.error, DeadlineExceededError)
        assert sched.stats.deadline_abandons == 1
    finally:
        gate.set()
        sched.shutdown()


def test_watchdog_spares_requests_within_deadline():
    sched = make_scheduler(deadlines={"BLOCKING_LOAD": 10.0})
    gate = threading.Event()
    try:
        req = _load(lambda: gate.wait(5) and "ok")
        sched.submit(req)
        deadline = time.monotonic() + 5
        while not req.started_at and time.monotonic() < deadline:
            time.sleep(0.001)
        sched._watchdog_scan(now=req.started_at + 0.5)
        assert not req.done_event.is_set()
        gate.set()
        assert req.wait(2)
        assert req.state is JobState.DONE
        assert sched.stats.deadline_abandons == 0
    finally:
        gate.set()
        sched.shutdown()


def test_per_request_deadline_overrides_class_deadline():
    sched = make_scheduler(deadlines={"BLOCKING_LOAD": 100.0})
    gate = threading.Event()
    try:
        req = _load(lambda: gate.wait(5), deadline_s=0.01)
        sched.submit(req)
        deadline = time.monotonic() + 5
        while not req.started_at and time.monotonic() < deadline:
            time.sleep(0.001)
        sched._watchdog_scan(now=req.started_at + 0.5)
        assert req.wait(2)
        assert isinstance(req.error, DeadlineExceededError)
    finally:
        gate.set()
        sched.shutdown()


def test_late_body_outcome_discarded_after_abandon():
    """The wedged body finally returning must not flip a FAILED request."""
    sched = make_scheduler(deadlines={"BLOCKING_LOAD": 0.01})
    gate = threading.Event()
    try:
        req = _load(lambda: gate.wait(5) and "late value")
        sched.submit(req)
        deadline = time.monotonic() + 5
        while not req.started_at and time.monotonic() < deadline:
            time.sleep(0.001)
        sched._watchdog_scan(now=req.started_at + 1.0)
        assert req.wait(2)
        gate.set()  # body returns after the abandon
        sched.drain(timeout=5)
        assert req.state is JobState.FAILED
        assert req.result is None
    finally:
        gate.set()
        sched.shutdown()


# ------------------------------------------------------------- hedges


def test_hedge_first_completion_wins_and_books_stats():
    # Spare load workers: a wedged primary holds its worker for the
    # whole stall, so the hedge needs a free lane slot to run on.
    sched = make_scheduler(workers=3, hedge=True, hedge_delay_s=0.01)
    gate = threading.Event()
    try:
        req = _load(lambda: gate.wait(5) and "slow", hedge_fn=lambda: "hedged")
        sched.submit(req)
        deadline = time.monotonic() + 5
        while not req.started_at and time.monotonic() < deadline:
            time.sleep(0.001)
        sched._watchdog_scan(now=req.started_at + 1.0)
        assert req.wait(2)
        assert req.state is JobState.DONE
        assert req.result == "hedged"
        gate.set()
        sched.drain(timeout=5)
        assert sched.stats.hedges_issued == 1
        assert sched.stats.hedges_won == 1
        # Late primary outcome discarded by first-completion-wins.
        assert req.result == "hedged"
    finally:
        gate.set()
        sched.shutdown()


def test_primary_win_cancels_pending_hedge():
    # Lane workers are shared across channels, so a filler job pins the
    # second worker: the issued hedge has no free slot and is still
    # PENDING when the primary wins.
    sched = make_scheduler(hedge=True, hedge_delay_s=0.01)
    gate = threading.Event()
    filler_gate = threading.Event()
    try:
        req = _load(lambda: gate.wait(5) and "primary", hedge_fn=lambda: "hedged")
        filler = _load(lambda: filler_gate.wait(5))
        sched.submit(req)
        sched.submit(filler)
        deadline = time.monotonic() + 5
        while (
            not (req.started_at and filler.started_at)
            and time.monotonic() < deadline
        ):
            time.sleep(0.001)
        sched._watchdog_scan(now=req.started_at + 1.0)
        assert sched.stats.hedges_issued == 1
        hedge = req.hedge
        assert hedge is not None and hedge.is_hedge
        gate.set()
        assert req.wait(2)
        assert req.result == "primary"
        assert hedge.wait(2)
        assert hedge.state is JobState.CANCELLED
        filler_gate.set()
        sched.drain(timeout=5)
        assert sched.stats.hedges_won == 0
    finally:
        gate.set()
        filler_gate.set()
        sched.shutdown()


def test_at_most_one_hedge_per_request():
    sched = make_scheduler(workers=3, hedge=True, hedge_delay_s=0.01)
    gate = threading.Event()
    hedge_gate = threading.Event()
    try:
        req = _load(lambda: gate.wait(5), hedge_fn=lambda: hedge_gate.wait(5))
        sched.submit(req)
        deadline = time.monotonic() + 5
        while not req.started_at and time.monotonic() < deadline:
            time.sleep(0.001)
        late = req.started_at + 1.0
        sched._watchdog_scan(now=late)
        sched._watchdog_scan(now=late + 1.0)  # second scan: no second hedge
        assert sched.stats.hedges_issued == 1
    finally:
        gate.set()
        hedge_gate.set()
        sched.shutdown()


def test_hedge_refused_by_the_quota_is_not_issued():
    """A hedge is charged to the primary's tenant like any submission: past
    the byte quota it is refused with ``TenantQuotaError`` (a
    ``RuntimeError``), and the primary runs on as if unhedged."""
    registry = TenantRegistry()
    registry.register("q", byte_quota=100)
    sched = make_scheduler(workers=3, hedge=True, hedge_delay_s=0.01, tenants=registry)
    gate = threading.Event()
    try:
        req = _load(lambda: gate.wait(5) and "primary", hedge_fn=lambda: "hedged",
                    nbytes=100, tenant="q")
        sched.submit(req)
        deadline = time.monotonic() + 5
        while not req.started_at and time.monotonic() < deadline:
            time.sleep(0.001)
        sched._watchdog_scan(now=req.started_at + 1.0)
        assert sched.stats.hedges_issued == 0
        assert registry.stats_of("q").rejected == 1
        gate.set()
        assert req.wait(2) and req.result == "primary"
        assert sched.drain(timeout=5)
        assert sched.stats.submitted == sched.stats.executed == 1
    finally:
        gate.set()
        sched.shutdown()


def test_hedge_requires_hedge_fn():
    sched = make_scheduler(workers=3, hedge=True, hedge_delay_s=0.01)
    gate = threading.Event()
    try:
        req = _load(lambda: gate.wait(5))  # no hedge_fn: opted out
        sched.submit(req)
        deadline = time.monotonic() + 5
        while not req.started_at and time.monotonic() < deadline:
            time.sleep(0.001)
        sched._watchdog_scan(now=req.started_at + 1.0)
        assert sched.stats.hedges_issued == 0
        assert req.hedge is None
    finally:
        gate.set()
        sched.shutdown()


def test_adaptive_hedge_delay():
    sched = make_scheduler(hedge=True)
    try:
        # Too few samples: conservative default.
        assert sched.hedge_delay_for("ssd") == 0.05
        with sched._stats_lock:
            from collections import deque

            window = deque(maxlen=64)
            # Healthy lane: tail ~= median -> delay ~= p99.
            window.extend([0.010] * 60 + [0.012] * 4)
            sched._load_durations["ssd"] = window
        healthy = sched.hedge_delay_for("ssd")
        assert 0.010 <= healthy <= 0.040  # capped at 4x median
        with sched._stats_lock:
            window = deque(maxlen=64)
            # Brownout: tail >> median -> the 4x-median cap wins.
            window.extend([0.010] * 32 + [0.500] * 32)
            sched._load_durations["ssd"] = window
        brown = sched.hedge_delay_for("ssd")
        assert brown == pytest.approx(4.0 * 0.5, rel=0.1) or brown <= 2.0
        # Explicit delay always wins.
        sched.hedge_delay_s = 0.123
        assert sched.hedge_delay_for("ssd") == 0.123
    finally:
        sched.shutdown()


def test_hedged_reads_cut_blocking_load_p99():
    """Deterministic A/B: with stalls injected into a minority of loads,
    hedging bounds the tail at ~hedge_delay while the unhedged run eats
    the full stall."""

    def run(hedge):
        sched = IOScheduler(
            workers=5, hedge=hedge, hedge_delay_s=0.005
        )
        stall = 0.25
        stalled = {2, 7}
        latencies = []
        try:
            for i in range(10):
                if i in stalled:
                    body = lambda: time.sleep(stall) or i  # noqa: E731
                else:
                    body = lambda i=i: i
                req = _load(body, hedge_fn=lambda i=i: i)
                start = time.monotonic()
                sched.submit(req)
                assert req.wait(5)
                latencies.append(time.monotonic() - start)
            sched.drain(timeout=5)
            return sorted(latencies)[-1], sched.stats
        finally:
            sched.shutdown()

    p_max_plain, stats_plain = run(hedge=False)
    p_max_hedged, stats_hedged = run(hedge=True)
    assert stats_plain.hedges_issued == 0
    assert stats_hedged.hedges_issued >= 1
    assert stats_hedged.hedges_won >= 1
    assert p_max_plain >= 0.25
    assert p_max_hedged < p_max_plain


# ----------------------------------------------------- brownout verdict


def test_slow_verdict_trips_and_clears():
    tracker = LaneHealthTracker(slow_threshold_s=0.1, slow_trip=3)
    for _ in range(2):
        tracker.record_duration("ssd", 0.5)
    assert not tracker.is_slow("ssd")  # 2 < slow_trip
    tracker.record_duration("ssd", 0.5)
    assert tracker.is_slow("ssd")
    assert tracker.slow_lanes() == ("ssd",)
    # A single fast op clears the verdict: the device recovered.
    tracker.record_duration("ssd", 0.01)
    assert not tracker.is_slow("ssd")
    assert tracker.slow_lanes() == ()


def test_slow_verdict_distinct_from_dead():
    tracker = LaneHealthTracker(slow_threshold_s=0.1, slow_trip=1)
    tracker.record_duration("ssd", 1.0)
    assert tracker.is_slow("ssd")
    assert not tracker.is_dead("ssd")
    tracker.revive("ssd")
    assert not tracker.is_slow("ssd")


def test_slow_verdict_disabled_without_threshold():
    tracker = LaneHealthTracker()
    tracker.record_duration("ssd", 100.0)
    assert not tracker.is_slow("ssd")


def test_scheduler_feeds_load_durations_into_health():
    sched = make_scheduler(slow_request_s=0.01)
    try:
        assert sched.health.slow_threshold_s == 0.01
        for _ in range(3):
            req = _load(lambda: time.sleep(0.02))
            sched.submit(req)
            assert req.wait(5)
        sched.drain(timeout=5)
        assert sched.health.is_slow("ssd")
        # Fast ops clear the brownout.
        req = _load(lambda: "fast")
        sched.submit(req)
        assert req.wait(5)
        sched.drain(timeout=5)
        assert not sched.health.is_slow("ssd")
    finally:
        sched.shutdown()


def test_mark_slow_hook():
    tracker = LaneHealthTracker(slow_threshold_s=1.0)
    tracker.mark_slow("ssd")
    assert tracker.is_slow("ssd")
