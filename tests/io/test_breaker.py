"""Tests for the circuit breaker driving SSD-tier resurrection.

The breaker is a pure state machine (policy lives in the tiered
offloader), so everything here runs against an injected fake clock —
no sleeps, no threads, fully deterministic transitions.
"""

import threading

import pytest

from repro.io.breaker import BreakerState, CircuitBreaker


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def make_breaker(**kwargs):
    clock = FakeClock()
    kwargs.setdefault("backoff_s", 1.0)
    kwargs.setdefault("clock", clock)
    return CircuitBreaker(**kwargs), clock


def test_validation():
    with pytest.raises(ValueError):
        CircuitBreaker(backoff_s=0.0)
    with pytest.raises(ValueError):
        CircuitBreaker(probe_budget=0)


def test_starts_closed():
    breaker, _ = make_breaker()
    assert breaker.state == BreakerState.CLOSED
    assert not breaker.is_open
    # A closed breaker grants no probes: there is nothing to test.
    assert not breaker.allow_probe()


def test_trip_is_idempotent_while_open():
    breaker, _ = make_breaker()
    assert breaker.trip("device died")
    assert breaker.state == BreakerState.OPEN
    assert breaker.is_open
    assert not breaker.trip("again")  # no second transition
    assert breaker.stats.trips == 1


def test_probe_gated_by_backoff():
    breaker, clock = make_breaker(backoff_s=1.0)
    breaker.trip()
    assert not breaker.allow_probe()  # backoff not elapsed
    clock.advance(0.5)
    assert not breaker.allow_probe()
    clock.advance(0.6)
    assert breaker.allow_probe()
    assert breaker.state == BreakerState.HALF_OPEN


def test_probe_single_flight():
    breaker, clock = make_breaker()
    breaker.trip()
    clock.advance(2.0)
    assert breaker.allow_probe()
    # While the first canary is outstanding nobody else probes.
    assert not breaker.allow_probe()
    breaker.record_probe_success()
    # Budget not yet met -> still HALF_OPEN, next probe slot opens.
    assert breaker.state == BreakerState.HALF_OPEN
    assert breaker.allow_probe()


def test_probe_budget_closes_breaker():
    breaker, clock = make_breaker(probe_budget=2)
    breaker.trip()
    clock.advance(2.0)
    assert breaker.allow_probe()
    assert not breaker.record_probe_success()  # 1/2: stays half-open
    assert breaker.allow_probe()
    assert breaker.record_probe_success()  # 2/2: this call closed it
    assert breaker.state == BreakerState.CLOSED
    assert not breaker.is_open
    assert breaker.stats.resurrections == 1
    assert breaker.stats.probe_successes == 2


def test_probe_failure_reopens_with_doubled_backoff():
    breaker, clock = make_breaker(backoff_s=1.0, backoff_max_s=3.0)
    breaker.trip()
    clock.advance(1.5)
    assert breaker.allow_probe()
    breaker.record_probe_failure("still dead")
    assert breaker.state == BreakerState.OPEN
    assert breaker.stats.probe_failures == 1
    # Backoff doubled to 2s: 1.5s is no longer enough.
    clock.advance(1.5)
    assert not breaker.allow_probe()
    clock.advance(0.6)
    assert breaker.allow_probe()
    breaker.record_probe_failure()
    # Doubled again but capped at backoff_max_s=3.
    clock.advance(2.9)
    assert not breaker.allow_probe()
    clock.advance(0.2)
    assert breaker.allow_probe()


def test_close_resets_backoff():
    breaker, clock = make_breaker(backoff_s=1.0, probe_budget=1)
    breaker.trip()
    clock.advance(2.0)
    breaker.allow_probe()
    breaker.record_probe_failure()  # backoff now 2s
    clock.advance(2.1)
    breaker.allow_probe()
    assert breaker.record_probe_success()  # closes (budget=1)
    breaker.trip("second incident")
    # Fresh incident starts from the base backoff, not the doubled one.
    clock.advance(1.1)
    assert breaker.allow_probe()


def test_success_and_failure_ignored_outside_half_open():
    breaker, _ = make_breaker()
    assert not breaker.record_probe_success()
    breaker.record_probe_failure()
    assert breaker.state == BreakerState.CLOSED
    assert breaker.stats.probe_failures == 0


def test_half_open_interrupted_by_trip_resets_probe_round():
    breaker, clock = make_breaker(probe_budget=2)
    breaker.trip()
    clock.advance(2.0)
    breaker.allow_probe()
    breaker.record_probe_success()  # 1/2
    breaker.trip("fresh failure mid-probe-round")
    clock.advance(2.0)
    breaker.allow_probe()
    # The earlier success does not carry across the re-trip.
    assert not breaker.record_probe_success()
    assert breaker.state == BreakerState.HALF_OPEN


def test_reset_force_closes():
    breaker, _ = make_breaker()
    breaker.trip()
    breaker.reset("operator override")
    assert breaker.state == BreakerState.CLOSED
    breaker.reset()  # idempotent while closed
    assert breaker.state == BreakerState.CLOSED


def test_listeners_see_every_transition():
    breaker, clock = make_breaker(probe_budget=1)
    events = []
    breaker.add_listener(lambda name, old, new, why: events.append((name, old, new, why)))
    breaker.trip("dead")
    clock.advance(2.0)
    breaker.allow_probe()
    breaker.record_probe_success()
    assert events == [
        ("ssd", BreakerState.CLOSED, BreakerState.OPEN, "dead"),
        ("ssd", BreakerState.OPEN, BreakerState.HALF_OPEN, "backoff elapsed"),
        ("ssd", BreakerState.HALF_OPEN, BreakerState.CLOSED, "probe budget met"),
    ]


def test_listener_exception_does_not_poison_transitions(caplog):
    """A raising listener blocks neither the transition nor the
    listeners behind it — and is not swallowed: it leaves a log record
    with the traceback."""
    breaker, _ = make_breaker()

    def bad(*_args):
        raise RuntimeError("listener bug")

    seen = []
    breaker.add_listener(bad)
    breaker.add_listener(lambda *a: seen.append(a))
    with caplog.at_level("ERROR", logger="repro.io.breaker"):
        breaker.trip()
    assert breaker.state == BreakerState.OPEN
    assert len(seen) == 1
    (record,) = caplog.records
    assert "listener raised" in record.getMessage()
    assert record.exc_info[0] is RuntimeError


def test_listener_may_reenter_breaker_views():
    """Listeners fire outside the lock, so reading state back is safe."""
    breaker, _ = make_breaker()
    states = []
    breaker.add_listener(lambda *_a: states.append(breaker.state))
    breaker.trip()
    assert states == [BreakerState.OPEN]


def test_concurrent_probe_storm_grants_one_slot():
    breaker, clock = make_breaker()
    breaker.trip()
    clock.advance(2.0)
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
    assert breaker.stats.probes_allowed == 1
