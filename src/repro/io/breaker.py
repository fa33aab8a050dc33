"""Circuit breaker with half-open probing for tier resurrection.

A device that fails is often only transiently gone (a controller
reset, a loose cable, a chaos plan that heals), so "the SSD lane is
dead" is not a latch but the classic breaker state machine:

- **CLOSED** — the tier is healthy; traffic flows.
- **OPEN** — a failure verdict tripped the breaker; all traffic routes
  around the tier.  A backoff clock starts.
- **HALF_OPEN** — the backoff elapsed; exactly one caller at a time is
  allowed to send a cheap canary probe at the device.  Probe success
  (``probe_budget`` consecutive) re-closes the breaker and the owner
  resurrects the tier; probe failure re-opens it with a doubled backoff.

The breaker itself is policy-free: it does not know what a "probe" is
or what resurrection entails.  Breakers are built and tripped in one
place, :class:`~repro.io.health.LaneHealthTracker` (one per lane, one
per tenant whose own traffic bricked a lane);
:class:`~repro.core.tiered.TieredOffloader` owns the canary write/read
and the resurrection side effects; listeners
(:meth:`~repro.io.health.LaneHealthTracker.add_breaker_listener`) see
every transition.

Thread-safety: all transitions happen under one lock; listeners fire
*outside* the lock (a listener that takes its own lock must not
deadlock against a probe running on another thread).  The clock is
injectable for deterministic tests.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

logger = logging.getLogger(__name__)

__all__ = ["DEFAULT_BACKOFF_S", "BreakerState", "BreakerStats", "CircuitBreaker"]

#: Seconds a tripped breaker stays OPEN before its first probe.
DEFAULT_BACKOFF_S = 0.05


class BreakerState:
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass
class BreakerStats:
    """Cumulative transition counters (snapshot by copy)."""

    trips: int = 0
    probes_allowed: int = 0
    probe_successes: int = 0
    probe_failures: int = 0
    resurrections: int = 0


#: ``listener(name, old_state, new_state, reason)``
Listener = Callable[[str, str, str, str], None]


class CircuitBreaker:
    """CLOSED -> OPEN -> HALF_OPEN -> (CLOSED | OPEN) state machine.

    Args:
        name: identity carried into listener events (e.g. ``"ssd"`` or
            ``"ssd/tenant-a"``).
        backoff_s: seconds the breaker stays OPEN before the first probe
            is allowed; doubles after every failed probe round, capped
            at ``backoff_max_s``.
        probe_budget: consecutive probe successes required to re-close.
        clock: monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        name: str = "ssd",
        backoff_s: float = DEFAULT_BACKOFF_S,
        backoff_max_s: float = 5.0,
        probe_budget: int = 2,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if backoff_s <= 0:
            raise ValueError(f"backoff_s must be positive: {backoff_s}")
        if probe_budget < 1:
            raise ValueError(f"probe_budget must be >= 1: {probe_budget}")
        self.name = name
        self.backoff_s = backoff_s
        self.backoff_max_s = backoff_max_s
        self.probe_budget = probe_budget
        self.stats = BreakerStats()
        self._clock = clock
        self._lock = threading.Lock()
        self._state = BreakerState.CLOSED
        self._opened_at = 0.0
        self._current_backoff_s = backoff_s
        self._probe_successes = 0
        self._probing = False
        self._listeners: List[Listener] = []

    # ----------------------------------------------------------- views
    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def is_open(self) -> bool:
        """True while traffic must route around the tier (OPEN or
        probing in HALF_OPEN — only the canary goes through).  One
        attribute read, no lock: placement asks on every store."""
        return self._state != BreakerState.CLOSED

    def add_listener(self, listener: Listener) -> None:
        with self._lock:
            self._listeners.append(listener)

    # ----------------------------------------------------- transitions
    def trip(self, reason: str = "failure") -> bool:
        """Open the breaker (CLOSED/HALF_OPEN -> OPEN).

        Idempotent while already OPEN.  Returns True when this call
        performed the transition.
        """
        with self._lock:
            if self._state == BreakerState.OPEN:
                return False
            old = self._state
            self._state = BreakerState.OPEN
            self._opened_at = self._clock()
            self._probe_successes = 0
            self._probing = False
            self.stats.trips += 1
            listeners = list(self._listeners)
        self._notify(listeners, old, BreakerState.OPEN, reason)
        return True

    def allow_probe(self) -> bool:
        """Whether the caller may send one canary probe right now.

        OPEN + backoff elapsed moves the breaker to HALF_OPEN and grants
        the probe; while a probe is outstanding other callers are
        refused (single-flight), so a storm of blocked stores cannot
        hammer a struggling device with canaries.
        """
        with self._lock:
            if self._state == BreakerState.CLOSED or self._probing:
                return False
            if self._state == BreakerState.OPEN:
                if self._clock() - self._opened_at < self._current_backoff_s:
                    return False
                old = self._state
                self._state = BreakerState.HALF_OPEN
                listeners = list(self._listeners)
            else:  # already HALF_OPEN (mid probe round)
                old = None
                listeners = []
            self._probing = True
            self.stats.probes_allowed += 1
        if old is not None:
            self._notify(listeners, old, BreakerState.HALF_OPEN, "backoff elapsed")
        return True

    def record_probe_success(self) -> bool:
        """Book one canary success; re-close on the ``probe_budget``-th.

        Returns True when this success closed the breaker (the caller
        then performs resurrection side effects exactly once).
        """
        with self._lock:
            if self._state != BreakerState.HALF_OPEN:
                return False
            self._probing = False
            self._probe_successes += 1
            self.stats.probe_successes += 1
            if self._probe_successes < self.probe_budget:
                return False
            old = self._state
            self._state = BreakerState.CLOSED
            self._probe_successes = 0
            self._current_backoff_s = self.backoff_s
            self.stats.resurrections += 1
            listeners = list(self._listeners)
        self._notify(listeners, old, BreakerState.CLOSED, "probe budget met")
        return True

    def record_probe_failure(self, reason: str = "probe failed") -> None:
        """A canary failed: back to OPEN with a doubled backoff."""
        with self._lock:
            if self._state != BreakerState.HALF_OPEN:
                return
            old = self._state
            self._state = BreakerState.OPEN
            self._opened_at = self._clock()
            self._probing = False
            self._probe_successes = 0
            self.stats.probe_failures += 1
            self._current_backoff_s = min(
                self._current_backoff_s * 2.0, self.backoff_max_s
            )
            listeners = list(self._listeners)
        self._notify(listeners, old, BreakerState.OPEN, reason)

    def reset(self, reason: str = "manual reset") -> None:
        """Force-close (administrative override / test hook)."""
        with self._lock:
            if self._state == BreakerState.CLOSED:
                return
            old = self._state
            self._state = BreakerState.CLOSED
            self._probe_successes = 0
            self._probing = False
            self._current_backoff_s = self.backoff_s
            listeners = list(self._listeners)
        self._notify(listeners, old, BreakerState.CLOSED, reason)

    # -------------------------------------------------------- internal
    def _notify(
        self, listeners: List[Listener], old: str, new: str, reason: str
    ) -> None:
        for listener in listeners:
            try:
                listener(self.name, old, new, reason)
            except Exception:
                # A listener is telemetry: its bug must neither undo the
                # transition (already applied) nor starve the listeners
                # behind it, but it must be seen.
                logger.exception(
                    "breaker %s listener raised on %s -> %s", self.name, old, new
                )
