"""Lane health: when a lane is unusable for a tenant, and how it comes back.

One owner for one fact.  The scheduler feeds every request outcome into
a :class:`LaneHealthTracker`; the tracker holds the stack's only
:class:`~repro.io.breaker.CircuitBreaker`\\ s — one per lane for the
device as a whole, one per (lane, tenant) for a tenant whose own traffic
bricked it — and *dead* is nothing but "that breaker is not CLOSED".
Whoever needs the verdict (the tiered offloader's placement, the
adaptive controller's trim, the service's supervisor) reads it here;
whoever changes it (a permanent device error, a failure streak, a
passed canary probe, an operator) changes it here.  What stays outside
is what needs the device: the tiered offloader owns the canary
write/read that drives a half-open breaker
(:meth:`~repro.core.tiered.TieredOffloader.maybe_probe_ssd`).

The books are cumulative and reading them changes nothing: producers
keep totals, consumers take differences.  The adaptive controller's
"failures this step" is its own subtraction of two snapshots.

Lock order: the tracker's lock and each breaker's lock are leaves —
nothing else is taken under them, and breaker listeners fire with
neither held — so the verdict may be read or changed under the tier
lock or a lane condition.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.io.breaker import DEFAULT_BACKOFF_S, BreakerState, CircuitBreaker, Listener
from repro.io.tenancy import DEFAULT_TENANT

logger = logging.getLogger(__name__)

__all__ = ["LaneHealthSnapshot", "LaneHealthTracker"]

_Key = Tuple[str, Optional[str]]  # (lane, tenant); tenant None is the lane as a whole


@dataclass
class LaneHealthSnapshot:
    """Point-in-time health of one lane (read-only copy)."""

    successes: int = 0
    failures: int = 0
    consecutive_failures: int = 0
    #: Filled from the breaker when the snapshot is taken.
    dead: bool = False
    #: Brownout verdict: the lane answers, but sustained latency crossed
    #: the slow threshold.  Distinct from ``dead`` — a slow lane sheds
    #: deferrable traffic (prefetch, demotions) but keeps serving.
    slow: bool = False
    consecutive_slow: int = 0


def _key(lane: str, tenant: Optional[str]) -> _Key:
    """The default tenant (and no tenant) drive the lane's global books
    and breaker; any other tenant only its own (isolation)."""
    return lane, None if tenant == DEFAULT_TENANT else tenant


class LaneHealthTracker:
    """Per-lane failure/success bookkeeping and the dead-lane verdict.

    Fed by the scheduler on every request completion.  A lane's breaker
    **trips** the moment any request fails with a
    :class:`~repro.io.errors.PermanentIOError`, after ``death_threshold``
    *consecutive* terminal failures (a device that fails everything is
    dead in all but errno), or when someone who saw the failure
    first-hand says so (:meth:`mark_dead`).  It re-closes when canary
    probes pass the breaker's budget, or on :meth:`revive`
    (operator-driven recovery: tests, a replaced device).

    Two consumer surfaces:

    - :meth:`is_dead` / :meth:`dead_lanes` — routing: the tiered
      offloader steers placements off a dead ``ssd`` lane (CPU failover);
    - :meth:`snapshot` / :meth:`tenant_snapshot` — the cumulative books
      (the adaptive controller's trim signal is a difference of two).

    **Tenant scoping** (isolation, architecture §8):
    ``is_dead(lane, tenant)`` is the union — a lane is dead *for a
    tenant* when the device is globally dead or that tenant's own
    traffic bricked it — so tenant A's permanent failures degrade A's
    placement without touching B's.
    """

    def __init__(
        self,
        death_threshold: int = 3,
        slow_threshold_s: Optional[float] = None,
        slow_trip: int = 3,
    ) -> None:
        if death_threshold < 1:
            raise ValueError(f"death_threshold must be >= 1: {death_threshold}")
        if slow_trip < 1:
            raise ValueError(f"slow_trip must be >= 1: {slow_trip}")
        self.death_threshold = death_threshold
        #: Request duration at or above which an op counts as *slow*;
        #: ``None`` disables the brownout verdict entirely.
        self.slow_threshold_s = slow_threshold_s
        self.slow_trip = slow_trip
        self._lock = threading.Lock()
        #: Books and breakers are written under the lock and read without
        #: it: a healthy lane's verdict is a dict lookup and an attribute
        #: read.  A breaker is built on first use (:meth:`breaker`).
        self._books: Dict[_Key, LaneHealthSnapshot] = {}
        self._breakers: Dict[_Key, CircuitBreaker] = {}
        self._breaker_listeners: List[Listener] = []

    def _book(self, key: _Key) -> LaneHealthSnapshot:
        book = self._books.get(key)
        if book is None:
            book = self._books[key] = LaneHealthSnapshot()
        return book

    def _open(self, key: _Key) -> bool:
        breaker = self._breakers.get(key)
        return breaker is not None and breaker.is_open

    # --------------------------------------------------------------- breakers
    def breaker(
        self, lane: str, tenant: Optional[str] = None, backoff_s: Optional[float] = None
    ) -> CircuitBreaker:
        """The breaker ``tenant``'s traffic on ``lane`` drives — the one
        place a breaker is constructed.  ``backoff_s`` applies only to
        the call that builds it; a tenant breaker built without one
        inherits the lane's global backoff."""
        key = _key(lane, tenant)
        with self._lock:
            breaker = self._breakers.get(key)
            if breaker is None:
                if backoff_s is None:
                    parent = self._breakers.get((lane, None))
                    backoff_s = parent.backoff_s if parent is not None else DEFAULT_BACKOFF_S
                name = lane if key[1] is None else f"{lane}/{key[1]}"
                breaker = self._breakers[key] = CircuitBreaker(name=name, backoff_s=backoff_s)
                for listener in self._breaker_listeners:
                    breaker.add_listener(listener)
                self._book(key)  # a lane with a breaker shows in the snapshots
            return breaker

    def add_breaker_listener(self, listener: Listener) -> None:
        """Observe every breaker transition, ``listener(name, old, new,
        reason)``, on every breaker, existing and future (the service
        publishes these on its control bus)."""
        with self._lock:
            self._breaker_listeners.append(listener)
            breakers = list(self._breakers.values())
        for breaker in breakers:
            breaker.add_listener(listener)

    def mark_dead(
        self, lane: str, tenant: Optional[str] = None, reason: str = "marked dead"
    ) -> None:
        """Brick the lane globally, or for one tenant only.

        Trips only from CLOSED: knocking a HALF_OPEN breaker back to OPEN
        would double its backoff and starve the canary probes (a failed
        probe re-opens it through the breaker itself).
        """
        breaker = self.breaker(lane, tenant)
        if breaker.state == BreakerState.CLOSED and breaker.trip(reason):
            logger.warning("%s breaker opened (%s); traffic routes around it", breaker.name, reason)

    def revive(self, lane: str, tenant: Optional[str] = None) -> None:
        """Recovery: close the breaker, forget the failure streak.
        Reviving the lane globally (no tenant) also clears every
        tenant-scoped verdict for it — a replaced device is new for
        everyone."""
        key = _key(lane, tenant)
        with self._lock:
            book = self._book(key)
            if key[1] is None:  # latency is the device's, not a tenant's
                book.slow, book.consecutive_slow = False, 0
            keys = [k for k in self._books if k[0] == lane] if tenant is None else [key]
            for k in keys:
                self._books[k].consecutive_failures = 0
            breakers = [self._breakers.get(k) for k in keys]
        for breaker in breakers:
            if breaker is not None:
                breaker.reset("revived")

    def is_dead(self, lane: str, tenant: Optional[str] = None) -> bool:
        """Whether ``tenant``'s traffic must route around ``lane``.  No
        lock: placement asks on every store."""
        key = _key(lane, tenant)
        return self._open((lane, None)) or (key[1] is not None and self._open(key))

    def dead_lanes(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(k[0] for k in self._breakers if k[1] is None and self._open(k)))

    def dead_tenants(self, lane: str) -> Tuple[str, ...]:
        """Tenants whose own traffic bricked this lane (global deaths
        are reported by :meth:`dead_lanes`, not here)."""
        with self._lock:
            keys = [k for k in self._breakers if k[0] == lane and k[1] is not None]
            return tuple(sorted(k[1] for k in keys if self._open(k)))

    # ------------------------------------------------------------------ books
    def record_success(self, lane: str, tenant: str = DEFAULT_TENANT) -> None:
        with self._lock:
            book = self._book(_key(lane, tenant))
            book.successes += 1
            book.consecutive_failures = 0

    def record_failure(
        self, lane: str, permanent: bool = False, tenant: str = DEFAULT_TENANT
    ) -> None:
        with self._lock:
            book = self._book(_key(lane, tenant))
            book.failures += 1
            book.consecutive_failures += 1
            streak = book.consecutive_failures
        if permanent:
            self.mark_dead(lane, tenant, "permanent device error")
        elif streak >= self.death_threshold:
            self.mark_dead(lane, tenant, f"{streak} consecutive failures")

    def record_duration(self, lane: str, seconds: float) -> None:
        """Feed one executed request's duration into the brownout verdict.

        ``slow_trip`` consecutive ops at/above ``slow_threshold_s`` set
        the lane *slow*; a single fast op clears it — the brownouts that
        matter are sustained, and a device serving fast ops again has by
        definition recovered.  Lane-global (not tenant-scoped): latency
        is a device property, unlike quota-attributable failures.
        """
        if self.slow_threshold_s is None:
            return
        with self._lock:
            book = self._book((lane, None))
            if seconds >= self.slow_threshold_s:
                book.consecutive_slow += 1
                if book.consecutive_slow >= self.slow_trip:
                    book.slow = True
            else:
                book.consecutive_slow = 0
                book.slow = False

    def is_slow(self, lane: str) -> bool:
        """The brownout verdict; no lock (asked per placement and per
        prefetch round)."""
        book = self._books.get((lane, None))
        return book is not None and book.slow

    def slow_lanes(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(k[0] for k, b in self._books.items() if k[1] is None and b.slow))

    def mark_slow(self, lane: str) -> None:
        """Force the brownout verdict (operator/test hook)."""
        with self._lock:
            self._book((lane, None)).slow = True

    def snapshot(self) -> Dict[str, LaneHealthSnapshot]:
        """The lanes' global books."""
        with self._lock:
            books = {k[0]: b for k, b in self._books.items() if k[1] is None}
            return {lane: replace(b, dead=self._open((lane, None))) for lane, b in books.items()}

    def tenant_snapshot(self) -> Dict[Tuple[str, str], LaneHealthSnapshot]:
        """Per-(lane, tenant) books; ``dead`` is the tenant's own breaker."""
        with self._lock:
            books = {k: b for k, b in self._books.items() if k[1] is not None}
            return {k: replace(b, dead=self._open(k)) for k, b in books.items()}
