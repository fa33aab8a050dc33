"""I/O trace recorder: the listener that aggregates what requests did.

The scheduler says what a finished request did once — the ``"done"``
listener event, carrying the request with its ``started_at`` /
``finished_at`` stamps — and aggregates nothing itself.  An
:class:`IOTracer` subscribed to it (:func:`attach_tracer`) records one
interval per executed request (``store``, ``load`` and the tiered
backend's ``demote`` SSD writes alike) plus ``cancel`` / ``promote``
point events, and answers per (lane, channel) what moved and for how
long.  A real offloaded run renders as a Fig. 2-style timeline, and the
adaptive controller (:mod:`repro.core.autotune`) reads its observed
bandwidths off a private tracer.  Nothing on the offloader is touched,
and any number of tracers on one scheduler see the same events.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.io.aio import JobState

#: Interval kinds (executed requests) and point kinds (scheduler decisions).
_INTERVAL_KINDS = ("store", "load", "demote")
_POINT_KINDS = ("cancel", "promote")


@dataclass(frozen=True)
class IOTraceEvent:
    """One executed I/O request or scheduler decision."""

    kind: str          # "store" | "load" | "demote" | "cancel" | "promote"
    tensor_id: str
    nbytes: int
    start_s: float     # relative to the tracer epoch
    end_s: float       # == start_s for point events
    priority: Optional[str] = None  # scheduler class name, when known
    lane: str = "ssd"
    failed: bool = False  # ended FAILED: the time was spent, the bytes never landed


@dataclass
class ChannelUse:
    """What one (lane, channel) pair did over the traced window.

    ``busy_s`` is the *union* of the channel's execution intervals, not
    the per-request sum, so ``nbytes / busy_s`` stays an honest observed
    bandwidth when several workers drain one lane concurrently.  Failed
    requests add busy time but neither bytes nor count; cancelled
    requests never ran and never appear.
    """

    nbytes: int = 0
    count: int = 0
    busy_s: float = 0.0


@dataclass
class OverlapStats:
    """How I/O time relates to the traced wall-clock window: ``store_*``
    is the write channel (stores and demotions), ``load_*`` the read
    channel, each summed over the lanes' :class:`ChannelUse`."""

    window_s: float
    store_busy_s: float
    load_busy_s: float
    store_bytes: int
    load_bytes: int
    load_count: int = 0
    #: Scheduler decisions observed in the window.
    cancelled_stores: int = 0
    cancelled_bytes: int = 0
    promoted_loads: int = 0

    @property
    def store_bandwidth(self) -> float:
        return self.store_bytes / self.store_busy_s if self.store_busy_s else 0.0

    @property
    def load_bandwidth(self) -> float:
        return self.load_bytes / self.load_busy_s if self.load_busy_s else 0.0


class IOTracer:
    """Thread-safe collector of I/O events; a scheduler listener."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._epoch = time.monotonic()
        self._schedulers: List[Any] = []
        self.events: List[IOTraceEvent] = []

    def record(
        self,
        kind: str,
        tensor_id: str,
        nbytes: int,
        start_s: float,
        end_s: float,
        priority: Optional[str] = None,
        lane: str = "ssd",
        failed: bool = False,
    ) -> None:
        if kind not in _INTERVAL_KINDS + _POINT_KINDS:
            raise ValueError(f"unknown I/O kind: {kind}")
        with self._lock:
            self.events.append(
                IOTraceEvent(kind, tensor_id, nbytes, start_s, end_s, priority, lane, failed)
            )

    def reset(self) -> None:
        with self._lock:
            self.events.clear()
            self._epoch = time.monotonic()

    def listen(self, scheduler: Any) -> None:
        """Subscribe to ``scheduler``'s events (once per scheduler)."""
        if scheduler not in self._schedulers:
            self._schedulers.append(scheduler)
            scheduler.add_listener(self.on_event)

    def on_event(self, event: str, request: Any) -> None:
        """The scheduler listener: one interval per ``"done"``, one point
        per ``"cancel"`` / ``"promote"``; every other event is ignored."""
        if event == "done":
            kind, start, end = request.kind, request.started_at, request.finished_at
        elif event in _POINT_KINDS:
            kind = event
            start = end = time.monotonic()
        else:
            return
        head = (kind, request.tensor_id, request.nbytes)
        tail = (request.priority.name, request.lane, request.state is JobState.FAILED)
        with self._lock:  # the epoch moves under reset()
            times = (start - self._epoch, end - self._epoch)
            self.events.append(IOTraceEvent(*head, *times, *tail))

    # ------------------------------------------------------------------ query
    def channels(self) -> Dict[Tuple[str, str], ChannelUse]:
        """Per ``(lane, "write" | "read")``: what the channel moved and
        how long it was busy.  Channels that executed nothing are absent."""
        with self._lock:
            events = [e for e in self.events if e.kind in _INTERVAL_KINDS]
        uses: Dict[Tuple[str, str], ChannelUse] = {}
        covered: Dict[Tuple[str, str], float] = {}  # end of the union so far
        for e in sorted(events, key=lambda e: e.start_s):
            # Stores and demotions both consume a lane's write stream.
            key = (e.lane, "read" if e.kind == "load" else "write")
            use = uses.setdefault(key, ChannelUse())
            if not e.failed:
                use.nbytes += e.nbytes
                use.count += 1
            cursor = covered.get(key, float("-inf"))
            if e.end_s > cursor:
                use.busy_s += e.end_s - max(e.start_s, cursor)
                covered[key] = e.end_s
        return uses

    def stats(self, window_s: Optional[float] = None) -> OverlapStats:
        with self._lock:
            events = list(self.events)
        if window_s is None:
            window_s = max((e.end_s for e in events), default=0.0)
        uses = self.channels()
        writes = [use for (_, channel), use in uses.items() if channel == "write"]
        reads = [use for (_, channel), use in uses.items() if channel == "read"]
        return OverlapStats(
            window_s=window_s,
            store_busy_s=sum(use.busy_s for use in writes),
            load_busy_s=sum(use.busy_s for use in reads),
            store_bytes=sum(use.nbytes for use in writes),
            load_bytes=sum(use.nbytes for use in reads),
            load_count=sum(use.count for use in reads),
            cancelled_stores=sum(1 for e in events if e.kind == "cancel"),
            cancelled_bytes=sum(e.nbytes for e in events if e.kind == "cancel"),
            promoted_loads=sum(1 for e in events if e.kind == "promote"),
        )

    def render_ascii(self, width: int = 80) -> str:
        """A timeline of the traced run: one busy lane per request kind
        that executed, plus an ``sched`` lane marking cancellations
        (``x``) and promotions (``^``) when the scheduler produced any."""
        with self._lock:
            events = list(self.events)
        if not events:
            return "(no I/O events traced)"
        total = max(e.end_s for e in events) or 1e-9
        rows = []
        for kind in _INTERVAL_KINDS:
            row = [" "] * width
            spans = [e for e in events if e.kind == kind]
            if not spans:
                continue
            for e in spans:
                # A request in flight across reset() started before the epoch.
                lo = min(width - 1, max(0, int(e.start_s / total * width)))
                hi = min(width, max(lo + 1, int(e.end_s / total * width)))
                for i in range(lo, hi):
                    row[i] = kind[0]
            rows.append(f"{kind:>6} |{''.join(row)}|")
        points = [e for e in events if e.kind in _POINT_KINDS]
        if points:
            row = [" "] * width
            for e in points:
                i = min(width - 1, int(e.start_s / total * width))
                row[i] = "x" if e.kind == "cancel" else "^"
            rows.append(f"{'sched':>6} |{''.join(row)}|")
        return "\n".join(rows)


def attach_tracer(cache: Any, tracer: Optional[IOTracer] = None) -> IOTracer:
    """Subscribe a tracer (a fresh one when not supplied) to
    ``cache.scheduler`` and return it; anything with a ``scheduler``
    works — a :class:`~repro.core.tensor_cache.TensorCache` or an
    :class:`~repro.core.engine.Engine`.  Attaching the same tracer to
    the same scheduler again changes nothing."""
    tracer = tracer if tracer is not None else IOTracer()
    tracer.listen(cache.scheduler)
    return tracer
