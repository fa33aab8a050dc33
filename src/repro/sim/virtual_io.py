"""The production I/O scheduler, served on a virtual clock.

The simulator has no queueing model of its own: it submits size-only
requests to an :class:`~repro.io.scheduler.IOScheduler` built with
``workers=0`` and serves its lanes from here, one request at a time, so
what runs next is the engine's own dequeue (priority classes, FIFO,
promotion, deficit round-robin across tenants, quotas).  A request's
body moves no bytes: it occupies its lane from
``max(lane free, not_before)`` for ``io_latency_s + nbytes / bandwidth``
virtual seconds and stamps ``started_at`` / ``finished_at`` with that.

A request reaches the scheduler once its lane has run up to its
``not_before`` (in submission order), so the dequeue chooses among the
requests that exist when the lane frees up — and a FIFO lane starts
each request at exactly ``max(lane free, not_before)``, in submission
order, whenever it is served.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, Optional, Tuple

from repro.io.scheduler import IORequest, IOScheduler, Priority
from repro.io.tenancy import TenantRegistry


class VirtualRequest(IORequest):
    """A request whose body books its lane on the virtual clock."""

    def __init__(self, io: "VirtualIO", not_before: float, bandwidth: float, **kw) -> None:
        super().__init__(self._occupy, **kw)
        self.io = io
        self.not_before = not_before
        self.bandwidth = bandwidth

    def _occupy(self) -> None:
        free_at = self.io.free_at
        start = max(free_at[self.lane], self.not_before)
        done = start + self.io.io_latency_s + self.nbytes / self.bandwidth
        free_at[self.lane] = done
        self.submitted_at, self.started_at, self.finished_at = self.not_before, start, done


class VirtualIO:
    """One ``IOScheduler(workers=0)`` and the virtual time of each lane."""

    def __init__(self, lanes: Tuple[str, ...], fifo: bool, io_latency_s: float,
                 tenants: Optional[TenantRegistry] = None) -> None:
        self.scheduler = IOScheduler(
            workers=0, lanes=lanes, fifo=fifo, coalesce_bytes=0, tenants=tenants, name="sim"
        )
        self.io_latency_s = io_latency_s
        #: Virtual time each lane has run up to.
        self.free_at: Dict[str, float] = dict.fromkeys(lanes, 0.0)
        self._arriving: Dict[str, Deque[VirtualRequest]] = {lane: deque() for lane in lanes}

    def submit(self, lane: str, kind: str, priority: Priority, nbytes: int, bandwidth: float,
               not_before: float = 0.0, label: str = "",
               tenant: Optional[str] = None) -> VirtualRequest:
        """Queue ``nbytes`` on ``lane`` from ``not_before`` on.  A request
        that arrives at once is admitted here, so a quota rejection
        raises to the caller."""
        request = VirtualRequest(self, not_before, bandwidth, kind=kind, priority=priority,
                                 nbytes=nbytes, lane=lane, label=label, tenant=tenant)
        self._arriving[lane].append(request)
        self._arrive(lane)
        return request

    def _arrive(self, lane: str) -> None:
        arriving = self._arriving[lane]
        while arriving and arriving[0].not_before <= self.free_at[lane]:
            self.scheduler.submit(arriving.popleft())

    def _serve(self, lane: str, before: float = math.inf) -> bool:
        """Run ``lane``'s next request if it starts before ``before``."""
        self._arrive(lane)
        if not self.scheduler.pending(lane):
            arriving = self._arriving[lane]
            if not arriving or arriving[0].not_before >= before:
                return False
            self.free_at[lane] = arriving[0].not_before  # idle until it arrives
            self._arrive(lane)
        elif self.free_at[lane] >= before:
            return False
        return self.scheduler.serve_next(lane)

    def advance(self, t: float) -> None:
        """Run every lane up to virtual time ``t``."""
        for lane in self.free_at:
            while self._serve(lane, t):
                pass

    def finish(self, request: VirtualRequest) -> VirtualRequest:
        """Run ``request``'s lane until ``request`` has run."""
        while not request.done_event.is_set():
            if not self._serve(request.lane):
                raise RuntimeError(f"{request.label} is not queued on lane {request.lane!r}")
        return request

    def close(self) -> None:
        """Run everything still queued or arriving, then shut down."""
        self.advance(math.inf)
        self.scheduler.shutdown()
