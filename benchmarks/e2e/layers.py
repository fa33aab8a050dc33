"""Per-layer metrics of the engine, taken over one traced window.

Every workload drives the same engine, so the ``scheduler.*``,
``backend.*``, ``offloader.*``, ``tiered.*``, ``pool.*``, ``store.*`` and
``buffers.*`` metrics are computed here once: from the difference of two
:class:`Counters` snapshots (the engine's own public books at the start
and end of the window), the spans the tracer recorded in between, and the
volume of work the front-end did.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict

from harness import Sample, ratio
from spans import Tracer


@dataclass
class Counters:
    """The cumulative engine books the layer metrics are differences of."""

    submitted: int = 0
    executed: int = 0
    cancelled: int = 0
    retries: int = 0
    coalesced_requests: int = 0
    lane_syscalls: int = 0
    lane_batched_requests: int = 0
    lane_reaped: int = 0
    lane_reap_lag_s: float = 0.0
    copies: int = 0
    bytes_copied: int = 0
    allocs_avoided: int = 0
    arena_leases: int = 0
    arena_hits: int = 0
    demoted_bytes: int = 0
    promoted_bytes: int = 0
    cpu_hits: int = 0
    ssd_loads: int = 0
    store_bytes_written: int = 0
    store_bytes_read: int = 0
    store_write_syscalls: int = 0
    store_read_syscalls: int = 0

    @classmethod
    def read(cls, engine_stats, store) -> "Counters":
        """From an ``EngineStats`` snapshot and the SSD tier's store object
        (``None`` when the target has none)."""
        out = cls()
        sched = engine_stats.scheduler
        if sched is not None:
            out.submitted = sched.submitted
            out.executed = sched.executed
            out.cancelled = sched.cancelled
            out.retries = sched.retries
            out.coalesced_requests = sched.coalesced_requests
        for lane in engine_stats.io_lanes.values():
            out.lane_syscalls += lane.syscalls
            out.lane_batched_requests += lane.batched_requests
            out.lane_reaped += lane.reaped
            out.lane_reap_lag_s += lane.reap_lag_s
        plane = engine_stats.dataplane
        out.copies = plane.copies
        out.bytes_copied = plane.bytes_copied
        out.allocs_avoided = plane.allocs_avoided
        out.arena_leases = plane.arena_leases
        out.arena_hits = plane.arena_hits
        tiers = engine_stats.tiers
        if tiers is not None:
            out.demoted_bytes = tiers.demoted_bytes
            out.promoted_bytes = tiers.promoted_bytes
            out.cpu_hits = tiers.cpu_hits
            out.ssd_loads = tiers.ssd_loads
        if store is not None:
            out.store_bytes_written = store.bytes_written
            out.store_bytes_read = store.bytes_read
            out.store_write_syscalls = store.write_syscalls
            out.store_read_syscalls = store.read_syscalls
        return out

    def since(self, earlier: "Counters") -> "Counters":
        return Counters(
            **{f.name: getattr(self, f.name) - getattr(earlier, f.name) for f in fields(self)}
        )


def engine_layer_metrics(
    tracer: Tracer,
    delta: Counters,
    *,
    wall_s: float,
    units: int,
    stored_bytes: int,
    loaded_bytes: int,
    pool_books=None,
) -> Dict[str, float]:
    """The engine's layer metrics over a window of ``units`` front-end
    operations (steps, rounds or requests) that took ``wall_s`` seconds
    and moved ``stored_bytes`` / ``loaded_bytes`` through the offloader."""
    mb = 1e6
    totals = tracer.totals()

    def span_us(name: str) -> float:
        return totals[name].total * 1e6 if name in totals else 0.0

    submits = totals["scheduler.submit"].count if "scheduler.submit" in totals else 0
    queue_wait = Sample((start - submit) * 1e6 for _, _, submit, start, _ in tracer.requests)
    service = Sample((finish - start) * 1e6 for _, _, _, start, finish in tracer.requests)
    busy = tracer.lane_busy_seconds()
    moved = stored_bytes + loaded_bytes
    stored_mb = delta.store_bytes_written / mb
    read_mb = delta.store_bytes_read / mb
    handed_to_store = sum(s.size for s in tracer.spans if s.name == "store.write")

    out = {
        "scheduler.submit_us_per_req": ratio(span_us("scheduler.submit"), submits),
        "scheduler.queue_wait_us_p50": queue_wait.median,
        "scheduler.queue_wait_us_tail": queue_wait.tail()[1],
        "scheduler.service_us_p50": service.median,
        "scheduler.requests_per_step": ratio(delta.submitted, units),
        "scheduler.coalesced_frac": ratio(delta.coalesced_requests, delta.executed),
        "scheduler.cancelled_frac": ratio(delta.cancelled, delta.submitted),
        "scheduler.retries": float(delta.retries),
        "scheduler.lane_busy_frac.ssd": ratio(busy.get("ssd", 0.0), wall_s),
        "scheduler.lane_busy_frac.cpu": ratio(busy.get("cpu", 0.0), wall_s),
        "backend.syscalls_per_mb": ratio(delta.lane_syscalls, moved / mb),
        "backend.batched_req_frac": ratio(delta.lane_batched_requests, delta.executed),
        "backend.reap_lag_us_per_req": ratio(delta.lane_reap_lag_s * 1e6, delta.lane_reaped),
        "offloader.store_us_per_mb": ratio(span_us("offloader.store"), stored_bytes / mb),
        "offloader.load_us_per_mb": ratio(span_us("offloader.load"), loaded_bytes / mb),
        "tiered.demoted_mb_per_step": ratio(delta.demoted_bytes / mb, units),
        "tiered.promoted_mb_per_step": ratio(delta.promoted_bytes / mb, units),
        "tiered.cpu_hit_frac": ratio(delta.cpu_hits, delta.cpu_hits + delta.ssd_loads),
        "pool.high_watermark_frac": 0.0,
        "store.write_us_per_mb": ratio(span_us("store.write"), stored_mb),
        "store.read_us_per_mb": ratio(span_us("store.read"), read_mb),
        "store.write_syscalls_per_mb": ratio(delta.store_write_syscalls, stored_mb),
        "store.read_syscalls_per_mb": ratio(delta.store_read_syscalls, read_mb),
        "store.write_amplification": ratio(delta.store_bytes_written, handed_to_store),
        "buffers.copies_per_mb": ratio(delta.copies, moved / mb),
        "buffers.bytes_copied_per_byte": ratio(delta.bytes_copied, moved),
        "buffers.arena_hit_rate": ratio(delta.arena_hits, delta.arena_leases),
        "buffers.allocs_avoided_per_step": ratio(delta.allocs_avoided, units),
    }
    if pool_books is not None:
        out["pool.high_watermark_frac"] = ratio(
            pool_books.high_watermark_bytes, pool_books.capacity_bytes or 0
        )
    return out
