"""Workload ``kv_serve``: the KV-cache paging front-end.

``KVServerSim`` (paged, ``lookahead`` strategy) serves one request trace,
repeated; each repeat builds and shuts down its own tiered engine.  Blocks
are tiny (8 KiB) and the pool runs in ``sync_mode``: writebacks and
prefetches run inline on the caller, only demand fetches cross the
scheduler.  So scheduler-queue work should not move this workload, while
per-operation cost in ``serve.kv_pool``, ``core.tiered`` and the pinned
pool's buffer arena should.

The pinned pool is 4 MiB, not ``ServerConfig``'s 128 KiB, so that paged-out
blocks stay on the CPU tier.  With the default, each repeat demotes ~2000
blocks to one 8 KiB file each, and on this box's ext4 the rate of those
creates decides the result: block accesses per second fell from 2400 to
850 within one process once the journal's first commit had run, and
drifted 527-914 across ten runs.  That measures the host's filesystem.

Inputs.  The trace's *shape* (arrival gaps, context and decode lengths)
is generated once from a fixed structure seed at a saturating arrival
rate; ``--seed`` draws the block payload bytes and assigns requests to
users.  Measured reason: with the shape drawn from ``--seed`` too, block
accesses per second differed 2.5x between seeds (436-1099), because a
trace either fits the 256 KiB HBM or thrashes it, and total work per
trace varied 2x; a benchmark whose ten seeds disagree that much cannot
gate anything.  Wall-clock time of identical repeats still spreads by
~15% (every demand fetch is a cross-thread hand-off), hence repeats and
the median.
"""

from __future__ import annotations

import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List

import numpy as np

from harness import (
    Budget,
    Checks,
    Metric,
    Sample,
    check_books,
    check_no_thread_leak,
    median_setup,
    ratio,
    remove_dir,
    scratch_dir,
    thread_names,
)
from layers import Counters, engine_layer_metrics
from spans import Tracer, install

STRUCTURE_SEED = 1234
NUM_REQUESTS = 16
QUICK_REQUESTS = 4
CPU_POOL_BYTES = 4 << 20
NUM_USERS = 4
#: Requests arrive faster than they can be admitted, so the server is
#: saturated for the whole trace instead of idling between arrivals.
ARRIVAL_RATE_PER_S = 500.0

PARAMS = {
    "trace": f"{NUM_REQUESTS} requests, shape from TraceConfig(seed={STRUCTURE_SEED}, "
    f"arrival_rate_per_s={ARRIVAL_RATE_PER_S}); --seed draws payload bytes and users",
    "server": f"ServerConfig(cpu_pool_bytes={CPU_POOL_BYTES}), else defaults: paged/lookahead, "
    "256 KiB HBM, 8 KiB blocks, verify on",
    "loop": "closed, 1 client, the same trace repeated; median repeat reported",
}


def make_trace(seed: int, num_requests: int):
    from repro.serve.trace import RequestTrace, TraceConfig

    shape = RequestTrace.generate(
        TraceConfig(
            num_requests=num_requests,
            arrival_rate_per_s=ARRIVAL_RATE_PER_S,
            num_users=NUM_USERS,
            seed=STRUCTURE_SEED,
        )
    )
    rng = np.random.default_rng(seed)
    requests = tuple(
        replace(request, user=f"user{int(rng.integers(NUM_USERS))}") for request in shape
    )
    # KVServerSim derives every block's payload bytes from trace.config.seed.
    return RequestTrace(config=replace(shape.config, seed=seed), requests=requests)


class _Rig:
    def __init__(self, seed: int, quick: bool, out_dir: Path) -> None:
        self.trace = make_trace(seed, QUICK_REQUESTS if quick else NUM_REQUESTS)
        self.dir = scratch_dir(out_dir, "kv_serve")
        self.checks = Checks()
        self.serve()  # discarded warm-up repeat

    def close(self) -> None:
        remove_dir(self.dir)

    def serve(self):
        """One repeat: ``(wall seconds, KVServeResult)``."""
        from repro.serve.server_sim import KVServerSim, ServerConfig

        config = ServerConfig(store_dir=str(self.dir), cpu_pool_bytes=CPU_POOL_BYTES)
        sim = KVServerSim(self.trace, config)
        start = time.perf_counter()
        result = sim.run()
        wall = time.perf_counter() - start
        self.checks.check(result.rejected == 0, f"{result.rejected} KV requests rejected")
        self.checks.check(
            result.served == len(self.trace), f"served {result.served} of {len(self.trace)}"
        )
        self.checks.check(result.bit_exact_ok, "a KV block came back with different bytes")
        check_books(self.checks, result.engine_stats.scheduler, "kv_serve")
        return wall, result


def _block_accesses(stats) -> int:
    return (
        stats.blocks_written
        + stats.hbm_hits
        + stats.prefetch_hits
        + stats.demand_fetches
        + stats.forward_hits
    )


class _Phase:
    def __init__(self) -> None:
        self.wall_s = Sample()
        self.accesses_per_s = Sample()
        self.engine_mb_per_s = Sample()
        self.wall_per_virtual_s = Sample()
        self.out_of_hbm = Sample()
        self.last = None

    def repeat(self, rig: _Rig) -> None:
        wall, result = rig.serve()
        stats = result.pool_stats
        census = result.tier_census_peak
        makespan = max(r.finished_s for r in result.requests)
        self.wall_s.add(wall)
        self.accesses_per_s.add(_block_accesses(stats) / wall)
        self.engine_mb_per_s.add((stats.writeback_bytes + stats.fetched_bytes) / 1e6 / wall)
        self.wall_per_virtual_s.add(wall / makespan)
        self.out_of_hbm.add(1.0 - ratio(census.get("hbm", 0), sum(census.values())))
        self.last = result

    def run(self, rig: _Rig, budget: Budget) -> "_Phase":
        while budget.more(len(self.wall_s)):
            self.repeat(rig)
        return self


def _end_to_end(phase: _Phase, setup: Sample) -> Dict[str, Metric]:
    return {
        "setup_s": Metric.median_of(setup),
        "ops_per_s": Metric.median_of(phase.accesses_per_s),
        "engine_mb_per_s": Metric.median_of(phase.engine_mb_per_s),
        "overhead_ratio": Metric.median_of(phase.wall_per_virtual_s),
        "mem_reduction": Metric.median_of(phase.out_of_hbm),
    }


def _traced(rig: _Rig, budget: Budget, untraced: _Phase, trace_path: Path):
    """Every repeat builds a fresh engine, so the layer metrics are those
    of the last traced repeat: its books start at zero."""
    phase = _Phase()
    while budget.more(len(phase.wall_s)):
        tracer = Tracer()
        install(tracer)
        try:
            phase.repeat(rig)
        finally:
            tracer.uninstall()
    tracer.write_chrome_trace(trace_path)

    result = phase.last
    stats = result.pool_stats
    served = result.served
    totals = tracer.totals()

    def per_call_us(name: str) -> float:
        return ratio(totals[name].total * 1e6, totals[name].count) if name in totals else 0.0

    layer = {
        "kv_pool.append_us_per_block": per_call_us("kv_pool.append_block"),
        "kv_pool.fetch_us_per_block": per_call_us("kv_pool.fetch"),
        "kv_pool.writebacks_per_req": ratio(stats.writebacks, served),
        "kv_pool.demand_fetches_per_req": ratio(stats.demand_fetches, served),
        "kv_pool.prefetch_hit_rate": stats.prefetch_hit_rate,
        "server_sim.ttft_virtual_p50_s": result.ttft_p50,
        "server_sim.ttft_virtual_p99_s": result.ttft_p99,
        "server_sim.peak_concurrency": float(result.peak_concurrency),
        "server_sim.req_per_s": ratio(served, untraced.wall_s.median),
        "trace.overhead_ratio": ratio(phase.wall_s.median, untraced.wall_s.median),
    }
    delta = Counters.read(result.engine_stats, tracer.last_self.get("store.write"))
    layer.update(
        engine_layer_metrics(
            tracer,
            delta,
            wall_s=phase.wall_s.values[-1],
            units=served,
            stored_bytes=stats.writeback_bytes,
            loaded_bytes=stats.fetched_bytes,
            pool_books=result.engine_stats.pool,
        )
    )
    samples = {"server_sim.req_per_s": Sample(served / w for w in untraced.wall_s.values)}
    metrics = {name: Metric(value, samples.get(name)) for name, value in layer.items()}
    return metrics, tracer.summary()


def run(seed: int, seconds: float, trace: bool, quick: bool, out_dir: Path):
    """Run the workload; returns ``(end_to_end, per_layer, report, checks)``."""
    threads_before = thread_names()
    setup, rig = median_setup(
        lambda: _Rig(seed, quick, out_dir), lambda built: built.close(), quick
    )
    try:
        at_least = 1 if quick else 3
        untraced_s = seconds * 0.45 if trace else seconds
        untraced = _Phase().run(rig, Budget(untraced_s, at_least, quick))
        end_to_end = _end_to_end(untraced, setup)
        per_layer: Dict[str, Metric] = {}
        report: List[str] = []
        if trace:
            per_layer, report = _traced(
                rig,
                Budget(seconds - untraced_s, 1 if quick else 2, quick),
                untraced,
                out_dir / f"trace-kv_serve-seed{seed}.json",
            )
    finally:
        rig.close()
    check_no_thread_leak(rig.checks, threads_before, "kv_serve")
    return end_to_end, per_layer, report, rig.checks
