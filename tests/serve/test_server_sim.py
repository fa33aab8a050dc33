"""Server simulation: seeded determinism and the paging A/B contract."""

import numpy as np
import pytest

from repro.serve import (
    KVServerSim,
    RequestTrace,
    ServerConfig,
    TraceConfig,
    block_payload,
    percentile,
)

TRACE = RequestTrace.generate(TraceConfig(num_requests=16, seed=1234))


# ------------------------------------------------------------------- trace
def test_trace_is_deterministic():
    again = RequestTrace.generate(TraceConfig(num_requests=16, seed=1234))
    assert again.requests == TRACE.requests


def test_trace_seed_changes_trace():
    other = TRACE.with_seed(99)
    assert other.requests != TRACE.requests
    assert len(other) == len(TRACE)


def test_trace_shape():
    arrivals = [r.arrival_s for r in TRACE]
    assert arrivals == sorted(arrivals)
    assert all(r.arrival_s > 0 for r in TRACE)
    assert all(
        TRACE.config.min_context_tokens
        <= r.context_tokens
        <= TRACE.config.max_context_tokens
        for r in TRACE
    )
    assert all(r.decode_tokens >= TRACE.config.min_decode_tokens for r in TRACE)
    assert set(r.user for r in TRACE) == set(TRACE.users)
    assert list(TRACE.users) == sorted(TRACE.users)
    # The log-normal tail: the longest context dwarfs the median knob.
    assert TRACE.max_context_tokens > 2 * TRACE.config.context_tokens_median


def test_trace_validates():
    with pytest.raises(ValueError, match="num_requests"):
        TraceConfig(num_requests=0).validate()
    with pytest.raises(ValueError, match="arrival_rate"):
        TraceConfig(arrival_rate_per_s=0).validate()
    with pytest.raises(ValueError, match="context"):
        TraceConfig(min_context_tokens=0).validate()


# ------------------------------------------------------------------- utils
def test_percentile_nearest_rank():
    vals = [4.0, 1.0, 3.0, 2.0]
    assert percentile(vals, 50.0) == 2.0
    assert percentile(vals, 99.0) == 4.0
    assert percentile([], 50.0) == 0.0


def test_block_payload_keyed_and_deterministic():
    a = block_payload(1, "r1", 0, 0, 64)
    assert np.array_equal(a, block_payload(1, "r1", 0, 0, 64))
    assert not np.array_equal(a, block_payload(1, "r1", 0, 1, 64))
    assert not np.array_equal(a, block_payload(2, "r1", 0, 0, 64))


# --------------------------------------------------------------------- sim
@pytest.fixture(scope="module")
def paged_result():
    return KVServerSim(TRACE, ServerConfig(paged=True)).run()


@pytest.fixture(scope="module")
def baseline_result():
    return KVServerSim(TRACE, ServerConfig(paged=False)).run()


def test_same_seed_identical_percentiles(paged_result):
    replay = KVServerSim(TRACE, ServerConfig(paged=True)).run()
    assert replay.ttft_p50 == paged_result.ttft_p50
    assert replay.ttft_p99 == paged_result.ttft_p99
    assert replay.ttfts == paged_result.ttfts
    assert replay.per_user_ttft_p50 == paged_result.per_user_ttft_p50


def test_paging_beats_hbm_only_at_equal_capacity(paged_result, baseline_result):
    assert paged_result.peak_concurrency > baseline_result.peak_concurrency
    assert paged_result.served >= baseline_result.served
    assert paged_result.rejected <= baseline_result.rejected


def test_kv_bytes_bit_exact_after_migration(paged_result):
    assert paged_result.bit_exact_checked > 0
    assert paged_result.bit_exact_ok


def test_lookahead_prefetch_lands_hits(paged_result):
    stats = paged_result.pool_stats
    assert stats.prefetch_issued > 0
    assert stats.prefetch_hits > 0
    assert paged_result.prefetch_hit_rate > 0


def test_blocks_spill_across_tiers(paged_result):
    census = paged_result.tier_census_peak
    assert census.get("hbm", 0) > 0
    assert census.get("cpu", 0) + census.get("ssd", 0) > 0


def test_every_served_request_has_ttft(paged_result):
    for out in paged_result.requests:
        if out.served:
            assert out.ttft_s > 0
            assert out.finished_s >= out.admitted_s >= out.arrival_s
    assert paged_result.served + paged_result.rejected == len(TRACE)


def test_per_user_books_populated(paged_result):
    assert set(paged_result.per_user_ttft_p50) <= set(TRACE.users)
    tenants = paged_result.engine_stats.tenants
    assert set(TRACE.users) <= set(tenants)


def test_baseline_rejects_oversized_contexts(baseline_result):
    cfg = ServerConfig(paged=False)
    for out in baseline_result.requests:
        if not out.served:
            sim = KVServerSim(TRACE, cfg)
            req = next(r for r in TRACE if r.request_id == out.request_id)
            assert sim._full_kv_bytes(req) > cfg.hbm_capacity_bytes
    assert baseline_result.bit_exact_checked == 0  # no pool, nothing to verify


# ---------------------------------------------- the benchmark's quick trace
def test_kv_serve_quick_trace_exact_counters_are_pinned(tmp_path):
    """The ``exact`` rows of ``benchmarks/e2e`` ``kv_serve --quick``: every
    one is a pure function of the call sequence, so a change to placement,
    eviction order or which reads count as demand fetches moves a number
    here instead of in a 20 s benchmark run.  Update the pins on purpose."""
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).parents[2] / "benchmarks" / "e2e"))
    try:
        import wl_kv
    finally:
        sys.path.pop(0)

    trace = wl_kv.make_trace(0, wl_kv.QUICK_REQUESTS)
    config = ServerConfig(store_dir=str(tmp_path), cpu_pool_bytes=wl_kv.CPU_POOL_BYTES)
    result = KVServerSim(trace, config).run()
    stats = result.pool_stats
    assert (result.served, result.rejected, result.bit_exact_ok) == (4, 0, True)
    assert (stats.blocks_written, stats.released_blocks) == (58, 58)
    assert (stats.writebacks, stats.evictions) == (58, 958)
    assert result.engine_stats.tiers.cpu_stored_tensors == 58
    assert (stats.demand_fetches, stats.fetched_bytes) == (582, 582 * 8192)
    assert (stats.hbm_hits, stats.prefetch_issued, stats.prefetch_hits) == (28, 372, 348)
    assert stats.prefetch_hit_rate == pytest.approx(348 / 930, rel=1e-12)
    assert result.ttft_p50 == pytest.approx(0.10700744473297584, rel=1e-12)
    assert result.ttft_p99 == pytest.approx(0.20854831463894707, rel=1e-12)
    assert result.peak_concurrency == 4
    assert result.tier_census_peak == {"cpu": 24, "hbm": 32}
    # Demand fetches are the only scheduler traffic, and all of it is booked.
    books = result.engine_stats.scheduler
    assert (books.submitted, books.executed, books.failed, books.cancelled) == (582, 582, 0, 0)


# ------------------------------------------------- the CLI's `repro kv` run
#: ``repro kv --requests 8 [--strategy split-token]``'s paged run:
#: pool books, census at peak, virtual TTFT and peak concurrency.
#: ``split-token`` is the one shipped strategy that hands the engine a
#: tier (``lookahead`` over ``PreferHBM`` always answers HBM).
KV_CLI_PINS = {
    "lookahead": {
        "books": (94, 766, 180, 1129, 1156),
        "census": {"cpu": 16, "hbm": 32, "ssd": 22},
        "ttft": (0.1566574167100796, 0.18855619106104426),
    },
    "split-token": {
        "books": (94, 980, 0, 947, 926),
        "census": {"cpu": 14, "hbm": 32, "ssd": 24},
        "ttft": (0.14472141671007988, 0.17862231852226174),
    },
}


@pytest.mark.parametrize("strategy", sorted(KV_CLI_PINS))
def test_repro_kv_paged_run_is_pinned(tmp_path, strategy):
    """Every number is a pure function of the call sequence on the
    virtual clock, so a change to placement, eviction or prefetch moves
    one here.  Update the pins on purpose."""
    trace = RequestTrace.generate(TraceConfig(num_requests=8, seed=1234))
    config = ServerConfig(
        paged=True, strategy=strategy, hbm_capacity_bytes=256 << 10, store_dir=str(tmp_path)
    )
    result = KVServerSim(trace, config).run()
    stats = result.pool_stats
    pins = KV_CLI_PINS[strategy]
    books = (
        stats.blocks_written, stats.demand_fetches, stats.prefetch_hits,
        stats.writebacks, stats.evictions,
    )
    assert books == pins["books"]
    assert result.tier_census_peak == pins["census"]
    assert (result.ttft_p50, result.ttft_p99) == pytest.approx(pins["ttft"], rel=1e-12)
    assert (result.peak_concurrency, result.served, result.bit_exact_ok) == (6, 8, True)
