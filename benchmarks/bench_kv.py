"""Benchmarks for the KV-cache paging front-end (PR 7).

The pool's CPU-bound hot paths (block-table append/fetch over an
in-memory engine, strategy placement) run here for what they assert;
their cost is judged by the e2e ``kv_serve`` workload.  The serving win
itself (paged concurrency and TTFT vs the HBM-only baseline) is
asserted deterministically in ``test_kv_paged_vs_hbm_only_ttft_ab`` on
the virtual-clock server sim, so the benchmark cannot silently stop
demonstrating it; the sim's durations are byte-count-derived and
therefore exact, never wall-clock.
"""

import numpy as np

from repro.core import EngineConfig, build_engine
from repro.serve import (
    KVBlockPool,
    KVServerSim,
    LookAheadBatch,
    RequestTrace,
    ServerConfig,
    SplitToken,
    TraceConfig,
)

from benchmarks.conftest import emit

BLOCK_TOKENS = 16
BLOCK_BYTES = BLOCK_TOKENS * 64
NUM_BLOCKS = 64


def _payloads():
    rng = np.random.default_rng(7)
    return [
        rng.integers(0, 256, size=BLOCK_BYTES, dtype=np.uint8)
        for _ in range(NUM_BLOCKS)
    ]


def test_kv_pool_append_fetch_hot_path():
    """Block-table append + fetch over an in-memory (cpu-target) engine:
    the per-decode-step cost a serving loop pays, no disk in the path."""
    engine = build_engine(EngineConfig(target="cpu"))
    payloads = _payloads()
    counter = [0]

    def cycle():
        run = counter[0]
        counter[0] += 1
        pool = KVBlockPool(
            engine,
            block_tokens=BLOCK_TOKENS,
            num_layers=2,
            hbm_capacity_bytes=(NUM_BLOCKS // 2) * BLOCK_BYTES,
            strategy=SplitToken(hbm_recent_blocks=4, cpu_window_blocks=8),
        )
        rid = f"req{run}"
        pool.begin_request(rid, context_tokens=(NUM_BLOCKS // 2) * BLOCK_TOKENS)
        for i in range(NUM_BLOCKS // 2):
            for layer in range(2):
                pool.append_block(rid, layer, payloads[2 * i + layer])
        for i in range(NUM_BLOCKS // 2):
            for layer in range(2):
                pool.fetch(rid, layer, i)
        stats = pool.stats
        pool.release_request(rid)
        return stats

    try:
        stats = cycle()
        emit(
            "KV pool — append/fetch hot path (in-memory engine)",
            [
                f"blocks written per cycle: {stats.blocks_written}",
                f"hbm hits: {stats.hbm_hits}  demand fetches: {stats.demand_fetches}",
            ],
        )
        assert stats.blocks_written == NUM_BLOCKS
    finally:
        engine.shutdown()


def test_kv_prefetch_planning_hot_path():
    """The look-ahead planning + inline prefetch migration cycle — what
    the serving loop pays between decode rounds."""
    engine = build_engine(EngineConfig(target="cpu"))
    payloads = _payloads()
    pool = KVBlockPool(
        engine,
        block_tokens=BLOCK_TOKENS,
        num_layers=2,
        hbm_capacity_bytes=NUM_BLOCKS * BLOCK_BYTES,
        strategy=LookAheadBatch(
            base=SplitToken(hbm_recent_blocks=1, cpu_window_blocks=64), depth=4
        ),
    )
    counter = [0]

    def cycle():
        run = counter[0]
        counter[0] += 1
        rid = f"req{run}"
        pool.begin_request(rid, context_tokens=(NUM_BLOCKS // 2) * BLOCK_TOKENS)
        for i in range(NUM_BLOCKS // 2):
            pool.append_block(rid, 0, payloads[i])
        issued = pool.prefetch([rid])
        pool.release_request(rid)
        return issued

    try:
        issued = cycle()
        emit(
            "KV pool — look-ahead prefetch planning + migration",
            [f"blocks prefetched per cycle: {issued}"],
        )
        assert issued > 0
    finally:
        engine.shutdown()


def test_kv_paged_vs_hbm_only_ttft_ab():
    """Deterministic A/B: paging must keep its concurrency and tail-TTFT
    win over the HBM-only baseline regardless of how wall-clock moves."""
    trace = RequestTrace.generate(TraceConfig(num_requests=16, seed=1234))
    paged = KVServerSim(trace, ServerConfig(paged=True)).run()
    base = KVServerSim(trace, ServerConfig(paged=False)).run()
    emit(
        "KV serving — paged vs HBM-only (virtual clock)",
        [
            f"paged:    peak {paged.peak_concurrency}  "
            f"p50 {paged.ttft_p50:.4f}s  p99 {paged.ttft_p99:.4f}s  "
            f"hit rate {paged.prefetch_hit_rate:.3f}",
            f"hbm-only: peak {base.peak_concurrency}  "
            f"p50 {base.ttft_p50:.4f}s  p99 {base.ttft_p99:.4f}s  "
            f"rejected {base.rejected}",
        ],
    )
    assert paged.peak_concurrency > base.peak_concurrency
    assert paged.bit_exact_ok
    assert paged.prefetch_hit_rate > 0
    assert paged.ttft_p99 < base.ttft_p99
