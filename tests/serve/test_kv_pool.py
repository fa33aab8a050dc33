"""KV block pool: lifecycle, eviction, prefetch accounting, bit-exactness."""

import numpy as np
import pytest

from repro.core import EngineConfig, build_engine
from repro.io.faults import FaultPlan, inject_faults
from repro.serve import (
    BlockKey,
    BlockState,
    KVBlockPool,
    LayerImportance,
    LookAheadBatch,
    PreferHBM,
    SplitToken,
    make_strategy,
)

BLOCK_TOKENS = 8
BLOCK_BYTES = BLOCK_TOKENS * 16  # payload below uses 16 bytes per token


def payload(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=BLOCK_BYTES, dtype=np.uint8)


@pytest.fixture
def engine(tmp_path):
    eng = build_engine(
        EngineConfig(
            target="tiered",
            store_dir=tmp_path / "kv",
            cpu_pool_bytes=4 * BLOCK_BYTES,
            promote_on_load=False,
        )
    )
    yield eng
    eng.shutdown()


def make_pool(engine, *, blocks_in_hbm=4, strategy=None):
    return KVBlockPool(
        engine,
        block_tokens=BLOCK_TOKENS,
        num_layers=2,
        hbm_capacity_bytes=blocks_in_hbm * BLOCK_BYTES,
        strategy=strategy,
    )


# --------------------------------------------------------------- lifecycle
def test_block_lifecycle_append_fetch_release(engine):
    pool = make_pool(engine)
    pool.begin_request("r1", user="alice", context_tokens=2 * BLOCK_TOKENS)
    data = payload(1)
    key = pool.append_block("r1", 0, data)
    assert key == BlockKey("r1", 0, 0)
    assert key.token_range == (0, BLOCK_TOKENS)
    assert pool.block_tier(key) == "hbm"
    assert pool.hbm_used_bytes == BLOCK_BYTES

    out = pool.fetch("r1", 0, 0)
    assert np.array_equal(out, data)
    assert pool.stats.hbm_hits == 1

    assert pool.release_request("r1") == 1
    assert pool.hbm_used_bytes == 0
    assert pool.request_ids() == []
    with pytest.raises(KeyError):
        pool.fetch("r1", 0, 0)


def test_append_validates_layer_and_duplicate_request(engine):
    pool = make_pool(engine)
    pool.begin_request("r1")
    with pytest.raises(ValueError, match="layer"):
        pool.append_block("r1", 9, payload(0))
    with pytest.raises(ValueError, match="already registered"):
        pool.begin_request("r1")
    with pytest.raises(KeyError):
        pool.append_block("ghost", 0, payload(0))


def test_split_token_places_by_position(engine):
    """A 3-block context under SplitToken(1, 1) spans all three tiers."""
    pool = make_pool(
        engine, strategy=SplitToken(hbm_recent_blocks=1, cpu_window_blocks=1)
    )
    pool.begin_request("r1", context_tokens=3 * BLOCK_TOKENS)
    keys = [pool.append_block("r1", 0, payload(i)) for i in range(3)]
    assert pool.block_tier(keys[0]) == "ssd"  # cold prefix
    assert pool.block_tier(keys[1]) == "cpu"  # warm window
    assert pool.block_tier(keys[2]) == "hbm"  # decode tail
    assert pool.tier_census() == {"ssd": 1, "cpu": 1, "hbm": 1}


def test_bit_exact_round_trip_through_each_tier(engine):
    """KV bytes must survive migration through hbm, cpu and ssd."""
    pool = make_pool(
        engine, strategy=SplitToken(hbm_recent_blocks=1, cpu_window_blocks=1)
    )
    pool.begin_request("r1", context_tokens=3 * BLOCK_TOKENS)
    originals = [payload(10 + i) for i in range(3)]
    keys = [pool.append_block("r1", 0, originals[i]) for i in range(3)]
    tiers = [pool.block_tier(k) for k in keys]
    assert sorted(tiers) == ["cpu", "hbm", "ssd"]
    for key, original in zip(keys, originals):
        out = pool.fetch("r1", key.layer, key.index)
        assert np.array_equal(np.asarray(out, dtype=np.uint8).ravel(), original)
    # Fetches re-admit to HBM; pool books must reconcile.
    assert pool.stats.demand_fetches == 2
    assert pool.stats.fetched_bytes == 2 * BLOCK_BYTES


def test_release_drops_paged_out_blocks_from_the_engine(engine):
    pool = make_pool(engine, blocks_in_hbm=0)
    pool.begin_request("r1")
    keys = [pool.append_block("r1", 0, payload(i)) for i in range(4)]
    tids = [pool._table[key].tid for key in keys]
    assert all(pool.block_tier(key) in ("cpu", "ssd") for key in keys)
    assert pool.release_request("r1") == 4
    assert pool.stats.released_blocks == 4
    assert pool.tier_census() == {}
    assert all(engine.offloader.tier_of(tid).value == "gpu" for tid in tids)
    assert engine.offloader.pool.used == 0


# ---------------------------------------------------------------- eviction
def test_lru_eviction_under_hbm_pressure(engine):
    pool = make_pool(engine, blocks_in_hbm=2, strategy=PreferHBM())
    pool.begin_request("r1", context_tokens=3 * BLOCK_TOKENS)
    k0 = pool.append_block("r1", 0, payload(0))
    k1 = pool.append_block("r1", 0, payload(1))
    pool.fetch("r1", 0, 0)  # touch k0: k1 becomes LRU
    k2 = pool.append_block("r1", 0, payload(2))
    assert pool.block_tier(k0) == "hbm"
    assert pool.block_tier(k1) in ("cpu", "ssd")
    assert pool.block_tier(k2) == "hbm"
    assert pool.stats.evictions == 1


def test_layer_importance_evicts_low_value_layers_first(engine):
    """Layer 0 (lowest importance) leaves first even if most recent."""
    pool = make_pool(engine, blocks_in_hbm=2, strategy=LayerImportance())
    pool.begin_request("r1", context_tokens=2 * BLOCK_TOKENS)
    deep = pool.append_block("r1", 1, payload(0))
    shallow = pool.append_block("r1", 0, payload(1))  # more recent
    pool.append_block("r1", 1, payload(2))  # forces one eviction
    assert pool.block_tier(shallow) in ("cpu", "ssd")
    assert pool.block_tier(deep) == "hbm"


def test_overflow_block_pages_itself_out(engine):
    """With nothing evictable, an oversized append pages out instead."""
    pool = make_pool(engine, blocks_in_hbm=0, strategy=PreferHBM())
    pool.begin_request("r1")
    key = pool.append_block("r1", 0, payload(0))
    assert pool.block_tier(key) in ("cpu", "ssd")
    assert pool.hbm_used_bytes == 0
    assert np.array_equal(pool.fetch("r1", 0, 0), payload(0))


# ---------------------------------------------------------------- prefetch
def test_prefetch_hit_and_miss_accounting(engine):
    strategy = LookAheadBatch(
        base=SplitToken(hbm_recent_blocks=1, cpu_window_blocks=1), depth=1
    )
    pool = make_pool(engine, strategy=strategy, blocks_in_hbm=8)
    for rid in ("r1", "r2"):
        pool.begin_request(rid, context_tokens=3 * BLOCK_TOKENS)
        for i in range(3):
            pool.append_block(rid, 0, payload(hash(rid) % 97 + i))
    assert len(pool.paged_out_keys("r1")) == 2

    # depth=1: only r1's paged-out blocks are planned.
    issued = pool.prefetch(["r1", "r2"])
    assert issued == 2
    assert pool.stats.prefetch_issued == 2
    assert pool.paged_out_keys("r1") == []

    pool.fetch("r1", 0, 0)  # prefetched -> hit
    pool.fetch("r2", 0, 0)  # engine-resident -> demand miss
    assert pool.stats.prefetch_hits == 1
    assert pool.stats.demand_fetches == 1
    assert pool.stats.prefetch_hit_rate == pytest.approx(0.5)

    # Re-prefetching already-resident blocks is a no-op.
    assert pool.prefetch(["r1"]) == 0


def test_eviction_clears_prefetched_flag(engine):
    strategy = LookAheadBatch(base=PreferHBM(), depth=1)
    pool = make_pool(engine, strategy=strategy, blocks_in_hbm=1)
    pool.begin_request("r1", context_tokens=2 * BLOCK_TOKENS)
    k0 = pool.append_block("r1", 0, payload(0))
    pool.append_block("r1", 0, payload(1))  # evicts k0
    assert pool.block_tier(k0) != "hbm"
    pool.prefetch(["r1"])  # brings k0 back (evicting k1)
    pool.append_block("r1", 1, payload(2))  # evicts the prefetched k0 again
    assert pool.block_tier(k0) != "hbm"
    # The flag must not survive the eviction: a second prefetch re-issues.
    assert pool.prefetch(["r1"]) >= 1


def test_failed_prefetch_load_leaves_block_unflagged(engine, monkeypatch):
    """A prefetch whose inline load raises must not poison the block:
    still ENGINE, un-flagged, re-issued by the next prefetch, and its
    later HBM read booked as a plain hit."""
    import errno

    strategy = LookAheadBatch(base=PreferHBM(), depth=1)
    pool = make_pool(engine, strategy=strategy, blocks_in_hbm=1)
    pool.begin_request("r1", context_tokens=2 * BLOCK_TOKENS)
    data = payload(7)
    k0 = pool.append_block("r1", 0, data)
    pool.append_block("r1", 0, payload(8))  # evicts k0 to the engine
    meta = pool._table[k0]
    assert meta.state is BlockState.ENGINE

    real_load = engine.offloader.load
    faults = [OSError(errno.EIO, "injected read fault")]

    def flaky_load(*args, **kwargs):
        if faults:
            raise faults.pop()
        return real_load(*args, **kwargs)

    monkeypatch.setattr(engine.offloader, "load", flaky_load)
    with pytest.raises(OSError):
        pool.prefetch(["r1"])
    assert meta.state is BlockState.ENGINE
    assert not meta.prefetched
    assert pool.stats.prefetch_issued == 0

    # The next look-ahead re-issues it, and that one does hit.
    assert pool.prefetch(["r1"]) == 1
    assert pool.stats.prefetch_issued == 1
    assert np.array_equal(pool.fetch("r1", 0, 0), data)
    assert np.array_equal(pool.fetch("r1", 0, 0), data)
    assert (pool.stats.prefetch_hits, pool.stats.hbm_hits) == (1, 1)
    assert pool.stats.demand_fetches == 0


def test_demand_fetch_clears_a_stale_prefetched_flag(engine):
    """A block that reaches HBM by demand fetch reads as a plain hit
    afterwards, whatever the flag said while it was paged out."""
    pool = make_pool(engine, blocks_in_hbm=1)
    pool.begin_request("r1", context_tokens=2 * BLOCK_TOKENS)
    k0 = pool.append_block("r1", 0, payload(0))
    pool.append_block("r1", 0, payload(1))  # evicts k0
    pool._table[k0].prefetched = True  # as a failed look-ahead once left it
    pool.fetch("r1", 0, 0)
    pool.fetch("r1", 0, 0)
    assert (pool.stats.demand_fetches, pool.stats.hbm_hits) == (1, 1)
    assert pool.stats.prefetch_hits == 0
    assert pool.stats.prefetch_hit_rate == 0.0


# ------------------------------------------------------------- demand path
def test_demand_fetch_runs_where_the_bytes_are(engine, monkeypatch):
    """A block in the pinned pool is read on the calling thread; a block
    on the SSD is queued on the ssd lane and awaited, so with every ssd
    worker busy the waiter runs it itself.  Both are BLOCKING_LOADs on
    the scheduler's books."""
    import threading

    from tests.conftest import block_workers

    threads = []  # the thread every offloader.load body ran on
    real_load = engine.offloader.load

    def load(*args, **kwargs):
        threads.append(threading.current_thread())
        return real_load(*args, **kwargs)

    pool = make_pool(
        engine, strategy=SplitToken(hbm_recent_blocks=1, cpu_window_blocks=1)
    )
    pool.begin_request("r1", user="alice", context_tokens=3 * BLOCK_TOKENS)
    originals = [payload(20 + i) for i in range(3)]
    ssd_key, cpu_key, _ = [pool.append_block("r1", 0, data) for data in originals]
    assert (pool.block_tier(ssd_key), pool.block_tier(cpu_key)) == ("ssd", "cpu")
    gate = threading.Event()
    block_workers(engine.scheduler, gate)  # before the listener: its gates stay out of events
    gates = engine.scheduler.stats_snapshot().submitted
    monkeypatch.setattr(engine.offloader, "load", load)
    events = []
    engine.scheduler.add_listener(lambda event, req: events.append((event, req.lane)))
    try:
        assert np.array_equal(pool.fetch("r1", 0, cpu_key.index), originals[1])
        assert threads == [threading.current_thread()]
        assert events == [("submit", "cpu"), ("start", "cpu"), ("done", "cpu")]

        assert np.array_equal(pool.fetch("r1", 0, ssd_key.index), originals[0])
        assert threads == [threading.current_thread()] * 2
        assert events[3:] == [("submit", "ssd"), ("start", "ssd"), ("done", "ssd")]
    finally:
        gate.set()
    assert engine.scheduler.drain(5)

    books = engine.scheduler.stats_snapshot()
    assert books.submitted_by_class == {"BLOCKING_LOAD": 2 + gates}
    assert books.submitted == books.executed == 2 + gates
    assert engine.scheduler.pending() == 0
    assert engine.stats().tenants["alice"].executed == 2
    assert pool.stats.demand_fetches == 2


def test_failed_inline_demand_fetch_surfaces_and_is_booked(engine, monkeypatch):
    pool = make_pool(engine, blocks_in_hbm=0)
    pool.begin_request("r1", user="alice")
    key = pool.append_block("r1", 0, payload(3))
    assert pool.block_tier(key) == "cpu"

    def boom(*args, **kwargs):
        raise ValueError("boom")

    with monkeypatch.context() as patched:
        patched.setattr(engine.offloader, "load", boom)
        with pytest.raises(ValueError, match="boom"):
            pool.fetch("r1", 0, 0)
    books = engine.scheduler.stats_snapshot()
    assert (books.submitted, books.executed, books.failed) == (1, 0, 1)
    assert engine.stats().tenants["alice"].failed == 1
    assert engine.scheduler.pending() == 0 and engine.scheduler.drain(1)
    # The block is where it was and reads back once the fault is gone.
    assert pool._table[key].state is BlockState.ENGINE and pool.stats.demand_fetches == 0
    assert np.array_equal(pool.fetch("r1", 0, 0), payload(3))


def test_a_clean_eviction_stores_nothing(engine):
    """A block read back from the pinned pool keeps its engine copy, so
    its next eviction only flips its state; releasing the request frees
    that copy although the block is in HBM."""
    pool = make_pool(engine, blocks_in_hbm=1)
    pool.begin_request("r1")
    data = [payload(40), payload(41)]
    pool.append_block("r1", 0, data[0])
    pool.append_block("r1", 0, data[1])  # evicts block 0: stored
    assert np.array_equal(pool.fetch("r1", 0, 0), data[0])  # evicts block 1: stored

    def books():
        return (
            pool.stats.writebacks,
            engine.stats().tiers.cpu_stored_tensors,
            pool.stats.evictions,
        )

    writebacks, stored, evictions = books()
    assert np.array_equal(pool.fetch("r1", 0, 1), data[1])  # evicts block 0: clean
    assert pool.block_tier(BlockKey("r1", 0, 0)) == "cpu"
    assert books() == (writebacks, stored, evictions + 1)
    assert np.array_equal(pool.fetch("r1", 0, 0), data[0])
    assert pool._table[BlockKey("r1", 0, 0)].engine_copy  # in HBM, copy kept
    assert pool.release_request("r1") == 2
    assert engine.stats().pool.used_bytes == 0


def test_a_read_back_from_a_pool_over_half_full_gives_the_copy_up(engine):
    """The ``vm_swap_full()`` rule: with the pinned pool more than half
    full a read-back releases the engine's copy, and the block's next
    eviction stores it again."""
    pool = make_pool(engine, blocks_in_hbm=1)
    pool.begin_request("r1")
    data = [payload(50 + i) for i in range(4)]
    for block in data:
        pool.append_block("r1", 0, block)  # blocks 0-2 stored: the pool is 3/4 full
    meta = pool._table[BlockKey("r1", 0, 0)]
    assert np.array_equal(pool.fetch("r1", 0, 0), data[0])
    assert not meta.engine_copy and engine.offloader.tier_of(meta.tid).value == "gpu"
    writebacks, stored = pool.stats.writebacks, engine.stats().tiers.cpu_stored_tensors
    assert np.array_equal(pool.fetch("r1", 0, 1), data[1])  # evicts block 0: stored
    assert meta.state is BlockState.ENGINE
    assert pool.stats.writebacks == writebacks + 1
    assert engine.stats().tiers.cpu_stored_tensors == stored + 1
    assert np.array_equal(pool.fetch("r1", 0, 0), data[0])


def test_an_ssd_copy_is_stored_again_when_its_block_is_evicted(engine):
    """Only a pinned-pool copy makes an eviction clean.  A block read
    back from the SSD is written back when it leaves HBM, so a device
    that died unnoticed never holds a block's only copy."""
    pool = make_pool(
        engine, blocks_in_hbm=1, strategy=SplitToken(hbm_recent_blocks=1, cpu_window_blocks=0)
    )
    pool.begin_request("r1", context_tokens=2 * BLOCK_TOKENS)
    cold, warm = payload(60), payload(61)
    cold_key = pool.append_block("r1", 0, cold)
    pool.append_block("r1", 0, warm)
    assert pool.block_tier(cold_key) == "ssd"
    assert np.array_equal(pool.fetch("r1", 0, 0), cold)  # from the SSD into HBM
    assert pool.block_tier(cold_key) == "hbm"

    inject_faults(engine.offloader, FaultPlan(seed=0)).kill()
    assert not engine.offloader.ssd_dead  # no traffic has noticed yet
    writebacks = pool.stats.writebacks
    assert np.array_equal(pool.fetch("r1", 0, 1), warm)  # evicts the cold block
    assert pool.block_tier(cold_key) != "hbm"
    assert pool.stats.writebacks > writebacks
    assert np.array_equal(pool.fetch("r1", 0, 0), cold)


def test_block_state_has_one_writer():
    """``KVBlockPool._set_state`` is the only assignment to a block's
    state: the resident index and the HBM byte count ride on that."""
    import inspect
    import re

    import repro.serve.kv_pool as kv_pool

    writes = re.findall(r"^.*\.state\s*=[^=].*$", inspect.getsource(kv_pool), re.MULTILINE)
    assert [w.strip() for w in writes] == ["meta.state = state"]


def test_victim_comes_from_the_resident_index_not_a_table_scan(engine):
    """An eviction hands the strategy the HBM residents only, however
    many paged-out blocks the table holds."""
    handed = []

    class Spy(PreferHBM):
        def eviction_order(self, resident):
            handed.append(len(resident))
            return super().eviction_order(resident)

    pool = make_pool(engine, blocks_in_hbm=2, strategy=Spy())
    pool.begin_request("r1")
    for i in range(8):
        pool.append_block("r1", 0, payload(i))
    assert handed == [2] * 6
    assert len(pool._table) == 8 and pool.hbm_used_bytes == 2 * BLOCK_BYTES
    assert set(pool._resident) == {
        k for k, m in pool._table.items() if m.state is BlockState.HBM
    }
    assert [k.index for k in pool._resident] == [6, 7]


# ----------------------------------------------------------------- tenancy
def test_requests_map_to_tenant_books(engine, tmp_path):
    """KV traffic lands in the engine's per-tenant books (PR 6 reuse)."""
    pool = make_pool(
        engine, strategy=SplitToken(hbm_recent_blocks=1, cpu_window_blocks=4)
    )
    pool.begin_request("r1", user="alice", context_tokens=3 * BLOCK_TOKENS)
    for i in range(3):
        pool.append_block("r1", 0, payload(i))
    books = engine.stats().pool
    assert books is not None
    assert books.used_by_tenant.get("alice", 0) > 0
    # A demand fetch rides the scheduler under the same tenant.
    pool.fetch("r1", 0, 0)
    tenants = engine.stats().tenants
    assert "alice" in tenants


def test_make_strategy_names():
    for name in ("prefer-hbm", "split-token", "layer-importance", "lookahead"):
        assert make_strategy(name) is not None
    with pytest.raises(ValueError, match="unknown paging strategy"):
        make_strategy("nope")


def test_pool_validates_construction(engine):
    with pytest.raises(ValueError):
        KVBlockPool(engine, block_tokens=0)
    with pytest.raises(ValueError):
        KVBlockPool(engine, num_layers=0)
    with pytest.raises(ValueError):
        KVBlockPool(engine, hbm_capacity_bytes=-1)


def test_blocks_marked_prefetched_state_transitions(engine):
    pool = make_pool(engine, blocks_in_hbm=0)
    pool.begin_request("r1")
    key = pool.append_block("r1", 0, payload(0))
    meta = pool._table[key]
    assert meta.state is BlockState.ENGINE
    pool.fetch("r1", 0, 0)
    assert meta.state is BlockState.ENGINE  # hbm capacity 0: paged out again
    assert pool.stats.writebacks == 1
