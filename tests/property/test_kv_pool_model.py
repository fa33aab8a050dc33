"""A stateful model of :class:`~repro.serve.kv_pool.KVBlockPool`.

hypothesis drives a pool over a real tiered engine (a pinned pool small
enough that CPU-placed blocks spill to the SSD) with requests of two
users beginning, appending blocks placed in each tier, fetching,
prefetching and finishing, under two eviction orders, against a
``dict`` of what each block must read back as.  After every rule every
live block must fetch bit-exact — through whichever of the three demand
paths its tier picks — and the pool's single-writer books must hold: the
resident index is exactly the HBM-state rows, the HBM byte count is
their sum and within capacity, and the victim the index yields is the
one a scan of the whole table would have picked.  The copy rule's books
hold too: every ENGINE row's bytes are held by the engine, and a row's
``engine_copy`` is set exactly when the engine holds a copy; with four
pool blocks against three HBM blocks, read-backs both keep and (past
half full) release copies.  At the end everything is released and the
tier's and the scheduler's books must reconcile.

Tier-1 runs it derandomised; ``--hypothesis-seed=N`` explores (CI's
stress job passes its run number).
"""

import shutil
import tempfile

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core import EngineConfig, build_engine
from repro.core.policy import Tier
from repro.io import TenantRegistry
from repro.serve import BlockState, KVBlockPool, LayerImportance, LookAheadBatch, PreferHBM
from tests.conftest import assert_tier_books

BLOCK_BYTES = 256
NUM_LAYERS = 2
HBM_BLOCKS = 3
CPU_POOL_BLOCKS = 4
USERS = ("alice", "bob")
REQUESTS = st.sampled_from(("r0", "r1", "r2"))
LAYERS = st.integers(min_value=0, max_value=NUM_LAYERS - 1)


class Steered(LookAheadBatch):
    """The base strategy's eviction order and look-ahead, with placement
    steered by the rule that appends."""

    next_tier = Tier.GPU

    def place(self, ctx):
        return self.next_tier


class KVPoolModel(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.dir = tempfile.mkdtemp(prefix="kv-pool-model-")
        registry = TenantRegistry()
        for user in USERS:
            registry.register(user)
        self.engine = build_engine(
            EngineConfig(
                target="tiered",
                store_dir=self.dir,
                cpu_pool_bytes=CPU_POOL_BLOCKS * BLOCK_BYTES,
                tenants=registry,
                promote_on_load=False,
            )
        )
        self.pool = None
        #: request id -> {(layer, index): payload}
        self.expected: dict = {}
        self.stamp = 0

    @initialize(base=st.sampled_from((PreferHBM, LayerImportance)))
    def build_pool(self, base):
        self.strategy = Steered(base(), depth=2)
        self.pool = KVBlockPool(
            self.engine,
            block_tokens=8,
            num_layers=NUM_LAYERS,
            hbm_capacity_bytes=HBM_BLOCKS * BLOCK_BYTES,
            strategy=self.strategy,
        )

    def teardown(self) -> None:
        try:
            if self.pool is not None:
                for rid in list(self.expected):
                    assert self.pool.release_request(rid) == len(self.expected.pop(rid))
                assert self.pool.hbm_used_bytes == 0 and not self.pool._resident
            sched = self.engine.scheduler
            assert_tier_books(self.engine.offloader, sched, drained=True)
            assert sched.pending() == 0 and sched.stats.failed == 0
            for user, books in sched.tenants.stats_snapshot().items():
                assert books.submitted == books.executed + books.failed + books.cancelled, user
        finally:
            self.engine.shutdown()
            shutil.rmtree(self.dir, ignore_errors=True)

    # ------------------------------------------------------------------ rules
    @precondition(lambda self: len(self.expected) < 3)
    @rule(rid=REQUESTS, user=st.sampled_from(USERS))
    def begin(self, rid, user):
        if rid in self.expected:
            return
        self.pool.begin_request(rid, user=user, context_tokens=32)
        self.expected[rid] = {}

    @precondition(lambda self: self.expected)
    @rule(
        rid=REQUESTS,
        layer=LAYERS,
        tier=st.sampled_from((Tier.GPU, Tier.GPU, Tier.CPU, Tier.SSD)),
    )
    def append(self, rid, layer, tier):
        if rid not in self.expected:
            return
        self.stamp += 1
        data = (np.arange(BLOCK_BYTES) + self.stamp).astype(np.uint8)
        self.strategy.next_tier = tier
        key = self.pool.append_block(rid, layer, data)
        blocks = self.expected[rid]
        assert key.index == sum(1 for lyr, _ in blocks if lyr == layer)
        blocks[(layer, key.index)] = data
        if tier is Tier.SSD:
            assert self.pool.block_tier(key) == "ssd"
        elif tier is Tier.CPU:
            assert self.pool.block_tier(key) in ("cpu", "ssd")  # ssd: the pool was full

    @precondition(lambda self: any(self.expected.values()))
    @rule(data=st.data())
    def fetch(self, data):
        rid = data.draw(st.sampled_from(sorted(r for r, b in self.expected.items() if b)))
        layer, index = data.draw(st.sampled_from(sorted(self.expected[rid])))
        out = self.pool.fetch(rid, layer, index)
        assert np.array_equal(out, self.expected[rid][(layer, index)])

    @precondition(lambda self: self.expected)
    @rule(schedule=st.lists(REQUESTS, min_size=1, max_size=3, unique=True))
    def prefetch(self, schedule):
        paged_out = sum(len(self.pool.paged_out_keys(rid)) for rid in schedule[:2])
        assert self.pool.prefetch(schedule) == paged_out

    @rule(rid=REQUESTS)
    def release_request(self, rid):
        blocks = self.expected.pop(rid, {})
        assert self.pool.release_request(rid) == len(blocks)

    # ------------------------------------------------------------- invariants
    def _check_books(self) -> None:
        pool = self.pool
        with pool._lock:
            live = {
                (rid, layer, index)
                for rid, blocks in self.expected.items()
                for layer, index in blocks
            }
            rows = list(pool._table.values())
            assert {(m.key.request_id, m.key.layer, m.key.index) for m in rows} == live
            assert all(m.state in (BlockState.HBM, BlockState.ENGINE) for m in rows)
            scan = [m for m in rows if m.state is BlockState.HBM]
            assert pool._resident == {m.key: m for m in scan}
            assert all((m.data is not None) == (m.state is BlockState.HBM) for m in rows)
            # The copy rule's books: an ENGINE row's bytes are held by the
            # engine, and a row records a copy exactly when the engine has one.
            tiers = {m.key: self.engine.offloader.tier_of(m.tid) for m in rows}
            assert all(tiers[m.key] is not Tier.GPU for m in rows if m.state is BlockState.ENGINE)
            assert all(m.engine_copy == (tiers[m.key] is not Tier.GPU) for m in rows)
            assert pool.hbm_used_bytes == sum(m.nbytes for m in scan) <= pool.hbm_capacity_bytes
            if scan:
                assert pool._pick_victim() is pool.strategy.eviction_order(scan)[0]
            else:
                assert pool._pick_victim() is None
        assert sum(pool.tier_census().values()) == len(live)

    @invariant()
    def agrees_with_the_model_and_keeps_its_books(self):
        self._check_books()
        for rid, blocks in self.expected.items():
            for (layer, index), data in blocks.items():
                assert np.array_equal(self.pool.fetch(rid, layer, index), data), (rid, layer, index)
        self._check_books()
        # Queued spills settle before the next rule, so a run replays.
        assert self.engine.scheduler.drain(10)
        assert_tier_books(self.engine.offloader)


def test_kv_pool_agrees_with_a_dict(pytestconfig):
    seeded = pytestconfig.getoption("hypothesis_seed", None) is not None
    run_state_machine_as_test(
        KVPoolModel,
        settings=settings(
            max_examples=100, stateful_step_count=40, deadline=None, derandomize=not seeded
        ),
    )
