"""Self-healing chaos suite: degraded modes end to end (architecture §12).

The acceptance properties of ISSUE 10's graceful-degradation layer,
each proven with real file I/O:

1. **die → heal → resurrect** — permanent SSD death fails placement
   over to CPU (breaker opens); after the injector heals, half-open
   canary probes re-close the breaker, the tier is resurrected and
   losses stay bit-exact vs the fault-free run;
2. **fault-injection parity** — the same transient-fault plan bites and
   heals identically under all three lane backends (thread, uring,
   gds-sim), with bit-exact results per backend *and* across backends;
3. **ENOSPC survival** — a full device degrades stores to the CPU tier
   (after one compact-and-retry) without tripping the breaker and with
   zero failed requests;
4. **brownout** — a *slow* lane verdict sheds prefetch, placement and
   demotion traffic while blocking loads keep flowing;
5. **combined failure** — the KV-serving workload under SSD brownout
   plus a tenant-wide transient retry storm: TTFT degrades boundedly,
   every user's KV bytes stay bit-exact, and the breaker stays CLOSED
   (slow is not dead); a separate die-then-heal cycle on the serving
   pool shows the full breaker transition sequence on the bus listener.
"""

import threading
import time

import numpy as np
import pytest

from repro.core import EngineConfig, OffloadPolicy, PolicyConfig, build_engine
from repro.data import SyntheticCorpus, TokenBatchLoader
from repro.device import GPU
from repro.io.breaker import BreakerState
from repro.io.faults import FaultPlan, inject_faults
from repro.io.tenancy import TenantRegistry
from repro.models import GPT, ModelConfig
from repro.optim import SGD
from repro.train import PlacementStrategy, Trainer

CONFIG = ModelConfig(
    arch="gpt", hidden=64, num_layers=2, vocab_size=97, seq_len=32, head_dim=32
)
STEPS = 5


def _train_engine(
    tmp_path,
    name,
    plan=None,
    kill_before_step=None,
    heal_before_step=None,
    probe_backoff_s=None,
    io_backend="thread",
):
    """Train on a tiered engine; returns (losses, injector, engine books)."""
    gpu = GPU()
    model = GPT(CONFIG, rng=np.random.default_rng(0)).to(gpu)
    policy = OffloadPolicy(PolicyConfig(min_offload_numel=256))
    engine = build_engine(
        EngineConfig(
            target="tiered",
            store_dir=tmp_path / name,
            cpu_pool_bytes=64 << 10,
            policy=policy,
            probe_backoff_s=probe_backoff_s,
            io_backend=io_backend,
        )
    )
    cache = engine.cache()
    injector = inject_faults(cache.offloader, plan) if plan is not None else None
    trainer = Trainer(
        model,
        SGD(model.parameters(), lr=1e-3),
        gpu,
        strategy=PlacementStrategy.OFFLOAD,
        cache=cache,
    )
    loader = TokenBatchLoader(
        SyntheticCorpus(vocab_size=CONFIG.vocab_size, seed=5),
        batch_size=2,
        seq_len=CONFIG.seq_len,
        device=gpu,
    )
    losses = []
    offloader = cache.offloader
    try:
        for step in range(STEPS):
            if injector is not None and kill_before_step == step:
                injector.kill()
            if injector is not None and heal_before_step == step:
                injector.heal()
            losses.append(trainer.train_step([loader.next_batch()]).loss)
        if probe_backoff_s is not None and heal_before_step is not None:
            # Settle: drive the outstanding probe rounds so the asserts
            # see the post-resurrection state, not a race.
            deadline = time.monotonic() + 5.0
            while offloader.ssd_dead and time.monotonic() < deadline:
                offloader.maybe_probe_ssd()
                time.sleep(probe_backoff_s)
        sched_stats = cache.scheduler.stats
    finally:
        trainer.close()
    return losses, injector, sched_stats, offloader


# ------------------------------------------------- die -> heal -> resurrect
def test_die_heal_resurrect_bit_exact(tmp_path):
    clean, _, _, _ = _train_engine(tmp_path, "clean")
    healed, injector, stats, offloader = _train_engine(
        tmp_path,
        "healed",
        plan=FaultPlan(seed=0),
        kill_before_step=1,
        heal_before_step=3,
        probe_backoff_s=0.005,
    )
    assert injector.fault_stats.permanent_failures > 0, "death must bite"
    breaker = offloader.breaker
    assert breaker.stats.trips >= 1
    assert breaker.stats.resurrections >= 1, "probes must resurrect the tier"
    assert breaker.state == BreakerState.CLOSED
    assert not offloader.ssd_dead
    assert offloader.stats.resurrections >= 1
    assert healed == clean, "losses must stay bit-exact through the cycle"


def test_resurrected_tier_accepts_stores_again(tmp_path):
    _, _, _, offloader = _train_engine(
        tmp_path,
        "resurrect",
        plan=FaultPlan(seed=1),
        kill_before_step=1,
        heal_before_step=2,
        probe_backoff_s=0.005,
    )
    assert not offloader.ssd_dead
    # Degraded mode is over: nothing is left over the pool's cap, and
    # fresh stores flow normally again.
    assert offloader.pool.overflow_bytes == 0
    from repro.core import TensorID

    tid = TensorID(stamp=990, shape=(512,))
    data = np.arange(512, dtype=np.float32)
    offloader.store(tid, data)
    out = offloader.load(tid, data.shape, data.dtype)
    assert np.array_equal(out, data)


def test_unhealed_device_stays_open(tmp_path):
    """Probes against a still-dead device re-open the breaker (doubled
    backoff), never resurrect."""
    _, injector, _, offloader = _train_engine(
        tmp_path,
        "stilldead",
        plan=FaultPlan(seed=2),
        kill_before_step=1,
    )
    assert injector.dead
    breaker = offloader.breaker
    assert breaker.state == BreakerState.OPEN
    # Force a probe round: the canary hits the dead injector and fails.
    deadline = time.monotonic() + 5.0
    while breaker.stats.probe_failures == 0 and time.monotonic() < deadline:
        offloader.maybe_probe_ssd()
        time.sleep(0.01)
    assert breaker.stats.probe_failures >= 1
    assert breaker.stats.resurrections == 0
    assert offloader.ssd_dead


# --------------------------------------------- 3-backend chaos matrix
@pytest.mark.parametrize("io_backend", ["thread", "uring", "gds-sim"])
def test_backend_chaos_matrix_bit_exact_recovery(tmp_path, io_backend):
    """Fault-injection parity: the injector wraps the store layer, so
    the same plan must fire (and heal) under the batched SQ/CQ paths
    exactly as under the thread backend."""
    clean, _, _, _ = _train_engine(tmp_path, f"clean-{io_backend}", io_backend=io_backend)
    plan = FaultPlan.transient(rate=0.2, seed=3)
    faulted, injector, stats, _ = _train_engine(
        tmp_path, f"faulted-{io_backend}", plan=plan, io_backend=io_backend
    )
    assert injector.fault_stats.injected_transient > 0, (
        f"the plan must bite under the {io_backend} backend"
    )
    assert stats.failed == 0, "every transient must heal within the retry budget"
    assert faulted == clean, f"{io_backend}: losses must be bit-exact"


def test_backends_agree_bit_exact(tmp_path):
    """The recovered losses are identical across all three backends."""
    plan_seed = 4
    results = {}
    for io_backend in ("thread", "uring", "gds-sim"):
        losses, _, _, _ = _train_engine(
            tmp_path,
            f"agree-{io_backend}",
            plan=FaultPlan.transient(rate=0.2, seed=plan_seed),
            io_backend=io_backend,
        )
        results[io_backend] = losses
    assert results["thread"] == results["uring"] == results["gds-sim"]


# ------------------------------------------------------- ENOSPC survival
def test_enospc_degrades_to_cpu_without_tripping_breaker(tmp_path):
    from repro.core import build_engine

    policy = OffloadPolicy(PolicyConfig(min_offload_numel=256))
    # A pool that only holds two tensors: the third store demotes a
    # victim to the SSD, driving writes into the injector's ENOSPC budget.
    engine = build_engine(
        target="tiered",
        store_dir=tmp_path / "enospc",
        cpu_pool_bytes=8 << 10,
        policy=policy,
    )
    offloader = engine.offloader
    from repro.core import TensorID

    injector = inject_faults(offloader, FaultPlan.enospc(after_bytes=4 << 10))
    blobs = {
        TensorID(stamp=i, shape=(1024,)): np.full(1024, float(i), dtype=np.float32)
        for i in range(8)
    }
    for tid, data in blobs.items():
        offloader.store(tid, data)
    assert engine.scheduler.drain(10)  # every queued spill ran into the full device
    assert injector.fault_stats.injected_enospc > 0, "ENOSPC must bite"
    assert offloader.stats.enospc_events > 0
    # ENOSPC is resource exhaustion, not device death: the breaker
    # must stay CLOSED and the lane alive.
    assert offloader.breaker.state == BreakerState.CLOSED
    assert not offloader.ssd_dead
    # Every tensor is still loadable, bit-exact (full-device victims
    # went back into the CPU pool, over its cap).
    for tid, data in blobs.items():
        out = offloader.load(tid, data.shape, data.dtype)
        assert np.array_equal(out, data), tid
    engine.shutdown()


def test_enospc_training_run_survives_full_root(tmp_path):
    """One store root fills mid-run: write-leveling re-routes chunks to
    the other root with zero failed steps and bit-exact losses."""
    import errno

    def run(name, root0_cap=None):
        gpu = GPU()
        model = GPT(CONFIG, rng=np.random.default_rng(0)).to(gpu)
        policy = OffloadPolicy(PolicyConfig(min_offload_numel=256))
        engine = build_engine(
            EngineConfig(
                target="tiered",
                store_dir=tmp_path / name,
                cpu_pool_bytes=64 << 10,
                policy=policy,
                chunk_bytes=32 << 10,
                store_roots=[tmp_path / f"{name}-root1"],
            )
        )
        if root0_cap is not None:
            budget = {"left": root0_cap}

            def gate(root_index, nbytes, _b=budget):
                if root_index == 0:
                    _b["left"] -= nbytes
                    if _b["left"] < 0:
                        raise OSError(errno.ENOSPC, "injected: root 0 full")

            engine.chunk_store.fault_gate = gate
        cache = engine.cache()
        trainer = Trainer(
            model,
            SGD(model.parameters(), lr=1e-3),
            gpu,
            strategy=PlacementStrategy.OFFLOAD,
            cache=cache,
        )
        loader = TokenBatchLoader(
            SyntheticCorpus(vocab_size=CONFIG.vocab_size, seed=5),
            batch_size=2,
            seq_len=CONFIG.seq_len,
            device=gpu,
        )
        try:
            losses = [trainer.train_step([loader.next_batch()]).loss for _ in range(STEPS)]
            sched = cache.scheduler.stats
            store = engine.chunk_store
            return losses, sched, store
        finally:
            trainer.close()

    clean, _, _ = run("full-clean")
    survived, sched, store = run("full-gated", root0_cap=48 << 10)
    assert store.enospc_root_skips >= 1, "the gate must actually fill root 0"
    assert sched.failed == 0
    assert survived == clean


# ------------------------------------------------------------- brownout
def test_brownout_sheds_placement_and_demotions(tmp_path):
    # cpu_tier_max_tensor_bytes below the tensor size: the policy wants
    # SSD placement even with a roomy pool, so the shed branch decides.
    policy = OffloadPolicy(
        PolicyConfig(min_offload_numel=256, cpu_tier_max_tensor_bytes=2048)
    )
    engine = build_engine(
        EngineConfig(
            target="tiered",
            store_dir=tmp_path / "brown",
            cpu_pool_bytes=256 << 10,
            policy=policy,
            io_slow_request_s=0.05,
        )
    )
    try:
        from repro.core import TensorID

        offloader = engine.offloader
        scheduler = engine.scheduler
        # Trip the slow verdict directly (the deterministic hook; the
        # end-to-end latency path is covered in test_deadlines).
        scheduler.health.mark_slow("ssd")
        data = np.arange(1024, dtype=np.float32)
        shed_tid = TensorID(stamp=1, shape=(1024,))
        offloader.store(shed_tid, data)
        assert offloader.stats.shed_stores >= 1
        assert offloader.stats.shed_bytes >= data.nbytes
        # Sheds route to CPU, not to a failure: the bytes load back.
        out = offloader.load(shed_tid, data.shape, data.dtype)
        assert np.array_equal(out, data)
        # Watermark demotions pause during the brownout...
        assert offloader.apply_watermark() == 0
        # ...and the verdict is slow, not dead: breaker stays CLOSED.
        assert offloader.breaker.state == BreakerState.CLOSED
        assert not offloader.ssd_dead
        # A fast op clears the verdict and placement resumes.
        scheduler.health.record_duration("ssd", 0.0)
        offloader.store(TensorID(stamp=2, shape=(1024,)), data)
        assert offloader.stats.shed_stores == 1
    finally:
        engine.shutdown()


def test_brownout_sheds_prefetch(tmp_path):
    policy = OffloadPolicy(PolicyConfig(min_offload_numel=256))
    engine = build_engine(
        EngineConfig(
            target="tiered",
            store_dir=tmp_path / "brownpf",
            cpu_pool_bytes=256 << 10,
            policy=policy,
            io_slow_request_s=0.05,
        )
    )
    try:
        cache = engine.cache(prefetch_window=2)
        # Healthy lane: the look-ahead runs (empty table, nothing shed).
        cache._prefetch_ahead(cache.current)
        assert cache.stats.prefetch_shed == 0
        # Slow lane: the whole look-ahead window is optional traffic and
        # is shed before touching a single record.
        engine.scheduler.health.mark_slow("ssd")
        cache._prefetch_ahead(cache.current)
        assert cache.stats.prefetch_shed == 1, (
            "a slow lane must shed the prefetch lookahead"
        )
        # Verdict clears -> prefetching resumes.
        engine.scheduler.health.record_duration("ssd", 0.0)
        cache._prefetch_ahead(cache.current)
        assert cache.stats.prefetch_shed == 1
    finally:
        engine.shutdown()


# ---------------------------------------- combined failure: KV serving
def _serve(monkeypatch, store_dir, *, degraded=False, plan=None, storm=False):
    """Run the KV server sim, optionally with injected faults, a
    browned-out virtual SSD, and a concurrent tenant retry storm;
    returns (result, captured engine books)."""
    from repro.io import IORequest, Priority
    from repro.io.errors import TransientIOError
    from repro.serve import KVServerSim, RequestTrace, ServerConfig, TraceConfig
    from repro.serve import server_sim

    captured = {}
    if plan is not None or degraded or storm:
        real_build = server_sim.build_engine

        def build_and_inject(config):
            engine = real_build(config)
            captured["engine"] = engine
            captured["scheduler"] = engine.scheduler
            transitions = captured.setdefault("transitions", [])
            engine.scheduler.health.add_breaker_listener(
                lambda name, old, new, why: transitions.append((name, old, new))
            )
            if plan is not None:
                captured["injector"] = inject_faults(engine.offloader, plan)
            if storm:
                # One tenant hammers the shared scheduler with loads
                # that fault transiently on their first attempt — a
                # retry storm riding the same lanes as the serving
                # traffic until the engine shuts down.
                outcome = captured.setdefault(
                    "storm", {"wins": 0, "submitted": 0}
                )
                scheduler = engine.scheduler

                def storm_loop():
                    i = 0
                    while True:
                        attempts = {"n": 0}

                        def flaky(attempts=attempts):
                            attempts["n"] += 1
                            if attempts["n"] == 1:
                                raise TransientIOError("storm hiccup")
                            return b"ok"

                        request = IORequest(
                            flaky,
                            kind="load",
                            priority=Priority.PREFETCH_LOAD,
                            tensor_id=f"storm{i}",
                            lane="ssd",
                        )
                        try:
                            scheduler.submit(request)
                        except Exception:
                            return  # engine shut down: storm over
                        outcome["submitted"] += 1
                        if request.wait(5) and request.error is None:
                            outcome["wins"] += 1
                        i += 1
                        time.sleep(0.001)

                thread = threading.Thread(target=storm_loop, daemon=True)
                captured["storm_thread"] = thread
                thread.start()
            return engine

        monkeypatch.setattr(server_sim, "build_engine", build_and_inject)
    trace = RequestTrace.generate(
        TraceConfig(num_requests=12, num_users=3, seed=77)
    )
    config = ServerConfig(
        store_dir=str(store_dir),
        # Brownout in the virtual cost model: the SSD fetch rate
        # collapses 8x, so paged-out blocks cost more TTFT.
        ssd_fetch_bytes_per_s=8e6 if degraded else 64e6,
    )
    result = KVServerSim(trace, config).run()
    monkeypatch.undo()
    thread = captured.get("storm_thread")
    if thread is not None:
        thread.join(5)
    return result, captured


def test_kv_serving_brownout_plus_retry_storm_bounded(tmp_path, monkeypatch):
    """KVServerSim under SSD brownout + one tenant's retry storm: TTFT
    degrades boundedly, every user's KV bytes stay bit-exact, and the
    breaker never opens (slow/transient are not dead)."""
    clean, _ = _serve(monkeypatch, tmp_path / "kv-clean")
    brown_plan = FaultPlan(seed=9, brownout_after_ops=20, brownout_latency_s=0.002)
    combined, captured = _serve(
        monkeypatch,
        tmp_path / "kv-combined",
        degraded=True,
        plan=brown_plan,
        storm=True,
    )
    injector = captured["injector"]
    assert injector.fault_stats.injected_brownouts > 0, "the brownout must bite"
    storm = captured["storm"]
    assert storm["wins"] > 0, "the retry storm must actually run"
    stats = captured["scheduler"].stats
    assert stats.retries >= storm["wins"], "every storm load retried once"
    # Every request still served; nobody starved.
    assert combined.served == clean.served
    assert combined.rejected == clean.rejected
    # All users' KV bytes bit-exact despite the storm.
    assert combined.bit_exact_checked > 0
    assert combined.bit_exact_ok
    # TTFT degrades boundedly: worse than clean, but within an order of
    # magnitude (the virtual brownout is an 8x rate cut).
    assert combined.ttft_p99 >= clean.ttft_p99
    assert combined.ttft_p99 <= 20.0 * max(clean.ttft_p99, 1e-9)
    # Brownout + transients are NOT death: the breaker logged no
    # transitions (distinct verdicts is the whole point).
    assert captured["transitions"] == []
    assert captured["engine"].offloader.breaker.state == BreakerState.CLOSED


def test_kv_pool_survives_die_then_heal_with_breaker_transitions(tmp_path):
    """The serving pool rides a die-then-heal cycle: stores fail over
    while the breaker is OPEN, canary probes resurrect the tier after
    heal, and the listener sees the full transition sequence."""
    from repro.serve import KVBlockPool, SplitToken

    block_tokens = 8
    block_bytes = block_tokens * 16
    registry = TenantRegistry()
    for user in ("alice", "bob"):
        registry.register(user)
    engine = build_engine(
        EngineConfig(
            target="tiered",
            store_dir=tmp_path / "kv-cycle",
            cpu_pool_bytes=64 * block_bytes,
            tenants=registry,
            promote_on_load=False,
            probe_backoff_s=0.005,
        )
    )
    transitions = []
    engine.scheduler.health.add_breaker_listener(
        lambda name, old, new, why: transitions.append((name, old, new))
    )
    injector = inject_faults(engine.offloader, FaultPlan(seed=5))
    try:
        pool = KVBlockPool(
            engine,
            block_tokens=block_tokens,
            num_layers=1,
            hbm_capacity_bytes=4 * block_bytes,
            strategy=SplitToken(hbm_recent_blocks=1, cpu_window_blocks=1),
        )
        rng = np.random.default_rng(21)

        def blocks_for(request_id, n):
            return [
                rng.integers(0, 256, size=block_bytes, dtype=np.uint8)
                for _ in range(n)
            ]

        originals = {}
        pool.begin_request("r-alice", user="alice", context_tokens=3 * block_tokens)
        originals["r-alice"] = blocks_for("r-alice", 3)
        for data in originals["r-alice"]:
            pool.append_block("r-alice", 0, data)

        injector.kill()
        pool.begin_request("r-bob", user="bob", context_tokens=3 * block_tokens)
        originals["r-bob"] = blocks_for("r-bob", 3)
        for data in originals["r-bob"]:
            pool.append_block("r-bob", 0, data)  # SSD placement fails over
        # Bob's traffic hit the dead device, so *his* breaker opened —
        # tenant-scoped verdicts leave alice's placement untouched.
        assert "bob" in engine.offloader.dead_tenants
        assert ("ssd/bob", BreakerState.CLOSED, BreakerState.OPEN) in transitions

        injector.heal()
        deadline = time.monotonic() + 5.0
        while (
            "bob" in engine.offloader.dead_tenants
            and time.monotonic() < deadline
        ):
            engine.offloader.maybe_probe_ssd("bob")
            time.sleep(0.005)
        assert "bob" not in engine.offloader.dead_tenants, (
            "probes must resurrect the tier for bob"
        )
        assert ("ssd/bob", BreakerState.OPEN, BreakerState.HALF_OPEN) in transitions
        assert (
            "ssd/bob",
            BreakerState.HALF_OPEN,
            BreakerState.CLOSED,
        ) in transitions

        # Every block fetched back bit-exact across the whole cycle —
        # including bob's, whose stores rode the OPEN window.
        for request_id, blocks in originals.items():
            for index, data in enumerate(blocks):
                out = pool.fetch(request_id, 0, index)
                assert np.array_equal(
                    np.asarray(out, dtype=np.uint8).ravel(), data
                ), f"{request_id} block {index}"
    finally:
        engine.shutdown()
