"""Tests for the online adaptive offload controller and its plumbing:
the EWMA estimators, the budget/window/watermark sizing, the policy and
tiered-pool mutation APIs, the cache's stats feed, and the end-to-end
trainer hookup (budget installed live, numerics untouched)."""

import numpy as np
import pytest

from repro.core import OffloadPolicy, PolicyConfig, SSDOffloader, TensorCache
from repro.core.adaptive import WorkloadProfile, choose_offload_budget
from repro.core.autotune import (
    EWMA,
    AutotuneController,
    ControllerConfig,
    ControllerDecision,
    StepObservation,
)
from repro.core.ids import TensorID
from repro.core.policy import Tier
from repro.data import SyntheticCorpus, TokenBatchLoader
from repro.models import GPT
from repro.optim import SGD
from repro.train import PlacementStrategy, Trainer
from tests.conftest import build_tier

GB = 1024**3


def _obs(write_bw=6e9, read_bw=7e9, fwd=0.5, bwd=1.0, act=8 * GB, stall=0.0,
         tensors=64, **kw):
    """A synthetic steady-state observation at the given bandwidths."""
    write_bytes = int(write_bw * 0.4)  # 0.4 s of channel-busy writing
    read_bytes = int(read_bw * 0.4)
    return StepObservation(
        forward_time_s=fwd,
        backward_time_s=bwd,
        activation_bytes=act,
        write_bytes=write_bytes,
        write_busy_s=0.4,
        read_bytes=read_bytes,
        read_busy_s=0.4 if read_bw > 0 else 0.0,
        read_count=tensors if read_bw > 0 else 0,
        stored_tensors=tensors,
        stored_bytes=write_bytes,
        stall_time_s=stall,
        **kw,
    )


# ------------------------------------------------------------------------ EWMA
def test_ewma_validation():
    with pytest.raises(ValueError):
        EWMA(0)
    with pytest.raises(ValueError):
        EWMA(1.5)


def test_ewma_first_sample_unbiased():
    est = EWMA(0.3)
    assert est.value is None
    assert est.update(10.0) == 10.0


def test_ewma_tracks_step_change_within_five_updates():
    est = EWMA(0.5)
    est.update(100.0)
    for _ in range(5):
        est.update(50.0)
    assert abs(est.value - 50.0) / 50.0 < 0.05


# ------------------------------------------------------------------ controller
def test_controller_budget_matches_formula_on_steady_state():
    ctrl = AutotuneController()
    decision = ctrl.observe(_obs())
    assert decision.retuned
    expected = choose_offload_budget(
        WorkloadProfile(8 * GB, 0.5, 1.0), 6e9, 7e9,
        safety_factor=ctrl.config.safety_factor,
    )
    assert decision.offload_budget_bytes == expected
    assert ctrl.installed_budget_bytes == expected


def test_controller_hysteresis_skips_noise():
    ctrl = AutotuneController()
    first = ctrl.observe(_obs(write_bw=6e9))
    assert first.retuned
    # 2% bandwidth wobble: inside the 5% hysteresis band, no re-install.
    second = ctrl.observe(_obs(write_bw=6.12e9))
    assert not second.retuned
    assert second.offload_budget_bytes == first.offload_budget_bytes


def test_controller_converges_to_halved_bandwidth_within_five_steps():
    ctrl = AutotuneController()
    for _ in range(4):
        ctrl.observe(_obs(write_bw=6e9))
    before = ctrl.installed_budget_bytes
    for _ in range(5):
        decision = ctrl.observe(_obs(write_bw=3e9))
    oracle = choose_offload_budget(
        WorkloadProfile(8 * GB, 0.5, 1.0), 3e9, 7e9,
        safety_factor=ctrl.config.safety_factor,
    )
    assert decision.offload_budget_bytes < 0.6 * before
    assert abs(decision.offload_budget_bytes - oracle) / oracle < 0.1


def test_controller_requires_write_signal_before_retuning():
    ctrl = AutotuneController()
    decision = ctrl.observe(
        StepObservation(forward_time_s=0.5, backward_time_s=1.0, activation_bytes=GB)
    )
    assert not decision.retuned
    assert decision.offload_budget_bytes is None


def test_stall_trims_budget_and_recovery_probes_back():
    cfg = ControllerConfig(recover_patience=1)
    ctrl = AutotuneController(cfg)
    clean = ctrl.observe(_obs()).offload_budget_bytes
    stalled = ctrl.observe(_obs(stall=0.5)).offload_budget_bytes  # 33% of compute
    assert stalled < clean
    more = ctrl.observe(_obs(stall=0.5)).offload_budget_bytes
    assert more < stalled  # multiplicative decrease while stalling
    # Two clean steps beyond patience: the budget probes back up, but
    # never past the formula value.
    ctrl.observe(_obs())
    ctrl.observe(_obs())
    recovered = ctrl.observe(_obs()).offload_budget_bytes
    assert more < recovered <= clean


def test_io_failures_trim_budget_like_stall():
    cfg = ControllerConfig(recover_patience=1)
    ctrl = AutotuneController(cfg)
    clean = ctrl.observe(_obs()).offload_budget_bytes
    flaky = ctrl.observe(_obs(io_failures=3)).offload_budget_bytes
    assert flaky < clean  # a flaky device earns a smaller budget
    ctrl.observe(_obs())
    ctrl.observe(_obs())
    recovered = ctrl.observe(_obs()).offload_budget_bytes
    assert flaky < recovered <= clean


def test_dead_lane_floors_backoff():
    ctrl = AutotuneController()
    ctrl.observe(_obs())
    dead = ctrl.observe(_obs(dead_lanes=("ssd",)))
    assert ctrl._backoff == ctrl.config.min_backoff
    assert dead.offload_budget_bytes <= int(
        ctrl.config.min_backoff
        * choose_offload_budget(
            WorkloadProfile(8 * GB, 0.5, 1.0), 6e9, 7e9,
            safety_factor=ctrl.config.safety_factor,
        )
    ) + 1


def test_adapter_feeds_lane_health_into_observation(gpu, tmp_path):
    """on_step_end reads the step's failures (a difference of the
    cumulative lane-health books) and the dead-lane set; a dead write
    lane floors the installed budget."""
    cache = _cache(tmp_path)
    try:
        controller = AutotuneController()
        controller.attach(cache)
        with cache:
            for i in range(2):
                cache.pack_hook(_tensor(gpu, seed=i))
            cache.scheduler.drain(5)
        cache.scheduler.health.record_failure("ssd", permanent=True)
        controller.on_step_end(forward_time_s=0.2, backward_time_s=0.3)
        assert controller._backoff == controller.config.min_backoff
        # The books were not consumed, the controller moved its own
        # baseline: a second step sees no stale failures.
        assert cache.scheduler.health.snapshot()["ssd"].failures == 1
        again = controller.step_observation(0.2, 0.3)
        assert again.io_failures == 0 and again.dead_lanes == ("ssd",)
    finally:
        cache.shutdown()


def test_prefetch_window_sizing():
    ctrl = AutotuneController()
    fast = ctrl.observe(_obs()).prefetch_window
    assert fast is not None
    cfg = ctrl.config
    assert cfg.min_prefetch_window <= fast <= cfg.max_prefetch_window
    # A slower read channel (same tensor count => higher per-load
    # latency) needs a deeper window to hide the round-trip.
    slow_ctrl = AutotuneController()
    slow = slow_ctrl.observe(_obs(read_bw=7e8)).prefetch_window
    assert slow >= fast
    # No reads observed => no basis to resize.
    blind = AutotuneController()
    assert blind.observe(_obs(read_bw=0)).prefetch_window is None


def test_watermark_sizing():
    ctrl = AutotuneController()
    no_pool = ctrl.observe(_obs())
    assert no_pool.cpu_free_watermark_bytes is None
    pooled = AutotuneController()
    decision = pooled.observe(
        _obs(cpu_stored_bytes=GB, cpu_pool_capacity_bytes=4 * GB)
    )
    assert decision.cpu_free_watermark_bytes == int(
        pooled.config.watermark_fraction * GB
    )
    # Capped at half the pool: the watermark must never evict the
    # majority of the warm set.
    capped = AutotuneController()
    decision = capped.observe(
        _obs(cpu_stored_bytes=64 * GB, cpu_pool_capacity_bytes=4 * GB)
    )
    assert decision.cpu_free_watermark_bytes == 2 * GB


# ------------------------------------------------------------- mutation APIs
def test_policy_install_budget():
    policy = OffloadPolicy(PolicyConfig(offload_budget_bytes=100))
    assert policy.install_budget(250) == 100
    assert policy.config.offload_budget_bytes == 250
    assert policy.install_budget(None) == 250
    assert policy.config.offload_budget_bytes is None
    with pytest.raises(ValueError):
        policy.install_budget(-1)


def test_tiered_watermark_demotes_lru(tmp_path):
    data = np.ones((64, 64), dtype=np.float32)
    tiered = build_tier(tmp_path / "t", cpu_pool_bytes=4 * data.nbytes)
    try:
        tids = [TensorID(stamp=i, shape=(64, 64)) for i in range(4)]
        for tid in tids:
            tiered.store(tid, data)
        assert tiered.cpu_free_bytes() == 0
        tiered.set_free_watermark(2 * data.nbytes)
        assert tiered.apply_watermark() == 2
        assert tiered.cpu_free_bytes() == 2 * data.nbytes
        # The two *oldest* residents were spilled.
        assert tiered.tier_of(tids[0]) is Tier.SSD
        assert tiered.tier_of(tids[1]) is Tier.SSD
        assert tiered.tier_of(tids[2]) is Tier.CPU
        assert tiered.apply_watermark() == 0  # already satisfied
        with pytest.raises(ValueError):
            tiered.set_free_watermark(-1)
        # Clamped to capacity, not an error.
        tiered.set_free_watermark(10**12)
        assert tiered.free_watermark_bytes == tiered.cpu_capacity_bytes
    finally:
        tiered.shutdown()


# -------------------------------------------------------------- cache plumbing
def _cache(tmp_path, offloader=None):
    return TensorCache(
        offloader if offloader is not None else SSDOffloader(tmp_path / "s"),
        policy=OffloadPolicy(PolicyConfig(min_offload_numel=64)),
    )


def _tensor(gpu, seed=0):
    rng = np.random.default_rng(seed)
    from repro.tensor.tensor import Tensor

    return Tensor(
        rng.standard_normal((64, 64)).astype(np.float32), device=gpu, requires_grad=True
    )


def test_controller_step_observation_deltas(gpu, tmp_path):
    cache = _cache(tmp_path)
    controller = AutotuneController()
    controller.attach(cache)
    with cache:
        for i in range(3):
            cache.pack_hook(_tensor(gpu, seed=i))
        cache.scheduler.drain(5)
    cache.shutdown()  # workers joined: every done event reached the tracer
    step = controller.step_observation(0.2, 0.3)
    assert step.stored_tensors == 3
    assert step.stored_bytes == 3 * 64 * 64 * 4
    assert step.activation_bytes == step.stored_bytes + cache.stats.kept_bytes
    # The traced channel use is the same three writes.
    assert step.write_bytes == step.stored_bytes and step.write_busy_s > 0
    assert (step.read_bytes, step.read_count, step.io_failures) == (0, 0, 0)
    # Deltas, not cumulative: a second step with no traffic is zero...
    again = controller.step_observation(0.2, 0.3)
    assert again.stored_tensors == 0 and again.stored_bytes == 0
    assert again.write_bytes == 0 and again.write_busy_s == 0.0
    # ...and the books it differenced are untouched.
    assert cache.stats.stored_tensors == 3
    with pytest.raises(RuntimeError):
        AutotuneController().step_observation(0.2, 0.3)  # never attached


def test_cache_apply_autotune_installs_knobs(gpu, tmp_path):
    tiered = build_tier(tmp_path / "t", cpu_pool_bytes=1 << 20)
    cache = _cache(tmp_path, offloader=tiered)
    try:
        decision = ControllerDecision(
            step_index=1,
            offload_budget_bytes=123456,
            retuned=True,
            prefetch_window=11,
            cpu_free_watermark_bytes=4096,
        )
        cache.apply_autotune(decision)
        assert cache.policy.config.offload_budget_bytes == 123456
        assert cache.prefetch_window == 11
        assert tiered.free_watermark_bytes == 4096
        # Not retuned: the budget stays; other knobs still land.
        cache.apply_autotune(
            ControllerDecision(step_index=2, offload_budget_bytes=None, retuned=False,
                               prefetch_window=7)
        )
        assert cache.policy.config.offload_budget_bytes == 123456
        assert cache.prefetch_window == 7
    finally:
        cache.shutdown()


def test_cache_times_unpack_stall_and_adapter_feeds_it(gpu, tmp_path):
    """The engine's stall signal: backward blocking in unpack is timed by
    the cache, subtracted from the backward window the controller sees,
    and routed into the AIMD trim (a stall-inflated window would be a
    positive feedback loop: slower SSD -> longer backward -> bigger
    budget)."""
    import threading

    offloader = SSDOffloader(tmp_path / "s")
    original_load = offloader.load
    release = threading.Event()

    def gated_load(tid, shape, dtype, out=None):
        release.wait(5)  # held open until the timer fires (no bare sleep)
        return original_load(tid, shape, dtype, out=out)

    cache = _cache(tmp_path, offloader=offloader)
    controller = AutotuneController()
    controller.attach(cache)
    try:
        with cache:
            tid = cache.pack_hook(_tensor(gpu))
            cache.scheduler.drain(5)  # OFFLOADED: the unpack must reload
            offloader.load = gated_load
            timer = threading.Timer(0.05, release.set)
            timer.start()
            cache.unpack_hook(tid)  # blocks ~50 ms until the gate opens
            timer.join()
        wait = cache.stats.unpack_wait_s
        assert wait > 0.03
        assert cache.stats.unpack_waits == 1

        controller.on_step_end(forward_time_s=0.2, backward_time_s=0.3)
        # The stall was subtracted from the backward compute window...
        assert controller.estimators.backward_s.value == pytest.approx(
            0.3 - wait, abs=1e-9
        )
        # ...and fed the trim: stall >> 2% of compute, so the budget sits
        # below the pure formula value.
        formula = choose_offload_budget(
            WorkloadProfile(
                int(controller.estimators.activation_bytes.value),
                0.2,
                0.3 - wait,
            ),
            controller.estimators.write_bw.value,
            controller.estimators.read_bw.value,
            safety_factor=controller.config.safety_factor,
        )
        assert controller.installed_budget_bytes < formula
    finally:
        cache.shutdown()


# ------------------------------------------------------------------ end to end
def _batches(gpu, config, n, seed=0):
    loader = TokenBatchLoader(
        SyntheticCorpus(vocab_size=config.vocab_size, seed=seed),
        batch_size=2,
        seq_len=config.seq_len,
        device=gpu,
    )
    return [loader.next_batch() for _ in range(n)]


def test_trainer_controller_requires_cache(gpu, tiny_gpt_config):
    model = GPT(tiny_gpt_config, rng=np.random.default_rng(0)).to(gpu)
    with pytest.raises(ValueError):
        Trainer(
            model, SGD(model.parameters(), lr=1e-3), gpu,
            strategy=PlacementStrategy.KEEP, controller=AutotuneController(),
        )


def test_trainer_with_controller_installs_budget_and_keeps_losses(
    gpu, tiny_gpt_config, tmp_path
):
    """The full loop against the functional engine: observed lane stats
    drive a live budget install, and — the safety property — the
    controller never changes the numerics, only the placement."""
    steps = 4

    def run(controller):
        g = type(gpu)()
        batches = _batches(g, tiny_gpt_config, steps)
        model = GPT(tiny_gpt_config, rng=np.random.default_rng(0)).to(g)
        cache = TensorCache(
            SSDOffloader(tmp_path / ("ctrl" if controller else "plain")),
            policy=OffloadPolicy(PolicyConfig(min_offload_numel=64)),
        )
        trainer = Trainer(
            model, SGD(model.parameters(), lr=1e-3), g,
            strategy=PlacementStrategy.OFFLOAD, cache=cache, controller=controller,
        )
        try:
            return [trainer.train_step([b]) for b in batches]
        finally:
            trainer.close()

    controller = AutotuneController()
    tuned = run(controller)
    plain = run(None)

    assert len(controller.history) == steps
    assert all(r.autotune_decision is not None for r in tuned)
    # A budget was derived from observed bandwidth and installed live.
    assert controller.installed_budget_bytes is not None
    assert controller.installed_budget_bytes > 0
    assert tuned[-1].offload_budget_bytes == controller.installed_budget_bytes
    assert all(r.autotune_decision.write_bandwidth_bytes_per_s > 0 for r in tuned[:1])
    # Bit-identical losses with and without the controller.
    for a, b in zip(tuned, plain):
        assert a.loss == b.loss
