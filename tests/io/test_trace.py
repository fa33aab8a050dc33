"""Tests for the I/O trace recorder."""

import numpy as np
import pytest

from repro.core import (
    EngineConfig,
    OffloadPolicy,
    PolicyConfig,
    SSDOffloader,
    TensorCache,
    build_engine,
)
from repro.core.autotune import AutotuneController
from repro.io.trace import IOTracer, attach_tracer
from repro.models import GPT, ModelConfig
from repro.optim import SGD
from repro.tensor.tensor import Tensor
from repro.train import PlacementStrategy, Trainer


def test_tracer_records_and_stats():
    tracer = IOTracer()
    tracer.record("store", "t1", 1000, 0.0, 1.0)
    tracer.record("store", "t2", 1000, 0.5, 1.5)   # overlaps t1
    tracer.record("load", "t1", 1000, 2.0, 3.0)
    stats = tracer.stats()
    assert stats.store_bytes == 2000
    assert stats.load_bytes == 1000
    assert stats.store_busy_s == pytest.approx(1.5)  # union of [0,1] and [0.5,1.5]
    assert stats.load_busy_s == pytest.approx(1.0)
    assert stats.store_bandwidth == pytest.approx(2000 / 1.5)


def test_tracer_rejects_bad_kind():
    with pytest.raises(ValueError):
        IOTracer().record("flush", "x", 1, 0.0, 1.0)


def test_tracer_reset():
    tracer = IOTracer()
    tracer.record("store", "t", 1, 0.0, 1.0)
    tracer.reset()
    assert tracer.events == []


def test_render_ascii_empty_and_filled():
    tracer = IOTracer()
    assert "no I/O events" in tracer.render_ascii()
    tracer.record("store", "t", 1, 0.0, 1.0)
    art = tracer.render_ascii(width=20)
    assert "store" in art and "s" in art


def test_attach_tracer_captures_real_run(gpu, tmp_path):
    config = ModelConfig(
        arch="gpt", hidden=64, num_layers=2, vocab_size=61, seq_len=16, head_dim=16
    )
    model = GPT(config, rng=np.random.default_rng(0)).to(gpu)
    cache = TensorCache(
        SSDOffloader(tmp_path / "traced"),
        policy=OffloadPolicy(PolicyConfig(min_offload_numel=64)),
    )
    try:
        tracer = attach_tracer(cache)
        assert attach_tracer(cache, tracer) is tracer  # idempotent
        cache.register_weights(model)
        cache.attach(model)
        rng = np.random.default_rng(1)
        tokens = Tensor(rng.integers(0, 61, (2, 16)).astype(np.int64), device=gpu)
        targets = Tensor(rng.integers(0, 61, (2, 16)).astype(np.int64), device=gpu)
        with cache:
            loss = model(tokens, targets)
            cache.on_backward_begin()
            loss.backward()
            cache.on_backward_end()
        cache.on_step_end()
    finally:
        cache.shutdown()  # workers joined: every done event is traced

    stores = [e for e in tracer.events if e.kind == "store"]
    loads = [e for e in tracer.events if e.kind == "load"]
    assert stores and loads
    assert all(e.end_s >= e.start_s for e in tracer.events)
    stats = tracer.stats()
    # Stores cancelled by forwarding never reach the backend, so the
    # traced bytes are the submitted bytes minus the cancelled ones.
    assert (
        stats.store_bytes
        == cache.stats.stored_bytes - cache.stats.cancelled_store_bytes
    )
    assert stats.load_bytes == cache.stats.loaded_bytes
    assert "s" in tracer.render_ascii()


def test_traced_run_matches_untraced(gpu, tmp_path):
    """Tracing must not perturb results."""
    config = ModelConfig(
        arch="gpt", hidden=64, num_layers=2, vocab_size=61, seq_len=16, head_dim=16
    )

    def run(traced):
        model = GPT(config, rng=np.random.default_rng(0)).to(gpu)
        cache = TensorCache(
            SSDOffloader(tmp_path / f"t{traced}"),
            policy=OffloadPolicy(PolicyConfig(min_offload_numel=64)),
        )
        try:
            if traced:
                attach_tracer(cache)
            cache.register_weights(model)
            cache.attach(model)
            rng = np.random.default_rng(1)
            tokens = Tensor(rng.integers(0, 61, (2, 16)).astype(np.int64), device=gpu)
            targets = Tensor(rng.integers(0, 61, (2, 16)).astype(np.int64), device=gpu)
            with cache:
                loss = model(tokens, targets)
                cache.on_backward_begin()
                loss.backward()
                cache.on_backward_end()
            cache.on_step_end()
            return loss.item()
        finally:
            cache.shutdown()

    assert run(False) == pytest.approx(run(True), abs=1e-7)


def _tiered_run(gpu, tmp_path, steps=3, controller=None):
    """Three trainer steps on a tiered engine whose 64 KiB pool is
    smaller than one step's activations: most bytes reach the SSD as
    background demotions, which never cross ``offloader.store``.
    Returns the tier counters, the trace, and what ``controller`` (when
    given) observed per step plus once more after shutdown."""
    config = ModelConfig(
        arch="gpt", hidden=64, num_layers=2, vocab_size=61, seq_len=16, head_dim=16
    )
    engine = build_engine(
        EngineConfig(
            target="tiered",
            store_dir=tmp_path / "tiered",
            cpu_pool_bytes=64 << 10,
            promote_on_load=False,
            policy=OffloadPolicy(PolicyConfig(min_offload_numel=64)),
        )
    )
    tracer = attach_tracer(engine)
    cache = engine.cache()
    if controller is not None:
        controller.attach(cache)
    model = GPT(config, rng=np.random.default_rng(0)).to(gpu)
    trainer = Trainer(
        model, SGD(model.parameters(), lr=1e-3), gpu,
        strategy=PlacementStrategy.OFFLOAD, cache=cache,
    )
    rng = np.random.default_rng(1)
    observed = []
    try:
        for _ in range(steps):
            tokens = Tensor(rng.integers(0, 61, (2, 16)).astype(np.int64), device=gpu)
            targets = Tensor(rng.integers(0, 61, (2, 16)).astype(np.int64), device=gpu)
            result = trainer.train_step([(tokens, targets)])
            if controller is not None:
                half = result.step_time_s / 2
                observed.append(controller.step_observation(half, half))
    finally:
        trainer.close()
        engine.shutdown()  # workers joined: every done event is traced
    if controller is not None:  # a done event that trailed the last drain
        observed.append(controller.step_observation(0.0, 0.0))
    return engine.stats().tiers, tracer, observed


def test_tiered_demotions_are_traced(gpu, tmp_path):
    """Regression: the tracer used to wrap ``offloader.store/load``, so a
    tiered engine's SSD writes (``_run_demotion -> ssd.store``) left no
    event and the reported store bandwidth was the pinned-pool memcpy's."""
    tiers, tracer, _ = _tiered_run(gpu, tmp_path)
    demotes = [e for e in tracer.events if e.kind == "demote"]
    assert tiers.demoted_bytes > 0
    assert (
        sum(e.nbytes for e in demotes)
        == tiers.demoted_bytes - tiers.cancelled_demotion_bytes
    )
    assert all(e.lane == "ssd" and not e.failed for e in demotes)
    assert all(e.end_s >= e.start_s for e in tracer.events)
    ssd_write = tracer.channels()["ssd", "write"]
    assert ssd_write.nbytes >= sum(e.nbytes for e in demotes) and ssd_write.busy_s > 0
    assert any(
        row.startswith("demote |") and "d" in row[8:]
        for row in tracer.render_ascii().splitlines()
    )


def test_controller_on_a_tiered_run_observes_the_demotion_writes(gpu, tmp_path):
    """The observed write channel is every lane's: the pool memcpys, the
    direct SSD stores *and* the background demotions."""
    tiers, tracer, observed = _tiered_run(gpu, tmp_path, controller=AutotuneController())
    demoted = sum(e.nbytes for e in tracer.events if e.kind == "demote")
    assert demoted > 0
    assert (
        sum(obs.write_bytes for obs in observed)
        == tiers.cpu_stored_bytes + tiers.ssd_stored_bytes + demoted
        == tracer.stats().store_bytes
    )
    assert all(obs.write_bytes > 0 and obs.write_busy_s > 0 for obs in observed[:3])
    assert sum(obs.cpu_stored_bytes for obs in observed) == tiers.cpu_stored_bytes
    assert all(obs.cpu_pool_capacity_bytes == 64 << 10 for obs in observed)
