"""End-to-end integration: the full SSDTrain stack on real training runs."""

import gc
from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    OffloadPolicy,
    PolicyConfig,
    SSDOffloader,
    TensorCache,
    WorkloadProfile,
    choose_offload_budget,
)
from repro.data import SyntheticCorpus, TokenBatchLoader
from repro.device import MemoryTag
from repro.models import BERT, GPT, ModelConfig, T5
from repro.optim import SGD
from repro.train import PlacementStrategy, Trainer


def _loader(gpu, config, seed=0, batch=2):
    return TokenBatchLoader(
        SyntheticCorpus(vocab_size=config.vocab_size, seed=seed),
        batch_size=batch,
        seq_len=config.seq_len,
        device=gpu,
    )


def _offload_trainer(gpu, model, tmp_path, name, lr=1e-3, **policy_kwargs):
    cache = TensorCache(
        SSDOffloader(tmp_path / name),
        policy=OffloadPolicy(PolicyConfig(min_offload_numel=64, **policy_kwargs)),
    )
    opt = SGD(model.parameters(), lr=lr)
    return Trainer(model, opt, gpu, strategy=PlacementStrategy.OFFLOAD, cache=cache)


@pytest.mark.parametrize("arch", ["gpt", "bert"])
def test_training_identical_with_and_without_offloading(arch, gpu, tmp_path):
    """Multi-step training: weights after N steps must match exactly."""
    config = ModelConfig(
        arch=arch, hidden=64, num_layers=2, vocab_size=61, seq_len=16, head_dim=16
    )
    cls = GPT if arch == "gpt" else BERT

    def run(offload):
        model = cls(config, rng=np.random.default_rng(3)).to(gpu)
        if offload:
            trainer = _offload_trainer(gpu, model, tmp_path, f"{arch}-run")
        else:
            trainer = Trainer(model, SGD(model.parameters(), lr=1e-3), gpu)
        loader = _loader(gpu, config, seed=11)
        try:
            for _ in range(3):
                trainer.train_step([loader.next_batch()])
        finally:
            trainer.close()
        return {n: p.data.copy() for n, p in model.named_parameters()}

    base = run(False)
    off = run(True)
    for name in base:
        assert np.array_equal(base[name], off[name]), name


def test_t5_with_offloading(gpu, tmp_path):
    config = ModelConfig(
        arch="t5", hidden=64, num_layers=3, vocab_size=61, seq_len=16, head_dim=16
    )
    model = T5(config, rng=np.random.default_rng(0)).to(gpu)
    trainer = _offload_trainer(gpu, model, tmp_path, "t5")
    loader = _loader(gpu, config)
    try:
        src, _ = loader.next_batch()
        tgt, targets = loader.next_batch()
        result = trainer.train_step([(src, tgt, targets)])
        assert np.isfinite(result.loss)
        assert result.offloaded_bytes > 0
    finally:
        trainer.close()


def test_rok_strategies_functional(gpu, tmp_path):
    """Functional mini-ROK: offload matches keep in loss, recompute too;
    memory ordering offload < keep; recompute < keep."""
    config = ModelConfig(
        arch="bert", hidden=64, num_layers=3, vocab_size=61, seq_len=32, head_dim=16
    )
    loader = _loader(gpu, config, seed=5, batch=4)
    batch = loader.next_batch()
    results = {}
    for strategy in PlacementStrategy:
        cfg = config.scaled(recompute=strategy is PlacementStrategy.RECOMPUTE)
        model = BERT(cfg, rng=np.random.default_rng(1)).to(gpu)
        if strategy is PlacementStrategy.OFFLOAD:
            trainer = _offload_trainer(gpu, model, tmp_path, "rok", lr=1e-12)
        else:
            trainer = Trainer(
                model, SGD(model.parameters(), lr=1e-12), gpu, strategy=strategy
            )
        try:
            trainer.train_step([batch])  # warmup/profile
            results[strategy] = trainer.train_step([batch])
        finally:
            trainer.close()
        gc.collect()
    keep = results[PlacementStrategy.KEEP]
    off = results[PlacementStrategy.OFFLOAD]
    rec = results[PlacementStrategy.RECOMPUTE]
    assert off.loss == pytest.approx(keep.loss, abs=1e-5)
    assert rec.loss == pytest.approx(keep.loss, abs=1e-5)
    assert off.activation_peak_bytes < keep.activation_peak_bytes
    assert rec.activation_peak_bytes < keep.activation_peak_bytes


def test_adaptive_budget_from_profiled_step(gpu, tmp_path):
    """Profile step 0, derive the adaptive budget, re-run with it."""
    config = ModelConfig(
        arch="gpt", hidden=64, num_layers=2, vocab_size=61, seq_len=16, head_dim=16
    )
    model = GPT(config, rng=np.random.default_rng(0)).to(gpu)
    trainer = _offload_trainer(gpu, model, tmp_path, "adaptive")
    loader = _loader(gpu, config)
    try:
        profile_step = trainer.train_step([loader.next_batch()])
        profile = WorkloadProfile(
            activation_bytes_per_step=profile_step.offloaded_bytes,
            forward_time_s=profile_step.step_time_s / 3,
            backward_time_s=2 * profile_step.step_time_s / 3,
        )
        new_config = replace(
            trainer.cache.policy.config,
            offload_budget_bytes=choose_offload_budget(profile, write_bandwidth_bytes_per_s=100e6),
        )
        trainer.cache.policy.config = new_config
        result = trainer.train_step([loader.next_batch()])
        assert result.offloaded_bytes <= new_config.offload_budget_bytes + 64 * 1024
    finally:
        trainer.close()


def test_offload_plus_recompute_combined(gpu, tmp_path):
    """The two memory strategies compose (checkpointed layers with the
    cache active): gradients identical to the plain run."""
    base_cfg = ModelConfig(
        arch="gpt", hidden=64, num_layers=3, vocab_size=61, seq_len=16, head_dim=16
    )
    loader = _loader(gpu, base_cfg, seed=9)
    batch = loader.next_batch()

    plain_model = GPT(base_cfg, rng=np.random.default_rng(2)).to(gpu)
    plain_model(*batch).backward()
    plain_grads = {n: p.grad.data.copy() for n, p in plain_model.named_parameters()}

    ck_cfg = base_cfg.scaled(recompute=True)
    model = GPT(ck_cfg, rng=np.random.default_rng(2)).to(gpu)
    cache = TensorCache(
        SSDOffloader(tmp_path / "combo"),
        policy=OffloadPolicy(PolicyConfig(min_offload_numel=64)),
    )
    try:
        cache.register_weights(model)
        cache.attach(model)
        with cache:
            loss = model(*batch)
            cache.on_backward_begin()
            loss.backward()
            cache.on_backward_end()
        cache.on_step_end()
        for name, p in model.named_parameters():
            assert np.allclose(plain_grads[name], p.grad.data, atol=1e-5), name
        assert cache.stats.kept_tensors > 0  # recomputed tensors kept
    finally:
        cache.shutdown()


def test_long_run_no_leak(gpu, tmp_path):
    """Ledger returns to baseline after each offloaded step (no growth)."""
    config = ModelConfig(
        arch="gpt", hidden=64, num_layers=2, vocab_size=61, seq_len=16, head_dim=16
    )
    model = GPT(config, rng=np.random.default_rng(0)).to(gpu)
    trainer = _offload_trainer(gpu, model, tmp_path, "leak")
    loader = _loader(gpu, config)
    try:
        residuals = []
        for _ in range(5):
            trainer.train_step([loader.next_batch()])
            gc.collect()
            residuals.append(gpu.ledger.current(MemoryTag.ACTIVATIONS))
        # Residual activation memory must not grow step over step.
        assert residuals[-1] <= residuals[0] + 1024
    finally:
        trainer.close()
