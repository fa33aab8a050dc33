"""The tier-lock rule, checked by machine on a real training run.

``TieredOffloader._lock`` guards metadata only: no ``ssd.store`` /
``ssd.load`` runs under it, and the training thread never takes it from
a cache hook (docs/architecture.md section 3).  The run is the
benchmark's ``train_tiered`` shape — pinned pool, chunk store, uring
backend — small enough for tier-1.
"""

import numpy as np

from repro.core import EngineConfig, OffloadPolicy, PolicyConfig, build_engine
from repro.core.tensor_cache import TensorCache
from repro.data import SyntheticCorpus, TokenBatchLoader
from repro.device import GPU
from repro.models import GPT, ModelConfig
from repro.optim import SGD
from repro.train import PlacementStrategy, Trainer

from tests.conftest import TierLockSpy, assert_tier_books

CONFIG = ModelConfig(
    arch="gpt", hidden=64, num_layers=2, vocab_size=61, seq_len=16, head_dim=16
)
HOOKS = ("pack_hook", "unpack_hook", "_backward_pre_hook", "_prefetch_ahead")


def _losses(engine=None, steps=2):
    gpu = GPU()
    model = GPT(CONFIG, rng=np.random.default_rng(3)).to(gpu)
    trainer = Trainer(
        model,
        SGD(model.parameters(), lr=1e-3),
        gpu,
        strategy=PlacementStrategy.OFFLOAD if engine else PlacementStrategy.KEEP,
        cache=engine.cache() if engine else None,
    )
    loader = TokenBatchLoader(
        SyntheticCorpus(vocab_size=CONFIG.vocab_size, seed=11),
        batch_size=2,
        seq_len=CONFIG.seq_len,
        device=gpu,
    )
    try:
        return [trainer.train_step([loader.next_batch()]).loss for _ in range(steps)]
    finally:
        trainer.close()


def test_tiered_uring_training_keeps_io_and_hooks_off_the_tier_lock(
    tmp_path, monkeypatch, tier_lock_discipline
):
    engine = build_engine(
        EngineConfig(
            target="tiered",
            store_dir=str(tmp_path / "tiers"),
            cpu_pool_bytes=32 * 1024,  # forces demotions, SSD reads and promotions
            chunk_bytes=64 * 1024,
            io_backend="uring",
            policy=OffloadPolicy(PolicyConfig(min_offload_numel=64)),
        )
    )
    offloader = engine.offloader
    spy = TierLockSpy(offloader._lock, tier_lock_discipline)
    spy.watch(monkeypatch, TensorCache, HOOKS)
    offloader._lock = spy
    try:
        losses = _losses(engine)
        stats = offloader.stats_snapshot()
    finally:
        engine.shutdown()
    # The paths the rule covers ran: spills went to the SSD and came back
    # (how many loads a parked buffer served instead is timing).
    assert stats.demotions > 0 and stats.ssd_loads + stats.demotion_forward_hits > 0
    assert losses == _losses()  # bit-exact against the no-offload run
    assert_tier_books(offloader, drained=True)
