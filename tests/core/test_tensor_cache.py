"""Integration tests for the SSDTrain tensor cache (Sec. III-B / III-C).

These exercise the full mechanism on real models with real file I/O:
correctness (identical losses/gradients), memory release, deduplication,
weight exclusion, data forwarding, budget capping, micro-batch switching,
and failure injection.
"""

import gc

import numpy as np
import pytest

from repro.core import (
    CPUOffloader,
    OffloadPolicy,
    PolicyConfig,
    SSDOffloader,
    TensorCache,
)
from repro.device import MemoryTag
from repro.io import ChunkedTensorStore, IOScheduler, TensorFileStore
from repro.models import GPT
from repro.nn.linear import Linear
from repro.tensor import ops
from repro.tensor.tensor import Tensor


def _run_model_step(model, gpu, cache=None, seed=42):
    rng = np.random.default_rng(seed)
    vocab = model.config.vocab_size
    seq = model.config.seq_len
    tokens = Tensor(rng.integers(0, vocab, (2, seq)).astype(np.int64), device=gpu)
    targets = Tensor(rng.integers(0, vocab, (2, seq)).astype(np.int64), device=gpu)
    gpu.ledger.reset_peak()
    if cache is not None:
        with cache:
            loss = model(tokens, targets)
            cache.on_backward_begin()
            loss.backward()
            cache.on_backward_end()
        cache.on_step_end()
    else:
        loss = model(tokens, targets)
        loss.backward()
    gc.collect()
    grads = {n: p.grad.data.copy() for n, p in model.named_parameters()}
    model.zero_grad()
    return loss.item(), grads, gpu.ledger.peak(MemoryTag.ACTIVATIONS)


def _fresh_model(gpu, tiny_gpt_config, seed=0):
    return GPT(tiny_gpt_config, rng=np.random.default_rng(seed)).to(gpu)


# ----------------------------------------------------------------- correctness
def test_offloaded_step_bitwise_identical(gpu, tiny_gpt_config, make_cache):
    baseline_model = _fresh_model(gpu, tiny_gpt_config)
    loss0, grads0, _ = _run_model_step(baseline_model, gpu)

    model = _fresh_model(gpu, tiny_gpt_config)
    cache = make_cache()
    cache.register_weights(model)
    cache.attach(model)
    loss1, grads1, _ = _run_model_step(model, gpu, cache)

    assert loss0 == pytest.approx(loss1, abs=1e-7)
    for name in grads0:
        assert np.array_equal(grads0[name], grads1[name]), name


def test_cache_actually_offloads(gpu, tiny_gpt_config, make_cache):
    model = _fresh_model(gpu, tiny_gpt_config)
    cache = make_cache()
    cache.register_weights(model)
    cache.attach(model)
    _run_model_step(model, gpu, cache)
    assert cache.stats.stored_tensors > 10
    assert cache.stats.stored_bytes > 0
    assert cache.offloader.file_store.bytes_written > 0


def test_activation_peak_reduced(gpu, tiny_gpt_config, make_cache):
    config = tiny_gpt_config.scaled(num_layers=3, seq_len=32)
    baseline = _fresh_model(gpu, config)
    _, _, peak_base = _run_model_step(baseline, gpu)

    model = _fresh_model(gpu, config)
    cache = make_cache(prefetch_window=4)
    cache.register_weights(model)
    cache.attach(model)
    # Step 0 profiles; step 1 has keep-last active.
    _run_model_step(model, gpu, cache)
    _, _, peak_off = _run_model_step(model, gpu, cache)
    assert peak_off < 0.7 * peak_base  # at least 30% reduction


def test_multi_step_stability(gpu, tiny_gpt_config, make_cache):
    model = _fresh_model(gpu, tiny_gpt_config)
    cache = make_cache()
    cache.register_weights(model)
    cache.attach(model)
    losses = [
        _run_model_step(model, gpu, cache, seed=s)[0] for s in range(4)
    ]
    assert all(np.isfinite(l) for l in losses)


# --------------------------------------------------------------------- weights
def test_weights_never_offloaded(gpu, tiny_gpt_config, make_cache):
    model = _fresh_model(gpu, tiny_gpt_config)
    cache = make_cache()
    cache.register_weights(model)
    cache.attach(model)
    _run_model_step(model, gpu, cache)
    weight_shapes = {tuple(p.shape) for p in model.parameters()}
    weight_shapes |= {tuple(reversed(s)) for s in weight_shapes if len(s) == 2}
    for table in cache._microbatches.values():
        for tid in table.records:
            assert tid.shape not in weight_shapes or len(tid.shape) != 2, (
                f"weight-shaped tensor {tid} was managed"
            )


def test_small_tensors_pass_through(gpu, make_cache):
    layer = Linear(8, 8, rng=np.random.default_rng(0)).to(gpu)
    cache = make_cache(min_offload_numel=10**9)  # nothing qualifies
    cache.register_weights(layer)
    cache.attach(layer)
    x = Tensor(np.ones((2, 8), dtype=np.float32), device=gpu, requires_grad=True)
    with cache:
        layer(x).sum().backward()
    assert cache.stats.stored_tensors == 0
    assert cache.stats.passed_tensors > 0


# ----------------------------------------------------------------------- dedup
def test_dedup_prevents_redundant_io(gpu, make_cache):
    """A tensor saved by two consumers is stored once."""
    cache = make_cache()
    x = Tensor(
        np.random.default_rng(0).standard_normal((32, 32)).astype(np.float32),
        device=gpu,
        requires_grad=True,
    )
    with cache:
        # gelu and mul both save (a view of) their input x.
        y = (ops.gelu(x) + ops.mul(x, x)).sum()
        cache.on_backward_begin()
        y.backward()
        cache.on_backward_end()
    assert cache.stats.dedup_hits >= 1
    stored_for_x = [
        1
        for table in cache._microbatches.values()
        for tid in table.records
        if tid.shape == (32, 32)
    ]
    cache.on_step_end()
    assert cache.stats.stored_tensors <= 2  # x (+ x*x output), never 3


# ------------------------------------------------------------------ forwarding
def test_data_forwarding_on_slow_store(gpu, tmp_path):
    """With a slow SSD, backward begins while stores are in flight; the
    cache must return the in-memory reference instead of loading."""
    offloader = SSDOffloader(TensorFileStore(tmp_path / "slow", throttle_bytes_per_s=2e6))
    cache = TensorCache(
        offloader,
        policy=OffloadPolicy(PolicyConfig(min_offload_numel=64)),
        scheduler=IOScheduler(workers=3),
    )
    try:
        layer = Linear(64, 64, rng=np.random.default_rng(0)).to(gpu)
        cache.register_weights(layer)
        cache.attach(layer)
        x = Tensor(
            np.ones((16, 64), dtype=np.float32), device=gpu, requires_grad=True
        )
        with cache:
            loss = ops.gelu(layer(x)).sum()
            cache.on_backward_begin()
            loss.backward()  # stores still in flight: must forward
            cache.on_backward_end()
        assert cache.stats.forwarded_tensors >= 1
        assert x.grad is not None
        cache.on_step_end()
    finally:
        cache.shutdown()


def test_forwarding_preserves_values(gpu, tmp_path, tiny_gpt_config):
    """Slow-store runs must still produce identical gradients."""
    baseline = _fresh_model(gpu, tiny_gpt_config)
    loss0, grads0, _ = _run_model_step(baseline, gpu)

    offloader = SSDOffloader(TensorFileStore(tmp_path / "fwd", throttle_bytes_per_s=5e5))
    cache = TensorCache(
        offloader, policy=OffloadPolicy(PolicyConfig(min_offload_numel=64))
    )
    try:
        model = _fresh_model(gpu, tiny_gpt_config)
        cache.register_weights(model)
        cache.attach(model)
        loss1, grads1, _ = _run_model_step(model, gpu, cache)
        assert loss0 == pytest.approx(loss1, abs=1e-6)
        for name in grads0:
            assert np.array_equal(grads0[name], grads1[name])
    finally:
        cache.shutdown()


# ---------------------------------------------------------------------- budget
def test_offload_budget_caps_stored_bytes(gpu, tiny_gpt_config, make_cache):
    budget = 50_000
    cache = make_cache(policy_kwargs=dict(offload_budget_bytes=budget))
    model = _fresh_model(gpu, tiny_gpt_config)
    cache.register_weights(model)
    cache.attach(model)
    _run_model_step(model, gpu, cache)
    # Budget is checked before each store; overshoot is at most one tensor.
    assert cache.stats.stored_bytes <= budget + 64 * 1024
    assert cache.stats.kept_tensors > 0


# ----------------------------------------------------------------- micro-batch
def test_microbatch_records_are_separate(gpu, tiny_gpt_config, make_cache):
    model = _fresh_model(gpu, tiny_gpt_config)
    cache = make_cache()
    cache.register_weights(model)
    cache.attach(model)
    rng = np.random.default_rng(0)
    vocab, seq = tiny_gpt_config.vocab_size, tiny_gpt_config.seq_len
    with cache:
        losses = []
        for mb in range(2):
            cache.set_microbatch(mb)
            tokens = Tensor(rng.integers(0, vocab, (1, seq)).astype(np.int64), device=gpu)
            targets = Tensor(rng.integers(0, vocab, (1, seq)).astype(np.int64), device=gpu)
            loss = model(tokens, targets)
            cache.on_backward_begin()
            loss.backward()
            cache.on_backward_end()
            losses.append(loss.item())
    assert len(cache._microbatches) == 2
    cache.on_step_end()
    assert all(np.isfinite(l) for l in losses)


# -------------------------------------------------------------------- keep-last
def test_keep_last_module_after_profiling(gpu, tiny_gpt_config, make_cache):
    model = _fresh_model(gpu, tiny_gpt_config)
    cache = make_cache()
    cache.register_weights(model)
    cache.attach(model)
    _run_model_step(model, gpu, cache)  # profiling step
    assert cache._last_segment_id is not None
    kept_before = cache.stats.kept_tensors
    _run_model_step(model, gpu, cache)
    assert cache.stats.kept_tensors > kept_before


def test_keep_hint_stops_offloading(gpu, make_cache):
    cache = make_cache()
    layer = Linear(64, 64, rng=np.random.default_rng(0)).to(gpu)
    cache.register_weights(layer)
    cache.attach(layer)
    cache.hint_keep_remaining(True)
    x = Tensor(np.ones((16, 64), dtype=np.float32), device=gpu, requires_grad=True)
    with cache:
        loss = ops.gelu(layer(x)).sum()
        cache.on_backward_begin()
        loss.backward()
        cache.on_backward_end()
    assert cache.stats.stored_tensors == 0
    assert cache.stats.kept_tensors > 0


# --------------------------------------------------------------------- cleanup
def test_step_end_releases_records_and_files(gpu, tiny_gpt_config, make_cache):
    model = _fresh_model(gpu, tiny_gpt_config)
    cache = make_cache()
    cache.register_weights(model)
    cache.attach(model)
    _run_model_step(model, gpu, cache)
    store_dir = cache.offloader.file_store.root
    assert list(store_dir.glob("*.bin")) == []  # files deleted at step end
    assert all(not t.records for t in cache._microbatches.values())


def test_shutdown_idempotent(gpu, tiny_gpt_config, make_cache):
    cache = make_cache()
    model = _fresh_model(gpu, tiny_gpt_config)
    cache.register_weights(model)
    cache.attach(model)
    _run_model_step(model, gpu, cache)
    cache.shutdown()
    cache.shutdown()


# -------------------------------------------------------------- cpu offloader
def test_cpu_offloader_end_to_end(gpu, tiny_gpt_config):
    baseline = _fresh_model(gpu, tiny_gpt_config)
    loss0, grads0, _ = _run_model_step(baseline, gpu)

    cache = TensorCache(
        CPUOffloader(), policy=OffloadPolicy(PolicyConfig(min_offload_numel=64))
    )
    try:
        model = _fresh_model(gpu, tiny_gpt_config)
        cache.register_weights(model)
        cache.attach(model)
        loss1, grads1, _ = _run_model_step(model, gpu, cache)
        assert loss0 == pytest.approx(loss1, abs=1e-6)
        for name in grads0:
            assert np.array_equal(grads0[name], grads1[name])
        assert cache.stats.stored_tensors > 0
    finally:
        cache.shutdown()


def test_cpu_offloader_pool_profiling(gpu, tiny_gpt_config):
    offloader = CPUOffloader()
    cache = TensorCache(
        offloader, policy=OffloadPolicy(PolicyConfig(min_offload_numel=64))
    )
    try:
        model = _fresh_model(gpu, tiny_gpt_config)
        cache.register_weights(model)
        cache.attach(model)
        _run_model_step(model, gpu, cache)
        assert offloader.pool.high_watermark > 0
        capacity = offloader.pool.fit_to_high_watermark()
        assert capacity >= offloader.pool.high_watermark
        # Subsequent identical steps fit in the profiled pool.
        _run_model_step(model, gpu, cache)
    finally:
        cache.shutdown()


# ------------------------------------------------------------ failure injection
def test_load_failure_surfaces_as_runtime_error(gpu, make_cache):
    cache = make_cache()
    layer = Linear(64, 64, rng=np.random.default_rng(0)).to(gpu)
    cache.register_weights(layer)
    cache.attach(layer)
    x = Tensor(np.ones((16, 64), dtype=np.float32), device=gpu, requires_grad=True)
    with cache:
        loss = ops.gelu(layer(x)).sum()
        cache.scheduler.drain()
        # Sabotage: delete the offloaded files so loads fail.
        cache.offloader.file_store.clear()
        cache.on_backward_begin()
        with pytest.raises((RuntimeError, FileNotFoundError)):
            loss.backward()


def test_failed_store_recovery_reverses_offload_accounting(gpu, make_cache):
    """Review regression: a store that failed terminally but was
    recovered by keeping the tensor resident must not consume offload
    budget or report store traffic that never moved."""
    from repro.io.faults import FaultPlan, inject_faults

    cache = make_cache()
    inject_faults(cache.offloader, FaultPlan.dead(after_ops=0))
    x = Tensor(np.ones((64, 64), dtype=np.float32), device=gpu, requires_grad=True)
    with cache:
        tid = cache.pack_hook(x)
        cache.scheduler.drain(5)
        assert cache.unpack_hook(tid) is x  # resident, no error raised
    # drain() returns on the scheduler's own done-callback, which runs
    # before the cache's: join the workers so the books are settled.
    cache.scheduler.shutdown()
    assert cache.stats.store_failures == 1
    assert cache.stats.stored_tensors == 0  # reversed: nothing was stored
    assert cache.stats.stored_bytes == 0
    assert cache.stats.kept_tensors == 1    # re-booked as kept
    assert cache.stats.kept_bytes == x.nbytes
    assert cache.accounting.offloaded_bytes == 0  # no budget consumed
    assert cache.accounting.kept_bytes == x.nbytes


# ------------------------------------------------------------ the state machine
def test_illegal_transition_raises_and_leaves_record_untouched(gpu):
    from repro.core import ActivationRecord, RecordState
    from repro.core.ids import TensorID

    x = Tensor(np.ones((8, 8), dtype=np.float32), device=gpu)
    tid = TensorID(stamp=1, shape=(8, 8))

    rec = ActivationRecord(tid, x, RecordState.OFFLOADING)
    rec.trans_state(RecordState.OFFLOADED)
    assert rec.tensor is None and not rec.loaded_event.is_set()
    with pytest.raises(RuntimeError, match="OFFLOADED -> KEPT"):
        rec.trans_state(RecordState.KEPT)
    assert rec.state is RecordState.OFFLOADED
    assert not rec.loaded_event.is_set()

    kept = ActivationRecord(tid, x, RecordState.KEPT)
    assert kept.loaded_event.is_set()
    kept.trans_state(RecordState.CONSUMED)
    assert kept.tensor is None
    with pytest.raises(RuntimeError, match="CONSUMED -> LOADED"):
        kept.trans_state(RecordState.LOADED)
    assert kept.state is RecordState.CONSUMED and kept.tensor is None


def test_late_duplicate_load_on_consumed_record_is_dropped(gpu, make_cache):
    """A hedged duplicate of a load may finish after backward consumed
    the record: first completion wins, the record stays CONSUMED."""
    from repro.core import RecordState

    cache = make_cache()
    x = Tensor(np.ones((64, 64), dtype=np.float32), device=gpu, requires_grad=True)
    with cache:
        tid = cache.pack_hook(x)
        cache.scheduler.drain(5)
        assert np.array_equal(cache.unpack_hook(tid).data, x.data)
        rec = cache._find_record(tid)
        duplicate = rec.load_job.hedge_fn
        cache.on_backward_end()
        assert rec.state is RecordState.CONSUMED
        duplicate()
        assert rec.state is RecordState.CONSUMED and rec.tensor is None
        assert cache.stats.loaded_tensors == 1


@pytest.mark.parametrize("chunk_bytes", [None, 64 * 1024])
def test_step_end_releases_stores_whose_done_callback_runs_late(
    gpu, tmp_path, chunk_bytes
):
    """``drain()`` returns on the scheduler's own done-callback, so the
    cache's ``_on_store_done`` may still be pending when ``on_step_end``
    runs; the release decision must not depend on it."""
    import time

    store = tmp_path / "late"
    if chunk_bytes is not None:
        store = ChunkedTensorStore(store, chunk_bytes=chunk_bytes)
    offloader = SSDOffloader(store)
    cache = TensorCache(
        offloader, policy=OffloadPolicy(PolicyConfig(min_offload_numel=64))
    )
    on_store_done = cache._on_store_done
    late_callbacks = []

    def late(rec, job):
        time.sleep(0.01)
        late_callbacks.append(rec.tid)
        on_store_done(rec, job)

    cache._on_store_done = late
    store = offloader.file_store
    raced = 0
    try:
        for step in range(20):
            with cache:
                tids = [
                    cache.pack_hook(
                        Tensor(np.full((64, 64), step + i, dtype=np.float32), device=gpu)
                    )
                    for i in range(4)
                ]
            cache.on_step_end()
            raced += len(set(tids) - set(late_callbacks))
            on_disk = sum(p.stat().st_size for p in store.root.iterdir())
            if chunk_bytes is None:
                assert on_disk == 0, f"step {step} left files behind"
            else:
                assert store.tensor_ids() == ()
                assert store.bytes_written == on_disk + store.reclaimed_bytes
        assert raced > 0, "no step end ever ran ahead of a store-done callback"
        assert cache.stats.stored_tensors == 80
    finally:
        cache.shutdown()
