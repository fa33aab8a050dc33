"""Workloads ``train_ssd`` and ``train_tiered``: real training steps.

Two identical GPT models are trained side by side in one process, one
with activations kept (``KEEP``), one through the tensor cache and the
engine (``OFFLOAD``).  Steps alternate 1:1, so host drift — which moved
absolute step time by 10% between prototype runs — hits both alike and
the ratio holds.  The two workloads differ only in the engine config,
so the gap between them belongs to the layers that config swaps in.

The model is the issue's (H=128, L=4, seq=128) at batch 4 rather than 8:
the driver's run is 20 s, and at batch 8 a KEEP+OFFLOAD pair takes over a
second on this box — too few pairs for a median.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from harness import (
    Budget,
    Checks,
    Metric,
    Sample,
    check_books,
    check_no_thread_leak,
    median_setup,
    ratio,
    remove_dir,
    scratch_dir,
    thread_names,
)
from layers import Counters, engine_layer_metrics
from spans import Tracer, install

HIDDEN, LAYERS, SEQ_LEN, BATCH = 128, 4, 128, 4
#: The store device is paced per in-flight request, so device time is
#: modelled and the numbers measure the program, not this box's disk.
THROTTLE_BYTES_PER_S = 100e6
MIN_OFFLOAD_NUMEL = 1024

ENGINES: Dict[str, Dict[str, object]] = {
    "train_ssd": {"target": "ssd"},
    "train_tiered": {
        "target": "tiered",
        "cpu_pool_bytes": 4 << 20,
        "chunk_bytes": 1 << 20,
        "io_backend": "uring",
    },
}

PARAMS = {
    "model": f"GPT hidden={HIDDEN} layers={LAYERS} seq={SEQ_LEN} batch={BATCH}",
    "throttle_bytes_per_s": THROTTLE_BYTES_PER_S,
    "min_offload_numel": MIN_OFFLOAD_NUMEL,
    "loop": "closed, 1 client, OFFLOAD and KEEP steps interleaved 1:1",
}


class _Rig:
    """Both trainers, their loaders and the engine of one set-up."""

    def __init__(self, workload: str, seed: int, out_dir: Path) -> None:
        from repro.core import EngineConfig, OffloadPolicy, PolicyConfig, build_engine
        from repro.data import SyntheticCorpus, TokenBatchLoader
        from repro.device import GPU
        from repro.models import GPT, ModelConfig
        from repro.optim import SGD
        from repro.train import PlacementStrategy, Trainer

        config = ModelConfig(
            arch="gpt",
            hidden=HIDDEN,
            num_layers=LAYERS,
            vocab_size=211,
            seq_len=SEQ_LEN,
            head_dim=32,
        )
        self.store_dir = scratch_dir(out_dir, workload)
        self.engine = build_engine(
            EngineConfig(
                store_dir=str(self.store_dir),
                throttle_bytes_per_s=THROTTLE_BYTES_PER_S,
                policy=OffloadPolicy(PolicyConfig(min_offload_numel=MIN_OFFLOAD_NUMEL)),
                **ENGINES[workload],
            )
        )
        self.trainers = {}
        self.loaders = {}
        for strategy in (PlacementStrategy.OFFLOAD, PlacementStrategy.KEEP):
            gpu = GPU()
            # Same seed for both: identical weights and token stream, so
            # the per-step losses must agree bit for bit.
            model = GPT(config, rng=np.random.default_rng(seed)).to(gpu)
            offload = strategy is PlacementStrategy.OFFLOAD
            self.trainers[strategy.value] = Trainer(
                model,
                SGD(model.parameters(), lr=5e-3),
                gpu,
                strategy=strategy,
                cache=self.engine.cache() if offload else None,
            )
            self.loaders[strategy.value] = TokenBatchLoader(
                SyntheticCorpus(vocab_size=config.vocab_size, seed=seed),
                batch_size=BATCH,
                seq_len=SEQ_LEN,
                device=gpu,
            )
        self.step("offload")  # discarded: first-step profiling, lazy set-up
        self.step("keep")

    def step(self, which: str):
        batch = self.loaders[which].next_batch()
        start = time.perf_counter()
        result = self.trainers[which].train_step([batch])
        return time.perf_counter() - start, result

    def close(self) -> None:
        self.trainers["offload"].close()
        self.engine.shutdown()
        remove_dir(self.store_dir)


class _Phase:
    """Samples of one run of interleaved pairs."""

    def __init__(self) -> None:
        self.offload_s = Sample()
        self.keep_s = Sample()
        self.pair_ratio = Sample()
        self.peak_reduction = Sample()
        self.moved_mb_per_s = Sample()
        self.stored_bytes = 0
        self.loaded_bytes = 0

    def run(self, rig: _Rig, budget: Budget, checks: Checks) -> "_Phase":
        while budget.more(len(self.offload_s)):
            off_s, off = rig.step("offload")
            keep_s, keep = rig.step("keep")
            # Verification sits between the timed steps, never inside one.
            checks.check(
                off.loss == keep.loss,
                f"step {len(self.offload_s)}: OFFLOAD loss {off.loss!r} != KEEP loss {keep.loss!r}",
            )
            self.offload_s.add(off_s)
            self.keep_s.add(keep_s)
            self.pair_ratio.add(off_s / keep_s)
            self.peak_reduction.add(1.0 - off.activation_peak_bytes / keep.activation_peak_bytes)
            self.moved_mb_per_s.add((off.offloaded_bytes + off.loaded_bytes) / 1e6 / off_s)
            self.stored_bytes += off.offloaded_bytes
            self.loaded_bytes += off.loaded_bytes
        return self


def _end_to_end(phase: _Phase, setup: Sample) -> Dict[str, Metric]:
    return {
        "setup_s": Metric.median_of(setup),
        "ops_per_s": Metric.median_of(1.0 / s for s in phase.offload_s.values),
        "engine_mb_per_s": Metric.median_of(phase.moved_mb_per_s),
        "overhead_ratio": Metric.median_of(phase.pair_ratio),
        "mem_reduction": Metric.median_of(phase.peak_reduction),
    }


def _cache_counts(cache) -> Dict[str, float]:
    stats = cache.stats
    return {
        "stored_tensors": stats.stored_tensors,
        "stored_bytes": stats.stored_bytes,
        "kept_bytes": stats.kept_bytes,
        "cancelled_stores": stats.cancelled_stores,
        "forwarded_tensors": stats.forwarded_tensors,
        "promoted_loads": stats.promoted_loads,
        "unpack_wait_s": stats.unpack_wait_s,
    }


def _traced(rig: _Rig, budget: Budget, checks: Checks, untraced: _Phase, trace_path: Path):
    """The traced pairs, the per-layer metrics and the attribution table."""
    cache = rig.trainers["offload"].cache
    store = getattr(rig.engine.offloader, "file_store", None)
    counters_before = Counters.read(rig.engine.stats(), store)
    cache_before = _cache_counts(cache)
    tracer = Tracer()
    install(tracer)
    try:
        phase = _Phase().run(rig, budget, checks)
    finally:
        tracer.uninstall()
    delta = Counters.read(rig.engine.stats(), store).since(counters_before)
    cache_delta = {k: v - cache_before[k] for k, v in _cache_counts(cache).items()}
    tracer.write_chrome_trace(trace_path)

    steps = len(phase.offload_s)
    totals = tracer.totals()

    def per_step_ms(name: str) -> float:
        return totals[name].total * 1e3 / steps if name in totals else 0.0

    def per_call_us(name: str) -> float:
        return ratio(totals[name].total * 1e6, totals[name].count) if name in totals else 0.0

    keep_ms = phase.keep_s.median * 1e3
    offload_ms = phase.offload_s.median * 1e3
    pack_ms = per_step_ms("tensor_cache.pack_hook")
    unpack_ms = per_step_ms("tensor_cache.unpack_hook")
    backward_end_ms = per_step_ms("tensor_cache.on_backward_end")
    step_end_ms = per_step_ms("tensor_cache.on_step_end")
    unattributed_ms = offload_ms - keep_ms - pack_ms - unpack_ms - backward_end_ms - step_end_ms
    tail_pct, tail_s = phase.offload_s.tail()

    layer: Dict[str, float] = {
        "trainer.keep_step_ms_p50": keep_ms,
        "trainer.offload_step_ms_p50": offload_ms,
        "trainer.offload_step_ms_tail": tail_s * 1e3,
        "trainer.offload_mb_per_s": ratio(phase.stored_bytes / 1e6, sum(phase.offload_s.values)),
        "trainer.unattributed_ms_per_step": unattributed_ms,
        "trainer.steps_per_s": ratio(1.0, phase.offload_s.median),
        "trainer.act_peak_reduction": phase.peak_reduction.median,
        "tensor_cache.pack_ms_per_step": pack_ms,
        "tensor_cache.pack_us_per_call": per_call_us("tensor_cache.pack_hook"),
        "tensor_cache.unpack_ms_per_step": unpack_ms,
        "tensor_cache.unpack_us_per_call": per_call_us("tensor_cache.unpack_hook"),
        "tensor_cache.unpack_wait_ms_per_step": cache_delta["unpack_wait_s"] * 1e3 / steps,
        "tensor_cache.backward_end_ms_per_step": backward_end_ms,
        "tensor_cache.step_end_ms_per_step": step_end_ms,
        "tensor_cache.stored_mb_per_step": cache_delta["stored_bytes"] / 1e6 / steps,
        "tensor_cache.kept_mb_per_step": cache_delta["kept_bytes"] / 1e6 / steps,
        "tensor_cache.cancelled_store_frac": ratio(
            cache_delta["cancelled_stores"], cache_delta["stored_tensors"]
        ),
        "tensor_cache.forwarded_frac": ratio(
            cache_delta["forwarded_tensors"], cache_delta["stored_tensors"]
        ),
        "tensor_cache.promoted_loads_per_step": cache_delta["promoted_loads"] / steps,
        "trace.overhead_ratio": ratio(phase.offload_s.median, untraced.offload_s.median),
    }
    layer.update(
        engine_layer_metrics(
            tracer,
            delta,
            wall_s=sum(phase.offload_s.values),
            units=steps,
            stored_bytes=phase.stored_bytes,
            loaded_bytes=phase.loaded_bytes,
            pool_books=rig.engine.stats().pool,
        )
    )
    samples = {
        "trainer.keep_step_ms_p50": Sample(s * 1e3 for s in phase.keep_s.values),
        "trainer.offload_step_ms_p50": Sample(s * 1e3 for s in phase.offload_s.values),
        "trainer.act_peak_reduction": phase.peak_reduction,
    }
    metrics = {name: Metric(value, samples.get(name)) for name, value in layer.items()}

    report = [
        f"attribution of the OFFLOAD step (ms, medians over {steps} traced steps; "
        f"tail = p{tail_pct:.0f} of {steps})",
        f"  {'keep_step':<28}{keep_ms:10.3f}",
        f"  {'+ tensor_cache.pack_hook':<28}{pack_ms:10.3f}",
        f"  {'+ tensor_cache.unpack_hook':<28}{unpack_ms:10.3f}"
        f"   (of which blocked on I/O {layer['tensor_cache.unpack_wait_ms_per_step']:.3f})",
        f"  {'+ tensor_cache.on_backward_end':<28}{backward_end_ms:8.3f}",
        f"  {'+ tensor_cache.on_step_end':<28}{step_end_ms:10.3f}",
        f"  {'+ unattributed (residual)':<28}{unattributed_ms:10.3f}"
        "   (GIL hand-offs to I/O workers, hook dispatch, cache misses)",
        f"  {'= offload_step':<28}{offload_ms:10.3f}",
    ]
    return metrics, report + tracer.summary()


def run(workload: str, seed: int, seconds: float, trace: bool, quick: bool, out_dir: Path):
    """Run one training workload; returns ``(end_to_end, per_layer, report, checks)``."""
    checks = Checks()
    threads_before = thread_names()
    setup, rig = median_setup(
        lambda: _Rig(workload, seed, out_dir), lambda built: built.close(), quick
    )
    try:
        at_least = 2 if quick else 6
        untraced_s = seconds * 0.35 if trace else seconds
        untraced = _Phase().run(rig, Budget(untraced_s, at_least, quick), checks)
        end_to_end = _end_to_end(untraced, setup)
        per_layer: Dict[str, Metric] = {}
        report: List[str] = []
        if trace:
            per_layer, report = _traced(
                rig,
                Budget(seconds - untraced_s, at_least, quick),
                checks,
                untraced,
                out_dir / f"trace-{workload}-seed{seed}.json",
            )
        check_books(checks, rig.engine.stats().scheduler, workload)
    finally:
        rig.close()
    check_no_thread_leak(checks, threads_before, workload)
    return end_to_end, per_layer, report, checks
