"""Quickstart: train a small GPT with SSDTrain activation offloading.

Runs the same training twice — activations kept in (simulated) GPU memory
vs offloaded through the tensor cache — and shows that losses match
exactly while the activation memory peak drops.

The offload target is selectable (the ``--target`` axis of the CLI):

- ``ssd``    — the paper's configuration: one file per tensor on the
  NVMe stand-in directory (add ``chunk_bytes`` for coalesced chunks);
- ``cpu``    — host pinned-memory pool only;
- ``tiered`` — the GPU -> pinned-CPU -> SSD hierarchy with demotion and
  promotion (:class:`~repro.core.tiered.TieredOffloader`).

Stores run through the priority-aware I/O scheduler by default
(``--fifo-io`` restores the paper's FIFO pools for comparison); the run
prints the scheduler's cancellation/promotion counters and an I/O trace
timeline where ``x`` marks a store cancelled before it hit the SSD.

Usage::

    python examples/quickstart.py
    python -m repro quickstart --target tiered --cpu-pool-bytes 262144
    python -m repro quickstart --chunk-bytes 1048576
    python -m repro quickstart --fifo-io
"""

from __future__ import annotations

import tempfile
from typing import Optional

import numpy as np

from repro.core import EngineConfig, OffloadPolicy, PolicyConfig, build_engine
from repro.data import SyntheticCorpus, TokenBatchLoader
from repro.device import GPU
from repro.io.trace import attach_tracer
from repro.models import GPT, ModelConfig
from repro.optim import SGD
from repro.train import PlacementStrategy, Trainer

CONFIG = ModelConfig(
    arch="gpt", hidden=128, num_layers=4, vocab_size=211, seq_len=64, head_dim=32
)
STEPS = 5

#: Model a realistically-paced store device instead of an instant local
#: file write, so the trace shows real overlap — and the scheduler has a
#: backlog to work on (forwarding, cancellation, promotion).
STORE_THROTTLE_BYTES_PER_S = 150e6


def run(
    offload: bool,
    target: str = "ssd",
    cpu_pool_bytes: Optional[int] = None,
    chunk_bytes: Optional[int] = None,
    fifo_io: bool = False,
    io_backend: str = "thread",
    io_direct: bool = False,
) -> dict:
    gpu = GPU()
    model = GPT(CONFIG, rng=np.random.default_rng(0)).to(gpu)
    optimizer = SGD(model.parameters(), lr=5e-3)

    cache = None
    tracer = None
    if offload:
        # The "few lines added to the existing script" (paper Sec. III-A):
        # one EngineConfig selects the whole engine, engine.cache() hangs
        # the training front-end on it; the Trainer registers the
        # weights, attaches the hooks, and wires the scheduler hints.
        store_dir = tempfile.mkdtemp(prefix="ssdtrain-quickstart-")
        policy = OffloadPolicy(PolicyConfig(min_offload_numel=1024))
        engine = build_engine(
            EngineConfig(
                target=target,
                store_dir=store_dir,
                cpu_pool_bytes=cpu_pool_bytes,
                chunk_bytes=chunk_bytes,
                throttle_bytes_per_s=STORE_THROTTLE_BYTES_PER_S,
                policy=policy,  # one policy governs decide() and place()
                fifo_io=fifo_io,
                io_backend=io_backend,
                io_direct=io_direct,
            )
        )
        cache = engine.cache()
        tracer = attach_tracer(cache)

    trainer = Trainer(
        model,
        optimizer,
        gpu,
        strategy=PlacementStrategy.OFFLOAD if offload else PlacementStrategy.KEEP,
        cache=cache,
    )
    loader = TokenBatchLoader(
        SyntheticCorpus(vocab_size=CONFIG.vocab_size, seed=7),
        batch_size=4,
        seq_len=CONFIG.seq_len,
        device=gpu,
    )

    losses, peaks, offloaded = [], [], 0
    tier_stats = None
    sched_stats = None
    cache_stats = None
    dataplane = None
    engine_stats = None
    try:
        for _ in range(STEPS):
            result = trainer.train_step([loader.next_batch()])
            losses.append(result.loss)
            peaks.append(result.activation_peak_bytes)
            offloaded += result.offloaded_bytes
        if cache is not None:
            tier_stats = getattr(cache.offloader, "stats", None)
            sched_stats = cache.scheduler.stats
            cache_stats = cache.stats
            engine_stats = engine.stats()
            dataplane = engine_stats.dataplane
    finally:
        trainer.close()
    return {
        "losses": losses,
        "peak": max(peaks[1:] or peaks),
        "offloaded": offloaded,
        "tier_stats": tier_stats,
        "sched_stats": sched_stats,
        "cache_stats": cache_stats,
        "dataplane": dataplane,
        "engine_stats": engine_stats,
        "tracer": tracer,
    }


def main(
    target: str = "ssd",
    cpu_pool_bytes: Optional[int] = None,
    chunk_bytes: Optional[int] = None,
    fifo_io: bool = False,
    io_backend: str = "thread",
    io_direct: bool = False,
) -> None:
    print(f"Training GPT (H={CONFIG.hidden}, L={CONFIG.num_layers}) for {STEPS} steps")
    print(f"offload target: {target}"
          + (f"  cpu_pool={cpu_pool_bytes}B" if cpu_pool_bytes is not None else "")
          + (f"  chunk={chunk_bytes}B" if chunk_bytes is not None else "")
          + ("  io=fifo" if fifo_io else "  io=priority")
          + f"  backend={io_backend}" + ("+O_DIRECT" if io_direct else "")
          + "\n")
    baseline = run(offload=False)
    ssdtrain = run(
        offload=True,
        target=target,
        cpu_pool_bytes=cpu_pool_bytes,
        chunk_bytes=chunk_bytes,
        fifo_io=fifo_io,
        io_backend=io_backend,
        io_direct=io_direct,
    )

    print(f"{'step':>4} {'loss (keep)':>12} {'loss (SSDTrain)':>16}")
    for i, (a, b) in enumerate(zip(baseline["losses"], ssdtrain["losses"])):
        print(f"{i:>4} {a:>12.4f} {b:>16.4f}")

    reduction = 1 - ssdtrain["peak"] / baseline["peak"]
    print(f"\nactivation memory peak: {baseline['peak'] / 1e6:.2f} MB -> "
          f"{ssdtrain['peak'] / 1e6:.2f} MB  ({reduction:.0%} reduction)")
    print(f"bytes offloaded to '{target}': {ssdtrain['offloaded'] / 1e6:.2f} MB")
    stats = ssdtrain["tier_stats"]
    if stats is not None:
        print(f"tier traffic: cpu={stats.cpu_stored_bytes / 1e6:.2f} MB "
              f"ssd={stats.ssd_stored_bytes / 1e6:.2f} MB "
              f"demoted={stats.demoted_bytes / 1e6:.2f} MB "
              f"promoted={stats.promoted_bytes / 1e6:.2f} MB")
    sched = ssdtrain["sched_stats"]
    if sched is not None:
        print(f"I/O scheduler: {sched.submitted} requests "
              f"({sched.cancelled} cancelled, {sched.promotions} promoted, "
              f"{sched.coalesced_requests} coalesced)")
    dataplane = ssdtrain["dataplane"]
    if dataplane is not None:
        per_step = dataplane.copies / STEPS
        print(f"data plane: {dataplane.copies} copies "
              f"({dataplane.bytes_copied / 1e6:.2f} MB, {per_step:.1f} copies/step), "
              f"{dataplane.allocs_avoided} allocs avoided, "
              f"arena hit rate {dataplane.arena_hit_rate:.0%}")
    engine_stats = ssdtrain["engine_stats"]
    if engine_stats is not None and engine_stats.io_lanes:
        for lane, ls in sorted(engine_stats.io_lanes.items()):
            if not ls.batches:
                continue
            print(f"io backend [{engine_stats.io_backend}] lane {lane}: "
                  f"{ls.syscalls} syscalls over {ls.batches} batches "
                  f"({ls.batched_requests} requests batched)")
        plane = engine_stats.dataplane
        if plane.bounce_copies or plane.bounce_copies_skipped:
            print(f"gds routing: bounce copies {plane.bounce_copies} "
                  f"(skipped {plane.bounce_copies_skipped})")
    tracer = ssdtrain["tracer"]
    if tracer is not None:
        overlap = tracer.stats()
        print(f"trace: store busy {overlap.store_busy_s * 1e3:.0f} ms, "
              f"load busy {overlap.load_busy_s * 1e3:.0f} ms, "
              f"{overlap.cancelled_stores} stores cancelled before the SSD, "
              f"{overlap.promoted_loads} loads promoted")
        print(tracer.render_ascii(width=72))
    assert all(
        abs(a - b) < 1e-4 for a, b in zip(baseline["losses"], ssdtrain["losses"])
    ), "offloaded training must match the baseline exactly"
    if sched is not None and not fifo_io:
        # The scheduler must visibly work on this workload: obsolete
        # stores are cancelled before they hit the SSD (trace 'x' marks).
        assert sched.cancelled >= 1, "expected >=1 cancelled store per quickstart run"
    if dataplane is not None:
        # The pooled data plane must visibly work too: the streaming
        # writer / arena must have skipped real allocations this run.
        assert dataplane.allocs_avoided > 0, "expected the data plane to avoid allocs"
    print("losses identical: offloading is transparent to training. ✓")


if __name__ == "__main__":
    main()
