"""Command-line interface: regenerate any paper artifact.

Usage::

    python -m repro list                 # what can be regenerated
    python -m repro fig1                 # scaling trends
    python -m repro fig2                 # step timeline
    python -m repro fig5                 # SSD viability projection
    python -m repro fig6                 # step time & activation peak grid
    python -m repro fig7 [--hidden H]    # ROK curve
    python -m repro fig8a                # micro-batch breakdown
    python -m repro fig8b                # upscaling bandwidth
    python -m repro table3               # offload amount vs estimate
    python -m repro memory [--zero N]    # ZeRO memory breakdown (extension)
    python -m repro quickstart           # functional offloaded training demo
    python -m repro tiers                # CPU-pool-size sweep (tiered offload)
    python -m repro sched                # FIFO vs priority I/O scheduling A/B
    python -m repro autotune             # static vs adaptive budget under drift
    python -m repro faults               # fault-scenario runner (--functional
                                         #   for the live chaos recovery demo)
    python -m repro tenants              # multi-tenant fair-share vs FIFO A/B
                                         #   (Jain's index, weights, quotas)
    python -m repro kv                   # KV-cache paging vs HBM-only serving
                                         #   (p50/p99 TTFT, peak concurrency)

The functional quickstart drives any backend: ``--target ssd|cpu|tiered``
plus ``--cpu-pool-bytes`` (CPU-tier capacity) and ``--chunk-bytes``
(SSD chunk coalescing) select the three-tier configuration; ``--fifo-io``
swaps the priority-aware I/O scheduler back to the paper's FIFO dequeue.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List

from repro.core.engine import IO_BACKENDS
from repro.core.offloader import OFFLOAD_TARGETS
from repro.device.ssd import INTEL_OPTANE_P5800X_1600GB
from repro.models.config import ModelConfig
from repro.train.parallel import ParallelismConfig, ZeroStage
from repro.train.trainer import PlacementStrategy

SSD_WRITE_BW = 4 * INTEL_OPTANE_P5800X_1600GB.write_bw
SSD_READ_BW = 4 * INTEL_OPTANE_P5800X_1600GB.read_bw
EVAL_PAR = ParallelismConfig(tp=2)


def cmd_fig1(args: argparse.Namespace) -> None:
    from repro.analysis.scaling import fig1_series, memory_to_compute_growth_ratio

    series = fig1_series()
    for key, entry in series.items():
        print(f"{key:<11} growth {100 * entry['growth_per_year']:6.1f} %/yr")
        for p in entry["points"]:
            print(f"    {p.year:7.1f}  {p.name:<14} {p.value:.3e}")
    print(f"memory/compute growth ratio: {memory_to_compute_growth_ratio():.2f} (paper ~0.41)")


def cmd_fig2(args: argparse.Namespace) -> None:
    from repro.sim import StepSimulator, build_segments

    config = ModelConfig(arch="bert", hidden=args.hidden, num_layers=3, seq_len=1024)
    segments = build_segments(config, args.batch, parallelism=EVAL_PAR)
    sim = StepSimulator(
        segments,
        PlacementStrategy.OFFLOAD,
        write_bandwidth=SSD_WRITE_BW,
        read_bandwidth=SSD_READ_BW,
        num_microbatches=2,
        keep_last_segments=2,
    )
    result = sim.run(weight_update_s=0.02)
    print(result.timeline.render_ascii(width=100, lanes=["gpu", "store", "load"]))
    print(f"step={result.step_time_s * 1e3:.0f} ms  stall={result.io_stall_time_s * 1e3:.1f} ms  "
          f"offloaded={result.offloaded_bytes / 2**30:.1f} GiB")


def cmd_fig5(args: argparse.Namespace) -> None:
    from repro.analysis.ssd_model import project_all_fig5

    for projection in project_all_fig5():
        print(projection.as_row())


def cmd_fig6(args: argparse.Namespace) -> None:
    from repro.sim import simulate_strategy

    print(f"{'model':<5} {'H':>6} {'L':>2} {'overhead':>9} {'peak keep':>10} "
          f"{'peak off':>9} {'reduction':>9}")
    for arch in ("bert", "t5", "gpt"):
        for hidden, layers in ((8192, 4), (12288, 3), (16384, 2)):
            config = ModelConfig(arch=arch, hidden=hidden, num_layers=layers, seq_len=1024)
            keep = simulate_strategy(
                config, args.batch, PlacementStrategy.KEEP, SSD_WRITE_BW, SSD_READ_BW,
                parallelism=EVAL_PAR,
            )
            off = simulate_strategy(
                config, args.batch, PlacementStrategy.OFFLOAD, SSD_WRITE_BW, SSD_READ_BW,
                parallelism=EVAL_PAR,
            )
            print(f"{arch:<5} {hidden:>6} {layers:>2} "
                  f"{off.step_time_s / keep.step_time_s - 1:>8.2%} "
                  f"{keep.activation_peak_bytes / 2**30:>8.2f}GB "
                  f"{off.activation_peak_bytes / 2**30:>7.2f}GB "
                  f"{1 - off.activation_peak_bytes / keep.activation_peak_bytes:>8.0%}")


def cmd_fig7(args: argparse.Namespace) -> None:
    from repro.sim import simulate_strategy

    config = ModelConfig(arch="bert", hidden=args.hidden, num_layers=3, seq_len=1024)
    print(f"{'B':>3} {'strategy':<10} {'act peak':>9} {'throughput':>12}")
    for batch in (4, 8, 16):
        for strategy in PlacementStrategy:
            r = simulate_strategy(
                config, batch, strategy, SSD_WRITE_BW, SSD_READ_BW, parallelism=EVAL_PAR
            )
            print(f"{batch:>3} {strategy.value:<10} {r.activation_peak_bytes / 2**30:>7.2f}GB "
                  f"{r.model_throughput_tflops():>9.1f} TF")


def cmd_fig8a(args: argparse.Namespace) -> None:
    from repro.analysis.microbatch import microbatch_breakdown

    config = ModelConfig(arch="bert", hidden=args.hidden, num_layers=3, seq_len=1024)
    for row in microbatch_breakdown(config, parallelism=EVAL_PAR):
        print(f"B{row.batch_size:<3} total {row.total_improvement:6.1%}  "
              f"update {row.update_saving_improvement:6.1%}  "
              f"efficiency {row.efficiency_improvement:6.1%}")


def cmd_fig8b(args: argparse.Namespace) -> None:
    from repro.analysis.microbatch import upscaling_write_bandwidth

    reference, points = upscaling_write_bandwidth(hidden=args.hidden)
    print(f"reference (2-GPU TP2): {reference:.1f} GB/s")
    for p in points:
        print(f"  {p.label:<14} {p.write_bandwidth_gbps:>6.1f} GB/s")


def cmd_table3(args: argparse.Namespace) -> None:
    from repro.analysis.perf_model import (
        model_param_count,
        model_step_perf,
        weight_update_time,
    )
    from repro.sim import StepSimulator, build_segments

    for hidden, layers in ((8192, 4), (12288, 3), (16384, 2)):
        config = ModelConfig(arch="bert", hidden=hidden, num_layers=layers, seq_len=1024)
        segments = build_segments(config, args.batch, parallelism=EVAL_PAR)
        update = weight_update_time(EVAL_PAR.params_per_gpu(model_param_count(config)))
        sim = StepSimulator(
            segments, PlacementStrategy.OFFLOAD, SSD_WRITE_BW, SSD_READ_BW,
            keep_last_segments=1,
        )
        result = sim.run(weight_update_s=update)
        estimate = model_step_perf(
            config, args.batch, parallelism=EVAL_PAR
        ).activation_bytes_per_microbatch
        print(f"H{hidden:<6} L{layers} offloaded {result.offloaded_bytes / 1e9:6.2f} GB  "
              f"estimate {estimate / 1e9:6.2f} GB  "
              f"write BW {result.required_write_bandwidth_gbps():5.2f} GB/s")


def cmd_memory(args: argparse.Namespace) -> None:
    from repro.train.zero_memory import zero_memory_breakdown

    config = ModelConfig(arch="gpt", hidden=args.hidden, num_layers=args.layers, seq_len=1024)
    par = ParallelismConfig(tp=args.tp, dp=args.dp, zero_stage=ZeroStage(args.zero))
    for offload in (0.0, 0.5):
        breakdown = zero_memory_breakdown(
            config, args.batch, parallelism=par, offload_fraction=offload
        )
        print(f"offload_fraction={offload}:")
        for name, nbytes in breakdown.as_dict().items():
            print(f"  {name:<12} {nbytes / 2**30:8.2f} GiB")
        print(f"  {'total':<12} {breakdown.total / 2**30:8.2f} GiB "
              f"({breakdown.activation_fraction:.0%} activations)")


def _example_main(name: str) -> Callable[..., object]:
    """``main`` of ``examples/<name>.py`` in the checkout this ``repro``
    package lives in, loaded by path so the command runs from any
    working directory."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[2] / "examples" / f"{name}.py"
    if not path.is_file():
        raise SystemExit(f"repro: example file not found: {path} (needs a source checkout)")
    spec = importlib.util.spec_from_file_location(f"repro_example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def cmd_quickstart(args: argparse.Namespace) -> None:
    quickstart_main = _example_main("quickstart")

    cpu_pool_bytes = args.cpu_pool_bytes
    if cpu_pool_bytes is None and args.target == "tiered":
        cpu_pool_bytes = 1 << 20  # 1 MiB pool suits the quickstart model
    quickstart_main(
        target=args.target,
        cpu_pool_bytes=cpu_pool_bytes,
        chunk_bytes=args.chunk_bytes,
        fifo_io=args.fifo_io,
        io_backend=args.io_backend,
    )


def cmd_tiers(args: argparse.Namespace) -> None:
    """Sweep the pinned-CPU pool size through the tiered step simulator,
    with the analytic :class:`TierTransferModel` prediction alongside."""
    from repro.analysis.perf_model import TierTransferModel
    from repro.sim import simulate_strategy

    config = ModelConfig(arch="bert", hidden=args.hidden, num_layers=3, seq_len=1024)
    keep = simulate_strategy(
        config, args.batch, PlacementStrategy.KEEP, SSD_WRITE_BW, SSD_READ_BW,
        parallelism=EVAL_PAR,
    )
    if args.cpu_pool_bytes is not None:
        pools = [args.cpu_pool_bytes]
    else:
        pools = [0, 2 * 2**30, 4 * 2**30, 8 * 2**30, 16 * 2**30]
    print(f"{'CPU pool':>9} {'to CPU':>8} {'to SSD':>8} {'overhead':>9} "
          f"{'stall':>8} {'SSD BW req':>11} {'analytic':>9}")
    for pool in pools:
        r = simulate_strategy(
            config, args.batch, PlacementStrategy.OFFLOAD, SSD_WRITE_BW, SSD_READ_BW,
            parallelism=EVAL_PAR, cpu_pool_bytes=pool or None,
        )
        analytic = TierTransferModel(
            cpu_pool_bytes=pool, ssd_bandwidth=SSD_WRITE_BW
        ).required_ssd_write_bandwidth(r.offloaded_bytes, r.step_time_s)
        print(f"{pool / 2**30:>7.0f}GB {r.offloaded_cpu_bytes / 2**30:>6.1f}GB "
              f"{r.offloaded_ssd_bytes / 2**30:>6.1f}GB "
              f"{r.step_time_s / keep.step_time_s - 1:>8.2%} "
              f"{r.io_stall_time_s * 1e3:>6.1f}ms "
              f"{r.required_ssd_write_bandwidth_gbps():>9.1f}GB/s "
              f"{analytic / 1e9:>7.1f}GB/s")


def cmd_sched(args: argparse.Namespace) -> None:
    """A/B the SSD lanes of the production scheduler at equal
    bandwidth: the paper's two FIFO pools (duplex), one shared FIFO lane,
    and the shared lane with blocking-load-first priority dequeue."""
    from repro.sim import simulate_strategy

    config = ModelConfig(arch="bert", hidden=args.hidden, num_layers=3, seq_len=1024)
    # Default to a single SSD: the paper's 4-SSD RAID0 has enough headroom
    # that no store backlog ever forms and all three modes coincide — the
    # scheduler matters exactly when the channel is contended.
    write_bw = args.write_bw if args.write_bw is not None else INTEL_OPTANE_P5800X_1600GB.write_bw
    read_bw = args.read_bw if args.read_bw is not None else INTEL_OPTANE_P5800X_1600GB.read_bw
    print(f"{'io mode':>9} {'step':>9} {'blocking-load stall':>20} {'forwarded':>10}")
    results = {}
    for mode in ("duplex", "fifo", "priority"):
        r = simulate_strategy(
            config, args.batch, PlacementStrategy.OFFLOAD, write_bw, read_bw,
            parallelism=EVAL_PAR, io_mode=mode,
        )
        results[mode] = r
        print(f"{mode:>9} {r.step_time_s * 1e3:>7.0f}ms "
              f"{r.io_stall_time_s * 1e3:>18.1f}ms "
              f"{r.forwarded_bytes / 2**30:>8.2f}GB")
    saved = results["fifo"].io_stall_time_s - results["priority"].io_stall_time_s
    print(f"\npriority dequeue removes {saved * 1e3:.1f} ms of backward-blocking "
          f"stall per step versus FIFO at equal bandwidth")


def cmd_autotune(args: argparse.Namespace) -> None:
    """A/B the paper's one-shot offload budget against the online
    adaptive controller under a bandwidth/workload drift scenario: the
    budget is profiled once at full bandwidth, then the scenario pulls
    the hardware out from under it and the controller re-sizes live."""
    from repro.core.autotune import AutotuneController
    from repro.core.policy import OffloadPolicy, PolicyConfig
    from repro.sim import Scenario, StepConditions, build_segments, one_shot_budget, simulate_run

    config = ModelConfig(arch="bert", hidden=args.hidden, num_layers=3, seq_len=1024)
    segments = build_segments(config, args.batch, parallelism=EVAL_PAR)
    # Single SSD, shared channel: the regime where a stale budget hurts.
    write_bw = args.write_bw if args.write_bw is not None else INTEL_OPTANE_P5800X_1600GB.write_bw
    read_bw = args.read_bw if args.read_bw is not None else INTEL_OPTANE_P5800X_1600GB.read_bw

    if args.scenario == "step":
        scenario = Scenario.step_drop(
            write_bw, read_bw, steps=args.steps, drift_step=args.drift_step,
            write_factor=args.factor,
        )
    elif args.scenario == "ramp":
        scenario = Scenario.ramp(
            write_bw, read_bw, steps=args.steps, drift_step=args.drift_step,
            ramp_steps=max(1, (args.steps - args.drift_step) // 2),
            write_factor=args.factor,
        )
    else:  # microbatch
        scenario = Scenario.microbatch_resize(
            write_bw, read_bw, steps=args.steps, drift_step=args.drift_step,
            before=2, after=1,
        )

    # The paper's Fig. 3 one-shot: profile the first step at full
    # bandwidth, size the budget once.
    mb = scenario.conditions[0].num_microbatches
    budget = one_shot_budget(segments, StepConditions(write_bw, read_bw, num_microbatches=mb))

    static = simulate_run(
        segments, scenario,
        policy=OffloadPolicy(PolicyConfig(offload_budget_bytes=budget)),
    )
    controller = AutotuneController()
    adaptive = simulate_run(
        segments, scenario,
        policy=OffloadPolicy(PolicyConfig(offload_budget_bytes=budget)),
        controller=controller,
    )

    print(f"scenario: {args.scenario}  drift at step {scenario.event_step}  "
          f"one-shot budget {budget / 2**30:.2f} GiB "
          f"(write {write_bw / 1e9:.1f} GB/s)\n")
    print(f"{'step':>4} {'write BW':>9} {'mb':>3} {'static stall':>13} "
          f"{'adaptive stall':>15} {'budget':>9} {'bw est':>8}")
    for step, conditions in enumerate(scenario.conditions):
        s = static.results[step]
        a = adaptive.results[step]
        in_force = adaptive.budgets[step]
        decision = adaptive.decisions[step]
        est = decision.write_bandwidth_bytes_per_s
        print(f"{step:>4} {conditions.write_bandwidth / 1e9:>7.1f}G/s "
              f"{conditions.num_microbatches:>3} "
              f"{s.io_stall_time_s * 1e3:>11.1f}ms "
              f"{a.io_stall_time_s * 1e3:>13.1f}ms "
              f"{(in_force or 0) / 2**30:>7.2f}G "
              f"{(est or 0) / 1e9:>6.1f}G"
              + ("  <- retuned" if decision.retuned else ""))
    drift = scenario.event_step
    ratio = adaptive.stall_time_s(drift) / max(static.stall_time_s(drift), 1e-12)
    print(f"\npost-drift backward stall: static {static.stall_time_s(drift) * 1e3:.0f} ms, "
          f"adaptive {adaptive.stall_time_s(drift) * 1e3:.0f} ms ({ratio:.0%} of static)")
    print(f"post-drift offloaded: static "
          f"{sum(r.offloaded_bytes for r in static.results[drift:]) / 2**30:.1f} GiB, "
          f"adaptive {sum(r.offloaded_bytes for r in adaptive.results[drift:]) / 2**30:.1f} GiB")


def _fault_rig(steps, plan=None, kill_before_step=None, heal_before_step=None,
               fault_gate=None, **engine_options):
    """Train the fault demos' tiny GPT for ``steps`` offloaded steps.

    The engine is built from ``engine_options`` over a fresh store
    directory, removed once the engine is shut down; ``plan`` wraps its
    SSD store in a fault injector that is killed / healed before the
    given steps, and ``fault_gate`` is installed on its chunk store.
    After a heal the rig drives the breaker's probe rounds until the
    tier is back (or 5 s pass), so the caller sees the settled state.
    Returns ``(losses, injector, engine)``; the engine is shut down.
    """
    import tempfile
    import time

    import numpy as np

    from repro.core import EngineConfig, OffloadPolicy, PolicyConfig, build_engine
    from repro.data import SyntheticCorpus, TokenBatchLoader
    from repro.device import GPU
    from repro.io.faults import inject_faults
    from repro.models import GPT
    from repro.optim import SGD
    from repro.train import Trainer

    config = ModelConfig(
        arch="gpt", hidden=64, num_layers=2, vocab_size=97, seq_len=32, head_dim=32
    )
    gpu = GPU()
    model = GPT(config, rng=np.random.default_rng(0)).to(gpu)
    store_dir = tempfile.TemporaryDirectory(prefix="ssdtrain-faults-")
    engine = build_engine(
        EngineConfig(
            store_dir=store_dir.name,
            policy=OffloadPolicy(PolicyConfig(min_offload_numel=256)),
            **engine_options,
        )
    )
    if fault_gate is not None:
        engine.chunk_store.fault_gate = fault_gate
    cache = engine.cache()
    injector = inject_faults(engine.offloader, plan) if plan is not None else None
    trainer = Trainer(model, SGD(model.parameters(), lr=1e-3), gpu,
                      strategy=PlacementStrategy.OFFLOAD, cache=cache)
    loader = TokenBatchLoader(
        SyntheticCorpus(vocab_size=config.vocab_size, seed=11),
        batch_size=2, seq_len=config.seq_len, device=gpu,
    )
    losses = []
    try:
        for step in range(steps):
            if injector is not None and kill_before_step == step:
                injector.kill()
            if injector is not None and heal_before_step == step:
                injector.heal()
            losses.append(trainer.train_step([loader.next_batch()]).loss)
        if heal_before_step is not None:
            tier = engine.tiered
            deadline = time.monotonic() + 5.0
            while tier.ssd_dead and time.monotonic() < deadline:
                tier.maybe_probe_ssd()
                time.sleep(tier.probe_backoff_s)
    finally:
        trainer.close()
        engine.shutdown()
        store_dir.cleanup()
    return losses, injector, engine


def _faults_functional(args: argparse.Namespace) -> None:
    """Functional chaos demo: train the same tiny GPT fault-free, under a
    seeded transient-fault plan (retries heal it, losses bit-exact), and
    with the SSD bricked mid-run (tiered CPU failover completes it)."""
    from repro.io.faults import FaultPlan

    steps = 4
    clean, _, _ = _fault_rig(steps, target="ssd")
    faulted, injector, engine = _fault_rig(
        steps, plan=FaultPlan.transient(rate=0.2, seed=args.seed), target="ssd"
    )
    sched = engine.scheduler.stats
    print(f"transient faults (rate 0.2, seed {args.seed}): "
          f"{injector.fault_stats.injected_transient} injected, "
          f"{sched.retries} retries, {sched.failed} failed")
    # Small pool: demotions to the (killable) SSD tier happen.
    dead, dead_inj, dead_engine = _fault_rig(
        steps, plan=FaultPlan(seed=args.seed), kill_before_step=2,
        target="tiered", cpu_pool_bytes=64 << 10,
    )
    tier_stats = dead_engine.tiered.stats
    print(f"SSD death before step 2 (tiered): "
          f"{dead_inj.fault_stats.permanent_failures} permanent failures, "
          f"{tier_stats.failovers} failovers "
          f"({tier_stats.failover_bytes / 1e6:.2f} MB re-routed to CPU)")
    print(f"\n{'step':>4} {'fault-free':>12} {'transient':>12} {'ssd-death':>12}")
    for i, (a, b, c) in enumerate(zip(clean, faulted, dead)):
        print(f"{i:>4} {a:>12.6f} {b:>12.6f} {c:>12.6f}")
    assert faulted == clean, "transient faults must heal to bit-exact losses"
    assert dead == clean, "CPU failover must keep losses bit-exact"
    # Permanent death under tiered surfaces as failovers (the data is
    # recovered into the CPU tier), not as failed requests.
    assert tier_stats.failovers >= 1, "expected >=1 failover after the kill"
    print("\nlosses bit-exact under transient faults and under SSD death "
          "with CPU failover. ✓")


def _faults_heal(args: argparse.Namespace) -> None:
    """Self-healing chaos demo (architecture §12), two scenarios:

    A. die -> heal -> resurrect: the SSD is killed mid-run (breaker
       opens, placements fail over), then heals; half-open canary
       probes re-close the breaker and the tier comes back — losses
       stay bit-exact throughout.
    B. ENOSPC survival: one store root fills; write-leveling re-routes
       chunks to the other root with zero failed requests.
    """
    import errno
    import tempfile

    from repro.io.faults import FaultPlan

    steps = 6
    tiered = {"target": "tiered", "cpu_pool_bytes": 64 << 10}
    clean, _, _ = _fault_rig(steps, **tiered)

    # -- scenario A: die -> heal -> half-open probes resurrect the tier
    healed, inj, engine = _fault_rig(
        steps, plan=FaultPlan(seed=args.seed), kill_before_step=1, heal_before_step=3,
        probe_backoff_s=0.005, **tiered,
    )
    breaker = engine.tiered.breaker
    print(f"die->heal->resurrect: {inj.fault_stats.permanent_failures} permanent "
          f"failures, breaker trips {breaker.stats.trips}, probes "
          f"{breaker.stats.probes_allowed} ({breaker.stats.probe_successes} ok), "
          f"resurrections {breaker.stats.resurrections}, "
          f"final state {breaker.state!r}")
    assert healed == clean, "die->heal cycle must keep losses bit-exact"
    assert breaker.stats.trips >= 1, "the kill must open the breaker"
    assert not engine.tiered.ssd_dead, "the healed SSD tier must be resurrected"
    assert breaker.stats.resurrections >= 1, "probes must re-close the breaker"

    # -- scenario B: ENOSPC on one store root -> re-route, zero failures
    root0_left = [48 << 10]

    def gate(root_index, nbytes):
        if root_index == 0:
            root0_left[0] -= nbytes
            if root0_left[0] < 0:
                raise OSError(errno.ENOSPC, "injected: store root 0 full")

    with tempfile.TemporaryDirectory(prefix="ssdtrain-heal-root1-") as root1:
        survived, _, c_engine = _fault_rig(
            steps, fault_gate=gate, chunk_bytes=32 << 10, store_roots=[root1], **tiered,
        )
    store, c_sched = c_engine.chunk_store, c_engine.scheduler.stats
    print(f"ENOSPC on root 0: {store.enospc_root_skips} re-routed writes, "
          f"full roots {store.full_roots}, {c_sched.failed} failed requests")
    assert survived == clean, "ENOSPC re-routing must keep losses bit-exact"
    assert c_sched.failed == 0, "a full root must not fail any request"
    assert store.enospc_root_skips >= 1, "expected >=1 ENOSPC re-route"
    print("\nSSD die->heal resurrected by canary probes, ENOSPC survived "
          "with zero failures. ✓")


def cmd_faults(args: argparse.Namespace) -> None:
    """Fault-scenario runner: the sim A/B of what transient retries,
    latency spikes, and a mid-run SSD death cost (stall, overhead,
    failover), plus ``--functional`` for the live chaos demo proving
    bit-exact recovery and ``--heal`` for the self-healing degraded-mode
    demo (breaker resurrection, ENOSPC survival)."""
    from repro.sim import Scenario, build_segments, simulate_run

    if getattr(args, "heal", False):
        _faults_heal(args)
        return
    if args.functional:
        _faults_functional(args)
        return

    config = ModelConfig(arch="bert", hidden=args.hidden, num_layers=3, seq_len=1024)
    segments = build_segments(config, args.batch, parallelism=EVAL_PAR)
    write_bw = INTEL_OPTANE_P5800X_1600GB.write_bw
    read_bw = INTEL_OPTANE_P5800X_1600GB.read_bw
    scenarios = {
        "transient": Scenario.transient(
            write_bw, read_bw, steps=args.steps, fault_rate=args.fault_rate,
            seed=args.seed,
        ),
        "latency": Scenario.latency(
            write_bw, read_bw, steps=args.steps, fault_rate=args.fault_rate,
            spike_s=0.02, seed=args.seed,
        ),
        "lane_death": Scenario.lane_death(
            write_bw, read_bw, steps=args.steps, death_step=args.steps // 2,
        ),
    }
    clean = simulate_run(segments, Scenario.static(write_bw, read_bw, steps=args.steps))
    print(f"{args.steps} steps, fault rate {args.fault_rate}, seed {args.seed}, "
          f"SSD write {write_bw / 1e9:.1f} GB/s\n")
    print(f"{'scenario':>10} {'stall':>9} {'clean stall':>12} {'overhead':>9} "
          f"{'failover':>9}")
    runs = {}
    for name, scenario in scenarios.items():
        run = runs[name] = simulate_run(segments, scenario)
        failover = f"step {scenario.event_step}" if scenario.event_step is not None else "-"
        print(f"{name:>10} {run.stall_time_s() * 1e3:>7.1f}ms "
              f"{clean.stall_time_s() * 1e3:>10.1f}ms "
              f"{run.step_time_s() / clean.step_time_s() - 1.0:>8.2%} {failover:>9}")
    death = runs["lane_death"]
    step_before = death.results[max(0, args.steps // 2 - 1)]
    step_after = death.results[args.steps // 2]
    print(f"\nlane death at step {args.steps // 2}: step time "
          f"{step_before.step_time_s * 1e3:.0f} ms -> {step_after.step_time_s * 1e3:.0f} ms "
          f"(offload drains via host memory, run completes; the PCIe link "
          f"outruns a single bricked SSD, at the cost of bounded host DRAM)")


def cmd_tenants(args: argparse.Namespace) -> None:
    """Multi-tenant QoS A/B: fair-share DRR dequeue vs naive FIFO.

    N equal-weight tenants fire identical offload bursts at one shared
    lane of the production scheduler, served on a virtual clock (so the
    numbers are exact).
    Fair-share service splits the contended window evenly (Jain's index
    ~1.0); FIFO serves whoever queued first and starves the rest.  A
    second round demonstrates weights and a byte-quota cap.
    """
    from repro.sim.step_sim import MultiTenantHarness, TenantJobSpec

    n = args.num_tenants
    jobs = [
        TenantJobSpec(
            name=f"job{i}", num_tensors=args.tensors, tensor_bytes=args.tensor_kb << 10
        )
        for i in range(n)
    ]
    print(f"multi-tenant A/B: {n} equal-weight tenants x {args.tensors} "
          f"stores of {args.tensor_kb} KiB on one shared lane\n")
    print(f"{'mode':>6} {'Jain(contended)':>16}  per-tenant contended KiB")
    results = {}
    for fair in (True, False):
        result = MultiTenantHarness(jobs, fair=fair).run()
        results["fair" if fair else "fifo"] = result
        shares = "  ".join(
            f"{m.name}:{m.contended_bytes >> 10}" for m in result.tenants.values()
        )
        print(f"{'fair' if fair else 'fifo':>6} {result.contended_jain:>16.4f}  {shares}")
    fair_jain = results["fair"].contended_jain
    fifo_jain = results["fifo"].contended_jain
    print(f"\nfair-share Jain {fair_jain:.4f} vs FIFO {fifo_jain:.4f} "
          f"(+{fair_jain - fifo_jain:.4f}); equal tenants get equal service "
          f"only under the DRR dequeue.")
    assert fair_jain >= 0.9, f"fair-share Jain index too low: {fair_jain:.4f}"
    assert fair_jain > fifo_jain, "fair-share must beat FIFO on Jain's index"

    wjobs = [
        TenantJobSpec(name="weight2", weight=2.0, num_tensors=args.tensors,
                      tensor_bytes=args.tensor_kb << 10),
        TenantJobSpec(name="weight1", weight=1.0, num_tensors=args.tensors,
                      tensor_bytes=args.tensor_kb << 10),
    ]
    weighted = MultiTenantHarness(wjobs, fair=True).run()
    cb = {m.name: m.contended_bytes for m in weighted.tenants.values()}
    ratio = cb["weight2"] / max(1, cb["weight1"])
    print(f"\nweighted round (2:1): contended-byte ratio {ratio:.2f} "
          f"(weight-proportional service)")

    quota = 4 * (args.tensor_kb << 10)
    qjobs = [
        TenantJobSpec(name="capped", num_tensors=args.tensors,
                      tensor_bytes=args.tensor_kb << 10, byte_quota=quota),
        TenantJobSpec(name="free", num_tensors=args.tensors,
                      tensor_bytes=args.tensor_kb << 10),
    ]
    capped = MultiTenantHarness(qjobs, fair=True).run().tenants["capped"]
    print(f"quota round: capped tenant executed {capped.executed_bytes >> 10} KiB "
          f"of a {quota >> 10} KiB budget "
          f"({capped.rejected_bytes >> 10} KiB rejected at admission). ✓")
    assert capped.executed_bytes <= quota, "byte quota must cap executed bytes"


def cmd_kv(args: argparse.Namespace) -> None:
    """KV-cache paging A/B: paged serving vs HBM-only at equal capacity.

    One seeded multi-user trace is served twice through the virtual-clock
    server sim — once with the KV block pool paging cold blocks to the
    engine's CPU/SSD tiers, once reserving every request's full KV in HBM.
    All numbers are virtual-clock, so they are exact and deterministic;
    the paged run is replayed under the same seed to prove it.
    """
    from repro.serve import (
        KVServerSim,
        RequestTrace,
        ServerConfig,
        TraceConfig,
    )

    trace = RequestTrace.generate(
        TraceConfig(num_requests=args.requests, seed=args.seed)
    )
    print(
        f"KV paging A/B: {len(trace)} requests from {len(trace.users)} users "
        f"(seed {args.seed}), contexts up to {trace.max_context_tokens} tokens, "
        f"HBM capacity {args.hbm_kb} KiB\n"
    )
    hbm = args.hbm_kb << 10
    paged_cfg = ServerConfig(paged=True, strategy=args.strategy, hbm_capacity_bytes=hbm)
    base_cfg = ServerConfig(paged=False, hbm_capacity_bytes=hbm)
    paged = KVServerSim(trace, paged_cfg).run()
    base = KVServerSim(trace, base_cfg).run()
    replay = KVServerSim(trace, paged_cfg).run()

    print(f"{'mode':>16} {'served':>7} {'rejected':>9} {'peak ctx':>9} "
          f"{'TTFT p50 (s)':>13} {'TTFT p99 (s)':>13}")
    for r in (paged, base):
        print(f"{r.label:>16} {r.served:>7d} {r.rejected:>9d} "
              f"{r.peak_concurrency:>9d} {r.ttft_p50:>13.4f} {r.ttft_p99:>13.4f}")

    print("\nper-user TTFT p50 (s), paged:")
    for user in sorted(paged.per_user_ttft_p50):
        print(f"  {user}: {paged.per_user_ttft_p50[user]:.4f}")

    stats = paged.pool_stats
    census = "  ".join(
        f"{tier}:{count}" for tier, count in sorted(paged.tier_census_peak.items())
    )
    print(f"\nblock census at peak concurrency: {census}")
    print(f"pool books: {stats.blocks_written} blocks written, "
          f"{stats.demand_fetches} demand fetches, "
          f"{stats.prefetch_hits} prefetch hits "
          f"(hit rate {stats.prefetch_hit_rate:.3f}), "
          f"{stats.writebacks} writebacks, {stats.evictions} evictions")
    print(f"bit-exact KV round-trip: {paged.bit_exact_checked} blocks verified "
          f"across tier migrations. {'✓' if paged.bit_exact_ok else '✗'}")

    assert paged.bit_exact_ok and base.bit_exact_ok, "KV bytes must round-trip bit-exact"
    assert paged.peak_concurrency > base.peak_concurrency, (
        "paging must serve more concurrent contexts than HBM-only at equal capacity"
    )
    assert paged.served >= base.served, "paging must not serve fewer requests"
    if args.strategy in ("lookahead",):
        assert stats.prefetch_hit_rate > 0, "look-ahead prefetch must land hits"
    assert (replay.ttft_p50, replay.ttft_p99) == (paged.ttft_p50, paged.ttft_p99), (
        "same seed must reproduce identical p50/p99"
    )
    print(f"\npaged serves {paged.peak_concurrency} concurrent contexts vs "
          f"{base.peak_concurrency} HBM-only; replay under seed {args.seed} "
          f"reproduced p50/p99 exactly. ✓")


COMMANDS: Dict[str, Callable[[argparse.Namespace], None]] = {
    "fig1": cmd_fig1,
    "fig2": cmd_fig2,
    "fig5": cmd_fig5,
    "fig6": cmd_fig6,
    "fig7": cmd_fig7,
    "fig8a": cmd_fig8a,
    "fig8b": cmd_fig8b,
    "table3": cmd_table3,
    "memory": cmd_memory,
    "quickstart": cmd_quickstart,
    "tiers": cmd_tiers,
    "sched": cmd_sched,
    "autotune": cmd_autotune,
    "faults": cmd_faults,
    "tenants": cmd_tenants,
    "kv": cmd_kv,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Regenerate SSDTrain paper artifacts."
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available artifacts")
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"regenerate {name}")
        p.add_argument("--hidden", type=int, default=12288)
        p.add_argument("--batch", type=int, default=16)
        if name == "memory":
            p.add_argument("--layers", type=int, default=24)
            p.add_argument("--tp", type=int, default=2)
            p.add_argument("--dp", type=int, default=4)
            p.add_argument("--zero", type=int, default=0, choices=[0, 1, 2, 3])
        if name == "quickstart":
            p.add_argument(
                "--target", choices=OFFLOAD_TARGETS, default="ssd",
                help="offload backend: per-tensor SSD files, pinned-CPU pool, "
                     "or the GPU->CPU->SSD tier hierarchy",
            )
        if name in ("quickstart", "tiers"):
            p.add_argument(
                "--cpu-pool-bytes", type=int, default=None,
                help="pinned-CPU tier capacity in bytes",
            )
        if name == "quickstart":
            p.add_argument(
                "--chunk-bytes", type=int, default=None,
                help="coalesce SSD writes into chunks of this size",
            )
            p.add_argument(
                "--fifo-io", action="store_true",
                help="use the paper's FIFO dequeue instead of the "
                     "priority-aware I/O scheduler",
            )
            p.add_argument(
                "--io-backend", choices=IO_BACKENDS, default="thread",
                help="who settles finished requests: the lane worker "
                     "(thread) or a completion reaper (uring)",
            )
        if name == "tenants":
            p.add_argument(
                "--num-tenants", type=int, default=4,
                help="equal-weight tenants contending for the shared lane",
            )
            p.add_argument(
                "--tensors", type=int, default=24,
                help="store requests per tenant burst",
            )
            p.add_argument(
                "--tensor-kb", type=int, default=48,
                help="size of each store in KiB",
            )
        if name == "kv":
            p.add_argument(
                "--requests", type=int, default=32,
                help="requests in the synthetic multi-user trace",
            )
            p.add_argument(
                "--seed", type=int, default=1234,
                help="trace seed (same seed => identical p50/p99)",
            )
            p.add_argument(
                "--strategy", choices=("prefer-hbm", "split-token",
                                       "layer-importance", "lookahead"),
                default="lookahead",
                help="paging strategy for the paged run",
            )
            p.add_argument(
                "--hbm-kb", type=int, default=256,
                help="simulated HBM KV budget in KiB (both modes)",
            )
        if name in ("sched", "autotune"):
            p.add_argument(
                "--write-bw", type=float, default=None,
                help="SSD write bandwidth in B/s (default: one P5800X)",
            )
            p.add_argument(
                "--read-bw", type=float, default=None,
                help="SSD read bandwidth in B/s (default: one P5800X)",
            )
        if name == "faults":
            p.add_argument(
                "--functional", action="store_true",
                help="run the live chaos demo on the functional engine "
                     "(injected faults, bit-exact recovery) instead of the sim A/B",
            )
            p.add_argument(
                "--heal", action="store_true",
                help="run the self-healing demo: SSD die->heal with breaker "
                     "resurrection, and ENOSPC survival via store-root re-routing",
            )
            p.add_argument("--fault-rate", type=float, default=0.05,
                           help="expected fraction of transfers faulted per step")
            p.add_argument("--steps", type=int, default=8, help="steps to simulate")
            p.add_argument("--seed", type=int, default=0, help="fault-plan seed")
        if name == "autotune":
            p.add_argument(
                "--scenario", choices=("step", "ramp", "microbatch"), default="step",
                help="drift shape: step-function bandwidth drop, linear "
                     "ramp, or a mid-run micro-batch resize",
            )
            p.add_argument(
                "--factor", type=float, default=0.5,
                help="terminal write-bandwidth multiplier (default 0.5 = "
                     "the 2x drop)",
            )
            p.add_argument("--steps", type=int, default=16, help="steps to simulate")
            p.add_argument(
                "--drift-step", type=int, default=8,
                help="first step affected by the drift",
            )
    return parser


def main(argv: List[str] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in (None, "list"):
        print("available artifacts:")
        for name in COMMANDS:
            print(f"  {name}")
        return 0
    COMMANDS[args.command](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
