"""Benchmarks for the online adaptive offload controller (extension).

Two surfaces:

- the **controller hot path** — ``AutotuneController.observe`` runs once
  per training step inside the training loop, so its cost must stay in
  the microseconds;
- the **drift A/B** — the end-to-end value claim: under a 2x mid-run
  write-bandwidth drop the adaptive run's backward stall collapses
  versus the static one-shot budget, asserted here so the benchmark
  cannot silently stop demonstrating the mechanism.
"""

from repro.core.adaptive import WorkloadProfile, choose_offload_budget
from repro.core.autotune import AutotuneController, StepObservation
from repro.core.policy import OffloadPolicy, PolicyConfig
from repro.device.ssd import INTEL_OPTANE_P5800X_1600GB
from repro.models.config import ModelConfig
from repro.sim import Scenario, StepConditions, build_segments, one_shot_budget, simulate_run

from benchmarks.conftest import EVAL_PARALLELISM, emit

CONFIG = ModelConfig(arch="bert", hidden=12288, num_layers=3, seq_len=1024)
WRITE = INTEL_OPTANE_P5800X_1600GB.write_bw
READ = INTEL_OPTANE_P5800X_1600GB.read_bw
GB = 1024**3


def test_autotune_controller_hot_path():
    """Per-step cost of the feedback loop: fold an observation into the
    EWMA bank, re-run the budget formula, size window + watermark."""

    def run():
        controller = AutotuneController()
        for step in range(512):
            bw = WRITE if step < 256 else 0.5 * WRITE
            controller.observe(
                StepObservation(
                    forward_time_s=0.6,
                    backward_time_s=1.2,
                    activation_bytes=8 * GB,
                    write_bytes=int(bw * 0.5),
                    write_busy_s=0.5,
                    read_bytes=int(READ * 0.5),
                    read_busy_s=0.5,
                    read_count=64,
                    stored_tensors=64,
                    stored_bytes=int(bw * 0.5),
                    cpu_stored_bytes=GB,
                    cpu_pool_capacity_bytes=4 * GB,
                )
            )
        return controller

    controller = run()
    emit(
        "Autotune — controller hot path (512 observe/retune cycles)",
        [
            f"decisions: {len(controller.history)}",
            f"final budget: {controller.installed_budget_bytes / GB:.2f} GiB",
            f"retunes: {sum(1 for d in controller.history if d.retuned)}",
        ],
    )
    assert len(controller.history) == 512
    # The halved bandwidth was tracked into the installed budget.
    oracle = choose_offload_budget(
        WorkloadProfile(8 * GB, 0.6, 1.2), 0.5 * WRITE, READ,
        safety_factor=controller.config.safety_factor,
    )
    assert controller.installed_budget_bytes <= 1.15 * oracle


def test_autotune_step_drop_ab():
    """Static one-shot budget vs the online controller across a 2x
    mid-run write-bandwidth drop (16 simulated steps, shared channel)."""
    segments = build_segments(CONFIG, 16, parallelism=EVAL_PARALLELISM)
    budget = one_shot_budget(segments, StepConditions(WRITE, READ))
    scenario = Scenario.step_drop(WRITE, READ, steps=16, drift_step=8, write_factor=0.5)

    def run():
        static = simulate_run(
            segments, scenario,
            policy=OffloadPolicy(PolicyConfig(offload_budget_bytes=budget)),
        )
        adaptive = simulate_run(
            segments, scenario,
            policy=OffloadPolicy(PolicyConfig(offload_budget_bytes=budget)),
            controller=AutotuneController(),
        )
        return static, adaptive

    static, adaptive = run()
    emit(
        "Autotune — static vs adaptive under a 2x write-bandwidth drop",
        [
            f"one-shot budget: {budget / GB:.2f} GiB",
            f"post-drift stall: static {static.stall_time_s(8) * 1e3:7.0f} ms",
            f"post-drift stall: adaptive {adaptive.stall_time_s(8) * 1e3:6.0f} ms",
            f"adaptive budget settles at {adaptive.budgets[-1] / GB:.2f} GiB",
        ],
    )
    assert adaptive.stall_time_s(8) < 0.25 * static.stall_time_s(8)
    assert adaptive.budgets[-1] < adaptive.budgets[0]
