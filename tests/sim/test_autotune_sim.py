"""The static-vs-adaptive A/B under drift (the controller's acceptance
surface).

The headline assertion: under a 2x mid-run write-bandwidth drop on a
shared (fifo) SSD channel, the online adaptive controller's backward
stall is strictly below the static-budget run, lands within 15% of a
static run re-tuned offline for the degraded bandwidth, and the
installed budget converges within 5 steps of the drift event.  The
schedules themselves are pinned in ``test_scenarios.py``.
"""

import pytest

from repro.core.autotune import AutotuneController
from repro.core.policy import OffloadPolicy, PolicyConfig
from repro.models.config import ModelConfig
from repro.sim import Scenario, StepConditions, build_segments, one_shot_budget, simulate_run
from repro.train.parallel import ParallelismConfig

PAR = ParallelismConfig(tp=2)
WRITE = 6.1e9  # one P5800X: constrained enough that budget sizing matters
READ = 7.2e9
CFG = ModelConfig(arch="bert", hidden=12288, num_layers=3, seq_len=1024)


@pytest.fixture(scope="module")
def segments():
    return build_segments(CFG, 16, parallelism=PAR)


def _static_policy(budget):
    return OffloadPolicy(PolicyConfig(offload_budget_bytes=budget))


# ------------------------------------------------------------------- runner
def test_static_run_holds_budget_and_takes_no_decisions(segments):
    scen = Scenario.static(WRITE, READ, steps=3)
    run = simulate_run(segments, scen, policy=_static_policy(2 * 2**30))
    assert run.decisions == []
    assert run.budgets == [2 * 2**30] * 3
    assert len(run.results) == 3


# ------------------------------------------------------- the acceptance A/B
def test_step_drop_adaptive_beats_static_and_matches_offline_retune(segments):
    """2x write-bandwidth drop at step 8 of 16, shared fifo channel."""
    drift = 8
    steps = 16
    budget_full = one_shot_budget(segments, StepConditions(WRITE, READ))
    scen = Scenario.step_drop(
        WRITE, READ, steps=steps, drift_step=drift, write_factor=0.5
    )
    static = simulate_run(segments, scen, policy=_static_policy(budget_full))
    # The offline re-tune: the same one-shot sizing, run against the
    # degraded array — what an operator would install after the incident.
    degraded_budget = one_shot_budget(segments, StepConditions(0.5 * WRITE, READ))
    oracle = simulate_run(segments, scen, policy=_static_policy(degraded_budget))
    adaptive = simulate_run(
        segments,
        scen,
        policy=_static_policy(budget_full),
        controller=AutotuneController(),
    )

    # The drop really hurts the static run: every post-drift step stalls.
    assert static.stall_time_s(drift) > 5 * oracle.stall_time_s(drift) + 1.0
    # Acceptance 1: adaptive post-drift stall strictly below static.
    assert adaptive.stall_time_s(drift) < static.stall_time_s(drift)
    # Acceptance 2: once converged (>= drift+5), the adaptive run's stall
    # is within 15% of the offline re-tuned static run's.
    tail = drift + 5
    assert adaptive.stall_time_s(tail) <= oracle.stall_time_s(tail) * 1.15 + 1e-3
    # Acceptance 3: the installed budget converges within 5 steps of the
    # drift event — in force from step drift+5 on, it moves by at most
    # the controller's probe rate between steps.
    settled = [b for b in adaptive.budgets[tail:]]
    assert all(b is not None and b > 0 for b in settled)
    for a, b in zip(settled, settled[1:]):
        assert abs(b - a) / a <= 0.08, f"budget still moving after drift+5: {settled}"
    # And the converged budget is bandwidth-appropriate: well below the
    # full-bandwidth sizing, in the degraded sizing's neighbourhood.
    assert settled[-1] < 0.6 * budget_full
    assert settled[-1] <= degraded_budget * 1.15


def test_step_drop_adaptive_recovers_memory_savings(segments):
    """The controller must not buy stall-freedom by turning offload off:
    post-drift it still moves a sizeable fraction of what the offline
    re-tune moves."""
    drift, steps = 8, 16
    budget_full = one_shot_budget(segments, StepConditions(WRITE, READ))
    scen = Scenario.step_drop(
        WRITE, READ, steps=steps, drift_step=drift, write_factor=0.5
    )
    adaptive = simulate_run(
        segments,
        scen,
        policy=_static_policy(budget_full),
        controller=AutotuneController(),
    )
    post_drift = sum(r.offloaded_bytes for r in adaptive.results[drift:])
    assert post_drift > 0.25 * sum(r.offloaded_bytes for r in adaptive.results[:drift])


def test_adaptive_removes_contention_stall_even_without_drift(segments):
    """The one-shot budget assumes independent store/load pools; on the
    shared fifo channel it stalls every step.  The feedback loop's
    stall-aware trim finds the contention-aware budget online."""
    budget_full = one_shot_budget(segments, StepConditions(WRITE, READ))
    scen = Scenario.static(WRITE, READ, steps=8)
    static = simulate_run(segments, scen, policy=_static_policy(budget_full))
    adaptive = simulate_run(
        segments,
        scen,
        policy=_static_policy(budget_full),
        controller=AutotuneController(),
    )
    assert static.stall_time_s(4) > 0
    assert adaptive.stall_time_s(4) < 0.25 * static.stall_time_s(4)


def test_ramp_drift_adaptive_tracks_decline(segments):
    scen = Scenario.ramp(
        WRITE, READ, steps=16, drift_step=4, ramp_steps=6, write_factor=0.4
    )
    budget_full = one_shot_budget(segments, StepConditions(WRITE, READ))
    static = simulate_run(segments, scen, policy=_static_policy(budget_full))
    adaptive = simulate_run(
        segments,
        scen,
        policy=_static_policy(budget_full),
        controller=AutotuneController(),
    )
    assert adaptive.stall_time_s() < static.stall_time_s()
    # The budget followed the ramp downward.
    assert adaptive.budgets[-1] < 0.7 * adaptive.budgets[0]


def test_microbatch_resize_adaptive_rescales_budget(segments):
    """Mid-run micro-batch shrink (2 -> 1): the per-step activation
    volume and windows halve, so the stale budget — sized for the big
    step — suddenly covers *everything*, including tensors the policy
    should have kept, and the over-committed store backlog stalls
    backward.  The controller re-derives the budget from the observed
    workload and trims the stall away."""
    drift = 6
    scen = Scenario.microbatch_resize(
        WRITE, READ, steps=14, drift_step=drift, before=2, after=1
    )
    stale_budget = one_shot_budget(segments, scen.conditions[0])
    static = simulate_run(segments, scen, policy=_static_policy(stale_budget))
    adaptive = simulate_run(
        segments,
        scen,
        policy=_static_policy(stale_budget),
        controller=AutotuneController(),
    )
    # Post-resize the adaptive budget shrinks toward the smaller step...
    assert adaptive.budgets[-1] < 0.7 * stale_budget
    # ...and the stall the stale budget causes is trimmed away.
    tail = drift + 5
    assert static.stall_time_s(tail) > 0
    assert adaptive.stall_time_s(tail) < 0.25 * static.stall_time_s(tail)
