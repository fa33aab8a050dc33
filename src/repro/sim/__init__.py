"""Discrete-event simulation of training steps at paper scale.

The functional engine validates SSDTrain's *mechanism* on small models with
real numpy math and real file I/O; this package replays the same offload
*policy* over the analytic per-layer model at the paper's hidden sizes
(8192-16384), producing step time, activation memory peak, offloaded bytes
and I/O stall time for the Fig. 6 / Fig. 7 / Fig. 8 / Table III benches.
"""

from repro.sim.step_sim import (
    IO_MODES,
    MultiTenantHarness,
    MultiTenantRunResult,
    RunResult,
    Scenario,
    SegmentSpec,
    SimResult,
    StepConditions,
    StepSimulator,
    TenantJobSpec,
    TenantRunMetrics,
    build_segments,
    one_shot_budget,
    simulate_run,
    simulate_strategy,
)
from repro.sim.pipeline_offload import (
    PipelineOffloadResult,
    StageWorkload,
    simulate_pipeline_offload,
)
from repro.sim.timeline import Timeline, TimelineEvent

__all__ = [
    "IO_MODES",
    "RunResult",
    "Scenario",
    "StepConditions",
    "one_shot_budget",
    "simulate_run",
    "MultiTenantHarness",
    "MultiTenantRunResult",
    "TenantJobSpec",
    "TenantRunMetrics",
    "SegmentSpec",
    "SimResult",
    "StepSimulator",
    "build_segments",
    "simulate_strategy",
    "PipelineOffloadResult",
    "StageWorkload",
    "simulate_pipeline_offload",
    "Timeline",
    "TimelineEvent",
]
