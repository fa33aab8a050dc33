"""Pipeline-parallel training with per-stage activation offloading.

This simulates the setting Fig. 2 actually sketches: a 1F1B (or GPipe)
pipeline where every stage owns a dedicated SSD array and offloads each
micro-batch's activations between its forward and its backward.  The
schedule decides the offload pattern:

- a stage's warmup forwards pile up ``min(stages - s, microbatches)``
  micro-batches of activations (the 1F1B inventory) — these offload;
- when a backward directly follows the matching forward on the same stage
  (the steady-state tail, e.g. L3 of micro-batch 2 in Fig. 2), the
  activations are *kept* — exactly the paper's marker-4 rule, emerging
  from the schedule rather than from a heuristic;
- a store still in flight when the backward arrives is *forwarded*.

Outputs per stage: activation memory peak, offloaded bytes, stalls — so
the headline claims can be checked where they matter most, on the
activation-richest first stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.sim.timeline import Timeline
from repro.train.pipeline import ScheduleKind, stage_commands, walk_schedule


@dataclass(frozen=True)
class StageWorkload:
    """Per-stage per-micro-batch costs (identical stages assumed)."""

    forward_time_s: float
    backward_time_s: float
    activation_bytes: int

    def __post_init__(self) -> None:
        if self.forward_time_s <= 0 or self.backward_time_s <= 0:
            raise ValueError("stage times must be positive")
        if self.activation_bytes < 0:
            raise ValueError("activation bytes must be non-negative")


@dataclass
class StageResult:
    """Per-stage outcome of one pipeline step."""

    stage: int
    activation_peak_bytes: int
    offloaded_bytes: int
    forwarded_bytes: int
    kept_bytes: int
    io_stall_s: float


@dataclass
class PipelineOffloadResult:
    """Whole-pipeline outcome."""

    step_time_s: float
    baseline_step_time_s: float
    stages: List[StageResult]
    timeline: Timeline = field(repr=False, default_factory=Timeline)

    @property
    def overhead(self) -> float:
        return self.step_time_s / self.baseline_step_time_s - 1.0

    @property
    def total_io_stall_s(self) -> float:
        return sum(s.io_stall_s for s in self.stages)


def simulate_pipeline_offload(
    workload: StageWorkload,
    num_stages: int,
    num_microbatches: int,
    write_bandwidth: float,
    read_bandwidth: float,
    kind: ScheduleKind = ScheduleKind.ONE_F_ONE_B,
    offload: bool = True,
    io_latency_s: float = 20e-6,
) -> PipelineOffloadResult:
    """Simulate one pipeline step with per-stage offloading.

    Args:
        workload: uniform per-stage costs.
        num_stages / num_microbatches: pipeline shape.
        write_bandwidth / read_bandwidth: each stage's dedicated array.
        kind: 1F1B (default) or GPipe.
        offload: False gives the keep-everything baseline.
    """
    if num_stages < 1 or num_microbatches < 1:
        raise ValueError("stages and microbatches must be >= 1")
    if write_bandwidth <= 0 or read_bandwidth <= 0:
        raise ValueError("bandwidths must be positive")

    commands = [
        stage_commands(kind, num_stages, num_microbatches, s) for s in range(num_stages)
    ]
    # Keep rule: backward is this stage's very next command after the
    # matching forward (Fig. 2 marker 4).
    keep: Dict[Tuple[int, int], bool] = {}
    for s, cmds in enumerate(commands):
        for i, (op, m) in enumerate(cmds):
            if op == "F":
                keep[(s, m)] = i + 1 < len(cmds) and cmds[i + 1] == ("B", m)

    timeline = Timeline()
    stage_free = [0.0] * num_stages
    store_cursor = [0.0] * num_stages
    load_cursor = [0.0] * num_stages
    store_end: Dict[Tuple[int, int], Optional[float]] = {}
    per_stage_timeline = [Timeline() for _ in range(num_stages)]
    stats = [
        StageResult(stage=s, activation_peak_bytes=0, offloaded_bytes=0,
                    forwarded_bytes=0, kept_bytes=0, io_stall_s=0.0)
        for s in range(num_stages)
    ]

    def forward(s: int, m: int, ready: float) -> float:
        start = max(ready, stage_free[s])
        end = stage_free[s] = start + workload.forward_time_s
        timeline.record("gpu", f"F{m}s{s}", start, end)
        per_stage_timeline[s].alloc(start, workload.activation_bytes)
        if offload and not keep[(s, m)] and workload.activation_bytes:
            w_start = max(store_cursor[s], end)
            w_end = w_start + io_latency_s + workload.activation_bytes / write_bandwidth
            store_cursor[s] = w_end
            store_end[(s, m)] = w_end
            stats[s].offloaded_bytes += workload.activation_bytes
            timeline.record("store", f"s{m}s{s}", w_start, w_end)
            per_stage_timeline[s].free(w_end, workload.activation_bytes)
        else:
            store_end[(s, m)] = None
            stats[s].kept_bytes += workload.activation_bytes
        return end

    def backward(s: int, m: int, ready: float) -> float:
        earliest = max(ready, stage_free[s])
        w_end = store_end[(s, m)]
        if w_end is None:
            data_ready = earliest  # kept resident
        elif w_end > earliest:
            # Store in flight: data forwarding, memory stays.
            stats[s].forwarded_bytes += workload.activation_bytes
            data_ready = earliest
        else:
            # Reload from the stage's array; prefetch was issued one
            # command slot earlier.
            l_start = max(load_cursor[s], w_end, stage_free[s] - workload.backward_time_s)
            l_end = l_start + io_latency_s + workload.activation_bytes / read_bandwidth
            load_cursor[s] = l_end
            timeline.record("load", f"l{m}s{s}", l_start, l_end)
            per_stage_timeline[s].alloc(l_start, workload.activation_bytes)
            data_ready = l_end
        start = max(earliest, data_ready)
        stats[s].io_stall_s += start - earliest
        end = stage_free[s] = start + workload.backward_time_s
        timeline.record("gpu", f"B{m}s{s}", start, end)
        per_stage_timeline[s].free(end, workload.activation_bytes)
        return end

    walk_schedule(commands, forward, backward)

    for s in range(num_stages):
        stats[s].activation_peak_bytes = per_stage_timeline[s].memory_peak()

    step_time = max(stage_free)
    # Ideal (stall-free) pipeline step for the same shape:
    ideal = (num_microbatches + num_stages - 1) * (
        workload.forward_time_s + workload.backward_time_s
    )
    return PipelineOffloadResult(
        step_time_s=step_time,
        baseline_step_time_s=ideal,
        stages=stats,
        timeline=timeline,
    )
