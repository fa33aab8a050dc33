"""Pipeline-parallel schedules: 1F1B and GPipe.

Provides an event-level simulation of the pipeline timeline (which also
renders the Fig. 2-style stage/time diagram) plus the closed-form bubble
model used in the Sec. IV-D discussion: "When the micro-batch size is no
less than 4, the ideal PP bubble time percentage is no less than 11.5%"
for the BLOOM setup (PP bubbles shrink as the micro-batch *count* rises,
but weight-update cost grows as the micro-batch *size* shrinks — the
trade-off SSDTrain relaxes).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple


class ScheduleKind(enum.Enum):
    GPIPE = "gpipe"
    ONE_F_ONE_B = "1f1b"


@dataclass(frozen=True)
class PipelineTask:
    """One cell of the pipeline timeline (a coloured box in Fig. 2)."""

    stage: int
    microbatch: int
    kind: str        # "F" or "B"
    start: float
    end: float


@dataclass
class PipelineSchedule:
    """Result of simulating one pipeline step."""

    kind: ScheduleKind
    num_stages: int
    num_microbatches: int
    step_time: float
    bubble_time: float
    tasks: List[PipelineTask] = field(default_factory=list)

    @property
    def bubble_fraction(self) -> float:
        if self.step_time == 0:
            return 0.0
        return self.bubble_time / self.step_time


def ideal_bubble_fraction(num_stages: int, num_microbatches: int) -> float:
    """Closed-form bubble fraction, identical for GPipe and 1F1B:
    ``(p - 1) / (m + p - 1)``."""
    if num_stages < 1 or num_microbatches < 1:
        raise ValueError("stages and microbatches must be >= 1")
    return (num_stages - 1) / (num_microbatches + num_stages - 1)


#: ``task(stage, microbatch, ready) -> end``: schedule one forward or
#: backward whose cross-stage dependencies are met at ``ready``.
TaskFn = Callable[[int, int, float], float]


def stage_commands(
    kind: ScheduleKind, num_stages: int, num_microbatches: int, stage: int
) -> List[Tuple[str, int]]:
    """The ``("F" | "B", microbatch)`` list one stage executes, in order:
    warmup forwards, then one backward per micro-batch, each preceded by
    the next forward while any are left.  1F1B (Megatron's schedule, the
    one sketched in the paper's Fig. 2) warms up just enough to keep the
    later stages busy, which bounds the activation inventory; GPipe is
    the same list with every forward in the warmup.
    """
    warmup = num_microbatches
    if kind is ScheduleKind.ONE_F_ONE_B:
        warmup = min(num_stages - stage - 1, num_microbatches)
    commands = [("F", m) for m in range(warmup)]
    for b in range(num_microbatches):
        if warmup + b < num_microbatches:
            commands.append(("F", warmup + b))
        commands.append(("B", b))
    return commands


def walk_schedule(
    commands: List[List[Tuple[str, int]]], forward: TaskFn, backward: TaskFn
) -> None:
    """Run every stage's command list (index = stage) in dependency
    order: F(s, m) needs F(s-1, m) done, B(s, m) needs B(s+1, m) and
    F(s, m) done, and ``ready`` is when that was.  What a task costs,
    and what else it waits for (the stage being free, I/O lanes), is the
    callback's business.
    """
    num_stages = len(commands)
    f_done: Dict[Tuple[int, int], float] = {}
    b_done: Dict[Tuple[int, int], float] = {}
    cursors = [0] * num_stages
    progressed = True
    while progressed:
        progressed = False
        for s in range(num_stages):
            while cursors[s] < len(commands[s]):
                op, m = commands[s][cursors[s]]
                if op == "F":
                    if s > 0 and (s - 1, m) not in f_done:
                        break
                    f_done[(s, m)] = forward(s, m, f_done.get((s - 1, m), 0.0))
                else:
                    if (s < num_stages - 1 and (s + 1, m) not in b_done) or (s, m) not in f_done:
                        break
                    ready = max(b_done.get((s + 1, m), 0.0), f_done[(s, m)])
                    b_done[(s, m)] = backward(s, m, ready)
                cursors[s] += 1
                progressed = True
    if any(cursors[s] != len(commands[s]) for s in range(num_stages)):
        raise RuntimeError("pipeline schedule deadlocked (dependency bug)")


def simulate_pipeline(
    num_stages: int,
    num_microbatches: int,
    forward_time: float,
    backward_time: float,
    kind: ScheduleKind = ScheduleKind.ONE_F_ONE_B,
) -> PipelineSchedule:
    """Simulate one pipeline step and return the timeline: every task
    starts as soon as its dependencies (:func:`walk_schedule`) are met
    and its stage is free."""
    if num_stages < 1 or num_microbatches < 1:
        raise ValueError("stages and microbatches must be >= 1")
    if forward_time <= 0 or backward_time <= 0:
        raise ValueError("task times must be positive")
    commands = [stage_commands(kind, num_stages, num_microbatches, s) for s in range(num_stages)]
    stage_free = [0.0] * num_stages
    tasks: List[PipelineTask] = []

    def run(kind_str: str, duration: float) -> TaskFn:
        def task(stage: int, microbatch: int, ready: float) -> float:
            start = max(ready, stage_free[stage])
            end = stage_free[stage] = start + duration
            tasks.append(PipelineTask(stage, microbatch, kind_str, start, end))
            return end

        return task

    walk_schedule(commands, run("F", forward_time), run("B", backward_time))
    step_time = max(task.end for task in tasks)
    busy = num_microbatches * (forward_time + backward_time)
    return PipelineSchedule(
        kind=kind,
        num_stages=num_stages,
        num_microbatches=num_microbatches,
        step_time=step_time,
        bubble_time=step_time - busy,
        tasks=tasks,
    )


def max_resident_microbatches(kind: ScheduleKind, num_stages: int, num_microbatches: int, stage: int = 0) -> int:
    """How many micro-batches' activations a stage holds at once.

    GPipe holds all of them; 1F1B bounds the inventory at
    ``min(stages - stage, microbatches)`` — why 1F1B is the default for
    activation-heavy LLM training.
    """
    if kind is ScheduleKind.GPIPE:
        return num_microbatches
    return min(num_stages - stage, num_microbatches)
