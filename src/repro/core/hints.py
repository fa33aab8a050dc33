"""Scheduler hints (Sec. III-A).

"Hints are added to Megatron's and DeepSpeed's schedulers ... before and
after the execution of each command, e.g., computing the micro-batch i,
communication, so that the tensor cache gets notified about the upcoming
stage and the completion of an action."

:class:`SchedulerHints` is the notification surface; :func:`patch_schedule`
monkey-patches a schedule object's command methods the way SSDTrain's
integration script patches Megatron/DeepSpeed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, List, Optional

from repro.core.tensor_cache import TensorCache


class Stage(enum.Enum):
    """Scheduler commands the cache is notified about."""

    FORWARD_MICROBATCH = "forward_microbatch"
    BACKWARD_MICROBATCH = "backward_microbatch"
    COMMUNICATE = "communicate"
    OPTIMIZER_STEP = "optimizer_step"


@dataclass
class HintEvent:
    stage: Stage
    microbatch: Optional[int]
    phase: str  # "before" | "after"


class SchedulerHints:
    """Routes scheduler command notifications into a tensor cache.

    Also keeps the current step's event log so tests/benchmarks can
    assert the exact notification sequence (the Fig. 2 markers); it is
    cleared when the next step's first command arrives, so it does not
    grow with uptime.
    """

    def __init__(self, cache: TensorCache) -> None:
        self.cache = cache
        self.events: List[HintEvent] = []

    # ------------------------------------------------------------- commands
    def before(self, stage: Stage, microbatch: Optional[int] = None, *, backward_follows: bool = False) -> None:
        """Notify the cache that ``stage`` is about to run.

        Args:
            backward_follows: True when this forward's backward begins
                immediately after (the Fig. 2 marker-4 keep case).
        """
        last = self.events[-1] if self.events else None
        if last is not None and last.stage is Stage.OPTIMIZER_STEP and last.phase == "after":
            self.events.clear()  # the previous step ended; a new one begins
        self.events.append(HintEvent(stage, microbatch, "before"))
        if stage is Stage.FORWARD_MICROBATCH:
            if microbatch is not None:
                self.cache.set_microbatch(microbatch)
            if backward_follows:
                self.cache.hint_keep_remaining(True)
        elif stage is Stage.BACKWARD_MICROBATCH:
            if microbatch is not None:
                self.cache.set_microbatch(microbatch)
            self.cache.on_backward_begin()

    def after(self, stage: Stage, microbatch: Optional[int] = None) -> None:
        """Notify the cache that ``stage`` completed."""
        self.events.append(HintEvent(stage, microbatch, "after"))
        if stage is Stage.FORWARD_MICROBATCH:
            self.cache.hint_keep_remaining(False)
        elif stage is Stage.BACKWARD_MICROBATCH:
            self.cache.on_backward_end()
        elif stage is Stage.OPTIMIZER_STEP:
            self.cache.on_step_end()


def patch_schedule(schedule: Any, hints: SchedulerHints) -> Any:
    """Monkey-patch a schedule object so its command methods emit hints.

    The schedule must expose ``forward_microbatch(i)``,
    ``backward_microbatch(i)`` and ``optimizer_step()`` methods (as
    :class:`repro.train.schedule.MicrobatchSchedule` does).  Returns the
    patched object.
    """
    for method_name, stage in (
        ("forward_microbatch", Stage.FORWARD_MICROBATCH),
        ("backward_microbatch", Stage.BACKWARD_MICROBATCH),
        ("optimizer_step", Stage.OPTIMIZER_STEP),
    ):
        original = getattr(schedule, method_name, None)
        if original is None:
            raise AttributeError(f"schedule lacks {method_name}()")

        def wrapped(*args, _orig=original, _stage=stage, **kwargs):
            microbatch = args[0] if args and isinstance(args[0], int) else None
            hints.before(_stage, microbatch, backward_follows=kwargs.pop("backward_follows", False))
            result = _orig(*args, **kwargs)
            hints.after(_stage, microbatch)
            return result

        setattr(schedule, method_name, wrapped)
    return schedule
