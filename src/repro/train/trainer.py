"""The training driver: strategies, micro-batching, hints, measurement.

The trainer reproduces the measurement loop of Sec. IV: it runs training
steps under one of the three activation placement strategies of Fig. 7 —

- ``KEEP``      — activations stay in GPU memory (the "No offloading" bars);
- ``OFFLOAD``   — SSDTrain's tensor cache manages them;
- ``RECOMPUTE`` — layerwise full recomputation (build the model with
  ``config.recompute=True``);

and reports per-step wall time, the activation memory peak during
forward+backward, and the model throughput (algorithmic FLOPs / time).
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, replace
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.autotune import AutotuneController, ControllerDecision
from repro.core.hints import SchedulerHints, patch_schedule
from repro.core.tensor_cache import CacheStats, TensorCache
from repro.device.gpu import GPU
from repro.device.memory import MemoryTag
from repro.nn.dropout import Dropout
from repro.tensor.module import Module
from repro.tensor.tensor import Tensor
from repro.train.schedule import MicrobatchSchedule


class PlacementStrategy(enum.Enum):
    """Activation placement strategies compared on the ROK curve (Fig. 7)."""

    KEEP = "keep"
    OFFLOAD = "offload"
    RECOMPUTE = "recompute"


@dataclass
class StepResult:
    """Measurements from one training step."""

    loss: float
    step_time_s: float
    activation_peak_bytes: int
    total_peak_bytes: int
    algorithmic_flops: float
    executed_flops: float
    offloaded_bytes: int = 0
    loaded_bytes: int = 0
    forwarded_tensors: int = 0
    #: The offload budget in force after this step (None = uncapped /
    #: no cache); moves between steps when an autotune controller is
    #: attached.
    offload_budget_bytes: Optional[int] = None
    #: The controller's decision for this step (None without a controller).
    autotune_decision: Optional[ControllerDecision] = None

    def model_throughput_tflops(self) -> float:
        """Fig. 7 y-axis: algorithmic FLOPs / step time, in TFLOP/s."""
        if self.step_time_s <= 0:
            return 0.0
        return self.algorithmic_flops / self.step_time_s / 1e12


class Trainer:
    """Runs training steps for one model under a placement strategy.

    Args:
        model: the model (built with ``recompute=True`` for the RECOMPUTE
            strategy).
        optimizer: optimizer with ``step()``/``zero_grad()``.
        gpu: the simulated device whose ledger/counters are measured.
        strategy: activation placement strategy.
        cache: required for ``OFFLOAD``; the trainer wires hints around the
            schedule and manages the cache lifecycle per step.
        num_microbatches: gradient-accumulation factor; the loss of each
            micro-batch is scaled by ``1/num_microbatches``.
        controller: optional online adaptive controller
            (:class:`~repro.core.autotune.AutotuneController`); hooked at
            the end of every step, it re-runs the offload budget formula
            with the observed forward/backward windows and the
            scheduler's observed per-lane bandwidth, and installs the
            result (budget, prefetch window, tiered watermark) for the
            next step.  Requires a cache.
    """

    def __init__(
        self,
        model: Module,
        optimizer: Any,
        gpu: GPU,
        strategy: PlacementStrategy = PlacementStrategy.KEEP,
        cache: Optional[TensorCache] = None,
        num_microbatches: int = 1,
        controller: Optional[AutotuneController] = None,
    ) -> None:
        if strategy is PlacementStrategy.OFFLOAD and cache is None:
            raise ValueError("OFFLOAD strategy requires a TensorCache")
        if strategy is not PlacementStrategy.OFFLOAD and cache is not None:
            raise ValueError(f"cache given but strategy is {strategy.value}")
        if controller is not None and cache is None:
            raise ValueError("an autotune controller requires a TensorCache")
        self.model = model
        self.optimizer = optimizer
        self.gpu = gpu
        self.strategy = strategy
        self.cache = cache
        self.num_microbatches = num_microbatches
        self.controller = controller
        if controller is not None:
            controller.attach(cache)  # before step 0, so it is observed
        self.hints = SchedulerHints(cache) if cache is not None else None
        self._cache_attached = False
        self.step_count = 0

    # ------------------------------------------------------------- lifecycle
    def _ensure_cache_setup(self) -> None:
        if self.cache is None or self._cache_attached:
            return
        self.cache.register_weights(self.model)
        self.cache.attach(self.model)
        self._cache_attached = True

    def close(self) -> None:
        if self.cache is not None:
            self.cache.shutdown()

    def _reset_dropout_history(self) -> None:
        for module in self.model.modules():
            if isinstance(module, Dropout):
                module._seed_history.clear()

    # ------------------------------------------------------------------ step
    def train_step(self, microbatch_data: Sequence[Tuple[Tensor, ...]]) -> StepResult:
        """Run one step over ``microbatch_data`` (one tuple per micro-batch).

        Each tuple is passed to ``model(*tuple)`` and must yield a scalar
        loss tensor.
        """
        if len(microbatch_data) != self.num_microbatches:
            raise ValueError(
                f"expected {self.num_microbatches} micro-batches, "
                f"got {len(microbatch_data)}"
            )
        self._ensure_cache_setup()
        self._reset_dropout_history()
        self.gpu.ledger.reset_peak()
        self.gpu.reset_counters()

        losses: List[float] = []
        scale = 1.0 / self.num_microbatches
        # Observed forward/backward windows — the controller re-runs the
        # budget formula with these instead of the profiled assumptions.
        phase_times = {"forward": 0.0, "backward": 0.0}

        def forward_fn(index: int) -> Tensor:
            begin = time.perf_counter()
            loss = self.model(*microbatch_data[index])
            if self.num_microbatches > 1:
                loss = loss * scale
            phase_times["forward"] += time.perf_counter() - begin
            return loss

        def backward_fn(index: int, loss: Tensor) -> None:
            begin = time.perf_counter()
            loss.backward()
            phase_times["backward"] += time.perf_counter() - begin
            losses.append(loss.item())

        def optimizer_fn() -> None:
            self.optimizer.step()
            self.optimizer.zero_grad()

        schedule = MicrobatchSchedule(
            forward_fn, backward_fn, optimizer_fn, self.num_microbatches
        )
        if self.hints is not None:
            patch_schedule(schedule, self.hints)

        # Cache stats are cumulative; snapshot to report per-step deltas.
        stats_before = replace(self.cache.stats) if self.cache else CacheStats()

        start = time.perf_counter()
        if self.cache is not None:
            with self.cache:
                schedule.run_step()
        else:
            schedule.run_step()
        elapsed = time.perf_counter() - start

        decision = None
        if self.controller is not None:
            decision = self.controller.on_step_end(
                forward_time_s=phase_times["forward"],
                backward_time_s=phase_times["backward"],
            )

        self.step_count += 1
        stats = self.cache.stats.since(stats_before) if self.cache else stats_before
        budget = (
            self.cache.policy.config.offload_budget_bytes if self.cache else None
        )
        return StepResult(
            loss=float(np.sum(losses)),
            step_time_s=elapsed,
            activation_peak_bytes=self.gpu.ledger.peak(MemoryTag.ACTIVATIONS),
            total_peak_bytes=self.gpu.ledger.peak(),
            algorithmic_flops=self.gpu.algorithmic_flops,
            executed_flops=self.gpu.flops_executed,
            offloaded_bytes=stats.stored_bytes,
            loaded_bytes=stats.loaded_bytes,
            forwarded_tensors=stats.forwarded_tensors,
            offload_budget_bytes=budget,
            autotune_decision=decision,
        )
