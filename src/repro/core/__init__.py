"""SSDTrain core: the adaptive activation offloading framework.

Public surface:

- :class:`~repro.core.tensor_cache.TensorCache` — the tensor cache that
  offloads activations during forward and prefetches them during backward.
- :class:`~repro.core.offloader.SSDOffloader` /
  :class:`~repro.core.offloader.CPUOffloader` /
  :class:`~repro.core.tiered.TieredOffloader` — transfer backends
  (:func:`~repro.core.engine.build_engine` builds one from an
  :class:`~repro.core.engine.EngineConfig`).
- :class:`~repro.core.policy.OffloadPolicy` / ``PolicyConfig`` — Alg. 1
  decisions, knobs, and the :class:`~repro.core.policy.Tier` placement.
- :class:`~repro.core.ids.TensorIDRegistry` — ``get_id()`` deduplication
  and weight exclusion.
- :mod:`~repro.core.adaptive` — offload budget sizing from model/hardware.
- :class:`~repro.core.hints.SchedulerHints` — Megatron/DeepSpeed-style
  scheduler notifications.
"""

from repro.core.ids import TensorID, TensorIDRegistry
from repro.core.engine import (
    Engine,
    EngineConfig,
    EngineConfigError,
    EngineStats,
    PoolBooks,
    build_engine,
)
from repro.core.policy import (
    Decision,
    KeepReason,
    OffloadPolicy,
    PolicyConfig,
    StepAccounting,
    Tier,
)
from repro.core.offloader import (
    CPUOffloader,
    OFFLOAD_TARGETS,
    Offloader,
    PinnedMemoryPool,
    SSDOffloader,
)
from repro.core.tiered import TieredOffloader, TierStats
from repro.core.tensor_cache import ActivationRecord, CacheStats, RecordState, TensorCache
from repro.core.adaptive import WorkloadProfile, choose_offload_budget
from repro.core.autotune import (
    AutotuneController,
    ControllerConfig,
    ControllerDecision,
    StepObservation,
)
from repro.core.hints import SchedulerHints, Stage, patch_schedule

__all__ = [
    "TensorID",
    "TensorIDRegistry",
    "Engine",
    "EngineConfig",
    "EngineConfigError",
    "EngineStats",
    "PoolBooks",
    "build_engine",
    "Decision",
    "KeepReason",
    "OffloadPolicy",
    "PolicyConfig",
    "StepAccounting",
    "Offloader",
    "SSDOffloader",
    "CPUOffloader",
    "TieredOffloader",
    "TierStats",
    "Tier",
    "PinnedMemoryPool",
    "OFFLOAD_TARGETS",
    "TensorCache",
    "ActivationRecord",
    "CacheStats",
    "RecordState",
    "WorkloadProfile",
    "choose_offload_budget",
    "AutotuneController",
    "ControllerConfig",
    "ControllerDecision",
    "StepObservation",
    "SchedulerHints",
    "Stage",
    "patch_schedule",
]
