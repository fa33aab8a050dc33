"""The offload decision policy (Alg. 1), shared by the functional tensor
cache and the discrete-event simulator.

Decision order for a tensor hitting the pack hook:

1. weights, CPU-resident tensors, and tensors smaller than the size
   threshold are returned *as-is* (no record at all);
2. if the per-step offload budget has been reached, or we are inside
   backward propagation (checkpoint recomputation), the tensor is *kept* in
   GPU memory but recorded;
3. if the module is marked keep-in-memory (e.g. the last module, whose
   backward follows immediately — Fig. 2 step 4), the tensor is kept;
4. otherwise the tensor is *offloaded*.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class Decision(enum.Enum):
    """Outcome of the pack-hook policy for one tensor."""

    PASS_THROUGH = "pass_through"  # weights / cpu / tiny: not managed
    KEEP = "keep"                  # managed, held in GPU memory
    OFFLOAD = "offload"            # managed, stored to the offload target


class Tier(enum.Enum):
    """Placement tiers of the offload hierarchy (hot -> cold)."""

    GPU = "gpu"    # resident (KEEP decisions / not yet stored)
    CPU = "cpu"    # bounded pinned host pool
    SSD = "ssd"    # NVMe file / chunk store


class KeepReason(enum.Enum):
    BUDGET_REACHED = "budget_reached"
    IN_BACKWARD = "in_backward"
    LAST_MODULE = "last_module"
    HINTED = "hinted"


@dataclass
class PolicyConfig:
    """Tunable knobs of the offload policy.

    Attributes:
        min_offload_numel: tensors with fewer elements are passed through
            (Alg. 1 uses ``math.prod(t.size()) < 2**20``).
        offload_budget_bytes: per-step cap on offloaded bytes; ``None``
            offloads everything eligible.  Set by the adaptive sizing
            (Fig. 3 "Set: offload size").
        keep_last_module: keep activations packed inside the final
            top-level module, whose backward begins immediately.
        cpu_tier_max_tensor_bytes: tiered runs only — tensors larger than
            this bypass the pinned-CPU pool and go straight to SSD (large
            sequential writes are exactly what the SSD is good at, while
            the scarce pinned pool is reserved for the small/warm
            tensors).  ``None`` lets any tensor that fits use the pool.
    """

    min_offload_numel: int = 2**20
    offload_budget_bytes: Optional[int] = None
    keep_last_module: bool = True
    cpu_tier_max_tensor_bytes: Optional[int] = None


@dataclass
class StepAccounting:
    """Per-step mutable counters consulted/updated by the policy."""

    offloaded_bytes: int = 0
    kept_bytes: int = 0
    passed_bytes: int = 0
    pack_calls: int = 0
    dedup_hits: int = 0
    forwarding_hits: int = 0

    def reset(self) -> None:
        self.offloaded_bytes = 0
        self.kept_bytes = 0
        self.passed_bytes = 0
        self.pack_calls = 0
        self.dedup_hits = 0
        self.forwarding_hits = 0


class OffloadPolicy:
    """Stateless-per-tensor decision function over mutable step accounting."""

    def __init__(self, config: Optional[PolicyConfig] = None) -> None:
        self.config = config if config is not None else PolicyConfig()

    def budget_reached(self, accounting: StepAccounting) -> bool:
        budget = self.config.offload_budget_bytes
        return budget is not None and accounting.offloaded_bytes >= budget

    def install_budget(self, budget_bytes: Optional[int]) -> Optional[int]:
        """Mutate the per-step offload budget in place; returns the old one.

        The paper sets the budget once from a first profiled step; the
        simulator's adaptive controller (:mod:`repro.core.autotune`,
        driven by ``simulate_run``) re-runs the same formula with
        *observed* bandwidth and installs the result here between steps.
        ``None`` removes the cap (offload everything eligible).
        Takes effect at the next ``decide()`` call — i.e. the next
        forward pass — since the budget is only consulted against the
        per-step accounting.
        """
        if budget_bytes is not None:
            budget_bytes = int(budget_bytes)
            if budget_bytes < 0:
                raise ValueError(f"offload budget must be >= 0: {budget_bytes}")
        previous = self.config.offload_budget_bytes
        self.config.offload_budget_bytes = budget_bytes
        return previous

    def decide(
        self,
        *,
        is_weight: bool,
        is_cpu: bool,
        numel: int,
        nbytes: int,
        in_backward: bool,
        in_keep_scope: bool,
        accounting: StepAccounting,
    ) -> Decision:
        """Alg. 1 lines 2-8 for one tensor.

        ``in_keep_scope`` is True when the current module is marked
        keep-in-memory (last module, or scheduler hint).
        """
        if is_weight or is_cpu or numel < self.config.min_offload_numel:
            return Decision.PASS_THROUGH
        if self.budget_reached(accounting) or in_backward or in_keep_scope:
            return Decision.KEEP
        return Decision.OFFLOAD

    def place(self, *, nbytes: int, cpu_free_bytes: Optional[int]) -> Tier:
        """Tier placement for one OFFLOAD-decided tensor.

        Args:
            nbytes: tensor size.
            cpu_free_bytes: free capacity of the pinned pool right now;
                ``None`` means no CPU tier is configured.

        The warm pinned pool takes any tensor that fits (unless it exceeds
        ``cpu_tier_max_tensor_bytes``); everything else spills to SSD.
        Demotion of colder pool residents to make room is the tiered
        offloader's job — the policy only answers "where does this tensor
        go *now*".
        """
        if cpu_free_bytes is None:
            return Tier.SSD
        limit = self.config.cpu_tier_max_tensor_bytes
        if limit is not None and nbytes > limit:
            return Tier.SSD
        if nbytes <= cpu_free_bytes:
            return Tier.CPU
        return Tier.SSD

    def keep_reason(
        self,
        *,
        in_backward: bool,
        in_keep_scope: bool,
        accounting: StepAccounting,
    ) -> KeepReason:
        if self.budget_reached(accounting):
            return KeepReason.BUDGET_REACHED
        if in_backward:
            return KeepReason.IN_BACKWARD
        if in_keep_scope:
            return KeepReason.LAST_MODULE
        return KeepReason.HINTED
