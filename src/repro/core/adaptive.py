"""Adaptive offload sizing (Fig. 3: "Set: offload size").

"SSDTrain retrieves the amount of computation and activation size of the
model from the model instance, GPU throughput, and SSD bandwidth.  Then,
SSDTrain sets the activation offload amount accordingly."

The budget logic: I/O fully overlaps with compute when the bytes written
per step fit inside the write-bandwidth x forward-window product (and the
reads fit in the backward window; writes are the binding constraint since
backward takes ~2x forward).  Any activation volume beyond that cap would
put I/O on the critical path, so the policy keeps the excess in GPU
memory instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.policy import PolicyConfig


@dataclass(frozen=True)
class WorkloadProfile:
    """What the adaptive sizing needs to know about one training step.

    Attributes:
        activation_bytes_per_step: total eligible activation bytes produced
            by one micro-batch's forward propagation.
        forward_time_s: forward propagation time for the micro-batch.
        backward_time_s: backward propagation time (~2x forward for
            transformers).
    """

    activation_bytes_per_step: int
    forward_time_s: float
    backward_time_s: float


def choose_offload_budget(
    profile: WorkloadProfile,
    write_bandwidth_bytes_per_s: float,
    read_bandwidth_bytes_per_s: Optional[float] = None,
    safety_factor: float = 1.0,
) -> int:
    """Per-step offload byte budget that keeps I/O off the critical path.

    Args:
        profile: workload timing/sizing (from the model instance or the
            first profiled step).
        write_bandwidth_bytes_per_s: dedicated SSD array write bandwidth.
        read_bandwidth_bytes_per_s: array read bandwidth; reads must fit in
            the backward window.  Defaults to the write bandwidth.
        safety_factor: <1 leaves headroom for jitter.

    Returns:
        The byte cap to install as ``PolicyConfig.offload_budget_bytes``
        (never more than the total eligible activations).
    """
    if write_bandwidth_bytes_per_s <= 0:
        raise ValueError("write bandwidth must be positive")
    if not 0 < safety_factor <= 1:
        raise ValueError(f"safety_factor must be in (0, 1]: {safety_factor}")
    read_bw = (
        read_bandwidth_bytes_per_s
        if read_bandwidth_bytes_per_s is not None
        else write_bandwidth_bytes_per_s
    )
    # Stores may continue into the early backward window (the paper models
    # required bandwidth as total activations / (step_time / 2)); loads
    # must land within backward.
    write_window = profile.forward_time_s + 0.5 * profile.backward_time_s
    write_cap = write_bandwidth_bytes_per_s * write_window * safety_factor
    read_cap = read_bw * profile.backward_time_s * safety_factor
    cap = int(min(write_cap, read_cap))
    return min(cap, profile.activation_bytes_per_step)


def configure_policy(
    profile: WorkloadProfile,
    write_bandwidth_bytes_per_s: float,
    base: Optional[PolicyConfig] = None,
    **kwargs,
) -> PolicyConfig:
    """Build a :class:`PolicyConfig` with the adaptive budget installed."""
    config = base if base is not None else PolicyConfig()
    budget = choose_offload_budget(profile, write_bandwidth_bytes_per_s, **kwargs)
    return PolicyConfig(
        min_offload_numel=config.min_offload_numel,
        offload_budget_bytes=budget,
        keep_last_module=config.keep_last_module,
    )
