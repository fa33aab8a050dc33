"""Simulated hardware substrate: GPUs, PCIe links, and NVMe SSDs.

The paper evaluates SSDTrain on A100 GPUs attached to Intel Optane P5800X
SSDs.  This package provides the stand-ins used by the reproduction:

- :class:`~repro.device.memory.MemoryLedger` — byte-accurate, tag-aware
  memory accounting (the "GPU memory" whose activation peak Fig. 6 reports).
- :class:`~repro.device.gpu.GPU` — a device with a memory ledger, a kernel
  timing model, and FLOP counters.
- :class:`~repro.device.pcie.PCIeLink` — bandwidth/latency model of the
  host<->device and device<->SSD interconnect.
- :class:`~repro.device.ssd.SSD` / :class:`~repro.device.ssd.RAID0Array` —
  NVMe SSD transfer-time model, beside the endurance projection of
  Sec. III-D (:class:`~repro.device.ssd.SSDEnduranceModel`).
"""

from repro.device.memory import MemoryLedger, MemoryTag, OutOfMemoryError
from repro.device.gpu import GPU, GPUSpec, KernelTimingModel
from repro.device.pcie import PCIeGeneration, PCIeLink
from repro.device.ssd import (
    RAID0Array,
    SSD,
    SSDEnduranceModel,
    SSDSpec,
)

__all__ = [
    "MemoryLedger",
    "MemoryTag",
    "OutOfMemoryError",
    "GPU",
    "GPUSpec",
    "KernelTimingModel",
    "PCIeGeneration",
    "PCIeLink",
    "SSD",
    "SSDSpec",
    "SSDEnduranceModel",
    "RAID0Array",
]
