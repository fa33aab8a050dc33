"""GPUDirect Storage (GDS) path model.

GDS "enables a direct data path between GPU and NVMe SSDs, removing the
need for a CPU bounce buffer" (Sec. II-D).  The paper uses the kvikio
binding plus an ``LD_PRELOAD`` CUDA-malloc hook library so GPU buffers are
registered with GDS at allocation time (Sec. III-A).

This module models both paths analytically; ``bench_ablations.py``
quantifies the paper's GDS claim with them:

- :class:`DirectGDSPath` — GPU -> SSD limited by min(GPU PCIe link, SSD
  array bandwidth).
- :class:`BounceBufferPath` — GPU -> host -> SSD: two serialized copies
  plus CPU-memory contention, the inefficiency SSDTrain avoids.

The functional engine runs on host memory, so it has no GPU buffer to
register and no bounce to skip: its stores write the host array they
are given under every ``io_backend``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.device.pcie import PCIeLink
from repro.device.ssd import SSD


@dataclass(frozen=True)
class DirectGDSPath:
    """Direct GPU <-> SSD DMA: bottlenecked by the slower of the two hops."""

    gpu_link: PCIeLink
    array: SSD  # one SSD, or a RAID0Array of them

    def write_bandwidth(self) -> float:
        return min(self.gpu_link.bandwidth, self.array.write_bw)

    def read_bandwidth(self) -> float:
        return min(self.gpu_link.bandwidth, self.array.read_bw)

    def write_time(self, nbytes: int) -> float:
        if nbytes == 0:
            return 0.0
        return self.gpu_link.latency_s + nbytes / self.write_bandwidth()

    def read_time(self, nbytes: int) -> float:
        if nbytes == 0:
            return 0.0
        return self.gpu_link.latency_s + nbytes / self.read_bandwidth()


@dataclass(frozen=True)
class BounceBufferPath:
    """GPU -> host bounce buffer -> SSD (what SSDTrain avoids).

    The two hops serialize unless double-buffered; host-memory bandwidth is
    additionally shared with "training management tasks and offloaded
    computation" (Sec. I), modeled by ``host_contention`` < 1.
    """

    gpu_link: PCIeLink
    array: SSD  # one SSD, or a RAID0Array of them
    host_contention: float = 0.7
    double_buffered: bool = True

    def __post_init__(self) -> None:
        if not 0 < self.host_contention <= 1:
            raise ValueError(f"host_contention must be in (0, 1]: {self.host_contention}")

    def write_bandwidth(self) -> float:
        gpu_hop = self.gpu_link.bandwidth * self.host_contention
        ssd_hop = self.array.write_bw
        if self.double_buffered:
            return min(gpu_hop, ssd_hop)
        # Serialized hops: effective rate is the harmonic combination.
        return 1.0 / (1.0 / gpu_hop + 1.0 / ssd_hop)

    def read_bandwidth(self) -> float:
        gpu_hop = self.gpu_link.bandwidth * self.host_contention
        ssd_hop = self.array.read_bw
        if self.double_buffered:
            return min(gpu_hop, ssd_hop)
        return 1.0 / (1.0 / gpu_hop + 1.0 / ssd_hop)

    def write_time(self, nbytes: int) -> float:
        if nbytes == 0:
            return 0.0
        return 2 * self.gpu_link.latency_s + nbytes / self.write_bandwidth()

    def read_time(self, nbytes: int) -> float:
        if nbytes == 0:
            return 0.0
        return 2 * self.gpu_link.latency_s + nbytes / self.read_bandwidth()
