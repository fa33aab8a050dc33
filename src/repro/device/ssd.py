"""NVMe SSD model with endurance accounting (paper Sec. II-C and III-D).

The lifespan argument in the paper rests on three observations:

1. SSD endurance ratings use the JESD218/219 method — random writes after
   tough preconditioning — with a write amplification factor (WAF) around
   2.5, while activation offloading issues large sequential writes with
   WAF ~1.  Sequential workloads therefore get ~2.5x the rated writes.
2. Activations only need to survive until backward propagation (seconds),
   so the 3-year data-retention requirement can be relaxed; NAND gets ~86x
   the program/erase cycles at a 1-day retention target.
3. Lifespan is then ``t_life = S_endurance * t_step / S_activations``.

:class:`SSDEnduranceModel` encodes exactly this arithmetic (the live
counterpart, measured off a running chunk store, is
``EngineStats.endurance``); :class:`SSD` and :class:`RAID0Array` model
the transfer times of the evaluation machine's two RAID0 arrays (3x and
4x Intel Optane P5800X, each dedicated to one A100).
"""

from __future__ import annotations

from dataclasses import dataclass

SECONDS_PER_YEAR = 365.25 * 24 * 3600


@dataclass(frozen=True)
class SSDSpec:
    """Static description of an SSD model.

    Attributes:
        name: model name.
        capacity_bytes: usable capacity.
        write_bw_gbps: sequential write bandwidth, GB/s.
        read_bw_gbps: sequential read bandwidth, GB/s.
        write_latency_s: per-IO latency for large sequential writes.
        read_latency_s: per-IO latency for large sequential reads.
        rated_writes_bytes: lifetime host writes per the vendor endurance
            rating (TBW / DWPD x capacity x warranty), under JESD testing.
    """

    name: str
    capacity_bytes: int
    write_bw_gbps: float
    read_bw_gbps: float
    write_latency_s: float
    read_latency_s: float
    rated_writes_bytes: float

    @property
    def write_bw(self) -> float:
        return self.write_bw_gbps * 1e9

    @property
    def read_bw(self) -> float:
        return self.read_bw_gbps * 1e9


#: Intel Optane P5800X 1.6 TB (Table II).  Optane endurance is rated at
#: 100 DWPD over 5 years: 1.6 TB x 100 x 365 x 5.
INTEL_OPTANE_P5800X_1600GB = SSDSpec(
    name="Intel-Optane-P5800X-1.6TB",
    capacity_bytes=1600 * 10**9,
    write_bw_gbps=6.1,
    read_bw_gbps=7.2,
    write_latency_s=10e-6,
    read_latency_s=10e-6,
    rated_writes_bytes=1600 * 10**9 * 100 * 365 * 5,
)

#: Samsung 980 PRO 1 TB (used in the Fig. 5 viability projection):
#: 600 TBW rating, ~5 GB/s sequential write.
SAMSUNG_980_PRO_1TB = SSDSpec(
    name="Samsung-980-PRO-1TB",
    capacity_bytes=1000 * 10**9,
    write_bw_gbps=5.0,
    read_bw_gbps=7.0,
    write_latency_s=30e-6,
    read_latency_s=30e-6,
    rated_writes_bytes=600 * 10**12,
)


@dataclass(frozen=True)
class SSDEnduranceModel:
    """Endurance projection per Sec. III-D.

    Attributes:
        jesd_waf: write amplification assumed by the JESD rating (2.5).
        workload_waf: write amplification of large sequential activation
            writes (~1).
        retention_relaxation: PE-cycle multiplier from relaxing retention
            from 3 years to 1 day (86x, after [55]-[58]).
    """

    jesd_waf: float = 2.5
    workload_waf: float = 1.0
    retention_relaxation: float = 86.0

    def __post_init__(self) -> None:
        if self.jesd_waf <= 0 or self.workload_waf <= 0:
            raise ValueError("WAF values must be positive")
        if self.retention_relaxation < 1:
            raise ValueError("retention_relaxation must be >= 1")

    def effective_endurance_bytes(self, spec: SSDSpec) -> float:
        """Lifetime *host* writes available to the offloading workload."""
        sequential_bonus = self.jesd_waf / self.workload_waf
        return spec.rated_writes_bytes * sequential_bonus * self.retention_relaxation

    def lifespan_years(
        self,
        spec: SSDSpec,
        activation_bytes_per_step: float,
        step_time_s: float,
        num_ssds: int = 1,
    ) -> float:
        """Projected lifespan: ``S_endurance * t_step / S_activations``.

        Args:
            activation_bytes_per_step: bytes offloaded per training step
                (per GPU) across the whole array.
            step_time_s: training step time.
            num_ssds: SSDs in the per-GPU array (writes stripe evenly).
        """
        if activation_bytes_per_step < 0 or step_time_s <= 0 or num_ssds < 1:
            raise ValueError("invalid lifespan query")
        if activation_bytes_per_step == 0:
            return float("inf")
        endurance = self.effective_endurance_bytes(spec) * num_ssds
        lifespan_s = endurance * step_time_s / activation_bytes_per_step
        return lifespan_s / SECONDS_PER_YEAR


class SSD:
    """One SSD: its spec and the transfer times it implies."""

    num_ssds = 1

    def __init__(self, spec: SSDSpec = INTEL_OPTANE_P5800X_1600GB) -> None:
        self.spec = spec

    @property
    def write_bw(self) -> float:
        return self.spec.write_bw * self.num_ssds

    @property
    def read_bw(self) -> float:
        return self.spec.read_bw * self.num_ssds

    def write_time(self, nbytes: int) -> float:
        """Seconds to persist ``nbytes`` (sequential write)."""
        if nbytes < 0:
            raise ValueError(f"negative write size: {nbytes}")
        if nbytes == 0:
            return 0.0
        return self.spec.write_latency_s + nbytes / self.write_bw

    def read_time(self, nbytes: int) -> float:
        """Seconds to read back ``nbytes`` (sequential read)."""
        if nbytes < 0:
            raise ValueError(f"negative read size: {nbytes}")
        if nbytes == 0:
            return 0.0
        return self.spec.read_latency_s + nbytes / self.read_bw


class RAID0Array(SSD):
    """A striped array of identical SSDs (the paper's 3x / 4x P5800X
    arrays): bandwidth scales with the member count."""

    def __init__(
        self,
        spec: SSDSpec = INTEL_OPTANE_P5800X_1600GB,
        num_ssds: int = 4,
        name: str = "md0",
    ) -> None:
        if num_ssds < 1:
            raise ValueError(f"array needs at least one SSD: {num_ssds}")
        super().__init__(spec)
        self.num_ssds = num_ssds
        self.name = name
