"""Step-level discrete-event simulation of the three placement strategies.

A model is lowered to a list of :class:`SegmentSpec` (embedding segment,
one per transformer layer, LM-head segment).  The simulator plays one
training step on the GPU compute stream, making offload decisions with
the *same* :class:`~repro.core.policy.OffloadPolicy` the functional
tensor cache uses, and queues every store and load on the engine's own
:class:`~repro.io.scheduler.IOScheduler`, served on a virtual clock
(:mod:`repro.sim.virtual_io`) — the simulator has no queueing model of
its own:

- forward: at each segment's completion its activations are packed; kept
  tensors stay resident until their backward; offloaded tensors enqueue on
  the store lane and release memory when the store completes;
- backward: loads are issued in reverse order with a bounded segment
  look-ahead; a segment's backward stalls the GPU if its activations are
  not resident yet (this is where a slow SSD shows up as overhead);
- data forwarding: if the store is still in flight when the tensor is
  needed, the in-memory reference is adopted — no load, memory never
  released in between;
- recompute: only segment inputs are kept; backward replays the forward
  (executed FLOPs grow, algorithmic FLOPs do not);
- tiered offload: with ``cpu_pool_bytes`` set, a bounded pinned-CPU pool
  absorbs offloads on dedicated ``cpu_store``/``cpu_load`` lanes at PCIe
  bandwidth and only the spill beyond the pool pays SSD bandwidth —
  the simulator analogue of
  :class:`~repro.core.tiered.TieredOffloader` (placement only; demotion
  traffic is a functional-engine concern);
- I/O scheduling: ``io_mode`` picks the scheduler the SSD requests queue
  on (see :data:`IO_MODES`) — ``"fifo"`` vs ``"priority"`` quantifies
  what the production blocking-load-first dequeue buys at equal
  bandwidth;
- multi-step runs: :func:`simulate_run` plays a :class:`Scenario` — one
  :class:`StepConditions` (bandwidths, per-op latency, micro-batch
  count) per step — for bandwidth drift, micro-batch resizes, the
  functional failure model's throughput side (transient-retry tax,
  latency spikes, a mid-run SSD death drained via host-memory
  failover), optionally closing the loop through the adaptive
  controller; :func:`one_shot_budget` is the paper's Fig. 3 sizing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.perf_model import (
    ActivationTensor,
    embedding_activation_bytes,
    logits_activation_bytes,
    model_param_count,
    transformer_layer_perf,
    weight_update_time,
)
from repro.core.adaptive import WorkloadProfile, choose_offload_budget
from repro.core.autotune import AutotuneController, ControllerDecision, StepObservation
from repro.core.policy import Decision, OffloadPolicy, StepAccounting, Tier
from repro.device.gpu import A100_PCIE_40GB, GPUSpec, KernelTimingModel
from repro.device.pcie import GPU_LINK_GEN4_X16
from repro.io.scheduler import IORequest, Priority
from repro.io.tenancy import TenantQuotaError, TenantRegistry, jain_index
from repro.models.config import ModelConfig
from repro.sim.timeline import Timeline
from repro.sim.virtual_io import VirtualIO, VirtualRequest
from repro.train.parallel import ParallelismConfig
from repro.train.trainer import PlacementStrategy


#: The scheduler each ``io_mode`` queues SSD traffic on: (lane of an SSD
#: store, lane of an SSD load, FIFO dequeue).  ``duplex`` is the paper's
#: two FIFO pools (Sec. III-C2); ``fifo`` one shared FIFO lane, where a
#: backward load waits behind the whole store backlog; ``priority`` that
#: lane with the production dequeue — current-segment loads are
#: BLOCKING_LOAD, look-ahead loads PREFETCH_LOAD, promoted at backward
#: entry.  The CPU tier always has its own store and load lanes.
IO_MODES = {
    "duplex": ("store", "load", True),
    "fifo": ("ssd", "ssd", True),
    "priority": ("ssd", "ssd", False),
}

#: The pinned-CPU tier moves bytes at the GPU's PCIe link speed.
CPU_TIER_BANDWIDTH = GPU_LINK_GEN4_X16.bandwidth

#: Recomputation transient: the recomputed activations coexist with the
#: gradient buffers of the segment's backward.
RECOMPUTE_WORKSPACE_FACTOR = 2.0


@dataclass(frozen=True)
class SegmentSpec:
    """One schedulable forward/backward unit (a "module" of Fig. 2)."""

    name: str
    forward_time_s: float
    backward_time_s: float
    forward_flops: float
    activations: Tuple[ActivationTensor, ...]
    #: bytes of the segment *input*, what recomputation keeps resident.
    input_bytes: int

    @property
    def activation_bytes(self) -> int:
        return sum(t.nbytes for t in self.activations)


@dataclass
class SimResult:
    """Outputs of one simulated training step."""

    strategy: PlacementStrategy
    step_time_s: float
    forward_time_s: float
    backward_time_s: float
    weight_update_time_s: float
    io_stall_time_s: float
    activation_peak_bytes: int
    offloaded_bytes: int
    loaded_bytes: int
    forwarded_bytes: int
    algorithmic_flops: float
    executed_flops: float
    timeline: Timeline = field(repr=False, default_factory=Timeline)
    #: Tiered runs: bytes absorbed by the pinned-CPU pool vs spilled to SSD
    #: (``offloaded_bytes`` is their sum), and the pool's occupancy peak.
    offloaded_cpu_bytes: int = 0
    offloaded_ssd_bytes: int = 0
    cpu_pool_peak_bytes: int = 0
    #: Eligible activation bytes the policy KEPT resident (budget reached,
    #: keep-last scope); ``offloaded_bytes + kept_bytes`` is the step's
    #: eligible activation volume — the budget formula's input.
    kept_bytes: int = 0

    def model_throughput_tflops(self) -> float:
        return self.algorithmic_flops / self.step_time_s / 1e12

    def required_write_bandwidth_gbps(self) -> float:
        """Table III row 3: offloaded bytes over half the step time."""
        return self.offloaded_bytes / (self.step_time_s / 2.0) / 1e9

    def required_ssd_write_bandwidth_gbps(self) -> float:
        """Tiered variant of Table III row 3: only the bytes that actually
        spill past the CPU pool demand SSD write bandwidth (with no CPU
        tier configured every offloaded byte is an SSD byte)."""
        return self.offloaded_ssd_bytes / (self.step_time_s / 2.0) / 1e9


def build_segments(
    config: ModelConfig,
    batch: int,
    gpu: GPUSpec = A100_PCIE_40GB,
    parallelism: Optional[ParallelismConfig] = None,
    timing: Optional[KernelTimingModel] = None,
) -> List[SegmentSpec]:
    """Lower a model config to its forward segment list."""
    par = parallelism if parallelism is not None else ParallelismConfig()
    model = timing if timing is not None else KernelTimingModel(gpu)
    dt = config.dtype_bytes
    bsh_bytes = batch * config.seq_len * config.hidden * dt
    segments: List[SegmentSpec] = []

    emb_bytes = embedding_activation_bytes(config, batch)
    emb_flops = 2.0 * batch * config.seq_len * config.hidden  # lookups+add
    emb_time = model.kernel_time(emb_flops, 2 * emb_bytes, batch_size=batch)
    segments.append(
        SegmentSpec(
            name="embed",
            forward_time_s=emb_time,
            backward_time_s=2 * emb_time,
            forward_flops=emb_flops,
            activations=(ActivationTensor("emb_out", emb_bytes),),
            input_bytes=batch * config.seq_len * 8,  # token ids (int64)
        )
    )

    num_cross = config.num_decoder_layers if config.arch == "t5" else 0
    num_plain = config.num_layers - num_cross
    plain_perf = transformer_layer_perf(config, batch, gpu, par, model)
    for i in range(num_plain):
        segments.append(
            SegmentSpec(
                name=f"layer{i}",
                forward_time_s=plain_perf.forward_time_s,
                backward_time_s=plain_perf.backward_time_s,
                forward_flops=plain_perf.forward_flops,
                activations=plain_perf.inventory,
                input_bytes=bsh_bytes,
            )
        )
    if num_cross:
        cross_perf = transformer_layer_perf(
            config, batch, gpu, par, model, cross_attention=True
        )
        for i in range(num_cross):
            segments.append(
                SegmentSpec(
                    name=f"declayer{i}",
                    forward_time_s=cross_perf.forward_time_s,
                    backward_time_s=cross_perf.backward_time_s,
                    forward_flops=cross_perf.forward_flops,
                    activations=cross_perf.inventory,
                    input_bytes=bsh_bytes,
                )
            )

    head_bytes = logits_activation_bytes(config, batch)
    head_flops = 2.0 * batch * config.seq_len * config.hidden * config.vocab_size / par.tp
    head_time = model.kernel_time(head_flops, head_bytes, batch_size=batch)
    segments.append(
        SegmentSpec(
            name="head",
            forward_time_s=head_time,
            backward_time_s=2 * head_time,
            forward_flops=head_flops,
            activations=(ActivationTensor("logits", head_bytes),),
            input_bytes=bsh_bytes,
        )
    )
    return segments


class StepSimulator:
    """Simulates one training step for a segment list and a strategy."""

    def __init__(
        self,
        segments: List[SegmentSpec],
        strategy: PlacementStrategy,
        write_bandwidth: float,
        read_bandwidth: float,
        policy: Optional[OffloadPolicy] = None,
        num_microbatches: int = 1,
        prefetch_segments: int = 2,
        keep_last_segments: int = 2,
        prefetch_budget_bytes: Optional[int] = None,
        io_latency_s: float = 20e-6,
        dtype_bytes: int = 2,
        cpu_pool_bytes: Optional[int] = None,
        io_mode: str = "duplex",
    ) -> None:
        if write_bandwidth <= 0 or read_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")
        if num_microbatches < 1:
            raise ValueError("num_microbatches must be >= 1")
        if io_mode not in IO_MODES:
            raise ValueError(f"unknown io_mode {io_mode!r}; expected one of {tuple(IO_MODES)}")
        self.segments = segments
        self.strategy = strategy
        self.write_bw = write_bandwidth
        self.read_bw = read_bandwidth
        self.policy = policy if policy is not None else OffloadPolicy()
        self.num_microbatches = num_microbatches
        self.prefetch_segments = prefetch_segments
        # Fig. 2 marker 4: the last module's backward begins immediately
        # after its forward, so its activations are kept (the functional
        # cache keeps the final top-level segment; pass 2 to also keep the
        # final transformer layer as in the Fig. 2 sketch).
        self.keep_last_segments = keep_last_segments
        # Bound on prefetched-but-unconsumed bytes, the simulator analogue
        # of the tensor cache's bounded look-ahead window: a prefetch may
        # run ahead of consumption by at most this many bytes.  Defaults to
        # half the largest segment's activation footprint (the adaptive
        # sizing scales the window with the workload).
        if prefetch_budget_bytes is None:
            prefetch_budget_bytes = max(s.activation_bytes for s in segments) // 2
        self.prefetch_budget_bytes = prefetch_budget_bytes
        self.io_latency_s = io_latency_s
        self.dtype_bytes = dtype_bytes
        # Tiered offloading: a bounded pinned-CPU pool absorbs offloads at
        # PCIe speed; only the spill beyond it pays SSD bandwidth.  The
        # pool occupies host (not GPU) memory, so its residents do not
        # count toward the activation peak.  ``None`` disables the tier
        # (every offload targets the SSD, the paper's configuration).
        self.cpu_pool_bytes = cpu_pool_bytes
        self.io_mode = io_mode

    def run(self, weight_update_s: float = 0.0) -> SimResult:
        timeline = Timeline()
        accounting = StepAccounting()
        store_lane, load_lane, fifo = IO_MODES[self.io_mode]
        lanes = tuple(dict.fromkeys((store_lane, load_lane, "cpu_store", "cpu_load")))
        io = VirtualIO(lanes, fifo, self.io_latency_s)

        def draw(event: str, request: IORequest) -> None:
            # Every request lands on the timeline once it has run (the
            # shared SSD lane draws each on its channel's row); a load
            # re-allocates its tensor on the GPU when it starts.
            if event == "done":
                lane = request.kind if request.lane == "ssd" else request.lane
                timeline.record(lane, request.label, request.started_at, request.finished_at)
                if request.kind == "load":
                    timeline.alloc(request.started_at, request.nbytes)

        io.scheduler.add_listener(draw)
        gpu_t = 0.0
        io_stall = 0.0
        offloaded = loaded = forwarded = 0
        off_cpu = off_ssd = 0
        cpu_used = 0
        cpu_peak = 0
        alg_flops = exec_flops = 0.0
        fwd_total = bwd_total = 0.0

        keep_last = self.policy.config.keep_last_module

        for mb in range(self.num_microbatches):
            # ------------------------------------------------------ forward
            # stores[i][j]: the store of activation j of segment i (None =
            # kept resident).
            stores: List[List[Optional[VirtualRequest]]] = []
            for si, seg in enumerate(self.segments):
                seg_start = gpu_t
                gpu_t += seg.forward_time_s
                fwd_total += seg.forward_time_s
                alg_flops += seg.forward_flops
                exec_flops += seg.forward_flops
                timeline.record("gpu", f"F{si}", seg_start, gpu_t)
                row: List[Optional[VirtualRequest]] = []
                stores.append(row)
                in_keep_scope = (
                    keep_last
                    and si >= len(self.segments) - self.keep_last_segments
                )

                if self.strategy is PlacementStrategy.RECOMPUTE and si > 0:
                    # Only the segment input survives; approximate it as one
                    # resident tensor per segment (freed after backward).
                    timeline.alloc(seg_start, seg.input_bytes)
                    row.extend([None] * len(seg.activations))
                    continue

                count = len(seg.activations)
                for aj, act in enumerate(seg.activations):
                    # Tensors are produced progressively as the segment's
                    # ops finish; offloading "starts once the operator
                    # producing it finishes" (Fig. 2 marker 1).
                    produced = seg_start + (aj + 1) / count * seg.forward_time_s
                    timeline.alloc(produced, act.nbytes)
                    if self.strategy is not PlacementStrategy.OFFLOAD:
                        row.append(None)
                        continue
                    decision = self.policy.decide(
                        is_weight=False,
                        is_cpu=False,
                        numel=act.nbytes // self.dtype_bytes,
                        nbytes=act.nbytes,
                        in_backward=False,
                        in_keep_scope=in_keep_scope,
                        accounting=accounting,
                    )
                    if decision is not Decision.OFFLOAD:
                        accounting.kept_bytes += act.nbytes
                        row.append(None)
                        continue
                    cpu_free = (
                        self.cpu_pool_bytes - cpu_used
                        if self.cpu_pool_bytes is not None
                        else None
                    )
                    tier = self.policy.place(nbytes=act.nbytes, cpu_free_bytes=cpu_free)
                    if tier is Tier.CPU:
                        row.append(io.submit("cpu_store", "store", Priority.STORE, act.nbytes,
                                             CPU_TIER_BANDWIDTH, produced, f"c{si}"))
                        cpu_used += act.nbytes
                        cpu_peak = max(cpu_peak, cpu_used)
                        off_cpu += act.nbytes
                    else:
                        row.append(io.submit(store_lane, "store", Priority.STORE, act.nbytes,
                                             self.write_bw, produced, f"s{si}"))
                        off_ssd += act.nbytes
                    accounting.offloaded_bytes += act.nbytes
                    offloaded += act.nbytes

            # ----------------------------------------------------- backward
            n = len(self.segments)
            # When each activation is back on the GPU: resident (kept or
            # forwarded) at a known time, or when its load finishes.
            landed: Dict[Tuple[int, int], float] = {}
            loads: Dict[Tuple[int, int], VirtualRequest] = {}

            def issue_loads(
                si: int,
                trigger: float,
                priority: Priority,
                credit_state: Optional[List[float]] = None,
                consumption_rate: float = 0.0,
                deadline_window_s: float = 0.0,
            ) -> None:
                """Issue loads for segment ``si``'s activations.

                ``credit_state`` is a one-element list holding the
                cumulative prefetched bytes of this backward entry; loads
                beyond ``prefetch_budget_bytes`` wait until consumption of
                the current segment (at ``consumption_rate`` bytes/s) has
                earned them credit.
                """
                nonlocal cpu_used, loaded, forwarded
                seg = self.segments[si]
                for aj in range(len(seg.activations) - 1, -1, -1):
                    # Consumption is last-produced-first, so load in
                    # reverse production order.
                    act = seg.activations[aj]
                    if (si, aj) in loads:
                        io.scheduler.promote(loads[(si, aj)], priority)
                        continue
                    if (si, aj) in landed:
                        continue
                    store = stores[si][aj]
                    cpu = store is not None and store.lane == "cpu_store"
                    read_bw = CPU_TIER_BANDWIDTH if cpu else self.read_bw
                    paced_trigger = trigger
                    if credit_state is not None:
                        overdraft = credit_state[0] + act.nbytes - self.prefetch_budget_bytes
                        if overdraft > 0 and consumption_rate > 0:
                            paced_trigger = trigger + overdraft / consumption_rate
                        credit_state[0] += act.nbytes
                        # Never let the budget push a load past its need
                        # time: it must complete before the consuming
                        # segment's backward begins (deadline - duration).
                        load_duration = self.io_latency_s + act.nbytes / read_bw
                        deadline_start = trigger + deadline_window_s - 1.2 * load_duration
                        paced_trigger = max(trigger, min(paced_trigger, deadline_start))
                    if store is None:
                        landed[(si, aj)] = trigger  # resident (kept)
                        continue
                    # The backing copy is dropped once the tensor is back
                    # on the GPU; pool residents return their bytes then.
                    if cpu:
                        cpu_used -= act.nbytes
                    io.advance(paced_trigger)
                    if not store.done_event.is_set() or store.finished_at > paced_trigger:
                        # Store still in flight at prefetch time: data
                        # forwarding — adopt the in-memory copy, which
                        # was never released.
                        forwarded += act.nbytes
                        landed[(si, aj)] = paced_trigger
                        continue
                    # Its GPU copy was released when the store landed.
                    timeline.free(store.finished_at, act.nbytes)
                    loads[(si, aj)] = io.submit(
                        "cpu_load" if cpu else load_lane, "load", priority, act.nbytes,
                        read_bw, paced_trigger, f"cl{si}" if cpu else f"l{si}",
                    )
                    loaded += act.nbytes

            for si in range(n - 1, -1, -1):
                seg = self.segments[si]
                # Entering segment si's backward makes its pending loads
                # blocking and triggers prefetch of the next
                # ``prefetch_segments`` segments (Sec. III-C2); the byte
                # budget is earned back as this segment's backward
                # consumes its own activations.
                io.advance(gpu_t)
                issue_loads(si, gpu_t, Priority.BLOCKING_LOAD)
                credit = [0.0]
                rate = (
                    seg.activation_bytes / seg.backward_time_s
                    if seg.backward_time_s > 0
                    else 0.0
                )
                for ahead in range(1, self.prefetch_segments + 1):
                    if si - ahead >= 0:
                        issue_loads(
                            si - ahead,
                            gpu_t,
                            Priority.PREFETCH_LOAD,
                            credit_state=credit,
                            consumption_rate=rate,
                            deadline_window_s=ahead * seg.backward_time_s,
                        )

                if self.strategy is PlacementStrategy.RECOMPUTE and si > 0:
                    # Replay forward, then backward.
                    start = gpu_t
                    recompute_peak = int(
                        RECOMPUTE_WORKSPACE_FACTOR
                        * sum(a.nbytes for a in seg.activations)
                    )
                    timeline.alloc(start, recompute_peak)
                    gpu_t = start + seg.forward_time_s + seg.backward_time_s
                    exec_flops += seg.forward_flops
                    timeline.record("gpu", f"R{si}", start, start + seg.forward_time_s)
                    timeline.record("gpu", f"B{si}", start + seg.forward_time_s, gpu_t)
                    timeline.free(gpu_t, recompute_peak + seg.input_bytes)
                else:
                    ready = max(
                        [gpu_t]
                        + [
                            landed[(si, aj)] if (si, aj) in landed
                            else io.finish(loads[(si, aj)]).finished_at
                            for aj in range(len(seg.activations))
                        ]
                    )
                    io_stall += ready - gpu_t
                    start = ready
                    gpu_t = start + seg.backward_time_s
                    timeline.record("gpu", f"B{si}", start, gpu_t)
                    # Backward consumes the segment's saved tensors
                    # progressively (last-produced first); each is released
                    # as its consuming node finishes (SavedTensor.clear +
                    # scope exit in the functional cache).
                    count = len(seg.activations)
                    for aj, act in enumerate(seg.activations):
                        frac = (count - aj) / count
                        timeline.free(start + frac * seg.backward_time_s, act.nbytes)
                bwd_total += gpu_t - start
                alg_flops += 2 * seg.forward_flops
                exec_flops += 2 * seg.forward_flops

        io.close()  # forwarded stores still run, and land on the timeline
        step_time = gpu_t + weight_update_s
        return SimResult(
            strategy=self.strategy,
            step_time_s=step_time,
            forward_time_s=fwd_total,
            backward_time_s=bwd_total,
            weight_update_time_s=weight_update_s,
            io_stall_time_s=io_stall,
            activation_peak_bytes=timeline.memory_peak(),
            offloaded_bytes=offloaded,
            loaded_bytes=loaded,
            forwarded_bytes=forwarded,
            algorithmic_flops=alg_flops,
            executed_flops=exec_flops,
            timeline=timeline,
            offloaded_cpu_bytes=off_cpu,
            offloaded_ssd_bytes=off_ssd,
            cpu_pool_peak_bytes=cpu_peak,
            kept_bytes=accounting.kept_bytes,
        )


def simulate_strategy(
    config: ModelConfig,
    batch: int,
    strategy: PlacementStrategy,
    write_bandwidth: float,
    read_bandwidth: float,
    gpu: GPUSpec = A100_PCIE_40GB,
    parallelism: Optional[ParallelismConfig] = None,
    policy: Optional[OffloadPolicy] = None,
    num_microbatches: int = 1,
    timing: Optional[KernelTimingModel] = None,
    cpu_pool_bytes: Optional[int] = None,
    io_mode: str = "duplex",
) -> SimResult:
    """Convenience wrapper: build segments, add weight-update time, run."""
    par = parallelism if parallelism is not None else ParallelismConfig()
    segments = build_segments(config, batch, gpu, par, timing)
    params_per_gpu = par.params_per_gpu(model_param_count(config))
    update = weight_update_time(params_per_gpu, gpu, dtype_bytes=config.dtype_bytes)
    sim = StepSimulator(
        segments,
        strategy,
        write_bandwidth=write_bandwidth,
        read_bandwidth=read_bandwidth,
        policy=policy,
        num_microbatches=num_microbatches,
        dtype_bytes=config.dtype_bytes,
        cpu_pool_bytes=cpu_pool_bytes,
        io_mode=io_mode,
    )
    return sim.run(weight_update_s=update)


#: Per-op latency of a healthy device, and the backoff a faulted
#: transfer pays before its one retry.
BASE_IO_LATENCY_S = 20e-6
RETRY_BACKOFF_S = 0.002


@dataclass(frozen=True)
class StepConditions:
    """What the hardware and the workload look like during one step."""

    write_bandwidth: float
    read_bandwidth: float
    io_latency_s: float = BASE_IO_LATENCY_S
    num_microbatches: int = 1


def _fault_rates(fault_rate: float, seed: int, steps: int) -> List[float]:
    """``fault_rate`` jittered per step by the seed into [0.5x, 1.5x]
    (capped at 1): runs have texture but stay reproducible."""
    if not 0.0 <= fault_rate <= 1.0:
        raise ValueError(f"fault_rate must be in [0, 1]: {fault_rate}")
    return [
        min(1.0, fault_rate * (0.5 + random.Random((seed << 16) ^ step).random()))
        for step in range(steps)
    ]


@dataclass(frozen=True)
class Scenario:
    """What the hardware and the workload look like during each step of
    a run (``conditions[i]``) — the moving target the adaptive
    controller has to track and a static budget cannot.  Each
    constructor is one shape: :meth:`static` (the control arm, and the
    clean twin of a fault A/B); bandwidth drift — :meth:`step_drop` (a
    co-tenant job lands on the array), :meth:`ramp` (thermal throttling,
    an SLC cache filling up), :meth:`microbatch_resize`; and the
    throughput side of the functional :class:`~repro.io.faults.FaultPlan`
    as expected values — :meth:`transient` (a faulted transfer replays
    once after a backoff), :meth:`latency` (spikes),
    :meth:`lane_death` (failover to host memory).  ``event_step`` is
    the first step the drift or the death affects (``None``: no event).
    """

    conditions: Tuple[StepConditions, ...]
    event_step: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.conditions:
            raise ValueError("a scenario needs at least one step")
        for c in self.conditions:
            if min(c.write_bandwidth, c.read_bandwidth) <= 0 or c.io_latency_s < 0:
                raise ValueError(f"need positive bandwidths and io_latency_s >= 0: {c}")
            if c.num_microbatches < 1:
                raise ValueError(f"num_microbatches must be >= 1: {c}")

    @property
    def steps(self) -> int:
        return len(self.conditions)

    @classmethod
    def static(cls, write_bandwidth: float, read_bandwidth: float, steps: int,
               num_microbatches: int = 1) -> "Scenario":
        return cls((StepConditions(write_bandwidth, read_bandwidth,
                                   num_microbatches=num_microbatches),) * steps)

    @classmethod
    def step_drop(cls, write_bandwidth: float, read_bandwidth: float, steps: int,
                  drift_step: int, write_factor: float = 0.5,
                  read_factor: float = 1.0, num_microbatches: int = 1) -> "Scenario":
        """Bandwidth falls off a cliff at ``drift_step`` (a one-step ramp;
        ``write_factor=0.5`` is the 2x write drop of the acceptance A/B)."""
        return cls.ramp(write_bandwidth, read_bandwidth, steps, drift_step, 1,
                        write_factor, read_factor, num_microbatches)

    @classmethod
    def ramp(cls, write_bandwidth: float, read_bandwidth: float, steps: int,
             drift_step: int, ramp_steps: int, write_factor: float = 0.5,
             read_factor: float = 1.0, num_microbatches: int = 1) -> "Scenario":
        """Linear degradation starting at ``drift_step`` (the first
        affected step, carrying ``1/ramp_steps`` of the drop) and
        reaching the terminal factors at ``drift_step + ramp_steps - 1``."""
        if ramp_steps < 1:
            raise ValueError(f"ramp_steps must be >= 1: {ramp_steps}")
        conditions = []
        for step in range(steps):
            p = min(1.0, (step - drift_step + 1) / ramp_steps) if step >= drift_step else 0.0
            conditions.append(StepConditions(
                write_bandwidth * (1.0 + p * (write_factor - 1.0)),
                read_bandwidth * (1.0 + p * (read_factor - 1.0)),
                num_microbatches=num_microbatches,
            ))
        return cls(tuple(conditions), drift_step)

    @classmethod
    def microbatch_resize(cls, write_bandwidth: float, read_bandwidth: float,
                          steps: int, drift_step: int, before: int = 1,
                          after: int = 2) -> "Scenario":
        """The activation volume and windows change at ``drift_step``
        while the hardware stays put."""
        return cls(tuple(
            StepConditions(write_bandwidth, read_bandwidth,
                           num_microbatches=after if step >= drift_step else before)
            for step in range(steps)
        ), drift_step)

    @classmethod
    def transient(cls, write_bandwidth: float, read_bandwidth: float, steps: int,
                  fault_rate: float = 0.02, seed: int = 0) -> "Scenario":
        """The channel moves the same bytes twice for ``rate`` of the ops,
        and every op pays the expected retry backoff."""
        return cls(tuple(
            StepConditions(write_bandwidth / (1.0 + rate), read_bandwidth / (1.0 + rate),
                           BASE_IO_LATENCY_S + rate * RETRY_BACKOFF_S)
            for rate in _fault_rates(fault_rate, seed, steps)
        ))

    @classmethod
    def latency(cls, write_bandwidth: float, read_bandwidth: float, steps: int,
                fault_rate: float = 0.02, spike_s: float = 0.02,
                seed: int = 0) -> "Scenario":
        """``rate`` of the ops stall an extra ``spike_s`` (slow, not wrong)."""
        return cls(tuple(
            StepConditions(write_bandwidth, read_bandwidth, BASE_IO_LATENCY_S + rate * spike_s)
            for rate in _fault_rates(fault_rate, seed, steps)
        ))

    @classmethod
    def lane_death(cls, write_bandwidth: float, read_bandwidth: float, steps: int,
                   death_step: int, failover_bandwidth: Optional[float] = None) -> "Scenario":
        """From ``death_step`` on every transfer drains to host memory at
        ``failover_bandwidth`` (default: the PCIe link)."""
        if failover_bandwidth is None:
            failover_bandwidth = GPU_LINK_GEN4_X16.bandwidth
        alive = StepConditions(write_bandwidth, read_bandwidth)
        dead = StepConditions(failover_bandwidth, failover_bandwidth)
        return cls(tuple(dead if s >= death_step else alive for s in range(steps)), death_step)


@dataclass
class RunResult:
    """Outputs of a multi-step simulated run."""

    scenario: Scenario
    results: List[SimResult]
    #: The offload budget in force *during* each step (None = uncapped).
    budgets: List[Optional[int]]
    #: Controller decisions taken *after* each step (empty without one).
    decisions: List[ControllerDecision]

    def stall_time_s(self, start: int = 0, stop: Optional[int] = None) -> float:
        """Total backward stall over the step range ``[start, stop)``."""
        return sum(r.io_stall_time_s for r in self.results[start:stop])

    def step_time_s(self, start: int = 0, stop: Optional[int] = None) -> float:
        """Total step time over the step range ``[start, stop)``."""
        return sum(r.step_time_s for r in self.results[start:stop])


def _observation_from_sim(result: SimResult) -> StepObservation:
    """Translate one simulated step into the controller's feed.

    Bandwidth is *observed* — bytes moved over channel-busy seconds off
    the timeline — so the controller sees the per-op latency tax, not
    the configured constant.
    CPU-tier lanes are merged in when present (the controller's budget
    then reflects the blended drain rate the workload actually gets).
    """
    timeline = result.timeline
    write_busy = timeline.lane_busy_time("store") + timeline.lane_busy_time("cpu_store")
    read_busy = timeline.lane_busy_time("load") + timeline.lane_busy_time("cpu_load")
    return StepObservation(
        forward_time_s=result.forward_time_s,
        backward_time_s=result.backward_time_s,
        activation_bytes=result.offloaded_bytes + result.kept_bytes,
        write_bytes=result.offloaded_bytes,
        write_busy_s=write_busy,
        read_bytes=result.loaded_bytes,
        read_busy_s=read_busy,
        stall_time_s=result.io_stall_time_s,
    )


def one_shot_budget(segments: List[SegmentSpec], conditions: StepConditions,
                    safety_factor: float = 0.9) -> int:
    """The paper's Fig. 3 sizing: profile one uncapped step, size the
    offload budget once for ``conditions``' bandwidth.  The profile does
    not depend on bandwidth, so the re-tune for a degraded array is this
    call with the degraded bandwidth."""
    probe = StepSimulator(
        segments, PlacementStrategy.OFFLOAD, conditions.write_bandwidth,
        conditions.read_bandwidth, num_microbatches=conditions.num_microbatches,
        io_latency_s=conditions.io_latency_s, io_mode="fifo",
    ).run()
    profile = WorkloadProfile(
        activation_bytes_per_step=probe.offloaded_bytes + probe.kept_bytes,
        forward_time_s=probe.forward_time_s,
        backward_time_s=probe.backward_time_s,
    )
    return choose_offload_budget(profile, conditions.write_bandwidth,
                                 conditions.read_bandwidth, safety_factor=safety_factor)


def simulate_run(
    segments: List[SegmentSpec],
    scenario: Scenario,
    policy: Optional[OffloadPolicy] = None,
    controller: Optional[AutotuneController] = None,
    keep_last_segments: int = 2,
    prefetch_segments: int = 2,
    weight_update_s: float = 0.0,
    dtype_bytes: int = 2,
    cpu_pool_bytes: Optional[int] = None,
) -> RunResult:
    """Play one :class:`StepSimulator` step per ``scenario.conditions``
    entry, optionally closing the loop.

    Without a controller this is the static arm: whatever budget the
    policy carries stays in force for the whole run (the paper's one-shot
    sizing).  With a controller, each step's timeline is folded into the
    EWMA estimators and a re-tuned budget is installed into the (shared,
    mutable) policy before the next step: an
    ``observe -> choose_offload_budget -> install`` loop.

    Every step queues on one shared FIFO SSD lane (``io_mode="fifo"``):
    there a stale budget's store backlog, retry replays and latency
    spikes all land in front of backward's loads.
    """
    policy = policy if policy is not None else OffloadPolicy()
    run = RunResult(scenario=scenario, results=[], budgets=[], decisions=[])
    for c in scenario.conditions:
        sim = StepSimulator(
            segments, PlacementStrategy.OFFLOAD, c.write_bandwidth, c.read_bandwidth,
            policy=policy, num_microbatches=c.num_microbatches,
            prefetch_segments=prefetch_segments, keep_last_segments=keep_last_segments,
            io_latency_s=c.io_latency_s, dtype_bytes=dtype_bytes,
            cpu_pool_bytes=cpu_pool_bytes, io_mode="fifo",
        )
        run.budgets.append(policy.config.offload_budget_bytes)
        result = sim.run(weight_update_s=weight_update_s)
        run.results.append(result)
        if controller is not None:
            decision = controller.observe(_observation_from_sim(result))
            run.decisions.append(decision)
            if decision.retuned:
                policy.install_budget(decision.offload_budget_bytes)
    return run


# --------------------------------------------------------------------------
# Multi-tenant contention harness
# --------------------------------------------------------------------------

#: Bandwidth of the tenant harness's shared device (bytes per virtual
#: second).  The absolute value is immaterial — every metric the harness
#: reports is a ratio over it.
TENANT_DEVICE_BW = 256e6


@dataclass(frozen=True)
class TenantJobSpec:
    """One tenant's synthetic offload burst for :class:`MultiTenantHarness`:
    ``num_tensors`` stores of ``tensor_bytes`` each, submitted
    back-to-back; over ``byte_quota`` they are rejected at admission."""

    name: str
    weight: float = 1.0
    num_tensors: int = 32
    tensor_bytes: int = 64 << 10
    byte_quota: Optional[int] = None


@dataclass
class TenantRunMetrics:
    """Per-tenant outputs of one harness run (virtual-clock time base)."""

    name: str
    weight: float
    executed_bytes: int
    rejected_bytes: int
    #: Virtual time at which the tenant's last byte landed on the device.
    finish_time_s: float
    #: executed bytes / finish time — completion bandwidth.
    bandwidth: float
    #: Bytes this tenant moved while *every* tenant still had queued work
    #: (up to the first tenant's completion) — the contended-window share
    #: that fair-share scheduling equalises and FIFO does not.
    contended_bytes: int


@dataclass
class MultiTenantRunResult:
    """Outputs of one :class:`MultiTenantHarness` run."""

    tenants: Dict[str, TenantRunMetrics]
    #: Jain's fairness index over the weight-normalised contended-window
    #: byte shares (1.0 = perfectly proportional service).
    contended_jain: float
    #: Jain's index over weight-normalised completion bandwidths.
    bandwidth_jain: float


class MultiTenantHarness:
    """Drive N tenant bursts through one shared-lane scheduler and measure
    who got what.

    The A/B axis is ``fair``: ``True`` runs the scheduler's weighted
    deficit-round-robin dequeue (one
    :class:`~repro.io.tenancy.TenantRegistry` shared with admission);
    ``False`` runs the same queue with ``fifo=True`` (strict submission
    order) — the naive baseline whose head-of-line bias the fairness
    suite quantifies.  Every burst is queued before the lane is served
    (the contended window the fairness metrics are defined over), and
    the lane is served on the virtual clock one request at a time, so
    service order is dequeue order and the numbers are exact.
    """

    def __init__(self, jobs: List[TenantJobSpec], fair: bool = True) -> None:
        if not jobs:
            raise ValueError("need at least one tenant job")
        names = [job.name for job in jobs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")
        self.jobs = jobs
        self.fair = fair

    def run(self) -> MultiTenantRunResult:
        registry = TenantRegistry()
        for job in self.jobs:
            registry.register(job.name, weight=job.weight, byte_quota=job.byte_quota)
        io = VirtualIO(("ssd",), fifo=not self.fair, io_latency_s=0.0, tenants=registry)
        served: List[IORequest] = []

        def record(event: str, request: IORequest) -> None:
            if event == "done":
                served.append(request)

        io.scheduler.add_listener(record)
        names = [job.name for job in self.jobs]
        rejected = dict.fromkeys(names, 0)
        try:
            for job in self.jobs:
                for i in range(job.num_tensors):
                    try:
                        io.submit("ssd", "store", Priority.STORE, job.tensor_bytes,
                                  TENANT_DEVICE_BW, label=f"{job.name}:{i}", tenant=job.name)
                    except TenantQuotaError:
                        rejected[job.name] += job.tensor_bytes
        finally:
            io.close()

        executed = dict.fromkeys(names, 0)
        finish = dict.fromkeys(names, 0.0)
        for request in served:
            executed[request.tenant] += request.nbytes
            finish[request.tenant] = request.finished_at
        # The contended window closes when the first tenant runs dry —
        # beyond it the survivors split idle capacity, which says nothing
        # about fairness under contention.
        window_end = min((finish[t] for t in names if executed[t]), default=0.0)
        contended = dict.fromkeys(names, 0)
        for request in served:
            if request.finished_at <= window_end + 1e-12:
                contended[request.tenant] += request.nbytes
        metrics = {
            job.name: TenantRunMetrics(
                name=job.name,
                weight=job.weight,
                executed_bytes=executed[job.name],
                rejected_bytes=rejected[job.name],
                finish_time_s=finish[job.name],
                bandwidth=executed[job.name] / finish[job.name] if finish[job.name] > 0 else 0.0,
                contended_bytes=contended[job.name],
            )
            for job in self.jobs
        }
        active = [m for m in metrics.values() if m.executed_bytes]
        return MultiTenantRunResult(
            tenants=metrics,
            contended_jain=jain_index([m.contended_bytes / m.weight for m in active]),
            bandwidth_jain=jain_index([m.bandwidth / m.weight for m in active]),
        )
