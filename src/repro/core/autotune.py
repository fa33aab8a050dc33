"""Online adaptive offload controller: live re-sizing from observed bandwidth.

The paper sizes the activation offload budget **once**: "SSDTrain
retrieves ... GPU throughput and SSD bandwidth.  Then SSDTrain sets the
activation offload amount accordingly" (Fig. 3, reproduced as the
one-shot :func:`~repro.core.adaptive.choose_offload_budget`).  A static
budget is only right while the hardware keeps behaving like the profiled
step — real SSD arrays throttle under sustained writes, co-tenant jobs
steal array bandwidth, and batch shapes change mid-run.  When observed
bandwidth drops below the profile, a static budget pushes I/O onto the
backward critical path (stalls); when bandwidth recovers, it strands GPU
memory that could have been freed.

This module closes the loop the paper leaves open::

    IOScheduler "done" events         EWMA estimators       budget formula
     -> private IOTracer        ───►  write/read bw   ───►  choose_offload_budget
    cumulative books, differenced     fwd/bwd windows       with OBSERVED inputs
    (cache / tier / health / reap)    activation volume            │
                                                                   │ install
                 PolicyConfig.offload_budget_bytes  ◄──────────────┤
                 TensorCache.prefetch_window        ◄──────────────┤
                 TieredOffloader free watermark     ◄──────────────┘

One rule governs how the engine is observed: producers keep cumulative
books and emit events, consumers difference and aggregate.  The
controller is such a consumer — :meth:`AutotuneController.attach` hangs
a private :class:`~repro.io.trace.IOTracer` on the cache's scheduler,
and each step it subtracts its previous reading of the books everyone
else reads too.  Nothing is drained, so two controllers, a user tracer
and ``Engine.stats()`` all see the same numbers.

Every knob is re-derived per step from exponentially-weighted moving
averages and installed *between* steps (the budget is only consulted at
pack time, the prefetch window at backward entry, the watermark during
idle lanes), so a re-size never races in-flight I/O.  Hysteresis
(:attr:`ControllerConfig.retune_threshold`) keeps the controller from
thrashing the knobs on measurement noise.

The controller is engine-agnostic: :meth:`AutotuneController.observe`
takes a plain :class:`StepObservation` and returns a
:class:`ControllerDecision`, which is what the discrete-event simulator
drives (:func:`repro.sim.step_sim.simulate_run`);
:meth:`AutotuneController.on_step_end` is the functional-engine adapter
that builds the observation from the attached
:class:`~repro.core.tensor_cache.TensorCache` and installs the decision
through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, List, Optional, Tuple

from repro.core.adaptive import WorkloadProfile, choose_offload_budget
from repro.io.trace import IOTracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.tensor_cache import CacheStats


class EWMA:
    """Exponentially-weighted moving average with a bias-free first sample.

    ``alpha`` is the weight of the newest sample: after a step change in
    the underlying signal the estimate closes ``alpha`` of the remaining
    gap per update, so the residual error after ``n`` observations is
    ``(1 - alpha) ** n`` — with the default controller alpha of 0.5 a
    bandwidth drop is tracked to within ~3 % in five steps (the
    convergence budget the sim acceptance tests assert).
    """

    def __init__(self, alpha: float) -> None:
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1]: {alpha}")
        self.alpha = alpha
        self._value: Optional[float] = None

    @property
    def value(self) -> Optional[float]:
        return self._value

    def update(self, sample: float) -> float:
        if self._value is None:
            self._value = float(sample)
        else:
            self._value += self.alpha * (float(sample) - self._value)
        return self._value


@dataclass(frozen=True)
class StepObservation:
    """What the controller learns from one completed training step.

    The engine adapter assembles this from its tracer's per-lane channel
    use and the step's differences of the cumulative books; the
    simulator assembles it from the step's timeline.  Zero-valued
    bandwidth fields mean "no traffic observed this window" and leave
    the corresponding estimator untouched.
    """

    forward_time_s: float
    backward_time_s: float
    #: Eligible activation bytes produced this step (offloaded + kept).
    activation_bytes: int
    #: Bytes actually written to / read from the offload backends, and
    #: the channel-busy seconds they took (observed bandwidth = ratio).
    write_bytes: int = 0
    write_busy_s: float = 0.0
    read_bytes: int = 0
    read_busy_s: float = 0.0
    read_count: int = 0
    #: Completion-path latency (SQ/CQ backends: time completions sat on
    #: the completion queue before the reaper applied them).  Part of
    #: the effective per-read latency the prefetch window must cover;
    #: the thread backend completes inline and contributes 0.
    reap_lag_s: float = 0.0
    #: Offloaded-tensor shape of the step (prefetch-window sizing).
    stored_tensors: int = 0
    stored_bytes: int = 0
    #: Backward time lost waiting on loads — the AIMD backoff's trim
    #: signal.  ``forward_time_s``/``backward_time_s`` must be compute
    #: windows with this stall already excluded.
    stall_time_s: float = 0.0
    #: Tiered runs: pinned-pool influx and capacity (watermark sizing).
    cpu_stored_bytes: int = 0
    cpu_pool_capacity_bytes: int = 0
    #: Failure-recovery telemetry (scheduler lane health): terminal I/O
    #: failures observed this step, and lanes declared dead.  Failures
    #: trim the budget the way stall does — a flaky device earns less
    #: traffic; a dead write lane floors the backoff outright (the
    #: surviving tiers should not be sized as if the SSD still drained).
    io_failures: int = 0
    dead_lanes: Tuple[str, ...] = ()


@dataclass(frozen=True)
class ControllerConfig:
    """Tunable knobs of the feedback loop."""

    #: EWMA weight of the newest sample for every estimator.
    alpha: float = 0.5
    #: Headroom left under the observed bandwidth when re-running the
    #: budget formula (jitter insurance, same meaning as the one-shot's).
    safety_factor: float = 0.9
    #: Relative budget change below which no re-install happens
    #: (hysteresis against measurement noise).
    retune_threshold: float = 0.05
    #: Floor for the installed budget; 0 allows shutting offload off.
    min_budget_bytes: int = 0
    #: Prefetch-window clamp (records of look-ahead).
    min_prefetch_window: int = 2
    max_prefetch_window: int = 64
    #: Safety multiplier on the bandwidth-delay product when sizing the
    #: prefetch window.
    prefetch_margin: float = 2.0
    #: Fraction of the observed per-step pinned-pool influx kept free as
    #: headroom between steps (tiered backends only).
    watermark_fraction: float = 0.5
    #: Stall-aware backoff (the AIMD half of the loop).  The budget
    #: formula models independent store/load channels; on a shared,
    #: contended channel (or any effect the formula does not see) the
    #: formula budget can still stall backward.  Observed stall above
    #: ``stall_tolerance`` of the step's compute time multiplies the
    #: backoff by ``1 - stall_trim``; after ``recover_patience``
    #: stall-free steps it probes back up by ``recover_rate`` per step,
    #: never past the formula budget (backoff <= 1).
    stall_tolerance: float = 0.02
    stall_trim: float = 0.15
    recover_rate: float = 0.05
    recover_patience: int = 3
    min_backoff: float = 0.1


@dataclass(frozen=True)
class ControllerDecision:
    """One step's output: the knob values that should be in force.

    ``retuned`` is True when the budget moved beyond the hysteresis band
    and must be (re-)installed; consumers skip the install otherwise.
    ``prefetch_window`` / ``cpu_free_watermark_bytes`` are ``None`` when
    the step carried too little signal to size them.
    """

    step_index: int
    offload_budget_bytes: Optional[int]
    retuned: bool = False
    prefetch_window: Optional[int] = None
    cpu_free_watermark_bytes: Optional[int] = None
    #: The estimates behind the decision (benchmark / table surface).
    write_bandwidth_bytes_per_s: Optional[float] = None
    read_bandwidth_bytes_per_s: Optional[float] = None


@dataclass
class _Estimators:
    """The controller's EWMA bank (one instance per controller)."""

    write_bw: EWMA
    read_bw: EWMA
    read_latency_s: EWMA
    forward_s: EWMA
    backward_s: EWMA
    activation_bytes: EWMA
    tensor_bytes: EWMA
    cpu_influx_bytes: EWMA

    @classmethod
    def fresh(cls, alpha: float) -> "_Estimators":
        return cls(*(EWMA(alpha) for _ in range(8)))


@dataclass
class _Books:
    """One reading of the cumulative books (and the pool capacity)."""

    cache: "CacheStats"
    cpu_stored_bytes: int
    cpu_pool_capacity_bytes: int
    io_failures: int
    reaped: int
    reap_lag_s: float


class AutotuneController:
    """Per-step feedback loop around the paper's budget formula.

    Use :meth:`observe` with hand-built observations (the simulator
    path), or :meth:`attach` a live
    :class:`~repro.core.tensor_cache.TensorCache` and call
    :meth:`on_step_end` to both observe and install against it (the
    trainer does both)::

        controller = AutotuneController()
        trainer = Trainer(model, opt, gpu, strategy=PlacementStrategy.OFFLOAD,
                          cache=cache, controller=controller)

    ``history`` keeps every decision for A/B tables and tests.
    """

    def __init__(self, config: Optional[ControllerConfig] = None) -> None:
        self.config = config if config is not None else ControllerConfig()
        self.estimators = _Estimators.fresh(self.config.alpha)
        self.history: List[ControllerDecision] = []
        self._step_index = 0
        self._installed_budget: Optional[int] = None
        #: Multiplicative trim below the formula budget while stall is
        #: observed (1.0 = trust the formula).
        self._backoff = 1.0
        self._clean_steps = 0
        #: Set by :meth:`attach`: the observed cache, the private tracer
        #: on its scheduler, and the last reading of the cumulative books.
        self._cache: Any = None
        self._tracer = IOTracer()
        self._books: Optional[_Books] = None

    @property
    def installed_budget_bytes(self) -> Optional[int]:
        """The budget currently in force (None before the first retune)."""
        return self._installed_budget

    # ----------------------------------------------------------------- observe
    def observe(self, obs: StepObservation) -> ControllerDecision:
        """Fold one step's observation into the estimators and decide.

        Pure with respect to the engine: nothing is installed — the
        caller applies the returned decision (the cache's
        ``apply_autotune``, or the sim driver's policy mutation).
        """
        est = self.estimators
        if obs.forward_time_s > 0:
            est.forward_s.update(obs.forward_time_s)
        if obs.backward_time_s > 0:
            est.backward_s.update(obs.backward_time_s)
        if obs.activation_bytes > 0:
            est.activation_bytes.update(obs.activation_bytes)
        if obs.write_bytes > 0 and obs.write_busy_s > 0:
            est.write_bw.update(obs.write_bytes / obs.write_busy_s)
        if obs.read_bytes > 0 and obs.read_busy_s > 0:
            est.read_bw.update(obs.read_bytes / obs.read_busy_s)
        if obs.read_count > 0 and obs.read_busy_s > 0:
            # Busy time plus reap lag: what a blocking unpack actually
            # waits, so the prefetch window absorbs the completion path
            # too (zero under the inline-completing thread backend).
            est.read_latency_s.update(
                (obs.read_busy_s + obs.reap_lag_s) / obs.read_count
            )
        if obs.stored_tensors > 0 and obs.stored_bytes > 0:
            est.tensor_bytes.update(obs.stored_bytes / obs.stored_tensors)
        if obs.cpu_pool_capacity_bytes > 0:
            est.cpu_influx_bytes.update(obs.cpu_stored_bytes)
        self._update_backoff(obs)

        self._step_index += 1
        budget, retuned = self._retune_budget()
        decision = ControllerDecision(
            step_index=self._step_index,
            offload_budget_bytes=budget,
            retuned=retuned,
            prefetch_window=self._size_prefetch_window(),
            cpu_free_watermark_bytes=self._size_watermark(obs),
            write_bandwidth_bytes_per_s=est.write_bw.value,
            read_bandwidth_bytes_per_s=est.read_bw.value,
        )
        self.history.append(decision)
        return decision

    # ------------------------------------------------------------------ knobs
    def _update_backoff(self, obs: StepObservation) -> None:
        """AIMD trim under observed stall or I/O failures; slow probe
        upward when clean."""
        cfg = self.config
        if obs.dead_lanes:
            # A dead lane is not noise to average over: floor the
            # backoff until the device comes back (it will probe up
            # through the recovery path if the lane is revived).
            self._backoff = cfg.min_backoff
            self._clean_steps = 0
            return
        compute = obs.forward_time_s + obs.backward_time_s
        stalled = compute > 0 and obs.stall_time_s > cfg.stall_tolerance * compute
        if stalled or obs.io_failures > 0:
            self._backoff = max(cfg.min_backoff, self._backoff * (1 - cfg.stall_trim))
            self._clean_steps = 0
            return
        self._clean_steps += 1
        if self._clean_steps > cfg.recover_patience and self._backoff < 1.0:
            self._backoff = min(1.0, self._backoff * (1 + cfg.recover_rate))

    def _retune_budget(self) -> Tuple[Optional[int], bool]:
        """The paper's formula over observed inputs, plus hysteresis."""
        est = self.estimators
        write_bw = est.write_bw.value
        forward = est.forward_s.value
        backward = est.backward_s.value
        activations = est.activation_bytes.value
        if not write_bw or not forward or not backward or not activations:
            return self._installed_budget, False
        profile = WorkloadProfile(
            activation_bytes_per_step=int(activations),
            forward_time_s=forward,
            backward_time_s=backward,
        )
        formula = choose_offload_budget(
            profile,
            write_bandwidth_bytes_per_s=write_bw,
            read_bandwidth_bytes_per_s=est.read_bw.value,
            safety_factor=self.config.safety_factor,
        )
        recommended = max(self.config.min_budget_bytes, int(formula * self._backoff))
        installed = self._installed_budget
        if installed is not None and installed > 0:
            if abs(recommended - installed) / installed <= self.config.retune_threshold:
                return installed, False
        elif installed == recommended:
            return installed, False
        self._installed_budget = recommended
        return recommended, True

    def _size_prefetch_window(self) -> Optional[int]:
        """Bandwidth-delay product in records: the window must cover the
        tensors backward consumes during one load round-trip, or loads
        arrive late and the GPU stalls; anything deeper only inflates
        the prefetched resident set."""
        est = self.estimators
        backward = est.backward_s.value
        activations = est.activation_bytes.value
        latency = est.read_latency_s.value
        tensor_bytes = est.tensor_bytes.value
        if not backward or not activations or not latency or not tensor_bytes:
            return None
        consumption_rate = activations / backward
        window_bytes = consumption_rate * latency * self.config.prefetch_margin
        window = int(math.ceil(window_bytes / tensor_bytes)) + 1
        return max(
            self.config.min_prefetch_window,
            min(self.config.max_prefetch_window, window),
        )

    def _size_watermark(self, obs: StepObservation) -> Optional[int]:
        """Free headroom target for a tiered backend's pinned pool.

        Sized from the observed per-step pool influx: keeping a fraction
        of it free between steps lets the next forward burst land at
        PCIe speed instead of waiting on demotions it triggers itself.
        Shrinks automatically when the budget (and hence the influx)
        shrinks, so a degraded SSD is not hammered with pointless
        pre-demotions of warm data.
        """
        capacity = obs.cpu_pool_capacity_bytes
        influx = self.estimators.cpu_influx_bytes.value
        if capacity <= 0 or influx is None:
            return None
        watermark = int(self.config.watermark_fraction * influx)
        return max(0, min(watermark, capacity // 2))

    # --------------------------------------------------------- engine adapter
    def attach(self, cache: Any) -> None:
        """Start observing ``cache``: listen to its scheduler and take
        the first reading of the books."""
        self._cache = cache
        self._tracer.listen(cache.scheduler)
        self._books = self._read_books()

    def _read_books(self) -> _Books:
        cache = self._cache
        health = cache.scheduler.health
        lanes = cache.scheduler.backend_stats_snapshot().values()
        tiers = cache.offloader.stats_snapshot()
        return _Books(
            cache=replace(cache.stats),
            cpu_stored_bytes=tiers.cpu_stored_bytes if tiers is not None else 0,
            cpu_pool_capacity_bytes=(
                (cache.offloader.pool.capacity_bytes or 0) if tiers is not None else 0
            ),
            # Every tenant's failures count toward the device's signal.
            io_failures=sum(s.failures for s in health.snapshot().values())
            + sum(s.failures for s in health.tenant_snapshot().values()),
            reaped=sum(s.reaped for s in lanes),
            reap_lag_s=sum(s.reap_lag_s for s in lanes),
        )

    def step_observation(self, forward_time_s: float, backward_time_s: float) -> StepObservation:
        """What happened on the attached cache since the last call (or
        since :meth:`attach`): the tracer's channel use, summed across
        lanes, and the differences of the cumulative books.

        The trainer's ``backward_time_s`` is wall clock, which includes
        any time backward spent blocked in unpack waiting on loads; the
        cache times those waits (``unpack_wait_s``), so the stall is
        subtracted back out here.  Feeding the stall-inflated window
        into the budget formula would be a positive feedback loop —
        degraded bandwidth -> longer backward -> *larger* budget — and
        the stall itself must reach the AIMD trim instead.
        """
        if self._books is None:
            raise RuntimeError("attach(cache) before observing a live step")
        io = self._tracer.stats()
        self._tracer.reset()
        before, now = self._books, self._read_books()
        self._books = now
        step = now.cache.since(before.cache)
        stall_s = min(step.unpack_wait_s, backward_time_s)
        reaped = now.reaped - before.reaped
        return StepObservation(
            forward_time_s=forward_time_s,
            backward_time_s=backward_time_s - stall_s,
            activation_bytes=step.stored_bytes + step.kept_bytes,
            write_bytes=io.store_bytes,
            write_busy_s=io.store_busy_s,
            read_bytes=io.load_bytes,
            read_busy_s=io.load_busy_s,
            read_count=io.load_count,
            # The backend books reap lag per lane, not per channel: the
            # reads' share is the mean lag per reaped completion.
            reap_lag_s=(
                (now.reap_lag_s - before.reap_lag_s) * io.load_count / reaped if reaped else 0.0
            ),
            stored_tensors=step.stored_tensors,
            stored_bytes=step.stored_bytes,
            stall_time_s=stall_s,
            cpu_stored_bytes=now.cpu_stored_bytes - before.cpu_stored_bytes,
            cpu_pool_capacity_bytes=now.cpu_pool_capacity_bytes,
            io_failures=now.io_failures - before.io_failures,
            dead_lanes=self._cache.scheduler.health.dead_lanes(),
        )

    def on_step_end(self, forward_time_s: float, backward_time_s: float) -> ControllerDecision:
        """Observe one live step and install the decision through the
        attached cache (``cache.apply_autotune``); hooked by the
        :class:`~repro.train.trainer.Trainer` after every step."""
        decision = self.observe(self.step_observation(forward_time_s, backward_time_s))
        self._cache.apply_autotune(decision)
        return decision

