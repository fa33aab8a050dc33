"""Adaptive offload controller: per-step re-sizing from observed bandwidth.

The paper sizes the activation offload budget **once**: "SSDTrain
retrieves ... GPU throughput and SSD bandwidth.  Then SSDTrain sets the
activation offload amount accordingly" (Fig. 3, reproduced as the
one-shot :func:`~repro.core.adaptive.choose_offload_budget`).  A static
budget is only right while the hardware keeps behaving like the profiled
step; this module asks what re-running the same formula every step, over
observed inputs, would buy::

    StepObservation             EWMA estimators       budget formula
    (one simulated step)  ───►  write/read bw   ───►  choose_offload_budget
                                fwd/bwd windows       with OBSERVED inputs
                                activation volume            │ install
                 PolicyConfig.offload_budget_bytes  ◄────────┘

The discrete-event simulator drives it
(:func:`repro.sim.step_sim.simulate_run`, ``repro autotune``):
:meth:`AutotuneController.observe` takes a plain :class:`StepObservation`
and returns a :class:`ControllerDecision`, and the simulator installs a
re-tuned budget through ``OffloadPolicy.install_budget`` between steps.
Hysteresis (:attr:`ControllerConfig.retune_threshold`) keeps the
controller from thrashing the budget on measurement noise.

The functional engine sizes its budget once, as the paper does
(docs/architecture.md §5 says why).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.adaptive import WorkloadProfile, choose_offload_budget


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
    """What the controller learns from one simulated training step.

    The simulator assembles it from the step's timeline.  Zero-valued
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
    #: Backward time lost waiting on loads — the AIMD backoff's trim
    #: signal.  ``forward_time_s``/``backward_time_s`` must be compute
    #: windows with this stall already excluded.
    stall_time_s: float = 0.0


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
    """One step's output: the budget that should be in force.

    ``retuned`` is True when the budget moved beyond the hysteresis band
    and must be (re-)installed; consumers skip the install otherwise.
    """

    step_index: int
    offload_budget_bytes: Optional[int]
    retuned: bool = False
    #: The estimates behind the decision (benchmark / table surface).
    write_bandwidth_bytes_per_s: Optional[float] = None
    read_bandwidth_bytes_per_s: Optional[float] = None


@dataclass
class _Estimators:
    """The controller's EWMA bank (one instance per controller)."""

    write_bw: EWMA
    read_bw: EWMA
    forward_s: EWMA
    backward_s: EWMA
    activation_bytes: EWMA

    @classmethod
    def fresh(cls, alpha: float) -> "_Estimators":
        return cls(*(EWMA(alpha) for _ in range(5)))


class AutotuneController:
    """Per-step feedback loop around the paper's budget formula.

    Feed :meth:`observe` one :class:`StepObservation` per step and
    install each re-tuned decision's budget (``simulate_run`` does
    both)::

        run = simulate_run(segments, scenario, policy=policy,
                           controller=AutotuneController())

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

    @property
    def installed_budget_bytes(self) -> Optional[int]:
        """The budget currently in force (None before the first retune)."""
        return self._installed_budget

    # ----------------------------------------------------------------- observe
    def observe(self, obs: StepObservation) -> ControllerDecision:
        """Fold one step's observation into the estimators and decide.

        Nothing is installed: the caller applies the returned decision
        (the simulator's ``policy.install_budget``).
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
        self._update_backoff(obs)

        self._step_index += 1
        budget, retuned = self._retune_budget()
        decision = ControllerDecision(
            step_index=self._step_index,
            offload_budget_bytes=budget,
            retuned=retuned,
            write_bandwidth_bytes_per_s=est.write_bw.value,
            read_bandwidth_bytes_per_s=est.read_bw.value,
        )
        self.history.append(decision)
        return decision

    # ------------------------------------------------------------------ knobs
    def _update_backoff(self, obs: StepObservation) -> None:
        """AIMD trim under observed stall; slow probe upward when clean."""
        cfg = self.config
        compute = obs.forward_time_s + obs.backward_time_s
        stalled = compute > 0 and obs.stall_time_s > cfg.stall_tolerance * compute
        if stalled:
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
