"""Tests for the adaptive offload controller the simulator drives: the
EWMA estimators, the budget sizing with its hysteresis and stall
backoff, and the policy's budget install."""

import pytest

from repro.core import OffloadPolicy, PolicyConfig
from repro.core.adaptive import WorkloadProfile, choose_offload_budget
from repro.core.autotune import (
    EWMA,
    AutotuneController,
    ControllerConfig,
    StepObservation,
)

GB = 1024**3


def _obs(write_bw=6e9, read_bw=7e9, fwd=0.5, bwd=1.0, act=8 * GB, stall=0.0):
    """A synthetic steady-state observation at the given bandwidths."""
    return StepObservation(
        forward_time_s=fwd,
        backward_time_s=bwd,
        activation_bytes=act,
        write_bytes=int(write_bw * 0.4),  # 0.4 s of channel-busy writing
        write_busy_s=0.4,
        read_bytes=int(read_bw * 0.4),
        read_busy_s=0.4 if read_bw > 0 else 0.0,
        stall_time_s=stall,
    )


# ------------------------------------------------------------------------ EWMA
def test_ewma_validation():
    with pytest.raises(ValueError):
        EWMA(0)
    with pytest.raises(ValueError):
        EWMA(1.5)


def test_ewma_first_sample_unbiased():
    est = EWMA(0.3)
    assert est.value is None
    assert est.update(10.0) == 10.0


def test_ewma_tracks_step_change_within_five_updates():
    est = EWMA(0.5)
    est.update(100.0)
    for _ in range(5):
        est.update(50.0)
    assert abs(est.value - 50.0) / 50.0 < 0.05


# ------------------------------------------------------------------ controller
def test_controller_budget_matches_formula_on_steady_state():
    ctrl = AutotuneController()
    decision = ctrl.observe(_obs())
    assert decision.retuned
    expected = choose_offload_budget(
        WorkloadProfile(8 * GB, 0.5, 1.0), 6e9, 7e9,
        safety_factor=ctrl.config.safety_factor,
    )
    assert decision.offload_budget_bytes == expected
    assert ctrl.installed_budget_bytes == expected


def test_controller_hysteresis_skips_noise():
    ctrl = AutotuneController()
    first = ctrl.observe(_obs(write_bw=6e9))
    assert first.retuned
    # 2% bandwidth wobble: inside the 5% hysteresis band, no re-install.
    second = ctrl.observe(_obs(write_bw=6.12e9))
    assert not second.retuned
    assert second.offload_budget_bytes == first.offload_budget_bytes


def test_controller_converges_to_halved_bandwidth_within_five_steps():
    ctrl = AutotuneController()
    for _ in range(4):
        ctrl.observe(_obs(write_bw=6e9))
    before = ctrl.installed_budget_bytes
    for _ in range(5):
        decision = ctrl.observe(_obs(write_bw=3e9))
    oracle = choose_offload_budget(
        WorkloadProfile(8 * GB, 0.5, 1.0), 3e9, 7e9,
        safety_factor=ctrl.config.safety_factor,
    )
    assert decision.offload_budget_bytes < 0.6 * before
    assert abs(decision.offload_budget_bytes - oracle) / oracle < 0.1


def test_controller_requires_write_signal_before_retuning():
    ctrl = AutotuneController()
    decision = ctrl.observe(
        StepObservation(forward_time_s=0.5, backward_time_s=1.0, activation_bytes=GB)
    )
    assert not decision.retuned
    assert decision.offload_budget_bytes is None


def test_stall_trims_budget_and_recovery_probes_back():
    cfg = ControllerConfig(recover_patience=1)
    ctrl = AutotuneController(cfg)
    clean = ctrl.observe(_obs()).offload_budget_bytes
    stalled = ctrl.observe(_obs(stall=0.5)).offload_budget_bytes  # 33% of compute
    assert stalled < clean
    more = ctrl.observe(_obs(stall=0.5)).offload_budget_bytes
    assert more < stalled  # multiplicative decrease while stalling
    # Two clean steps beyond patience: the budget probes back up, but
    # never past the formula value.
    ctrl.observe(_obs())
    ctrl.observe(_obs())
    recovered = ctrl.observe(_obs()).offload_budget_bytes
    assert more < recovered <= clean


# -------------------------------------------------------------- budget install
def test_policy_install_budget():
    policy = OffloadPolicy(PolicyConfig(offload_budget_bytes=100))
    assert policy.install_budget(250) == 100
    assert policy.config.offload_budget_bytes == 250
    assert policy.install_budget(None) == 250
    assert policy.config.offload_budget_bytes is None
    with pytest.raises(ValueError):
        policy.install_budget(-1)
