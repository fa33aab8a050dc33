"""The per-step conditions every multi-step simulated run plays.

Each ``Scenario`` constructor is pinned step by step against literal
values, so a change to any schedule's arithmetic (the drift progress,
the seeded fault-rate jitter, the retry derating, the failover switch)
shows up here before it moves a stall or an overhead anywhere else.
"""

import pytest

from repro.sim import Scenario, StepConditions

WRITE = 6.1e9
READ = 7.2e9

NOMINAL = StepConditions(6100000000.0, 7200000000.0, 2e-05, 1)


def _bw(write, read=7200000000.0, latency=2e-05, microbatches=1):
    return StepConditions(write, read, latency, microbatches)


CASES = {
    "static": (
        lambda: Scenario.static(WRITE, READ, steps=3),
        None,
        [NOMINAL] * 3,
    ),
    "step_drop": (
        lambda: Scenario.step_drop(WRITE, READ, steps=8, drift_step=4, write_factor=0.5),
        4,
        [NOMINAL] * 4 + [_bw(3050000000.0)] * 4,  # read path untouched by default
    ),
    "ramp": (
        lambda: Scenario.ramp(
            WRITE, READ, steps=16, drift_step=4, ramp_steps=6, write_factor=0.4
        ),
        4,
        [NOMINAL] * 4
        + [
            _bw(5490000000.0),
            _bw(4880000000.0),
            _bw(4269999999.9999995),
            _bw(3660000000.0000005),
            _bw(3050000000.0),
        ]
        + [_bw(2440000000.0)] * 7,  # terminal factor reached and held
    ),
    "microbatch_resize": (
        lambda: Scenario.microbatch_resize(
            WRITE, READ, steps=6, drift_step=3, before=1, after=2
        ),
        3,
        [NOMINAL] * 3 + [_bw(6100000000.0, microbatches=2)] * 3,  # hardware stays put
    ),
    "transient": (
        lambda: Scenario.transient(WRITE, READ, steps=6, fault_rate=0.2, seed=3),
        None,
        [
            _bw(5124564019.605408, 6048665728.058842, 0.00040069032864563614),
            _bw(5195569248.253755, 6132475178.2667265, 0.000368154632738358),
            _bw(4930323015.392503, 5819397657.512462, 0.0004944829014065641),
            _bw(5225902851.798091, 6168278775.892829, 0.0003545248363739313),
            _bw(4756179767.935094, 5613851529.366013, 0.0005850838688329601),
            _bw(5071792123.648573, 5986377588.568808, 0.0004254613640638527),
        ],
    ),
    "latency": (
        lambda: Scenario.latency(WRITE, READ, steps=3, fault_rate=0.5, spike_s=0.02, seed=1),
        None,
        [  # bandwidth is untouched by the latency shape
            _bw(6100000000.0, latency=0.009180443748622235),
            _bw(6100000000.0, latency=0.013227057371492674),
            _bw(6100000000.0, latency=0.010146082391214832),
        ],
    ),
    "lane_death": (
        lambda: Scenario.lane_death(
            WRITE, READ, steps=6, death_step=3, failover_bandwidth=20e9
        ),
        3,
        [NOMINAL] * 3 + [_bw(20000000000.0, 20000000000.0)] * 3,
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_scenario_conditions(name):
    build, event_step, expected = CASES[name]
    scenario = build()
    assert scenario.event_step == event_step
    assert scenario.steps == len(expected)
    for step, (got, want) in enumerate(zip(scenario.conditions, expected)):
        assert got == want, f"{name} step {step}: {got} != {want}"


def test_fault_schedules_are_seeded():
    scenario = Scenario.transient(WRITE, READ, steps=6, fault_rate=0.1, seed=3)
    assert Scenario.transient(WRITE, READ, steps=6, fault_rate=0.1, seed=3) == scenario
    other = Scenario.transient(WRITE, READ, steps=6, fault_rate=0.1, seed=4)
    assert other.conditions != scenario.conditions
    for c in scenario.conditions:
        assert c.write_bandwidth < WRITE and c.io_latency_s > 2e-05


@pytest.mark.parametrize(
    "build",
    [
        lambda: Scenario.static(WRITE, READ, steps=0),
        lambda: Scenario.static(0, READ, steps=4),
        lambda: Scenario.static(WRITE, READ, steps=4, num_microbatches=0),
        lambda: Scenario.step_drop(WRITE, READ, steps=4, drift_step=2, write_factor=0),
        lambda: Scenario.ramp(WRITE, READ, steps=4, drift_step=2, ramp_steps=0),
        lambda: Scenario.transient(WRITE, READ, steps=4, fault_rate=1.5),
        lambda: Scenario.transient(-1.0, READ, steps=4),
        lambda: Scenario.latency(WRITE, READ, steps=4, fault_rate=0.5, spike_s=-1.0),
        lambda: Scenario.lane_death(WRITE, READ, steps=4, death_step=2, failover_bandwidth=0),
    ],
    ids=[
        "no-steps", "zero-bandwidth", "zero-microbatches", "zero-factor",
        "zero-ramp", "rate-over-one", "negative-bandwidth", "negative-spike",
        "zero-failover",
    ],
)
def test_scenario_validation(build):
    with pytest.raises(ValueError):
        build()
