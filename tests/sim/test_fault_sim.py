"""Fault scenarios played by the multi-step runner, A/B'd against their
clean twin (``Scenario.static`` at the same nominal bandwidth).  The
schedules themselves are pinned in ``test_scenarios.py``."""

import pytest

from repro.models import ModelConfig
from repro.sim import Scenario, build_segments, simulate_run
from repro.train.parallel import ParallelismConfig

WRITE_BW = 6.1e9
READ_BW = 7.2e9


@pytest.fixture(scope="module")
def segments():
    config = ModelConfig(arch="bert", hidden=4096, num_layers=2, seq_len=1024)
    return build_segments(config, 8, parallelism=ParallelismConfig(tp=2))


def _clean(segments, steps):
    return simulate_run(segments, Scenario.static(WRITE_BW, READ_BW, steps=steps))


def test_simulate_fault_run_transient_costs_but_completes(segments):
    scenario = Scenario.transient(WRITE_BW, READ_BW, steps=4, fault_rate=0.2, seed=0)
    run = simulate_run(segments, scenario)
    clean = _clean(segments, scenario.steps)
    assert len(run.results) == len(clean.results) == scenario.steps
    assert scenario.event_step is None
    # The retry tax is real but bounded: slower than clean, not broken.
    overhead = run.step_time_s() / clean.step_time_s() - 1.0
    assert 0 < overhead < 0.5
    assert run.stall_time_s() >= clean.stall_time_s()


def test_simulate_fault_run_lane_death_completes_via_failover(segments):
    scenario = Scenario.lane_death(WRITE_BW, READ_BW, steps=6, death_step=2)
    run = simulate_run(segments, scenario)
    clean = _clean(segments, scenario.steps)
    assert len(run.results) == scenario.steps
    assert scenario.event_step == 2
    # Pre-death steps match the clean twin exactly.
    for step in range(2):
        assert run.results[step].step_time_s == clean.results[step].step_time_s
    # Post-death steps drain via host memory (PCIe default) and finish.
    assert all(r.step_time_s > 0 for r in run.results[2:])


def test_latency_spike_scenario_adds_op_latency(segments):
    scenario = Scenario.latency(
        WRITE_BW, READ_BW, steps=3, fault_rate=0.5, spike_s=0.02, seed=1
    )
    run = simulate_run(segments, scenario)
    assert run.step_time_s() > _clean(segments, scenario.steps).step_time_s()
