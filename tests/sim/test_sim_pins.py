"""The simulator's numbers, pinned to the last float.

Each expected value below is the ``repr`` the simulator produced when
these pins were taken.  A change that means to move a simulated number
re-pins it here, in the diff, with the reason; any other change must
leave every one of them bit-identical.
"""

from repro.core.autotune import AutotuneController
from repro.core.policy import OffloadPolicy, PolicyConfig
from repro.device.ssd import INTEL_OPTANE_P5800X_1600GB as P5800X
from repro.models.config import ModelConfig
from repro.sim import (
    MultiTenantHarness,
    Scenario,
    StepConditions,
    TenantJobSpec,
    build_segments,
    one_shot_budget,
    simulate_run,
    simulate_strategy,
)
from repro.train.parallel import ParallelismConfig
from repro.train.trainer import PlacementStrategy

PAR = ParallelismConfig(tp=2)
CFG = ModelConfig(arch="bert", hidden=12288, num_layers=3, seq_len=1024)


def _numbers(result):
    return (
        result.step_time_s, result.io_stall_time_s, result.activation_peak_bytes,
        result.offloaded_bytes, result.loaded_bytes, result.forwarded_bytes,
        result.offloaded_cpu_bytes, result.offloaded_ssd_bytes,
    )


def _one_ssd(**kw):
    return simulate_strategy(
        CFG, 16, PlacementStrategy.OFFLOAD, P5800X.write_bw, P5800X.read_bw,
        parallelism=PAR, **kw,
    )


def test_duplex_step_is_pinned():
    assert repr(_numbers(_one_ssd(io_mode="duplex"))) == (
        "(2.0125273674770616, 0.0, 10505191424, 8455716864, 4831838208, "
        "3623878656, 0, 8455716864)"
    )


def test_fifo_step_is_pinned():
    assert repr(_numbers(_one_ssd(io_mode="fifo"))) == (
        "(2.4786663613104363, 0.46613899383337487, 10505191424, 8455716864, "
        "4831838208, 3623878656, 0, 8455716864)"
    )


def test_tiered_step_is_pinned():
    assert repr(_numbers(_one_ssd(cpu_pool_bytes=2 * 2**30))) == (
        "(2.0125273674770616, 0.0, 9297231872, 8455716864, 6039797760, "
        "2415919104, 2013265920, 6442450944)"
    )


def test_adaptive_step_drop_run_is_pinned():
    segments = build_segments(CFG, 16, parallelism=PAR)
    budget = one_shot_budget(segments, StepConditions(P5800X.write_bw, P5800X.read_bw))
    assert budget == 7040594335
    run = simulate_run(
        segments,
        Scenario.step_drop(P5800X.write_bw, P5800X.read_bw, steps=6, drift_step=3),
        policy=OffloadPolicy(PolicyConfig(offload_budget_bytes=budget)),
        controller=AutotuneController(),
    )
    assert run.budgets == [
        7040594335, 5982597112, 5085145395, 5085145395, 3242004741, 2701771695,
    ]
    decisions = [
        (d.retuned, d.offload_budget_bytes, d.prefetch_window,
         d.write_bandwidth_bytes_per_s, d.read_bandwidth_bytes_per_s)
        for d in run.decisions
    ]
    assert repr(decisions) == (
        "[(True, 5982597112, 5, 6098055103.780248, 7197425999.879887), "
        "(True, 5085145395, 5, 6097980575.017513, 7197425999.879889), "
        "(False, 5085145395, 5, 6098066447.07672, 7197425999.879887), "
        "(True, 3242004741, 4, 4573802228.446318, 7196997204.325521), "
        "(True, 2701771695, 4, 3811644457.3293753, 7196782806.548338), "
        "(True, 2431626590, 4, 3430525247.827586, 7196675607.659746)]"
    )
    assert repr([r.io_stall_time_s for r in run.results]) == (
        "[0.33410155645632567, 0.07000668170222712, 0.0, 0.4603982672759983, 0.0, 0.0]"
    )


def _tenants(fair):
    jobs = [TenantJobSpec(name=f"job{i}", num_tensors=24, tensor_bytes=48 << 10) for i in range(4)]
    result = MultiTenantHarness(jobs, fair=fair).run()
    per_tenant = {m.name: (m.contended_bytes, m.finish_time_s) for m in result.tenants.values()}
    return repr((result.contended_jain, result.bandwidth_jain)), repr(per_tenant)


def test_fair_tenant_run_is_pinned():
    assert _tenants(fair=True) == (
        "(0.9985207100591716, 0.9994215909506635)",
        "{'job0': (1179648, 0.017279999999999993), 'job1': (1081344, 0.017663999999999996), "
        "'job2': (1081344, 0.018047999999999998), 'job3': (1081344, 0.018432)}",
    )


def test_fifo_tenant_run_is_pinned():
    assert _tenants(fair=False) == (
        "(0.25, 0.7621951219512195)",
        "{'job0': (1179648, 0.004608), 'job1': (0, 0.009216000000000002), "
        "'job2': (0, 0.013823999999999989), 'job3': (0, 0.018432)}",
    )
