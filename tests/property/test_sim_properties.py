"""Property-based tests on the discrete-event simulator's invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.perf_model import ActivationTensor
from repro.sim.pipeline_offload import StageWorkload, simulate_pipeline_offload
from repro.sim.step_sim import RECOMPUTE_WORKSPACE_FACTOR, SegmentSpec, StepSimulator
from repro.train.pipeline import ScheduleKind
from repro.train.trainer import PlacementStrategy


def _segments(sizes):
    segments = []
    for i, nbytes in enumerate(sizes):
        acts = tuple(
            ActivationTensor(f"a{i}_{j}", max(1, nbytes // 2)) for j in range(2)
        )
        segments.append(
            SegmentSpec(
                name=f"seg{i}",
                forward_time_s=0.01,
                backward_time_s=0.02,
                forward_flops=1e9,
                activations=acts,
                input_bytes=nbytes // 4 or 1,
            )
        )
    return segments


@settings(deadline=None, max_examples=40)
@given(
    st.lists(st.integers(min_value=10**6, max_value=10**9), min_size=2, max_size=8),
    st.sampled_from(list(PlacementStrategy)),
    st.integers(min_value=1, max_value=3),
)
def test_step_sim_conservation_invariants(sizes, strategy, microbatches):
    sim = StepSimulator(
        _segments(sizes),
        strategy,
        write_bandwidth=25e9,
        read_bandwidth=25e9,
        num_microbatches=microbatches,
    )
    result = sim.run(weight_update_s=0.005)
    # Conservation: everything offloaded is either loaded back or forwarded.
    assert result.loaded_bytes + result.forwarded_bytes == result.offloaded_bytes
    # Time sanity: step covers compute + update; stall only with offload.
    assert result.step_time_s >= result.weight_update_time_s
    assert result.io_stall_time_s >= 0
    if strategy is not PlacementStrategy.OFFLOAD:
        assert result.offloaded_bytes == 0
    # Executed flops never below algorithmic; equal unless recomputing.
    assert result.executed_flops >= result.algorithmic_flops
    if strategy is not PlacementStrategy.RECOMPUTE:
        assert result.executed_flops == pytest.approx(result.algorithmic_flops)
    # Memory peak is positive and bounded by total produced bytes (the
    # recompute strategy transiently holds workspace_factor x a segment's
    # activations on top of the checkpoint inputs).
    total = sum(
        RECOMPUTE_WORKSPACE_FACTOR * s.activation_bytes + s.input_bytes
        for s in sim.segments
    ) * microbatches
    assert 0 < result.activation_peak_bytes <= total


@settings(deadline=None, max_examples=40)
@given(
    st.lists(st.integers(min_value=10**6, max_value=10**9), min_size=2, max_size=6),
    st.integers(min_value=1, max_value=3),
)
def test_step_sim_offload_never_slower_than_keep_at_high_bw(sizes, keep_last):
    """With the last module kept (keep_last >= 1, the Fig. 2 marker-4
    rule), high-bandwidth offloading never costs more than a few
    I/O-latency quanta.  keep_last=0 genuinely can stall: the very first
    backward segment's reload has no compute to hide behind — hypothesis
    found this, and it is exactly why the paper keeps the last module."""
    keep = StepSimulator(
        _segments(sizes), PlacementStrategy.KEEP, 1e12, 1e12
    ).run()
    off = StepSimulator(
        _segments(sizes),
        PlacementStrategy.OFFLOAD,
        1e12,
        1e12,
        keep_last_segments=keep_last,
    ).run()
    latency_slack = 10 * 20e-6 * len(sizes)
    assert off.step_time_s <= keep.step_time_s * 1.001 + latency_slack
    assert off.activation_peak_bytes <= keep.activation_peak_bytes


@settings(deadline=None, max_examples=20)
@given(st.lists(st.integers(min_value=10**8, max_value=10**9), min_size=2, max_size=4))
def test_step_sim_keep_last_zero_pays_first_reload(sizes):
    """The complementary property: without keep-last, the first backward
    segment either stalls on its reload or its store was still in flight
    (data forwarding) — it is never a free offload."""
    off = StepSimulator(
        _segments(sizes),
        PlacementStrategy.OFFLOAD,
        25e9,
        25e9,
        keep_last_segments=0,
    ).run()
    assert off.io_stall_time_s > 0 or off.forwarded_bytes > 0


@settings(deadline=None, max_examples=30)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=8),
    st.sampled_from(list(ScheduleKind)),
    st.integers(min_value=10**6, max_value=10**9),
)
def test_pipeline_offload_invariants(stages, microbatches, kind, nbytes):
    work = StageWorkload(0.01, 0.02, nbytes)
    result = simulate_pipeline_offload(
        work, stages, microbatches, 25e9, 25e9, kind=kind
    )
    for stage in result.stages:
        # Every micro-batch's activations are either offloaded or kept.
        assert stage.offloaded_bytes + stage.kept_bytes == microbatches * nbytes
        assert stage.io_stall_s >= 0
        assert 0 < stage.activation_peak_bytes <= microbatches * nbytes
    # Step time at least the ideal pipeline.
    assert result.step_time_s >= result.baseline_step_time_s - 1e-9
