"""Tests for the pipeline-parallel offload simulator (the Fig. 2 setting)."""

import pytest

from repro.sim.pipeline_offload import StageWorkload, simulate_pipeline_offload
from repro.train.pipeline import ScheduleKind

#: A layer-stack stage sized like one Fig. 6 layer (3.75 GB, ~1 s F+B)
WORK = StageWorkload(forward_time_s=0.25, backward_time_s=0.5, activation_bytes=4 * 10**9)
FAST_BW = 25e9


def _run(offload=True, stages=3, microbatches=4, kind=ScheduleKind.ONE_F_ONE_B, **kw):
    return simulate_pipeline_offload(
        WORK, stages, microbatches, FAST_BW, FAST_BW, kind=kind, offload=offload, **kw
    )


def test_no_offload_matches_ideal_pipeline_time():
    result = _run(offload=False)
    assert result.step_time_s == pytest.approx(result.baseline_step_time_s)
    assert result.total_io_stall_s == 0.0
    assert all(s.offloaded_bytes == 0 for s in result.stages)


@pytest.mark.parametrize("kind", list(ScheduleKind))
def test_keep_everything_gpu_lane_is_the_plain_pipeline(kind):
    """One schedule walker: without offloading the offload simulator's
    GPU lane is :func:`simulate_pipeline`'s timeline, task for task."""
    from repro.train.pipeline import simulate_pipeline

    plain = simulate_pipeline(3, 4, WORK.forward_time_s, WORK.backward_time_s, kind)
    gpu_lane = [e for e in _run(offload=False, kind=kind).timeline.events if e.lane == "gpu"]
    assert [(e.label, e.start, e.end) for e in gpu_lane] == [
        (f"{t.kind}{t.microbatch}s{t.stage}", t.start, t.end) for t in plain.tasks
    ]


def test_offload_zero_overhead_at_full_bandwidth():
    result = _run(offload=True)
    assert result.overhead < 0.01
    assert result.total_io_stall_s < 0.01 * result.step_time_s


def test_stage0_holds_the_1f1b_inventory_without_offload():
    """Stage 0 of a p-stage 1F1B pipeline holds min(p, m) micro-batches."""
    result = _run(offload=False, stages=3, microbatches=4)
    assert result.stages[0].activation_peak_bytes == 3 * WORK.activation_bytes
    # The last stage alternates F/B: one micro-batch resident.
    assert result.stages[-1].activation_peak_bytes == WORK.activation_bytes


def test_offload_cuts_stage0_peak():
    """Deeper pipelines hold more warmup micro-batches on stage 0; the
    offloaded steady state holds only the in-flight working set."""
    keep = _run(offload=False, stages=6, microbatches=12)
    off = _run(offload=True, stages=6, microbatches=12)
    assert keep.stages[0].activation_peak_bytes == 6 * WORK.activation_bytes
    assert (
        off.stages[0].activation_peak_bytes
        < 0.7 * keep.stages[0].activation_peak_bytes
    )


def test_fig2_keep_rule_emerges_from_schedule():
    """The last stage's F is immediately followed by its B (Fig. 2 marker
    4): its activations are kept, never offloaded."""
    result = _run(offload=True, stages=3, microbatches=2)
    last = result.stages[-1]
    assert last.offloaded_bytes == 0
    assert last.kept_bytes == 2 * WORK.activation_bytes
    # Earlier stages do offload their warmup micro-batches.
    assert result.stages[0].offloaded_bytes > 0


def test_gpipe_offloads_more_than_1f1b():
    """GPipe separates every F from its B, so everything offloads; 1F1B's
    steady state keeps the immediately-consumed micro-batches."""
    gpipe = _run(kind=ScheduleKind.GPIPE, stages=3, microbatches=4)
    one_f = _run(kind=ScheduleKind.ONE_F_ONE_B, stages=3, microbatches=4)
    total_gpipe = sum(s.offloaded_bytes for s in gpipe.stages)
    total_1f1b = sum(s.offloaded_bytes for s in one_f.stages)
    assert total_gpipe > total_1f1b


def test_slow_array_forwards_or_stalls():
    slow = simulate_pipeline_offload(WORK, 3, 4, 2e9, 2e9)
    assert (
        sum(s.forwarded_bytes for s in slow.stages) > 0
        or slow.total_io_stall_s > 0
    )


def test_single_stage_degenerates_to_alternating():
    result = _run(stages=1, microbatches=3)
    # Every F is followed by its B: all kept, nothing offloaded.
    assert result.stages[0].offloaded_bytes == 0
    assert result.overhead == pytest.approx(0.0, abs=1e-9)


def test_validation():
    with pytest.raises(ValueError):
        StageWorkload(0, 1, 1)
    with pytest.raises(ValueError):
        simulate_pipeline_offload(WORK, 0, 1, 1e9, 1e9)
    with pytest.raises(ValueError):
        simulate_pipeline_offload(WORK, 1, 1, 0, 1e9)


def test_timeline_lanes_present():
    result = _run()
    lanes = {e.lane for e in result.timeline.events}
    assert "gpu" in lanes and "store" in lanes
