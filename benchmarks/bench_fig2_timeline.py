"""Fig. 2: SSDTrain timeline of a 2-micro-batch, 3-layer model step.

Regenerates the schedule sketch: offloading starts as each layer's forward
finishes, prefetching runs in reverse layer order during backward, and the
last module's activations are kept (its backward follows immediately).
"""

from repro.models.config import ModelConfig
from repro.sim import StepSimulator, build_segments
from repro.train.trainer import PlacementStrategy

from benchmarks.conftest import EVAL_PARALLELISM, SSD_READ_BW, SSD_WRITE_BW, emit


def _run():
    config = ModelConfig(arch="bert", hidden=12288, num_layers=3, seq_len=1024)
    segments = build_segments(config, 16, parallelism=EVAL_PARALLELISM)
    sim = StepSimulator(
        segments,
        PlacementStrategy.OFFLOAD,
        write_bandwidth=SSD_WRITE_BW,
        read_bandwidth=SSD_READ_BW,
        num_microbatches=2,
        keep_last_segments=2,  # the Fig. 2 sketch keeps L3 as well
    )
    return sim.run(weight_update_s=0.02)


def test_fig2_timeline():
    result = _run()
    lines = result.timeline.render_ascii(width=96, lanes=["gpu", "store", "load"]).splitlines()
    lines.append(
        f"step={result.step_time_s * 1e3:.0f} ms, stall={result.io_stall_time_s * 1e3:.1f} ms, "
        f"offloaded={result.offloaded_bytes / 2**30:.1f} GiB over 2 micro-batches"
    )
    emit("Fig. 2 — step timeline (F/B on gpu lane, s/l on I/O lanes)", lines)
    # The sketch's invariants: I/O lanes are busy, the GPU never stalls.
    assert result.timeline.lane_busy_time("store") > 0
    assert result.timeline.lane_busy_time("load") > 0
    assert result.io_stall_time_s < 0.01 * result.step_time_s
