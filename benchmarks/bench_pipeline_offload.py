"""Extension bench: activation offloading inside a 1F1B pipeline.

The Fig. 2 setting at pipeline scale: every stage offloads its warmup
micro-batches and keeps the immediately-consumed ones (the marker-4 rule
emerges from the schedule).  Checks that the offloaded pipeline matches the
ideal pipeline step time while cutting the first stage's activation
inventory — the memory that limits micro-batch size in PP training
(Sec. IV-D).
"""

from repro.sim import StageWorkload, simulate_pipeline_offload

from benchmarks.conftest import SSD_READ_BW, SSD_WRITE_BW, emit

#: One pipeline stage of a Fig. 6-sized model: ~3 layers, ~4 GB/micro-batch.
WORK = StageWorkload(forward_time_s=0.6, backward_time_s=1.2, activation_bytes=4 * 10**9)


def _run():
    rows = []
    for stages, microbatches in ((4, 8), (8, 16), (12, 24)):
        keep = simulate_pipeline_offload(
            WORK, stages, microbatches, SSD_WRITE_BW, SSD_READ_BW, offload=False
        )
        off = simulate_pipeline_offload(
            WORK, stages, microbatches, SSD_WRITE_BW, SSD_READ_BW, offload=True
        )
        rows.append((stages, microbatches, keep, off))
    return rows


def test_pipeline_offload_scaling():
    rows = _run()
    lines = [
        f"{'PP':>3} {'m':>3} | {'overhead':>9} {'stall':>8} | "
        f"{'stage-0 keep':>13} {'stage-0 off':>12} {'reduction':>9}"
    ]
    for stages, microbatches, keep, off in rows:
        keep0 = keep.stages[0].activation_peak_bytes
        off0 = off.stages[0].activation_peak_bytes
        lines.append(
            f"{stages:>3} {microbatches:>3} | {off.overhead:>8.2%} "
            f"{off.total_io_stall_s * 1e3:>6.1f}ms | {keep0 / 2**30:>11.1f}GB "
            f"{off0 / 2**30:>10.1f}GB {1 - off0 / keep0:>8.0%}"
        )
    emit("Extension — offloading under 1F1B pipeline parallelism", lines)

    for stages, microbatches, keep, off in rows:
        assert off.overhead < 0.02, f"PP{stages}"
        keep0 = keep.stages[0].activation_peak_bytes
        off0 = off.stages[0].activation_peak_bytes
        assert off0 < keep0, f"PP{stages}"
        # Keep-last emerges: the final stage never offloads.
        assert off.stages[-1].offloaded_bytes == 0
    # Deeper pipelines benefit more (bigger warmup inventory).
    reductions = [
        1 - off.stages[0].activation_peak_bytes / keep.stages[0].activation_peak_bytes
        for _, _, keep, off in rows
    ]
    assert reductions == sorted(reductions)
