"""Table III: per-GPU offloaded tensor amount vs the model estimate, plus
the required PCIe write bandwidth, for BERT at the three (H, L) points
(batch 16, TP=2).

Shape targets: simulated offload within ~15% of the analytic estimate
(paper: within ~7%), and the required bandwidth decreasing as the hidden
dimension grows (paper: 18.0 -> 13.8 -> 8.76 GB/s).

Keep-last is narrowed to the loss head here (``keep_last_segments=1``) to
measure the maximal offload, matching the paper's Table III where the
measured amount covers all transformer-layer activations.
"""

from repro.analysis.perf_model import model_param_count, model_step_perf, weight_update_time
from repro.models.config import ModelConfig
from repro.sim import StepSimulator, build_segments
from repro.train.trainer import PlacementStrategy

from benchmarks.conftest import (
    EVAL_GRID,
    EVAL_PARALLELISM,
    SSD_READ_BW,
    SSD_WRITE_BW,
    emit,
)

PAPER = {8192: (10.37, 11.13, 18.0), 12288: (12.85, 12.60, 13.8), 16384: (10.75, 11.50, 8.76)}


def _run():
    rows = []
    for hidden, layers in EVAL_GRID:
        config = ModelConfig(arch="bert", hidden=hidden, num_layers=layers, seq_len=1024)
        segments = build_segments(config, 16, parallelism=EVAL_PARALLELISM)
        update = weight_update_time(
            EVAL_PARALLELISM.params_per_gpu(model_param_count(config))
        )
        sim = StepSimulator(
            segments,
            PlacementStrategy.OFFLOAD,
            write_bandwidth=SSD_WRITE_BW,
            read_bandwidth=SSD_READ_BW,
            keep_last_segments=1,
        )
        result = sim.run(weight_update_s=update)
        estimate = model_step_perf(
            config, 16, parallelism=EVAL_PARALLELISM
        ).activation_bytes_per_microbatch
        rows.append((hidden, layers, result, estimate))
    return rows


def test_table3_offload_amount():
    rows = _run()
    lines = [
        f"{'H':>6} {'L':>2} | {'offloaded':>10} {'estimate':>9} {'PCIe write BW':>14} "
        f"| paper: offloaded / estimate / BW"
    ]
    for hidden, layers, result, estimate in rows:
        p_off, p_est, p_bw = PAPER[hidden]
        lines.append(
            f"{hidden:>6} {layers:>2} | {result.offloaded_bytes / 1e9:>8.2f}GB "
            f"{estimate / 1e9:>7.2f}GB {result.required_write_bandwidth_gbps():>11.2f}GB/s "
            f"| {p_off:.2f} / {p_est:.2f} / {p_bw:.2f}"
        )
    emit("Table III — offloaded amount, model estimate, write bandwidth", lines)

    bws = []
    for hidden, layers, result, estimate in rows:
        # Estimate tracks the simulated offload (paper: "the figures are
        # close"); the estimate includes the kept logits, hence the margin.
        assert abs(result.offloaded_bytes - estimate) / estimate < 0.20
        bws.append(result.required_write_bandwidth_gbps())
    assert all(a > b for a, b in zip(bws, bws[1:]))  # decreasing with H
    assert bws[0] < 20.0 and bws[-1] > 6.0
