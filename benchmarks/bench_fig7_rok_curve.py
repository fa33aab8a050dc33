"""Fig. 7: the recompute-offload-keep (ROK) curve for 3-layer BERT at
hidden 12288 and 14336, batch sizes {4, 8, 16}.

Shape targets: per batch size, offload < recompute < keep in activation
peak; offload == keep in model throughput; recompute loses throughput; and
larger batches climb the throughput axis (SSDTrain "allowing a larger
batch size to attain higher throughput").
"""

import pytest

from repro.models.config import ModelConfig
from repro.sim import simulate_strategy
from repro.train.trainer import PlacementStrategy

from benchmarks.conftest import EVAL_PARALLELISM, SSD_READ_BW, SSD_WRITE_BW, emit


def _rok_points(hidden):
    config = ModelConfig(arch="bert", hidden=hidden, num_layers=3, seq_len=1024)
    points = []
    for batch in (4, 8, 16):
        for strategy in PlacementStrategy:
            r = simulate_strategy(
                config, batch, strategy, SSD_WRITE_BW, SSD_READ_BW,
                parallelism=EVAL_PARALLELISM,
            )
            points.append((batch, strategy, r))
    return points


@pytest.mark.parametrize("hidden", [12288, 14336])
def test_fig7_rok_curve(hidden):
    points = _rok_points(hidden)
    lines = [f"{'B':>3} {'strategy':<10} {'act peak':>9} {'throughput':>12}"]
    for batch, strategy, r in points:
        lines.append(
            f"{batch:>3} {strategy.value:<10} {r.activation_peak_bytes / 2**30:>7.2f}GB "
            f"{r.model_throughput_tflops():>9.1f} TF/s"
        )
    emit(f"Fig. 7 — ROK curve, BERT H{hidden} L3", lines)

    by_batch = {}
    for batch, strategy, r in points:
        by_batch.setdefault(batch, {})[strategy] = r
    for batch, row in by_batch.items():
        keep = row[PlacementStrategy.KEEP]
        off = row[PlacementStrategy.OFFLOAD]
        rec = row[PlacementStrategy.RECOMPUTE]
        assert off.activation_peak_bytes < rec.activation_peak_bytes < keep.activation_peak_bytes
        assert off.model_throughput_tflops() == pytest.approx(
            keep.model_throughput_tflops(), rel=0.01
        )
        assert rec.model_throughput_tflops() < keep.model_throughput_tflops()
    # Larger batches attain higher throughput along the offload frontier.
    tputs = [
        by_batch[b][PlacementStrategy.OFFLOAD].model_throughput_tflops()
        for b in (4, 8, 16)
    ]
    assert tputs == sorted(tputs)
