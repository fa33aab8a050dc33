"""Fig. 8(a): breakdown of the throughput boost from larger micro-batches
(3-layer BERT, H=12288, vs batch size 1).

Shape targets: improvement grows with batch size and "primarily comes from
time saving by weights update" — the update-amortization share exceeds the
GEMM-efficiency share at every batch size.
"""

from repro.analysis.microbatch import microbatch_breakdown
from repro.models.config import ModelConfig

from benchmarks.conftest import EVAL_PARALLELISM, emit

CONFIG = ModelConfig(arch="bert", hidden=12288, num_layers=3, seq_len=1024)


def test_fig8a_microbatch_breakdown():
    rows = microbatch_breakdown(CONFIG, (2, 4, 8, 16), parallelism=EVAL_PARALLELISM)
    lines = [f"{'B':>3} {'total':>8} {'weights update':>15} {'compute eff':>12}"]
    for r in rows:
        lines.append(
            f"{r.batch_size:>3} {r.total_improvement:>7.1%} "
            f"{r.update_saving_improvement:>14.1%} {r.efficiency_improvement:>11.1%}"
        )
    emit("Fig. 8(a) — throughput improvement over B=1, decomposed", lines)

    improvements = [r.total_improvement for r in rows]
    assert improvements == sorted(improvements)
    for r in rows:
        assert r.update_saving_improvement > r.efficiency_improvement
        assert r.total_improvement > 0
