"""Fig. 1: GPU FP16 throughput tracks LLM sizes; memory capacity lags.

Regenerates the three trend series and their fitted annual growth rates,
and checks the headline ratio (memory grows at a fraction of compute).
"""

from repro.analysis.scaling import (
    activation_growth_exponent,
    fig1_series,
    memory_to_compute_growth_ratio,
)

from benchmarks.conftest import emit


def test_fig1_trend_series():
    series = fig1_series()
    lines = []
    for key, entry in series.items():
        lines.append(f"{key:<11} growth {100 * entry['growth_per_year']:6.1f} %/yr  "
                     f"({len(entry['points'])} releases)")
        for p in entry["points"]:
            lines.append(f"    {p.year:7.1f}  {p.name:<14} {p.value:.3e}")
    ratio = memory_to_compute_growth_ratio()
    lines.append(f"memory/compute growth ratio: {ratio:.2f}  (paper: ~0.41)")
    lines.append(
        f"activation growth exponent S_act ~ C^{activation_growth_exponent():.3f}"
        "  (paper: 5/6)"
    )
    emit("Fig. 1 — scaling trends", lines)
    assert series["gpu_flops"]["growth_per_year"] > series["gpu_memory"]["growth_per_year"]
    assert 0.25 < ratio < 0.55
