"""Fig. 8(b): impact of upscaling on the required per-GPU SSD write
bandwidth (H=12288; PP x TP growing from the 2-GPU testbed, with sequence
parallelism sharding activations across the TP group).

Shape target: "In all projected cases, the write bandwidth per GPU is
smaller than the original 2-GPU case" (the orange dashed line), and deeper
pipelines need less bandwidth.
"""

from repro.analysis.microbatch import upscaling_write_bandwidth

from benchmarks.conftest import emit


def test_fig8b_upscaling_bandwidth():
    reference, points = upscaling_write_bandwidth()
    lines = [f"reference (2-GPU, TP2 PP1 L3): {reference:.1f} GB/s  <- orange dashed line"]
    for p in points:
        marker = "OK (below reference)" if p.write_bandwidth_gbps < reference else "ABOVE"
        lines.append(f"{p.label:<14} {p.write_bandwidth_gbps:>6.1f} GB/s   {marker}")
    emit("Fig. 8(b) — per-GPU write bandwidth under upscaling", lines)

    for p in points:
        assert p.write_bandwidth_gbps < reference, p.label
    tp8 = sorted((p for p in points if p.tp == 8), key=lambda p: p.pp)
    bws = [p.write_bandwidth_gbps for p in tp8]
    assert all(a >= b for a, b in zip(bws, bws[1:]))
