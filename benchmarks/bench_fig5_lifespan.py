"""Fig. 5: SSD lifespan, required PCIe write bandwidth, and maximal
activations per GPU for the large-scale deployment configurations.

Paper claims regenerated: lifespan > 2 years in every configuration, write
bandwidth per GPU bounded (paper: <= 12.1 GB/s), max activations 0.4-1.8
TB/GPU, and both metrics improving as the system scales up.

PR 9 extends the analytic projection with a **measured** endurance
budget: a real durable engine runs the service workload and its
:class:`~repro.core.engine.EnduranceStats` books (including GC write
amplification) feed the same bytes-per-GB-day lifespan arithmetic the
figure projects.
"""

from repro.analysis.ssd_model import project_all_fig5
from repro.core.engine import EngineConfig, build_engine
from repro.service import SyntheticWorkload

from benchmarks.conftest import emit


def test_fig5_deployment_projection():
    projections = project_all_fig5()
    header = f"{'configuration':<28} {'GPUs':>5}  {'write BW':>12}  {'lifespan':>9}  {'max act':>8}"
    lines = [header, "-" * len(header)]
    lines.extend(p.as_row() for p in projections)
    lines.append(
        f"max write BW = {max(p.required_write_bw_gbps for p in projections):.1f} GB/s "
        "(paper: <= 12.1); "
        f"min lifespan = {min(p.lifespan_years for p in projections):.2f} yr (paper: > 2)"
    )
    emit("Fig. 5 — SSD viability projection (4x Samsung 980 PRO per GPU)", lines)

    for p in projections:
        assert p.lifespan_years > 2.0, p.label
        assert p.required_write_bw_gbps < 20.0, p.label


def test_fig5_live_endurance_books(tmp_path):
    """The engine's measured endurance books close the loop on Fig. 5:
    ``bytes_per_gb_day`` from a real chunked-store run — GC write
    amplification included — is exactly the write-rate arithmetic the
    lifespan projection uses, so the projection can be re-based on
    telemetry from a long-running service instead of analytic bounds.
    """
    with build_engine(
        EngineConfig(
            target="ssd", store_dir=tmp_path, chunk_bytes=8 << 10, durable=True
        )
    ) as engine:
        SyntheticWorkload(seed=5).run(engine, steps=6)
        store = engine.chunk_store
        workload_bytes = store.bytes_written
        reclaimed = store.compact(max_dead_ratio=0.5)
        endurance = engine.stats().endurance

    assert endurance is not None and endurance.bytes_written > 0
    assert reclaimed > 0, "workload must leave the compactor real victims"
    # GC write amplification is charged to the endurance budget.
    assert endurance.gc_bytes_rewritten > 0
    assert endurance.bytes_written == workload_bytes + endurance.gc_bytes_rewritten

    capacity = 1600 * 10**9  # one P5800X-class device
    rate = endurance.write_rate_bytes_per_day
    per_gb_day = endurance.bytes_per_gb_day(capacity)
    assert rate > 0 and per_gb_day * (capacity / 1e9) == rate

    emit(
        "Fig. 5 (live) — measured endurance budget",
        [
            f"{endurance.bytes_written} bytes written "
            f"({endurance.gc_bytes_rewritten} GC amplification), "
            f"{per_gb_day:.1f} B/GB-day against a 1600 GB device",
        ],
    )
