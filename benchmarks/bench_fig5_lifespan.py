"""Fig. 5: SSD lifespan, required PCIe write bandwidth, and maximal
activations per GPU for the large-scale deployment configurations.

Paper claims regenerated: lifespan > 2 years in every configuration, write
bandwidth per GPU bounded (paper: <= 12.1 GB/s), max activations 0.4-1.8
TB/GPU, and both metrics improving as the system scales up.

The analytic projection is paired with a **measured** endurance budget:
a real chunked engine runs a store/load/release loop and its
:class:`~repro.core.engine.EnduranceStats` books feed the same
bytes-per-GB-day lifespan arithmetic the figure projects.
"""

import numpy as np

from repro.analysis.ssd_model import project_all_fig5
from repro.core.engine import EngineConfig, build_engine
from repro.core.ids import TensorID

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
    ``bytes_per_gb_day`` from a real chunked-store run is exactly the
    write-rate arithmetic the lifespan projection uses, so the
    projection can be re-based on telemetry instead of analytic bounds.
    """
    rng = np.random.default_rng(5)
    with build_engine(
        EngineConfig(target="ssd", store_dir=tmp_path, chunk_bytes=8 << 10)
    ) as engine:
        off = engine.offloader
        for step in range(6):
            # One step's activations: stored, read back, and released —
            # all but the last, which a hole-ridden chunk keeps alive.
            tids = [TensorID(stamp=8 * step + i, shape=(512,)) for i in range(8)]
            for tid in tids:  # 2 KiB each: every fourth fills and flushes a chunk
                off.store(tid, rng.standard_normal(512).astype(np.float32))
            for tid in tids:
                off.load(tid, (512,), np.float32)
            for tid in tids[:-1]:
                off.release(tid)
        store = engine.chunk_store
        # Reclaimed chunks' files are recycled, not deleted: what is live
        # is the files of the chunks the kept tensors pin.
        kept = {store.path_for(TensorID(stamp=8 * step + 7, shape=(512,)).filename()) for step in range(6)}
        live_on_disk = sum(p.stat().st_size for p in kept)
        endurance = engine.stats().endurance

    assert endurance is not None and endurance.bytes_written == 6 * 8 * 512 * 4
    assert endurance.dead_bytes > 0 and endurance.reclaimed_bytes > 0
    # Every byte written is in a live chunk's file or was reclaimed.
    assert endurance.bytes_written == live_on_disk + endurance.reclaimed_bytes
    assert store.num_chunks == 0  # the engine's shutdown cleared the scratch store

    capacity = 1600 * 10**9  # one P5800X-class device
    rate = endurance.write_rate_bytes_per_day
    per_gb_day = endurance.bytes_per_gb_day(capacity)
    # Daily writes per GB of capacity: a division, so compare it as one
    # (multiplying back can round in the last bit).
    assert rate > 0 and per_gb_day == rate / (capacity / 1e9)

    emit(
        "Fig. 5 (live) — measured endurance budget",
        [
            f"{endurance.bytes_written} bytes written, "
            f"{per_gb_day:.1f} B/GB-day against a 1600 GB device",
        ],
    )
