"""Ablations of SSDTrain's design choices (extension beyond the paper).

Each ablation switches off or sweeps one mechanism and shows where the
design point sits:

- **write-bandwidth sweep** — how much SSD bandwidth the zero-overhead
  result actually needs (where the Fig. 6 overlap breaks);
- **prefetch budget sweep** — the memory/stall trade-off of the bounded
  look-ahead window;
- **keep-last-module off** — why Fig. 2 keeps the last module;
- **data forwarding off** — what the store/load race costs without it;
- **GDS direct vs CPU bounce buffer** — the Sec. II-D motivation;
- **CPU-pool-size sweep** — how much pinned host memory buys down the
  required SSD write bandwidth in the tiered hierarchy;
- **chunk coalescing** — SSD write-count reduction from packing small
  activations into fixed-size chunks;
- **priority I/O scheduling** — FIFO vs priority dequeue on a shared,
  bandwidth-constrained SSD channel (what the
  :class:`~repro.io.scheduler.IOScheduler` buys over the paper's pools).
"""

import tempfile

import numpy as np

from repro.analysis.perf_model import model_param_count, weight_update_time
from repro.device.pcie import GPU_LINK_GEN4_X16
from repro.device.ssd import INTEL_OPTANE_P5800X_1600GB, RAID0Array
from repro.io.gds import BounceBufferPath, DirectGDSPath
from repro.models.config import ModelConfig
from repro.sim import StepSimulator, build_segments, simulate_strategy
from repro.train.trainer import PlacementStrategy

from benchmarks.conftest import EVAL_PARALLELISM, SSD_READ_BW, SSD_WRITE_BW, emit

CONFIG = ModelConfig(arch="bert", hidden=12288, num_layers=3, seq_len=1024)


def _offload(write_bw=SSD_WRITE_BW, read_bw=SSD_READ_BW, **kw):
    segments = build_segments(CONFIG, 16, parallelism=EVAL_PARALLELISM)
    update = weight_update_time(EVAL_PARALLELISM.params_per_gpu(model_param_count(CONFIG)))
    sim = StepSimulator(segments, PlacementStrategy.OFFLOAD, write_bw, read_bw, **kw)
    return sim.run(weight_update_s=update)


def test_ablation_write_bandwidth_sweep():
    keep = simulate_strategy(
        CONFIG, 16, PlacementStrategy.KEEP, SSD_WRITE_BW, SSD_READ_BW,
        parallelism=EVAL_PARALLELISM,
    )

    def sweep():
        rows = []
        for n_ssds in (1, 2, 3, 4):
            bw = n_ssds * INTEL_OPTANE_P5800X_1600GB.write_bw
            rbw = n_ssds * INTEL_OPTANE_P5800X_1600GB.read_bw
            rows.append((n_ssds, _offload(write_bw=bw, read_bw=rbw)))
        return rows

    rows = sweep()
    lines = [f"{'#SSDs':>5} {'overhead':>9} {'stall':>8} {'peak':>8} {'forwarded':>10}"]
    for n, r in rows:
        lines.append(
            f"{n:>5} {r.step_time_s / keep.step_time_s - 1:>8.2%} "
            f"{r.io_stall_time_s * 1e3:>6.1f}ms {r.activation_peak_bytes / 2**30:>6.2f}GB "
            f"{r.forwarded_bytes / 2**30:>8.2f}GB"
        )
    emit("Ablation — RAID0 size (write bandwidth) sweep", lines)
    # The 2-SSD array already overlaps this workload; 1 SSD leans on
    # forwarding (memory win shrinks) but never stalls the GPU.
    full = dict(rows)[4]
    assert full.step_time_s / keep.step_time_s - 1 < 0.01
    one = dict(rows)[1]
    assert one.forwarded_bytes > full.forwarded_bytes
    assert one.activation_peak_bytes > full.activation_peak_bytes


def test_ablation_prefetch_budget():
    def sweep():
        rows = []
        for budget_frac in (0.125, 0.25, 0.5, 1.0, 2.0):
            segments = build_segments(CONFIG, 16, parallelism=EVAL_PARALLELISM)
            budget = int(budget_frac * max(s.activation_bytes for s in segments))
            rows.append((budget_frac, _offload(prefetch_budget_bytes=budget)))
        return rows

    rows = sweep()
    lines = [f"{'budget x layer':>14} {'peak':>8} {'stall':>8}"]
    for frac, r in rows:
        lines.append(
            f"{frac:>14} {r.activation_peak_bytes / 2**30:>6.2f}GB "
            f"{r.io_stall_time_s * 1e3:>6.1f}ms"
        )
    emit("Ablation — prefetch look-ahead budget sweep", lines)
    peaks = [r.activation_peak_bytes for _, r in rows]
    # Larger windows can only hold more resident.
    assert all(a <= b + 1024 for a, b in zip(peaks, peaks[1:]))


def test_ablation_keep_last_module():
    def run():
        return (
            _offload(keep_last_segments=0),
            _offload(keep_last_segments=1),
            _offload(keep_last_segments=2),
        )

    none, head, head_plus_layer = run()
    lines = [
        f"keep nothing:     stall={none.io_stall_time_s * 1e3:6.1f} ms  "
        f"offloaded={none.offloaded_bytes / 2**30:.1f}GB  peak={none.activation_peak_bytes / 2**30:.2f}GB",
        f"keep head:        stall={head.io_stall_time_s * 1e3:6.1f} ms  "
        f"offloaded={head.offloaded_bytes / 2**30:.1f}GB  peak={head.activation_peak_bytes / 2**30:.2f}GB",
        f"keep head+layer:  stall={head_plus_layer.io_stall_time_s * 1e3:6.1f} ms  "
        f"offloaded={head_plus_layer.offloaded_bytes / 2**30:.1f}GB  "
        f"peak={head_plus_layer.activation_peak_bytes / 2**30:.2f}GB",
    ]
    emit("Ablation — keep-last-module (Fig. 2 marker 4)", lines)
    # Keeping the tail trades offload volume for stall-freedom.
    assert head_plus_layer.io_stall_time_s <= head.io_stall_time_s <= none.io_stall_time_s
    assert none.offloaded_bytes > head.offloaded_bytes > head_plus_layer.offloaded_bytes


def test_ablation_gds_vs_bounce_buffer():
    array = RAID0Array(INTEL_OPTANE_P5800X_1600GB, num_ssds=4)

    def run():
        direct = DirectGDSPath(GPU_LINK_GEN4_X16, array)
        # Host memory bandwidth "shared across training management tasks and
        # offloaded computation ... quite limited and even unpredictable"
        # (Sec. I): model a busy host at 35% of the link.
        bounce = BounceBufferPath(GPU_LINK_GEN4_X16, array, host_contention=0.35)
        d = _offload(write_bw=direct.write_bandwidth(), read_bw=direct.read_bandwidth())
        b = _offload(write_bw=bounce.write_bandwidth(), read_bw=bounce.read_bandwidth())
        return direct, bounce, d, b

    direct, bounce, d, b = run()
    lines = [
        f"direct GDS path:   {direct.write_bandwidth() / 1e9:5.1f} GB/s write  "
        f"peak={d.activation_peak_bytes / 2**30:.2f}GB  stall={d.io_stall_time_s * 1e3:.1f}ms  "
        f"forwarded={d.forwarded_bytes / 2**30:.1f}GB",
        f"CPU bounce buffer: {bounce.write_bandwidth() / 1e9:5.1f} GB/s write  "
        f"peak={b.activation_peak_bytes / 2**30:.2f}GB  stall={b.io_stall_time_s * 1e3:.1f}ms  "
        f"forwarded={b.forwarded_bytes / 2**30:.1f}GB",
    ]
    emit("Ablation — GDS direct path vs CPU bounce buffer (Sec. II-D)", lines)
    assert bounce.write_bandwidth() < direct.write_bandwidth()
    # The direct path fully overlaps; the contended bounce path cannot keep
    # up — it falls back to forwarding (losing memory savings) or stalls.
    assert d.io_stall_time_s == 0.0 and d.forwarded_bytes == 0
    assert b.forwarded_bytes > 0 or b.io_stall_time_s > 0


def test_ablation_cpu_pool_sweep():
    """Tiered offload: pinned-pool capacity vs required SSD bandwidth."""

    def sweep():
        rows = []
        for pool_gib in (0, 1, 2, 4, 8, 16):
            rows.append(
                (pool_gib, _offload(cpu_pool_bytes=pool_gib * 2**30 or None))
            )
        return rows

    rows = sweep()
    lines = [f"{'CPU pool':>8} {'to CPU':>8} {'to SSD':>8} {'stall':>8} {'SSD BW req':>11}"]
    for pool_gib, r in rows:
        lines.append(
            f"{pool_gib:>6}GB {r.offloaded_cpu_bytes / 2**30:>6.1f}GB "
            f"{r.offloaded_ssd_bytes / 2**30:>6.1f}GB "
            f"{r.io_stall_time_s * 1e3:>6.1f}ms "
            f"{r.required_ssd_write_bandwidth_gbps():>9.1f}GB/s"
        )
    emit("Ablation — pinned-CPU pool size sweep (tiered offload)", lines)
    # Every row moves the same total; a bigger pool absorbs more of it and
    # monotonically lowers the bandwidth the SSD array must sustain.
    totals = {r.offloaded_bytes for _, r in rows}
    assert len(totals) == 1
    ssd_bw = [r.required_ssd_write_bandwidth_gbps() for _, r in rows]
    assert all(a >= b for a, b in zip(ssd_bw, ssd_bw[1:]))
    assert rows[-1][1].offloaded_ssd_bytes == 0  # 16 GiB swallows this workload


def test_ablation_priority_io_scheduler():
    """FIFO vs priority dequeue on one shared, single-SSD channel."""

    def run():
        rows = []
        for mode in ("duplex", "fifo", "priority"):
            rows.append(
                (
                    mode,
                    _offload(
                        write_bw=INTEL_OPTANE_P5800X_1600GB.write_bw,
                        read_bw=INTEL_OPTANE_P5800X_1600GB.read_bw,
                        io_mode=mode,
                    ),
                )
            )
        return rows

    rows = run()
    lines = [f"{'io mode':>9} {'step':>9} {'blocking-load stall':>20}"]
    for mode, r in rows:
        lines.append(
            f"{mode:>9} {r.step_time_s * 1e3:>7.0f}ms "
            f"{r.io_stall_time_s * 1e3:>18.1f}ms"
        )
    emit("Ablation — FIFO vs priority I/O scheduling (shared SSD channel)", lines)
    by_mode = dict(rows)
    # FIFO inverts priorities (loads starve behind the store backlog);
    # priority dequeue recovers the idealised duplex overlap.
    assert by_mode["fifo"].io_stall_time_s > by_mode["priority"].io_stall_time_s
    assert by_mode["priority"].io_stall_time_s <= by_mode["duplex"].io_stall_time_s + 1e-9


def test_ablation_scheduler_cancellation_throughput():
    """Functional hot path: submit/cancel/drain cycles on the scheduler
    (the queue-slot reclaim that data forwarding exercises every step)."""
    from repro.io import IORequest, IOScheduler, Priority

    def run():
        sched = IOScheduler(workers=4)
        cancelled = 0
        for _ in range(20):
            requests = [
                sched.submit(
                    IORequest(
                        lambda: None,
                        kind="store",
                        priority=Priority.STORE,
                        nbytes=1024,
                        lane="ssd",
                    )
                )
                for _ in range(50)
            ]
            cancelled += sum(1 for r in requests if sched.cancel(r))
            sched.drain(5)
        sched.shutdown()
        return cancelled

    cancelled = run()
    emit(
        "Ablation — scheduler submit/cancel/drain throughput",
        [f"cancelled {cancelled} of 1000 queued stores before execution"],
    )
    assert cancelled > 0


def test_ablation_chunk_coalescing():
    """SSD write count: one file per tensor vs fixed-size chunk files."""
    from repro.core import SSDOffloader
    from repro.io import ChunkedTensorStore
    from repro.core.ids import TensorID

    rng = np.random.default_rng(0)
    # A quickstart-step-sized activation stream: many small tensors.
    tensors = [
        (TensorID(stamp=i, shape=(4, 64, 32)), rng.standard_normal((4, 64, 32)).astype(np.float32))
        for i in range(48)
    ]

    def run():
        with tempfile.TemporaryDirectory(prefix="abl-per-") as per_dir, \
                tempfile.TemporaryDirectory(prefix="abl-chunk-") as chunk_dir:
            per = SSDOffloader(per_dir)
            chunked = SSDOffloader(ChunkedTensorStore(chunk_dir, chunk_bytes=2**20))
            for tid, data in tensors:
                per.store(tid, data)
                chunked.store(tid, data)
            counts = (per.file_store.write_count, chunked.file_store.write_count)
            per.shutdown()
            chunked.shutdown()
        return counts

    per_writes, chunk_writes = run()
    lines = [
        f"per-tensor files: {per_writes} writes",
        f"1 MiB chunks:     {chunk_writes} writes "
        f"({per_writes / max(chunk_writes, 1):.0f}x fewer)",
    ]
    emit("Ablation — chunk coalescing (SSD write count)", lines)
    assert per_writes >= 4 * max(chunk_writes, 1)
