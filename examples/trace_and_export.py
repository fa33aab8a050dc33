"""Trace a real offloaded run and export machine-readable results.

Attaches the I/O tracer to a functional SSDTrain run (real numpy math, real
file I/O), renders the measured store/load timeline (the functional-mode
counterpart of Fig. 2), verifies the overlap statistics, and exports the
per-step results plus the Fig. 5 projections as JSON/CSV.

Usage::

    python examples/trace_and_export.py [output_dir]

With ``output_dir`` the store and the exports stay there.  Without it
the run works in a temporary directory, prints the exported per-step
CSV, and removes the directory on exit.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.analysis.report import to_csv, to_json
from repro.analysis.ssd_model import project_all_fig5
from repro.core import OffloadPolicy, PolicyConfig, SSDOffloader, TensorCache
from repro.data import SyntheticCorpus, TokenBatchLoader
from repro.device import GPU
from repro.io.trace import attach_tracer
from repro.models import GPT, ModelConfig
from repro.optim import SGD
from repro.train import PlacementStrategy, Trainer

CONFIG = ModelConfig(
    arch="gpt", hidden=128, num_layers=4, vocab_size=211, seq_len=64, head_dim=32
)


def main() -> None:
    if len(sys.argv) > 1:
        out_dir = Path(sys.argv[1])
        out_dir.mkdir(parents=True, exist_ok=True)
        run(out_dir)
        return
    with tempfile.TemporaryDirectory(prefix="ssdtrain-report-") as tmp:
        steps_csv = run(Path(tmp))
        print(f"\n{steps_csv.name} (removed with its directory on exit):")
        print(steps_csv.read_text().rstrip())


def run(out_dir: Path) -> Path:
    """Train, trace and export into ``out_dir``; returns the steps CSV."""
    gpu = GPU()
    model = GPT(CONFIG, rng=np.random.default_rng(0)).to(gpu)
    cache = TensorCache(
        SSDOffloader(out_dir / "store"),
        policy=OffloadPolicy(PolicyConfig(min_offload_numel=1024)),
    )
    tracer = attach_tracer(cache)
    trainer = Trainer(
        model,
        SGD(model.parameters(), lr=5e-3),
        gpu,
        strategy=PlacementStrategy.OFFLOAD,
        cache=cache,
    )
    loader = TokenBatchLoader(
        SyntheticCorpus(vocab_size=CONFIG.vocab_size, seed=3),
        batch_size=4,
        seq_len=CONFIG.seq_len,
        device=gpu,
    )

    results = []
    try:
        for step in range(3):
            tracer.reset()
            result = trainer.train_step([loader.next_batch()])
            stats = tracer.stats(window_s=result.step_time_s)
            results.append(
                {
                    "step": step,
                    "loss": result.loss,
                    "step_time_s": result.step_time_s,
                    "activation_peak_bytes": result.activation_peak_bytes,
                    "offloaded_bytes": result.offloaded_bytes,
                    "store_busy_s": stats.store_busy_s,
                    "load_busy_s": stats.load_busy_s,
                    "store_bandwidth_mbps": stats.store_bandwidth / 1e6,
                }
            )
            if step == 2:
                print("measured I/O timeline of the last step "
                      "(functional-mode Fig. 2):")
                print(tracer.render_ascii(width=88))
                busy_frac = (stats.store_busy_s + stats.load_busy_s) / result.step_time_s
                print(f"\nI/O busy {busy_frac:.0%} of the step, all off the critical "
                      f"path (stores {stats.store_bytes / 1e6:.1f} MB @ "
                      f"{stats.store_bandwidth / 1e6:.0f} MB/s)")
    finally:
        trainer.close()

    steps_json = out_dir / "steps.json"
    steps_csv = out_dir / "steps.csv"
    fig5_json = out_dir / "fig5.json"
    to_json(results, path=steps_json)
    to_csv(results, path=steps_csv)
    to_json(project_all_fig5(), path=fig5_json)
    print(f"\nexported: {steps_json}\n          {steps_csv}\n          {fig5_json}")
    return steps_csv


if __name__ == "__main__":
    main()
