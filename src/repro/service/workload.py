"""Deterministic synthetic workload for the service demo + crash tests.

The ``repro serve`` acceptance story needs a workload whose result is
**bit-exact reproducible** across an engine kill/restart — a property a
real training loop only has if every byte of persistent state survives
the crash.  This driver is built so that all persistent state lives in
the engine's (durable) store:

- step ``s`` stores ``tensors_per_step`` arrays derived purely from
  ``(seed, s, k)`` — re-running a step after a restart overwrites the
  same tensors with the same bytes (idempotent);
- tensors have **two lifetime classes** (even ``k`` lives
  ``retain_steps`` steps, odd ``k`` twice that), mirroring the mixed
  activation lifetimes of real steps.  Because each step's tensors
  flush together into one chunk, the chunk turns *half*-dead when the
  short-lived half is released — exactly the GC/compaction food the
  endurance path needs (whole-dead chunks are reclaimed by refcount
  alone and never exercise the compactor);
- the step "loss" is a float64 reduction over **every retained tensor
  read back from the engine**, so it covers bytes written several steps
  ago: if manifest replay corrupted or lost anything, the loss of the
  first post-restart step diverges.

Steps end with a chunk-store flush, making each completed step durable
(the crash-recovery tests hard-drop the index *between* steps and
expect everything already stepped over to replay bit-exact).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.engine import Engine
from repro.core.ids import TensorID


class SyntheticWorkload:
    """Idempotent store/release/load step driver (see module docstring).

    Args:
        seed: base seed; two workloads with equal parameters produce
            byte-identical tensors and therefore identical losses.
        tensors_per_step: arrays stored per step.
        tensor_elems: float32 elements per array.
        retain_steps: short lifetime class (even ``k``); odd ``k``
            tensors live ``2 * retain_steps`` steps.
    """

    def __init__(
        self,
        seed: int = 0,
        tensors_per_step: int = 4,
        tensor_elems: int = 256,
        retain_steps: int = 2,
    ) -> None:
        if tensors_per_step < 1 or tensor_elems < 1 or retain_steps < 1:
            raise ValueError("workload dimensions must be >= 1")
        self.seed = seed
        self.tensors_per_step = tensors_per_step
        self.tensor_elems = tensor_elems
        self.retain_steps = retain_steps

    def lifetime(self, k: int) -> int:
        """Steps tensor ``k`` of any step stays live before release."""
        return self.retain_steps if k % 2 == 0 else 2 * self.retain_steps

    def tensor_id(self, step: int, k: int) -> TensorID:
        """Deterministic id — the same (step, k) maps to the same tensor
        across runs and restarts (stamps are synthetic, not clock-based)."""
        return TensorID(
            stamp=step * self.tensors_per_step + k, shape=(self.tensor_elems,)
        )

    def data(self, step: int, k: int) -> np.ndarray:
        rng = np.random.default_rng(
            (self.seed, step, k)  # seed sequences hash tuples deterministically
        )
        return rng.standard_normal(self.tensor_elems, dtype=np.float32)

    def run_step(self, engine: Engine, step: int) -> float:
        """Run one step; returns its loss (a float64 reduction).

        Safe to re-run after a supervised restart: stores overwrite
        bit-identical bytes and the release of an already-released
        tensor is a no-op.
        """
        off = engine.offloader
        for k in range(self.tensors_per_step):
            off.store(self.tensor_id(step, k), self.data(step, k))
        for k in range(self.tensors_per_step):
            dead_step = step - self.lifetime(k)
            if dead_step >= 0:
                off.release(self.tensor_id(dead_step, k))
        total = np.float64(0.0)
        for live_step, k in self.live_pairs(step):
            loaded = off.load(
                self.tensor_id(live_step, k), (self.tensor_elems,), np.float32
            )
            total += np.sum(loaded, dtype=np.float64)
        store = engine.chunk_store
        if store is not None:
            store.flush()  # step boundary = durability boundary
        return float(total)

    def run(
        self, engine: Engine, steps: int, start_step: int = 0
    ) -> List[float]:
        """Run ``steps`` consecutive steps; returns their losses."""
        return [self.run_step(engine, s) for s in range(start_step, start_step + steps)]

    def live_pairs(self, last_step: int) -> List[tuple]:
        """Every ``(step, k)`` still retained after ``last_step`` ran."""
        pairs = []
        first = max(0, last_step - 2 * self.retain_steps + 1)
        for s in range(first, last_step + 1):
            for k in range(self.tensors_per_step):
                if s > last_step - self.lifetime(k):
                    pairs.append((s, k))
        return pairs
