"""Workload ``engine_replay``: the engine with no model and no compute.

One thread drives ``engine.scheduler`` and ``engine.offloader`` the way
``KVBlockPool`` does: a store phase (every tensor submitted as
``Priority.STORE``, then awaited) and a load phase in reverse order
(``PREFETCH_LOAD`` with a window of 8, ``promote()`` + wait, then
``release()``).  Rounds alternate between a *small* population (request
rate bound) and a *large* one (bandwidth bound), each followed by the same
bytes through raw ``os.pwrite`` / ``os.preadv`` in the same directory and
process.  The device is not paced: engine software is all of the time.

The store is chunked (4 MiB chunks), not one file per tensor.  The
benchmark may write only inside its checkout, which on this box is ext4
mounted with ``discard``: creating a file there costs 30-140 us depending
on the minute and on what the journal is doing (4 us on tmpfs), which
moved small-store rates 2x between identical runs of the per-tensor
store.  With 4 MiB chunks a small round creates one file and a large
round eight; ``store.*`` of the per-tensor store is still measured, in
``train_ssd``.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from harness import (
    Budget,
    Checks,
    Metric,
    Sample,
    check_books,
    check_no_thread_leak,
    median_setup,
    ratio,
    remove_dir,
    scratch_dir,
    thread_names,
)
from layers import Counters, engine_layer_metrics
from spans import Tracer, install

#: ``name: (tensors, float32 elements each)`` — 256 x 16 KiB and 32 x 1 MiB.
POPULATIONS = {"small": (256, 4096), "large": (32, 262144)}
QUICK_POPULATIONS = {"small": (32, 4096), "large": (4, 262144)}
PREFETCH_WINDOW = 8
CHUNK_BYTES = 4 << 20
RUNGS = ("raw", "store", "offloader", "scheduler")

PARAMS = {
    "populations": "small: 256 x 16 KiB float32; large: 32 x 1 MiB float32",
    "engine": f"target=ssd chunk_bytes={CHUNK_BYTES} io_backend=thread, unthrottled",
    "prefetch_window": PREFETCH_WINDOW,
    "loop": "closed, 1 client; rounds alternate small/large, engine then raw",
}

Round = Tuple[float, float]  # (store seconds, load seconds)


def make_populations(seed: int, quick: bool) -> Dict[str, List[np.ndarray]]:
    """The inputs: generated once per run, before any set-up is timed."""
    rng = np.random.default_rng(seed)
    shapes = QUICK_POPULATIONS if quick else POPULATIONS
    return {
        name: [rng.standard_normal(numel).astype(np.float32) for _ in range(count)]
        for name, (count, numel) in shapes.items()
    }


class _Rig:
    def __init__(self, populations: Dict[str, List[np.ndarray]], out_dir: Path) -> None:
        from repro.core import EngineConfig, build_engine

        self.populations = populations
        self.dir = scratch_dir(out_dir, "engine_replay")
        self.raw_path = str(self.dir / "raw.bin")
        self.engine = build_engine(
            EngineConfig(target="ssd", store_dir=str(self.dir / "engine"), chunk_bytes=CHUNK_BYTES)
        )
        self.store = self.engine.offloader.file_store
        self._stamp = 0
        self.checks = Checks()
        for population in self.populations.values():  # discarded warm-up
            self.engine_round(population)
            self.raw_round(population)

    def close(self) -> None:
        self.engine.shutdown()
        remove_dir(self.dir)

    def new_ids(self, population: Sequence[np.ndarray]):
        from repro.core.ids import TensorID

        ids = []
        for array in population:
            self._stamp += 1
            ids.append(TensorID(stamp=self._stamp, shape=array.shape))
        return ids

    def verify(self, population: Sequence[np.ndarray], loaded: Sequence[object]) -> None:
        for index, (want, got) in enumerate(zip(population, loaded)):
            self.checks.check(
                isinstance(got, np.ndarray) and np.array_equal(want, got),
                f"replayed tensor {index} of {len(population)} differs",
            )

    # ------------------------------------------------------------- the rungs
    def engine_round(self, population: Sequence[np.ndarray]) -> Round:
        """Through scheduler, backend, offloader and store: the workload."""
        from repro.io.scheduler import IORequest, Priority

        sched, off = self.engine.scheduler, self.engine.offloader
        tids = self.new_ids(population)

        start = time.perf_counter()
        stores = [
            sched.submit(
                IORequest(
                    lambda tid=tid, array=array: off.store(tid, array),
                    kind="store",
                    priority=Priority.STORE,
                    tensor_id=str(tid),
                    nbytes=array.nbytes,
                    lane=off.store_lane(tid, array.nbytes),
                )
            )
            for tid, array in zip(tids, population)
        ]
        for request in stores:
            request.wait()
        stored = time.perf_counter()
        self.resident_after_store = self.store.open_chunk_bytes

        def issue(index: int):
            tid, array = tids[index], population[index]
            return sched.submit(
                IORequest(
                    lambda: off.load(tid, array.shape, array.dtype),
                    kind="load",
                    priority=Priority.PREFETCH_LOAD,
                    tensor_id=str(tid),
                    nbytes=array.nbytes,
                    lane=off.load_lane(tid),
                )
            )

        order = range(len(population) - 1, -1, -1)
        loaded: List[object] = [None] * len(population)
        ahead = iter(order)
        inflight = {i: issue(i) for _, i in zip(range(PREFETCH_WINDOW), ahead)}
        for index in order:
            request = inflight.pop(index)
            sched.promote(request)
            request.wait()
            loaded[index] = request.result
            off.release(tids[index])
            nxt = next(ahead, None)
            if nxt is not None:
                inflight[nxt] = issue(nxt)
        done = time.perf_counter()

        self.checks.check(all(r.error is None for r in stores), "a replay store failed")
        self.verify(population, loaded)
        return stored - start, done - stored

    def offloader_round(self, population: Sequence[np.ndarray]) -> Round:
        off = self.engine.offloader
        tids = self.new_ids(population)
        start = time.perf_counter()
        for tid, array in zip(tids, population):
            off.store(tid, array)
        stored = time.perf_counter()
        loaded: List[object] = [None] * len(population)
        for index in range(len(population) - 1, -1, -1):
            array = population[index]
            loaded[index] = off.load(tids[index], array.shape, array.dtype)
            off.release(tids[index])
        done = time.perf_counter()
        self.verify(population, loaded)
        return stored - start, done - stored

    def store_round(self, population: Sequence[np.ndarray]) -> Round:
        store = self.store
        names = [tid.filename() for tid in self.new_ids(population)]
        start = time.perf_counter()
        for name, array in zip(names, population):
            store.write(name, array)
        stored = time.perf_counter()
        loaded: List[object] = [None] * len(population)
        for index in range(len(population) - 1, -1, -1):
            array = population[index]
            loaded[index] = store.read(names[index], array.shape, array.dtype)
            store.delete(names[index])
        done = time.perf_counter()
        self.verify(population, loaded)
        return stored - start, done - stored

    def raw_round(self, population: Sequence[np.ndarray]) -> Round:
        """The syscall floor: one file, one ``pwrite`` / ``preadv`` per tensor."""
        offsets = np.cumsum([0] + [a.nbytes for a in population[:-1]]).tolist()
        start = time.perf_counter()
        fd = os.open(self.raw_path, os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            for offset, array in zip(offsets, population):
                os.pwrite(fd, memoryview(array).cast("B"), offset)
            stored = time.perf_counter()
            loaded: List[object] = [None] * len(population)
            for index in range(len(population) - 1, -1, -1):
                out = np.empty_like(population[index])
                os.preadv(fd, [memoryview(out).cast("B")], offsets[index])
                loaded[index] = out
        finally:
            os.close(fd)
        os.unlink(self.raw_path)
        done = time.perf_counter()
        self.verify(population, loaded)
        return stored - start, done - stored

    def rung(self, name: str) -> Callable[[Sequence[np.ndarray]], Round]:
        return {
            "raw": self.raw_round,
            "store": self.store_round,
            "offloader": self.offloader_round,
            "scheduler": self.engine_round,
        }[name]


class _Phase:
    """Per-round samples, keyed ``(population, 'engine' | 'raw', 'store' | 'load')``."""

    def __init__(self) -> None:
        self.seconds: Dict[Tuple[str, str, str], Sample] = {}
        self.large_ratio = Sample()
        self.resident = Sample()
        self.rounds = 0
        self.engine_wall_s = 0.0

    def sample(self, population: str, path: str, op: str) -> Sample:
        return self.seconds.setdefault((population, path, op), Sample())

    def round_trip(self, population: str, path: str) -> Sample:
        store, load = self.sample(population, path, "store"), self.sample(population, path, "load")
        return Sample(s + l for s, l in zip(store.values, load.values))

    def run(self, rig: _Rig, budget: Budget, with_raw: bool = True) -> "_Phase":
        while budget.more(self.rounds):
            resident = 0
            for name, population in rig.populations.items():
                store_s, load_s = rig.engine_round(population)
                self.sample(name, "engine", "store").add(store_s)
                self.sample(name, "engine", "load").add(load_s)
                self.engine_wall_s += store_s + load_s
                resident += rig.resident_after_store
                if with_raw:
                    raw_store_s, raw_load_s = rig.raw_round(population)
                    self.sample(name, "raw", "store").add(raw_store_s)
                    self.sample(name, "raw", "load").add(raw_load_s)
                    if name == "large":
                        self.large_ratio.add((store_s + load_s) / (raw_store_s + raw_load_s))
            self.resident.add(resident)
            self.rounds += 1
        return self


def _population_bytes(rig: _Rig, name: str) -> int:
    return sum(a.nbytes for a in rig.populations[name])


def _end_to_end(rig: _Rig, phase: _Phase, setup: Sample) -> Dict[str, Metric]:
    small_n = len(rig.populations["small"])
    large_mb = _population_bytes(rig, "large") / 1e6
    total_bytes = sum(_population_bytes(rig, name) for name in rig.populations)
    return {
        "setup_s": Metric.median_of(setup),
        "ops_per_s": Metric.median_of(
            small_n / s for s in phase.round_trip("small", "engine").values
        ),
        "engine_mb_per_s": Metric.median_of(
            2 * large_mb / s for s in phase.round_trip("large", "engine").values
        ),
        "overhead_ratio": Metric.median_of(phase.large_ratio),
        "mem_reduction": Metric.median_of(1.0 - r / total_bytes for r in phase.resident.values),
    }


def _split_metrics(rig: _Rig, phase: _Phase) -> Dict[str, Metric]:
    """Stores and loads, small and large, engine and raw, each on its own."""
    small_n = len(rig.populations["small"])
    large_mb = _population_bytes(rig, "large") / 1e6
    out: Dict[str, Metric] = {}
    for prefix, path, names in (
        ("replay", "engine", ("store", "load")),
        ("raw", "raw", ("write", "read")),
    ):
        for op, label in zip(("store", "load"), names):
            big, little = phase.sample("large", path, op), phase.sample("small", path, op)
            out[f"{prefix}.{label}_mb_per_s"] = Metric.median_of(large_mb / s for s in big.values)
            out[f"{prefix}.small_{label}_req_per_s"] = Metric.median_of(
                small_n / s for s in little.values
            )
    return out


def _ladder(rig: _Rig, budget: Budget):
    """Push both populations through each rung in isolation."""
    rounds: Dict[Tuple[str, str], Tuple[Sample, Sample]] = {
        (rung, name): (Sample(), Sample()) for rung in RUNGS for name in rig.populations
    }
    done = 0
    while budget.more(done):
        for rung in RUNGS:
            for name, population in rig.populations.items():
                store_s, load_s = rig.rung(rung)(population)
                rounds[(rung, name)][0].add(store_s)
                rounds[(rung, name)][1].add(load_s)
        done += 1

    small_n = len(rig.populations["small"])
    large_mb = _population_bytes(rig, "large") / 1e6
    metrics: Dict[str, Metric] = {}
    for rung in RUNGS:
        write_l, read_l = rounds[(rung, "large")]
        write_s, read_s = rounds[(rung, "small")]
        for label, sample, per in (
            ("write_us_per_mb", write_l, large_mb),
            ("read_us_per_mb", read_l, large_mb),
            ("write_us_per_req", write_s, small_n),
            ("read_us_per_req", read_s, small_n),
        ):
            metrics[f"ladder.{rung}.{label}"] = Metric.median_of(
                s * 1e6 / per for s in sample.values
            )

    columns = ("write_us_per_mb", "read_us_per_mb", "write_us_per_req", "read_us_per_req")
    report = [
        "ladder: each rung's time, then its self time (rung - rung below); "
        f"medians of {done} rounds",
        "  " + f"{'rung':<12}" + "".join(f"{c:>20}" for c in columns),
    ]
    below = dict.fromkeys(columns, 0.0)
    for rung in RUNGS:
        values = {c: metrics[f"ladder.{rung}.{c}"].value for c in columns}
        report.append("  " + f"{rung:<12}" + "".join(f"{values[c]:>20.2f}" for c in columns))
        report.append(
            "  " + f"{'  self':<12}" + "".join(f"{values[c] - below[c]:>20.2f}" for c in columns)
        )
        below = values
    report.append("  (self times sum to the scheduler rung, which is the engine_replay round)")
    return metrics, report


def _engine_seconds(phase: _Phase) -> float:
    """Median small round + median large round, through the engine."""
    return (
        phase.round_trip("small", "engine").median + phase.round_trip("large", "engine").median
    )


def _ladder_agreement(rig: _Rig, ladder: Dict[str, Metric], untraced: _Phase) -> str:
    """The ladder's top rung is the workload's own round, measured again."""
    top = (
        ladder["ladder.scheduler.write_us_per_mb"].value
        + ladder["ladder.scheduler.read_us_per_mb"].value
    )
    large_mb = _population_bytes(rig, "large") / 1e6
    untraced_top = untraced.round_trip("large", "engine").median * 1e6 / large_mb
    agreement = ratio(top, untraced_top)
    warning = "" if abs(agreement - 1.0) <= 0.10 else "   WARNING: off by > 10%"
    return (
        "  top rung vs untraced engine_replay (large round trip, us/MB): "
        f"{top:.1f} vs {untraced_top:.1f} = {agreement:.3f}{warning}"
    )


def _traced(rig: _Rig, budget: Budget, untraced: _Phase, trace_path: Path):
    before = Counters.read(rig.engine.stats(), rig.store)
    tracer = Tracer()
    install(tracer)
    try:
        traced = _Phase().run(rig, budget, with_raw=False)
    finally:
        tracer.uninstall()
    delta = Counters.read(rig.engine.stats(), rig.store).since(before)
    tracer.write_chrome_trace(trace_path)
    moved = traced.rounds * sum(_population_bytes(rig, name) for name in rig.populations)
    layer = engine_layer_metrics(
        tracer,
        delta,
        wall_s=traced.engine_wall_s,
        units=traced.rounds,
        stored_bytes=moved,
        loaded_bytes=moved,
    )
    layer["trace.overhead_ratio"] = ratio(_engine_seconds(traced), _engine_seconds(untraced))
    return {name: Metric(value) for name, value in layer.items()}, tracer.summary()


def run(seed: int, seconds: float, trace: bool, quick: bool, out_dir: Path):
    """Run the workload; returns ``(end_to_end, per_layer, report, checks)``."""
    threads_before = thread_names()
    populations = make_populations(seed, quick)
    setup, rig = median_setup(
        lambda: _Rig(populations, out_dir), lambda built: built.close(), quick
    )
    try:
        at_least = 1 if quick else 5
        untraced_s = seconds * 0.4 if trace else seconds
        untraced = _Phase().run(rig, Budget(untraced_s, at_least, quick))
        end_to_end = _end_to_end(rig, untraced, setup)
        per_layer: Dict[str, Metric] = {}
        report: List[str] = []
        if trace:
            per_layer.update(_split_metrics(rig, untraced))
            ladder, report = _ladder(rig, Budget(seconds * 0.25, at_least, quick))
            per_layer.update(ladder)
            report.append(_ladder_agreement(rig, ladder, untraced))
            layer, spans = _traced(
                rig,
                Budget(seconds * 0.35, at_least, quick),
                untraced,
                out_dir / f"trace-engine_replay-seed{seed}.json",
            )
            per_layer.update(layer)
            report += spans
        check_books(rig.checks, rig.engine.stats().scheduler, "engine_replay")
    finally:
        rig.close()
    check_no_thread_leak(rig.checks, threads_before, "engine_replay")
    return end_to_end, per_layer, report, rig.checks
