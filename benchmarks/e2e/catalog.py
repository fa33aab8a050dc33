"""What the benchmark measures: workloads, metrics and what should move what.

``BENCHMARK.json`` at the root carries only what the driver's contract
allows (name, unit, direction, bound).  Everything else the issue asks to
be written down lives in ``catalog.json`` next to this file:

- per end-to-end metric, ``meaning``: what the number is on each workload
  (every workload reports every end-to-end metric);
- per layer metric, ``source`` (the public stats object, span or stamp it
  is read from), ``moves`` (the end-to-end metric it should move, and
  where), ``workloads`` (where it is measured — it reads 0 elsewhere) and
  ``exact`` (a count that repeats exactly run to run with one client, so
  a later issue may rest a claim on it as a count).

``test_smoke.py`` holds ``BENCHMARK.json`` and ``catalog.json`` in agreement.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, NamedTuple, Tuple

TRAIN = ("train_ssd", "train_tiered")


class Workload(NamedTuple):
    name: str
    why: str


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    meaning: Dict[str, str]


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    exact: bool
    workloads: Tuple[str, ...]
    source: str
    moves: str


with open(Path(__file__).with_name("catalog.json")) as _file:
    _data = json.load(_file)

WORKLOADS: List[Workload] = [Workload(**row) for row in _data["workloads"]]
END_TO_END: List[EndToEnd] = [EndToEnd(**row) for row in _data["end_to_end"]]
PER_LAYER: List[Layer] = [
    Layer(**{**row, "workloads": tuple(row["workloads"])}) for row in _data["per_layer"]
]


def benchmark_json(command: List[str], paths: List[str], run_seconds: int) -> Dict[str, object]:
    """The root ``BENCHMARK.json``, in the driver's shape."""
    return {
        "command": command,
        "paths": paths,
        "run_seconds": run_seconds,
        "workloads": [w._asdict() for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }
