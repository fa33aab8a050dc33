"""Shared constants, helpers and opt-in collection for the benchmarks.

Every file in this directory regenerates one table or figure of the paper
(see the README's benchmark index).  The ``bench_*.py`` names keep these
out of the default test collection — the tier-1 run (``pytest`` from the
repo root) must stay fast — but collection is **opt-in by target**: when
the pytest invocation points at this directory (or anything inside it),
a :func:`pytest_collect_file` hook collects the ``bench_*.py`` files, so
both forms work unmodified::

    pytest benchmarks -q                        # whole suite (CI)
    pytest benchmarks/bench_ablations.py -q     # one file (explicit path)

Every collected benchmark also carries the ``bench`` marker, so
``pytest benchmarks -m bench`` / ``-m "not bench"`` slicing works.
Add ``-s`` to see the regenerated rows/series.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.device.ssd import INTEL_OPTANE_P5800X_1600GB
from repro.train.parallel import ParallelismConfig

_BENCH_DIR = Path(__file__).parent.resolve()


def _benchmarks_targeted(config) -> bool:
    """True when a command-line argument points into this directory."""
    for arg in config.args:
        # Strip any ``::nodeid`` suffix before resolving the path part.
        path = Path(str(arg).split("::", 1)[0])
        if not path.is_absolute():
            path = Path(config.invocation_params.dir) / path
        try:
            resolved = path.resolve()
        except OSError:  # pragma: no cover - unresolvable args are not ours
            continue
        if resolved == _BENCH_DIR or _BENCH_DIR in resolved.parents:
            return True
    return False


def pytest_collect_file(file_path, parent):
    if file_path.suffix != ".py" or not file_path.name.startswith("bench_"):
        return None
    if parent.session.isinitpath(file_path):
        return None  # explicit file argument: pytest collects it natively
    if not _benchmarks_targeted(parent.config):
        return None  # tier-1 run from the repo root: stay out of the way
    return pytest.Module.from_parent(parent, path=file_path)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "bench: paper-figure benchmark (collected only when benchmarks/ "
        "is targeted; see benchmarks/conftest.py)",
    )


def pytest_collection_modifyitems(items):
    for item in items:
        try:
            in_bench_dir = _BENCH_DIR in Path(str(item.fspath)).resolve().parents
        except OSError:  # pragma: no cover
            continue
        if in_bench_dir:
            item.add_marker(pytest.mark.bench)


#: Table II: each A100 gets a dedicated RAID0 array; we model the 4-SSD one.
SSD_WRITE_BW = 4 * INTEL_OPTANE_P5800X_1600GB.write_bw
SSD_READ_BW = 4 * INTEL_OPTANE_P5800X_1600GB.read_bw

#: The evaluation uses the two GPUs for tensor parallelism (Sec. IV-A).
EVAL_PARALLELISM = ParallelismConfig(tp=2)

#: Fig. 6 / Table III grid.
EVAL_GRID = [(8192, 4), (12288, 3), (16384, 2)]


def emit(title: str, lines) -> None:
    """Print a regenerated table under a banner (visible with -s)."""
    print()
    print(f"== {title} ==")
    for line in lines:
        print(f"   {line}")
