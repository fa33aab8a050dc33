"""The two tracked simplicity metrics: lines of ``src/**/*.py`` and the
count of independently settable values on the front-end constructors.

ROADMAP aim 2 wants ``src/`` to shrink this round.  The line ceiling is
the last PR's result rounded up to the next 50; a PR that removes code
lowers it, a PR that must grow ``src/`` raises it on purpose, in the
diff, where a reviewer sees it.  The options ceiling works the same way:
each independent value multiplies the configurations tests and
benchmarks must cover, so a PR that needs another one says so here.
"""

import dataclasses
import inspect
from pathlib import Path

from repro.core.engine import EngineConfig
from repro.core.tensor_cache import TensorCache
from repro.serve import KVBlockPool

SRC_LINE_CEILING = 20_950
ENGINE_CONFIG_FIELD_CEILING = 25
KV_POOL_PARAMETERS = ("engine", "block_tokens", "num_layers", "hbm_capacity_bytes", "strategy")
TENSOR_CACHE_PARAMETERS = ("offloader", "policy", "registry", "prefetch_window", "scheduler")


def test_src_line_count_stays_under_the_committed_ceiling():
    src = Path(__file__).parent.parent / "src"
    total = sum(len(p.read_text().splitlines()) for p in src.rglob("*.py"))
    assert total <= SRC_LINE_CEILING, (
        f"src/ is {total} lines, over the committed ceiling {SRC_LINE_CEILING}: "
        "delete what the change made unnecessary, or raise the ceiling in this test"
    )


def test_option_count_stays_under_the_committed_ceiling():
    fields = dataclasses.fields(EngineConfig)
    assert len(fields) <= ENGINE_CONFIG_FIELD_CEILING, (
        f"EngineConfig has {len(fields)} fields, over the committed ceiling "
        f"{ENGINE_CONFIG_FIELD_CEILING}: derive the value, or raise the ceiling in this test"
    )
    constructors = ((KVBlockPool, KV_POOL_PARAMETERS), (TensorCache, TENSOR_CACHE_PARAMETERS))
    for cls, committed in constructors:
        parameters = tuple(inspect.signature(cls.__init__).parameters)[1:]
        assert parameters == committed, (
            f"{cls.__name__}.__init__ takes {parameters}: a new independently settable "
            "value is added to the committed tuple in this test, where a reviewer sees it"
        )
