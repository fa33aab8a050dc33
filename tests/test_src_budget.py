"""The tracked simplicity metrics: lines of ``src/**/*.py``, the count
of independently settable values on the construction path and the
front-end constructors, and the capability probes the layers above the
offloader still make.

ROADMAP aim 2 wants ``src/`` to shrink this round.  The line ceiling is
the last PR's result (exactly, since ISSUE 24; rounded up to the next 50
before); a PR that removes code lowers it, a PR that must grow ``src/`` raises it on purpose, in the
diff, where a reviewer sees it.  The options ceiling works the same way:
each independent value multiplies the configurations tests and
benchmarks must cover, so a PR that needs another one says so here.
The construction path (``EngineConfig`` -> ``TieredOffloader`` ->
``SSDOffloader`` / ``IOScheduler``) carried 60 settable values before
PR 19 and carries 37 now.  ``TieredOffloader``'s ``scheduler`` is in
its committed tuple but not in that count: it is a required
collaborator (the object the tier queues its spills on and reads
degraded mode from), not a value with alternatives — there is no
configuration without it, so it multiplies nothing.  A probe
(``getattr``/``hasattr`` asking a part what it is) means a layer does
not say what it has; the budget is for the few that are deliberate.
The count of ``except Exception`` sites is committed the same way.
The last five tests pin shapes so they cannot grow back: one admission
answer (a tenant's contract is a weight and a byte quota), one owner of
degraded mode, one observation feed — producers keep cumulative books
and emit events, consumers difference and aggregate — one simulated
multi-step runner, and one queueing model (the simulator queues on the
production scheduler).
"""

import dataclasses
import inspect
import re
from pathlib import Path

from repro.core.engine import EngineConfig
from repro.core.offloader import SSDOffloader
from repro.core.tensor_cache import TensorCache
from repro.core.tiered import TieredOffloader
from repro.io.chunkstore import ChunkedTensorStore
from repro.io.filestore import TensorFileStore
from repro.io.scheduler import IOScheduler
from repro.io.tenancy import TenantContext, TenantRegistry
from repro.serve import KVBlockPool

SRC_LINE_CEILING = 19_725
ENGINE_CONFIG_FIELD_CEILING = 17
KV_POOL_PARAMETERS = ("engine", "block_tokens", "num_layers", "hbm_capacity_bytes", "strategy")
TENSOR_CACHE_PARAMETERS = ("offloader", "policy", "registry", "prefetch_window", "scheduler")
SSD_OFFLOADER_PARAMETERS = ("store", "gds")
TIERED_OFFLOADER_PARAMETERS = (
    "ssd", "cpu_pool_bytes", "scheduler", "policy", "promote_on_load", "probe_backoff_s",
)
#: The required collaborators among the tuples above (not options).
COLLABORATORS = ("scheduler",)
IO_SCHEDULER_PARAMETERS = (
    "workers", "lanes", "fifo", "coalesce_bytes", "max_retries", "retry_backoff_s",
    "tenants", "name", "backend", "deadlines", "hedge", "hedge_delay_s", "slow_request_s",
)
#: ``getattr(``/``hasattr(`` occurrences allowed across the files that
#: used to ask their parts what they were (33 before PR 19).
PROBE_CEILING = 5
PROBED_FILES = (
    "core/engine.py", "core/offloader.py", "core/tiered.py",
    "core/tensor_cache.py", "core/autotune.py", "service/service.py",
)
#: ``except Exception`` sites across ``src/`` (21 before the hedge
#: submit caught only ``RuntimeError``).  Each is a last line of defence
#: for a thread or a callback; a new one says why here.
BROAD_EXCEPT_CEILING = 20

SRC = Path(__file__).parent.parent / "src"


def _parameters(cls) -> tuple:
    return tuple(inspect.signature(cls.__init__).parameters)[1:]


def _construction_path_values() -> int:
    committed = (SSD_OFFLOADER_PARAMETERS, TIERED_OFFLOADER_PARAMETERS, IO_SCHEDULER_PARAMETERS)
    fields = len(dataclasses.fields(EngineConfig))
    return fields + sum(len(c) for c in committed) - len(COLLABORATORS)


def test_src_line_count_stays_under_the_committed_ceiling():
    total = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
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
    constructors = (
        (KVBlockPool, KV_POOL_PARAMETERS),
        (TensorCache, TENSOR_CACHE_PARAMETERS),
        (SSDOffloader, SSD_OFFLOADER_PARAMETERS),
        (TieredOffloader, TIERED_OFFLOADER_PARAMETERS),
        (IOScheduler, IO_SCHEDULER_PARAMETERS),
    )
    for cls, committed in constructors:
        assert _parameters(cls) == committed, (
            f"{cls.__name__}.__init__ takes {_parameters(cls)}: a new independently "
            "settable value is added to the committed tuple in this test, where a "
            "reviewer sees it"
        )
    assert _construction_path_values() == 37
    scheduler = inspect.signature(TieredOffloader.__init__).parameters["scheduler"]
    assert scheduler.default is inspect.Parameter.empty  # required: never scheduler-less


def test_store_options_have_one_reader():
    """The stores take no wear-model hook, and the store options reach
    them from ``core/engine.py`` — no offloader passes one on."""
    for store in (TensorFileStore, ChunkedTensorStore):
        assert "array" not in _parameters(store)
    options = ("chunk_bytes", "durable", "store_roots", "io_direct", "throttle_bytes_per_s")

    for name in ("core/offloader.py", "core/tiered.py"):
        text = (SRC / "repro" / name).read_text()
        assert [opt for opt in options if f"{opt}=" in text] == [], name


def test_capability_probes_stay_under_the_committed_ceiling():
    probes = {
        name: len(re.findall(r"\b(?:getattr|hasattr)\(", (SRC / "repro" / name).read_text()))
        for name in PROBED_FILES
    }
    assert sum(probes.values()) <= PROBE_CEILING, (
        f"{probes}: declare the part on the class that has it (see Offloader's "
        "optional parts) instead of probing for it, or raise the ceiling in this test"
    )


def test_broad_excepts_stay_under_the_committed_ceiling():
    counts = {
        p.relative_to(SRC / "repro").as_posix(): p.read_text().count("except Exception")
        for p in SRC.rglob("*.py")
    }
    sites = {name: n for name, n in counts.items() if n}
    assert sum(sites.values()) <= BROAD_EXCEPT_CEILING, (
        f"{sites}: catch what the call can raise, or raise the ceiling in this test"
    )


def test_tenant_contract_is_a_weight_and_a_byte_quota():
    """An over-quota submission has one answer, ``TenantQuotaError`` at
    submit: no parking, no bandwidth bucket, no per-tenant policy."""
    assert tuple(f.name for f in dataclasses.fields(TenantContext)) == (
        "name", "weight", "byte_quota",
    )
    assert _parameters(TenantRegistry) == ("quantum_bytes",)
    io = "\n".join(p.read_text() for p in (SRC / "repro" / "io").glob("*.py"))
    for gone in ("park", "bw_admit", "_TokenBucket", "over_quota"):
        assert gone not in io, gone


def test_degraded_mode_has_one_owner():
    """Lane health (``io/health.py``) builds every circuit breaker and
    is the only place "dead" is decided; the tier stores no copy of the
    verdict, flips no pool-wide overflow switch, and has no
    scheduler-less mode to fall back to."""
    sources = {p.relative_to(SRC / "repro").as_posix(): p.read_text() for p in SRC.rglob("*.py")}
    builders = [name for name, text in sources.items() if "CircuitBreaker(" in text]
    assert builders == ["io/health.py"]
    assert sources["io/health.py"].count("CircuitBreaker(") == 1
    everything = "\n".join(sources.values())
    for gone in ("set_scheduler", "scheduler_started", ".dead = "):
        assert gone not in everything, gone
    tiered = sources["core/tiered.py"]
    for gone in (
        "overflow_allowed =", "_breaker =", "_tenant_breakers", "_overflow_before_trip",
        "_unscheduled_spills", "_scheduler is None", "_scheduler is not None",
    ):
        assert gone not in tiered, gone


def test_observation_has_one_feed():
    """A finished request is observed through the scheduler's ``done``
    event and nothing else: no per-window aggregate on the request path,
    no destructive ``consume_*`` telemetry feed, no wrapper assigned
    over the offloader, and the cache does not ask which backend it
    drives."""
    sources = {p.relative_to(SRC / "repro").as_posix(): p.read_text() for p in SRC.rglob("*.py")}
    everything = "\n".join(sources.values())
    for gone in (
        "consume_completion_stats", "consume_step_stats", "consume_failure_window",
        "ChannelWindow", "_channel_usage", "note_reap_lag", "StepCacheStats",
    ):
        assert gone not in everything, gone
    # The one consume_ left is a one-shot signal, not telemetry.
    assert set(re.findall(r"\bconsume_\w+", everything)) == {"consume_compaction_hint"}
    trace = sources["io/trace.py"]
    assert "offloader.store =" not in trace and "offloader.load =" not in trace
    assert "TieredOffloader" not in sources["core/tensor_cache.py"]
    # Starting and finishing a request take the stats lock only to feed
    # the hedge delay's sample window, when hedging is on.
    begin = inspect.getsource(IOScheduler.begin_request)
    assert "_stats_lock" not in begin
    finish = inspect.getsource(IOScheduler.finish_request)
    assert finish.count("_stats_lock") == 1
    hedge_branch = finish[finish.index("if self.hedge"):]
    assert hedge_branch.index("_stats_lock") < hedge_branch.index("self._force_terminal")


def test_simulated_runs_have_one_runner():
    """Drift and fault runs are one per-step conditions schedule
    (``Scenario``) played by one runner (``simulate_run``), and the
    paper's one-shot budget probe (``one_shot_budget``) is written once."""
    sources = {p.relative_to(SRC / "repro").as_posix(): p.read_text() for p in SRC.rglob("*.py")}
    everything = "\n".join(sources.values())
    for gone in (
        "DriftScenario", "FaultScenario", "simulate_adaptive_run", "simulate_fault_run",
        "AdaptiveRunResult", "FaultRunResult", "bandwidth_at(", "microbatches_at(",
    ):
        assert gone not in everything, gone
    callers = {
        name: text.count("choose_offload_budget(")
        for name, text in sources.items()
        if not name.startswith("core/") and "choose_offload_budget(" in text
    }
    assert callers == {"sim/step_sim.py": 1}, callers


def test_simulated_io_has_one_queue():
    """The simulator queues on the production scheduler: ``io_mode`` is a
    table of ``IOScheduler`` constructions, not channel arithmetic, and
    ``sim/`` models no device and runs no thread of its own.  The
    virtual clock needed a value, ``workers=0``, not a parameter."""
    sim = "\n".join(p.read_text() for p in (SRC / "repro" / "sim").glob("*.py"))
    assert not re.search(r"io_mode\s*[!=]=", sim)
    assert "VirtualDevice" not in sim
    assert not re.search(r"^\s*(import threading|from threading import)", sim, re.M)
    assert "IOScheduler(" in sim
    assert _parameters(IOScheduler) == IO_SCHEDULER_PARAMETERS
    assert _construction_path_values() == 37
