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
PR 19, 37 before hedged reads and the brownout verdict were deleted,
32 before the GDS-sim lane was deleted, 31 before ``durable`` was
deleted, 30 before ``io_direct`` was deleted, 29 before I/O deadlines
were deleted, and carries 27 now.
``TieredOffloader``'s ``scheduler`` is in its committed tuple but not
in that count: it is a required collaborator (the object the tier
queues its spills on and reads degraded mode from), not a value with
alternatives — there is no configuration without it, so it multiplies
nothing.  A probe
(``getattr``/``hasattr`` asking a part what it is) means a layer does
not say what it has; the budget is for the few that are deliberate.
The count of ``except Exception`` sites is committed the same way.
The last eight tests pin shapes so they cannot grow back: one admission
answer (a tenant's contract is a weight and a byte quota), one owner of
degraded mode and no timer in it (a request ends by its own body or a
cancel while PENDING), one observation feed — producers keep cumulative books
and emit events, consumers difference and aggregate — one simulated
multi-step runner, one queueing model (the simulator queues on the
production scheduler), one input to a store's placement (the
caller's tier argument, else the policy's rule), one write path in
the per-tensor store (buffered; no unbuffered mode or its fallback), and
one sizing of the functional engine's offload budget (Alg. 1's, once;
only the simulator re-sizes it per step).
"""

import dataclasses
import inspect
import re
from pathlib import Path

from repro.core.autotune import AutotuneController
from repro.core.engine import EngineConfig, build_engine
from repro.core.offloader import CPUOffloader, Offloader, SSDOffloader
from repro.core.policy import OffloadPolicy
from repro.core.tensor_cache import TensorCache
from repro.core.tiered import TieredOffloader
from repro.io.aio import IOBackend
from repro.io.chunkstore import ChunkedTensorStore
from repro.io.filestore import TensorFileStore
from repro.io.scheduler import IOScheduler
from repro.io.tenancy import TenantContext, TenantRegistry
from repro.serve import KVBlockPool
from repro.train import Trainer

#: 19,403 before ``io/checksum.py`` (+34: the libdeflate crc32 binding
#: the stores call, same values as ``zlib.crc32`` at ~1/5 the CPU a byte).
#: Folding both stores' crc comparisons into one helper there measured
#: +3 more (19,440), so the comparisons stay where they were.  19,437
#: before the GDS-sim lane (registry, bounce routing, its books) went.
#: 19,288 before activations became scratch: the supervised service,
#: the manifest journal, replay and chunk compaction went.  17,764 before
#: released store files were recycled in place (+36: the file pool and
#: the one-acquisition borrow, less the limbo FIFO and the unlink paths).
#: 17,800 before one pass per request (the begin/finish/notify hooks and
#: the scheduler's own stats lock went; a lazy completion event came).
#: 17,792 before a store's tier became an argument (the per-tenant
#: placer registry, the KV pool's thread-local hint bridge and
#: ``eviction_tier`` went; the CLI fault demos share one rig).
#: 17,650 before ``O_DIRECT`` went from every layer (the per-tensor
#: store's direct write and fallback, the FD table's second kind of
#: descriptor, the arena's aligned bins, ``io_direct`` and its flag).
#: 17,487 before loads filled a destination the caller allocated (+81:
#: ``out=`` on every store ``read`` and offloader ``load``, most of it
#: those signatures wrapped one parameter a line, and ``check_destination``).
#: 17,568 before I/O deadlines (the watchdog, ``IOJob.abandon``, the hung
#: fault mode), selective checkpointing and ``BufferArena.trim`` went.
#: 17,294 before the live half of the adaptive controller went (its
#: engine adapter, ``Trainer(controller=)``, ``apply_autotune``, the
#: tier watermark and ``configure_policy``): only the simulator re-sizes.
SRC_LINE_CEILING = 16_935
ENGINE_CONFIG_FIELD_CEILING = 12
KV_POOL_PARAMETERS = ("engine", "block_tokens", "num_layers", "hbm_capacity_bytes", "strategy")
TENSOR_CACHE_PARAMETERS = ("offloader", "policy", "registry", "prefetch_window", "scheduler")
SSD_OFFLOADER_PARAMETERS = ("store",)
TIERED_OFFLOADER_PARAMETERS = (
    "ssd", "cpu_pool_bytes", "scheduler", "policy", "promote_on_load", "probe_backoff_s",
)
#: The required collaborators among the tuples above (not options).
COLLABORATORS = ("scheduler",)
IO_SCHEDULER_PARAMETERS = (
    "workers", "lanes", "fifo", "coalesce_bytes", "max_retries", "retry_backoff_s",
    "tenants", "name", "backend",
)
#: ``getattr(``/``hasattr(`` occurrences allowed across the files that
#: used to ask their parts what they were (33 before PR 19, 5 before
#: the service and the tier's compaction probe went).
PROBE_CEILING = 2
PROBED_FILES = (
    "core/engine.py", "core/offloader.py", "core/tiered.py",
    "core/tensor_cache.py", "core/autotune.py",
)
#: ``except Exception`` sites across ``src/``.  Each is a last line of
#: defence for a thread or a callback; a new one says why here.  (20
#: before the service's six went, 14 before the step end's release,
#: which does no filesystem I/O since files are recycled, lost its, 12
#: before the deadline watchdog's scan loop went.)
BROAD_EXCEPT_CEILING = 11

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
    assert _construction_path_values() == 27
    scheduler = inspect.signature(TieredOffloader.__init__).parameters["scheduler"]
    assert scheduler.default is inspect.Parameter.empty  # required: never scheduler-less


def test_store_options_have_one_reader():
    """The stores take no wear-model hook, and the store options reach
    them from ``core/engine.py`` — no offloader passes one on."""
    for store in (TensorFileStore, ChunkedTensorStore):
        assert "array" not in _parameters(store)
    options = ("chunk_bytes", "store_roots", "throttle_bytes_per_s")

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
    scheduler-less mode to fall back to.  No degraded-mode timer exists:
    no deadline watchdog abandons a running request, no hedged duplicate
    reads, no latency-driven "slow" verdict, nothing shed on one."""
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
    timers = re.compile(
        r"hedge|is_slow|slow_threshold|slow_trip|mark_slow|slow_lanes|record_duration"
        r"|slow_request|\bshed_(stores|bytes)\b|prefetch_shed|consecutive_slow"
        r"|io_deadlines|_watchdog|\.abandon\(|DeadlineExceeded|deadline_abandons|hang_ops|hang_rate"
    )
    assert [name for name, text in sources.items() if timers.search(text)] == []


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
    assert set(re.findall(r"\bconsume_\w+", everything)) == set()
    trace = sources["io/trace.py"]
    assert "offloader.store =" not in trace and "offloader.load =" not in trace
    assert "TieredOffloader" not in sources["core/tensor_cache.py"]
    # Starting and settling a request take no stats lock (the books close
    # in one pass, in the scheduler).
    assert "_stats_lock" not in inspect.getsource(IOBackend.run_batch)
    assert "_stats_lock" not in inspect.getsource(IOBackend._settle)


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
    assert _construction_path_values() == 27


def test_placement_has_one_input():
    """A store's tier travels as an argument: the caller that decided it
    (the KV pool's strategy) passes it to ``store``, and without one the
    tiered offloader asks ``OffloadPolicy.place``.  No per-tenant placer
    registry, no thread-local hint, no bridge object on the pool."""
    for cls in (Offloader, SSDOffloader, CPUOffloader, TieredOffloader):
        assert tuple(inspect.signature(cls.store).parameters) == ("self", "tid", "data", "tier")
    for gone in ("set_tenant_policy", "tenant_policy", "place_for", "_tenant_placers"):
        assert not hasattr(OffloadPolicy(), gone), gone
    paging = (SRC / "repro" / "serve" / "paging.py").read_text()
    assert "threading.local" not in paging and "eviction_tier" not in paging
    with build_engine(EngineConfig(target="cpu")) as engine:
        assert not hasattr(KVBlockPool(engine), "paging")


def test_the_per_tensor_store_has_one_write_path():
    """Every store write is buffered, one ``pwritev`` over the file's one
    descriptor: no ``O_DIRECT`` mode, no fallback from it, no second
    kind of descriptor in the FD table and no aligned arena bins
    (docs/architecture.md §10 records the A/B that retired them)."""
    gone = re.compile(r"O_DIRECT|io_direct|direct_fallback|DIRECT_ALIGNMENT|aligned_leases")
    hits = [
        p.relative_to(SRC / "repro").as_posix()
        for p in SRC.rglob("*.py")
        if gone.search(p.read_text())
    ]
    assert hits == []
    assert _parameters(TensorFileStore) == ("root", "throttle_bytes_per_s")


def test_only_the_simulator_resizes_the_budget():
    """The functional engine's budget is sized once (Alg. 1,
    ``choose_offload_budget``): no controller rides the trainer, none
    attaches to a cache, and no pool watermark is installed between
    steps.  ``simulate_run`` drives :meth:`AutotuneController.observe`
    (docs/architecture.md §5 records the A/B that retired the live
    half).  The reap lag stays a lane book in ``io/``."""
    assert "controller" not in _parameters(Trainer)
    for gone in ("attach", "on_step_end", "step_observation"):
        assert not hasattr(AutotuneController, gone), gone
    gone = re.compile(r"apply_autotune|set_free_watermark|apply_watermark|configure_policy")
    hits = [
        p.relative_to(SRC / "repro").as_posix()
        for p in SRC.rglob("*.py")
        if gone.search(p.read_text())
        or ("reap_lag_s" in p.read_text() and p.parent.name != "io")
    ]
    assert hits == []
