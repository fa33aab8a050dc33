"""Tests for adaptive offload sizing and scheduler hints."""

import pytest

from repro.core.adaptive import WorkloadProfile, choose_offload_budget
from repro.core.hints import SchedulerHints, Stage, patch_schedule
from repro.train.schedule import MicrobatchSchedule


# -------------------------------------------------------------------- adaptive
def test_budget_never_exceeds_activations():
    profile = WorkloadProfile(
        activation_bytes_per_step=10**9, forward_time_s=1.0, backward_time_s=2.0
    )
    budget = choose_offload_budget(profile, write_bandwidth_bytes_per_s=1e12)
    assert budget == 10**9


def test_budget_limited_by_write_bandwidth():
    profile = WorkloadProfile(
        activation_bytes_per_step=10**12, forward_time_s=1.0, backward_time_s=2.0
    )
    budget = choose_offload_budget(profile, write_bandwidth_bytes_per_s=1e9)
    # write window = fwd + bwd/2 = 2s -> 2 GB cap
    assert budget == pytest.approx(2e9, rel=0.01)


def test_budget_limited_by_read_bandwidth():
    profile = WorkloadProfile(
        activation_bytes_per_step=10**12, forward_time_s=1.0, backward_time_s=2.0
    )
    budget = choose_offload_budget(
        profile, write_bandwidth_bytes_per_s=1e12, read_bandwidth_bytes_per_s=1e9
    )
    assert budget == pytest.approx(2e9, rel=0.01)  # reads fit in backward


def test_budget_safety_factor():
    profile = WorkloadProfile(10**12, 1.0, 2.0)
    full = choose_offload_budget(profile, 1e9)
    safe = choose_offload_budget(profile, 1e9, safety_factor=0.5)
    assert safe == pytest.approx(full / 2, rel=0.01)


def test_budget_validation():
    profile = WorkloadProfile(1, 1.0, 1.0)
    with pytest.raises(ValueError):
        choose_offload_budget(profile, 0)
    with pytest.raises(ValueError):
        choose_offload_budget(profile, 1e9, safety_factor=2.0)


# ----------------------------------------------------------------------- hints
class _FakeCache:
    def __init__(self):
        self.calls = []

    def set_microbatch(self, i):
        self.calls.append(("set_mb", i))

    def hint_keep_remaining(self, keep=True):
        self.calls.append(("keep", keep))

    def on_backward_begin(self):
        self.calls.append(("bwd_begin",))

    def on_backward_end(self):
        self.calls.append(("bwd_end",))

    def on_step_end(self):
        self.calls.append(("step_end",))


def test_hints_forward_microbatch_switches_records():
    cache = _FakeCache()
    hints = SchedulerHints(cache)
    hints.before(Stage.FORWARD_MICROBATCH, 3)
    assert ("set_mb", 3) in cache.calls


def test_hints_backward_follows_sets_keep():
    cache = _FakeCache()
    hints = SchedulerHints(cache)
    hints.before(Stage.FORWARD_MICROBATCH, 0, backward_follows=True)
    assert ("keep", True) in cache.calls
    hints.after(Stage.FORWARD_MICROBATCH, 0)
    assert ("keep", False) in cache.calls


def test_hints_backward_and_step_notifications():
    cache = _FakeCache()
    hints = SchedulerHints(cache)
    hints.before(Stage.BACKWARD_MICROBATCH, 1)
    hints.after(Stage.BACKWARD_MICROBATCH, 1)
    hints.after(Stage.OPTIMIZER_STEP)
    assert ("bwd_begin",) in cache.calls
    assert ("bwd_end",) in cache.calls
    assert ("step_end",) in cache.calls


def test_hint_event_log_sequence():
    cache = _FakeCache()
    hints = SchedulerHints(cache)
    schedule = MicrobatchSchedule(
        forward_fn=lambda i: i,
        backward_fn=lambda i, r: None,
        optimizer_fn=lambda: None,
        num_microbatches=2,
    )
    patch_schedule(schedule, hints)
    schedule.run_step()
    phases = [(e.stage, e.phase, e.microbatch) for e in hints.events]
    assert phases == [
        (Stage.FORWARD_MICROBATCH, "before", 0),
        (Stage.FORWARD_MICROBATCH, "after", 0),
        (Stage.BACKWARD_MICROBATCH, "before", 0),
        (Stage.BACKWARD_MICROBATCH, "after", 0),
        (Stage.FORWARD_MICROBATCH, "before", 1),
        (Stage.FORWARD_MICROBATCH, "after", 1),
        (Stage.BACKWARD_MICROBATCH, "before", 1),
        (Stage.BACKWARD_MICROBATCH, "after", 1),
        (Stage.OPTIMIZER_STEP, "before", None),
        (Stage.OPTIMIZER_STEP, "after", None),
    ]


def test_hint_event_log_keeps_only_the_current_step():
    """Regression: the log grew by two events per stage per step, for
    as long as the process ran."""
    hints = SchedulerHints(_FakeCache())
    schedule = MicrobatchSchedule(
        forward_fn=lambda i: i,
        backward_fn=lambda i, r: None,
        optimizer_fn=lambda: None,
        num_microbatches=1,
    )
    patch_schedule(schedule, hints)
    lengths = []
    for _ in range(5):
        schedule.run_step()
        lengths.append(len(hints.events))
    assert lengths == [6] * 5
    assert hints.events[0].stage is Stage.FORWARD_MICROBATCH


def test_patch_schedule_requires_command_methods():
    cache = _FakeCache()
    with pytest.raises(AttributeError):
        patch_schedule(object(), SchedulerHints(cache))


def test_patched_schedule_preserves_results():
    cache = _FakeCache()
    schedule = MicrobatchSchedule(
        forward_fn=lambda i: i * 10,
        backward_fn=lambda i, r: None,
        optimizer_fn=lambda: None,
        num_microbatches=3,
    )
    patch_schedule(schedule, SchedulerHints(cache))
    assert schedule.run_step() == [0, 10, 20]
    assert schedule.command_log == ["F0", "B0", "F1", "B1", "F2", "B2", "U"]
