"""The pair runner's statistics, on fixed inputs: the benchmark's spread,
the ahead-count, the resolved rule and the bar a claimed gain clears."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", SCRIPT)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)
# On sys.path once pairs.py is loaded.
import harness  # noqa: E402

PARENT = [1.16, 1.15, 1.17, 1.16, 1.18, 1.14, 1.16, 1.17, 1.15, 1.16]


def test_the_spread_is_the_benchmarks_own():
    assert pairs.Sample is harness.Sample
    assert pairs.Sample([1.0, 2.0, 3.0, 4.0, 5.0]).quartiles() == (1.5, 4.5)
    assert pairs.verdict([3.0], [2.0], "lower") == "resolved"  # one run: no spread


def test_ahead_counts_pairs_on_the_better_side():
    parent, change = [1.0, 2.0, 3.0], [0.5, 2.5, 3.0]
    assert pairs.ahead(parent, change, "lower") == 1
    assert pairs.ahead(parent, change, "higher") == 1  # a tie is ahead for neither


def test_resolved_only_outside_the_parents_iqr_on_the_better_side():
    q1, q3 = pairs.Sample(PARENT).quartiles()
    assert (round(q1, 4), round(q3, 4)) == (1.15, 1.17)
    lower = [v - 0.1 for v in PARENT]
    assert pairs.verdict(PARENT, lower, "lower") == "resolved"
    assert pairs.verdict(PARENT, lower, "higher") == "worse"
    # A median inside the IQR, even a better one, resolves nothing.
    inside = [1.155] * len(PARENT)
    assert pairs.verdict(PARENT, inside, "lower") == "unresolved"
    assert pairs.verdict(PARENT, [q1] * 3, "lower") == "unresolved"  # on the edge: inside


def test_summary_line_names_medians_quartiles_and_verdict():
    line = pairs.summarize("overhead_ratio", PARENT, [1.06] * 10, "lower")
    assert line.startswith("overhead_ratio")
    assert "parent      1.16 [1.15, 1.17]" in line
    assert "change      1.06 [1.06, 1.06]" in line
    assert "ahead in 10 of 10" in line and line.endswith("resolved, claim met")


def test_a_claim_needs_nine_pairs_in_ten_and_a_gap_wider_than_the_iqr():
    better = [v - 0.1 for v in PARENT]
    assert pairs.claim_met(PARENT, better, "lower")
    assert not pairs.claim_met(PARENT, better, "higher")
    # Eight of ten pairs ahead: resolved, but no claim.
    eight = better[:8] + [v + 0.1 for v in PARENT[8:]]
    assert pairs.verdict(PARENT, eight, "lower") == "resolved"
    assert not pairs.claim_met(PARENT, eight, "lower")
    # Ahead in every pair, but by less than the parent's IQR (0.02).
    close = [v - 0.015 for v in PARENT]
    assert pairs.ahead(PARENT, close, "lower") == len(PARENT)
    assert not pairs.claim_met(PARENT, close, "lower")
    # Ahead in 5 of 5 by far more than the IQR: too few pairs to claim.
    assert pairs.verdict(PARENT[:5], better[:5], "lower") == "resolved"
    assert not pairs.claim_met(PARENT[:5], better[:5], "lower")
    assert not pairs.summarize("overhead_ratio", PARENT[:5], better[:5], "lower").endswith("met")
