"""Alternating pairs of benchmark runs: one tree against another.

    python3 scripts/pairs.py --parent HEAD~1 --workload engine_replay --pairs 10 --seed 0
    python3 scripts/pairs.py --parent f71705d --change 10d311f --workload train_ssd --pairs 10

Exports each revision with ``git archive`` into a temporary directory
(without ``--change`` the change side is the working tree as it stands,
uncommitted edits included), then runs ``benchmarks/e2e/run.py`` of each
tree ``--pairs`` times, alternating which tree runs first, each run with
its ``--out-dir`` in the temporary directory, which is removed at exit.
Each run measures for the benchmark's own length (``run.py``'s default).

It prints every run as it finishes, then per end-to-end metric (those
``BENCHMARK.json`` lists, when the workload reports them): both medians,
both quartiles, in how many pairs the change was ahead, and a verdict.
"resolved" means the change's median lies outside the parent's
interquartile range on the better side, "worse" outside it on the other
side; anything inside is "unresolved", whatever the medians say.
"claim met" is added when at least ten pairs ran, the change was ahead
in at least nine of every ten, and the medians differ by more than the
parent's IQR.  Quartiles are ``benchmarks/e2e``'s own (``Sample``).  The
exit code is non-zero when a run failed a check or gave no result.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
# The benchmark's own median and quartiles, so the two never disagree.
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
from harness import Sample  # noqa: E402


# ----------------------------------------------------------------- statistics
def ahead(parent: Sequence[float], change: Sequence[float], better: str) -> int:
    """Pairs in which the change's run beat the parent's."""
    if better == "lower":
        return sum(c < p for p, c in zip(parent, change))
    return sum(c > p for p, c in zip(parent, change))


def verdict(parent: Sequence[float], change: Sequence[float], better: str) -> str:
    """Where the change's median lies against the parent's IQR."""
    q1, q3 = Sample(parent).quartiles()
    median = Sample(change).median
    below, above = median < q1, median > q3
    if (below and better == "lower") or (above and better == "higher"):
        return "resolved"
    if below or above:
        return "worse"
    return "unresolved"


def claim_met(parent: Sequence[float], change: Sequence[float], better: str) -> bool:
    """The bar a claimed gain must clear: at least ten pairs, ahead in
    at least nine of every ten, and medians apart by more than the
    parent's IQR."""
    q1, q3 = Sample(parent).quartiles()
    gain = Sample(change).median - Sample(parent).median
    if better == "lower":
        gain = -gain
    return (
        len(parent) >= 10
        and 10 * ahead(parent, change, better) >= 9 * len(parent)
        and gain > q3 - q1
    )


def summarize(name: str, parent: Sequence[float], change: Sequence[float], better: str) -> str:
    """One report line for metric ``name``."""
    p, c = Sample(parent), Sample(change)
    (p1, p3), (c1, c3) = p.quartiles(), c.quartiles()
    claim = ", claim met" if claim_met(parent, change, better) else ""
    return (
        f"{name:<16} parent {p.median:9.5g} [{p1:.5g}, {p3:.5g}]"
        f"  change {c.median:9.5g} [{c1:.5g}, {c3:.5g}]"
        f"  ahead in {ahead(parent, change, better)} of {len(parent)}"
        f"  ({better} is better)  {verdict(parent, change, better)}{claim}"
    )


# ---------------------------------------------------------------- the trees
def export(rev: str, into: Path) -> Path:
    """``rev``'s committed files, unpacked under ``into``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev], capture_output=True, check=True
    )
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as members:
        members.extractall(into, filter="data")
    return into


def run_once(tree: Path, args: argparse.Namespace, out_dir: Path) -> Dict[str, object]:
    """One ``run.py`` of ``tree``; its results file, or ``{"error": ...}``."""
    command = [
        sys.executable,
        str(tree / "benchmarks" / "e2e" / "run.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--out-dir",
        str(out_dir),
    ] + (["--quick"] if args.quick else [])
    done = subprocess.run(command, capture_output=True, text=True, cwd=tree)
    results = out_dir / f"results-{args.workload}-seed{args.seed}-trace0.json"
    if done.returncode not in (0, 1) or not results.is_file():
        tail = "\n".join((done.stdout + done.stderr).splitlines()[-20:])
        return {"error": f"exit code {done.returncode}\n{tail}"}
    return json.loads(results.read_text())


def end_to_end_metrics() -> List[Tuple[str, str]]:
    """``(name, better)`` of every end-to-end metric ``BENCHMARK.json`` lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(metric["name"], metric["better"]) for metric in spec["end_to_end"]]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the revision to compare against")
    parser.add_argument("--change", help="the revision under test; default: the working tree")
    parser.add_argument("--workload", required=True, help="one benchmarks/e2e workload")
    parser.add_argument("--pairs", type=int, default=10, help="parent/change pairs to run")
    parser.add_argument("--seed", type=int, default=0, help="seed of the generated inputs")
    parser.add_argument("--quick", action="store_true", help="run.py --quick: a smoke run")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    scratch = Path(tempfile.mkdtemp(prefix="pairs-"))
    runs: Dict[str, List[Dict[str, object]]] = {side: [] for side in SIDES}
    try:
        trees = {
            "parent": export(args.parent, scratch / "parent"),
            "change": export(args.change, scratch / "change") if args.change else ROOT,
        }
        print(
            f"workload {args.workload}  seed {args.seed}  {args.pairs} pairs  "
            f"parent {args.parent}  change {args.change or 'working tree'}",
            flush=True,
        )
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                result = run_once(trees[side], args, scratch / f"out-{side}-{pair}")
                runs[side].append(result)
                if "error" in result:
                    print(f"pair {pair + 1} {side}: no result, {result['error']}", flush=True)
                    return 2
                values = "  ".join(
                    f"{name}={rec['value']:.6g}"
                    for name, rec in result["metrics"].items()
                    if rec["value"]
                )
                print(f"pair {pair + 1} {side:<6} failed={result['failed']}  {values}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print()
    for name, better in end_to_end_metrics():
        series = {
            side: [float(run["metrics"][name]["value"]) for run in runs[side]] for side in SIDES
        }
        if not any(series["parent"] + series["change"]):
            continue  # not measured on this workload
        print(summarize(name, series["parent"], series["change"], better))
    failed = {side: sum(int(run["failed"]) for run in runs[side]) for side in SIDES}
    print(f"failed checks: parent {failed['parent']}, change {failed['change']}")
    return 1 if any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
