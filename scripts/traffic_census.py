#!/usr/bin/env python3
"""Which functions of ``src/`` does anything call?  A function-level census.

Runs commands — *front-ends* (what a user runs) and *tests* — with a
``sys.setprofile`` + ``threading.setprofile`` hook that records every
``src/`` function entered; subprocesses inherit the hook through a
``sitecustomize`` directory put first on ``PYTHONPATH``.  Prints, per
module and in total, function-body lines reached by a front-end, by
tests only, and by nothing, then the unreached functions by name.  It is
also the coverage check that runs where ``pytest-cov`` is not installed
(``--package`` prints function-level coverage of one package by the
tests alone).  Dependency-free; imports nothing from ``src/``.

    python3 scripts/traffic_census.py --fail-over 250
    python3 scripts/traffic_census.py --front-end "python -m repro kv" --tests ""
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
FRONT_ENDS = ["python3 benchmarks/e2e/run.py --workload all --quick", "python3 examples/quickstart.py"]
TESTS = ["python3 -m pytest -x -q -p no:cacheprovider"]

#: Runs in every python process the commands start (``sitecustomize``).
HOOK = '''
import atexit, json, os, sys, threading
_src, _out, _seen = os.environ["CENSUS_SRC"], os.environ["CENSUS_OUT"], set()
def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code not in _seen and code.co_filename.startswith(_src):
            _seen.add(code)
def _dump():
    sys.setprofile(None)
    rows = [[c.co_filename, c.co_firstlineno] for c in _seen]
    with open(os.path.join(_out, f"{os.getpid()}.json"), "w") as fh:
        json.dump(rows, fh)
threading.setprofile(_hook)
sys.setprofile(_hook)
atexit.register(_dump)
'''


def functions() -> Dict[Tuple[str, int], Tuple[str, int]]:
    """``(file, first line) -> (qualified name, lines)`` for every ``def``
    in ``src/``; a decorated function starts at its first decorator, as
    its code object does, and a nested ``def``'s lines are its own."""
    table = {}
    for path in sorted(SRC.rglob("*.py")):
        def visit(node: ast.AST, prefix: str) -> int:
            nested = 0
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    span = child.end_lineno - first + 1
                    name = f"{prefix}{child.name}"
                    table[(str(path), first)] = (name, span - visit(child, name + "."))
                    nested += span
                else:
                    inner = f"{prefix}{child.name}." if isinstance(child, ast.ClassDef) else prefix
                    nested += visit(child, inner)
            return nested
        visit(ast.parse(path.read_text()), "")
    return table


def run(commands: List[str], hook_dir: str) -> Set[Tuple[str, int]]:
    reached: Set[Tuple[str, int]] = set()
    for command in filter(None, commands):
        with tempfile.TemporaryDirectory(prefix="census-out-") as out:
            path = os.pathsep.join([hook_dir, str(SRC), os.environ.get("PYTHONPATH", "")])
            env = dict(os.environ, PYTHONPATH=path, CENSUS_SRC=str(SRC), CENSUS_OUT=out)
            done = subprocess.run(shlex.split(command), cwd=REPO, env=env, text=True,
                                  stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
            if done.returncode:
                print("\n".join(done.stdout.splitlines()[-30:]))
                sys.exit(f"census: {command!r} exited {done.returncode}")
            for dump in Path(out).glob("*.json"):
                reached.update(map(tuple, json.loads(dump.read_text())))
    return reached


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--front-end", action="append", help=f"default: {FRONT_ENDS}")
    parser.add_argument("--tests", action="append", help=f"default: {TESTS}")
    parser.add_argument("--package", action="append", default=[],
                        help="also print the tests' function coverage of src/<package>")
    parser.add_argument("--fail-over", type=int, default=None,
                        help="exit 1 when more lines than this are reached by nothing")
    args = parser.parse_args()
    table = functions()
    with tempfile.TemporaryDirectory(prefix="census-hook-") as hook_dir:
        Path(hook_dir, "sitecustomize.py").write_text(HOOK)
        front = run(args.front_end or FRONT_ENDS, hook_dir)
        tests = run(args.tests or TESTS, hook_dir)

    totals: Dict[str, List[int]] = {}
    unreached = []
    for key, (name, lines) in table.items():
        module = str(Path(key[0]).relative_to(SRC))
        column = 0 if key in front else 1 if key in tests else 2
        totals.setdefault(module, [0, 0, 0])[column] += lines
        if column == 2:
            unreached.append(f"{module}:{key[1]} {name} ({lines})")
    print(f"{'module':<36} {'front-ends':>10} {'tests only':>10} {'nothing':>8}")
    for module, row in sorted(totals.items()):
        print(f"{module:<36} {row[0]:>10} {row[1]:>10} {row[2]:>8}")
    total = [sum(row[i] for row in totals.values()) for i in range(3)]
    print(f"{'total (' + str(sum(total)) + ' lines)':<36} {total[0]:>10} {total[1]:>10} {total[2]:>8}")
    for package in args.package:
        rows = [(k in tests, n) for k, (_, n) in table.items()
                if k[0].startswith(str(SRC / package) + os.sep)]
        print(f"tests reach {sum(hit for hit, _ in rows)} of {len(rows)} functions, "
              f"{sum(n for hit, n in rows if hit)} of {sum(n for _, n in rows)} lines "
              f"in {package}")
    print("\nreached by nothing:\n  " + "\n  ".join(sorted(unreached)))
    if args.fail_over is not None and total[2] > args.fail_over:
        print(f"census: {total[2]} lines reached by nothing, over --fail-over {args.fail_over}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
