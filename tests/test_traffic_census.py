"""The call census must say why a profiled command failed."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "traffic_census.py"


def test_census_prints_the_tail_of_a_failing_commands_output():
    failing = f"{sys.executable} -c \"print('the reason'); raise SystemExit(3)\""
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--front-end", failing, "--tests", ""],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "the reason" in done.stdout
    assert "exited 3" in done.stderr
