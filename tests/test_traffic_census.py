"""The call census must say why a profiled command failed, and fail over its bounds."""

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


def test_census_fails_a_tests_only_line_over_the_bound():
    reach = f"{sys.executable} -c \"from repro.io import errors; errors.is_enospc(None)\""
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--front-end", "", "--tests", reach,
         "--tests-only-over", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "io/errors.py" in done.stdout and " is_enospc (" in done.stdout
    assert "over --tests-only-over 0" in done.stdout
