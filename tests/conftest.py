import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def run_cli(args):
    """Run the CLI in a subprocess; returns (exit_code, stdout_bytes, stderr_bytes)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "abmodes.cli", *args],
        capture_output=True,
        env=env,
        cwd=REPO,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="session")
def fixtures_dir():
    FIXTURES.mkdir(exist_ok=True)
    return FIXTURES


# pass/fail lines collected by tests/test_acceptance.py, echoed after the run
ACCEPTANCE_RESULTS = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)
