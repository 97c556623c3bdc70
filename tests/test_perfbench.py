"""The benchmark harness stays runnable from the test suite."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_cli_workload_runs_and_checks_out():
    # --seconds 0 runs the warm-up cycle and one timed cycle of `nch run`.
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_eq_n128", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


def test_perfbench_implicit_workload_completes_every_run():
    # backward_euler, convex_splitting and bdf2 at N = 256 with default solver settings.
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "implicit_n256", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


def test_perfbench_trace_resolves_every_hook():
    # A traced run patches each hook by name; a renamed target would drop
    # out of the per-layer split with only this line to show for it.
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_eq_n128", "--seconds", "0",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    assert not [line for line in lines if line.startswith("hook target missing")]
    assert json.loads(lines[-1])["correct"] is True
