"""Smoke test of the walkthrough scripts under ``scripts/`` on small arguments, and of
the benchmark harness's self-test, which fails when a name its tracer patches is gone."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

CASES = [
    (["scripts/eternal_witness.py", "--steps", "200", "--horizon", "10"], "eternal_nm: gamma_+"),
    (["scripts/lyapunov_convergence.py", "--horizons", "10,25"], " horizon   chi_backward"),
    # windows at these horizons disagree by more than 1%: rows are marked, not fatal
    (["scripts/lyapunov_convergence.py", "--random-dim", "3", "--seed", "5", "--horizons", "10,25"],
     " horizon   chi_backward"),
    (["perfbench/selftest.py"], "selftest passed"),
]


@pytest.mark.parametrize("argv,header", CASES,
                         ids=["witness", "convergence", "convergence-random", "perfbench-selftest"])
def test_script_runs(argv, header):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert any(line.startswith(header) for line in proc.stdout.splitlines()), proc.stdout
