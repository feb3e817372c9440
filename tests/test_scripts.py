"""Smoke test of the walkthrough scripts under ``scripts/`` on small arguments, and of
the benchmark harness's self-test, which fails when a name its tracer patches is gone;
an in-process traced run checks the fields the harness's trace hooks read."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gkls_rates.cli  # noqa: F401  (the tracer wraps every layer, the CLI included)
from gkls_rates import matcore, pauli, witness

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


def _load_by_path(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_hooks_read_live_fields(monkeypatch):
    # the flow and witness runs are traced only in a benchmark run, so a renamed
    # field that a hook reads (gen.time_dependent, res.grid, EigResult) shows here
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py puts perfbench/ first
    run = _load_by_path("perfbench_run", ROOT / "perfbench" / "run.py")
    tracing = _load_by_path("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    gen = witness.preset("eternal_nm")
    tr = tracing.Tracer().install(sys.modules["gkls_rates"], run.TRACE_HOOKS)
    try:
        pauli.evolve(gen, np.eye(2) / 2, np.linspace(0.0, 1.0, 5))
        witness.scan(gen, np.linspace(0.0, 1.0, 5))
        matcore.eig(np.array([[0.0, 1.0], [0.0, -1.0]]))
    finally:
        tr.uninstall()
    cols = tr.columns()
    extra = {}
    for sid, name in zip(cols["sid"].tolist(), cols["name"].tolist()):
        if sid in tr.extra:
            extra.setdefault(tr.names[name], []).append(tr.extra[sid])
    assert extra["pauli.evolve"] == [(5, True)]
    assert extra["witness.scan"] == [5]
    assert extra["matcore.eig"] and all(isinstance(v, bool) for v in extra["matcore.eig"])
