"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks that a short run of each mode emits exactly the metrics
BENCHMARK.json names, with their units; that the tracer reaches the
directly imported names and restores them; that the oracle rejects a
corrupted sweep margin row and a corrupted witness margin; and that a
nonzero exit code counts as a failed item.  Exits 1 on the first failure.
"""

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402


def expect(ok, what):
    if not ok:
        raise AssertionError(what)
    print(f"ok: {what}")


def metrics_of(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    return code, result


def test_metric_names():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, result = metrics_of(["--workload", "sweep", "--seed", "0", "--seconds", "0.3",
                                   "--trace", str(trace)])
        named = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        expect(code == 0 and result["correct"], f"trace {trace} run succeeds")
        expect(got == named, f"trace {trace} emits every {key} metric with its unit")
        expect(set(result) == {"correct", "attempted", "failed", "metrics"},
               f"trace {trace} result has exactly correct, attempted, failed, metrics")


def test_tracer_reaches_direct_imports(pkg):
    tr = tracing.Tracer().install(pkg, run.TRACE_HOOKS)
    try:
        wrapped = {
            "lyapunov.qr": pkg.lyapunov.qr,
            "lyapunov.hs_inner": pkg.lyapunov.hs_inner,
            "cli.atomic_write": pkg.cli.atomic_write,
            "pauli.atomic_write": pkg.pauli.atomic_write,
            "lyapunov.atomic_write": pkg.lyapunov.atomic_write,
            "pauli scipy.linalg.expm": pkg.pauli.scipy.linalg.expm,
            "lyapunov scipy.linalg.expm": pkg.lyapunov.scipy.linalg.expm,
        }
        for name, fn in wrapped.items():
            expect(getattr(fn, "__wrapped_by_tracer__", False), f"tracer wraps {name}")
    finally:
        tr.uninstall()
    expect(not hasattr(pkg.lyapunov.qr, "__wrapped_by_tracer__")
           and pkg.pauli.scipy.linalg.expm is pkg.matcore.scipy.linalg.expm,
           "uninstall restores the originals")


def test_oracle_rejects_corruption(pkg, workdir):
    wl = run.Workload("sweep", 0, workdir)
    item = inputs.sweep_item(0, 0, workdir)
    (rec,) = run.run_items(wl, pkg, [item])
    expect(oracle.check_sweep(item, rec.rc, rec.kept).ok, "sweep oracle accepts true output")
    lines = rec.kept.splitlines()
    fields = lines[3].split(",")
    fields[3] = repr(float(fields[3]) + 1e-6)
    lines[3] = ",".join(fields)
    bad = "\n".join(lines) + "\n"
    expect(not oracle.check_sweep(item, rec.rc, bad).ok,
           "sweep oracle rejects a corrupted margin row")
    expect(not oracle.check_sweep(item, 3, rec.kept).ok, "sweep oracle rejects a wrong exit code")

    wl = run.Workload("witness", 0, workdir)
    item = wl.item(0)
    (rec,) = run.run_items(wl, pkg, [item])
    expect_ = oracle.witness_expectation(item["spec"])
    expect(oracle.check_witness(rec.rc, rec.kept, expect_).ok, "witness oracle accepts true output")
    report = json.loads(rec.kept)
    report["margin"][500] += 1e-6
    expect(not oracle.check_witness(rec.rc, json.dumps(report), expect_).ok,
           "witness oracle rejects a corrupted margin")


def test_nonzero_exit_counts(pkg, workdir):
    wl = run.Workload("sweep", 0, workdir)
    item = inputs.sweep_item(0, 1, workdir)
    item["argv"][item["argv"].index("--dim") + 1] = "9"  # outside [2, 6]: exit 2
    records = run.run_items(wl, pkg, [item, inputs.sweep_item(0, 2, workdir)])
    run.check_records(wl, records)
    failed, worst, _ = run.outcome(records)
    expect(records[0].rc == 2 and failed == 1 and worst <= 1.0,
           "an item exiting 2 counts in fail_frac (1 of 2)")


def main():
    workdir = run.ROOT / ".bench_work" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        test_metric_names()
        pkg = run.import_program()
        test_tracer_reaches_direct_imports(pkg)
        test_oracle_rejects_corruption(pkg, workdir)
        test_nonzero_exit_counts(pkg, workdir)
    except AssertionError as exc:
        print(f"FAILED: {exc}")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
