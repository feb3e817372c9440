"""gkls-rates benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload sweep|witness|flow --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists):

- sweep:   ``gkls-rates sweep`` calls cycling d = 2, 3, 4, 5 with the same count.
- witness: ``gkls-rates witness FILE`` over the 1001-point grid on seeded
  canonical-qubit and non-canonical d = 2, 3 files.
- flow:    ``gkls-rates lyapunov`` (qr and backward) on gap-filtered files, and
  the API chain ``pauli.evolve -> spectral_track -> teich_mahler``.

Every item runs in this process: CLI items through ``gkls_rates.cli.main``
with output captured, the Pauli chain through the public API.  The loop is
closed with one client and runs items until ``--seconds`` have passed.
Outputs are checked by ``oracle.py`` after the timed loop.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
items twice, untraced and then traced, prints per-layer metrics and the
tracing overhead, and saves the spans under ``.bench_work/``.  The last
line of standard output is the JSON result.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracle  # noqa: E402
import tracer as tracing  # noqa: E402

SETUP_ROUNDS = 5
# tail percentiles with at least ten samples beyond them in a 25 s run of the
# seed program (about 300 sweep, 24 witness and 90 flow items).  They are
# fixed, so a faster program, which completes more items, reports the same
# percentile.  The sweep and flow tails lie inside one item kind's band of
# times (d = 5 calls; d = 3 QR items) rather than on the edge between two
# kinds; the witness run is too short for any tail above its median
TAIL_PERCENTILE = {"sweep": 95.0, "witness": 50.0, "flow": 80.0}
CYCLE = {"sweep": len(inputs.SWEEP_DIMS), "witness": len(inputs.WITNESS_KINDS),
         "flow": len(inputs.FLOW_KINDS)}
ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "GKLS_RATES_THREADS")

END_TO_END = (
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


# ---------------------------------------------------------------------------
# the program under test
# ---------------------------------------------------------------------------

def import_program():
    """Import ``gkls_rates`` from this checkout's ``src``; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "gkls_rates" / "__init__.py").is_file():
        raise SystemExit(f"error: no gkls_rates package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "gkls_rates" or n.startswith("gkls_rates.")]:
        del sys.modules[name]
    pkg = importlib.import_module("gkls_rates")
    importlib.import_module("gkls_rates.cli")
    if Path(pkg.__file__).resolve().parent != (src / "gkls_rates").resolve():
        raise SystemExit(f"error: imported gkls_rates from {pkg.__file__}, not {src}")
    return pkg


def run_cli(pkg, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = pkg.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def run_pauli(pkg, item):
    spec = item["spec"]
    gen = pkg.generator.build(
        spec["h"], [(inputs.rate_text(r), op) for r, op in zip(spec["rates"], spec["ops"])]
    )
    grid = np.linspace(*item["grid"])
    traj = pkg.pauli.evolve(gen, item["rho0"], grid)
    track = pkg.pauli.spectral_track(traj)
    canonical = pkg.generator.canonical_form(gen)
    rate_matrices = [pkg.pauli.teich_mahler(canonical, track, k) for k in range(len(grid))]
    return 0, (traj.states, rate_matrices)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Item source, runner, and output check of one workload."""

    def __init__(self, name, seed, workdir):
        self.name = name
        self.seed = seed
        self.workdir = workdir

    def item(self, k, stream=0):
        if self.name == "sweep":
            return inputs.sweep_item(self.seed, k, self.workdir, stream)
        if self.name == "witness":
            return inputs.witness_item(self.seed, k, self.workdir, oracle, stream)
        return inputs.flow_item(self.seed, k, self.workdir, oracle, stream)

    def warmup_item(self, r):
        """Warm-up items: the first kind of the cycle, from their own stream."""
        return self.item(r * CYCLE[self.name], stream=1)

    def run(self, pkg, item):
        """The timed call; returns (exit code, raw output)."""
        if "argv" in item:
            return run_cli(pkg, item["argv"])
        return run_pauli(pkg, item)

    @staticmethod
    def collect(item, raw):
        """Untimed: keep what the oracle needs before the next item overwrites it."""
        if "out" in item:
            try:
                with open(item["out"]) as handle:
                    text = handle.read()
            except FileNotFoundError:
                return None
            os.unlink(item["out"])
            return text
        if isinstance(raw, tuple):
            states, rate_matrices = raw
            return (np.array(states), [float(np.linalg.norm(w.w, np.inf)) for w in rate_matrices])
        return raw

    def check(self, item, rc, kept):
        if kept is None and "out" in item:
            chk = oracle.Check()
            chk.require(f"no output file (exit code {rc})", False)
            return chk
        if self.name == "sweep":
            return oracle.check_sweep(item, rc, kept)
        if self.name == "witness":
            if "expect" not in item:  # a traced run checks each item twice
                item["expect"] = oracle.witness_expectation(item["spec"])
            return oracle.check_witness(rc, kept, item["expect"])
        if "argv" in item:
            return oracle.check_lyapunov(item, rc, kept)
        states, w_norms = kept
        return oracle.check_pauli(item, states, w_norms)


class Record:
    __slots__ = ("item", "seconds", "rc", "kept", "error", "check")

    def __init__(self, item, seconds, rc, kept, error):
        self.item, self.seconds, self.rc, self.kept, self.error = item, seconds, rc, kept, error
        self.check = None


def run_items(workload, pkg, items, seconds=None):
    """Run ``items`` in order, or new items until ``seconds`` have passed.

    A timed loop stops only after a whole cycle of item kinds, so every run
    holds each kind equally often.
    """
    records = []
    start = time.perf_counter()
    k = 0
    while True:
        if seconds is None:
            if k >= len(items):
                break
            item = items[k]
        else:
            if k == len(items):
                items.append(workload.item(k))
            item = items[k]
        t0 = time.perf_counter()
        try:
            rc, raw = workload.run(pkg, item)
            error = None
        except Exception:  # the item failed; the run goes on and counts it
            rc, raw, error = None, None, traceback.format_exc(limit=3)
        t1 = time.perf_counter()
        kept = workload.collect(item, raw) if error is None else None
        records.append(Record(item, t1 - t0, rc, kept, error))
        k += 1
        if seconds is not None and t1 - start >= seconds and k % CYCLE[workload.name] == 0:
            break
    return records


def check_records(workload, records):
    for rec in records:
        if rec.error is not None:
            rec.check = oracle.Check()
            rec.check.require("raised: " + rec.error.strip().splitlines()[-1], False)
        else:
            try:
                rec.check = workload.check(rec.item, rec.rc, rec.kept)
            except Exception:  # unreadable output counts as a failed item
                rec.check = oracle.Check()
                rec.check.require("check raised: " + traceback.format_exc(limit=2), False)
        rec.kept = None


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(times_ms, percentile):
    """The ``percentile`` of the item times and how many samples lie beyond it."""
    q = statistics.quantiles(times_ms, n=1000, method="inclusive")[int(round(percentile * 10)) - 1]
    return q, sum(1 for t in times_ms if t > q)


def end_to_end(records, setup_s, workload):
    times_ms = [r.seconds * 1e3 for r in records]
    busy = sum(r.seconds for r in records)
    tail_p = TAIL_PERCENTILE[workload]
    tail_ms, beyond = tail(times_ms, tail_p)
    values = {
        "items_per_s": sum(r.item["units"] for r in records) / busy,
        "item_p50_ms": statistics.median(times_ms),
        "item_tail_ms": tail_ms,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, {"item_tail_percentile": tail_p, "item_samples": len(times_ms),
                    "item_samples_beyond_tail": beyond}


def outcome(records):
    failed = sum(1 for r in records if not r.check.ok)
    worst = max((r.check.ratio for r in records), default=0.0)
    notes = [f"{r.item['kind']}: {note}" for r in records for note in r.check.notes][:10]
    return failed, worst, notes


def per_layer(tr):
    cols = tr.columns()
    names = np.array(tr.names, dtype=object)
    span_names = names[cols["name"].astype(int)] if len(cols["sid"]) else np.array([], dtype=object)
    layers = np.array([n.split(".", 1)[0] for n in span_names], dtype=object)
    self_s = tracing.self_times(cols)
    dur = cols["t1"] - cols["t0"]
    total_self = float(np.sum(self_s)) or 1.0
    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    for layer in tracing.LAYERS:
        mask = layers == layer
        put(f"{layer}.calls", np.sum(mask), "count")
        put(f"{layer}.self_s", np.sum(self_s[mask]), "s")
        put(f"{layer}.self_share", np.sum(self_s[mask]) / total_self, "ratio")
        put(f"{layer}.errors", np.sum(cols["err"][mask]), "count")

    def fn_mask(name):
        return span_names == name

    def per_call(name, scale):
        mask = fn_mask(name)
        return float(np.mean(dur[mask])) * scale if np.any(mask) else 0.0

    def extra_values(name):
        return [tr.extra[int(s)] for s in cols["sid"][fn_mask(name)] if int(s) in tr.extra]

    def under(name):
        ids = {i for i, n in enumerate(tr.names) if n == name}
        return tracing.has_ancestor(cols, ids)

    for name in ("generator.reshape", "ratelang.evaluate", "matcore.eig", "matcore.qr",
                 "matcore.expm", "spectra.relaxation_spectrum"):
        put(f"{name}.calls", np.sum(fn_mask(name)), "count")
        put(f"{name}.us_per_call", per_call(name, 1e6), "us")
    for name in ("generator.random_cp", "generator.canonicalize"):
        put(f"{name}.us_per_call", per_call(name, 1e6), "us")
    put("generator.gks_decompose.calls", np.sum(fn_mask("generator.gks_decompose")), "count")
    herm = extra_values("matcore.eig")
    put("matcore.eig.hermitian_share", np.mean(herm) if herm else 0.0, "ratio")

    points = sum(extra_values("witness.scan"))
    eig_in_scan = np.sum(fn_mask("matcore.eig") & under("witness.scan"))
    put("witness.spectra_per_point", eig_in_scan / points if points else 0.0, "ratio")

    for name in ("lyapunov.qr_spectrum", "lyapunov.max_exponent_backward", "pauli.evolve",
                 "pauli.spectral_track"):
        put(f"{name}.ms_per_call", per_call(name, 1e3), "ms")
    td_points = sum(n for n, td in extra_values("pauli.evolve") if td)
    evals = np.sum(fn_mask("ratelang.evaluate") & under("pauli.evolve"))
    put("pauli.evolve.rate_evals_per_point", evals / td_points if td_points else 0.0, "ratio")
    put("fileio.bytes_written", sum(extra_values("fileio.atomic_write")), "B")
    put("trace.spans", len(cols["sid"]), "count")
    put("trace.threads", len(set(cols["thread"].tolist())), "count")
    return m


TRACE_HOOKS = {
    # the Hermitian path reports condition 1 and copies the right vectors
    "matcore.eig": lambda a, k, res: bool(
        res.vector_condition == 1.0 and np.array_equal(res.left_vectors, res.right_vectors)
    ),
    "witness.scan": lambda a, k, res: len(res.grid),
    "pauli.evolve": lambda a, k, res: (
        len(res.grid), bool((a[0] if a else k["gen"]).time_dependent)
    ),
    "fileio.atomic_write": lambda a, k, res: len((a[1] if len(a) > 1 else k["text"]).encode()),
}


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment():
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "env": {v: os.environ.get(v, "unset") for v in ENV_VARS},
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def setup(workload):
    """SETUP_ROUNDS rounds of (import gkls_rates, one warm-up item); returns the median.

    Each round drops the gkls_rates modules and imports them again, so
    module-level work is paid every round; numpy and scipy stay loaded.
    """
    rounds = []
    pkg = None
    for r in range(SETUP_ROUNDS):
        t0 = time.perf_counter()
        pkg = import_program()
        t_import = time.perf_counter() - t0
        item = workload.warmup_item(r)
        t1 = time.perf_counter()
        workload.run(pkg, item)
        rounds.append(t_import + time.perf_counter() - t1)
    return pkg, statistics.median(rounds), rounds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "witness", "flow"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    import_program()  # fail before writing anything if the program is missing
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = Workload(args.workload, args.seed, workdir)
        pkg, setup_s, setup_rounds = setup(workload)
        items = []
        if args.trace:
            half = args.seconds / 2.0
            plain = run_items(workload, pkg, items, seconds=half)
            tr = tracing.Tracer().install(pkg, TRACE_HOOKS)
            try:
                traced = run_items(workload, pkg, items)
            finally:
                tr.uninstall()
            records = plain + traced
            overhead = sum(r.seconds for r in traced) / sum(r.seconds for r in plain)
        else:
            records = plain = run_items(workload, pkg, items, seconds=args.seconds)
        e2e, tail_info = end_to_end(plain, setup_s, args.workload)
        check_records(workload, records)
        failed, worst, notes = outcome(records)
        attempted = len(records)

        if args.trace:
            metrics = per_layer(tr)
            for name, value in (("trace.overhead_ratio", overhead),
                                ("oracle.fail_frac", failed / attempted),
                                ("oracle.max_err_ratio", worst)):
                metrics[name] = {"value": value, "unit": "ratio"}
            spans_path = ROOT / ".bench_work" / f"spans-{args.workload}.npz"
            tr.write(spans_path)
        else:
            metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

        kinds = {}
        for r in plain:
            kinds.setdefault(r.item["kind"], []).append(r.seconds * 1e3)
        kinds = {k: {"n": len(v), "p50_ms": round(statistics.median(v), 3)}
                 for k, v in kinds.items()}
        print(json.dumps({"environment": environment()}))
        print(json.dumps({"summary": {
            "workload": args.workload,
            "seed": args.seed,
            "trace": bool(args.trace),
            "fail_frac": failed / attempted,
            "max_err_ratio": worst,
            **{k: round(v, 6) for k, v in e2e.items()},
            **tail_info,
            "setup_rounds_s": [round(s, 6) for s in setup_rounds],
            "items_by_kind": kinds,
            "failures": notes,
            **({"trace_overhead_ratio": round(overhead, 4), "spans_file": str(spans_path)}
               if args.trace else {}),
        }}))
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
