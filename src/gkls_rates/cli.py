"""Command-line front end.

Subcommands read generator JSON files (or preset names), run the analyses,
and emit JSON/CSV reports.  Exit codes are stable: 0 ok/bound satisfied,
2 input error, 3 autonomous bound violated, 4 witness fired, 5 estimate
unconverged.

Generator file schema::

    {
      "dim": 2,
      "hamiltonian": [[[re, im], ...], ...],
      "channels": [{"rate": 1.0 | "1 - 0.5*tanh(t)", "matrix": [[[re, im], ...], ...]}],
      "label": "optional"
    }

Complex entries are [re, im] pairs; a string rate makes the generator time
dependent.
"""

import argparse
import json
import os
import sys
# unused here; kept as an attribute because perfbench/tracer.py patches cli.ThreadPoolExecutor
from concurrent.futures import ThreadPoolExecutor  # noqa: F401

import numpy as np

from . import classical as clmod
from . import generator as genmod
from . import lyapunov as lymod
from . import spectra, witness
from .errors import GklsError, SchemaError, UnconvergedError, ValidationError
from .fileio import atomic_write, fmt17

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_BOUND_VIOLATED = 3
EXIT_WITNESS_FIRED = 4
EXIT_UNCONVERGED = 5


# ---------------------------------------------------------------------------
# generator file loading
# ---------------------------------------------------------------------------

def _complex_entry(value, where):
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(x, (int, float)) for x in value)
    ):
        raise SchemaError(where, "complex entries must be [re, im] number pairs")
    return complex(value[0], value[1])


def _complex_matrix(rows, dim, where):
    if not isinstance(rows, list) or len(rows) != dim:
        raise SchemaError(where, f"expected {dim} rows")
    out = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise SchemaError(f"{where}[{i}]", f"expected {dim} entries")
        for j, entry in enumerate(row):
            out[i, j] = _complex_entry(entry, f"{where}[{i}][{j}]")
    return out


def load_generator_document(doc):
    """Build a generator from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise SchemaError("$", "document must be an object")
    dim = doc.get("dim")
    if not isinstance(dim, int) or dim < 2:
        raise SchemaError("$.dim", "dim must be an integer >= 2")
    h = _complex_matrix(doc.get("hamiltonian"), dim, "$.hamiltonian")
    raw_channels = doc.get("channels", [])
    if not isinstance(raw_channels, list):
        raise SchemaError("$.channels", "channels must be a list")
    channels = []
    for k, ch in enumerate(raw_channels):
        if not isinstance(ch, dict) or "rate" not in ch or "matrix" not in ch:
            raise SchemaError(f"$.channels[{k}]", "each channel needs 'rate' and 'matrix'")
        rate = ch["rate"]
        if not isinstance(rate, (int, float, str)):
            raise SchemaError(f"$.channels[{k}].rate", "rate must be a number or a string")
        channels.append((rate, _complex_matrix(ch["matrix"], dim, f"$.channels[{k}].matrix")))
    try:
        return genmod.build(h, channels), doc.get("label")
    except GklsError:
        raise
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def _read_json(path):
    """The parsed JSON document of ``path``; a syntax error names path:line:col."""
    with open(path, "r") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg) from exc


def load_generator_file(path):
    return load_generator_document(_read_json(path))


def _resolve_generator(target, force_file=False):
    """Preset names win over files unless --file forces file semantics."""
    if not force_file and target in witness.PRESET_NAMES:
        return witness.preset(target), target
    if not os.path.exists(target):
        raise FileNotFoundError(f"no such file: {target}")
    return load_generator_file(target)


def _write_json(path, payload):
    atomic_write(path, json.dumps(payload, indent=2) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_analyze(args):
    gen, label = _resolve_generator(args.target, args.file)
    if gen.time_dependent:
        raise ValidationError("time-dependent generator: use the witness subcommand")
    canonical = genmod.canonical_form(gen)
    spec = spectra.relaxation_spectrum(gen)
    report = spectra.check_bound(spec, gen.dim)
    gammas = canonical.rates_at(0.0)
    print(f"label: {label or '-'}  dim: {gen.dim}")
    print("canonical rates:", " ".join(fmt17(g) for g in gammas))
    print("relaxation rates:", " ".join(fmt17(r) for r in spec.rates))
    print(
        f"bound: gamma_max={fmt17(report.gamma_max)} total/d={fmt17(report.total_over_d)} "
        f"margin={fmt17(report.margin)} satisfied={report.satisfied} saturated={report.saturated}"
    )
    if args.json:
        payload = {
            "label": label,
            "dim": gen.dim,
            "canonical_rates": [float(g) for g in gammas],
            "rates": [float(r) for r in spec.rates],
            "eigenvalues": [[float(l.real), float(l.imag)] for l in spec.eigenvalues],
            "bound": report.to_dict(),
        }
        _write_json(args.json, payload)
    return EXIT_OK if report.satisfied else EXIT_BOUND_VIOLATED


def cmd_witness(args):
    gen, label = _resolve_generator(args.target, args.file)
    with np.errstate(invalid="ignore"):  # scan rejects the NaN points of an infinite end
        grid = np.linspace(args.t0, args.t1, args.steps)
    report = witness.scan(gen, grid)
    n_viol = len(report.violation_intervals)
    print(f"label: {label or '-'}  grid: [{args.t0}, {args.t1}] x {args.steps}")
    print(f"cp_divisible: {report.cp_divisible}  min margin: {fmt17(float(np.min(report.margin)))}")
    for a, b in report.violation_intervals:
        print(f"violation: ({fmt17(a)}, {fmt17(b)})")
    if not n_viol:
        print("no violation found")
    if args.json:
        _write_json(args.json, report.to_dict())
    return EXIT_WITNESS_FIRED if n_viol else EXIT_OK


def _random_density(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1.0j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def cmd_lyapunov(args):
    gen, label = _resolve_generator(args.target, args.file)
    spec = None
    if not gen.time_dependent:
        spec = spectra.relaxation_spectrum(gen)
    exit_code = EXIT_OK
    try:
        if args.mode == "backward":
            if gen.time_dependent:
                raise ValidationError("backward mode requires an autonomous generator")
            rho0 = _random_density(gen.dim, args.seed)
            estimate = lymod.max_exponent_backward(gen, rho0, args.horizon)
        else:
            estimate = lymod.qr_spectrum(gen, args.horizon)
    except UnconvergedError as exc:
        print(f"unconverged: {exc}", file=sys.stderr)
        estimate = exc.estimate
        exit_code = EXIT_UNCONVERGED

    print(f"label: {label or '-'}  mode: {args.mode}  horizon: {args.horizon}")
    print(f"chi: {fmt17(estimate.chi)}  convergence_gap: {fmt17(estimate.convergence_gap)}")
    if estimate.spectrum is not None:
        print("spectrum:", " ".join(fmt17(x) for x in estimate.spectrum))
    if spec is not None:
        gamma_max = float(spec.rates[-1])
        print(
            f"gamma_max (spectra): {fmt17(gamma_max)}  "
            f"difference: {fmt17(estimate.chi - gamma_max)}"
        )
    if args.csv:
        lymod.export_windows_csv(estimate, args.csv)
    return exit_code


def cmd_sweep(args):
    if not 2 <= args.dim <= 6:
        raise ValidationError("dim must lie in [2, 6]")
    if args.count < 1:
        raise ValidationError("count must be >= 1")
    seeds, n_channels = range(args.seed, args.seed + args.count), args.dim * args.dim - 1
    gamma_sum, gamma_max, margin, saturated, ok = spectra.bound_sweep(args.dim, n_channels, seeds)
    all_ok = bool(np.all(ok))
    print(f"dim={args.dim} count={args.count} worst margin={fmt17(np.min(margin))} all_ok={all_ok}")
    if args.csv:
        lines = ["seed,gamma_sum,gamma_max,margin,saturated"]
        for seed, *values, sat in zip(seeds, gamma_sum, gamma_max, margin, saturated):
            lines.append(",".join([str(seed), *map(fmt17, values), str(bool(sat)).lower()]))
        atomic_write(args.csv, "\n".join(lines) + "\n")
    return EXIT_OK if all_ok else EXIT_BOUND_VIOLATED


def _load_kolmogorov_file(path):
    doc = _read_json(path)
    if not isinstance(doc, dict) or "k" not in doc:
        raise SchemaError("$", "expected an object with a real matrix under 'k'")
    k = doc["k"]
    if not isinstance(k, list) or not all(isinstance(r, list) for r in k):
        raise SchemaError("$.k", "expected a list of rows")
    try:
        return clmod.validate(np.array(k, dtype=float))
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def cmd_classical(args):
    if args.rates is not None:
        try:
            rates = [float(x) for x in args.rates.split(",")]  # an empty field raises
        except ValueError as exc:
            raise ValidationError(f"bad rate list {args.rates!r}") from exc
        kolmo = clmod.from_rates(rates)
    elif args.target is not None:
        kolmo = _load_kolmogorov_file(args.target)
    else:
        raise ValidationError("supply --rates or a file path")
    eigenvalues = np.linalg.eigvals(kolmo.k)
    order = np.lexsort((eigenvalues.imag, -eigenvalues.real))
    rates = clmod.classical_spectrum(kolmo)
    print(f"dim: {kolmo.dim}")
    print("eigenvalues:", " ".join(f"{fmt17(l.real)}{l.imag:+.17g}j" for l in eigenvalues[order]))
    print("classical rates:", " ".join(fmt17(r) for r in rates))
    print(
        "note: classical rates are unconstrained; any nonnegative list is realizable, "
        "unlike the quantum case where the maximal rate is bounded by the total rate over d"
    )
    if args.csv:
        lines = ["eigenvalue_re,eigenvalue_im,rate"]
        for lam, rate in zip(eigenvalues[order], rates):
            lines.append(",".join([fmt17(lam.real), fmt17(lam.imag), fmt17(rate)]))
        atomic_write(args.csv, "\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="gkls-rates",
        description="Relaxation-rate spectra, the universal rate bound, and "
        "non-Markovianity witnesses for GKLS generators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="canonical rates, spectrum, and the rate bound")
    p.add_argument("target", help="generator file or preset name")
    p.add_argument("--file", action="store_true", help="force file semantics")
    p.add_argument("--json", help="write a JSON report")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("witness", help="scan the temporal bound for violations")
    p.add_argument("target", help="generator file or preset name")
    p.add_argument("--file", action="store_true")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, default=10.0)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--json", help="write the witness report")
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("lyapunov", help="Lyapunov exponents of the auxiliary flow")
    p.add_argument("target", help="generator file or preset name")
    p.add_argument("--file", action="store_true")
    p.add_argument("--mode", choices=("backward", "qr"), default="backward")
    p.add_argument("--horizon", type=float, default=50.0)
    p.add_argument("--seed", type=int, default=0, help="seed for the initial state")
    p.add_argument("--csv", help="write the window table")
    p.set_defaults(fn=cmd_lyapunov)

    p = sub.add_parser("sweep", help="mass-verify the bound on random CP generators")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", help="write per-sample results")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("classical", help="classical Kolmogorov generators")
    p.add_argument("target", nargs="?", help="Kolmogorov matrix file")
    p.add_argument("--rates", help="comma-separated nonnegative rates")
    p.add_argument("--csv", help="write the spectrum table")
    p.set_defaults(fn=cmd_classical)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, GklsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
