#!/usr/bin/env python3
"""Convergence study of the Lyapunov estimators against the exact rates.

For a preset (or a random CP generator) runs the backward population
estimator and the QR spectrum over a ladder of horizons and reports the
deviation from the relaxation spectrum, plus per-window CSVs for plotting.
A horizon whose window estimates disagree by more than the convergence
tolerance still gets its row, from the partial estimate, marked
``unconverged``.

Usage: python scripts/lyapunov_convergence.py [--preset amplitude_damping]
       python scripts/lyapunov_convergence.py --random-dim 3 --seed 5
"""

import argparse

import numpy as np

from gkls_rates import generator, lyapunov, spectra, witness
from gkls_rates.errors import UnconvergedError


def estimate_or_partial(estimator, *args, **kwargs):
    """(estimate, converged); an unconverged run yields its partial estimate."""
    try:
        return estimator(*args, **kwargs), True
    except UnconvergedError as exc:
        return exc.estimate, False


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", default="amplitude_damping")
    parser.add_argument("--random-dim", type=int, help="use random_cp of this dim instead")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--horizons", default="10,25,50,100,200")
    parser.add_argument("--csv-prefix", help="write <prefix>_h<horizon>.csv window tables")
    args = parser.parse_args()

    if args.random_dim:
        gen = generator.random_cp(args.random_dim, args.random_dim**2 - 1, seed=args.seed)
        name = f"random_cp(d={args.random_dim}, seed={args.seed})"
    else:
        gen = witness.preset(args.preset)
        name = args.preset

    spec = spectra.relaxation_spectrum(gen)
    gamma_max = float(spec.rates[-1])
    print(f"{name}: exact rates {np.array2string(spec.rates, precision=6)}")

    rng = np.random.default_rng(args.seed)
    a = rng.standard_normal((gen.dim, gen.dim)) + 1j * rng.standard_normal((gen.dim, gen.dim))
    rho0 = a @ a.conj().T
    rho0 /= np.trace(rho0).real

    print(f"{'horizon':>8} {'chi_backward':>14} {'|chi-Gmax|':>12} {'max|QR-rates|':>14}")
    for horizon in [float(h) for h in args.horizons.split(",")]:
        back, back_ok = estimate_or_partial(lyapunov.max_exponent_backward, gen, rho0, horizon)
        qr_est, qr_ok = estimate_or_partial(lyapunov.qr_spectrum, gen, horizon)
        dev_qr = float(np.max(np.abs(qr_est.spectrum - spec.rates)))
        print(
            f"{horizon:8.1f} {back.chi:14.8f} {abs(back.chi - gamma_max):12.2e} {dev_qr:14.2e}"
            + ("" if back_ok and qr_ok else "  unconverged")
        )
        if args.csv_prefix:
            path = f"{args.csv_prefix}_h{horizon:g}.csv"
            lyapunov.export_windows_csv(back, path)
            print(f"  wrote {path}")


if __name__ == "__main__":
    main()
