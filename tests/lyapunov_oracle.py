"""The per-step loops of ``lyapunov.max_exponent_backward`` and
``lyapunov.qr_spectrum`` that the block propagator replaced, kept as a test
oracle: one propagator product, one renormalization or QR per step."""

import numpy as np
import scipy.linalg

from gkls_rates import generator as genmod
from gkls_rates import spectra
from gkls_rates.errors import (
    NonGenericInitialStateError,
    RankDeficientError,
    TimeDependentError,
    UnconvergedError,
)
from gkls_rates.lyapunov import (
    CONVERGENCE_TOL,
    LyapunovEstimate,
    _disagreement,
    _step_grid,
    _windows_from_series,
)
from gkls_rates.matcore import SPECTRAL_TOL, hs_inner, qr


def max_exponent_backward(gen, rho0, horizon, renorm_interval=None):
    if gen.time_dependent:
        raise TimeDependentError("backward estimation requires an autonomous generator")
    steps, delta, burn_index = _step_grid(gen, horizon, renorm_interval, "renorm")

    spectrum = spectra.relaxation_spectrum(gen)
    gamma_max = float(spectrum.rates[-1])
    tol_rate = SPECTRAL_TOL * max(1.0, gamma_max)
    dominant = [
        l for l in range(len(spectrum.rates)) if spectrum.rates[l] >= gamma_max - tol_rate
    ]
    rho0 = np.asarray(rho0, dtype=complex)
    rnorm = float(np.linalg.norm(rho0))
    best = max(
        abs(hs_inner(spectrum.left_ops[l], rho0))
        / max(1e-300, float(np.linalg.norm(spectrum.left_ops[l])) * rnorm)
        for l in dominant
    )
    if best <= SPECTRAL_TOL:
        raise NonGenericInitialStateError(
            f"overlap with the dominant left mode is {best:.2e}"
        )

    prop = scipy.linalg.expm(-delta * genmod.reshape(gen))

    v = genmod.vec(rho0)
    v = v / np.linalg.norm(v)
    logsum = 0.0
    times = [0.0]
    values = [0.0]
    for k in range(1, steps + 1):
        v = prop @ v
        growth = float(np.linalg.norm(v))
        logsum += np.log(growth)
        v = v / growth
        times.append(k * delta)
        values.append(logsum)

    chi, gap, windows = _windows_from_series(np.array(times), np.array(values), burn_index)
    estimate = LyapunovEstimate(
        chi=float(chi),
        spectrum=None,
        burn_in=burn_index * delta,
        horizon=float(horizon),
        convergence_gap=float(gap),
        windows=windows,
    )
    if not estimate.converged:
        distinct = np.unique(np.round(spectrum.rates, 10))
        sub_gap = gamma_max - distinct[-2] if len(distinct) > 1 else 0.0
        raise UnconvergedError(
            f"window estimates disagree by {gap:.2e} (> {CONVERGENCE_TOL}); "
            f"spectral gap to the subdominant rate is {sub_gap:.3e}",
            estimate=estimate,
        )
    return estimate


def qr_spectrum(gen, horizon, reortho_interval=None):
    steps, delta, burn_k = _step_grid(gen, horizon, reortho_interval, "reortho")
    n = gen.dim * gen.dim
    autonomous = not gen.time_dependent
    if autonomous:
        prop = scipy.linalg.expm(-delta * genmod.reshape(gen))
    else:
        parts = genmod.superop_parts(gen)
        norms = np.linalg.norm(parts.at(np.linspace(0.0, horizon, 65)), axis=(1, 2))
        substeps = max(4, int(np.ceil(delta * max(float(np.max(norms)), 1e-12) * 50.0)))

    q = np.eye(n, dtype=complex)
    acc = np.zeros(n)
    # snapshots for burn-in removal and the convergence diagnostics
    snap_at = sorted({burn_k} | {max(1, int(round(f * steps))) for f in (0.5, 0.75)})
    snaps = {}
    top_series_t = [0.0]
    top_series_v = [0.0]
    for k in range(1, steps + 1):
        z = prop @ q if autonomous else parts.flow(q, (k - 1) * delta, k * delta, substeps, -1.0)
        try:
            q, r = qr(z)
        except RankDeficientError as exc:
            raise RankDeficientError(f"flow collapsed at t={k * delta:.6g}: {exc}") from exc
        acc = acc + np.log(np.diagonal(r).real)
        if k in snap_at:
            snaps[k] = acc.copy()
        top_series_t.append(k * delta)
        top_series_v.append(float(acc[0]))

    # discard the flag-locking transient: exponents are averaged over the
    # post-burn-in window, which removes the O(1/horizon) bias
    exponents = (acc - snaps[burn_k]) / ((steps - burn_k) * delta)
    half_idx = max(burn_k, int(round(0.5 * steps)))
    quarter_idx = max(half_idx, int(round(0.75 * steps)))
    chi_half = (acc - snaps.get(half_idx, snaps[burn_k])) / max((steps - half_idx) * delta, delta)
    chi_quarter = (acc - snaps.get(quarter_idx, snaps[burn_k])) / max(
        (steps - quarter_idx) * delta, delta
    )
    gap = _disagreement(chi_half, chi_quarter)

    _, _, windows = _windows_from_series(
        np.array(top_series_t), np.array(top_series_v), burn_k
    )
    estimate = LyapunovEstimate(
        chi=float(np.max(exponents)),
        spectrum=np.sort(exponents),
        burn_in=burn_k * delta,
        horizon=float(horizon),
        convergence_gap=gap,
        windows=windows,
    )
    if not estimate.converged:
        raise UnconvergedError(
            f"QR exponent windows disagree by {gap:.2e} (> {CONVERGENCE_TOL})",
            estimate=estimate,
        )
    return estimate
