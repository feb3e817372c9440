"""Lyapunov exponents of the flows attached to a generator.

Two estimators are provided.  The backward estimator integrates the
auxiliary flow rhodot = -L(t) rho (equivalently the original flow run to
negative times), renormalizing the population vector and accumulating log
growth; its limit is the maximal relaxation rate.  The QR estimator
factorizes the full d^2 x d^2 flow into unitary times upper-triangular and
time-averages the log growth of the triangular diagonal, recovering the
whole exponent spectrum.  For completely positive evolution the exponents
inherit the rate bound chi_max <= (1/d) sum chi_l; time-dependent
generators with temporarily negative rates can violate it, which is the
divisibility witness evaluated here.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import generator as genmod
from . import spectra
from .errors import (
    NonGenericInitialStateError,
    RankDeficientError,
    TimeDependentError,
    UnconvergedError,
)
from .fileio import atomic_write, fmt17
from .matcore import hs_inner, qr

__all__ = [
    "LyapunovEstimate",
    "DivisibilityReport",
    "max_exponent_backward",
    "qr_spectrum",
    "divisibility_bounds",
    "export_windows_csv",
]

CONVERGENCE_TOL = 1e-2
_GENERIC_TOL = 1e-8
_MAX_STEPS = 10_000_000


@dataclass(frozen=True)
class LyapunovEstimate:
    """Estimated exponent(s) with window diagnostics.

    ``chi`` is the supremum of window-averaged growth rates over dyadic
    post-burn-in windows (it coincides with the mean in convergent cases);
    ``windows`` carries (start_time, window_chi, cumulative_chi) rows for
    convergence plots.
    """

    chi: float
    spectrum: object  # None or ascending ndarray of length d^2
    burn_in: float
    horizon: float
    convergence_gap: float
    windows: tuple

    @property
    def converged(self):
        return self.convergence_gap <= CONVERGENCE_TOL


@dataclass(frozen=True)
class DivisibilityReport:
    chi_max: float
    rhs_cp: float
    correction_sup: float
    correction_mean: float
    cp_bound_holds: bool
    cb_bound_holds: bool
    estimate: LyapunovEstimate


def _default_interval(gen, horizon):
    scale = float(np.sum(np.abs(gen.rates_at(0.0)))) if gen.channels else 0.0
    if scale <= 0.0:
        return horizon / 256.0
    return min(0.5 / scale, horizon / 8.0)


def _step_grid(gen, horizon, interval, name):
    """Step count, step length and burn-in step: at least 8 equal steps, none
    longer than the interval; horizon and interval must be finite and positive."""
    if not (np.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be finite and positive, got {horizon}")
    if interval is None:
        interval = _default_interval(gen, horizon)
    if not (np.isfinite(interval) and interval > 0.0):
        raise ValueError(f"{name} interval must be finite and positive, got {interval}")
    steps = np.ceil(horizon / interval)  # inf when the ratio overflows
    if steps > _MAX_STEPS:
        raise ValueError(f"{name} interval {interval} implies {steps:.0f} steps")
    steps = max(int(steps), 8)
    return steps, horizon / steps, max(1, int(round(0.2 * steps)))


def _windows_from_series(times, values, burn_index):
    """Dyadic window rates on [burn, end] plus the sup and gap diagnostics.

    The estimate is the supremum of the window-averaged rates over the
    nested post-burn-in dyadic windows [burn, b_j]; short disjoint windows
    would amplify the oscillation of complex dominant pairs, the nested
    family averages it out while still realizing a lim sup numerically.
    """
    last = len(times) - 1
    burn_index = min(burn_index, last - 1) if last > 0 else 0

    def rate(a, b):
        return (values[b] - values[a]) / (times[b] - times[a])

    bounds = [burn_index]
    cur = burn_index
    while last - cur >= 8:
        cur = cur + max(4, (last - cur) // 2)
        bounds.append(min(cur, last))
    if bounds[-1] != last:
        bounds.append(last)

    windows = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        windows.append(
            (float(times[a]), rate(a, b), rate(burn_index, b))
        )
    if not windows:
        windows = [(float(times[0]), 0.0, 0.0)]
        chi = 0.0
    else:
        chi = max(w[2] for w in windows)

    half = last - max(1, (last - burn_index) // 2)
    quarter = last - max(1, (last - burn_index) // 4)
    r_half = rate(half, last) if last > half else 0.0
    r_quarter = rate(quarter, last) if last > quarter else 0.0
    gap = abs(r_half - r_quarter) / max(abs(r_half), abs(r_quarter), 1e-12)
    return chi, gap, tuple(windows)


def _population_norm(v, d, kind):
    if kind == "two":
        return float(np.linalg.norm(v))
    pops = np.linalg.eigvalsh(genmod.unvec(v, d))
    if kind == "one":
        return float(np.sum(np.abs(pops)))
    if kind == "inf":
        return float(np.max(np.abs(pops)))
    raise ValueError(f"unknown norm kind {kind!r}")


def max_exponent_backward(gen, rho0, horizon, renorm_interval=None, norm="two"):
    """Maximal exponent of the backward population flow.

    Runs the sign-flipped flow forward from ``rho0``, renormalizing every
    ``renorm_interval`` and accumulating log growth of the chosen population
    norm.  The initial state must overlap the dominant left mode; the
    estimate converges to the largest relaxation rate at a speed set by the
    spectral gap.
    """
    if gen.time_dependent:
        raise TimeDependentError("backward estimation requires an autonomous generator")
    steps, delta, burn_index = _step_grid(gen, horizon, renorm_interval, "renorm")

    spectrum = spectra.relaxation_spectrum(gen)
    gamma_max = float(spectrum.rates[-1])
    tol_rate = 1e-8 * max(1.0, gamma_max)
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
    if best <= _GENERIC_TOL:
        raise NonGenericInitialStateError(
            f"overlap with the dominant left mode is {best:.2e}"
        )

    smat = genmod.reshape(gen).matrix
    prop = scipy.linalg.expm(-delta * smat)
    d = gen.dim

    v = genmod.vec(rho0)
    v = v / np.linalg.norm(v)
    logsum = 0.0
    times = [0.0]
    values = [np.log(max(_population_norm(v, d, norm), 1e-300))]
    for k in range(1, steps + 1):
        v = prop @ v
        growth = float(np.linalg.norm(v))
        logsum += np.log(growth)
        v = v / growth
        times.append(k * delta)
        values.append(logsum + np.log(max(_population_norm(v, d, norm), 1e-300)))

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
    """Full exponent spectrum of the auxiliary flow via periodic QR.

    Integrates Gdot = -L(t) G with G(0) = identity, re-factorizing G = QR
    every ``reortho_interval`` and accumulating log R_ii; exponents are the
    time averages, sorted ascending.  For autonomous generators the sorted
    spectrum converges to the sorted relaxation rates; one exponent always
    vanishes by trace preservation.
    """
    steps, delta, burn_k = _step_grid(gen, horizon, reortho_interval, "reortho")
    n = gen.dim * gen.dim
    autonomous = not gen.time_dependent
    if autonomous:
        prop = scipy.linalg.expm(-delta * genmod.reshape(gen).matrix)
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
    gap = float(
        np.max(np.abs(chi_half - chi_quarter))
        / max(np.max(np.abs(chi_half)), np.max(np.abs(chi_quarter)), 1e-12)
    )

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


def divisibility_bounds(gen, horizon, rate_samples=2001):
    """Evaluate the exponent bound and its negative-rate correction.

    Reports chi_max, (1/d) sum of the remaining exponents, and the
    correction sup_t sum_l (|gamma_l(t)| - gamma_l(t))/d (also its time
    average, the trace-norm rate of change).  For completely positive
    evolution the correction vanishes and the plain bound must hold.
    """
    estimate = qr_spectrum(gen, horizon)
    exponents = np.asarray(estimate.spectrum)
    chi_max = float(exponents[-1])
    rhs_cp = float(np.sum(exponents[1:]) / gen.dim)

    ts = np.linspace(0.0, horizon, rate_samples)
    if gen.time_dependent:
        corr = np.empty(len(ts))
        for i, t in enumerate(ts):
            g = genmod.canonical_rates_at(gen, t)
            corr[i] = float(np.sum(np.abs(g) - g) / gen.dim)
    else:
        g = genmod.canonical_rates_at(gen)
        corr = np.full(len(ts), float(np.sum(np.abs(g) - g) / gen.dim))
    correction_sup = float(np.max(corr))
    correction_mean = float(np.trapezoid(corr, ts) / horizon)

    tol = max(1e-6, 2.0 * estimate.convergence_gap) * max(1.0, abs(chi_max))
    return DivisibilityReport(
        chi_max=chi_max,
        rhs_cp=rhs_cp,
        correction_sup=correction_sup,
        correction_mean=correction_mean,
        cp_bound_holds=bool(chi_max <= rhs_cp + tol),
        cb_bound_holds=bool(chi_max <= rhs_cp + correction_sup + tol),
        estimate=estimate,
    )


def export_windows_csv(estimate, path):
    """Window table for convergence plots."""
    lines = ["window_start,window_chi,cumulative_chi"]
    for start, wchi, cchi in estimate.windows:
        lines.append(",".join([fmt17(start), fmt17(wchi), fmt17(cchi)]))
    atomic_write(path, "\n".join(lines) + "\n")
