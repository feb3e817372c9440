"""Lyapunov exponents of the flows attached to a generator.

Two estimators are provided.  The backward estimator integrates the
auxiliary flow rhodot = -L(t) rho (equivalently the original flow run to
negative times) from vec(rho0), renormalizing the state and accumulating
the log growth of its 2-norm; its limit is the maximal relaxation rate.
It is the first column of the QR flow started from another vector, so both
read that series through one helper.  The QR estimator
factorizes the full d^2 x d^2 flow into unitary times upper-triangular and
time-averages the log growth of the triangular diagonal, recovering the
whole exponent spectrum.  For completely positive evolution the exponents
inherit the rate bound chi_max <= (1/d) sum chi_l; time-dependent
generators with temporarily negative rates can violate it, which is the
divisibility witness evaluated here.

An autonomous flow advances in blocks of up to 64 steps from one stack
P^1..P^k of the step propagator P = expm(-delta L): one batched product per
block gives every per-step value, and the state is renormalized or
QR-factorized once per block.  k keeps exp(k delta (mu_2(L) + mu_2(-L))),
a bound on the column spread of a block product for any L, at most 1e4;
blocks also end at the burn-in and convergence snapshots.  A time-dependent
flow takes one RK4 segment and one QR per step; its steps times RK4
substeps may not exceed ``_MAX_STEPS``.

Both estimators converge by one rule: the rates over the last half and the
last quarter of the run (the whole exponent vectors in QR) disagree by at
most CONVERGENCE_TOL relative to the larger of them or to SPECTRAL_TOL,
whichever is larger, so that exponents that are zero to rounding agree.
A step delta must resolve the flow: eps/delta, the rounding that one step
adds per unit time, may not exceed SPECTRAL_TOL * max(1, ||L||_F), with
||L||_F the Frobenius norm of the reshaped generator (its largest of 65
samples over the horizon when time-dependent); shorter steps are rejected.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import generator as genmod
from . import spectra
from .errors import (
    NonGenericInitialStateError,
    RankDeficientError,
    StepSizeUnderflowError,
    TimeDependentError,
    UnconvergedError,
)
from .fileio import atomic_write, fmt17
from .matcore import SPECTRAL_TOL, hs_inner, qr

__all__ = [
    "LyapunovEstimate",
    "DivisibilityReport",
    "max_exponent_backward",
    "qr_spectrum",
    "divisibility_bounds",
    "export_windows_csv",
]

CONVERGENCE_TOL = 1e-2
_MAX_STEPS = 10_000_000
# a block product's columns spread by at most this factor, so Householder QR
# keeps about 1e-12 relative accuracy in each log R_ii
_MAX_SPREAD = 1e4
# longest block; at d = 10 the stack of propagator powers is then at most 10 MB
_BLOCK_CAP = 64
# floor of a norm product in a denominator
_TINY = 1e-300
# sets the QR estimate's relative accuracy in the bound checks; not a verdict level
_BOUND_ACCURACY = 1e-6


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class DivisibilityReport:
    chi_max: float
    rhs_cp: float
    correction_sup: float
    correction_mean: float
    cp_bound_holds: bool
    cb_bound_holds: bool
    estimate: LyapunovEstimate


def _default_interval(gen, horizon):
    scale = float(np.sum(np.abs(gen.rates_at(0.0))))
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
        raise ValueError(f"{name} interval {interval} implies {steps:.3g} steps")
    steps = max(int(steps), 8)
    return steps, horizon / steps, max(1, int(round(0.2 * steps)))


def _check_resolution(delta, opnorm, name):
    """Reject a step so short that rounding in one step, about eps, exceeds
    SPECTRAL_TOL * max(1, ||L||_F) per unit time: the log growth of such steps
    rounds away, and the estimate would read its rounding."""
    rounding = np.finfo(float).eps / delta
    if rounding > SPECTRAL_TOL * max(1.0, opnorm):
        raise ValueError(
            f"{name} step {delta:.3g} is too short: rounding of {rounding:.2e} per unit time "
            f"exceeds {SPECTRAL_TOL:g} * max(1, ||L||_F = {opnorm:.3g})"
        )


def _disagreement(late, later):
    """max|late - later| / max(max|late|, max|later|, SPECTRAL_TOL) of two window rates
    or exponent vectors; the floor lets exponents that are zero to rounding agree."""
    scale = max(np.max(np.abs(late)), np.max(np.abs(later)), SPECTRAL_TOL)
    return float(np.max(np.abs(late - later)) / scale)


def _windows_from_series(times, values, burn_index):
    """Dyadic window rates on [burn, end] plus the sup and gap diagnostics.

    The estimate is the supremum of the window-averaged rates over the
    nested post-burn-in dyadic windows [burn, b_j]; short disjoint windows
    would amplify the oscillation of complex dominant pairs, the nested
    family averages it out while still realizing a lim sup numerically.
    The gap compares the rates over the last half and the last quarter.
    """
    last = len(times) - 1

    def rate(a, b):
        return (values[b] - values[a]) / (times[b] - times[a])

    bounds = [burn_index]
    cur = burn_index
    while last - cur >= 8:
        cur = cur + max(4, (last - cur) // 2)
        bounds.append(min(cur, last))
    if bounds[-1] != last:
        bounds.append(last)

    windows = tuple(
        (float(times[a]), rate(a, b), rate(burn_index, b)) for a, b in zip(bounds[:-1], bounds[1:])
    )
    chi = max(w[2] for w in windows)
    half = last - max(1, (last - burn_index) // 2)
    quarter = last - max(1, (last - burn_index) // 4)
    return chi, _disagreement(rate(half, last), rate(quarter, last)), windows


def _block_powers(superop, delta, steps):
    """The stack P^1..P^k of the step propagator P = expm(-delta L).

    k is the longest block, at most ``_BLOCK_CAP`` and ``steps``, with
    exp(k delta (mu_2(L) + mu_2(-L))) <= ``_MAX_SPREAD``: that bounds the
    2-norm condition of P^k, so the columns of a block product spread by at
    most that factor whatever the normality of L.
    """
    spread = delta * (spectra.log_norm(superop, "two") + spectra.log_norm(-superop, "two"))
    k = min(_BLOCK_CAP, steps)
    if k * spread > np.log(_MAX_SPREAD):
        k = max(1, int(np.log(_MAX_SPREAD) / spread))
    powers = np.empty((k,) + superop.shape, dtype=complex)
    powers[0] = scipy.linalg.expm(-delta * superop)
    for i in range(1, k):
        powers[i] = powers[i - 1] @ powers[0]
    return powers


def _log_growth(powers, u, m):
    """log ||P^i u|| for i = 1..m from the stack of powers, and the unit vector
    P^m u / ||P^m u||: one block of the top-column series of both estimators."""
    vs = powers[:m] @ u
    norms = np.linalg.norm(vs, axis=1)
    return np.log(norms), vs[-1] / norms[-1]


def _block_ends(steps, k, stops):
    """Last step of each block of at most k steps; a block also ends at each of ``stops``."""
    end = 0
    while end < steps:
        end = min([end + k, steps] + [s for s in stops if s > end])
        yield end


def max_exponent_backward(gen, rho0, horizon, renorm_interval=None):
    """Maximal exponent of the backward flow.

    Runs the sign-flipped flow forward from ``rho0`` in steps of at most
    ``renorm_interval`` and records the accumulated log growth of the
    Hilbert-Schmidt norm of the state after each step; the state is
    renormalized at the end of each block of steps (see the module notes).
    The initial state must overlap the dominant left mode; the estimate
    converges to the largest relaxation rate at a speed set by the spectral
    gap.
    """
    if gen.time_dependent:
        raise TimeDependentError("backward estimation requires an autonomous generator")
    steps, delta, burn_index = _step_grid(gen, horizon, renorm_interval, "renorm")
    superop = genmod.reshape(gen)
    _check_resolution(delta, float(np.linalg.norm(superop)), "renorm")

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
        / max(_TINY, float(np.linalg.norm(spectrum.left_ops[l])) * rnorm)
        for l in dominant
    )
    if best <= SPECTRAL_TOL:
        raise NonGenericInitialStateError(
            f"overlap with the dominant left mode is {best:.2e}"
        )

    powers = _block_powers(superop, delta, steps)

    v = genmod.vec(rho0) / rnorm
    values = [np.zeros(1)]
    start = 0
    for end in _block_ends(steps, len(powers), ()):
        logs, v = _log_growth(powers, v, end - start)
        values.append(values[-1][-1] + logs)
        start = end

    times = np.arange(steps + 1) * delta
    chi, gap, windows = _windows_from_series(times, np.concatenate(values), burn_index)
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

    Integrates Gdot = -L(t) G with G(0) = identity in steps of at most
    ``reortho_interval``, re-factorizing G = QR after each step of a
    time-dependent flow and after each block of steps of an autonomous one
    (the same R_ii products, see the module notes), and accumulating log
    R_ii; exponents are the time averages, sorted ascending.  For autonomous generators the sorted
    spectrum converges to the sorted relaxation rates; one exponent always
    vanishes by trace preservation.
    """
    steps, delta, burn_k = _step_grid(gen, horizon, reortho_interval, "reortho")
    n = gen.dim * gen.dim
    # snapshots for burn-in removal and the convergence diagnostics
    half_idx, quarter_idx = int(round(0.5 * steps)), int(round(0.75 * steps))
    snap_at = {burn_k, half_idx, quarter_idx}
    if gen.time_dependent:
        parts = genmod.superop_parts(gen)
        with np.errstate(over="ignore"):  # an overflowing norm fails the step budget below
            samples = parts.at(np.linspace(0.0, horizon, 65))
            opnorm = float(np.max(np.linalg.norm(samples, axis=(1, 2))))
        substeps = max(4.0, np.ceil(delta * opnorm * 50.0))  # inf when opnorm overflows
        if not steps * substeps <= _MAX_STEPS:
            raise StepSizeUnderflowError(f"time-dependent flow needs {steps} x {substeps:.3g} "
                                         f"RK4 steps, above the budget {_MAX_STEPS}")
        substeps, block = int(substeps), 1
    else:
        superop = genmod.reshape(gen)
        opnorm = float(np.linalg.norm(superop))
        powers = _block_powers(superop, delta, steps)
        block = len(powers)
    _check_resolution(delta, opnorm, "reortho")

    q = np.eye(n, dtype=complex)
    acc = np.zeros(n)
    snaps = {}
    top_series = [np.zeros(1)]
    start = 0
    for end in _block_ends(steps, block, snap_at):
        if gen.time_dependent:
            z = parts.flow(q, start * delta, end * delta, substeps, -1.0)
        else:
            z = powers[end - start - 1] @ q
            # the first column evolves alone: its norm after each step is R_11
            top = acc[0] + _log_growth(powers, q[:, 0], end - start)[0]
        try:
            q, r = qr(z)
        except RankDeficientError as exc:
            raise RankDeficientError(f"flow collapsed at t={end * delta:.6g}: {exc}") from exc
        acc = acc + np.log(np.diagonal(r).real)
        if end in snap_at:
            snaps[end] = acc.copy()
        top_series.append(acc[:1] if gen.time_dependent else top)
        start = end

    # discard the flag-locking transient: exponents are averaged over the
    # post-burn-in window, which removes the O(1/horizon) bias
    exponents = (acc - snaps[burn_k]) / ((steps - burn_k) * delta)
    chi_half = (acc - snaps[half_idx]) / ((steps - half_idx) * delta)
    chi_quarter = (acc - snaps[quarter_idx]) / ((steps - quarter_idx) * delta)
    gap = _disagreement(chi_half, chi_quarter)

    _, _, windows = _windows_from_series(
        np.arange(steps + 1) * delta, np.concatenate(top_series), burn_k
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


def divisibility_bounds(gen, horizon):
    """Evaluate the exponent bound and its negative-rate correction.

    Reports chi_max, (1/d) sum of the remaining exponents, and the
    correction sup_t sum_l (|gamma_l(t)| - gamma_l(t))/d over 2001 points of
    [0, horizon] (also its time average, the trace-norm rate of change).  For
    completely positive evolution the correction vanishes and the plain bound
    must hold.
    """
    estimate = qr_spectrum(gen, horizon)
    exponents = np.asarray(estimate.spectrum)
    chi_max = float(exponents[-1])
    rhs_cp = float(np.sum(exponents[1:]) / gen.dim)

    ts = np.linspace(0.0, horizon, 2001)
    g = genmod.canonical_rates(gen, ts if gen.time_dependent else ts[:1])
    corr = np.broadcast_to(np.sum(np.abs(g) - g, axis=1) / gen.dim, ts.shape)
    correction_sup = float(np.max(corr))
    correction_mean = float(np.trapezoid(corr, ts) / horizon)

    tol = max(_BOUND_ACCURACY, 2.0 * estimate.convergence_gap) * max(1.0, abs(chi_max))
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
