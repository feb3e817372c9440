"""Relaxation spectra, the universal rate bound, and logarithmic norms.

The relaxation rates of a generator are Gamma_l = -Re lambda_l over the
eigenvalues of its reshaped d^2 x d^2 matrix, sorted ascending with the
zero mode first.  For completely positive generators the maximal rate obeys

    Gamma_max <= (1/d) * sum_{l>=1} Gamma_l,

with equality for amplitude damping and pure dephasing qubits; the margin
of this inequality is what ``check_bound`` reports and what the witness
module tracks in time.
"""

from dataclasses import dataclass

import numpy as np

from . import generator, matcore
from .errors import (
    DegenerateZeroModeError,
    EigFailureError,
    IterationLimitError,
    NearDefectiveError,
    NonFaithfulStationaryStateError,
    NonSquareError,
    SizeMismatchError,
    TimeDependentError,
)

__all__ = [
    "RelaxationSpectrum",
    "BoundReport",
    "relaxation_spectrum",
    "check_bound",
    "bound_sweep",
    "qubit_rates",
    "stationary_state",
    "bw_rate_identity",
    "log_norm",
]

ZERO_MODE_TOL = 1e-8
# seeds per stacked chunk of bound_sweep: 128 d=6 superoperators take 2.7 MB
SWEEP_CHUNK = 128


@dataclass(frozen=True)
class RelaxationSpectrum:
    """Eigen-data of a reshaped generator, ordered by ascending rate.

    ``rates[0]`` is the zero mode; ``right_ops``/``left_ops`` are the
    unreshaped eigen-operators, biorthonormal when the spectrum is
    diagonalizable.
    """

    eigenvalues: np.ndarray
    rates: np.ndarray
    right_ops: tuple
    left_ops: tuple
    diagonalizable: bool
    vector_condition: float

    @property
    def dim(self):
        return int(round(np.sqrt(len(self.rates))))


@dataclass(frozen=True)
class BoundReport:
    gamma_max: float
    total_over_d: float
    margin: float
    satisfied: bool
    saturated: bool

    def to_dict(self):
        return {
            "gamma_max": self.gamma_max,
            "total_over_d": self.total_over_d,
            "margin": self.margin,
            "satisfied": self.satisfied,
            "saturated": self.saturated,
        }


def relaxation_spectrum(gen):
    """Eigendecompose the reshaped generator and sort by relaxation rate.

    Ties are broken by (Im lambda, original index) so reports are
    deterministic under degeneracy.
    """
    if gen.time_dependent:
        raise TimeDependentError("relaxation spectrum requires an autonomous generator")
    superop = generator.reshape(gen)
    try:
        res = matcore.eig(superop.matrix)
    except (IterationLimitError, np.linalg.LinAlgError) as exc:  # pragma: no cover
        raise EigFailureError(str(exc)) from exc

    rates = -res.values.real
    order = np.lexsort((np.arange(len(rates)), res.values.imag, rates))
    d = gen.dim
    right = tuple(generator.unvec(res.right_vectors[:, k], d) for k in order)
    left = tuple(generator.unvec(res.left_vectors[:, k], d) for k in order)
    return RelaxationSpectrum(
        eigenvalues=res.values[order],
        rates=rates[order],
        right_ops=right,
        left_ops=left,
        diagonalizable=not res.is_defective,
        vector_condition=res.vector_condition,
    )


def _bound_terms(rates, d):
    """Gamma_max, (1/d) sum_{l>=1} Gamma_l, margin and tolerance of ascending rates."""
    gamma_max = rates[..., -1]
    total_over_d = np.sum(rates[..., 1:], axis=-1) / d
    return gamma_max, total_over_d, total_over_d - gamma_max, 1e-8 * np.maximum(1.0, gamma_max)


def check_bound(spectrum, d):
    """Evaluate Gamma_max <= (1/d) sum_{l>=1} Gamma_l on a spectrum."""
    rates = np.asarray(spectrum.rates, dtype=float)
    if len(rates) != d * d:
        raise SizeMismatchError(f"expected {d * d} rates for dim {d}, got {len(rates)}")
    gamma_max, total_over_d, margin, tol = (float(x) for x in _bound_terms(rates, d))
    return BoundReport(
        gamma_max=gamma_max,
        total_over_d=total_over_d,
        margin=margin,
        satisfied=bool(margin >= -tol),
        saturated=bool(abs(margin) <= tol),
    )


def bound_sweep(d, n_channels, seeds):
    """Per-seed arrays (gamma_sum, gamma_max, margin, saturated) of the bound on
    ``random_cp(d, n_channels, s)``, from stacked superoperators of SWEEP_CHUNK
    seeds at a time, eigenvalues only; gamma_sum sums the canonical rates."""
    seeds = list(seeds)
    parts = []
    for start in range(0, len(seeds), SWEEP_CHUNK):
        chunk = seeds[start:start + SWEEP_CHUNK]
        superops, gamma_sum = generator.random_cp_batch(d, n_channels, chunk)
        try:
            rates = np.sort(-np.linalg.eigvals(superops).real, axis=-1)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise EigFailureError(str(exc)) from exc
        gamma_max, _, margin, tol = _bound_terms(rates, d)
        parts.append((gamma_sum, gamma_max, margin, np.abs(margin) <= tol))
    return tuple(np.concatenate(x) for x in zip(*parts))


def qubit_rates(gamma_plus, gamma_minus, gamma_z):
    """Longitudinal and (doubly degenerate) transversal qubit rates.

    ``gamma_z`` is the canonical rate of the normalized dephasing channel
    sigma_z/sqrt(2); negative inputs are allowed for witness use.
    """
    gamma_l = gamma_plus + gamma_minus
    gamma_t = 0.5 * (gamma_plus + gamma_minus) + gamma_z
    return gamma_l, gamma_t


def stationary_state(spectrum):
    """Unique stationary state from the zero mode of the spectrum."""
    rates = spectrum.rates
    tol = ZERO_MODE_TOL * max(1.0, float(rates[-1]))
    count = int(np.sum(rates <= tol))
    zero_like = np.abs(spectrum.eigenvalues) <= tol
    if count > 1 or int(np.sum(zero_like)) > 1:
        raise DegenerateZeroModeError(max(count, int(np.sum(zero_like))))
    x0 = spectrum.right_ops[0]
    tr = np.trace(x0)
    if abs(tr) < 1e-12:
        raise DegenerateZeroModeError(count)
    rho = x0 / tr
    return (rho + rho.conj().T) / 2.0


def _ss_norm_sq(rho_ss, y):
    return float(np.trace(rho_ss @ y.conj().T @ y).real)


def bw_rate_identity(canonical, spectrum, rho_ss=None):
    """Residuals of the stationary-weighted commutator identity.

    For each non-zero mode with left operator Y the rate satisfies

        Gamma = sum_k gamma_k ||[L_k, Y]||_ss^2 / (2 ||Y||_ss^2),

    with ||Y||_ss^2 = Tr(rho_ss Y^+ Y).  Returns |estimate - rate| per mode
    (zero mode excluded).  ``rho_ss`` may be supplied for generators whose
    stationary state is degenerate but known (e.g. unital cases).
    """
    if not spectrum.diagonalizable:
        raise NearDefectiveError(
            f"vector condition {spectrum.vector_condition:.2e} flags a defective spectrum"
        )
    if rho_ss is None:
        rho_ss = stationary_state(spectrum)
    gen = canonical.base
    gammas = gen.rates_at(0.0)
    ops = gen.noise_ops()
    gamma_max = max(1.0, float(spectrum.rates[-1]))

    residuals = []
    for l in range(1, len(spectrum.rates)):
        y = spectrum.left_ops[l]
        denom = _ss_norm_sq(rho_ss, y)
        if denom <= 1e-12 * float(np.linalg.norm(y)) ** 2:
            raise NonFaithfulStationaryStateError(
                "||Y||_ss vanishes for a mode; stationary state is not faithful"
            )
        total = 0.0
        for g, lk in zip(gammas, ops):
            comm = lk @ y - y @ lk
            total += g * _ss_norm_sq(rho_ss, comm)
        estimate = total / (2.0 * denom)
        residuals.append(abs(estimate - float(spectrum.rates[l])))
    return np.array(residuals)


def log_norm(a, kind):
    """Logarithmic norm for the one, two, and inf induced norms.

    Upper-bounds the spectral abscissa and the growth rate of ||x(t)|| for
    xdot = A x, whatever the sign structure of A.
    """
    a = matcore.as_matrix(a, "matrix")
    if a.shape[0] != a.shape[1]:
        raise NonSquareError(f"log_norm requires a square matrix, got {a.shape}")
    if kind == "one":
        absq = np.abs(a)
        cols = absq.sum(axis=0) - np.diagonal(absq) + np.diagonal(a).real
        return float(np.max(cols))
    if kind == "inf":
        absq = np.abs(a)
        rows = absq.sum(axis=1) - np.diagonal(absq) + np.diagonal(a).real
        return float(np.max(rows))
    if kind == "two":
        herm = (a + a.conj().T) / 2.0
        return float(np.linalg.eigvalsh(herm)[-1])
    raise ValueError(f"unknown log-norm kind {kind!r}")
