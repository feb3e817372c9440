"""Relaxation spectra, the universal rate bound, and logarithmic norms.

The relaxation rates of a generator are Gamma_l = -Re lambda_l over the
eigenvalues of its reshaped d^2 x d^2 matrix, sorted ascending with the zero
mode first; its eigen-operators come as (d^2, d, d) stacks in that order.  For
completely positive generators the maximal rate obeys

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

# seeds per stacked chunk of bound_sweep: 128 d=6 superoperators take 2.7 MB
SWEEP_CHUNK = 128


@dataclass(frozen=True, eq=False)
class RelaxationSpectrum:
    """Eigen-data of a reshaped generator, ordered by ascending rate.

    ``rates[0]`` is the zero mode; ``right_ops``/``left_ops`` stack the
    unreshaped eigen-operators, one (d, d) matrix per rate, biorthonormal
    when the spectrum is diagonalizable.
    """

    eigenvalues: np.ndarray
    rates: np.ndarray
    right_ops: np.ndarray  # (d^2, d, d)
    left_ops: np.ndarray  # (d^2, d, d)
    diagonalizable: bool
    vector_condition: float


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
    res = matcore.eig(generator.reshape(gen))

    rates = -res.values.real
    order = np.lexsort((np.arange(len(rates)), res.values.imag, rates))
    d = gen.dim
    return RelaxationSpectrum(
        eigenvalues=res.values[order],
        rates=rates[order],
        right_ops=res.right_vectors[:, order].T.reshape(-1, d, d),
        left_ops=res.left_vectors[:, order].T.reshape(-1, d, d),
        diagonalizable=not res.is_defective,
        vector_condition=res.vector_condition,
    )


def _bound_terms(rates, d):
    """Gamma_max, (1/d) sum_{l>=1} Gamma_l, margin and tolerance of ascending rates."""
    gamma_max = rates[..., -1]
    total_over_d = np.sum(rates[..., 1:], axis=-1) / d
    tol = matcore.SPECTRAL_TOL * np.maximum(1.0, gamma_max)
    return gamma_max, total_over_d, total_over_d - gamma_max, tol


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
    """Per-seed arrays (gamma_sum, gamma_max, margin, saturated, satisfied) of the
    bound on ``random_cp(d, n_channels, s)``, from stacked superoperators of
    SWEEP_CHUNK seeds at a time, eigenvalues only; gamma_sum sums the canonical
    rates, and saturated/satisfied use the tolerance of ``check_bound``."""
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
        parts.append((gamma_sum, gamma_max, margin, np.abs(margin) <= tol, margin >= -tol))
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
    tol = matcore.SPECTRAL_TOL * max(1.0, float(rates[-1]))
    # |lambda| <= tol implies rate <= tol, so this count covers every zero-like eigenvalue
    count = int(np.sum(rates <= tol))
    if count > 1:
        raise DegenerateZeroModeError(count)
    x0 = spectrum.right_ops[0]
    tr = np.trace(x0)
    if abs(tr) < matcore.EXACT_TOL:
        raise DegenerateZeroModeError(count)
    rho = x0 / tr
    return (rho + rho.conj().T) / 2.0


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
    ys = spectrum.left_ops[1:]
    denom = np.einsum("ab,mcb,mca->m", rho_ss, ys.conj(), ys).real
    if np.any(denom <= matcore.EXACT_TOL * np.linalg.norm(ys, axis=(1, 2)) ** 2):
        raise NonFaithfulStationaryStateError(
            "||Y||_ss vanishes for a mode; stationary state is not faithful"
        )
    # [L_k, Y] per mode m and channel k
    comm = canonical.ops @ ys[:, None] - ys[:, None] @ canonical.ops
    comm_sq = np.einsum("ab,mkcb,mkca->mk", rho_ss, comm.conj(), comm).real
    estimates = comm_sq @ canonical.rates_at(0.0) / (2.0 * denom)
    return np.abs(estimates - spectrum.rates[1:])


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
