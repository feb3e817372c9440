"""Classical Kolmogorov generators.

A Kolmogorov generator is a real d x d matrix with nonnegative off-diagonal
entries and vanishing column sums; it generates a stochastic semigroup
exp(tK).  Unlike the quantum case there is no constraint among classical
relaxation rates: ``from_rates`` realizes any nonnegative list as the exact
spectrum of a valid generator.  The populations-only reduction of a
completely positive Lindblad generator in a fixed orthonormal basis is
``validate(pauli.rate_matrix(canonical, basis).w)``.
"""

from dataclasses import dataclass

import numpy as np

from . import matcore
from .errors import ColumnSumError, NegativeOffDiagonalError, NegativeRateError

__all__ = [
    "KolmogorovGenerator",
    "validate",
    "from_rates",
    "classical_spectrum",
]


@dataclass(frozen=True, eq=False)
class KolmogorovGenerator:
    dim: int
    k: np.ndarray


def validate(k):
    """Check the sign and column-sum conditions and wrap the matrix.

    The first negative off-diagonal entry is reported in column order."""
    k = np.asarray(k, dtype=float)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ValueError(f"expected a square real matrix, got shape {k.shape}")
    if not np.all(np.isfinite(k)):
        raise ValueError("generator matrix contains non-finite entries")
    d = k.shape[0]
    scale = max(1.0, float(np.max(np.abs(k))) if k.size else 1.0)
    negative = (k < -matcore.EXACT_TOL * scale) & ~np.eye(d, dtype=bool)
    if np.any(negative):
        j, i = np.argwhere(negative.T)[0]
        raise NegativeOffDiagonalError(int(i), int(j), float(k[i, j]))
    sums = k.sum(axis=0)
    bad = np.flatnonzero(np.abs(sums) > matcore.EXACT_TOL * scale)
    if bad.size:
        raise ColumnSumError(int(bad[0]), float(sums[bad[0]]))
    return KolmogorovGenerator(dim=d, k=k)


def from_rates(rates):
    """Generator with spectrum exactly {0, -r_1, ..., -r_{d-1}}.

    State i (2 <= i <= d-1) decays to state 1 at rate r_i and state 1
    decays to state d at rate r_1; the last column is zero.
    """
    rates = [float(r) for r in rates]
    if not rates:
        raise ValueError("at least one rate is required")
    if not np.all(np.isfinite(rates)):
        raise ValueError(f"rates must be finite, got {rates}")
    if any(r < 0.0 for r in rates):
        raise NegativeRateError(f"rates must be nonnegative, got {rates}")
    d = len(rates) + 1
    k = np.zeros((d, d))
    k[0, 0] = -rates[0]
    k[d - 1, 0] = rates[0]
    for j in range(1, d - 1):
        k[0, j] = rates[j]
        k[j, j] = -rates[j]
    return validate(k)


def classical_spectrum(k):
    """Classical relaxation rates -Re(eigenvalues), sorted ascending.

    Complex pairs keep both members; nothing is deduplicated in the data.
    """
    ell = np.linalg.eigvals(k.k)
    return np.sort(-ell.real)
