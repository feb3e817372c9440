"""Dense complex linear-algebra kernel and the package's tolerance policy.

Everything operates on plain ``numpy.ndarray`` matrices of complex doubles;
dimensions stay small (operators up to ~10, superoperators up to ~100), so
robustness is preferred over speed throughout.  Eigendecomposition routes
Hermitian inputs to the symmetric solver and otherwise makes one paired
LAPACK solve for eigenvalues with left and right vectors, taking
left = inv(right)^dagger so that the pair is exactly biorthonormal whenever
the input is not defective.  ``rk4`` is the one fixed-step integrator of the
package; it reads v' = A(t) v from a stack of A at its stage times, each
distinct time evaluated once.

Every verdict of the package (Hermitian or not, canonical or not, bound
satisfied or saturated, zero mode, rank, defect) compares against one of the
levels in the table below.  Accuracy settings that steer a single algorithm,
such as step-halving targets or bisection resolutions, stay in their module.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    EigFailureError,
    NonSquareError,
    RankDeficientError,
    ShapeMismatchError,
)

__all__ = [
    "EXACT_TOL",
    "INPUT_TOL",
    "SPECTRAL_TOL",
    "RANK_TOL",
    "DEFECT_THRESHOLD",
    "EigResult",
    "as_matrix",
    "eig",
    "hs_inner",
    "qr",
]

# identities exact on the data as given: Hermitian H, Kolmogorov signs and sums, rate signs
EXACT_TOL = 1e-12
# structure of user-supplied states, bases and Kossakowski matrices, often rounded
INPUT_TOL = 1e-10
# properties of computed spectra and superoperators, which carry a solver's rounding
SPECTRAL_TOL = 1e-8
# a QR triangular diagonal below this fraction of the input norm counts as zero
RANK_TOL = 1e-14
# eigenvector condition at which biorthogonality stops holding to SPECTRAL_TOL
DEFECT_THRESHOLD = 1.0 / SPECTRAL_TOL


def as_matrix(a, name="matrix"):
    """Coerce to a 2-d complex array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ShapeMismatchError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_grid(grid):
    """A time grid as a float array: finite, 1-d, non-empty and strictly increasing."""
    grid = np.asarray(grid, dtype=float)
    if not np.all(np.isfinite(grid)):
        raise ValueError("grid points must be finite")
    if grid.ndim != 1 or len(grid) == 0 or np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be non-empty and strictly increasing")
    return grid


def _require_square(m, op):
    if m.shape[0] != m.shape[1]:
        raise NonSquareError(f"{op} requires a square matrix, got shape {m.shape}")


def is_hermitian(m, rtol):
    """True when ||m - m^dagger||_F <= rtol * max(1, ||m||_F) for a 2-d ``m``,
    rescaled to unit peak when ||m||_F overflows."""
    with np.errstate(over="ignore"):
        scale = float(np.linalg.norm(m))
    if scale == np.inf:
        m = m / np.max(np.abs(m))
        scale = float(np.linalg.norm(m))
    return float(np.linalg.norm(m - m.conj().T)) <= rtol * max(1.0, scale)


@dataclass(frozen=True, eq=False)
class EigResult:
    """Eigenvalues with paired right and left eigenvectors.

    Column k of ``right_vectors`` and of ``left_vectors`` belong to
    ``values[k]``.  For inputs that are not defective the left vectors are
    inv(right_vectors)^dagger, so <u_j, v_k> = delta_jk up to rounding.
    ``vector_condition`` is the 2-norm condition number of the right-vector
    matrix; values at or above ``DEFECT_THRESHOLD`` flag a (near-)defective
    input whose eigenvectors should not be trusted.
    """

    values: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    vector_condition: float

    @property
    def is_defective(self):
        return self.vector_condition >= DEFECT_THRESHOLD


def eig(m):
    """Full eigendecomposition with paired left/right vectors.

    Hermitian inputs (relative asymmetry below EXACT_TOL) take the symmetric
    path and report a unit vector condition.  Otherwise one paired LAPACK
    solve gives eigenvalues with left and right vectors in the same column
    order; unless the input is defective, left = inv(right)^dagger, whose
    columns are left eigenvectors with left^dagger @ right = identity exactly,
    degenerate clusters included.  Defective inputs keep LAPACK's unit-norm
    left vectors; the condition number flags that vectors are unreliable.
    Any LAPACK failure raises ``EigFailureError``.
    """
    m = as_matrix(m)
    _require_square(m, "eig")

    try:
        if is_hermitian(m, EXACT_TOL):
            w, v = np.linalg.eigh(m)
            return EigResult(
                values=w.astype(complex),
                right_vectors=v,
                left_vectors=v.copy(),
                vector_condition=1.0,
            )
        # as_matrix has already rejected non-finite entries
        values, left, right = scipy.linalg.eig(m, left=True, right=True, check_finite=False)
        cond = float(np.linalg.cond(right))
        if not np.isfinite(cond):
            cond = np.inf
        if cond < DEFECT_THRESHOLD:
            left = np.linalg.inv(right).conj().T
    except np.linalg.LinAlgError as exc:
        raise EigFailureError(f"eigendecomposition failed: {exc}") from exc

    return EigResult(
        values=values,
        right_vectors=right,
        left_vectors=left,
        vector_condition=cond,
    )


def hs_inner(a, b):
    """Hilbert-Schmidt inner product Tr(a^dagger b)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shapes {a.shape} and {b.shape} differ")
    return complex(np.vdot(a, b))


def fix_phases(vectors):
    """The stack (..., n) with each vector scaled so that its first largest-magnitude
    entry is real and positive; zero vectors are left as they are."""
    flat = vectors.reshape(-1, vectors.shape[-1])
    pivot = flat[np.arange(len(flat)), np.argmax(np.abs(flat), axis=1)]
    size = np.abs(pivot)
    phase = size / np.where(size > 0.0, pivot, 1.0)
    return vectors * phase.reshape(vectors.shape[:-1] + (1,))


def rk4(stages, v, h):
    """Classical fourth-order Runge-Kutta for v' = A(t) v over n steps of length h.

    ``stages`` stacks A at the 2n + 1 equally spaced stage times: step j reads
    stage 2j in k1, 2j + 1 in k2 and k3, and 2j + 2 in k4 and the next k1."""
    for j in range(0, len(stages) - 1, 2):
        k1 = stages[j] @ v
        k2 = stages[j + 1] @ (v + (h / 2.0) * k1)
        k3 = stages[j + 1] @ (v + (h / 2.0) * k2)
        k4 = stages[j + 2] @ (v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return v


def qr(m):
    """QR factorization with strictly positive real diagonal of R.

    The phase freedom of the standard factorization is absorbed into Q so
    that R_ii > 0, which makes the factorization unique for full-rank input.
    """
    m = as_matrix(m)
    _require_square(m, "qr")
    q, r = np.linalg.qr(m)
    diag = np.diagonal(r).copy()
    tol = RANK_TOL * float(np.linalg.norm(m))
    small = np.abs(diag) <= tol
    if np.any(small):
        raise RankDeficientError(
            f"R diagonal entries {np.flatnonzero(small).tolist()} below {tol:.3e}"
        )
    phases = diag / np.abs(diag)
    q = q * phases[np.newaxis, :]
    r = r * phases.conj()[:, np.newaxis]
    return q, r
