"""Dense complex linear-algebra kernel.

Everything operates on plain ``numpy.ndarray`` matrices of complex doubles;
dimensions stay small (operators up to ~10, superoperators up to ~100), so
robustness is preferred over speed throughout.  Eigendecomposition routes
Hermitian inputs to the symmetric solver and otherwise makes one paired
LAPACK solve for eigenvalues with left and right vectors, taking
left = inv(right)^dagger so that the pair is exactly biorthonormal whenever
the input is not defective; the matrix exponential is scaling-and-squaring
with Pade approximants, which behaves uniformly on defective inputs.
``rk4`` is the one fixed-step integrator of the package.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    IterationLimitError,
    NonSquareError,
    RankDeficientError,
    ShapeMismatchError,
)

__all__ = [
    "DEFECT_THRESHOLD",
    "EigResult",
    "as_matrix",
    "eig",
    "expm",
    "hs_inner",
    "matrix_norm",
    "qr",
]

# eigenvector condition number above which a matrix is treated as defective;
# doubles carry ~16 digits, so 1e8 marks the point where biorthogonality
# cannot be trusted to 1e-8 any more
DEFECT_THRESHOLD = 1e8

_HERMITIAN_RTOL = 1e-12


def as_matrix(a, name="matrix"):
    """Coerce to a 2-d complex array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ShapeMismatchError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _require_square(m, op):
    if m.shape[0] != m.shape[1]:
        raise NonSquareError(f"{op} requires a square matrix, got shape {m.shape}")


def is_hermitian(m, rtol=_HERMITIAN_RTOL):
    scale = max(1.0, float(np.linalg.norm(m)))
    return float(np.linalg.norm(m - m.conj().T)) <= rtol * scale


@dataclass(frozen=True)
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

    Hermitian inputs (relative asymmetry below 1e-12) take the symmetric
    path and report a unit vector condition.  Otherwise one paired LAPACK
    solve gives eigenvalues with left and right vectors in the same column
    order; unless the input is defective, left = inv(right)^dagger, whose
    columns are left eigenvectors with left^dagger @ right = identity exactly,
    degenerate clusters included.  Defective inputs keep LAPACK's unit-norm
    left vectors; the condition number flags that vectors are unreliable.
    """
    m = as_matrix(m)
    _require_square(m, "eig")

    if is_hermitian(m):
        w, v = np.linalg.eigh(m)
        return EigResult(
            values=w.astype(complex),
            right_vectors=v,
            left_vectors=v.copy(),
            vector_condition=1.0,
        )

    try:
        # as_matrix has already rejected non-finite entries
        values, left, right = scipy.linalg.eig(m, left=True, right=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise IterationLimitError(f"eigenvalue iteration failed: {exc}") from exc

    cond = float(np.linalg.cond(right))
    if not np.isfinite(cond):
        cond = np.inf
    if cond < DEFECT_THRESHOLD:
        left = np.linalg.inv(right).conj().T

    return EigResult(
        values=values,
        right_vectors=right,
        left_vectors=left,
        vector_condition=cond,
    )


def expm(m):
    """Matrix exponential (scaling-and-squaring, Pade order up to 13)."""
    m = as_matrix(m)
    _require_square(m, "expm")
    return scipy.linalg.expm(m)


def hs_inner(a, b):
    """Hilbert-Schmidt inner product Tr(a^dagger b)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shapes {a.shape} and {b.shape} differ")
    return complex(np.vdot(a, b))


def matrix_norm(a, kind):
    """Induced/Frobenius matrix norms.

    kind: "one" (max column abs sum), "inf" (max row abs sum),
    "two" (largest singular value), "frobenius".
    """
    a = as_matrix(a)
    if kind == "one":
        return float(np.linalg.norm(a, 1))
    if kind == "inf":
        return float(np.linalg.norm(a, np.inf))
    if kind == "two":
        return float(np.linalg.norm(a, 2))
    if kind == "frobenius":
        return float(np.linalg.norm(a, "fro"))
    raise ValueError(f"unknown norm kind {kind!r}")


def rk4(fn, v, a, b, n):
    """Classical fourth-order Runge-Kutta for v' = fn(t, v): n equal steps from a to b."""
    h = (b - a) / n
    t = a
    for _ in range(n):
        k1 = fn(t, v)
        k2 = fn(t + h / 2.0, v + (h / 2.0) * k1)
        k3 = fn(t + h / 2.0, v + (h / 2.0) * k2)
        k4 = fn(t + h, v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
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
    tol = 1e-14 * float(np.linalg.norm(m))
    small = np.abs(diag) <= tol
    if np.any(small):
        raise RankDeficientError(
            f"R diagonal entries {np.flatnonzero(small).tolist()} below {tol:.3e}"
        )
    phases = diag / np.abs(diag)
    q = q * phases[np.newaxis, :]
    r = r * phases.conj()[:, np.newaxis]
    return q, r
