"""Reference eigendecomposition with two solves, Hungarian pairing and
per-cluster biorthogonalization.

The right vectors come from an eigensolve of ``m``, the left ones from a
separate eigensolve of ``m^dagger``; ``linear_sum_assignment`` pairs the two
column sets by overlap, and each near-degenerate cluster is then rescaled so
that left^dagger @ right = identity.  The package gets the same data from one
paired LAPACK call; the differential tests compare the two.
"""

import numpy as np
from scipy.optimize import linear_sum_assignment

from gkls_rates.errors import EigFailureError
from gkls_rates.matcore import (
    DEFECT_THRESHOLD,
    EXACT_TOL,
    EigResult,
    _require_square,
    as_matrix,
    is_hermitian,
)


def _biorthogonalize(values, right, left):
    """Rescale left vectors so that left^dagger @ right = identity.

    Eigenvalues are grouped into near-degenerate clusters and each cluster
    block is corrected at once; cross terms between distinct eigenvalues are
    already small for well-conditioned inputs.
    """
    scale = max(1.0, float(np.max(np.abs(values))))
    ctol = 1e-6 * scale
    order = np.lexsort((values.imag, values.real))
    clusters = []
    current = [order[0]]
    for idx in order[1:]:
        if abs(values[idx] - values[current[-1]]) <= ctol:
            current.append(idx)
        else:
            clusters.append(current)
            current = [idx]
    clusters.append(current)

    fixed = left.copy()
    for cluster in clusters:
        cols = np.array(cluster)
        block = fixed[:, cols].conj().T @ right[:, cols]
        try:
            x = np.linalg.solve(block.conj().T, np.eye(len(cols)))
        except np.linalg.LinAlgError:
            continue  # leave this cluster unnormalized; condition flag covers it
        fixed[:, cols] = fixed[:, cols] @ x
    return fixed


def eig(m):
    """Full eigendecomposition with matched left/right vectors.

    Hermitian inputs (relative asymmetry below 1e-12) take the symmetric
    path and report a unit vector condition.  Defective inputs still return
    eigenvalues; the condition number flags that vectors are unreliable.
    """
    m = as_matrix(m)
    _require_square(m, "eig")

    if is_hermitian(m, EXACT_TOL):
        w, v = np.linalg.eigh(m)
        return EigResult(
            values=w.astype(complex),
            right_vectors=v,
            left_vectors=v.copy(),
            vector_condition=1.0,
        )

    try:
        values, right = np.linalg.eig(m)
        lvalues, left = np.linalg.eig(m.conj().T)
    except np.linalg.LinAlgError as exc:
        raise EigFailureError(f"eigendecomposition failed: {exc}") from exc

    cond = float(np.linalg.cond(right))
    if not np.isfinite(cond):
        cond = np.inf

    # pair each left column with the right column it overlaps most; the
    # left solve of the conjugate transpose returns eigenvalues conj(values)
    # in arbitrary order
    overlap = np.abs(left.conj().T @ right)
    rows, cols = linear_sum_assignment(-overlap)
    matched = np.empty_like(left)
    matched[:, cols] = left[:, rows]

    if cond < DEFECT_THRESHOLD:
        matched = _biorthogonalize(values, right, matched)

    return EigResult(
        values=values,
        right_vectors=right,
        left_vectors=matched,
        vector_condition=cond,
    )
