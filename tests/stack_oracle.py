"""The per-mode, per-point and per-entry loops that the stacked kernels of
``spectra``, ``pauli`` and ``classical`` replaced, kept as test oracles."""

import numpy as np
import scipy.linalg

from gkls_rates import classical, generator, matcore, pauli, spectra
from gkls_rates.errors import NearDefectiveError, NonFaithfulStationaryStateError


def eigen_operators(gen):
    """Right and left eigen-operators of ``relaxation_spectrum``, unvec'd mode by mode."""
    res = matcore.eig(generator.reshape(gen))
    rates = -res.values.real
    order = np.lexsort((np.arange(len(rates)), res.values.imag, rates))
    d = gen.dim
    right = tuple(generator.unvec(res.right_vectors[:, k], d) for k in order)
    left = tuple(generator.unvec(res.left_vectors[:, k], d) for k in order)
    return right, left


def evolve_autonomous(gen, rho0, grid):
    """States of an autonomous ``pauli.evolve``, one exponential per grid point."""
    d = gen.dim
    rho0 = pauli._check_state(rho0, d)
    v0 = generator.vec(rho0)
    smat = generator.reshape(gen)
    states = []
    for t in grid:
        if t == 0.0:
            states.append(rho0.copy())
            continue
        v = scipy.linalg.expm(t * smat) @ v0
        rho = generator.unvec(v, d)
        states.append((rho + rho.conj().T) / 2.0)
    return tuple(states)


def _ss_norm_sq(rho_ss, y):
    return float(np.trace(rho_ss @ y.conj().T @ y).real)


def bw_rate_identity(canonical, spectrum, rho_ss=None):
    """Residuals of ``spectra.bw_rate_identity``, mode by mode."""
    if not spectrum.diagonalizable:
        raise NearDefectiveError(
            f"vector condition {spectrum.vector_condition:.2e} flags a defective spectrum"
        )
    if rho_ss is None:
        rho_ss = spectra.stationary_state(spectrum)
    gammas = canonical.rates_at(0.0)

    residuals = []
    for l in range(1, len(spectrum.rates)):
        y = spectrum.left_ops[l]
        denom = _ss_norm_sq(rho_ss, y)
        if denom <= matcore.EXACT_TOL * float(np.linalg.norm(y)) ** 2:
            raise NonFaithfulStationaryStateError(
                "||Y||_ss vanishes for a mode; stationary state is not faithful"
            )
        comm = canonical.ops @ y - y @ canonical.ops
        total = gammas @ np.einsum("ab,ncb,nca->n", rho_ss, comm.conj(), comm).real
        estimate = total / (2.0 * denom)
        residuals.append(abs(estimate - float(spectrum.rates[l])))
    return np.array(residuals)


def lindblad_to_kolmogorov(canonical, basis):
    """K_ij = <i| L(|j><j|) |i> in the basis ``basis``, entry by entry through
    ``generator.apply``: the reduction ``classical.validate(pauli.rate_matrix(...).w)``."""
    d = canonical.dim
    b = np.asarray(basis, dtype=complex)
    k = np.zeros((d, d))
    for j in range(d):
        ket = b[:, j]
        proj = np.outer(ket, ket.conj())
        image = generator.apply(canonical, proj)
        for i in range(d):
            k[i, j] = float((b[:, i].conj() @ image @ b[:, i]).real)
    return classical.validate(k)
