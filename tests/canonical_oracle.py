"""Test oracles for the canonical form: the per-operator loop that
``generator.is_canonical`` replaced with one pass over the operator stack, and
the GKS decomposition of the reshaped superoperator, the route to the
Kossakowski matrix that ``generator.canonical_form`` and
``generator.canonical_rates`` replaced with the noise-operator coefficients."""

import math

import numpy as np

from gkls_rates import generator, matcore


def is_canonical(gen, tol=matcore.INPUT_TOL):
    """True when all noise operators are traceless and HS-orthonormal."""
    ops = list(gen.ops)
    if not ops:
        return True
    for op in ops:
        if abs(np.trace(op)) > tol:
            return False
    flat = np.stack([op.reshape(-1) for op in ops])
    gram = flat.conj() @ flat.T
    return bool(np.max(np.abs(gram - np.eye(len(ops)))) <= tol)


def gks_decompose(superop):
    """Recover (H, Kossakowski matrix, basis) from a reshaped d^2 x d^2 generator
    that preserves trace and Hermiticity.  In the returned convention the
    generator reads

        L(rho) = -i[H, rho] + sum_{k,l} C_{kl} (F_k rho F_l - 1/2 {F_l F_k, rho})

    over the Hermitian ``gell_mann_basis`` F, with C Hermitian.
    """
    s = np.asarray(superop, dtype=complex)
    d = math.isqrt(s.shape[0])
    # reshuffle S[(i,j),(k,l)] -> R[(i,k),(j,l)]; then R = U c U^+ with the
    # columns of U the vectorized orthonormal basis elements
    r = s.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    basis = generator.gell_mann_basis(d)
    u = np.column_stack([generator.vec(np.eye(d) / np.sqrt(d)), basis.reshape(-1, d * d).T])
    c = u.conj().T @ r @ u
    c = (c + c.conj().T) / 2.0

    kossakowski = c[1:, 1:]
    phi = np.einsum("k,kab->ab", c[1:, 0], basis) / np.sqrt(d)
    phi = phi + (c[0, 0].real / (2.0 * d)) * np.eye(d)
    h = 1.0j * (phi - phi.conj().T) / 2.0
    return h, kossakowski, basis


def canonical_rates(gen, times):
    """Canonical rates at each of ``times``: the evaluated rates of canonical
    channels, else the Kossakowski eigenvalues of each frozen snapshot."""
    if is_canonical(gen):
        return np.array([gen.rates_at(t) for t in times])
    frozen = (generator.reshape(generator.freeze(gen, t)) for t in times)
    return np.array([np.linalg.eigvalsh(gks_decompose(s)[1]) for s in frozen])
