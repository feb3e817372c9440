"""Reference superoperators built channel by channel with ``np.kron``.

Row-major vectorization, vec(A rho B) = (A kron B^T) vec(rho), as in
``gkls_rates.generator``.  These are the plain textbook formulas; the
package assembles the same matrices with batched einsum products, and the
differential tests compare the two.
"""

import numpy as np


def hamiltonian_matrix(h):
    eye = np.eye(h.shape[0])
    return -1.0j * np.kron(h, eye) + 1.0j * np.kron(eye, h.T)


def dissipator_matrix(l):
    eye = np.eye(l.shape[0])
    ldl = l.conj().T @ l
    return np.kron(l, l.conj()) - 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T))


def reshape(gen, t=0.0):
    """Reshaped generator frozen at time ``t``, summed channel by channel."""
    mat = hamiltonian_matrix(gen.hamiltonian)
    for rate, op in zip(gen.rates_at(t), gen.ops):
        mat = mat + rate * dissipator_matrix(op)
    return mat


def rebuild_superop(h, kossakowski, basis):
    """Reassemble the reshaped generator from a GKS decomposition."""
    d = h.shape[0]
    eye = np.eye(d)
    mat = hamiltonian_matrix(h)
    for k, fk in enumerate(basis):
        for l, fl in enumerate(basis):
            c = kossakowski[k, l]
            if c == 0.0:
                continue
            flfk = fl @ fk
            mat = mat + c * (
                np.kron(fk, fl.conj())
                - 0.5 * (np.kron(flfk, eye) + np.kron(eye, flfk.T))
            )
    return mat
