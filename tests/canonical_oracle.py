"""Test oracles for the canonical form: the per-operator loop that
``generator.is_canonical`` replaced with one pass over the operator stack, and
the per-point GKS decomposition that ``generator.canonical_rates`` replaced
with one batched Kossakowski eigensolve."""

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


def canonical_rates(gen, times):
    """Canonical rates at each of ``times``: the evaluated rates of canonical
    channels, else the Kossakowski eigenvalues of each frozen snapshot."""
    if is_canonical(gen):
        return np.array([gen.rates_at(t) for t in times])
    frozen = (generator.reshape(generator.freeze(gen, t)) for t in times)
    return np.array([np.linalg.eigvalsh(generator.gks_decompose(s)[1]) for s in frozen])
