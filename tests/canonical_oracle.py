"""The per-operator loop that ``generator.is_canonical`` replaced with one pass over
the operator stack, kept as a test oracle."""

import numpy as np

from gkls_rates import matcore


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
