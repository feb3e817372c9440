"""The per-channel loops that ``pauli.teich_mahler`` and ``pauli.w_quantity``
replaced with one stacked product, kept as a test oracle."""

import numpy as np


def teich_mahler_r(gen, track, k):
    """Transition rates R(t_k) in the tracked frame, summed channel by channel."""
    t = float(track.grid[k])
    frame = track.frames[k]
    d = gen.dim
    r = np.zeros((d, d))
    for rate, op in zip(gen.rates_at(t), gen.ops):
        m = frame.conj().T @ op @ frame
        r += rate * np.abs(m) ** 2
    return r


def w_quantity(gen, track, k):
    """Off-diagonal weight of each channel in the tracked frame, channel by channel."""
    frame = track.frames[k]
    out = np.zeros((len(gen.ops), gen.dim))
    for n, op in enumerate(gen.ops):
        m2 = np.abs(frame.conj().T @ op @ frame) ** 2
        out[n] = m2.sum(axis=0) + m2.sum(axis=1) - 2.0 * np.diagonal(m2)
    return out
