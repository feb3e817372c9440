"""The per-channel loops that ``pauli.teich_mahler`` and ``pauli.w_quantity``
replaced with one stacked product, kept as a test oracle."""

import numpy as np


def teich_mahler_r(canonical, track, k):
    """Transition rates R(t_k) in the tracked frame, summed channel by channel."""
    gen = canonical.base
    t = float(track.grid[k])
    frame = track.frames[k]
    d = gen.dim
    r = np.zeros((d, d))
    for ch in gen.channels:
        m = frame.conj().T @ ch.op @ frame
        r += ch.rate_at(t) * np.abs(m) ** 2
    return r


def w_quantity(canonical, track, k):
    """Off-diagonal weight of each channel in the tracked frame, channel by channel."""
    gen = canonical.base
    frame = track.frames[k]
    out = np.zeros((len(gen.channels), gen.dim))
    for n, ch in enumerate(gen.channels):
        m2 = np.abs(frame.conj().T @ ch.op @ frame) ** 2
        out[n] = m2.sum(axis=0) + m2.sum(axis=1) - 2.0 * np.diagonal(m2)
    return out
