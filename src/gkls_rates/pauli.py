"""Density-matrix trajectories and their classical Pauli reduction.

Any Hermitian solution of the master equation can be written at each time
as rho(t) = sum_i p_i(t) |psi_i(t)><psi_i(t)|.  Tracking the eigenbasis
continuously in t, the populations close on themselves:

    pdot = W(t) p,   W_ij = R_ij - delta_ij sum_k R_kj,
    R_ij(t) = sum_n gamma_n |<psi_i(t), L_n psi_j(t)>|^2,

with nonnegative R for completely positive generators.  The row-sum norm
obeys ||W(t)||_inf <= sum_n gamma_n at every time and in every frame, which
is the mechanism behind the universal rate bound.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from . import generator as genmod
from .errors import (
    BoundaryIndexError,
    DimensionMismatchError,
    NegativePopulationsError,
    NonCanonicalGeneratorError,
    StepSizeUnderflowError,
    TrackingLostError,
)
from .fileio import atomic_write, fmt17
from .matcore import rk4

__all__ = [
    "Trajectory",
    "EigenTrack",
    "RateMatrix",
    "evolve",
    "spectral_track",
    "teich_mahler",
    "pauli_residual",
    "w_quantity",
    "classical_propagator",
    "export_track_csv",
]

_MAX_SEGMENT_STEPS = 1 << 22
_RICHARDSON_TOL = 1e-9  # per unit time


@dataclass(frozen=True)
class Trajectory:
    grid: np.ndarray
    states: tuple


@dataclass(frozen=True)
class EigenTrack:
    """Continuously tracked eigen-decomposition of a trajectory.

    ``populations[k]`` are the eigenvalues of rho(t_k) carried in the
    matched (label-continuous) order; ``frames[k]`` is unitary with the
    tracked eigenvectors as columns.
    """

    grid: np.ndarray
    populations: np.ndarray
    frames: tuple


@dataclass(frozen=True)
class RateMatrix:
    w: np.ndarray
    r: np.ndarray
    t: float


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

def _check_state(rho, d):
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (d, d):
        raise DimensionMismatchError(f"state has shape {rho.shape}, expected {(d, d)}")
    scale = max(1.0, float(np.linalg.norm(rho)))
    if float(np.linalg.norm(rho - rho.conj().T)) > 1e-10 * scale:
        raise ValueError("initial state is not Hermitian to 1e-10")
    if abs(np.trace(rho) - 1.0) > 1e-8:
        raise ValueError("initial state does not have unit trace")
    return (rho + rho.conj().T) / 2.0


def _integrate_segment(parts, v, a, b):
    """RK4 with step halving until the Richardson estimate meets tolerance."""
    span = abs(b - a)
    if span == 0.0:
        return v
    norms = np.linalg.norm(parts.at(np.array([a, b, (a + b) / 2.0])), axis=(1, 2))
    n = max(2, int(np.ceil(span * max(float(np.max(norms)), 1e-12) * 0.5)))
    if n > _MAX_SEGMENT_STEPS:
        raise StepSizeUnderflowError(
            f"segment [{a}, {b}] needs ~{n} steps, above the budget {_MAX_SEGMENT_STEPS}"
        )
    coarse = parts.flow(v, a, b, n)
    while True:
        n *= 2
        if n > _MAX_SEGMENT_STEPS:
            raise StepSizeUnderflowError(
                f"requested accuracy unreachable on [{a}, {b}] within {_MAX_SEGMENT_STEPS} steps"
            )
        fine = parts.flow(v, a, b, n)
        err = float(np.linalg.norm(fine - coarse)) / max(1.0, float(np.linalg.norm(fine)))
        if err <= _RICHARDSON_TOL * span:
            return fine
        coarse = fine


def evolve(gen, rho0, grid):
    """Propagate ``rho0``, the state at time zero, over the time grid.

    The grid may include negative times: the flow is a group on the full
    matrix space even though positivity only holds forward.  Autonomous
    generators use the exact exponential of the reshaped generator;
    time-dependent generators are integrated with fixed-step RK4 under a
    step-halving Richardson check of 1e-9 per unit time.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) == 0:
        raise ValueError("grid must be a non-empty 1-d array")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be strictly increasing")
    d = gen.dim
    rho0 = _check_state(rho0, d)
    v0 = genmod.vec(rho0)

    if not gen.time_dependent:
        smat = genmod.reshape(gen).matrix
        states = []
        for t in grid:
            if t == 0.0:
                states.append(rho0.copy())
                continue
            v = scipy.linalg.expm(t * smat) @ v0
            rho = genmod.unvec(v, d)
            states.append((rho + rho.conj().T) / 2.0)
        return Trajectory(grid=grid, states=tuple(states))

    parts = genmod.superop_parts(gen)
    states = []
    v = _integrate_segment(parts, v0, 0.0, float(grid[0]))
    for k in range(len(grid)):
        if k:
            v = _integrate_segment(parts, v, float(grid[k - 1]), float(grid[k]))
        rho = genmod.unvec(v, d)
        rho = (rho + rho.conj().T) / 2.0
        v = genmod.vec(rho)
        states.append(rho)
    return Trajectory(grid=grid, states=tuple(states))


# ---------------------------------------------------------------------------
# eigen-tracking
# ---------------------------------------------------------------------------

_DEGENERACY_GAP = 1e-12


def _fix_column_phases(frame):
    out = frame.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        idx = int(np.argmax(np.abs(col)))
        pivot = col[idx]
        if abs(pivot) > 0.0:
            out[:, j] = col * (abs(pivot) / pivot)
    return out


def _degenerate_clusters(values):
    clusters = []
    start = 0
    for i in range(1, len(values)):
        if values[i] - values[i - 1] > _DEGENERACY_GAP:
            clusters.append(range(start, i))
            start = i
    clusters.append(range(start, len(values)))
    return [c for c in clusters if len(c) > 1]


def spectral_track(traj):
    """Track eigenvalues and eigenvectors of rho(t) along the trajectory.

    Columns are matched to the previous frame by maximal overlap (labels
    follow eigenvector continuity, not eigenvalue order); exactly degenerate
    blocks are aligned to the previous frame by orthogonal Procrustes, and
    phases are fixed by making the largest-magnitude component real
    positive.  Raises when the best overlap drops below 0.5, which signals a
    grid too coarse to track through.
    """
    populations = []
    frames = []
    prev = None
    for t, rho in zip(traj.grid, traj.states):
        w, v = np.linalg.eigh(rho)
        if prev is not None:
            overlap = np.abs(prev.conj().T @ v)
            rows, cols = linear_sum_assignment(-overlap)
            perm = np.empty(len(w), dtype=int)
            perm[rows] = cols
            v = v[:, perm]
            w = w[perm]
            # align exactly degenerate blocks before judging continuity: the
            # eigensolver's gauge inside such a block is arbitrary
            order = np.argsort(w, kind="stable")
            for cluster in _degenerate_clusters(w[order]):
                cols_c = order[list(cluster)]
                block = prev[:, cols_c].conj().T @ v[:, cols_c]
                uu, _, vv = np.linalg.svd(block)
                rot = (uu @ vv).conj().T
                v[:, cols_c] = v[:, cols_c] @ rot
            worst = float(np.min(np.abs(np.sum(prev.conj() * v, axis=0))))
            if worst < 0.5:
                raise TrackingLostError(float(t), worst)
        v = _fix_column_phases(v)
        populations.append(w.real)
        frames.append(v)
        prev = v
    return EigenTrack(
        grid=traj.grid,
        populations=np.array(populations),
        frames=tuple(frames),
    )


# ---------------------------------------------------------------------------
# rate matrices
# ---------------------------------------------------------------------------

def _require_canonical(canonical):
    gen = canonical.base
    if not genmod.is_canonical(gen, tol=1e-8):
        raise NonCanonicalGeneratorError("channels must be traceless-orthonormal")
    return gen


def teich_mahler(canonical, track, k):
    """Rate matrix W(t_k) in the tracked frame.

    Off-diagonal entries are the transition rates R_ij; column sums vanish
    identically, and R is entrywise nonnegative whenever all channel rates
    are.
    """
    gen = canonical.base
    t = float(track.grid[k])
    frame = track.frames[k]
    d = gen.dim
    r = np.zeros((d, d))
    for ch in gen.channels:
        m = frame.conj().T @ ch.op @ frame
        r += ch.rate_at(t) * np.abs(m) ** 2
    w = r - np.diag(r.sum(axis=0))
    return RateMatrix(w=w, r=r, t=t)


def pauli_residual(canonical, track, k):
    """||pdot(t_k) - W(t_k) p(t_k)||_2 with a central finite difference.

    Second-order accurate on non-uniform grids; boundary indices are
    rejected rather than approximated one-sidedly.
    """
    if k <= 0 or k >= len(track.grid) - 1:
        raise BoundaryIndexError(f"index {k} has no two neighbors")
    hm = float(track.grid[k] - track.grid[k - 1])
    hp = float(track.grid[k + 1] - track.grid[k])
    pm = track.populations[k - 1]
    p0 = track.populations[k]
    pp = track.populations[k + 1]
    pdot = (hm**2 * pp - hp**2 * pm + (hp**2 - hm**2) * p0) / (hp * hm * (hp + hm))
    w = teich_mahler(canonical, track, k).w
    return float(np.linalg.norm(pdot - w @ p0))


def w_quantity(canonical, track, k):
    """Off-diagonal weight w_n^(i) of each channel in the tracked frame.

    Every entry is bounded by one for canonical channels because the
    summed squared matrix elements sit inside one row/column pair of a
    unitary mixing matrix without repetition.
    """
    gen = _require_canonical(canonical)
    t = float(track.grid[k])
    frame = track.frames[k]
    out = np.zeros((len(gen.channels), gen.dim))
    for n, ch in enumerate(gen.channels):
        m2 = np.abs(frame.conj().T @ ch.op @ frame) ** 2
        out[n] = m2.sum(axis=0) + m2.sum(axis=1) - 2.0 * np.diagonal(m2)
    return out


def classical_propagator(canonical, track, j, k):
    """Propagator F(t_k, t_j) of pdot = W(t) p along the tracked grid.

    Integrates from the identity with RK4, interpolating W linearly between
    grid samples; column sums are preserved exactly.  Requires strictly
    positive populations on the window (the forward stochastic regime).
    """
    if not 0 <= j <= k < len(track.grid):
        raise IndexError(f"invalid window [{j}, {k}]")
    if np.any(track.populations[j : k + 1] <= 0.0):
        raise NegativePopulationsError(
            "populations are not strictly positive on the window"
        )
    ws = [teich_mahler(canonical, track, m).w for m in range(j, k + 1)]
    f = np.eye(track.populations.shape[1])
    for w0, w1, h in zip(ws, ws[1:], np.diff(track.grid[j : k + 1])):
        # one step with W linearly interpolated between two grid samples
        f = rk4(np.array([w0, (w0 + w1) / 2.0, w1]), f, float(h))
    return f


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def export_track_csv(canonical, track, path):
    """Write time, populations, residual, ||W||_inf, and min w-slack rows."""
    gen = _require_canonical(canonical)
    d = gen.dim
    header = ["time"] + [f"p_{i + 1}" for i in range(d)] + ["residual", "w_inf_norm", "min_w_slack"]
    lines = [",".join(header)]
    n = len(track.grid)
    for k in range(n):
        rm = teich_mahler(canonical, track, k)
        wq = w_quantity(canonical, track, k)
        slack = float(np.min(1.0 - wq)) if wq.size else 1.0
        if 0 < k < n - 1:
            residual = fmt17(pauli_residual(canonical, track, k))
        else:
            residual = "nan"
        row = (
            [fmt17(track.grid[k])]
            + [fmt17(p) for p in track.populations[k]]
            + [residual, fmt17(float(np.linalg.norm(rm.w, np.inf))), fmt17(slack)]
        )
        lines.append(",".join(row))
    atomic_write(path, "\n".join(lines) + "\n")
