"""Non-Markovianity witness from the temporal relaxation-rate bound.

For time-dependent generators in canonical form the local relaxation rates
Gamma_l(t) are minus the real parts of the eigenvalues of the frozen
generator.  As long as all canonical rates stay nonnegative (the
CP-divisible, Markovian regime) the frozen generators are legitimate GKLS
generators and the rate bound holds at every instant:

    Gamma_max(t) <= (1/d) sum_l Gamma_l(t).

A negative margin at any time therefore certifies non-Markovianity.  The
``eternal_nm`` preset is the standard qubit example whose margin equals
-tanh(t): negative for every t > 0.
"""

from dataclasses import dataclass

import numpy as np

from . import generator as genmod
from . import ratelang, spectra
from .errors import UnknownPresetError, ZeroRateError

__all__ = [
    "WitnessReport",
    "local_spectrum",
    "scan",
    "qubit_tt_check",
    "qubit_generator",
    "preset",
    "PRESET_NAMES",
]

_BISECT_RESOLUTION = 1e-6


@dataclass(frozen=True)
class WitnessReport:
    grid: np.ndarray
    local_rates: np.ndarray  # (n_times, n_channels) canonical rates
    relax_rates: np.ndarray  # (n_times, d^2) sorted local relaxation rates
    margin: np.ndarray
    violation_intervals: tuple
    cp_divisible: bool

    @property
    def violated(self):
        return len(self.violation_intervals) > 0

    def to_dict(self):
        return {
            "grid": [float(t) for t in self.grid],
            "gammas": [[float(g) for g in row] for row in self.local_rates],
            "rates": [[float(r) for r in row] for row in self.relax_rates],
            "margin": [float(m) for m in self.margin],
            "violations": [
                {"start": float(a), "end": float(b)} for a, b in self.violation_intervals
            ],
            "cp_divisible": bool(self.cp_divisible),
        }


def local_spectrum(gen, t):
    """Relaxation spectrum of the generator frozen at time ``t``."""
    return spectra.relaxation_spectrum(genmod.freeze(gen, t))


def _bound_at(gen, t):
    spec = local_spectrum(gen, t)
    return spec.rates, spectra.check_bound(spec, gen.dim)


def scan(gen, grid):
    """Track rates and the bound margin over the grid.

    Violation intervals are maximal runs of violating grid points, with
    endpoints refined by bisection (margins are continuous in t) to 1e-6
    time resolution.
    """
    grid = np.asarray(grid, dtype=float)
    if not np.all(np.isfinite(grid)):
        raise ValueError("grid points must be finite")
    if grid.ndim != 1 or len(grid) == 0 or np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be non-empty and strictly increasing")
    if grid[0] < 0.0:
        raise ValueError("witness scan runs over t >= 0")

    n = len(grid)
    local_rates = np.array([genmod.canonical_rates_at(gen, t) for t in grid])
    relax = np.empty((n, gen.dim * gen.dim))
    margin = np.empty(n)
    violating = np.empty(n, dtype=bool)
    for i, t in enumerate(grid):
        relax[i], report = _bound_at(gen, t)
        margin[i] = report.margin
        violating[i] = not report.satisfied

    def refine(t_ok, t_bad):
        while abs(t_bad - t_ok) > _BISECT_RESOLUTION:
            mid = 0.5 * (t_ok + t_bad)
            if _bound_at(gen, mid)[1].satisfied:
                t_ok = mid
            else:
                t_bad = mid
        return t_bad

    intervals = []
    i = 0
    while i < n:
        if not violating[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and violating[j + 1]:
            j += 1
        start = float(grid[i]) if i == 0 else refine(float(grid[i - 1]), float(grid[i]))
        end = float(grid[j]) if j == n - 1 else refine(float(grid[j + 1]), float(grid[j]))
        intervals.append((start, end))
        i = j + 1

    cp_divisible = bool(np.all(local_rates >= -genmod.CP_TOL))
    return WitnessReport(
        grid=grid,
        local_rates=local_rates,
        relax_rates=relax,
        margin=margin,
        violation_intervals=tuple(intervals),
        cp_divisible=cp_divisible,
    )


def _as_rate_fn(rate):
    if isinstance(rate, ratelang.RateExpr):
        return rate
    if isinstance(rate, str):
        return ratelang.parse(rate)
    if callable(rate):
        return rate
    value = float(rate)
    return lambda t: value


def qubit_tt_check(gamma_plus, gamma_minus, gamma_z, grid):
    """Per-time flag of the relaxation-time inequality 2 T_L >= T_T.

    Inputs may be numbers, expression strings, parsed expressions, or
    callables of t.  Both local rates must be positive on the grid for the
    relaxation times to be defined.
    """
    fns = [_as_rate_fn(g) for g in (gamma_plus, gamma_minus, gamma_z)]
    grid = np.asarray(grid, dtype=float)
    flags = np.empty(len(grid), dtype=bool)
    for i, t in enumerate(grid):
        gp, gm, gz = (float(fn(t)) for fn in fns)
        gamma_l, gamma_t = spectra.qubit_rates(gp, gm, gz)
        if gamma_l <= 0.0 or gamma_t <= 0.0:
            raise ZeroRateError(f"relaxation times undefined at t={t}: "
                                f"Gamma_L={gamma_l}, Gamma_T={gamma_t}")
        flags[i] = bool(2.0 * gamma_t >= gamma_l - 1e-10)
    return flags


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def qubit_generator(gamma_plus, gamma_minus, gamma_z, omega=0.0):
    """Qubit generator with channels sigma_+, sigma_-, sigma_z/sqrt(2).

    All three channels are traceless-orthonormal, so the supplied rates are
    the canonical ones and the relaxation rates are Gamma_L = g+ + g- and
    the doubly degenerate Gamma_T = (g+ + g-)/2 + gz.
    """
    h = 0.5 * omega * genmod.SIGMA_Z
    channels = [
        (gamma_plus, genmod.SIGMA_PLUS),
        (gamma_minus, genmod.SIGMA_MINUS),
        (gamma_z, genmod.SIGMA_Z / np.sqrt(2.0)),
    ]
    return genmod.build(h, channels)


PRESET_NAMES = ("eternal_nm", "dephasing", "amplitude_damping", "paper_qubit")


def preset(name):
    """Named example generators.

    eternal_nm: unit raising/lowering rates and dephasing rate -tanh(t) on
    the normalized channel sigma_z/sqrt(2) (equivalently -tanh(t)/2 on the
    bare sigma_z dissipator); its dynamical map stays completely positive
    while the rate bound is violated for every t > 0.
    """
    if name == "eternal_nm":
        return qubit_generator(1.0, 1.0, "-tanh(t)", omega=0.0)
    if name == "dephasing":
        return genmod.build(np.zeros((2, 2)), [(1.0, genmod.SIGMA_Z / np.sqrt(2.0))])
    if name == "amplitude_damping":
        return genmod.build(np.zeros((2, 2)), [(1.0, genmod.SIGMA_MINUS)])
    if name == "paper_qubit":
        return qubit_generator(1.0, 1.0, 1.0, omega=1.0)
    raise UnknownPresetError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
