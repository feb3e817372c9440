"""Independent checks of program output, run outside the timed region.

Nothing here imports ``gkls_rates``.  Superoperators are assembled with
``np.kron`` from the operators and rate templates the input generator
wrote, and spectra come from ``numpy.linalg.eigvals``; qubit witness
margins use the closed-form rates.  Every check returns an error as a share
of its fixed tolerance, so a ratio of at most 1 passes.

Tolerances:

- sweep margins and Gamma_max: 1e-8 * max(1, Gamma_max), the program's own
  bound tolerance; gamma_sum: 1e-9.
- witness margins and local canonical rates: 1e-9 absolute; violation
  endpoints: 2e-6, twice the bisection resolution.
- Lyapunov exponents: 1% of Gamma_max (acceptance criterion 7).
- ``evolve``: 1e-8 against ``expm`` for autonomous generators and 1e-7
  against ``solve_ivp`` for time-dependent ones; ``||W||_inf`` may exceed
  ``sum gamma`` by at most 1e-10 * max(1, sum gamma).
"""

import csv
import io
import json
import math

import numpy as np
import scipy.integrate
import scipy.linalg
import scipy.optimize

from inputs import FLAG_CLEARANCE, gell_mann_basis, rate_limit, rate_value, witness_grid

BOUND_TOL = 1e-8
GAMMA_SUM_TOL = 1e-9
WITNESS_MARGIN_TOL = 1e-9
WITNESS_ENDPOINT_TOL = 2e-6
LYAPUNOV_REL_TOL = 1e-2
EVOLVE_EXPM_TOL = 1e-8
EVOLVE_IVP_TOL = 1e-7
W_NORM_REL_TOL = 1e-10

EXIT_OK, EXIT_BOUND_VIOLATED, EXIT_WITNESS_FIRED = 0, 3, 4


class Check:
    """Worst error ratio over the numeric checks of one item, plus failure notes."""

    def __init__(self):
        self.ratio = 0.0
        self.notes = []

    def error(self, name, err, tol):
        ratio = float(err) / tol
        if not math.isfinite(ratio):
            self.notes.append(f"{name}: error {err!r}")
            return
        self.ratio = max(self.ratio, ratio)
        if ratio > 1.0:
            self.notes.append(f"{name}: error {err:.3e} above tolerance {tol:.1e}")

    def require(self, name, ok):
        if not ok:
            self.notes.append(name)

    @property
    def ok(self):
        return not self.notes


# ---------------------------------------------------------------------------
# superoperators and bound margins
# ---------------------------------------------------------------------------

def kron_superop(h, ops, rates):
    """Row-major reshaped generator: vec(A rho B) = (A kron B^T) vec(rho).

    The jump terms sum_l gamma_l L_l kron conj(L_l) are one einsum over the
    stacked operators; the rest are plain ``np.kron`` products.
    """
    d = h.shape[0]
    eye = np.eye(d)
    ops = np.asarray(ops, dtype=complex)
    rates = np.asarray(rates, dtype=float)
    damp = np.einsum("j,jba,jbc->ac", rates, ops.conj(), ops)  # sum gamma L^+ L
    jumps = np.einsum("j,jab,jcd->acbd", rates, ops, ops.conj()).reshape(d * d, d * d)
    return (
        -1.0j * (np.kron(h, eye) - np.kron(eye, h.T))
        + jumps
        - 0.5 * (np.kron(damp, eye) + np.kron(eye, damp.T))
    )


def sorted_rates(superop):
    return np.sort(-np.linalg.eigvals(superop).real)


def margin_of(rates, d):
    """(margin, Gamma_max) of ascending rates: sum(rates[1:])/d - rates[-1]."""
    return float(np.sum(rates[1:]) / d - rates[-1]), float(rates[-1])


def spec_superop(spec, t=0.0, limit=False):
    if limit:
        rates = [rate_limit(r) for r in spec["rates"]]
    else:
        rates = [float(rate_value(r, t)) for r in spec["rates"]]
    return kron_superop(spec["h"], spec["ops"], rates)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def random_cp_superop(d, seed):
    """Superoperator of ``generator.random_cp(d, d*d - 1, seed)``, rebuilt.

    Repeats the documented draws (GUE H, then a complex Gaussian B in the
    Gell-Mann basis with Kossakowski matrix B B^+ / Tr) and assembles the
    Kossakowski form channel by channel, M_j = sum_k B_kj F_k / sqrt(Tr),
    so no eigendecomposition of the Kossakowski matrix is involved.
    """
    n = d * d - 1
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d)) + 1.0j * rng.standard_normal((d, d))
    h = (a + a.conj().T) / 2.0
    b = rng.standard_normal((n, n)) + 1.0j * rng.standard_normal((n, n))
    b = b / math.sqrt(float(np.sum(np.abs(b) ** 2)))
    ops = np.einsum("kj,kab->jab", b, gell_mann_basis(d))
    return kron_superop(h, ops, np.ones(n))


def check_sweep(item, rc, csv_text):
    chk = Check()
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    d, first, count = item["dim"], item["first_seed"], item["units"]
    chk.require("row count", len(rows) == count)
    worst_ok = True
    for k, row in enumerate(rows):
        seed = first + k
        chk.require(f"row {k} seed", int(row["seed"]) == seed)
        margin, gamma_max = margin_of(sorted_rates(random_cp_superop(d, seed)), d)
        tol = BOUND_TOL * max(1.0, gamma_max)
        worst_ok = worst_ok and margin >= -tol
        chk.error(f"seed {seed} gamma_max", abs(float(row["gamma_max"]) - gamma_max), tol)
        chk.error(f"seed {seed} margin", abs(float(row["margin"]) - margin), tol)
        chk.error(f"seed {seed} gamma_sum", abs(float(row["gamma_sum"]) - 1.0), GAMMA_SUM_TOL)
    chk.require(f"exit code {rc}", rc == (EXIT_OK if worst_ok else EXIT_BOUND_VIOLATED))
    return chk


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------

def _qubit_margin(spec, t):
    """Closed form: eigenvalues 0, -(g+ + g-), -((g+ + g-)/2 + gz) +- i omega."""
    gp, gm, gz = (rate_value(r, t) for r in spec["rates"])
    gl = gp + gm
    gt = 0.5 * gl + gz
    rates = np.sort(np.stack([np.zeros_like(gl), gl, gt, gt], axis=-1), axis=-1)
    return np.sum(rates[..., 1:], axis=-1) / 2.0 - rates[..., -1], rates[..., -1]


def _kron_margin(spec, t):
    d = spec["h"].shape[0]
    return margin_of(sorted_rates(spec_superop(spec, t)), d)


def witness_margin(spec, t):
    """(margin, Gamma_max) at a scalar time."""
    if "qubit_omega" in spec:
        m, g = _qubit_margin(spec, np.array([t]))
        return float(m[0]), float(g[0])
    return _kron_margin(spec, t)


def _local_gammas(spec, grid):
    """Canonical rates on the grid, ascending per point for non-canonical files."""
    values = np.array([rate_value(r, grid) for r in spec["rates"]]).T
    if "qubit_omega" in spec:
        return values
    # Kossakowski matrix from HS coefficients of the traceless parts
    basis = gell_mann_basis(spec["h"].shape[0])
    coef = np.einsum("kab,jba->jk", basis, np.array(spec["ops"]))  # Tr(F_k L_j)
    kos = np.einsum("nj,jk,jl->nkl", values, coef, coef.conj())
    return np.linalg.eigvalsh(kos)


def _violating(margin, gamma_max):
    return margin < -BOUND_TOL * np.maximum(1.0, gamma_max)


def witness_clearance_ok(spec):
    grid = witness_grid()
    margin, gamma_max = _grid_margins(spec, grid)
    return bool(np.min(np.abs(margin + BOUND_TOL * np.maximum(1.0, gamma_max))) >= FLAG_CLEARANCE)


def _grid_margins(spec, grid):
    if "qubit_omega" in spec:
        return _qubit_margin(spec, grid)
    pairs = np.array([_kron_margin(spec, t) for t in grid])
    return pairs[:, 0], pairs[:, 1]


def _crossing(spec, t_ok, t_bad):
    def f(t):
        m, g = witness_margin(spec, t)
        return m + BOUND_TOL * max(1.0, g)

    return scipy.optimize.brentq(f, t_ok, t_bad, xtol=1e-13)


def witness_expectation(spec):
    """Margins, local rates and violation intervals the report must show."""
    grid = witness_grid()
    margin, gamma_max = _grid_margins(spec, grid)
    flags = _violating(margin, gamma_max)
    intervals = []
    n = len(grid)
    i = 0
    while i < n:
        if not flags[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and flags[j + 1]:
            j += 1
        start = grid[i] if i == 0 else _crossing(spec, grid[i - 1], grid[i])
        end = grid[j] if j == n - 1 else _crossing(spec, grid[j + 1], grid[j])
        intervals.append((float(start), float(end)))
        i = j + 1
    gammas = _local_gammas(spec, grid)
    return {
        "margin": margin,
        "gammas": gammas,
        "intervals": intervals,
        "cp_divisible": bool(np.all(gammas >= -1e-12)),
    }


def check_witness(rc, report_text, expect):
    chk = Check()
    fired = bool(expect["intervals"])
    chk.require(f"exit code {rc}", rc == (EXIT_WITNESS_FIRED if fired else EXIT_OK))
    report = json.loads(report_text)
    margin = np.array(report["margin"])
    gammas = np.array(report["gammas"])
    chk.require("grid length", margin.shape == expect["margin"].shape)
    chk.require("gamma shape", gammas.shape == expect["gammas"].shape)
    if chk.ok:
        chk.error("margin", np.max(np.abs(margin - expect["margin"])), WITNESS_MARGIN_TOL)
        chk.error("local rates", np.max(np.abs(gammas - expect["gammas"])), WITNESS_MARGIN_TOL)
    chk.require("cp_divisible", report["cp_divisible"] == expect["cp_divisible"])
    got = [(v["start"], v["end"]) for v in report["violations"]]
    chk.require(f"{len(got)} intervals, expected {len(expect['intervals'])}",
                len(got) == len(expect["intervals"]))
    for (a, b), (ea, eb) in zip(got, expect["intervals"]):
        chk.error("interval endpoint", max(abs(a - ea), abs(b - eb)), WITNESS_ENDPOINT_TOL)
    return chk


# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------

def window_spread(superop, horizon, steps=256):
    """Relative disagreement of exact QR exponents over [H/2, H] and [3H/4, H].

    The flow G' = -L G is propagated by ``expm`` steps and re-factorized
    each step.  This is the quantity the program's convergence gap
    measures, taken on the exact flow, so when it is near the program's 1%
    limit an unconverged exit is as correct as a converged one.
    """
    n = superop.shape[0]
    dt = horizon / steps
    prop = scipy.linalg.expm(-dt * superop)
    q = np.eye(n, dtype=complex)
    acc = np.zeros(n)
    half, quarter = steps // 2, (3 * steps) // 4
    for k in range(1, steps + 1):
        q, r = np.linalg.qr(prop @ q)
        acc += np.log(np.abs(np.diagonal(r)))
        if k == half:
            at_half = acc.copy()
        if k == quarter:
            at_quarter = acc.copy()
    chi_half = (acc - at_half) / ((steps - half) * dt)
    chi_quarter = (acc - at_quarter) / ((steps - quarter) * dt)
    scale = max(np.max(np.abs(chi_half)), np.max(np.abs(chi_quarter)), 1e-12)
    return float(np.max(np.abs(chi_half - chi_quarter)) / scale)


def _stdout_numbers(stdout, key):
    """Numbers after ``key:`` on its line, up to the next ``name:`` field."""
    for line in stdout.splitlines():
        if line.startswith(key + ":"):
            values = []
            for token in line.split(":", 1)[1].split():
                if token.endswith(":"):
                    break
                values.append(float(token))
            return values
    return None


def check_lyapunov(item, rc, stdout):
    chk = Check()
    chk.require(f"exit code {rc}", rc == EXIT_OK)
    rates = item["rates"]
    gamma_max = float(rates[-1])
    tol = LYAPUNOV_REL_TOL * gamma_max
    chi_line = _stdout_numbers(stdout, "chi")
    chk.require("chi line", chi_line is not None)
    if chi_line is not None:
        chk.error("chi", abs(chi_line[0] - gamma_max), tol)
    if item["mode"] == "qr":
        spectrum = _stdout_numbers(stdout, "spectrum")
        chk.require("spectrum line", spectrum is not None and len(spectrum) == len(rates))
        if chk.ok:
            chk.error("QR spectrum", np.max(np.abs(np.array(spectrum) - rates)), tol)
    return chk


def check_pauli(item, states, w_norms):
    chk = Check()
    spec = item["spec"]
    grid = np.linspace(*item["grid"])
    d = spec["h"].shape[0]
    v0 = np.asarray(item["rho0"], dtype=complex).reshape(-1)
    chk.require("state count", len(states) == len(grid) and len(w_norms) == len(grid))
    if not chk.ok:
        return chk
    td = any(r[0] != "const" for r in spec["rates"])
    if td:
        def rhs(t, y):
            v = y[: d * d] + 1.0j * y[d * d:]
            dv = spec_superop(spec, t) @ v
            return np.concatenate([dv.real, dv.imag])

        sol = scipy.integrate.solve_ivp(
            rhs, (grid[0], grid[-1]), np.concatenate([v0.real, v0.imag]), method="DOP853",
            t_eval=grid, rtol=1e-12, atol=1e-14,
        )
        chk.require("solve_ivp", sol.success)
        ref = (sol.y[: d * d] + 1.0j * sol.y[d * d:]).T
        tol = EVOLVE_IVP_TOL
    else:
        smat = spec_superop(spec)
        ref = np.array([scipy.linalg.expm(t * smat) @ v0 for t in grid])
        tol = EVOLVE_EXPM_TOL
    ref = ref.reshape(len(grid), d, d)
    ref = (ref + ref.conj().transpose(0, 2, 1)) / 2.0
    got = np.asarray(states).reshape(len(grid), d, d)
    chk.error("evolve", np.max(np.abs(got - ref)), tol)
    gamma_sum = np.sum([rate_value(r, grid) for r in spec["rates"]], axis=0)
    excess = np.asarray(w_norms) - gamma_sum
    chk.error("||W||_inf <= sum gamma",
              max(0.0, float(np.max(excess / np.maximum(1.0, gamma_sum)))), W_NORM_REL_TOL)
    return chk
