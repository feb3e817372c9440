"""Seeded inputs for the three benchmark workloads.

Everything the program sees is made here from the workload seed: generator
JSON files, CLI argument lists, and the parameters of the Pauli API chain.
The program never receives the seed itself.  Each input also carries what
the oracle needs to check it (rate templates, operators, the expected
asymptotic generator), so the oracle never reads program output to decide
what the right answer is.

Rate expressions come from a few templates whose parameters are rounded to
four decimals before they are printed, so the program's parser and the
oracle's closed form evaluate the same numbers.
"""

import json
import math

import numpy as np

# sweep: one CLI call per item, dimensions cycled in this order; every call
# verifies SWEEP_COUNT generators
SWEEP_DIMS = (2, 3, 4, 5)
SWEEP_COUNT = 16

# witness: the 1000-interval grid fixed by the acceptance sizes
WITNESS_T0, WITNESS_T1, WITNESS_STEPS = 0.0, 10.0, 1001

# flow: the Pauli chain grid and the criterion-7 gap filter
PAULI_GRID = (0.0, 2.0, 201)
GAP_FRACTION = 0.05
HORIZON_GAPS = 50.0
# sum of canonical rates over the minimal rate gap, per dimension: the QR and
# backward step counts grow with it, so holding it to a narrow band keeps the
# work of one Lyapunov item within about 10% from seed to seed
STIFFNESS_BAND = {2: (3.4, 3.8), 3: (35.0, 38.0)}
# largest window disagreement of the exact flow a Lyapunov input may show:
# half the program's 1% convergence limit, so that exit 0 is the one right
# answer (oscillating eigenvalue pairs can keep the exact windows apart for
# longer than 50 / gap)
WINDOW_CLEARANCE = 0.5e-2

# distance from the violation threshold a witness margin must keep at every
# grid point, so that program and oracle cannot disagree on a flag by rounding
FLAG_CLEARANCE = 1e-9

SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_PLUS = SIGMA_MINUS.conj().T
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


# ---------------------------------------------------------------------------
# rate templates
# ---------------------------------------------------------------------------

def _r4(x):
    return round(float(x), 4)


def rate_text(rate):
    """JSON value of a rate template: a number, or an expression in t."""
    kind, p = rate
    if kind == "const":
        return p[0]
    if kind == "sin":
        a, b, w, ph = p
        return f"{a!r} + {b!r}*sin({w!r}*t + {ph!r})"
    if kind == "tanh":
        a, b, c = p
        return f"{a!r} - {b!r}*tanh({c!r}*t)"
    if kind == "exp":
        a, b, c = p
        sign = "+" if b >= 0.0 else "-"
        return f"{a!r} {sign} {abs(b)!r}*exp(-{c!r}*t)"
    raise ValueError(kind)


def rate_value(rate, t):
    """Closed-form value of a rate template; vectorized over ``t``."""
    kind, p = rate
    t = np.asarray(t, dtype=float)
    if kind == "const":
        return np.full(t.shape, p[0])
    if kind == "sin":
        a, b, w, ph = p
        return a + b * np.sin(w * t + ph)
    if kind == "tanh":
        a, b, c = p
        return a - b * np.tanh(c * t)
    if kind == "exp":
        a, b, c = p
        return a + b * np.exp(-c * t)
    raise ValueError(kind)


def rate_limit(rate):
    """Value of a constant or exponentially relaxing template as t -> inf."""
    kind, p = rate
    if kind in ("const", "exp"):
        return p[0]
    raise ValueError(f"template {kind!r} has no limit")


# ---------------------------------------------------------------------------
# generator specs: H, operators, rate templates
# ---------------------------------------------------------------------------

def gell_mann_basis(d):
    """Hermitian traceless orthonormal basis: symmetric, antisymmetric, diagonal.

    The order is the one ``generator.random_cp`` draws its Kossakowski
    matrix in, which the sweep oracle relies on.
    """
    basis = []
    s = 1.0 / math.sqrt(2.0)
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = m[k, j] = s
            basis.append(m)
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1.0j * s
            m[k, j] = 1.0j * s
            basis.append(m)
    for l in range(1, d):
        diag = np.zeros(d)
        diag[:l] = 1.0
        diag[l] = -float(l)
        basis.append(np.diag(diag / math.sqrt(l * (l + 1.0))).astype(complex))
    return np.array(basis)


def _gue(rng, d, scale=1.0):
    a = rng.standard_normal((d, d)) + 1.0j * rng.standard_normal((d, d))
    return scale * (a + a.conj().T) / 2.0


def random_cp_spec(rng, d):
    """Autonomous CP generator in canonical form (Wishart Kossakowski matrix)."""
    basis = gell_mann_basis(d)
    n = d * d - 1
    b = rng.standard_normal((n, n)) + 1.0j * rng.standard_normal((n, n))
    c = b @ b.conj().T
    c /= np.trace(c).real
    gammas, mixing = np.linalg.eigh(c)
    ops = [np.einsum("k,kab->ab", mixing[:, l], basis) for l in range(n)]
    rates = [("const", (_r4(g),)) for g in gammas]
    return {"h": _gue(rng, d), "ops": ops, "rates": rates, "label": f"cp-d{d}"}


def qubit_spec(rates, omega, label):
    """Canonical qubit: channels sigma_+, sigma_-, sigma_z/sqrt(2)."""
    return {
        "h": 0.5 * omega * SIGMA_Z,
        "ops": [SIGMA_PLUS, SIGMA_MINUS, SIGMA_Z / math.sqrt(2.0)],
        "rates": list(rates),
        "label": label,
        "qubit_omega": omega,
    }


def spec_document(spec):
    def cmat(m):
        return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]

    return {
        "dim": int(spec["h"].shape[0]),
        "hamiltonian": cmat(spec["h"]),
        "channels": [
            {"rate": rate_text(r), "matrix": cmat(op)} for r, op in zip(spec["rates"], spec["ops"])
        ],
        "label": spec["label"],
    }


def write_spec(spec, path):
    with open(path, "w") as handle:
        json.dump(spec_document(spec), handle)
    return str(path)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def sweep_item(seed, k, workdir, stream=0):
    """k-th call of the cycle; generator seeds never repeat within a run."""
    d = SWEEP_DIMS[k % len(SWEEP_DIMS)]
    first = (seed * 8 + stream) * 1_000_000 + k * SWEEP_COUNT
    csv = str(workdir / f"sweep-{k % 2}.csv")
    return {
        "kind": f"sweep-d{d}",
        "argv": ["sweep", "--dim", str(d), "--count", str(SWEEP_COUNT), "--seed", str(first),
                 "--csv", csv],
        "out": csv,
        "units": SWEEP_COUNT,
        "dim": d,
        "first_seed": first,
    }


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------

WITNESS_KINDS = (
    "qubit-eternal-herm",   # g+ = g-, omega = 0: Hermitian eigh path, fires once
    "qubit-calm",           # omega != 0: general path, never fires
    "qubit-oscillating",    # omega != 0: fires on several intervals
    "qubit-calm-herm",      # Hermitian path, never fires
    "noncanonical-d2",      # gks_decompose at every point, one rate dips below 0
    "noncanonical-d3",      # gks_decompose at every point
)


def witness_grid():
    return np.linspace(WITNESS_T0, WITNESS_T1, WITNESS_STEPS)


def _witness_spec(kind, rng):
    u = rng.uniform
    if kind == "qubit-eternal-herm":
        g = ("sin", (_r4(u(0.8, 1.2)), _r4(u(0.0, 0.3)), _r4(u(0.5, 2.0)), _r4(u(0, 6))))
        a = _r4(u(0.0, 0.3))
        gz = ("tanh", (a, _r4(a + u(0.2, 1.0)), _r4(u(0.5, 2.0))))
        return qubit_spec([g, g, gz], 0.0, kind)
    if kind == "qubit-calm":
        gp = ("sin", (_r4(u(0.8, 1.2)), _r4(u(0.0, 0.5)), _r4(u(0.5, 2.0)), _r4(u(0, 6))))
        gm = ("const", (_r4(u(0.5, 1.5)),))
        b = _r4(u(0.1, 0.4))
        gz = ("sin", (_r4(b + u(0.1, 0.5)), b, _r4(u(0.5, 2.0)), _r4(u(0, 6))))
        return qubit_spec([gp, gm, gz], _r4(u(0.5, 2.0)), kind)
    if kind == "qubit-oscillating":
        gp = ("const", (_r4(u(0.5, 1.5)),))
        gm = ("exp", (_r4(u(0.5, 1.5)), _r4(u(-0.3, 0.3)), _r4(u(0.5, 2.0))))
        gz = ("sin", (_r4(u(-0.1, 0.2)), _r4(u(0.3, 0.8)), _r4(u(1.0, 3.0)), _r4(u(0, 6))))
        return qubit_spec([gp, gm, gz], _r4(u(0.5, 2.0)), kind)
    if kind == "qubit-calm-herm":
        g = ("exp", (_r4(u(0.8, 1.2)), _r4(u(-0.5, 0.5)), _r4(u(0.5, 2.0))))
        gz = ("exp", (_r4(u(0.2, 0.6)), _r4(u(0.0, 0.5)), _r4(u(0.5, 2.0))))
        return qubit_spec([g, g, gz], 0.0, kind)
    if kind in ("noncanonical-d2", "noncanonical-d3"):
        d = 2 if kind.endswith("d2") else 3
        n = d + 1
        ops = [
            (rng.standard_normal((d, d)) + 1.0j * rng.standard_normal((d, d))) / math.sqrt(2 * d)
            for _ in range(n)
        ]
        rates = [("const", (_r4(u(0.3, 1.0)),)) for _ in range(n - 2)]
        rates.append(("exp", (_r4(u(0.3, 1.0)), _r4(u(-0.3, 0.3)), _r4(u(0.5, 2.0)))))
        # the last channel's rate dips below zero on part of the grid
        rates.append(("sin", (_r4(u(-0.1, 0.3)), _r4(u(0.2, 0.5)), _r4(u(0.5, 2.0)),
                              _r4(u(0, 6)))))
        return {"h": _gue(rng, d, 0.5), "ops": ops, "rates": rates, "label": kind}
    raise ValueError(kind)


def witness_item(seed, k, workdir, oracle, stream=0):
    """k-th witness input; kinds cycle through ``WITNESS_KINDS``.

    ``oracle.witness_clearance_ok(spec)`` is False when a drawn file would
    put a grid margin within ``FLAG_CLEARANCE`` of the violation threshold;
    such draws are replaced, since either flag would then be a correct answer.
    """
    rng = np.random.default_rng([seed, 2, stream, k])
    kind = WITNESS_KINDS[k % len(WITNESS_KINDS)]
    spec = _witness_spec(kind, rng)
    while not oracle.witness_clearance_ok(spec):
        spec = _witness_spec(kind, rng)
    tag = f"witness-{stream}-{k}"
    path = write_spec(spec, workdir / f"{tag}.json")
    out = str(workdir / f"{tag}-report.json")
    return {
        "kind": kind,
        "argv": ["witness", path, "--t0", repr(WITNESS_T0), "--t1", repr(WITNESS_T1),
                 "--steps", str(WITNESS_STEPS), "--json", out],
        "out": out,
        "units": WITNESS_STEPS,
        "spec": spec,
    }


# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------

FLOW_KINDS = (
    "lyap-qr-d2",
    "lyap-backward-d2",
    "lyap-qr-d3",
    "lyap-backward-d3",
    "lyap-qr-td",
    "pauli-autonomous",
    "pauli-td",
)


def _gap(rates_sorted):
    distinct = np.unique(np.round(rates_sorted, 9))
    return float(np.min(np.diff(distinct))) if len(distinct) > 1 else 0.0


def _td_qubit_spec(rng, templates):
    """Canonical qubit with strictly positive rates, relaxing or oscillating."""
    u = rng.uniform
    rates = []
    for _ in range(3):
        a = _r4(u(0.3, 1.2))
        rates.append(("exp", (a, _r4(u(-0.3, 0.3) * a), _r4(u(1.0, 3.0)))))
    if templates == "sin":
        a = _r4(u(0.3, 1.2))
        rates[2] = ("sin", (a, _r4(u(0.0, 0.5) * a), _r4(u(1.0, 4.0)), _r4(u(0, 6))))
    return qubit_spec(rates, _r4(u(0.0, 0.5)), "td-qubit")


def _random_density(rng, d):
    """Full-rank state with populations at least 0.05 apart, for eigen-tracking."""
    while True:
        a = rng.standard_normal((d, d)) + 1.0j * rng.standard_normal((d, d))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        pops = np.linalg.eigvalsh(rho)
        if np.min(np.diff(pops)) >= 0.05:
            return rho


def flow_item(seed, k, workdir, oracle, stream=0):
    """k-th flow input; kinds cycle through ``FLOW_KINDS``.

    ``oracle.spec_superop(spec, limit=...)`` gives the superoperator of the
    spec (of its t -> inf limit for the time-dependent file); its sorted
    rates decide the gap filter, the Lyapunov horizon is
    ``HORIZON_GAPS / gap`` as in criterion 7, and ``oracle.window_spread``
    screens out inputs whose exact flow has not settled by then.
    """
    rng = np.random.default_rng([seed, 3, stream, k])
    kind = FLOW_KINDS[k % len(FLOW_KINDS)]
    if kind.startswith("pauli"):
        spec = random_cp_spec(rng, 3) if kind == "pauli-autonomous" else _td_qubit_spec(rng, "sin")
        return {
            "kind": kind,
            "grid": PAULI_GRID,
            "rho0": _random_density(rng, spec["h"].shape[0]),
            "units": 1,
            "spec": spec,
        }
    td = kind == "lyap-qr-td"
    d = 2 if td else int(kind[-1])
    lo, hi = STIFFNESS_BAND[d]
    while True:
        spec = _td_qubit_spec(rng, "exp") if td else random_cp_spec(rng, d)
        superop = oracle.spec_superop(spec, limit=td)
        rates = oracle.sorted_rates(superop)
        gap = _gap(rates)
        stiffness = sum(rate_limit(r) for r in spec["rates"]) / max(gap, 1e-300)
        if (
            gap >= GAP_FRACTION * rates[-1]
            and lo <= stiffness <= hi
            and oracle.window_spread(superop, HORIZON_GAPS / gap) <= WINDOW_CLEARANCE
        ):
            break
    mode = "backward" if "backward" in kind else "qr"
    path = write_spec(spec, workdir / f"flow-{stream}-{k}.json")
    return {
        "kind": kind,
        "argv": ["lyapunov", path, "--mode", mode, "--horizon", repr(HORIZON_GAPS / gap),
                 "--seed", str(int(rng.integers(1 << 30)))],
        "units": 1,
        "spec": spec,
        "rates": rates,
        "mode": mode,
    }
