"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite runs at desk scale (well under five minutes).
"""

import numpy as np

from gkls_rates import classical, cli, generator as g
from gkls_rates import lyapunov, pauli, spectra, witness


def criterion(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status}: {description}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} failed: {description} {detail}"


# ---------------------------------------------------------------------------
# 1. universal bound on 10^4 random CP generators, d in {2, 3, 4, 5}
# ---------------------------------------------------------------------------

def test_criterion_01_universal_bound():
    worst = np.inf
    count = 0
    for d in (2, 3, 4, 5):
        seeds = range(1000 * d, 1000 * d + 2500)
        _, gamma_max, margin, _, _ = spectra.bound_sweep(d, d * d - 1, seeds)
        slack = margin + 1e-8 * np.maximum(1.0, gamma_max)
        worst = min(worst, float(np.min(slack)))
        count += len(slack)
    criterion(
        1,
        "Gamma_max <= (1/d) sum Gamma on 10^4 random CP generators",
        worst >= 0.0,
        f"{count} samples, worst slack {worst:.3e}",
    )


# ---------------------------------------------------------------------------
# 2. tightness: amplitude damping and pure dephasing saturate
# ---------------------------------------------------------------------------

def hand_built_superop(l_op, gamma):
    eye = np.eye(2)
    ldl = l_op.conj().T @ l_op
    return gamma * (
        np.kron(l_op, l_op.conj())
        - 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T))
    )


def test_criterion_02_tightness():
    # expected rates frozen from brute-force eigensolves of hand-built 4x4s
    damping_rates = np.sort(-np.linalg.eigvals(hand_built_superop(g.SIGMA_MINUS, 1.0)).real)
    dephasing_rates = np.sort(
        -np.linalg.eigvals(hand_built_superop(g.SIGMA_Z / np.sqrt(2), 1.0)).real
    )
    assert np.allclose(damping_rates, [0, 0.5, 0.5, 1.0], atol=1e-12)
    assert np.allclose(dephasing_rates, [0, 0, 1.0, 1.0], atol=1e-12)

    ok = True
    details = []
    for name in ("amplitude_damping", "dephasing"):
        gen = witness.preset(name)
        report = spectra.check_bound(spectra.relaxation_spectrum(gen), 2)
        ok = ok and abs(report.margin) <= 1e-8 * report.gamma_max and report.saturated
        details.append(f"{name} margin {report.margin:.2e}")
    criterion(2, "amplitude damping and dephasing saturate the bound", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 3. qubit rate formulas against the eigensolver
# ---------------------------------------------------------------------------

def test_criterion_03_qubit_formulas():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        gp, gm, gz = rng.uniform(0.0, 3.0, size=3)
        omega = rng.uniform(-2.0, 2.0)
        gen = witness.qubit_generator(gp, gm, gz, omega)
        spec = spectra.relaxation_spectrum(gen)
        gamma_l, gamma_t = spectra.qubit_rates(gp, gm, gz)
        expected = np.sort([0.0, gamma_t, gamma_t, gamma_l])
        worst = max(worst, float(np.max(np.abs(np.sort(spec.rates) - expected))))
    criterion(
        3,
        "Gamma_L = g+ + g- and doubly degenerate Gamma_T = (g+ + g-)/2 + gz to 1e-10",
        worst <= 1e-10,
        f"worst deviation {worst:.3e} over 100 draws",
    )


# ---------------------------------------------------------------------------
# 4. trace identity of the reshaped generator
# ---------------------------------------------------------------------------

def test_criterion_04_trace_identity():
    worst_trace = 0.0
    worst_rates = 0.0
    for seed in range(100):
        d = 2 + seed % 4
        gen = g.random_cp(d, d * d - 1, seed=seed)
        smat = g.reshape(gen)
        gamma_sum = float(np.sum(gen.rates_at()))
        worst_trace = max(worst_trace, abs(np.trace(smat) - (-d * gamma_sum)))
        spec = spectra.relaxation_spectrum(gen)
        worst_rates = max(worst_rates, abs(np.sum(spec.rates) / d - gamma_sum))
    criterion(
        4,
        "Tr(reshaped L) = -d sum(gamma) to 1e-10 and (1/d) sum Gamma = sum gamma to 1e-8",
        worst_trace <= 1e-10 and worst_rates <= 1e-8,
        f"trace dev {worst_trace:.3e}, rate-sum dev {worst_rates:.3e}",
    )


# ---------------------------------------------------------------------------
# 5. Teich-Mahler reduction residual and its O(h^2) convergence
# ---------------------------------------------------------------------------

def _residual_at(gen, rho0, t0, h):
    can = g.canonical_form(gen)
    traj = pauli.evolve(gen, rho0, np.array([t0 - h, t0, t0 + h]))
    track = pauli.spectral_track(traj)
    return pauli.pauli_residual(can, track, 1)


def test_criterion_05_teich_mahler_residual():
    h = 1e-3
    cases = []
    plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    cases.append((witness.preset("amplitude_damping"), plus))
    rng = np.random.default_rng(7)
    made = 0
    seed = 0
    while made < 20:
        gen = g.random_cp(3, 8, seed=seed)
        seed += 1
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho0 = a @ a.conj().T
        rho0 /= np.trace(rho0).real
        cases.append((gen, rho0))
        made += 1

    worst = 0.0
    worst_ratio_low, worst_ratio_high = np.inf, 0.0
    for gen, rho0 in cases:
        r1 = _residual_at(gen, rho0, 0.3, h)
        r2 = _residual_at(gen, rho0, 0.3, h / 2)
        worst = max(worst, r1)
        ratio = r1 / max(r2, 1e-300)
        worst_ratio_low = min(worst_ratio_low, ratio)
        worst_ratio_high = max(worst_ratio_high, ratio)
    ok = worst <= 1e-5 and worst_ratio_low >= 2.5 and worst_ratio_high <= 6.0
    criterion(
        5,
        "pdot = W p residual <= 1e-5 at h=1e-3 with O(h^2) halving",
        ok,
        f"worst residual {worst:.3e}, halving ratios in [{worst_ratio_low:.2f}, {worst_ratio_high:.2f}]",
    )


# ---------------------------------------------------------------------------
# 6. frame bounds: w_n^(i) <= 1 and ||W||_inf <= sum gamma
# ---------------------------------------------------------------------------

def test_criterion_06_frame_bounds():
    rng = np.random.default_rng(99)
    worst_w = 0.0
    worst_norm = -np.inf
    samples = 0
    gens = [g.random_cp(d, d * d - 1, seed=500 + k) for d in (2, 3, 4) for k in range(84)]
    for gen in gens:
        can = g.canonical_form(gen)
        gamma_sum = float(np.sum(gen.rates_at()))
        d = gen.dim
        for _ in range(40):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            frame, _ = np.linalg.qr(a)
            track = pauli.EigenTrack(
                grid=np.array([0.0]),
                populations=np.full((1, d), 1.0 / d),
                frames=(frame,),
            )
            wq = pauli.w_quantity(can, track, 0)
            rm = pauli.teich_mahler(can, track, 0)
            worst_w = max(worst_w, float(np.max(wq)))
            worst_norm = max(
                worst_norm, float(np.linalg.norm(rm.w, np.inf)) - gamma_sum
            )
            samples += 1
    ok = worst_w <= 1.0 + 1e-10 and worst_norm <= 1e-10
    criterion(
        6,
        "w_n^(i) <= 1 + 1e-10 and ||W||_inf <= sum gamma + 1e-10 on 10^4 frames",
        ok,
        f"{samples} samples, max w {worst_w:.12f}, max norm excess {worst_norm:.3e}",
    )


# ---------------------------------------------------------------------------
# 7. Lyapunov agreement with the relaxation spectrum
# ---------------------------------------------------------------------------

def _gap_filtered_generators(d, quota, seed0):
    # resolving the whole spectrum needs every pair of distinct rates
    # separated, not just the dominant one, so filter on the minimal gap
    found = []
    seed = seed0
    while len(found) < quota:
        gen = g.random_cp(d, d * d - 1, seed=seed)
        seed += 1
        spec = spectra.relaxation_spectrum(gen)
        gamma_max = float(spec.rates[-1])
        distinct = np.unique(np.round(spec.rates, 9))
        if len(distinct) < 2:
            continue
        gap = float(np.min(np.diff(distinct)))
        if gap >= 0.05 * gamma_max:
            found.append((gen, spec, gap))
    return found


def test_criterion_07_lyapunov_agreement():
    rng = np.random.default_rng(11)
    worst_backward = 0.0
    worst_qr = 0.0
    cases = _gap_filtered_generators(2, 60, seed0=0) + _gap_filtered_generators(3, 40, seed0=10_000)
    for gen, spec, gap in cases:
        gamma_max = float(spec.rates[-1])
        horizon = 50.0 / gap
        d = gen.dim
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho0 = a @ a.conj().T
        rho0 /= np.trace(rho0).real
        est = lyapunov.max_exponent_backward(gen, rho0, horizon=horizon)
        worst_backward = max(worst_backward, abs(est.chi - gamma_max) / gamma_max)
        qr_est = lyapunov.qr_spectrum(gen, horizon=horizon)
        worst_qr = max(
            worst_qr, float(np.max(np.abs(qr_est.spectrum - spec.rates))) / gamma_max
        )
    ok = worst_backward <= 1e-2 and worst_qr <= 1e-2
    criterion(
        7,
        "backward chi and QR spectrum match the rates within 1% on 100 generators",
        ok,
        f"worst backward {worst_backward:.2e}, worst QR {worst_qr:.2e}",
    )


# ---------------------------------------------------------------------------
# 8. eternal non-Markovianity
# ---------------------------------------------------------------------------

def test_criterion_08_eternal_non_markovianity(capsys):
    gen = witness.preset("eternal_nm")
    grid = np.linspace(0.0, 10.0, 1001)[1:]  # 1000 points in (0, 10]
    report = witness.scan(gen, grid)
    all_negative = bool(np.all(report.margin < 0.0))
    at_one = float(report.margin[np.argmin(np.abs(grid - 1.0))])
    margin_ok = abs(at_one - (0.2384 - 1.0)) <= 1e-3
    flags = witness.qubit_tt_check(1.0, 1.0, "-tanh(t)", grid)
    tt_violated = not bool(flags.any())
    exit_code = cli.main(["witness", "eternal_nm", "--t0", "0", "--t1", "10", "--steps", "1000"])
    capsys.readouterr()
    ok = all_negative and margin_ok and tt_violated and exit_code == cli.EXIT_WITNESS_FIRED
    criterion(
        8,
        "eternal_nm violates the bound on all of (0, 10]; margin(1) = -0.7616; exit 4",
        ok,
        f"margin(1) = {at_one:.6f}, exit code {exit_code}",
    )


# ---------------------------------------------------------------------------
# 9. classical rates are unconstrained
# ---------------------------------------------------------------------------

def test_criterion_09_classical_contrast():
    rng = np.random.default_rng(2024)
    worst = 0.0
    bound_violations = 0
    for k in range(100):
        n = int(rng.integers(1, 9))
        rates = rng.uniform(0.0, 5.0, size=n)
        if k % 2 == 0:
            rates[rng.integers(0, n)] *= 20.0  # force max r > (1/d) sum r
        kolmo = classical.from_rates(rates)
        got = classical.classical_spectrum(kolmo)
        expected = np.sort(np.concatenate([[0.0], rates]))
        worst = max(worst, float(np.max(np.abs(got - expected))))
        if np.max(rates) > np.sum(rates) / (n + 1):
            bound_violations += 1
    ok = worst <= 1e-10 and bound_violations > 0
    criterion(
        9,
        "from_rates realizes {0, -r_1, ..., -r_k} exactly, beyond any quantum-style bound",
        ok,
        f"worst deviation {worst:.3e}, {bound_violations} lists violate max r <= sum r / d",
    )


# ---------------------------------------------------------------------------
# 10. extension compatibility
# ---------------------------------------------------------------------------

def test_criterion_10_extension():
    ok = True
    worst_sum = 0.0
    worst_multiset = 0.0
    for d, quota, seed0 in ((2, 25, 300), (3, 25, 400)):
        for k in range(quota):
            gen = g.random_cp(d, d * d - 1, seed=seed0 + k)
            base = spectra.relaxation_spectrum(gen)
            ext = g.extend(gen, 1)
            espec = spectra.relaxation_spectrum(ext)
            worst_sum = max(
                worst_sum,
                abs(np.sum(espec.rates) - (1 + 1 / d) * np.sum(base.rates)),
            )
            kappa = np.linalg.eigvals(g.damping_operator(gen))
            doubled = np.repeat(-kappa.real, 2)  # each g_i/2 appears twice
            expected = np.sort(np.concatenate([[0.0], base.rates, doubled]))
            worst_multiset = max(
                worst_multiset,
                float(np.max(np.abs(np.sort(espec.rates) - expected))),
            )
            report = spectra.check_bound(espec, d + 1)
            ok = ok and report.margin >= -1e-8 * max(1.0, report.gamma_max)
    ok = ok and worst_sum <= 1e-8 and worst_multiset <= 1e-8
    criterion(
        10,
        "extension: rate sum scales by 1 + 1/d, doubled g_i/2 modes, bound still holds",
        ok,
        f"sum dev {worst_sum:.3e}, multiset dev {worst_multiset:.3e} over 50 generators",
    )


# ---------------------------------------------------------------------------
# 11. logarithmic norms
# ---------------------------------------------------------------------------

def test_criterion_11_log_norms():
    rng = np.random.default_rng(8)
    worst_excess = -np.inf
    for k in range(1000):
        n = int(rng.integers(2, 7))
        m = rng.standard_normal((n, n))
        if k % 2:
            m = m + 1j * rng.standard_normal((n, n))
        abscissa = float(np.max(np.linalg.eigvals(m).real))
        for kind in ("one", "two", "inf"):
            worst_excess = max(worst_excess, abscissa - spectra.log_norm(m, kind))
    worst_kolmo = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 7))
        off = rng.uniform(0.0, 3.0, size=(d, d))
        np.fill_diagonal(off, 0.0)
        k = off - np.diag(off.sum(axis=0))
        classical.validate(k)
        worst_kolmo = max(worst_kolmo, abs(spectra.log_norm(k, "one")))
    ok = worst_excess <= 1e-10 and worst_kolmo <= 1e-12
    criterion(
        11,
        "spectral abscissa <= log norm (all kinds); gamma_1(K) = 0 for Kolmogorov K",
        ok,
        f"max abscissa excess {worst_excess:.3e}, max |gamma_1(K)| {worst_kolmo:.3e}",
    )


# ---------------------------------------------------------------------------
# 12. stationary-weighted commutator identity for the rates
# ---------------------------------------------------------------------------

def _unital_generator(seed, d):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((d * d - 1, d * d - 1))
    c = b @ b.T
    c /= np.trace(c)
    return g.canonicalize(np.zeros((d, d)), c)


def test_criterion_12_rate_identity():
    worst = 0.0
    found = 0
    seed = 0
    while found < 50:
        gen = g.random_cp(2 + seed % 2, 3, seed=seed)
        seed += 1
        spec = spectra.relaxation_spectrum(gen)
        if spec.vector_condition > 1e6 or spec.rates[1] <= 1e-6:
            continue
        rho_ss = spectra.stationary_state(spec)
        if np.min(np.linalg.eigvalsh(rho_ss)) < 1e-3:
            continue
        residuals = spectra.bw_rate_identity(g.canonical_form(gen), spec)
        worst = max(worst, float(np.max(residuals)) / max(1.0, spec.rates[-1]))
        found += 1

    unital_ok = True
    for k in range(10):
        can = _unital_generator(600 + k, 3)
        assert np.linalg.norm(g.apply(can, np.eye(3))) <= 1e-10
        spec = spectra.relaxation_spectrum(can)
        if spec.rates[1] <= 1e-6:
            continue
        residuals = spectra.bw_rate_identity(can, spec, rho_ss=np.eye(3) / 3)
        unital_ok = unital_ok and float(np.max(residuals)) <= 1e-7
        unital_ok = unital_ok and spec.rates[-1] <= np.sum(can.rates_at()) + 1e-10
    ok = worst <= 1e-7 and unital_ok
    criterion(
        12,
        "rate identity residuals <= 1e-7 on 50 generators; unital Gamma <= sum gamma",
        ok,
        f"worst residual {worst:.3e}",
    )
