import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from gkls_rates import generator as g
from gkls_rates import lyapunov, matcore, spectra, witness
from gkls_rates.errors import (
    NonGenericInitialStateError,
    TimeDependentError,
    UnconvergedError,
)

H0 = np.zeros((2, 2))
COHERENT = np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex)


# ---------------------------------------------------------------------------
# backward estimator
# ---------------------------------------------------------------------------

def test_backward_amplitude_damping():
    est = lyapunov.max_exponent_backward(
        witness.preset("amplitude_damping"), COHERENT, horizon=50.0
    )
    assert est.chi == pytest.approx(1.0, rel=1e-2)
    assert est.converged
    assert est.burn_in == pytest.approx(10.0, rel=0.1)


def test_backward_dephasing():
    est = lyapunov.max_exponent_backward(witness.preset("dephasing"), COHERENT, horizon=50.0)
    assert est.chi == pytest.approx(1.0, rel=1e-2)


def test_backward_zero_generator():
    est = lyapunov.max_exponent_backward(
        g.build(H0, []), np.diag([0.7, 0.3]).astype(complex), horizon=10.0
    )
    assert est.chi == pytest.approx(0.0, abs=1e-12)
    assert est.converged


def test_backward_stationary_state_rejected():
    gen = witness.preset("amplitude_damping")
    rho_ss = spectra.stationary_state(spectra.relaxation_spectrum(gen))
    with pytest.raises(NonGenericInitialStateError):
        lyapunov.max_exponent_backward(gen, rho_ss, horizon=10.0)


def test_backward_rejects_time_dependent():
    with pytest.raises(TimeDependentError):
        lyapunov.max_exponent_backward(witness.preset("eternal_nm"), COHERENT, horizon=5.0)


def test_backward_unconverged_short_horizon():
    gen = witness.preset("amplitude_damping")
    big_coherence = np.array([[0.5, 0.49], [0.49, 0.5]], dtype=complex)
    with pytest.raises(UnconvergedError) as info:
        lyapunov.max_exponent_backward(gen, big_coherence, horizon=1.5, renorm_interval=0.05)
    est = info.value.estimate
    assert est is not None
    assert est.convergence_gap > 1e-2
    assert "gap" in str(info.value)


def test_backward_matches_gamma_max_random():
    matched = 0
    seed = 0
    while matched < 10:
        gen = g.random_cp(2, 3, seed=seed)
        seed += 1
        spec = spectra.relaxation_spectrum(gen)
        gamma_max = spec.rates[-1]
        distinct = np.unique(np.round(spec.rates, 9))
        gap = gamma_max - distinct[-2]
        if gap < 0.05 * gamma_max:
            continue
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho0 = a @ a.conj().T
        rho0 /= np.trace(rho0).real
        est = lyapunov.max_exponent_backward(gen, rho0, horizon=50.0 / gap)
        assert abs(est.chi - gamma_max) <= max(1e-2 * gamma_max, est.convergence_gap)
        matched += 1


def test_backward_q_vector_zero_sum():
    # deep in backward time the normalized populations lose their trace part
    gen = witness.preset("amplitude_damping")
    s = g.reshape(gen)
    v = g.vec(COHERENT)
    far = scipy.linalg.expm(40.0 * (-s)) @ v
    pops = np.linalg.eigvalsh(g.unvec(far, 2))
    assert abs(np.sum(pops)) / np.linalg.norm(pops) <= 1e-6


# ---------------------------------------------------------------------------
# QR spectrum
# ---------------------------------------------------------------------------

def test_qr_dephasing_spectrum():
    est = lyapunov.qr_spectrum(witness.preset("dephasing"), horizon=60.0)
    assert np.allclose(est.spectrum, [0, 0, 1, 1], atol=1e-2)
    assert est.chi == pytest.approx(1.0, rel=1e-2)


def test_qr_zero_generator():
    est = lyapunov.qr_spectrum(g.build(H0, []), horizon=10.0)
    assert np.allclose(est.spectrum, 0.0, atol=1e-12)


def test_qr_paper_qubit():
    est = lyapunov.qr_spectrum(witness.preset("paper_qubit"), horizon=200.0)
    assert np.allclose(est.spectrum, [0, 2, 2, 2], atol=0.02)


def test_qr_contains_zero_exponent():
    # the transient bias decays like 1/horizon, so match the acceptance-scale
    # horizon 50/gap with gap >= 0.05 * Gamma_max
    for seed in range(3):
        gen = g.random_cp(2, 3, seed=seed)
        spec = spectra.relaxation_spectrum(gen)
        gamma_max = float(spec.rates[-1])
        est = lyapunov.qr_spectrum(gen, horizon=1000.0 / max(gamma_max, 0.1))
        assert np.min(np.abs(est.spectrum)) <= 1e-2 * max(1.0, gamma_max)


def test_qr_trace_identity_autonomous():
    gen = g.random_cp(3, 6, seed=12)
    est = lyapunov.qr_spectrum(gen, horizon=100.0)
    total = float(np.sum(est.spectrum))
    expected = 3 * float(np.sum(gen.rates_at()))
    assert abs(total - expected) <= 1e-6 * max(1.0, expected)


def test_qr_determinant_identity_time_dependent():
    gen = witness.preset("eternal_nm")
    horizon = 12.0
    est = lyapunov.qr_spectrum(gen, horizon=horizon)
    window = horizon - est.burn_in
    total = float(np.sum(est.spectrum)) * window
    # -int Tr L(t) dt = d * int sum gamma(t) dt over the measured window
    ts = np.linspace(est.burn_in, horizon, 20001)
    gam = 2.0 - np.tanh(ts)
    expected = 2.0 * np.trapezoid(gam, ts)
    assert abs(total - expected) <= 1e-6 * expected


@pytest.mark.parametrize("interval", [0.0, -1.0, np.nan])
@pytest.mark.parametrize("estimator", ["backward", "qr"])
def test_estimators_reject_bad_interval(estimator, interval):
    gen = witness.preset("amplitude_damping")
    with pytest.raises(ValueError, match="interval must be finite and positive"):
        if estimator == "backward":
            lyapunov.max_exponent_backward(gen, COHERENT, horizon=5.0, renorm_interval=interval)
        else:
            lyapunov.qr_spectrum(gen, horizon=5.0, reortho_interval=interval)


@pytest.mark.parametrize(
    "estimator,name",
    [("backward", "amplitude_damping"), ("qr", "amplitude_damping"), ("qr", "eternal_nm")],
)
def test_estimators_reject_steps_below_rounding(estimator, name):
    # eps / delta above SPECTRAL_TOL * max(1, ||L||_F): the log growth of each
    # step would round away, and QR would read chi = 1.776 for Gamma_max = 1 here
    gen = witness.preset(name)

    def run(horizon):
        if estimator == "backward":
            return lyapunov.max_exponent_backward(gen, COHERENT, horizon=horizon)
        return lyapunov.qr_spectrum(gen, horizon=horizon)

    with pytest.raises(ValueError, match="step 1.25e-16 is too short"):
        run(1e-15)
    run(1e-6)


@given(
    kind=st.sampled_from(["hamiltonian", "tiny_rates"]),
    d=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    horizon=st.sampled_from([1e-3, 1e-2, 0.1, 1.0, 10.0]),
    estimator=st.sampled_from(["backward", "qr"]),
)
def test_isometric_flows_converge_to_zero_exponents(kind, d, seed, horizon, estimator):
    # Hamiltonian-only flows, or CP rates scaled by 1e-10, are isometric to
    # rounding: their exponents vanish and no window gap may read the rounding
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    if kind == "hamiltonian":
        gen = g.build((a + a.conj().T) / 2.0, [])
    else:
        cp = g.random_cp(d, int(rng.integers(1, d * d)), seed)
        gen = g.build(cp.hamiltonian, [(1e-10 * r, op) for r, op in zip(cp.rates, cp.ops)])
    if estimator == "backward":
        rho0 = a @ a.conj().T
        est = lyapunov.max_exponent_backward(gen, rho0 / np.trace(rho0).real, horizon)
        exponents = np.array([est.chi])
    else:
        exponents = lyapunov.qr_spectrum(gen, horizon).spectrum
    scale = max(1.0, float(np.linalg.norm(g.reshape(gen))))
    assert np.max(np.abs(exponents)) <= matcore.SPECTRAL_TOL * scale


# ---------------------------------------------------------------------------
# divisibility bounds
# ---------------------------------------------------------------------------

def test_divisibility_cp_generator():
    gen = g.random_cp(2, 3, seed=40)
    report = lyapunov.divisibility_bounds(gen, horizon=60.0)
    assert report.correction_sup == pytest.approx(0.0, abs=1e-12)
    assert report.correction_mean == pytest.approx(0.0, abs=1e-12)
    assert report.cp_bound_holds
    assert report.cb_bound_holds


def test_divisibility_zero_generator():
    report = lyapunov.divisibility_bounds(g.build(H0, []), horizon=10.0)
    assert report.chi_max == pytest.approx(0.0, abs=1e-12)
    assert report.rhs_cp == pytest.approx(0.0, abs=1e-12)
    assert report.correction_sup == 0.0


def test_divisibility_eternal_nm_violates_cp_bound():
    report = lyapunov.divisibility_bounds(witness.preset("eternal_nm"), horizon=25.0)
    assert report.chi_max == pytest.approx(2.0, abs=0.05)
    assert report.rhs_cp < report.chi_max  # the CP-only bound fails
    assert not report.cp_bound_holds
    assert report.correction_sup == pytest.approx(np.tanh(25.0), abs=1e-6)
    assert report.correction_mean > 0.5
    assert report.cb_bound_holds  # the corrected bound absorbs the violation


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def test_export_windows_csv(tmp_path):
    est = lyapunov.max_exponent_backward(
        witness.preset("amplitude_damping"), COHERENT, horizon=30.0
    )
    out = tmp_path / "windows.csv"
    lyapunov.export_windows_csv(est, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "window_start,window_chi,cumulative_chi"
    assert len(lines) >= 2
    start, wchi, cchi = lines[1].split(",")
    assert float(wchi) == pytest.approx(1.0, rel=0.05)
    assert float(cchi) == pytest.approx(1.0, rel=0.05)
