import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gkls_rates import generator as g
from gkls_rates import spectra, witness
from gkls_rates.errors import (
    DegenerateZeroModeError,
    NearDefectiveError,
    NonFaithfulStationaryStateError,
    NonSquareError,
    SizeMismatchError,
    TimeDependentError,
)

H0 = np.zeros((2, 2))


# ---------------------------------------------------------------------------
# relaxation_spectrum
# ---------------------------------------------------------------------------

def test_spectrum_dephasing():
    spec = spectra.relaxation_spectrum(witness.preset("dephasing"))
    assert np.allclose(spec.rates, [0, 0, 1, 1], atol=1e-12)
    assert spec.diagonalizable


def test_spectrum_paper_qubit_all_unit_rates():
    spec = spectra.relaxation_spectrum(witness.preset("paper_qubit"))
    assert np.allclose(spec.rates, [0, 2, 2, 2], atol=1e-10)


def test_spectrum_zero_generator():
    spec = spectra.relaxation_spectrum(g.build(H0, []))
    assert np.allclose(spec.rates, 0.0)


def test_spectrum_rejects_time_dependent():
    with pytest.raises(TimeDependentError):
        spectra.relaxation_spectrum(witness.preset("eternal_nm"))


def test_spectrum_zero_mode_and_conjugate_symmetry():
    for seed in range(6):
        gen = g.random_cp(3, 6, seed=seed)
        spec = spectra.relaxation_spectrum(gen)
        gamma_max = spec.rates[-1]
        assert spec.rates[0] <= 1e-8 * max(1.0, gamma_max)
        assert np.all(spec.rates >= -1e-8 * max(1.0, gamma_max))
        for lam in spec.eigenvalues:
            if abs(lam.imag) > 1e-10:
                assert np.min(np.abs(spec.eigenvalues - lam.conjugate())) <= 1e-8


def test_spectrum_eigen_operators_solve_the_problem():
    gen = g.random_cp(2, 3, seed=4)
    spec = spectra.relaxation_spectrum(gen)
    for lam, x in zip(spec.eigenvalues, spec.right_ops):
        assert np.linalg.norm(g.apply(gen, x) - lam * x) <= 1e-9
    for lam, y in zip(spec.eigenvalues, spec.left_ops):
        # left ops are eigenoperators of the adjoint with conjugate eigenvalue
        assert np.linalg.norm(g.adjoint_apply(gen, y) - lam.conjugate() * y) <= 1e-9


def test_spectrum_sorted_deterministically():
    gen = g.random_cp(3, 8, seed=17)
    a = spectra.relaxation_spectrum(gen)
    b = spectra.relaxation_spectrum(gen)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.all(np.diff(a.rates) >= -1e-12)


# ---------------------------------------------------------------------------
# check_bound
# ---------------------------------------------------------------------------

def test_bound_amplitude_damping_saturates():
    spec = spectra.relaxation_spectrum(witness.preset("amplitude_damping"))
    assert np.allclose(spec.rates, [0, 0.5, 0.5, 1.0], atol=1e-12)
    report = spectra.check_bound(spec, 2)
    assert report.satisfied
    assert report.saturated
    assert report.margin == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("name", ["amplitude_damping", "dephasing"])
def test_bound_saturates_embedded_in_d_levels(name, d):
    # the jump |0><1| and two-level dephasing stay on the bound in any dimension
    gen = witness.preset(name)
    if d > 2:
        gen = g.extend(gen, d - 2)
    report = spectra.check_bound(spectra.relaxation_spectrum(gen), d)
    assert report.saturated
    assert abs(report.margin) <= 1e-12 * max(1.0, report.gamma_max)


def test_bound_paper_qubit_margin_one():
    spec = spectra.relaxation_spectrum(witness.preset("paper_qubit"))
    report = spectra.check_bound(spec, 2)
    assert report.margin == pytest.approx(1.0, abs=1e-10)
    assert report.satisfied and not report.saturated


def _fake_spectrum(rates):
    rates = np.asarray(rates, dtype=float)
    return spectra.RelaxationSpectrum(
        eigenvalues=-rates.astype(complex),
        rates=rates,
        right_ops=(),
        left_ops=(),
        diagonalizable=True,
        vector_condition=1.0,
    )


def test_bound_violated_on_hypothetical_rates():
    report = spectra.check_bound(_fake_spectrum([0, 1, 1, 3]), 2)
    assert report.margin == pytest.approx(5 / 2 - 3)
    assert not report.satisfied


def test_bound_size_mismatch():
    with pytest.raises(SizeMismatchError):
        spectra.check_bound(_fake_spectrum([0, 1, 1, 3]), 3)


# ---------------------------------------------------------------------------
# qubit_rates
# ---------------------------------------------------------------------------

def test_qubit_rates_unit_inputs():
    assert spectra.qubit_rates(1, 1, 1) == (2, 2)
    assert spectra.qubit_rates(0, 0, 0) == (0, 0)


def test_qubit_rates_eternal_value():
    # canonical dephasing rate -tanh(1) reproduces Gamma_T = 1 - tanh(1)
    gamma_l, gamma_t = spectra.qubit_rates(1, 1, -np.tanh(1.0))
    assert gamma_l == pytest.approx(2.0)
    assert gamma_t == pytest.approx(1 - np.tanh(1.0), abs=1e-12)
    assert gamma_t == pytest.approx(0.2384, abs=1e-4)


def test_qubit_rates_match_spectrum(rng):
    for _ in range(20):
        gp, gm, gz = rng.uniform(0, 2, size=3)
        omega = rng.uniform(-1, 1)
        gen = witness.qubit_generator(gp, gm, gz, omega)
        spec = spectra.relaxation_spectrum(gen)
        gamma_l, gamma_t = spectra.qubit_rates(gp, gm, gz)
        expected = np.sort([0.0, gamma_t, gamma_t, gamma_l])
        assert np.allclose(np.sort(spec.rates), expected, atol=1e-10)


# ---------------------------------------------------------------------------
# stationary_state
# ---------------------------------------------------------------------------

def test_stationary_amplitude_damping():
    spec = spectra.relaxation_spectrum(witness.preset("amplitude_damping"))
    rho = spectra.stationary_state(spec)
    assert np.allclose(rho, np.diag([1.0, 0.0]), atol=1e-10)


def test_stationary_degenerate_for_dephasing():
    spec = spectra.relaxation_spectrum(witness.preset("dephasing"))
    with pytest.raises(DegenerateZeroModeError) as info:
        spectra.stationary_state(spec)
    assert info.value.count == 2


def test_stationary_unital_with_unique_kernel():
    # gamma_+ = gamma_- makes the generator unital; the kernel is unique
    gen = witness.qubit_generator(1.0, 1.0, 1.0, omega=0.5)
    rho = spectra.stationary_state(spectra.relaxation_spectrum(gen))
    assert np.allclose(rho, np.eye(2) / 2, atol=1e-10)


def test_stationary_degenerate_for_hamiltonian_only():
    gen = g.build(0.5 * g.SIGMA_Z, [])
    with pytest.raises(DegenerateZeroModeError):
        spectra.stationary_state(spectra.relaxation_spectrum(gen))


def test_stationary_bloch_fixed_point(rng):
    # z* = (gamma_- - gamma_+)/Gamma_L in the index-lowering convention
    for _ in range(5):
        gp, gm = rng.uniform(0.2, 2, size=2)
        gen = witness.qubit_generator(gp, gm, 0.3, omega=0.7)
        rho = spectra.stationary_state(spectra.relaxation_spectrum(gen))
        z = np.trace(g.SIGMA_Z @ rho).real
        assert z == pytest.approx((gm - gp) / (gp + gm), abs=1e-9)


def test_stationary_properties_random():
    for seed in range(5):
        gen = g.random_cp(3, 8, seed=seed)
        spec = spectra.relaxation_spectrum(gen)
        rho = spectra.stationary_state(spec)
        assert abs(np.trace(rho) - 1) <= 1e-10
        assert np.min(np.linalg.eigvalsh(rho)) >= -1e-8
        assert np.linalg.norm(g.apply(gen, rho)) <= 1e-8


# ---------------------------------------------------------------------------
# bw_rate_identity
# ---------------------------------------------------------------------------

def test_bw_identity_dephasing_with_supplied_state():
    gen = witness.preset("dephasing")
    can = g.canonical_form(gen)
    spec = spectra.relaxation_spectrum(gen)
    residuals = spectra.bw_rate_identity(can, spec, rho_ss=np.eye(2) / 2)
    assert np.max(residuals) <= 1e-8


def test_bw_identity_unital_random():
    # Hermitian noise operators give a unital generator with rho_ss = I/d
    rng = np.random.default_rng(3)
    b = rng.standard_normal((8, 8))
    c = b @ b.T
    c /= np.trace(c)
    can = g.canonicalize(np.zeros((3, 3)), c)
    spec = spectra.relaxation_spectrum(can.base)
    residuals = spectra.bw_rate_identity(can, spec, rho_ss=np.eye(3) / 3)
    assert np.max(residuals) <= 1e-8
    # unital case inherits Gamma_l <= sum gamma from the commutator estimate
    assert np.max(spec.rates) <= np.sum(can.base.rates_at()) + 1e-10


def test_bw_identity_random_cp():
    found = 0
    seed = 0
    while found < 5:
        gen = g.random_cp(2, 3, seed=seed)
        seed += 1
        spec = spectra.relaxation_spectrum(gen)
        if spec.rates[1] <= 1e-6 or spec.vector_condition > 1e6:
            continue
        can = g.canonical_form(gen)
        residuals = spectra.bw_rate_identity(can, spec)
        assert np.max(residuals) <= 1e-7 * max(1.0, spec.rates[-1])
        found += 1


def test_bw_identity_rejects_defective():
    spec = spectra.RelaxationSpectrum(
        eigenvalues=np.zeros(4, dtype=complex),
        rates=np.zeros(4),
        right_ops=(),
        left_ops=(),
        diagonalizable=False,
        vector_condition=1e12,
    )
    with pytest.raises(NearDefectiveError):
        spectra.bw_rate_identity(g.canonical_form(witness.preset("dephasing")), spec)


def test_bw_identity_rejects_non_faithful():
    gen = witness.preset("amplitude_damping")
    spec = spectra.relaxation_spectrum(gen)
    with pytest.raises(NonFaithfulStationaryStateError):
        spectra.bw_rate_identity(g.canonical_form(gen), spec)


# ---------------------------------------------------------------------------
# log_norm
# ---------------------------------------------------------------------------

def test_log_norm_examples():
    a = np.array([[-1.0, 2.0], [0.0, -3.0]])
    assert spectra.log_norm(a, "inf") == pytest.approx(1.0)
    herm = np.array([[2.0, 1.0], [1.0, -1.0]])
    assert spectra.log_norm(herm, "two") == pytest.approx(np.linalg.eigvalsh(herm)[-1])


def test_log_norm_kolmogorov_column_kind_zero():
    from gkls_rates import classical

    k = classical.from_rates([1.0, 2.0, 3.0]).k
    assert abs(spectra.log_norm(k, "one")) <= 1e-12


def test_log_norm_nonsquare():
    with pytest.raises((NonSquareError, Exception)):
        spectra.log_norm(np.zeros((2, 3)), "one")


@given(st.integers(min_value=0, max_value=10_000))
def test_log_norm_bounds_spectral_abscissa(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    m = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if seed % 2 else 0)
    abscissa = np.max(np.linalg.eigvals(m).real)
    for kind in ("one", "two", "inf"):
        assert abscissa <= spectra.log_norm(m, kind) + 1e-10


@given(st.integers(min_value=0, max_value=10_000))
def test_log_norm_subadditive_and_homogeneous(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    c = float(rng.uniform(0, 3))
    for kind in ("one", "two", "inf"):
        assert spectra.log_norm(a + b, kind) <= (
            spectra.log_norm(a, kind) + spectra.log_norm(b, kind) + 1e-10
        )
        assert spectra.log_norm(c * a, kind) == pytest.approx(
            c * spectra.log_norm(a, kind), abs=1e-10
        )


def test_log_norm_flow_sandwich(rng):
    # -gamma(-A) t <= ln ||x(t)||/||x(0)|| <= gamma(A) t for the linear flow
    import scipy.linalg

    vec_norms = {"one": 1, "two": 2, "inf": np.inf}
    for _ in range(5):
        a = rng.standard_normal((4, 4))
        x0 = rng.standard_normal(4)
        for t in (0.1, 0.5, 1.0):
            x = scipy.linalg.expm(t * a) @ x0
            for kind, p in vec_norms.items():
                ratio = np.log(np.linalg.norm(x, p) / np.linalg.norm(x0, p))
                assert ratio <= spectra.log_norm(a, kind) * t + 1e-9
                assert ratio >= -spectra.log_norm(-a, kind) * t - 1e-9


def test_gershgorin_consistency_for_rate_matrices():
    from gkls_rates import classical

    gen = g.random_cp(3, 5, seed=6)
    can = g.canonical_form(gen)
    k = classical.lindblad_to_kolmogorov(can, np.eye(3, dtype=complex)).k
    abscissa = np.max(np.linalg.eigvals(k).real)
    assert abscissa <= spectra.log_norm(k, "inf") + 1e-10
