import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkls_rates import generator as g
from gkls_rates import matcore, spectra
from gkls_rates.errors import (
    BadChannelCountError,
    DimensionMismatchError,
    NonHermitianHamiltonianError,
    NonHermitianKossakowskiError,
    NotHermiticityPreservingError,
    NotTracePreservingError,
    TimeDependentError,
)

import kron_oracle

H0 = np.zeros((2, 2))


def amplitude_damping(gamma=1.0):
    return g.build(H0, [(gamma, g.SIGMA_MINUS)])


def dephasing(gamma=1.0):
    return g.build(H0, [(gamma, g.SIGMA_Z / np.sqrt(2))])


def paper_qubit(gp=1.0, gm=1.0, gz=1.0, omega=1.0):
    return g.build(
        0.5 * omega * g.SIGMA_Z,
        [(gp, g.SIGMA_PLUS), (gm, g.SIGMA_MINUS), (gz, g.SIGMA_Z / np.sqrt(2))],
    )


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def test_build_amplitude_damping():
    gen = amplitude_damping()
    assert gen.dim == 2
    assert not gen.time_dependent
    assert np.allclose(gen.rates_at(), [1.0])


def test_build_zero_generator():
    gen = g.build(H0, [])
    assert gen.channels == ()
    assert np.allclose(g.reshape(gen).matrix, 0.0)


def test_build_paper_qubit_channels_canonical():
    gen = paper_qubit()
    assert g.is_canonical(gen)


def test_build_rejects_non_hermitian_hamiltonian():
    with pytest.raises(NonHermitianHamiltonianError):
        g.build(np.array([[0.0, 1.0], [0.0, 0.0]]), [])


def test_build_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        g.build(H0, [(1.0, np.zeros((3, 3)))])


def test_build_warns_on_non_orthonormal_channels():
    with pytest.warns(UserWarning):
        g.build(H0, [(1.0, g.SIGMA_Z)])  # norm sqrt(2), not canonical


def test_build_parses_string_rates():
    gen = g.build(H0, [("1 - 0.5*tanh(t)", g.SIGMA_MINUS)])
    assert gen.time_dependent
    assert gen.rates_at(0.0)[0] == pytest.approx(1.0)
    frozen = g.freeze(gen, 2.0)
    assert not frozen.time_dependent
    assert frozen.rates_at()[0] == pytest.approx(1 - np.tanh(2.0) / 2)


# ---------------------------------------------------------------------------
# apply / adjoint_apply
# ---------------------------------------------------------------------------

def test_apply_traceless_and_hermitian(rng, make_density):
    gen = g.random_cp(3, 5, seed=5)
    for _ in range(5):
        rho = make_density(rng, 3)
        out = g.apply(gen, rho)
        assert abs(np.trace(out)) <= 1e-12 * max(1.0, np.linalg.norm(rho))
        assert np.linalg.norm(out - out.conj().T) <= 1e-12 * max(1.0, np.linalg.norm(out))


def test_apply_dephasing_on_sigma_x():
    out = g.apply(dephasing(), np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.allclose(out, -np.array([[0, 1], [1, 0]]), atol=1e-14)


def test_apply_amplitude_damping_on_excited_state():
    excited = np.diag([0.0, 1.0]).astype(complex)
    out = g.apply(amplitude_damping(), excited)
    assert np.allclose(out, np.diag([1.0, -1.0]), atol=1e-14)


def test_adjoint_unital():
    gen = g.random_cp(3, 4, seed=9)
    out = g.adjoint_apply(gen, np.eye(3))
    assert np.linalg.norm(out) <= 1e-12


def test_adjoint_duality(rng, make_density, make_hermitian):
    gen = g.random_cp(2, 3, seed=21)
    worst = 0.0
    for _ in range(100):
        x = make_hermitian(rng, 2)
        rho = make_density(rng, 2)
        lhs = np.trace(x @ g.apply(gen, rho))
        rhs = np.trace(g.adjoint_apply(gen, x) @ rho)
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-10


def test_adjoint_amplitude_damping_on_sigma_z():
    gamma = 0.7
    gen = amplitude_damping(gamma)
    out = g.adjoint_apply(gen, g.SIGMA_Z)
    # sigma_- = |0><1| pumps sigma_z toward +1: adjoint is gamma (I - sigma_z)
    assert np.allclose(out, gamma * (np.eye(2) - g.SIGMA_Z), atol=1e-14)
    excited = np.diag([0.0, 1.0]).astype(complex)
    duality = np.trace(g.SIGMA_Z @ g.apply(gen, excited))
    assert duality == pytest.approx(2 * gamma)
    assert out[1, 1] == pytest.approx(duality)


# ---------------------------------------------------------------------------
# reshape
# ---------------------------------------------------------------------------

def test_reshape_zero_generator():
    assert np.allclose(g.reshape(g.build(H0, [])).matrix, 0.0)


def test_reshape_consistent_with_apply(rng, make_density):
    gen = g.random_cp(3, 6, seed=2)
    s = g.reshape(gen).matrix
    for _ in range(5):
        rho = make_density(rng, 3)
        via_matrix = g.unvec(s @ g.vec(rho), 3)
        direct = g.apply(gen, rho)
        assert np.linalg.norm(via_matrix - direct) <= 1e-12 * max(1.0, np.linalg.norm(direct))


def test_reshape_trace_identity_canonical():
    gen = g.random_cp(4, 10, seed=3)
    s = g.reshape(gen).matrix
    assert np.trace(s) == pytest.approx(-4 * np.sum(gen.rates_at()), abs=1e-10)
    assert abs(np.trace(s).imag) <= 1e-10


def test_reshape_dephasing_trace():
    s = g.reshape(dephasing()).matrix
    assert np.trace(s) == pytest.approx(-2.0, abs=1e-12)


def test_reshape_trace_functional_left_null(rng):
    gen = g.random_cp(3, 5, seed=13)
    s = g.reshape(gen).matrix
    row = g.vec(np.eye(3)).conj() @ s
    assert np.linalg.norm(row) <= 1e-10 * np.linalg.norm(s)


ASSEMBLY_KINDS = ("hamiltonian", "dephasing", "rank1", "negative", "time_dependent")
TD_RATES = ("1 - 0.5*tanh(t)", "-tanh(t)", "sin(t)^2", "exp(-t)", "cos(3*t)")


def assembly_case(kind, d, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (a + a.conj().T) / 2
    basis = g.gell_mann_basis(d)
    n = d * d - 1
    if kind == "hamiltonian":
        return g.build(h, [])
    if kind == "dephasing":  # diagonal channels: every population is stationary
        rates = rng.uniform(0.1, 2.0, d - 1)
        return g.build(np.zeros((d, d)), list(zip(rates, basis[-(d - 1):])))
    if kind == "rank1":
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return g.canonicalize(h, np.outer(b, b.conj()), basis).base
    if kind == "negative":  # indefinite Kossakowski matrix
        c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return g.canonicalize(h, (c + c.conj().T) / 2, basis).base
    channels = [
        (TD_RATES[k % len(TD_RATES)] if k % 3 else float(rng.uniform(-1.0, 1.0)), op)
        for k, op in enumerate(basis)
    ]
    return g.build(h, channels)


@settings(max_examples=200)
@given(
    d=st.integers(2, 5),
    kind=st.sampled_from(ASSEMBLY_KINDS),
    seed=st.integers(0, 2**32 - 1),
    t=st.floats(-3.0, 3.0),
)
def test_assembly_matches_kron_oracle(d, kind, seed, t):
    gen = assembly_case(kind, d, seed)
    parts = g.superop_parts(gen)
    times = (0.0, t, 2.5 * t)
    for s, stacked in zip(times, parts.at(np.array(times))):
        expected = kron_oracle.reshape(gen, s)
        tol = 1e-13 * max(1.0, float(np.linalg.norm(expected)))
        assert np.linalg.norm(g.reshape(gen, s).matrix - expected) <= tol
        assert np.linalg.norm(parts.at(s) - expected) <= tol
        assert np.linalg.norm(stacked - expected) <= tol


def test_assembly_splits_time_dependent_channels():
    gen = assembly_case("time_dependent", 3, seed=5)
    parts = g.superop_parts(gen)
    n_td = sum(ch.time_dependent for ch in gen.channels)
    assert parts.stack.shape == (n_td, 3**4)
    assert len(parts.rates) == n_td
    autonomous = g.superop_parts(g.freeze(gen, 0.7))
    assert autonomous.stack.shape == (0, 3**4)
    assert autonomous.at(5.0) is autonomous.static


# ---------------------------------------------------------------------------
# gks_decompose / canonicalize
# ---------------------------------------------------------------------------

def test_decompose_round_trip():
    gen = g.random_cp(3, 8, seed=42)
    s = g.reshape(gen)
    h, c, basis = g.gks_decompose(s)
    rebuilt = kron_oracle.rebuild_superop(h, c, basis)
    err = np.linalg.norm(rebuilt.matrix - s.matrix) / np.linalg.norm(s.matrix)
    assert err <= 1e-8
    assert np.linalg.norm(c - c.conj().T) <= 1e-10


def test_decompose_canonical_input_diagonal_in_own_basis():
    gen = g.random_cp(2, 3, seed=8)
    h, c, basis = g.gks_decompose(g.reshape(gen))
    recovered = np.sort(np.linalg.eigvalsh(c))
    expected = np.sort(gen.rates_at())
    assert np.allclose(recovered, expected, atol=1e-10)


def test_decompose_zero_superoperator():
    h, c, _ = g.gks_decompose(g.Superoperator(np.zeros((4, 4), dtype=complex), 2))
    assert np.allclose(h, 0.0)
    assert np.allclose(c, 0.0)


def test_decompose_eternal_nm_negative_rate():
    from gkls_rates import witness

    frozen = g.freeze(witness.preset("eternal_nm"), 1.0)
    h, c, _ = g.gks_decompose(g.reshape(frozen))
    eigs = np.sort(np.linalg.eigvalsh(c))
    assert eigs[0] == pytest.approx(-np.tanh(1.0), abs=1e-10)
    assert np.allclose(eigs[1:], [1.0, 1.0], atol=1e-10)


def test_decompose_rejects_non_trace_preserving():
    with pytest.raises(NotTracePreservingError):
        g.gks_decompose(g.Superoperator(np.eye(4, dtype=complex), 2))


def test_decompose_rejects_non_hermiticity_preserving():
    bad = np.zeros((4, 4), dtype=complex)
    bad[1, 1] = 1.0j  # scales the off-diagonal of rho by i, breaking Hermiticity
    bad[2, 2] = 1.0j
    with pytest.raises((NotHermiticityPreservingError, NotTracePreservingError)):
        g.gks_decompose(g.Superoperator(bad, 2))


def test_canonicalize_identity_kossakowski():
    can = g.canonicalize(H0, np.eye(3))
    assert len(can.base.channels) == 3
    assert np.allclose(can.base.rates_at(), [1.0, 1.0, 1.0])
    assert can.gamma_sum == pytest.approx(3.0)
    assert g.is_canonical(can.base)
    assert can.completely_positive


def test_canonicalize_prunes_tiny_rates():
    c = np.diag([1.0, 1e-15, 0.5])
    can = g.canonicalize(H0, c)
    assert len(can.base.channels) == 2


def test_canonicalize_preserves_action(rng, make_density):
    # a non-canonical representation and its canonical form act identically
    with pytest.warns(UserWarning):
        gen = g.build(H0, [(0.4, g.SIGMA_Z), (0.3, g.SIGMA_MINUS)])
    h, c, basis = g.gks_decompose(g.reshape(gen))
    can = g.canonicalize(h, c, basis)
    for _ in range(5):
        rho = (lambda a: a / np.trace(a))(
            (lambda m: m @ m.conj().T)(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        )
        assert np.allclose(g.apply(gen, rho), g.apply(can.base, rho), atol=1e-10)


def test_canonicalize_rejects_non_hermitian():
    with pytest.raises(NonHermitianKossakowskiError):
        g.canonicalize(H0, np.array([[1.0, 1.0], [0.0, 1.0]]), g.gell_mann_basis(2)[:2])


def test_canonicalize_already_canonical_round_trip():
    gen = g.random_cp(2, 3, seed=77)
    h, c, basis = g.gks_decompose(g.reshape(gen))
    can = g.canonicalize(h, c, basis)
    assert np.allclose(np.sort(can.base.rates_at()), np.sort(gen.rates_at()), atol=1e-10)
    s1 = g.reshape(gen).matrix
    s2 = g.reshape(can.base).matrix
    assert np.linalg.norm(s1 - s2) <= 1e-8 * np.linalg.norm(s1)


def test_gell_mann_basis_orthonormal_traceless():
    for d in (2, 3, 4):
        basis = g.gell_mann_basis(d)
        assert len(basis) == d * d - 1
        for i, fi in enumerate(basis):
            assert abs(np.trace(fi)) <= 1e-14
            assert np.allclose(fi, fi.conj().T)
            for j, fj in enumerate(basis):
                expected = 1.0 if i == j else 0.0
                assert matcore.hs_inner(fi, fj) == pytest.approx(expected, abs=1e-13)


# ---------------------------------------------------------------------------
# extend
# ---------------------------------------------------------------------------

def apply_extended_blockwise(gen, x_tilde, d_ext):
    """Independent oracle: the block action with K = -iH - 1/2 sum g L+L."""
    d = gen.dim
    k_op = g.damping_operator(gen)
    x = x_tilde[:d, :d]
    a = x_tilde[:d, d:]
    out = np.zeros_like(x_tilde)
    out[:d, :d] = g.apply(gen, x)
    out[:d, d:] = k_op @ a
    out[d:, :d] = (k_op @ x_tilde[d:, :d].conj().T).conj().T
    return out


def extended_superop_oracle(gen, d_ext):
    dd = gen.dim + d_ext
    cols = []
    for j in range(dd):
        for k in range(dd):
            basis_elem = np.zeros((dd, dd), dtype=complex)
            basis_elem[j, k] = 1.0
            cols.append(g.vec(apply_extended_blockwise(gen, basis_elem, d_ext)))
    return np.array(cols).T  # columns are images of the basis matrices


def test_extend_matches_block_oracle():
    gen = g.random_cp(2, 3, seed=31)
    ext = g.extend(gen, 1)
    direct = g.reshape(ext).matrix
    oracle = extended_superop_oracle(gen, 1)
    assert np.linalg.norm(direct - oracle) <= 1e-12 * max(1.0, np.linalg.norm(direct))


def test_extend_amplitude_damping_rates():
    gen = amplitude_damping()
    ext = g.extend(gen, 1)
    rates = np.sort(spectra.relaxation_spectrum(ext).rates)
    expected = np.sort([0, 0, 0.5, 0.5, 1, 0, 0, 0.5, 0.5])
    assert np.allclose(rates, expected, atol=1e-10)


def test_extend_rate_sum_identity():
    gen = amplitude_damping()
    base_sum = np.sum(spectra.relaxation_spectrum(gen).rates)
    ext_sum = np.sum(spectra.relaxation_spectrum(g.extend(gen, 1)).rates)
    assert ext_sum == pytest.approx((1 + 1 / 2) * base_sum, abs=1e-10)
    assert ext_sum == pytest.approx(3.0, abs=1e-10)


def test_extend_keeps_original_spectrum():
    gen = g.random_cp(3, 4, seed=55)
    base = np.linalg.eigvals(g.reshape(gen).matrix)
    ext = np.linalg.eigvals(g.reshape(g.extend(gen, 2)).matrix)
    for lam in base:
        assert np.min(np.abs(ext - lam)) <= 1e-8


def test_extend_rejects_time_dependent():
    gen = g.build(H0, [("tanh(t)", g.SIGMA_MINUS)])
    with pytest.raises(TimeDependentError):
        g.extend(gen, 1)


# ---------------------------------------------------------------------------
# random_cp
# ---------------------------------------------------------------------------

def test_random_cp_deterministic():
    a = g.random_cp(3, 5, seed=123)
    b = g.random_cp(3, 5, seed=123)
    assert np.allclose(a.hamiltonian, b.hamiltonian)
    assert len(a.channels) == len(b.channels)
    for ca, cb in zip(a.channels, b.channels):
        assert ca.rate == cb.rate
        assert np.allclose(ca.op, cb.op)


def test_random_cp_is_canonical_and_cp():
    for seed in range(5):
        gen = g.random_cp(2, 3, seed=seed)
        assert g.is_canonical(gen)
        assert np.all(gen.rates_at() >= -1e-12)
        assert np.sum(gen.rates_at()) == pytest.approx(1.0, abs=1e-10)


def test_random_cp_channel_count():
    gen = g.random_cp(3, 4, seed=0)
    assert len(gen.channels) == 4
    with pytest.raises(BadChannelCountError):
        g.random_cp(2, 4, seed=0)
    with pytest.raises(BadChannelCountError):
        g.random_cp(2, 0, seed=0)


def test_random_cp_d3_seed42_bound_holds():
    gen = g.random_cp(3, 8, seed=42)
    spec = spectra.relaxation_spectrum(gen)
    assert spectra.check_bound(spec, 3).satisfied


def test_canonical_trace_identity_rates_vs_gammas():
    # (1/d) sum Gamma = sum gamma for canonical generators
    for seed in range(5):
        gen = g.random_cp(3, 8, seed=seed)
        spec = spectra.relaxation_spectrum(gen)
        assert np.sum(spec.rates) / 3 == pytest.approx(np.sum(gen.rates_at()), abs=1e-8)
