import numpy as np
import pytest
import scipy.integrate
from hypothesis import given
from hypothesis import strategies as st

from gkls_rates import generator as g
from gkls_rates import pauli, spectra, witness
from gkls_rates.errors import (
    BoundaryIndexError,
    NonCanonicalGeneratorError,
    StepSizeUnderflowError,
    TrackingLostError,
)

import pauli_oracle

H0 = np.zeros((2, 2))
PLUS = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)


def canonical(gen):
    return g.canonical_form(gen)


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def test_evolve_zero_generator():
    gen = g.build(H0, [])
    rho0 = np.diag([0.25, 0.75]).astype(complex)
    traj = pauli.evolve(gen, rho0, np.linspace(-1, 1, 9))
    for state in traj.states:
        assert np.allclose(state, rho0)


def test_evolve_amplitude_damping_decay():
    gen = witness.preset("amplitude_damping")
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    grid = np.linspace(0, 3, 31)
    traj = pauli.evolve(gen, rho0, grid)
    for t, state in zip(grid, traj.states):
        assert state[1, 1].real == pytest.approx(np.exp(-t), abs=1e-12)


def test_evolve_trajectory_invariants_including_negative_times():
    gen = g.random_cp(2, 3, seed=19)
    rho0 = np.array([[0.6, 0.1 - 0.2j], [0.1 + 0.2j, 0.4]])
    traj = pauli.evolve(gen, rho0, np.linspace(-2, 2, 17))
    for t, state in zip(traj.grid, traj.states):
        assert abs(np.trace(state) - 1) <= 1e-10
        assert np.linalg.norm(state - state.conj().T) <= 1e-10
        if t >= 0:
            assert np.min(np.linalg.eigvalsh(state)) >= -1e-8


def test_evolve_bloch_cross_check():
    # independent oracle: integrate the 3-component Bloch system directly
    gp, gm, gz, omega = 0.8, 1.3, 0.4, 1.1
    gen = witness.qubit_generator(gp, gm, gz, omega)
    gamma_l, gamma_t = spectra.qubit_rates(gp, gm, gz)
    delta = gm - gp  # sigma_minus = |0><1| pushes z toward +1

    def bloch_rhs(_, r):
        x, y, z = r
        return [-gamma_t * x - omega * y, omega * x - gamma_t * y, -gamma_l * z + delta]

    rho0 = np.array([[0.3, 0.2 + 0.1j], [0.2 - 0.1j, 0.7]])
    r0 = [
        np.trace(g.SIGMA_X @ rho0).real,
        np.trace(g.SIGMA_Y @ rho0).real,
        np.trace(g.SIGMA_Z @ rho0).real,
    ]
    sol = scipy.integrate.solve_ivp(
        bloch_rhs, (0, 2.0), r0, rtol=1e-12, atol=1e-14, dense_output=True
    )
    traj = pauli.evolve(gen, rho0, np.linspace(0, 2.0, 9))
    for t, state in zip(traj.grid, traj.states):
        rx = np.trace(g.SIGMA_X @ state).real
        ry = np.trace(g.SIGMA_Y @ state).real
        rz = np.trace(g.SIGMA_Z @ state).real
        assert np.allclose([rx, ry, rz], sol.sol(t), atol=1e-8)
    # long-time fixed point (0, 0, delta/Gamma_L)
    far = pauli.evolve(gen, rho0, np.array([0.0, 30.0])).states[-1]
    assert np.trace(g.SIGMA_Z @ far).real == pytest.approx(delta / gamma_l, abs=1e-9)


def test_evolve_time_dependent_constant_rate_matches_exponential():
    gen_expr = g.build(H0, [("1", g.SIGMA_MINUS)])
    gen_const = witness.preset("amplitude_damping")
    rho0 = PLUS
    grid = np.linspace(0, 2, 6)
    a = pauli.evolve(gen_expr, rho0, grid)
    b = pauli.evolve(gen_const, rho0, grid)
    for sa, sb in zip(a.states, b.states):
        assert np.linalg.norm(sa - sb) <= 2e-8


def test_evolve_eternal_nm_stays_positive():
    gen = witness.preset("eternal_nm")
    rng = np.random.default_rng(0)
    grid = np.linspace(0, 3, 13)
    for _ in range(6):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v /= np.linalg.norm(v)
        rho0 = np.outer(v, v.conj())
        traj = pauli.evolve(gen, rho0, grid)
        for state in traj.states:
            assert np.min(np.linalg.eigvalsh(state)) >= -1e-6


def test_evolve_step_underflow_on_huge_rates():
    gen = g.build(H0, [("1000000000.0", g.SIGMA_MINUS)])
    with pytest.raises(StepSizeUnderflowError):
        pauli.evolve(gen, PLUS, np.array([0.0, 1.0]))


def test_evolve_validates_state():
    gen = witness.preset("amplitude_damping")
    with pytest.raises(ValueError):
        pauli.evolve(gen, np.array([[1.0, 1.0], [0.0, 0.0]]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        pauli.evolve(gen, 2 * PLUS, np.array([0.0, 1.0]))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_evolve_rejects_non_finite_grid(bad):
    with pytest.raises(ValueError, match="finite"):
        pauli.evolve(witness.preset("paper_qubit"), PLUS, [0.0, bad])


# ---------------------------------------------------------------------------
# spectral_track
# ---------------------------------------------------------------------------

def test_track_diagonal_trajectory():
    gen = witness.preset("amplitude_damping")
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    traj = pauli.evolve(gen, rho0, np.linspace(0, 1, 11))
    track = pauli.spectral_track(traj)
    for k, frame in enumerate(track.frames):
        assert np.allclose(np.abs(frame), np.eye(2), atol=1e-12)
        assert np.allclose(
            np.sort(track.populations[k]),
            np.sort([traj.states[k][0, 0].real, traj.states[k][1, 1].real]),
        )


def test_track_amplitude_damping_coherent_closed_form():
    gen = witness.preset("amplitude_damping")
    traj = pauli.evolve(gen, PLUS, np.linspace(0, 2, 41))
    track = pauli.spectral_track(traj)
    for t, pops in zip(track.grid, track.populations):
        p_excited = 0.5 * np.exp(-t)
        coh = 0.5 * np.exp(-t / 2)
        mid = 0.5
        rad = np.sqrt((mid - p_excited) ** 2 + coh**2)
        expected = np.sort([mid + rad, mid - rad])
        assert np.allclose(np.sort(pops), expected, atol=1e-10)
        assert np.sum(pops) == pytest.approx(1.0, abs=1e-10)


def test_track_maximally_mixed_under_unital():
    gen = witness.preset("dephasing")
    traj = pauli.evolve(gen, np.eye(2, dtype=complex) / 2, np.linspace(0, 2, 9))
    track = pauli.spectral_track(traj)
    assert np.allclose(track.populations, 0.5, atol=1e-12)


def test_track_frames_unitary_and_continuous():
    gen = g.random_cp(3, 5, seed=23)
    rho0 = np.diag([0.5, 0.3, 0.2]).astype(complex)
    traj = pauli.evolve(gen, rho0, np.linspace(0, 2, 101))
    track = pauli.spectral_track(traj)
    for k, frame in enumerate(track.frames):
        assert np.linalg.norm(frame.conj().T @ frame - np.eye(3)) <= 1e-10
        if k:
            overlaps = np.abs(np.sum(track.frames[k - 1].conj() * frame, axis=0))
            assert np.min(overlaps) >= 0.9


def test_track_lost_on_frame_jump():
    # a sudden Fourier-matrix rotation spreads every old vector over all new
    # ones (|overlap| = 1/sqrt(5) < 0.5), which no assignment can rescue
    d = 5
    probs = np.array([0.35, 0.25, 0.2, 0.12, 0.08])
    fourier = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d) / np.sqrt(d)
    rho0 = np.diag(probs).astype(complex)
    rho1 = fourier @ rho0 @ fourier.conj().T
    traj = pauli.Trajectory(grid=np.array([0.0, 0.1]), states=(rho0, rho1))
    with pytest.raises(TrackingLostError) as info:
        pauli.spectral_track(traj)
    assert info.value.time == pytest.approx(0.1)


def test_track_handles_population_crossing():
    # tracked labels follow eigenvectors through an eigenvalue crossing
    gen = witness.preset("amplitude_damping")
    rho0 = np.diag([0.3, 0.7]).astype(complex)
    traj = pauli.evolve(gen, rho0, np.linspace(0, 1.2, 121))
    track = pauli.spectral_track(traj)
    ground = track.populations[:, 0]
    assert ground[0] == pytest.approx(0.3)
    assert np.all(np.diff(ground) > 0)  # monotone along the label, no swap
    assert ground[-1] == pytest.approx(1 - 0.7 * np.exp(-1.2), abs=1e-10)


# ---------------------------------------------------------------------------
# teich_mahler / residual / w_quantity
# ---------------------------------------------------------------------------

def test_teich_mahler_amplitude_damping():
    gen = witness.preset("amplitude_damping")
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    traj = pauli.evolve(gen, rho0, np.linspace(0, 1, 5))
    track = pauli.spectral_track(traj)
    rm = pauli.teich_mahler(canonical(gen), track, 2)
    assert np.allclose(rm.r, [[0, 1], [0, 0]], atol=1e-12)
    assert np.allclose(rm.w, [[0, 1], [0, -1]], atol=1e-12)


def test_teich_mahler_zero_generator():
    gen = g.build(H0, [])
    traj = pauli.evolve(gen, np.diag([0.4, 0.6]).astype(complex), np.linspace(0, 1, 3))
    track = pauli.spectral_track(traj)
    rm = pauli.teich_mahler(g.canonical_form(gen), track, 0)
    assert np.allclose(rm.w, 0.0)


def test_teich_mahler_column_sums_and_norm_bound():
    for seed in range(4):
        gen = g.random_cp(3, 6, seed=seed)
        can = canonical(gen)
        rho0 = np.diag([0.5, 0.3, 0.2]).astype(complex)
        traj = pauli.evolve(gen, rho0, np.linspace(0, 2, 21))
        track = pauli.spectral_track(traj)
        gamma_sum = np.sum(gen.rates_at())
        for k in range(len(traj.grid)):
            rm = pauli.teich_mahler(can, track, k)
            assert np.max(np.abs(rm.w.sum(axis=0))) <= 1e-10
            assert np.min(rm.r) >= -1e-12
            assert np.linalg.norm(rm.w, np.inf) <= gamma_sum + 1e-10
            assert np.linalg.norm(rm.w, 1) <= 2 * gamma_sum + 1e-10


def test_residual_stationary_state():
    gen = witness.preset("amplitude_damping")
    rho_fix = spectra.stationary_state(spectra.relaxation_spectrum(gen))
    traj = pauli.evolve(gen, rho_fix, np.array([0.0, 1e-3, 2e-3]))
    track = pauli.spectral_track(traj)
    assert pauli.pauli_residual(canonical(gen), track, 1) <= 1e-10


def test_residual_amplitude_damping_small_and_second_order():
    gen = witness.preset("amplitude_damping")
    can = canonical(gen)

    def residual(h):
        traj = pauli.evolve(gen, PLUS, np.array([0.5 - h, 0.5, 0.5 + h]))
        track = pauli.spectral_track(traj)
        return pauli.pauli_residual(can, track, 1)

    r1 = residual(1e-3)
    r2 = residual(5e-4)
    assert r1 <= 1e-5
    assert 2.8 <= r1 / r2 <= 5.7  # O(h^2) halving


def test_residual_boundary_index():
    gen = witness.preset("amplitude_damping")
    traj = pauli.evolve(gen, PLUS, np.linspace(0, 1, 5))
    track = pauli.spectral_track(traj)
    with pytest.raises(BoundaryIndexError):
        pauli.pauli_residual(canonical(gen), track, 0)
    with pytest.raises(BoundaryIndexError):
        pauli.pauli_residual(canonical(gen), track, 4)


def test_w_quantity_lowering_channel():
    gen = witness.preset("amplitude_damping")
    traj = pauli.evolve(gen, np.diag([0.0, 1.0]).astype(complex), np.linspace(0, 1, 3))
    track = pauli.spectral_track(traj)
    wq = pauli.w_quantity(canonical(gen), track, 0)
    assert np.allclose(wq, [[1.0, 1.0]], atol=1e-12)


def test_w_quantity_diagonal_channel_vanishes():
    gen = witness.preset("dephasing")
    traj = pauli.evolve(gen, np.diag([0.3, 0.7]).astype(complex), np.linspace(0, 1, 3))
    track = pauli.spectral_track(traj)
    wq = pauli.w_quantity(canonical(gen), track, 0)
    assert np.allclose(wq, 0.0, atol=1e-12)


def test_w_quantity_bounded_by_one(rng):
    for seed in range(5):
        gen = g.random_cp(3, 8, seed=seed)
        can = canonical(gen)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        track = pauli.EigenTrack(
            grid=np.array([0.0]),
            populations=np.full((1, 3), 1 / 3),
            frames=(q,),
        )
        wq = pauli.w_quantity(can, track, 0)
        assert np.max(wq) <= 1 + 1e-10
        assert np.min(wq) >= 0.0


def _frame_case(kind, seed, t):
    """Canonical form and a one-point track with a random unitary frame at time t."""
    rng = np.random.default_rng(seed)
    if kind == "random_cp":
        d = int(rng.integers(2, 5))
        gen = g.random_cp(d, int(rng.integers(1, d * d)), seed)
    elif kind == "hamiltonian_only":
        d = int(rng.integers(2, 5))
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        gen = g.build((a + a.conj().T) / 2, [])
    else:  # time-dependent qubit, one rate negative at t > 0
        d = 2
        gen = witness.qubit_generator("1 + 0.5*sin(3*t)", "exp(-t)", "-tanh(t)", omega=0.7)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    track = pauli.EigenTrack(grid=np.array([t]), populations=np.full((1, d), 1 / d), frames=(q,))
    return canonical(gen), track


@given(
    kind=st.sampled_from(["random_cp", "hamiltonian_only", "td_qubit"]),
    seed=st.integers(0, 2**32 - 1),
    t=st.floats(0.1, 5.0),
)
def test_stacked_rates_match_channel_loop(kind, seed, t):
    can, track = _frame_case(kind, seed, t)
    tol = 1e-14 * max(1.0, float(np.sum(np.abs(can.rates_at(t)))))
    rm = pauli.teich_mahler(can, track, 0)
    r = pauli_oracle.teich_mahler_r(can, track, 0)
    assert np.max(np.abs(rm.r - r), initial=0.0) <= tol
    assert np.max(np.abs(rm.w - (r - np.diag(r.sum(axis=0)))), initial=0.0) <= tol
    wq = pauli.w_quantity(can, track, 0)
    want = pauli_oracle.w_quantity(can, track, 0)
    assert wq.shape == want.shape
    assert np.max(np.abs(wq - want), initial=0.0) <= 1e-14


def test_w_quantity_rejects_non_canonical():
    with pytest.warns(UserWarning):
        gen = g.build(H0, [(1.0, g.SIGMA_Z)])
    track = pauli.EigenTrack(
        grid=np.array([0.0]), populations=np.full((1, 2), 0.5), frames=(np.eye(2, dtype=complex),)
    )
    with pytest.raises(NonCanonicalGeneratorError):
        pauli.w_quantity(gen, track, 0)


def test_populations_sum_to_one_even_backward():
    gen = witness.preset("amplitude_damping")
    rho0 = np.array([[0.5, 0.4], [0.4, 0.5]])
    traj = pauli.evolve(gen, rho0, np.linspace(-2.0, 0.0, 21))
    track = pauli.spectral_track(traj)
    assert np.allclose(track.populations.sum(axis=1), 1.0, atol=1e-10)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def test_export_track_csv(tmp_path):
    gen = witness.preset("amplitude_damping")
    can = canonical(gen)
    traj = pauli.evolve(gen, PLUS, np.linspace(0, 1, 5))
    track = pauli.spectral_track(traj)
    out = tmp_path / "track.csv"
    pauli.export_track_csv(can, track, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "time,p_1,p_2,residual,w_inf_norm,min_w_slack"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[3] == "nan"  # boundary residual
    # deterministic re-export
    again = tmp_path / "track2.csv"
    pauli.export_track_csv(can, track, again)
    assert out.read_text() == again.read_text()
