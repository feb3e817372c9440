"""Differential tests: the block propagator of the Lyapunov estimators against
the per-step loops they replaced (``lyapunov_oracle``), plus guards on the
number of factorizations and the block length."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gkls_rates import generator as g
from gkls_rates import lyapunov, spectra, witness
from gkls_rates.errors import GklsError
from gkls_rates.matcore import SPECTRAL_TOL

import lyapunov_oracle

KINDS = ("random_cp", "dephasing", "amplitude_damping", "paper_qubit", "hamiltonian")


def _case(kind, seed):
    """An autonomous generator: random CP at d = 2..4, a preset (degenerate,
    non-normal or the paper's qubit) or a Hamiltonian-only one at d = 2..4."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    if kind == "random_cp":
        return g.random_cp(d, int(rng.integers(1, d * d)), seed)
    if kind == "hamiltonian":
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return g.build((a + a.conj().T) / 2.0, [])
    return witness.preset(kind)


def _state(gen, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((gen.dim,) * 2) + 1j * rng.standard_normal((gen.dim,) * 2)
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _outcome(fn, *args, **kwargs):
    """The estimate, or the exception type with the estimate it carries (if any)."""
    try:
        return None, fn(*args, **kwargs)
    except (GklsError, ValueError) as exc:
        return type(exc), getattr(exc, "estimate", None)


def _assert_same_estimate(gen, got, want):
    got_exc, got_est = got
    want_exc, want_est = want
    assert got_exc is want_exc
    if want_est is None:
        assert got_est is None
        return
    gamma_max = float(spectra.relaxation_spectrum(gen).rates[-1])
    tol = 1e-12 * max(1.0, gamma_max)
    assert abs(got_est.chi - want_est.chi) <= tol
    if want_est.spectrum is not None:
        assert np.max(np.abs(got_est.spectrum - want_est.spectrum)) <= tol
    # both gaps are ``lyapunov._disagreement`` of window rates, relative to the larger
    # rate or to SPECTRAL_TOL; window rates that agree within tol move the gap by at
    # most 2 tol / SPECTRAL_TOL when the exponent is zero to rounding (Hamiltonian-only
    # flows) and the floor is the scale
    at_floor = abs(want_est.chi) <= 1e-9
    gap_tol = 2.0 * tol / SPECTRAL_TOL if at_floor else tol
    assert abs(got_est.convergence_gap - want_est.convergence_gap) <= gap_tol
    assert got_est.burn_in == want_est.burn_in
    got_rows, want_rows = np.array(got_est.windows), np.array(want_est.windows)
    assert got_rows.shape == want_rows.shape
    assert np.array_equal(got_rows[:, 0], want_rows[:, 0])
    assert np.max(np.abs(got_rows[:, 1:] - want_rows[:, 1:])) <= tol


horizons = st.sampled_from([2.0, 5.0, 20.0, 60.0])
intervals = st.one_of(st.none(), st.floats(0.02, 1.0))


@given(
    kind=st.sampled_from(KINDS),
    seed=st.integers(0, 2**32 - 1),
    horizon=horizons,
    interval=intervals,
)
@example(kind="paper_qubit", seed=0, horizon=20.0, interval=None)
@example(kind="paper_qubit", seed=0, horizon=60.0, interval=0.953125)
@example(kind="hamiltonian", seed=3, horizon=20.0, interval=0.05)
def test_block_qr_spectrum_matches_per_step_oracle(kind, seed, horizon, interval):
    gen = _case(kind, seed)
    got = _outcome(lyapunov.qr_spectrum, gen, horizon, reortho_interval=interval)
    want = _outcome(lyapunov_oracle.qr_spectrum, gen, horizon, reortho_interval=interval)
    _assert_same_estimate(gen, got, want)


@given(
    kind=st.sampled_from(KINDS),
    seed=st.integers(0, 2**32 - 1),
    horizon=horizons,
    interval=intervals,
)
@example(kind="amplitude_damping", seed=0, horizon=60.0, interval=None)
@example(kind="dephasing", seed=1, horizon=5.0, interval=0.05)
@example(kind="dephasing", seed=378072146, horizon=2.0, interval=None)
def test_block_backward_matches_per_step_oracle(kind, seed, horizon, interval):
    gen = _case(kind, seed)
    rho0 = _state(gen, seed)
    args = (gen, rho0, horizon)
    got = _outcome(lyapunov.max_exponent_backward, *args, renorm_interval=interval)
    want = _outcome(lyapunov_oracle.max_exponent_backward, *args, renorm_interval=interval)
    _assert_same_estimate(gen, got, want)


def test_time_dependent_qr_spectrum_equals_per_step_oracle_exactly():
    gen = witness.preset("eternal_nm")
    got = lyapunov.qr_spectrum(gen, 6.0)
    want = lyapunov_oracle.qr_spectrum(gen, 6.0)
    assert np.array_equal(got.spectrum, want.spectrum)
    assert got.convergence_gap == want.convergence_gap
    assert got.windows == want.windows


# ---------------------------------------------------------------------------
# work counts
# ---------------------------------------------------------------------------

def _count_qr(monkeypatch):
    calls = []
    real = lyapunov.qr

    def counting(m):
        calls.append(m.shape)
        return real(m)

    monkeypatch.setattr(lyapunov, "qr", counting)
    return calls


def test_qr_calls_per_block_at_criterion_7_horizon(monkeypatch):
    # a criterion-7 case: random CP at d = 3, horizon 50 / (smallest rate gap)
    gen = g.random_cp(3, 8, seed=10_054)
    rates = spectra.relaxation_spectrum(gen).rates
    horizon = 50.0 / float(np.min(np.diff(np.unique(np.round(rates, 9)))))
    steps, _, _ = lyapunov._step_grid(gen, horizon, None, "reortho")
    assert steps > 3000
    calls = _count_qr(monkeypatch)
    lyapunov.qr_spectrum(gen, horizon)
    assert 0 < len(calls) <= steps / 16


def test_hamiltonian_only_generator_takes_the_longest_block(monkeypatch):
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    gen = g.build((a + a.conj().T) / 2.0, [])
    steps, delta, _ = lyapunov._step_grid(gen, 50.0, 0.01, "reortho")
    powers = lyapunov._block_powers(g.reshape(gen), delta, steps)
    assert len(powers) == lyapunov._BLOCK_CAP
    calls = _count_qr(monkeypatch)
    lyapunov.qr_spectrum(gen, 50.0, reortho_interval=0.01)
    # one QR per block, plus the short blocks cut at the three snapshots
    assert len(calls) <= steps // lyapunov._BLOCK_CAP + 4


@pytest.mark.parametrize("name", ["amplitude_damping", "paper_qubit"])
def test_block_length_is_the_longest_within_the_spread_limit(name):
    superop = g.reshape(witness.preset(name))
    delta = 0.2
    powers = lyapunov._block_powers(superop, delta, 10_000)
    k = len(powers)
    rate = spectra.log_norm(superop, "two") + spectra.log_norm(-superop, "two")
    assert 1 < k < lyapunov._BLOCK_CAP
    assert np.exp(k * delta * rate) <= lyapunov._MAX_SPREAD < np.exp((k + 1) * delta * rate)
    step = powers[0]
    assert np.allclose(powers[-1], np.linalg.matrix_power(step, k), rtol=1e-10, atol=0.0)
    assert np.linalg.cond(powers[-1]) <= lyapunov._MAX_SPREAD


def test_block_never_outlasts_the_run():
    superop = g.reshape(witness.preset("dephasing"))
    assert len(lyapunov._block_powers(superop, 0.01, 8)) == 8
