"""Differential tests: the stacked kernels against the loops they replaced
(``stack_oracle``), exact where the arithmetic is unchanged."""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from gkls_rates import classical, pauli, spectra, witness
from gkls_rates import generator as g
from gkls_rates.errors import GklsError

import stack_oracle

KINDS = ("random_cp", "preset", "hermitian", "amplitude_damping")


def _case(kind, seed):
    """An autonomous generator of the given kind, d = 2..5 where the kind allows."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    if kind == "random_cp":
        return g.random_cp(d, int(rng.integers(1, d * d)), seed)
    if kind == "preset":  # eternal_nm frozen at t > 0 has a negative rate
        name = witness.PRESET_NAMES[seed % len(witness.PRESET_NAMES)]
        return g.freeze(witness.preset(name), float(rng.uniform(0.1, 3.0)))
    if kind == "hermitian":  # Hermitian noise operators and H = 0: a Hermitian superoperator
        channels = zip(rng.uniform(0.1, 2.0, d * d - 1), g.gell_mann_basis(d))
        return g.build(np.zeros((d, d)), list(channels))
    return witness.preset("amplitude_damping")  # its stationary state is not faithful


def _state(gen, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((gen.dim,) * 2) + 1j * rng.standard_normal((gen.dim,) * 2)
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _outcome(fn, *args):
    try:
        return fn(*args)
    except GklsError as exc:
        return type(exc)


kinds = st.sampled_from(KINDS)
seeds = st.integers(0, 2**32 - 1)


def test_hermitian_case_takes_the_symmetric_eigensolver():
    spec = spectra.relaxation_spectrum(_case("hermitian", 3))
    assert spec.vector_condition == 1.0


@given(kind=kinds, seed=seeds)
def test_eigen_operator_stacks_equal_per_mode_unvec(kind, seed):
    gen = _case(kind, seed)
    spec = spectra.relaxation_spectrum(gen)
    right, left = stack_oracle.eigen_operators(gen)
    assert spec.right_ops.shape == spec.left_ops.shape == (gen.dim**2, gen.dim, gen.dim)
    assert np.array_equal(spec.right_ops, np.array(right))
    assert np.array_equal(spec.left_ops, np.array(left))


@given(
    kind=kinds,
    seed=seeds,
    times=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6, unique=True),
    with_zero=st.booleans(),
)
@example(kind="random_cp", seed=0, times=[0.7], with_zero=False)
@example(kind="random_cp", seed=0, times=[0.0], with_zero=True)
@example(kind="hermitian", seed=1, times=[-1.5, -0.2, 0.4, 2.0], with_zero=True)
def test_autonomous_states_equal_per_point_expm(kind, seed, times, with_zero):
    gen = _case(kind, seed)
    grid = np.unique(times + [0.0] * with_zero)
    rho0 = _state(gen, seed)
    traj = pauli.evolve(gen, rho0, grid)
    want = np.array(stack_oracle.evolve_autonomous(gen, rho0, grid))
    assert traj.states.shape == want.shape
    assert np.array_equal(traj.states, want)


@given(kind=kinds, seed=seeds)
def test_batched_bw_identity_matches_per_mode_loop(kind, seed):
    gen = _case(kind, seed)
    can = g.canonical_form(gen)
    spec = spectra.relaxation_spectrum(gen)
    got = _outcome(spectra.bw_rate_identity, can, spec)
    want = _outcome(stack_oracle.bw_rate_identity, can, spec)
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
        return
    tol = 1e-12 * max(1.0, float(spec.rates[-1]))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= tol


@given(kind=kinds, seed=seeds)
def test_kolmogorov_reduction_matches_apply_loop(kind, seed):
    gen = _case(kind, seed)
    can = g.canonical_form(gen)
    rng = np.random.default_rng(seed)
    d = gen.dim
    basis, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    for b in (np.eye(d), basis):
        got = _outcome(lambda: classical.validate(pauli.rate_matrix(can, b).w))
        want = _outcome(stack_oracle.lindblad_to_kolmogorov, can, b)
        if isinstance(want, type) or isinstance(got, type):
            assert got is want
            continue
        assert np.max(np.abs(got.k - want.k)) <= 1e-14 * max(1.0, float(np.max(np.abs(want.k))))


def test_gell_mann_basis_is_one_cached_read_only_stack():
    basis = g.gell_mann_basis(3)
    assert basis is g.gell_mann_basis(3)
    assert basis.shape == (8, 3, 3)
    assert not basis.flags.writeable
