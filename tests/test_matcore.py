import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from gkls_rates import generator, matcore, witness
from gkls_rates.errors import (
    EigFailureError,
    NonSquareError,
    RankDeficientError,
    ShapeMismatchError,
)

import eig_oracle

SIGMA_PLUS = np.array([[0, 0], [1, 0]], dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def random_matrix(rng, n, scale=1.0):
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def similarity_mixed_degenerate(rng):
    # block diag with a doubly degenerate eigenvalue, mixed by a similarity
    d = np.diag([2.0, 2.0, -1.0, 0.5]).astype(complex)
    t = random_matrix(rng, 4, 0.5) + 2 * np.eye(4)
    return t @ d @ np.linalg.inv(t)


def assert_left_eigenvectors(m, res):
    """u_k^dagger M = lambda_k u_k^dagger for every left column u_k."""
    norm = np.linalg.norm(m, 2)
    for k in range(m.shape[0]):
        u = res.left_vectors[:, k]
        residual = u.conj() @ m - res.values[k] * u.conj()
        assert np.linalg.norm(residual) <= 1e-10 * norm * np.linalg.norm(u)


# ---------------------------------------------------------------------------
# eig
# ---------------------------------------------------------------------------

def test_eig_diagonal():
    res = matcore.eig(np.diag([1.0, 2.0]))
    assert sorted(res.values.real) == [1.0, 2.0]
    assert np.allclose(np.abs(res.right_vectors), np.eye(2))
    assert res.vector_condition == 1.0  # Hermitian route


def test_eig_nilpotent_flags_defect():
    res = matcore.eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.allclose(res.values, 0.0)
    assert res.vector_condition >= matcore.DEFECT_THRESHOLD
    assert res.is_defective
    # u^dagger M = 0 forces u proportional to (0, 1)
    for k in range(2):
        u = res.left_vectors[:, k]
        assert abs(u[0]) <= 1e-12 * np.linalg.norm(u)


def test_eig_dephasing_superoperator():
    # reshaped pure-dephasing qubit generator, assembled by hand:
    # L = sigma_z/sqrt(2), gamma = 1 gives diag(0, -1, -1, 0)
    l = SIGMA_Z / np.sqrt(2)
    eye = np.eye(2)
    ldl = l.conj().T @ l
    s = np.kron(l, l.conj()) - 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T))
    res = matcore.eig(s)
    assert np.allclose(sorted(res.values.real), [-1, -1, 0, 0], atol=1e-12)
    assert np.allclose(res.values.imag, 0.0, atol=1e-12)


def test_eig_nonsquare_raises():
    with pytest.raises((NonSquareError, ShapeMismatchError)):
        matcore.eig(np.zeros((2, 3)))


def test_eig_rejects_nonfinite():
    with pytest.raises(ValueError):
        matcore.eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("route", ["hermitian", "general"])
def test_eig_lapack_failure_raises_eig_failure(monkeypatch, route):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    monkeypatch.setattr(scipy.linalg, "eig", fail)
    m = SIGMA_X if route == "hermitian" else SIGMA_PLUS
    with pytest.raises(EigFailureError, match="did not converge"):
        matcore.eig(m)


def test_eig_residual_and_biorthogonality(rng):
    gkls = generator.reshape(generator.random_cp(3, 5, seed=21))
    for m in [random_matrix(rng, n) for n in (3, 5, 8)] + [gkls]:
        n = m.shape[0]
        res = matcore.eig(m)
        norm = np.linalg.norm(m, 2)
        for k in range(n):
            v = res.right_vectors[:, k]
            assert np.linalg.norm(m @ v - res.values[k] * v) <= 1e-10 * norm * np.linalg.norm(v)
        assert_left_eigenvectors(m, res)
        gram = res.left_vectors.conj().T @ res.right_vectors
        assert np.max(np.abs(gram - np.eye(n))) <= 1e-8


def test_eig_biorthogonality_with_degenerate_eigenvalues():
    m = similarity_mixed_degenerate(np.random.default_rng(7))
    res = matcore.eig(m)
    assert res.vector_condition < matcore.DEFECT_THRESHOLD
    assert_left_eigenvectors(m, res)
    gram = res.left_vectors.conj().T @ res.right_vectors
    assert np.max(np.abs(gram - np.eye(4))) <= 1e-8


def test_eig_reconstruction(rng):
    for _ in range(10):
        m = random_matrix(rng, 6)
        res = matcore.eig(m)
        if res.vector_condition >= 1e6:
            continue
        v = res.right_vectors
        rec = v @ np.diag(res.values) @ np.linalg.inv(v)
        assert np.linalg.norm(rec - m) <= 1e-8 * np.linalg.norm(m)


def test_eig_hermitian_route_left_equals_right(rng):
    m = random_matrix(rng, 4)
    m = (m + m.conj().T) / 2
    res = matcore.eig(m)
    assert res.vector_condition == 1.0
    assert np.allclose(res.left_vectors, res.right_vectors)
    assert np.allclose(res.values.imag, 0.0)


# ---------------------------------------------------------------------------
# eig against the two-solve oracle
# ---------------------------------------------------------------------------

EIG_KINDS = ("random", "random_cp", "frozen_qubit", "dephasing", "paper_qubit",
             "mixed_degenerate", "jordan", "nilpotent")
DEFECTIVE_KINDS = ("jordan", "nilpotent")
TD_QUBIT_RATES = ("1 + 0.5*sin(t)", "exp(-t)", "-tanh(t)", "0.3*cos(2*t)")


def eig_case(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "random":
        return random_matrix(rng, int(rng.integers(2, 10)))
    if kind == "random_cp":
        d = int(rng.integers(2, 5))
        gen = generator.random_cp(d, int(rng.integers(1, d * d)), seed)
        return generator.reshape(gen)
    if kind == "frozen_qubit":
        rates = rng.permutation(TD_QUBIT_RATES)[:3]
        gen = witness.qubit_generator(*rates, omega=float(rng.uniform(-2.0, 2.0)))
        return generator.reshape(generator.freeze(gen, float(rng.uniform(0.0, 5.0))))
    if kind in ("dephasing", "paper_qubit"):
        return generator.reshape(witness.preset(kind))
    if kind == "mixed_degenerate":
        return similarity_mixed_degenerate(rng)
    if kind == "jordan":  # one Jordan block beside a diagonal, permuted exactly
        k, extra = int(rng.integers(2, 5)), int(rng.integers(0, 4))
        lam = complex(*rng.standard_normal(2))
        block = lam * np.eye(k) + np.diag(np.ones(k - 1), 1)
        m = np.zeros((k + extra, k + extra), dtype=complex)
        m[:k, :k] = block
        m[k:, k:] = np.diag(rng.standard_normal(extra) + 1j * rng.standard_normal(extra))
        perm = rng.permutation(k + extra)
        return m[np.ix_(perm, perm)]
    n = int(rng.integers(2, 6))  # nilpotent: strictly upper triangular
    return np.triu(random_matrix(rng, n), 1)


def spectral_projectors(res, ctol):
    """sum_{k in cluster} v_k u_k^dagger per eigenvalue cluster, in sorted order."""
    order = np.lexsort((res.values.imag, res.values.real))
    clusters = [[order[0]]]
    for idx in order[1:]:
        if abs(res.values[idx] - res.values[clusters[-1][-1]]) <= ctol:
            clusters[-1].append(idx)
        else:
            clusters.append([idx])
    return [res.right_vectors[:, c] @ res.left_vectors[:, c].conj().T for c in clusters]


@settings(max_examples=200)
@given(kind=st.sampled_from(EIG_KINDS), seed=st.integers(0, 2**32 - 1))
def test_eig_matches_two_solve_oracle(kind, seed):
    m = eig_case(kind, seed)
    got, want = matcore.eig(m), eig_oracle.eig(m)
    scale = max(1.0, float(np.linalg.norm(m, 2)))
    vtol = (1e-6 if kind in DEFECTIVE_KINDS else 1e-12) * scale
    assert np.max(np.abs(np.sort_complex(got.values) - np.sort_complex(want.values))) <= vtol
    assert got.is_defective == want.is_defective
    if got.is_defective:
        assert kind in DEFECTIVE_KINDS
        return
    cond = max(1.0, got.vector_condition)
    ctol = 1e-6 * max(1.0, float(np.max(np.abs(want.values))))
    got_p, want_p = spectral_projectors(got, ctol), spectral_projectors(want, ctol)
    assert len(got_p) == len(want_p)
    for p, q in zip(got_p, want_p):
        assert np.linalg.norm(p - q, 2) <= 1e-9 * cond
    gram = got.left_vectors.conj().T @ got.right_vectors
    assert np.max(np.abs(gram - np.eye(len(m)))) <= 1e-12 * cond


# ---------------------------------------------------------------------------
# matrix exponential of a reshaped generator
# ---------------------------------------------------------------------------

def test_expm_against_ode_integration(rng):
    # exp(tS) v0 must agree with a high-order ODE solve of vdot = S v
    from gkls_rates import generator as g

    gen = g.random_cp(2, 3, seed=11)
    s = g.reshape(gen)
    rho0 = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    v0 = rho0.reshape(-1)
    sol = scipy.integrate.solve_ivp(
        lambda t, v: s @ v, (0.0, 0.7), v0, rtol=1e-12, atol=1e-14, method="DOP853"
    )
    direct = scipy.linalg.expm(0.7 * s) @ v0
    assert np.linalg.norm(direct - sol.y[:, -1]) <= 1e-9
    evolved = direct.reshape(2, 2)
    assert abs(np.trace(evolved) - 1.0) <= 1e-10


# ---------------------------------------------------------------------------
# fix_phases
# ---------------------------------------------------------------------------

def fix_phase_loop(vector):
    """The per-vector rule that ``fix_phases`` vectorizes."""
    idx = int(np.argmax(np.abs(vector)))
    pivot = vector[idx]
    return vector if abs(pivot) == 0.0 else vector * (abs(pivot) / pivot)


@given(
    rows=st.integers(0, 6),
    n=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
    ties=st.booleans(),
)
def test_fix_phases_matches_per_vector_loop(rows, n, seed, ties):
    # random vectors, or entries of one magnitude so that the first maximum
    # decides; zero rows stay zero
    rng = np.random.default_rng(seed)
    if ties:
        m = np.exp(2j * np.pi * rng.integers(0, 4, (rows, n)) / 4)
    else:
        m = random_matrix(rng, max(rows, n))[:rows, :n]
    m[rng.random(rows) < 0.3] = 0.0
    got = matcore.fix_phases(m)
    want = np.array([fix_phase_loop(v) for v in m]).reshape(m.shape)
    tol = 4 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(m), initial=0.0)))
    assert np.max(np.abs(got - want), initial=0.0) <= tol


# ---------------------------------------------------------------------------
# hs_inner
# ---------------------------------------------------------------------------

def test_hs_inner_examples():
    assert matcore.hs_inner(np.eye(2), np.eye(2)) == pytest.approx(2.0)
    assert matcore.hs_inner(SIGMA_PLUS, SIGMA_PLUS) == pytest.approx(1.0)
    assert matcore.hs_inner(SIGMA_Z / np.sqrt(2), SIGMA_X / np.sqrt(2)) == pytest.approx(0.0)


def test_hs_inner_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        matcore.hs_inner(np.eye(2), np.eye(3))


def test_hs_inner_is_trace_of_adjoint_product(rng):
    a = random_matrix(rng, 3)
    b = random_matrix(rng, 3)
    assert matcore.hs_inner(a, b) == pytest.approx(np.trace(a.conj().T @ b))


# ---------------------------------------------------------------------------
# qr
# ---------------------------------------------------------------------------

def test_qr_identity():
    q, r = matcore.qr(np.eye(3))
    assert np.allclose(q, np.eye(3))
    assert np.allclose(r, np.eye(3))


def test_qr_unitary_input(rng):
    m = random_matrix(rng, 4)
    u, _ = np.linalg.qr(m)
    q, r = matcore.qr(u)
    assert np.allclose(np.abs(np.diagonal(r)), 1.0)
    assert np.allclose(r, np.eye(4), atol=1e-12)


def test_qr_upper_triangular_input():
    m = np.array([[2.0, 1.0], [0.0, 3.0]])
    q, r = matcore.qr(m)
    assert np.allclose(q, np.eye(2))
    assert np.allclose(r, m)


def test_qr_properties(rng):
    for _ in range(10):
        m = random_matrix(rng, 5)
        q, r = matcore.qr(m)
        assert np.linalg.norm(q.conj().T @ q - np.eye(5)) <= 1e-10
        assert np.allclose(q @ r, m, atol=1e-12 * np.linalg.norm(m))
        diag = np.diagonal(r)
        assert np.all(diag.real > 0) and np.allclose(diag.imag, 0.0)
        assert np.allclose(np.tril(r, -1), 0.0, atol=1e-14)
        det = abs(np.linalg.det(m))
        assert np.prod(diag.real) == pytest.approx(det, rel=1e-10)


def test_qr_rank_deficient():
    with pytest.raises(RankDeficientError):
        matcore.qr(np.array([[1.0, 2.0], [2.0, 4.0]]))
