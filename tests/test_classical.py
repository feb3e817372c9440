import numpy as np
import pytest
import scipy.linalg

from gkls_rates import classical, generator as g, pauli, spectra, witness
from gkls_rates.errors import ColumnSumError, NegativeOffDiagonalError, NegativeRateError


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_zero_matrix():
    k = classical.validate(np.zeros((3, 3)))
    assert k.dim == 3


def test_validate_two_level_decay():
    k = classical.validate(np.array([[-1.0, 0.0], [1.0, 0.0]]))
    assert np.allclose(k.k, [[-1, 0], [1, 0]])


def test_validate_rejects_negative_offdiagonal():
    with pytest.raises(NegativeOffDiagonalError) as info:
        classical.validate(np.array([[-1.0, -0.1], [1.0, 0.1]]))
    assert (info.value.i, info.value.j) == (0, 1)
    # two negative entries: the first in column order is reported, not (0, 2)
    k = np.array([[-0.3, 0.5, -0.1], [-0.2, -0.5, 0.3], [0.5, 0.0, -0.2]])
    with pytest.raises(NegativeOffDiagonalError) as info:
        classical.validate(k)
    assert (info.value.i, info.value.j) == (1, 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_validate_rejects_non_finite(bad):
    # NaN compares False with every bound, so only an explicit check catches it
    with pytest.raises(ValueError):
        classical.validate(np.array([[bad, 0.0], [bad, 0.0]]))


def test_validate_rejects_bad_column_sum():
    with pytest.raises(ColumnSumError):
        classical.validate(np.array([[-1.0, 0.0], [0.5, 0.0]]))


# ---------------------------------------------------------------------------
# from_rates
# ---------------------------------------------------------------------------

def test_from_rates_spectrum_3_rates():
    k = classical.from_rates([1.0, 2.0, 3.0])
    assert k.dim == 4
    assert np.allclose(
        np.sort(np.linalg.eigvals(k.k).real), [-3, -2, -1, 0], atol=1e-10
    )


def test_from_rates_zero():
    k = classical.from_rates([0.0])
    assert np.allclose(k.k, 0.0)
    assert np.allclose(classical.classical_spectrum(k), [0, 0])


def test_from_rates_single():
    k = classical.from_rates([5.0])
    assert np.allclose(k.k, [[-5.0, 0.0], [5.0, 0.0]])
    assert np.allclose(classical.classical_spectrum(k), [0, 5])


def test_from_rates_rejects_negative():
    with pytest.raises(NegativeRateError):
        classical.from_rates([1.0, -0.5])


@pytest.mark.parametrize("rates", [[], [np.inf, 1.0], [1.0, np.nan]])
def test_from_rates_rejects_empty_and_non_finite(rates):
    with pytest.raises(ValueError):
        classical.from_rates(rates)


def test_no_classical_bound(rng):
    # rate lists violating the quantum-style inequality are still realizable
    for _ in range(20):
        n = int(rng.integers(1, 9))
        rates = rng.uniform(0, 5, size=n)
        rates[rng.integers(0, n)] *= 50  # make the max dominate the mean
        k = classical.from_rates(rates)
        got = classical.classical_spectrum(k)
        assert np.allclose(got, np.sort(np.concatenate([[0.0], rates])), atol=1e-10)
        d = n + 1
        assert np.max(rates) > np.sum(rates) / d  # quantum-style bound violated


# ---------------------------------------------------------------------------
# populations-only reduction: the rate matrix in a fixed basis
# ---------------------------------------------------------------------------

def reduction(can, basis):
    return classical.validate(pauli.rate_matrix(can, basis).w)


def test_reduction_amplitude_damping():
    can = g.canonical_form(witness.preset("amplitude_damping"))
    k = reduction(can, np.eye(2, dtype=complex))
    assert np.allclose(k.k, [[0.0, 1.0], [0.0, -1.0]], atol=1e-12)


def test_reduction_dephasing_freezes_populations():
    can = g.canonical_form(witness.preset("dephasing"))
    k = reduction(can, np.eye(2, dtype=complex))
    assert np.allclose(k.k, 0.0, atol=1e-12)


def test_reduction_matches_rate_formula(rng):
    gen = g.random_cp(3, 6, seed=14)
    can = g.canonical_form(gen)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    k = reduction(can, q)
    r = np.zeros((3, 3))
    for rate, op in zip(can.rates_at(0.0), can.ops):
        m = np.abs(q.conj().T @ op @ q) ** 2
        r += rate * m
    expected = r - np.diag(r.sum(axis=0))
    assert np.allclose(k.k, expected, atol=1e-10)


def test_reduction_random_validates(rng):
    for seed in range(5):
        gen = g.random_cp(2, 3, seed=seed)
        can = g.canonical_form(gen)
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        k = reduction(can, q)
        assert isinstance(k, classical.KolmogorovGenerator)


# ---------------------------------------------------------------------------
# classical_spectrum
# ---------------------------------------------------------------------------

def test_spectrum_three_cycle():
    k = classical.validate(
        np.array([[-1.0, 0.0, 1.0], [1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
    )
    rates = classical.classical_spectrum(k)
    assert np.allclose(rates, [0.0, 1.5, 1.5], atol=1e-12)
    eigs = np.linalg.eigvals(k.k)
    complex_pair = sorted(eigs[np.abs(eigs.imag) > 1e-9].imag)
    assert complex_pair == pytest.approx([-np.sqrt(3) / 2, np.sqrt(3) / 2], abs=1e-12)


def test_spectrum_properties():
    k = classical.from_rates([0.5, 2.5])
    rates = classical.classical_spectrum(k)
    assert rates[0] <= 1e-10
    assert np.all(rates >= -1e-10)


def test_stochastic_semigroup(rng):
    for _ in range(5):
        d = int(rng.integers(2, 6))
        off = rng.uniform(0, 2, size=(d, d))
        np.fill_diagonal(off, 0.0)
        k = off - np.diag(off.sum(axis=0))
        kolmo = classical.validate(k)
        for t in (0.1, 0.7, 2.0):
            p = scipy.linalg.expm(t * kolmo.k)
            assert np.allclose(p.sum(axis=0), 1.0, atol=1e-10)
            assert np.min(p) >= -1e-10


def test_log_norm_one_vanishes_on_valid_generators(rng):
    for _ in range(10):
        d = int(rng.integers(2, 7))
        off = rng.uniform(0, 3, size=(d, d))
        np.fill_diagonal(off, 0.0)
        k = off - np.diag(off.sum(axis=0))
        classical.validate(k)
        assert abs(spectra.log_norm(k, "one")) <= 1e-12
