"""Differential test of the stacked bound sweep against the per-seed path.

The oracle is the per-seed pipeline ``random_cp -> relaxation_spectrum ->
check_bound``: one generator at a time, canonical operators with fixed
phases, and the full eigen-decomposition of ``matcore.eig``.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from gkls_rates import generator as g
from gkls_rates import spectra


def per_seed_row(d, n_channels, seed):
    gen = g.random_cp(d, n_channels, seed)
    report = spectra.check_bound(spectra.relaxation_spectrum(gen), d)
    return float(np.sum(gen.rates_at(0.0))), report.gamma_max, report.margin, report.saturated


def assert_matches_oracle(d, n_channels, seeds):
    gamma_sum, gamma_max, margin, saturated = spectra.bound_sweep(d, n_channels, seeds)
    assert len(margin) == len(seeds)
    for k, seed in enumerate(seeds):
        want_sum, want_max, want_margin, want_saturated = per_seed_row(d, n_channels, seed)
        tol = 1e-12 * max(1.0, want_max)
        assert abs(gamma_max[k] - want_max) <= tol
        assert abs(margin[k] - want_margin) <= tol
        assert abs(gamma_sum[k] - want_sum) <= tol
        assert bool(saturated[k]) == want_saturated


@st.composite
def sweeps(draw):
    d = draw(st.integers(2, 6))
    n_channels = draw(st.integers(1, d * d - 1))
    first = draw(st.integers(0, 2**32))
    return d, n_channels, list(range(first, first + draw(st.integers(1, 6))))


@given(sweeps())
def test_bound_sweep_matches_per_seed_path(case):
    # n_channels < d^2 - 1 gives rank-deficient Kossakowski matrices, whose
    # zero eigenvalues fall under PRUNE_TOL
    assert_matches_oracle(*case)


def test_bound_sweep_across_chunk_boundary():
    seeds = list(range(500, 500 + spectra.SWEEP_CHUNK + 3))
    assert_matches_oracle(2, 2, seeds)


def test_random_cp_batch_matches_reshape():
    # the eigenvalues above cannot see a transposed or conjugated superoperator
    seeds = [3, 4, 5]
    superops, gamma_sum = g.random_cp_batch(3, 5, seeds)
    for k, seed in enumerate(seeds):
        gen = g.random_cp(3, 5, seed)
        want = g.reshape(gen).matrix
        assert np.linalg.norm(superops[k] - want) <= 1e-13 * max(1.0, np.linalg.norm(want))
        assert abs(gamma_sum[k] - np.sum(gen.rates_at())) <= 1e-14
