import json

import numpy as np
import pytest

from gkls_rates import generator as g
from gkls_rates import spectra, witness
from gkls_rates.errors import UnknownPresetError, ZeroRateError


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def test_preset_names():
    for name in witness.PRESET_NAMES:
        gen = witness.preset(name)
        assert gen.dim == 2
    with pytest.raises(UnknownPresetError):
        witness.preset("thermal_bath")


def test_eternal_nm_rate_at_zero():
    gen = witness.preset("eternal_nm")
    assert gen.time_dependent
    assert gen.rates_at(0.0)[2] == pytest.approx(0.0)


def test_eternal_nm_canonical_rate_range():
    gen = witness.preset("eternal_nm")
    for t in np.linspace(0, 20, 101):
        gz = gen.rates_at(t)[2]
        assert -1.0 <= gz <= 0.0  # -tanh saturates to -1.0 in doubles


def test_paper_qubit_defaults():
    gen = witness.preset("paper_qubit")
    spec = spectra.relaxation_spectrum(gen)
    assert np.allclose(spec.rates, [0, 2, 2, 2], atol=1e-10)


# ---------------------------------------------------------------------------
# local spectrum: the relaxation spectrum of the frozen generator
# ---------------------------------------------------------------------------

def test_local_spectrum_eternal_at_zero():
    gen = witness.preset("eternal_nm")
    spec = spectra.relaxation_spectrum(g.freeze(gen, 0.0))
    assert np.allclose(spec.rates, [0, 1, 1, 2], atol=1e-10)


def test_local_spectrum_eternal_at_one():
    spec = spectra.relaxation_spectrum(g.freeze(witness.preset("eternal_nm"), 1.0))
    gamma_t = 1 - np.tanh(1.0)
    assert spec.rates[1] == pytest.approx(gamma_t, abs=1e-10)
    assert gamma_t == pytest.approx(0.2384, abs=1e-4)


def test_local_spectrum_autonomous_constant():
    gen = witness.preset("paper_qubit")
    a = spectra.relaxation_spectrum(g.freeze(gen, 0.0))
    b = spectra.relaxation_spectrum(g.freeze(gen, 5.0))
    assert np.allclose(a.rates, b.rates)


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def test_scan_eternal_nm_single_interval():
    gen = witness.preset("eternal_nm")
    report = witness.scan(gen, np.linspace(0, 10, 1001))
    assert not report.cp_divisible
    assert len(report.violation_intervals) == 1
    start, end = report.violation_intervals[0]
    assert start == pytest.approx(0.0, abs=1e-4)
    assert end == pytest.approx(10.0)
    # margins equal -tanh(t)
    assert np.allclose(report.margin, -np.tanh(report.grid), atol=1e-10)


def test_scan_autonomous_no_violation():
    gen = witness.preset("paper_qubit")
    report = witness.scan(gen, np.linspace(0, 5, 101))
    assert report.cp_divisible
    assert report.violation_intervals == ()
    assert not report.violated


def test_scan_sin_squared_rates_no_violation():
    gen = witness.qubit_generator(1.0, 1.0, "sin(t)^2", omega=0.0)
    report = witness.scan(gen, np.linspace(0, 8, 401))
    assert report.cp_divisible
    assert report.violation_intervals == ()
    assert np.all(report.margin >= -1e-9)


def test_scan_matches_check_bound_for_autonomous():
    gen = g.random_cp(2, 3, seed=33)
    grid = np.linspace(0, 3, 31)
    report = witness.scan(gen, grid)
    spec = spectra.relaxation_spectrum(gen)
    bound = spectra.check_bound(spec, 2)
    assert np.allclose(report.margin, bound.margin, atol=1e-12)


def test_scan_rejects_negative_times():
    with pytest.raises(ValueError):
        witness.scan(witness.preset("eternal_nm"), np.linspace(-1, 1, 11))


def test_scan_report_json_round_trip():
    gen = witness.preset("eternal_nm")
    report = witness.scan(gen, np.linspace(0, 2, 41))
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["cp_divisible"] is False
    assert len(payload["grid"]) == 41
    assert len(payload["gammas"][0]) == 3
    assert len(payload["rates"][0]) == 4
    assert payload["violations"][0]["end"] == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# qubit_tt_check
# ---------------------------------------------------------------------------

def test_tt_check_boundary_case_flags_true():
    flags = witness.qubit_tt_check(1.0, 1.0, 0.0, np.linspace(0.1, 5, 20))
    assert flags.all()  # 2 Gamma_T = 2 = Gamma_L exactly on the boundary


def test_tt_check_eternal_fails_for_positive_times():
    grid = np.linspace(0.5, 5, 10)
    flags = witness.qubit_tt_check(1.0, 1.0, "-tanh(t)", grid)
    assert not flags.any()
    gamma_l, gamma_t = spectra.qubit_rates(1, 1, -np.tanh(1.0))
    assert 2 * gamma_t == pytest.approx(0.477, abs=1e-3)
    assert 2 * gamma_t < gamma_l


def test_tt_check_large_dephasing_true():
    flags = witness.qubit_tt_check(1.0, 1.0, 5.0, np.linspace(0, 3, 7))
    assert flags.all()


def test_tt_check_zero_rate_raises():
    with pytest.raises(ZeroRateError):
        witness.qubit_tt_check(0.0, 0.0, 0.0, np.array([0.0, 1.0]))


@pytest.mark.parametrize(
    "grid", [[np.nan], [1.0, 0.5], [[0.0, 1.0]]], ids=["nan", "decreasing", "two-d"]
)
def test_tt_check_rejects_a_bad_grid(grid):
    with pytest.raises(ValueError, match="grid"):
        witness.qubit_tt_check(1.0, 1.0, 0.0, grid)


def test_tt_check_agrees_with_scan_margin_sign():
    gen = witness.preset("eternal_nm")
    grid = np.linspace(0.01, 6, 120)
    report = witness.scan(gen, grid)
    flags = witness.qubit_tt_check(1.0, 1.0, "-tanh(t)", grid)
    for margin, flag in zip(report.margin, flags):
        assert flag == (margin >= -1e-10)


def test_scan_time_dependent_non_canonical_channels():
    # bare sigma_z with rate gamma(t) equals sigma_z/sqrt(2) with 2*gamma(t);
    # the scan must recover the canonical rates from the frozen snapshots
    with pytest.warns(UserWarning):
        bare = g.build(np.zeros((2, 2)), [("0.25*(1+sin(t)^2)", g.SIGMA_Z)])
    normalized = g.build(
        np.zeros((2, 2)), [("0.5*(1+sin(t)^2)", g.SIGMA_Z / np.sqrt(2.0))]
    )
    grid = np.linspace(0.0, 3.0, 31)
    a = witness.scan(bare, grid)
    b = witness.scan(normalized, grid)
    assert a.cp_divisible and b.cp_divisible
    assert np.allclose(a.margin, b.margin, atol=1e-10)
    # canonical-rate vectors agree once zero eigenvalues are dropped
    for row_a, row_b in zip(a.local_rates, b.local_rates):
        nonzero = row_a[np.abs(row_a) > 1e-10]
        assert np.allclose(np.sort(nonzero), np.sort(row_b), atol=1e-10)


@pytest.mark.parametrize("rate", [1.0, 1e4, 1e6])
def test_cp_divisible_reads_no_rounding_at_large_rates(rate):
    # two non-canonical operators at the same large constant rate, one written
    # as an expression: the Kossakowski eigenvalues that vanish carry rounding
    # of order eps * rate, which must not read as a negative rate
    rng = np.random.default_rng(0)
    ops = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    with pytest.warns(UserWarning):
        gen = g.build(np.zeros((3, 3)), [(rate, ops[0]), (f"{rate!r}*(1 + 0*t)", ops[1])])
    report = witness.scan(gen, np.linspace(0.0, 1.0, 11))
    assert report.cp_divisible
    assert np.min(report.local_rates) < 0.0  # the rounding is there to be read


def test_scan_cp_divisible_random_time_dependent_never_violates():
    # nonnegative rate expressions keep every frozen generator CP, so the
    # margin stays nonnegative at every grid point
    rng = np.random.default_rng(77)
    grid = np.linspace(0.0, 3.0, 21)
    worst = np.inf
    for k in range(500):
        base = g.random_cp(2, 3, seed=20_000 + k)
        channels = []
        for op in base.ops:
            a, b, w = rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0), rng.uniform(0.2, 3.0)
            channels.append((f"{a} + {b}*sin({w}*t)^2", op))
        gen = g.build(base.hamiltonian, channels)
        assert gen.time_dependent
        report = witness.scan(gen, grid)
        assert report.cp_divisible
        assert report.violation_intervals == ()
        worst = min(worst, float(np.min(report.margin)))
    assert worst >= -1e-8


# ---------------------------------------------------------------------------
# physicality of the eternal-NM map
# ---------------------------------------------------------------------------

def test_eternal_nm_map_stays_positive_on_pure_states():
    from gkls_rates import pauli

    gen = witness.preset("eternal_nm")
    rng = np.random.default_rng(5)
    grid = np.linspace(0.0, 4.0, 9)
    for _ in range(8):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v /= np.linalg.norm(v)
        traj = pauli.evolve(gen, np.outer(v, v.conj()), grid)
        for state in traj.states:
            assert np.min(np.linalg.eigvalsh(state)) >= -1e-6
