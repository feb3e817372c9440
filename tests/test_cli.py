import contextlib
import io
import json
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkls_rates import cli, generator as g, ratelang, witness
from gkls_rates.errors import SchemaError
from gkls_rates.ratelang import RateExpr

from rate_printer import DEEP_FORMS, grammar_asts, to_string


def write_generator_file(path, gen, label=None):
    doc = {
        "dim": gen.dim,
        "hamiltonian": [
            [[float(z.real), float(z.imag)] for z in row] for row in gen.hamiltonian
        ],
        "channels": [
            {
                "rate": (
                    cli_rate(rate)
                ),
                "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in op],
            }
            for rate, op in zip(gen.rates, gen.ops)
        ],
    }
    if label:
        doc["label"] = label
    path.write_text(json.dumps(doc))
    return path


def cli_rate(rate):
    if isinstance(rate, ratelang.RateExpr):
        return to_string(rate)
    return float(rate)


# ---------------------------------------------------------------------------
# file loading
# ---------------------------------------------------------------------------

def test_load_round_trip(tmp_path):
    gen = witness.preset("paper_qubit")
    path = write_generator_file(tmp_path / "paper.json", gen, label="paper")
    loaded, label = cli.load_generator_file(path)
    assert label == "paper"
    assert loaded.dim == 2
    assert np.allclose(loaded.hamiltonian, gen.hamiltonian)
    for a, b in zip(loaded.ops, gen.ops):
        assert np.allclose(a, b)


def test_load_time_dependent_flag(tmp_path):
    gen = witness.preset("eternal_nm")
    path = write_generator_file(tmp_path / "eternal.json", gen)
    loaded, _ = cli.load_generator_file(path)
    assert loaded.time_dependent
    assert loaded.rates_at(1.0)[2] == pytest.approx(-np.tanh(1.0))


def test_load_schema_error_reports_path(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 2, "hamiltonian": [[[0, 0], [0, 0]], [[0, 0], [0]]]}))
    with pytest.raises(SchemaError) as info:
        cli.load_generator_file(path)
    assert "hamiltonian" in str(info.value)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_dephasing_preset(capsys):
    code = cli.main(["analyze", "dephasing"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert "margin=0" in out
    assert "satisfied=True" in out


def test_analyze_file_with_json_report(tmp_path, capsys):
    path = write_generator_file(tmp_path / "pq.json", witness.preset("paper_qubit"))
    report = tmp_path / "report.json"
    code = cli.main(["analyze", str(path), "--json", str(report)])
    assert code == cli.EXIT_OK
    payload = json.loads(report.read_text())
    assert payload["bound"]["margin"] == pytest.approx(1.0, abs=1e-9)
    assert sorted(payload["rates"]) == pytest.approx([0, 2, 2, 2], abs=1e-9)
    capsys.readouterr()


def test_analyze_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 2, "hamiltonian": [[')
    code = cli.main(["analyze", str(path)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_INPUT_ERROR
    assert "broken.json:1:" in err


def test_analyze_missing_file(capsys):
    code = cli.main(["analyze", "/nonexistent/gen.json"])
    assert code == cli.EXIT_INPUT_ERROR
    capsys.readouterr()


def test_analyze_time_dependent_rejected(capsys):
    code = cli.main(["analyze", "eternal_nm"])
    assert code == cli.EXIT_INPUT_ERROR
    capsys.readouterr()


def test_analyze_violated_bound_exit_code(tmp_path, capsys):
    # frozen eternal-NM at t=1: an autonomous non-CP generator violating the bound
    frozen = g.freeze(witness.preset("eternal_nm"), 1.0)
    path = write_generator_file(tmp_path / "frozen.json", frozen)
    code = cli.main(["analyze", str(path)])
    out = capsys.readouterr().out
    assert code == cli.EXIT_BOUND_VIOLATED
    assert "satisfied=False" in out


def test_preset_name_forced_to_file_semantics(tmp_path, capsys):
    os.chdir(tmp_path)
    code = cli.main(["analyze", "dephasing", "--file"])
    assert code == cli.EXIT_INPUT_ERROR  # no such file once presets are bypassed
    capsys.readouterr()


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------

def test_witness_eternal_nm_fires(tmp_path, capsys):
    report = tmp_path / "witness.json"
    code = cli.main(
        ["witness", "eternal_nm", "--t0", "0", "--t1", "10", "--steps", "1000",
         "--json", str(report)]
    )
    out = capsys.readouterr().out
    assert code == cli.EXIT_WITNESS_FIRED
    assert "violation" in out
    payload = json.loads(report.read_text())
    assert payload["cp_divisible"] is False
    assert len(payload["violations"]) == 1


def test_witness_autonomous_clean(tmp_path, capsys):
    path = write_generator_file(tmp_path / "pq.json", witness.preset("paper_qubit"))
    code = cli.main(["witness", str(path), "--steps", "50"])
    assert code == cli.EXIT_OK
    capsys.readouterr()


def test_witness_sin_squared_clean(tmp_path, capsys):
    gen = witness.qubit_generator(1.0, 1.0, "sin(t)^2", omega=0.0)
    path = write_generator_file(tmp_path / "sin.json", gen)
    code = cli.main(["witness", str(path), "--steps", "200"])
    assert code == cli.EXIT_OK
    capsys.readouterr()


# ---------------------------------------------------------------------------
# lyapunov
# ---------------------------------------------------------------------------

def test_lyapunov_backward_amplitude_damping(tmp_path, capsys):
    csv = tmp_path / "windows.csv"
    code = cli.main(
        ["lyapunov", "amplitude_damping", "--mode", "backward", "--horizon", "50",
         "--csv", str(csv)]
    )
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    chi = float(out.split("chi: ")[1].split()[0])
    assert chi == pytest.approx(1.0, rel=1e-2)
    assert csv.exists()


def test_lyapunov_qr_dephasing(capsys):
    code = cli.main(["lyapunov", "dephasing", "--mode", "qr", "--horizon", "60"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert "spectrum:" in out


def test_lyapunov_zero_generator(tmp_path, capsys):
    gen = g.build(np.zeros((2, 2)), [])
    path = write_generator_file(tmp_path / "zero.json", gen)
    code = cli.main(["lyapunov", str(path), "--mode", "qr", "--horizon", "10"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    chi = float(out.split("chi: ")[1].split()[0])
    assert chi == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("mode", ["backward", "qr"])
def test_lyapunov_hamiltonian_only_converges_at_short_horizon(tmp_path, mode, capsys):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    path = write_generator_file(tmp_path / "h.json", g.build((a + a.conj().T) / 2.0, []))
    code = cli.main(["lyapunov", str(path), "--mode", mode, "--horizon", "0.01"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert abs(float(out.split("chi: ")[1].split()[0])) <= 1e-8


def test_lyapunov_unconverged_exit_code_with_partial_csv(tmp_path, capsys):
    csv = tmp_path / "partial.csv"
    code = cli.main(
        ["lyapunov", "amplitude_damping", "--mode", "backward", "--horizon", "1.5",
         "--seed", "3", "--csv", str(csv)]
    )
    captured = capsys.readouterr()
    if code == cli.EXIT_OK:
        pytest.skip("this seed converged; covered by the unit test instead")
    assert code == cli.EXIT_UNCONVERGED
    assert "unconverged" in captured.err
    assert csv.exists()


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_small(tmp_path, capsys):
    csv = tmp_path / "sweep.csv"
    code = cli.main(["sweep", "--dim", "2", "--count", "200", "--seed", "7",
                     "--csv", str(csv)])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert "all_ok=True" in out
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "seed,gamma_sum,gamma_max,margin,saturated"
    assert len(lines) == 201
    margins = [float(l.split(",")[3]) for l in lines[1:]]
    assert min(margins) >= -1e-8


def test_sweep_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["sweep", "--dim", "3", "--count", "40", "--seed", "1",
                     "--csv", str(a)]) == cli.EXIT_OK
    assert cli.main(["sweep", "--dim", "3", "--count", "40", "--seed", "1",
                     "--csv", str(b)]) == cli.EXIT_OK
    assert a.read_text() == b.read_text()
    capsys.readouterr()


def test_sweep_bad_count(capsys):
    assert cli.main(["sweep", "--dim", "2", "--count", "0"]) == cli.EXIT_INPUT_ERROR
    capsys.readouterr()


def test_sweep_bad_dim(capsys):
    assert cli.main(["sweep", "--dim", "9", "--count", "5"]) == cli.EXIT_INPUT_ERROR
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["witness", "eternal_nm", "--steps", "0"],
        ["witness", "eternal_nm", "--t1", "-1"],
        ["lyapunov", "dephasing", "--horizon", "-1"],
        ["lyapunov", "dephasing", "--mode", "qr", "--horizon", "0"],
        ["lyapunov", "dephasing", "--horizon", "inf"],
        ["lyapunov", "dephasing", "--horizon", "nan"],
        ["lyapunov", "dephasing", "--mode", "qr", "--horizon", "inf"],
        ["witness", "dephasing", "--t0", "nan"],
        ["witness", "eternal_nm", "--t1", "inf"],
        ["classical", "--rates", ","],
        ["classical", "--rates", "inf,1"],
        ["lyapunov", "dephasing", "--horizon", "1e300"],
        ["classical", "--rates", "1,,2"],
        ["classical", "--rates", "1,2, "],
        ["analyze", tempfile.gettempdir()],
        ["analyze", "dephasing", "--json", tempfile.gettempdir()],
        ["lyapunov", "dephasing", "--csv", tempfile.gettempdir()],
        ["lyapunov", "amplitude_damping", "--mode", "qr", "--horizon", "1e-15"],
    ],
    ids=["steps-0", "t1-negative", "horizon-negative", "qr-horizon-0", "horizon-inf",
         "horizon-nan", "qr-horizon-inf", "t0-nan", "t1-inf", "rates-empty", "rates-inf",
         "horizon-huge", "rates-empty-field", "rates-blank-trailing-field",
         "input-directory", "output-directory", "csv-directory", "qr-step-below-rounding"],
)
@pytest.mark.filterwarnings("error")  # a numpy warning would print a second line
def test_bad_numeric_input_exits_2_with_one_line(argv, capsys):
    assert cli.main(argv) == cli.EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert len(err) < 200
    # a path the user gave is named as given, never a temp file beside it
    assert ".tmp-" not in err
    assert all(arg in err for arg in argv if os.path.isdir(arg))


# ---------------------------------------------------------------------------
# rate expressions in generator files
# ---------------------------------------------------------------------------

def run_rate_file(directory, rate, argv):
    """Exit code and stderr of ``cli.main`` on a qubit file with one decay channel at ``rate``."""
    path = os.path.join(directory, "rate.json")
    doc = {"dim": 2, "hamiltonian": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
           "channels": [{"rate": rate, "matrix": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}]}
    with open(path, "w") as handle:
        json.dump(doc, handle)
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would print a second line
        code = cli.main([argv[0], path, *argv[1:]])
    return code, stderr.getvalue()


def printed_rate_strategy():
    asts = grammar_asts(st.floats(min_value=1e-300, max_value=1e308), max_leaves=8)
    deep = st.builds(lambda form, n: DEEP_FORMS[form](n),
                     st.sampled_from(sorted(DEEP_FORMS)), st.integers(1, 3 * ratelang._MAX_DEPTH))
    return st.one_of(asts.map(lambda ast: to_string(RateExpr(ast))), deep)


@settings(max_examples=100, deadline=None)
@given(printed_rate_strategy())
def test_witness_on_any_printed_rate_keeps_the_exit_contract(rate):
    with tempfile.TemporaryDirectory() as directory:
        code, err = run_rate_file(directory, rate, ["witness", "--steps", "3"])
    assert code in (cli.EXIT_OK, cli.EXIT_INPUT_ERROR, cli.EXIT_WITNESS_FIRED)
    assert err.count("\n") <= 1


@pytest.mark.parametrize(
    "rate, argv",
    [(DEEP_FORMS[form](10 * ratelang._MAX_DEPTH), ["witness"]) for form in sorted(DEEP_FORMS)]
    + [("1 - 1e999*t", ["witness"]), ("1e300*t", ["lyapunov", "--mode", "qr", "--horizon", "1"])],
    ids=[f"deep-{form}" for form in sorted(DEEP_FORMS)] + ["literal-overflow", "qr-step-budget"],
)
def test_bad_rate_exits_2_with_one_line(tmp_path, rate, argv):
    code, err = run_rate_file(tmp_path, rate, argv)
    assert code == cli.EXIT_INPUT_ERROR
    assert err.startswith("error: ")
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# classical
# ---------------------------------------------------------------------------

def test_classical_rates_list(capsys):
    code = cli.main(["classical", "--rates", "1,2,3"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert "classical rates: 0 1 2 3" in out
    assert "unconstrained" in out


def test_classical_no_quantum_style_bound(capsys):
    code = cli.main(["classical", "--rates", "10,0.1"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert "10" in out


def test_classical_negative_rate(capsys):
    assert cli.main(["classical", "--rates", "1,-2"]) == cli.EXIT_INPUT_ERROR
    capsys.readouterr()


def test_classical_file_with_bad_column_sums(tmp_path, capsys):
    path = tmp_path / "k.json"
    path.write_text(json.dumps({"k": [[-1.0, 0.0], [0.5, 0.0]]}))
    assert cli.main(["classical", str(path)]) == cli.EXIT_INPUT_ERROR
    capsys.readouterr()


def test_classical_valid_file(tmp_path, capsys):
    path = tmp_path / "k.json"
    path.write_text(json.dumps({"k": [[-1.0, 0.0], [1.0, 0.0]]}))
    code = cli.main(["classical", str(path)])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert "classical rates: 0 1" in out
