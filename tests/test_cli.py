import json
import os

import numpy as np
import pytest

from gkls_rates import cli, generator as g, witness
from gkls_rates.errors import SchemaError


def write_generator_file(path, gen, label=None):
    doc = {
        "dim": gen.dim,
        "hamiltonian": [
            [[float(z.real), float(z.imag)] for z in row] for row in gen.hamiltonian
        ],
        "channels": [
            {
                "rate": (
                    cli_rate(ch)
                ),
                "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in ch.op],
            }
            for ch in gen.channels
        ],
    }
    if label:
        doc["label"] = label
    path.write_text(json.dumps(doc))
    return path


def cli_rate(ch):
    from gkls_rates import ratelang

    if ch.time_dependent:
        return ratelang.to_string(ch.rate)
    return float(ch.rate)


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
    for a, b in zip(loaded.channels, gen.channels):
        assert np.allclose(a.op, b.op)


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
    ],
    ids=["steps-0", "t1-negative", "horizon-negative", "qr-horizon-0", "horizon-inf",
         "horizon-nan", "qr-horizon-inf", "t0-nan", "t1-inf"],
)
@pytest.mark.filterwarnings("error")  # a numpy warning would print a second line
def test_bad_numeric_input_exits_2_with_one_line(argv, capsys):
    assert cli.main(argv) == cli.EXIT_INPUT_ERROR
    err = capsys.readouterr().err
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
