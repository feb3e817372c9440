"""Golden CLI contract.

Each command below runs in process through ``cli.main``.  Its exit code,
stdout, stderr and every file it writes must match the record in
``tests/golden/<case>.json``.  Text between numbers must match exactly, so
keys, row counts and messages do; numbers must agree within
``REL_TOL * max(1, |x|)``, and a failure reports the largest deviation.

Paths are written as ``{out}`` (a fresh output directory) and ``{inputs}``
(``tests/golden/inputs``, the checked-in generator files) in the argument
lists and in the records.  Re-record every case with

    PYTHONPATH=src python tests/test_golden.py

and list each regenerated file, the reason and its largest deviation in
CHANGES.md.  The input files were written once: two from the seeded builders
of ``perfbench/inputs.py``, and ``analyze-noncanonical-d3.json`` from the seeded
draw of ``_write_analyze_input``; the recorder writes them again only when
missing.  ``rate-overflow.json`` is written by hand.
"""

import contextlib
import io
import json
import re
import sys
import warnings
from pathlib import Path

import pytest

from gkls_rates import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"
REL_TOL = 1e-12
NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")

CASES = {}
for _p in ("eternal_nm", "dephasing", "amplitude_damping", "paper_qubit"):
    CASES[f"analyze-{_p}"] = ["analyze", _p, "--json", "{out}/analyze.json"]
for _p in ("eternal_nm", "dephasing", "paper_qubit"):
    CASES[f"witness-{_p}"] = ["witness", _p, "--json", "{out}/witness.json"]
CASES["analyze-noncanonical-d3"] = [
    "analyze", "{inputs}/analyze-noncanonical-d3.json", "--json", "{out}/analyze.json"
]
CASES["witness-noncanonical-d3"] = [
    "witness", "{inputs}/noncanonical-d3.json", "--json", "{out}/witness.json"
]
for _p in ("dephasing", "amplitude_damping", "paper_qubit"):
    for _m in ("backward", "qr"):
        CASES[f"lyapunov-{_p}-{_m}"] = ["lyapunov", _p, "--mode", _m, "--csv", "{out}/windows.csv"]
CASES["lyapunov-td-qubit-qr"] = [
    "lyapunov", "{inputs}/td-qubit.json", "--mode", "qr", "--horizon", "20",
    "--csv", "{out}/windows.csv",
]
for _d in (2, 3, 4, 5):
    CASES[f"sweep-d{_d}"] = ["sweep", "--dim", str(_d), "--count", "200", "--csv", "{out}/sweep.csv"]
CASES["classical-rates"] = ["classical", "--rates", "1,2,3", "--csv", "{out}/classical.csv"]
# the bad-input cases of test_cli.test_bad_numeric_input_exits_2_with_one_line
for _id, _argv in {
    "steps-0": ["witness", "eternal_nm", "--steps", "0"],
    "t1-negative": ["witness", "eternal_nm", "--t1", "-1"],
    "horizon-negative": ["lyapunov", "dephasing", "--horizon", "-1"],
    "qr-horizon-0": ["lyapunov", "dephasing", "--mode", "qr", "--horizon", "0"],
    "horizon-inf": ["lyapunov", "dephasing", "--horizon", "inf"],
    "horizon-nan": ["lyapunov", "dephasing", "--horizon", "nan"],
    "qr-horizon-inf": ["lyapunov", "dephasing", "--mode", "qr", "--horizon", "inf"],
    "t0-nan": ["witness", "dephasing", "--t0", "nan"],
    "t1-inf": ["witness", "eternal_nm", "--t1", "inf"],
    "rates-empty": ["classical", "--rates", ","],
    "rates-inf": ["classical", "--rates", "inf,1"],
    "horizon-huge": ["lyapunov", "dephasing", "--horizon", "1e300"],
    "rates-empty-field": ["classical", "--rates", "1,,2"],
    "rates-blank-trailing-field": ["classical", "--rates", "1,2, "],
    "input-directory": ["analyze", "{out}"],
    "output-directory": ["analyze", "dephasing", "--json", "{out}"],
    "csv-directory": ["lyapunov", "dephasing", "--csv", "{out}"],
}.items():
    CASES[f"bad-{_id}"] = _argv
# a rate literal that overflows to inf is a syntax error at the literal
CASES["bad-rate-overflow"] = ["witness", "{inputs}/rate-overflow.json"]


def run_case(argv, out_dir):
    """Exit code, stdout, stderr and written files of one command, paths as placeholders."""
    places = {"{out}": str(out_dir), "{inputs}": str(INPUTS)}
    argv = [arg.replace("{out}", places["{out}"]).replace("{inputs}", places["{inputs}"])
            for arg in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv)

    def unplace(text):
        for mark, path in places.items():
            text = text.replace(path, mark)
        return text

    files = {p.name: unplace(p.read_text()) for p in sorted(out_dir.iterdir())}
    return {"exit": code, "stdout": unplace(stdout.getvalue()),
            "stderr": unplace(stderr.getvalue()), "files": files}


def _lines(record):
    """The record with every text split into lines, as stored."""
    return {
        "exit": record["exit"],
        "stdout": record["stdout"].split("\n"),
        "stderr": record["stderr"].split("\n"),
        "files": {name: text.split("\n") for name, text in record["files"].items()},
    }


def _texts(record):
    """(where, text) pairs of a record: stdout, stderr, then each file by name."""
    yield "stdout", record["stdout"]
    yield "stderr", record["stderr"]
    for name in sorted(record["files"]):
        yield f"file {name}", record["files"][name]


def deviations(got, want):
    """Mismatches of text and the largest relative deviation of numbers, with its place."""
    problems = []
    if got["exit"] != want["exit"]:
        problems.append(f"exit code {got['exit']} != {want['exit']}")
    if sorted(got["files"]) != sorted(want["files"]):
        problems.append(f"files {sorted(got['files'])} != {sorted(want['files'])}")
    worst = (0.0, "")
    for (where, g), (_, w) in zip(_texts(got), _texts(want)):
        g_nums, w_nums = NUMBER.findall(g), NUMBER.findall(w)
        if NUMBER.split(g) != NUMBER.split(w) or len(g_nums) != len(w_nums):
            problems.append(f"{where}: text differs from the record")
            continue
        for k, (a, b) in enumerate(zip(g_nums, w_nums)):
            dev = abs(float(a) - float(b)) / max(1.0, abs(float(b)))
            if dev > worst[0]:
                worst = (dev, f"{where}, number {k}: {a} vs {b}")
    return problems, worst


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_matches_golden_record(case, tmp_path):
    stored = json.loads((GOLDEN / f"{case}.json").read_text())
    want = {
        "exit": stored["exit"],
        "stdout": "\n".join(stored["stdout"]),
        "stderr": "\n".join(stored["stderr"]),
        "files": {name: "\n".join(lines) for name, lines in stored["files"].items()},
    }
    problems, (dev, where) = deviations(run_case(CASES[case], tmp_path), want)
    assert not problems, problems
    assert dev <= REL_TOL, f"largest deviation {dev:.3e} at {where}"


def _write_inputs():
    """The two generator files, from the seeded builders of the benchmark harness."""
    sys.path.insert(0, str(GOLDEN.parent.parent / "perfbench"))
    import inputs
    import oracle

    INPUTS.mkdir(parents=True, exist_ok=True)
    # witness kind 5 is noncanonical-d3 and flow kind 4 is lyap-qr-td, both seed 5
    witness = inputs.witness_item(5, 5, INPUTS, oracle)
    flow = inputs.flow_item(5, 4, INPUTS, oracle)
    inputs.write_spec(witness["spec"], INPUTS / "noncanonical-d3.json")
    inputs.write_spec(flow["spec"], INPUTS / "td-qubit.json")
    for scratch in INPUTS.glob("*-0-*.json"):
        scratch.unlink()


def _write_analyze_input():
    """Autonomous d = 3 file for ``analyze``: positive rates, and noise operators
    with identity parts and a non-orthonormal Gram matrix, from seed 3."""
    sys.path.insert(0, str(GOLDEN.parent.parent / "perfbench"))
    import inputs
    import numpy as np

    rng = np.random.default_rng(3)
    ops = [rng.standard_normal((3, 3)) + 1.0j * rng.standard_normal((3, 3)) for _ in range(3)]
    a = rng.standard_normal((3, 3)) + 1.0j * rng.standard_normal((3, 3))
    spec = {
        "h": (a + a.conj().T) / 2.0,
        "ops": [op + (k + 1) * 0.5 * np.eye(3) for k, op in enumerate(ops)],
        "rates": [("const", (r,)) for r in (0.4, 0.9, 0.25)],
        "label": "analyze-noncanonical-d3",
    }
    INPUTS.mkdir(parents=True, exist_ok=True)
    inputs.write_spec(spec, INPUTS / "analyze-noncanonical-d3.json")


def record():
    import tempfile

    if not (INPUTS / "noncanonical-d3.json").exists():
        _write_inputs()
    if not (INPUTS / "analyze-noncanonical-d3.json").exists():
        _write_analyze_input()
    for case, argv in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            result = run_case(argv, Path(tmp))
        (GOLDEN / f"{case}.json").write_text(json.dumps(_lines(result), indent=1) + "\n")
        print(f"recorded {case}: exit {result['exit']}")


if __name__ == "__main__":
    record()
