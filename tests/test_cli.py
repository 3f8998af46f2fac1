"""The command-line front end against the library calls it wraps."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from hamosc import cli, coefsys, criteria, mat2, odeint
from oracles import phi_psi_at


@pytest.mark.parametrize(
    "command, options",
    [
        ("analyze", {"sign_convention": "bogus"}),
        ("analyze", {"n_min": "5"}),
        ("verify", {"n_starts": 0}),
        ("verify", {"sim_window": [5, 1]}),
    ],
)
def test_bad_option_value_exits_2(tmp_path, capsys, command, options):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"family": "harmonic", "window": [0.0, 10.0], "options": options}))
    assert cli.main([command, str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "entry",
    [
        {"options": [1, 2]},
        {"options": 5},
        {"params": [1]},
        {"params": 5},
        {"params": {"c": None}},
        {"params": {"c": True}},
        {"window": [True, 10.0]},
        {"table_csv_path": 5},
    ],
)
def test_malformed_scenario_file_exits_2(tmp_path, capsys, entry):
    # each once escaped load_scenario_file as a TypeError or
    # AttributeError, or was read as the number 1
    doc = {"family": "euler", "params": {"c": 2.0}, "window": [1.0, 10.0], **entry}
    if "table_csv_path" in entry:
        del doc["family"], doc["params"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["analyze", str(path)]) == 2
    assert re.fullmatch(r"error: [^\n]+\n", capsys.readouterr().err)


def test_analyze_exits_0_on_a_drift_near_underflow(tmp_path, capsys):
    # a11 = 1e-160 makes |det M| and TOL_RANK sigma_1^2 underflow in the
    # reduction's pseudo-inverse, which then divided by det = 0
    path = tmp_path / "tiny.json"
    params = {"b1": 1, "b2": 1, "a11": 1e-160, "c11": -1, "c22": -1}
    path.write_text(json.dumps({"family": "diag_B", "params": params, "window": [0.0, 10.0]}))
    assert cli.main(["analyze", str(path)]) == 0
    assert capsys.readouterr().err == "tiny.json: Inconclusive\n"


def test_analyze_exits_2_on_b_not_hermitian_between_samples(capsys, monkeypatch):
    # B has a non-Hermitian bump of width 2e-4 midway between validation
    # samples 127 and 128: validation passes, and the PSD reduction's
    # per-stage Hermitian check is the one that sees it
    window = (0.0, 4.0)
    grid = np.linspace(*window, 256)
    tp = 0.5 * (grid[127] + grid[128])

    def bump(t):
        return 0.5 * np.exp(-(((t - tp) / 2e-4) ** 2))

    def ev(t):
        b = np.array([[1.5 + 0.5 * np.sin(t), bump(t)], [0.0, 1.0]], complex)
        return np.zeros((2, 2), complex), b, -4.0 * np.eye(2, dtype=complex)

    def dv(t):
        db = np.array([[0.5 * np.cos(t), -2.0 * (t - tp) / 4e-8 * bump(t)], [0.0, 0.0]], complex)
        return np.zeros((2, 2), complex), db, np.zeros((2, 2), complex)

    s = coefsys.Scenario(name="bump", t0=0.0, eval=ev, analytic_derivatives=dv)
    loaded = (s, window, criteria.AnalysisOptions(), {"name": "bump"})
    monkeypatch.setattr(cli, "load_scenario_file", lambda arg: loaded)
    assert cli.main(["analyze", "bump"]) == 2
    assert re.fullmatch(r"error: B\(.+\) is not Hermitian \(asymmetry .+\)\n", capsys.readouterr().err)


def test_seed_environment_variable_is_not_an_option(tmp_path, monkeypatch):
    # the seed has one spelling, the file's option
    path = tmp_path / "seeded.json"
    path.write_text(json.dumps({"family": "harmonic", "window": [0.0, 10.0], "options": {"seed": 7}}))
    monkeypatch.setenv("HAMOSC_SEED", "99")
    _, _, options, _ = cli.load_scenario_file(str(path))
    assert options.seed == 7


@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_negative_start_count_exits_2(tmp_path, capsys, command):
    path = tmp_path / "harmonic.json"
    path.write_text(json.dumps({"family": "harmonic", "window": [0.0, 10.0]}))
    with pytest.raises(SystemExit) as exc:
        cli.main([command, str(path), "--starts", "-1"])
    assert exc.value.code == 2
    assert "--starts: must be >= 0" in capsys.readouterr().err


def test_simulate_prints_the_cross_validation_zero_counts(tmp_path, capsys):
    path = tmp_path / "harmonic.json"
    path.write_text(json.dumps({"family": "harmonic", "window": [0.0, 10.0]}))
    assert cli.main(["simulate", str(path), "--starts", "3"]) == 0
    out = capsys.readouterr().out
    printed = dict(re.findall(r"^start \((.+)\): (\d+) det-zero", out, re.M))
    # det Phi = cos^2 t and 2 sin^2(t + pi/4) for the first two starts: double zeros
    assert re.findall(r"multiplicity (\d)", out) == ["2"] * 6 + ["1"] * 6

    opt = criteria.AnalysisOptions()
    cv = criteria.cross_validate(
        coefsys.make_family("harmonic", {}), (0.0, 10.0), n_starts=3, seed=opt.seed
    )
    assert {r.label: str(len(r.zeros)) for r in cv.starts} == printed
    assert list(printed) == ["I,0", "I,I", "rand0"]


def test_simulate_csv_reads_det_phi_at_the_window_end(tmp_path, capsys):
    # the dense output at the window end is the last step's state before
    # its renormalization, so it must carry the scale from before it too
    path = tmp_path / "euler.json"
    path.write_text(json.dumps({"family": "euler", "params": {"c": 2.5}, "window": [1.0, 100.0]}))
    out = tmp_path / "det.csv"
    assert cli.main(["simulate", str(path), "--csv", str(out)]) == 0
    header, *rows = out.read_text().splitlines()
    last = dict(zip(header.split(","), map(float, rows[-1].split(","))))
    assert last["t"] == 100.0

    eye = np.eye(2, dtype=complex)
    plain = odeint.solve_hamiltonian(
        coefsys.make_family("euler", {"c": 2.5}), eye, 0 * eye, (1.0, 100.0)
    )
    expected = abs(mat2.det2(phi_psi_at(plain, 100.0)[0]))
    assert abs(last["abs_det"] - expected) <= 1e-6 * expected
