import argparse
import csv
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from conftest import random_density
from efftemp import cli
from efftemp.cli import build_parser, main
from efftemp.thermal import gibbs_by_beta, gibbs_populations

ROTATED_QUTRIT_DIAG = ((4 + math.sqrt(2)) / 12, (4 - 2 * math.sqrt(2)) / 12, (4 + math.sqrt(2)) / 12)
ROTATED_QUTRIT_BETA = math.log(5 / 2 + 3 / math.sqrt(2))


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def gibbs_file(tmp_path):
    pops = gibbs_by_beta([0.0, 1.0, 2.0], 0.9).populations
    return write_json(
        tmp_path / "gibbs.json", {"energies": [0.0, 1.0, 2.0], "populations": pops.tolist()}
    )


@pytest.fixture
def rotated_qutrit_file(tmp_path):
    return write_json(
        tmp_path / "rotated_qutrit.json",
        {"energies": [0, 1, 2], "populations": list(ROTATED_QUTRIT_DIAG)},
    )


@pytest.fixture
def mixed_qubit_file(tmp_path):
    return write_json(tmp_path / "half.json", {"energies": [0, 1], "populations": [0.5, 0.5]})


# a child whose stdout is buffered, as it is by default for a pipe: with
# PYTHONUNBUFFERED set, a missing flush in cli._emit would go unseen
BUFFERED_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else {}
    return code, report


class TestSingle:
    def test_gibbs_collapses(self, capsys, gibbs_file):
        code, report = run_cli(capsys, "single", gibbs_file)
        assert code == 0 and report["status"] == 0
        assert report["results"]["beta_c"] == pytest.approx(0.9, abs=1e-10)
        assert report["results"]["beta_h"] == pytest.approx(0.9, abs=1e-10)
        assert report["input_digest"].startswith("sha256:")

    def test_an_exponentially_small_excited_population(self, capsys, tmp_path):
        # a mean of 1e-100 meets the energy residual bound at any beta above
        # about 28; beta_star is the root 100 ln 10
        path = write_json(tmp_path / "tail.json", {"energies": [0, 1], "populations": [1, 1e-100]})
        code, report = run_cli(capsys, "single", path)
        assert code == 0
        assert report["results"]["beta_star"] == pytest.approx(100 * math.log(10), rel=1e-13)

    def test_rotated_qutrit_values(self, capsys, rotated_qutrit_file):
        code, report = run_cli(capsys, "single", rotated_qutrit_file)
        assert code == 0
        assert report["results"]["beta_c"] == pytest.approx(ROTATED_QUTRIT_BETA, abs=1e-9)
        assert report["results"]["beta_h"] == pytest.approx(-ROTATED_QUTRIT_BETA, abs=1e-9)
        assert len(report["results"]["vts"]) == 3

    def test_invalid_trace_exits_1(self, capsys, tmp_path):
        path = write_json(tmp_path / "bad.json", {"energies": [0, 1], "populations": [0.5, 0.4]})
        code, report = run_cli(capsys, "single", path)
        assert code == 1 and report["status"] == 1
        assert "error" in report

    def test_malformed_json_exits_1(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, report = run_cli(capsys, "single", str(path))
        assert code == 1

    @pytest.mark.parametrize(
        "doc",
        [
            {"energies": "abc", "populations": [0.5, 0.5]},
            {"energies": [0, 1], "populations": ["x", 1]},
            {"energies": [0, 1], "rho_re": [[0.5, 0.0], [0.0]]},
        ],
        ids=["energies", "population", "ragged-rho"],
    )
    def test_non_numeric_input_exits_1(self, capsys, tmp_path, doc):
        path = write_json(tmp_path / "bad.json", doc)
        code, report = run_cli(capsys, "single", path)
        assert code == 1 and report["status"] == 1
        assert "numeric" in report["error"]

    @pytest.mark.parametrize(
        "doc",
        [
            {"energies": [False, True], "populations": [True, False]},
            {"energies": [0, 1], "populations": [True, 0.0]},
            {"energies": [0, 1], "rho_re": [[0.5, 0.0], [False, 0.5]]},
        ],
        ids=["all-boolean", "mixed-list", "rho-entry"],
    )
    def test_boolean_input_exits_1(self, capsys, tmp_path, doc):
        path = write_json(tmp_path / "bool.json", doc)
        code, report = run_cli(capsys, "single", path)
        assert code == 1 and report["status"] == 1
        assert "must be numeric, not boolean" in report["error"]

    @pytest.mark.parametrize("field,text", [
        ("energies", '{"energies": [0, %s], "populations": [0.5, 0.5]}'),
        ("populations", '{"energies": [0, 1], "populations": [%s, 0.5]}'),
        ("rho_re", '{"energies": [0, 1], "rho_re": [[0.5, %s], [0, 0.5]]}'),
        ("rho_im", '{"energies": [0, 1], "rho_re": [[0.5, 0], [0, 0.5]], '
                   '"rho_im": [[0, %s], [0, 0]]}'),
    ])
    def test_an_integer_past_the_float_range_exits_1(self, capsys, tmp_path, field, text):
        # valid JSON: the decoder reads the literal as a Python int, which no float holds
        path = tmp_path / "big.json"
        path.write_text(text % ("1" + "0" * 400))
        code = main(["single", str(path)])
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert code == 1 and report["status"] == 1 and captured.err == ""
        error = f"{path}: {field} must be numeric: int too large to convert to float"
        assert report["error"] == error

    def test_vts_csv_roundtrip(self, capsys, rotated_qutrit_file, tmp_path):
        out = tmp_path / "vts.csv"
        code, report = run_cli(capsys, "single", rotated_qutrit_file, "--out", str(out))
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["i", "j", "beta_ij"]
        parsed = [[float(v) for v in row] for row in rows[1:]]
        assert len(parsed) == 3

    def test_kelvin_flag(self, capsys, gibbs_file):
        code, report = run_cli(capsys, "single", gibbs_file, "--kelvin")
        assert code == 0
        assert report["results"]["kelvin"]["beta_c"] == pytest.approx(1 / 0.9, abs=1e-6)
        assert any("Kelvin" in w for w in report["warnings"])

    def test_rho_form_with_coherences(self, capsys, tmp_path):
        doc = {
            "energies": [0, 1],
            "rho_re": [[0.6, 0.2], [0.2, 0.4]],
            "rho_im": [[0.0, 0.1], [-0.1, 0.0]],
        }
        code, report = run_cli(capsys, "single", write_json(tmp_path / "rho.json", doc))
        assert code == 0
        assert report["results"]["beta_c"] == pytest.approx(math.log(1.5), rel=1e-10)


class TestDeterminism:
    def test_byte_identical_reports(self, capsys, rotated_qutrit_file):
        main(["single", rotated_qutrit_file])
        first = capsys.readouterr().out
        main(["single", rotated_qutrit_file])
        second = capsys.readouterr().out
        assert first == second

    def test_seeded_oracle_deterministic(self, capsys, gibbs_file):
        args = ["oracle", gibbs_file, "--beta-bath", "0.9", "--random", "5", "--seed", "7"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second


class TestAsymptotic:
    def test_mixed_qubit_value(self, capsys, mixed_qubit_file):
        code, report = run_cli(capsys, "asymptotic", mixed_qubit_file, "--delta", "0.1")
        assert code == 0
        assert report["results"]["beta_c"] == pytest.approx(-0.2014, abs=5e-5)

    def test_gibbs_converges(self, capsys, gibbs_file):
        code, report = run_cli(capsys, "asymptotic", gibbs_file, "--delta", "1e-3")
        assert code == 0
        assert abs(report["results"]["beta_c"] - 0.9) < 1e-2
        assert abs(report["results"]["beta_h"] - 0.9) < 1e-2

    def test_bracket_violation_exits_2(self, capsys, mixed_qubit_file):
        code, report = run_cli(capsys, "asymptotic", mixed_qubit_file, "--delta", "0.7")
        assert code == 2 and report["status"] == 2

    def test_null_population_exits_1(self, capsys, tmp_path):
        # JSON null becomes NaN, which must fail validation, not the solver
        path = write_json(tmp_path / "null.json", {"energies": [0, 1], "populations": [None, 1]})
        code, report = run_cli(capsys, "asymptotic", path, "--delta", "0.1")
        assert code == 1 and report["status"] == 1
        assert "finite" in report["error"]

    def test_expansion_diagonalizes_the_state_once(self, capsys, tmp_path, monkeypatch):
        # the loaded state's validation computes its spectrum, and S(rho) is
        # read from it once and shared by the report, both branches and the
        # expansion
        rho = random_density(np.random.default_rng(64), 64)
        path = write_json(
            tmp_path / "rho64.json",
            {"energies": list(range(64)), "rho_re": rho.real.tolist(),
             "rho_im": rho.imag.tolist()},
        )
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        code, report = run_cli(capsys, "asymptotic", path, "--delta", "0.5", "--expansion")
        assert code == 0
        assert calls == [(64, 64)]

    def test_expansion_block(self, capsys, mixed_qubit_file):
        code, report = run_cli(
            capsys, "asymptotic", mixed_qubit_file, "--delta", "0.05", "--expansion"
        )
        assert code == 0
        exp = report["results"]["expansion"]
        assert exp["beta_c"] == pytest.approx(-0.1, abs=1e-9)  # -delta/(2*Var), Var=1/4
        assert exp["beta_star"] == pytest.approx(0.0, abs=1e-10)


class TestOracle:
    def test_gibbs_at_own_temperature(self, capsys, gibbs_file):
        code, report = run_cli(capsys, "oracle", gibbs_file, "--beta-bath", "0.9")
        assert code == 0
        r = report["results"]
        assert abs(r["max_energy_gain"]) <= 1e-9
        assert r["can_cool"] is False and r["can_heat"] is False
        assert r["agreement"] is True
        code, report = run_cli(capsys, "oracle", gibbs_file, "--beta-bath", "0.5")
        assert code == 0
        r = report["results"]
        assert r["can_cool"] is True and r["can_heat"] is False
        assert r["agreement"] is True

    def test_a_zero_loss_prints_without_a_sign(self, capsys, mixed_qubit_file):
        code, report = run_cli(capsys, "oracle", mixed_qubit_file, "--beta-bath", "0")
        loss = report["results"]["max_energy_loss"]
        assert code == 0 and loss == 0.0 and math.copysign(1.0, loss) == 1.0

    def test_tie_at_the_bath_temperature_agrees(self, capsys, tmp_path):
        # beta_c and beta_h differ from the bath's 0.8 only by rounding
        energies = [0.0, 0.7, 1.3, 2.1]
        path = write_json(
            tmp_path / "tie.json",
            {"energies": energies, "populations": gibbs_populations(energies, 0.8).tolist()},
        )
        code, report = run_cli(capsys, "oracle", path, "--beta-bath", "0.8")
        assert code == 0
        r = report["results"]
        assert r["can_cool"] is False and r["can_heat"] is False
        assert r["predicted_cool"] is False and r["predicted_heat"] is False
        assert r["agreement"] is True

    def test_random_trials_agree(self, capsys, gibbs_file):
        code, report = run_cli(
            capsys, "oracle", gibbs_file, "--beta-bath", "0.2", "--random", "20",
            "--seed", "99",
        )
        assert code == 0
        trials = report["results"]["random_trials"]
        assert trials["cases"] == 100
        assert trials["disagreements"] == 0
        assert trials["max_polytope_residual"] <= 1e-9

    def test_random_without_seed_exits_1(self, capsys, gibbs_file):
        code, report = run_cli(
            capsys, "oracle", gibbs_file, "--beta-bath", "0.2", "--random", "5"
        )
        assert code == 1

    @pytest.mark.parametrize(
        "flags,named",
        [
            (("--random", "1", "--seed", "-4"), "--seed"),
            (("--random", "-5", "--seed", "3"), "--random"),
            (("--seed", "-1"), "--seed"),
        ],
    )
    def test_negative_count_or_seed_exits_1_with_a_report(self, capsys, gibbs_file, flags, named):
        code = main(["oracle", gibbs_file, "--beta-bath", "0.2", *flags])
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert code == 1 and report["status"] == 1
        assert report["error"].startswith(f"{named} must be a non-negative integer")
        assert "results" not in report
        assert captured.err == ""

    def test_random_past_the_cap_exits_1_before_any_trial(self, capsys, gibbs_file, monkeypatch):
        def no_trials(*args):
            raise AssertionError("trials started")

        monkeypatch.setattr(cli.oracle, "equivalence_trials", no_trials)
        cap = cli._MAX_RANDOM_SYSTEMS
        for value in (cap + 1, 10**9):
            code = main(["oracle", gibbs_file, "--beta-bath", "0.2", "--random", str(value),
                         "--seed", "1"])
            captured = capsys.readouterr()
            report = json.loads(captured.out)
            assert code == 1 and report["status"] == 1
            assert report["error"] == f"--random must be at most {cap}, got {value}"
            assert "results" not in report
            assert captured.err == ""

    def test_zero_random_systems(self, capsys, gibbs_file):
        code, report = run_cli(
            capsys, "oracle", gibbs_file, "--beta-bath", "0.2", "--random", "0", "--seed", "3"
        )
        assert code == 0
        assert report["results"]["random_trials"] == {
            "systems": 0, "baths_per_system": 5, "seed": 3, "cases": 0, "disagreements": 0,
            "max_polytope_residual": 0.0,
        }

    @pytest.mark.parametrize("beta_bath", ["30", "-30", "800", "-800", "1e308", "-1e308"])
    def test_cold_and_hot_baths_agree_quietly(self, capsys, tmp_path, beta_bath):
        # beta_c = log(5/3), beta_h = log(3/2): a cold bath can only be
        # heated by the state, a hot one only cooled
        path = write_json(
            tmp_path / "pinned.json", {"energies": [0, 1, 2], "populations": [0.5, 0.3, 0.2]}
        )
        code = main(["oracle", path, f"--beta-bath={beta_bath}", "--random", "200", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        r = json.loads(captured.out)["results"]
        cold = float(beta_bath) > 0
        assert (r["can_cool"], r["can_heat"]) == (not cold, cold)
        assert r["agreement"] is True
        assert r["random_trials"]["disagreements"] == 0
        assert r["max_energy_gain"] == pytest.approx(0.0 if cold else 1.3, abs=1e-12)
        assert r["max_energy_loss"] == pytest.approx(0.7 if cold else 0.0, abs=1e-12)

    @pytest.mark.parametrize("beta_bath", ["25", "30", "-25", "800", "1e308"])
    def test_an_empty_top_level_agrees_quietly(self, capsys, tmp_path, beta_bath):
        # beta_c = +inf: the state takes energy from any bath, at beta 25 by
        # 6.9e-12, below SIGN_MARGIN, and at 800 by less than a float
        path = write_json(
            tmp_path / "empty.json", {"energies": [0, 1, 2], "populations": [0.5, 0.5, 0.0]}
        )
        code = main(["oracle", path, f"--beta-bath={beta_bath}"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        r = json.loads(captured.out)["results"]
        assert r["can_cool"] is True and r["predicted_cool"] is True
        assert r["agreement"] is True
        if beta_bath == "25":
            assert r["max_energy_gain"] == pytest.approx(0.5 * math.exp(-25.0), rel=1e-6)

    def test_dimension_cap_exits_1(self, capsys, tmp_path):
        path = write_json(
            tmp_path / "big.json",
            {"energies": list(range(7)), "populations": [1 / 7] * 7},
        )
        code, report = run_cli(capsys, "oracle", path, "--beta-bath", "1.0")
        assert code == 1
        assert "cap" in report["error"]


class TestJC:
    @pytest.mark.parametrize("fock,steps", [(None, 100), (32, 300)])
    def test_short_run_csv(self, capsys, tmp_path, fock, steps):
        out = tmp_path / "series.csv"
        argv = ["jc", "--steps", str(steps), "--out", str(out)]
        argv += [] if fock is None else ["--fock", str(fock)]
        start = time.perf_counter()
        code, report = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 60
        assert code == 0
        r = report["results"]
        assert r["fixed_point_residual"] < 1e-10
        assert r["samples"] == steps + 1
        # the atom returns at tau, and the uniform superposition over d Fock
        # levels starts with an l1 coherence of d - 1
        assert r["atom_distance_at_tau"] <= 1e-9
        assert abs(r["cavity_coherence_initial"] - ((fock or 3) - 1)) <= 1e-12
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,beta_c_A,beta_h_A,beta_c_R,beta_h_R,atom_distance,cavity_coherence"
        assert len(lines) == 1 + steps + 1  # header + steps + 1 samples
        for line in lines[1:]:
            values = [float(v) for v in line.split(",")]
            assert len(values) == 7

    def test_default_run_hits_catalyst_return(self, capsys):
        code, report = run_cli(capsys, "jc")
        assert code == 0
        r = report["results"]
        assert r["atom_distance_at_tau"] < 1e-6
        assert r["cavity_coherence_at_tau"] < r["cavity_coherence_initial"]
        assert abs(r["cavity_beta_c_initial"]) < 1e-12
        assert r["samples"] == 601

    def test_zero_coupling_constant_columns(self, capsys, tmp_path):
        out = tmp_path / "flat.csv"
        code, report = run_cli(capsys, "jc", "--g", "0", "--steps", "50", "--out", str(out))
        assert code == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        for col in (1, 2, 3, 4):
            assert np.ptp(rows[:, col]) <= 1e-10

    def test_bad_fock_exits_1(self, capsys):
        code, report = run_cli(capsys, "jc", "--fock", "1")
        assert code == 1

    @pytest.mark.parametrize("omega", ["inf", "nan", "0", "-1", "1e-300", "1e308"])
    def test_bad_omega_exits_1_quietly(self, capsys, omega):
        # rejected by the config, before any numpy warning or solve
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["jc", f"--omega={omega}", "--steps", "10"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        assert "omega" in json.loads(captured.out)["error"]


    @pytest.mark.parametrize("arg,field", [
        ("--tau=inf", "tau"), ("--tau=1e308", "tau"), ("--g=inf", "g"), ("--g=-inf", "g"),
    ])
    def test_bad_tau_or_g_exits_1_quietly(self, capsys, arg, field):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["jc", arg, "--steps", "10"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        assert re.search(rf"\b{field}\b", json.loads(captured.out)["error"])


class TestQutritCatalyst:
    def test_default_run(self, capsys):
        code, report = run_cli(capsys, "qutrit-catalyst", "--lambda", "1", "--beta", "0")
        assert code == 0
        r = report["results"]
        assert r["beta_c"] == pytest.approx(ROTATED_QUTRIT_BETA, abs=1e-9)
        assert r["catalyst_residual"] < 1e-9
        assert r["reference_frame_distance"] < 1e-9

    def test_lambda_zero_no_advantage(self, capsys):
        code, report = run_cli(capsys, "qutrit-catalyst", "--lambda", "0", "--beta", "0")
        assert code == 0
        assert abs(report["results"]["beta_c"]) < 1e-10

    def test_sweep_csv(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, report = run_cli(
            capsys, "qutrit-catalyst", "--beta", "0", "--sweep", "--out", str(out)
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["lambda", "beta_c", "beta_h", "catalyst_residual"]
        assert len(rows) == 1 + 41
        values = np.array([[float(v) for v in row] for row in rows[1:]])
        assert values[0, 0] == 0.0 and values[-1, 0] == 1.0
        # the catalytic window grows with the coherence weight
        assert values[-1, 1] == pytest.approx(ROTATED_QUTRIT_BETA, abs=1e-9)
        assert np.all(np.diff(values[:, 1]) >= -1e-9)

    @pytest.mark.parametrize("beta,copies", [("1.0", 5), ("0.6", 100)])
    def test_copies_table(self, capsys, tmp_path, beta, copies):
        out = tmp_path / "copies.csv"
        start = time.perf_counter()
        code, report = run_cli(
            capsys,
            "qutrit-catalyst", "--lambda", "0.5", "--beta", beta,
            "--copies", str(copies), "--out", str(out),
        )
        assert time.perf_counter() - start < 30
        assert code == 0
        assert len(report["results"]["copies"]) == copies
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows.shape == (copies, 3)
        assert np.all(np.diff(rows[:, 1]) >= -1e-9)  # beta_c broadens
        assert np.all(np.diff(rows[:, 2]) <= 1e-9)  # beta_h broadens

    def test_copies_cap_names_the_requested_count(self):
        # the cap is checked before any row is computed, so this is quick
        proc = subprocess.run(
            [sys.executable, "-m", "efftemp", "qutrit-catalyst", "--lambda", "0.5",
             "--beta", "0.6", "--copies", "1413"],
            capture_output=True, text=True, timeout=5,
        )
        assert (proc.returncode, proc.stderr) == (1, "")
        assert json.loads(proc.stdout)["error"] == (
            "1000405 multisets of 1413 copies of 3 levels exceed the tensor-power cap 1000000")

    def test_sweep_and_copies_conflict(self, capsys):
        code, report = run_cli(
            capsys, "qutrit-catalyst", "--sweep", "--copies", "3"
        )
        assert code == 1

    def test_overflowing_beta_is_quiet_and_exact(self, capsys):
        # beta * e overflows to +inf on the top level: its weight is 0, as at
        # any beta past exp's range, so the results are those of beta = 1e300
        reports = []
        for beta in ("1e308", "1e300"):
            code = main(["qutrit-catalyst", "--lambda", "0.5", f"--beta={beta}"])
            captured = capsys.readouterr()
            assert code == 0 and captured.err == ""
            reports.append(json.loads(captured.out)["results"])
        assert reports[0] == reports[1]

    def test_beta_overflowing_to_minus_inf_exits_1(self, capsys):
        code = main(["qutrit-catalyst", "--lambda", "0.5", "--beta=-1e308"])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        assert "overflows" in json.loads(captured.out)["error"]

    @pytest.mark.parametrize("copies", ["-1", "0"])
    def test_copies_below_one_exits_1(self, capsys, copies):
        code, report = run_cli(capsys, "qutrit-catalyst", f"--copies={copies}")
        assert code == 1
        assert "--copies" in report["error"]
        assert "results" not in report


    MODES = {"plain": [], "sweep": ["--sweep"], "copies": ["--copies", "3"]}

    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("argv,error", [
        (["--beta", "inf"], "beta must be finite"),
        (["--lambda", "-0.1", "--beta", "0.5"], "lambda must lie in [0, 1], got -0.1"),
        (["--lambda", "1.2"], "lambda must lie in [0, 1], got 1.2"),
        (["--lambda=nan"], "lambda must lie in [0, 1], got nan"),
    ])
    def test_every_mode_checks_lambda_and_beta_alike(self, capsys, mode, argv, error):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["qutrit-catalyst", *argv, *self.MODES[mode]])
        captured = capsys.readouterr()
        assert (code, captured.err) == (1, "")
        report = json.loads(captured.out)
        assert report["status"] == 1 and report["error"] == error

    @pytest.mark.parametrize("beta", ["0", "0.37", "-0.8"])
    def test_sweep_rows_are_the_plain_runs(self, capsys, beta):
        code, sweep = run_cli(capsys, "qutrit-catalyst", f"--beta={beta}", "--sweep")
        assert code == 0 and len(sweep["results"]["sweep"]) == 41
        for lam, beta_c, beta_h, residual in sweep["results"]["sweep"][::8]:
            code, plain = run_cli(capsys, "qutrit-catalyst", f"--lambda={lam!r}", f"--beta={beta}")
            r = plain["results"]
            assert code == 0
            assert [beta_c, beta_h, residual] == [r["beta_c"], r["beta_h"], r["catalyst_residual"]]


class TestUsageAndEntryPoint:
    @pytest.mark.parametrize("argv,command,error", [
        ([], None, "the following arguments are required: command"),
        (["bogus"], None, "argument command: invalid choice: 'bogus'"),
        (["single", "--bogus"], "single", "the following arguments are required: path"),
        (["single", "q.json", "--bogus"], "single", "unrecognized arguments: --bogus"),
        (["oracle", "q.json"], "oracle", "the following arguments are required: --beta-bath"),
        (["qutrit-catalyst", "--copies", "1.5"], "qutrit-catalyst",
         "argument --copies: invalid int value: '1.5'"),
    ])
    def test_usage_error_prints_one_report(self, capsys, argv, command, error):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        report = json.loads(captured.out)
        assert set(report) == {"command", "params", "error", "status"}
        assert (report["command"], report["params"], report["status"]) == (command, {}, 1)
        assert report["error"].startswith(error)

    @staticmethod
    def float_options():
        """(subcommand, option, dest) of every float-typed option of the parser."""
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        return [(name, action.option_strings[0], action.dest)
                for name, parser in sorted(sub.choices.items())
                for action in parser._actions if action.type is float]

    def test_the_float_options_are_known(self):
        assert [option[:2] for option in self.float_options()] == [
            ("asymptotic", "--delta"), ("jc", "--omega"), ("jc", "--g"), ("jc", "--tau"),
            ("oracle", "--beta-bath"), ("qutrit-catalyst", "--lambda"),
            ("qutrit-catalyst", "--beta"),
        ]

    @pytest.mark.parametrize("number", [
        "-1e-05", "-2.5E+3", "-.5e1", "-3", "-0.25", "-7.",
        "-inf", "-INF", "-infinity", "-Infinity", "-nan", "-NaN",
    ])
    def test_negative_numbers_in_every_float_form_are_values(self, number):
        for command, option, dest in self.float_options():
            argv = [command] + (["s.json"] if command in ("asymptotic", "oracle") else [])
            args = build_parser().parse_args(argv + [option, number])
            assert repr(getattr(args, dest)) == repr(float(number)), (command, option)

    @pytest.mark.parametrize("number", ["-inf", "-Infinity", "-nan"])
    def test_a_negative_non_finite_value_reaches_its_check(self, capsys, tmp_path, number):
        path = write_json(tmp_path / "s.json", {"energies": [0, 1], "populations": [0.6, 0.4]})
        error = one_failed_report(capsys, ["oracle", path, "--beta-bath", number])
        assert error == "bath inverse temperature must be finite"
        error = one_failed_report(capsys, ["qutrit-catalyst", "--beta", number])
        assert error == "beta must be finite"

    def test_a_negative_exponent_bath_runs(self, capsys, tmp_path):
        path = write_json(tmp_path / "s.json", {"energies": [0, 1], "populations": [0.6, 0.4]})
        code, spaced = run_cli(capsys, "oracle", path, "--beta-bath", "-1e-05")
        assert code == 0 and spaced["results"]["beta_bath"] == -1e-05
        code, joined = run_cli(capsys, "oracle", path, "--beta-bath=-1e-05")
        assert spaced == joined

    def test_a_negative_non_number_is_still_an_option(self, capsys):
        code, report = run_cli(capsys, "qutrit-catalyst", "--beta", "-x")
        assert code == 1 and report["error"] == "argument --beta: expected one argument"

    def test_usage_error_in_a_fresh_process(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "efftemp", "oracle", str(tmp_path / "q.json")],
            capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (1, "")
        assert json.loads(proc.stdout)["command"] == "oracle"

    def test_help_is_not_a_report(self, capsys):
        assert main(["oracle", "-h"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: efftemp oracle") and captured.err == ""

    def test_one_parser_serves_a_sequence_like_fresh_processes(self, capsys, tmp_path):
        doc = {"energies": [0, 1, 2], "populations": [0.5, 0.3, 0.2]}
        path = write_json(tmp_path / "q.json", doc)
        runs = [
            ["single", path, "--kelvin"],
            ["oracle", path, "--beta-bath", "0.5", "--random", "2", "--seed", "4"],
            ["oracle", path],  # no --beta-bath: a usage error
            ["asymptotic", path, "--delta", "0.1", "--expansion"],
            ["oracle", path, "--beta-bath=-30"],
            ["qutrit-catalyst", "--copies", "3"],
            ["jc", "--fock", "2", "--steps", "20"],
            ["single", path],
        ]
        assert build_parser() is build_parser()
        in_process = []
        for argv in runs:
            code = main(argv)
            captured = capsys.readouterr()
            in_process.append((code, captured.out, captured.err))
        for argv, (code, out, err) in zip(runs, in_process):
            # warnings are errors in the child too, and it writes nothing to stderr
            proc = subprocess.run(
                [sys.executable, "-W", "error", "-m", "efftemp", *argv],
                capture_output=True, text=True,
            )
            assert (code, out) == (proc.returncode, proc.stdout)
            assert err == proc.stderr == ""
        assert [code for code, _, _ in in_process] == [0, 0, 1, 0, 0, 0, 0, 0]

    def test_module_entry_point(self, tmp_path):
        path = tmp_path / "q.json"
        path.write_text('{"energies": [0, 1], "populations": [0.8, 0.2]}')
        proc = subprocess.run(
            [sys.executable, "-m", "efftemp", "single", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["results"]["beta_c"] == pytest.approx(math.log(4), rel=1e-10)

    @pytest.mark.parametrize("populations,status", [([0.8, 0.2], 0), ([0.5, 0.4], 1)])
    def test_closed_stdout_exits_with_report_status(self, tmp_path, populations, status):
        path = write_json(tmp_path / "q.json", {"energies": [0, 1], "populations": populations})
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the child writes
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "efftemp", "single", path],
                stdout=write_end,
                stderr=subprocess.PIPE,
                timeout=60,
                env=BUFFERED_ENV,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == status
        assert proc.stderr == b""

    def test_stdout_closed_mid_report_exits_with_report_status(self, tmp_path):
        # a d = 64 report is about 137 KB, more than a pipe holds, so the
        # reader's close lands while the report is being written
        rng = np.random.default_rng(64)
        rho = random_density(rng, 64)
        path = write_json(tmp_path / "d64.json", {
            "energies": np.linspace(0.0, 3.0, 64).tolist(),
            "rho_re": rho.real.tolist(), "rho_im": rho.imag.tolist()})
        proc = subprocess.Popen(
            [sys.executable, "-m", "efftemp", "single", path],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=BUFFERED_ENV,
        )
        try:
            assert proc.stdout.read(5) == b"{\n  \""
            proc.stdout.close()
            assert proc.wait(timeout=60) == 0  # the report's status
            assert proc.stderr.read() == b""
        finally:
            proc.kill()
            proc.stderr.close()


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


class TestExtremeMagnitudesAreQuiet:
    @pytest.mark.parametrize("argv,doc,status,found", [
        (["single"], {"energies": [-1e308, 1e308], "populations": [0.5, 0.5]}, 1, "span"),
        (["asymptotic", "--delta", "0.1"],
         {"energies": [-1e308, 1e308], "populations": [0.5, 0.5]}, 1, "span"),
        # the variance (1e200 / 2)^2 is inf in floats
        (["asymptotic", "--delta", "0.1", "--expansion"],
         {"energies": [0, 1e200], "populations": [0.5, 0.5]}, 0, "inf"),
        # a zero Gibbs weight meets an infinite squared deviation
        (["asymptotic", "--delta", "0.1"],
         {"energies": [0, 1e200], "populations": [1.0, 0.0]}, 2, "bisection"),
        # the Gibbs inversions on a span of 3e6, and with negative energies
        (["asymptotic", "--delta", "1000", "--expansion"],
         {"energies": [0, 1e6, 3e6], "populations": [0.998, 0.0015, 0.0005]}, 0,
         pytest.approx(2991162963.09, rel=1e-9)),
        (["asymptotic", "--delta", "0.01", "--expansion"],
         {"energies": [-2, -1, 0, 5e-4], "populations": [1e-9, 0.2, 0.3, 0.499999999]}, 0,
         pytest.approx(0.234879665745, rel=1e-9)),
        (["single"], {"energies": [0, 1], "populations": [1e308, 1e308]}, 1,
         "state trace inf+0j differs from 1"),
        (["single"], {"energies": [0, 1], "rho_re": [[0.5, 1e308], [-1e308, 0.5]]}, 1,
         "state is not Hermitian: max deviation inf"),
        # 1j * inf would be a NaN real part, with a warning
        (["single"], {"energies": [0, 1], "rho_re": [[0.6, 0.2], [0.2, 0.4]],
                      "rho_im": [[0, math.inf], [-0.1, 0]]}, 1, "state must be finite"),
    ], ids=["single-span", "asymptotic-span", "variance-inf", "variance-zero-weight",
            "span-3e6", "negative-energies", "trace-overflow", "hermitian-overflow",
            "rho-im-inf"])
    def test_one_strict_report_and_nothing_on_stderr(self, capsys, tmp_path, argv, doc,
                                                     status, found):
        path = write_json(tmp_path / "extreme.json", doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([argv[0], path, *argv[1:]])
        captured = capsys.readouterr()
        assert code == status and captured.err == ""
        report = json.loads(captured.out, parse_constant=_reject_constant)
        assert report["status"] == status
        if status == 0:
            assert report["results"]["expansion"]["energy_variance"] == found
        else:
            assert found in report["error"]


def nested_populations(depth):
    return (b'{"energies": [0, 1], "populations": ' + b"[" * depth + b"0.5" + b"]" * depth
            + b"}")


CSV_WRITERS = {
    "single": ["single", "{state}"],
    "jc": ["jc", "--fock", "2", "--steps", "10"],
    "sweep": ["qutrit-catalyst", "--beta", "0.3", "--sweep"],
    "copies": ["qutrit-catalyst", "--lambda", "0.5", "--copies", "4"],
}


def writer_argv(tmp_path, writer):
    doc = {"energies": [0, 0.4, 1.3], "populations": [0.5, 0.3, 0.2]}
    state = write_json(tmp_path / "q.json", doc)
    return [state if arg == "{state}" else arg for arg in CSV_WRITERS[writer]]


def one_failed_report(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    report = json.loads(captured.out, parse_constant=_reject_constant)
    assert report["status"] == 1
    return report["error"]


class TestFileFaultsAreReports:
    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    @pytest.mark.parametrize("writer", list(CSV_WRITERS))
    def test_unwritable_out(self, capsys, tmp_path, writer, target):
        out = tmp_path / "missing" / "x.csv" if target == "missing-dir" else tmp_path
        error = one_failed_report(capsys, [*writer_argv(tmp_path, writer), "--out", str(out)])
        assert error.startswith(f"cannot write {out}: ")

    # json's decoder and numpy's 64-dimension cap each stop a deep nesting;
    # which one stops 990 levels depends on the interpreter's recursion limit
    @pytest.mark.parametrize("raw,found", [
        (b"\xff\xff\xff", "is not valid JSON"),
        (nested_populations(500), "populations must be numeric"),
        (nested_populations(990), "is not valid JSON|populations must be numeric"),
        (nested_populations(100_000), "is not valid JSON"),
    ], ids=["not-utf8", "nested-500", "nested-990", "nested-100000"])
    def test_undecodable_input(self, capsys, tmp_path, raw, found):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        assert re.search(found, one_failed_report(capsys, ["single", str(path)]))

    @pytest.mark.parametrize("command", [
        ["single"], ["oracle", "--beta-bath", "0.5"], ["asymptotic", "--delta", "0.1"],
    ])
    def test_a_stack_of_states_is_not_a_state(self, capsys, tmp_path, command):
        doc = {"energies": [0, 1], "rho_re": [[[0.5, 0], [0, 0.5]]] * 2}
        path = write_json(tmp_path / "stack.json", doc)
        error = one_failed_report(capsys, [command[0], path, *command[1:]])
        assert error == f"{path}: state must be square, got shape (2, 2, 2)"


def str_format_csv(header, table):
    """CSV text with each value formatted by str.format, one at a time."""
    lines = [",".join(header)]
    lines += [",".join("{:.12g}".format(float(v)) for v in row) for row in table.tolist()]
    return ("\n".join(lines) + "\n").encode()


class TestCsvBytes:
    def test_special_values(self, tmp_path):
        table = np.rec.fromarrays([
            np.array([0, 7, 4095, 7]),
            np.array([0.0, -math.inf, 1e308, 2.2250738585072014e-308]),
            np.array([-0.0, math.nan, -1.2345678901234567e-7, 1 / 3]),
            np.array([math.inf, 5e-324, 3, -7]),
        ], names="n,a,b,c")
        out = tmp_path / "special.csv"
        cli._write_csv(str(out), table.dtype.names, table)
        assert out.read_bytes() == str_format_csv(table.dtype.names, table)

    @pytest.mark.parametrize("writer", list(CSV_WRITERS))
    def test_writer_bytes_match_per_value_formatting(self, capsys, tmp_path, monkeypatch, writer):
        tables = []
        write_csv = cli._write_csv

        def recording_write_csv(path, header, table):
            tables.append((path, header, table))
            write_csv(path, header, table)

        monkeypatch.setattr(cli, "_write_csv", recording_write_csv)
        out = tmp_path / "table.csv"
        assert main([*writer_argv(tmp_path, writer), "--out", str(out)]) == 0
        capsys.readouterr()
        [(path, header, table)] = tables
        assert path == str(out) and len(table) > 1
        assert out.read_bytes() == str_format_csv(header, table)
