import csv
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import random_density
from efftemp.cli import main
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

    def test_expansion_diagonalizes_the_state_twice(self, capsys, tmp_path, monkeypatch):
        # once to validate the loaded state, once for S(rho); the entropy is
        # computed once and shared by the report, both branches and the expansion
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
        assert calls == [(64, 64), (64, 64)]

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

    def test_zero_random_systems(self, capsys, gibbs_file):
        code, report = run_cli(
            capsys, "oracle", gibbs_file, "--beta-bath", "0.2", "--random", "0", "--seed", "3"
        )
        assert code == 0
        assert report["results"]["random_trials"] == {
            "systems": 0, "baths_per_system": 5, "seed": 3, "cases": 0, "disagreements": 0,
            "max_polytope_residual": 0.0,
        }

    def test_dimension_cap_exits_1(self, capsys, tmp_path):
        path = write_json(
            tmp_path / "big.json",
            {"energies": list(range(7)), "populations": [1 / 7] * 7},
        )
        code, report = run_cli(capsys, "oracle", path, "--beta-bath", "1.0")
        assert code == 1
        assert "cap" in report["error"]


class TestJC:
    def test_short_run_csv(self, capsys, tmp_path):
        out = tmp_path / "series.csv"
        code, report = run_cli(capsys, "jc", "--steps", "100", "--out", str(out))
        assert code == 0
        assert report["results"]["fixed_point_residual"] < 1e-10
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,beta_c_A,beta_h_A,beta_c_R,beta_h_R,atom_distance,cavity_coherence"
        assert len(lines) == 1 + 100 + 1  # header + steps + 1 samples
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

    def test_copies_table(self, capsys, tmp_path):
        out = tmp_path / "copies.csv"
        code, report = run_cli(
            capsys,
            "qutrit-catalyst", "--lambda", "0.5", "--beta", "1.0",
            "--copies", "5", "--out", str(out),
        )
        assert code == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows.shape == (5, 3)
        assert np.all(np.diff(rows[:, 1]) >= -1e-9)  # beta_c broadens
        assert np.all(np.diff(rows[:, 2]) <= 1e-9)  # beta_h broadens

    def test_sweep_and_copies_conflict(self, capsys):
        code, report = run_cli(
            capsys, "qutrit-catalyst", "--sweep", "--copies", "3"
        )
        assert code == 1

    @pytest.mark.parametrize("copies", ["-1", "0"])
    def test_copies_below_one_exits_1(self, capsys, copies):
        code, report = run_cli(capsys, "qutrit-catalyst", f"--copies={copies}")
        assert code == 1
        assert "--copies" in report["error"]
        assert "results" not in report


class TestUsageAndEntryPoint:
    def test_unknown_flag_exits_1(self, capsys):
        assert main(["single", "--bogus"]) == 1

    def test_missing_subcommand_exits_1(self, capsys):
        assert main([]) == 1

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
            )
        finally:
            os.close(write_end)
        assert proc.returncode == status
        assert proc.stderr == b""
