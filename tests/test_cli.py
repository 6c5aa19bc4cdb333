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

    @pytest.mark.parametrize("beta_bath", ["30", "-30", "800", "-800", "1e308", "-1e308"])
    def test_cold_and_hot_baths_agree_quietly(self, capsys, tmp_path, beta_bath):
        # beta_c = log(5/3), beta_h = log(3/2): a cold bath can only be
        # heated by the state, a hot one only cooled
        path = write_json(
            tmp_path / "pinned.json", {"energies": [0, 1, 2], "populations": [0.5, 0.3, 0.2]}
        )
        code = main(["oracle", path, f"--beta-bath={beta_bath}"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        r = json.loads(captured.out)["results"]
        cold = float(beta_bath) > 0
        assert (r["can_cool"], r["can_heat"]) == (not cold, cold)
        assert r["agreement"] is True
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
            proc = subprocess.run(
                [sys.executable, "-m", "efftemp", *argv], capture_output=True, text=True
            )
            assert (code, out) == (proc.returncode, proc.stdout)
            assert err == proc.stderr
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
            )
        finally:
            os.close(write_end)
        assert proc.returncode == status
        assert proc.stderr == b""


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
        (["single"], {"energies": [0, 1], "populations": [1e308, 1e308]}, 1,
         "state trace inf+0j differs from 1"),
        (["single"], {"energies": [0, 1], "rho_re": [[0.5, 1e308], [-1e308, 0.5]]}, 1,
         "state is not Hermitian: max deviation inf"),
        # 1j * inf would be a NaN real part, with a warning
        (["single"], {"energies": [0, 1], "rho_re": [[0.6, 0.2], [0.2, 0.4]],
                      "rho_im": [[0, math.inf], [-0.1, 0]]}, 1, "state must be finite"),
    ], ids=["single-span", "asymptotic-span", "variance-inf", "variance-zero-weight",
            "trace-overflow", "hermitian-overflow", "rho-im-inf"])
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


def str_format_csv(header, rows):
    """CSV text with each value formatted by str.format, one at a time."""
    lines = [",".join(header)] + [",".join("{:.12g}".format(float(v)) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


class TestCsvBytes:
    def test_special_values(self, tmp_path):
        rows = [(0.0, -0.0, math.inf), (-math.inf, math.nan, 5e-324),
                (1e308, -1.2345678901234567e-7, 3), (2.2250738585072014e-308, 1 / 3, -7)]
        out = tmp_path / "special.csv"
        cli._write_csv(str(out), ("a", "b", "c"), rows)
        assert out.read_bytes() == str_format_csv(("a", "b", "c"), rows)

    @pytest.mark.parametrize("writer", list(CSV_WRITERS))
    def test_writer_bytes_match_per_value_formatting(self, capsys, tmp_path, monkeypatch, writer):
        tables = []
        write_csv = cli._write_csv

        def recording_write_csv(path, header, rows):
            tables.append((path, header, rows))
            write_csv(path, header, rows)

        monkeypatch.setattr(cli, "_write_csv", recording_write_csv)
        out = tmp_path / "table.csv"
        assert main([*writer_argv(tmp_path, writer), "--out", str(out)]) == 0
        capsys.readouterr()
        [(path, header, rows)] = tables
        assert path == str(out) and len(rows) > 1
        assert out.read_bytes() == str_format_csv(header, rows)
