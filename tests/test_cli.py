import json
import os
import subprocess
import sys

import pytest

import petrocheck
from petrocheck import cli, solver
from petrocheck.cli import main
from petrocheck.errors import SolverError


def run(argv):
    return main(argv)


def test_cli_import_leaves_scipy_interpolate_out():
    # scipy.interpolate costs about 0.4 s of every start; only tabulated
    # profiles need it, so importing the CLI must not load it
    src = os.path.dirname(os.path.dirname(petrocheck.__file__))
    code = "import sys, petrocheck.cli; print('scipy.interpolate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True).stdout
    assert out.strip() == "False"


def test_repeated_calls_match_fresh_parsers(capsys):
    # main parses with one parser per process; calls in a row, a usage
    # error among them, give what calls on freshly built parsers give
    calls = [["classify", "--p", "3", "--q", "0.6"],
             ["classify", "--p", "nan", "--q", "0.6"],
             ["no-such-command"],
             ["lemma-check", "--p", "3", "--samples", "5"],
             ["classify", "--p", "1.5", "--q", "0.3", "--n", "2"],
             ["classify", "--p", "3"]]

    def outcomes(fresh):
        seen = []
        for argv in calls:
            if fresh:
                cli._parser.cache_clear()
            code = main(argv)
            out, err = capsys.readouterr()
            lines = [json.loads(line) if line.startswith("{") else line
                     for line in out.splitlines()]
            for line in lines:
                if isinstance(line, dict):
                    line.pop("generated_at")
            seen.append((code, lines, err))
        return seen

    cli._parser.cache_clear()
    reused = outcomes(fresh=False)
    assert cli._parser.cache_info().misses == 1
    assert reused == outcomes(fresh=True)
    assert [code for code, _, _ in reused] == [0, 1, 1, 0, 0, 1]


class TestLemmaCheck:
    def test_pass(self, capsys):
        assert run(["lemma-check", "--p", "3", "--n", "2", "--samples", "50"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_linear_case(self):
        assert run(["lemma-check", "--p", "2", "--n", "3", "--samples", "30"]) == 0

    def test_oracle_clears_its_rounding_floor(self, capsys):
        # a plain difference at h = 1e-4 reached 1.264e-6 on these samples
        assert run(["lemma-check", "--p", "5", "--n", "1"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_usage_error_on_bad_p(self, capsys):
        assert run(["lemma-check", "--p", "0.9", "--n", "2"]) == 1

    def test_zero_samples_usage_error(self, capsys):
        assert run(["lemma-check", "--p", "3", "--samples", "0"]) == 1
        captured = capsys.readouterr()
        assert "--samples: must be at least 1" in captured.err
        assert "PASS" not in captured.out

    def test_non_integer_samples_usage_error(self, capsys):
        assert run(["lemma-check", "--p", "3", "--samples", "abc"]) == 1
        assert "invalid int value: 'abc'" in capsys.readouterr().err

    def test_failure_names_the_worst_row(self, capsys):
        assert run(["lemma-check", "--p", "3", "--samples", "5", "--tol", "0"]) == 2
        captured = capsys.readouterr()
        assert "FAIL" in captured.out and "worst row: C=" in captured.err

    def test_csv_output(self, tmp_path):
        out = tmp_path / "lemma.csv"
        assert run(["lemma-check", "--p", "3", "--n", "2", "--samples", "10",
                    "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("C,alpha,r")
        assert len(lines) == 11

    @pytest.mark.parametrize("p", ["nan", "inf", "-inf"])
    def test_non_finite_p_usage_error(self, p, capsys):
        assert run(["lemma-check", f"--p={p}", "--n", "2"]) == 1
        captured = capsys.readouterr()
        assert "finite" in captured.err
        assert "PASS" not in captured.out


class TestBarenblattCheck:
    def test_pass(self):
        assert run(["barenblatt-check", "--p", "3", "--n", "2", "--points", "30"]) == 0

    def test_singular_pass(self, capsys):
        assert run(["barenblatt-check", "--p", "1.9", "--n", "2", "--points", "30"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_bad_lambda_is_usage_error(self):
        assert run(["barenblatt-check", "--p", "1.2", "--n", "2"]) == 1

    def test_negative_points_usage_error(self, capsys):
        assert run(["barenblatt-check", "--p", "3", "--points", "-4"]) == 1
        captured = capsys.readouterr()
        assert "--points: must be at least 1" in captured.err
        assert "PASS" not in captured.out

    def test_non_finite_C_usage_error(self, capsys):
        assert run(["barenblatt-check", "--p", "3", "--C", "nan"]) == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_step_usage_error(self, capsys):
        assert run(["barenblatt-check", "--p", "3", "--h", "0"]) == 1
        assert "need 0 < h < r/2" in capsys.readouterr().err

    def test_field_zero_at_every_sample_fails(self, capsys):
        # base^m underflows with m = (p-1)/(p-2) = 1e7: a residual of 0 at
        # samples where u = 0 tests nothing
        assert run(["barenblatt-check", "--p", "2.0000001", "--n", "1"]) == 2
        assert "u > 0 at 0 of 100 points: FAIL" in capsys.readouterr().out
        assert run(["barenblatt-check", "--p", "2.001", "--n", "1"]) == 0
        assert "u > 0 at 77 of 100 points: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["verify", "--kind", "degenerate_family_member", "--p", "2.01", "--q", "0.6", "--n", "1"],
    ["scale-check", "--p", "3", "--a", "1e-300"],
    ["scale-check", "--p", "3", "--a", "1e300"],
    ["scale-check", "--p", "2.0000001", "--a", "2"],
    ["lemma-check", "--p", "1e300"],
])
def test_power_out_of_range_is_a_precondition_error(argv, capsys):
    # a power that overflows, or an amplitude factor that underflows to 0,
    # exits 1 before any solve
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert "precondition violated" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


class TestVerify:
    def test_singular_irregularity_passes(self, tmp_path):
        out = tmp_path / "cert.json"
        code = run(["verify", "--kind", "singular_irregularity", "--p", "1.5",
                    "--q", "0.25", "--n", "2", "--grid-y", "64", "--grid-t", "64",
                    "--out", str(out)])
        assert code == 0
        blob = json.loads(out.read_text())
        assert blob["schema"] == "petrocheck/1"
        assert blob["certificate"]["pass"] is True
        assert blob["certificate"]["worst_violation"] >= -1e-10

    def test_inadmissible_C_named(self, capsys):
        code = run(["verify", "--kind", "degenerate_irregularity", "--p", "3",
                    "--n", "2", "--C", "0.03"])
        assert code == 1
        assert "c_max" in capsys.readouterr().err

    def test_non_finite_C_usage_error(self, capsys):
        code = run(["verify", "--kind", "degenerate_irregularity", "--p", "3",
                    "--n", "2", "--C", "nan"])
        assert code == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--kind", "singular_irregularity", "--p", "1.5", "--q", "0.25", "--K", "0"],
        ["--kind", "degenerate_family_member", "--p", "3", "--q", "0.5", "--n", "1",
         "--k-max", "0", "--ladder", "1", "--grid-y", "8", "--grid-t", "8"],
    ])
    def test_out_of_range_input_usage_error(self, argv, capsys):
        assert run(["verify"] + argv) == 1
        captured = capsys.readouterr()
        assert "precondition violated" in captured.err and captured.out == ""

    def test_family_member_passes(self, tmp_path):
        out = tmp_path / "cert.json"
        code = run(["verify", "--kind", "degenerate_family_member", "--p", "3", "--q", "0.5",
                    "--n", "1", "--grid-y", "16", "--grid-t", "16", "--out", str(out)])
        assert code == 0
        blob = json.loads(out.read_text())
        assert blob["certificate"]["pass"] is True
        assert blob["C0"] == blob["certificate"]["details"]["ladder_C"][0]

    def test_other_K_for_a_unit_cusp_kind_usage_error(self, capsys):
        # the small-data barrier is constructed on the K = 1 cusp only
        assert run(["verify", "--kind", "degenerate_small_data", "--p", "3", "--q", "0.3",
                    "--beta", "0.5", "--K", "3"]) == 1
        captured = capsys.readouterr()
        assert "K = 1 cusp" in captured.err and captured.out == ""

    def test_small_data_passes(self, tmp_path):
        out = tmp_path / "cert.json"
        code = run(["verify", "--kind", "degenerate_small_data", "--p", "3",
                    "--q", str(1.0 / 3.0), "--n", "2", "--beta", "0.5",
                    "--grid-y", "64", "--grid-t", "64", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["certificate"]["pass"] is True

    def test_reports_are_rerun_stable(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["verify", "--kind", "degenerate_irregularity", "--p", "3",
                "--n", "2", "--C", "0.01", "--grid-y", "32", "--grid-t", "32"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        ja, jb = json.loads(a.read_text()), json.loads(b.read_text())
        assert ja["report_hash"] == jb["report_hash"]
        ja.pop("generated_at"), jb.pop("generated_at")
        assert ja == jb

    def test_negative_exponent_after_a_space_is_a_value(self, tmp_path):
        # argparse's own pattern reads "-5e-1" after a space as an option
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["verify", "--kind", "singular_irregularity", "--p", "1.5", "--q", "0.25",
                "--n", "2", "--grid-y", "8", "--grid-t", "8"]
        assert run(args + ["--t0", "-5e-1", "--out", str(a)]) == 0
        assert run(args + ["--t0=-5e-1", "--out", str(b)]) == 0
        ja, jb = json.loads(a.read_text()), json.loads(b.read_text())
        assert ja["config"]["t0"] == -0.5
        assert ja["report_hash"] == jb["report_hash"]


@pytest.mark.parametrize("value", ["-1e-1", "-1E+2", "-.5", "-2"])
@pytest.mark.parametrize("argv, option", [
    (["verify", "--kind", "singular_irregularity", "--p", "1.5"], "--t0"),
    (["verify", "--kind", "degenerate_irregularity", "--p", "3"], "--C"),
    (["classify", "--p", "3"], "--q"),
    (["solve", "--p", "3", "--q", "0.5"], "--eps-min"),
    (["sweep", "--p-list", "3", "--q-list", "0.5"], "--K"),
    (["scale-check", "--p", "3"], "--a"),
    (["lemma-check"], "--p"),
])
def test_negative_number_option_reads_alike_in_both_forms(argv, option, value):
    parse = cli._parser().parse_args
    assert parse(argv + [option, value]) == parse(argv + [f"{option}={value}"])


class TestClassify:
    def test_regular(self, tmp_path):
        out = tmp_path / "v.json"
        assert run(["classify", "--p", "3", "--q", "0.34", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["verdict"]["theorem_verdict"] == "Regular"

    def test_irregular_singular(self, tmp_path):
        out = tmp_path / "v.json"
        assert run(["classify", "--p", "1.5", "--q", "0.5", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["verdict"]["theorem_verdict"] == "Irregular"

    def test_unknown_borderline(self, tmp_path):
        out = tmp_path / "v.json"
        assert run(["classify", "--p", "1.5", "--q", str(2.0 / 3.0),
                    "--out", str(out)]) == 0
        assert json.loads(out.read_text())["verdict"]["theorem_verdict"] == "Unknown"


    @pytest.mark.parametrize("extra", [["--K", "-1"], ["--K", "0"], ["--n", "0", "--with-probe"]])
    def test_out_of_range_input_usage_error(self, extra, capsys):
        assert run(["classify", "--p", "3", "--q", "0.5"] + extra) == 1
        captured = capsys.readouterr()
        assert "precondition violated" in captured.err and captured.out == ""

    @pytest.mark.parametrize("p, q", [("nan", "0.5"), ("inf", "0.5"), ("3", "nan")])
    def test_non_finite_input_usage_error(self, p, q, capsys):
        assert run(["classify", "--p", p, "--q", q]) == 1
        assert "finite" in capsys.readouterr().err


class TestSweep:
    def test_degenerate_row(self, tmp_path):
        out = tmp_path / "sweep.json"
        csv = tmp_path / "sweep.csv"
        code = run(["sweep", "--p-list", "3", "--q-list", "0.2,0.34,0.5",
                    "--out", str(out), "--csv", str(csv)])
        assert code == 0
        blob = json.loads(out.read_text())
        assert [c["verdict"] for c in blob["cells"]] == ["Irregular", "Regular", "Regular"]
        assert csv.read_text().startswith("p,q,verdict")

    def test_singular_row_with_unknown(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = run(["sweep", "--p-list", "1.5",
                    "--q-list", f"0.5,{2.0 / 3.0},0.7", "--out", str(out)])
        assert code == 0
        blob = json.loads(out.read_text())
        assert [c["verdict"] for c in blob["cells"]] == ["Irregular", "Unknown", "Regular"]

    def test_empty_q_list_usage_error(self):
        assert run(["sweep", "--p-list", "3", "--q-list", ""]) == 1

    def test_non_numeric_list_usage_error(self, capsys):
        assert run(["sweep", "--p-list", "a", "--q-list", "0.5"]) == 1
        assert "comma-separated floats" in capsys.readouterr().err

    @pytest.mark.parametrize("p_list, q_list", [("nan,3", "0.5"), ("3", "0.5,inf"),
                                                ("3", "0.5,-inf")])
    def test_non_finite_list_entry_usage_error(self, p_list, q_list, capsys):
        assert run(["sweep", "--p-list", p_list, "--q-list", q_list]) == 1
        captured = capsys.readouterr()
        assert "must be finite" in captured.err and captured.out == ""

    def test_error_cell_is_kept(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert run(["sweep", "--p-list", "0.9,3", "--q-list", "0.5", "--out", str(out)]) == 0
        blob = json.loads(out.read_text())
        assert blob["failures"] == 1
        assert "p must exceed 1" in blob["cells"][0]["error"]
        assert blob["cells"][1]["verdict"] == "Regular"


class TestSolveAndScale:
    def test_solve_writes_csv(self, tmp_path):
        out = tmp_path / "field.csv"
        code = run(["solve", "--p", "3", "--n", "1", "--q", "0.5",
                    "--data", "const:0.4", "--grid-y", "17", "--grid-t", "40",
                    "--eps-min", "1e-2", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("t,y,r,u")

    def test_solve_probe_data(self, capsys):
        assert run(["solve", "--p", "3", "--q", "0.5", "--data", "probe", "--grid-y", "17",
                    "--grid-t", "20", "--eps-min", "1e-1"]) == 0
        assert "max principle OK" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["--p", "3", "--grid-t", "-5"],
        ["--p", "3", "--c-step", "0"],
        ["--p", "3", "--c-step", "-1"],
        ["--p", "3", "--eps-reg=-1e-8"],
        ["--p", "1.5", "--eps-reg=0"],
    ])
    def test_solve_bad_solver_setting_usage_error(self, argv, capsys):
        grid = ["--grid-y", "33", "--grid-t", "50", "--eps-min", "1e-2"]
        assert run(["solve", "--q", "0.5"] + grid + argv) == 1
        captured = capsys.readouterr()
        assert "precondition violated" in captured.err and captured.out == ""

    def test_solver_failure_exit_3(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise SolverError("nonlinear solve stalled at step 3", step=3, t=-0.5)
        monkeypatch.setattr(solver, "solve_dirichlet", fail)
        assert run(["solve", "--p", "3", "--q", "0.5"]) == 3
        assert "solver failure: nonlinear solve stalled" in capsys.readouterr().err

    def test_solve_bad_data_usage_error(self):
        assert run(["solve", "--p", "3", "--q", "0.5", "--data", "wat"]) == 1

    @pytest.mark.parametrize("data", ["const:abc", "const:nan"])
    def test_solve_bad_const_usage_error(self, data, capsys):
        assert run(["solve", "--p", "3", "--q", "0.5", "--data", data]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_scale_check(self, tmp_path):
        out = tmp_path / "scale.json"
        code = run(["scale-check", "--p", "3", "--a", "2", "--q", "0.5",
                    "--grid-y", "33", "--grid-t", "80", "--eps-min", "1e-2",
                    "--out", str(out)])
        assert code == 0
        blob = json.loads(out.read_text())
        assert blob["certificate"]["pass"] is True

    def test_scale_check_records_regularization_and_step_cap(self, tmp_path):
        out = tmp_path / "scale.json"
        assert run(["scale-check", "--p", "3", "--grid-y", "33", "--grid-t", "80",
                    "--eps-min", "1e-2", "--eps-reg", "1e-6", "--c-step", "0.25",
                    "--out", str(out)]) == 0
        config = json.loads(out.read_text())["config"]
        assert (config["eps_reg"], config["c_step"]) == (1e-6, 0.25)

    def test_scale_check_p2_usage_error(self):
        assert run(["scale-check", "--p", "2", "--a", "2"]) == 1
