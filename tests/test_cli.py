import json

import pytest

from petrocheck import solver
from petrocheck.cli import main
from petrocheck.errors import SolverError


def run(argv):
    return main(argv)


class TestLemmaCheck:
    def test_pass(self, capsys):
        assert run(["lemma-check", "--p", "3", "--n", "2", "--samples", "50"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_linear_case(self):
        assert run(["lemma-check", "--p", "2", "--n", "3", "--samples", "30"]) == 0

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
