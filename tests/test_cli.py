import json

import pytest

from petrocheck.cli import main


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


class TestSolveAndScale:
    def test_solve_writes_csv(self, tmp_path):
        out = tmp_path / "field.csv"
        code = run(["solve", "--p", "3", "--n", "1", "--q", "0.5",
                    "--data", "const:0.4", "--grid-y", "17", "--grid-t", "40",
                    "--eps-min", "1e-2", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("t,y,r,u")

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

    def test_scale_check_p2_usage_error(self):
        assert run(["scale-check", "--p", "2", "--a", "2"]) == 1
