"""tools/count_code_lines.py counts code lines, now and at a git revision."""

import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "count_code_lines.py"
spec = importlib.util.spec_from_file_location("count_code_lines", TOOL)
count_code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(count_code_lines)


def test_code_lines_leave_out_docstrings_comments_and_blanks():
    source = ('"""Module."""\n\n# note\ndef f(x):\n'
              '    """Doc\n    string."""\n    return (x +\n            1)\n')
    assert count_code_lines.code_lines(source) == 3


def test_base_prints_each_module_then_and_now(tmp_path, monkeypatch, capsys):
    if shutil.which("git") is None:
        pytest.skip("needs git")
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text("x = 1\ny = 2\n")
    (pkg / "gone.py").write_text("z = 3\n")
    git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["add", "."], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "base"], check=True)
    (pkg / "a.py").write_text("x = 1\n")
    (pkg / "gone.py").unlink()
    (pkg / "new.py").write_text("w = 4\nv = 5\nu = 6\n")
    monkeypatch.chdir(tmp_path)
    assert count_code_lines.main(["--base", "HEAD", "pkg"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows == [["2", "1", "-1", "pkg/a.py"], ["1", "0", "-1", "pkg/gone.py"],
                    ["0", "3", "+3", "pkg/new.py"], ["3", "4", "+1", "total"]]
    assert count_code_lines.main(["--base", "no-such-ref", "pkg"]) == 0
    assert capsys.readouterr().out.startswith("cannot read no-such-ref with git")
