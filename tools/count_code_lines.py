"""Count the code lines of a Python package: every line that holds a token
other than a comment, leaving out blank lines and docstrings.

    python tools/count_code_lines.py [--base REF] [PACKAGE_DIR]   (default src/petrocheck)

Docstrings are found with `ast` (the leading string of a module, class or
function) and the remaining lines with `tokenize`; a token that spans lines
counts each line it spans.  Prints one line per module and the total.  With
--base REF each line holds the count at the git revision REF (read with
`git show`, 0 for a module not there), the count now and the difference.
The exit code is 0 whatever the count, also when git cannot read REF.
"""

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def _git(*args) -> str:
    """stdout of a git command run here; CalledProcessError if it fails."""
    return subprocess.run(["git", *args], capture_output=True, text=True,
                          check=True).stdout


def base_counts(ref: str, package: Path) -> dict:
    """{module path: code lines} of the package's modules at revision ref."""
    names = _git("ls-tree", "--name-only", ref, f"{package}/").split()
    return {Path(name): code_lines(_git("show", f"{ref}:./{name}"))
            for name in names if name.endswith(".py")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Count the code lines of a package.")
    parser.add_argument("package", nargs="?", default="src/petrocheck", type=Path)
    parser.add_argument("--base", metavar="REF", help="git revision to compare against")
    args = parser.parse_args(argv)
    now = {path: code_lines(path.read_text()) for path in sorted(args.package.glob("*.py"))}
    if args.base is None:
        for path, count in now.items():
            print(f"{count:6d}  {path}")
        print(f"{sum(now.values()):6d}  total")
        return 0
    try:
        base = base_counts(args.base, args.package)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"cannot read {args.base} with git: {err}")
        return 0
    print(f"{'base':>6}  {'now':>6}  {'diff':>6}  module at {args.base} and now")
    for path in sorted(base.keys() | now.keys()):
        b, n = base.get(path, 0), now.get(path, 0)
        print(f"{b:6d}  {n:6d}  {n - b:+6d}  {path}")
    b, n = sum(base.values()), sum(now.values())
    print(f"{b:6d}  {n:6d}  {n - b:+6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
