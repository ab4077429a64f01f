"""
Source hygiene: checks in the library are real raises, not assert
statements (which python -O strips), and importing the package and its
command-line front end does not load numpy.
"""
import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_library_has_no_assert_statements():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((SRC / "duinv").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_import_does_not_load_numpy():
    code = "import sys, duinv, duinv.cli; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
