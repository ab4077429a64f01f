"""
Source hygiene: checks in the library are real raises, not assert
statements (which python -O strips), importing the package and its
command-line front end does not load numpy, the command line runs as
`python -m duinv` and `python -m duinv.cli` alike, and it answers malformed
input with its documented exit code and no traceback.
"""
import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

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


ANALYZE = ["analyze", "--alpha", "1", "--beta", "1", "--gen"]


@pytest.mark.parametrize("argv,code", [
    (ANALYZE + ["[[" + "(" * 300 + "1" + ")" * 300 + ",0],[0,1]]"], 1),
    (["classify", "--gen", "[[" + "-" * 1500 + "1,0],[0,1]]"], 1),
    (["paperlab", "--suite", "bogus"], 2),
    (ANALYZE + ["[[zeta(0),0],[0,1]]"], 1),
    (ANALYZE + ["[[1/0,0],[0,1]]"], 1),
    (ANALYZE + ["[[0,1],[1,0]]"], 2),  # not an automorphism of A(1, 1)
], ids=["deep-nesting", "deep-negation", "unknown-suite", "zeta-0", "one-over-zero",
        "not-an-automorphism"])
def test_cli_rejects_malformed_input_without_traceback(argv, code):
    run = [sys.executable, "-c", "import sys; from duinv.cli import main; sys.exit(main())"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(run + argv, env=env, capture_output=True, text=True)
    assert "Traceback" not in out.stderr
    assert out.returncode == code, out.stderr


def test_cli_runs_as_a_module_without_warnings():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = ANALYZE + ["[[-1,0],[0,1]]", "--gen", "[[zeta(6),0],[0,zeta(6)^-1]]"]
    outs = [subprocess.run([sys.executable, "-m", module, *argv],
                           env=env, capture_output=True, text=True)
            for module in ("duinv", "duinv.cli")]
    for out in outs:
        assert (out.returncode, out.stderr) == (0, "")
    assert json.loads(outs[0].stdout)["group"]["order"] == 12
    assert outs[0].stdout == outs[1].stdout
