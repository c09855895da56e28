"""Importing the CLI stays light: no module of the package pulls in
dataclasses or inspect (and with them ast and dis), which would add a few
milliseconds to every command. Every import of the package is made at module
level, so a module's dependencies are read in its first lines."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    code = ("import sys; before = set(sys.modules); import dertensor.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def test_no_import_is_made_inside_a_function():
    found = set()  # a nested function is walked twice
    for path in sorted(Path(SRC, "dertensor").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found |= {f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))}
    assert not found, sorted(found)
