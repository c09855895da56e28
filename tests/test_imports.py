"""Importing the CLI stays light: no module of the package pulls in
dataclasses or inspect (and with them ast and dis), which would add a few
milliseconds to every command."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    code = ("import sys; before = set(sys.modules); import dertensor.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
