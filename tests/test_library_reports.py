"""Every claim report is built in the library; the CLI only dispatches.

Each verifier returns the report its command prints, so to_dict() of the
library call equals the command's --json output. cli.py builds a
VerificationReport only for the display commands (derive, centroid,
dcentroid, grade and fixed), and reads nothing of the Laurent carrier.
"""

import ast
import io
import json
import os
from contextlib import redirect_stdout

import pytest

import dertensor.cli as cli
from dertensor.catalog import catalog_setup, group_algebra, sl2
from dertensor.decomposition import (
    Setup,
    verify_block_decomposition_sweep,
    verify_bm_formula,
    verify_phi_extension,
    verify_psi_lemma_sweep,
    verify_psi_map,
)
from dertensor.laurent import (
    SCENE_PERIODS,
    SCENE_SHIFTS,
    verify_bm_counterexample,
    verify_inverse_map_reproduction,
    verify_inverse_map_values,
    verify_twisted_normal_form,
)
from dertensor.scalars import make_field

CLI = os.path.join(os.path.dirname(os.path.abspath(cli.__file__)), "cli.py")
DISPLAY_COMMANDS = {"cmd_solve", "cmd_grade", "cmd_fixed"}


def _setup(name, field=None):
    return Setup(*catalog_setup(name, field))


CASES = [
    (["phi-eval"], lambda: verify_inverse_map_reproduction(SCENE_PERIODS, None, None)),
    (["phi-eval", "--m", "3", "--style", "forward", "--u", "z"],
     lambda: verify_inverse_map_reproduction((3,), "forward", "z")),
    (["phi-eval", "--setup", "last-exa-i"], lambda: verify_inverse_map_values(None, None)),
    (["phi-eval", "--setup", "exaBM-laurent", "--u", "(1/2)*z^-3"],
     lambda: verify_inverse_map_values(None, "(1/2)*z^-3")),
    (["phi-eval", "--setup", "last-exa-ii", "--m", "5"],
     lambda: verify_twisted_normal_form((5,), SCENE_SHIFTS, None, None)),
    (["phi-eval", "--setup", "last-exa-ii"],
     lambda: verify_twisted_normal_form(SCENE_PERIODS, SCENE_SHIFTS, None, None)),
    (["phi-eval", "--setup", "last-exa-ii(3,-2)"], lambda: verify_twisted_normal_form((3,), (-2,), None, None)),
    # a failing verdict, with its witness
    (["phi-eval", "--setup", "last-exa-ii(3,1)", "--style", "forward", "--u", "z"],
     lambda: verify_twisted_normal_form((3,), (1,), "forward", "z")),
    (["counterexample-bm"], verify_bm_counterexample),
    (["bm-eval"], verify_bm_counterexample),
    (["bm-eval", "--setup", "last-exa-i"], verify_bm_counterexample),
    (["phi-eval", "--setup", "sl2-twisted-flagship"], lambda: verify_phi_extension(_setup("sl2-twisted-flagship"))),
    (["phi-eval", "--setup", "quotient-laurent(1,4)", "--field", "prime(5,4)"],
     lambda: verify_phi_extension(_setup("quotient-laurent(1,4)", make_field("prime", m=4, p=5)))),
    (["bm-eval", "--setup", "sl2-twisted-flagship"], lambda: verify_bm_formula(_setup("sl2-twisted-flagship"))),
    (["bm-eval", "--setup", "quotient-laurent(2,3)"], lambda: verify_bm_formula(_setup("quotient-laurent(2,3)"))),
    (["psi-check", "--algebra", "sl2", "--s", "group-algebra(3)"], lambda: verify_psi_map(sl2(), group_algebra(3))),
    (["verify-thm1", "--budget", "3"], lambda: verify_block_decomposition_sweep(None, 3)),
    (["verify-thm1", "--field", "prime(5)", "--budget", "2"],
     lambda: verify_block_decomposition_sweep(make_field("prime", m=1, p=5), 2)),
    (["verify-lemma21"], lambda: verify_psi_lemma_sweep(None)),
    (["verify-lemma21", "--field", "cyclotomic(3)"], lambda: verify_psi_lemma_sweep(make_field("cyclotomic", m=3))),
]


@pytest.mark.parametrize("argv, build", CASES, ids=[" ".join(argv) for argv, _ in CASES])
def test_the_library_report_is_the_cli_report(argv, build):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.run(argv + ["--json"])
    rep = build()
    assert code == (0 if rep.verdict == "pass" else 1)
    assert rep.to_dict() == json.loads(out.getvalue())


def _cli_tree():
    with open(CLI) as fh:
        return ast.parse(fh.read())


def test_the_cli_builds_a_report_only_in_the_display_commands():
    builders = set()
    for fn in ast.walk(_cli_tree()):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "VerificationReport":
                    builders.add(fn.name)
    assert builders == DISPLAY_COMMANDS


def test_the_cli_imports_nothing_of_the_loop_carrier():
    imported = {alias.asname or alias.name for node in ast.walk(_cli_tree())
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert not imported & {"loop_phi", "loop_bm", "coefficient_derivation", "LoopElement"}
