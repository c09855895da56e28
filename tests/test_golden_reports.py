"""Every pinned command still prints the same report with the same exit code.

The golden file holds, per command line, the exit code and the sha256 of its
stdout, recorded in process with the repository root as the working
directory, so a setup file named by a relative path gives the same entry from
any directory. A refactor that must leave every report
byte-identical is checked by this test; a change that alters a report on
purpose re-records only that command:

    PYTHONPATH=src python tests/test_golden_reports.py --record "counterexample-bm --json"

With no command named, --record rewrites every entry.
"""

import hashlib
import io
import json
import os
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest

import dertensor.cli as cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden_reports.json")

# the catalog sweep pairs, as the benchmark runs them one at a time
PAIRS = [(a, s) for a in ("sl2", "sl2-graded-variant")
         for s in ("dual-numbers", "group-algebra(2)", "group-algebra(3)", "group-algebra(4)")]

SOLVERS = (("derive", "sl2"), ("centroid", "group-algebra(3)"), ("dcentroid", "dual-numbers"))
FIELDS = ([], ["--field", "prime(5)"], ["--field", "cyclotomic(3)"])

# the commands that build a Setup, as the sl3 diagram goldens run them
SETUP_COMMANDS = ("verify-thm2", "verify-lemma35", "phi-eval", "bm-eval", "lemma-identities", "grade",
                  "fixed")

COMMANDS = (
    [["verify-thm1", "--budget", "25", "--json", "--algebra", a, "--s", s] for a, s in PAIRS]
    + [["verify-lemma21", "--json", "--algebra", a, "--s", s] for a, s in PAIRS]
    + [["verify-lemma21", "--algebra", "zero-product(2)", "--s", "dual-numbers"]]
    + [
        ["verify-thm2", "--setup", "sl2-twisted-flagship", "--json"],
        ["verify-thm2", "--setup", "quotient-laurent(1,3)", "--json"],
        ["verify-lemma35", "--setup", "sl2-twisted-flagship", "--json"],
        ["lemma-identities", "--setup", "sl2-twisted-flagship", "--json"],
        ["phi-eval", "--setup", "sl2-twisted-flagship", "--json"],
        ["phi-eval", "--setup", "quotient-laurent(1,4)", "--field", "prime(5,4)", "--json"],
        ["bm-eval", "--setup", "sl2-twisted-flagship", "--json"],
        ["phi-eval", "--json"],
        ["phi-eval", "--setup", "last-exa-ii", "--m", "24", "--json"],
        ["phi-eval", "--setup", "last-exa-ii", "--m", "32", "--json"],
        ["counterexample-bm", "--json"],
    ]
    + [[cmd, "--algebra", alg] + fld + js for cmd, alg in SOLVERS for fld in FIELDS
       for js in ([], ["--json"])]
    + [
        ["verify-thm2", "--setup", "quotient-laurent(1,4)", "--field", "prime(5,4)", "--json"],
        ["bm-eval", "--setup", "quotient-laurent(1,3)", "--json"],
        ["phi-eval", "--setup", "last-exa-ii", "--m", "12"],
        ["bm-eval", "--json"],
        ["bm-eval", "--setup", "last-exa-i"],
        ["counterexample-bm"],
        ["lemma-identities", "--setup", "sl2-twisted-flagship", "--budget", "1", "--json"],
        ["lemma-identities", "--setup", "sl2-twisted-flagship", "--budget", "4", "--json"],
        # the identity twist: no product of left degrees can wrap
        ["lemma-identities", "--setup", "quotient-laurent(1,3)", "--json"],
        ["lemma-identities", "--setup", "quotient-laurent(1,4)", "--field", "prime(5,4)",
         "--json"],
        # the published-formula scene pins values of the paper's example only
        ["counterexample-bm", "--u", "z^5", "--json"],
        ["counterexample-bm", "--style", "inverse", "--u", "z^-1", "--json"],
        ["bm-eval", "--u", "z"],
        # Laurent literals for the graded unit of the scenes
        ["phi-eval", "--setup", "last-exa-i", "--u", "z^5", "--json"],
        ["phi-eval", "--setup", "last-exa-i", "--u", "(1/2)*z^-3", "--json"],
        ["phi-eval", "--setup", "last-exa-i", "--u", "z^2", "--json"],
        ["phi-eval", "--setup", "last-exa-i", "--u", "z + z^5", "--json"],
        ["phi-eval", "--setup", "last-exa-i", "--u", "z^x", "--json"],
        ["phi-eval", "--setup", "last-exa-ii(3,1)", "--u=-z^-4", "--json"],
        ["phi-eval", "--setup", "last-exa-ii", "--m", "3", "--style", "forward", "--u", "z",
         "--json"],
        # --style names a Laurent grading; a finite setup has none
        ["phi-eval", "--setup", "quotient-laurent(1,4)", "--field", "prime(5,4)", "--style",
         "inverse", "--json"],
        # help text, built from the command table
        ["--help"],
        ["phi-eval", "--help"],
        ["verify-thm1", "--help"],
        # the Laurent scenes are fixed over Q and tiny: --field and --force are refused
        ["phi-eval", "--field", "prime(5,4)", "--json"],
        ["phi-eval", "--setup", "last-exa-i", "--field", "prime(5,4)", "--json"],
        ["phi-eval", "--setup", "last-exa-ii", "--m", "3", "--field", "prime(5,4)", "--json"],
        ["phi-eval", "--force", "--json"],
        ["bm-eval", "--field", "prime(5,4)", "--json"],
        ["bm-eval", "--force", "--json"],
        # phi with a user-chosen unit on a finite setup; a unit of degree q = 2 is the
        # one case where the published formula's unit differs from u'
        ["verify-thm2", "--setup", "sl2-twisted-flagship", "--u", "z3", "--json"],
        ["phi-eval", "--setup", "sl2-twisted-flagship", "--u", "z3", "--json"],
        ["bm-eval", "--setup", "quotient-laurent(2,3)", "--u", "z2", "--json"],
        ["verify-thm2", "--setup", "quotient-laurent(2,3)", "--u", "z2", "--json"],
        ["lemma-identities", "--setup", "quotient-laurent(2,3)", "--u", "z2", "--json"],
        # n = 24: large enough that a few generator pairs differ much from all pairs
        ["verify-thm1", "--budget", "25", "--json", "--algebra", "sl2", "--s", "group-algebra(8)"],
        ["verify-lemma21", "--json", "--algebra", "sl2", "--s", "group-algebra(8)", "--field",
         "prime(31,3)"],
        # the direct sums of Lemma 3.5 and Theorem 1, and a residual pass over Q(zeta_3)
        ["verify-lemma35", "--setup", "quotient-laurent(2,3)", "--json"],
        ["verify-thm1", "--algebra", "sl2", "--s", "group-algebra(3)", "--field", "cyclotomic(3)",
         "--json"],
        # phi and BM over Q(zeta_3) with three left degrees, and the char-p branch
        ["phi-eval", "--setup", "quotient-laurent(2,3)", "--json"],
        ["bm-eval", "--setup", "quotient-laurent(2,3)", "--json"],
        ["phi-eval", "--setup", "sl2-twisted-flagship", "--field", "prime(5,4)", "--json"],
        # an order-2 root of unity in a field declared with odd m: -omega
        ["verify-thm2", "--setup", "sl2-twisted-flagship", "--field", "cyclotomic(3)", "--json"],
        ["verify-lemma35", "--setup", "sl2-twisted-flagship", "--field", "cyclotomic(3)", "--json"],
        # every claim report the library builds, including the no-pair sweeps
        ["psi-check", "--algebra", "sl2", "--s", "group-algebra(3)", "--json"],
        ["verify-thm1", "--budget", "25", "--json"],
        ["verify-lemma21", "--json"],
        ["verify-lemma21"],
        ["phi-eval", "--setup", "exaBM-laurent", "--json"],
        ["bm-eval", "--setup", "exaBM-laurent", "--json"],
        ["phi-eval", "--setup", "last-exa-ii(1,0)", "--json"],
        # a scene that takes no arguments refuses them in every command
        ["bm-eval", "--setup", "exaBM-laurent(3)"],
        ["bm-eval", "--setup", "last-exa-i(1,2)"],
        # the grading, fixed-algebra and catalog reports
        ["grade", "--setup", "sl2-twisted-flagship", "--json"],
        ["grade", "--setup", "quotient-laurent(2,3)"],
        ["fixed", "--setup", "sl2-twisted-flagship", "--json"],
        ["catalog", "show", "sl2-twisted-flagship", "--json"],
        # a scene's default unit is the degree-one unit of its style
        ["phi-eval", "--style", "inverse", "--json"],
        ["phi-eval", "--setup", "last-exa-i", "--style", "inverse", "--json"],
        ["phi-eval", "--setup", "last-exa-ii", "--m", "3", "--style", "forward", "--json"],
    ]
    # a setup where D(S) is not zero: k[z]/(z^6 - 1) over F_3 is not semisimple
    + [[cmd, "--setup", "quotient-laurent(3,2)", "--field", "prime(3,2)", "--json"]
       for cmd in ("verify-thm2", "verify-lemma35", "phi-eval", "bm-eval", "lemma-identities")]
    # sigma not diagonal in the given basis: the sl3 diagram automorphism against z -> -z
    + [[cmd, "--setup", f"tests/setups/sl3-diagram-{n}.json", "--json"] for n in (1, 2)
       for cmd in SETUP_COMMANDS]
    # the properties an algebra reports; over F_2, sl2 is commutative and not perfect
    + [["catalog", "show", name, "--json"] for name in ("sl2", "zero-product(2)", "dual-numbers")]
    + [["catalog", "show", "sl2", "--field", "prime(2)", "--json"]]
    # a pair that fails a hypothesis is refused with exit 3 and no report
    + [["psi-check", "--algebra", "zero-product(2)", "--s", "dual-numbers", "--json"],
       ["verify-thm1", "--algebra", "sl2", "--s", "zero-product(2)", "--json"]]
)


def run_report(argv):
    """(exit code, stdout) of one in-process CLI run; stderr is dropped."""
    out, here = io.StringIO(), os.getcwd()
    os.chdir(ROOT)
    try:
        # help text wraps at the terminal width; pin it
        with redirect_stdout(out), redirect_stderr(io.StringIO()), \
                mock.patch.dict(os.environ, {"COLUMNS": "80"}):
            code = cli.run(list(argv))
    finally:
        os.chdir(here)
    return code, out.getvalue()


def record_of(argv):
    code, out = run_report(argv)
    return {"argv": list(argv), "rc": code,
            "sha256": hashlib.sha256(out.encode()).hexdigest()}


def load_golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_golden_file_covers_every_command():
    assert [e["argv"] for e in load_golden()] == COMMANDS


def test_every_cli_command_starts_a_golden_command_line():
    assert {name for name, *_ in cli.COMMANDS} <= {argv[0] for argv in COMMANDS}


@pytest.mark.parametrize("argv", COMMANDS, ids=shlex.join)
def test_report_matches_golden(argv):
    want = next(e for e in load_golden() if e["argv"] == argv)
    assert record_of(argv) == want


@pytest.mark.parametrize("n", (1, 2))
@pytest.mark.parametrize("cmd", SETUP_COMMANDS)
def test_sl3_diagram_reports_equal_their_eigenbasis_twins(cmd, n):
    """The sl3 setup whose sigma swaps e1, e2 (and h1, h2 and f1, f2) reports
    what the same setup written on sigma's eigenbasis e1 +- e2, h1 +- h2,
    f1 +- f2, e12, f12 reports, where sigma is diagonal."""
    given, twin = (run_report([cmd, "--setup", f"tests/setups/{name}-{n}.json", "--json"])
                   for name in ("sl3-diagram", "sl3-diagram-eigen"))
    assert given == twin


def record(only=()):
    """Rewrite the golden file; with `only`, just those command lines."""
    old = {}
    if only and os.path.exists(GOLDEN):
        old = {shlex.join(e["argv"]): e for e in load_golden()}
    entries = []
    for argv in COMMANDS:
        key = shlex.join(argv)
        entries.append(old[key] if only and key not in only and key in old
                       else record_of(argv))
    with open(GOLDEN, "w") as fh:
        json.dump(entries, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:2] != ["--record"]:
        raise SystemExit(__doc__)
    record({shlex.join(shlex.split(c)) for c in sys.argv[2:]})
