"""Each hypothesis a report lists can fail, and its refusal names a witness.

For every hypothesis name that verify-thm1, verify-lemma21 and the commands
that build a Setup list in a passing report, an input makes that command
exit 3 through cli.run with empty stdout, and stderr carries the failed
item's [tag] and the witness: a basis index, pair or triple, or the property
that fails. A listed name with no row here fails the test. psi-iso cannot
fail on a pair that meets perfect-A and scalar-S (Lemma 2.1 proves psi
bijective there), so its row runs under a mutant of invariants._psi_images
that repeats the first image.

Each of those refusals is raised at one site in src/: the guard at the end
reads the source with ast.
"""

import ast
import glob
import json
import os

import pytest

import dertensor.cli as cli
from dertensor import invariants

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RATIONAL = {"kind": "rational"}


def _definition(names, products):
    """An inline algebra over Q whose product b_i b_j is b_k for each (i, j): k."""
    table = [[[[products[i, j], "1"]] if (i, j) in products else [] for j in range(len(names))]
             for i in range(len(names))]
    return {"field": RATIONAL, "dim": len(names), "basis": names, "table": table}


# unital, not commutative: u01 u00 = 0 but u00 u01 = u01
UPPER = _definition(["u00", "u01", "u11"], {(0, 0): 0, (0, 1): 1, (2, 2): 2, (1, 2): 1})
# unital and commutative with x^2 = y, y^2 = x, xy = 0: (x x) y = x but x (x y) = 0
CUBIC = _definition(["1", "x", "y"], {(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 0): 1, (2, 0): 2,
                                      (1, 1): 2, (2, 2): 1})


def _identity(n, period=2):
    return {"diagonal": ["1"] * n, "period": period}


PAIR_INPUT = ("sl2", "dual-numbers")
SETUP_INPUT = {"field": "rational", "a": "sl2", "s": "group-algebra(2)",
               "aut1": {"diagonal": ["-1", "1", "-1"], "period": 2},
               "aut2": {"diagonal": ["1", "-1"], "period": 2}}

# what fails scalar-S, as (right factor, automorphism of it, tag, witness)
SCALAR_FAILURES = [
    ("zero-product(2)", _identity(2), "unital", "right factor is not unital"),
    (UPPER, _identity(3), "commutative", "u01*u00 != u00*u01 (basis pair (1, 0))"),
    (CUBIC, _identity(3), "associative", "(x*x)*y != x*(x*y) (basis triple (1, 1, 2))"),
]
PSI_WITNESS = "injective fails (domain dim 2, C(A tensor S) dim 2)"

# hypothesis name -> rows (changes to the passing pair, tag, witness, under the psi mutant)
PAIR_ROWS = {
    "perfect-A": [({"a": "zero-product(2)"}, "perfect", "b0 (basis vector 0) is not in A*A", False)],
    "scalar-S": [({"s": s}, tag, witness, False) for s, _, tag, witness in SCALAR_FAILURES],
    "psi-iso": [({}, "psi-iso", PSI_WITNESS, True)],
}
# hypothesis name -> rows (changes to the passing setup file, tag, witness, under the psi mutant)
SETUP_ROWS = {
    "perfect-A": [({"a": "zero-product(2)", "aut1": _identity(2)}, "perfect",
                   "b0 (basis vector 0) is not in A*A", False)],
    "scalar-S": [({"s": s, "aut2": aut}, tag, witness, False) for s, aut, tag, witness in SCALAR_FAILURES],
    # diag(1, -1) has period 4 as well, which the period-2 aut1 does not share
    "automorphism-periods": [({"aut2": {"diagonal": ["1", "-1"], "period": 4}}, "automorphism-periods",
                              "declared periods differ: 2 vs 4", False)],
    # Q has no primitive cube root: the identity twists leave degree one empty
    "graded-unit": [({"s": "group-algebra(3)", "aut1": _identity(3, 3), "aut2": _identity(3, 3)},
                     "graded-unit", "no invertible element found in the degree-1 component", False)],
    "psi-iso": [({}, "psi-iso", PSI_WITNESS, True)],
}

SETUP_COMMANDS = ("verify-thm2", "verify-lemma35", "phi-eval", "bm-eval", "lemma-identities", "grade", "fixed")


def _write(tmp_path, name, content):
    p = tmp_path / name
    p.write_text(json.dumps(content))
    return str(p)


def _run(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _repeat_first_image(images):
    def mutant(a, s):
        cols = images(a, s)
        return cols[:1] * len(cols)
    return mutant


@pytest.mark.parametrize("command", ("verify-thm1", "verify-lemma21") + SETUP_COMMANDS)
def test_every_listed_hypothesis_fails_on_an_input_that_names_its_witness(command, tmp_path, capsys, monkeypatch):
    if command in SETUP_COMMANDS:
        rows = SETUP_ROWS

        def argv_of(changes):
            return [command, "--setup", _write(tmp_path, "setup.json", dict(SETUP_INPUT, **changes))]
    else:
        rows = PAIR_ROWS

        def argv_of(changes):
            a, s = (changes.get(key, given) for key, given in zip("as", PAIR_INPUT))
            return [command, "--algebra", a, "--s", s if isinstance(s, str) else _write(tmp_path, "s.json", s)]

    code, out, _ = _run(capsys, argv_of({}) + ["--json"])
    assert code == 0
    listed = [h["name"] for h in json.loads(out)["hypotheses"]]
    assert set(listed) <= set(rows), f"{command} lists hypotheses with no failing input"
    for name in listed:
        for changes, tag, witness, mutant in rows[name]:
            with monkeypatch.context() as m:
                if mutant:
                    m.setattr(invariants, "_psi_images", _repeat_first_image(invariants._psi_images))
                code, out, err = _run(capsys, argv_of(changes) + ["--json"])
            assert (code, out) == (3, ""), (name, tag, err)
            assert err.startswith("hypothesis not met: ") and err.endswith(f" [{tag}]\n"), (name, err)
            assert witness in err, (name, err)


# -- one refusal site per hypothesis -----------------------------------------


def _raise_sites(pred):
    """'file:line' of each raise statement in src/dertensor whose exception satisfies pred."""
    sites = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "dertensor", "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        sites += [f"{os.path.basename(path)}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Raise) and node.exc is not None and pred(node.exc)]
    return sites


def _called(name):
    return lambda exc: isinstance(exc, ast.Call) and getattr(exc.func, "id", None) == name


@pytest.mark.parametrize("name", ["NotPerfect", "NotCommutative", "NotAssociative", "PsiNotIso"])
def test_each_hypothesis_is_refused_at_one_site(name):
    assert len(_raise_sites(_called(name))) == 1


def test_the_automorphism_periods_tag_is_raised_at_one_site():
    def tagged(exc):
        return isinstance(exc, ast.Call) and any(
            isinstance(arg, ast.Constant) and arg.value == "automorphism-periods"
            for arg in list(exc.args) + [kw.value for kw in exc.keywords])

    assert len(_raise_sites(tagged)) == 1
