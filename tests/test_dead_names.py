"""Every function and class in src has a caller outside the tests.

The scan is by name, with ast: each non-dunder def or class in
src/dertensor/*.py must be referenced (as a name, an attribute or an
imported name) somewhere in src/ or perfbench/ outside its own body.
perfbench/tests does not count. A name that only a test uses belongs in
tests/, like tests/dense_leibniz.py and tests/loop_quotient.py.
"""

import ast
import glob
import os
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def test_every_src_name_has_a_caller_outside_the_tests():
    src = sorted(glob.glob(os.path.join(ROOT, "src", "dertensor", "*.py")))
    bench = [p for p in sorted(glob.glob(os.path.join(ROOT, "perfbench", "**", "*.py"), recursive=True))
             if os.sep + "tests" + os.sep not in p]
    assert src and bench
    refs, own, defs = Counter(), Counter(), []
    for path in src + bench:
        with open(path) as fh:
            tree = ast.parse(fh.read())
        refs.update(_names(tree))
        if path in src:
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                        and not _is_dunder(node.name):
                    defs.append(f"{os.path.basename(path)}:{node.lineno} {node.name}")
                    # a recursive call is not a caller
                    own[node.name] += sum(1 for n in _names(node) if n == node.name)
    dead = [d for d in defs if refs[d.split()[-1]] <= own[d.split()[-1]]]
    assert dead == []
