"""Every function and class in src has a caller outside the tests.

The scan is by name and by reference kind, with ast: each non-dunder def
or class in src/dertensor/*.py must be referenced somewhere in src/ or
perfbench/ outside its own body. A method (a def in a class body) counts
as referenced only through an attribute (x.name); any other def or class
counts through a name, an imported name or an attribute (module.name). So
a builtin call sum(...) keeps no method sum alive, but another class's
attribute of the same name still can, as the scan does not resolve types.
perfbench/tests does not count. A name that only a test uses belongs in
tests/, like tests/dense_leibniz.py and tests/loop_quotient.py.
"""

import ast
import glob
import os
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _refs(tree):
    """(is_attribute, name) of each reference in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield False, node.id
        elif isinstance(node, ast.Attribute):
            yield True, node.attr
        elif isinstance(node, ast.alias):
            yield False, node.name.rsplit(".", 1)[-1]


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def dead_names(trees, src):
    """'file:line name' of each def or class in the paths src that no
    reference of its kind in trees (path -> ast) names outside its own body."""
    refs = Counter(ref for tree in trees.values() for ref in _refs(tree))
    dead = []
    for path in src:
        tree = trees[path]
        methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for node in cls.body}
        for node in ast.walk(tree):
            if not isinstance(node, DEFS) or _is_dunder(node.name):
                continue
            kinds = (True,) if id(node) in methods and not isinstance(node, ast.ClassDef) else (True, False)
            # a recursive call is not a caller
            own = Counter(ref for ref in _refs(node) if ref[1] == node.name)
            if sum(refs[kind, node.name] - own[kind, node.name] for kind in kinds) <= 0:
                dead.append(f"{os.path.basename(path)}:{node.lineno} {node.name}")
    return dead


def test_every_src_name_has_a_caller_outside_the_tests():
    src = sorted(glob.glob(os.path.join(ROOT, "src", "dertensor", "*.py")))
    bench = [p for p in sorted(glob.glob(os.path.join(ROOT, "perfbench", "**", "*.py"), recursive=True))
             if os.sep + "tests" + os.sep not in p]
    assert src and bench
    trees = {}
    for path in src + bench:
        with open(path) as fh:
            trees[path] = ast.parse(fh.read())
    assert dead_names(trees, src) == []


SNIPPET = '''
class Bag:
    def sum(self):
        return 0


def total(xs):
    return sum(xs)
'''


def test_a_method_that_only_a_builtin_call_names_is_dead():
    def dead(tail):
        return dead_names({"snippet.py": ast.parse(SNIPPET + tail)}, ["snippet.py"])

    assert dead("\ntotal([Bag])\n") == ["snippet.py:3 sum"]
    assert dead("\ntotal([Bag().sum()])\n") == []
    # a top-level def counts through an attribute too
    assert dead("\nimport snippet\nsnippet.total([Bag().sum()])\n") == []
