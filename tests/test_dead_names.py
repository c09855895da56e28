"""Every function and class in src has a caller outside the tests.

The scan is by name and by reference kind, with ast: each non-dunder def
or class in src/dertensor/*.py must be referenced somewhere in src/ or
perfbench/ outside its own body. A method (a def in a class body) counts
as referenced only through an attribute: x.name, or for the method name
of class C, self.name or cls.name inside C's body, or C.name; any other def
or class counts through a name, an imported name or an attribute
(module.name). So a builtin call sum(...) keeps no method sum alive, and
neither does another class's self.sum(); an attribute x.sum of a value of
unknown type still can, as the scan does not infer types.
perfbench/tests does not count. A name that only a test uses belongs in
tests/, like tests/dense_leibniz.py and tests/loop_quotient.py.
"""

import ast
import glob
import os
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _refs(tree, classes):
    """(kind, name, node) of each reference in tree: kind False for a name,
    C for self.name or cls.name inside the body of class C, or for C.name
    with C in classes, and True for any other attribute x.name."""
    owner = {}  # node -> the innermost class whose body holds it
    for cls in ast.walk(tree):  # breadth first, so inner classes come later
        if isinstance(cls, ast.ClassDef):
            owner.update((id(node), cls.name) for node in ast.walk(cls))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield False, node.id, node
        elif isinstance(node, ast.Attribute):
            base = getattr(node.value, "id", getattr(node.value, "attr", None))
            if base in ("self", "cls") and id(node) in owner:
                yield owner[id(node)], node.attr, node
            else:
                yield base if base in classes else True, node.attr, node
        elif isinstance(node, ast.alias):
            yield False, node.name.rsplit(".", 1)[-1], node


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def dead_names(trees, src):
    """'file:line name' of each def or class in the paths src that no
    reference of its kind in trees (path -> ast) names outside its own body."""
    classes = {cls.name for tree in trees.values() for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)}
    found = {path: list(_refs(tree, classes)) for path, tree in trees.items()}
    refs = Counter((kind, name) for path_refs in found.values() for kind, name, _ in path_refs)
    dead = []
    for path in src:
        tree = trees[path]
        methods = {id(node): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for node in cls.body}
        for node in ast.walk(tree):
            if not isinstance(node, DEFS) or _is_dunder(node.name):
                continue
            kinds = (True, methods[id(node)]) if id(node) in methods and not isinstance(node, ast.ClassDef) \
                else (True, False)
            # a recursive call is not a caller
            inside = {id(sub) for sub in ast.walk(node)}
            own = Counter((kind, name) for kind, name, ref in found[path] if id(ref) in inside)
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


TWO_CLASSES = '''
class Bag:
    def size(self):
        return 0


class Box:
    def size(self):
        return 1

    def report(self):
        return self.size()

    @classmethod
    def make(cls):
        return cls.fresh()

    @classmethod
    def fresh(cls):
        return cls()
'''


def test_a_method_that_only_another_class_names_through_self_is_dead():
    def dead(tail):
        return dead_names({"snippet.py": ast.parse(TWO_CLASSES + tail)}, ["snippet.py"])

    # Box's self.size keeps Box.size alive, not Bag.size; cls.fresh keeps Box.fresh
    uses = "\nBAGS = [Bag]\nBox().report()\n"
    assert dead(uses + "Box.make()\n") == ["snippet.py:3 size"]
    assert dead(uses + "Box.make()\nBag.size(Bag())\n") == []
    # an attribute of a value of unknown type keeps every method of its name alive
    assert dead(uses + "Box.make()\nBAGS[0]().size()\n") == []
    assert dead(uses) == ["snippet.py:3 size", "snippet.py:15 make"]
