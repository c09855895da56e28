"""The engine reads no dense form of an algebra, a vector or a subspace.

An algebra stores only its sparse products table, and elements and
subspaces are sparse rows. The dense forms that remain serve readers
outside src/dertensor (the benchmark's input rewriting and hand-written
test tables): the dense table adapter Algebra(field, names, table), the
view Algebra.table, Algebra.basis_vector, Subspace.from_vectors and
Subspace.rows. The scan is by name, with ast, over src/dertensor/*.py: no
code there reads those attributes or calls the adapter, so they can be
deleted together with their outside readers. A Matrix is the one dense
form inside the engine, the form an automorphism is written in: its rows
are read by Matrix itself and by gradings.check_automorphism only.
"""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DENSE_NAMES = {"table", "basis_vector", "from_vectors", "rows"}

# the definitions of the dense forms, which src reads nowhere
DENSE_DEFINITIONS = {"Algebra.table", "Algebra.basis_vector", "Subspace.from_vectors", "Subspace.rows"}

# where Matrix.rows may be read: the dense form of an automorphism
MATRIX_READERS = {("exactla.py", "Matrix"), ("gradings.py", "check_automorphism")}


def _scan(sources):
    """(definitions, reads) over {file name: source}: the qualified names of
    the DENSE_NAMES defined there, and (file, enclosing qualified name,
    attribute) of each read of one of them, or call of Algebra(...),
    outside those definitions."""
    defs, reads = set(), []

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                if child.name in DENSE_NAMES:
                    defs.add(".".join(scope + [child.name]))
                else:
                    visit(child, path, scope + [child.name])
                continue
            if isinstance(child, ast.Attribute) and child.attr in DENSE_NAMES and not (
                    child.attr == "rows" and any((path, part) in MATRIX_READERS for part in scope)):
                reads.append((path, ".".join(scope), child.attr))
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == "Algebra":
                reads.append((path, ".".join(scope), "Algebra(...)"))
            visit(child, path, scope)

    for path, text in sources.items():
        visit(ast.parse(text), path, [])
    return defs, reads


def _src():
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "dertensor", "*.py")))
    assert paths
    out = {}
    for path in paths:
        with open(path) as fh:
            out[os.path.basename(path)] = fh.read()
    return out


def test_src_reads_no_dense_form():
    assert _scan(_src())[1] == []


def test_the_dense_forms_left_are_exactly_those_outside_readers_use():
    assert _scan(_src())[0] == DENSE_DEFINITIONS


def test_the_scan_sees_each_kind_of_read():
    snippet = """
class Matrix:
    def mul(self, other):
        return self.rows, other.table

def check_automorphism(algebra, matrix):
    return matrix.rows

def build(f, a, space):
    return Algebra(f, a.names, a.table), a.basis_vector(0), space.rows, Subspace.from_vectors(f, 1, [])
"""
    defs, reads = _scan({"gradings.py": snippet, "exactla.py": "class Matrix:\n    x = y.rows\n"})
    assert defs == set()
    assert reads == [("gradings.py", "Matrix.mul", "rows"), ("gradings.py", "Matrix.mul", "table"),
                     ("gradings.py", "build", "Algebra(...)"), ("gradings.py", "build", "table"),
                     ("gradings.py", "build", "basis_vector"), ("gradings.py", "build", "rows"),
                     ("gradings.py", "build", "from_vectors")]
