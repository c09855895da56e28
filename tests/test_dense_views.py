"""The engine reads and builds no dense form of an algebra, a vector, a subspace or a map.

An algebra stores only its sparse products table, elements and subspaces
are sparse rows, and an automorphism is a sparse flattened map from the
setup file or catalog entry that writes it to the Setup. The dense forms
that remain serve readers outside src/dertensor (the benchmark's input
rewriting and hand-written test tables): the dense table adapter
Algebra(field, names, table), the view Algebra.table, Algebra.basis_vector,
Subspace.from_vectors, Subspace.rows, the Matrix class and
catalog.diagonal_matrix. The scan is by name, with ast, over
src/dertensor/*.py: no code there reads those attributes or calls the
adapter, Matrix(...), Matrix.identity(...) or diagonal_matrix(...), so they
can be deleted together with their outside readers. Matrix.rows is read by
Matrix itself only.
"""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DENSE_NAMES = {"table", "basis_vector", "from_vectors", "rows", "diagonal_matrix"}

# the definitions of the dense forms, which src reads nowhere
DENSE_DEFINITIONS = {"Algebra.table", "Algebra.basis_vector", "Subspace.from_vectors", "Subspace.rows",
                     "diagonal_matrix"}

# where Matrix.rows may be read: the class itself
MATRIX_READERS = {("exactla.py", "Matrix")}

# the calls that build a dense form: the table adapter, a Matrix and a dense diagonal
DENSE_CALLS = {"Algebra", "Matrix", "Matrix.identity", "diagonal_matrix"}


def _called(func):
    """The called name: f for f(...), C.m for C.m(...), else None."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return f"{func.value.id}.{func.attr}"
    return None


def _scan(sources):
    """(definitions, reads) over {file name: source}: the qualified names of
    the DENSE_NAMES defined there, and (file, enclosing qualified name,
    attribute) of each read of one of them, or (file, enclosing qualified
    name, "call(...)") of each call in DENSE_CALLS, outside those definitions."""
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
            if isinstance(child, ast.Call) and _called(child.func) in DENSE_CALLS:
                reads.append((path, ".".join(scope), f"{_called(child.func)}(...)"))
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

def diagonal_matrix(field, entries):
    return Matrix(field, [entries], 1)

def build(f, a, space):
    return Algebra(f, a.names, a.table), a.basis_vector(0), space.rows, Subspace.from_vectors(f, 1, [])

def automorphisms(f, a):
    return Matrix(f, [], 0), Matrix.identity(f, 3), diagonal_matrix(f, [1]), catalog.diagonal_matrix
"""
    exactla = "class Matrix:\n    x = y.rows\n    @classmethod\n    def identity(cls, f, n):\n        return cls(f, [])\n"
    defs, reads = _scan({"gradings.py": snippet, "exactla.py": exactla})
    assert defs == {"diagonal_matrix"}
    assert reads == [("gradings.py", "Matrix.mul", "rows"), ("gradings.py", "Matrix.mul", "table"),
                     ("gradings.py", "check_automorphism", "rows"),
                     ("gradings.py", "build", "Algebra(...)"), ("gradings.py", "build", "table"),
                     ("gradings.py", "build", "basis_vector"), ("gradings.py", "build", "rows"),
                     ("gradings.py", "build", "from_vectors"),
                     ("gradings.py", "automorphisms", "Matrix(...)"),
                     ("gradings.py", "automorphisms", "Matrix.identity(...)"),
                     ("gradings.py", "automorphisms", "diagonal_matrix(...)"),
                     ("gradings.py", "automorphisms", "diagonal_matrix")]
