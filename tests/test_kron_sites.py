"""Each tensor-side span has one construction.

A tensor of two factor maps (exactla.sparse_kron) is built in two places
only: embed_tensor_derivations, whose spans Theorem 1 compares with
D(A (x) S) and Lemma 3.5 grades, and invariants._psi_images, the images of
psi that psi_map reports and psi_multiplicative reads. The scan is by name,
with ast, over src/dertensor/*.py outside exactla.py, as in
test_one_tensor_algebra.py.
"""

import ast

from test_one_tensor_algebra import _src

KRON_SITES = [("decomposition.py", "embed_tensor_derivations"), ("invariants.py", "_psi_images")]


def _kron_calls(sources):
    """(file, enclosing function) of each call of sparse_kron or x.sparse_kron in {file name: source}."""
    found = []

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
            if isinstance(child, ast.Call) and "sparse_kron" in (getattr(child.func, "id", None),
                                                                 getattr(child.func, "attr", None)):
                found.append((path, scope))
            visit(child, path, inner)

    for path, text in sources.items():
        visit(ast.parse(text), path, None)
    return found


def test_sparse_kron_is_called_only_where_each_span_is_built():
    sources = {path: text for path, text in _src().items() if path != "exactla.py"}
    assert _kron_calls(sources) == KRON_SITES


def test_the_scan_sees_each_kind_of_call():
    snippet = """
def spans(f, xs, ys):
    return [sparse_kron(f, x, 2, y, 2) for x in xs for y in ys]

def nested(f, x, y):
    def inner():
        return exactla.sparse_kron(f, x, 2, y, 2)
    return inner

top = sparse_kron(1, (), 1, (), 1)
"""
    assert _kron_calls({"x.py": snippet}) == [("x.py", "spans"), ("x.py", "inner"), ("x.py", None)]
