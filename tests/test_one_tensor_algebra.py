"""Each pair of factors has one tensor algebra, and tensor_product hands it out.

tensor_product(a, s) keeps A (x) S on a, so every caller that asks for the
same pair of objects gets the same algebra with its solved D and C. No
function in src/dertensor takes that algebra as a parameter named ts: a
caller that leaves such an argument out would have the callee build, and
solve, a second one. The scan is by name, with ast, over src/dertensor/*.py,
as in test_dense_views.py.
"""

import ast
import glob
import os

from dertensor.algebra import tensor_product
from dertensor.catalog import dual_numbers, sl2

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _ts_parameters(sources):
    """(file, function) of each def or lambda in {file name: source} with a parameter named ts."""
    found = []
    for path, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]
                if any(p.arg == "ts" for p in params):
                    found.append((path, getattr(node, "name", "<lambda>")))
    return found


def _src():
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "dertensor", "*.py")))
    assert paths
    out = {}
    for path in paths:
        with open(path) as fh:
            out[os.path.basename(path)] = fh.read()
    return out


def test_no_src_function_takes_the_tensor_algebra():
    assert _ts_parameters(_src()) == []


def test_the_scan_sees_each_kind_of_ts_parameter():
    snippet = """
def positional(a, s, ts=None):
    return ts

def keyword(a, *, ts):
    return ts

def local(a, s):
    ts = a
    return ts

late = lambda ts: ts
"""
    assert _ts_parameters({"x.py": snippet}) == [("x.py", "positional"), ("x.py", "keyword"), ("x.py", "<lambda>")]


def test_tensor_product_is_one_algebra_per_pair_of_objects():
    a, s = sl2(), dual_numbers()
    ts = tensor_product(a, s)
    assert tensor_product(a, s) is ts
    # another object is another pair, even with an equal table
    assert tensor_product(a, dual_numbers()) is not ts
    assert tensor_product(sl2(), s) is not ts
    # the cache is the algebra's: cleared, the product is built afresh, equal
    a._cache.clear()
    again = tensor_product(a, s)
    assert again is not ts
    assert (again.names, again._nz) == (ts.names, ts._nz)
