"""The fixed-point algebra and its two readers, against the general reference.

Setup reads the fixed algebra of A (x) S under sigma1 (x) sigma2 off the
degree-zero basis pairs, and d_eval and restrict_pi re-key rows onto them
(Setup.fixed_coords). naive_la.subalgebra_on restricts a product to any
closed span through Subspace.coords; on every setup below the two agree.
"""

import os
from types import SimpleNamespace

import pytest

from dertensor import cli
from dertensor.catalog import group_algebra
from dertensor.decomposition import restrict_pi
from dertensor.exactla import Subspace, apply_map, combine_rows, map_of_columns

from naive_la import NotClosed, subalgebra_on

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SETUPS = [("sl2-twisted-flagship", None), ("sl2-twisted-flagship", "cyclotomic(3)"),
          ("quotient-laurent(1,3)", None), ("quotient-laurent(1,4)", "prime(5,4)"),
          ("quotient-laurent(3,2)", "prime(3,2)"), ("quotient-laurent(4,3)", None)] + [
    (f"tests/setups/{name}.json", None)
    for name in ("sl3-diagram-1", "sl3-diagram-2", "sl3-diagram-eigen-1", "sl3-diagram-eigen-2",
                 "sl2-pair-swap-f3")]


def basis(a, i):
    return ((i, a.field.one()),)


def test_subalgebra_on_closed_span():
    s = group_algebra(4)
    span = Subspace.from_rows(s.field, 4, [basis(s, 0), basis(s, 2)])
    sub = subalgebra_on(s, span)
    assert sub.dim == 2
    # z^2 * z^2 = 1 inside the subalgebra
    assert sub.mult(basis(sub, 1), basis(sub, 1)) == basis(sub, 0)
    # on the span's RREF basis
    assert span._sparse[1] == basis(s, 2)


def test_subalgebra_on_rejects_open_span():
    s = group_algebra(4)
    span = Subspace.from_rows(s.field, 4, [basis(s, 1)])
    with pytest.raises(NotClosed):
        subalgebra_on(s, span)


@pytest.mark.parametrize("name,field", SETUPS, ids=[" ".join(filter(None, c)) for c in SETUPS])
def test_fixed_algebra_and_its_readers_match_the_coords_reference(monkeypatch, name, field):
    monkeypatch.chdir(ROOT)
    st = cli._resolve_setup(name, SimpleNamespace(field=field, force=False, u=None))
    f, n, fixed, k = st.a.field, st.ts.dim, st.fixed_space, st.fixed_algebra.dim
    ref = subalgebra_on(st.ts, fixed)
    assert (st.fixed_algebra.names, st.fixed_algebra._nz) == (ref.names, ref._nz)
    for big in st.der_ts_grading.components[0]._sparse:
        want = map_of_columns([fixed.coords(apply_map(f, big, n, x)) for x in fixed._sparse])
        assert restrict_pi(big, st) == want
    for d in st.der_fixed.space._sparse:
        ev = st.d_eval(d, "reference")
        for x in fixed._sparse:
            want = combine_rows(f, ((v, fixed._sparse[t]) for t, v in apply_map(f, d, k, fixed.coords(x))))
            assert ev(x) == want
