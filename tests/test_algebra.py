import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dertensor.algebra import (
    Algebra,
    invert_element,
    tensor_product,
    tensor_vector,
)
from dertensor.catalog import catalog_algebra, catalog_entries, dual_numbers, group_algebra, sl2, zero_product
from dertensor.errors import NotUnital, ParseError, SingularElement
from dertensor.exactla import apply_map, compose_maps
from dertensor.scalars import make_field

from naive_la import dense_mult, sparse

QQ = make_field("rational")


def F(x):
    return Fraction(x)


def basis(a, i):
    """Basis vector i of a as a sparse row."""
    return sparse(a.field, a.basis_vector(i))


def test_sl2_bracket_table():
    a = sl2()
    e, h, f = (basis(a, i) for i in range(3))
    assert a.mult(e, f) == h
    assert a.mult(h, e) == sparse(QQ, [F(2), F(0), F(0)])
    assert a.mult(h, f) == sparse(QQ, [F(0), F(0), F(-2)])
    assert a.mult(e, e) == sparse(QQ, [F(0)] * 3)


def test_sl2_properties():
    a = sl2()
    # oracle: the products e*f, h*e, h*f already span h, e, f by hand
    assert a.imperfect_index() is None
    # h e = 2e but e h = -2e; (e e) f = 0 but e (e f) = e h = -2e
    assert a.noncommuting_pair() == (1, 0)
    assert a.nonassociative_triple() == (0, 0, 2)
    assert a.unit() is None
    assert a.properties() == {"perfect": True, "unital": False, "commutative": False, "associative": False}


def test_property_cache_agrees_with_recomputation():
    a = sl2()
    first = a.properties()
    a._cache.clear()
    assert a.properties() == first


def test_dual_numbers_properties():
    s = dual_numbers()
    assert s.noncommuting_pair() is None and s.nonassociative_triple() is None
    assert s.unit() == sparse(QQ, [F(1), F(0)])
    assert s.imperfect_index() is None  # unital algebras always are perfect


def test_zero_product_not_perfect():
    z = zero_product(2)
    # every product is zero, so b0 is the first basis vector outside A*A = 0
    assert z.imperfect_index() == 0
    assert z.unit() is None


def test_group_algebra_unit_and_inverse():
    s = group_algebra(4)
    assert s.unit() == sparse(QQ, [F(1), F(0), F(0), F(0)])
    zinv = invert_element(s, basis(s, 1))
    assert zinv == basis(s, 3)  # z^{-1} = z^3
    # 1 - z^2 is a zero divisor: (1 - z^2)(1 + z^2) = 0
    zd = sparse(QQ, [F(1), F(0), F(-1), F(0)])
    with pytest.raises(SingularElement):
        invert_element(s, zd)
    with pytest.raises(NotUnital):
        invert_element(sl2(), basis(sl2(), 0))


def test_mult_map_composition_convention():
    s = group_algebra(4)
    lz = s.mult_map(basis(s, 1))
    # column convention: image of basis j is column j, so L_z L_z = L_{z^2}
    assert compose_maps(s.field, lz, lz, 4) == s.mult_map(basis(s, 2))
    assert apply_map(s.field, lz, 4, basis(s, 0)) == basis(s, 1)


def test_mult_operators_cached_and_correct():
    a = sl2()
    lefts = a.left_mult_operators()
    assert [(rc, x) for rc, x in lefts[1] if rc % 3 == 0] == [(0, F(2))]  # column 0: L_h e = 2e
    assert a.mult(basis(a, 0), basis(a, 1)) == sparse(QQ, [F(-2), F(0), F(0)])  # eh = -2e
    assert a.left_mult_operators() is a.left_mult_operators()


def test_tensor_product_hand_expanded_dual_dual():
    s = dual_numbers()
    t = tensor_product(s, s)
    assert t.dim == 4
    assert t.names == ["1⊗1", "1⊗x", "x⊗1", "x⊗x"]
    # hand-expanded table: index pairs (i,j) at i*2+j
    one = [F(1), F(0), F(0), F(0)]
    oy = [F(0), F(1), F(0), F(0)]
    xo = [F(0), F(0), F(1), F(0)]
    xy = [F(0), F(0), F(0), F(1)]
    zero = [F(0)] * 4
    expect = {
        (0, 0): one, (0, 1): oy, (0, 2): xo, (0, 3): xy,
        (1, 0): oy, (1, 1): zero, (1, 2): xy, (1, 3): zero,
        (2, 0): xo, (2, 1): xy, (2, 2): zero, (2, 3): zero,
        (3, 0): xy, (3, 1): zero, (3, 2): zero, (3, 3): zero,
    }
    for (i, j), vec in expect.items():
        assert list(t.table[i][j]) == vec, (i, j)


def test_tensor_vector_order():
    a, s = sl2(), dual_numbers()
    v = tensor_vector(a, s, basis(a, 1), basis(s, 1))
    t = tensor_product(a, s)
    assert v == basis(t, 1 * 2 + 1)


def test_tensor_preserves_flags():
    t = tensor_product(group_algebra(2), group_algebra(3))
    assert t.properties() == {"perfect": True, "unital": True, "commutative": True, "associative": True}
    assert t.unit() == tensor_vector(group_algebra(2), group_algebra(3),
                                     group_algebra(2).unit(), group_algebra(3).unit())


def test_definition_round_trip_bit_exact():
    for alg in (sl2(), group_algebra(3), dual_numbers()):
        d = alg.to_definition()
        text = json.dumps(d, sort_keys=True)
        back = Algebra.from_definition(json.loads(text))
        assert back.table == alg.table
        assert back.names == alg.names
        assert json.dumps(back.to_definition(), sort_keys=True) == text


def test_definition_round_trip_other_fields():
    f5 = make_field("prime", m=4, p=5)
    z4 = make_field("cyclotomic", m=4)
    for alg in (sl2(f5), group_algebra(4, z4)):
        d = json.loads(json.dumps(alg.to_definition()))
        back = Algebra.from_definition(d)
        assert back.table == alg.table and back.field == alg.field


def test_definition_validation_errors():
    good = sl2().to_definition()
    bad = json.loads(json.dumps(good))
    bad["table"][0][0] = [[5, "1"]]
    with pytest.raises(ParseError):
        Algebra.from_definition(bad)
    bad2 = json.loads(json.dumps(good))
    bad2["table"][0][1] = [[0, "1"], [0, "2"]]
    with pytest.raises(ParseError):
        Algebra.from_definition(bad2)
    bad3 = json.loads(json.dumps(good))
    bad3["basis"] = ["a", "a", "b"]
    with pytest.raises(ParseError):
        Algebra.from_definition(bad3)


def test_associativity_flag_on_associative_and_not():
    assert group_algebra(5).nonassociative_triple() is None
    assert sl2().nonassociative_triple() is not None
    assert zero_product(3).nonassociative_triple() is None
    assert zero_product(3).noncommuting_pair() is None


# -- associativity on the sparse table against the dense loop -----------------


def dense_associator(a):
    """The first row-major triple where the associator is not zero, or None, by
    the loop the associativity check used to run: n^3 products of dense basis vectors."""
    n, e = a.dim, a.basis_vector
    return next(((i, j, k) for i in range(n) for j in range(n) for k in range(n)
                 if dense_mult(a, a.table[i][j], e(k)) != dense_mult(a, e(i), a.table[j][k])), None)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_the_associator_walk_matches_the_dense_loop(data):
    f = data.draw(st.sampled_from([QQ, make_field("prime", m=3, p=31)]))
    n = data.draw(st.integers(1, 4))
    small = st.sampled_from([1, -1, 2])
    if data.draw(st.booleans()):
        # k[Z_n], associative, or with one structure constant moved, which mostly is not
        table = [[list(v) for v in r] for r in group_algebra(n, f).table]  # the view is read-only
        if data.draw(st.booleans()):
            i, j, k = (data.draw(st.integers(0, n - 1)) for _ in range(3))
            table[i][j][k] = f.add(table[i][j][k], f.from_int(data.draw(small)))
    else:
        consts = st.sampled_from([0, 0, 0, 1, -1, 2])
        table = [[[f.from_int(data.draw(consts)) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    a = Algebra(f, [f"b{i}" for i in range(n)], table)
    assert a.nonassociative_triple() == dense_associator(a)



# -- one stored table: the sparse rows, with the dense table as a view ---------

FIELDS = {"Q": QQ, "F31": make_field("prime", m=3, p=31), "Qz3": make_field("cyclotomic", m=3)}


def catalog_algebras(f):
    return [catalog_algebra(e["name"] + "(4)" * e["args"], f) for e in catalog_entries() if e["kind"] == "algebra"]


def assert_round_trips(a):
    # through the dense adapter, and through the JSON definition
    assert Algebra(a.field, a.names, a.table)._nz == a._nz
    back = Algebra.from_definition(json.loads(json.dumps(a.to_definition())))
    assert (back._nz, back.names, back.field) == (a._nz, a.names, a.field)


@pytest.mark.parametrize("fname", list(FIELDS))
def test_catalog_algebras_round_trip_their_sparse_table(fname):
    f = FIELDS[fname]
    algebras = catalog_algebras(f)
    assert [a.dim for a in algebras] == [3, 3, 2, 4, 4]
    for a in algebras + [tensor_product(sl2(f), group_algebra(3, f))]:
        assert_round_trips(a)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_random_dense_tables_round_trip_their_sparse_table(data):
    f = FIELDS[data.draw(st.sampled_from(list(FIELDS)))]
    n = data.draw(st.integers(1, 4))
    consts = [f.from_int(c) for c in (0, 0, 0, 1, -1, 2)]
    if f.kind == "cyclotomic":
        consts.append(f.root_of_unity(3))
    entry = st.sampled_from(consts)
    table = [[[data.draw(entry) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    a = Algebra(f, [f"b{i}" for i in range(n)], table)
    assert [[list(v) for v in r] for r in a.table] == table
    assert all(a.mult(basis(a, i), basis(a, j)) == sparse(f, table[i][j]) for i in range(n) for j in range(n))
    assert_round_trips(a)


def test_the_table_view_is_read_only_and_built_once():
    a = group_algebra(3)
    view = a.table
    assert a.table is view
    with pytest.raises(TypeError):
        view[0][0] = (F(0),) * 3
    a._cache.clear()
    assert a.table == view and a.table is not view
