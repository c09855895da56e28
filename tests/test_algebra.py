import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dertensor.algebra import (
    Algebra,
    invert_element,
    subalgebra_on,
    tensor_product,
    tensor_vector,
)
from dertensor.catalog import dual_numbers, group_algebra, sl2, zero_product
from dertensor.errors import NotClosed, NotUnital, ParseError, SingularElement
from dertensor.exactla import Matrix, Subspace
from dertensor.scalars import make_field

QQ = make_field("rational")


def F(x):
    return Fraction(x)


def test_sl2_bracket_table():
    a = sl2()
    e, h, f = (a.basis_vector(i) for i in range(3))
    assert a.mult(e, f) == h
    assert a.mult(h, e) == [F(2), F(0), F(0)]
    assert a.mult(h, f) == [F(0), F(0), F(-2)]
    assert a.mult(e, e) == [F(0)] * 3


def test_sl2_properties():
    a = sl2()
    # oracle: the products e*f, h*e, h*f already span h, e, f by hand
    assert a.is_perfect()
    assert not a.is_commutative()
    assert not a.is_associative()
    assert a.unit() is None
    assert not a.is_unital()


def test_property_cache_agrees_with_recomputation():
    a = sl2()
    first = a.properties()
    a._cache.clear()
    assert a.properties() == first


def test_dual_numbers_properties():
    s = dual_numbers()
    assert s.is_commutative() and s.is_associative() and s.is_unital()
    assert s.unit() == [F(1), F(0)]
    assert s.is_perfect()  # unital algebras always are


def test_zero_product_not_perfect():
    z = zero_product(2)
    assert not z.is_perfect()
    assert z.product_span().dim == 0
    assert not z.is_unital()


def test_group_algebra_unit_and_inverse():
    s = group_algebra(4)
    assert s.unit() == [F(1), F(0), F(0), F(0)]
    zinv = invert_element(s, s.basis_vector(1))
    assert zinv == s.basis_vector(3)  # z^{-1} = z^3
    # 1 - z^2 is a zero divisor: (1 - z^2)(1 + z^2) = 0
    zd = [F(1), F(0), F(-1), F(0)]
    with pytest.raises(SingularElement):
        invert_element(s, zd)
    with pytest.raises(NotUnital):
        invert_element(sl2(), sl2().basis_vector(0))


def test_left_mult_matrix_composition_convention():
    s = group_algebra(4)
    lz = s.left_mult_matrix(s.basis_vector(1))
    # column convention: image of basis j is column j, so L_z L_z = L_{z^2}
    assert lz.mul(lz) == s.left_mult_matrix(s.basis_vector(2))
    assert lz.column(0) == s.basis_vector(1)


def test_mult_operators_cached_and_correct():
    a = sl2()
    lefts = a.left_mult_operators()
    assert [(rc, x) for rc, x in lefts[1] if rc % 3 == 0] == [(0, F(2))]  # column 0: L_h e = 2e
    assert a.mult(a.basis_vector(0), a.basis_vector(1)) == [F(-2), F(0), F(0)]  # eh = -2e
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
    v = tensor_vector(a, s, a.basis_vector(1), s.basis_vector(1))
    t = tensor_product(a, s)
    assert v == t.basis_vector(1 * 2 + 1)


def test_tensor_preserves_flags():
    t = tensor_product(group_algebra(2), group_algebra(3))
    assert t.is_commutative() and t.is_associative() and t.is_unital()
    assert t.unit() == tensor_vector(group_algebra(2), group_algebra(3),
                                     group_algebra(2).unit(), group_algebra(3).unit())


def test_subalgebra_on_closed_span():
    s = group_algebra(4)
    span = Subspace.from_vectors(QQ, 4, [s.basis_vector(0), s.basis_vector(2)])
    sub, emb = subalgebra_on(s, span)
    assert sub.dim == 2
    # z^2 * z^2 = 1 inside the subalgebra
    assert sub.mult(sub.basis_vector(1), sub.basis_vector(1)) == sub.basis_vector(0)
    assert emb.column(1) == s.basis_vector(2)


def test_subalgebra_on_rejects_open_span():
    s = group_algebra(4)
    span = Subspace.from_vectors(QQ, 4, [s.basis_vector(1)])
    with pytest.raises(NotClosed):
        subalgebra_on(s, span)


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
    assert group_algebra(5).is_associative()
    assert not sl2().is_associative()
    assert zero_product(3).is_associative()
    assert zero_product(3).is_commutative()


# -- associativity on the sparse table against the dense loop -----------------


def dense_is_associative(a):
    """The loop Algebra.is_associative used to run: n^3 products of dense basis vectors."""
    n, e = a.dim, a.basis_vector
    return all(a.mult(a.table[i][j], e(k)) == a.mult(e(i), a.table[j][k])
               for i in range(n) for j in range(n) for k in range(n))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_is_associative_matches_the_dense_loop(data):
    f = data.draw(st.sampled_from([QQ, make_field("prime", m=3, p=31)]))
    n = data.draw(st.integers(1, 4))
    small = st.sampled_from([1, -1, 2])
    if data.draw(st.booleans()):
        # k[Z_n], associative, or with one structure constant moved, which mostly is not
        table = group_algebra(n, f).table
        if data.draw(st.booleans()):
            i, j, k = (data.draw(st.integers(0, n - 1)) for _ in range(3))
            table[i][j][k] = f.add(table[i][j][k], f.from_int(data.draw(small)))
    else:
        consts = st.sampled_from([0, 0, 0, 1, -1, 2])
        table = [[[f.from_int(data.draw(consts)) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    a = Algebra(f, [f"b{i}" for i in range(n)], table)
    assert a.is_associative() == dense_is_associative(a)

