from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dertensor.algebra import Algebra, tensor_product
from dertensor.catalog import dual_numbers, group_algebra, sl2, sl2_graded_variant, zero_product
from dertensor.errors import NotPerfect, NotUnital
from dertensor.exactla import Matrix, Subspace
from dertensor import invariants
from dertensor.invariants import (
    centroid,
    derivation_space,
    differential_centroid,
    leibniz_witness,
    psi_map,
    psi_multiplicative,
    s_module_derivations,
    vanishing_on_left_derivations,
)
from dertensor.scalars import make_field

from dense_leibniz import dense_leibniz_witness
from naive_la import naive_nullspace, naive_rref

QQ = make_field("rational")


def oracle_condition_dim(alg, defect):
    """Kernel dimension of a linear condition, probed on elementary maps.

    Builds the system column by column by applying the condition to each
    elementary endomorphism; independent of the production row assembly.
    """
    n = alg.dim
    cols = []
    for r in range(n):
        for c in range(n):
            rows = [[Fraction(0)] * n for _ in range(n)]
            rows[r][c] = Fraction(1)
            cols.append(defect(Matrix(alg.field, rows, n)))
    system = [[col[i] for col in cols] for i in range(len(cols[0]))]
    return len(naive_nullspace(system, n * n))


def leibniz_defect(alg):
    def defect(e):
        out = []
        for i in range(alg.dim):
            for j in range(alg.dim):
                bi, bj = alg.basis_vector(i), alg.basis_vector(j)
                lhs = e.matvec(alg.mult(bi, bj))
                rhs_l = alg.mult(e.matvec(bi), bj)
                rhs_r = alg.mult(bi, e.matvec(bj))
                out.extend(
                    alg.field.sub(a, alg.field.add(b, c)) for a, b, c in zip(lhs, rhs_l, rhs_r)
                )
        return out

    return defect


def centroid_defect(alg):
    def defect(e):
        out = []
        for i in range(alg.dim):
            for j in range(alg.dim):
                bi, bj = alg.basis_vector(i), alg.basis_vector(j)
                gp = e.matvec(alg.mult(bi, bj))
                left = alg.mult(e.matvec(bi), bj)
                right = alg.mult(bi, e.matvec(bj))
                out.extend(alg.field.sub(a, b) for a, b in zip(gp, left))
                out.extend(alg.field.sub(a, b) for a, b in zip(gp, right))
        return out

    return defect


def ad_matrix(alg, i):
    return alg.left_mult_matrix(alg.basis_vector(i))


def test_sl2_derivations_dimension_and_basis():
    a = sl2()
    d = derivation_space(a)
    assert d.dim == 3
    assert oracle_condition_dim(a, leibniz_defect(a)) == 3
    # frozen: the inner derivations span everything
    inner = Subspace.from_vectors(QQ, 9, [ad_matrix(a, i).flatten() for i in range(3)])
    assert d.space == inner


def test_sl2_centroid_is_scalars():
    a = sl2()
    c = centroid(a)
    assert c.dim == 1
    assert oracle_condition_dim(a, centroid_defect(a)) == 1
    assert c.space.contains(Matrix.identity(QQ, 3).flatten())


def test_sl2_differential_centroid():
    assert differential_centroid(sl2()).dim == 1


def test_variant_matches_sl2_dimensions():
    v = sl2_graded_variant()
    assert derivation_space(v).dim == 3
    assert centroid(v).dim == 1


def test_zero_product_spaces_are_everything():
    z = zero_product(2)
    assert derivation_space(z).dim == 4
    assert centroid(z).dim == 4
    assert differential_centroid(z).dim == 1
    assert oracle_condition_dim(z, leibniz_defect(z)) == 4


def test_dual_numbers_derivations_and_centroid():
    s = dual_numbers()
    d = derivation_space(s)
    assert d.dim == 1
    # frozen: the derivation is x d/dx, i.e. 1 -> 0, x -> x
    gen = d.basis_matrices()[0]
    assert gen.column(0) == [Fraction(0), Fraction(0)]
    assert gen.column(1) == [Fraction(0), Fraction(1)]
    assert centroid(s).dim == 2
    assert oracle_condition_dim(s, centroid_defect(s)) == 2


def test_group_algebra_derivations_vanish():
    # z^n - 1 is separable over Q, so these have no derivations at all
    for n in (2, 3, 4):
        assert derivation_space(group_algebra(n)).dim == 0


def test_tensor_derivation_dimensions_frozen():
    a = sl2()
    ts = tensor_product(a, dual_numbers())
    assert derivation_space(ts).dim == 7
    ts3 = tensor_product(a, group_algebra(3))
    assert derivation_space(ts3).dim == 9


def test_module_and_vanishing_subspaces():
    a, s = sl2(), dual_numbers()
    ts = tensor_product(a, s)
    full = derivation_space(ts)
    mod = s_module_derivations(a, s, ts)
    van = vanishing_on_left_derivations(a, s, ts)
    assert mod.dim == 6
    assert van.dim == 1
    assert full.space.sum(mod.space) == full.space
    assert full.space.sum(van.space) == full.space
    # the two pieces meet trivially and fill the space
    assert mod.space.intersect(van.space).dim == 0
    assert mod.space.sum(van.space) == full.space


def test_psi_bijective_on_perfect_pair():
    a, s = sl2(), group_algebra(2)
    rep = psi_map(a, s)
    assert rep.domain_dim == 2
    assert rep.target_dim == 2
    assert rep.injective and rep.image_in_centroid and rep.surjective
    assert psi_multiplicative(a, s)
    assert rep.bijective


@pytest.mark.parametrize("field", [QQ, make_field("cyclotomic", m=3)], ids=["Q", "Q(zeta3)"])
@pytest.mark.parametrize("j", range(3))
def test_psi_multiplicativity_catches_a_dropped_term(monkeypatch, field, j):
    a, s = sl2(field), group_algebra(3, field)
    assert psi_multiplicative(a, s)
    images = invariants._psi_images

    def mutant(a, s):
        cols = images(a, s)
        t = next(t for t, x in enumerate(cols[j]) if field.nonzero(x))
        cols[j][t] = field.zero()  # psi(id (x) z^j) loses one entry
        return cols

    monkeypatch.setattr(invariants, "_psi_images", mutant)
    assert not psi_multiplicative(a, s)


def test_psi_bijective_flagship_sized_pair():
    rep = psi_map(sl2(), group_algebra(4))
    assert rep.bijective
    assert rep.domain_dim == rep.target_dim == 4


def test_psi_requires_perfect_left_factor():
    with pytest.raises(NotPerfect):
        psi_map(zero_product(2), dual_numbers())


def test_psi_requires_unital_right_factor():
    with pytest.raises(NotUnital):
        psi_map(sl2(), zero_product(2))


def test_vanishing_needs_unital_right_factor():
    with pytest.raises(NotUnital):
        vanishing_on_left_derivations(sl2(), zero_product(2))


def test_cached_spaces_are_reused_and_stable():
    a = sl2()
    d1 = derivation_space(a)
    assert derivation_space(a) is d1
    a._cache.clear()
    d2 = derivation_space(a)
    assert d2 is not d1 and d2.space == d1.space


def test_tensor_of_dimension_24_over_f31():
    """sl2 (x) k[z]/(z^8 - 1): n = 24, 576 unknowns, D = D(sl2) (x) S and C = S."""
    f = make_field("prime", m=3, p=31)
    ts = tensor_product(sl2(f), group_algebra(8, f))
    assert derivation_space(ts).dim == 24
    assert centroid(ts).dim == 8


def test_rational_system_over_cyclotomic_field_gives_the_rational_basis():
    z3 = make_field("cyclotomic", m=3)

    def spaces(f):
        ts = tensor_product(sl2(f), group_algebra(3, f))
        return derivation_space(ts).space, centroid(ts).space

    for sq, sz in zip(spaces(QQ), spaces(z3)):
        assert sz.pivots == sq.pivots
        assert sz.rows == tuple(tuple(z3.from_fraction(x) for x in r) for r in sq.rows)


# -- the sparse Leibniz witness against the dense loop ----------------------


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_leibniz_witness_matches_dense_reference(data):
    f = data.draw(st.sampled_from([QQ, make_field("prime", m=3, p=31)]))
    n = data.draw(st.integers(1, 4))
    consts = st.sampled_from([0, 0, 0, 1, -1, 2])
    table = [[[f.from_int(data.draw(consts)) for _ in range(n)] for _ in range(n)]
             for _ in range(n)]
    a = Algebra(f, [f"b{i}" for i in range(n)], table)
    kind = data.draw(st.sampled_from(["derivation", "perturbed", "random"]))
    small = st.integers(-3, 3)
    if kind == "random":
        m = Matrix(f, [[f.from_int(data.draw(small)) for _ in range(n)] for _ in range(n)], n)
    else:
        der = derivation_space(a)
        coeffs = [f.from_int(data.draw(small)) for _ in range(der.dim)]
        m = Matrix.unflatten(f, der.space.linear_combination(coeffs), n, n)
        if kind == "perturbed":
            r, c = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            m.rows[r][c] = f.add(m.rows[r][c], f.from_int(data.draw(st.sampled_from([1, -2, 5]))))
    want = dense_leibniz_witness(a, m)
    assert leibniz_witness(a, m) == want
    if kind == "derivation":
        assert want is None


# -- derivations and centroid against the naive solver -----------------------


def oracle_kernel(alg, defect, p=None):
    """RREF basis of a condition's kernel: the naive solver on the probed system."""
    n = alg.dim
    f = alg.field
    cols = []
    for r in range(n):
        for c in range(n):
            rows = [[f.zero()] * n for _ in range(n)]
            rows[r][c] = f.one()
            cols.append(defect(Matrix(f, rows, n)))
    system = [[col[i] for col in cols] for i in range(len(cols[0]))]
    return naive_rref(naive_nullspace(system, n * n, p), p)[0]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_derivations_and_centroid_match_the_naive_oracle_on_random_algebras(data):
    p = data.draw(st.sampled_from([None, 31]))
    f = QQ if p is None else make_field("prime", m=3, p=31)
    n = data.draw(st.integers(1, 4))
    consts = st.sampled_from([0, 0, 0, 1, -1, 2])
    table = [[[f.from_int(data.draw(consts)) for _ in range(n)] for _ in range(n)]
             for _ in range(n)]
    a = Algebra(f, [f"b{i}" for i in range(n)], table)
    assert [list(r) for r in derivation_space(a).space.rows] == oracle_kernel(a, leibniz_defect(a), p)
    assert [list(r) for r in centroid(a).space.rows] == oracle_kernel(a, centroid_defect(a), p)
