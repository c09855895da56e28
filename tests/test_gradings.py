"""Automorphism validation, eigenspace gradings, graded units."""

import pytest

from dertensor.algebra import tensor_product
from dertensor.catalog import dual_numbers, group_algebra, sl2
from dertensor.errors import (
    DimensionMismatch,
    NoUnitFound,
    NotAutomorphism,
    NotInvariant,
    NotUnitResidue,
    WrongPeriod,
)
from dertensor.exactla import Matrix, Subspace
from dertensor.gradings import (
    check_automorphism,
    eps,
    find_graded_unit,
    fixed_point_algebra,
    grading_from_automorphism,
    grading_is_multiplicative,
    induced_endo_grading,
    tensor_automorphism,
)
from dertensor.invariants import EndoSpace, derivation_space
from dertensor.scalars import make_field


def diag(field, entries):
    n = len(entries)
    z = field.zero()
    vals = [e if not isinstance(e, int) else field.from_int(e) for e in entries]
    return Matrix(field, [[vals[i] if i == j else z for j in range(n)] for i in range(n)], n)


def sign_aut_sl2():
    a = sl2()
    return a, check_automorphism(a, diag(a.field, [-1, 1, -1]), 2)


def sign_aut_s4():
    s = group_algebra(4)
    return s, check_automorphism(s, diag(s.field, [1, -1, 1, -1]), 2)


def test_eps_representatives():
    assert eps(0, 4) == 0
    assert eps(5, 4) == 1
    assert eps(-1, 4) == 3
    assert eps(-8, 4) == 0
    assert eps(7, 1) == 0


def test_eps_addition_law_with_wrap():
    m = 4
    for i in range(-6, 7):
        for j in range(-6, 7):
            assert eps(i + j, m) == eps(eps(i, m) + eps(j, m), m)
    # the representatives themselves do not add: 3 + 2 wraps
    assert eps(3, 4) + eps(2, 4) != eps(5, 4)


def test_sl2_sign_grading_dims():
    a, aut = sign_aut_sl2()
    g = grading_from_automorphism(aut)
    assert g.component_dims == (1, 2)
    o = a.field.one()
    z = a.field.zero()
    assert g.degree_of([z, o, z]) == 0  # h
    assert g.degree_of([o, z, z]) == 1  # e
    assert g.degree_of([o, o, z]) is None  # e + h is not homogeneous
    assert g.degree_of([z, z, z]) is None
    assert grading_is_multiplicative(a, g)


def test_group_algebra_sign_grading():
    s, aut = sign_aut_s4()
    g = grading_from_automorphism(aut)
    assert g.component_dims == (2, 2)
    f = s.field
    o, z = f.one(), f.zero()
    assert g.degree_of([o, z, z, z]) == 0  # 1
    assert g.degree_of([z, z, o, z]) == 0  # z^2
    assert g.degree_of([z, o, z, z]) == 1
    assert g.degree_of([z, z, z, o]) == 1
    assert grading_is_multiplicative(s, g)


def test_projections_resolve_identity():
    a, aut = sign_aut_sl2()
    f = a.field
    projs = g = grading_from_automorphism(aut).projections(f)
    total = projs[0].add(projs[1])
    assert total == Matrix.identity(f, 3)
    for p in projs:
        assert p.mul(p) == p
    assert projs[0].mul(projs[1]) == Matrix.zeros(f, 3, 3)


def test_declared_period_is_not_minimized():
    f5 = make_field("prime", m=4, p=5)
    a = sl2(f5)
    aut = check_automorphism(a, Matrix.identity(f5, 3), 4)
    g = grading_from_automorphism(aut)
    assert g.component_dims == (3, 0, 0, 0)


def monomial_grading_z4():
    f = make_field("cyclotomic", m=4)
    s = group_algebra(4, f)
    zeta = f.omega()
    aut = check_automorphism(s, diag(f, [f.one(), zeta, f.mul(zeta, zeta), f.pow(zeta, 3)]), 4)
    return s, grading_from_automorphism(aut)


def test_cyclotomic_monomial_grading():
    s, g = monomial_grading_z4()
    assert g.component_dims == (1, 1, 1, 1)
    assert grading_is_multiplicative(s, g)


def test_graded_unit_with_residue_three():
    s, g = monomial_grading_z4()
    data = find_graded_unit(s, g, q=3)
    f = s.field
    o, z = f.one(), f.zero()
    assert data.q == 3
    assert data.u == [z, z, z, o]  # z^3
    assert data.u_inv == [z, o, z, z]  # z
    # 3^{-1} = 3 mod 4, so the normalization is (z^3)^3 = z
    assert data.u_prime == [z, o, z, z]
    assert data.u_prime_inv == [z, z, z, o]
    assert g.degree_of(data.u_prime) == 1


def test_graded_unit_search_and_residue_guard():
    s, aut = sign_aut_s4()
    g = grading_from_automorphism(aut)
    data = find_graded_unit(s, g, q=1)
    assert g.degree_of(data.u) == 1
    assert s.mult(data.u, data.u_inv) == s.unit()
    with pytest.raises(NotUnitResidue):
        find_graded_unit(s, g, q=2)  # gcd(2, 2) != 1


def test_graded_unit_explicit_element():
    s, aut = sign_aut_s4()
    g = grading_from_automorphism(aut)
    f = s.field
    o, z = f.one(), f.zero()
    data = find_graded_unit(s, g, q=1, u=[z, z, z, o])  # z^3
    assert data.u_prime == [z, z, z, o]  # m = 2, inverse residue 1
    with pytest.raises(NoUnitFound):
        find_graded_unit(s, g, q=1, u=[o, z, z, z])  # 1 is not in degree 1
    with pytest.raises(NoUnitFound):
        find_graded_unit(s, g, q=1, u=[z, o, z, o])  # z + z^3 = z(1 + z^2), a zero divisor


def test_graded_unit_absent_in_nilpotent_component():
    d = dual_numbers()
    aut = check_automorphism(d, diag(d.field, [1, -1]), 2)
    g = grading_from_automorphism(aut)
    assert g.component_dims == (1, 1)
    with pytest.raises(NoUnitFound):
        find_graded_unit(d, g, q=1)  # degree-1 component is spanned by the nilpotent


def test_trivial_period_one():
    s = group_algebra(2)
    aut = check_automorphism(s, Matrix.identity(s.field, 2), 1)
    g = grading_from_automorphism(aut)
    assert g.component_dims == (2,)
    data = find_graded_unit(s, g, q=1)
    assert data.u_prime == s.unit()


def test_induced_derivation_grading_on_sl2():
    a, aut = sign_aut_sl2()
    der = derivation_space(a)
    g = induced_endo_grading(aut, der)
    assert g.component_dims == (1, 2)
    # degree-0 part is spanned by ad h
    adh = a.left_mult_matrix([a.field.zero(), a.field.one(), a.field.zero()])
    assert g.components[0].contains(adh.flatten())


def test_induced_grading_rejects_non_invariant_space():
    s = group_algebra(2)
    f = s.field
    aut = check_automorphism(s, diag(f, [1, -1]), 2)
    o, z = f.one(), f.zero()
    span = Subspace.from_vectors(f, 4, [[o, o, z, z]])  # E00 + E01, not conj-invariant
    endo = EndoSpace(s, 2, span, tag="adhoc")
    with pytest.raises(NotInvariant):
        induced_endo_grading(aut, endo)


def test_tensor_automorphism_and_fixed_algebra():
    a, aut_a = sign_aut_sl2()
    s, aut_s = sign_aut_s4()
    ts = tensor_product(a, s)
    aut = tensor_automorphism(aut_a, aut_s, ts)
    g = grading_from_automorphism(aut)
    assert g.component_dims == (6, 6)
    fixed, emb = fixed_point_algebra(ts, g)
    assert fixed.dim == 6
    for j in range(fixed.dim):
        assert g.degree_of(emb.column(j)) == 0
    assert grading_is_multiplicative(ts, g)


def test_tensor_automorphism_period_mismatch():
    a, aut_a = sign_aut_sl2()
    s = group_algebra(4)
    aut_s = check_automorphism(s, Matrix.identity(s.field, 4), 4)
    ts = tensor_product(a, s)
    with pytest.raises(WrongPeriod):
        tensor_automorphism(aut_a, aut_s, ts)


def test_automorphism_rejections():
    a = sl2()
    f = a.field
    with pytest.raises(NotAutomorphism):
        check_automorphism(a, Matrix.zeros(f, 3, 3), 2)
    # swap e and h: invertible but not multiplicative
    o, z = f.one(), f.zero()
    swap = Matrix(f, [[z, o, z], [o, z, z], [z, z, o]], 3)
    with pytest.raises(NotAutomorphism):
        check_automorphism(a, swap, 2)
    with pytest.raises(WrongPeriod):
        check_automorphism(a, diag(f, [-1, 1, -1]), 3)
    with pytest.raises(DimensionMismatch):
        check_automorphism(a, Matrix.identity(f, 2), 2)
    with pytest.raises(WrongPeriod):
        check_automorphism(a, Matrix.identity(f, 3), 0)
