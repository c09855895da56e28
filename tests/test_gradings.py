"""Automorphism validation, eigenspace gradings, graded units."""

import pytest

from dertensor import exactla
from dertensor.algebra import tensor_product
from dertensor.catalog import dual_numbers, group_algebra, sl2
from dertensor.errors import (
    DimensionMismatch,
    InternalCheckFailed,
    NoUnitFound,
    NotAutomorphism,
    NotInvariant,
    NotUnitResidue,
    WrongPeriod,
)
from dertensor.exactla import Matrix, Subspace, kernel_of_rows, sparse_rows, vec_add, vec_scale, vec_sub
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
from dertensor.scalars import FieldDescriptor, make_field


def diag(field, entries):
    n = len(entries)
    z = field.zero()
    vals = [e if not isinstance(e, int) else field.from_int(e) for e in entries]
    return Matrix(field, [[vals[i] if i == j else z for j in range(n)] for i in range(n)], n)


def zeros(field, n):
    return diag(field, [0] * n)


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
    total = Matrix(f, [vec_add(f, r0, r1) for r0, r1 in zip(projs[0].rows, projs[1].rows)], 3)
    assert total == Matrix.identity(f, 3)
    for p in projs:
        assert p.mul(p) == p
    assert projs[0].mul(projs[1]) == zeros(f, 3)


def test_declared_period_is_not_minimized():
    f5 = make_field("prime", m=4, p=5)
    a = sl2(f5)
    aut = check_automorphism(a, Matrix.identity(f5, 3), 4)
    g = grading_from_automorphism(aut)
    assert g.component_dims == (3, 0, 0, 0)


def test_identity_grading_asks_for_no_root():
    # Q has no primitive cube root, yet the identity of period 3 grades sl2
    q = make_field("rational")
    eye = Matrix.identity(q, 3)
    aut = check_automorphism(sl2(q), eye, 3)
    g = grading_from_automorphism(aut)
    assert g.component_dims == (3, 0, 0)
    assert g.components[0] == Subspace.from_vectors(q, 3, eye.rows)
    assert grading_from_automorphism(aut) is g


@pytest.mark.parametrize("field", [make_field("cyclotomic", m=3), make_field("prime", m=3, p=7)],
                         ids=["cyclotomic(3)", "prime(7,3)"])
def test_identity_grading_matches_the_eigenspace_route(field):
    eye = Matrix.identity(field, 3)
    g = grading_from_automorphism(check_automorphism(sl2(field), eye, 3))
    omega = field.root_of_unity(3)
    for i, comp in enumerate(g.components):
        # component i is the kernel of (1 - omega^i) id
        rows = [vec_sub(field, r, vec_scale(field, field.pow(omega, i), r)) for r in eye.rows]
        assert comp == kernel_of_rows(field, sparse_rows(field, rows), 3)


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
        check_automorphism(a, zeros(f, 3), 2)
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


def test_repeated_powers_of_omega_are_caught(monkeypatch):
    # with omega = 1, z -> -z on k[Z2] has components span(1) and span(1):
    # they fill the dimension but overlap, so only the distinctness check fails
    s = group_algebra(2)
    aut = check_automorphism(s, diag(s.field, [1, -1]), 2)
    monkeypatch.setattr(FieldDescriptor, "root_of_unity", lambda self, order: self.one())
    with pytest.raises(InternalCheckFailed, match=r"'algebra'.*omega\^0 = omega\^1"):
        grading_from_automorphism(aut)


@pytest.mark.parametrize("build", [grading_from_automorphism,
                                   lambda aut: induced_endo_grading(aut, derivation_space(aut.algebra))],
                         ids=["algebra", "derivations"])
def test_a_kernel_missing_a_vector_is_caught(monkeypatch, build):
    _, aut = sign_aut_sl2()
    kernel = exactla.kernel_of_rows

    def mutant(field, rows, ncols, tag="kernel"):
        ker = kernel(field, rows, ncols, tag)
        return exactla.Subspace(field, ncols, ker._sparse[1:], ker.pivots[1:])

    monkeypatch.setattr(exactla, "kernel_of_rows", mutant)
    with pytest.raises(InternalCheckFailed, match="do not fill"):
        build(aut)


def test_identity_grades_derivations_without_a_root():
    # Q has no primitive cube root; conjugation by the identity fixes every map
    q = make_field("rational")
    a = sl2(q)
    der = derivation_space(a)
    g = induced_endo_grading(check_automorphism(a, Matrix.identity(q, 3), 3), der)
    assert g.component_dims == (3, 0, 0)
    assert g.components[0] == der.space
