"""Automorphism validation, gradings read off supports, the eigenbasis of a
sigma that is not diagonal, graded units."""

import pytest

from dertensor import exactla, gradings
from dertensor.algebra import Algebra, subalgebra_on, tensor_product
from dertensor.catalog import dual_numbers, group_algebra, sl2
from dertensor.errors import (
    DimensionMismatch,
    InternalCheckFailed,
    NoUnitFound,
    NotAutomorphism,
    NotInDomain,
    NotInvariant,
    NotUnitResidue,
    WrongPeriod,
)
from dertensor.decomposition import Setup
from dertensor.exactla import Matrix, Subspace, apply_map, diagonal_map, kernel_of_rows, sparse_kron, sparse_rows
from dertensor.gradings import (
    check_automorphism,
    diagonal_form,
    eps,
    find_graded_unit,
    grading_from_automorphism,
    induced_endo_grading,
)
from dertensor.invariants import EndoSpace, derivation_space
from dertensor.scalars import FieldDescriptor, make_field

from naive_la import dense, matmul, sparse


def grading_is_multiplicative(a, g):
    """Products of components land in the component of the residue sum: the
    reference the engine needs no copy of, as sigma's own check implies it."""
    rows = [c._sparse for c in g.components]
    return all(g.component(i + j).contains(a.mult(u, v))
               for i, ci in enumerate(rows) for j, cj in enumerate(rows) for u in ci for v in cj)


def projections(g, field):
    """The projection onto each component of g as a Matrix: column i is the
    part of basis vector i in that component (Grading.split)."""
    n = len(g.degrees)
    parts = [dict((d, part) for part, d in g.split(((i, field.one()),))) for i in range(n)]
    return [Matrix(field, [[dense(field, n, parts[i].get(d, ()))[r] for i in range(n)] for r in range(n)], n)
            for d in range(g.m)]


def sign_aut_sl2():
    a = sl2()
    return a, check_automorphism(a, diagonal_map(a.field, [-1, 1, -1]), 2)


def sign_aut_s4():
    s = group_algebra(4)
    return s, check_automorphism(s, diagonal_map(s.field, [1, -1, 1, -1]), 2)


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
    assert g.degree_of(sparse(a.field, [z, o, z])) == 0  # h
    assert g.degree_of(sparse(a.field, [o, z, z])) == 1  # e
    assert g.degree_of(sparse(a.field, [o, o, z])) is None  # e + h is not homogeneous
    assert g.degree_of(sparse(a.field, [z, z, z])) is None
    assert grading_is_multiplicative(a, g)


def test_group_algebra_sign_grading():
    s, aut = sign_aut_s4()
    g = grading_from_automorphism(aut)
    assert g.component_dims == (2, 2)
    f = s.field
    o, z = f.one(), f.zero()
    assert g.degree_of(sparse(f, [o, z, z, z])) == 0  # 1
    assert g.degree_of(sparse(f, [z, z, o, z])) == 0  # z^2
    assert g.degree_of(sparse(f, [z, o, z, z])) == 1
    assert g.degree_of(sparse(f, [z, z, z, o])) == 1
    assert grading_is_multiplicative(s, g)


def test_projections_resolve_identity():
    a, aut = sign_aut_sl2()
    f = a.field
    projs = projections(grading_from_automorphism(aut), f)
    total = [[f.add(x0, x1) for x0, x1 in zip(r0, r1)] for r0, r1 in zip(projs[0].rows, projs[1].rows)]
    assert total == [dense(f, 3, ((i, f.one()),)) for i in range(3)]
    for p in projs:
        assert matmul(p, p) == p.rows
    assert matmul(projs[0], projs[1]) == [[f.zero()] * 3] * 3


def test_declared_period_is_not_minimized():
    f5 = make_field("prime", m=4, p=5)
    a = sl2(f5)
    aut = check_automorphism(a, diagonal_map(f5, [1] * 3), 4)
    g = grading_from_automorphism(aut)
    assert g.component_dims == (3, 0, 0, 0)


def test_identity_grading_asks_for_no_root():
    # Q has no primitive cube root, yet the identity of period 3 grades sl2
    q = make_field("rational")
    aut = check_automorphism(sl2(q), diagonal_map(q, [1] * 3), 3)
    g = grading_from_automorphism(aut)
    assert g.component_dims == (3, 0, 0)
    assert g.components[0] == Subspace.from_rows(q, 3, [((i, q.one()),) for i in range(3)])
    assert grading_from_automorphism(aut) is g


@pytest.mark.parametrize("field", [make_field("cyclotomic", m=3), make_field("prime", m=3, p=7)],
                         ids=["cyclotomic(3)", "prime(7,3)"])
def test_identity_grading_matches_the_eigenspace_route(field):
    g = grading_from_automorphism(check_automorphism(sl2(field), diagonal_map(field, [1] * 3), 3))
    omega = field.root_of_unity(3)
    for i, comp in enumerate(g.components):
        # component i is the kernel of (1 - omega^i) id
        d = field.sub(field.one(), field.pow(omega, i))
        rows = [[d if c == r else field.zero() for c in range(3)] for r in range(3)]
        assert comp == kernel_of_rows(field, sparse_rows(field, rows), 3)


def monomial_grading_z4():
    f = make_field("cyclotomic", m=4)
    s = group_algebra(4, f)
    zeta = f.omega()
    aut = check_automorphism(s, diagonal_map(f, [f.one(), zeta, f.mul(zeta, zeta), f.pow(zeta, 3)]), 4)
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
    assert data.u == sparse(f, [z, z, z, o])  # z^3
    assert data.u_inv == sparse(f, [z, o, z, z])  # z
    # 3^{-1} = 3 mod 4, so the normalization is (z^3)^3 = z
    assert data.u_prime == sparse(f, [z, o, z, z])
    assert data.u_prime_inv == sparse(f, [z, z, z, o])
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
    data = find_graded_unit(s, g, q=1, u=sparse(f, [z, z, z, o]))  # z^3
    assert data.u_prime == sparse(f, [z, z, z, o])  # m = 2, inverse residue 1
    with pytest.raises(NoUnitFound):
        find_graded_unit(s, g, q=1, u=sparse(f, [o, z, z, z]))  # 1 is not in degree 1
    with pytest.raises(NoUnitFound):
        find_graded_unit(s, g, q=1, u=sparse(f, [z, o, z, o]))  # z + z^3 = z(1 + z^2), a zero divisor


def test_graded_unit_absent_in_nilpotent_component():
    d = dual_numbers()
    aut = check_automorphism(d, diagonal_map(d.field, [1, -1]), 2)
    g = grading_from_automorphism(aut)
    assert g.component_dims == (1, 1)
    with pytest.raises(NoUnitFound):
        find_graded_unit(d, g, q=1)  # degree-1 component is spanned by the nilpotent


def test_trivial_period_one():
    s = group_algebra(2)
    aut = check_automorphism(s, diagonal_map(s.field, [1] * 2), 1)
    g = grading_from_automorphism(aut)
    assert g.component_dims == (2,)
    data = find_graded_unit(s, g, q=1)
    assert data.u_prime == s.unit()


def test_graded_unit_tries_combinations_only_after_the_basis(monkeypatch):
    built = []
    real = gradings.combine_rows
    monkeypatch.setattr(gradings, "combine_rows", lambda *args: built.append(args) or real(*args))
    f = make_field("rational")
    o, z = f.one(), f.zero()

    def unit_of(alg):  # sigma = id, so the one component is the whole algebra
        return find_graded_unit(alg, grading_from_automorphism(check_automorphism(alg, diagonal_map(f, [1, 1]), 1)))

    # k[Z2]: the basis vector 1 is a unit, so no combination is built
    s = group_algebra(2)
    assert unit_of(s).u == s.unit()
    assert built == []
    # k x k on its idempotents e1, e2: neither is invertible, but the first
    # combination, -2 (e1 + e2), is
    kk = Algebra(f, ["e1", "e2"], [[[o, z], [z, z]], [[z, z], [z, o]]])
    data = unit_of(kk)
    assert data.u == sparse(f, [f.from_int(-2)] * 2)
    assert kk.mult(data.u, data.u_inv) == kk.unit() == sparse(f, [o, o])
    assert len(built) == 1


def test_induced_derivation_grading_on_sl2():
    a, aut = sign_aut_sl2()
    der = derivation_space(a)
    g = induced_endo_grading(grading_from_automorphism(aut), der)
    assert g.component_dims == (1, 2)
    # degree-0 part is spanned by ad h
    adh = a.mult_map(sparse(a.field, [a.field.zero(), a.field.one(), a.field.zero()]))
    assert g.components[0].contains(adh)


def test_induced_grading_rejects_non_invariant_space():
    s = group_algebra(2)
    f = s.field
    aut = check_automorphism(s, diagonal_map(f, [1, -1]), 2)
    o, z = f.one(), f.zero()
    span = Subspace.from_vectors(f, 4, [[o, o, z, z]])  # E00 + E01, not conj-invariant
    endo = EndoSpace(s, span, tag="adhoc")
    with pytest.raises(NotInvariant):
        induced_endo_grading(grading_from_automorphism(aut), endo)


def test_tensor_grading_is_the_grading_by_the_kronecker_product_and_fixed_algebra():
    a, aut_a = sign_aut_sl2()
    s, aut_s = sign_aut_s4()
    st = Setup(a, s, aut_a, aut_s)
    ts, g = st.ts, st.grading_ts
    assert ts is tensor_product(a, s)
    kron = check_automorphism(ts, sparse_kron(ts.field, aut_a.sig, a.dim, aut_s.sig, s.dim), 2)
    assert g.degrees == grading_from_automorphism(kron).degrees
    assert g.component_dims == (6, 6)
    fixed = subalgebra_on(ts, g.components[0])
    assert fixed.dim == st.fixed_algebra.dim == 6
    # the fixed algebra's basis is the RREF basis of the degree-zero component
    for row in g.components[0].rows:
        assert g.degree_of(sparse(ts.field, row)) == 0
    assert grading_is_multiplicative(ts, g)


@pytest.mark.parametrize("f", [make_field("rational"), make_field("prime", m=3, p=31),
                               make_field("cyclotomic", m=3)], ids=["Q", "F31", "Q(zeta3)"])
def test_automorphism_rejections(f):
    a = sl2(f)
    with pytest.raises(NotAutomorphism, match="^matrix is singular$"):
        check_automorphism(a, (), 2)
    # rank 2: the inverse must be computed, not assumed
    with pytest.raises(NotAutomorphism, match="^matrix is singular$"):
        check_automorphism(a, diagonal_map(f, [1, 0, 1]), 2)
    # swap e and h: invertible but not multiplicative
    o = f.one()
    swap = ((1, o), (3, o), (8, o))
    with pytest.raises(NotAutomorphism, match=r"^not multiplicative on basis pair \(0,1\)$"):
        check_automorphism(a, swap, 2)
    # 1 -> 2 on k[Z2] fails first on 1 * 1, the pair (0, 0)
    with pytest.raises(NotAutomorphism, match=r"^not multiplicative on basis pair \(0,0\)$"):
        check_automorphism(group_algebra(2, f), diagonal_map(f, [2, 1]), 2)
    with pytest.raises(WrongPeriod, match="^matrix to the power 3 is not the identity$"):
        check_automorphism(a, diagonal_map(f, [-1, 1, -1]), 3)
    # a 3 x 3 map has indices below 9
    with pytest.raises(DimensionMismatch, match="^map index 9 outside the 3x3 maps of a dim-3 algebra$"):
        check_automorphism(a, diagonal_map(f, [1] * 3) + ((9, o),), 2)
    with pytest.raises(DimensionMismatch, match="^map index -1 outside"):
        check_automorphism(a, ((-1, o),) + diagonal_map(f, [1] * 3), 2)
    with pytest.raises(WrongPeriod, match="^period must be positive, got 0$"):
        check_automorphism(a, diagonal_map(f, [1] * 3), 0)
    # sigma is refused unless sorted, zero-free and without a repeated index
    eye = diagonal_map(f, [1] * 3)
    for sig in (eye[::-1], eye[:1] + ((1, f.zero()),) + eye[1:], eye[:1] + eye, list(eye)):
        with pytest.raises(NotAutomorphism, match="^sigma is no sparse row"):
            check_automorphism(a, sig, 3)
    if f.kind != "rational":
        # e -> omega e, f -> omega^-1 f has period 3, not the declared 2
        om = f.root_of_unity(3)
        third = diagonal_map(f, [om, f.one(), f.inv(om)])
        assert check_automorphism(a, third, 3).period == 3
        with pytest.raises(WrongPeriod, match="^matrix to the power 2 is not the identity$"):
            check_automorphism(a, third, 2)


def test_repeated_powers_of_omega_are_caught(monkeypatch):
    # with omega = 1, z -> -z on k[Z2] has components span(1) and span(1):
    # they fill the dimension but overlap, so only the distinctness check fails
    s = group_algebra(2)
    aut = check_automorphism(s, diagonal_map(s.field, [1, -1]), 2)
    monkeypatch.setattr(FieldDescriptor, "root_of_unity", lambda self, order: self.one())
    with pytest.raises(InternalCheckFailed, match=r"'algebra'.*omega\^0 = omega\^1"):
        grading_from_automorphism(aut)


def chevalley_aut_sl2(f=None):
    """e -> -f, h -> -h, f -> -e: a period-2 automorphism of sl2 that is not diagonal."""
    a = sl2(f)
    o = a.field.one()
    return a, check_automorphism(a, ((2, a.field.neg(o)), (4, a.field.neg(o)), (6, a.field.neg(o))), 2)


def test_a_kernel_missing_a_vector_is_caught(monkeypatch):
    # the eigenbasis of a sigma that is not diagonal is the one kernel a grading cuts
    _, aut = chevalley_aut_sl2()
    kernel = gradings.kernel_of_rows

    def mutant(field, rows, ncols, tag="kernel"):
        ker = kernel(field, rows, ncols, tag)
        return exactla.Subspace(field, ncols, ker._sparse[1:], ker.pivots[1:])

    monkeypatch.setattr(gradings, "kernel_of_rows", mutant)
    with pytest.raises(InternalCheckFailed, match="do not fill"):
        diagonal_form(aut)


def test_degrees_are_read_off_the_diagonal_without_a_kernel(monkeypatch):
    monkeypatch.setattr(gradings, "kernel_of_rows", None)
    for _, aut in (sign_aut_sl2(), sign_aut_s4()):
        assert diagonal_form(aut) == (aut, None)
        g = grading_from_automorphism(aut)
        assert all(c.pivots == tuple(i for i, d in enumerate(g.degrees) if d == k)
                   and c._sparse == tuple(((i, aut.algebra.field.one()),) for i in c.pivots)
                   for k, c in enumerate(g.components))
    assert grading_from_automorphism(sign_aut_sl2()[1]).degrees == (1, 0, 1)


def test_a_sigma_that_is_not_diagonal_is_refused_a_grading():
    _, aut = chevalley_aut_sl2()
    with pytest.raises(NotInDomain, match="not diagonal"):
        grading_from_automorphism(aut)


@pytest.mark.parametrize("f", [make_field("rational"), make_field("prime", m=2, p=5),
                               make_field("cyclotomic", m=3)], ids=["Q", "F5", "Q(zeta3)"])
def test_diagonal_form_rewrites_the_algebra_on_the_eigenbasis(f):
    a, aut = chevalley_aut_sl2(f)
    diag, carry = diagonal_form(aut)
    assert diagonal_form(aut)[0] is diag and diag.period == 2
    b = diag.algebra
    # e - f spans degree 0; e + f and h degree 1, each component in RREF
    assert b.names == [f"(e + {f.format(f.neg(f.one()))}*f)", "(e + f)", "h"]
    g = grading_from_automorphism(diag)
    assert g.degrees == (0, 1, 1)
    assert grading_is_multiplicative(b, g)
    # carried across, each product of the given basis is the product of the carried rows
    one = f.one()
    for i in range(3):
        for j in range(3):
            x, y = (apply_map(f, carry, 3, ((k, one),)) for k in (i, j))
            assert b.mult(x, y) == apply_map(f, carry, 3, a.mult(((i, one),), ((j, one),)))
    assert derivation_space(b).dim == derivation_space(a).dim == 3


def test_a_non_homogeneous_basis_vector_names_its_entries():
    # on sl2 with e, h, f of degrees 1, 0, 1: E_01 has degree 1 and E_11 degree 0
    a, aut = sign_aut_sl2()
    f = a.field
    o = f.one()
    endo = EndoSpace(a, Subspace.from_rows(f, 9, [((0, o),), ((1, o), (4, o))]), tag="hand-built")
    with pytest.raises(NotInvariant, match=r"'hand-built': basis vector 1 has entries \(0, 1\) of degree 1 "
                                           r"and \(1, 1\) of degree 0"):
        induced_endo_grading(grading_from_automorphism(aut), endo)


def test_identity_grades_derivations_without_a_root():
    # Q has no primitive cube root; conjugation by the identity fixes every map
    q = make_field("rational")
    a = sl2(q)
    der = derivation_space(a)
    g = induced_endo_grading(grading_from_automorphism(check_automorphism(a, diagonal_map(q, [1] * 3), 3)), der)
    assert g.component_dims == (3, 0, 0)
    assert g.components[0] == der.space
