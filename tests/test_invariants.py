from fractions import Fraction
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dertensor.algebra import Algebra, tensor_product
from dertensor.catalog import dual_numbers, group_algebra, sl2, sl2_graded_variant, zero_product
from dertensor.decomposition import split_derivation
from dertensor.errors import InternalCheckFailed, NotPerfect, NotUnital
from dertensor.exactla import Matrix, Subspace
from dertensor import exactla, invariants
from dertensor.invariants import (
    centroid,
    derivation_space,
    differential_centroid,
    leibniz_witness,
    psi_map,
    psi_multiplicative,
)
from dertensor.scalars import make_field

from dense_leibniz import dense_leibniz_witness
from naive_la import (Zeta3, column, dense, dense_mult, flatten, matvec, naive_combination, naive_nullspace, naive_of,
                      naive_rref, sparse, unflatten)

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
                lhs = matvec(e, dense_mult(alg, bi, bj))
                rhs_l = dense_mult(alg, matvec(e, bi), bj)
                rhs_r = dense_mult(alg, bi, matvec(e, bj))
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
                gp = matvec(e, dense_mult(alg, bi, bj))
                left = dense_mult(alg, matvec(e, bi), bj)
                right = dense_mult(alg, bi, matvec(e, bj))
                out.extend(alg.field.sub(a, b) for a, b in zip(gp, left))
                out.extend(alg.field.sub(a, b) for a, b in zip(gp, right))
        return out

    return defect


def ad_matrix(alg, i):
    n, f = alg.dim, alg.field
    return unflatten(f, dense(f, n * n, alg.mult_map(sparse(f, alg.basis_vector(i)))), n, n)


def test_sl2_derivations_dimension_and_basis():
    a = sl2()
    d = derivation_space(a)
    assert d.dim == 3
    assert oracle_condition_dim(a, leibniz_defect(a)) == 3
    # frozen: the inner derivations span everything
    inner = Subspace.from_vectors(QQ, 9, [flatten(ad_matrix(a, i)) for i in range(3)])
    assert d.space == inner


def test_sl2_centroid_is_scalars():
    a = sl2()
    c = centroid(a)
    assert c.dim == 1
    assert oracle_condition_dim(a, centroid_defect(a)) == 1
    assert c.space.contains(sparse(QQ, flatten(Matrix.identity(QQ, 3))))


def test_sl2_differential_centroid():
    assert differential_centroid(sl2()).dim == 1


def naive_commutant(a, p=None):
    """RREF basis of the g in C(a) with g d = d g for every d in D(a): the
    naive kernel of the entries of g_k d - d g_k over the basis maps g_k of
    C(a), lifted. Each d's rows join the echelon form of the ones before."""
    n = a.dim
    cents = naive_of(centroid(a).space.rows, p)
    zero = naive_of([[a.field.zero()]], p)[0][0]

    def entry(x, y, r, c):  # (x y)[r][c], both maps flattened row-major
        return sum((x[r * n + t] * y[t * n + c] for t in range(n)), zero)

    system = []
    for d in naive_of(derivation_space(a).space.rows, p):
        system = naive_rref(system + [[entry(g, d, r, c) - entry(d, g, r, c) for g in cents]
                                      for r in range(n) for c in range(n)], p)[0]
    ker = naive_nullspace(system, len(cents), p)
    return naive_rref([naive_combination(y, cents, n * n, p) for y in ker], p)[0]


F5 = make_field("prime", m=4, p=5)
DC_FIELDS = {None: QQ, 5: F5, Zeta3: make_field("cyclotomic", m=3)}


@pytest.mark.parametrize("p", [None, 5, Zeta3], ids=["Q", "F5", "Q(zeta3)"])
def test_differential_centroid_of_sl2_tensor_dual_numbers_is_the_naive_commutant(p):
    f = DC_FIELDS[p]
    a = tensor_product(sl2(f), dual_numbers(f))
    got = differential_centroid(a).space
    assert (derivation_space(a).dim, centroid(a).dim, got.dim) == (7, 2, 1)
    assert naive_of(got.rows, p) == naive_commutant(a, p)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_differential_centroid_is_the_naive_commutant_on_random_algebras(data):
    p = data.draw(st.sampled_from([None, 5, Zeta3]))
    f, n = DC_FIELDS[p], data.draw(st.integers(1, 4))
    consts = st.sampled_from([0, 0, 0, 1, -1, 2] + ([f.root_of_unity(3)] if p is Zeta3 else []))
    # the basis vectors b_i with i < cut span an ideal, and so do the others:
    # A is the direct sum of two, and their projections lie in C(A)
    cut = data.draw(st.integers(0, n))
    table = [[[f.from_int(c) if isinstance(c, int) else c
               for c in ((data.draw(consts) if (i < cut) == (j < cut) == (k < cut) else 0) for k in range(n))]
              for j in range(n)] for i in range(n)]
    a = Algebra(f, [f"b{i}" for i in range(n)], table)
    assert naive_of(differential_centroid(a).space.rows, p) == naive_commutant(a, p)


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
    gen = unflatten(s.field, list(d.space.rows[0]), 2, 2)
    assert column(gen, 0) == [Fraction(0), Fraction(0)]
    assert column(gen, 1) == [Fraction(0), Fraction(1)]
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


def test_psi_bijective_on_perfect_pair():
    a, s = sl2(), group_algebra(2)
    rep = psi_map(a, s)
    assert rep.domain_dim == 2
    assert rep.target_dim == 2
    assert rep.injective and rep.image_in_centroid and rep.surjective
    assert psi_multiplicative(a, s, rep.images)


@pytest.mark.parametrize("field", [QQ, make_field("cyclotomic", m=3)], ids=["Q", "Q(zeta3)"])
@pytest.mark.parametrize("j", range(3))
def test_psi_multiplicativity_catches_a_dropped_term(monkeypatch, field, j):
    a, s = sl2(field), group_algebra(3, field)
    assert psi_multiplicative(a, s, psi_map(a, s).images)
    images = invariants._psi_images

    def mutant(a, s):
        cols = images(a, s)
        cols[j] = cols[j][1:]  # psi(id (x) z^j) loses one (column, value) pair
        return cols

    monkeypatch.setattr(invariants, "_psi_images", mutant)
    assert not psi_multiplicative(a, s, psi_map(a, s).images)


def test_psi_bijective_flagship_sized_pair():
    rep = psi_map(sl2(), group_algebra(4))
    assert rep.injective and rep.image_in_centroid and rep.surjective
    assert rep.domain_dim == rep.target_dim == 4


def test_psi_requires_perfect_left_factor():
    with pytest.raises(NotPerfect):
        psi_map(zero_product(2), dual_numbers())


def test_psi_requires_unital_right_factor():
    with pytest.raises(NotUnital):
        psi_map(sl2(), zero_product(2))


def test_vanishing_needs_unital_right_factor():
    # the remainder of a split vanishes on A (x) 1, which needs a unit
    with pytest.raises(NotUnital):
        split_derivation((), sl2(), zero_product(2))


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
        m = unflatten(f, dense(f, n * n, exactla.combine_rows(f, zip(coeffs, der.space._sparse))), n, n)
        if kind == "perturbed":
            r, c = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            m.rows[r][c] = f.add(m.rows[r][c], f.from_int(data.draw(st.sampled_from([1, -2, 5]))))
    want = dense_leibniz_witness(a, m)
    got = leibniz_witness(a, sparse(f, flatten(m)))
    # the witness names the same pair
    assert got == (want and want[:2])
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
    # zero and repeated rows dropped: the same row space, less naive work
    system = [list(r) for r in dict.fromkeys(zip(*cols)) if any(map(f.nonzero, r))]
    return naive_rref(naive_nullspace(system, n * n, p), p)[0]


def matches_oracle(a, split, p=None):
    """Whether D(a), or with split C(a), is the oracle's RREF basis."""
    space = (centroid if split else derivation_space)(a).space
    want = oracle_kernel(a, (centroid_defect if split else leibniz_defect)(a), p)
    if p is Zeta3:
        want = [[x.raw for x in row] for row in want]
    return [list(r) for r in space.rows] == want


Z3 = make_field("cyclotomic", m=3)
ORACLE_FIELDS = {None: QQ, 31: make_field("prime", m=3, p=31), Zeta3: Z3}


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_derivations_and_centroid_match_the_naive_oracle_on_random_algebras(data):
    p = data.draw(st.sampled_from([None, 31, Zeta3]))
    f = ORACLE_FIELDS[p]
    # n = 5 over Q(zeta_3) costs the naive oracle seconds per algebra
    n = data.draw(st.integers(1, 4 if p is Zeta3 else 5))
    # over Q(zeta_3) some constants lie outside Q, so the system is not solved over Q
    consts = st.sampled_from([0, 0, 0, 1, -1, 2] + ([Z3.root_of_unity(3)] if p is Zeta3 else []))
    table = [[[f.from_int(c) if isinstance(c, int) else c for c in (data.draw(consts) for _ in range(n))]
              for _ in range(n)] for _ in range(n)]
    a = Algebra(f, [f"b{i}" for i in range(n)], table)
    assert matches_oracle(a, False, p)
    assert matches_oracle(a, True, p)


# b0 b0 = b2, b1 b0 = b1 - b2, b1 b1 = -b0: neither a Lie nor an associative
# algebra, and the law on its generator pairs does not imply it on (b0, b0)
SHORT_PAIRS = [[[0, 0, 1], [0, 0, 0], [0, 0, 0]],
               [[0, 1, -1], [-1, 0, 0], [0, 0, 0]],
               [[0, 0, 0], [0, 0, 0], [0, 0, 0]]]


def short_pairs_algebra(f=QQ):
    """The SHORT_PAIRS algebra; over Q(zeta_3), b0 b0 = zeta b2 instead, one
    constant outside Q, on the pair (b0, b0), which is no generator pair."""
    table = [[[f.from_int(c) for c in v] for v in row] for row in SHORT_PAIRS]
    if f.kind == "cyclotomic":
        table[0][0][2] = f.root_of_unity(3)
    return Algebra(f, ["b0", "b1", "b2"], table)


def assembled_of(monkeypatch):
    """The (pairs, rows) of each call of the row source, in order."""
    assembled = []
    pair_rows = invariants._pair_rows

    def counted(a, maps, split, pairs):
        rows = list(pair_rows(a, maps, split, pairs))
        assembled.append((list(pairs), [row for _, _, row in rows]))
        return rows

    monkeypatch.setattr(invariants, "_pair_rows", counted)
    return assembled


def outside_q(rows):
    return any(any(x[1:]) for row in rows for _, x in row)


@pytest.mark.parametrize("split,p", [(False, None), (True, None), (False, Zeta3), (True, Zeta3)],
                         ids=["derivations", "centroid", "derivations-Q(zeta3)", "centroid-Q(zeta3)"])
def test_generator_pairs_that_fall_short_are_cut_by_the_other_pairs(monkeypatch, split, p):
    assembled = assembled_of(monkeypatch)
    a = short_pairs_algebra(ORACLE_FIELDS[p])
    assert matches_oracle(a, split, p)
    # b1 alone generates (b1 b1 = -b0, b0 b0 = b2); the law fails on (b0, b0)
    every = [(i, j) for i in range(3) for j in range(3)]
    assert invariants._generators(a) == {1}
    assert [pairs for pairs, _ in assembled] == [[pair for pair in every if 1 in pair],
                                                 [pair for pair in every if 1 not in pair]]
    assert assembled[1][1]
    if p is Zeta3:
        # zeta enters the generator pair (b1, b0) through m(b1) b0, and the
        # pair (b0, b0) through b0 b0, so both hold rows outside Q
        assert [outside_q(rows) for _, rows in assembled] == [True, True]


# (P, P^-1): integer basis changes b'_i = sum_r P[r][i] b_r, unimodular so
# that they stay invertible over F_31 too; in each, the generator pairs fall short
BASIS_CHANGES = [([[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
                 ([[1, 0, 0], [0, 1, 1], [0, 0, 1]], [[1, 0, 0], [0, 1, -1], [0, 0, 1]]),
                 ([[1, 0, 0], [0, 1, 0], [2, -1, 1]], [[1, 0, 0], [0, 1, 0], [-2, 1, 1]])]


def changed_basis(a, change):
    """a in the basis b'_i = sum_r P[r][i] b_r, for change = (P, P^-1)."""
    f, n = a.field, a.dim
    fwd, back = change
    cols = [sparse(f, [f.from_int(fwd[r][i]) for r in range(n)]) for i in range(n)]  # b'_i in the old basis
    inv = sparse(f, [f.from_int(x) for row in back for x in row])
    products = [[exactla.apply_map(f, inv, n, a.mult(x, y)) for y in cols] for x in cols]
    return Algebra.from_products(f, [f"c{i}" for i in range(n)], products)


@pytest.mark.parametrize("change", range(len(BASIS_CHANGES)))
@pytest.mark.parametrize("p", [None, 31, Zeta3], ids=["Q", "F31", "Q(zeta3)"])
def test_short_pairs_in_another_basis_match_the_oracle(monkeypatch, p, change):
    fwd, back = BASIS_CHANGES[change]
    assert [[sum(x * y for x, y in zip(row, col)) for col in zip(*back)] for row in fwd] == [
        [int(i == j) for j in range(3)] for i in range(3)]
    cuts, cut = [], exactla.Subspace.cut

    def counted(self, rows, tag):
        cuts.append(tag)
        return cut(self, rows, tag)

    monkeypatch.setattr(exactla.Subspace, "cut", counted)
    a = changed_basis(short_pairs_algebra(ORACLE_FIELDS[p]), BASIS_CHANGES[change])
    assert matches_oracle(a, False, p)
    assert matches_oracle(a, True, p)
    assert cuts == ["derivations", "centroid"]


# each mutant below passes a wrong kernel that matches_oracle then tells apart


@pytest.mark.parametrize("split", [False, True], ids=["derivations", "centroid"])
def test_a_kernel_that_skips_the_cut_is_caught(monkeypatch, split):
    monkeypatch.setattr(exactla.Subspace, "cut", lambda self, rows, tag: self)
    assert not matches_oracle(short_pairs_algebra(), split)


@pytest.mark.parametrize("split", [False, True], ids=["derivations", "centroid"])
def test_a_cut_that_drops_one_pairs_rows_is_caught(monkeypatch, split):
    real = invariants._pair_rows

    def mutant(a, maps, split, pairs):
        return ((i, j, row) for i, j, row in real(a, maps, split, pairs) if (i, j) != (0, 0))

    monkeypatch.setattr(invariants, "_pair_rows", mutant)
    assert not matches_oracle(short_pairs_algebra(), split)


@pytest.mark.parametrize("split,k", [(False, 0), (True, 1)], ids=["derivations", "centroid"])
def test_a_cut_that_drops_one_basis_vectors_residual_is_caught(monkeypatch, split, k):
    real, calls = invariants._pair_rows, []

    def mutant(a, maps, split, pairs):
        calls.append(pairs)
        rows = real(a, maps, split, pairs)
        if len(calls) == 1:  # the generator pairs' system stays whole
            return rows
        # K_gen's basis vector k leaves no entry in the other pairs' rows
        return ((i, j, tuple((kk, x) for kk, x in row if kk != k)) for i, j, row in rows)

    monkeypatch.setattr(invariants, "_pair_rows", mutant)
    assert not matches_oracle(short_pairs_algebra(), split)
    assert len(calls) == 2


@pytest.mark.parametrize("split", [False, True], ids=["derivations", "centroid"])
def test_a_pair_that_fails_with_its_rows_in_names_its_witness(monkeypatch, split):
    real, calls = exactla._eliminate_rational, []

    def lossy(rows):  # the generator pairs' echelon form loses its last pivot row
        red, pivots, sources = real(rows)
        calls.append(len(red))
        return (red[:-1], pivots[:-1], sources[:-1]) if len(calls) == 1 else (red, pivots, sources)

    monkeypatch.setattr(exactla, "_eliminate_rational", lossy)
    tag = "centroid" if split else "derivations"
    with pytest.raises(InternalCheckFailed,
                       match=rf"kernel '{tag}': basis vector \d+ leaves residual -?\d+(/\d+)? on input row \d+"):
        (centroid if split else derivation_space)(tensor_product(sl2(), group_algebra(3)))
    assert len(calls) == 1


@pytest.mark.parametrize("split", [False, True], ids=["derivations", "centroid"])
def test_an_eliminator_that_invents_a_pivot_in_the_subset_is_caught(monkeypatch, split):
    real, calls = exactla._eliminate_rational, []

    def invent(rows):
        rows = list(rows)
        red, pivots, sources = real(rows)
        calls.append(len(rows))
        if len(calls) > 1:
            return red, pivots, sources
        # the generator pairs' echelon form claims a free column, owed to a dependent row
        c = next(c for c in count() if c not in pivots)
        dependent = next(i for i in range(len(rows)) if i not in sources)
        at = sum(q < c for q in pivots)
        return (red[:at] + [((c, 1),)] + red[at:], pivots[:at] + [c] + pivots[at:],
                sources[:at] + [dependent] + sources[at:])

    monkeypatch.setattr(exactla, "_eliminate_rational", invent)
    tag = "centroid" if split else "derivations"
    with pytest.raises(InternalCheckFailed, match=f"kernel '{tag}': the .* input rows behind the pivots are dependent"):
        (centroid if split else derivation_space)(tensor_product(sl2(), group_algebra(3)))
