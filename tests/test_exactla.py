import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dertensor import exactla
from dertensor.algebra import Algebra, tensor_vector
from dertensor.catalog import sl2
from dertensor.errors import DimensionMismatch, InternalCheckFailed, NotInDomain, SingularElement
from dertensor.exactla import (
    Matrix,
    Subspace,
    apply_map,
    combine_rows,
    compose_maps,
    first_difference,
    invert_map,
    kernel_of_rows,
    map_of_columns,
    rref_rows,
    solve_unique,
    sparse_kron,
    sparse_rows,
)
from dertensor.invariants import derivation_space
from dertensor.scalars import make_field

from naive_la import (Zeta3, dense, dense_mult, dense_reduce, flatten, matmul, matvec, naive_combination, naive_kron,
                      naive_nullspace, naive_of, naive_rank, naive_rref, sparse, unflatten)

QQ = make_field("rational")
Z4 = make_field("cyclotomic", m=4)
F5 = make_field("prime", m=4, p=5)
Z3 = make_field("cyclotomic", m=3)
F31 = make_field("prime", m=3, p=31)


def qmat(rows):
    return Matrix(QQ, [[Fraction(x) for x in r] for r in rows])


def rref(m):
    """The RREF of a dense Matrix through rref_rows: (RREF Matrix, pivots)."""
    f, nc = m.field, m.ncols
    rows, pivots, _ = rref_rows(f, sparse_rows(f, m.rows), nc)
    return Matrix(f, [exactla._dense(f, nc, r) for r in rows], nc), tuple(pivots)


def rank(m):
    return len(rref(m)[1])


def sparse_map(m):
    return sparse(m.field, flatten(m))


def test_rref_hand_example():
    m = qmat([[2, 4, 6], [1, 2, 4]])
    r, pivots = rref(m)
    assert pivots == (0, 2)
    assert r.rows == [[Fraction(1), Fraction(2), Fraction(0)], [Fraction(0), Fraction(0), Fraction(1)]]


def test_rref_matches_naive_oracle_on_random_rational_matrices():
    rng = random.Random(20260822)
    for _ in range(150):
        nr = rng.randint(0, 6)
        nc = rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(nc)] for _ in range(nr)]
        r, pivots = rref(Matrix(QQ, rows, nc))
        orows, opivots = naive_rref(rows)
        assert list(pivots) == opivots
        assert [list(x) for x in r.rows] == orows


def test_rref_idempotent_random():
    rng = random.Random(7)
    for _ in range(80):
        rows = [[Fraction(rng.randint(-5, 5)) for _ in range(5)] for _ in range(4)]
        r1, p1 = rref(Matrix(QQ, rows, 5))
        r2, p2 = rref(r1)
        assert r1.rows == r2.rows and p1 == p2


def test_rank_nullity_random_all_fields():
    rng = random.Random(99)
    for fld in (QQ, F5, Z4):
        for _ in range(40):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            rows = [[fld.from_int(rng.randint(-6, 6)) for _ in range(nc)] for _ in range(nr)]
            m = Matrix(fld, rows, nc)
            assert rank(m) + kernel_of_rows(fld, sparse_rows(fld, rows), nc).dim == nc


def test_kernel_vectors_annihilate():
    rng = random.Random(3)
    for fld in (QQ, F5, Z4):
        for _ in range(30):
            rows = [[fld.from_int(rng.randint(-4, 4)) for _ in range(6)] for _ in range(4)]
            m = Matrix(fld, rows, 6)
            ker = kernel_of_rows(fld, sparse_rows(fld, rows), 6)
            for v in ker.rows:
                out = matvec(m, list(v))
                assert all(fld.is_zero(x) for x in out)


def test_kernel_dimension_matches_naive_oracle():
    rng = random.Random(11)
    for _ in range(60):
        nr, nc = rng.randint(1, 5), rng.randint(2, 6)
        rows = [[Fraction(rng.randint(-6, 6)) for _ in range(nc)] for _ in range(nr)]
        ker = kernel_of_rows(QQ, sparse_rows(QQ, rows), nc)
        assert ker.dim == len(naive_nullspace(rows, nc))
        assert rank(Matrix(QQ, rows, nc)) == naive_rank(rows)


def test_grassmann_identity_random():
    # the sum-dimension verdict of the direct-sum checks against the naive
    # intersection: the x = sum a_i u_i = sum b_j v_j, with (a, b) in the
    # naive kernel of [U^T | -V^T]
    rng = random.Random(42)
    zeta = Z3.root_of_unity(3)
    for fld, p in ((QQ, None), (F5, 5), (Z3, Zeta3)):
        def entry():
            x = fld.from_int(rng.randint(-3, 3))
            return fld.add(x, fld.mul(fld.from_int(rng.randint(-1, 1)), zeta)) if fld is Z3 else x

        for _ in range(60):
            amb = rng.randint(2, 6)
            u, v = (Subspace.from_vectors(fld, amb, [[entry() for _ in range(amb)] for _ in range(rng.randint(0, 3))])
                    for _ in range(2))
            us, vs = naive_of(u.rows, p), naive_of(v.rows, p)
            system = [[x[c] for x in us] + [-y[c] for y in vs] for c in range(amb)]
            meet = [naive_combination(z[:u.dim], us, amb, p) for z in naive_nullspace(system, u.dim + v.dim, p)]
            s = u.sum(v)
            assert u.dim + v.dim == s.dim + len(meet)
            assert (s.dim == u.dim + v.dim) == (not meet)
            for x in meet:
                assert any(x) and naive_rank(us + [x], p) == u.dim and naive_rank(vs + [x], p) == v.dim


def test_subspace_equality_is_canonical():
    u1 = Subspace.from_vectors(QQ, 3, [[Fraction(1), Fraction(1), Fraction(0)], [Fraction(0), Fraction(2), Fraction(2)]])
    u2 = Subspace.from_vectors(QQ, 3, [[Fraction(3), Fraction(0), Fraction(-3)], [Fraction(1), Fraction(3), Fraction(2)]])
    assert u1 == u2
    assert hash(u1) == hash(u2)


def test_subspace_coords_and_membership():
    u = Subspace.from_vectors(QQ, 3, [[Fraction(1), Fraction(0), Fraction(1)], [Fraction(0), Fraction(1), Fraction(2)]])
    v = sparse(QQ, [Fraction(2), Fraction(3), Fraction(8)])
    assert u.contains(v)
    assert u.coords(v) == ((0, Fraction(2)), (1, Fraction(3)))
    assert combine_rows(QQ, ((x, u._sparse[k]) for k, x in u.coords(v))) == v
    with pytest.raises(NotInDomain):
        u.coords(sparse(QQ, [Fraction(0), Fraction(0), Fraction(1)]))


def test_sparse_row_membership():
    # pivots 0 and 1; rows sorted by column with no zero value
    u = Subspace.from_vectors(QQ, 3, [[Fraction(1), Fraction(0), Fraction(1)], [Fraction(0), Fraction(1), Fraction(2)]])
    assert u.contains(((0, Fraction(2)), (1, Fraction(3)), (2, Fraction(8))))
    assert u.contains(())
    assert not u.contains(((0, Fraction(2)), (1, Fraction(3)), (2, Fraction(7))))
    assert not u.contains(((2, Fraction(1)),))  # nonzero off the pivots only
    # the residual, whose first column is the first off the space, and
    # coordinates, which are the pivot entries
    assert u.reduce(((0, Fraction(2)), (1, Fraction(3)), (2, Fraction(7)))) == ((2, Fraction(-1)),)
    assert u.reduce(((2, Fraction(1)),)) == ((2, Fraction(1)),)
    assert u.coords(((0, Fraction(2)), (1, Fraction(3)), (2, Fraction(8)))) == ((0, Fraction(2)), (1, Fraction(3)))
    assert u.coords(((1, Fraction(1)), (2, Fraction(2)))) == ((1, Fraction(1)),)
    with pytest.raises(NotInDomain, match="^row leaves the subspace at column 2$"):
        u.coords(((2, Fraction(1)),))
    # a member written with an explicit zero is not in canonical form, and is refused
    assert not u.contains(((0, Fraction(1)), (1, Fraction(0)), (2, Fraction(1))))


@pytest.mark.parametrize("fld", [QQ, F31, Z3], ids=["Q", "F31", "Q(zeta3)"])
def test_a_member_out_of_order_or_with_an_explicit_zero_is_refused(fld):
    # the inner derivations of sl2: each basis map has several entries
    space = derivation_space(sl2(fld)).space
    d = space._sparse[0]
    gap = next(c for c in range(space.ambient) if c not in dict(d))
    padded = tuple(sorted(d + ((gap, fld.zero()),)))
    assert len(d) > 1 and space.contains(d)
    for bad in (tuple(reversed(d)), padded):
        assert not space.contains(bad)
        assert space.reduce(bad) == bad
        with pytest.raises(NotInDomain):
            space.coords(bad)


def test_first_difference_of_sparse_rows():
    assert first_difference(((0, 1), (2, 3)), ((0, 1), (2, 3))) is None
    assert first_difference(((0, 1), (2, 3)), ((0, 1), (1, 5), (2, 3))) == 1
    assert first_difference(((0, 1), (2, 3)), ((0, 1), (2, 4))) == 2
    assert first_difference((), ((4, 1),)) == 4


FIELDS = pytest.mark.parametrize("fld,p", [(QQ, None), (F31, 31), (Z3, Zeta3)], ids=["Q", "F31", "Q(zeta3)"])


def small_entries(fld, data, nrows, ncols):
    """A dense block of small integers, plus small multiples of zeta over Q(zeta3)."""
    ints, zeta = st.integers(-2, 2), Z3.root_of_unity(3)

    def entry():
        x = fld.from_int(data.draw(ints))
        return fld.add(x, fld.mul(fld.from_int(data.draw(ints)), zeta)) if fld is Z3 else x

    return [[entry() for _ in range(ncols)] for _ in range(nrows)]


def random_algebra(fld, data, n):
    """An algebra of dimension n with small integer structure constants, mostly zero."""
    consts = st.sampled_from([0, 0, 0, 1, -1, 2])
    table = [[[fld.from_int(data.draw(consts)) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    return Algebra(fld, [f"b{i}" for i in range(n)], table)


@FIELDS
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_apply_and_compose_maps_match_dense_products(fld, p, data):
    rng = random.Random(17)
    zeta = Z3.root_of_unity(3)

    def entry():  # zero half the time; a small integer, plus a multiple of zeta over Q(zeta3)
        if rng.random() < 0.5:
            return fld.zero()
        x = fld.from_int(rng.randint(-5, 5))
        return fld.add(x, fld.mul(fld.from_int(rng.randint(-3, 3)), zeta)) if fld is Z3 else x

    for n, blocks in ((1, 3), (2, 2), (3, 1), (3, 2), (4, 3)):
        for _ in range(5):
            x, y = (Matrix(fld, [[entry() for _ in range(n)] for _ in range(n)], n) for _ in range(2))
            sx, sy = sparse_map(x), sparse_map(y)
            v = [entry() for _ in range(n * blocks)]
            # (id tensor x) v is x applied to each block of n coordinates
            want = [w for b in range(blocks) for w in matvec(x, v[b * n:(b + 1) * n])]
            assert apply_map(fld, sx, n, sparse(fld, v)) == sparse(fld, want)
            # x y applies y first
            assert compose_maps(fld, sx, sy, n) == sparse(fld, [v for row in matmul(x, y) for v in row])

    # elements are sparse rows: products, left multiplications and tensors
    # against the dense loops, on random algebras of dimension <= 4
    n, k = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
    a, s = random_algebra(fld, data, n), random_algebra(fld, data, k)
    x, y = small_entries(fld, data, 2, n)
    z = small_entries(fld, data, 1, k)[0]
    assert a.mult(sparse(fld, x), sparse(fld, y)) == sparse(fld, dense_mult(a, x, y))
    basis = Matrix.identity(fld, n).rows
    lx = Matrix(fld, [list(r) for r in zip(*(dense_mult(a, x, e) for e in basis))], n)  # column c: x b_c
    assert a.mult_map(sparse(fld, x)) == sparse_map(lx)
    assert apply_map(fld, sparse_map(lx), n, sparse(fld, y)) == sparse(fld, matvec(lx, y))
    assert tensor_vector(a, s, sparse(fld, x), sparse(fld, z)) == sparse(fld, [fld.mul(u, v) for u in x for v in z])
    # membership in the span of a few rows, of a combination of them or of x
    rows = small_entries(fld, data, data.draw(st.integers(0, 3)), n)
    sub = Subspace.from_vectors(fld, n, rows)
    vec = x
    if data.draw(st.booleans()):
        coeffs = [fld.from_int(data.draw(st.integers(-2, 2))) for _ in rows]
        vec = [sum_of(fld, [fld.mul(c, r[j]) for c, r in zip(coeffs, rows)]) for j in range(n)]
    inside = naive_rank(rows + [vec], p) == naive_rank(rows, p)
    assert sub.reduce(sparse(fld, vec)) == sparse(fld, dense_reduce(sub, vec))
    assert sub.contains(sparse(fld, vec)) == inside
    if inside:
        assert sub.coords(sparse(fld, vec)) == sparse(fld, [vec[c] for c in sub.pivots])
    else:
        with pytest.raises(NotInDomain):
            sub.coords(sparse(fld, vec))


def test_solve_unique_and_inverse():
    m = sparse_map(qmat([[2, 1], [1, 1]]))
    x = solve_unique(QQ, [((0, 2), (1, 1), (2, 3)), ((0, 1), (1, 1), (2, 2))], 2)
    assert x == [((0, Fraction(1)),), ((0, Fraction(1)),)]
    inv = invert_map(QQ, m, 2)
    assert compose_maps(QQ, m, inv, 2) == sparse_map(Matrix.identity(QQ, 2))
    assert compose_maps(QQ, inv, m, 2) == sparse_map(Matrix.identity(QQ, 2))
    with pytest.raises(SingularElement, match="^inconsistent linear system$"):
        solve_unique(QQ, [((0, 1), (1, 1), (2, 1)), ((0, 2), (1, 2))], 2)
    with pytest.raises(SingularElement, match="^underdetermined linear system$"):
        solve_unique(QQ, [((0, 1), (1, 1), (2, 1))], 2)
    with pytest.raises(SingularElement):
        invert_map(QQ, sparse_map(qmat([[1, 1], [2, 2]])), 2)


def sum_of(fld, xs):
    acc = fld.zero()
    for x in xs:
        acc = fld.add(acc, x)
    return acc


@FIELDS
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_invert_map_inverts_exactly_the_maps_of_full_rank(fld, p, data):
    n = data.draw(st.integers(1, 4))
    entries = small_entries(fld, data, n, n)
    m = sparse_map(Matrix(fld, entries, n))
    if naive_rank(entries, p) == n:
        inv = invert_map(fld, m, n)
        eye = sparse_map(Matrix.identity(fld, n))
        assert compose_maps(fld, m, inv, n) == eye == compose_maps(fld, inv, m, n)
    else:
        with pytest.raises(SingularElement):
            invert_map(fld, m, n)


@FIELDS
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_solve_unique_recovers_a_planted_solution(fld, p, data):
    n, k = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
    a = small_entries(fld, data, n + data.draw(st.integers(0, 2)), n)  # overdetermined
    x = small_entries(fld, data, n, k)

    def times(m, y):
        return [[sum_of(fld, [fld.mul(r[t], y[t][j]) for t in range(len(y))]) for j in range(k)] for r in m]

    b = times(a, x)
    moved = data.draw(st.booleans())
    if moved:  # one entry of B moved by 1: the system may become inconsistent
        i, j = data.draw(st.integers(0, len(a) - 1)), data.draw(st.integers(0, k - 1))
        b[i][j] = fld.add(b[i][j], fld.one())
    aug = [ra + rb for ra, rb in zip(a, b)]
    rows = sparse_rows(fld, aug)
    if naive_rank(aug, p) > naive_rank(a, p):
        with pytest.raises(SingularElement, match="^inconsistent linear system$"):
            solve_unique(fld, rows, n, k)
    elif naive_rank(a, p) < n:
        with pytest.raises(SingularElement, match="^underdetermined linear system$"):
            solve_unique(fld, rows, n, k)
    else:
        got = [list(exactla._dense(fld, k, r)) for r in solve_unique(fld, rows, n, k)]
        assert times(a, got) == b
        if not moved:
            assert got == x



def test_matrix_ops_shape_checks():
    with pytest.raises(DimensionMismatch):
        qmat([[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        Matrix(QQ, [[Fraction(1), Fraction(2)]], 3)


def test_kron_convention():
    a = qmat([[1, 2], [3, 4]])
    b = qmat([[0, 1], [1, 0]])
    x, y = sparse_map(a), sparse_map(b)
    k = unflatten(QQ, exactla._dense(QQ, 16, sparse_kron(QQ, x, 2, y, 2)), 4, 4)
    # entry at row (i1,i2)=(0,1), col (j1,j2)=(1,0): a[0][1]*b[1][0] = 2
    assert k.rows[1][2] == Fraction(2)
    assert k.nrows == 4 and k.ncols == 4


@pytest.mark.parametrize("nx,ny", [(1, 4), (3, 2), (2, 3)])
@pytest.mark.parametrize("fld,p", [(QQ, None), (F31, 31), (Z3, Zeta3)], ids=["Q", "F31", "Q(zeta3)"])
def test_sparse_kron_matches_a_dense_kronecker_product(fld, p, nx, ny):
    rng = random.Random(10 * nx + ny)
    zeta = Z3.root_of_unity(3)

    def entry():  # zero half the time; a small fraction, plus a multiple of zeta over Q(zeta3)
        if rng.random() < 0.5:
            return fld.zero()
        x = fld.from_fraction(Fraction(rng.randint(-9, 9), rng.randint(1, 3)))
        return fld.add(x, fld.mul(fld.from_int(rng.randint(-3, 3)), zeta)) if fld is Z3 else x

    for _ in range(20):
        x = [[entry() for _ in range(nx)] for _ in range(nx)]
        y = [[entry() for _ in range(ny)] for _ in range(ny)]
        sx, sy = sparse_rows(fld, [[v for row in m for v in row] for m in (x, y)])
        k = sparse_kron(fld, sx, nx, sy, ny)
        assert [t for t, _ in k] == sorted({t for t, _ in k}) and all(fld.nonzero(v) for _, v in k)
        got = exactla._dense(fld, (nx * ny) ** 2, k)
        want = [v for row in naive_kron(x, y, p) for v in row]
        assert [Zeta3(*v) if p is Zeta3 else v for v in got] == want


def test_flatten_round_trip():
    a = qmat([[1, 2, 3], [4, 5, 6]])
    assert unflatten(QQ, flatten(a), 2, 3).rows == a.rows
    # the sparse flattening of a square map, from its columns, is the same convention
    b = qmat([[1, 0, 3], [0, 5, 6], [7, 0, 0]])
    assert map_of_columns([sparse(QQ, [row[j] for row in b.rows]) for j in range(3)]) == sparse_map(b)


def test_rref_cyclotomic_small():
    z = Z4.omega()
    one = Z4.one()
    m = Matrix(Z4, [[one, z], [z, Z4.neg(one)]], 2)
    # second row is z times the first, so rank 1
    r, pivots = rref(m)
    assert pivots == (0,)
    assert r.rows[0] == [one, z]


def test_rref_prime_field_matches_structure():
    m = Matrix(F5, [[2, 4], [1, 2]], 2)
    r, pivots = rref(m)
    assert pivots == (0,)
    assert r.rows == [[1, 2]]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-8, 8), min_size=4, max_size=4),
        min_size=1,
        max_size=5,
    )
)
def test_rref_row_space_invariant(int_rows):
    """The RREF rows span the same space as the input rows."""
    rows = [[Fraction(x) for x in r] for r in int_rows]
    sub = Subspace.from_vectors(QQ, 4, rows)
    for r in rows:
        assert sub.contains(sparse(QQ, r))
    back = Subspace.from_vectors(QQ, 4, [list(x) for x in sub.rows])
    assert back == sub


# -- differential tests of the sparse eliminators ---------------------------


@st.composite
def int_systems(draw, max_cols=7, max_rows=8):
    """(ncols, dense integer rows) with about two nonzeros per row."""
    nc = draw(st.integers(1, max_cols))
    entry = st.tuples(st.integers(0, nc - 1), st.integers(-6, 6))
    rows = []
    for pairs in draw(st.lists(st.lists(entry, max_size=3), max_size=max_rows)):
        row = [0] * nc
        for j, x in pairs:
            row[j] += x
        rows.append(row)
    return nc, rows


def lift(fld, rows):
    return [[fld.from_int(x) for x in row] for row in rows]


def dense_rows(red, nc):
    return [[dict(r).get(j, 0) for j in range(nc)] for r in red]


def integer_first(values):
    """Each rational is an int when integral and a Fraction otherwise (see scalars)."""
    return all(type(x) is (int if Fraction(x).denominator == 1 else Fraction) for x in values)


@settings(max_examples=150, deadline=None)
@given(int_systems())
@example((3, [[0, 2, 4], [0, 1, 2], [0, 0, 0], [5, 0, -1]]))
@example((3, [[3, 6, 1], [0, 0, 2]]))
@example((3, [[3, 6, 1]]))
def test_sparse_rref_and_kernel_match_naive_oracle(system):
    nc, ints = system
    rows = lift(QQ, ints)
    red, pivots, _ = rref_rows(QQ, sparse_rows(QQ, rows), nc)
    orows, opivots = naive_rref(rows)
    assert pivots == opivots
    assert dense_rows(red, nc) == orows
    assert integer_first(x for row in red for _, x in row)
    ker = kernel_of_rows(QQ, sparse_rows(QQ, rows), nc)
    assert [list(r) for r in ker.rows] == naive_rref(naive_nullspace(rows, nc))[0]
    assert integer_first(x for row in ker.rows for x in row)


@settings(max_examples=80, deadline=None)
@given(int_systems(), st.randoms(use_true_random=False))
def test_redundant_rows_leave_the_subspace_unchanged(system, rnd):
    nc, ints = system
    for fld in (QQ, F31, Z3):
        rows = lift(fld, ints)
        scalars = [fld.from_int(c) for c in (-1, 2, -3, 5)]
        if fld is Z3:
            scalars.append(fld.add(fld.one(), fld.omega()))
        padded = list(rows) + [[fld.zero()] * nc]
        for row in rows:
            padded.append(list(row))
            c = rnd.choice(scalars)
            padded.append([fld.mul(c, x) for x in row])
        rnd.shuffle(padded)
        assert Subspace.from_vectors(fld, nc, padded) == Subspace.from_vectors(fld, nc, rows)
        assert (kernel_of_rows(fld, sparse_rows(fld, padded), nc)
                == kernel_of_rows(fld, sparse_rows(fld, rows), nc))


@settings(max_examples=80, deadline=None)
@given(int_systems(), st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 3)), min_size=8, max_size=8))
def test_cyclotomic_descent_and_generic_path_agree(system, units):
    nc, ints = system
    q = Subspace.from_vectors(QQ, nc, lift(QQ, ints))
    with mock.patch.object(exactla, "_eliminate_generic", wraps=exactla._eliminate_generic) as gen:
        rational = Subspace.from_vectors(Z3, nc, lift(Z3, ints))
        assert not gen.called
    assert rational.pivots == q.pivots
    assert rational.rows == tuple(tuple(Z3.from_fraction(x) for x in r) for r in q.rows)
    # rows times units a + b zeta (b != 0): entries leave Q, the row space stays
    scaled = [[Z3.mul((Fraction(a), Fraction(b)), x) for x in row]
              for row, (a, b) in zip(lift(Z3, ints), units)]
    with mock.patch.object(exactla, "_eliminate_generic", wraps=exactla._eliminate_generic) as gen:
        generic = Subspace.from_vectors(Z3, nc, scaled)
        assert gen.called == any(any(row) for row in ints)
    assert generic == rational


@settings(max_examples=100, deadline=None)
@given(int_systems())
@example((2, [[1, 2], [3, 37]]))
def test_rank_mod_p_never_exceeds_rank_over_q(system):
    nc, ints = system
    rank_q = len(rref_rows(QQ, sparse_rows(QQ, lift(QQ, ints)), nc)[1])
    rank_p = len(rref_rows(F31, sparse_rows(F31, lift(F31, ints)), nc)[1])
    assert rank_p <= rank_q


@pytest.mark.parametrize("fld", [QQ, F31, Z3])
def test_kernel_of_empty_system_is_whole_space(fld):
    for nc in (0, 1, 4):
        for rows in ([], [(), ()]):
            ker = kernel_of_rows(fld, rows, nc)
            assert ker.pivots == tuple(range(nc))
            assert [list(r) for r in ker.rows] == Matrix.identity(fld, nc).rows


# -- the kernel certificate -------------------------------------------------
#
# The mutants below replace an eliminator from the test; kernel_of_rows must
# refuse their output with InternalCheckFailed naming the tag and a witness.


@pytest.mark.parametrize("fld", [QQ, F31, Z3], ids=["Q", "F31", "Q(zeta3)"])
def test_sources_name_the_first_input_row_behind_each_pivot(fld):
    # (0, 2) normalises to (0, 1); the later raw (0, 1) is then a known row.
    # Over Q(zeta_3) the rows are rational, so rref_rows solves them over Q
    rows = sparse_rows(fld, lift(fld, [[0, 0], [2, 0], [1, 0], [4, 2], [0, 1]]))
    red, pivots, sources = rref_rows(fld, rows, 2)
    assert (red, pivots) == ([((0, fld.one()),), ((1, fld.one()),)], [0, 1])
    assert sources == [1, 3]


def test_one_row_outside_q_puts_every_row_in_the_field():
    # two rows are rational and one leaves Q, so all three are eliminated in
    # Q(zeta_3), and no part of the system is solved over Q
    rows = sparse_rows(Z3, lift(Z3, [[1, 1, 0, 0], [0, 1, 1, 0]])) + [((2, Z3.one()), (3, Z3.root_of_unity(3)))]
    with mock.patch.object(exactla, "_eliminate_generic", wraps=exactla._eliminate_generic) as gen, \
            mock.patch.object(exactla, "_eliminate_rational", wraps=exactla._eliminate_rational) as rat:
        ker = kernel_of_rows(Z3, rows, 4, "probe")
    assert [len(call.args[1]) for call in gen.call_args_list] == [3]  # its kernel basis is RREF as built
    assert not rat.called
    dense_rows = [dense(Z3, 4, r) for r in rows]
    assert [[Zeta3(*x) for x in row] for row in ker.rows] == naive_rref(naive_nullspace(dense_rows, 4, Zeta3), Zeta3)[0]


@pytest.mark.parametrize("fld,one", [(QQ, "1"), (F31, "1"), (Z3, r"\[1\]")], ids=["Q", "F31", "Q(zeta3)"])
def test_certificate_catches_an_eliminator_that_drops_a_row(monkeypatch, fld, one):
    real = exactla._eliminate

    def drop_second(rows, normal, cancel):
        rows = list(rows)
        return real(rows[:1] + rows[2:], normal, cancel)

    monkeypatch.setattr(exactla, "_eliminate", drop_second)
    rows = sparse_rows(fld, lift(fld, [[1, 0, 0], [0, 1, 0]]))
    # without row 1, e_1 passes for a kernel vector and leaves 1 on row 1
    with pytest.raises(InternalCheckFailed,
                       match=rf"kernel 'probe': basis vector 0 leaves residual {one} on input row 1"):
        kernel_of_rows(fld, rows, 3, "probe")


def test_a_residual_witness_over_q_is_unscaled(monkeypatch):
    # the residual pass scales each basis vector to integers; its witness divides the scale out
    real = exactla._eliminate

    def drop_second(rows, normal, cancel):
        rows = list(rows)
        return real(rows[:1] + rows[2:], normal, cancel)

    monkeypatch.setattr(exactla, "_eliminate", drop_second)
    rows = sparse_rows(QQ, lift(QQ, [[1, 2, 0], [0, 1, 0]]))
    # without row 1, b_0 = e_0 - e_1 / 2 passes for a kernel vector and leaves -1/2 on row 1
    with pytest.raises(InternalCheckFailed, match=r"kernel 'probe': basis vector 0 leaves residual -1/2 on input row 1"):
        kernel_of_rows(QQ, rows, 3, "probe")


@pytest.mark.parametrize("fld", [QQ, Z3], ids=["Q", "Q(zeta3)"])
def test_certificate_catches_an_eliminator_that_invents_a_pivot(monkeypatch, fld):
    real = exactla._eliminate_rational

    def invent(rows):
        red, pivots, sources = real(rows)
        # column 2 appears in no row; claim it as a pivot owed to row 0
        return red + [((2, 1),)], pivots + [2], sources + [0]

    monkeypatch.setattr(exactla, "_eliminate_rational", invent)
    rows = sparse_rows(fld, lift(fld, [[1, 1, 0]]))
    # the residual passes (b_1 = e_1 - e_0 is a true kernel vector), the rank does not
    with pytest.raises(InternalCheckFailed,
                       match=r"kernel 'probe': the 2 input rows behind the pivots are dependent mod each of"):
        kernel_of_rows(fld, rows, 3, "probe")


def _primes_tried(monkeypatch):
    tried = []
    real = exactla._prime_ops

    def spy(p):
        tried.append(p)
        return real(p)

    monkeypatch.setattr(exactla, "_prime_ops", spy)
    return tried


def test_the_rank_certificate_runs_the_forward_pass_alone(monkeypatch):
    # the rank check reads only the pivot count, so nothing back-substitutes mod a prime
    calls, real = [], exactla._eliminate

    def counted(rows, normal, cancel):
        calls.append(normal)
        return real(rows, normal, cancel)

    monkeypatch.setattr(exactla, "_eliminate", counted)
    tried = _primes_tried(monkeypatch)
    assert kernel_of_rows(QQ, [((0, 1), (1, 1)), ((1, 1), (2, 2))], 3).dim == 1
    assert len(calls) == 1 and calls[0] is exactla._primitive
    assert tried == [exactla._PRIMES[0]]


def test_certificate_survives_a_rank_drop_mod_the_first_prime(monkeypatch):
    p1, p2, _ = exactla._PRIMES
    assert p1 == 2**31 - 1
    rows = [((0, 1), (1, 1)), ((0, 1), (1, 2**31))]  # det 2^31 - 1
    tried = _primes_tried(monkeypatch)
    assert kernel_of_rows(QQ, rows, 2).dim == 0
    assert tried == [p1, p2]


def test_certificate_gives_up_after_three_primes(monkeypatch):
    p1, p2, p3 = exactla._PRIMES
    rows = [((0, 1), (1, 1)), ((0, 1), (1, 1 + p1 * p2 * p3))]
    tried = _primes_tried(monkeypatch)
    with pytest.raises(InternalCheckFailed, match=r"the 2 input rows behind the pivots are dependent mod each of"):
        kernel_of_rows(QQ, rows, 2, "probe")
    assert tried == [p1, p2, p3]


@settings(max_examples=80, deadline=None)
@given(int_systems(), int_systems())
def test_cut_equals_the_lift_of_the_naive_kernel(space, system):
    nc, vecs = space
    _, ints = system
    for fld, p in ((QQ, None), (F5, 5), (Z3, Zeta3)):
        v = Subspace.from_vectors(fld, nc, lift(fld, vecs))
        k, basis = v.dim, naive_of(v.rows, p)
        coords = [(row * k)[:k] for row in ints]  # rows on the k coordinates of v
        lifted = [naive_combination(y, basis, nc, p) for y in naive_nullspace(naive_of(coords, p), k, p)]
        got = v.cut(sparse_rows(fld, lift(fld, coords)), "probe")
        assert naive_of(got.rows, p) == naive_rref(lifted, p)[0]
