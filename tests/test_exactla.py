import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dertensor import exactla
from dertensor.errors import DimensionMismatch, InternalCheckFailed, NotInDomain, SingularElement
from dertensor.exactla import (
    Matrix,
    Subspace,
    apply_map,
    compose_maps,
    first_difference,
    invert_matrix,
    kernel_of_rows,
    rank,
    rref,
    rref_rows,
    solve_unique,
    sparse_kron,
    sparse_rows,
)
from dertensor.scalars import make_field

from naive_la import Zeta3, naive_kron, naive_nullspace, naive_rank, naive_rref

QQ = make_field("rational")
Z4 = make_field("cyclotomic", m=4)
F5 = make_field("prime", m=4, p=5)
Z3 = make_field("cyclotomic", m=3)
F31 = make_field("prime", m=3, p=31)


def qmat(rows):
    return Matrix(QQ, [[Fraction(x) for x in r] for r in rows])


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
                out = m.matvec(list(v))
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
    rng = random.Random(42)
    for fld in (QQ, F5):
        for _ in range(60):
            amb = rng.randint(2, 6)
            mk = lambda k: Subspace.from_vectors(
                fld, amb, [[fld.from_int(rng.randint(-3, 3)) for _ in range(amb)] for _ in range(k)]
            )
            u, v = mk(rng.randint(0, 3)), mk(rng.randint(0, 3))
            s = u.sum(v)
            i = u.intersect(v)
            assert u.dim + v.dim == s.dim + i.dim
            for row in i.rows:
                assert u.contains(list(row)) and v.contains(list(row))


def test_subspace_equality_is_canonical():
    u1 = Subspace.from_vectors(QQ, 3, [[Fraction(1), Fraction(1), Fraction(0)], [Fraction(0), Fraction(2), Fraction(2)]])
    u2 = Subspace.from_vectors(QQ, 3, [[Fraction(3), Fraction(0), Fraction(-3)], [Fraction(1), Fraction(3), Fraction(2)]])
    assert u1 == u2
    assert hash(u1) == hash(u2)


def test_subspace_coords_and_membership():
    u = Subspace.from_vectors(QQ, 3, [[Fraction(1), Fraction(0), Fraction(1)], [Fraction(0), Fraction(1), Fraction(2)]])
    v = [Fraction(2), Fraction(3), Fraction(8)]
    assert u.contains(v)
    assert u.coords(v) == [Fraction(2), Fraction(3)]
    assert u.linear_combination(u.coords(v)) == v
    with pytest.raises(NotInDomain):
        u.coords([Fraction(0), Fraction(0), Fraction(1)])


def test_sparse_row_membership():
    # pivots 0 and 1; rows sorted by column with no zero value
    u = Subspace.from_vectors(QQ, 3, [[Fraction(1), Fraction(0), Fraction(1)], [Fraction(0), Fraction(1), Fraction(2)]])
    assert u.contains_row(((0, Fraction(2)), (1, Fraction(3)), (2, Fraction(8))))
    assert u.contains_row(())
    assert not u.contains_row(((0, Fraction(2)), (1, Fraction(3)), (2, Fraction(7))))
    assert not u.contains_row(((2, Fraction(1)),))  # nonzero off the pivots only
    # the first column off the space, and coordinates, which are the pivot entries
    assert u.first_outside(((0, Fraction(2)), (1, Fraction(3)), (2, Fraction(7)))) == 2
    assert u.first_outside(((2, Fraction(1)),)) == 2
    assert u.row_coords(((0, Fraction(2)), (1, Fraction(3)), (2, Fraction(8)))) == [Fraction(2), Fraction(3)]
    assert u.row_coords(((1, Fraction(1)), (2, Fraction(2)))) == [Fraction(0), Fraction(1)]
    with pytest.raises(NotInDomain):
        u.row_coords(((2, Fraction(1)),))
    # a member written with an explicit zero is not in canonical form, and is refused
    assert not u.contains_row(((0, Fraction(1)), (1, Fraction(0)), (2, Fraction(1))))


def test_first_difference_of_sparse_rows():
    assert first_difference(((0, 1), (2, 3)), ((0, 1), (2, 3))) is None
    assert first_difference(((0, 1), (2, 3)), ((0, 1), (1, 5), (2, 3))) == 1
    assert first_difference(((0, 1), (2, 3)), ((0, 1), (2, 4))) == 2
    assert first_difference((), ((4, 1),)) == 4


@pytest.mark.parametrize("fld", [QQ, F31, Z3], ids=["Q", "F31", "Q(zeta3)"])
def test_apply_and_compose_maps_match_dense_products(fld):
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
            sx, sy = sparse_rows(fld, [x.flatten(), y.flatten()])
            v = [entry() for _ in range(n * blocks)]
            # (id tensor x) v is x applied to each block of n coordinates
            assert apply_map(fld, sx, n, v) == [w for b in range(blocks) for w in x.matvec(v[b * n:(b + 1) * n])]
            # x y applies y first
            assert compose_maps(fld, sx, sy, n) == sparse_rows(fld, [x.mul(y).flatten()])[0]


def test_solve_unique_and_inverse():
    m = qmat([[2, 1], [1, 1]])
    x = solve_unique(m, [Fraction(3), Fraction(2)])
    assert x == [Fraction(1), Fraction(1)]
    inv = invert_matrix(m)
    assert m.mul(inv) == Matrix.identity(QQ, 2)
    assert inv.mul(m) == Matrix.identity(QQ, 2)
    with pytest.raises(SingularElement):
        solve_unique(qmat([[1, 1], [2, 2]]), [Fraction(1), Fraction(0)])
    with pytest.raises(SingularElement):
        invert_matrix(qmat([[1, 1], [2, 2]]))


def test_matrix_ops_shape_checks():
    with pytest.raises(DimensionMismatch):
        qmat([[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        qmat([[1, 2]]).mul(qmat([[1, 2]]))
    with pytest.raises(DimensionMismatch):
        qmat([[1, 2]]).matvec([Fraction(1)])


def test_kron_convention():
    a = qmat([[1, 2], [3, 4]])
    b = qmat([[0, 1], [1, 0]])
    x, y = sparse_rows(QQ, [a.flatten(), b.flatten()])
    k = Matrix.unflatten(QQ, exactla._dense(QQ, 16, sparse_kron(QQ, x, 2, y, 2)), 4, 4)
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
    assert Matrix.unflatten(QQ, a.flatten(), 2, 3) == a


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
        assert sub.contains(r)
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


def test_a_later_round_outside_q_solves_every_row_in_the_field():
    # round 1 is rational, so it is solved over Q; the row that more adds
    # leaves Q, and round 2 solves all three rows in Q(zeta_3)
    first = sparse_rows(Z3, lift(Z3, [[1, 1, 0, 0], [0, 1, 1, 0]]))
    late = [((2, Z3.one()), (3, Z3.root_of_unity(3)))]
    rounds = []

    def more(ker):
        rounds.append(ker)
        return late if len(rounds) == 1 else []

    with mock.patch.object(exactla, "_eliminate_generic", wraps=exactla._eliminate_generic) as gen:
        ker = kernel_of_rows(Z3, first, 4, "probe", more)
    assert rounds[0].dim == 2 and len(rounds) == 2
    assert [len(call.args[1]) for call in gen.call_args_list] == [3, 1]  # round 2, then its kernel basis
    dense = [exactla._dense(Z3, 4, r) for r in first + late]
    assert [[Zeta3(*x) for x in row] for row in ker.rows] == naive_rref(naive_nullspace(dense, 4, Zeta3), Zeta3)[0]


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
    real = exactla._eliminate_prime

    def spy(rows, p):
        tried.append(p)
        return real(rows, p)

    monkeypatch.setattr(exactla, "_eliminate_prime", spy)
    return tried


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
def test_cut_equals_the_intersection_with_the_full_kernel(space, system):
    _, vecs = space
    nc, ints = system
    vecs = [(row * nc)[:nc] for row in vecs]  # padded or cut to the ambient nc
    for fld in (QQ, F31, Z3):
        v = Subspace.from_vectors(fld, nc, lift(fld, vecs))
        rows = sparse_rows(fld, lift(fld, ints))
        assert v.cut(rows, "probe") == v.intersect(kernel_of_rows(fld, rows, nc))
