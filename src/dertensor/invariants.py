"""Derivation spaces, centroids and friends, as kernels of linear systems.

Every space here is cut out by explicitly assembled linear conditions on
endomorphism coordinates (row-major matrix flattening, column convention for
images) and computed with one kernel call. No algebraic shortcuts: when a
theorem predicts a dimension, the solver must rediscover it from the raw
system. Results are cached on the algebra instance; algebras are immutable,
so the caches are safe.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Algebra, tensor_product
from .errors import (
    InternalCheckFailed,
    NotAssociative,
    NotCommutative,
    NotPerfect,
    NotUnital,
)
from .exactla import Matrix, Subspace, kernel_of_rows, vec_add


class EndoSpace:
    """A space of linear maps domain -> codomain in flattened coordinates."""

    __slots__ = ("algebra", "domain_dim", "codomain_dim", "space", "tag")

    def __init__(self, algebra: Algebra, domain_dim: int, codomain_dim: int, space: Subspace, tag: str):
        self.algebra = algebra
        self.domain_dim = domain_dim
        self.codomain_dim = codomain_dim
        self.space = space
        self.tag = tag

    @property
    def dim(self) -> int:
        return self.space.dim

    def basis_matrices(self) -> list[Matrix]:
        f = self.algebra.field
        return [
            Matrix.unflatten(f, list(row), self.codomain_dim, self.domain_dim)
            for row in self.space.rows
        ]

    def contains_matrix(self, m: Matrix) -> bool:
        return self.space.contains(m.flatten())

    def coords_of_matrix(self, m: Matrix) -> list:
        return self.space.coords(m.flatten())

    def __repr__(self):
        return f"EndoSpace({self.tag}, dim {self.dim})"


# -- row assembly ----------------------------------------------------------


def _dedup(rows):
    seen = set()
    out = []
    for row in rows:
        t = tuple(row)
        if t in seen or not any(t):
            continue
        seen.add(t)
        out.append(row)
    return out


def _leibniz_rows(a: Algebra):
    """Rows of the Leibniz system d(xy) = d(x)y + x d(y) on all basis pairs."""
    n = a.dim
    f = a.field
    z = f.zero()
    rows = []
    for i in range(n):
        for j in range(n):
            prod_nz = a._nz[i][j]
            for t in range(n):
                row = [z] * (n * n)
                for k, c in prod_nz:
                    row[t * n + k] = f.add(row[t * n + k], c)
                for r in range(n):
                    c = a.table[r][j][t]
                    if c != z:
                        row[r * n + i] = f.sub(row[r * n + i], c)
                    c2 = a.table[i][r][t]
                    if c2 != z:
                        row[r * n + j] = f.sub(row[r * n + j], c2)
                rows.append(row)
    return _dedup(rows)


def leibniz_witness(a: Algebra, m: Matrix):
    """First basis pair where m breaks the derivation law, or None.

    Returns (i, j, got, want) with got = m(b_i b_j) and
    want = m(b_i) b_j + b_i m(b_j).
    """
    n = a.dim
    cols = [m.column(j) for j in range(n)]
    basis = [a.basis_vector(i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            got = m.matvec(a.table[i][j])
            want = vec_add(a.field, a.mult(cols[i], basis[j]), a.mult(basis[i], cols[j]))
            if got != want:
                return (i, j, got, want)
    return None


def satisfies_leibniz(a: Algebra, m: Matrix) -> bool:
    return leibniz_witness(a, m) is None


def _commute_rows(m: Matrix):
    """Rows expressing X M = M X for an unknown endomorphism X."""
    n = m.nrows
    f = m.field
    z = f.zero()
    rows = []
    for t in range(n):
        for c in range(n):
            row = [z] * (n * n)
            nonzero = False
            for k in range(n):
                v = m.rows[k][c]
                if v != z:
                    row[t * n + k] = f.add(row[t * n + k], v)
                    nonzero = True
                w = m.rows[t][k]
                if w != z:
                    row[k * n + c] = f.sub(row[k * n + c], w)
                    nonzero = True
            if nonzero:
                rows.append(row)
    return rows


# -- the spaces ------------------------------------------------------------


def derivation_space(a: Algebra) -> EndoSpace:
    """All derivations of the algebra; verified closed under commutator."""
    if "derivations" not in a._cache:
        ker = kernel_of_rows(a.field, _leibniz_rows(a), a.dim * a.dim)
        es = EndoSpace(a, a.dim, a.dim, ker, "derivations")
        mats = es.basis_matrices()
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                if not es.contains_matrix(mats[i].commutator(mats[j])):
                    raise InternalCheckFailed("derivation space not closed under commutator")
        a._cache["derivations"] = es
    return a._cache["derivations"]


def centroid(a: Algebra) -> EndoSpace:
    """Maps commuting with all left and right multiplications.

    Assembles the commutation conditions against every basis multiplication
    operator. These already contain the one-sided action conditions
    g(b_i b_j) = g(b_i) b_j: they are the rows of commuting with right
    multiplication by b_j, taken at column i. Rows shared by the left and
    right families are removed by row deduplication.
    """
    if "centroid" not in a._cache:
        lefts, rights = a.mult_operators()
        rows = []
        for m in lefts:
            rows.extend(_commute_rows(m))
        for m in rights:
            rows.extend(_commute_rows(m))
        ker = kernel_of_rows(a.field, _dedup(rows), a.dim * a.dim)
        es = EndoSpace(a, a.dim, a.dim, ker, "centroid")
        mats = es.basis_matrices()
        for i in range(len(mats)):
            for j in range(len(mats)):
                if not es.contains_matrix(mats[i].mul(mats[j])):
                    raise InternalCheckFailed("centroid not closed under composition")
        a._cache["centroid"] = es
    return a._cache["centroid"]


def differential_centroid(a: Algebra) -> EndoSpace:
    """Centroid elements commuting with every derivation."""
    if "differential_centroid" not in a._cache:
        cent = centroid(a)
        ders = derivation_space(a)
        rows = []
        for d in ders.basis_matrices():
            rows.extend(_commute_rows(d))
        if rows:
            comm = kernel_of_rows(a.field, _dedup(rows), a.dim * a.dim)
            space = cent.space.intersect(comm)
        else:
            space = cent.space
        a._cache["differential_centroid"] = EndoSpace(a, a.dim, a.dim, space, "differential-centroid")
    return a._cache["differential_centroid"]


def right_factor_action(a: Algebra, s: Algebra, j: int) -> Matrix:
    """Matrix of x tensor y -> x tensor (y * s_j), the module action of s_j."""
    eye = Matrix.identity(a.field, a.dim)
    return eye.kron(s.right_mult_matrix(s.basis_vector(j)))


def s_module_derivations(a: Algebra, s: Algebra, ts: Algebra | None = None) -> EndoSpace:
    """Derivations of the tensor product that are maps of right-factor modules.

    Cut out inside the tensor Leibniz system by commutation with every
    operator id tensor (multiplication by a basis vector of the right factor).
    """
    ts = ts if ts is not None else tensor_product(a, s)
    key = "s_module_derivations"
    if key not in ts._cache:
        rows = _leibniz_rows(ts)
        for j in range(s.dim):
            rows.extend(_commute_rows(right_factor_action(a, s, j)))
        ker = kernel_of_rows(ts.field, _dedup(rows), ts.dim * ts.dim)
        ts._cache[key] = EndoSpace(ts, ts.dim, ts.dim, ker, "module-derivations")
    return ts._cache[key]


def vanishing_on_left_derivations(a: Algebra, s: Algebra, ts: Algebra | None = None) -> EndoSpace:
    """Derivations of the tensor product killing the left factor (a tensor 1)."""
    ts = ts if ts is not None else tensor_product(a, s)
    key = "vanishing_on_left"
    if key not in ts._cache:
        unit = s.unit()
        if unit is None:
            raise NotUnital("right factor has no unit, so 'a tensor 1' is undefined")
        f = ts.field
        z = f.zero()
        n = ts.dim
        rows = _leibniz_rows(ts)
        for i in range(a.dim):
            # coordinates of a_i tensor 1
            vec = [z] * n
            for jj, c in enumerate(unit):
                vec[i * s.dim + jj] = c
            for t in range(n):
                row = [z] * (n * n)
                ok = False
                for idx, c in enumerate(vec):
                    if c != z:
                        row[t * n + idx] = c
                        ok = True
                if ok:
                    rows.append(row)
        ker = kernel_of_rows(f, _dedup(rows), n * n)
        ts._cache[key] = EndoSpace(ts, n, n, ker, "vanishing-on-left")
    return ts._cache[key]


# -- the canonical map onto the tensor centroid ----------------------------


@dataclass
class PsiReport:
    matrix: Matrix
    domain_dim: int
    target_dim: int
    injective: bool
    image_in_centroid: bool
    surjective: bool
    multiplicative: bool

    @property
    def bijective(self) -> bool:
        return self.injective and self.surjective and self.image_in_centroid


def require_scalar_hypotheses(s: Algebra):
    """The right factor must be unital, commutative and associative."""
    if not s.is_unital():
        raise NotUnital("right factor must be unital")
    if not s.is_commutative():
        raise NotCommutative("right factor must be commutative")
    if not s.is_associative():
        raise NotAssociative("right factor must be associative")


def psi_map(a: Algebra, s: Algebra, ts: Algebra | None = None) -> PsiReport:
    """The map (centroid element, right factor element) -> tensor centroid.

    Sends gamma tensor y to gamma tensor (left multiplication by y). Requires
    the left factor perfect and the right factor a commutative associative
    unital algebra; under those hypotheses it should be a bijection onto the
    centroid of the tensor product, and the report records whether it is.
    """
    if not a.is_perfect():
        raise NotPerfect("left factor must be perfect for the centroid map")
    require_scalar_hypotheses(s)
    ts = ts if ts is not None else tensor_product(a, s)
    f = a.field
    cent_a = centroid(a)
    cent_ts = centroid(ts)
    gammas = cent_a.basis_matrices()
    lefts = [s.left_mult_matrix(s.basis_vector(j)) for j in range(s.dim)]
    cols = []
    for g in gammas:
        for lj in lefts:
            cols.append(g.kron(lj).flatten())
    n2 = ts.dim * ts.dim
    dom = len(cols)
    image = Subspace.from_vectors(f, n2, cols)
    injective = image.dim == dom
    in_cent = all(cent_ts.space.contains(c) for c in cols)
    surjective = in_cent and image.dim == cent_ts.dim
    multiplicative = _psi_multiplicative(f, cent_a, gammas, s, cols, ts)
    mat = Matrix(f, [[col[i] for col in cols] for i in range(n2)], dom) if dom else Matrix(f, [], 0)
    return PsiReport(
        matrix=mat,
        domain_dim=dom,
        target_dim=cent_ts.dim,
        injective=injective,
        image_in_centroid=in_cent,
        surjective=surjective,
        multiplicative=multiplicative,
    )


def _psi_multiplicative(f, cent_a, gammas, s, cols, ts):
    # psi((g1 x s1)(g2 x s2)) == psi(g1 x s1) psi(g2 x s2) on basis pairs
    n2 = ts.dim * ts.dim
    cdim = len(gammas)
    for a1 in range(cdim):
        for j1 in range(s.dim):
            m1 = Matrix.unflatten(f, cols[a1 * s.dim + j1], ts.dim, ts.dim)
            for a2 in range(cdim):
                comp = gammas[a1].mul(gammas[a2])
                lam = cent_a.coords_of_matrix(comp)
                for j2 in range(s.dim):
                    m2 = Matrix.unflatten(f, cols[a2 * s.dim + j2], ts.dim, ts.dim)
                    prod_s = s.mult(s.basis_vector(j1), s.basis_vector(j2))
                    expect = [f.zero()] * n2
                    for aa, la in enumerate(lam):
                        if la == f.zero():
                            continue
                        for jj, cj in enumerate(prod_s):
                            if cj == f.zero():
                                continue
                            coeff = f.mul(la, cj)
                            col = cols[aa * s.dim + jj]
                            expect = [f.add(x, f.mul(coeff, y)) for x, y in zip(expect, col)]
                    if m1.mul(m2).flatten() != expect:
                        return False
    return True
