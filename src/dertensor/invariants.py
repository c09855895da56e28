"""Derivation spaces, centroids and friends, as kernels of linear systems.

Every space here is cut out by explicitly assembled linear conditions on
endomorphism coordinates (row-major matrix flattening, column convention for
images) and computed with one kernel call. No algebraic shortcuts: when a
theorem predicts a dimension, the solver must rediscover it from the raw
system. Results are cached on the algebra instance; algebras are immutable,
so the caches are safe.
"""

from __future__ import annotations

from types import SimpleNamespace

from .algebra import Algebra, tensor_product
from .errors import (
    NotAssociative,
    NotCommutative,
    NotPerfect,
    NotUnital,
)
from .exactla import Matrix, Subspace, kernel_of_rows, sparse_rows


class EndoSpace:
    """A space of endomorphisms of an n-dimensional space, flattened row-major."""

    __slots__ = ("algebra", "n", "space", "tag")

    def __init__(self, algebra: Algebra, n: int, space: Subspace, tag: str):
        self.algebra = algebra
        self.n = n
        self.space = space
        self.tag = tag

    @property
    def dim(self) -> int:
        return self.space.dim

    def basis_matrices(self) -> list[Matrix]:
        f = self.algebra.field
        return [
            Matrix.unflatten(f, list(row), self.n, self.n)
            for row in self.space.rows
        ]

    def contains_matrix(self, m: Matrix) -> bool:
        return self.space.contains(m.flatten())

    def coords_of_matrix(self, m: Matrix) -> list:
        return self.space.coords(m.flatten())

    def __repr__(self):
        return f"EndoSpace({self.tag}, dim {self.dim})"


# -- row assembly ----------------------------------------------------------


def _sparse(f, acc) -> tuple:
    # column -> value accumulator as a sparse row (see exactla.rref_rows)
    nz = f.nonzero
    return tuple(sorted((col, x) for col, x in acc.items() if nz(x)))


def _product_rows(a: Algebra, split: bool):
    """Sparse rows of the Leibniz system d(xy) = d(x)y + x d(y) on all basis pairs.

    The pair (i, j) gives one row per output coordinate t:
    sum_k c_ij^k d_tk - sum_r c_rj^t d_ri - sum_r c_ir^t d_rj = 0.
    With split, the two one-sided terms give separate rows instead:
    d(b_i b_j) = d(b_i) b_j and d(b_i b_j) = b_i d(b_j).
    """
    n, f, nz = a.dim, a.field, a._nz
    rows = []
    for i in range(n):
        for j in range(n):
            lhs = [{t * n + k: c for k, c in nz[i][j]} for t in range(n)]
            sides = (lhs, [dict(row) for row in lhs]) if split else (lhs, lhs)
            terms = ([(nz[r][j], r * n + i) for r in range(n)], [(nz[i][r], r * n + j) for r in range(n)])
            for acc, term in zip(sides, terms):
                for cols, col in term:
                    for t, c in cols:
                        row = acc[t]
                        row[col] = f.sub(row[col], c) if col in row else f.neg(c)
            rows.extend(_sparse(f, row) for acc in sides[: 1 + split] for row in acc if row)
    return rows


def leibniz_witness(a: Algebra, m: Matrix):
    """First basis pair where m breaks the derivation law, or None.

    Returns (i, j, got, want) with got = m(b_i b_j) and
    want = m(b_i) b_j + b_i m(b_j). Both sides are summed over the nonzero
    structure constants and the nonzero entries of m only.
    """
    n = a.dim
    f = a.field
    z, nz, add, mul = f.zero(), f.nonzero, f.add, f.mul
    table = a._nz
    # cols[k]: the nonzero entries (r, m_rk) of m(b_k)
    cols = [[(r, row[k]) for r, row in enumerate(m.rows) if nz(row[k])] for k in range(n)]
    for i in range(n):
        for j in range(n):
            got = [z] * n
            for k, c in table[i][j]:
                for r, x in cols[k]:
                    got[r] = add(got[r], mul(x, c))
            want = [z] * n
            for r, x in cols[i]:
                for k, c in table[r][j]:
                    want[k] = add(want[k], mul(x, c))
            for r, x in cols[j]:
                for k, c in table[i][r]:
                    want[k] = add(want[k], mul(x, c))
            if got != want:
                return (i, j, got, want)
    return None


def satisfies_leibniz(a: Algebra, m: Matrix) -> bool:
    return leibniz_witness(a, m) is None


def _commute_rows(m: Matrix):
    """Sparse rows expressing X M = M X for an unknown endomorphism X."""
    n, f = m.nrows, m.field
    by_row, by_col = m._nonzeros(), Matrix(f, [list(c) for c in zip(*m.rows)], n)._nonzeros()
    rows = []
    for t in range(n):
        for c in range(n):
            acc = {t * n + k: v for k, v in by_col[c]}
            for k, w in by_row[t]:
                col = k * n + c
                acc[col] = f.sub(acc[col], w) if col in acc else f.neg(w)
            if acc:
                rows.append(_sparse(f, acc))
    return rows


# -- the spaces ------------------------------------------------------------


def derivation_space(a: Algebra) -> EndoSpace:
    """All derivations: the certified kernel of the Leibniz system.

    Closed under commutator, as the commutator of two derivations is one, and
    the kernel is certified to hold them all (exactla.kernel_of_rows).
    """
    if "derivations" not in a._cache:
        ker = kernel_of_rows(a.field, _product_rows(a, False), a.dim * a.dim, "derivations")
        a._cache["derivations"] = EndoSpace(a, a.dim, ker, "derivations")
    return a._cache["derivations"]


def centroid(a: Algebra) -> EndoSpace:
    """Maps commuting with all left and right multiplications.

    Its rows are the split Leibniz rows: g(b_i b_j) = g(b_i) b_j is commuting
    with right multiplication by b_j at column i, and g(b_i b_j) = b_i g(b_j)
    with left multiplication by b_i at column j. The eliminator drops rows
    shared by both, or equal up to a scalar (exactla.rref_rows). Closed under
    composition, as the composite of two centroid elements is one, and the
    kernel is certified to hold them all (exactla.kernel_of_rows).
    """
    if "centroid" not in a._cache:
        ker = kernel_of_rows(a.field, _product_rows(a, True), a.dim * a.dim, "centroid")
        a._cache["centroid"] = EndoSpace(a, a.dim, ker, "centroid")
    return a._cache["centroid"]


def differential_centroid(a: Algebra) -> EndoSpace:
    """Centroid elements commuting with every derivation, cut inside C(A)."""
    if "differential_centroid" not in a._cache:
        rows = [row for d in derivation_space(a).basis_matrices() for row in _commute_rows(d)]
        space = centroid(a).space.cut(rows, "differential-centroid")
        a._cache["differential_centroid"] = EndoSpace(a, a.dim, space, "differential-centroid")
    return a._cache["differential_centroid"]


def s_module_derivations(a: Algebra, s: Algebra, ts: Algebra | None = None) -> EndoSpace:
    """Derivations of the tensor product that are maps of right-factor modules.

    Cut inside D(A tensor S) by commutation with every operator
    id tensor (right multiplication by a basis vector of the right factor).
    """
    ts = ts if ts is not None else tensor_product(a, s)
    key = "s_module_derivations"
    if key not in ts._cache:
        eye = Matrix.identity(a.field, a.dim)
        rows = [row for j in range(s.dim)
                for row in _commute_rows(eye.kron(s.right_mult_matrix(s.basis_vector(j))))]
        space = derivation_space(ts).space.cut(rows, "module-derivations")
        ts._cache[key] = EndoSpace(ts, ts.dim, space, "module-derivations")
    return ts._cache[key]


def vanishing_on_left_derivations(a: Algebra, s: Algebra, ts: Algebra | None = None) -> EndoSpace:
    """Derivations of the tensor product killing a tensor 1, cut inside D(A tensor S)."""
    ts = ts if ts is not None else tensor_product(a, s)
    key = "vanishing_on_left"
    if key not in ts._cache:
        unit = s.unit()
        if unit is None:
            raise NotUnital("right factor has no unit, so 'a tensor 1' is undefined")
        f, n = ts.field, ts.dim
        unit_nz = [(jj, c) for jj, c in enumerate(unit) if f.nonzero(c)]
        # d(a_i tensor 1) = 0, one row per output coordinate t
        rows = [tuple((t * n + i * s.dim + jj, c) for jj, c in unit_nz)
                for i in range(a.dim) for t in range(n)]
        space = derivation_space(ts).space.cut(rows, "vanishing-on-left")
        ts._cache[key] = EndoSpace(ts, n, space, "vanishing-on-left")
    return ts._cache[key]


# -- the canonical map onto the tensor centroid ----------------------------


class PsiReport(SimpleNamespace):
    """Fields domain_dim, target_dim, injective, image_in_centroid and
    surjective, given by keyword."""

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


def _psi_images(a: Algebra, s: Algebra) -> list:
    """psi(gamma_i tensor b_j) = gamma_i kron L_{b_j}, flattened, in the order (i, j)."""
    lefts = s.left_mult_operators()
    return [g.kron(lj).flatten() for g in centroid(a).basis_matrices() for lj in lefts]


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
    cent_ts = centroid(ts)
    cols = _psi_images(a, s)
    image = Subspace.from_vectors(a.field, ts.dim * ts.dim, cols)
    in_cent = all(cent_ts.space.contains(c) for c in cols)
    return PsiReport(
        domain_dim=len(cols),
        target_dim=cent_ts.dim,
        injective=image.dim == len(cols),
        image_in_centroid=in_cent,
        surjective=in_cent and image.dim == cent_ts.dim,
    )


def psi_multiplicative(a: Algebra, s: Algebra) -> bool:
    """Whether psi((g1 x s1)(g2 x s2)) = psi(g1 x s1) psi(g2 x s2) on basis pairs.

    Both sides come from psi's sparse image columns: the composite of two of
    them, less their combination along the centroid coordinates of g1 g2 and
    the structure constants of s1 s2. The centroid is closed under
    composition and its kernel is certified complete (centroid()), so every
    coordinate vector below exists.
    """
    f, ns, n = a.field, s.dim, a.dim * s.dim
    z, nz, add, sub, mul = f.zero(), f.nonzero, f.add, f.sub, f.mul
    cent_a = centroid(a)
    gammas = cent_a.basis_matrices()
    cols = sparse_rows(f, _psi_images(a, s))
    rows_of = [{} for _ in cols]  # image i, row k -> its (column, entry) pairs
    for rows, col in zip(rows_of, cols):
        for t, y in col:
            rows.setdefault(t // n, []).append((t % n, y))
    for a1, g1 in enumerate(gammas):
        for a2, g2 in enumerate(gammas):
            lam = [(aa, la) for aa, la in enumerate(cent_a.coords_of_matrix(g1.mul(g2))) if nz(la)]
            for j1 in range(ns):
                for j2 in range(ns):
                    diff = {}
                    for t, x in cols[a1 * ns + j1]:
                        r, k = divmod(t, n)
                        for c, y in rows_of[a2 * ns + j2].get(k, ()):
                            diff[r * n + c] = add(diff.get(r * n + c, z), mul(x, y))
                    for aa, la in lam:
                        for jj, cj in s._nz[j1][j2]:
                            coeff = mul(la, cj)
                            for t, y in cols[aa * ns + jj]:
                                diff[t] = sub(diff.get(t, z), mul(coeff, y))
                    if any(map(nz, diff.values())):
                        return False
    return True
