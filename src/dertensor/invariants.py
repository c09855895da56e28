"""Derivation spaces, centroids and friends, as kernels of linear systems.

Every space here is cut out by explicitly assembled linear conditions on
endomorphism coordinates (row-major matrix flattening, column convention for
images) and computed with one kernel call. No algebraic shortcuts: when a
theorem predicts a dimension, the solver must rediscover it from the raw
system. Results are cached on the algebra instance; algebras are immutable,
so the caches are safe.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import lcm
from types import SimpleNamespace

from .algebra import Algebra, tensor_product
from .errors import (
    InternalCheckFailed,
    NotAssociative,
    NotCommutative,
    NotPerfect,
    NotUnital,
)
from .exactla import (Subspace, apply_map, canonical_row, compose_maps, combine_rows, kernel_of_rows, map_rows,
                      sparse_kron, vec_add)
from .scalars import CYCLOTOMIC, PRIME, RATIONAL


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

    def __repr__(self):
        return f"EndoSpace({self.tag}, dim {self.dim})"


# -- row assembly ----------------------------------------------------------


def _law_terms(a: Algebra, maps, split: bool, pairs):
    """Yield (i, j, sides) per basis pair, sides[s][k n + t] being coordinate t
    of map k's residual m(b_i b_j) - m(b_i) b_j - b_i m(b_j) of the derivation
    law, or with split of the centroid's m(b_i b_j) - m(b_i) b_j (s = 0) and
    m(b_i b_j) - b_i m(b_j) (s = 1). maps are sparse flattened endomorphisms;
    arithmetic is raw over Q and F_p (not reduced mod p). The laws' rows are
    the residuals of the elementary maps (_pair_rows)."""
    n, f, nz = a.dim, a.field, a._nz
    add, sub, mul, zero = ((f.add, f.sub, f.mul, f.zero()) if f.kind == CYCLOTOMIC else
                           (operator.add, operator.sub, operator.mul, 0))
    by_right = [[nz[r][j] for r in range(n)] for j in range(n)]  # by_right[j][r]: b_r b_j
    col = [[] for _ in range(n)]  # col[c]: (k n, r, x) for each map k with entry x at (r, c)
    for k, m in enumerate(maps):
        for rc, x in m:
            col[rc % n].append((k * n, rc // n, x))
    for i, j in pairs:
        got = {}
        for c, y in nz[i][j]:
            for kn, r, x in col[c]:
                got[kn + r] = add(got.get(kn + r, zero), mul(x, y))
        sides = (got, dict(got)) if split else (got, got)
        for acc, c, prods in ((sides[0], i, by_right[j]), (sides[1], j, nz[i])):
            for kn, r, x in col[c]:
                for t, y in prods[r]:
                    acc[kn + t] = sub(acc.get(kn + t, zero), mul(x, y))
        yield i, j, sides[: 1 + split]


def _pair_rows(a: Algebra, split: bool, pairs):
    """Sparse rows of the Leibniz system (split: the centroid's) on the given
    basis pairs, one per pair, law and output coordinate (see _law_terms)."""
    n, f = a.dim, a.field
    p = f.p if f.kind == PRIME else 0
    rows = []
    for _, _, sides in _law_terms(a, [((rc, f.one()),) for rc in range(n * n)], split, pairs):
        for acc in sides:
            by_t = {}
            for key, v in acc.items():
                by_t.setdefault(key % n, {})[key // n] = v % p if p else v
            rows.extend(canonical_row(f, by_t[t]) for t in sorted(by_t))
    return rows


def _law_residual(a: Algebra, maps, split: bool, pairs):
    """Yield (i, j, k, t, v) for each basis pair where a map breaks its law
    (_law_terms): v != 0 at coordinate t of map k's residual. Over Q each map
    is scaled to integers first."""
    n, f = a.dim, a.field
    p = f.p if f.kind == PRIME else 0
    nonzero = f.nonzero if f.kind == CYCLOTOMIC else (lambda v: v % p) if p else bool
    scales = [lcm(*(x.denominator for _, x in m)) if f.kind == RATIONAL else 1 for m in maps]
    maps = [[(rc, x if s == 1 else x.numerator * (s // x.denominator)) for rc, x in m]
            for m, s in zip(maps, scales)]
    for i, j, sides in _law_terms(a, maps, split, pairs):
        for acc in sides:
            if any(map(nonzero, acc.values())):
                key = min(key for key, v in acc.items() if nonzero(v))
                v = acc[key] % p if p else acc[key]
                yield i, j, key // n, key % n, v if scales[key // n] == 1 else Fraction(v, scales[key // n])
                break


def leibniz_witness(a: Algebra, m):
    """The first basis pair (i, j) in row-major order where the sparse map m
    breaks the derivation law, as (i, j, m(b_i b_j), m(b_i) b_j + b_i m(b_j)), or None."""
    f, n, e = a.field, a.dim, a.basis_vector
    for i, j, *_ in _law_residual(a, [m], False, ((i, j) for i in range(n) for j in range(n))):
        want = vec_add(f, a.mult(apply_map(f, m, n, e(i)), e(j)), a.mult(e(i), apply_map(f, m, n, e(j))))
        return (i, j, apply_map(f, m, n, a.table[i][j]), want)
    return None


def _commute_rows(f, m, n: int):
    """Sparse rows expressing X M = M X for an unknown endomorphism X; m is M, sparse flattened."""
    by_row = map_rows(m, n)
    by_col = map_rows([((rc % n) * n + rc // n, w) for rc, w in m], n)  # the rows of M transposed
    rows = []
    for t in range(n):
        for c in range(n):
            acc = {t * n + k: v for k, v in by_col.get(c, ())}
            for k, w in by_row.get(t, ()):
                col = k * n + c
                acc[col] = f.sub(acc[col], w) if col in acc else f.neg(w)
            if acc:
                rows.append(canonical_row(f, acc))
    return rows


# -- the spaces ------------------------------------------------------------


def _generators(a: Algebra) -> set:
    """Basis indices whose products reach every basis vector, each step taking
    the first that grows the reach most."""
    n, nz = a.dim, a._nz

    def grow(reach, g):  # reach and g, closed under the supports of products
        reach, todo = set(reach), [g]
        while todo:
            u = todo.pop()
            if u not in reach:
                reach.add(u)
                todo.extend(k for v in reach for k, _ in nz[u][v] + nz[v][u] if k not in reach)
        return reach

    gens, reach = set(), set()
    while len(reach) < n:
        g, reach = max(((g, grow(reach, g)) for g in range(n) if g not in reach), key=lambda gr: len(gr[1]))
        gens.add(g)
    return gens


def _leibniz_kernel(a: Algebra, split: bool, tag: str) -> EndoSpace:
    """The certified kernel K of the Leibniz system (split: the centroid's),
    cached under tag, solved first on the pairs (x, g) and (g, x) for g in
    _generators(a), which usually suffice. K lies in their kernel K_sub by the
    rank certificate (exactla.kernel_of_rows), and K_sub in K once every basis
    vector passes _law_residual on every pair. Else the failing pairs' rows
    join and all rows so far are solved again, over Q or the field as they
    decide (exactla.rref_rows); a failing pair already in raises."""
    if tag not in a._cache:
        n, gens = a.dim, _generators(a)
        every = [(i, j) for i in range(n) for j in range(n)]
        used = {pair for pair in every if pair[0] in gens or pair[1] in gens}

        def more(ker):
            fresh = []
            for i, j, k, t, v in _law_residual(a, ker._sparse, split, every):
                if (i, j) in used:
                    raise InternalCheckFailed(f"kernel {tag!r}: basis vector {k} leaves residual "
                                              f"{a.field.format(v)} at coordinate {t} on pair ({i}, {j})")
                fresh.append((i, j))
            used.update(fresh)
            return _pair_rows(a, split, fresh) if fresh else []

        ker = kernel_of_rows(a.field, _pair_rows(a, split, sorted(used)), n * n, tag, more)
        a._cache[tag] = EndoSpace(a, n, ker, tag)
    return a._cache[tag]


def derivation_space(a: Algebra) -> EndoSpace:
    """All derivations: the certified kernel of the Leibniz system (see
    _leibniz_kernel); closed under commutator, as it holds them all."""
    return _leibniz_kernel(a, False, "derivations")


def centroid(a: Algebra) -> EndoSpace:
    """Maps commuting with all left and right multiplications.

    Its rows are the split Leibniz rows: g(b_i b_j) = g(b_i) b_j is commuting
    with right multiplication by b_j at column i, and g(b_i b_j) = b_i g(b_j)
    with left multiplication by b_i at column j. The eliminator drops rows
    shared by both, or equal up to a scalar (exactla.rref_rows). Closed under
    composition, as the certified kernel holds them all (_leibniz_kernel).
    """
    return _leibniz_kernel(a, True, "centroid")


def differential_centroid(a: Algebra) -> EndoSpace:
    """Centroid elements commuting with every derivation, cut inside C(A)."""
    if "differential_centroid" not in a._cache:
        rows = [row for d in derivation_space(a).space._sparse for row in _commute_rows(a.field, d, a.dim)]
        space = centroid(a).space.cut(rows, "differential-centroid")
        a._cache["differential_centroid"] = EndoSpace(a, a.dim, space, "differential-centroid")
    return a._cache["differential_centroid"]


def s_module_derivations(a: Algebra, s: Algebra, ts: Algebra | None = None) -> EndoSpace:
    """Derivations of the tensor product that are maps of right-factor modules.

    Cut inside D(A tensor S) by commutation with every operator id tensor
    R_{b_j}, which is id tensor L_{b_j}: the right factor must be commutative.
    """
    require_scalar_hypotheses(s)
    ts = ts if ts is not None else tensor_product(a, s)
    key = "s_module_derivations"
    if key not in ts._cache:
        f, na = a.field, a.dim
        eye = tuple((i * na + i, f.one()) for i in range(na))
        rows = [row for lj in s.left_mult_operators()
                for row in _commute_rows(f, sparse_kron(f, eye, na, lj, s.dim), ts.dim)]
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
    """psi(gamma_i tensor b_j) = gamma_i kron L_{b_j}, sparse and flattened, in the order (i, j)."""
    lefts = s.left_mult_operators()
    return [sparse_kron(a.field, g, a.dim, lj, s.dim) for g in centroid(a).space._sparse for lj in lefts]


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
    image = Subspace.from_rows(a.field, ts.dim * ts.dim, cols)
    in_cent = all(map(cent_ts.space.contains_row, cols))
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
    them, against their combination along the centroid coordinates of g1 g2
    and the structure constants of s1 s2. The centroid is closed under
    composition and its kernel is certified complete (centroid()), so g1 g2
    must lie in it, and its coordinates are its entries at the pivots.
    """
    f, ns, na = a.field, s.dim, a.dim
    cent_a = centroid(a).space
    cols = _psi_images(a, s)
    for a1, g1 in enumerate(cent_a._sparse):
        for a2, g2 in enumerate(cent_a._sparse):
            g12 = compose_maps(f, g1, g2, na)
            if not cent_a.contains_row(g12):
                raise InternalCheckFailed(f"centroid: composite of basis maps {a1} and {a2} lies outside it")
            lam = [(aa, x) for aa, x in enumerate(map(dict(g12).get, cent_a.pivots)) if x is not None]
            for j1 in range(ns):
                for j2 in range(ns):
                    want = combine_rows(f, ((f.mul(la, cj), cols[aa * ns + jj])
                                            for aa, la in lam for jj, cj in s._nz[j1][j2]))
                    if compose_maps(f, cols[a1 * ns + j1], cols[a2 * ns + j2], na * ns) != want:
                        return False
    return True
