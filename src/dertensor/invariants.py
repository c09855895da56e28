"""Derivation spaces, centroids and friends, as kernels of linear systems.

Every space here is cut out by explicitly assembled linear conditions on
endomorphism coordinates (row-major matrix flattening, column convention for
images) and computed as certified kernels: D and C with one kernel call, or
two when the other pairs' rows cut it, and the differential centroid with
one cut inside C. No algebraic shortcuts: when a theorem predicts a
dimension, the solver must rediscover it from the raw system. Results are
cached on the algebra instance; algebras are immutable, so the caches are safe.
"""

from __future__ import annotations

from types import SimpleNamespace

from .algebra import Algebra, tensor_product
from .errors import (
    InternalCheckFailed,
    NotAssociative,
    NotCommutative,
    NotInDomain,
    NotPerfect,
    NotUnital,
    PsiNotIso,
)
from .exactla import RawOps, Subspace, compose_maps, combine_rows, kernel_of_rows, sparse_kron


class EndoSpace:
    """A space of endomorphisms of an algebra, flattened row-major."""

    __slots__ = ("algebra", "space", "tag")

    def __init__(self, algebra: Algebra, space: Subspace, tag: str):
        self.algebra = algebra
        self.space = space
        self.tag = tag

    @property
    def n(self) -> int:
        return self.algebra.dim

    @property
    def dim(self) -> int:
        return self.space.dim

    def __repr__(self):
        return f"EndoSpace({self.tag}, dim {self.dim})"


# -- row assembly ----------------------------------------------------------


def _pair_rows(a: Algebra, maps, split: bool, pairs):
    """Yield (i, j, row) per basis pair, law and output coordinate t where a
    map breaks the law, row being the sparse row whose entry k is coordinate
    t of maps[k]'s residual m(b_i b_j) - m(b_i) b_j - b_i m(b_j) of the
    derivation law, or with split of the centroid's m(b_i b_j) - m(b_i) b_j
    and m(b_i b_j) - b_i m(b_j). maps are sparse flattened endomorphisms. On
    the n^2 elementary maps these are the nonzero rows of the Leibniz system
    (split: the centroid's). The arithmetic is raw (exactla.RawOps), each
    map scaled once and each entry read back with its map's scale."""
    n, nz, raw = a.dim, a._nz, RawOps(a.field)
    add, sub, mul, zero, nonzero, read = raw.add, raw.sub, raw.mul, raw.zero, raw.nonzero, raw.read
    scaled = [raw.scale(m) for m in maps]
    by_right = [[nz[r][j] for r in range(n)] for j in range(n)]  # by_right[j][r]: b_r b_j
    col = [[] for _ in range(n)]  # col[c]: (k n, r, x) for each map k with entry x at (r, c)
    for k, (m, _) in enumerate(scaled):
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
        for acc in sides[: 1 + split]:
            if any(map(nonzero, acc.values())):
                by_t = {}
                for key, v in acc.items():
                    if nonzero(v):
                        by_t.setdefault(key % n, []).append((key // n, read(v, scaled[key // n][1])))
                for t in sorted(by_t):
                    yield i, j, tuple(sorted(by_t[t]))


def leibniz_witness(a: Algebra, m):
    """The first basis pair (i, j) in row-major order where the sparse map m
    breaks the derivation law, or None."""
    pairs = ((i, j) for i in range(a.dim) for j in range(a.dim))
    return next(((i, j) for i, j, _ in _pair_rows(a, [m], False, pairs)), None)


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
    _generators(a), whose kernel K_gen holds K by its rank certificate
    (exactla.kernel_of_rows). K is K_gen cut by the other pairs' rows on
    K_gen's basis, which are rows on its coordinates (Subspace.cut); with
    no nonzero such row, K = K_gen."""
    if tag not in a._cache:
        n, one, gens = a.dim, a.field.one(), _generators(a)
        every = [(i, j) for i in range(n) for j in range(n)]
        on_gens = [pair for pair in every if pair[0] in gens or pair[1] in gens]
        rest = [pair for pair in every if pair[0] not in gens and pair[1] not in gens]
        units = [((rc, one),) for rc in range(n * n)]
        ker = kernel_of_rows(a.field, [row for _, _, row in _pair_rows(a, units, split, on_gens)], n * n, tag)
        if cut := [row for _, _, row in _pair_rows(a, ker._sparse, split, rest)]:
            ker = ker.cut(cut, tag)
        a._cache[tag] = EndoSpace(a, ker, tag)
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
    """Centroid elements commuting with every derivation: C(A) cut by the
    entries of g d - d g, for basis maps g of C(A) and d of D(A), each entry
    a row on C(A)'s coordinates (entry k from basis map k)."""
    if "differential_centroid" not in a._cache:
        f, n, cent, rows = a.field, a.dim, centroid(a).space, {}
        for i, d in enumerate(derivation_space(a).space._sparse):
            for k, g in enumerate(cent._sparse):
                gd, dg = compose_maps(f, g, d, n), compose_maps(f, d, g, n)
                for rc, x in combine_rows(f, ((f.one(), gd), (f.neg(f.one()), dg))):
                    rows.setdefault((i, rc), []).append((k, x))
        space = cent.cut(map(tuple, rows.values()), "differential-centroid")
        a._cache["differential_centroid"] = EndoSpace(a, space, "differential-centroid")
    return a._cache["differential_centroid"]


# -- the canonical map onto the tensor centroid ----------------------------


class PsiReport(SimpleNamespace):
    """Fields domain_dim, target_dim, injective, image_in_centroid and
    surjective, given by keyword."""


def require_hypotheses(a: Algebra, s: Algebra):
    """Theorem 1's hypotheses on the pair: A perfect, and S unital,
    commutative and associative. Each failure names its witness."""
    if (i := a.imperfect_index()) is not None:
        raise NotPerfect(f"left factor is not perfect: {a.names[i]} (basis vector {i}) is not in A*A")
    if s.unit() is None:
        raise NotUnital("right factor is not unital: no u has u x = x u = x for every x")
    if pair := s.noncommuting_pair():
        x, y = (s.names[t] for t in pair)
        raise NotCommutative(f"right factor is not commutative: {x}*{y} != {y}*{x} (basis pair {pair})")
    if triple := s.nonassociative_triple():
        x, y, z = (s.names[t] for t in triple)
        raise NotAssociative(f"right factor is not associative: ({x}*{y})*{z} != {x}*({y}*{z}) "
                             f"(basis triple {triple})")


def _psi_images(a: Algebra, s: Algebra) -> list:
    """psi(gamma_i tensor b_j) = gamma_i kron L_{b_j}, sparse and flattened, in the order (i, j)."""
    lefts = s.left_mult_operators()
    return [sparse_kron(a.field, g, a.dim, lj, s.dim) for g in centroid(a).space._sparse for lj in lefts]


def psi_map(a: Algebra, s: Algebra) -> PsiReport:
    """The map (centroid element, right factor element) -> tensor centroid.

    Sends gamma tensor y to gamma tensor (left multiplication by y). Requires
    the hypotheses of require_hypotheses; under those it should be a
    bijection onto the centroid of the tensor product, and the report
    records whether it is.
    """
    require_hypotheses(a, s)
    ts = tensor_product(a, s)
    cent_ts = centroid(ts)
    cols = _psi_images(a, s)
    image = Subspace.from_rows(a.field, ts.dim * ts.dim, cols)
    in_cent = all(map(cent_ts.space.contains, cols))
    return PsiReport(domain_dim=len(cols), target_dim=cent_ts.dim, injective=image.dim == len(cols),
                     image_in_centroid=in_cent, surjective=in_cent and image.dim == cent_ts.dim)


def require_psi_iso(a: Algebra, s: Algebra) -> PsiReport:
    """psi_map's report when psi is bijective; else PsiNotIso naming the
    first property that fails, with both dimensions."""
    psi = psi_map(a, s)
    for held, name in ((psi.injective, "injective"), (psi.image_in_centroid, "image-in-centroid"),
                       (psi.surjective, "surjective")):
        if not held:
            raise PsiNotIso(f"centroid tensor map is not bijective: {name} fails "
                            f"(domain dim {psi.domain_dim}, C(A tensor S) dim {psi.target_dim})")
    return psi


def psi_multiplicative(a: Algebra, s: Algebra) -> bool:
    """Whether psi((g1 x s1)(g2 x s2)) = psi(g1 x s1) psi(g2 x s2) on basis pairs.

    Both sides come from psi's sparse image columns: the composite of two of
    them, against their combination along the centroid coordinates of g1 g2
    and the structure constants of s1 s2. The centroid is closed under
    composition and its kernel is certified complete (centroid()), so g1 g2
    must lie in it (Subspace.coords).
    """
    f, ns, na = a.field, s.dim, a.dim
    cent_a = centroid(a).space
    cols = _psi_images(a, s)
    for a1, g1 in enumerate(cent_a._sparse):
        for a2, g2 in enumerate(cent_a._sparse):
            try:
                lam = cent_a.coords(compose_maps(f, g1, g2, na))
            except NotInDomain:
                raise InternalCheckFailed(f"centroid: composite of basis maps {a1} and {a2} lies outside it")
            for j1 in range(ns):
                for j2 in range(ns):
                    want = combine_rows(f, ((f.mul(la, cj), cols[aa * ns + jj])
                                            for aa, la in lam for jj, cj in s._nz[j1][j2]))
                    if compose_maps(f, cols[a1 * ns + j1], cols[a2 * ns + j2], na * ns) != want:
                        return False
    return True
