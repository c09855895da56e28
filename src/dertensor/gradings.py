"""Automorphisms of declared finite period and the gradings they induce.

A period-m automorphism with a primitive m-th root of unity in the field
splits the algebra into eigenspace components indexed by residues mod m.
The declared period is never minimized: sigma = id with m = 4 is a perfectly
valid period-4 automorphism whose grading is concentrated in degree zero.

Residue arithmetic goes through eps(), which picks the representative in
[0, m). Endomorphism spaces inherit a grading through conjugation.
"""

from __future__ import annotations

from itertools import product as iter_product
from types import SimpleNamespace

from .algebra import Algebra, invert_element, subalgebra_on
from .errors import (
    DimensionMismatch,
    InternalCheckFailed,
    NoUnitFound,
    NotAutomorphism,
    NotInvariant,
    NotUnitResidue,
    SingularElement,
    WrongPeriod,
)
from .exactla import Matrix, Subspace, invert_matrix, kernel_of_rows, rank, sparse_rows, vec_is_zero
from .invariants import EndoSpace


def eps(i: int, m: int) -> int:
    """The canonical representative of i mod m, in [0, m)."""
    return i % m


class Automorphism:
    """A validated automorphism of declared period; immutable by convention.

    Data derived from it alone is memoised on the instance: the inverse
    matrix here, and other modules' derived data in _cache.
    """

    __slots__ = ("algebra", "matrix", "period", "_inv", "_cache")

    def __init__(self, algebra: Algebra, matrix: Matrix, period: int):
        self.algebra = algebra
        self.matrix = matrix
        self.period = period
        self._inv = None
        self._cache = {}

    def inverse_matrix(self) -> Matrix:
        if self._inv is None:
            self._inv = invert_matrix(self.matrix)
        return self._inv

    def __repr__(self):
        return f"Automorphism(period {self.period} of dim-{self.algebra.dim} algebra)"


def check_automorphism(algebra: Algebra, matrix: Matrix, period: int) -> Automorphism:
    """Validate multiplicativity and the declared period; wrap on success."""
    n = algebra.dim
    if matrix.nrows != n or matrix.ncols != n:
        raise DimensionMismatch(f"{matrix.nrows}x{matrix.ncols} matrix on dim-{n} algebra")
    if period < 1:
        raise WrongPeriod(f"period must be positive, got {period}")
    if rank(matrix) != n:
        raise NotAutomorphism("matrix is singular")
    for i in range(n):
        ci = matrix.column(i)
        for j in range(n):
            lhs = matrix.matvec(algebra.table[i][j])
            rhs = algebra.mult(ci, matrix.column(j))
            if lhs != rhs:
                raise NotAutomorphism(f"not multiplicative on basis pair ({i},{j})")
    power = Matrix.identity(algebra.field, n)
    for _ in range(period):
        power = power.mul(matrix)
    if power != Matrix.identity(algebra.field, n):
        raise WrongPeriod(f"matrix to the power {period} is not the identity")
    return Automorphism(algebra, matrix, period)


class Grading:
    """A direct-sum decomposition indexed by residues mod m."""

    __slots__ = ("m", "ambient", "components", "_projections", "_parts")

    def __init__(self, m: int, ambient: int, components: list[Subspace]):
        if len(components) != m:
            raise DimensionMismatch(f"{len(components)} components for modulus {m}")
        self.m = m
        self.ambient = ambient
        self.components = list(components)
        self._projections = None
        self._parts = None

    @property
    def component_dims(self) -> tuple[int, ...]:
        return tuple(c.dim for c in self.components)

    def component(self, i: int) -> Subspace:
        return self.components[eps(i, self.m)]

    def graded_basis(self):
        """All component basis vectors with their residues, in degree order."""
        out = []
        for i, comp in enumerate(self.components):
            for row in comp.rows:
                out.append((list(row), i))
        return out

    def degree_of(self, vec: list) -> int | None:
        """Residue of a nonzero homogeneous vector, else None."""
        for i, comp in enumerate(self.components):
            if comp.dim and comp.contains(vec):
                if vec_is_zero(comp.field, vec):
                    return None
                return i
        return None

    def projections(self, field) -> list[Matrix]:
        """Projection matrices onto each component (cached): component i's basis
        columns times their rows of Q^-1, Q holding every basis as columns."""
        if self._projections is None:
            if sum(c.dim for c in self.components) != self.ambient:
                raise InternalCheckFailed("projections need components spanning the ambient space")
            n = self.ambient
            q = [list(r) for r in zip(*(v for c in self.components for v in c.rows))]
            qinv = invert_matrix(Matrix(field, q, n))
            projs, start = [], 0
            for comp in self.components:
                cols = Matrix(field, [list(r) for r in zip(*comp.rows)] if comp.dim else [[]] * n, comp.dim)
                projs.append(cols.mul(Matrix(field, qinv.rows[start:start + comp.dim], n)))
                start += comp.dim
            self._projections = projs
        return self._projections

    def basis_parts(self, field) -> list[dict]:
        """Per residue, i -> column i of its projection as a sparse row, where nonzero (cached)."""
        if self._parts is None:
            self._parts = [{i: c for i, c in enumerate(sparse_rows(field, zip(*p.rows))) if c}
                           for p in self.projections(field)]
        return self._parts

    def __repr__(self):
        return f"Grading(mod {self.m}, dims {self.component_dims})"


def grading_from_automorphism(aut: Automorphism) -> Grading:
    """Eigenspace grading: component i is the kernel of (sigma - omega^i id)."""
    a = aut.algebra
    f = a.field
    n = a.dim
    omega = f.root_of_unity(aut.period)
    comps = []
    for i in range(aut.period):
        w = f.pow(omega, i)
        rows = [
            [f.sub(aut.matrix.rows[r][c], w if r == c else f.zero()) for c in range(n)]
            for r in range(n)
        ]
        comps.append(kernel_of_rows(f, sparse_rows(f, rows), n, f"eigenspace-{i}"))
    if sum(c.dim for c in comps) != n:
        raise InternalCheckFailed("eigenspaces do not fill the algebra")
    g = Grading(aut.period, n, comps)
    # reconstruction: sum of omega^i times projection_i must be sigma itself
    acc = Matrix.zeros(f, n, n)
    for i, p in enumerate(g.projections(f)):
        acc = acc.add(p.scale(f.pow(omega, i)))
    if acc != aut.matrix:
        raise InternalCheckFailed("grading does not reconstruct the automorphism")
    return g


def grading_is_multiplicative(a: Algebra, g: Grading) -> bool:
    """Products of components land in the component of the residue sum."""
    for i, ci in enumerate(g.components):
        for j, cj in enumerate(g.components):
            target = g.component(i + j)
            for u in ci.rows:
                for v in cj.rows:
                    if not target.contains(a.mult(list(u), list(v))):
                        return False
    return True


def induced_endo_grading(aut: Automorphism, endo: EndoSpace) -> Grading:
    """Grading of an invariant endomorphism space by conjugation eigenvalue.

    Component i holds the maps T with sigma T sigma^{-1} = omega^i T, i.e.
    the maps shifting degrees by i. NotInvariant if conjugation leaves the
    space.
    """
    f = aut.algebra.field
    if endo.n != aut.algebra.dim:
        raise DimensionMismatch("endomorphism space does not match the automorphism carrier")
    k = endo.dim
    sig = aut.matrix
    siginv = aut.inverse_matrix()
    coords = []
    for t in endo.basis_matrices():
        conj = sig.mul(t).mul(siginv)
        if not endo.contains_matrix(conj):
            raise NotInvariant("conjugation does not preserve the endomorphism space")
        coords.append(endo.coords_of_matrix(conj))
    # restriction matrix, column convention
    restr = [[coords[c][r] for c in range(k)] for r in range(k)]
    omega = f.root_of_unity(aut.period)
    piv = endo.space.pivots
    comps = []
    for i in range(aut.period):
        w = f.pow(omega, i)
        rows = [
            [f.sub(restr[r][c], w if r == c else f.zero()) for c in range(k)] for r in range(k)
        ]
        # a row on the coordinates is the same row on the pivot columns
        rows = [tuple((piv[c], x) for c, x in row) for row in sparse_rows(f, rows)]
        comps.append(endo.space.cut(rows, f"{endo.tag}-degree-{i}"))
    if sum(c.dim for c in comps) != k:
        raise InternalCheckFailed("endomorphism eigenspaces do not fill the space")
    return Grading(aut.period, endo.space.ambient, comps)


def tensor_automorphism(aut_a: Automorphism, aut_s: Automorphism, ts: Algebra) -> Automorphism:
    """Kronecker product automorphism on the tensor algebra."""
    if aut_a.period != aut_s.period:
        raise WrongPeriod(
            f"declared periods differ: {aut_a.period} vs {aut_s.period}"
        )
    mat = aut_a.matrix.kron(aut_s.matrix)
    return check_automorphism(ts, mat, aut_a.period)


def fixed_point_algebra(algebra: Algebra, grading: Grading, names: list[str] | None = None):
    """The degree-zero component with its inherited product and embedding."""
    return subalgebra_on(algebra, grading.components[0], names)


class GradedUnitData(SimpleNamespace):
    """An invertible homogeneous element and its degree-one normalization.

    Keyword fields q, u, u_inv, u_prime, u_prime_inv: u sits in the component
    of residue q (q invertible mod m); u_prime = u^{eps(q1)} for the residue
    inverse q1 of q sits in the degree-one component."""


def find_graded_unit(
    s: Algebra,
    grading: Grading,
    q: int = 1,
    u: list | None = None,
    combo_budget: int = 64,
) -> GradedUnitData:
    """Find (or validate) an invertible element of the degree-q component.

    Tries the component's basis vectors first, then a deterministic
    enumeration of small integer combinations (coefficients -2..2, at most
    combo_budget candidates). NoUnitFound if the search fails; NotUnitResidue
    when q is not invertible mod m, since then no degree-one normalization
    exists.
    """
    m = grading.m
    q = eps(q, m)
    try:
        q1 = pow(q, -1, m) % m if m > 1 else 0
    except ValueError:
        raise NotUnitResidue(f"residue {q} has no inverse mod {m}")
    comp = grading.component(q)
    if u is not None:
        if not comp.contains(u):
            raise NoUnitFound(f"given element is not in the degree-{q} component")
        try:
            u_inv = invert_element(s, u)
        except SingularElement:
            raise NoUnitFound("given element is not invertible")
        return _finish_unit(s, grading, q, q1, u, u_inv)
    candidates = [list(r) for r in comp.rows]
    tried = 0
    for coeffs in iter_product(range(-2, 3), repeat=comp.dim):
        if tried >= combo_budget:
            break
        if sum(1 for c in coeffs if c) < 2:
            continue  # zero and single-vector combos are the basis candidates
        vec = comp.linear_combination([s.field.from_int(c) for c in coeffs])
        candidates.append(vec)
        tried += 1
    for cand in candidates:
        if vec_is_zero(s.field, cand):
            continue
        try:
            u_inv = invert_element(s, cand)
        except SingularElement:
            continue
        return _finish_unit(s, grading, q, q1, cand, u_inv)
    raise NoUnitFound(f"no invertible element found in the degree-{q} component")


def _finish_unit(s: Algebra, grading: Grading, q: int, q1: int, u: list, u_inv: list):
    e = eps(q1, grading.m)
    u_prime = s.unit()
    u_prime_inv = s.unit()
    for _ in range(e):
        u_prime = s.mult(u_prime, u)
        u_prime_inv = s.mult(u_prime_inv, u_inv)
    if grading.m > 1 and not grading.component(1).contains(u_prime):
        raise InternalCheckFailed("normalized unit escaped the degree-one component")
    return GradedUnitData(q=q, u=u, u_inv=u_inv, u_prime=u_prime, u_prime_inv=u_prime_inv)
