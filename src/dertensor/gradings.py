"""Automorphisms of declared finite period and the gradings they induce.

A period-m automorphism with a primitive m-th root of unity in the field
splits the algebra into eigenspace components indexed by residues mod m.
The declared period is never minimized: sigma = id with m = 4 is a perfectly
valid period-4 automorphism whose grading is concentrated in degree zero.

Residue arithmetic goes through eps(), which picks the representative in
[0, m). Endomorphism spaces inherit a grading through conjugation.
One routine, _eigenspace_grading, cuts both: the algebra by sigma, an
endomorphism space by conjugation. Its three checks (see there) imply
sigma = sum_i omega^i P_i. A tensor automorphism of two validated factors
is not re-validated.
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
    NotInDomain,
    NotInvariant,
    NotUnitResidue,
    SingularElement,
    WrongPeriod,
)
from .exactla import (Matrix, Subspace, _dense, compose_maps, invert_matrix, rank, sparse_kron, sparse_rows,
                      vec_is_zero)
from .invariants import EndoSpace

COMBO_BUDGET = 64  # small integer combinations tried by find_graded_unit


def eps(i: int, m: int) -> int:
    """The canonical representative of i mod m, in [0, m)."""
    return i % m


class Automorphism:
    """A validated automorphism of declared period; immutable by convention.

    Data derived from it alone is memoised in _cache: its grading and its
    sparse maps.
    """

    __slots__ = ("algebra", "matrix", "period", "_cache")

    def __init__(self, algebra: Algebra, matrix: Matrix, period: int):
        self.algebra = algebra
        self.matrix = matrix
        self.period = period
        self._cache = {}

    def maps(self) -> tuple:
        """sigma and sigma^-1 as sparse flattened maps."""
        if "maps" not in self._cache:
            dense = (self.matrix.flatten(), invert_matrix(self.matrix).flatten())
            self._cache["maps"] = tuple(sparse_rows(self.algebra.field, dense))
        return self._cache["maps"]

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


def _eigenspace_grading(space: Subspace, op: Matrix, m: int, tag: str) -> Grading:
    """Component i = {x in space : op x = omega^i x}, op acting on the space's
    coordinates (column convention), cut with Subspace.cut.

    Checks: each cut is a certified kernel, so op is omega^i on component i;
    omega^0 ... omega^(m-1) are distinct, so the components are independent;
    they fill the space. The identity puts everything in degree zero, and
    asks the field for no root of unity.
    """
    f, k = space.field, space.dim
    if op == Matrix.identity(f, k):
        return Grading(m, space.ambient, [space] + [Subspace(f, space.ambient, (), ())] * (m - 1))
    omega = f.root_of_unity(m)
    powers, seen = [f.pow(omega, i) for i in range(m)], {}
    for i, w in enumerate(powers):
        if seen.setdefault(w, i) != i:
            raise InternalCheckFailed(f"grading {tag!r}: omega^{seen[w]} = omega^{i} = {f.format(w)} "
                                      f"for a root of order {m}")
    piv, comps = space.pivots, []
    for i, w in enumerate(powers):
        rows = [[f.sub(x, w) if r == c else x for c, x in enumerate(row)] for r, row in enumerate(op.rows)]
        # a row on the coordinates is the same row on the pivot columns
        rows = [tuple((piv[c], x) for c, x in row) for row in sparse_rows(f, rows)]
        comps.append(space.cut(rows, f"{tag}-degree-{i}"))
    if sum(c.dim for c in comps) != k:
        raise InternalCheckFailed(f"grading {tag!r}: components of dims {[c.dim for c in comps]} "
                                  f"do not fill the dim-{k} space")
    return Grading(m, space.ambient, comps)


def grading_from_automorphism(aut: Automorphism) -> Grading:
    """Eigenspace grading of the algebra: component i is the kernel of
    (sigma - omega^i id). Built once and kept on the automorphism."""
    if "grading" not in aut._cache:
        f, n = aut.algebra.field, aut.algebra.dim
        whole = Subspace(f, n, [((i, f.one()),) for i in range(n)], range(n))
        aut._cache["grading"] = _eigenspace_grading(whole, aut.matrix, aut.period, "algebra")
    return aut._cache["grading"]


def grading_is_multiplicative(a: Algebra, g: Grading) -> bool:
    """Products of components land in the component of the residue sum."""
    rows = [c.rows for c in g.components]
    for i, ci in enumerate(rows):
        for j, cj in enumerate(rows):
            target = g.component(i + j)
            for u in ci:
                for v in cj:
                    if not target.contains(a.mult(list(u), list(v))):
                        return False
    return True


def induced_endo_grading(aut: Automorphism, endo: EndoSpace) -> Grading:
    """Grading of an invariant endomorphism space by conjugation eigenvalue.

    Component i holds the maps T with sigma T sigma^{-1} = omega^i T, i.e.
    the maps shifting degrees by i. NotInvariant if conjugation leaves the
    space.
    """
    if endo.n != aut.algebra.dim:
        raise DimensionMismatch("endomorphism space does not match the automorphism carrier")
    f, n, (sig, siginv) = aut.algebra.field, endo.n, aut.maps()
    coords = []
    for t in endo.space._sparse:
        try:
            coords.append(endo.space.row_coords(compose_maps(f, compose_maps(f, sig, t, n), siginv, n)))
        except NotInDomain:
            raise NotInvariant("conjugation does not preserve the endomorphism space")
    # conjugation on the coordinates, column convention
    conj = Matrix(f, zip(*coords), endo.dim)
    return _eigenspace_grading(endo.space, conj, aut.period, endo.tag)


def tensor_automorphism(aut_a: Automorphism, aut_s: Automorphism, ts: Algebra) -> Automorphism:
    """Kronecker product automorphism on ts, the tensor algebra of the two
    factors. Multiplicative and of the shared period because each factor is
    (check_automorphism), so only the periods are compared."""
    if aut_a.period != aut_s.period:
        raise WrongPeriod(
            f"declared periods differ: {aut_a.period} vs {aut_s.period}"
        )
    f, n, na, ns = ts.field, ts.dim, aut_a.algebra.dim, aut_s.algebra.dim
    (x, xinv), (y, yinv) = aut_a.maps(), aut_s.maps()
    sig = sparse_kron(f, x, na, y, ns)
    # the dense matrix feeds the eigenspace grading (grading_from_automorphism)
    aut = Automorphism(ts, Matrix.unflatten(f, _dense(f, n * n, sig), n, n), aut_a.period)
    aut._cache["maps"] = (sig, sparse_kron(f, xinv, na, yinv, ns))
    return aut


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
) -> GradedUnitData:
    """Find (or validate) an invertible element of the degree-q component.

    Tries the component's basis vectors first, then a deterministic
    enumeration of small integer combinations (coefficients -2..2, at most
    COMBO_BUDGET candidates). NoUnitFound if the search fails; NotUnitResidue
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
        return _finish_unit(s, q, q1, u, u_inv)
    candidates = [list(r) for r in comp.rows]
    tried = 0
    for coeffs in iter_product(range(-2, 3), repeat=comp.dim):
        if tried >= COMBO_BUDGET:
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
        return _finish_unit(s, q, q1, cand, u_inv)
    raise NoUnitFound(f"no invertible element found in the degree-{q} component")


def _finish_unit(s: Algebra, q: int, q1: int, u: list, u_inv: list):
    # u has degree q and the grading is multiplicative, so u_prime has degree q q1 = 1
    u_prime = s.unit()
    u_prime_inv = s.unit()
    for _ in range(q1):
        u_prime = s.mult(u_prime, u)
        u_prime_inv = s.mult(u_prime_inv, u_inv)
    return GradedUnitData(q=q, u=u, u_inv=u_inv, u_prime=u_prime, u_prime_inv=u_prime_inv)
