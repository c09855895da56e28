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
is not re-validated; its grading is multiplicative because sigma is.
Grading.split, the one place a vector is cut into homogeneous parts, reads
them off the projections P_i of the basis vectors (Grading.basis_parts,
built once per grading).
"""

from __future__ import annotations

from itertools import chain, islice, product as iter_product
from types import SimpleNamespace

from .algebra import Algebra, invert_element, subalgebra_on, tensor_product
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
from .exactla import (Subspace, apply_map, canonical_row, combine_rows, compose_maps, diagonal_map, invert_map,
                      map_of_columns, map_rows, sparse_kron)
from .invariants import EndoSpace

COMBO_BUDGET = 64  # small integer combinations tried by find_graded_unit


def eps(i: int, m: int) -> int:
    """The canonical representative of i mod m, in [0, m)."""
    return i % m


class Automorphism:
    """A validated automorphism of declared period; immutable by convention.

    maps holds sigma and sigma^-1 as sparse flattened maps (see exactla).
    Its grading, derived from it alone, is memoised in _cache.
    """

    __slots__ = ("algebra", "maps", "period", "_cache")

    def __init__(self, algebra: Algebra, maps: tuple, period: int):
        self.algebra = algebra
        self.maps = maps
        self.period = period
        self._cache = {}

    def __repr__(self):
        return f"Automorphism(period {self.period} of dim-{self.algebra.dim} algebra)"


def check_automorphism(algebra: Algebra, sig: tuple, period: int) -> Automorphism:
    """Validate sigma, a sparse flattened map (see exactla): invertibility (by
    computing sigma^-1), multiplicativity and the declared period; wrap on success."""
    f, n = algebra.field, algebra.dim
    if (bad := next((rc for rc, _ in sig if not 0 <= rc < n * n), None)) is not None:
        raise DimensionMismatch(f"map index {bad} outside the {n}x{n} maps of a dim-{n} algebra")
    if sig != canonical_row(f, dict(sig)):
        raise NotAutomorphism("sigma is no sparse row: a tuple, indices increasing, values nonzero")
    if period < 1:
        raise WrongPeriod(f"period must be positive, got {period}")
    try:
        siginv = invert_map(f, sig, n)
    except SingularElement:
        raise NotAutomorphism("matrix is singular")
    cols = [apply_map(f, sig, n, ((i, f.one()),)) for i in range(n)]
    for i in range(n):
        for j in range(n):
            if apply_map(f, sig, n, algebra._nz[i][j]) != algebra.mult(cols[i], cols[j]):
                raise NotAutomorphism(f"not multiplicative on basis pair ({i},{j})")
    power = eye = diagonal_map(f, [1] * n)
    for _ in range(period):
        power = compose_maps(f, power, sig, n)
    if power != eye:
        raise WrongPeriod(f"matrix to the power {period} is not the identity")
    return Automorphism(algebra, (sig, siginv), period)


class Grading:
    """A direct-sum decomposition indexed by residues mod m."""

    __slots__ = ("m", "ambient", "components", "_parts")

    def __init__(self, m: int, ambient: int, components: list[Subspace]):
        self.m = m
        self.ambient = ambient
        self.components = list(components)
        self._parts = None

    @property
    def component_dims(self) -> tuple[int, ...]:
        return tuple(c.dim for c in self.components)

    def component(self, i: int) -> Subspace:
        return self.components[eps(i, self.m)]

    def graded_basis(self):
        """All component basis vectors (sparse rows) with their residues, in degree order."""
        return [(row, i) for i, comp in enumerate(self.components) for row in comp._sparse]

    def degree_of(self, vec) -> int | None:
        """Residue of a sparse row with exactly one homogeneous part, else None."""
        parts = self.split(self.components[0].field, vec)
        return parts[0][1] if len(parts) == 1 else None

    def split(self, field, vec) -> list:
        """The nonzero homogeneous parts of a sparse row, as (part, residue)
        pairs in degree order: the one place a vector is cut by degree. Each
        part is the sum of c_i times the degree part of e_i (basis_parts)."""
        out = []
        for d, cols in enumerate(self.basis_parts(field)):
            if cols and (part := combine_rows(field, ((c, cols[i]) for i, c in vec if i in cols))):
                out.append((part, d))
        return out

    def basis_parts(self, field) -> list[dict]:
        """Per residue d, i -> the degree-d part of basis vector e_i as a sparse
        row, where nonzero (cached). Row i of the inverse of the stacked
        component bases holds e_i's coefficients on the basis vectors."""
        if self._parts is None:
            n, basis = self.ambient, [row for c in self.components for row in c._sparse]
            stacked = tuple((t * n + c, x) for t, row in enumerate(basis) for c, x in row)
            coeffs = map_rows(invert_map(field, stacked, n), n)
            self._parts, start = [], 0
            for comp in self.components:
                block = range(start, start + comp.dim)
                parts = {i: combine_rows(field, ((x, basis[t]) for t, x in row if t in block))
                         for i, row in coeffs.items()}
                self._parts.append({i: p for i, p in parts.items() if p})
                start += comp.dim
        return self._parts

    def __repr__(self):
        return f"Grading(mod {self.m}, dims {self.component_dims})"


def _eigenspace_grading(space: Subspace, op, m: int, tag: str) -> Grading:
    """Component i = {x in space : op x = omega^i x}, op the sparse flattened
    map of the space's coordinates (see exactla), cut with Subspace.cut.

    Checks: each cut is a certified kernel, so op is omega^i on component i;
    omega^0 ... omega^(m-1) are distinct, so the components are independent;
    they fill the space. The identity puts everything in degree zero, and
    asks the field for no root of unity.
    """
    f, k = space.field, space.dim
    if op == tuple((i * k + i, f.one()) for i in range(k)):
        return Grading(m, space.ambient, [space] + [Subspace(f, space.ambient, (), ())] * (m - 1))
    omega = f.root_of_unity(m)
    powers, seen = [f.pow(omega, i) for i in range(m)], {}
    for i, w in enumerate(powers):
        if seen.setdefault(w, i) != i:
            raise InternalCheckFailed(f"grading {tag!r}: omega^{seen[w]} = omega^{i} = {f.format(w)} "
                                      f"for a root of order {m}")
    rows, one, comps = map_rows(op, k), f.one(), []
    for i, w in enumerate(powers):
        # row r of op - w id, on the space's coordinates
        shifted = [combine_rows(f, ((one, rows.get(r, ())), (f.neg(w), ((r, one),)))) for r in range(k)]
        comps.append(space.cut(shifted, f"{tag}-degree-{i}"))
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
        aut._cache["grading"] = _eigenspace_grading(whole, aut.maps[0], aut.period, "algebra")
    return aut._cache["grading"]


def induced_endo_grading(aut: Automorphism, endo: EndoSpace) -> Grading:
    """Grading of an invariant endomorphism space by conjugation eigenvalue.

    Component i holds the maps T with sigma T sigma^{-1} = omega^i T, i.e.
    the maps shifting degrees by i. NotInvariant if conjugation leaves the
    space.
    """
    if endo.n != aut.algebra.dim:
        raise DimensionMismatch("endomorphism space does not match the automorphism carrier")
    f, n, (sig, siginv) = aut.algebra.field, endo.n, aut.maps
    coords = []
    for t in endo.space._sparse:
        try:
            coords.append(endo.space.coords(compose_maps(f, compose_maps(f, sig, t, n), siginv, n)))
        except NotInDomain:
            raise NotInvariant("conjugation does not preserve the endomorphism space")
    # conjugation on the coordinates, column convention
    return _eigenspace_grading(endo.space, map_of_columns(coords), aut.period, endo.tag)


def tensor_automorphism(aut_a: Automorphism, aut_s: Automorphism) -> Automorphism:
    """Kronecker product automorphism on the tensor algebra of the two
    factors (tensor_product). Multiplicative and of the shared period because
    each factor is (check_automorphism), so only the periods are compared."""
    if aut_a.period != aut_s.period:
        raise WrongPeriod(
            f"declared periods differ: {aut_a.period} vs {aut_s.period}"
        )
    ts = tensor_product(aut_a.algebra, aut_s.algebra)
    f, na, ns = ts.field, aut_a.algebra.dim, aut_s.algebra.dim
    (x, xinv), (y, yinv) = aut_a.maps, aut_s.maps
    return Automorphism(ts, (sparse_kron(f, x, na, y, ns), sparse_kron(f, xinv, na, yinv, ns)), aut_a.period)


def fixed_point_algebra(algebra: Algebra, grading: Grading):
    """The degree-zero component with its inherited product, on its RREF basis."""
    return subalgebra_on(algebra, grading.components[0])


class GradedUnitData(SimpleNamespace):
    """An invertible homogeneous element and its degree-one normalization.

    Keyword fields q, u, u_inv, u_prime, u_prime_inv: u sits in the component
    of residue q (q invertible mod m); u_prime = u^{eps(q1)} for the residue
    inverse q1 of q sits in the degree-one component."""


def find_graded_unit(
    s: Algebra,
    grading: Grading,
    q: int = 1,
    u: tuple | None = None,
) -> GradedUnitData:
    """Find (or validate) an invertible element (a sparse row) of the degree-q component.

    Tries the component's basis vectors first, and only if none is
    invertible a deterministic enumeration of small integer combinations
    (coefficients -2..2, at most COMBO_BUDGET of them, built one at a time).
    NoUnitFound if the search fails; NotUnitResidue when q is not invertible
    mod m, since then no degree-one normalization exists.
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
    # zero and single-vector combinations are the basis candidates
    combos = (combine_rows(s.field, zip(map(s.field.from_int, coeffs), comp._sparse))
              for coeffs in iter_product(range(-2, 3), repeat=comp.dim) if sum(1 for c in coeffs if c) >= 2)
    for cand in chain(comp._sparse, islice(combos, COMBO_BUDGET)):
        if not cand:
            continue
        try:
            u_inv = invert_element(s, cand)
        except SingularElement:
            continue
        return _finish_unit(s, q, q1, cand, u_inv)
    raise NoUnitFound(f"no invertible element found in the degree-{q} component")


def _finish_unit(s: Algebra, q: int, q1: int, u: tuple, u_inv: tuple):
    # u has degree q and the grading is multiplicative, so u_prime has degree q q1 = 1
    u_prime = s.unit()
    u_prime_inv = s.unit()
    for _ in range(q1):
        u_prime = s.mult(u_prime, u)
        u_prime_inv = s.mult(u_prime_inv, u_inv)
    return GradedUnitData(q=q, u=u, u_inv=u_inv, u_prime=u_prime, u_prime_inv=u_prime_inv)
