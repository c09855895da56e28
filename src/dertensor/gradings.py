"""Automorphisms of declared finite period and the gradings they induce.

The engine grades by a diagonal sigma only: with omega a primitive m-th root
of unity, basis vector i has the residue k mod m with sigma_ii = omega^k, so
each component is a coordinate subspace and Grading.split, the one place a
vector is cut into homogeneous parts, groups its entries by degree.
Conjugation scales entry (r, c) of a map by omega^(deg r - deg c), so each
RREF basis vector of an invariant endomorphism space has one such degree
(induced_endo_grading). A sigma that is not diagonal is diagonalizable, as
its minimal polynomial divides x^m - 1, whose roots are distinct:
diagonal_form rewrites its algebra once on the eigenbasis _eigenspace_grading
cuts. The declared period is never minimized (sigma = id with m = 4 grades
everything in degree zero), and residues are taken by eps(), in [0, m).
"""

from __future__ import annotations

from itertools import chain, islice, product as iter_product
from types import SimpleNamespace

from .algebra import Algebra, invert_element
from .errors import (
    DimensionMismatch,
    HypothesisNotMet,
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
                      kernel_of_rows, map_of_columns, map_rows)
from .invariants import EndoSpace

COMBO_BUDGET = 64  # small integer combinations tried by find_graded_unit


def eps(i: int, m: int) -> int:
    """The canonical representative of i mod m, in [0, m)."""
    return i % m


class Automorphism:
    """A validated automorphism of declared period; immutable by convention.

    sig holds sigma as a sparse flattened map (see exactla). Its grading and
    diagonal form, derived from it alone, are memoised in _cache.
    """

    __slots__ = ("algebra", "sig", "period", "_cache")

    def __init__(self, algebra: Algebra, sig: tuple, period: int):
        self.algebra = algebra
        self.sig = sig
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
        invert_map(f, sig, n)
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
    return Automorphism(algebra, sig, period)


def require_acts_on(aut: Automorphism, algebra: Algebra, period: int):
    """aut must act on algebra (DimensionMismatch) with the declared period."""
    if aut.algebra is not algebra:
        raise DimensionMismatch(f"the automorphism acts on another algebra than the given dim-{algebra.dim} one")
    if aut.period != period:
        raise HypothesisNotMet(f"declared periods differ: {aut.period} vs {period}", "automorphism-periods")


class Grading:
    """A space graded by residues mod m: coordinate i has the residue
    degrees[i], and each RREF basis vector of the space, of one degree on its
    support, lies in the component of its pivot's degree."""

    __slots__ = ("m", "degrees", "components")

    def __init__(self, m: int, degrees: tuple, space: Subspace):
        self.m, self.degrees = m, degrees
        groups = [([], []) for _ in range(m)]
        for row, p in zip(space._sparse, space.pivots):
            groups[degrees[p]][0].append(row)
            groups[degrees[p]][1].append(p)
        self.components = [Subspace(space.field, space.ambient, rows, pivots) for rows, pivots in groups]

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
        parts = self.split(vec)
        return parts[0][1] if len(parts) == 1 else None

    def split(self, vec) -> list:
        """The nonzero homogeneous parts of a sparse row, as (part, residue)
        pairs in degree order: its entries grouped by their coordinates' degrees."""
        parts = {}
        for i, x in vec:
            parts.setdefault(self.degrees[i], []).append((i, x))
        return [(tuple(parts[d]), d) for d in sorted(parts)]

    def __repr__(self):
        return f"Grading(mod {self.m}, dims {self.component_dims})"


def coordinate_grading(f, m: int, degrees: tuple) -> Grading:
    """The grading by a diagonal sigma: coordinate i in the component of residue degrees[i]."""
    n = len(degrees)
    return Grading(m, degrees, Subspace(f, n, [((i, f.one()),) for i in range(n)], range(n)))


def _residues(f, m: int) -> dict:
    """omega^i -> i for i < m, omega a primitive m-th root of unity;
    InternalCheckFailed if two powers coincide."""
    omega, seen = f.root_of_unity(m), {}
    for i in range(m):
        w = f.pow(omega, i)
        if seen.setdefault(w, i) != i:
            raise InternalCheckFailed(f"grading 'algebra': omega^{seen[w]} = omega^{i} = {f.format(w)} "
                                      f"for a root of order {m}")
    return seen


def grading_from_automorphism(aut: Automorphism) -> Grading:
    """The grading of the algebra by a diagonal sigma: basis vector i has the
    degree k with sigma_ii = omega^k, and the identity asks for no root.
    Built once and kept on the automorphism."""
    if "grading" not in aut._cache:
        f, n, m, sig = aut.algebra.field, aut.algebra.dim, aut.period, aut.sig
        if any(rc // n != rc % n for rc, _ in sig):
            raise NotInDomain("sigma is not diagonal: grade the automorphism diagonal_form gives")
        # sigma^m = id, so each sigma_ii is one of the m distinct powers of omega
        residue = {f.one(): 0} if all(x == f.one() for _, x in sig) else _residues(f, m)
        aut._cache["grading"] = coordinate_grading(f, m, tuple(residue[x] for _, x in sig))
    return aut._cache["grading"]


def induced_endo_grading(grading: Grading, endo: EndoSpace) -> Grading:
    """Grading of an invariant endomorphism space of an algebra graded by a
    diagonal sigma, by conjugation eigenvalue.

    Component i holds the maps T with sigma T sigma^{-1} = omega^i T, whose
    entries (r, c) have degree deg r - deg c = i. The RREF basis vector with
    pivot p of an invariant space is its own part of p's degree, so a basis
    vector with two degrees shows that conjugation leaves the space:
    NotInvariant names its entries.
    """
    n, m, deg = endo.n, grading.m, grading.degrees
    if len(deg) != n:
        raise DimensionMismatch("endomorphism space does not match the graded algebra")
    degrees = tuple(eps(deg[r] - deg[c], m) for r in range(n) for c in range(n))
    for t, row in enumerate(endo.space._sparse):
        p = row[0][0]
        if (j := next((j for j, _ in row if degrees[j] != degrees[p]), None)) is not None:
            raise NotInvariant(f"conjugation does not preserve the endomorphism space {endo.tag!r}: basis "
                               f"vector {t} has entries {divmod(p, n)} of degree {degrees[p]} and "
                               f"{divmod(j, n)} of degree {degrees[j]}")
    return Grading(m, degrees, endo.space)


def _eigenspace_grading(aut: Automorphism) -> list[tuple]:
    """(omega^i, component i = the kernel of sigma - omega^i) for each residue i.

    Checks: each component is a certified kernel (kernel_of_rows), so sigma
    is omega^i on component i; omega^0 ... omega^(m-1) are distinct
    (_residues), so the components are independent; they fill the space.
    """
    f, n, sig = aut.algebra.field, aut.algebra.dim, aut.sig
    rows, one, comps = map_rows(sig, n), f.one(), []
    for w, i in _residues(f, aut.period).items():
        # row r of sigma - w id
        shifted = [combine_rows(f, ((one, rows.get(r, ())), (f.neg(w), ((r, one),)))) for r in range(n)]
        comps.append((w, kernel_of_rows(f, shifted, n, f"algebra-degree-{i}")))
    if sum(c.dim for _, c in comps) != n:
        raise InternalCheckFailed(f"grading 'algebra': components of dims {[c.dim for _, c in comps]} "
                                  f"do not fill the dim-{n} space")
    return comps


def diagonal_form(aut: Automorphism) -> tuple:
    """(aut, None) when sigma is diagonal; else (sigma on its eigenbasis, a
    diagonal automorphism of the algebra rewritten on that basis, the sparse
    map carrying a row of the given basis there). The eigenbasis is each
    component's RREF basis from _eigenspace_grading, in degree order, each
    vector named by its expansion in the given basis. Built once, kept on aut.
    """
    if "diagonal" not in aut._cache:
        a, f, n, m = aut.algebra, aut.algebra.field, aut.algebra.dim, aut.period
        if all(rc // n == rc % n for rc, _ in aut.sig):
            aut._cache["diagonal"] = (aut, None)
        else:
            comps = _eigenspace_grading(aut)
            basis = [row for _, c in comps for row in c._sparse]
            carry = invert_map(f, map_of_columns(basis), n)
            terms = [[a.names[i] if x == f.one() else f"{f.format(x)}*{a.names[i]}" for i, x in row] for row in basis]
            b = Algebra.from_products(f, [t[0] if len(t) == 1 else "(" + " + ".join(t) + ")" for t in terms],
                                      [[apply_map(f, carry, n, a.mult(x, y)) for y in basis] for x in basis])
            sig = diagonal_map(f, [w for w, c in comps for _ in c._sparse])
            aut._cache["diagonal"] = (Automorphism(b, sig, m), carry)
    return aut._cache["diagonal"]


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
