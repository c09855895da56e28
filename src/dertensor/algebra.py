"""Finite-dimensional algebras given by structure constants.

An Algebra holds a basis and the full products table: table[i][j] is the
coordinate vector of (basis i) * (basis j). No axioms are assumed; properties
like associativity are checked on demand and cached. Caches live on the
instance and algebras are immutable by convention, so a cached flag can never
drift from recomputation (tests clear caches and recompute to enforce this).

Matrices of operators use the column convention: the image of basis vector j
is column j. Composition of operators is then plain matrix product.

Tensor products order the basis pairs (i, j) as i * dim(S) + j. Every module
in the package relies on that single convention.
"""

from __future__ import annotations

from .errors import (
    DimensionMismatch,
    FieldMismatch,
    NotClosed,
    NotUnital,
    ParseError,
    SingularElement,
)
from .exactla import Matrix, Subspace, _dense, canonical_row, combine_rows, solve_unique
from .scalars import CYCLOTOMIC, PRIME, RATIONAL, FieldDescriptor, make_field


class Algebra:
    __slots__ = ("field", "dim", "names", "table", "_nz", "_cache")

    def __init__(self, field: FieldDescriptor, names: list[str], table):
        n = len(names)
        if len(set(names)) != n:
            raise ParseError("basis names must be distinct")
        if len(table) != n or any(len(r) != n for r in table):
            raise DimensionMismatch("table must be dim x dim")
        for i in range(n):
            for j in range(n):
                if len(table[i][j]) != n:
                    raise DimensionMismatch(f"product ({i},{j}) has wrong length")
        self.field = field
        self.dim = n
        self.names = list(names)
        self.table = [[list(table[i][j]) for j in range(n)] for i in range(n)]
        nz = field.nonzero
        self._nz = [
            [[(k, c) for k, c in enumerate(self.table[i][j]) if nz(c)] for j in range(n)]
            for i in range(n)
        ]
        self._cache = {}

    def __repr__(self):
        return f"Algebra(dim {self.dim} over {self.field})"

    # -- products ----------------------------------------------------------

    def mult(self, x: list, y: list) -> list:
        """Coordinate vector of the product of two coordinate vectors."""
        f = self.field
        nz = f.nonzero
        out = [f.zero()] * self.dim
        ynz = [(j, yj) for j, yj in enumerate(y) if nz(yj)]
        for i, xi in enumerate(x):
            if not nz(xi):
                continue
            nzi = self._nz[i]
            for j, yj in ynz:
                if nzi[j]:
                    c = f.mul(xi, yj)
                    for k, t in nzi[j]:
                        out[k] = f.add(out[k], f.mul(c, t))
        return out

    def mult_map(self, x: list) -> tuple:
        """Left multiplication by x as a sparse flattened map, row-major as
        Matrix.flatten: column c is x b_c."""
        f, n = self.field, self.dim
        acc = {}
        for i, xi in enumerate(x):
            if f.nonzero(xi):
                for c in range(n):
                    for k, t in self._nz[i][c]:
                        acc[k * n + c] = f.add(acc.get(k * n + c, f.zero()), f.mul(xi, t))
        return canonical_row(f, acc)

    def left_mult_matrix(self, x: list) -> Matrix:
        n = self.dim
        return Matrix.unflatten(self.field, _dense(self.field, n * n, self.mult_map(x)), n, n)

    def left_mult_operators(self) -> list:
        """Left multiplications by every basis vector as sparse flattened maps (cached)."""
        if "left_mult_operators" not in self._cache:
            self._cache["left_mult_operators"] = [
                self.mult_map(self.basis_vector(i)) for i in range(self.dim)]
        return self._cache["left_mult_operators"]

    def basis_vector(self, i: int) -> list:
        z = self.field.zero()
        v = [z] * self.dim
        v[i] = self.field.one()
        return v

    # -- properties --------------------------------------------------------

    def product_span(self) -> Subspace:
        if "product_span" not in self._cache:
            vecs = [self.table[i][j] for i in range(self.dim) for j in range(self.dim)]
            self._cache["product_span"] = Subspace.from_vectors(self.field, self.dim, vecs)
        return self._cache["product_span"]

    def is_perfect(self) -> bool:
        return self.product_span().dim == self.dim

    def unit(self):
        """Coordinates of the two-sided unit, or None."""
        if "unit" not in self._cache:
            self._cache["unit"] = self._find_unit()
        return self._cache["unit"]

    def _find_unit(self):
        # solve L_u = id and R_u = id as a linear system in u
        f = self.field
        z, o = f.zero(), f.one()
        rows, rhs = [], []
        for j in range(self.dim):
            for k in range(self.dim):
                rows.append([self.table[i][j][k] for i in range(self.dim)])
                rhs.append(o if j == k else z)
                rows.append([self.table[j][i][k] for i in range(self.dim)])
                rhs.append(o if j == k else z)
        try:
            return solve_unique(Matrix(f, rows, self.dim), rhs)
        except SingularElement:
            return None

    def is_unital(self) -> bool:
        return self.unit() is not None

    def is_commutative(self) -> bool:
        if "commutative" not in self._cache:
            self._cache["commutative"] = all(
                self.table[i][j] == self.table[j][i]
                for i in range(self.dim)
                for j in range(i + 1, self.dim)
            )
        return self._cache["commutative"]

    def is_associative(self) -> bool:
        """(b_i b_j) b_k = b_i (b_j b_k) on every basis triple, on the sparse table."""
        if "associative" not in self._cache:
            f, n, nz = self.field, self.dim, self._nz
            by_right = [[nz[r][k] for r in range(n)] for k in range(n)]  # by_right[k][r]: b_r b_k
            self._cache["associative"] = all(
                combine_rows(f, ((c, by_right[k][r]) for r, c in nz[i][j]))
                == combine_rows(f, ((c, nz[i][r]) for r, c in nz[j][k]))
                for i in range(n) for j in range(n) for k in range(n))
        return self._cache["associative"]

    def properties(self) -> dict:
        return {
            "perfect": self.is_perfect(),
            "unital": self.is_unital(),
            "commutative": self.is_commutative(),
            "associative": self.is_associative(),
        }

    # -- serialization -----------------------------------------------------

    def to_definition(self) -> dict:
        f = self.field
        table = []
        for i in range(self.dim):
            row = []
            for j in range(self.dim):
                row.append([[k, f.format(c)] for k, c in self._nz[i][j]])
            table.append(row)
        return {
            "field": field_to_definition(f),
            "dim": self.dim,
            "basis": list(self.names),
            "table": table,
        }

    @classmethod
    def from_definition(cls, d: dict) -> "Algebra":
        try:
            field = field_from_definition(d["field"])
            n = int(d["dim"])
            names = list(d["basis"])
            raw_table = d["table"]
            if len(names) != n:
                raise ParseError(f"dim {n} but {len(names)} basis names")
            if not all(isinstance(name, str) for name in names):
                raise ParseError("basis names must be strings")
            if len(raw_table) != n:
                raise ParseError("table must have dim rows")
            z = field.zero()
            table = []
            for i in range(n):
                if len(raw_table[i]) != n:
                    raise ParseError(f"table row {i} must have dim entries")
                row = []
                for j in range(n):
                    vec = [z] * n
                    seen = set()
                    for entry in raw_table[i][j]:
                        if len(entry) != 2 or not isinstance(entry[1], str):
                            raise ParseError(
                                f"table entry at ({i},{j}) must be [index, literal]")
                        k, lit = int(entry[0]), entry[1]
                        if not 0 <= k < n:
                            raise ParseError(f"index {k} out of range at ({i},{j})")
                        if k in seen:
                            raise ParseError(f"duplicate index {k} at ({i},{j})")
                        seen.add(k)
                        vec[k] = field.parse(lit)
                    row.append(vec)
                table.append(row)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed algebra definition: {exc}")
        return cls(field, names, table)


def field_to_definition(f: FieldDescriptor) -> dict:
    if f.kind == RATIONAL:
        return {"kind": "rational"}
    if f.kind == CYCLOTOMIC:
        return {"kind": "cyclotomic", "m": f.m}
    return {"kind": "prime", "p": f.p, "m": f.m}


def field_from_definition(d: dict) -> FieldDescriptor:
    if not isinstance(d, dict):
        raise ParseError(f"a field definition is an object with a 'kind', got {d!r}")
    kind = d.get("kind")
    try:
        if kind == "rational":
            return make_field(RATIONAL)
        if kind == "cyclotomic":
            return make_field(CYCLOTOMIC, m=int(d["m"]))
        if kind == "prime":
            return make_field(PRIME, m=int(d.get("m", 1)), p=int(d["p"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed {kind} field definition: {exc}")
    raise ParseError(f"unknown field kind {kind!r}")


def tensor_product(a: Algebra, s: Algebra) -> Algebra:
    """Tensor product algebra; basis pair (i, j) sits at index i*dim(S)+j."""
    if a.field != s.field:
        raise FieldMismatch(f"{a.field} vs {s.field}")
    f = a.field
    na, ns = a.dim, s.dim
    n = na * ns
    z = f.zero()
    names = [f"{an}⊗{sn}" for an in a.names for sn in s.names]
    table = [[None] * n for _ in range(n)]
    for i1 in range(na):
        for j1 in range(ns):
            r = i1 * ns + j1
            for i2 in range(na):
                pa = a._nz[i1][i2]
                for j2 in range(ns):
                    vec = [z] * n
                    for k1, c1 in pa:
                        for k2, c2 in s._nz[j1][j2]:
                            vec[k1 * ns + k2] = f.mul(c1, c2)
                    table[r][i2 * ns + j2] = vec
    return Algebra(f, names, table)


def tensor_vector(a: Algebra, s: Algebra, x: list, y: list) -> list:
    """Coordinates of x tensor y in the tensor basis order."""
    f = a.field
    z = f.zero()
    out = []
    for xi in x:
        if not f.nonzero(xi):
            out.extend([z] * s.dim)
        else:
            out.extend(f.mul(xi, yj) for yj in y)
    return out


def subalgebra_on(a: Algebra, span: Subspace, names: list[str] | None = None):
    """Restrict the product to a subspace that must be closed under it.

    Returns (subalgebra, embedding) where the embedding matrix has the chosen
    basis vectors as columns. Raises NotClosed with a witness pair otherwise.
    """
    if span.ambient != a.dim:
        raise DimensionMismatch(f"subspace of dim-{span.ambient} space inside dim-{a.dim} algebra")
    k = span.dim
    basis = [list(r) for r in span.rows]
    table = []
    for s_idx in range(k):
        row = []
        for t_idx in range(k):
            p = a.mult(basis[s_idx], basis[t_idx])
            if not span.contains(p):
                raise NotClosed(f"product of basis vectors {s_idx} and {t_idx} leaves the subspace")
            row.append(span.coords(p))
        table.append(row)
    if names is None:
        names = [f"u{t}" for t in range(k)]
    sub = Algebra(a.field, names, table)
    embedding = Matrix(a.field, [[basis[t][r] for t in range(k)] for r in range(a.dim)], k)
    return sub, embedding


def invert_element(a: Algebra, x: list) -> list:
    """Inverse of x in a unital algebra, via the left multiplication system."""
    unit = a.unit()
    if unit is None:
        raise NotUnital()
    inv = solve_unique(a.left_mult_matrix(x), unit)
    if a.mult(inv, x) != unit:
        raise SingularElement("left inverse is not two-sided")
    return inv
