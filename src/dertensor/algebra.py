"""Finite-dimensional algebras given by structure constants.

An Algebra holds a basis and one products table: _nz[i][j] is (basis i) *
(basis j) as a sparse row (see exactla), the form every element takes here.
No axioms are assumed: each hypothesis of the theorems (perfect, unital,
commutative, associative) is decided on demand by one cached method that
returns a witness of its failure, or None. Caches live on the instance and
algebras are immutable by convention, so a cached witness can never drift
from recomputation (tests clear caches and recompute to enforce this).

Operators use the column convention: the image of basis vector j is column
j. They are sparse flattened maps (see exactla), so composition is
exactla.compose_maps.

Tensor products order the basis pairs (i, j) as i * dim(S) + j. Every module
in the package relies on that single convention.
"""

from __future__ import annotations

from .errors import (
    DimensionMismatch,
    FieldMismatch,
    NotUnital,
    ParseError,
    SingularElement,
)
from .exactla import Subspace, canonical_row, combine_rows, map_rows, solve_unique
from .scalars import CYCLOTOMIC, PRIME, RATIONAL, FieldDescriptor, make_field


class Algebra:
    __slots__ = ("field", "dim", "names", "_nz", "_cache")

    def __init__(self, field: FieldDescriptor, names: list[str], table):
        """The algebra whose product b_i b_j is the dense coordinate list
        table[i][j]: a one-pass adapter onto from_products for dense tables."""
        n, nz = len(names), field.nonzero
        if len(table) != n or any(len(r) != n or any(len(v) != n for v in r) for r in table):
            raise DimensionMismatch("table must be dim x dim x dim")
        self._set(field, names, [[tuple((k, c) for k, c in enumerate(v) if nz(c)) for v in r] for r in table])

    @classmethod
    def from_products(cls, field: FieldDescriptor, names: list[str], products) -> "Algebra":
        """The algebra whose product b_i b_j is the sparse row products[i][j],
        sorted and zero-free (see exactla)."""
        self = cls.__new__(cls)
        self._set(field, names, products)
        return self

    def _set(self, field, names, products):
        n = len(names)
        if len(set(names)) != n:
            raise ParseError("basis names must be distinct")
        if len(products) != n or any(len(r) != n for r in products):
            raise DimensionMismatch("products must be dim x dim")
        self.field, self.dim, self.names = field, n, list(names)
        self._nz = [list(r) for r in products]
        self._cache = {}

    @property
    def table(self) -> tuple:
        """The dense products table, table[i][j] the coordinate tuple of
        b_i b_j: a read-only view, built on the first request and kept."""
        z, n = self.field.zero(), self.dim

        def dense(p):
            at = dict(p)
            return tuple(at.get(k, z) for k in range(n))

        return self._cached("table", lambda: tuple(tuple(map(dense, r)) for r in self._nz))

    def _cached(self, key: str, compute):
        """self._cache[key], computed by compute() on the first request."""
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def __repr__(self):
        return f"Algebra(dim {self.dim} over {self.field})"

    # -- products ----------------------------------------------------------

    def mult(self, x, y) -> tuple:
        """The product of two sparse rows, as a sparse row."""
        f, nz = self.field, self._nz
        return combine_rows(f, ((f.mul(xi, yj), nz[i][j]) for i, xi in x for j, yj in y if nz[i][j]))

    def mult_map(self, x) -> tuple:
        """Left multiplication by the sparse row x as a sparse flattened map
        (see exactla): column c is x b_c."""
        f, n = self.field, self.dim
        acc = {}
        for i, xi in x:
            for c in range(n):
                for k, t in self._nz[i][c]:
                    acc[k * n + c] = f.add(acc.get(k * n + c, f.zero()), f.mul(xi, t))
        return canonical_row(f, acc)

    def left_mult_operators(self) -> list:
        """Left multiplications by every basis vector as sparse flattened maps (cached)."""
        one = self.field.one()
        return self._cached("left_mult_operators", lambda: [self.mult_map(((i, one),)) for i in range(self.dim)])

    def basis_vector(self, i: int) -> list:
        """Basis vector i as a dense coordinate list, as the table view writes them."""
        z = self.field.zero()
        v = [z] * self.dim
        v[i] = self.field.one()
        return v

    # -- the hypotheses: each decided once, a witness of its failure or None --

    def imperfect_index(self):
        """The first basis index i with b_i not in A*A, or None when A is
        perfect: the first index that is no pivot of the product span's RREF."""
        def find():
            pivots = set(Subspace.from_rows(self.field, self.dim, [p for row in self._nz for p in row]).pivots)
            return next((i for i in range(self.dim) if i not in pivots), None)

        return self._cached("imperfect", find)

    def unit(self):
        """The two-sided unit as a sparse row, or None."""
        return self._cached("unit", self._find_unit)

    def _find_unit(self):
        # solve L_u = id and R_u = id in u: entry (k, j) of L_u = sum_i u_i L_{b_i},
        # and of R_u, row k of L_{b_j} applied to u
        n, ops = self.dim, self.left_mult_operators()
        left, one = {}, ((n, self.field.one()),)
        for i, op in enumerate(ops):
            for rc, t in op:
                left.setdefault(divmod(rc, n), []).append((i, t))
        right = {(k, j): row for j, op in enumerate(ops) for k, row in map_rows(op, n).items()}
        rows = [tuple(side.get((k, j), ())) + (one if k == j else ())
                for side in (left, right) for k in range(n) for j in range(n)]
        try:
            return _solve_vector(self.field, rows, n)
        except SingularElement:
            return None

    def noncommuting_pair(self):
        """The first pair (i, j), j < i, in row-major order with b_i b_j != b_j b_i, or None."""
        nz = self._nz
        return self._cached("noncommuting", lambda: next(
            ((i, j) for i in range(self.dim) for j in range(i) if nz[i][j] != nz[j][i]), None))

    def nonassociative_triple(self):
        """The first basis triple (i, j, k) in row-major order with
        (b_i b_j) b_k != b_i (b_j b_k), on the sparse table, or None."""
        def find():
            f, n, nz = self.field, self.dim, self._nz
            by_right = [[nz[r][k] for r in range(n)] for k in range(n)]  # by_right[k][r]: b_r b_k
            return next(((i, j, k) for i in range(n) for j in range(n) for k in range(n)
                         if combine_rows(f, ((c, by_right[k][r]) for r, c in nz[i][j]))
                         != combine_rows(f, ((c, nz[i][r]) for r, c in nz[j][k]))), None)

        return self._cached("nonassociative", find)

    def properties(self) -> dict:
        return {
            "perfect": self.imperfect_index() is None,
            "unital": self.unit() is not None,
            "commutative": self.noncommuting_pair() is None,
            "associative": self.nonassociative_triple() is None,
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
            n = json_int(d["dim"], "dim")
            names = d["basis"]
            raw_table = d["table"]
            if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
                raise ParseError(f"basis must be a list of name strings, got {names!r}")
            if len(names) != n:
                raise ParseError(f"dim {n} but {len(names)} basis names")
            if len(raw_table) != n:
                raise ParseError("table must have dim rows")
            products = []
            for i in range(n):
                if len(raw_table[i]) != n:
                    raise ParseError(f"table row {i} must have dim entries")
                row = []
                for j in range(n):
                    vec = {}
                    for entry in raw_table[i][j]:
                        if not isinstance(entry, list) or len(entry) != 2 or not isinstance(entry[1], str):
                            raise ParseError(f"table entry at ({i},{j}) must be [index, literal]")
                        k, lit = json_int(entry[0], f"table index at ({i},{j})"), entry[1]
                        if not 0 <= k < n:
                            raise ParseError(f"index {k} out of range at ({i},{j})")
                        if k in vec:
                            raise ParseError(f"duplicate index {k} at ({i},{j})")
                        vec[k] = field.parse(lit)
                    row.append(canonical_row(field, vec))
                products.append(row)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed algebra definition: {exc}")
        return cls.from_products(field, names, products)


def json_int(value, name: str) -> int:
    """value if it is a JSON integer (an int, not a bool), else ParseError naming the field."""
    if type(value) is not int:
        raise ParseError(f"{name} must be an integer, got {value!r}")
    return value


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
            return make_field(CYCLOTOMIC, m=json_int(d["m"], "cyclotomic field 'm'"))
        if kind == "prime":
            return make_field(PRIME, m=json_int(d.get("m", 1), "prime field 'm'"),
                              p=json_int(d["p"], "prime field 'p'"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed {kind} field definition: {exc}")
    raise ParseError(f"unknown field kind {kind!r}")


def tensor_product(a: Algebra, s: Algebra) -> Algebra:
    """Tensor product algebra; basis pair (i, j) sits at index i*dim(S)+j.
    One algebra per pair of objects: built once, kept in a._cache under ("tensor", s)."""
    if a.field != s.field:
        raise FieldMismatch(f"{a.field} vs {s.field}")
    key = ("tensor", s)
    if key not in a._cache:
        names = [f"{an}⊗{sn}" for an in a.names for sn in s.names]
        # row (i1, j1), column (i2, j2); a tensor of sparse products is sorted and zero-free
        products = [[tensor_vector(a, s, pa, ps) for pa in a._nz[i1] for ps in s._nz[j1]]
                    for i1 in range(a.dim) for j1 in range(s.dim)]
        a._cache[key] = Algebra.from_products(a.field, names, products)
    return a._cache[key]


def tensor_vector(a: Algebra, s: Algebra, x, y) -> tuple:
    """The sparse row of x tensor y in the tensor basis order."""
    mul, ns = a.field.mul, s.dim
    return tuple((i * ns + j, mul(xi, yj)) for i, xi in x for j, yj in y)


def _solve_vector(field, rows, n: int) -> tuple:
    """The unique x with A x = b, given the sparse rows of [A | b], as a sparse row."""
    return tuple((i, row[0][1]) for i, row in enumerate(solve_unique(field, rows, n)) if row)


def invert_element(a: Algebra, x) -> tuple:
    """Inverse of the sparse row x in a unital algebra, via the left multiplication system."""
    unit = a.unit()
    if unit is None:
        raise NotUnital("algebra has no two-sided unit")
    f, n, lx, u = a.field, a.dim, map_rows(a.mult_map(x), a.dim), dict(unit)
    inv = _solve_vector(f, [tuple(lx.get(k, ())) + (((n, u[k]),) if k in u else ()) for k in range(n)], n)
    if a.mult(inv, x) != unit:
        raise SingularElement("left inverse is not two-sided")
    return inv
