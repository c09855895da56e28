"""Dense exact linear algebra: matrices, canonical RREF, kernels, subspaces.

Everything is deterministic. RREF uses leftmost-pivot elimination, and since
the reduced row echelon form of a row space is unique, the three internal
backends (fraction-free integer elimination for rationals, mod-p, generic
field ops) cannot disagree. A Subspace is stored as the RREF of any spanning
set, so subspace equality is literal basis equality.

Matrices are lists of lists of raw field values (see scalars). They are
treated as immutable after construction; nothing here mutates a caller's
matrix.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionMismatch, FieldMismatch, NotInDomain, SingularElement
from .scalars import CYCLOTOMIC, PRIME, RATIONAL, FieldDescriptor


class Matrix:
    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: FieldDescriptor, rows: list[list], ncols: int | None = None):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        if self.nrows:
            widths = {len(r) for r in self.rows}
            if len(widths) != 1:
                raise DimensionMismatch("ragged rows")
            self.ncols = widths.pop()
            if ncols is not None and ncols != self.ncols:
                raise DimensionMismatch(f"expected {ncols} columns, got {self.ncols}")
        else:
            self.ncols = ncols or 0

    @classmethod
    def zeros(cls, field, nrows, ncols):
        z = field.zero()
        return cls(field, [[z] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero(), field.one()
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)], n)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.ncols, tuple(tuple(r) for r in self.rows)))

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field})"

    def is_zero(self) -> bool:
        z = self.field.zero()
        return all(x == z for row in self.rows for x in row)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, [list(col) for col in zip(*self.rows)] if self.nrows else [], self.nrows)

    def add(self, other: "Matrix") -> "Matrix":
        self._compat(other)
        f = self.field
        return Matrix(f, [[f.add(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)], self.ncols)

    def sub(self, other: "Matrix") -> "Matrix":
        self._compat(other)
        f = self.field
        return Matrix(f, [[f.sub(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)], self.ncols)

    def scale(self, c) -> "Matrix":
        f = self.field
        return Matrix(f, [[f.mul(c, x) for x in row] for row in self.rows], self.ncols)

    def neg(self) -> "Matrix":
        f = self.field
        return Matrix(f, [[f.neg(x) for x in row] for row in self.rows], self.ncols)

    def _compat(self, other):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch(f"{self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}")

    def mul(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.nrows}x{self.ncols} times {other.nrows}x{other.ncols}")
        f = self.field
        z = f.zero()
        bt = list(zip(*other.rows)) if other.nrows else []
        out = []
        for row in self.rows:
            orow = []
            for col in bt:
                acc = z
                for a, b in zip(row, col):
                    if a != z and b != z:
                        acc = f.add(acc, f.mul(a, b))
                orow.append(acc)
            out.append(orow)
        return Matrix(f, out, other.ncols)

    def matvec(self, vec: list) -> list:
        if len(vec) != self.ncols:
            raise DimensionMismatch(f"vector length {len(vec)} vs {self.ncols} columns")
        f = self.field
        z = f.zero()
        out = []
        for row in self.rows:
            acc = z
            for a, b in zip(row, vec):
                if a != z and b != z:
                    acc = f.add(acc, f.mul(a, b))
            out.append(acc)
        return out

    def column(self, j: int) -> list:
        return [row[j] for row in self.rows]

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product; row (i1,i2) -> i1*other.nrows + i2, same for columns."""
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        f = self.field
        z = f.zero()
        out = []
        for r1 in self.rows:
            for r2 in other.rows:
                row = []
                for a in r1:
                    if a == z:
                        row.extend([z] * other.ncols)
                    else:
                        row.extend(f.mul(a, b) for b in r2)
                out.append(row)
        return Matrix(f, out, self.ncols * other.ncols)

    def flatten(self) -> list:
        """Row-major flattening, the convention for endomorphism coordinates."""
        return [x for row in self.rows for x in row]

    @classmethod
    def unflatten(cls, field, flat: list, nrows: int, ncols: int) -> "Matrix":
        if len(flat) != nrows * ncols:
            raise DimensionMismatch(f"{len(flat)} entries for {nrows}x{ncols}")
        return cls(field, [list(flat[i * ncols : (i + 1) * ncols]) for i in range(nrows)], ncols)

    def commutator(self, other: "Matrix") -> "Matrix":
        return self.mul(other).sub(other.mul(self))


# -- vectors (plain lists of raw values) -----------------------------------


def vec_add(field, u, v):
    return [field.add(a, b) for a, b in zip(u, v)]


def vec_sub(field, u, v):
    return [field.sub(a, b) for a, b in zip(u, v)]


def vec_scale(field, c, u):
    return [field.mul(c, a) for a in u]


def vec_is_zero(field, u) -> bool:
    z = field.zero()
    return all(a == z for a in u)


# -- canonical reduced row echelon form ------------------------------------


def _int_rows(rows):
    # Fraction rows -> primitive integer rows (common denominator cleared).
    out = []
    for row in rows:
        den = 1
        for x in row:
            if x.denominator != 1:
                den = lcm(den, x.denominator)
        if den == 1:
            out.append([x.numerator for x in row])
        else:
            out.append([x.numerator * (den // x.denominator) for x in row])
    return out


def _gcd_normalize(row):
    g = 0
    for x in row:
        if x:
            g = gcd(g, x)
            if g == 1:
                return row
    if g > 1:
        return [x // g for x in row]
    return row


def _rref_rational(rows, ncols):
    piv = {}  # pivot col -> integer row
    for row in _int_rows(rows):
        for c, prow in piv.items():
            f = row[c]
            if f:
                a = prow[c]
                g = gcd(a, f)
                aa, ff = a // g, f // g
                row = [aa * x - ff * y for x, y in zip(row, prow)]
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is None:
            continue
        row = _gcd_normalize(row)
        # keep existing pivot rows reduced at the new column
        for c, prow in piv.items():
            f = prow[lead]
            if f:
                a = row[lead]
                g = gcd(a, f)
                aa, ff = a // g, f // g
                piv[c] = _gcd_normalize([aa * x - ff * y for x, y in zip(prow, row)])
        piv[lead] = row
    pivots = sorted(piv)
    out = []
    for c in pivots:
        prow = piv[c]
        a = prow[c]
        out.append([Fraction(x, a) for x in prow])
    return out, pivots


def _rref_prime(rows, ncols, p):
    piv = {}
    for row in rows:
        row = list(row)
        for c, prow in piv.items():
            f = row[c]
            if f:
                row = [(x - f * y) % p for x, y in zip(row, prow)]
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is None:
            continue
        inv = pow(row[lead], -1, p)
        row = [x * inv % p for x in row]
        for c, prow in piv.items():
            f = prow[lead]
            if f:
                piv[c] = [(x - f * y) % p for x, y in zip(prow, row)]
        piv[lead] = row
    pivots = sorted(piv)
    return [piv[c] for c in pivots], pivots


def _rref_generic(field, rows, ncols):
    z = field.zero()
    piv = {}
    for row in rows:
        row = list(row)
        for c, prow in piv.items():
            f = row[c]
            if f != z:
                row = [field.sub(x, field.mul(f, y)) for x, y in zip(row, prow)]
        lead = next((j for j, x in enumerate(row) if x != z), None)
        if lead is None:
            continue
        inv = field.inv(row[lead])
        row = [field.mul(inv, x) for x in row]
        for c, prow in piv.items():
            f = prow[lead]
            if f != z:
                piv[c] = [field.sub(x, field.mul(f, y)) for x, y in zip(prow, row)]
        piv[lead] = row
    pivots = sorted(piv)
    return [piv[c] for c in pivots], pivots


def rref_rows(field, rows, ncols):
    """RREF of a list of raw-valued rows; returns (rows, pivot columns).

    Zero rows are dropped; returned rows are sorted by pivot column with
    pivot entries equal to one. This is the unique RREF of the row space.
    """
    if field.kind == RATIONAL:
        return _rref_rational(rows, ncols)
    if field.kind == PRIME:
        return _rref_prime(rows, ncols, field.p)
    return _rref_generic(field, rows, ncols)


def rref(matrix: Matrix):
    rows, pivots = rref_rows(matrix.field, matrix.rows, matrix.ncols)
    return Matrix(matrix.field, rows, matrix.ncols), tuple(pivots)


def rank(matrix: Matrix) -> int:
    return len(rref(matrix)[1])


class Subspace:
    """A subspace of field^ambient, held as the canonical RREF basis."""

    __slots__ = ("field", "ambient", "rows", "pivots")

    def __init__(self, field, ambient, rows, pivots):
        self.field = field
        self.ambient = ambient
        self.rows = tuple(tuple(r) for r in rows)
        self.pivots = tuple(pivots)

    @classmethod
    def from_vectors(cls, field, ambient: int, vectors) -> "Subspace":
        vectors = list(vectors)
        for v in vectors:
            if len(v) != ambient:
                raise DimensionMismatch(f"vector length {len(v)} in ambient {ambient}")
        rows, pivots = rref_rows(field, vectors, ambient)
        return cls(field, ambient, rows, pivots)

    @classmethod
    def zero(cls, field, ambient: int) -> "Subspace":
        return cls(field, ambient, [], [])

    @property
    def dim(self) -> int:
        return len(self.rows)

    def basis_matrix(self) -> Matrix:
        return Matrix(self.field, [list(r) for r in self.rows], self.ambient)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.ambient, self.rows))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient})"

    def _compat(self, other):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        if self.ambient != other.ambient:
            raise DimensionMismatch(f"ambient {self.ambient} vs {other.ambient}")

    def reduce(self, vec: list) -> list:
        """Residual of vec after eliminating all pivot coordinates."""
        if len(vec) != self.ambient:
            raise DimensionMismatch(f"vector length {len(vec)} in ambient {self.ambient}")
        f = self.field
        z = f.zero()
        vec = list(vec)
        for prow, c in zip(self.rows, self.pivots):
            x = vec[c]
            if x != z:
                vec = [f.sub(a, f.mul(x, b)) for a, b in zip(vec, prow)]
        return vec

    def contains(self, vec: list) -> bool:
        return vec_is_zero(self.field, self.reduce(vec))

    def contains_subspace(self, other: "Subspace") -> bool:
        self._compat(other)
        return all(self.contains(list(r)) for r in other.rows)

    def coords(self, vec: list) -> list:
        """Coefficients of vec in the RREF basis; NotInDomain if outside."""
        if not self.contains(vec):
            raise NotInDomain("vector not in subspace")
        return [vec[c] for c in self.pivots]

    def linear_combination(self, coeffs: list) -> list:
        if len(coeffs) != self.dim:
            raise DimensionMismatch(f"{len(coeffs)} coefficients for dim {self.dim}")
        f = self.field
        z = f.zero()
        out = [z] * self.ambient
        for c, row in zip(coeffs, self.rows):
            if c != z:
                out = [f.add(a, f.mul(c, b)) for a, b in zip(out, row)]
        return out

    def sum(self, other: "Subspace") -> "Subspace":
        self._compat(other)
        return Subspace.from_vectors(self.field, self.ambient, list(self.rows) + list(other.rows))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Kernel of the stacked-basis system, mapped back into the ambient."""
        self._compat(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.field, self.ambient)
        f = self.field
        k, l = self.dim, other.dim
        cols = []
        for i in range(self.ambient):
            row = [self.rows[a][i] for a in range(k)] + [f.neg(other.rows[b][i]) for b in range(l)]
            cols.append(row)
        ker = kernel_of_rows(f, cols, k + l)
        vecs = [self.linear_combination(list(kv[:k])) for kv in ker.rows]
        return Subspace.from_vectors(f, self.ambient, vecs)


def kernel_of_rows(field, rows, ncols) -> Subspace:
    """Right kernel {x : M x = 0} of the system whose rows are given."""
    red, pivots = rref_rows(field, rows, ncols)
    pivset = set(pivots)
    free = [j for j in range(ncols) if j not in pivset]
    z, o = field.zero(), field.one()
    basis = []
    for fcol in free:
        v = [z] * ncols
        v[fcol] = o
        for prow, pc in zip(red, pivots):
            x = prow[fcol]
            if x != z:
                v[pc] = field.neg(x)
        basis.append(v)
    return Subspace.from_vectors(field, ncols, basis)


def solve_unique(matrix: Matrix, rhs: list) -> list:
    """The unique solution of M x = rhs; SingularElement if none or many."""
    if len(rhs) != matrix.nrows:
        raise DimensionMismatch(f"rhs length {len(rhs)} vs {matrix.nrows} rows")
    aug = [row + [b] for row, b in zip(matrix.rows, rhs)]
    red, pivots = rref_rows(matrix.field, aug, matrix.ncols + 1)
    if matrix.ncols in pivots:
        raise SingularElement("inconsistent linear system")
    if len(pivots) < matrix.ncols:
        raise SingularElement("underdetermined linear system")
    z = matrix.field.zero()
    x = [z] * matrix.ncols
    for prow, pc in zip(red, pivots):
        x[pc] = prow[matrix.ncols]
    return x


def invert_matrix(matrix: Matrix) -> Matrix:
    if matrix.nrows != matrix.ncols:
        raise DimensionMismatch("only square matrices invert")
    n = matrix.nrows
    eye = Matrix.identity(matrix.field, n)
    aug = [row + erow for row, erow in zip(matrix.rows, eye.rows)]
    red, pivots = rref_rows(matrix.field, aug, 2 * n)
    if list(pivots) != list(range(n)):
        raise SingularElement("matrix is singular")
    return Matrix(matrix.field, [row[n:] for row in red], n)
