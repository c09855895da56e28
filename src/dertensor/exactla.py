"""Exact linear algebra: matrices, a sparse canonical RREF, kernels, subspaces.

Everything is deterministic. Systems are eliminated as sparse rows with
leftmost pivots and back-substituted to the reduced row echelon form. Since
the RREF of a row space is unique, the three eliminators (fraction-free
integer elimination for rationals, mod-p, generic field ops) cannot
disagree. A Subspace is stored as the RREF of any spanning set, so subspace
equality is literal basis equality.

Matrices are lists of lists of raw field values (see scalars). They are
treated as immutable after construction; nothing here mutates a caller's
matrix.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionMismatch, FieldMismatch, InternalCheckFailed, NotInDomain, SingularElement
from .scalars import CYCLOTOMIC, PRIME, RATIONAL, FieldDescriptor, make_field


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

    def _compat(self, other):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch(f"{self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}")

    def _nonzeros(self) -> list[list]:
        nz = self.field.nonzero
        return [[(k, x) for k, x in enumerate(row) if nz(x)] for row in self.rows]

    def mul(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.nrows}x{self.ncols} times {other.nrows}x{other.ncols}")
        f = self.field
        z = f.zero()
        add, mul = f.add, f.mul
        bnz = other._nonzeros()
        out = []
        for arow in self._nonzeros():
            orow = [z] * other.ncols
            for k, a in arow:
                for j, b in bnz[k]:
                    orow[j] = add(orow[j], mul(a, b))
            out.append(orow)
        return Matrix(f, out, other.ncols)

    def matvec(self, vec: list) -> list:
        if len(vec) != self.ncols:
            raise DimensionMismatch(f"vector length {len(vec)} vs {self.ncols} columns")
        f = self.field
        z, nz = f.zero(), f.nonzero
        vnz = [(k, b) for k, b in enumerate(vec) if nz(b)]
        out = []
        for row in self.rows:
            acc = z
            for k, b in vnz:
                a = row[k]
                if nz(a):
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
                    if not f.nonzero(a):
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


# -- vectors (plain lists of raw values) -----------------------------------


def vec_add(field, u, v):
    return [field.add(a, b) for a, b in zip(u, v)]


def vec_sub(field, u, v):
    return [field.sub(a, b) for a, b in zip(u, v)]


def vec_scale(field, c, u):
    return [field.mul(c, a) for a in u]


def vec_is_zero(field, u) -> bool:
    return not any(map(field.nonzero, u))


# -- sparse rows and the canonical reduced row echelon form ----------------
#
# A sparse row is a tuple of (column, raw value) pairs, sorted by column, with
# every value nonzero. Each field kind supplies two operations on such rows:
# `normal`, which picks the canonical multiple of a row (primitive integer
# row with a positive leading entry over Q, monic otherwise), and `cancel`,
# which clears one column of a working row against a pivot row. The
# eliminator dedups normalised rows, so duplicated and rescaled rows are
# dropped before any elimination.


def sparse_rows(field, vectors) -> list[tuple]:
    """Dense vectors as sparse rows: the (column, value) pairs of nonzero entries."""
    nz = field.nonzero
    return [tuple((j, x) for j, x in enumerate(v) if nz(x)) for v in vectors]


def _dense(field, ncols, row) -> tuple:
    out = [field.zero()] * ncols
    for j, x in row:
        out[j] = x
    return tuple(out)


def _eliminate(rows, normal, cancel):
    """Canonical RREF of sparse rows: (rows, pivot columns, sources).

    A leftmost-pivot forward pass brings each new row to a leading column no
    pivot row owns, then a back-substitution from the right clears every
    other pivot column. cancel(d, prow, x) removes the entry x that the dict
    row d has at the leading column of prow, using prow. Rows come out in
    normal form; sources[i] indexes the input row that became pivot row i.
    """
    seen = set()
    piv = {}  # leading column -> pivot row
    src = {}  # leading column -> index of the input row it came from
    for i, row in enumerate(rows):
        if not row or row in seen:
            continue
        row, raw = normal(row), row
        if row in seen:  # tested before raw joins seen, as raw may be normal already
            continue
        seen.update((raw, row))
        lead = row[0][0]
        if lead in piv:
            d = dict(row)
            while lead in piv:
                cancel(d, piv[lead], d[lead])
                if not d:
                    break
                lead = min(d)
            if not d:
                continue
            row = normal(tuple(sorted(d.items())))
        piv[lead] = row
        src[lead] = i
    pivots = sorted(piv)
    red = {}
    for c in reversed(pivots):
        row = piv[c]
        hits = [j for j, _ in row[1:] if j in red]
        if hits:
            d = dict(row)
            for j in hits:
                cancel(d, red[j], d[j])
            row = normal(tuple(sorted(d.items())))
        red[c] = row
    return [red[c] for c in pivots], pivots, [src[c] for c in pivots]


def _primitive(row):
    # integer pairs divided by their content, leading entry made positive
    g = gcd(*(x for _, x in row))
    if row[0][1] < 0:
        g = -g
    if g == 1:
        return row
    return tuple((j, x // g) for j, x in row)


def _cancel_int(d, prow, x):
    # d <- a d - x prow over Z, a the leading entry of prow, both divided by gcd(a, x)
    a = prow[0][1]
    if a != 1:
        g = gcd(a, x)
        a, x = a // g, x // g
        if a != 1:
            for j in d:
                d[j] *= a
    for j, y in prow:
        v = d.get(j, 0) - x * y
        if v:
            d[j] = v
        else:
            del d[j]


def _integer_row(row):
    # rational pairs times the lcm of their denominators; int rows pass as they are
    if all(x.__class__ is int for _, x in row):
        return row
    den = lcm(*(x.denominator for _, x in row))
    return tuple((j, x.numerator * (den // x.denominator)) for j, x in row)


def _quotient(x, a):
    # x / a for ints, a > 0, as a canonical raw rational (see scalars)
    q, r = divmod(x, a)
    return Fraction(x, a) if r else q


def _eliminate_rational(rows):
    """Fraction-free elimination over Z; the RREF over Q."""
    red, pivots, sources = _eliminate(map(_integer_row, rows), _primitive, _cancel_int)
    out = []
    for row in red:
        a = row[0][1]
        out.append(row if a == 1 else tuple((j, _quotient(x, a)) for j, x in row))
    return out, pivots, sources


def _eliminate_prime(rows, p):
    """Elimination with monic rows over F_p."""

    def normal(row):
        a = row[0][1]
        if a == 1:
            return row
        inv = pow(a, -1, p)
        return tuple((j, x * inv % p) for j, x in row)

    def cancel(d, prow, x):
        for j, y in prow:
            v = (d.get(j, 0) - x * y) % p
            if v:
                d[j] = v
            else:
                del d[j]

    return _eliminate(rows, normal, cancel)


def _eliminate_generic(field, rows):
    """Elimination with monic rows through the field's own arithmetic."""
    z, one, nz = field.zero(), field.one(), field.nonzero
    sub, mul = field.sub, field.mul

    def normal(row):
        a = row[0][1]
        if a == one:
            return row
        inv = field.inv(a)
        return tuple((j, mul(inv, x)) for j, x in row)

    def cancel(d, prow, x):
        for j, y in prow:
            v = sub(d.get(j, z), mul(x, y))
            if nz(v):
                d[j] = v
            else:
                del d[j]

    return _eliminate(rows, normal, cancel)


def _rational_rows(field, rows):
    """The rows if every entry lies in Q, as rational rows; else None."""
    if field.kind == RATIONAL:
        return rows
    if field.kind == CYCLOTOMIC and all(not any(x[1:]) for row in rows for _, x in row):
        return [tuple((j, x[0]) for j, x in row) for row in rows]


class _Echelon(tuple):
    """The pair (rows, pivots), with .sources: the input row behind each pivot row."""

    def __new__(cls, rows, pivots, sources):
        self = tuple.__new__(cls, (rows, pivots))
        self.sources = sources
        return self


def rref_rows(field, rows, ncols):
    """Canonical RREF of a list of sparse rows; returns (rows, pivot columns).

    The returned rows are sparse, sorted by pivot column, with pivot entries
    equal to one; zero, duplicated and rescaled rows leave no trace. This is
    the unique RREF of the row space. A cyclotomic system whose entries all
    lie in Q is solved over Q and embedded: the RREF over Q is also the RREF
    over the extension. The pair also carries `sources` (see _Echelon).
    """
    if field.kind == RATIONAL:
        return _Echelon(*_eliminate_rational(rows))
    if field.kind == PRIME:
        return _Echelon(*_eliminate_prime(rows, field.p))
    rows = list(rows)
    rat = _rational_rows(field, rows)
    if rat is None:
        return _Echelon(*_eliminate_generic(field, rows))
    red, pivots, sources = _eliminate_rational(rat)
    return _Echelon([tuple((j, field.from_fraction(x)) for j, x in row) for row in red], pivots, sources)


def rref(matrix: Matrix):
    f, nc = matrix.field, matrix.ncols
    rows, pivots = rref_rows(f, sparse_rows(f, matrix.rows), nc)
    return Matrix(f, [_dense(f, nc, r) for r in rows], nc), tuple(pivots)


def rank(matrix: Matrix) -> int:
    return len(rref(matrix)[1])


class Subspace:
    """A subspace of field^ambient, held as the canonical RREF basis.

    Built from the sparse RREF rows (see rref_rows); `rows` holds them dense.
    """

    __slots__ = ("field", "ambient", "rows", "pivots", "_sparse")

    def __init__(self, field, ambient, sparse, pivots):
        self.field = field
        self.ambient = ambient
        self._sparse = tuple(sparse)
        self.rows = tuple(_dense(field, ambient, r) for r in self._sparse)
        self.pivots = tuple(pivots)

    @classmethod
    def from_vectors(cls, field, ambient: int, vectors) -> "Subspace":
        vectors = list(vectors)
        for v in vectors:
            if len(v) != ambient:
                raise DimensionMismatch(f"vector length {len(v)} in ambient {ambient}")
        return cls.from_rows(field, ambient, sparse_rows(field, vectors))

    @classmethod
    def from_rows(cls, field, ambient: int, rows) -> "Subspace":
        """The span of sparse rows (see rref_rows)."""
        red, pivots = rref_rows(field, rows, ambient)
        return cls(field, ambient, red, pivots)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient == other.ambient
            and self._sparse == other._sparse
        )

    def __hash__(self):
        return hash((self.field, self.ambient, self._sparse))

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
        nz = f.nonzero
        vec = list(vec)
        for prow, c in zip(self._sparse, self.pivots):
            x = vec[c]
            if nz(x):
                for j, b in prow:
                    vec[j] = f.sub(vec[j], f.mul(x, b))
        return vec

    def contains(self, vec: list) -> bool:
        return vec_is_zero(self.field, self.reduce(vec))

    def coords(self, vec: list) -> list:
        """Coefficients of vec in the RREF basis; NotInDomain if outside."""
        if not self.contains(vec):
            raise NotInDomain("vector not in subspace")
        return [vec[c] for c in self.pivots]

    def linear_combination(self, coeffs: list) -> list:
        if len(coeffs) != self.dim:
            raise DimensionMismatch(f"{len(coeffs)} coefficients for dim {self.dim}")
        f = self.field
        out = [f.zero()] * self.ambient
        for c, row in zip(coeffs, self._sparse):
            if f.nonzero(c):
                for j, b in row:
                    out[j] = f.add(out[j], f.mul(c, b))
        return out

    def sum(self, other: "Subspace") -> "Subspace":
        self._compat(other)
        return Subspace.from_rows(self.field, self.ambient, self._sparse + other._sparse)

    def intersect(self, other: "Subspace") -> "Subspace":
        """The x in self that other's reduction (see reduce) leaves zero."""
        self._compat(other)
        f, at, piv = self.field, _by_column(other._sparse), set(other.pivots)
        rows = [[(c, f.one())] + [(other.pivots[k], f.neg(b)) for k, b in at.get(c, ())]
                for c in range(self.ambient) if c not in piv]
        return self.cut(rows, "intersection")

    def cut(self, rows, tag: str) -> "Subspace":
        """{x in self : r x = 0 for each sparse row r}, solved on this space's
        coordinates (a row on the pivot columns alone reads them directly).
        The lift of an RREF basis through this RREF basis is in RREF too."""
        f, at = self.field, _by_column(self._sparse)
        small = kernel_of_rows(f, [_combine(f, row, at) for row in rows], self.dim, tag)
        lifted = [_combine(f, v, dict(enumerate(self._sparse))) for v in small._sparse]
        return Subspace(f, self.ambient, lifted, [self.pivots[k] for k in small.pivots])


def _by_column(rows) -> dict:
    """Column c -> the (k, entry) pairs of every sparse row k nonzero at c."""
    at = {}
    for k, row in enumerate(rows):
        for c, x in row:
            at.setdefault(c, []).append((k, x))
    return at


def _combine(field, pairs, at) -> tuple:
    """The sparse sum of x * at[i] over the pairs (i, x); at maps i to sparse pairs."""
    add, mul = field.add, field.mul
    acc = {}
    for i, x in pairs:
        for k, b in at.get(i, ()):
            acc[k] = add(acc[k], mul(x, b)) if k in acc else mul(x, b)
    return tuple(sorted((k, v) for k, v in acc.items() if field.nonzero(v)))


def kernel_of_rows(field, rows, ncols, tag="kernel") -> Subspace:
    """Right kernel {x : M x = 0} of the system whose sparse rows are given,
    certified (see _certify). A rational system over Q(zeta_m) is solved and
    certified over Q, then embedded (see rref_rows)."""
    rows = list(rows)
    rat = _rational_rows(field, rows) if field.kind == CYCLOTOMIC else None
    if rat is not None:
        ker, emb = kernel_of_rows(_QQ, rat, ncols, tag), field.from_fraction
        return Subspace(field, ncols, [tuple((j, emb(x)) for j, x in r) for r in ker._sparse], ker.pivots)
    red, pivots = ech = rref_rows(field, rows, ncols)
    # free column j: 1 at j, minus the RREF entry at column j on each pivot column
    at, pivset, one = _by_column(red), set(pivots), field.one()
    ker = Subspace.from_rows(field, ncols, [
        tuple((pivots[k], field.neg(x)) for k, x in at.get(j, ())) + ((j, one),)
        for j in range(ncols) if j not in pivset])
    _certify(field, rows, ker, ncols - len(pivots), ech.sources, tag)
    return ker


_QQ = make_field("rational")
_PRIMES = (2147483647, 2147483629, 2147483587)  # the three largest primes below 2^31


def _certify(field, rows, ker, nullity, sources, tag):
    """InternalCheckFailed, naming tag and a witness, unless ker = {x : M x = 0}.

    Residual: each RREF basis vector of ker annihilates each input row. Over
    Q, completeness: the input rows behind the r pivots of M's RREF (sources)
    have rank r mod one of three primes, so rank M >= r and dim {x : M x = 0}
    <= nullity = ncols - r. Last, dim ker = nullity."""
    p = field.p if field.kind == PRIME else 0
    # raw values over Q and F_p are ints and Fractions, whose own arithmetic is exact and cheaper
    add, mul, nz = ((field.add, field.mul, field.nonzero) if field.kind == CYCLOTOMIC
                    else (operator.add, operator.mul, (lambda v: v % p) if p else bool))
    get = _by_column(ker._sparse).get
    for i, row in enumerate(rows):
        acc = {}
        for c, x in row:
            for k, b in get(c, ()):
                acc[k] = add(acc[k], mul(x, b)) if k in acc else mul(x, b)
        if acc and any(map(nz, acc.values())):
            k = min(k for k, v in acc.items() if nz(v))
            raise InternalCheckFailed(f"kernel {tag!r}: basis vector {k} leaves residual "
                                      f"{nz(acc[k]) if p else acc[k]} on input row {i}")
    ints = [_integer_row(rows[i]) for i in sources] if field.kind == RATIONAL else ()
    ranks = (len(_eliminate_prime([tuple((j, x % q) for j, x in r if x % q) for r in ints], q)[1])
             for q in _PRIMES)
    if ints and all(r < len(ints) for r in ranks):  # stops at the first prime of full rank
        raise InternalCheckFailed(f"kernel {tag!r}: the {len(ints)} input rows behind the pivots "
                                  f"are dependent mod each of {_PRIMES}")
    if ker.dim != nullity or len({row[0][0] for row in ker._sparse}) != nullity:
        raise InternalCheckFailed(f"kernel {tag!r}: {ker.dim} basis vectors for nullity {nullity}")


def solve_unique(matrix: Matrix, rhs: list) -> list:
    """The unique solution of M x = rhs; SingularElement if none or many."""
    if len(rhs) != matrix.nrows:
        raise DimensionMismatch(f"rhs length {len(rhs)} vs {matrix.nrows} rows")
    n = matrix.ncols
    aug = sparse_rows(matrix.field, [row + [b] for row, b in zip(matrix.rows, rhs)])
    red, pivots = rref_rows(matrix.field, aug, n + 1)
    if n in pivots:
        raise SingularElement("inconsistent linear system")
    if len(pivots) < n:
        raise SingularElement("underdetermined linear system")
    return [dict(prow).get(n, matrix.field.zero()) for prow in red]


def invert_matrix(matrix: Matrix) -> Matrix:
    if matrix.nrows != matrix.ncols:
        raise DimensionMismatch("only square matrices invert")
    n = matrix.nrows
    f = matrix.field
    eye = Matrix.identity(f, n)
    aug = sparse_rows(f, [row + erow for row, erow in zip(matrix.rows, eye.rows)])
    red, pivots = rref_rows(f, aug, 2 * n)
    if list(pivots) != list(range(n)):
        raise SingularElement("matrix is singular")
    return Matrix(f, [list(_dense(f, 2 * n, row)[n:]) for row in red], n)
