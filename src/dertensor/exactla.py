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

    def mul(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.nrows}x{self.ncols} times {other.nrows}x{other.ncols}")
        f = self.field
        z = f.zero()
        add, mul = f.add, f.mul
        bnz = sparse_rows(f, other.rows)
        out = []
        for arow in sparse_rows(f, self.rows):
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


def map_rows(m, n: int) -> dict:
    """Row r -> the (column, entry) pairs of row r of the sparse flattened map m with n columns."""
    rows = {}
    for rc, v in m:
        rows.setdefault(rc // n, []).append((rc % n, v))
    return rows


def sparse_kron(field, x, nx, y, ny) -> tuple:
    """The Kronecker product of the sparse flattened maps x (nx by nx) and y
    (ny by ny), flattened row-major as Matrix.flatten: row (i1, i2) is
    i1 ny + i2, and so is column (i1, i2). The one place that index is built."""
    n = nx * ny
    xr, yr = map_rows(x, nx), map_rows(y, ny)
    return tuple(((i1 * ny + i2) * n + j1 * ny + j2, field.mul(a, b)) for i1, r1 in xr.items()
                 for i2, r2 in yr.items() for j1, a in r1 for j2, b in r2)


def apply_map(field, m, n: int, x) -> list:
    """(id tensor M) x block by block, for M the sparse flattened n by n map m:
    M x when len(x) = n. Zero entries of the dense vector x are skipped."""
    add, mul, nz = field.add, field.mul, field.nonzero
    out = [field.zero()] * len(x)
    for base in range(0, len(x), n):
        for rc, v in m:
            if nz(xk := x[base + rc % n]):
                out[base + rc // n] = add(out[base + rc // n], mul(v, xk))
    return out


def compose_maps(field, x, y, n: int) -> tuple:
    """The composite x y (y applied first) of sparse flattened n by n maps:
    row r of x y sums x[r, k] times row k of y over the entries (r, k) of x."""
    yr = map_rows(y, n)
    return combine_rows(field, ((u, [(t - t % n + c, v) for c, v in yr.get(t % n, ())]) for t, u in x))


def combine_rows(field, terms) -> tuple:
    """The sparse row sum of c * row over the pairs (c, row) of sparse rows."""
    add, mul = field.add, field.mul
    acc = {}
    for c, row in terms:
        for k, b in row:
            acc[k] = add(acc[k], mul(c, b)) if k in acc else mul(c, b)
    return canonical_row(field, acc)


def canonical_row(field, acc) -> tuple:
    """A column -> value dict as a sparse row: sorted by column, zero-free."""
    nz = field.nonzero
    return tuple(sorted((c, x) for c, x in acc.items() if nz(x)))


def first_difference(x, y):
    """The least column where the sparse rows x and y differ, or None."""
    dx, dy = dict(x), dict(y)
    return min((c for c in dx.keys() | dy.keys() if dx.get(c) != dy.get(c)), default=None)


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
    seen, piv, src = set(), {}, {}  # piv: leading column -> pivot row
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


def rref_rows(field, rows, ncols):
    """Canonical RREF of a list of sparse rows: (rows, pivot columns, sources).

    The returned rows are sparse, sorted by pivot column, with pivot entries
    equal to one; zero, duplicated and rescaled rows leave no trace. This is
    the unique RREF of the row space. sources[i] indexes the first input row
    behind pivot row i. A cyclotomic system whose entries all lie in Q is
    solved over Q and embedded, as the RREF over Q is also the RREF over the
    extension; this is the one descent to Q.
    """
    if field.kind == RATIONAL:
        return _eliminate_rational(rows)
    if field.kind == PRIME:
        return _eliminate_prime(rows, field.p)
    rows = list(rows)
    if (rat := _rational_rows(field, rows)) is None:
        return _eliminate_generic(field, rows)
    red, pivots, sources = _eliminate_rational(rat)
    return [tuple((j, field.from_fraction(x)) for j, x in row) for row in red], pivots, sources


def rref(matrix: Matrix):
    f, nc = matrix.field, matrix.ncols
    rows, pivots, _ = rref_rows(f, sparse_rows(f, matrix.rows), nc)
    return Matrix(f, [_dense(f, nc, r) for r in rows], nc), tuple(pivots)


def rank(matrix: Matrix) -> int:
    return len(rref(matrix)[1])


class Subspace:
    """A subspace of field^ambient, held as the canonical RREF basis.

    Held as the sparse RREF rows (see rref_rows); `rows` builds them dense.
    """

    __slots__ = ("field", "ambient", "pivots", "_sparse")

    def __init__(self, field, ambient, sparse, pivots):
        self.field = field
        self.ambient = ambient
        self._sparse = tuple(sparse)
        self.pivots = tuple(pivots)

    @property
    def rows(self) -> tuple:
        return tuple(_dense(self.field, self.ambient, r) for r in self._sparse)

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
        red, pivots, _ = rref_rows(field, rows, ambient)
        return cls(field, ambient, red, pivots)

    @property
    def dim(self) -> int:
        return len(self._sparse)

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

    def first_outside(self, row):
        """None if the sparse row (sorted and zero-free, as _sparse and sparse_kron
        give it; any other row is outside) lies in the space, else the least
        column where it differs from its pivot entries times their basis rows."""
        at = dict(zip(self.pivots, self._sparse))
        along = combine_rows(self.field, ((x, at[c]) for c, x in row if c in at))
        return None if along == tuple(row) else first_difference(row, along)

    def contains_row(self, row) -> bool:
        """Whether a sparse row, as first_outside takes it, lies in the space."""
        return self.first_outside(row) is None

    def coords(self, vec: list) -> list:
        """Coefficients of vec in the RREF basis; NotInDomain if outside."""
        if not self.contains(vec):
            raise NotInDomain("vector not in subspace")
        return [vec[c] for c in self.pivots]

    def row_coords(self, row) -> list:
        """Coefficients in the RREF basis of a sparse row (as first_outside
        takes it), which are its entries at the pivots; NotInDomain if outside."""
        if (c := self.first_outside(row)) is not None:
            raise NotInDomain(f"row leaves the subspace at column {c}")
        at = dict(row)
        return [at.get(c, self.field.zero()) for c in self.pivots]

    def linear_combination(self, coeffs: list) -> list:
        if len(coeffs) != self.dim:
            raise DimensionMismatch(f"{len(coeffs)} coefficients for dim {self.dim}")
        return list(_dense(self.field, self.ambient, combine_rows(self.field, zip(coeffs, self._sparse))))

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
        coords = [combine_rows(f, ((x, at[c]) for c, x in row if c in at)) for row in rows]
        small = kernel_of_rows(f, coords, self.dim, tag)
        lifted = [combine_rows(f, ((x, self._sparse[k]) for k, x in v)) for v in small._sparse]
        return Subspace(f, self.ambient, lifted, [self.pivots[k] for k in small.pivots])


def _by_column(rows) -> dict:
    """Column c -> the (k, entry) pairs of every sparse row k nonzero at c."""
    at = {}
    for k, row in enumerate(rows):
        for c, x in row:
            at.setdefault(c, []).append((k, x))
    return at


def kernel_of_rows(field, rows, ncols, tag="kernel", more=None) -> Subspace:
    """Right kernel {x : M x = 0} of the system whose sparse rows are given,
    certified (see _certify).

    With more, M grows by the rows more(ker) returns until there are none;
    each round solves all of M's rows so far afresh (rref_rows), so it alone
    decides whether they are solved over Q. more replaces _certify's
    residual pass: it checks ker on the whole system M is drawn from and
    returns the rows there that ker leaves nonzero."""
    rows, one = list(rows), field.one()
    while True:
        red, pivots, sources = rref_rows(field, rows, ncols)
        # free column j: 1 at j, minus the RREF entry at column j on each pivot column
        at, pivset = _by_column(red), set(pivots)
        ker = Subspace.from_rows(field, ncols, [
            tuple((pivots[k], field.neg(x)) for k, x in at.get(j, ())) + ((j, one),)
            for j in range(ncols) if j not in pivset])
        if not (new := more and more(ker)):
            break
        rows += new
    _certify(field, () if more else rows, ker, ncols - len(pivots), [rows[i] for i in sources], tag)
    return ker


_PRIMES = (2147483647, 2147483629, 2147483587)  # the three largest primes below 2^31


def _certify(field, rows, ker, nullity, pivot_rows, tag):
    """InternalCheckFailed, naming tag and a witness, unless ker = {x : M x = 0}.

    Residual: each RREF basis vector of ker annihilates each of rows (M's,
    or none where kernel_of_rows' more checks it). For rational rows,
    completeness: pivot_rows, the input rows behind the r pivots of M's RREF,
    have rank r mod one of three primes, so rank M >= r and
    dim {x : M x = 0} <= nullity = ncols - r. Last, dim ker = nullity."""
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
                                      f"{field.format(acc[k] % p if p else acc[k])} on input row {i}")
    ints = [_integer_row(r) for r in _rational_rows(field, pivot_rows) or ()]
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
    red, pivots, _ = rref_rows(matrix.field, aug, n + 1)
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
    red, pivots, _ = rref_rows(f, aug, 2 * n)
    if list(pivots) != list(range(n)):
        raise SingularElement("matrix is singular")
    return Matrix(f, [list(_dense(f, 2 * n, row)[n:]) for row in red], n)
