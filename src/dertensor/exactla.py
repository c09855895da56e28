"""Exact linear algebra: a sparse canonical RREF, kernels, subspaces, sparse maps.

Everything is deterministic. Systems are eliminated as sparse rows with
leftmost pivots and back-substituted to the reduced row echelon form. Since
the RREF of a row space is unique, the three eliminators (fraction-free
integer elimination for rationals, mod-p, generic field ops) cannot
disagree. A Subspace is stored as the RREF of any spanning set, so subspace
equality is literal basis equality.

A vector of field^n is one sparse row: a tuple of (index, raw value) pairs,
sorted by index, with every value nonzero. The row arithmetic
(combine_rows, canonical_row) takes any sortable keys: a loop element (see
laurent) is a row keyed by (exponent, index) pairs. A linear map of field^n is one
sparse row too, flattened row-major: entry (r, c) sits at column r n + c.
Subspace.reduce is the one membership test. A Matrix, lists of lists of raw
field values (see scalars), is no input of the engine: automorphisms are
sparse maps too. It is kept for perfbench/ only, and treated as immutable
after construction.
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

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field})"


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


def map_of_columns(cols) -> tuple:
    """The sparse flattened square map whose column p is the sparse row cols[p]."""
    n = len(cols)
    return tuple(sorted((r * n + p, x) for p, col in enumerate(cols) for r, x in col))


def sparse_kron(field, x, nx, y, ny) -> tuple:
    """The Kronecker product of the sparse flattened maps x (nx by nx) and y
    (ny by ny), flattened row-major (entry (r, c) at r n + c): row (i1, i2) is
    i1 ny + i2, and so is column (i1, i2). The one place that index is built."""
    n = nx * ny
    xr, yr = map_rows(x, nx), map_rows(y, ny)
    return tuple(((i1 * ny + i2) * n + j1 * ny + j2, field.mul(a, b)) for i1, r1 in xr.items()
                 for i2, r2 in yr.items() for j1, a in r1 for j2, b in r2)


def apply_map(field, m, n: int, x) -> tuple:
    """(id tensor M) x block by block, for M the sparse flattened n by n map m
    and x a sparse row: M x when x lies in field^n. Blocks of n columns
    where x has no entry are skipped."""
    add, mul, at = field.add, field.mul, dict(x)
    acc = {}
    for base in {j - j % n for j in at}:
        for rc, v in m:
            if (xk := at.get(base + rc % n)) is not None:
                r = base + rc // n
                acc[r] = add(acc[r], mul(v, xk)) if r in acc else mul(v, xk)
    return canonical_row(field, acc)


def compose_maps(field, x, y, n: int) -> tuple:
    """The composite x y (y applied first) of sparse flattened n by n maps:
    row r of x y sums x[r, k] times row k of y over the entries (r, k) of x."""
    yr = map_rows(y, n)
    return combine_rows(field, ((u, [(t - t % n + c, v) for c, v in yr.get(t % n, ())]) for t, u in x))


def combine_rows(field, terms) -> tuple:
    """The sparse row sum of c * row over the pairs (c, row) of sparse rows,
    whose keys may be any sortable ones."""
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


def diagonal_map(field, entries) -> tuple:
    """The sparse flattened map scaling coordinate i by entries[i], an int or a raw value."""
    n = len(entries)
    return canonical_row(field, {i * n + i: field.from_int(x) if isinstance(x, int) else x
                                 for i, x in enumerate(entries)})


def first_difference(x, y):
    """The least column where the sparse rows x and y differ, or None."""
    dx, dy = dict(x), dict(y)
    return min((c for c in dx.keys() | dy.keys() if dx.get(c) != dy.get(c)), default=None)


def _dense(field, ncols, row) -> tuple:
    out = [field.zero()] * ncols
    for j, x in row:
        out[j] = x
    return tuple(out)


def _forward(rows, normal, cancel):
    """The leftmost-pivot forward pass: (piv, src), piv mapping each leading
    column to its pivot row in normal form, src to the index of the input
    row behind it. Each new row is brought to a leading column no pivot row
    owns; cancel(d, prow, x) removes the entry x that the dict row d has at
    the leading column of prow, using prow.
    """
    seen, piv, src = set(), {}, {}
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
    return piv, src


def _eliminate(rows, normal, cancel):
    """Canonical RREF of sparse rows: (rows, pivot columns, sources). The
    forward pass (_forward), then a back-substitution from the right clears
    every other pivot column. sources[i] indexes the input row that became
    pivot row i."""
    piv, src = _forward(rows, normal, cancel)
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


def _scaled(row):
    # rational pairs times the lcm of their denominators, and that lcm; int rows pass as they are
    if all(x.__class__ is int for _, x in row):
        return row, 1
    den = lcm(*(x.denominator for _, x in row))
    return tuple((j, x.numerator * (den // x.denominator)) for j, x in row), den


def _quotient(x, a):
    # x / a for ints, a > 0, as a canonical raw rational (see scalars)
    q, r = divmod(x, a)
    return Fraction(x, a) if r else q


class RawOps:
    """The raw arithmetic of a residual pass (_certify, invariants._pair_rows).

    Over Q and F_p raw values are ints and Fractions, whose own operators are
    exact and cheaper than the field's: results over F_p stay unreduced, and
    over Q each row is scaled to integers first, so no Fraction arises.
    scale(row) gives (row, its scale); read(v, s) is the raw value in the
    field of a result v on a row of scale s.
    """

    __slots__ = ("add", "sub", "mul", "zero", "nonzero", "scale", "read")

    def __init__(self, field):
        p, cyc = field.p if field.kind == PRIME else 0, field.kind == CYCLOTOMIC
        self.add, self.sub, self.mul, self.zero, self.nonzero = (
            (field.add, field.sub, field.mul, field.zero(), any) if cyc else
            (operator.add, operator.sub, operator.mul, 0, (lambda v: v % p) if p else bool))
        self.scale = _scaled if field.kind == RATIONAL else lambda row: (row, 1)
        self.read = (lambda v, s: v % p) if p else _quotient if field.kind == RATIONAL else lambda v, s: v


def _eliminate_rational(rows):
    """Fraction-free elimination over Z; the RREF over Q."""
    red, pivots, sources = _eliminate((_scaled(row)[0] for row in rows), _primitive, _cancel_int)
    out = []
    for row in red:
        a = row[0][1]
        out.append(row if a == 1 else tuple((j, _quotient(x, a)) for j, x in row))
    return out, pivots, sources


def _prime_ops(p):
    """(normal, cancel) for elimination with monic rows over F_p."""

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

    return normal, cancel


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
        return _eliminate(rows, *_prime_ops(field.p))
    rows = list(rows)
    if (rat := _rational_rows(field, rows)) is None:
        return _eliminate_generic(field, rows)
    red, pivots, sources = _eliminate_rational(rat)
    return [tuple((j, field.from_fraction(x)) for j, x in row) for row in red], pivots, sources


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

    def reduce(self, row) -> tuple:
        """The sparse row minus its pivot entries times their basis rows, as a
        sparse row: empty exactly when the row lies in the space and is
        canonical (sorted and zero-free, as _sparse gives it). A
        non-canonical member reduces to itself, so it is outside."""
        f, at = self.field, dict(zip(self.pivots, self._sparse))
        along = combine_rows(f, ((x, at[c]) for c, x in row if c in at))
        if along == tuple(row):
            return ()
        one = f.one()
        return combine_rows(f, ((one, row), (f.neg(one), along))) or tuple(row)

    def contains(self, row) -> bool:
        return not self.reduce(row)

    def coords(self, row) -> tuple:
        """The coordinates of a sparse row in the RREF basis, which are its
        entries at the pivots, as a sparse row; NotInDomain if outside."""
        if rest := self.reduce(row):
            raise NotInDomain(f"row leaves the subspace at column {rest[0][0]}")
        at = {c: k for k, c in enumerate(self.pivots)}
        return tuple((at[c], x) for c, x in row if c in at)

    def sum(self, other: "Subspace") -> "Subspace":
        self._compat(other)
        return Subspace.from_rows(self.field, self.ambient, self._sparse + other._sparse)

    def cut(self, rows, tag: str) -> "Subspace":
        """The x = sum of y_k times basis row k with r y = 0 for each sparse
        row r, each row on this space's coordinates (entry k against basis
        row k): a certified kernel (kernel_of_rows) on dim columns, lifted.
        The lift of an RREF basis through this RREF basis is in RREF too."""
        f, small = self.field, kernel_of_rows(self.field, rows, self.dim, tag)
        lifted = [combine_rows(f, ((x, self._sparse[k]) for k, x in v)) for v in small._sparse]
        return Subspace(f, self.ambient, lifted, [self.pivots[k] for k in small.pivots])


def _by_column(rows) -> dict:
    """Column c -> the (k, entry) pairs of every sparse row k nonzero at c."""
    at = {}
    for k, row in enumerate(rows):
        for c, x in row:
            at.setdefault(c, []).append((k, x))
    return at


def kernel_of_rows(field, rows, ncols, tag="kernel") -> Subspace:
    """Right kernel {x : M x = 0} of the system whose sparse rows are given,
    certified on those rows (see _certify). Each distinct row is eliminated
    once, with its columns mirrored (column c to ncols - 1 - c)."""
    rows, one, last = list(dict.fromkeys(rows)), field.one(), ncols - 1
    # eliminated mirrored, each RREF row has its pivot right of its other
    # entries, so the free-column basis below comes out in RREF itself
    red, mirrored, sources = rref_rows(field, [tuple([(last - c, x) for c, x in reversed(r)]) for r in rows], ncols)
    at, pivots = _by_column(red), [last - c for c in mirrored]
    # free column j: 1 at j, minus each RREF row's entry at j (mirrored,
    # last - j) placed at that row's pivot; rows in reverse, pivots ascend
    free = sorted(set(range(ncols)).difference(pivots))
    ker = Subspace(field, ncols, [
        ((j, one),) + tuple((pivots[k], field.neg(x)) for k, x in reversed(at.get(last - j, ()))) for j in free],
        free)
    _certify(field, rows, ker, ncols - len(pivots), [rows[i] for i in sources], tag)
    return ker


_PRIMES = (2147483647, 2147483629, 2147483587)  # the three largest primes below 2^31


def _certify(field, rows, ker, nullity, pivot_rows, tag):
    """InternalCheckFailed, naming tag and a witness, unless ker = {x : M x = 0}.

    Residual: each RREF basis vector of ker annihilates each of rows, M's
    distinct rows (a witness names its index among them). For rational
    rows, completeness: pivot_rows, the input rows behind the r pivots of
    M's RREF, have rank r mod one of three primes, so rank M >= r and
    dim {x : M x = 0} <= nullity = ncols - r. Last, dim ker = nullity."""
    raw = RawOps(field)
    add, mul, nz = raw.add, raw.mul, raw.nonzero
    scaled = [raw.scale(v) for v in ker._sparse]
    get = _by_column(v for v, _ in scaled).get
    for i, row in enumerate(rows):
        acc = {}
        for c, x in row:
            for k, b in get(c, ()):
                acc[k] = add(acc[k], mul(x, b)) if k in acc else mul(x, b)
        if acc and any(map(nz, acc.values())):
            k = min(k for k, v in acc.items() if nz(v))
            raise InternalCheckFailed(f"kernel {tag!r}: basis vector {k} leaves residual "
                                      f"{field.format(raw.read(acc[k], scaled[k][1]))} on input row {i}")
    ints = [_scaled(r)[0] for r in _rational_rows(field, pivot_rows) or ()]
    ranks = (len(_forward([tuple((j, x % q) for j, x in r if x % q) for r in ints], *_prime_ops(q))[0])
             for q in _PRIMES)
    if ints and all(r < len(ints) for r in ranks):  # stops at the first prime of full rank
        raise InternalCheckFailed(f"kernel {tag!r}: the {len(ints)} input rows behind the pivots "
                                  f"are dependent mod each of {_PRIMES}")
    if ker.dim != nullity or len({row[0][0] for row in ker._sparse}) != nullity:
        raise InternalCheckFailed(f"kernel {tag!r}: {ker.dim} basis vectors for nullity {nullity}")


def solve_unique(field, rows, n: int, k: int = 1) -> list:
    """The sparse rows of the unique X with A X = B, given the sparse rows of
    [A | B] (A with n columns, B with k); SingularElement if none or many."""
    red, pivots, _ = rref_rows(field, rows, n + k)
    if pivots and pivots[-1] >= n:
        raise SingularElement("inconsistent linear system")
    if len(pivots) < n:
        raise SingularElement("underdetermined linear system")
    # pivot row i is 1 at column i, and every other column of A is a pivot
    return [tuple((j - n, x) for j, x in row[1:]) for row in red]


def invert_map(field, m, n: int) -> tuple:
    """The inverse of the sparse flattened n by n map m: solve_unique against the identity."""
    rows, one = map_rows(m, n), field.one()
    x = solve_unique(field, [tuple(rows.get(r, ())) + ((n + r, one),) for r in range(n)], n, n)
    return tuple((r * n + c, v) for r, row in enumerate(x) for c, v in row)
