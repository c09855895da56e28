"""Deliberately naive dense linear algebra, used as a test oracle.

Textbook two-pass Gaussian elimination with explicit row swaps, structured
nothing like the production eliminator. Over Q by default, with Fractions;
over F_p when p is given, with ints reduced mod p; over Q(w), w a primitive
cube root of unity, when p is Zeta3. Small inputs only.
"""

from fractions import Fraction


class Zeta3:
    """a + b w with rational a, b, where w^2 = -1 - w; its own arithmetic,
    apart from the production scalars. Zeta3(*raw) reads a raw value of
    the production field Q(zeta_3), and .raw gives it back."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = a if a.__class__ is Fraction else Fraction(a)
        self.b = b if b.__class__ is Fraction else Fraction(b)

    @staticmethod
    def _of(x):
        if isinstance(x, Zeta3):
            return x
        return Zeta3(*x) if isinstance(x, tuple) else Zeta3(x)

    def __add__(self, other):
        o = Zeta3._of(other)
        return Zeta3(self.a + o.a, self.b + o.b)

    def __sub__(self, other):
        o = Zeta3._of(other)
        return Zeta3(self.a - o.a, self.b - o.b) if o else self

    def __neg__(self):
        return Zeta3(-self.a, -self.b)

    def __mul__(self, other):
        o = Zeta3._of(other)
        if not (self and o):
            return Zeta3()
        # (a + b w)(c + d w) = ac + (ad + bc) w + bd (-1 - w)
        return Zeta3(self.a * o.a - self.b * o.b, self.a * o.b + self.b * o.a - self.b * o.b)

    def __rtruediv__(self, other):
        # 1 / (a + b w) = (a - b - b w) / (a^2 - ab + b^2), the conjugate over the norm
        norm = self.a * self.a - self.a * self.b + self.b * self.b
        return Zeta3._of(other) * Zeta3((self.a - self.b) / norm, -self.b / norm)

    def __eq__(self, other):
        o = Zeta3._of(other)
        return self.a == o.a and self.b == o.b

    def __bool__(self):
        return bool(self.a or self.b)

    @property
    def raw(self):
        return (self.a, self.b)


def _ops(p):
    if p is None:
        return Fraction, lambda x: 1 / x
    if p is Zeta3:
        return Zeta3._of, lambda x: 1 / x
    return (lambda x: int(x) % p), (lambda x: pow(x, -1, p))


def naive_rref(rows, p=None):
    num, inv = _ops(p)
    rows = [[num(x) for x in r] for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = inv(rows[r][c])
        rows[r] = [num(x * pv) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [num(a - f * b) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return [row for row in rows if any(row)], pivots


def naive_rank(rows, p=None):
    return len(naive_rref(rows, p)[1])


def naive_nullspace(rows, ncols, p=None):
    num, _ = _ops(p)
    red, pivots = naive_rref(rows, p)
    free = [c for c in range(ncols) if c not in pivots]
    out = []
    for fc in free:
        v = [num(0)] * ncols
        v[fc] = num(1)
        for row, pc in zip(red, pivots):
            v[pc] = num(-row[fc])
        out.append(v)
    return out


def naive_of(rows, p=None):
    """Rows of production raw values as the oracle's numbers."""
    num, _ = _ops(p)
    return [[num(x) for x in row] for row in rows]


def naive_combination(coeffs, rows, ncols, p=None):
    """The sum of coeffs[i] times rows[i], vectors of length ncols."""
    num, _ = _ops(p)
    out = [num(0)] * ncols
    for c, row in zip(coeffs, rows):
        out = [num(a + c * b) for a, b in zip(out, row)]
    return out


def naive_kron(x, y, p=None):
    """Kronecker product of square matrices: entry x[i1][j1] y[i2][j2] at
    row i1 len(y) + i2 and column j1 len(y) + j2."""
    num, _ = _ops(p)
    ny = len(y)
    out = [[num(0)] * (len(x) * ny) for _ in range(len(x) * ny)]
    for i1, xrow in enumerate(x):
        for j1, a in enumerate(xrow):
            for i2, yrow in enumerate(y):
                for j2, b in enumerate(yrow):
                    out[i1 * ny + i2][j1 * ny + j2] = num(num(a) * num(b))
    return out


# -- dense forms of a production Matrix, for tests that compare against them


def flatten(m):
    """Row-major flattening of a Matrix: entry (r, c) at r ncols + c."""
    return [x for row in m.rows for x in row]


def unflatten(field, flat, nrows, ncols):
    """The Matrix whose row-major flattening is flat."""
    from dertensor.exactla import Matrix

    assert len(flat) == nrows * ncols
    return Matrix(field, [list(flat[i * ncols:(i + 1) * ncols]) for i in range(nrows)], ncols)


def column(m, j):
    return [row[j] for row in m.rows]


def matvec(m, vec):
    """M vec, entry by entry in m's field."""
    f = m.field
    assert len(vec) == m.ncols
    out = []
    for row in m.rows:
        acc = f.zero()
        for a, b in zip(row, vec):
            acc = f.add(acc, f.mul(a, b))
        out.append(acc)
    return out


def matmul(x, y):
    """The product x y of two Matrix objects as a list of rows, column by column."""
    assert x.ncols == y.nrows
    cols = [matvec(x, column(y, j)) for j in range(y.ncols)]
    return [[col[r] for col in cols] for r in range(x.nrows)]


# -- the sparse row form of production vectors, for tests that build them dense


def sparse(field, vec):
    """The sparse row of a dense vector: its (index, value) pairs with a nonzero value."""
    return tuple((i, x) for i, x in enumerate(vec) if field.nonzero(x))


def dense(field, n, row):
    """The dense vector of length n whose nonzero entries are the sparse row's."""
    out = [field.zero()] * n
    for i, x in row:
        out[i] = x
    return out


def dense_mult(a, x, y):
    """The product of dense vectors x and y through the dense table of the
    algebra a: sum over i, j of x_i y_j times table[i][j], in a's field."""
    f, n = a.field, a.dim
    out = [f.zero()] * n
    for i in range(n):
        for j in range(n):
            c = f.mul(x[i], y[j])
            for k in range(n):
                out[k] = f.add(out[k], f.mul(c, a.table[i][j][k]))
    return out


def dense_reduce(space, vec):
    """vec minus vec[c] times the dense basis row of pivot c, pivot by pivot:
    the residual of a dense vector against a production Subspace."""
    f, vec = space.field, list(vec)
    for row, c in zip(space.rows, space.pivots):
        x = vec[c]
        vec = [f.sub(v, f.mul(x, b)) for v, b in zip(vec, row)]
    return vec
