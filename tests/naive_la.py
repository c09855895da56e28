"""Deliberately naive dense linear algebra, used as a test oracle.

Textbook two-pass Gaussian elimination with explicit row swaps, structured
nothing like the production eliminator. Over Q by default, with Fractions;
over F_p when p is given, with ints reduced mod p. Small inputs only.
"""

from fractions import Fraction


def _ops(p):
    if p is None:
        return Fraction, lambda x: 1 / x
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
