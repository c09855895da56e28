"""The dense Leibniz witness, kept as a reference for the sparse one.

This is the loop invariants.leibniz_witness used to run: n^2 dense matvecs
and 2 n^2 full algebra products, here through the dense table
(naive_la.dense_mult). Small inputs only.
"""

from naive_la import column, dense_mult, matvec


def dense_leibniz_witness(a, m):
    n = a.dim
    cols = [column(m, j) for j in range(n)]
    basis = [a.basis_vector(i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            got = matvec(m, a.table[i][j])
            left, right = dense_mult(a, cols[i], basis[j]), dense_mult(a, basis[i], cols[j])
            want = [a.field.add(x, y) for x, y in zip(left, right)]
            if got != want:
                return (i, j, got, want)
    return None
