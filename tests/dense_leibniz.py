"""The dense Leibniz witness, kept as a reference for the sparse one.

This is the loop invariants.leibniz_witness used to run: n^2 dense matvecs
and 2 n^2 full algebra products. Small inputs only.
"""

from dertensor.exactla import vec_add

from naive_la import column, matvec


def dense_leibniz_witness(a, m):
    n = a.dim
    cols = [column(m, j) for j in range(n)]
    basis = [a.basis_vector(i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            got = matvec(m, a.table[i][j])
            want = vec_add(a.field, a.mult(cols[i], basis[j]), a.mult(basis[i], cols[j]))
            if got != want:
                return (i, j, got, want)
    return None
