"""Exponent reduction of loop elements onto the finite tensor carrier.

Tests use it to compare the Laurent carrier with the finite engine: the
reduction A (x) k[z^{+-1}] -> A (x) k[z]/(z^T - 1) sends a (x) z^n to
a (x) z^(n mod T). The engine itself never reduces.
"""

from dertensor.algebra import tensor_product
from dertensor.catalog import group_algebra
from dertensor.laurent import LoopElement

from naive_la import sparse


class LoopQuotient:
    """The reduction onto k[z]/(z^period - 1), spot-checked multiplicative."""

    def __init__(self, a, period: int):
        self.a = a
        self.period = period
        self.s = group_algebra(period, a.field)
        self.ts = tensor_product(a, self.s)
        for i, j in ((1, period - 1), (2, period + 3), (-1, 2)):
            for bi in range(min(a.dim, 2)):
                for bj in range(min(a.dim, 2)):
                    x = LoopElement.term(a, sparse(a.field, a.basis_vector(bi)), i)
                    y = LoopElement.term(a, sparse(a.field, a.basis_vector(bj)), j)
                    assert self.apply(x.mul(y)) == self.ts.mult(self.apply(x), self.apply(y))

    def apply(self, x: LoopElement) -> tuple:
        """The image in the finite tensor algebra, as a sparse row."""
        f = self.a.field
        t = self.period
        out = [f.zero()] * (self.a.dim * t)
        for e, v in x.terms():
            j = e % t
            for r, c in v:
                idx = r * t + j
                out[idx] = f.add(out[idx], c)
        return sparse(f, out)

