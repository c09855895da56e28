"""Exact scalar arithmetic over the three supported coefficient fields.

A field is described by a FieldDescriptor of kind 'rational', 'cyclotomic',
or 'prime'. Raw values are immutable plain Python data chosen so that equal
elements compare equal with ==:

  rational    int when the value is integral, else fractions.Fraction (lowest
              terms, positive denominator, denominator > 1)
  cyclotomic  tuple of length phi(m) of such rationals, the coefficients of
              1, z, ..., z^{phi(m)-1} where z is a primitive m-th root of
              unity; reduced modulo the m-th cyclotomic polynomial
  prime       int in [0, p)

Over Q and Q(zeta_m) nearly every value the engine meets is integral, and int
arithmetic is many times cheaper than Fraction arithmetic. Every constructor
and every arithmetic result is brought to this form, so a value has exactly
one representation. An int and the equal Fraction agree in ==, hash and str,
so a stray integral Fraction handed in by a caller is still an equal input.
Every division goes through Fraction: int / int would give a float.

Over Q(zeta_m) the one polynomial operation is a product reduced modulo the
monic Phi_m. Phi_m itself is the product over the divisors d of m of
(1 - x^d)^mu(m/d), cut at degree phi(m). A nonzero a is inverted by the
Galois norm: with a scaled to integer numerators, the product of their
conjugates z -> z^k (gcd(k, m) = 1, k > 1) is rest, the numerators times rest
is the integer N(a), and a^-1 is rest / N(a) times the scale.

The descriptor owns all arithmetic on raw values; every caller works on raw
values directly.

Since raw values are immutable, the field constants zero() and one() are
built once per descriptor and shared: every call returns the same object,
and no arithmetic mutates it. The one zero test is nonzero(x): plain
truthiness over Q and F_p, any() over the coefficient tuple of Q(zeta_m).
Comparing against zero() with == gives the same answer, only slower.

No floats anywhere. Python ints are arbitrary precision, which covers the
"big integers mandatory" requirement for free.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    CharDividesM,
    DivisionByZero,
    NoPrimitiveRoot,
    NotPrime,
    ParseError,
)

RATIONAL = "rational"
CYCLOTOMIC = "cyclotomic"
PRIME = "prime"


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def euler_phi(m: int) -> int:
    phi = m
    for q in _prime_factors(m):
        phi = phi // q * (q - 1)
    return phi


_CYCLO_CACHE: dict[int, tuple[int, ...]] = {}


def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of the m-th cyclotomic polynomial, ascending.

    For m > 1, the product over the divisors d of m of (1 - x^d)^mu(m/d),
    taken in power series cut at degree phi(m); no division, no floats.
    """
    if m in _CYCLO_CACHE:
        return _CYCLO_CACHE[m]
    if m == 1:
        poly = (-1, 1)
    else:
        n = euler_phi(m)
        c = [1] + [0] * n
        # the squarefree e | m with mu(e); the factor for d = m / e
        mus = [(1, 1)]
        for q in _prime_factors(m):
            mus += [(e * q, -mu) for e, mu in mus]
        for e, mu in mus:
            d = m // e
            if mu == 1:  # times 1 - x^d
                for i in range(n, d - 1, -1):
                    c[i] -= c[i - d]
            else:  # times 1 + x^d + x^2d + ..., the inverse of 1 - x^d
                for i in range(d, n + 1):
                    c[i] += c[i - d]
        poly = tuple(c)
    assert len(poly) - 1 == euler_phi(m) and poly[-1] == 1
    _CYCLO_CACHE[m] = poly
    return poly


_RAT_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


def _canon(q):
    """The canonical raw rational: an int when q is integral, else the Fraction q."""
    if q.__class__ is int:
        return q
    return q.numerator if q.denominator == 1 else q


def _parse_rational(text: str):
    s = text.strip()
    mt = _RAT_RE.match(s)
    if not mt:
        raise ParseError("not a rational literal", text)
    num = int(mt.group(1))
    den = int(mt.group(2)) if mt.group(2) else 1
    if den == 0:
        raise ParseError("zero denominator", text)
    return _canon(Fraction(num, den))


class FieldDescriptor:
    """One coefficient field; owns parsing, formatting and raw arithmetic.

    Use make_field() rather than the constructor. Descriptors compare and
    hash by (kind, m, p), so structurally equal fields are interchangeable.
    """

    __slots__ = ("kind", "m", "p", "modulus", "deg", "nonzero", "_zero", "_one", "_omega")

    def __init__(self, kind: str, m: int, p: int | None):
        self.kind = kind
        self.m = m
        self.p = p
        if kind == CYCLOTOMIC:
            self.modulus = cyclotomic_polynomial(m)
            self.deg = len(self.modulus) - 1
        else:
            self.modulus = None
            self.deg = 1
        # the zero test: a raw value is zero exactly when nonzero(value) is False
        self.nonzero = any if kind == CYCLOTOMIC else bool
        self._zero = self.from_int(0)
        self._one = self.from_int(1)
        self._omega = None

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, FieldDescriptor)
            and (self.kind, self.m, self.p) == (other.kind, other.m, other.p)
        )

    def __hash__(self):
        return hash((self.kind, self.m, self.p))

    def __repr__(self):
        if self.kind == RATIONAL:
            return "Field(rational)"
        if self.kind == CYCLOTOMIC:
            return f"Field(cyclotomic, m={self.m})"
        return f"Field(prime, p={self.p}, m={self.m})"

    @property
    def char(self) -> int:
        return self.p if self.kind == PRIME else 0

    # -- constants ---------------------------------------------------------

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_int(self, n: int):
        if self.kind == RATIONAL:
            return n
        if self.kind == CYCLOTOMIC:
            return (n,) + (0,) * (self.deg - 1)
        return n % self.p

    def from_fraction(self, q):
        """The image of a rational q (an int or a Fraction)."""
        if self.kind == RATIONAL:
            return _canon(q)
        if self.kind == CYCLOTOMIC:
            return (_canon(q),) + (0,) * (self.deg - 1)
        # denominator inverted mod p; fails if p divides it
        den = q.denominator % self.p
        if den == 0:
            raise DivisionByZero(f"denominator of {q} vanishes mod {self.p}")
        return q.numerator * pow(den, -1, self.p) % self.p

    # -- arithmetic on raw values -----------------------------------------

    # Over Q an int result is already canonical; only a Fraction result can
    # be integral and need _canon.

    def add(self, a, b):
        if self.kind == CYCLOTOMIC:
            return tuple([_canon(x + y) for x, y in zip(a, b)])
        if self.kind == PRIME:
            return (a + b) % self.p
        r = a + b
        return r if r.__class__ is int else _canon(r)

    def sub(self, a, b):
        if self.kind == CYCLOTOMIC:
            return tuple([_canon(x - y) for x, y in zip(a, b)])
        if self.kind == PRIME:
            return (a - b) % self.p
        r = a - b
        return r if r.__class__ is int else _canon(r)

    def neg(self, a):
        if self.kind == CYCLOTOMIC:
            return tuple([_canon(-x) for x in a])
        if self.kind == PRIME:
            return -a % self.p
        return _canon(-a)

    def mul(self, a, b):
        if self.kind == CYCLOTOMIC:
            return self._cyc_mul(a, b)
        if self.kind == PRIME:
            return a * b % self.p
        r = a * b
        return r if r.__class__ is int else _canon(r)

    def inv(self, a):
        if self.is_zero(a):
            raise DivisionByZero("inverse of zero")
        if self.kind == RATIONAL:
            return _canon(Fraction(1, a))
        if self.kind == PRIME:
            return pow(a, -1, self.p)
        return self._cyc_inv(a)

    def pow(self, a, n: int):
        if n < 0:
            return self.pow(self.inv(a), -n)
        r = self.one()
        b = a
        while n:
            if n & 1:
                r = self.mul(r, b)
            b = self.mul(b, b)
            n >>= 1
        return r

    def is_zero(self, a) -> bool:
        return not self.nonzero(a)

    def inv_int(self, n: int):
        """Inverse of the image of the integer n; DivisionByZero in char p | n."""
        return self.inv(self.from_int(n))

    # -- cyclotomic internals ---------------------------------------------

    def _cyc_reduce(self, coeffs: list) -> tuple:
        # canonical tuple of coeffs reduced modulo the monic cyclotomic modulus
        d = self.deg
        mod = self.modulus
        for i in range(len(coeffs) - 1, d - 1, -1):
            c = coeffs[i]
            if c:
                for j in range(d):
                    coeffs[i - d + j] -= c * mod[j]
        coeffs = [_canon(c) for c in coeffs[:d]]
        return tuple(coeffs) + (0,) * (d - len(coeffs))

    def _cyc_mul(self, a, b):
        d = self.deg
        out = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] += x * y
        return self._cyc_reduce(out)

    def _cyc_inv(self, a):
        # a^-1 = rest / N(a) by the Galois norm, as the module docstring says
        m = self.m
        den = lcm(*[x.denominator for x in a])
        num = [x.numerator * (den // x.denominator) for x in a]
        rest = self.one()
        for k in range(2, m):
            if gcd(k, m) == 1:
                conj = [0] * m
                for i, x in enumerate(num):
                    conj[i * k % m] += x
                rest = self._cyc_mul(rest, self._cyc_reduce(conj))
        norm = self._cyc_mul(num, rest)[0]
        return tuple([_canon(Fraction(den * x, norm)) for x in rest])

    # -- roots of unity ----------------------------------------------------

    def root_of_unity(self, order: int):
        """A primitive root of unity of the given order, as a raw value:
        omega^(m/d) for d dividing m; for odd m outside characteristic 2,
        -omega has order 2m, so (-omega)^(2m/d) for d dividing 2m."""
        m = self.m
        if m % order == 0:
            return self.pow(self.omega(), m // order)
        top = 2 * m if m % 2 and self.char != 2 else m
        if top % order == 0:
            return self.pow(self.neg(self.omega()), top // order)
        orders = ", ".join(str(d) for d in range(1, top + 1) if top % d == 0)
        raise NoPrimitiveRoot(f"{self} has roots of unity of orders {orders}, not {order}")

    def omega(self):
        """The distinguished primitive m-th root of unity."""
        if self._omega is None:
            if self.kind == RATIONAL:
                self._omega = 1 if self.m == 1 else -1
            elif self.kind == CYCLOTOMIC:
                if self.deg == 1:
                    # m in {1, 2}: the root is rational
                    self._omega = (1 if self.m == 1 else -1,)
                else:
                    self._omega = (0, 1) + (0,) * (self.deg - 2)
            else:
                self._omega = self._find_prime_root()
        return self._omega

    def _find_prime_root(self) -> int:
        """The least element of order m (m divides p - 1): scanned if dense, else from one."""
        m, p = self.m, self.p
        qs, totient = _prime_factors(m), euler_phi(m)

        def of_order_m(x):
            return pow(x, m, p) == 1 and all(pow(x, m // q, p) != 1 for q in qs)

        if totient * totient > p:  # about p / totient steps
            return next(g for g in range(1, p) if of_order_m(g))
        # every element of order m is a power w^k, gcd(k, m) = 1, of any one w
        w = next(w for w in (pow(g, (p - 1) // m, p) for g in range(1, p)) if of_order_m(w))
        return min(pow(w, k, p) for k in range(1, m + 1) if gcd(k, m) == 1)

    # -- literals ----------------------------------------------------------

    def parse(self, text: str):
        s = text.strip()
        if self.kind == RATIONAL:
            return _parse_rational(s)
        if self.kind == PRIME:
            if not re.match(r"^[+-]?\d+$", s):
                raise ParseError("not a prime-field literal", text)
            return int(s) % self.p
        if not (s.startswith("[") and s.endswith("]")):
            raise ParseError("cyclotomic literal must be bracketed", text)
        body = s[1:-1].strip()
        parts = [t for t in body.split(",")] if body else []
        if len(parts) > self.deg:
            raise ParseError(f"at most {self.deg} coefficients allowed", text)
        coeffs = [_parse_rational(t) for t in parts]
        coeffs += [0] * (self.deg - len(coeffs))
        return tuple(coeffs)

    def format(self, a) -> str:
        if self.kind == RATIONAL:
            return str(a)
        if self.kind == PRIME:
            return str(a)
        coeffs = list(a)
        while len(coeffs) > 1 and not coeffs[-1]:
            coeffs.pop()
        return "[" + ",".join(str(c) for c in coeffs) + "]"


_FIELD_CACHE: dict[tuple, FieldDescriptor] = {}


def make_field(kind: str, m: int = 1, p: int | None = None) -> FieldDescriptor:
    """Build (or fetch) a field descriptor, validating its parameters."""
    if kind not in (RATIONAL, CYCLOTOMIC, PRIME):
        raise ParseError(f"unknown field kind {kind!r}")
    if kind == RATIONAL:
        m, p = 1, None
    if m < 1:
        raise ParseError(f"root order must be positive, got {m}")
    if kind == PRIME:
        if p is None or not (p >= 2 and _prime_factors(p) == [p]):
            raise NotPrime(f"{p} is not prime")
        if m % p == 0:
            raise CharDividesM(f"characteristic {p} divides root order {m}")
        if (p - 1) % m != 0:
            raise NoPrimitiveRoot(f"F_{p} has no primitive root of order {m} ({m} does not divide {p - 1})")
    key = (kind, m, p)
    if key not in _FIELD_CACHE:
        fld = FieldDescriptor(kind, m, p)
        if kind == PRIME:
            fld.omega()  # fail early if the search cannot succeed
        _FIELD_CACHE[key] = fld
    return _FIELD_CACHE[key]
