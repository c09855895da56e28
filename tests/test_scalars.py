from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from dertensor import exactla, scalars
from dertensor.errors import (
    CharDividesM,
    DivisionByZero,
    NoPrimitiveRoot,
    NotPrime,
    ParseError,
)
from dertensor.scalars import cyclotomic_polynomial, make_field

QQ = make_field("rational")
Z4 = make_field("cyclotomic", m=4)
F5 = make_field("prime", m=4, p=5)


def test_cyclotomic_polynomial_small_literals():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)


def test_cyclotomic_polynomial_against_sympy():
    # Phi_105 is the first with a coefficient outside {-1, 0, 1}
    x = sympy.symbols("x")
    for m in range(1, 121):
        ours = cyclotomic_polynomial(m)
        theirs = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()[::-1]
        assert list(ours) == [int(c) for c in theirs], f"m={m}"
    assert min(cyclotomic_polynomial(105)) == -2


def test_root_of_unity_kills_its_cyclotomic_polynomial():
    for m in (1, 2, 3, 4, 5, 6, 8, 12):
        fld = make_field("cyclotomic", m=m)
        mod = cyclotomic_polynomial(m)
        acc = fld.zero()
        for i, c in enumerate(mod):
            acc = fld.add(acc, fld.mul(fld.from_int(c), fld.pow(fld.omega(), i)))
        assert fld.is_zero(acc)


def test_prime_root_matches_exhaustive_search():
    # oracle: scan F_5 for elements of exact order 4
    found = [g for g in range(1, 5) if pow(g, 4, 5) == 1 and pow(g, 2, 5) != 1]
    assert found == [2, 3]
    assert F5.omega() == 2  # deterministic: smallest qualifying element


def old_prime_root_scan(m, p):
    """The exhaustive scan for the least element of order m, linear in p: the reference."""
    if m == 1:
        return 1
    qs = sympy.primefactors(m)
    for g in range(2, p):
        if pow(g, m, p) == 1 and all(pow(g, m // q, p) != 1 for q in qs):
            return g


def test_prime_root_is_the_least_of_its_order_for_every_small_field():
    for p in sympy.primerange(2, 300):
        for m in sympy.divisors(p - 1):
            assert make_field("prime", m=m, p=p).omega() == old_prime_root_scan(m, p), (p, m)


def test_prime_root_of_a_large_field_is_quick_for_few_and_for_many_roots():
    p = 2147483647
    w = make_field("prime", m=3, p=p).omega()
    assert w != 1 and pow(w, 3, p) == 1
    # order p - 1: half a billion primitive roots, the least of them found by the scan
    assert make_field("prime", m=p - 1, p=p).omega() == old_prime_root_scan(p - 1, p) == 7


def test_cyclotomic_inverse_frozen_example():
    # (1 + z)^{-1} = (1 - z)/2 in Q(z_4); cross-check by multiplying back
    one_plus = (Fraction(1), Fraction(1))
    inv = Z4.inv(one_plus)
    assert inv == (Fraction(1, 2), Fraction(-1, 2))
    assert Z4.mul(one_plus, inv) == Z4.one()


def test_omega_squared_is_minus_one_in_z4():
    assert Z4.pow(Z4.omega(), 2) == Z4.neg(Z4.one())
    assert Z4.root_of_unity(2) == Z4.neg(Z4.one())


def test_rational_roots_of_unity():
    assert QQ.root_of_unity(1) == Fraction(1)
    assert QQ.root_of_unity(2) == Fraction(-1)
    with pytest.raises(NoPrimitiveRoot, match="orders 1, 2, not 3"):
        QQ.root_of_unity(3)


@pytest.mark.parametrize("f,orders", [
    (QQ, {1, 2}),
    (make_field("cyclotomic", m=3), {1, 2, 3, 6}),
    (Z4, {1, 2, 4}),
    (make_field("prime", m=1, p=7), {1, 2}),
    (make_field("prime", m=3, p=7), {1, 2, 3, 6}),
    (make_field("prime", m=1, p=2), {1}),
], ids=["Q", "Q(zeta3)", "Q(zeta4)", "F7", "F7-m3", "F2"])
def test_every_available_root_of_unity_has_its_exact_order(f, orders):
    # the divisors of m, and of 2m when m is odd outside characteristic 2,
    # where -1 is a root of order 2 whether or not the field was declared with it
    for d in range(1, 13):
        if d not in orders:
            with pytest.raises(NoPrimitiveRoot):
                f.root_of_unity(d)
            continue
        w, one = f.root_of_unity(d), f.one()
        assert f.pow(w, d) == one
        assert all(f.pow(w, k) != one for k in range(1, d)), d


def test_make_field_accepts_exactly_the_primes():
    # a prime is the one n >= 2 whose prime factors are [n]
    for n in list(range(-2, 5000)) + list(exactla._PRIMES):
        if sympy.isprime(n):
            assert make_field("prime", m=1, p=n).p == n
        else:
            with pytest.raises(NotPrime):
                make_field("prime", m=1, p=n)


def test_make_field_validation():
    with pytest.raises(NotPrime):
        make_field("prime", m=2, p=9)
    with pytest.raises(CharDividesM):
        make_field("prime", m=5, p=5)
    with pytest.raises(NoPrimitiveRoot):
        make_field("prime", m=4, p=7)
    with pytest.raises(ParseError):
        make_field("real")


rationals = st.fractions(min_value=Fraction(-60), max_value=Fraction(60), max_denominator=12)


@st.composite
def z4_values(draw):
    return (draw(rationals), draw(rationals))


@settings(max_examples=60, deadline=None)
@given(a=rationals, b=rationals, c=rationals)
def test_rational_field_axioms(a, b, c):
    f = QQ
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == f.zero()
    if not f.is_zero(a):
        assert f.mul(a, f.inv(a)) == f.one()


@settings(max_examples=60, deadline=None)
@given(a=z4_values(), b=z4_values(), c=z4_values())
def test_cyclotomic_field_axioms(a, b, c):
    f = Z4
    assert f.mul(a, b) == f.mul(b, a)
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    if not f.is_zero(a):
        assert f.mul(a, f.inv(a)) == f.one()


@settings(max_examples=60, deadline=None)
@given(a=st.integers(0, 4), b=st.integers(0, 4), c=st.integers(0, 4))
def test_prime_field_axioms(a, b, c):
    f = F5
    assert f.mul(a, b) == f.mul(b, a)
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    if a:
        assert f.mul(a, f.inv(a)) == 1


def test_pow_handles_negative_exponents():
    assert QQ.pow(Fraction(2), -3) == Fraction(1, 8)
    assert F5.pow(2, -1) == 3
    z = Z4.omega()
    assert Z4.mul(Z4.pow(z, -1), z) == Z4.one()


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        QQ.inv(Fraction(0))
    with pytest.raises(DivisionByZero):
        Z4.inv(Z4.zero())
    with pytest.raises(DivisionByZero):
        F5.inv_int(10)


def test_parse_rational_literals():
    assert QQ.parse("-3/2") == Fraction(-3, 2)
    assert QQ.parse("+7") == Fraction(7)
    assert QQ.parse(" 4/6 ") == Fraction(2, 3)
    for bad in ("1.5", "1/-2", "a", "1/0", "", "1/2/3"):
        with pytest.raises(ParseError):
            QQ.parse(bad)


def test_parse_cyclotomic_literals():
    assert Z4.parse("[1,-1/2]") == (Fraction(1), Fraction(-1, 2))
    assert Z4.parse("[3]") == (Fraction(3), Fraction(0))
    for bad in ("1", "[1,2,3]", "[1;2]", "[", "[1,]"):
        with pytest.raises(ParseError):
            Z4.parse(bad)


def test_parse_prime_literals():
    assert F5.parse("7") == 2
    assert F5.parse("-3") == 2
    with pytest.raises(ParseError):
        F5.parse("1/2")


def test_format_parse_round_trip():
    for fld, lits in (
        (QQ, ["0", "5", "-3/2", "1000000000000000000000/7"]),
        (Z4, ["[0]", "[1,-1/2]", "[-2/3]", "[0,1]"]),
        (F5, ["0", "3"]),
    ):
        for lit in lits:
            v = fld.parse(lit)
            assert fld.parse(fld.format(v)) == v
            assert fld.format(fld.parse(fld.format(v))) == fld.format(v)


def test_big_integers_survive():
    big = Fraction(10**40 + 1, 3)
    assert QQ.mul(big, big) == Fraction((10**40 + 1) ** 2, 9)


def test_field_descriptor_identity():
    assert make_field("rational") is QQ
    assert make_field("cyclotomic", m=4) == Z4
    assert Z4 != F5
    assert F5.char == 5 and QQ.char == 0


# -- the zero test and the shared constants ---------------------------------

Z3 = make_field("cyclotomic", m=3)
Z5 = make_field("cyclotomic", m=5)
# for the norm inverse: phi(7) = 6, and the units mod 8 and mod 12 form no cyclic group
Z7 = make_field("cyclotomic", m=7)
Z8 = make_field("cyclotomic", m=8)
Z12 = make_field("cyclotomic", m=12)
F31 = make_field("prime", m=3, p=31)
small_rationals = st.sampled_from([Fraction(0)] * 4 + [Fraction(1), Fraction(-2), Fraction(3, 4)])


@st.composite
def raw_values(draw):
    """(field, raw value), with zero coefficients drawn often."""
    f = draw(st.sampled_from([QQ, F31, Z3, Z5]))
    if f is F31:
        return f, draw(st.sampled_from([0, 0, 1, 30, 17]))
    if f is QQ:
        return f, draw(small_rationals)
    return f, tuple(draw(st.lists(small_rationals, min_size=f.deg, max_size=f.deg)))


@settings(max_examples=200, deadline=None)
@given(fx=raw_values())
def test_nonzero_is_the_zero_test(fx):
    f, x = fx
    assert f.nonzero(x) == (x != f.zero())
    assert f.is_zero(x) == (x == f.zero())


def test_nonzero_sees_later_cyclotomic_coefficients():
    # zeta has first coefficient 0; the zero tuple is a nonempty tuple
    for f in (Z3, Z5):
        assert f.nonzero(f.omega())
        assert f.omega()[0] == 0
        assert not f.nonzero(f.zero())
        assert f.nonzero(f.from_int(-1))
    assert Z5.nonzero((Fraction(0), Fraction(0), Fraction(0), Fraction(1, 2)))


def test_constants_are_shared_and_never_mutated():
    for f in (QQ, F31, Z3, Z5, Z4, F5):
        z, o = f.zero(), f.one()
        assert f.zero() is z and f.one() is o
        frozen = (f.format(z), f.format(o))
        x = f.omega()
        for r in (f.add(z, x), f.sub(z, x), f.mul(o, x), f.neg(z), f.neg(o), f.pow(o, 3),
                  f.pow(x, 0), f.inv(o), f.mul(z, f.inv(o)), f.add(z, z), f.mul(z, o)):
            assert (f.format(f.zero()), f.format(f.one())) == frozen, r
        assert f.zero() is z and f.one() is o
        assert f.is_zero(z) and not f.is_zero(o)


# -- integer-first raw rationals ---------------------------------------------
#
# Over Q, and in each coefficient over Q(zeta_m), a raw value is an int when
# it is integral and a Fraction otherwise. The oracle below does the same
# arithmetic in Fraction only; the two must agree in value and in format.


def canonical(f, v):
    """Every rational in v is an int when integral, else a Fraction; never a float."""
    coeffs = v if f.kind == "cyclotomic" else (v,)
    return all(type(c) is int if Fraction(c).denominator == 1 else type(c) is Fraction
               for c in coeffs)


def ref_mul(f, a, b):
    if f.kind == "rational":
        return Fraction(a) * Fraction(b)
    d, mod = f.deg, cyclotomic_polynomial(f.m)
    out = [Fraction(0)] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += Fraction(x) * Fraction(y)
    for i in range(2 * d - 2, d - 1, -1):
        for j in range(d):
            out[i - d + j] -= out[i] * mod[j]
    return tuple(out[:d])


def ref_inv(f, a):
    if f.kind == "rational":
        return 1 / Fraction(a)
    # solve a * x = 1 by Gauss-Jordan on the matrix of multiplication by a
    d = f.deg
    cols = [ref_mul(f, a, tuple(Fraction(int(i == j)) for j in range(d))) for i in range(d)]
    aug = [[cols[j][i] for j in range(d)] + [Fraction(int(i == 0))] for i in range(d)]
    for c in range(d):
        p = next(r for r in range(c, d) if aug[r][c])
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(d):
            if r != c:
                aug[r] = [x - aug[r][c] * y for x, y in zip(aug[r], aug[c])]
    return tuple(row[d] for row in aug)


def ref_format(f, v):
    if f.kind == "rational":
        return str(v)
    coeffs = list(v)
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    return "[" + ",".join(str(c) for c in coeffs) + "]"


# integral values drawn often, as in the engine's systems
rational_inputs = st.one_of(st.integers(-9, 9).map(Fraction),
                            st.fractions(Fraction(-9), Fraction(9), max_denominator=6))


@st.composite
def field_operands(draw):
    """(field, a, b, Fraction-only a, Fraction-only b); inputs canonical or not."""
    f = draw(st.sampled_from([QQ, Z3, Z5, Z7, Z8, Z12]))
    n = 1 if f is QQ else f.deg
    qa = [draw(rational_inputs) for _ in range(n)]
    qb = [draw(rational_inputs) for _ in range(n)]
    raw = draw(st.booleans())  # hand in the Fractions themselves, integral ones too

    def value(qs):
        vs = qs if raw else [QQ.from_fraction(q) for q in qs]
        return vs[0] if f is QQ else tuple(vs)

    def ref(qs):
        return qs[0] if f is QQ else tuple(qs)

    return f, value(qa), value(qb), ref(qa), ref(qb)


def assert_matches(f, got, want):
    assert got == want
    assert canonical(f, got), got
    assert f.format(got) == ref_format(f, want)


@settings(max_examples=300, deadline=None)
@given(ops=field_operands(), n=st.integers(-3, 4))
def test_arithmetic_is_integer_first_and_agrees_with_fraction(ops, n):
    f, a, b, ra, rb = ops
    if f is QQ:
        ref = {"add": ra + rb, "sub": ra - rb, "neg": -ra}
    else:
        ref = {"add": tuple(x + y for x, y in zip(ra, rb)),
               "sub": tuple(x - y for x, y in zip(ra, rb)),
               "neg": tuple(-x for x in ra)}
    assert_matches(f, f.add(a, b), ref["add"])
    assert_matches(f, f.sub(a, b), ref["sub"])
    assert_matches(f, f.neg(a), ref["neg"])
    assert_matches(f, f.mul(a, b), ref_mul(f, ra, rb))
    if f.is_zero(a):
        with pytest.raises(DivisionByZero):
            f.inv(a)
        return
    assert_matches(f, f.inv(a), ref_inv(f, ra))
    base = ra if n >= 0 else ref_inv(f, ra)
    want = Fraction(1) if f is QQ else (Fraction(1),) + (Fraction(0),) * (f.deg - 1)
    for _ in range(abs(n)):
        want = ref_mul(f, want, base)
    assert_matches(f, f.pow(a, n), want)


@settings(max_examples=200, deadline=None)
@given(q=rational_inputs, k=st.integers(1, 4), plus=st.booleans())
def test_embedding_and_parsing_are_integer_first(q, k, plus):
    # a literal need not be in lowest terms
    num, den = q.numerator * k, q.denominator * k
    lit = ("+" if plus and num >= 0 else "") + (f"{num}/{den}" if den != 1 else f"{num}")
    for f in (QQ, Z3, Z5):
        def embedded(x):
            return Fraction(x) if f is QQ else (Fraction(x),) + (Fraction(0),) * (f.deg - 1)

        assert_matches(f, f.from_fraction(q), embedded(q))
        if q.denominator == 1:
            assert_matches(f, f.from_fraction(q.numerator), embedded(q))
        assert_matches(f, f.parse(lit if f is QQ else f"[{lit},0]"), embedded(q))
        assert_matches(f, f.from_int(num), embedded(num))


def test_constants_are_integer_first():
    for f in (QQ, Z3, Z4, Z5, make_field("cyclotomic", m=2)):
        roots = [f.root_of_unity(k) for k in range(1, f.m + 1) if f.m % k == 0]
        for v in [f.zero(), f.one(), f.omega()] + roots:
            assert canonical(f, v), (f, v)
    assert canonical(QQ, QQ.root_of_unity(2))
