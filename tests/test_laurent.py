"""Laurent model: sparse arithmetic, both extension formulas, quotient bridge.

The quotient bridge (tests/loop_quotient.py) reduces loop elements onto the
finite carrier, so the two carriers can be compared.

The values frozen here are the ones that separate the two extension
formulas on the genuine Laurent carrier, where no power of z collapses:
the earlier published formula produces 4(1 (x) z^5) against 0 on a product,
while the inverse-map formula satisfies the product rule and fixes the
degree-zero part pointwise.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dertensor import cli, laurent
from dertensor.catalog import group_algebra, sl2, sl2_sign_automorphism, sl2_twisted_flagship
from dertensor.decomposition import Setup, bm_formula_extend, extend_phi, phi_formula
from dertensor.errors import (
    DimensionMismatch,
    FieldMismatch,
    HypothesisNotMet,
    NotInDomain,
    ParseError,
)
from dertensor.exactla import apply_map, diagonal_map, map_of_columns
from dertensor.gradings import check_automorphism
from dertensor.laurent import (
    FORWARD,
    INVERSE,
    LoopElement,
    _Loop,
    _loop_map,
    coefficient_derivation,
    graded_component,
    loop_bm,
    loop_phi,
    parse_laurent,
)
from dertensor.scalars import make_field
from loop_quotient import LoopQuotient
from naive_la import dense_mult, sparse

Q = make_field("rational")
# k<1>: its loop elements are the Laurent polynomials
LINE = group_algebra(1, Q)


def zmon(exp, coeff=None):
    return LoopElement.term(LINE, [(0, Q.one() if coeff is None else coeff)], exp)


@pytest.fixture(scope="module")
def scalar_line():
    """The one-dimensional unital carrier used by the scalar examples."""
    return LINE


def identity_twist(a, m):
    return check_automorphism(a, diagonal_map(a.field, [1] * a.dim), m)


def unit_line(a, exp, coeff=None):
    return LoopElement.term(a, [(0, Q.one() if coeff is None else coeff)], exp)


def basis_term(a, i, exp):
    """Basis vector i of a times z^exp."""
    return LoopElement.term(a, sparse(a.field, a.basis_vector(i)), exp)


# -- sparse arithmetic ------------------------------------------------------


def test_monomials_multiply_by_adding_exponents(scalar_line):
    assert unit_line(scalar_line, 2).mul(unit_line(scalar_line, 3)) == unit_line(scalar_line, 5)


def test_inverse_monomial_is_ordinary_element(scalar_line):
    x = unit_line(scalar_line, 1).add(unit_line(scalar_line, -1))
    want = unit_line(scalar_line, 2).add(unit_line(scalar_line, 0))
    assert x.mul(unit_line(scalar_line, 1)) == want


def test_cancellation_empties_the_support():
    x = zmon(1).sub(zmon(1))
    assert x.row == ()


def test_field_mismatch_rejected():
    other = make_field("prime", m=2, p=3)
    with pytest.raises(FieldMismatch):
        zmon(1).add(LoopElement.term(group_algebra(1, other), [(0, other.one())], 1))


def test_derivative_and_shift(scalar_line):
    # d/dz on z^-2 and the constant term
    x = unit_line(scalar_line, -2).add(unit_line(scalar_line, 0))
    assert x.s_derivative(zmon(0)) == zmon(-3, Q.from_int(-2))
    assert x.mul(zmon(2)) == unit_line(scalar_line, 0).add(unit_line(scalar_line, 2))


def test_coefficient_derivation_action(scalar_line):
    # exponents 3 and 1 are both 1 mod 2, so (z^3 + z) d/dz fixes degree zero
    d = coefficient_derivation(zmon(3).add(zmon(1)), 2)
    two = Q.from_int(2)
    got = d(unit_line(scalar_line, 2))
    assert got == unit_line(scalar_line, 4, two).add(unit_line(scalar_line, 2, two))
    assert d(unit_line(scalar_line, 0)).is_zero()


def test_graded_component_styles():
    assert graded_component(5, 4, FORWARD) == 1
    assert graded_component(0, 4, FORWARD) == 0
    assert graded_component(0, 4, INVERSE) == 0
    # inverse style: z^-i and z^{m-i} share a class
    assert graded_component(-3, 4, INVERSE) == graded_component(1, 4, INVERSE) == 3
    with pytest.raises(ParseError):
        graded_component(1, 4, "sideways")


# -- the row arithmetic against a dict-of-exponents reference ---------------
#
# The reference keeps a loop element as exponent -> dense coefficient list
# and multiplies through the dense table (naive_la.dense_mult).

F5 = make_field("prime", m=4, p=5)
ALGEBRAS = [sl2(Q), sl2(F5), LINE, group_algebra(1, F5)]
ENTRIES = st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 2), st.integers(-3, 3)), max_size=5)


def ref_of(a, entries):
    """The sum of c b_i z^e over the (e, i, c) entries, i taken mod dim a."""
    f, out = a.field, {}
    for e, i, c in entries:
        v = out.setdefault(e, [f.zero()] * a.dim)
        v[i % a.dim] = f.add(v[i % a.dim], f.from_int(c))
    return out


def ref_terms(f, ref):
    """What terms() must give: (exponent, sparse row) for each nonzero coefficient."""
    return [(e, sparse(f, v)) for e, v in sorted(ref.items()) if sparse(f, v)]


def loop_of(a, ref):
    return LoopElement(a, tuple(((e, i), c) for e, v in ref_terms(a.field, ref) for i, c in v))


def ref_plus(f, x, y, c):
    """x + c y."""
    out = {e: list(v) for e, v in x.items()}
    for e, v in y.items():
        w = out.get(e, [f.zero()] * len(v))
        out[e] = [f.add(p, f.mul(c, q)) for p, q in zip(w, v)]
    return out


def ref_mul(a, x, y):
    out = {}
    for e1, v1 in x.items():
        for e2, v2 in y.items():
            out = ref_plus(a.field, out, {e1 + e2: dense_mult(a, v1, v2)}, a.field.one())
    return out


def ref_s_derivative(f, x, p):
    """p(z) d/dz on x, for p an exponent -> coefficient-list map of k<1>."""
    out = {}
    for e, v in x.items():
        for pe, (pc,) in p.items():
            out = ref_plus(f, out, {e - 1 + pe: v}, f.mul(f.from_int(e), pc))
    return out


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(ALGEBRAS), ENTRIES, ENTRIES, st.booleans(), ENTRIES,
       st.integers(-2, 2), st.integers(-2, 2), st.integers(-3, 3), st.integers(1, 4))
@example(ALGEBRAS[1], [(-2, 0, 1), (1, 2, 3)], [], True, [(1, 0, 1)], 1, 1, 0, 2)
@example(ALGEBRAS[0], [(-1, 1, 2), (-1, 0, 1), (2, 2, -3)], [(-1, 1, 1)], True, [(0, 0, 1), (-2, 0, 3)],
         -1, -1, 2, 3)
def test_row_arithmetic_matches_the_exponent_reference(a, xs, ys, cancel, ps, t, ue, b, uc):
    f = a.field
    one = f.one()
    # with cancel, y holds -x among its terms, so x + y cancels x's terms
    ys = ys + [(e, i, -c) for e, i, c in xs] if cancel else ys
    rx, ry = ref_of(a, xs), ref_of(a, ys)
    x, y = loop_of(a, rx), loop_of(a, ry)
    assert x.terms() == ref_terms(f, rx)
    assert x.add(y).terms() == ref_terms(f, ref_plus(f, rx, ry, one))
    assert x.sub(y).terms() == ref_terms(f, ref_plus(f, rx, ry, f.neg(one)))
    assert x.sub(x).is_zero() and x.sub(x).terms() == []
    assert x.mul(y).terms() == ref_terms(f, ref_mul(a, rx, ry))
    line = group_algebra(1, f)
    rp = ref_of(line, ps)
    assert x.s_derivative(loop_of(line, rp)).terms() == ref_terms(f, ref_s_derivative(f, rx, rp))
    # scaling: the Laurent carrier multiplies by U^t z^b, U = uc z^ue
    c, k = f.pow(f.from_int(uc), t), t * ue + b
    scaled = {e + k: [f.mul(c, q) for q in v] for e, v in rx.items()}
    assert LoopElement(a, _Loop(4, f, (ue, f.from_int(uc))).act(x.row, t, b)).terms() == ref_terms(f, scaled)


# -- loop elements ----------------------------------------------------------


def test_loop_product_uses_carrier_bracket():
    a = sl2(Q)
    e = basis_term(a, 0, 1)
    f_ = basis_term(a, 2, -1)
    assert e.mul(f_) == basis_term(a, 1, 0)


def test_loop_normalization_drops_zero_vectors(scalar_line):
    x = unit_line(scalar_line, 3)
    assert x.sub(x).is_zero()
    assert x.sub(x).terms() == []


def test_loop_carrier_mismatch(scalar_line):
    with pytest.raises(FieldMismatch):
        unit_line(scalar_line, 0).add(basis_term(sl2(Q), 0, 0))


# -- the published formula on the Laurent carrier ---------------------------


@pytest.fixture(scope="module")
def bm_scene(scalar_line):
    """Scalar carrier, trivial twist of declared period 4, unit z, forward."""
    aut = identity_twist(scalar_line, 4)
    d = coefficient_derivation(zmon(1), 4)  # identity (x) z d/dz, restricted
    return scalar_line, aut, d


def frozen_bm(bm_scene, exp):
    a, aut, d = bm_scene
    return loop_bm(a, aut, 4, FORWARD, zmon(1), d)(unit_line(a, exp))


def test_published_formula_value_on_z5(bm_scene):
    a = bm_scene[0]
    assert frozen_bm(bm_scene, 5) == unit_line(a, 5, Q.from_int(4))


def test_published_formula_kills_z3_and_z2(bm_scene):
    assert frozen_bm(bm_scene, 3).is_zero()
    assert frozen_bm(bm_scene, 2).is_zero()


def test_published_formula_breaks_product_rule(bm_scene):
    a = bm_scene[0]
    x2, x3 = unit_line(a, 2), unit_line(a, 3)
    whole = frozen_bm(bm_scene, 5)
    split = frozen_bm(bm_scene, 2).mul(x3).add(x2.mul(frozen_bm(bm_scene, 3)))
    assert split.is_zero()
    assert whole.sub(split) == unit_line(a, 5, Q.from_int(4))


def test_published_formula_failure_survives_prime_field():
    # same scene over F_5; the defect 4 z^5 stays nonzero
    f5 = make_field("prime", m=4, p=5)
    a = group_algebra(1, f5)
    aut = check_automorphism(a, diagonal_map(f5, [1]), 4)
    d = coefficient_derivation(LoopElement.term(a, [(0, f5.one())], 1), 4)
    u = LoopElement.term(a, [(0, f5.one())], 1)
    x2 = LoopElement.term(a, [(0, f5.one())], 2)
    x3 = LoopElement.term(a, [(0, f5.one())], 3)
    bm = loop_bm(a, aut, 4, FORWARD, u, d)
    whole = bm(x2.mul(x3))
    split = bm(x2).mul(x3).add(x2.mul(bm(x3)))
    assert whole != split


# -- the inverse-map formula on the same scene ------------------------------


def frozen_phi(bm_scene, exp):
    a, aut, d = bm_scene
    return loop_phi(a, aut, 4, FORWARD, zmon(1), d)(unit_line(a, exp))


def stretched_phi(bm_scene, exp, navg):
    """The inverse map with the correction bracket sampled at u^(4 navg)."""
    a, aut, d = bm_scene
    phi = _loop_map(a, aut, 4, FORWARD, zmon(1), d, lambda c, ev, pieces: phi_formula(c, ev, pieces, 4 * navg))
    return phi(unit_line(a, exp))


def test_inverse_map_value_on_z2(bm_scene):
    a = bm_scene[0]
    assert frozen_phi(bm_scene, 2) == unit_line(a, 2, Q.from_int(2))


def test_inverse_map_value_on_z5(bm_scene):
    a = bm_scene[0]
    assert frozen_phi(bm_scene, 5) == unit_line(a, 5, Q.from_int(5))


def test_inverse_map_value_on_z3(bm_scene):
    # forced by the product rule from the two frozen values: the image of
    # z^2 z^3 must equal z^2 * 3 z^3 + 2 z^2 * z^3
    a = bm_scene[0]
    assert frozen_phi(bm_scene, 3) == unit_line(a, 3, Q.from_int(3))


def test_inverse_map_satisfies_product_rule(bm_scene):
    a = bm_scene[0]
    x2, x3 = unit_line(a, 2), unit_line(a, 3)
    whole = frozen_phi(bm_scene, 5)
    split = x2.mul(frozen_phi(bm_scene, 3)).add(frozen_phi(bm_scene, 2).mul(x3))
    assert whole == split


def test_inverse_map_restricts_to_input_on_degree_zero(bm_scene):
    a = bm_scene[0]
    for exp in (-4, 0, 4, 8):
        want = unit_line(a, exp, Q.from_int(exp))
        assert frozen_phi(bm_scene, exp) == want


def test_inverse_map_ignores_averaging_stretch(bm_scene):
    for exp in (2, 3, 5, -1):
        base = frozen_phi(bm_scene, exp)
        assert stretched_phi(bm_scene, exp, 1) == base
        for navg in (2, 3, -1):
            assert stretched_phi(bm_scene, exp, navg) == base


# -- the twisted-loop normal form -------------------------------------------


def scaled_monomial_image(a, j, m, n):
    # m^{-1} j z^{nm+j}, the action of m^{-1} z^{nm+1} d/dz on z^j
    c = Q.mul(Q.from_int(j), Q.inv_int(m))
    return LoopElement.term(a, [(0, c)], n * m + j)


def t_derivation(a, m, n):
    """d = t^{n+1} d/dt on the degree-zero part, t = z^m."""
    def d(x):
        out = LoopElement(a, ())
        for exp, vec in x.terms():
            assert exp % m == 0
            k = exp // m
            out = out.add(LoopElement.term(a, [(i, Q.mul(Q.from_int(k), c)) for i, c in vec], m * (n + k)))
        return out
    return d


@pytest.mark.parametrize("m", [2, 3, 4])
def test_twisted_normal_form_sweep(scalar_line, m):
    # inverse grading style, unit z^-1; the image of t^{n+1} d/dt acts as
    # m^{-1} z^{nm+1} d/dz on every monomial z^j with |j| <= 2m
    a = scalar_line
    aut = identity_twist(a, m)
    u = zmon(-1)
    for n in range(-2, 3):
        phi = loop_phi(a, aut, m, INVERSE, u, t_derivation(a, m, n))
        for j in range(-2 * m, 2 * m + 1):
            got = phi(unit_line(a, j))
            assert got == scaled_monomial_image(a, j, m, n)


def test_twisted_normal_form_inner_route(scalar_line):
    # the same derivation in coefficient form: p = m^{-1} z^{nm+1}
    a = scalar_line
    m, n = 3, 1
    aut = identity_twist(a, m)
    p = zmon(n * m + 1, Q.inv_int(m))
    d = coefficient_derivation(p, m)
    phi = loop_phi(a, aut, m, INVERSE, zmon(-1), d)
    for j in (-2, 1, 4, 7):
        got = phi(unit_line(a, j))
        assert got == scaled_monomial_image(a, j, m, n)


def test_a_wrong_normal_form_names_its_monomial(monkeypatch):
    # the mutant derivation is twice t^(n+1) d/dt, so phi(d) doubles every
    # image, first on z^-4 = t^-2 at m = 2, n = 1: -4 z^-2, not -2 z^-2
    t_derivation = laurent._t_derivation

    def doubled(a, m, n):
        d = t_derivation(a, m, n)
        return lambda x: d(x).add(d(x))

    monkeypatch.setattr(laurent, "_t_derivation", doubled)
    (entry,) = laurent.verify_twisted_normal_form((2,), (1,), None, None).assertions
    assert entry == {"name": "normal-form-m2-n1", "pass": False,
                     "witness": "monomial z^-4: got -4*(1 (x) z^-2), want -2*(1 (x) z^-2)"}


# -- domain and hypothesis errors -------------------------------------------


def test_inner_coefficient_must_fix_degree_zero():
    # z^2 d/dz sends degree zero to degree one; refused when it is built
    with pytest.raises(NotInDomain):
        coefficient_derivation(zmon(2), 4)


def test_unit_must_be_single_monomial(scalar_line):
    aut = identity_twist(scalar_line, 4)
    d = coefficient_derivation(zmon(1), 4)
    with pytest.raises(HypothesisNotMet):
        loop_phi(scalar_line, aut, 4, FORWARD, zmon(1).add(zmon(5)), d)(
            unit_line(scalar_line, 1))


def test_unit_class_must_be_one_for_the_style(scalar_line):
    aut = identity_twist(scalar_line, 4)
    d = coefficient_derivation(zmon(1), 4)
    with pytest.raises(HypothesisNotMet):
        loop_phi(scalar_line, aut, 4, FORWARD, zmon(2), d)(unit_line(scalar_line, 1))
    with pytest.raises(HypothesisNotMet):
        loop_phi(scalar_line, aut, 4, INVERSE, zmon(1), d)(unit_line(scalar_line, 1))


def test_period_mismatch_rejected(scalar_line):
    aut = identity_twist(scalar_line, 2)
    d = coefficient_derivation(zmon(1), 4)
    with pytest.raises(HypothesisNotMet, match="^declared periods differ: 2 vs 4$") as exc:
        loop_phi(scalar_line, aut, 4, FORWARD, zmon(1), d)(unit_line(scalar_line, 1))
    assert exc.value.hypothesis == "automorphism-periods"


def test_an_automorphism_of_another_k1_is_refused(scalar_line):
    # a second k<1>, equal to the first in every entry, is still another algebra
    aut = identity_twist(group_algebra(1, Q), 4)
    d = coefficient_derivation(zmon(1), 4)
    with pytest.raises(DimensionMismatch, match="acts on another algebra than the given dim-1 one"):
        loop_phi(scalar_line, aut, 4, FORWARD, zmon(1), d)


def test_a_fractional_z3_coefficient_is_an_internal_fault(monkeypatch, capsys):
    # a mutant whose phi(d)(z^3) is (7/2) z^3: the report must not round the coefficient to 3
    period_four = laurent._period_four

    def mutant(*args):
        rep, img3, defect = period_four(*args)
        return rep, LoopElement.term(img3.algebra, [(0, Fraction(7, 2))], 3), defect

    monkeypatch.setattr(laurent, "_period_four", mutant)
    assert cli.run(["phi-eval", "--setup", "last-exa-i", "--json"]) == 4
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "internal check failed: dimension 'value-z3-coefficient' is not an integer: Fraction(7, 2)\n"


def test_coefficient_and_unit_must_lie_over_k1(scalar_line):
    # a loop element over sl2 is no Laurent polynomial
    a = sl2(Q)
    over_sl2 = basis_term(a, 1, 1)
    with pytest.raises(FieldMismatch):
        coefficient_derivation(over_sl2, 4)
    aut = identity_twist(scalar_line, 4)
    d = coefficient_derivation(zmon(1), 4)
    with pytest.raises(FieldMismatch):
        loop_phi(scalar_line, aut, 4, FORWARD, over_sl2, d)(unit_line(scalar_line, 1))


# -- quotient bridge --------------------------------------------------------


def test_quotient_reduces_exponents():
    a = group_algebra(1, Q)
    qmap = LoopQuotient(a, 4)
    got = qmap.apply(unit_line(a, 5))
    assert got == sparse(Q, [Q.zero(), Q.one(), Q.zero(), Q.zero()])


def test_quotient_is_multiplicative_on_samples():
    a = sl2(Q)
    qmap = LoopQuotient(a, 4)
    x = basis_term(a, 0, 3)
    y = basis_term(a, 2, 6)
    assert qmap.apply(x.mul(y)) == qmap.ts.mult(qmap.apply(x), qmap.apply(y))


def test_quotient_carrier_matches_flagship_setup():
    setup = Setup(*sl2_twisted_flagship())
    qmap = LoopQuotient(sl2(Q), 4)
    line = LoopQuotient(group_algebra(1, Q), 4)
    assert qmap.ts.table == setup.ts.table
    assert qmap.ts.names == setup.ts.names
    # grading style carries through: the loop class of z^n is the residue
    # the finite grading assigns to its reduction
    for n in range(-4, 8):
        vec = line.apply(unit_line(line.a, n))
        assert setup.grading_s.degree_of(vec) == graded_component(n, 2, FORWARD)


@pytest.fixture(scope="module")
def ad_h_on_flagship():
    """Bracketing with h (x) 1 on both carriers of the flagship (unit z, q = 1).

    It fixes the degree-zero part, and it descends along exponent reduction,
    unlike a coefficient derivation p(z) d/dz whose value on z^T - 1 is not
    zero. Yields the finite setup, its fixed-point map (sparse flattened)
    and ad_h itself, the derivation on the loop carrier.
    """
    f = Q
    a = sl2(f)
    setup = Setup(*sl2_twisted_flagship())
    aut = sl2_sign_automorphism(a)
    h = sparse(f, a.basis_vector(1))

    def ad_h(x):
        return LoopElement(a, tuple(((e, i), c) for e, v in x.terms() for i, c in a.mult(h, v)))

    # finite side: the same bracketing in fixed-point coordinates
    h1 = setup.tensor_elem(h, setup.s.unit())
    cols = [setup.fixed_space.coords(setup.ts.mult(h1, x)) for x in setup.fixed_space._sparse]
    return a, aut, setup, map_of_columns(cols), ad_h


def assert_carriers_agree(ad_h_on_flagship, finite, loop):
    """Loop evaluation then reduction equals the finite formula on b (x) z^e, |e| <= 3."""
    a, aut, setup, dmat, ad_h = ad_h_on_flagship
    assert setup.unit_data.q == 1
    qmap = LoopQuotient(a, 4)
    big = finite(dmat, setup)
    ext = loop(a, aut, 2, FORWARD, zmon(1), ad_h)
    for bidx in range(3):
        for exp in range(-3, 4):
            tgt = basis_term(a, bidx, exp)
            loop_img = ext(tgt)
            assert qmap.apply(loop_img) == apply_map(Q, big, setup.ts.dim, qmap.apply(tgt))


def test_windowed_square_with_inner_carrier_derivation(ad_h_on_flagship):
    assert_carriers_agree(ad_h_on_flagship, extend_phi, loop_phi)


def test_published_formula_agrees_across_carriers(ad_h_on_flagship):
    assert_carriers_agree(ad_h_on_flagship, bm_formula_extend, loop_bm)


# -- literals ---------------------------------------------------------------


def test_parse_laurent_round_trip():
    p = parse_laurent("3*z^-2 + z - 1/2", LINE)
    want = zmon(-2, Q.from_int(3)).add(zmon(1)).sub(zmon(0, Q.parse("1/2")))
    assert p == want


def test_parse_laurent_successive_signs_multiply():
    assert parse_laurent("z - -1", LINE) == zmon(1).add(zmon(0))
    assert parse_laurent("- - z", LINE) == zmon(1)


def test_parse_laurent_bracketed_cyclotomic_coefficients():
    fc = make_field("cyclotomic", m=4)
    p = parse_laurent("[0,1]*z^3 + [1,-1]", group_algebra(1, fc))
    assert dict(p.terms())[3] == ((0, fc.parse("[0,1]")),)
    assert dict(p.terms())[0] == ((0, fc.parse("[1,-1]")),)


def test_parse_laurent_rejects_garbage():
    with pytest.raises(ParseError):
        parse_laurent("", LINE)
    with pytest.raises(ParseError):
        parse_laurent("z^x", LINE)
    with pytest.raises(ParseError):
        parse_laurent("(z", LINE)
