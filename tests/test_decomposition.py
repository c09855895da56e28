"""Theorem-layer tests: splits, block and graded decompositions, pi and phi."""

import json
import random
import re
from fractions import Fraction

import pytest

from dertensor.algebra import Algebra, tensor_product, tensor_vector
from dertensor.catalog import (
    catalog_algebra,
    dual_numbers,
    group_algebra,
    quotient_laurent_setup,
    sl2,
    sl2_graded_variant,
    sl2_sign_automorphism,
    sl2_twisted_flagship,
    zero_product,
)
from dertensor.decomposition import (
    Setup,
    VerificationReport,
    bm_formula_extend,
    check_surjectivity_identities,
    embed_tensor_derivations,
    extend_phi,
    restrict_pi,
    split_derivation,
    verify_block_decomposition,
    verify_bm_formula,
    verify_graded_decomposition,
    verify_phi_extension,
    verify_pi_isomorphism,
    verify_psi_lemma,
)
from dertensor.errors import (
    DimensionMismatch,
    FieldMismatch,
    HypothesisNotMet,
    InternalCheckFailed,
    NotCommutative,
    NotInDomain,
    NotPerfect,
    NoUnitFound,
)
from dertensor import cli, decomposition
from dertensor.exactla import (Matrix, Subspace, apply_map, combine_rows, compose_maps, diagonal_map,
                               sparse_kron)
from dertensor.gradings import check_automorphism, eps, grading_from_automorphism
from dertensor.invariants import derivation_space, leibniz_witness
from dertensor.scalars import make_field

from dense_leibniz import dense_leibniz_witness
from naive_la import Zeta3, dense, matmul, naive_of, naive_rank, naive_rref, sparse, unflatten


@pytest.fixture(scope="module")
def flagship():
    return Setup(*sl2_twisted_flagship())


def test_setup_shares_the_grading_of_each_automorphism(flagship):
    assert flagship.grading_a is grading_from_automorphism(flagship.aut1)
    assert flagship.grading_s is grading_from_automorphism(flagship.aut2)
    # e, h, f have degrees 1, 0, 1 and 1, z, z^2, z^3 degrees 0, 1, 0, 1
    assert flagship.grading_ts.degrees == (1, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0)


def random_derivation(ts, rng):
    der = derivation_space(ts)
    f = ts.field
    return combine_rows(f, [(f.from_int(rng.randint(-3, 3)), b) for b in der.space._sparse])


# -- Setup validation -------------------------------------------------------


def test_setup_rejects_imperfect_left_factor():
    z = zero_product(2)
    aut = check_automorphism(z, diagonal_map(z.field, [1] * 2), 2)
    s = group_algebra(4)
    aut2 = check_automorphism(s, diagonal_map(s.field, [1, -1, 1, -1]), 2)
    with pytest.raises(NotPerfect):
        Setup(z, s, aut, aut2)


def upper_triangular_2x2(f):
    from dertensor.algebra import Algebra
    z, o = f.zero(), f.one()
    # basis u00, u01, u11; unital, not commutative
    prods = {
        (0, 0): 0, (0, 1): 1, (2, 2): 2, (1, 2): 1,
    }
    table = [[[z] * 3 for _ in range(3)] for _ in range(3)]
    for (i, j), k in prods.items():
        table[i][j][k] = o
    return Algebra(f, ["u00", "u01", "u11"], table)


def test_setup_rejects_noncommutative_right_factor():
    a = sl2()
    aut1 = sl2_sign_automorphism(a)
    b = upper_triangular_2x2(a.field)
    aut2 = check_automorphism(b, diagonal_map(a.field, [1] * 3), 2)
    with pytest.raises(NotCommutative):
        Setup(a, b, aut1, aut2)
    # and a right factor with no unit at all fails the same hypothesis family
    c = sl2()
    with pytest.raises(HypothesisNotMet):
        Setup(a, c, aut1, sl2_sign_automorphism(c))


def test_setup_rejects_period_mismatch_and_field_mismatch():
    a = sl2()
    aut1 = sl2_sign_automorphism(a)
    s = group_algebra(4)
    aut2 = check_automorphism(s, diagonal_map(s.field, [1] * 4), 4)
    with pytest.raises(HypothesisNotMet, match="^declared periods differ: 2 vs 4$") as exc:
        Setup(a, s, aut1, aut2)
    assert exc.value.hypothesis == "automorphism-periods"
    f5 = make_field("prime", m=4, p=5)
    s5 = group_algebra(4, f5)
    aut2p = check_automorphism(s5, diagonal_map(f5, [1] * 4), 2)
    with pytest.raises(FieldMismatch):
        Setup(a, s5, aut1, aut2p)


def test_setup_refuses_an_automorphism_of_another_algebra():
    # a second sl2 equal to the first in every entry is still another algebra
    a, s = sl2(), group_algebra(2)
    aut2 = check_automorphism(s, diagonal_map(s.field, [1, -1]), 2)
    with pytest.raises(DimensionMismatch, match="acts on another algebra than the given dim-3 one"):
        Setup(a, s, sl2_sign_automorphism(sl2()), aut2)
    with pytest.raises(DimensionMismatch, match="acts on another algebra than the given dim-2 one"):
        Setup(a, s, sl2_sign_automorphism(a), check_automorphism(group_algebra(2), aut2.sig, 2))


def test_identity_s_twist_has_no_graded_unit():
    # with sigma_2 = id and m = 2 the degree-one component is zero
    a = sl2()
    aut1 = sl2_sign_automorphism(a)
    s = group_algebra(4)
    aut2 = check_automorphism(s, diagonal_map(s.field, [1] * 4), 2)
    with pytest.raises(NoUnitFound):
        Setup(a, s, aut1, aut2)


# -- psi lemma and block decomposition --------------------------------------


def test_verify_psi_lemma_passes_and_reports():
    rep = verify_psi_lemma(sl2(), group_algebra(2))
    assert rep.claim == "lemma-2.1"
    assert rep.verdict == "pass"
    assert rep.dimensions["C(A)"] == 1
    assert rep.dimensions["C(A tensor S)"] == 2


def test_verify_psi_lemma_refuses_imperfect():
    with pytest.raises(NotPerfect):
        verify_psi_lemma(zero_product(2), group_algebra(2))


BLOCK_CASES = [
    ("dual", 7),  # 3*2 + 1*1
    ("gz2", 6),  # 3*2 + 0
    ("gz3", 9),  # 3*3 + 0
    ("gz4", 12),  # 3*4 + 0
]


def _s_by_tag(tag):
    return {
        "dual": dual_numbers,
        "gz2": lambda: group_algebra(2),
        "gz3": lambda: group_algebra(3),
        "gz4": lambda: group_algebra(4),
    }[tag]()


@pytest.mark.parametrize("a_ctor", [sl2, sl2_graded_variant])
@pytest.mark.parametrize("tag,expected", BLOCK_CASES)
def test_block_decomposition_catalog(a_ctor, tag, expected):
    rep = verify_block_decomposition(a_ctor(), _s_by_tag(tag))
    assert rep.verdict == "pass"
    assert rep.dimensions["D(A tensor S)"] == expected
    assert rep.dimensions["expected-total"] == expected


def truncated_polynomials(k, f):
    """k[x]/(x^k): basis 1, x, ..., x^(k-1); x^i x^j = x^(i+j), zero from x^k on."""
    z, o = f.zero(), f.one()
    names = ["1", "x"] + [f"x{i}" for i in range(2, k)]
    table = [[[o if i + j == t else z for t in range(k)] for j in range(k)] for i in range(k)]
    return Algebra(f, names, table)


def sl2_plus_sl2(f):
    """sl2 (x) k[Z2], that is sl2 (+) sl2, whose centroid k[Z2] has dimension 2."""
    return tensor_product(sl2(f), group_algebra(2, f))


# dim D(S) of k[x]/(x^k): d(x) may be any multiple of x in characteristic 0
# (k - 1), and anything at all when the characteristic divides k, since then
# d(x^k) = k x^(k-1) d(x) vanishes (k)
@pytest.mark.parametrize("left,dim_ca,field,k,dim_ds", [
    (sl2, 1, make_field("rational"), 3, 2),
    (sl2, 1, make_field("rational"), 4, 3),
    (sl2, 1, make_field("prime", p=3), 3, 3),
    (sl2, 1, make_field("prime", p=5), 5, 5),
    (sl2_plus_sl2, 2, make_field("rational"), 2, 1),
    (sl2_plus_sl2, 2, make_field("rational"), 3, 2),
    (sl2_plus_sl2, 2, make_field("prime", p=3), 3, 3),
], ids=["Q-k3", "Q-k4", "F3-k3", "F5-k5", "sl2+sl2-Q-k2", "sl2+sl2-Q-k3", "sl2+sl2-F3-k3"])
def test_block_decomposition_with_derivations_on_the_right(left, dim_ca, field, k, dim_ds):
    a, s = left(field), truncated_polynomials(k, field)
    rep = verify_block_decomposition(a, s)
    assert rep.verdict == "pass"
    dims = rep.dimensions
    assert (dims["D(A)"], dims["C(A)"], dims["S"], dims["D(S)"]) == (3 * dim_ca, dim_ca, k, dim_ds)
    assert dims["D(A tensor S)"] == dims["D(A)"] * dims["S"] + dims["C(A)"] * dims["D(S)"]
    psi = verify_psi_lemma(a, s)
    assert psi.verdict == "pass"
    assert psi.dimensions["C(A tensor S)"] == dim_ca * k


def test_block_decomposition_refuses_sl2_in_characteristic_two():
    # [e, f] = h, but [h, e] = 2e and [h, f] = -2f vanish: sl2 is not perfect
    f = make_field("prime", p=2)
    with pytest.raises(NotPerfect):
        verify_block_decomposition(sl2(f), truncated_polynomials(2, f))


def test_embed_images_have_expected_dims():
    a, s = sl2(), dual_numbers()
    img1, img2 = embed_tensor_derivations(a, s)
    assert img1.dim == 6  # D(A) x S
    assert img2.dim == 1  # C(A) x D(S)
    # the summands meet in zero: their bases together have naive rank 6 + 1
    assert naive_rank([list(r) for r in img1.space.rows + img2.space.rows]) == 7


def test_embed_refuses_imperfect():
    with pytest.raises(NotPerfect):
        embed_tensor_derivations(zero_product(2), dual_numbers())


# -- split_derivation -------------------------------------------------------


def test_split_pure_tensor_derivations():
    a, s = sl2(), dual_numbers()
    ts = tensor_product(a, s)
    f, n = a.field, ts.dim

    def tensor_map(x, y):  # x (x) y for sparse flattened maps on A and S
        return sparse_kron(f, x, a.dim, y, s.dim)

    # d0 tensor L_1: remainder must vanish
    d0 = derivation_space(a).space._sparse[0]
    delta = tensor_map(d0, s.mult_map(s.unit()))
    d, rem = split_derivation(delta, a, s)
    assert rem == ()
    assert d == delta
    # gamma tensor d' with d'(1) = 0: the S-linear part dies
    dp = derivation_space(s).space._sparse[0]
    delta2 = tensor_map(diagonal_map(f, [1] * a.dim), dp)
    d2, rem2 = split_derivation(delta2, a, s)
    assert d2 == ()
    assert rem2 == delta2


def test_split_random_derivations_reassemble():
    rng = random.Random(71)
    for a, s in [(sl2(), dual_numbers()), (sl2(), group_algebra(2))]:
        ts = tensor_product(a, s)
        f, one = ts.field, s.unit()
        eye = tuple((i * a.dim + i, f.one()) for i in range(a.dim))
        lefts = [sparse_kron(f, eye, a.dim, lj, s.dim) for lj in s.left_mult_operators()]
        for _ in range(25):
            delta = random_derivation(ts, rng)
            d, rem = split_derivation(delta, a, s)
            assert combine_rows(f, [(f.one(), d), (f.one(), rem)]) == delta
            # d is S-linear: it commutes with every id (x) L_{b_j}
            for lj in lefts:
                assert compose_maps(f, d, lj, ts.dim) == compose_maps(f, lj, d, ts.dim)
            for i in range(a.dim):
                img = apply_map(f, rem, ts.dim, tensor_vector(a, s, sparse(a.field, a.basis_vector(i)), one))
                assert img == ()


ORACLE_FIELDS = {"Q": make_field("rational"), "F31": make_field("prime", p=31), "F3": make_field("prime", p=3),
                 "Qz3": make_field("cyclotomic", m=3)}


@pytest.mark.parametrize("fname", list(ORACLE_FIELDS))
@pytest.mark.parametrize("right", ["dual-numbers", "group-algebra(3)", "group-algebra(4)"])
def test_split_parts_lie_in_the_embedded_summands(fname, right):
    # the S-linear part lies in D(A) (x) S and the rest in C(A) (x) D(S),
    # computed apart from the split (embed_tensor_derivations)
    f = ORACLE_FIELDS[fname]
    a, s = sl2(f), catalog_algebra(right, f)
    ts = tensor_product(a, s)
    img1, img2 = embed_tensor_derivations(a, s)
    # dim D(S): 1 for the dual numbers, 3 for k[Z3] over F3, where z^3 - 1 = (z - 1)^3
    assert (img1.dim, img2.dim) == (3 * s.dim, {"dual-numbers": 1, "group-algebra(3)": 3 * (fname == "F3")}
                                    .get(right, 0))
    for delta in derivation_space(ts).space._sparse:
        d, rem = split_derivation(delta, a, s)
        assert img1.space.contains(d)
        assert img2.space.contains(rem)


def test_split_rejects_non_derivation():
    a, s = sl2(), dual_numbers()
    ts = tensor_product(a, s)
    bad = diagonal_map(ts.field, [1] * ts.dim)
    with pytest.raises(NotInDomain):
        split_derivation(bad, a, s)


@pytest.mark.parametrize("left,right", [("sl2", "dual-numbers"), ("sl2-graded-variant", "group-algebra(3)")])
def test_the_library_report_of_theorem_1_is_the_cli_report(capsys, left, right):
    # the split samples are part of verify_block_decomposition, so the CLI adds nothing
    rep = verify_block_decomposition(catalog_algebra(left), catalog_algebra(right), 25)
    assert rep.assertions[-1]["name"] == "split-roundtrip-25"
    argv = ["verify-thm1", "--algebra", left, "--s", right, "--budget", "25", "--json"]
    assert cli.run(argv) == 0
    assert capsys.readouterr().out == rep.to_json() + "\n"


# -- flagship: graded decomposition and the restriction isomorphism ---------


def test_entry_points_refuse_a_derivation_out_of_order(flagship):
    # a sparse row is canonical only sorted: reversed, a member is refused
    st = flagship
    d = st.der_fixed.space._sparse[0]
    big = st.der_ts_grading.components[0]._sparse[0]
    delta = derivation_space(st.ts).space._sparse[0]
    assert min(map(len, (d, big, delta))) > 1
    with pytest.raises(NotInDomain):
        st.d_eval(tuple(reversed(d)), "phi")
    with pytest.raises(NotInDomain):
        extend_phi(tuple(reversed(d)), st)
    with pytest.raises(NotInDomain):
        restrict_pi(tuple(reversed(big)), st)
    with pytest.raises(NotInDomain):
        split_derivation(tuple(reversed(delta)), st.a, st.s)


def test_flagship_graded_decomposition(flagship):
    rep = verify_graded_decomposition(flagship)
    assert rep.claim == "lemma-3.5"
    assert rep.verdict == "pass"
    assert rep.dimensions["degree-0"] == 6
    assert rep.dimensions["degree-1"] == 6
    assert rep.dimensions["D(A tensor S)"] == 12


def test_flagship_pi_isomorphism(flagship):
    rep = verify_pi_isomorphism(flagship)
    assert rep.claim == "theorem-2"
    assert rep.verdict == "pass"
    assert rep.dimensions["degree-zero-derivations"] == 6
    assert rep.dimensions["fixed-algebra-derivations"] == 6
    assert rep.dimensions["graded-formula-total"] == 6


def test_report_json_is_deterministic(flagship):
    r1 = verify_pi_isomorphism(flagship).to_json()
    r2 = verify_pi_isomorphism(flagship).to_json()
    assert r1 == r2
    assert '"claim": "theorem-2"' in r1


def test_restrict_ad_h_is_diagonal(flagship):
    st = flagship
    ts = st.ts
    f = ts.field
    h1 = tensor_vector(st.a, st.s, sparse(f, [f.zero(), f.one(), f.zero()]), st.s.unit())
    adh = ts.mult_map(h1)
    r = restrict_pi(adh, st)
    # fixed basis in pivot order: e x z, e x z3, h x 1, h x z2, f x z, f x z3
    expect = diagonal_map(f, [2, 2, 0, 0, -2, -2])
    assert r == expect


def test_restrict_pi_rejects_wrong_degree_and_non_derivations(flagship):
    st = flagship
    f = st.ts.field
    e1 = tensor_vector(st.a, st.s, sparse(f, [f.one(), f.zero(), f.zero()]), st.s.unit())
    ade = st.ts.mult_map(e1)  # degree 1, a derivation
    with pytest.raises(NotInDomain):
        restrict_pi(ade, st)
    with pytest.raises(NotInDomain):
        restrict_pi(diagonal_map(f, [1] * st.ts.dim), st)


def test_phi_round_trips_on_ad_h(flagship):
    st = flagship
    f = st.ts.field
    h1 = tensor_vector(st.a, st.s, sparse(f, [f.zero(), f.one(), f.zero()]), st.s.unit())
    adh = st.ts.mult_map(h1)
    assert extend_phi(restrict_pi(adh, st), st) == adh


def test_phi_and_pi_are_linear(flagship):
    st = flagship
    f = st.a.field
    basis = st.der_fixed.space._sparse
    d1, d2 = basis[0], basis[1]
    c = f.from_int(3)

    def plus_c_times(x, y):
        return combine_rows(f, [(f.one(), x), (c, y)])

    combo = plus_c_times(d1, d2)
    assert extend_phi(combo, st) == plus_c_times(extend_phi(d1, st), extend_phi(d2, st))
    big = st.der_ts_grading.components[0]._sparse
    bcombo = plus_c_times(big[0], big[1])
    assert restrict_pi(bcombo, st) == plus_c_times(restrict_pi(big[0], st), restrict_pi(big[1], st))


def test_phi_is_n_independent_over_rationals(flagship):
    st = flagship
    d = st.der_fixed.space._sparse[2]
    ref = extend_phi(d, st, n=1)
    for n in (-2, -1, 2):
        assert extend_phi(d, st, n=n) == ref
    with pytest.raises(HypothesisNotMet):
        extend_phi(d, st, n=0)


def test_phi_charp_needs_prime_field(flagship):
    with pytest.raises(HypothesisNotMet):
        extend_phi(flagship.der_fixed.space._sparse[0], flagship, branch="charp")


def test_phi_rejects_non_derivation_input(flagship):
    st = flagship
    bad = diagonal_map(st.a.field, [1] * st.fixed_algebra.dim)
    with pytest.raises(NotInDomain):
        extend_phi(bad, st)
    with pytest.raises(ValueError):
        extend_phi(st.der_fixed.space._sparse[0], st, branch="weird")


def test_bm_formula_matches_phi_when_s_has_no_derivations(flagship):
    # computed regression: D(S) = 0 here, so the correction term vanishes
    # and the earlier published formula happens to agree with phi. The
    # genuine divergence needs the Laurent model.
    st = flagship
    for d in st.der_fixed.space._sparse:
        bm = bm_formula_extend(d, st)
        assert bm == extend_phi(d, st)
        assert leibniz_witness(st.ts, bm) is None


def test_surjectivity_identities_flagship(flagship):
    st = flagship
    for idx in (0, 3):
        rep = check_surjectivity_identities(st.der_fixed.space._sparse[idx], st)
        assert rep.verdict == "pass"
        assert rep.dimensions["samples-formula-1"] == 45
        assert rep.dimensions["samples-formula-4"] == 9
        assert rep.dimensions["samples-exchange-I"] == 576
        assert rep.dimensions["samples-exchange-II"] == 81
        assert rep.dimensions["samples-exchange-III"] == 216


def test_surjectivity_identities_budget(flagship):
    st = flagship
    rep = check_surjectivity_identities(st.der_fixed.space._sparse[0], st, sample_budget=5)
    assert rep.dimensions["samples-exchange-I"] == 5
    assert rep.verdict == "pass"


def wrap_verdict(st, budget=None):
    """(wrap-case-exercised, verdict) of the identity checks on a generic derivation."""
    f = st.a.field
    d = combine_rows(f, [(f.from_int(i + 1), b) for i, b in enumerate(st.der_fixed.space._sparse)])
    rep = check_surjectivity_identities(d, st, sample_budget=budget)
    return {e["name"]: e["pass"] for e in rep.assertions}["wrap-case-exercised"], rep.verdict


def test_wrap_case_passes_when_a_sampled_product_wraps(flagship):
    # sl2 under its sign involution occupies degree 1 twice: 1 + 1 >= 2
    assert wrap_verdict(flagship) == (True, "pass")


@pytest.mark.parametrize("budget", [1, 4])
def test_wrap_case_fails_when_the_sample_misses_a_possible_wrap(flagship, budget):
    assert wrap_verdict(flagship, budget) == (False, "fail")


@pytest.mark.parametrize("field", [None, make_field("prime", m=4, p=5)], ids=["Qz3", "F5"])
def test_wrap_case_passes_when_no_product_can_wrap(field):
    # the identity twist puts every left degree at 0
    st = Setup(*(quotient_laurent_setup(1, 3) if field is None else quotient_laurent_setup(1, 4, field)))
    assert {ia for _, ia in st.grading_a.graded_basis()} == {0}
    assert wrap_verdict(st) == (True, "pass")


def test_wrap_case_passes_with_period_one():
    a, s = sl2(), dual_numbers()
    st = Setup(a, s, check_automorphism(a, diagonal_map(a.field, [1] * 3), 1),
               check_automorphism(s, diagonal_map(s.field, [1] * 2), 1))
    assert wrap_verdict(st) == (True, "pass")


def test_a_failing_identity_names_its_sample(monkeypatch, flagship):
    st, bracket = flagship, decomposition._bracket
    # the mutant bracket is a (x) u^t b at t >= M, so the wrap case of the
    # residue-shift identity fails first on sample 5, the pair (e, f) of
    # degrees (1, 1), the first with a nonzero product
    monkeypatch.setattr(decomposition, "_bracket", lambda c, ev, avec, t, big_m, b=None:
                        bracket(c, ev, avec, t, big_m, b) if t < big_m else c.pure(avec, t, b))
    d = st.der_fixed.space._sparse[0]
    failed = {e["name"]: e["witness"] for e in check_surjectivity_identities(d, st).assertions if not e["pass"]}
    assert failed["formula-4"] == "sample 5, integer parameters [1, 1]"
    assert all(w.startswith("sample ") for w in failed.values())


# -- degenerate and char-p setups -------------------------------------------


def test_trivial_periods_reduce_to_block_theorem():
    a, s = sl2(), dual_numbers()
    aut1 = check_automorphism(a, diagonal_map(a.field, [1] * 3), 1)
    aut2 = check_automorphism(s, diagonal_map(s.field, [1] * 2), 1)
    st = Setup(a, s, aut1, aut2)
    assert st.fixed_algebra.dim == 6
    rep = verify_pi_isomorphism(st)
    assert rep.verdict == "pass"
    assert rep.dimensions["degree-zero-derivations"] == 7
    assert rep.dimensions["fixed-algebra-derivations"] == 7
    # the extension is the identity map here
    d = st.der_fixed.space._sparse[0]
    assert extend_phi(d, st) == d


def test_quotient_laurent_charp_agrees_with_char0():
    f5 = make_field("prime", m=4, p=5)
    st = Setup(*quotient_laurent_setup(1, 4, f5))
    for d in st.der_fixed.space._sparse:
        ref = extend_phi(d, st, branch="char0", n=1)
        assert extend_phi(d, st, branch="charp") == ref
        for n in (2, 3):
            assert extend_phi(d, st, branch="char0", n=n) == ref
    with pytest.raises(HypothesisNotMet):
        extend_phi(st.der_fixed.space._sparse[0], st, branch="char0", n=5)


def sl2_swap_setup(f):
    """sl2 (+) sl2 on the bases of its two copies, sigma1 swapping them, against
    k[Z4] with z -> -z. sigma1 is not diagonal in its basis, so Setup rewrites
    A on its eigenbasis x1 + x2, x1 - x2."""
    b, one = sl2(f), f.one()
    n = b.dim
    names = [f"{x}{c + 1}" for c in range(2) for x in b.names]
    products = [[tuple((k + c1 * n, x) for k, x in b._nz[i1][i2]) if c1 == c2 else ()
                 for c2 in range(2) for i2 in range(n)] for c1 in range(2) for i1 in range(n)]
    a = Algebra.from_products(f, names, products)
    # entry (row, column) = (the other copy's x, x) at row * 2n + column
    swap = tuple(sorted((((1 - c) * n + i) * 2 * n + c * n + i, one) for c in range(2) for i in range(n)))
    s = group_algebra(4, f)
    z_neg = check_automorphism(s, diagonal_map(f, [1, -1, 1, -1]), 2)
    return Setup(a, s, check_automorphism(a, swap, 2), z_neg)


def graded_pair_map(st, images, p):
    """A map given by its images on the graded pairs a (x) b (degrees ia, ib),
    transported to the standard basis by the inverse of the pair matrix P: the
    construction extend_phi and bm_formula_extend used before Grading.split,
    rebuilt with the naive oracle. Row-reducing the rows [P^T | M^T] leaves
    (M P^-1)^T, whose row c is column c of the map. Returns the columns."""
    f, m, n = st.a.field, st.m, st.ts.dim
    pairs = [(avec, ia, bvec, ib) for avec, ia in st.grading_a.graded_basis()
             for bvec, ib in st.grading_s.graded_basis()]
    imgs = images([(avec, ia, bvec, eps(ia + ib, m)) for avec, ia, bvec, ib in pairs])
    rows = [dense(f, n, st.tensor_elem(avec, bvec)) + dense(f, n, img)
            for (avec, _, bvec, _), img in zip(pairs, imgs)]
    red, pivots = naive_rref(rows, p)
    assert pivots == list(range(n))  # the pairs form a basis
    return [row[n:] for row in red]


def columns_of(f, flat, n, p):
    cols = [[f.zero()] * n for _ in range(n)]
    for rc, x in flat:
        cols[rc % n][rc // n] = x
    return naive_of(cols, p)


@pytest.mark.parametrize("fname,p", [("rational", None), ("prime(5,4)", 5), ("cyclotomic(3)", Zeta3)],
                         ids=["Q", "F5", "Qz3"])
def test_phi_and_bm_on_the_standard_basis_match_the_graded_pair_construction(fname, p):
    # Setup rewrites the non-diagonal sigma1 on its eigenbasis: one piece per column
    f = cli._parse_field_text(fname)
    st = sl2_swap_setup(f)
    one, n, ud, p_char = f.one(), st.ts.dim, st.unit_data, f.char
    assert st.a.names == ["(e1 + e2)", "(h1 + h2)", "(f1 + f2)", f"(e1 + {f.format(f.neg(one))}*e2)",
                          f"(h1 + {f.format(f.neg(one))}*h2)", f"(f1 + {f.format(f.neg(one))}*f2)"]
    assert max(len(st.grading_a.split(((i, one),))) for i in range(st.a.dim)) == 1
    u1 = decomposition._Coords(st, ud.u_prime, ud.u_prime_inv)  # the degree-one unit u'
    uq = decomposition._Coords(st, ud.u, ud.u_inv)  # the degree-q unit u
    for d in st.der_fixed.space._sparse:
        ev = st.d_eval(d, "phi")
        cases = [(extend_phi(d, st, n=k), lambda ps, k=k: decomposition.phi_formula(u1, ev, ps, st.m * k))
                 for k in (1, 2)]
        cases.append((bm_formula_extend(d, st), lambda ps: decomposition.residue_shifts(uq, ev, ps, ud.q)))
        if p_char:
            up = decomposition._Coords(st, st.unit_power(ud.u_prime, ud.u_prime_inv, p_char),
                                       st.unit_power(ud.u_prime, ud.u_prime_inv, -p_char))
            cases.append((extend_phi(d, st, branch="charp"),
                          lambda ps: decomposition.residue_shifts(up, ev, ps, p_char)))
        for big, images in cases:
            assert columns_of(f, big, n, p) == graded_pair_map(st, images, p)


@pytest.mark.parametrize("fname", ["rational", "prime(5,4)", "cyclotomic(3)"], ids=["Q", "F5", "Qz3"])
def test_sl2_swap_setup_keeps_its_verdicts_and_dimensions(fname):
    # as when its sigma1 was graded by eigenspace cuts on the given basis
    f = cli._parse_field_text(fname)
    st = sl2_swap_setup(f)
    d = combine_rows(f, ((f.from_int(i + 1), b) for i, b in enumerate(st.der_fixed.space._sparse)))
    reports = [verify_pi_isomorphism(st), verify_graded_decomposition(st), verify_phi_extension(st),
               verify_bm_formula(st), check_surjectivity_identities(d, st)]
    assert [rep.verdict for rep in reports] == ["pass"] * 5
    assert [rep.dimensions for rep in reports] == [
        {"degree-zero-derivations": 12, "fixed-algebra-derivations": 12, "restriction-rank": 12,
         "graded-formula-total": 12},
        {"degree-0": 12, "degree-1": 12, "D(A tensor S)": 24},
        {"fixed-algebra-derivations": 12, "tensor-dim": 24},
        {"fixed-algebra-derivations": 12},
        {"samples-formula-1": 90, "samples-formula-2": 90, "samples-formula-3": 90, "samples-formula-4": 36,
         "samples-exchange-I": 2304, "samples-exchange-II": 324, "samples-exchange-III": 864},
    ]


def test_quotient_laurent_pi_isomorphism_cyclotomic():
    st = Setup(*quotient_laurent_setup(1, 4))
    rep = verify_pi_isomorphism(st)
    assert rep.verdict == "pass"
    assert rep.dimensions["degree-zero-derivations"] == 3
    assert rep.dimensions["fixed-algebra-derivations"] == 3


def test_quotient_laurent_graded_dims_two_blocks():
    st = Setup(*quotient_laurent_setup(2, 2))
    rep = verify_graded_decomposition(st)
    assert rep.verdict == "pass"
    # D(A) sits in degree 0, S spreads over both residues: 3*2 per degree
    assert rep.dimensions["degree-0"] == 6
    assert rep.dimensions["degree-1"] == 6


@pytest.mark.parametrize("value", [Fraction(7, 2), make_field("cyclotomic", m=3).root_of_unity(3)],
                         ids=["rational", "cyclotomic"])
def test_a_dimension_that_is_no_integer_is_an_internal_fault(value):
    # int(Fraction(7, 2)) would read 3, and int() of a Q(zeta_3) coefficient tuple raises TypeError
    rep = VerificationReport("demo")
    with pytest.raises(InternalCheckFailed, match=f"^dimension 'n' is not an integer: {re.escape(repr(value))}$"):
        rep.dim("n", value)
    assert rep.dimensions == {}


def test_verification_report_shape():
    rep = VerificationReport("demo")
    rep.hyp("h1")
    rep.dim("n", 3)
    rep.check("a1", True)
    rep.check("a2", False, witness="w")
    d = rep.to_dict()
    assert d["verdict"] == "fail"
    assert d["hypotheses"] == [{"name": "h1", "pass": True}]
    assert d["assertions"][1] == {"name": "a2", "pass": False, "witness": "w"}
    assert "FAIL" in rep.to_text()


# -- self-check witnesses: each mutant exits 4 through the CLI, naming an index


def _internal_failure(capsys, argv):
    assert cli.run(argv + ["--json"]) == 4
    return capsys.readouterr().err


def _split_failure(capsys):
    assert cli.run(["verify-thm1", "--algebra", "sl2", "--s", "dual-numbers", "--json"]) == 1
    (entry,) = [e for e in json.loads(capsys.readouterr().out)["assertions"] if not e["pass"]]
    assert entry["name"] == "split-roundtrip-25"
    return entry["witness"]


def test_an_s_linear_part_that_is_no_derivation_fails_the_split_samples(monkeypatch, capsys):
    # the mutant S-linear part gains 1 at entry (0, 0), which no derivation has
    ts = tensor_product(sl2(), dual_numbers())
    f, real, e00 = ts.field, decomposition.map_of_columns, ((0, ts.field.one()),)
    assert not derivation_space(ts).space.contains(e00)
    monkeypatch.setattr(decomposition, "map_of_columns",
                        lambda cols: combine_rows(f, [(f.one(), real(cols)), (f.one(), e00)]))
    assert _split_failure(capsys) == "sample 0: the S-linear part leaves derA-tensor-S"


def test_a_zero_s_linear_part_fails_the_split_samples(monkeypatch, capsys):
    # every S-linear part is 0, so the rest is the whole sample, which leaves C(A) (x) D(S)
    monkeypatch.setattr(decomposition, "map_of_columns", lambda cols: ())
    assert _split_failure(capsys) == "sample 0: the rest leaves centA-tensor-derS"


def test_a_split_with_its_parts_swapped_fails_the_split_samples(monkeypatch, capsys):
    split = decomposition.split_derivation
    monkeypatch.setattr(decomposition, "split_derivation", lambda *args: split(*args)[::-1])
    # sample 0 has no part in C(A) (x) D(S): its swapped-in rest 0 passes, its S-linear part does not
    assert _split_failure(capsys) == "sample 0: the rest leaves centA-tensor-derS"


def test_a_restriction_leaving_the_fixed_algebra_names_the_basis_vector(monkeypatch, capsys):
    init = decomposition.Setup.__init__

    def mutant(self, *args, **kwargs):
        # fixed basis vector 3, as the restriction reads it, becomes one of degree 1
        init(self, *args, **kwargs)
        space, moved = self.fixed_space, self.grading_ts.components[1]._sparse[0]
        self.fixed_space = Subspace(space.field, space.ambient, space._sparse[:3] + (moved,) + space._sparse[4:],
                                    space.pivots)

    monkeypatch.setattr(decomposition.Setup, "__init__", mutant)
    err = _internal_failure(capsys, ["verify-thm2", "--setup", "sl2-twisted-flagship"])
    assert "degree-zero derivation moved the fixed subalgebra at basis vector 3" in err


def test_an_extension_of_nonzero_degree_names_the_first_entry(monkeypatch, capsys, flagship):
    st = flagship
    f, n = st.a.field, st.ts.dim
    standard_map, shift = decomposition._standard_map, st.der_ts_grading.components[1]._sparse[0]

    def mutant(setup, images):
        # the extension gains a derivation of degree 1: still a derivation, not of degree zero
        return combine_rows(f, [(f.one(), standard_map(setup, images)), (f.one(), shift)])

    big = combine_rows(f, [(f.one(), extend_phi(st.der_fixed.space._sparse[0], st)), (f.one(), shift)])
    big = unflatten(f, dense(f, n * n, big), n, n)
    sig = unflatten(f, dense(f, n * n, sparse_kron(f, st.aut1.sig, st.a.dim, st.aut2.sig, st.s.dim)), n, n)
    left, right = matmul(sig, big), matmul(big, sig)
    want = next((r, c) for r in range(n) for c in range(n) if left[r][c] != right[r][c])
    monkeypatch.setattr(decomposition, "_standard_map", mutant)
    err = _internal_failure(capsys, ["phi-eval", "--setup", "sl2-twisted-flagship"])
    assert f"extension is not of degree zero at entry {want}" in err


def test_an_extension_that_is_no_derivation_names_the_first_pair(monkeypatch, capsys, flagship):
    st = flagship
    f, n = st.a.field, st.ts.dim
    eye, standard_map = diagonal_map(f, [1] * n), decomposition._standard_map

    def mutant(setup, images):
        # the extension gains the identity, no derivation where a product is nonzero
        return combine_rows(f, [(f.one(), standard_map(setup, images)), (f.one(), eye)])

    big = combine_rows(f, [(f.one(), extend_phi(st.der_fixed.space._sparse[0], st)), (f.one(), eye)])
    want = dense_leibniz_witness(st.ts, unflatten(f, dense(f, n * n, big), n, n))[:2]
    monkeypatch.setattr(decomposition, "_standard_map", mutant)
    err = _internal_failure(capsys, ["phi-eval", "--setup", "sl2-twisted-flagship"])
    assert f"extension violates the derivation law on pair {want}" in err


def test_an_extension_restricting_elsewhere_names_the_first_entry(monkeypatch, capsys):
    restrict = decomposition._restrict

    def mutant(big_d, setup):
        # the restriction gains 1 at entry (0, 0)
        f = setup.a.field
        return combine_rows(f, [(f.one(), restrict(big_d, setup)), (f.one(), ((0, f.one()),))])

    monkeypatch.setattr(decomposition, "_restrict", mutant)
    err = _internal_failure(capsys, ["phi-eval", "--setup", "sl2-twisted-flagship"])
    assert "extension does not restrict to the input at entry (0, 0)" in err


def test_a_restriction_that_is_no_derivation_names_the_first_entry(monkeypatch, capsys, flagship):
    restrict = decomposition._restrict

    def mutant(big_d, setup):
        # the restriction gains 1 at entry (0, 0)
        f = setup.a.field
        return combine_rows(f, [(f.one(), restrict(big_d, setup)), (f.one(), ((0, f.one()),))])

    st = flagship
    first = st.der_fixed.space.reduce(mutant(st.der_ts_grading.components[0]._sparse[0], st))[0][0]
    monkeypatch.setattr(decomposition, "_restrict", mutant)
    err = _internal_failure(capsys, ["verify-thm2", "--setup", "sl2-twisted-flagship"])
    want = divmod(first, st.fixed_algebra.dim)
    assert f"restriction is not a derivation of the fixed algebra at entry {want}" in err


# -- phi_formula mutants: an engine fault exits 4 and names its stage

PRIME_3_2 = ["--setup", "quotient-laurent(3,2)", "--field", "prime(3,2)"]


def test_a_doubled_phi_correction_fails_where_d_of_s_is_not_zero(monkeypatch, capsys):
    # doubling the bracket doubles the (es/mn) correction of phi_formula; on the
    # flagship the extension still passes every check, so it needs a setup with D(S) != 0
    bracket = decomposition._bracket

    def mutant(c, ev, avec, t, big_m, b=None):
        f = c.field
        return combine_rows(f, [(f.from_int(2), bracket(c, ev, avec, t, big_m, b))])

    monkeypatch.setattr(decomposition, "_bracket", mutant)
    assert cli.run(["verify-thm2", "--setup", "sl2-twisted-flagship", "--json"]) == 0
    capsys.readouterr()
    err = _internal_failure(capsys, ["verify-thm2", *PRIME_3_2])
    assert "extension violates the derivation law on pair (1, 7)" in err


@pytest.mark.parametrize("setup,stage", [
    (["--setup", "sl2-twisted-flagship"],
     "extension (char0 branch): evaluation argument is not in the fixed subalgebra"),
    (PRIME_3_2, "phi formula: mn = 3 is zero in the field"),
], ids=["flagship", "prime(3,2)"])
@pytest.mark.parametrize("command", ["verify-thm2", "phi-eval"])
def test_phi_built_with_mn_plus_one_is_an_engine_fault(monkeypatch, capsys, setup, stage, command):
    # the engine built the failing value, so the input is not blamed (exit 2)
    phi = decomposition.phi_formula
    monkeypatch.setattr(decomposition, "phi_formula", lambda c, ev, pieces, mn: phi(c, ev, pieces, mn + 1))
    assert stage in _internal_failure(capsys, [command, *setup])


def test_a_derivation_outside_the_fixed_algebra_is_still_unusable_input(flagship):
    d = flagship.der_fixed.space._sparse[0]
    with pytest.raises(NotInDomain, match="not a derivation of the fixed-point algebra"):
        flagship.d_eval(d + ((len(flagship.fixed_space._sparse) ** 2 - 1, flagship.a.field.one()),), "phi")
