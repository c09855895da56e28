"""Theorem-layer tests: splits, block and graded decompositions, pi and phi."""

import random

import pytest

from dertensor.algebra import Algebra, tensor_product, tensor_vector
from dertensor.catalog import (
    diagonal_matrix,
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
    verify_graded_decomposition,
    verify_pi_isomorphism,
    verify_psi_lemma,
)
from dertensor.errors import (
    FieldMismatch,
    HypothesisNotMet,
    NotCommutative,
    NotInDomain,
    NotPerfect,
    NoUnitFound,
)
from dertensor import cli, decomposition, exactla
from dertensor.exactla import Matrix, Subspace, apply_map, combine_rows, sparse_kron, sparse_rows, vec_is_zero
from dertensor.gradings import check_automorphism, grading_from_automorphism
from dertensor.invariants import EndoSpace, derivation_space, leibniz_witness
from dertensor.scalars import make_field


@pytest.fixture(scope="module")
def flagship():
    return sl2_twisted_flagship()


def test_setup_shares_the_grading_of_each_automorphism(flagship):
    assert flagship.grading_a is grading_from_automorphism(flagship.aut1)
    assert flagship.grading_s is grading_from_automorphism(flagship.aut2)
    assert flagship.grading_ts is grading_from_automorphism(flagship.aut)


def sparse(m):
    """A dense Matrix as a sparse flattened map, sorted and zero-free."""
    return sparse_rows(m.field, [m.flatten()])[0]


def random_derivation(ts, rng):
    der = derivation_space(ts)
    f = ts.field
    return combine_rows(f, [(f.from_int(rng.randint(-3, 3)), b) for b in der.space._sparse])


# -- Setup validation -------------------------------------------------------


def test_setup_rejects_imperfect_left_factor():
    z = zero_product(2)
    aut = check_automorphism(z, Matrix.identity(z.field, 2), 2)
    s = group_algebra(4)
    aut2 = check_automorphism(s, diagonal_matrix(s.field, [1, -1, 1, -1]), 2)
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
    aut2 = check_automorphism(b, Matrix.identity(a.field, 3), 2)
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
    aut2 = check_automorphism(s, Matrix.identity(s.field, 4), 4)
    with pytest.raises(HypothesisNotMet):
        Setup(a, s, aut1, aut2)
    f5 = make_field("prime", m=4, p=5)
    s5 = group_algebra(4, f5)
    aut2p = check_automorphism(s5, Matrix.identity(f5, 4), 2)
    with pytest.raises(FieldMismatch):
        Setup(a, s5, aut1, aut2p)


def test_identity_s_twist_has_no_graded_unit():
    # with sigma_2 = id and m = 2 the degree-one component is zero
    a = sl2()
    aut1 = sl2_sign_automorphism(a)
    s = group_algebra(4)
    aut2 = check_automorphism(s, Matrix.identity(s.field, 4), 2)
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


# dim D(S) of k[x]/(x^k): d(x) may be any multiple of x in characteristic 0
# (k - 1), and anything at all when the characteristic divides k, since then
# d(x^k) = k x^(k-1) d(x) vanishes (k)
@pytest.mark.parametrize("field,k,dim_ds", [
    (make_field("rational"), 3, 2),
    (make_field("rational"), 4, 3),
    (make_field("prime", p=3), 3, 3),
    (make_field("prime", p=5), 5, 5),
], ids=["Q-k3", "Q-k4", "F3-k3", "F5-k5"])
def test_block_decomposition_with_derivations_on_the_right(field, k, dim_ds):
    rep = verify_block_decomposition(sl2(field), truncated_polynomials(k, field))
    assert rep.verdict == "pass"
    dims = rep.dimensions
    assert (dims["D(A)"], dims["C(A)"], dims["S"], dims["D(S)"]) == (3, 1, k, dim_ds)
    assert dims["D(A tensor S)"] == dims["D(A)"] * dims["S"] + dims["C(A)"] * dims["D(S)"]


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
    assert img1.space.intersect(img2.space).dim == 0


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
    d, rem = split_derivation(delta, a, s, ts)
    assert rem == ()
    assert d == delta
    # gamma tensor d' with d'(1) = 0: the S-linear part dies
    dp = derivation_space(s).space._sparse[0]
    delta2 = tensor_map(sparse_rows(f, [Matrix.identity(f, a.dim).flatten()])[0], dp)
    d2, rem2 = split_derivation(delta2, a, s, ts)
    assert d2 == ()
    assert rem2 == delta2


def test_split_random_derivations_reassemble():
    rng = random.Random(71)
    for a, s in [(sl2(), dual_numbers()), (sl2(), group_algebra(2))]:
        ts = tensor_product(a, s)
        one = s.unit()
        for _ in range(25):
            delta = random_derivation(ts, rng)
            d, rem = split_derivation(delta, a, s, ts)
            assert combine_rows(ts.field, [(ts.field.one(), d), (ts.field.one(), rem)]) == delta
            for i in range(a.dim):
                img = apply_map(ts.field, rem, ts.dim, tensor_vector(a, s, a.basis_vector(i), one))
                assert vec_is_zero(ts.field, img)


def test_split_components_recover_expected_dims():
    # mixed sum on sl2 x dual numbers: S-linear part dim 6, vanishing part dim 1
    a, s = sl2(), dual_numbers()
    ts = tensor_product(a, s)
    from dertensor.invariants import s_module_derivations, vanishing_on_left_derivations
    assert s_module_derivations(a, s, ts).dim == 6
    assert vanishing_on_left_derivations(a, s, ts).dim == 1


def test_split_rejects_non_derivation():
    a, s = sl2(), dual_numbers()
    ts = tensor_product(a, s)
    bad = sparse(Matrix.identity(ts.field, ts.dim))
    with pytest.raises(NotInDomain):
        split_derivation(bad, a, s, ts)


# -- flagship: graded decomposition and the restriction isomorphism ---------


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
    h1 = tensor_vector(st.a, st.s, [f.zero(), f.one(), f.zero()], st.s.unit())
    adh = ts.mult_map(h1)
    r = restrict_pi(adh, st)
    # fixed basis in pivot order: e x z, e x z3, h x 1, h x z2, f x z, f x z3
    expect = sparse(diagonal_matrix(f, [2, 2, 0, 0, -2, -2]))
    assert r == expect


def test_restrict_pi_rejects_wrong_degree_and_non_derivations(flagship):
    st = flagship
    f = st.ts.field
    e1 = tensor_vector(st.a, st.s, [f.one(), f.zero(), f.zero()], st.s.unit())
    ade = st.ts.mult_map(e1)  # degree 1, a derivation
    with pytest.raises(NotInDomain):
        restrict_pi(ade, st)
    with pytest.raises(NotInDomain):
        restrict_pi(sparse(Matrix.identity(f, st.ts.dim)), st)


def test_phi_round_trips_on_ad_h(flagship):
    st = flagship
    f = st.ts.field
    h1 = tensor_vector(st.a, st.s, [f.zero(), f.one(), f.zero()], st.s.unit())
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
    bad = sparse(Matrix.identity(st.a.field, st.fixed_algebra.dim))
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
    st = quotient_laurent_setup(1, 3) if field is None else quotient_laurent_setup(1, 4, field)
    assert {ia for _, ia in st.grading_a.graded_basis()} == {0}
    assert wrap_verdict(st) == (True, "pass")


def test_wrap_case_passes_with_period_one():
    a, s = sl2(), dual_numbers()
    st = Setup(a, s, check_automorphism(a, Matrix.identity(a.field, 3), 1),
               check_automorphism(s, Matrix.identity(s.field, 2), 1))
    assert wrap_verdict(st) == (True, "pass")


# -- degenerate and char-p setups -------------------------------------------


def test_trivial_periods_reduce_to_block_theorem():
    a, s = sl2(), dual_numbers()
    aut1 = check_automorphism(a, Matrix.identity(a.field, 3), 1)
    aut2 = check_automorphism(s, Matrix.identity(s.field, 2), 1)
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
    st = quotient_laurent_setup(1, 4, f5)
    for d in st.der_fixed.space._sparse:
        ref = extend_phi(d, st, branch="char0", n=1)
        assert extend_phi(d, st, branch="charp") == ref
        for n in (2, 3):
            assert extend_phi(d, st, branch="char0", n=n) == ref
    with pytest.raises(HypothesisNotMet):
        extend_phi(st.der_fixed.space._sparse[0], st, branch="char0", n=5)


def test_quotient_laurent_pi_isomorphism_cyclotomic():
    st = quotient_laurent_setup(1, 4)
    rep = verify_pi_isomorphism(st)
    assert rep.verdict == "pass"
    assert rep.dimensions["degree-zero-derivations"] == 3
    assert rep.dimensions["fixed-algebra-derivations"] == 3


def test_quotient_laurent_graded_dims_two_blocks():
    st = quotient_laurent_setup(2, 2)
    rep = verify_graded_decomposition(st)
    assert rep.verdict == "pass"
    # D(A) sits in degree 0, S spreads over both residues: 3*2 per degree
    assert rep.dimensions["degree-0"] == 6
    assert rep.dimensions["degree-1"] == 6


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


def _split_samples(a, s, count=25):
    """The tensor algebra and the splits of the derivations that verify-thm1
    samples for the pair, in order (cli._split_sample_assertion)."""
    ts = tensor_product(a, s)
    f, der = ts.field, derivation_space(ts)
    rng = random.Random(cli.SPLIT_SEED)
    splits = []
    for _ in range(count):
        coeffs = [f.from_int(rng.randint(-3, 3)) for _ in range(der.dim)]
        splits.append(split_derivation(combine_rows(f, zip(coeffs, der.space._sparse)), a, s, ts))
    return ts, splits


def _internal_failure(capsys, argv):
    assert cli.run(argv + ["--json"]) == 4
    return capsys.readouterr().err


@pytest.mark.parametrize("space,part,message", [
    ("s_module_derivations", 0, "S-linear part escaped its defining space"),
    ("vanishing_on_left_derivations", 1, "remainder does not vanish on the left factor"),
], ids=["s-linear", "remainder"])
def test_a_split_part_outside_its_space_names_its_first_entry(monkeypatch, capsys, space, part, message):
    ts, splits = _split_samples(sl2(), dual_numbers())
    # the mutant space is zero: the first nonzero part leaves it at its first entry
    first = next(parts[part] for parts in splits if parts[part])
    monkeypatch.setattr(decomposition, space, lambda a, s, ts: EndoSpace(
        ts, ts.dim, Subspace(ts.field, ts.dim * ts.dim, (), ()), "mutant"))
    err = _internal_failure(capsys, ["verify-thm1", "--algebra", "sl2", "--s", "dual-numbers"])
    assert f"{message} at entry {divmod(first[0][0], ts.dim)}" in err


def test_a_restriction_leaving_the_fixed_algebra_names_the_basis_vector(monkeypatch, capsys):
    fixed_point_algebra = decomposition.fixed_point_algebra

    def mutant(algebra, grading, names=None):
        # fixed basis vector 3 of the embedding becomes one of degree 1
        sub, emb = fixed_point_algebra(algebra, grading, names)
        moved = grading.components[1].rows[0]
        return sub, Matrix(emb.field, [row[:3] + [moved[r]] + row[4:] for r, row in enumerate(emb.rows)],
                           emb.ncols)

    monkeypatch.setattr(decomposition, "fixed_point_algebra", mutant)
    err = _internal_failure(capsys, ["verify-thm2", "--setup", "sl2-twisted-flagship"])
    assert "degree-zero derivation moved the fixed subalgebra at basis vector 3" in err


def test_an_extension_of_nonzero_degree_names_the_first_entry(monkeypatch, capsys, flagship):
    st = flagship
    f, n = st.a.field, st.ts.dim
    tensor_automorphism = decomposition.tensor_automorphism

    def mutant(aut_a, aut_s, ts):
        # sigma + E_04 in the degree check only: phi(d) commutes with sigma, so the
        # two sides differ where E_04 phi(d) and phi(d) E_04 do
        aut = tensor_automorphism(aut_a, aut_s, ts)
        sig, siginv = aut.maps()
        aut._cache["maps"] = (combine_rows(f, [(f.one(), sig), (f.one(), ((4, f.one()),))]), siginv)
        return aut

    big = Matrix.unflatten(f, list(exactla._dense(f, n * n, extend_phi(st.der_fixed.space._sparse[0], st))), n, n)
    e04 = Matrix(f, [[f.one() if (r, c) == (0, 4) else f.zero() for c in range(n)] for r in range(n)], n)
    want = next((r, c) for r in range(n) for c in range(n)
                if e04.mul(big).rows[r][c] != big.mul(e04).rows[r][c])
    monkeypatch.setattr(decomposition, "tensor_automorphism", mutant)
    err = _internal_failure(capsys, ["phi-eval", "--setup", "sl2-twisted-flagship"])
    assert f"extension is not of degree zero at entry {want}" in err


def test_an_extension_restricting_elsewhere_names_the_first_entry(monkeypatch, capsys):
    restrict = decomposition._restrict

    def mutant(big_d, setup):
        # the restriction gains 1 at entry (0, 0)
        f = setup.a.field
        return combine_rows(f, [(f.one(), restrict(big_d, setup)), (f.one(), ((0, f.one()),))])

    monkeypatch.setattr(decomposition, "_restrict", mutant)
    err = _internal_failure(capsys, ["phi-eval", "--setup", "sl2-twisted-flagship"])
    assert "extension does not restrict to the input at entry (0, 0)" in err
