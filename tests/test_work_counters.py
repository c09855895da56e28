"""Work-counter regressions: repeated self-check work must stay removed.

These tests count calls; they time nothing. Each pins one saving: a
grading is built once per automorphism and the Laurent carrier reads
that one, grading D(A (x) S) composes no map and makes no cyclotomic
product, the inverse-map formula runs once per Laurent target and
splits each target only along occupied degrees, a Laurent extension
builds its carrier once and computes on rows, building loop elements only
for its targets, its results and the calls of d, phi-eval on a finite
setup checks only the extensions that differ from a checked one, verify-thm2 runs phi and pi once per basis
element and phi-eval never solves D(A (x) S), the identity checker
evaluates d and each averaging bracket once per distinct argument and
builds each tensor vector ahead of its samples, the split of a tensor
derivation solves no system, verify-thm1 builds each tensor algebra
A (x) S once, embeds its summands once and assembles its Leibniz system
once, D and C of a tensor algebra assemble rows from a few generator
pairs, cut by the other pairs' rows only where those fall short, each system
of a kernel reaches exactla.rref_rows by its module name with its distinct
rows, once (the benchmark counts systems by wrapping it there), and a command
builds its own subparser only, verify-thm1 decides perfect-A and the
associativity of S once per algebra, and the tensor maps of psi, of the embedded
D(A) (x) S and C(A) (x) D(S) and the commutators g d - d g that cut the
differential centroid are built sparse, with no dense matrix built, and a
derivation stays one sparse row from the solver to the report of
verify-thm2, bm-eval and verify-thm1,
where the only matrices are the automorphisms as written, and no element
of verify-thm2, lemma-identities, phi-eval or bm-eval on the flagship, or
of phi-eval on the Laurent carrier, passes between a dense vector and a
sparse row. The direct sums of verify-thm1 and verify-lemma35 solve no
intersection. Checks
that a cheaper one implies stay removed: the tensor automorphism is not
re-validated, no catalog setup cuts an eigenspace (_eigenspace_grading), and only
verify-lemma21 and psi-check test psi for multiplicativity. Each of them
builds psi's images once, and verify-lemma35 embeds its two spans once. phi and BM on a
finite setup invert no map larger than a factor. A --u unit builds its
Setup once. No builder of an algebra (the catalog, tensor products,
subalgebras, definitions read from JSON) goes through the dense table
adapter Algebra(field, names, table). The fixed algebra, d's evaluator and
the restriction read rows off the degree-zero basis pairs: the Setup
commands on the flagship reduce no row into the fixed space.
"""

import argparse
import collections
import json
import os
import sys

import pytest

from dertensor import algebra, catalog, cli, decomposition, exactla, gradings, invariants, laurent
from dertensor.catalog import catalog_setup, group_algebra, sl2
from dertensor.errors import InternalCheckFailed
from dertensor.exactla import Matrix, Subspace, diagonal_map
from dertensor.gradings import Grading, check_automorphism, grading_from_automorphism
from dertensor.scalars import FieldDescriptor, make_field

from naive_la import dense, flatten, sparse, subalgebra_on
from test_gradings import projections
from test_invariants import short_pairs_algebra


def test_last_exa_ii_builds_each_grading_once(monkeypatch, capsys):
    builds = []
    init = Grading.__init__

    def counted(self, *args):
        builds.append(self)
        init(self, *args)

    monkeypatch.setattr(Grading, "__init__", counted)
    assert cli.run(["phi-eval", "--setup", "last-exa-ii", "--m", "24", "--json"]) == 0
    capsys.readouterr()
    # one period, so one automorphism and one grading
    assert len(builds) == 1


@pytest.mark.parametrize("name", ["sl2-twisted-flagship", "quotient-laurent(2,3)"])
def test_grading_derivations_composes_no_map_and_makes_no_cyclotomic_product(monkeypatch, name):
    # quotient-laurent(2,3) lives over Q(zeta_3): the degrees are read off sigma's diagonal
    counts = collections.Counter()

    def counted(key, fn):
        def wrapped(*args):
            counts[key] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(gradings, "_eigenspace_grading", counted("eigenspace", gradings._eigenspace_grading))
    st = decomposition.Setup(*catalog_setup(name))
    # the spaces are solved before the count
    assert min(sp.dim for sp in (st.der_ts, invariants.derivation_space(st.a), invariants.centroid(st.a))) > 0
    invariants.derivation_space(st.s)
    for key, owner, attr in (("compose", gradings, "compose_maps"), ("compose", exactla, "compose_maps"),
                             ("cyclotomic", FieldDescriptor, "_cyc_mul")):
        monkeypatch.setattr(owner, attr, counted(key, getattr(owner, attr)))
    for g in (st.der_ts_grading, st.der_a_grading, st.cent_a_grading, st.der_s_grading):
        assert g.components
    assert sum(st.der_ts_grading.component_dims) == st.der_ts.dim
    assert counts == {}


def test_loop_phi_reads_the_grading_of_its_automorphism(monkeypatch):
    # the identity of period 3 on sl2 over Q, which has no primitive cube root
    q = make_field("rational")
    a = sl2(q)
    aut = check_automorphism(a, diagonal_map(q, [1] * 3), 3)
    grading_from_automorphism(aut)
    builds = []
    init = Grading.__init__

    def counted(self, *args):
        builds.append(self)
        init(self, *args)

    monkeypatch.setattr(Grading, "__init__", counted)
    h = sparse(q, a.basis_vector(1))

    def ad_h(x):
        return laurent.LoopElement(a, tuple(((e, i), c) for e, v in x.terms() for i, c in a.mult(h, v)))

    u = laurent.LoopElement.term(group_algebra(1, q), [(0, q.one())], 1)
    x = laurent.LoopElement.term(a, sparse(q, a.basis_vector(0)), 1)
    assert laurent.loop_phi(a, aut, 3, laurent.FORWARD, u, ad_h)(x) == ad_h(x)
    assert builds == []


def test_last_exa_ii_runs_phi_once_per_target(monkeypatch, capsys):
    passes = []
    phi = laurent.phi_formula

    def counted(*args):
        passes.append(args)
        return phi(*args)

    monkeypatch.setattr(laurent, "phi_formula", counted)
    assert cli.run(["phi-eval", "--setup", "last-exa-ii", "--m", "12", "--json"]) == 0
    capsys.readouterr()
    # five values of n, and targets z^j with |j| <= 2m
    assert len(passes) == 5 * (4 * 12 + 1) == 245


def test_last_exa_ii_builds_one_carrier_per_extension(monkeypatch, capsys):
    carriers = []
    init = laurent._Loop.__init__

    def counted(self, *args):
        carriers.append(self)
        init(self, *args)

    monkeypatch.setattr(laurent._Loop, "__init__", counted)
    assert cli.run(["phi-eval", "--setup", "last-exa-ii", "--m", "32", "--json"]) == 0
    capsys.readouterr()
    # one per value of n, not one per each of its 4m + 1 targets
    assert len(carriers) == 5


def test_the_loop_carrier_computes_on_rows(monkeypatch, capsys):
    # a loop element is built only for the unit, each target, its wanted
    # value and its image, and on each side of a call of d
    built, d_calls = [], []
    init, t_derivation = laurent.LoopElement.__init__, laurent._t_derivation

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    def counted_derivation(*args):
        d = t_derivation(*args)
        return lambda x: d_calls.append(x) or d(x)

    monkeypatch.setattr(laurent.LoopElement, "__init__", counted)
    monkeypatch.setattr(laurent, "_t_derivation", counted_derivation)
    assert cli.run(["phi-eval", "--setup", "last-exa-ii(4,1)", "--json"]) == 0
    capsys.readouterr()
    # 17 monomials z^j, |j| <= 8; d runs once on the 5 of degree zero and
    # three times (once more for each side of the bracket) on the other 12
    assert len(d_calls) == 5 + 3 * 12
    assert len(built) == 1 + 3 * 17 + 2 * len(d_calls) == 134


def test_phi_eval_checks_each_distinct_extension_once(monkeypatch, capsys):
    calls = []
    witness = decomposition.leibniz_witness

    def counted(*args):
        calls.append(args)
        return witness(*args)

    monkeypatch.setattr(decomposition, "leibniz_witness", counted)
    assert cli.run(["phi-eval", "--setup", "sl2-twisted-flagship", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    # the stretched images at n = 2, 3 equal the verified n = 1 image, so
    # only the 6 basis maps of D(fixed) are checked, not 3 times 6
    assert len(calls) == report["dimensions"]["fixed-algebra-derivations"] == 6


def test_verify_thm2_runs_phi_and_pi_once_per_basis_element(monkeypatch, capsys):
    calls = []
    for name in ("extend_phi", "restrict_pi"):
        def counted(*args, _fn=getattr(decomposition, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(decomposition, name, counted)
    assert cli.run(["verify-thm2", "--setup", "sl2-twisted-flagship", "--json"]) == 0
    capsys.readouterr()
    # dim D(fixed) = 6 extensions, and 6 degree-zero basis derivations restricted
    assert sorted(calls) == ["extend_phi"] * 6 + ["restrict_pi"] * 6


@pytest.mark.parametrize("setup", ["sl2-twisted-flagship", "quotient-laurent(2,3)"])
@pytest.mark.parametrize("command", ["verify-thm2", "phi-eval", "bm-eval"])
def test_no_inverted_map_is_larger_than_a_factor(monkeypatch, capsys, command, setup):
    # phi and BM are built on the standard basis from each factor's homogeneous
    # parts, so nothing inverts a basis of A (x) S: the inverses are sigma1,
    # sigma2 and the projections of the two factor gradings
    sizes, invert = [], exactla.invert_map

    def counted(field, m, n):
        sizes.append(n)
        return invert(field, m, n)

    for mod in (exactla, gradings, decomposition):
        if hasattr(mod, "invert_map"):
            monkeypatch.setattr(mod, "invert_map", counted)
    assert cli.run([command, "--setup", setup, "--json"]) == 0
    capsys.readouterr()
    assert sizes and max(sizes) <= max(catalog_setup(setup, dims=True))


def _is_system(a, maps, split):
    """Whether the row source is called for a Leibniz system (split rows are
    the centroid's): on the n^2 elementary maps, not on a kernel basis (the
    other pairs' rows of a cut) or one map (a witness)."""
    return not split and len(maps) == a.dim * a.dim


@pytest.mark.parametrize("setup", [["sl2-twisted-flagship"],
                                   ["quotient-laurent(1,4)", "--field", "prime(5,4)"]],
                         ids=["flagship", "prime-field"])
def test_phi_eval_never_solves_the_tensor_derivations(monkeypatch, capsys, setup):
    built, assembled = [], []
    tensor_product, pair_rows = decomposition.tensor_product, invariants._pair_rows

    def counted_product(a, s):
        ts = tensor_product(a, s)
        built.append(ts)
        return ts

    def counted_rows(a, maps, split, pairs):
        if _is_system(a, maps, split):
            assembled.append(a)
        return pair_rows(a, maps, split, pairs)

    monkeypatch.setattr(decomposition, "tensor_product", counted_product)
    monkeypatch.setattr(invariants, "_pair_rows", counted_rows)
    assert cli.run(["phi-eval", "--setup"] + setup + ["--json"]) == 0
    capsys.readouterr()
    # extend_phi certifies pi(phi(d)) = d itself, so no restriction is re-solved
    assert len(built) == 1
    assert not any(a is built[0] for a in assembled)


def test_leibniz_and_centroid_rows_come_from_a_quarter_of_the_pairs(monkeypatch):
    f = make_field("prime", m=3, p=31)
    ts = algebra.tensor_product(sl2(f), group_algebra(8, f))
    calls = []
    pair_rows = invariants._pair_rows

    def counted(a, maps, split, pairs):
        calls.append((split, len(maps), len(pairs)))
        return pair_rows(a, maps, split, pairs)

    monkeypatch.setattr(invariants, "_pair_rows", counted)
    invariants.derivation_space(ts)
    invariants.centroid(ts)
    # one system each, on the pairs (x, g) and (g, x) for a few generators g
    # of the 24; the other pairs' rows are taken on the kernel's basis only
    assert [(split, maps) for split, maps, _ in calls] == [(False, 24 * 24), (False, 24), (True, 24 * 24), (True, 8)]
    assert all(count <= 24 * 24 // 4 for _, _, count in calls[::2])


def _systems_solved(monkeypatch, split, a):
    """The row lists of D(a) (split: C(a)) that reach exactla.rref_rows,
    wrapped by module attribute as the benchmark's counters wrap it, and the
    rows of each call of the row source: the generator pairs' system, then
    the other pairs' rows on its kernel's basis. kernel_of_rows eliminates
    with the columns mirrored (c to ncols - 1 - c); they are mirrored back."""
    calls, assembled = [], []
    rref_rows, pair_rows = exactla.rref_rows, invariants._pair_rows

    def counted(field, rows, ncols):
        rows = list(rows)
        calls.append([tuple((ncols - 1 - c, x) for c, x in reversed(row)) for row in rows])
        return rref_rows(field, rows, ncols)

    def assembling(a, maps, split, pairs):
        rows = list(pair_rows(a, maps, split, pairs))
        assembled.append([row for _, _, row in rows])
        return rows

    monkeypatch.setattr(exactla, "rref_rows", counted)
    monkeypatch.setattr(invariants, "_pair_rows", assembling)
    (invariants.centroid if split else invariants.derivation_space)(a)
    monkeypatch.undo()
    return calls, assembled


@pytest.mark.parametrize("split", [False, True], ids=["derivations", "centroid"])
def test_each_system_reaches_the_counted_eliminator_with_its_distinct_rows(monkeypatch, split):
    # each kernel basis is built in RREF, so no other call brings it there;
    # a cut solves the other pairs' nonzero rows, read on the basis coordinates
    for a, cut in ((algebra.tensor_product(sl2(), group_algebra(3)), False), (short_pairs_algebra(), True)):
        calls, (system, rest) = _systems_solved(monkeypatch, split, a)
        assert bool(rest) == cut
        assert calls == [list(dict.fromkeys(rows)) for rows in (system, rest)][:1 + cut]


def test_only_the_distinct_rows_are_mirrored(monkeypatch):
    f = make_field("prime", m=3, p=31)
    calls, assembled = _systems_solved(monkeypatch, True, algebra.tensor_product(sl2(f), group_algebra(8, f)))
    # the centroid system on the generator pairs: 3,904 nonzero rows, 2,944
    # distinct; the other pairs leave no nonzero row on its kernel's basis
    assert [len(rows) for rows in assembled] == [3904, 0]
    assert [len(rows) for rows in calls] == [2944]


def _kernels_solved(monkeypatch, run):
    """The (columns, tag, dimension) of each kernel_of_rows call that run makes."""
    calls = []
    kernel = exactla.kernel_of_rows

    def counted(field, rows, ncols, tag="kernel"):
        ker = kernel(field, rows, ncols, tag)
        calls.append((ncols, tag, ker.dim))
        return ker

    for mod in (exactla, invariants):
        monkeypatch.setattr(mod, "kernel_of_rows", counted)
    run()
    monkeypatch.undo()
    return calls


def _flagship_fixed_algebra(f):
    # the period 2 needs -1 as a root of unity of the descriptor: F_31 and
    # Q(zeta_3) are taken with m = 6, which names the same fields
    if f.kind != "rational":
        f = make_field(f.kind, 6, f.p)
    return decomposition.Setup(*catalog.sl2_twisted_flagship(f)).fixed_algebra


@pytest.mark.parametrize("fname", ["Q", "F31", "Q(zeta3)"])
@pytest.mark.parametrize("build,cuts", [(lambda f: algebra.tensor_product(sl2(f), group_algebra(3, f)), 0),
                                        (_flagship_fixed_algebra, 0), (short_pairs_algebra, 1)],
                         ids=["sl2 (x) k[Z3]", "flagship fixed", "short pairs"])
def test_d_and_c_solve_the_generator_pairs_and_cut_where_they_fall_short(monkeypatch, fname, build, cuts):
    f = {"Q": make_field("rational"), "F31": make_field("prime", m=3, p=31),
         "Q(zeta3)": make_field("cyclotomic", m=3)}[fname]
    a = build(f)
    n2 = a.dim * a.dim
    for space, tag in ((invariants.derivation_space, "derivations"), (invariants.centroid, "centroid")):
        calls = _kernels_solved(monkeypatch, lambda: space(a))
        # one system on n^2 columns; a cut solves on the dim K_gen coordinates of its kernel K_gen
        assert [call[:2] for call in calls] == [(n2, tag)] + [(calls[0][2], tag)] * cuts


def test_a_split_solves_no_system(monkeypatch, capsys):
    # verify-thm1 solves what the block check solves, at any sample budget
    def thm1(budget):
        argv = ["verify-thm1", "--algebra", "sl2", "--s", "group-algebra(3)", "--budget", str(budget), "--json"]
        assert cli.run(argv) == 0
        assert '"split-roundtrip-%d"' % budget in capsys.readouterr().out

    block = _kernels_solved(monkeypatch, lambda: decomposition.verify_block_decomposition(sl2(), group_algebra(3), 0))
    assert _kernels_solved(monkeypatch, lambda: thm1(5)) == _kernels_solved(monkeypatch, lambda: thm1(25)) == block


@pytest.mark.parametrize("argv", [["verify-thm1", "--algebra", "sl2", "--s", "group-algebra(3)", "--json"],
                                  ["verify-lemma35", "--setup", "sl2-twisted-flagship", "--json"]],
                         ids=["verify-thm1", "verify-lemma35"])
def test_direct_sums_solve_no_intersection(monkeypatch, capsys, argv):
    # direct-sum and degree-j-direct read dim(U + V) = dim U + dim V off the
    # sum that spans-all-derivations and degree-j-matches build anyway
    def run():
        assert cli.run(argv) == 0
        checks = json.loads(capsys.readouterr().out)["assertions"]
        assert [c["pass"] for c in checks if c["name"].endswith("direct-sum") or c["name"].endswith("-direct")]
        assert all(c["pass"] for c in checks)

    tags = [tag for _, tag, _ in _kernels_solved(monkeypatch, run)]
    assert tags and "intersection" not in tags


@pytest.mark.parametrize("pair", [["--algebra", "sl2", "--s", "group-algebra(3)"], []],
                         ids=["pair", "sweep"])
def test_verify_thm1_builds_each_tensor_algebra_once(monkeypatch, capsys, pair):
    built, assembled, embedded = [], [], []
    tensor_product, pair_rows = algebra.tensor_product, invariants._pair_rows
    embed = decomposition.embed_tensor_derivations

    def counted_product(a, s):
        ts = tensor_product(a, s)
        built.append(ts)
        return ts

    def counted_rows(a, maps, split, pairs):
        if _is_system(a, maps, split):
            assembled.append(a)
        return pair_rows(a, maps, split, pairs)

    def counted_embed(a, s):
        embedded.append((a, s))
        return embed(a, s)

    for mod in (algebra, decomposition, invariants):
        monkeypatch.setattr(mod, "tensor_product", counted_product)
    monkeypatch.setattr(invariants, "_pair_rows", counted_rows)
    monkeypatch.setattr(decomposition, "embed_tensor_derivations", counted_embed)
    assert cli.run(["verify-thm1", "--budget", "3", "--json"] + pair) == 0
    capsys.readouterr()
    # every caller asks tensor_product, which hands each pair its one algebra
    distinct = list({id(ts): ts for ts in built}.values())
    pairs = 1 if pair else len(decomposition.DEFAULT_PAIRS)
    assert len(built) > len(distinct) == len(embedded) == pairs
    # D(A (x) S) only: the split samples read it, and the embedded summands, from the caches
    assert [sum(x is ts for x in assembled) for ts in distinct] == [1] * pairs


def test_verify_thm1_decides_each_hypothesis_once_per_algebra(monkeypatch, capsys):
    # the sweep asks perfect-A and scalar-S of each pair at several sites; the
    # product-span elimination and the associator walk run once per algebra
    decided, spans = [], []
    cached, subspace = algebra.Algebra._cached, algebra.Subspace

    def counted(self, key, compute):
        if key not in self._cache:
            decided.append((self, key))
        return cached(self, key, compute)

    class CountedSubspace(subspace):
        @classmethod
        def from_rows(cls, *args):
            spans.append(args)
            return subspace.from_rows(*args)

    monkeypatch.setattr(algebra.Algebra, "_cached", counted)
    monkeypatch.setattr(algebra, "Subspace", CountedSubspace)
    assert cli.run(["verify-thm1", "--json"]) == 0
    capsys.readouterr()
    for key in ("imperfect", "nonassociative"):
        algebras = [a for a, k in decided if k == key]
        assert len(algebras) >= len(decomposition.DEFAULT_PAIRS)
        assert len({id(a) for a in algebras}) == len(algebras), key
    # every product span the algebra module eliminates is one of those decisions
    assert len(spans) == sum(k == "imperfect" for _, k in decided)


def test_gradings_are_never_shared_between_automorphisms():
    f = make_field("cyclotomic", m=4)
    a = sl2(f)
    om = f.root_of_unity(4)
    eye = diagonal_map(f, [1] * 3)
    sign = diagonal_map(f, [-1, 1, -1])
    quarter = diagonal_map(f, [om, f.one(), f.inv(om)])
    seen = []
    for sig, period in ((eye, 2), (eye, 4), (sign, 2), (sign, 4), (quarter, 4), (sign, 2)):
        aut = check_automorphism(a, sig, period)
        g = grading_from_automorphism(aut)
        assert grading_from_automorphism(aut) is g
        assert g.m == period
        # the projections rebuild this automorphism, not an earlier one
        w = f.root_of_unity(period)
        acc = [f.zero()] * 9
        for i, p in enumerate(projections(g, f)):
            acc = [f.add(x, f.mul(f.pow(w, i), y)) for x, y in zip(acc, flatten(p))]
        assert acc == dense(f, 9, sig)
        assert all(g is not h for h in seen)
        seen.append(g)
        del aut  # a later automorphism may reuse this one's id()


def test_identity_checker_computes_each_building_block_once(monkeypatch, capsys):
    inside, coords, brackets, tensors = [], [], [], []
    check = cli.check_surjectivity_identities
    coords_of, bracket = decomposition.Setup.fixed_coords, decomposition._bracket
    tensor_elem = decomposition.Setup.tensor_elem

    def checked(*args, **kwargs):
        inside.append(True)
        try:
            return check(*args, **kwargs)
        finally:
            inside.pop()

    def counted_coords(self, x, stage):
        if inside:  # only d's evaluator takes coordinates there
            coords.append(x)
        return coords_of(self, x, stage)

    def counted_tensor(self, a_vec, s_vec):
        if inside:
            tensors.append(True)
        return tensor_elem(self, a_vec, s_vec)

    def counted_bracket(c, ev, avec, t, big_m, b=None):
        brackets.append((avec, t, big_m, b))
        return bracket(c, ev, avec, t, big_m, b)

    monkeypatch.setattr(cli, "check_surjectivity_identities", checked)
    monkeypatch.setattr(decomposition.Setup, "fixed_coords", counted_coords)
    monkeypatch.setattr(decomposition, "_bracket", counted_bracket)
    monkeypatch.setattr(decomposition.Setup, "tensor_elem", counted_tensor)
    argv = ["lemma-identities", "--setup", "sl2-twisted-flagship", "--json"]
    assert cli.run(argv) == 0
    capsys.readouterr()
    # one d evaluation per distinct argument, one bracket per distinct (a, t, M, b)
    assert len(coords) == len(set(coords)) == 17
    assert len(brackets) == len(set(brackets)) == 41
    # the exchange identities take a (x) b from the pair basis, a (x) 1 and
    # a (x) u^-i once per a and lift; only d's arguments are built per sample
    assert len(tensors) <= 511


def test_d_eval_memo_never_caches_a_refusal_or_a_mutation(monkeypatch):
    st = decomposition.Setup(*catalog_setup("sl2-twisted-flagship"))
    ev = st.d_eval(st.der_fixed.space._sparse[0], "phi")
    calls = []
    coords = decomposition.Setup.fixed_coords

    def counted(self, x, stage):
        calls.append(x)
        return coords(self, x, stage)

    monkeypatch.setattr(decomposition.Setup, "fixed_coords", counted)
    x = st.fixed_space._sparse[0]
    want = ev(x)
    # the memo hands out its own tuple, which no caller can change
    assert type(want) is tuple and ev(x) is want
    assert calls == [x]
    one = st.a.field.one()
    outside = next(v for v in (((i, one),) for i in range(st.ts.dim)) if not st.fixed_space.contains(v))
    for _ in range(2):
        with pytest.raises(InternalCheckFailed, match="^phi: evaluation argument is not in the fixed subalgebra"):
            ev(outside)
    assert calls == [x, outside, outside]


@pytest.mark.parametrize("command,total", [("verify-thm2", 28), ("phi-eval", None), ("bm-eval", None),
                                           ("lemma-identities", None), ("verify-lemma35", None)])
def test_the_fixed_algebra_is_read_off_its_basis_pairs_with_no_reduction(monkeypatch, capsys, command, total):
    # the fixed algebra, d's evaluator and the restriction re-key rows onto the
    # degree-zero basis pairs (Setup.fixed_coords); none reduces into fixed_space
    spaces, setups = [], []
    reduce, init = Subspace.reduce, decomposition.Setup.__init__

    def counted(self, row):
        spaces.append(self)
        return reduce(self, row)

    def kept(self, *args, **kwargs):
        init(self, *args, **kwargs)
        setups.append(self)

    monkeypatch.setattr(Subspace, "reduce", counted)
    monkeypatch.setattr(decomposition.Setup, "__init__", kept)
    assert cli.run([command, "--setup", "sl2-twisted-flagship", "--json"]) == 0
    capsys.readouterr()
    (st,) = setups
    assert not any(sp is st.fixed_space for sp in spaces)
    assert total is None or len(spaces) == total


def test_loop_pieces_visit_only_occupied_degrees(monkeypatch, capsys):
    # the loop carrier cuts its targets with Grading.split, which returns
    # one part per occupied degree of each term
    parts = []
    split = Grading.split

    def counted(self, vec):
        parts.extend(out := split(self, vec))
        return out

    monkeypatch.setattr(Grading, "split", counted)
    assert cli.run(["phi-eval", "--setup", "last-exa-ii", "--m", "32", "--json"]) == 0
    capsys.readouterr()
    # 5 values of n times 4m + 1 monomial targets, each a single term of
    # degree zero on k<1>: 645 phi calls, not 32 degree parts each
    assert 0 < len(parts) <= 5 * (4 * 32 + 1) == 645


def test_a_command_builds_only_its_own_subparser(monkeypatch, capsys):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    assert cli.run(["counterexample-bm", "--json"]) == 0
    capsys.readouterr()
    assert built == ["counterexample-bm"]


SL3 = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setups", "sl3-diagram-1.json")


def _call_counts(monkeypatch, capsys, argv, sites):
    """Calls of each function during one command, by name; sites pairs the
    modules that bind a function (the defining one first) with its name."""
    counts = {name: 0 for _, name in sites}
    for mods, name in sites:
        def counted(*args, _fn=getattr(mods[0], name), _name=name):
            counts[_name] += 1
            return _fn(*args)

        for mod in mods:
            monkeypatch.setattr(mod, name, counted)
    assert cli.run(argv) == 0
    capsys.readouterr()
    return counts


def _self_check_counts(monkeypatch, capsys, argv):
    """Calls of check_automorphism, psi_multiplicative and _eigenspace_grading,
    the eigenspace cut of a sigma that is not diagonal, during one command."""
    return _call_counts(monkeypatch, capsys, argv, (((gradings, catalog, cli), "check_automorphism"),
                                                    ((invariants, decomposition), "psi_multiplicative"),
                                                    ((gradings,), "_eigenspace_grading")))


@pytest.mark.parametrize("argv,want", [
    # the two factor automorphisms only: sigma1 (x) sigma2 is not re-validated;
    # each catalog sigma is diagonal, so no grading cuts an eigenspace
    (["verify-thm2", "--setup", "sl2-twisted-flagship", "--json"],
     {"check_automorphism": 2, "psi_multiplicative": 0, "_eigenspace_grading": 0}),
    (["verify-thm2", "--setup", "quotient-laurent(2,3)", "--u", "z2", "--json"],
     {"check_automorphism": 2, "psi_multiplicative": 0, "_eigenspace_grading": 0}),
    # the sl3 diagram automorphism is not diagonal: its eigenbasis is cut once
    (["verify-thm2", "--setup", SL3, "--u", "z", "--json"],
     {"check_automorphism": 2, "psi_multiplicative": 0, "_eigenspace_grading": 1}),
    # no report of the sweep reads psi's multiplicativity
    (["verify-thm1", "--budget", "25", "--json"],
     {"check_automorphism": 0, "psi_multiplicative": 0, "_eigenspace_grading": 0}),
    (["verify-lemma21", "--algebra", "sl2", "--s", "group-algebra(3)", "--json"],
     {"check_automorphism": 0, "psi_multiplicative": 1, "_eigenspace_grading": 0}),
], ids=["verify-thm2", "verify-thm2-u", "verify-thm2-sl3", "verify-thm1", "verify-lemma21"])
def test_implied_self_checks_are_not_run(monkeypatch, capsys, argv, want):
    assert _self_check_counts(monkeypatch, capsys, argv) == want


@pytest.mark.parametrize("argv,want", [
    # psi's 3 images on sl2 (x) k[Z3], built once and read by all four of its checks
    (["psi-check", "--algebra", "sl2", "--s", "group-algebra(3)", "--json"],
     {"sparse_kron": 3, "_psi_images": 1, "embed_tensor_derivations": 0}),
    (["verify-lemma21", "--algebra", "sl2", "--s", "group-algebra(3)", "--json"],
     {"sparse_kron": 3, "_psi_images": 1, "embed_tensor_derivations": 0}),
    # the 12 embedded generators D(sl2) (x) L_(z^j) that Lemma 3.5 grades, and Setup's 4 psi images
    (["verify-lemma35", "--setup", "sl2-twisted-flagship", "--json"],
     {"sparse_kron": 16, "_psi_images": 1, "embed_tensor_derivations": 1}),
], ids=["psi-check", "verify-lemma21", "verify-lemma35"])
def test_each_tensor_side_span_is_built_once(monkeypatch, capsys, argv, want):
    assert _call_counts(monkeypatch, capsys, argv, (((exactla, invariants, decomposition), "sparse_kron"),
                                                    ((invariants,), "_psi_images"),
                                                    ((decomposition,), "embed_tensor_derivations"))) == want


def test_a_given_unit_builds_the_setup_once(monkeypatch, capsys):
    built = []
    init = decomposition.Setup.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs)
        init(self, *args, **kwargs)

    monkeypatch.setattr(decomposition.Setup, "__init__", counted)
    argv = ["verify-thm2", "--setup", "sl2-twisted-flagship", "--u", "z3", "--json"]
    assert cli.run(argv) == 0
    capsys.readouterr()
    # z3 = z^3 has degree 1 under z -> -z; the default unit's Setup is never built
    assert [(kw["q"], kw["u"]) for kw in built] == [(1, ((3, group_algebra(4).field.one()),))]


def _dense_forms(monkeypatch, least=0):
    """A counter of Matrix constructions, of the conversions between dense
    vectors and sparse rows (exactla.sparse_rows and exactla._dense), and of
    Subspace.rows reads on spaces of ambient dimension at least `least`,
    keyed by (name, calling function)."""
    calls = collections.Counter()
    init, rows = Matrix.__init__, Subspace.rows.fget

    def note(name):
        calls[name, sys._getframe(2).f_code.co_name] += 1

    def counted_init(self, *args, **kwargs):
        note("Matrix")
        init(self, *args, **kwargs)

    def counted_rows(self):
        if self.ambient >= least:
            note("rows")
        return rows(self)

    for name in ("sparse_rows", "_dense"):
        fn = getattr(exactla, name)

        def counted(*args, _fn=fn, _name=name):
            note(_name)
            return _fn(*args)

        # wherever the name was imported to
        for mod in (algebra, cli, decomposition, exactla, gradings, invariants, laurent):
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counted)
    monkeypatch.setattr(Matrix, "__init__", counted_init)
    monkeypatch.setattr(Subspace, "rows", property(counted_rows))
    return calls


def test_tensor_maps_take_no_dense_round_trip(monkeypatch):
    # psi's images, the embedded D(A) (x) S and C(A) (x) D(S) and the
    # commutators that cut the differential centroid are all built on sparse
    # flattened basis rows (exactla.sparse_kron, compose_maps), never dense matrices
    calls = _dense_forms(monkeypatch)
    a, s = sl2(), group_algebra(3)
    psi = invariants.psi_map(a, s)
    assert psi.injective and psi.image_in_centroid and psi.surjective
    assert [e.dim for e in decomposition.embed_tensor_derivations(a, s)] == [9, 0]
    assert invariants.differential_centroid(a).dim == 1
    assert calls == {}
    Matrix(a.field, [[a.field.one()]], 1)  # the counter sees a call
    assert calls == {("Matrix", "test_tensor_maps_take_no_dense_round_trip"): 1}


@pytest.mark.parametrize("argv,want", [
    # a derivation stays one sparse flattened row from the solver to the
    # report. There is no Matrix: the catalog writes its automorphisms as
    # sparse maps, and sigma, its inverse, the gradings and every solve are
    # sparse. No space of ambient dimension 16 or more, such as
    # D(A (x) S), is read as dense rows
    (["verify-thm2", "--setup", "sl2-twisted-flagship", "--json"], {}),
    (["bm-eval", "--setup", "sl2-twisted-flagship", "--json"], {}),
    (["verify-thm1", "--algebra", "sl2", "--s", "group-algebra(3)", "--json"], {}),
], ids=["verify-thm2", "bm-eval", "verify-thm1"])
def test_derivations_stay_sparse_from_solver_to_report(monkeypatch, capsys, argv, want):
    calls = _dense_forms(monkeypatch, 16)
    assert cli.run(argv) == 0
    capsys.readouterr()
    assert calls == want


@pytest.mark.parametrize("argv", [
    ["verify-thm2", "--setup", "sl2-twisted-flagship", "--json"],
    ["lemma-identities", "--setup", "sl2-twisted-flagship", "--json"],
    ["phi-eval", "--setup", "sl2-twisted-flagship", "--json"],
    ["bm-eval", "--setup", "sl2-twisted-flagship", "--json"],
    ["phi-eval", "--setup", "last-exa-ii", "--m", "32", "--json"],
], ids=["verify-thm2", "lemma-identities", "phi-eval", "bm-eval", "last-exa-ii-m32"])
def test_elements_stay_sparse_rows(monkeypatch, capsys, argv):
    # every element, unit power, tensor and carrier vector is a sparse row:
    # no conversion to or from a dense vector, no space of any ambient
    # dimension read as dense rows, and no Matrix, not even for sigma
    calls = _dense_forms(monkeypatch)
    assert cli.run(argv) == 0
    capsys.readouterr()
    assert calls == {}


def test_algebra_builders_never_call_the_dense_adapter(monkeypatch):
    calls = []
    init = algebra.Algebra.__init__

    def counted(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(algebra.Algebra, "__init__", counted)
    built = [catalog.catalog_algebra(e["name"] + "(3)" * e["args"])
             for e in catalog.catalog_entries() if e["kind"] == "algebra"]
    st = decomposition.Setup(*catalog_setup("sl2-twisted-flagship"))  # its fixed algebra is built from products
    built += [st.a, st.s, st.ts, st.fixed_algebra,
              subalgebra_on(st.s, st.grading_s.components[0]),
              algebra.tensor_product(sl2(), group_algebra(3)),
              algebra.Algebra.from_definition(json.loads(json.dumps(st.ts.to_definition())))]
    assert [a.dim for a in built] == [3, 3, 2, 3, 3, 3, 4, 12, 6, 2, 9, 12]
    assert calls == []
    algebra.Algebra(st.a.field, ["b"], [[[st.a.field.one()]]])  # the counter sees a call
    assert len(calls) == 1
