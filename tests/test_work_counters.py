"""Work-counter regressions: repeated self-check work must stay removed.

These tests count calls; they time nothing. Each pins one saving: a
grading is built once per automorphism and the Laurent carrier reads
that one, the inverse-map formula runs once per Laurent target and
splits each target only along occupied degrees, a Laurent extension
builds its carrier once, verify-thm2 runs phi and pi once per basis
element and phi-eval never solves D(A (x) S), the identity checker
evaluates d and each averaging bracket once per distinct argument and
builds each tensor vector ahead of its samples, the split of a tensor
derivation checks its two summand spaces direct once per tensor algebra,
not once per sample, verify-thm1 builds each tensor algebra A (x) S once
and assembles its Leibniz system once, D and C of a tensor algebra
assemble rows from a few generator pairs, in one round, each round of a
kernel reaches exactla.rref_rows by its module name with every row so far
(the benchmark counts systems by wrapping it there), and a command
builds its own subparser only, and the tensor maps of psi, of the embedded
D(A) (x) S and C(A) (x) D(S) and of the module derivations are built
sparse, with no dense matrix flattened or unflattened, and a derivation
stays one sparse row from the solver to the report of verify-thm2, bm-eval
and verify-thm1. Checks that a cheaper one implies stay removed: the tensor
automorphism is not re-validated, no grading of a finite setup builds its
projections, and only verify-lemma21 and psi-check test psi for
multiplicativity. A --u unit builds its Setup once.
"""

import argparse
import collections
import sys

import pytest

from dertensor import algebra, cli, decomposition, exactla, gradings, invariants, laurent
from dertensor.catalog import catalog_setup, diagonal_matrix, group_algebra, sl2
from dertensor.errors import NotInDomain
from dertensor.exactla import Matrix, Subspace, vec_add, vec_scale
from dertensor.gradings import Grading, check_automorphism, grading_from_automorphism
from dertensor.scalars import make_field

from test_invariants import short_pairs_algebra


def test_last_exa_ii_builds_each_grading_once(monkeypatch, capsys):
    builds = []
    projections = Grading.projections

    def counted(self, field):
        if self._projections is None:
            builds.append(self)
        return projections(self, field)

    monkeypatch.setattr(Grading, "projections", counted)
    assert cli.run(["phi-eval", "--setup", "last-exa-ii", "--m", "24", "--json"]) == 0
    capsys.readouterr()
    # one period, so one automorphism and one grading
    assert len(builds) == 1


def test_loop_phi_reads_the_grading_of_its_automorphism(monkeypatch):
    # the identity of period 3 on sl2 over Q, which has no primitive cube root
    q = make_field("rational")
    a = sl2(q)
    aut = check_automorphism(a, Matrix.identity(q, 3), 3)
    grading_from_automorphism(aut)
    builds = []
    init = Grading.__init__

    def counted(self, *args):
        builds.append(self)
        init(self, *args)

    monkeypatch.setattr(Grading, "__init__", counted)
    h = a.basis_vector(1)

    def ad_h(x):
        return laurent.LoopElement(a, {e: a.mult(h, list(v)) for e, v in x.support.items()})

    u = laurent.LoopElement.term(group_algebra(1, q), [q.one()], 1)
    x = laurent.LoopElement.term(a, a.basis_vector(0), 1)
    assert laurent.loop_phi(a, aut, 3, laurent.FORWARD, u, ad_h)(x) == ad_h(x)
    assert builds == []


def test_last_exa_ii_runs_phi_once_per_target(monkeypatch, capsys):
    passes = []
    phi = laurent._phi

    def counted(*args):
        passes.append(args)
        return phi(*args)

    monkeypatch.setattr(laurent, "_phi", counted)
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

    def counted_rows(a, split, pairs):
        if not split:  # a Leibniz system; split rows are the centroid's
            assembled.append(a)
        return pair_rows(a, split, pairs)

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

    def counted(a, split, pairs):
        calls.append((split, len(pairs)))
        return pair_rows(a, split, pairs)

    monkeypatch.setattr(invariants, "_pair_rows", counted)
    invariants.derivation_space(ts)
    invariants.centroid(ts)
    # one round each, on the pairs (x, g) and (g, x) for a few generators g of the 24
    assert [split for split, _ in calls] == [False, True]
    assert all(count <= 24 * 24 // 4 for _, count in calls)


def _systems_solved(monkeypatch, split, a):
    """The row lists of D(a) (split: C(a)) that reach exactla.rref_rows,
    wrapped by module attribute as the benchmark's counters wrap it, and the
    rows of each round the row source assembles."""
    calls, rounds = [], []
    rref_rows, pair_rows = exactla.rref_rows, invariants._pair_rows

    def counted(field, rows, ncols):
        rows = list(rows)
        calls.append(rows)
        return rref_rows(field, rows, ncols)

    def assembled(a, split, pairs):
        rounds.append(pair_rows(a, split, pairs))
        return rounds[-1]

    monkeypatch.setattr(exactla, "rref_rows", counted)
    monkeypatch.setattr(invariants, "_pair_rows", assembled)
    (invariants.centroid if split else invariants.derivation_space)(a)
    systems = [rows for rows in calls if rows[:len(rounds[0])] == rounds[0]]
    # the other calls bring each round's kernel basis to RREF (Subspace.from_rows)
    assert len(calls) == 2 * len(systems)
    return systems, rounds


@pytest.mark.parametrize("split", [False, True], ids=["derivations", "centroid"])
def test_each_round_reaches_the_counted_eliminator_with_every_row(monkeypatch, split):
    systems, rounds = _systems_solved(monkeypatch, split, algebra.tensor_product(sl2(), group_algebra(3)))
    assert systems == rounds and len(rounds) == 1
    monkeypatch.undo()
    systems, rounds = _systems_solved(monkeypatch, split, short_pairs_algebra())
    assert len(rounds) == 2
    assert systems == [rounds[0], rounds[0] + rounds[1]]


def _overlap_checks(monkeypatch, capsys, budget):
    calls = []
    intersect = Subspace.intersect

    def counted(self, other):
        calls.append(self.ambient)
        return intersect(self, other)

    monkeypatch.setattr(Subspace, "intersect", counted)
    argv = ["verify-thm1", "--algebra", "sl2", "--s", "group-algebra(3)",
            "--budget", str(budget), "--json"]
    assert cli.run(argv) == 0
    assert '"split-roundtrip-%d"' % budget in capsys.readouterr().out
    monkeypatch.undo()
    return len(calls)


def test_split_overlap_check_does_not_grow_with_the_budget(monkeypatch, capsys):
    assert _overlap_checks(monkeypatch, capsys, 5) == _overlap_checks(monkeypatch, capsys, 25)


@pytest.mark.parametrize("pair", [["--algebra", "sl2", "--s", "group-algebra(3)"], []],
                         ids=["pair", "sweep"])
def test_verify_thm1_builds_each_tensor_algebra_once(monkeypatch, capsys, pair):
    built, assembled = [], []
    tensor_product, pair_rows = algebra.tensor_product, invariants._pair_rows

    def counted_product(a, s):
        ts = tensor_product(a, s)
        built.append(ts)
        return ts

    def counted_rows(a, split, pairs):
        if not split:  # a Leibniz system; split rows are the centroid's
            assembled.append(a)
        return pair_rows(a, split, pairs)

    for mod in (algebra, cli, decomposition, invariants):
        monkeypatch.setattr(mod, "tensor_product", counted_product)
    monkeypatch.setattr(invariants, "_pair_rows", counted_rows)
    assert cli.run(["verify-thm1", "--budget", "3", "--json"] + pair) == 0
    capsys.readouterr()
    assert len(built) == (1 if pair else len(cli.DEFAULT_PAIRS))
    # D(A (x) S) only: the S-module derivations and those vanishing on
    # A (x) 1 are cut inside it
    assert [sum(x is ts for x in assembled) for ts in built] == [1] * len(built)


def test_gradings_are_never_shared_between_automorphisms():
    f = make_field("cyclotomic", m=4)
    a = sl2(f)
    om = f.root_of_unity(4)
    eye = Matrix.identity(f, 3)
    sign = diagonal_matrix(f, [-1, 1, -1])
    quarter = diagonal_matrix(f, [om, f.one(), f.inv(om)])
    seen = []
    for mat, period in ((eye, 2), (eye, 4), (sign, 2), (sign, 4), (quarter, 4), (sign, 2)):
        aut = check_automorphism(a, mat, period)
        g = grading_from_automorphism(aut)
        assert grading_from_automorphism(aut) is g
        assert g.m == period
        # the projections rebuild this automorphism, not an earlier one
        w = f.root_of_unity(period)
        acc = [f.zero()] * 9
        for i, p in enumerate(g.projections(f)):
            acc = vec_add(f, acc, vec_scale(f, f.pow(w, i), p.flatten()))
        assert acc == mat.flatten()
        assert all(g is not h for h in seen)
        seen.append(g)
        del aut  # a later automorphism may reuse this one's id()


def test_identity_checker_computes_each_building_block_once(monkeypatch, capsys):
    inside, coords, brackets, tensors = [], [], [], []
    check = cli.check_surjectivity_identities
    fixed_coords, bracket = decomposition.Setup.fixed_coords, decomposition._bracket
    tensor_elem = decomposition.Setup.tensor_elem

    def checked(*args, **kwargs):
        inside.append(True)
        try:
            return check(*args, **kwargs)
        finally:
            inside.pop()

    def counted_coords(self, x):
        if inside:
            coords.append(tuple(x))
        return fixed_coords(self, x)

    def counted_tensor(self, a_vec, s_vec):
        if inside:
            tensors.append(True)
        return tensor_elem(self, a_vec, s_vec)

    def counted_bracket(c, ev, avec, t, big_m, b=None):
        brackets.append((tuple(avec), t, big_m, b if b is None else tuple(b)))
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
    st = catalog_setup("sl2-twisted-flagship")
    ev = st.d_eval(st.der_fixed.space._sparse[0])
    calls = []
    fixed_coords = decomposition.Setup.fixed_coords

    def counted(self, x):
        calls.append(tuple(x))
        return fixed_coords(self, x)

    monkeypatch.setattr(decomposition.Setup, "fixed_coords", counted)
    x = st.fixed_embedding.column(0)
    want = ev(x)
    got = ev(x)
    got[:] = [st.a.field.one()] * len(got)
    assert ev(x) == want
    assert calls == [tuple(x)]
    outside = next(v for v in Matrix.identity(st.a.field, st.ts.dim).rows
                   if not st.fixed_space.contains(v))
    for _ in range(2):
        with pytest.raises(NotInDomain):
            ev(outside)
    assert calls == [tuple(x), tuple(outside), tuple(outside)]


def test_loop_pieces_visit_only_occupied_degrees(monkeypatch, capsys):
    combines = []
    combine = laurent.combine_rows

    def counted(*args):
        combines.append(args)
        return combine(*args)

    monkeypatch.setattr(laurent, "combine_rows", counted)
    assert cli.run(["phi-eval", "--setup", "last-exa-ii", "--m", "32", "--json"]) == 0
    capsys.readouterr()
    # 5 values of n times 4m + 1 monomial targets, each a single term of
    # degree zero on k<1>: 645 phi calls, not 32 degree parts each
    assert len(combines) <= 5 * (4 * 32 + 1) == 645


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


def _self_check_counts(monkeypatch, capsys, argv):
    """Calls of check_automorphism and psi_multiplicative, and Grading
    projection builds, during one command."""
    counts = {"check_automorphism": 0, "psi_multiplicative": 0, "projections": 0}
    for mods, name in (((gradings, cli), "check_automorphism"),
                       ((invariants, decomposition, cli), "psi_multiplicative")):
        def counted(*args, _fn=getattr(mods[0], name), _name=name):
            counts[_name] += 1
            return _fn(*args)

        for mod in mods:
            monkeypatch.setattr(mod, name, counted)
    projections = Grading.projections

    def counted_projections(self, field):
        counts["projections"] += self._projections is None
        return projections(self, field)

    monkeypatch.setattr(Grading, "projections", counted_projections)
    assert cli.run(argv) == 0
    capsys.readouterr()
    return counts


@pytest.mark.parametrize("argv,want", [
    # the two factor automorphisms only: sigma1 (x) sigma2 is not re-validated,
    # and no finite grading rebuilds sigma from its projections
    (["verify-thm2", "--setup", "sl2-twisted-flagship", "--json"],
     {"check_automorphism": 2, "psi_multiplicative": 0, "projections": 0}),
    # no report of the sweep reads psi's multiplicativity
    (["verify-thm1", "--budget", "25", "--json"],
     {"check_automorphism": 0, "psi_multiplicative": 0, "projections": 0}),
    (["verify-lemma21", "--algebra", "sl2", "--s", "group-algebra(3)", "--json"],
     {"check_automorphism": 0, "psi_multiplicative": 1, "projections": 0}),
], ids=["verify-thm2", "verify-thm1", "verify-lemma21"])
def test_implied_self_checks_are_not_run(monkeypatch, capsys, argv, want):
    assert _self_check_counts(monkeypatch, capsys, argv) == want


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
    assert [(kw["q"], kw["u"]) for kw in built] == [(1, group_algebra(4).basis_vector(3))]


def _dense_forms(monkeypatch, least=0):
    """A counter of Matrix.flatten and Matrix.unflatten calls and Subspace.rows
    reads, keyed by (name, calling function), on spaces of ambient dimension
    at least `least`; a matrix's ambient is its flattened length."""
    calls = collections.Counter()
    flatten, unflatten, rows = Matrix.flatten, Matrix.unflatten.__func__, Subspace.rows.fget

    def note(name, size):
        if size >= least:
            calls[name, sys._getframe(2).f_code.co_name] += 1

    def counted_flatten(self):
        note("flatten", self.nrows * self.ncols)
        return flatten(self)

    def counted_unflatten(cls, field, flat, nrows, ncols):
        note("unflatten", len(flat))
        return unflatten(cls, field, flat, nrows, ncols)

    def counted_rows(self):
        note("rows", self.ambient)
        return rows(self)

    monkeypatch.setattr(Matrix, "flatten", counted_flatten)
    monkeypatch.setattr(Matrix, "unflatten", classmethod(counted_unflatten))
    monkeypatch.setattr(Subspace, "rows", property(counted_rows))
    return calls


def test_tensor_maps_take_no_dense_round_trip(monkeypatch):
    # psi's images, the embedded D(A) (x) S and C(A) (x) D(S), the maps
    # id (x) R_{b_j} and the commutation rows of D(A) are all built on
    # sparse flattened basis rows (exactla.sparse_kron), never dense matrices
    calls = _dense_forms(monkeypatch)
    a, s = sl2(), group_algebra(3)
    ts = algebra.tensor_product(a, s)
    assert invariants.psi_map(a, s, ts).bijective
    assert [e.dim for e in decomposition.embed_tensor_derivations(a, s, ts)] == [9, 0]
    assert invariants.s_module_derivations(a, s, ts).dim == 9
    assert invariants.differential_centroid(a).dim == 1
    assert calls == {}
    Matrix.identity(a.field, 2).flatten()  # the counter sees a call
    assert calls == {("flatten", "test_tensor_maps_take_no_dense_round_trip"): 1}


@pytest.mark.parametrize("argv,want", [
    # a derivation stays one sparse flattened row from the solver to the
    # report; the dense forms left are the automorphism's: sigma and
    # sigma^-1 of the 4-dimensional right factor made sparse once
    # (Automorphism.maps), the tensor automorphism's matrix for its
    # eigenspace grading, the left multiplication that solve_unique inverts
    # while finding the graded unit, and the inverse of the pair basis
    # (Setup.pair_basis_inverse) made sparse once per Setup
    (["verify-thm2", "--setup", "sl2-twisted-flagship", "--json"],
     {("flatten", "maps"): 2, ("unflatten", "tensor_automorphism"): 1,
      ("unflatten", "left_mult_matrix"): 1, ("flatten", "build"): 1}),
    (["bm-eval", "--setup", "sl2-twisted-flagship", "--json"],
     {("flatten", "maps"): 2, ("unflatten", "tensor_automorphism"): 1,
      ("unflatten", "left_mult_matrix"): 1, ("flatten", "build"): 1}),
    (["verify-thm1", "--algebra", "sl2", "--s", "group-algebra(3)", "--json"], {}),
], ids=["verify-thm2", "bm-eval", "verify-thm1"])
def test_derivations_stay_sparse_from_solver_to_report(monkeypatch, capsys, argv, want):
    calls = _dense_forms(monkeypatch, 16)
    assert cli.run(argv) == 0
    capsys.readouterr()
    assert calls == want
