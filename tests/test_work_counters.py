"""Work-counter regressions: repeated self-check work must stay removed.

These tests count calls; they time nothing. Each pins one saving: a
grading is built once per automorphism and the Laurent carrier reads that
one, the inverse-map formula runs once per Laurent target, the split of a
tensor derivation checks its two summand spaces direct once per tensor
algebra, not once per sample, and verify-thm1 builds each tensor algebra
A (x) S once and assembles its Leibniz system once.
"""

import pytest

from dertensor import algebra, cli, decomposition, invariants, laurent
from dertensor.catalog import diagonal_matrix, group_algebra, sl2
from dertensor.exactla import Matrix, Subspace
from dertensor.gradings import Grading, check_automorphism, grading_from_automorphism
from dertensor.scalars import make_field


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


def test_loop_phi_eval_reads_the_grading_of_its_automorphism(monkeypatch):
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
    assert laurent.loop_phi_eval(a, aut, 3, laurent.FORWARD, u, ad_h, x) == ad_h(x)
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
    tensor_product, product_rows = algebra.tensor_product, invariants._product_rows

    def counted_product(a, s):
        ts = tensor_product(a, s)
        built.append(ts)
        return ts

    def counted_rows(a, split):
        if not split:  # a Leibniz system; split rows are the centroid's
            assembled.append(a)
        return product_rows(a, split)

    for mod in (algebra, cli, decomposition, invariants):
        monkeypatch.setattr(mod, "tensor_product", counted_product)
    monkeypatch.setattr(invariants, "_product_rows", counted_rows)
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
        acc = Matrix.zeros(f, 3, 3)
        for i, p in enumerate(g.projections(f)):
            acc = acc.add(p.scale(f.pow(w, i)))
        assert acc == mat
        assert all(g is not h for h in seen)
        seen.append(g)
        del aut  # a later automorphism may reuse this one's id()
