"""End-to-end runs of the command-line surface, in process."""

import argparse
import copy
import json
import os
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dertensor.cli as cli
from dertensor import catalog, decomposition, laurent
from dertensor.algebra import tensor_product
from dertensor.catalog import catalog_algebra, group_algebra, sl2
from dertensor.errors import InternalCheckFailed
from dertensor.exactla import Subspace, diagonal_map
from dertensor.invariants import EndoSpace, differential_centroid



def run_cap(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_derive_sl2_prints_dimension_and_matrices(capsys):
    code, out, _ = run_cap(capsys, ["derive", "--algebra", "sl2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "dim D = 3"
    # three 3x3 matrices follow
    assert sum(1 for ln in lines if ln.startswith("  [")) == 9


def test_derive_json_report(capsys):
    code, out, _ = run_cap(capsys, ["derive", "--algebra", "sl2", "--json"])
    assert code == 0
    d = json.loads(out)
    assert d["claim"] == "derivation-algebra"
    assert d["dimensions"] == {"dim": 3}
    assert d["verdict"] == "pass"


def test_centroid_of_group_algebra(capsys):
    code, out, _ = run_cap(capsys, ["centroid", "--algebra", "group-algebra(3)"])
    assert code == 0
    assert out.splitlines()[0] == "dim C = 3"


def test_dcentroid_matches_engine(capsys):
    expected = differential_centroid(catalog_algebra("group-algebra(4)")).dim
    code, out, _ = run_cap(capsys, ["dcentroid", "--algebra", "group-algebra(4)"])
    assert code == 0
    assert out.splitlines()[0] == f"dim dC = {expected}"


def test_psi_check_json(capsys):
    code, out, _ = run_cap(
        capsys, ["psi-check", "--algebra", "sl2", "--s", "dual-numbers", "--json"])
    assert code == 0
    d = json.loads(out)
    assert d["claim"] == "psi-map"
    assert d["verdict"] == "pass"
    names = [a["name"] for a in d["assertions"]]
    assert names == ["injective", "image-in-centroid", "surjective", "multiplicative"]


def test_grade_reports_component_dims(capsys):
    code, out, _ = run_cap(
        capsys, ["grade", "--setup", "sl2-twisted-flagship", "--json"])
    assert code == 0
    d = json.loads(out)
    assert d["dimensions"]["tensor-degree-0"] == 6
    assert d["dimensions"]["tensor-degree-1"] == 6
    assert d["verdict"] == "pass"


def test_fixed_lists_basis(capsys):
    code, out, _ = run_cap(capsys, ["fixed", "--setup", "sl2-twisted-flagship"])
    assert code == 0
    assert "dim fixed = 6" in out
    assert sum(1 for ln in out.splitlines() if ln.startswith("basis ")) == 6


def test_verify_thm1_single_pair(capsys):
    code, out, _ = run_cap(
        capsys,
        ["verify-thm1", "--algebra", "sl2", "--s", "dual-numbers",
         "--budget", "3", "--json"])
    assert code == 0
    d = json.loads(out)
    assert d["claim"] == "theorem-1"
    assert d["dimensions"]["D(A tensor S)"] == 7
    assert d["dimensions"]["expected-total"] == 7
    assert d["verdict"] == "pass"
    assert any(a["name"] == "split-roundtrip-3" for a in d["assertions"])


def test_verify_thm1_requires_both_factors(capsys):
    code, _, err = run_cap(capsys, ["verify-thm1", "--algebra", "sl2"])
    assert code == 2
    assert "both" in err


def test_verify_lemma21_sweep_includes_refusal(capsys):
    code, out, _ = run_cap(capsys, ["verify-lemma21", "--json"])
    assert code == 0
    d = json.loads(out)
    entry = [a for a in d["assertions"] if a["name"] == "rejects-imperfect-left-factor"]
    assert entry and entry[0]["pass"]
    assert d["verdict"] == "pass"


def test_verify_lemma35_quotient(capsys):
    code, out, _ = run_cap(
        capsys, ["verify-lemma35", "--setup", "quotient-laurent(2,2)", "--json"])
    assert code == 0
    d = json.loads(out)
    assert d["claim"] == "lemma-3.5"
    assert d["verdict"] == "pass"


def test_verify_thm2_flagship_json_deterministic(capsys):
    code1, out1, _ = run_cap(
        capsys, ["verify-thm2", "--setup", "sl2-twisted-flagship", "--json"])
    code2, out2, _ = run_cap(
        capsys, ["verify-thm2", "--setup", "sl2-twisted-flagship", "--json"])
    assert code1 == code2 == 0
    assert out1 == out2
    d = json.loads(out1)
    assert list(d.keys()) == ["claim", "hypotheses", "dimensions", "assertions", "verdict"]
    assert d["claim"] == "theorem-2"
    assert d["dimensions"]["degree-zero-derivations"] == 6
    assert d["dimensions"]["fixed-algebra-derivations"] == 6


def test_lemma_identities_full_budget(capsys):
    code, out, _ = run_cap(
        capsys, ["lemma-identities", "--setup", "sl2-twisted-flagship", "--json"])
    assert code == 0
    d = json.loads(out)
    assert d["claim"] == "surjectivity-identities"
    wraps = [a for a in d["assertions"] if a["name"] == "wrap-case-exercised"]
    assert wraps and wraps[0]["pass"]


def test_phi_eval_default_runs_both_scenes(capsys):
    code, out, _ = run_cap(capsys, ["phi-eval", "--json"])
    assert code == 0
    d = json.loads(out)
    assert d["claim"] == "inverse-map-reproduction"
    names = [a["name"] for a in d["assertions"]]
    assert "values: value-z2" in names
    assert "normal-form: normal-form-m4-n2" in names
    assert d["verdict"] == "pass"


def test_phi_eval_scene_values(capsys):
    code, out, _ = run_cap(capsys, ["phi-eval", "--setup", "last-exa-i", "--json"])
    assert code == 0
    d = json.loads(out)
    w = {a["name"]: a.get("witness") for a in d["assertions"]}
    assert w["value-z2"] == "phi(d)(1 (x) z^2) = 2*(1 (x) z^2)"
    assert w["value-z5"] == "phi(d)(1 (x) z^5) = 5*(1 (x) z^5)"
    assert w["value-z3-by-product-rule"] == "phi(d)(1 (x) z^3) = 3*(1 (x) z^3)"


def test_phi_eval_scene_with_parameters(capsys):
    code, out, _ = run_cap(capsys, ["phi-eval", "--setup", "last-exa-ii(3,-2)"])
    assert code == 0
    assert "normal-form-m3-n-2: pass" in out


def test_phi_eval_scene_bad_arity(capsys):
    code, _, err = run_cap(capsys, ["phi-eval", "--setup", "last-exa-ii(3)"])
    assert code == 2
    assert "takes (m, n)" in err


@pytest.mark.parametrize("argv", [["phi-eval", "--setup"], ["bm-eval", "--setup"], ["catalog", "show"]])
@pytest.mark.parametrize("scene", ["exaBM-laurent(3)", "last-exa-i(1,2)"])
def test_a_scene_that_takes_no_arguments_refuses_them_everywhere(capsys, argv, scene):
    code, out, err = run_cap(capsys, argv + [scene])
    assert code == 2
    assert out == ""
    assert f"error: {scene.split('(')[0]} takes no arguments" in err


@pytest.mark.parametrize("argv, code, needle", [
    (["--m", "3"], 0, "normal-form: normal-form-m3-n2: pass"),
    (["--setup", "last-exa-ii", "--m", "3"], 0, "normal-form-m3-n2: pass"),
    (["--m", "0"], 2, "at least 1"),
    (["--m", "-3"], 2, "at least 1"),
    (["--setup", "last-exa-ii", "--m", "0"], 2, "at least 1"),
    (["--setup", "last-exa-ii(0,1)"], 2, "at least 1"),
    (["--setup", "last-exa-ii(3,1)", "--m", "3"], 2, "not to last-exa-ii(m, n)"),
    (["--setup", "last-exa-i", "--m", "4"], 2, "not to last-exa-i"),
    (["--setup", "exaBM-laurent", "--m", "4"], 2, "not to exaBM-laurent"),
    (["--setup", "sl2-twisted-flagship", "--m", "2"], 2, "not to a finite setup"),
], ids=["sweep", "last-exa-ii", "zero", "negative", "last-exa-ii-zero", "scene-period-zero",
        "last-exa-ii-mn", "last-exa-i", "exaBM-laurent", "finite-setup"])
def test_phi_eval_period_flag(capsys, argv, code, needle):
    got, out, err = run_cap(capsys, ["phi-eval"] + argv)
    assert got == code
    if code == 0:
        assert needle in out
        # one period only
        assert "-m2-" not in out and "-m4-" not in out
    else:
        assert out == ""
        assert needle in err


@pytest.mark.parametrize("argv, code", [
    (["--setup", "quotient-laurent(1,4)", "--field", "prime(5,4)", "--style", "inverse"], 2),
    (["--setup", "last-exa-i", "--style", "inverse", "--u", "z^-1"], 0),
    (["--style", "forward", "--u", "z"], 0),
], ids=["finite-setup", "last-exa-i", "sweep"])
def test_phi_eval_style_flag(capsys, argv, code):
    got, out, err = run_cap(capsys, ["phi-eval"] + argv + ["--json"])
    assert got == code
    if code:
        assert out == ""
        assert "--style applies only to the Laurent scenes" in err
    else:
        assert json.loads(out)["verdict"] == "pass"


@pytest.mark.parametrize("argv, flag", [
    (["phi-eval", "--field", "prime(5,4)"], "--field"),
    (["phi-eval", "--setup", "last-exa-i", "--field", "rational"], "--field"),
    (["phi-eval", "--setup", "last-exa-ii", "--m", "3", "--field", "prime(5,4)"], "--field"),
    (["phi-eval", "--setup", "last-exa-ii(3,1)", "--force"], "--force"),
    (["bm-eval", "--field", "prime(5,4)"], "--field"),
    (["bm-eval", "--setup", "exaBM-laurent", "--force"], "--force"),
], ids=["phi-sweep", "last-exa-i", "last-exa-ii", "last-exa-ii-mn", "bm-scene", "bm-named"])
def test_laurent_scenes_refuse_field_and_force(capsys, argv, flag):
    code, out, err = run_cap(capsys, argv + ["--json"])
    assert code == 2
    assert out == ""
    assert f"error: {flag} applies only to a finite --setup" in err


def test_phi_eval_finite_charp_agreement(capsys):
    code, out, _ = run_cap(
        capsys,
        ["phi-eval", "--setup", "quotient-laurent(1,4)", "--field", "prime(5,4)",
         "--json"])
    assert code == 0
    d = json.loads(out)
    got = {a["name"]: a["pass"] for a in d["assertions"]}
    assert got["stretch-independent-n123"]
    assert got["char0-charp-branches-agree"]
    assert got["restricts-to-input"]


@pytest.mark.parametrize("setup,field", [("sl2-twisted-flagship", "prime(997,2)"),
                                         ("quotient-laurent(1,4)", "prime(997,4)")])
def test_phi_eval_charp_branch_at_a_large_prime(capsys, setup, field):
    # the char-p branch reaches unit powers of exponent about p, far past
    # the interpreter's recursion limit
    code, out, _ = run_cap(capsys, ["phi-eval", "--setup", setup, "--field", field, "--json"])
    assert code == 0
    d = json.loads(out)
    assert d["verdict"] == "pass"
    assert {a["name"]: a["pass"] for a in d["assertions"]}["char0-charp-branches-agree"]


def test_bm_eval_default_is_counterexample(capsys):
    code, out, _ = run_cap(capsys, ["bm-eval", "--json"])
    assert code == 0
    d = json.loads(out)
    assert d["claim"] == "published-formula-counterexample"
    assert d["verdict"] == "pass"


def test_bm_eval_finite_agrees_with_inverse_map(capsys):
    code, out, _ = run_cap(
        capsys, ["bm-eval", "--setup", "sl2-twisted-flagship", "--json"])
    assert code == 0
    d = json.loads(out)
    w = [a["witness"] for a in d["assertions"] if a["name"] == "comparison-with-inverse-map"]
    assert w and "True" in w[0]


@pytest.mark.parametrize("setup", [[], ["--setup", "last-exa-i"]])
def test_bm_eval_scene_refuses_a_unit(capsys, setup):
    """The published-formula scene is the paper's example, with u = z fixed."""
    code, out, err = run_cap(capsys, ["bm-eval", *setup, "--u", "z"])
    assert code == 2
    assert out == ""
    assert "--u needs a finite --setup" in err


def test_counterexample_bm_values(capsys):
    code, out, _ = run_cap(capsys, ["counterexample-bm"])
    assert code == 0
    assert "D(1 (x) z^5) = 4*(1 (x) z^5)" in out
    assert "D(1 (x) z^3) = 0" in out
    assert "D(1 (x) z^2) = 0" in out
    assert "4*(1 (x) z^5), not 0" in out
    assert "verdict: PASS" in out


def test_exit_2_on_unknown_name(capsys):
    code, _, err = run_cap(capsys, ["derive", "--algebra", "no-such-algebra"])
    assert code == 2
    assert "unknown algebra" in err


def test_exit_2_on_malformed_name(capsys):
    code, _, err = run_cap(capsys, ["derive", "--algebra", "group-algebra(x)"])
    assert code == 2


def test_exit_3_on_hypothesis_failure(capsys):
    code, _, err = run_cap(
        capsys, ["verify-thm1", "--algebra", "zero-product(2)", "--s", "dual-numbers"])
    assert code == 3
    assert err == "hypothesis not met: left factor is not perfect: b0 (basis vector 0) is not in A*A [perfect]\n"


def test_exit_3_on_a_right_factor_that_is_not_associative(tmp_path, capsys):
    # basis 1, x, y with x^2 = y, y^2 = x, xy = 0: commutative and unital,
    # but (x x) y = x while x (x y) = 0
    table = [[[[0, "1"]], [[1, "1"]], [[2, "1"]]],
             [[[1, "1"]], [[2, "1"]], []],
             [[[2, "1"]], [], [[1, "1"]]]]
    p = tmp_path / "cubic.json"
    p.write_text(json.dumps({"field": sl2().to_definition()["field"], "dim": 3, "basis": ["1", "x", "y"],
                             "table": table}))
    code, out, err = run_cap(capsys, ["verify-lemma21", "--algebra", "sl2", "--s", str(p), "--json"])
    assert (code, out) == (3, "")
    assert err.strip().endswith("(x*x)*y != x*(x*y) (basis triple (1, 1, 2)) [associative]")


def test_exit_4_on_internal_failure(capsys, monkeypatch):
    def boom(setup):
        raise InternalCheckFailed("forced for the exit-code contract")
    monkeypatch.setattr(cli, "verify_pi_isomorphism", boom)
    code, _, err = run_cap(capsys, ["verify-thm2", "--setup", "sl2-twisted-flagship"])
    assert code == 4
    assert "internal check failed" in err


def test_verify_thm2_exits_4_when_a_restriction_leaves_the_derivations(capsys, monkeypatch):
    # a wrong kernel for D(fixed): drop one basis vector. The restrictions of
    # the degree-zero basis span all of D(fixed), so one of them falls outside,
    # and that is an engine fault, not a failed claim
    full = decomposition.Setup.der_fixed.fget

    def proper(setup):
        der = full(setup)
        rows = [list(r) for r in der.space.rows[:-1]]
        sub = Subspace.from_vectors(der.algebra.field, der.n * der.n, rows)
        return EndoSpace(der.algebra, sub, tag="proper")

    monkeypatch.setattr(decomposition.Setup, "der_fixed", property(proper))
    code, out, err = run_cap(capsys, ["verify-thm2", "--setup", "sl2-twisted-flagship"])
    assert code == 4
    assert out == ""
    assert "restriction is not a derivation of the fixed algebra" in err


def test_verify_thm1_exits_4_naming_the_generator_that_is_no_derivation(capsys, monkeypatch):
    # a wrong D(A): the identity joins it. No id (x) L_y is a derivation of
    # A (x) S, so embedding D(A) (x) S fails, an engine fault named by its tag,
    # its generator index and the factor basis pair (i, j) of d_i (x) L_{b_j}
    real = decomposition.derivation_space

    def with_identity(alg):
        der = real(alg)
        if alg.dim != 3:  # sl2, not S or A (x) S
            return der
        eye = Subspace.from_rows(alg.field, 9, [diagonal_map(alg.field, [1] * 3)])
        return EndoSpace(alg, der.space.sum(eye), der.tag)

    monkeypatch.setattr(decomposition, "derivation_space", with_identity)
    code, out, err = run_cap(capsys, ["verify-thm1", "--algebra", "sl2", "--s", "group-algebra(2)"])
    assert code == 4
    assert out == ""
    assert re.search(r"embedded generator \d+ of derA-tensor-S, the tensor of factor basis maps \(\d+, \d+\)", err)


@pytest.mark.parametrize("command", ["verify-thm2", "phi-eval"])
def test_empty_restriction_passes(tmp_path, capsys, command):
    # A = 0 is perfect, so every space of Theorem 2 is zero-dimensional
    spec = {
        "field": "rational",
        "a": "zero-product(0)",
        "s": "group-algebra(2)",
        "aut1": {"diagonal": [], "period": 2},
        "aut2": {"diagonal": ["1", "-1"], "period": 2},
    }
    p = tmp_path / "empty.json"
    p.write_text(json.dumps(spec))
    code, out, _ = run_cap(capsys, [command, "--setup", str(p), "--json"])
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_exit_1_on_failing_verdict(capsys):
    # budget 1 cannot reach the wrap case, so the report honestly fails
    code, out, _ = run_cap(
        capsys,
        ["lemma-identities", "--setup", "sl2-twisted-flagship", "--budget", "1"])
    assert code == 1
    assert "wrap-case-exercised: FAIL" in out


def test_size_guard_blocks_and_force_overrides(capsys, monkeypatch):
    monkeypatch.setattr(cli, "SIZE_GUARD", 10)
    code, _, err = run_cap(capsys, ["verify-thm2", "--setup", "sl2-twisted-flagship"])
    assert code == 2
    assert "size guard" in err and "--force" in err
    code, out, _ = run_cap(
        capsys, ["verify-thm2", "--setup", "sl2-twisted-flagship", "--force"])
    assert code == 0


def test_size_guard_predicts_catalog_setup_dims(monkeypatch, capsys):
    # rejected before any construction work happens
    monkeypatch.setattr(cli, "SIZE_GUARD", 40)
    code, _, err = run_cap(capsys, ["verify-thm2", "--setup", "quotient-laurent(4,4)"])
    assert code == 2
    assert "48" in err


def test_every_setup_entry_declares_the_dimensions_it_builds():
    # small arguments per arity; the guard reads these declarations before building
    small = {0: [()], 2: [(1, 2), (2, 1), (1, 3)]}
    for base, (arity, *_) in catalog._SETUP_ENTRIES.items():
        for args in small[arity]:
            name = f"{base}({','.join(map(str, args))})" if args else base
            st = decomposition.Setup(*catalog.catalog_setup(name))
            dim_a, dim_s = catalog.catalog_setup(name, dims=True)
            assert (dim_a, dim_s) == (st.a.dim, st.s.dim)
            assert dim_a * dim_s == st.ts.dim


@pytest.mark.parametrize("name,field", [
    ("sl2-twisted-flagship", "rational"),
    ("quotient-laurent(1,3)", "cyclotomic(3)"),
    ("quotient-laurent(1,4)", "prime(5,4)"),
])
def test_a_setup_file_parses_the_catalog_automorphisms(name, field):
    # the catalog writes sigma as a sparse map; the same sigma, written in a
    # setup file as a diagonal and as a matrix of formatted literals, parses
    # to the same sigma
    f = cli._parse_field_text(field)
    for label, aut in zip(("aut1", "aut2"), catalog.catalog_setup(name, f)[2:]):
        n, at, z = aut.algebra.dim, dict(aut.sig), f.zero()
        assert all(rc // n == rc % n for rc in at)
        written = {"diagonal": [f.format(at.get(i * n + i, z)) for i in range(n)],
                   "matrix": [[f.format(at.get(r * n + c, z)) for c in range(n)] for r in range(n)]}
        for form, value in written.items():
            parsed = cli._automorphism_from_spec({"period": aut.period, form: value}, aut.algebra, label)
            assert parsed.sig == aut.sig and parsed.period == aut.period


def test_setup_file_roundtrip(tmp_path, capsys):
    spec = {
        "field": "rational",
        "a": "sl2",
        "s": "group-algebra(2)",
        "aut1": {"diagonal": ["-1", "1", "-1"], "period": 2},
        "aut2": {"matrix": [["1", "0"], ["0", "-1"]], "period": 2},
        "q": 1,
    }
    p = tmp_path / "pair.json"
    p.write_text(json.dumps(spec))
    code, out, _ = run_cap(capsys, ["verify-thm2", "--setup", str(p), "--json"])
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


@pytest.mark.parametrize("n", [2, 4])
def test_setup_file_diagram_automorphism(tmp_path, capsys, n):
    # A = sl2 (x) k[Z2] = sl2 (+) sl2, and aut1 = id (x) (z -> -z) swaps the two
    # summands: the diagram case of Theorem 2, against k[Z_n] with z -> -z
    a = tensor_product(sl2(), group_algebra(2))
    spec = {
        "field": "rational",
        "a": a.to_definition(),
        "s": f"group-algebra({n})",
        "aut1": {"diagonal": ["1", "-1"] * 3, "period": 2},
        "aut2": {"diagonal": ["1", "-1"] * (n // 2), "period": 2},
        "q": 1,
    }
    p = tmp_path / "diagram.json"
    p.write_text(json.dumps(spec))
    reports = {}
    for command in ("verify-thm2", "verify-lemma35", "lemma-identities"):
        code, out, _ = run_cap(capsys, [command, "--setup", str(p), "--json"])
        assert code == 0, command
        reports[command] = json.loads(out)
        assert reports[command]["verdict"] == "pass", command
    thm2 = reports["verify-thm2"]["dimensions"]
    assert thm2["degree-zero-derivations"] == thm2["fixed-algebra-derivations"] == 3 * n
    assert reports["verify-lemma35"]["dimensions"]["D(A tensor S)"] == 6 * n


def test_setup_file_bad_automorphism_is_hypothesis_error(tmp_path, capsys):
    spec = {
        "a": "sl2",
        "s": "group-algebra(2)",
        "aut1": {"diagonal": ["1", "-1", "1"], "period": 2},
        "aut2": {"diagonal": ["1", "-1"], "period": 2},
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(spec))
    code, _, err = run_cap(capsys, ["verify-thm2", "--setup", str(p)])
    assert code == 3
    assert err.strip().endswith("not multiplicative on basis pair (0,1) [automorphism]")


def test_setup_file_identity_twists_need_no_root(tmp_path, capsys):
    # Q has no primitive cube root; the identity grading has an empty
    # degree-one component, so the graded unit is what fails
    eye = {"diagonal": ["1", "1", "1"], "period": 3}
    spec = {"a": "sl2", "s": "group-algebra(3)", "aut1": eye, "aut2": eye}
    p = tmp_path / "identity.json"
    p.write_text(json.dumps(spec))
    code, _, err = run_cap(capsys, ["verify-thm2", "--setup", str(p)])
    assert code == 3
    assert err.strip().endswith("no invertible element found in the degree-1 component [graded-unit]")


def test_setup_file_missing_part(tmp_path, capsys):
    p = tmp_path / "half.json"
    p.write_text(json.dumps({"a": "sl2"}))
    code, _, err = run_cap(capsys, ["verify-thm2", "--setup", str(p)])
    assert code == 2
    assert "'s'" in err


@pytest.mark.parametrize("field", ["cyclotomic(3)", "cyclotomic(5)", "prime(7)"])
def test_flagship_runs_over_fields_declared_without_an_order_two_root(capsys, field):
    # sigma has period 2, and -1 has order 2 in each of these fields, as in Q
    argv = ["verify-thm2", "--setup", "sl2-twisted-flagship", "--json"]
    code, out, _ = run_cap(capsys, argv + ["--field", field])
    assert code == 0
    rep, over_q = json.loads(out), json.loads(run_cap(capsys, argv)[1])
    assert rep["verdict"] == "pass"
    assert rep["dimensions"] == over_q["dimensions"] == {
        "degree-zero-derivations": 6, "fixed-algebra-derivations": 6,
        "restriction-rank": 6, "graded-formula-total": 6}


@pytest.mark.parametrize("argv", [
    ["derive", "--algebra", "sl2", "--json"],
    ["centroid", "--algebra", "group-algebra(3)", "--json"],
    ["grade", "--setup", "sl2-twisted-flagship", "--json"],
])
def test_catalog_name_beats_a_stray_file(tmp_path, monkeypatch, capsys, argv):
    want = run_cap(capsys, argv)
    assert want[0] == 0
    monkeypatch.chdir(tmp_path)
    (tmp_path / argv[3]).write_text("not json")
    assert run_cap(capsys, argv) == want


def test_bare_file_name_outside_the_catalog_is_a_path(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pair").write_text(json.dumps({
        "a": "sl2",
        "s": "group-algebra(2)",
        "aut1": {"diagonal": ["-1", "1", "-1"], "period": 2},
        "aut2": {"matrix": [["1", "0"], ["0", "-1"]], "period": 2},
        "q": 1,
    }))
    code, out, _ = run_cap(capsys, ["verify-thm2", "--setup", "pair", "--json"])
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_u_flag_overrides_unit(capsys):
    code, out, _ = run_cap(
        capsys, ["verify-thm2", "--setup", "sl2-twisted-flagship", "--u", "z3", "--json"])
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def _swap_pair_files(tmp_path):
    """sl2 against k x k, whose sigma swaps the idempotents e1, e2, and its
    eigenbasis twin: k x k on 1 = e1 + e2 and z = e1 - e2 is k[Z2] with z -> -z."""
    kk = {"field": {"kind": "rational"}, "dim": 2, "basis": ["e1", "e2"],
          "table": [[[[0, "1"]], []], [[], [[1, "1"]]]]}
    sign = {"diagonal": ["-1", "1", "-1"], "period": 2}
    files = []
    for name, s, aut2 in (("given", kk, {"matrix": [["0", "1"], ["1", "0"]], "period": 2}),
                          ("twin", "group-algebra(2)", {"diagonal": ["1", "-1"], "period": 2})):
        (tmp_path / name).write_text(json.dumps({"a": "sl2", "s": s, "aut1": sign, "aut2": aut2}))
        files.append(str(tmp_path / name))
    return files


@pytest.mark.parametrize("command", ["verify-thm2", "grade", "bm-eval"])
def test_a_unit_on_a_basis_sigma_does_not_diagonalize_is_carried_across(tmp_path, capsys, command):
    given, twin = _swap_pair_files(tmp_path)
    want = run_cap(capsys, [command, "--setup", twin, "--u", "z", "--json"])
    assert want[0] == 0
    assert run_cap(capsys, [command, "--setup", given, "--u", "1,-1", "--json"]) == want
    # e1 has a part in each degree
    code, _, err = run_cap(capsys, [command, "--setup", given, "--u", "e1", "--json"])
    assert code == 2 and "homogeneous" in err


def test_fixed_names_the_eigenbasis_of_a_sigma_that_is_not_diagonal(tmp_path, capsys):
    given, twin = _swap_pair_files(tmp_path)
    code, out, _ = run_cap(capsys, ["fixed", "--setup", given])
    assert code == 0
    assert out.splitlines()[:4] == ["basis 0: 1*e⊗(e1 + -1*e2)", "basis 1: 1*h⊗(e1 + e2)",
                                    "basis 2: 1*f⊗(e1 + -1*e2)", "claim: fixed-algebra"]
    assert out.replace("(e1 + -1*e2)", "z").replace("(e1 + e2)", "1") == run_cap(capsys, ["fixed", "--setup", twin])[1]


def test_u_flag_rejects_mixed_degrees(capsys):
    code, _, err = run_cap(
        capsys,
        ["verify-thm2", "--setup", "sl2-twisted-flagship", "--u", "1,1,0,0"])
    assert code == 2
    assert "homogeneous" in err


def test_catalog_list_names(capsys):
    code, out, _ = run_cap(capsys, ["catalog", "list"])
    assert code == 0
    for name in ("sl2", "dual-numbers", "group-algebra", "sl2-twisted-flagship",
                 "quotient-laurent", "exaBM-laurent", "last-exa-i", "last-exa-ii"):
        assert name in out


def test_catalog_show_algebra_json(capsys):
    code, out, _ = run_cap(capsys, ["catalog", "show", "sl2", "--json"])
    assert code == 0
    d = json.loads(out)
    assert d["dim"] == 3 and d["perfect"] is True and d["unital"] is False


def test_catalog_show_setup(capsys):
    code, out, _ = run_cap(capsys, ["catalog", "show", "sl2-twisted-flagship"])
    assert code == 0
    assert "fixed dim: 6" in out


@pytest.mark.parametrize("name,guard", [("quotient-laurent(31,3)", cli.SIZE_GUARD),
                                        ("sl2-twisted-flagship", 10)])
def test_catalog_show_refuses_a_setup_above_the_size_guard(capsys, monkeypatch, name, guard):
    def built(*args):
        raise AssertionError("a refused setup was built")

    monkeypatch.setattr(cli, "SIZE_GUARD", guard)
    monkeypatch.setattr(catalog, "sl2", built)
    code, out, err = run_cap(capsys, ["catalog", "show", name])
    assert (code, out) == (2, "")
    assert f"size guard of {guard}" in err


def test_catalog_show_unknown(capsys):
    code, _, err = run_cap(capsys, ["catalog", "show", "wat"])
    assert code == 2


def test_help_and_no_command_exit_codes(capsys):
    assert cli.run(["--help"]) == 0
    capsys.readouterr()
    assert cli.run([]) == 2
    capsys.readouterr()


def test_unknown_flag_usage_lists_every_command(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_cap(capsys, ["phi-eval", "--bogus"])
    assert code == 2
    assert out == ""
    assert err == (
        "usage: dertensor [-h]\n"
        "                 {derive,centroid,dcentroid,psi-check,grade,fixed,verify-thm1,"
        "verify-lemma21,verify-lemma35,verify-thm2,lemma-identities,phi-eval,bm-eval,"
        "counterexample-bm,catalog}\n"
        "                 ...\n"
        "dertensor: error: unrecognized arguments: --bogus\n")


# ---------------------------------------------------------------------------
# one command table: each command accepts exactly the flags it reads

ONE = {"--algebra", "--field", "--json"}
PAIR = {"--algebra", "--s", "--field", "--force", "--json"}
SETUP = {"--setup", "--field", "--force", "--u", "--json"}
ACCEPTED = {
    "derive": ONE,
    "centroid": ONE,
    "dcentroid": ONE,
    "psi-check": PAIR,
    "verify-lemma21": PAIR,
    "verify-thm1": PAIR | {"--budget"},
    "grade": SETUP,
    "fixed": SETUP,
    "verify-lemma35": SETUP,
    "verify-thm2": SETUP,
    "lemma-identities": SETUP | {"--budget"},
    "bm-eval": SETUP,
    "phi-eval": SETUP | {"--style", "--m"},
    "counterexample-bm": {"--json"},
}


def test_each_command_accepts_only_the_flags_it_reads():
    ap = cli.build_parser()
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        name: {opt for act in p._actions for opt in act.option_strings
               if opt not in ("-h", "--help")}
        for name, p in sub.choices.items() if name != "catalog"
    }
    assert got == ACCEPTED
    assert sum(len(flags) for flags in got.values()) == 64


def test_flags_a_command_does_not_read_exit_2(capsys):
    every = set().union(*ACCEPTED.values())
    for name, accepted in ACCEPTED.items():
        for flag in sorted(every - accepted):
            value = [] if flag in ("--json", "--force") else ["1"]
            assert cli.run([name, flag, *value]) == 2, (name, flag)
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["derive", "--algebra", "sl2", "--style", "inverse"],
    ["counterexample-bm", "--field", "prime(5,4)"],
    ["counterexample-bm", "--u", "z^5"],
    ["verify-thm2", "--setup", "sl2-twisted-flagship", "--budget", "1"],
    ["phi-eval", "--budget", "2"],
    ["derive", "--alg", "sl2"],
    ["derive", "--algebra", "sl2", "--js"],
])
def test_unread_or_abbreviated_flag_exits_2(capsys, argv):
    code, out, err = run_cap(capsys, argv)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("budget", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ["verify-thm1", "--algebra", "sl2", "--s", "dual-numbers"],
    ["lemma-identities", "--setup", "sl2-twisted-flagship"],
])
def test_non_positive_budget_exits_2(capsys, argv, budget):
    code, out, err = run_cap(capsys, argv + ["--budget", budget])
    assert code == 2
    assert out == ""
    assert "at least 1" in err


def test_exit_4_names_an_unexpected_exception(capsys, monkeypatch):
    def boom(setup):
        raise ZeroDivisionError("forced for the exit-code contract")
    monkeypatch.setattr(cli, "verify_pi_isomorphism", boom)
    code, _, err = run_cap(capsys, ["verify-thm2", "--setup", "sl2-twisted-flagship"])
    assert code == 4
    assert "ZeroDivisionError" in err


def test_module_entry_point_runs_the_command():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "dertensor.cli", "verify-lemma21",
         "--algebra", "zero-product(2)", "--s", "dual-numbers"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 3
    assert proc.stderr.strip().endswith("b0 (basis vector 0) is not in A*A [perfect]")


# ---------------------------------------------------------------------------
# malformed input files exit 2 (unusable input) or 3 (violated hypothesis)

DELETE = object()

GOOD_SETUP = {
    "field": "rational",
    "a": "sl2",
    "s": "group-algebra(2)",
    "aut1": {"diagonal": ["-1", "1", "-1"], "period": 2},
    "aut2": {"matrix": [["1", "0"], ["0", "-1"]], "period": 2},
    "q": 1,
}
GOOD_ALGEBRA = catalog_algebra("dual-numbers").to_definition()
NO_FIELD_SETUP = {k: v for k, v in GOOD_SETUP.items() if k != "field"}


@pytest.mark.parametrize("spec,argv,named", [
    (sl2().to_definition(), ["derive", "--algebra", "@", "--field", "prime(5)"],
     ["Field(rational)", "--field", "Field(prime, p=5, m=1)"]),
    (GOOD_SETUP, ["verify-thm2", "--setup", "@", "--field", "prime(5)"],
     ["key 'field'", "Field(rational)", "Field(prime, p=5, m=1)"]),
    # both factors inline over Q: the file would otherwise run over Q and pass
    (dict(GOOD_SETUP, field="prime(5,2)", a=sl2().to_definition(), s=group_algebra(2).to_definition()),
     ["verify-thm2", "--setup", "@"], ["key 'a'", "Field(rational)", "Field(prime, p=5, m=2)"]),
    # with no field declared, two inline factors over different fields
    (dict(NO_FIELD_SETUP, a=sl2(cli._parse_field_text("prime(5,2)")).to_definition(),
          s=group_algebra(2).to_definition()),
     ["verify-thm2", "--setup", "@"], ["key 'a'", "key 's'", "Field(rational)", "Field(prime, p=5, m=2)"]),
], ids=["algebra-file-vs-flag", "setup-field-vs-flag", "inline-factor-vs-setup-field", "inline-factors-disagree"])
def test_a_field_declared_twice_must_agree(tmp_path, capsys, spec, argv, named):
    p = tmp_path / "input.json"
    p.write_text(json.dumps(spec))
    code, out, err = run_cap(capsys, [str(p) if x == "@" else x for x in argv])
    assert (code, out) == (2, "")
    assert all(text in err for text in [str(p)] + named), err


def test_inputs_over_the_declared_field_run_as_without_it(tmp_path, capsys):
    f = cli._parse_field_text("prime(5,2)")
    alg, setup = tmp_path / "sl2.json", tmp_path / "setup.json"
    alg.write_text(json.dumps(sl2(f).to_definition()))
    setup.write_text(json.dumps(dict(GOOD_SETUP, field="prime(5,2)", a=sl2(f).to_definition(),
                                     s=group_algebra(2, f).to_definition())))
    for argv in (["derive", "--algebra", str(alg), "--json"],
                 ["verify-thm2", "--setup", str(setup), "--json"]):
        want = run_cap(capsys, argv)
        assert want[0] == 0
        assert run_cap(capsys, argv + ["--field", "prime(5,2)"]) == want


def test_an_inline_factor_declares_the_field_of_a_catalog_factor(tmp_path, capsys):
    # the catalog factor and the automorphism literals are read over F_5, where 4 = -1
    f = cli._parse_field_text("prime(5,2)")
    doc = dict(NO_FIELD_SETUP, a=sl2(f).to_definition(), aut2={"diagonal": ["1", "4"], "period": 2})
    bare, declared = tmp_path / "bare.json", tmp_path / "declared.json"
    bare.write_text(json.dumps(doc))
    declared.write_text(json.dumps(dict(doc, field="prime(5,2)")))
    want = run_cap(capsys, ["verify-thm2", "--setup", str(declared), "--json"])
    assert want[0] == 0
    assert run_cap(capsys, ["verify-thm2", "--setup", str(bare), "--json"]) == want


NON_STRINGS = st.one_of(
    st.none(), st.integers(), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
NON_INTS = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False, allow_infinity=False),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    st.text(max_size=4))
BAD_LITERALS = st.sampled_from(["x", "", "1/0", "--1", "1.5.2", "(1)"])
# an automorphism matrix that is not 3 x 3 or not made of scalar literals;
# a string is no list, even one of the right length
BAD_DIAGONALS = st.one_of(
    st.none(), st.integers(), st.text(max_size=4),
    st.lists(st.integers(), max_size=5).filter(lambda xs: len(xs) != 3),
    st.lists(BAD_LITERALS, min_size=3, max_size=3))
BAD_MATRICES = st.one_of(
    st.none(), st.integers(), st.text(max_size=4), st.lists(st.text(max_size=3), max_size=3),
    st.lists(st.lists(st.integers(), max_size=3), max_size=3).filter(
        lambda rows: len(rows) != 2 or any(len(r) != 2 for r in rows)),
    st.lists(st.lists(BAD_LITERALS, min_size=2, max_size=2), min_size=2, max_size=2))


def _slot(path, values):
    return st.tuples(st.just(path), values)


SETUP_DAMAGE = st.one_of(
    _slot(("field",), st.one_of(NON_STRINGS, st.sampled_from(
        ["rational(1)", "cyclotomic", "prime(4)", "prime(1)", "cyclotomic(0)", "x("]))),
    _slot(("a",), st.one_of(NON_STRINGS, st.sampled_from(
        ["no-such-algebra", "group-algebra(x)", "sl2(1)"]))),
    _slot(("s",), st.one_of(NON_STRINGS, st.sampled_from(["dual-numbers(2)", ""]))),
    _slot(("aut1",), NON_INTS),
    _slot(("aut2",), NON_INTS),
    _slot(("aut1", "period"), NON_INTS),
    _slot(("aut2", "period"), NON_INTS),
    _slot(("aut1", "diagonal"), BAD_DIAGONALS),
    _slot(("aut2", "matrix"), BAD_MATRICES),
    _slot(("q",), NON_INTS),
    _slot(("u",), st.one_of(NON_STRINGS, st.sampled_from(["x", "1,x", "1,2,3", ""]))),
    st.tuples(st.sampled_from([("a",), ("s",), ("aut1",), ("aut2",), ("aut1", "period"),
                               ("aut2", "matrix")]), st.just(DELETE)),
)

# out-of-range indices, non-integer indices, bad literals and bad entry shapes
BAD_ENTRIES = st.one_of(
    st.tuples(st.integers().filter(lambda k: k not in (0, 1)), st.just("1")).map(list),
    st.tuples(st.one_of(st.text(max_size=3), st.booleans(), st.floats(allow_nan=False)), st.just("1")).map(list),
    st.tuples(st.just(0), st.one_of(BAD_LITERALS, NON_STRINGS)).map(list),
    st.lists(st.integers(), max_size=3).filter(lambda e: len(e) != 2),
    st.text(max_size=3),
)
ALGEBRA_DAMAGE = st.one_of(
    _slot(("field",), st.one_of(NON_STRINGS, st.just("rational"), st.sampled_from(
        [{"kind": "x"}, {"kind": "cyclotomic"}, {"kind": "prime", "p": "x"},
         {"kind": "prime", "p": 4}, {"kind": "cyclotomic", "m": 0}]))),
    _slot(("dim",), st.one_of(NON_INTS, st.integers().filter(lambda n: n != 2))),
    _slot(("basis",), st.one_of(
        st.none(), st.integers(), st.just(["a", "a"]), st.just([1, 2]), st.text(max_size=3),
        st.lists(st.text(max_size=2), max_size=4).filter(lambda xs: len(xs) != 2))),
    _slot(("table",), st.one_of(
        st.none(), st.integers(), st.lists(st.just([]), max_size=4).filter(
            lambda rows: len(rows) != 2))),
    st.tuples(st.tuples(st.just("table"), st.sampled_from([0, 1])), st.one_of(
        st.none(), st.integers(), st.lists(st.just([]), max_size=4).filter(
            lambda row: len(row) != 2))),
    st.tuples(st.tuples(st.just("table"), st.sampled_from([0, 1]), st.sampled_from([0, 1])),
              st.one_of(st.none(), st.integers(), st.lists(BAD_ENTRIES, min_size=1,
                                                            max_size=2))),
    st.tuples(st.sampled_from([("field",), ("dim",), ("basis",), ("table",)]),
              st.just(DELETE)),
)


def _damaged(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


def _run_on_file(argv, flag, doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return cli.run(argv + [flag, path])


@settings(max_examples=80, deadline=None)
@given(SETUP_DAMAGE)
@example((("q",), "x"))
@example((("u",), 5))
@example((("q",), 1.7))
@example((("aut1", "period"), 2.9))
@example((("aut1", "diagonal"), "111"))
@example((("aut2", "matrix"), ["10", "01"]))
def test_malformed_setup_file_exits_2_or_3(damage):
    assert _run_on_file(["verify-thm2"], "--setup", _damaged(GOOD_SETUP, *damage)) in (2, 3)


@settings(max_examples=80, deadline=None)
@given(ALGEBRA_DAMAGE)
@example((("field",), "rational"))
@example((("dim",), "x"))
@example((("table", 1, 1), [["x", "1"]]))
@example((("dim",), 2.0))
@example((("basis",), "1x"))
@example((("table", 0, 0), ["01"]))
def test_malformed_algebra_file_exits_2_or_3(damage):
    assert _run_on_file(["derive"], "--algebra", _damaged(GOOD_ALGEBRA, *damage)) in (2, 3)


# a JSON value is read as it is written: a float or a bool is no integer,
# a string is no list of basis names, no [index, literal] entry and no
# automorphism diagonal or matrix
@pytest.mark.parametrize("flag,path,value,field", [
    ("--setup", ("aut1", "diagonal"), "111", "aut1 diagonal"),
    ("--setup", ("aut2", "matrix"), "[[1, 0], [0, -1]]", "aut2 matrix"),
    ("--setup", ("aut2", "matrix"), ["10", "01"], "aut2 matrix"),
    ("--setup", ("aut1", "period"), 2.9, "aut1 'period'"),
    ("--setup", ("aut2", "period"), True, "aut2 'period'"),
    ("--setup", ("q",), 1.7, "setup file 'q'"),
    ("--setup", ("q",), True, "setup file 'q'"),
    ("--algebra", ("dim",), 2.0, "dim"),
    ("--algebra", ("dim",), True, "dim"),
    ("--algebra", ("basis",), "1x", "basis"),
    ("--algebra", ("table", 0, 0), ["01"], "table entry at (0,0)"),
    ("--algebra", ("table", 1, 1), [[True, "1"]], "table index at (1,1)"),
    ("--algebra", ("table", 1, 1), [[1.0, "1"]], "table index at (1,1)"),
    ("--algebra", ("field",), {"kind": "prime", "p": 5.0}, "prime field 'p'"),
    ("--algebra", ("field",), {"kind": "prime", "p": 5, "m": True}, "prime field 'm'"),
    ("--algebra", ("field",), {"kind": "cyclotomic", "m": 3.0}, "cyclotomic field 'm'"),
])
def test_json_values_are_never_coerced(capsys, flag, path, value, field):
    doc, argv = (GOOD_SETUP, ["verify-thm2"]) if flag == "--setup" else (GOOD_ALGEBRA, ["derive"])
    assert _run_on_file(argv, flag, _damaged(doc, path, value)) == 2
    assert f"{field} must be" in capsys.readouterr().err


def test_a_matrix_of_digit_strings_is_refused(capsys):
    # read one character per entry, these rows were the identity of sl2
    doc = {"a": "sl2", "s": "group-algebra(4)", "aut1": {"period": 2, "matrix": ["100", "010", "001"]},
           "aut2": {"period": 2, "diagonal": [1, -1, 1, -1]}}
    assert _run_on_file(["verify-thm2"], "--setup", doc) == 2
    assert "aut1 matrix must be a list of row lists" in capsys.readouterr().err


def test_a_loop_argument_outside_degree_zero_names_its_exponent(monkeypatch, capsys):
    # a mutant phi that hands t^(n+1) d/dt its target: z^-6 is in degree
    # zero for m = 3, and z^-5, the next target, is not
    monkeypatch.setattr(laurent, "loop_phi", lambda a, aut, m, style, u, d: d)
    code, out, err = run_cap(capsys, ["phi-eval", "--setup", "last-exa-ii(3, 1)", "--json"])
    assert code == 4
    assert out == ""
    assert "degree-zero part: exponent -5 is not a multiple of m = 3" in err
