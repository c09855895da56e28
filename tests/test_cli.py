"""End-to-end runs of the command-line surface, in process."""

import argparse
import copy
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dertensor.cli as cli
from dertensor.catalog import catalog_algebra
from dertensor.errors import InternalCheckFailed
from dertensor.invariants import differential_centroid


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
    assert "[perfect]" in err


def test_exit_4_on_internal_failure(capsys, monkeypatch):
    def boom(setup):
        raise InternalCheckFailed("forced for the exit-code contract")
    monkeypatch.setattr(cli, "verify_pi_isomorphism", boom)
    code, _, err = run_cap(capsys, ["verify-thm2", "--setup", "sl2-twisted-flagship"])
    assert code == 4
    assert "internal check failed" in err


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


def test_setup_file_missing_part(tmp_path, capsys):
    p = tmp_path / "half.json"
    p.write_text(json.dumps({"a": "sl2"}))
    code, _, err = run_cap(capsys, ["verify-thm2", "--setup", str(p)])
    assert code == 2
    assert "'s'" in err


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


def test_catalog_show_unknown(capsys):
    code, _, err = run_cap(capsys, ["catalog", "show", "wat"])
    assert code == 2


def test_help_and_no_command_exit_codes(capsys):
    assert cli.run(["--help"]) == 0
    capsys.readouterr()
    assert cli.run([]) == 2
    capsys.readouterr()


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
    assert "[perfect]" in proc.stderr


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


def _not_int(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


NON_STRINGS = st.one_of(
    st.none(), st.integers(), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
NON_INTS = st.one_of(
    st.none(), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    st.text(max_size=4).filter(_not_int))
BAD_LITERALS = st.sampled_from(["x", "", "1/0", "--1", "1.5.2", "(1)"])
# an automorphism matrix that is not 3 x 3 or not made of scalar literals
BAD_DIAGONALS = st.one_of(
    st.none(), st.integers(),
    st.lists(st.integers(), max_size=5).filter(lambda xs: len(xs) != 3),
    st.lists(BAD_LITERALS, min_size=3, max_size=3))
BAD_MATRICES = st.one_of(
    st.none(), st.integers(),
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
    st.tuples(st.text(max_size=3).filter(_not_int), st.just("1")).map(list),
    st.tuples(st.just(0), st.one_of(BAD_LITERALS, NON_STRINGS)).map(list),
    st.lists(st.integers(), max_size=3).filter(lambda e: len(e) != 2),
)
ALGEBRA_DAMAGE = st.one_of(
    _slot(("field",), st.one_of(NON_STRINGS, st.just("rational"), st.sampled_from(
        [{"kind": "x"}, {"kind": "cyclotomic"}, {"kind": "prime", "p": "x"},
         {"kind": "prime", "p": 4}, {"kind": "cyclotomic", "m": 0}]))),
    _slot(("dim",), st.one_of(NON_INTS, st.integers().filter(lambda n: n != 2))),
    _slot(("basis",), st.one_of(
        st.none(), st.integers(), st.just(["a", "a"]), st.just([1, 2]),
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
def test_malformed_setup_file_exits_2_or_3(damage):
    assert _run_on_file(["verify-thm2"], "--setup", _damaged(GOOD_SETUP, *damage)) in (2, 3)


@settings(max_examples=80, deadline=None)
@given(ALGEBRA_DAMAGE)
@example((("field",), "rational"))
@example((("dim",), "x"))
@example((("table", 1, 1), [["x", "1"]]))
def test_malformed_algebra_file_exits_2_or_3(damage):
    assert _run_on_file(["derive"], "--algebra", _damaged(GOOD_ALGEBRA, *damage)) in (2, 3)
