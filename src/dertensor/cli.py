"""Command-line surface: argument parsing, input resolution and dispatch.

Every command prints either a human-readable report or, with --json, a
machine report with the fixed shape {claim, hypotheses, dimensions,
assertions, verdict}. Exit codes: 0 for a passing verdict (or a completed
solver run), 1 for a failing verdict, 2 for unusable input, 3 for a
violated hypothesis, 4 for an internal invariant failure or any other
unexpected exception. All output is deterministic: identical inputs give
byte-identical reports. Every claim report is built by the library.
"""

import argparse
import json
import os
import sys
import traceback
from functools import partial

from .algebra import Algebra, field_from_definition, json_int
from .catalog import (
    catalog_algebra,
    catalog_entries,
    catalog_scene,
    catalog_setup,
    is_catalog_name,
    parse_catalog_name,
)
from .decomposition import (
    SPLIT_SAMPLES,
    Setup,
    VerificationReport,
    check_surjectivity_identities,
    verify_block_decomposition,
    verify_block_decomposition_sweep,
    verify_bm_formula,
    verify_graded_decomposition,
    verify_phi_extension,
    verify_pi_isomorphism,
    verify_psi_lemma,
    verify_psi_lemma_sweep,
    verify_psi_map,
)
from .errors import (
    EngineError,
    HypothesisNotMet,
    InternalCheckFailed,
    ParseError,
)
from .exactla import apply_map, canonical_row, combine_rows
from .gradings import check_automorphism, diagonal_form, grading_from_automorphism
from .invariants import centroid, derivation_space, differential_centroid
from .laurent import (
    FORWARD,
    INVERSE,
    SCENE_PERIODS,
    SCENE_SHIFTS,
    verify_bm_counterexample,
    verify_inverse_map_reproduction,
    verify_inverse_map_values,
    verify_twisted_normal_form,
)
from .scalars import make_field

SIZE_GUARD = 90


# ---------------------------------------------------------------------------
# input resolution


def _parse_field_text(text: str):
    base, args = parse_catalog_name(text)
    if base == "rational":
        if args:
            raise ParseError("rational takes no arguments")
        return make_field("rational")
    if base == "cyclotomic":
        if len(args) != 1:
            raise ParseError("cyclotomic takes (m)")
        return make_field("cyclotomic", m=args[0])
    if base == "prime":
        if len(args) == 1:
            return make_field("prime", m=1, p=args[0])
        if len(args) == 2:
            return make_field("prime", m=args[1], p=args[0])
        raise ParseError("prime takes (p) or (p, m)")
    raise ParseError(f"unknown field {text!r}; use rational, cyclotomic(m) or prime(p,m)")


def _field_of(args):
    return _parse_field_text(args.field) if args.field else None


def _looks_like_path(text: str) -> bool:
    """A file path, unless the text names a catalog entry: a name beats a stray file."""
    if is_catalog_name(text):
        return False
    return os.path.sep in text or text.endswith(".json") or os.path.exists(text)


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    except ValueError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}")


def _same_field(field, what: str, declared, source: str):
    """Refuse an input whose own field is not the one declared for it (None declares none)."""
    if declared is not None and field != declared:
        raise ParseError(f"{what} declares {field}, but {source} declares {declared}")


def _resolve_algebra(text: str, field) -> Algebra:
    if text is None:
        raise ParseError("an algebra name or file is required")
    if _looks_like_path(text):
        alg = Algebra.from_definition(_load_json(text))
        _same_field(alg.field, text, field, "--field")
        return alg
    return catalog_algebra(text, field)


def _parse_element(text: str, algebra: Algebra) -> tuple:
    """A basis name, or comma-separated scalar literals in the basis, as a sparse row."""
    if not isinstance(text, str):
        raise ParseError(f"an element is a basis name or a literal string, got {text!r}")
    text = text.strip()
    f = algebra.field
    if text in algebra.names:
        return ((algebra.names.index(text), f.one()),)
    parts = [t.strip() for t in text.split(",")]
    if len(parts) != algebra.dim:
        raise ParseError(
            f"element literal needs {algebra.dim} coordinates or a basis name, got {text!r}")
    return tuple((i, x) for i, x in enumerate(map(f.parse, parts)) if f.nonzero(x))


def _guard_product(dim_a: int, dim_s: int, force: bool, hint: str = "rerun with --force to proceed"):
    if dim_a * dim_s > SIZE_GUARD and not force:
        raise ParseError(
            f"tensor dimension {dim_a * dim_s} exceeds the size guard of {SIZE_GUARD}; {hint}")


def _automorphism_from_spec(spec: dict, algebra: Algebra, label: str):
    """sigma, read straight into a sparse map from a 'diagonal' list or a
    'matrix' list of row lists of scalar literals."""
    try:
        period = json_int(spec["period"], f"{label} 'period'")
    except (KeyError, TypeError):
        raise ParseError(f"{label} needs an integer 'period'")
    f, n = algebra.field, algebra.dim
    if "diagonal" in spec:
        if not isinstance(entries := spec["diagonal"], list):
            raise ParseError(f"{label} diagonal must be a list of scalar literals, got {entries!r}")
        if len(entries) != n:
            raise ParseError(f"{label} diagonal must have {n} entries")
        cells = {i * n + i: x for i, x in enumerate(entries)}
    elif "matrix" in spec:
        if not isinstance(rows := spec["matrix"], list) or not all(isinstance(row, list) for row in rows):
            raise ParseError(f"{label} matrix must be a list of row lists of scalar literals, got {rows!r}")
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ParseError(f"{label} matrix must be {n} x {n}")
        cells = {r * n + c: x for r, row in enumerate(rows) for c, x in enumerate(row)}
    else:
        raise ParseError(f"{label} needs a 'matrix' or a 'diagonal'")
    return check_automorphism(algebra, canonical_row(f, {k: f.parse(str(x)) for k, x in cells.items()}), period)


def _setup_from_file(path: str, field_flag, force: bool) -> tuple:
    """The pieces (a, s, aut1, aut2, q, u) of a setup file; u is None when it names none."""
    d = _load_json(path)
    if not isinstance(d, dict):
        raise ParseError(f"{path} must hold a JSON object")
    declared, source = field_flag, "--field"
    if "field" in d:
        declared = _parse_field_text(d["field"]) if isinstance(d["field"], str) \
            else field_from_definition(d["field"])
        _same_field(declared, f"{path} key 'field'", field_flag, source)
        source = f"{path} key 'field'"
    for key in ("a", "s"):
        if key not in d:
            raise ParseError(f"setup file lacks {key!r}")
    # an inline factor declares its field when nothing else does
    inline = {key: Algebra.from_definition(d[key]) for key in ("a", "s") if not isinstance(d[key], str)}
    for key, alg in inline.items():
        if declared is None:
            declared, source = alg.field, f"{path} key {key!r}"
        _same_field(alg.field, f"{path} key {key!r}", declared, source)
    field = declared or make_field("rational")
    a, s = (inline[key] if key in inline else catalog_algebra(d[key], field) for key in ("a", "s"))
    _guard_product(a.dim, s.dim, force)
    aut1 = _automorphism_from_spec(d.get("aut1", {}), a, "aut1")
    aut2 = _automorphism_from_spec(d.get("aut2", {}), s, "aut2")
    q = json_int(d.get("q", 1), "setup file 'q'")
    return a, s, aut1, aut2, q, _parse_element(d["u"], s) if "u" in d else None


def _resolve_setup(text: str, args) -> Setup:
    """The Setup a name or file gives, built once; --u replaces its graded unit."""
    if text is None:
        raise ParseError("a setup name or file is required")
    field = _field_of(args)
    if _looks_like_path(text):
        a, s, aut1, aut2, q, u = _setup_from_file(text, field, args.force)
    else:
        # the dimensions the entry declares, refused before anything is built
        _guard_product(*catalog_setup(text, dims=True), args.force)
        a, s, aut1, aut2 = catalog_setup(text, field)
        q, u = 1, None
    if args.u:
        # read on the given basis and carried once onto sigma's diagonal form, where its degree is read
        u = _parse_element(args.u, s)
        aut2, carry = diagonal_form(aut2)
        s, u = aut2.algebra, apply_map(s.field, carry, s.dim, u) if carry else u
        q = grading_from_automorphism(aut2).degree_of(u)
        if q is None:
            raise ParseError("--u must be a nonzero homogeneous element of S")
    return Setup(a, s, aut1, aut2, q=q, u=u)


# ---------------------------------------------------------------------------
# output plumbing


def _emit(rep: VerificationReport, args, extra_lines=None) -> int:
    if args.json:
        print(rep.to_json())
    else:
        for line in extra_lines or []:
            print(line)
        print(rep.to_text())
    return 0 if rep.verdict == "pass" else 1


def _matrix_lines(f, flat, n: int) -> list:
    """The n by n sparse flattened map flat, one bracketed line per row."""
    at, z = dict(flat), f.zero()
    return ["  [" + "  ".join(f.format(at.get(r * n + c, z)) for c in range(n)) + "]" for r in range(n)]


# ---------------------------------------------------------------------------
# solvers


def cmd_solve(space_of, claim: str, label: str, args) -> int:
    es = space_of(_resolve_algebra(args.algebra, _field_of(args)))
    rep = VerificationReport(claim)
    rep.dim("dim", es.dim)
    if args.json:
        return _emit(rep, args)
    print(f"dim {label} = {es.dim}")
    for row in es.space._sparse:
        print("\n".join(_matrix_lines(es.algebra.field, row, es.n)))
        print()
    return 0


def _pair(args, f):
    """The pair named by --algebra and --s, within the size guard."""
    a = _resolve_algebra(args.algebra, f)
    s = _resolve_algebra(args.s, f)
    _guard_product(a.dim, s.dim, args.force)
    return a, s


def cmd_psi_check(args) -> int:
    return _emit(verify_psi_map(*_pair(args, _field_of(args))), args)


def cmd_grade(args) -> int:
    st = _resolve_setup(args.setup, args)
    rep = VerificationReport("grading")
    for i, dim in enumerate(st.grading_a.component_dims):
        rep.dim(f"left-degree-{i}", dim)
    for i, dim in enumerate(st.grading_s.component_dims):
        rep.dim(f"right-degree-{i}", dim)
    for i, dim in enumerate(st.grading_ts.component_dims):
        rep.dim(f"tensor-degree-{i}", dim)
    rep.check("components-fill-space", sum(st.grading_ts.component_dims) == st.ts.dim)
    # check_automorphism proved both factors' sigma multiplicative, so sigma1 tensor sigma2
    # is, and the tensor grading's coordinate components, of degree deg i + deg j at basis
    # pair (i, j), multiply by residue sum
    rep.check("multiplicative", True)
    return _emit(rep, args)


def cmd_fixed(args) -> int:
    st = _resolve_setup(args.setup, args)
    rep = VerificationReport("fixed-algebra")
    rep.dim("ambient", st.ts.dim)
    rep.dim("fixed", st.fixed_algebra.dim)
    lines = []
    f = st.a.field
    for t, vec in enumerate(st.fixed_space._sparse):
        txt = " + ".join(f"{f.format(c)}*{st.ts.names[i]}" for i, c in vec)
        lines.append(f"basis {t}: {txt}")
    return _emit(rep, args, extra_lines=lines)


# ---------------------------------------------------------------------------
# claim verifiers


def _pair_or_sweep(args, f):
    """The pair named by --algebra and --s, or None for the catalog sweep."""
    if not (args.algebra or args.s):
        return None
    if not (args.algebra and args.s):
        raise ParseError("give both --algebra and --s, or neither for the catalog sweep")
    return _pair(args, f)


def cmd_verify_thm1(args) -> int:
    f = _field_of(args)
    samples = args.budget or SPLIT_SAMPLES
    pair = _pair_or_sweep(args, f)
    return _emit(verify_block_decomposition(*pair, samples) if pair
                 else verify_block_decomposition_sweep(f, samples), args)


def cmd_verify_lemma21(args) -> int:
    f = _field_of(args)
    pair = _pair_or_sweep(args, f)
    return _emit(verify_psi_lemma(*pair) if pair else verify_psi_lemma_sweep(f), args)


def cmd_verify_lemma35(args) -> int:
    return _emit(verify_graded_decomposition(_resolve_setup(args.setup, args)), args)


def cmd_verify_thm2(args) -> int:
    return _emit(verify_pi_isomorphism(_resolve_setup(args.setup, args)), args)


def cmd_lemma_identities(args) -> int:
    st = _resolve_setup(args.setup, args)
    f = st.a.field
    basis = st.der_fixed.space._sparse
    if not basis:
        raise HypothesisNotMet("the fixed algebra has no derivations to test",
                               hypothesis="nonzero-derivation-space")
    # a generic integer combination exercises every formula at once
    dm = combine_rows(f, ((f.from_int(i + 1), b) for i, b in enumerate(basis)))
    return _emit(check_surjectivity_identities(dm, st, sample_budget=args.budget), args)


# ---------------------------------------------------------------------------
# the Laurent evaluation scenes and the extension formulas


def _scene(args):
    """The scene --setup names as (base, args), base None for no --setup; None for a
    finite setup. Scenes are fixed over Q and tiny: the flags they ignore are refused."""
    scene = catalog_scene(args.setup) if args.setup is not None else (None, ())
    if scene and (args.field or args.force):
        flag = "--field" if args.field else "--force"
        raise ParseError(f"{flag} applies only to a finite --setup, not to the Laurent scenes")
    return scene


def _no_period(args, what: str):
    if args.m is not None:
        raise ParseError(f"--m applies only to the scene sweep (no --setup, or last-exa-ii), "
                         f"not to {what}")


def cmd_phi_eval(args) -> int:
    scene = _scene(args)
    if scene is None:
        _no_period(args, "a finite setup")
        if args.style is not None:
            raise ParseError("--style applies only to the Laurent scenes, not to a finite setup")
        return _emit(verify_phi_extension(_resolve_setup(args.setup, args)), args)
    base, nargs = scene
    ms = SCENE_PERIODS if args.m is None else (args.m,)
    if base is None:
        rep = verify_inverse_map_reproduction(ms, args.style, args.u)
    elif base != "last-exa-ii":
        _no_period(args, base)
        rep = verify_inverse_map_values(args.style, args.u)
    elif nargs:
        _no_period(args, "last-exa-ii(m, n)")
        rep = verify_twisted_normal_form((nargs[0],), (nargs[1],), args.style, args.u)
    else:
        rep = verify_twisted_normal_form(ms, SCENE_SHIFTS, args.style, args.u)
    return _emit(rep, args)


def cmd_bm_eval(args) -> int:
    scene = _scene(args)
    if scene is None:
        return _emit(verify_bm_formula(_resolve_setup(args.setup, args)), args)
    if scene[0] == "last-exa-ii":
        raise ParseError("the published formula scene is the period-4 scalar one")
    if args.u:
        raise ParseError("--u needs a finite --setup; the published formula scene fixes u = z")
    return _emit(verify_bm_counterexample(), args)


def cmd_counterexample_bm(args) -> int:
    return _emit(verify_bm_counterexample(), args)


# ---------------------------------------------------------------------------
# catalog


def cmd_catalog(args) -> int:
    entries = catalog_entries()
    if args.action == "list":
        if args.json:
            print(json.dumps({"entries": entries}, indent=2))
        else:
            width = max(len(e["name"]) for e in entries) + 2
            for e in entries:
                print(f"{e['name']:<{width}}{e['kind']:<9}{e['about']}")
        return 0
    if not args.name:
        raise ParseError("catalog show needs a name")
    base, _ = parse_catalog_name(args.name)
    kind = next((e["kind"] for e in entries if e["name"] == base), None)
    if kind is None:
        raise ParseError(f"unknown catalog entry {base!r}")
    f = _field_of(args)
    if kind == "algebra":
        a = catalog_algebra(args.name, f)
        info = {"name": args.name, "kind": kind, "dim": a.dim, "basis": list(a.names)}
        info.update(a.properties())
    elif kind == "setup":
        _guard_product(*catalog_setup(args.name, dims=True), False, "catalog show builds no setup above it")
        st = Setup(*catalog_setup(args.name, f))
        info = {"name": args.name, "kind": kind, "dim A": st.a.dim, "dim S": st.s.dim, "period": st.m,
                "fixed dim": st.fixed_algebra.dim, "unit residue": st.unit_data.q}
    else:
        catalog_scene(args.name)
        about = next(e["about"] for e in entries if e["name"] == base)
        info = {"name": args.name, "kind": kind, "about": about}
    if args.json:
        print(json.dumps(info, indent=2))
    else:
        for k, v in info.items():
            print(f"{k}: {v}")
    return 0


# ---------------------------------------------------------------------------
# dispatch


def _at_least_one(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


# every argument any command takes; a command's row in COMMANDS picks its own
ARGUMENTS = {
    "action": dict(choices=["list", "show"]),
    "name": dict(nargs="?", help="catalog entry"),
    "--algebra": dict(help="the algebra, or the left factor of a pair: file or catalog name"),
    "--s": dict(help="right factor: file or catalog name"),
    "--setup": dict(help="setup file or catalog name"),
    "--field": dict(help="rational, cyclotomic(m) or prime(p,m)"),
    "--force": dict(action="store_true", help="bypass the size guard"),
    "--u": dict(help="explicit graded unit (element literal)"),
    "--budget": dict(type=_at_least_one, help="number of samples (at least 1)"),
    "--style": dict(choices=[FORWARD, INVERSE], help="laurent grading style"),
    "--m": dict(type=_at_least_one, help="restrict the scene sweep to one period (at least 1)"),
    "--json": dict(action="store_true", help="emit the machine report"),
}

ONE = ("--algebra", "--field", "--json")
PAIR = ("--algebra", "--s", "--field", "--force", "--json")
SETUP = ("--setup", "--field", "--force", "--u", "--json")

# name, handler, help, and exactly the arguments the handler reads
COMMANDS = (
    ("derive", partial(cmd_solve, derivation_space, "derivation-algebra", "D"),
     "derivation algebra of one algebra", ONE),
    ("centroid", partial(cmd_solve, centroid, "centroid", "C"),
     "centroid of one algebra", ONE),
    ("dcentroid", partial(cmd_solve, differential_centroid, "differential-centroid", "dC"),
     "differential centroid of one algebra", ONE),
    ("psi-check", cmd_psi_check, "centroid tensor map on a pair", PAIR),
    ("grade", cmd_grade, "show the grading data of a setup", SETUP),
    ("fixed", cmd_fixed, "show the fixed-point algebra of a setup", SETUP),
    ("verify-thm1", cmd_verify_thm1, "block decomposition of D(A tensor S)",
     PAIR + ("--budget",)),
    ("verify-lemma21", cmd_verify_lemma21, "centroid tensor isomorphism", PAIR),
    ("verify-lemma35", cmd_verify_lemma35, "graded block decomposition", SETUP),
    ("verify-thm2", cmd_verify_thm2, "restriction map bijectivity with inverse", SETUP),
    ("lemma-identities", cmd_lemma_identities, "averaging and exchange identities",
     SETUP + ("--budget",)),
    ("phi-eval", cmd_phi_eval, "evaluate the inverse-map formula",
     SETUP + ("--style", "--m")),
    ("bm-eval", cmd_bm_eval, "evaluate the earlier published formula", SETUP),
    ("counterexample-bm", cmd_counterexample_bm, "reproduce the failure of that formula",
     ("--json",)),
    ("catalog", cmd_catalog, "list or show built-in examples",
     ("action", "name", "--field", "--json")),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of the named one alone; usage lists them all."""
    ap = argparse.ArgumentParser(
        prog="dertensor", allow_abbrev=False,
        description="exact derivations, centroids, gradings and the restriction isomorphism")
    every = "{" + ",".join(name for name, *_ in COMMANDS) + "}"
    sub = ap.add_subparsers(dest="command", required=True,
                            metavar=None if command is None else every)
    for name, fn, about, accepted in COMMANDS:
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=about, allow_abbrev=False)
        for arg in accepted:
            p.add_argument(arg, **ARGUMENTS[arg])
        p.set_defaults(fn=fn)
    return ap


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and any(argv[0] == name for name, *_ in COMMANDS) else None
    try:
        args = build_parser(command).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckFailed as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 4
    except HypothesisNotMet as exc:
        tag = f" [{exc.hypothesis}]" if exc.hypothesis else ""
        print(f"hypothesis not met: {exc}{tag}", file=sys.stderr)
        return 3
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # exit 1 is a failing verdict, so a crash must not reach it
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
