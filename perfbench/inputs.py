"""Workload items and seeded inputs for the benchmark.

A seed fixes, for every factor algebra, a permutation of its basis and a
diagonal rescaling by factors drawn from {1, -1, 2, -2, 3}: the new basis
vector i is c_i * b_{perm[i]}. Structure constants, automorphism matrices
and the graded unit are rewritten in the new basis, so the seeded input is
isomorphic to the catalog one: sparsity pattern, dimensions and verdicts stay,
while the numbers and the pivot order change. Seed 0 is the identity and uses
the catalog names verbatim.

This module imports dertensor, so it is loaded only after the caller has put
the checkout's ``src`` directory first on ``sys.path``.
"""

from __future__ import annotations

import json
import os
import random

from dertensor.algebra import Algebra, field_to_definition
from dertensor.catalog import catalog_algebra, diagonal_matrix, group_algebra, sl2
from dertensor.exactla import Matrix
from dertensor.scalars import make_field

SCALES = (1, -1, 2, -2, 3)

WORKLOADS = ("claims-sweep", "twisted", "kernel-ladder")

# the eight pairs of the catalog sweep (cli.DEFAULT_PAIRS)
PAIRS = (
    ("sl2", "dual-numbers"),
    ("sl2", "group-algebra(2)"),
    ("sl2", "group-algebra(3)"),
    ("sl2", "group-algebra(4)"),
    ("sl2-graded-variant", "dual-numbers"),
    ("sl2-graded-variant", "group-algebra(2)"),
    ("sl2-graded-variant", "group-algebra(3)"),
    ("sl2-graded-variant", "group-algebra(4)"),
)

# ladder rungs: field label, make_field arguments (kind, m, p), sizes k, item group
LADDER = (
    ("Q", ("rational", 1, None), (3, 5), "ladder_q"),
    ("F31", ("prime", 3, 31), (4, 8), "ladder_fp"),
    ("Qz3", ("cyclotomic", 3, None), (2, 3), "ladder_cyc"),
)


def ladder_field(label: str):
    for name, (kind, m, p), _, _ in LADDER:
        if name == label:
            return make_field(kind, m=m, p=p)
    raise KeyError(label)


# ---------------------------------------------------------------------------
# basis changes


def basis_change(seed: int, label: str, dim: int):
    """(perm, scales) for one factor; the identity when seed is 0."""
    if seed == 0:
        return list(range(dim)), [1] * dim
    rng = random.Random(f"perfbench:{seed}:{label}")
    perm = list(range(dim))
    rng.shuffle(perm)
    return perm, [rng.choice(SCALES) for _ in range(dim)]


def change_algebra(alg: Algebra, perm, scales) -> Algebra:
    """The same algebra in the basis c_i * b_{perm[i]}."""
    f = alg.field
    n = alg.dim
    c = [f.from_int(x) for x in scales]
    cinv = [f.inv(x) for x in c]
    back = [0] * n  # back[old] = new index
    for new, old in enumerate(perm):
        back[old] = new
    z = f.zero()
    table = []
    for i in range(n):
        row = []
        for j in range(n):
            cij = f.mul(c[i], c[j])
            vec = [z] * n
            for k, t in enumerate(alg.table[perm[i]][perm[j]]):
                if t != z:
                    nk = back[k]
                    vec[nk] = f.mul(f.mul(cij, t), cinv[nk])
            row.append(vec)
        table.append(row)
    return Algebra(f, [alg.names[perm[i]] for i in range(n)], table)


def change_matrix(mat: Matrix, perm, scales) -> Matrix:
    """P^-1 M P for the monomial basis change P (column convention)."""
    f = mat.field
    c = [f.from_int(x) for x in scales]
    n = len(perm)
    rows = [[f.mul(f.mul(mat.rows[perm[r]][perm[s]], c[s]), f.inv(c[r])) for s in range(n)]
            for r in range(n)]
    return Matrix(f, rows, n)


def change_vector(f, vec, perm, scales) -> list:
    """Coordinates in the new basis of a vector given in the old one."""
    return [f.mul(vec[perm[r]], f.inv(f.from_int(scales[r]))) for r in range(len(perm))]


def tensor_basis_change(perm_a, scales_a, perm_s, scales_s):
    """The basis change of A (x) S induced by basis changes of both factors."""
    ns = len(perm_s)
    perm = [perm_a[i] * ns + perm_s[j] for i in range(len(perm_a)) for j in range(ns)]
    scales = [scales_a[i] * scales_s[j] for i in range(len(perm_a)) for j in range(ns)]
    return perm, scales


def endo_to_old_basis(f, flat, perm, scales) -> list:
    """Flattened endomorphism in the new basis, rewritten in the old one."""
    n = len(perm)
    c = [f.from_int(x) for x in scales]
    out = [f.zero()] * (n * n)
    for r in range(n):
        for s in range(n):
            x = flat[r * n + s]
            if x != f.zero():
                out[perm[r] * n + perm[s]] = f.mul(f.mul(x, c[r]), f.inv(c[s]))
    return out


# ---------------------------------------------------------------------------
# setups (mirrors catalog.sl2_twisted_flagship and catalog.quotient_laurent_setup)


def _setup_parts(name: str, f):
    """(a, s, aut1 matrix, aut2 matrix, period, unit index in S)."""
    if name == "sl2-twisted-flagship":
        return (sl2(f), group_algebra(4, f), diagonal_matrix(f, [-1, 1, -1]),
                diagonal_matrix(f, [1, -1, 1, -1]), 2, 1)
    if name.startswith("quotient-laurent"):
        n_blocks, m = (int(x) for x in name[name.index("(") + 1:-1].split(","))
        om = f.root_of_unity(m)
        size = n_blocks * m
        return (sl2(f), group_algebra(size, f), Matrix.identity(f, 3),
                diagonal_matrix(f, [f.pow(om, k) for k in range(size)]), m, 1)
    raise KeyError(name)


def setup_definition(name: str, f, seed: int, label: str) -> dict:
    """The setup-file form of a catalog setup in a seeded basis."""
    a, s, m1, m2, period, unit_idx = _setup_parts(name, f)
    pa, ca = basis_change(seed, label + ":A", a.dim)
    ps, cs = basis_change(seed, label + ":S", s.dim)
    u = change_vector(f, s.basis_vector(unit_idx), ps, cs)

    def fmt(mat):
        return [[f.format(x) for x in row] for row in mat.rows]

    return {
        "field": field_to_definition(f),
        "a": change_algebra(a, pa, ca).to_definition(),
        "s": change_algebra(s, ps, cs).to_definition(),
        "aut1": {"period": period, "matrix": fmt(change_matrix(m1, pa, ca))},
        "aut2": {"period": period, "matrix": fmt(change_matrix(m2, ps, cs))},
        "q": 1,
        "u": ",".join(f.format(x) for x in u),
    }


# ---------------------------------------------------------------------------
# items


def _write(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
    return path


def _cli(item_id, group, argv):
    return {"id": item_id, "group": group, "kind": "cli", "argv": argv}


def claims_items(seed: int, work: str) -> list:
    q = make_field("rational")

    def factor(name, label):
        if seed == 0:
            return name
        alg = catalog_algebra(name, q)
        perm, scales = basis_change(seed, label, alg.dim)
        return _write(os.path.join(work, f"{label}.json"),
                      change_algebra(alg, perm, scales).to_definition())

    files = [(factor(aname, f"pair{idx}-A"), factor(sname, f"pair{idx}-S"))
             for idx, (aname, sname) in enumerate(PAIRS)]
    items = []
    for (aname, sname), (a, s) in zip(PAIRS, files):
        items.append(_cli(f"thm1 {aname} x {sname}", "thm1",
                          ["verify-thm1", "--budget", "25", "--json", "--algebra", a, "--s", s]))
    for (aname, sname), (a, s) in zip(PAIRS, files):
        items.append(_cli(f"lemma21 {aname} x {sname}", "lemma21",
                          ["verify-lemma21", "--json", "--algebra", a, "--s", s]))
    items.append(_cli("lemma21 refusal", "lemma21",
                      ["verify-lemma21", "--algebra", factor("zero-product(2)", "refusal-A"),
                       "--s", factor("dual-numbers", "refusal-S")]))
    return items


def twisted_items(seed: int, work: str) -> list:
    def setup(name, field_flag, f, label):
        """CLI arguments naming the setup: the catalog name, or a seeded file."""
        if seed == 0:
            return [name] + (["--field", field_flag] if field_flag else [])
        return [_write(os.path.join(work, f"{label}.json"), setup_definition(name, f, seed, label))]

    flag = setup("sl2-twisted-flagship", None, make_field("rational"), "flagship")
    ql13 = setup("quotient-laurent(1,3)", None, make_field("cyclotomic", m=3), "ql13")
    ql14 = setup("quotient-laurent(1,4)", "prime(5,4)", make_field("prime", m=4, p=5), "ql14")

    def on(args):
        return ["--setup", args[0]] + args[1:] + ["--json"]

    return [
        _cli("thm2 flagship", "thm2", ["verify-thm2"] + on(flag)),
        _cli("thm2 quotient-laurent(1,3)", "thm2", ["verify-thm2"] + on(ql13)),
        _cli("lemma35 flagship", "lemma", ["verify-lemma35"] + on(flag)),
        _cli("identities flagship", "lemma", ["lemma-identities"] + on(flag)),
        _cli("phi flagship", "phi", ["phi-eval"] + on(flag)),
        _cli("phi quotient-laurent(1,4) F5", "phi", ["phi-eval"] + on(ql14)),
        _cli("bm flagship", "phi", ["bm-eval"] + on(flag)),
        _cli("phi scenes", "loop", ["phi-eval", "--json"]),
        _cli("phi last-exa-ii m24", "loop",
             ["phi-eval", "--setup", "last-exa-ii", "--m", "24", "--json"]),
        _cli("phi last-exa-ii m32", "loop",
             ["phi-eval", "--setup", "last-exa-ii", "--m", "32", "--json"]),
        _cli("counterexample-bm", "loop", ["counterexample-bm", "--json"]),
    ]


def ladder_items(seed: int, work: str) -> list:
    items = []
    for label, _, ks, group in LADDER:
        for k in ks:
            items.append({"id": f"ladder {label} k={k}", "group": group, "kind": "ladder",
                          "field": label, "k": k})
    return items


def build_items(workload: str, seed: int, work: str) -> list:
    """The items of one workload, writing any seeded input files under work."""
    os.makedirs(work, exist_ok=True)
    build = {"claims-sweep": claims_items, "twisted": twisted_items,
             "kernel-ladder": ladder_items}[workload]
    return build(seed, work)


def ladder_algebras(field_label: str, k: int, seed: int):
    """Seeded sl2 and k[z]/(z^k - 1) of one rung, with the tensor basis change."""
    f = ladder_field(field_label)
    a, s = sl2(f), group_algebra(k, f)
    pa, ca = basis_change(seed, f"ladder-{field_label}-{k}:A", a.dim)
    ps, cs = basis_change(seed, f"ladder-{field_label}-{k}:S", s.dim)
    return (change_algebra(a, pa, ca), change_algebra(s, ps, cs),
            tensor_basis_change(pa, ca, ps, cs))
