"""Machine verification of the derivation-algebra decomposition theorems.

The block decomposition D(A tensor S) = D(A) tensor S (+) C(A) tensor D(S)
is checked by computing both sides independently: the left by the brute-force
Leibniz kernel, the right by explicit spanning endomorphisms. Its graded
refinement and the restriction isomorphism pi onto the fixed-point algebra,
with the explicit inverse phi built from a graded unit, are verified the same
way. The historically published (and wrong) extension formula is implemented
as well, without any derivation guarantee, so its failure can be reproduced.

All verifiers return a VerificationReport; hypothesis violations raise
instead, so a returned report always speaks about the claim itself.
"""

from __future__ import annotations

import json

from .algebra import Algebra, tensor_product, tensor_vector
from .errors import (
    DimensionMismatch,
    FieldMismatch,
    HypothesisNotMet,
    InternalCheckFailed,
    NotInDomain,
    NotPerfect,
    PsiNotIso,
)
from .exactla import Matrix, Subspace, invert_matrix, rank, vec_add, vec_scale, vec_sub
from .gradings import (
    Automorphism,
    Grading,
    eps,
    find_graded_unit,
    fixed_point_algebra,
    grading_from_automorphism,
    induced_endo_grading,
    tensor_automorphism,
)
from .invariants import (
    EndoSpace,
    centroid,
    derivation_space,
    leibniz_witness,
    psi_map,
    require_scalar_hypotheses,
    s_module_derivations,
    satisfies_leibniz,
    vanishing_on_left_derivations,
)
from .scalars import PRIME


class VerificationReport:
    """Claim-level result: hypothesis checklist, dimensions, assertions."""

    def __init__(self, claim: str):
        self.claim = claim
        self.hypotheses = []
        self.dimensions = {}
        self.assertions = []

    def hyp(self, name: str, ok: bool = True):
        self.hypotheses.append((name, bool(ok)))

    def dim(self, name: str, value: int):
        self.dimensions[name] = int(value)

    def check(self, name: str, ok: bool, witness=None):
        entry = {"name": name, "pass": bool(ok)}
        if witness is not None:
            entry["witness"] = witness
        self.assertions.append(entry)

    @property
    def verdict(self) -> str:
        ok = all(ok for _, ok in self.hypotheses) and all(e["pass"] for e in self.assertions)
        return "pass" if ok else "fail"

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "hypotheses": [{"name": n, "pass": ok} for n, ok in self.hypotheses],
            "dimensions": dict(self.dimensions),
            "assertions": [dict(e) for e in self.assertions],
            "verdict": self.verdict,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_text(self) -> str:
        lines = [f"claim: {self.claim}"]
        for n, ok in self.hypotheses:
            lines.append(f"  hypothesis {n}: {'pass' if ok else 'FAIL'}")
        for n, v in self.dimensions.items():
            lines.append(f"  dim {n} = {v}")
        for e in self.assertions:
            lines.append(f"  assert {e['name']}: {'pass' if e['pass'] else 'FAIL'}")
            if "witness" in e:
                lines.append(f"    witness: {e['witness']}")
        lines.append(f"verdict: {self.verdict.upper()}")
        return "\n".join(lines)


def _matrix_from_columns(field, cols: list[list]) -> Matrix:
    nrows = len(cols[0])
    return Matrix(field, [[cols[c][r] for c in range(len(cols))] for r in range(nrows)], len(cols))


class Setup:
    """A validated instance of the fixed-point decomposition hypotheses.

    Holds two algebras over one field, automorphisms of a shared declared
    period, and a graded unit; every hypothesis of the restriction-map
    theorem is re-checked at construction. Derived data (tensor algebra,
    gradings, fixed-point algebra, derivation spaces, unit powers) is
    built once and cached. Instances are never mutated by verifiers.
    """

    def __init__(self, a: Algebra, s: Algebra, aut1: Automorphism, aut2: Automorphism,
                 q: int = 1, u: list | None = None):
        if a.field != s.field:
            raise FieldMismatch("factor algebras live over different fields")
        if aut1.algebra is not a or aut2.algebra is not s:
            raise DimensionMismatch("automorphisms do not act on the given algebras")
        if aut1.period != aut2.period:
            raise HypothesisNotMet(
                f"declared periods differ: {aut1.period} vs {aut2.period}", "automorphism-periods")
        self.a = a
        self.s = s
        self.aut1 = aut1
        self.aut2 = aut2
        self.m = aut1.period
        # (i) perfect, (ii) commutative associative unital
        if not a.is_perfect():
            raise NotPerfect("left factor is not perfect")
        require_scalar_hypotheses(s)
        # (iii) held by the Automorphism type; gradings need roots of unity
        self.grading_a = grading_from_automorphism(aut1)
        self.grading_s = grading_from_automorphism(aut2)
        self.ts = tensor_product(a, s)
        self.aut = tensor_automorphism(aut1, aut2, self.ts)
        self.grading_ts = grading_from_automorphism(self.aut)
        # (iv) graded unit, normalized into degree one
        self.unit_data = find_graded_unit(s, self.grading_s, q=q, u=u)
        # (v) psi isomorphism
        psi = psi_map(a, s, self.ts)
        if not psi.bijective:
            raise PsiNotIso("centroid tensor map is not bijective")
        self.psi_report = psi
        self.fixed_space = self.grading_ts.components[0]
        self.fixed_algebra, self.fixed_embedding = fixed_point_algebra(self.ts, self.grading_ts)
        self._upow = {}
        self._lmat = {}
        self._lazy = {}

    # -- cached derived invariant spaces ------------------------------------

    def _get(self, key, build):
        if key not in self._lazy:
            self._lazy[key] = build()
        return self._lazy[key]

    @property
    def der_a(self):
        return self._get("der_a", lambda: derivation_space(self.a))

    @property
    def cent_a(self):
        return self._get("cent_a", lambda: centroid(self.a))

    @property
    def der_s(self):
        return self._get("der_s", lambda: derivation_space(self.s))

    @property
    def der_ts(self):
        return self._get("der_ts", lambda: derivation_space(self.ts))

    @property
    def der_a_grading(self) -> Grading:
        return self._get("g_der_a", lambda: induced_endo_grading(self.aut1, self.der_a))

    @property
    def cent_a_grading(self) -> Grading:
        return self._get("g_cent_a", lambda: induced_endo_grading(self.aut1, self.cent_a))

    @property
    def der_s_grading(self) -> Grading:
        return self._get("g_der_s", lambda: induced_endo_grading(self.aut2, self.der_s))

    @property
    def der_ts_grading(self) -> Grading:
        return self._get("g_der_ts", lambda: induced_endo_grading(self.aut, self.der_ts))

    @property
    def der_fixed(self):
        return self._get("der_fixed", lambda: derivation_space(self.fixed_algebra))

    # -- unit powers and the right S-action ---------------------------------

    def unit_power(self, t: int, unit: str = "u_prime") -> list:
        """Coordinates of a unit raised to any integer power, cached per unit.

        The unit is the degree-one unit u_prime, or the original degree-q
        unit u (for the published formula).
        """
        cache = self._upow.setdefault(unit, {0: self.s.unit()})
        if t not in cache:
            if t > 0:
                cache[t] = self.s.mult(self.unit_power(t - 1, unit), getattr(self.unit_data, unit))
            else:
                cache[t] = self.s.mult(self.unit_power(t + 1, unit),
                                       getattr(self.unit_data, unit + "_inv"))
        return cache[t]

    def act(self, x: list, s_coords) -> list:
        """Right module action: multiply the S slot by a fixed element."""
        key = tuple(s_coords)
        lm = self._lmat.get(key)
        if lm is None:
            lm = self.s.left_mult_matrix(list(s_coords))
            self._lmat[key] = lm
        ns = self.s.dim
        out = []
        for blk in range(self.a.dim):
            out.extend(lm.matvec(x[blk * ns:(blk + 1) * ns]))
        return out

    def tensor_elem(self, a_vec: list, s_vec: list) -> list:
        return tensor_vector(self.a, self.s, a_vec, s_vec)

    # -- the fixed subalgebra as a coordinate space -------------------------

    def fixed_coords(self, x: list) -> list:
        return self.fixed_space.coords(x)

    def fixed_lift(self, coords: list) -> list:
        return self.fixed_space.linear_combination(coords)

    def d_eval(self, d_matrix: Matrix):
        """Evaluator for a derivation given in fixed-algebra coordinates.

        The matrix must be a derivation of the fixed algebra. The returned
        closure takes an ambient tensor vector that must lie in the fixed
        subalgebra and returns the ambient image.
        """
        k = self.fixed_algebra.dim
        if d_matrix.nrows != k or d_matrix.ncols != k:
            raise DimensionMismatch(f"expected a {k}x{k} matrix on the fixed algebra")
        if not self.der_fixed.contains_matrix(d_matrix):
            raise NotInDomain("not a derivation of the fixed-point algebra")

        def ev(x: list) -> list:
            try:
                c = self.fixed_coords(x)
            except NotInDomain:
                raise NotInDomain("evaluation argument is not in the fixed subalgebra")
            return self.fixed_lift(d_matrix.matvec(c))

        return ev

    @property
    def graded_pair_basis(self):
        """Pairs (a_vec, deg_a, b_vec, deg_b, tensor_vec) spanning A tensor S."""
        def build():
            pairs = []
            for avec, ia in self.grading_a.graded_basis():
                for bvec, ib in self.grading_s.graded_basis():
                    pairs.append((avec, ia, bvec, ib, self.tensor_elem(avec, bvec)))
            return pairs
        return self._get("pairs", build)

    @property
    def pair_basis_inverse(self) -> Matrix:
        """Inverse of the matrix whose columns are the graded pair vectors."""
        def build():
            v = _matrix_from_columns(self.a.field, [p[4] for p in self.graded_pair_basis])
            return invert_matrix(v)
        return self._get("pairs_inv", build)


# ---------------------------------------------------------------------------
# block decomposition (ungraded layer)


def split_derivation(delta: Matrix, a: Algebra, s: Algebra, ts: Algebra | None = None):
    """Split a tensor-algebra derivation into its S-linear part and the rest.

    The S-linear part is determined by d(a_i tensor s_j) = delta(a_i tensor 1)
    s_j; the remainder vanishes on A tensor 1. Both parts are verified to lie
    in their defining spaces. The sum of those spaces is checked direct once
    per tensor algebra: both spaces depend on it alone.
    """
    ts = ts or tensor_product(a, s)
    require_scalar_hypotheses(s)
    der = derivation_space(ts)
    if not der.contains_matrix(delta):
        raise NotInDomain("input is not a derivation of the tensor algebra")
    one = s.unit()
    lefts = s.left_mult_operators()
    cols = []
    ns = s.dim
    for i in range(a.dim):
        img = delta.matvec(tensor_vector(a, s, a.basis_vector(i), one))
        for j in range(s.dim):
            lm = lefts[j]
            col = []
            for blk in range(a.dim):
                col.extend(lm.matvec(img[blk * ns:(blk + 1) * ns]))
            cols.append(col)
    d = _matrix_from_columns(a.field, cols)
    rem = delta.sub(d)
    slin = s_module_derivations(a, s, ts)
    vanish = vanishing_on_left_derivations(a, s, ts)
    if not slin.contains_matrix(d):
        raise InternalCheckFailed("S-linear part escaped its defining space")
    if not vanish.contains_matrix(rem):
        raise InternalCheckFailed("remainder does not vanish on the left factor")
    if "split_direct" not in ts._cache:
        if slin.space.intersect(vanish.space).dim != 0:
            raise InternalCheckFailed("the two summand spaces overlap")
        ts._cache["split_direct"] = True
    return d, rem


def embed_tensor_derivations(a: Algebra, s: Algebra, ts: Algebra | None = None):
    """Spanning endomorphism images of D(A) tensor S and C(A) tensor D(S).

    Every generator is checked against the derivation law directly. Closure
    of the span under commutators is not checked here: the span lies in
    D(A tensor S), the certified kernel of all derivations, which is closed,
    and the theorem-1 report checks that the span is all of it.
    """
    ts = ts or tensor_product(a, s)
    if not a.is_perfect():
        raise NotPerfect("left factor is not perfect")
    require_scalar_hypotheses(s)
    f = a.field
    n2 = ts.dim * ts.dim
    gens1 = []
    lefts = s.left_mult_operators()
    for d in derivation_space(a).basis_matrices():
        for j in range(s.dim):
            gens1.append(d.kron(lefts[j]))
    gens2 = []
    for g in centroid(a).basis_matrices():
        for dp in derivation_space(s).basis_matrices():
            gens2.append(g.kron(dp))
    for gen in gens1 + gens2:
        if not satisfies_leibniz(ts, gen):
            raise InternalCheckFailed("embedded generator violates the derivation law")
    space1 = Subspace.from_vectors(f, n2, [g.flatten() for g in gens1])
    space2 = Subspace.from_vectors(f, n2, [g.flatten() for g in gens2])
    img1 = EndoSpace(ts, ts.dim, space1, tag="derA-tensor-S")
    img2 = EndoSpace(ts, ts.dim, space2, tag="centA-tensor-derS")
    return img1, img2


def verify_psi_lemma(a: Algebra, s: Algebra) -> VerificationReport:
    """The centroid tensor map is an isomorphism of associative algebras."""
    rep = VerificationReport("lemma-2.1")
    require_scalar_hypotheses(s)
    rep.hyp("scalar-S")
    ts = tensor_product(a, s)
    psi = psi_map(a, s, ts)  # raises NotPerfect when A*A != A
    rep.hyp("perfect-A")
    ca = centroid(a)
    cts = centroid(ts)
    rep.dim("C(A)", ca.dim)
    rep.dim("S", s.dim)
    rep.dim("C(A tensor S)", cts.dim)
    rep.check("injective", psi.injective)
    rep.check("image-in-centroid", psi.image_in_centroid)
    rep.check("surjective", psi.surjective)
    rep.check("multiplicative", psi.multiplicative)
    rep.check("dimension-product", cts.dim == ca.dim * s.dim)
    return rep


def verify_block_decomposition(a: Algebra, s: Algebra, ts: Algebra | None = None) -> VerificationReport:
    """D(A tensor S) = D(A) tensor S (+) C(A) tensor D(S), both sides computed."""
    rep = VerificationReport("theorem-1")
    if not a.is_perfect():
        raise NotPerfect("left factor is not perfect")
    rep.hyp("perfect-A")
    require_scalar_hypotheses(s)
    rep.hyp("scalar-S")
    ts = ts if ts is not None else tensor_product(a, s)
    psi = psi_map(a, s, ts)
    if not psi.bijective:
        raise PsiNotIso("centroid tensor map is not bijective")
    rep.hyp("psi-iso")
    full = derivation_space(ts)
    img1, img2 = embed_tensor_derivations(a, s, ts)
    da, ca, ds = derivation_space(a), centroid(a), derivation_space(s)
    rep.dim("D(A)", da.dim)
    rep.dim("C(A)", ca.dim)
    rep.dim("S", s.dim)
    rep.dim("D(S)", ds.dim)
    rep.dim("D(A tensor S)", full.dim)
    expected = da.dim * s.dim + ca.dim * ds.dim
    rep.dim("expected-total", expected)
    rep.check("dimension-identity", full.dim == expected)
    inter = img1.space.intersect(img2.space)
    rep.check("direct-sum", inter.dim == 0)
    rep.check("spans-all-derivations", img1.space.sum(img2.space) == full.space)
    return rep


# ---------------------------------------------------------------------------
# graded layer


def verify_graded_decomposition(setup: Setup) -> VerificationReport:
    """Each degree of D(A tensor S) is the matching convolution of factors."""
    rep = VerificationReport("lemma-3.5")
    for name in ("perfect-A", "scalar-S", "automorphism-periods", "graded-unit", "psi-iso"):
        rep.hyp(name)
    f = setup.a.field
    m = setup.m
    s = setup.s
    gd = setup.der_ts_grading
    ga_d = setup.der_a_grading
    ga_c = setup.cent_a_grading
    gs_d = setup.der_s_grading
    n2 = setup.ts.dim * setup.ts.dim
    total = 0
    for j in range(m):
        part1 = []
        part2 = []
        na, nsd = setup.a.dim, s.dim
        for k in range(m):
            for row in ga_d.components[k].rows:
                d = Matrix.unflatten(f, list(row), na, na)
                for srow in setup.grading_s.component(j - k).rows:
                    part1.append(d.kron(s.left_mult_matrix(list(srow))).flatten())
            for row in ga_c.components[k].rows:
                g = Matrix.unflatten(f, list(row), na, na)
                for drow in gs_d.component(j - k).rows:
                    dp = Matrix.unflatten(f, list(drow), nsd, nsd)
                    part2.append(g.kron(dp).flatten())
        sp1 = Subspace.from_vectors(f, n2, part1)
        sp2 = Subspace.from_vectors(f, n2, part2)
        rep.dim(f"degree-{j}", gd.components[j].dim)
        rep.check(f"degree-{j}-matches", sp1.sum(sp2) == gd.components[j])
        rep.check(f"degree-{j}-direct", sp1.intersect(sp2).dim == 0)
        total += gd.components[j].dim
    rep.dim("D(A tensor S)", setup.der_ts.dim)
    rep.check("degrees-fill-space", total == setup.der_ts.dim)
    return rep


def restrict_pi(big_d: Matrix, setup: Setup) -> Matrix:
    """Restrict a degree-zero tensor derivation to the fixed-point algebra."""
    if not setup.der_ts.contains_matrix(big_d):
        raise NotInDomain("not a derivation of the tensor algebra")
    if not setup.der_ts_grading.components[0].contains(big_d.flatten()):
        raise NotInDomain("not of degree zero")
    cols = []
    for t in range(setup.fixed_algebra.dim):
        w = big_d.matvec(setup.fixed_embedding.column(t))
        try:
            cols.append(setup.fixed_coords(w))
        except NotInDomain:
            raise InternalCheckFailed("degree-zero derivation moved the fixed subalgebra")
    r = _matrix_from_columns(setup.a.field, cols)
    if not setup.der_fixed.contains_matrix(r):
        raise InternalCheckFailed("restriction is not a derivation of the fixed algebra")
    return r


# ---------------------------------------------------------------------------
# the extension formulas, written once for both carriers
#
# A carrier holds A tensor S with a unit U of S and the grading period m.
# It supplies pure(a, t, b) = a tensor U^t b, the scalar-slot action
# act(x, t, b) = x U^t b, and one linear combination comb([(c, x), ...]).
# A missing b means 1.


class _Coords:
    """The finite carrier: coordinate vectors; U is a cached unit, to the power stride."""

    def __init__(self, setup: Setup, unit: str = "u_prime", stride: int = 1):
        self.setup, self.field, self.m = setup, setup.a.field, setup.m
        self.power = lambda t: setup.unit_power(stride * t, unit)

    def pure(self, avec, t: int, b=None) -> list:
        up = self.power(t)
        return self.setup.tensor_elem(avec, up if b is None else self.setup.s.mult(up, b))

    def act(self, x: list, t: int, b=None) -> list:
        y = self.setup.act(x, self.power(t))
        return y if b is None else self.setup.act(y, b)

    def comb(self, terms) -> list:
        f = self.field
        out = [f.zero()] * self.setup.ts.dim
        for c, x in terms:
            for i, v in enumerate(x):
                if f.nonzero(v):
                    out[i] = f.add(out[i], f.mul(c, v))
        return out


def _residue_shift(c, ev, avec, b, es: int, q: int):
    """U^r d(a tensor U^-r b), r = es q^-1 mod m, for the carrier's unit U of degree q."""
    m = c.m
    r = eps(es * pow(q, -1, m), m) if m > 1 else 0
    return c.act(ev(c.pure(avec, -r, b)), r)


def _bracket(c, ev, avec, t: int, big_m: int, b=None):
    """The averaging bracket u^t (u^-M d(a tensor u^(M-t) b) - d(a tensor u^-t b))."""
    f = c.field
    return c.act(c.comb([(f.one(), c.act(ev(c.pure(avec, big_m - t, b)), -big_m)),
                         (f.neg(f.one()), ev(c.pure(avec, -t, b)))]), t)


def _phi(c, ev, pieces, mn: int) -> list:
    """Images of homogeneous pieces (a, ia, b, es) under the inverse map.

    es is the total residue of a tensor b. The image is the residue shift
    by the degree-one unit, plus (es/mn) times the bracket of a at M = mn,
    times b.
    """
    f = c.field
    mn_inv = f.inv_int(mn)
    out = []
    for avec, ia, b, es in pieces:
        img = _residue_shift(c, ev, avec, b, es, 1)
        if es:
            corr = c.act(_bracket(c, ev, avec, ia, mn), 0, b)
            img = c.comb([(f.one(), img), (f.mul(f.from_int(es), mn_inv), corr)])
        out.append(img)
    return out


def _pair_pieces(setup: Setup) -> list:
    m = setup.m
    return [(avec, eps(ia, m), bvec, eps(ia + ib, m))
            for avec, ia, bvec, ib, _ in setup.graded_pair_basis]


def extend_phi(d_matrix: Matrix, setup: Setup, branch: str = "char0", n: int = 1) -> Matrix:
    """The explicit inverse of the restriction map, fully verified.

    Defined on the graded pair basis a_i tensor b and transported to the
    standard basis. The char0 branch implements the corrected extension
    formula (with its general integer parameter n); the charp branch, over
    prime fields, is the residue shift by the degree-p unit u^p, since
    u^(pr) = (u^p)^r. The result is checked to be a derivation, to have
    degree zero, and to restrict back to the input.
    """
    if branch not in ("char0", "charp"):
        raise ValueError(f"unknown branch {branch!r}")
    ev = setup.d_eval(d_matrix)
    f = setup.a.field
    p = f.char
    if branch == "charp":
        if f.kind != PRIME or p == 0:
            raise HypothesisNotMet("char-p branch needs a prime field", "prime-char")
        c = _Coords(setup, stride=p)
        cols = [_residue_shift(c, ev, avec, b, es, p) for avec, _, b, es in _pair_pieces(setup)]
    else:
        if n == 0 or (p and (n % p == 0)):
            raise HypothesisNotMet(f"n = {n} is not invertible here", "invertible-n")
        cols = _phi(_Coords(setup), ev, _pair_pieces(setup), setup.m * n)
    big = _matrix_from_columns(f, cols).mul(setup.pair_basis_inverse)
    wit = leibniz_witness(setup.ts, big)
    if wit is not None:
        raise InternalCheckFailed(f"extension violates the derivation law on pair {wit[:2]}")
    if big.mul(setup.aut.matrix) != setup.aut.matrix.mul(big):
        raise InternalCheckFailed("extension is not of degree zero")
    for t in range(setup.fixed_algebra.dim):
        got = big.matvec(setup.fixed_embedding.column(t))
        want = setup.fixed_lift(d_matrix.column(t))
        if got != want:
            raise InternalCheckFailed("extension does not restrict to the input")
    return big


def bm_formula_extend(d_matrix: Matrix, setup: Setup) -> Matrix:
    """The earlier published extension formula, returned unverified.

    The residue shift by the original degree-q unit: on a_i tensor b with
    total residue s, the image is u^r d(a_i tensor u^{-r} b) where
    s = q r mod m. No derivation property is claimed; this exists to
    reproduce its failure.
    """
    ev = setup.d_eval(d_matrix)
    c = _Coords(setup, "u")
    q = setup.unit_data.q
    cols = [_residue_shift(c, ev, avec, b, es, q) for avec, _, b, es in _pair_pieces(setup)]
    return _matrix_from_columns(setup.a.field, cols).mul(setup.pair_basis_inverse)


# ---------------------------------------------------------------------------
# the surjectivity-proof identities


def check_surjectivity_identities(d_matrix: Matrix, setup: Setup,
                                  sample_budget: int | None = None) -> VerificationReport:
    """Exact spot checks of the averaging and exchange identities.

    Every homogeneous basis element is tried with several integer lifts of
    its residue and n in -2..2; identities quantified over all integers are
    sampled, which still exercises every case split (including the residue
    wrap, whenever two occupied left degrees can reach m). sample_budget caps
    the number of tuples per identity family.
    """
    rep = VerificationReport("surjectivity-identities")
    for name in ("perfect-A", "scalar-S", "automorphism-periods", "graded-unit"):
        rep.hyp(name)
    ev = setup.d_eval(d_matrix)
    c = _Coords(setup)
    f = setup.a.field
    m = setup.m
    ts = setup.ts

    def lifts(res):
        e = eps(res, m)
        return (e, e + m, e - m)

    def du(avec, t):
        # d(a tensor u^t), the recurring building block
        return ev(c.pure(avec, t))

    def capped(seq):
        if sample_budget is None:
            return seq
        return seq[:sample_budget]

    abasis = setup.grading_a.graded_basis()
    sbasis = setup.grading_s.graded_basis()
    ns = range(-2, 3)

    fails = {}
    counts = {}

    def run(name, tuples, check):
        bad = None
        cnt = 0
        for idx, tup in enumerate(capped(tuples)):
            cnt += 1
            if bad is None and not check(*tup):
                ints = [x for x in tup if isinstance(x, int)]
                bad = f"sample {idx}, integer parameters {ints}"
        counts[name] = cnt
        fails[name] = bad

    # averaging formulas: three ways of writing 2d, (1+n)d, (1-n)d
    tuples1 = [(avec, i, n) for avec, ia in abasis for i in lifts(ia) for n in ns]

    def f1(avec, i, n):
        lhs = vec_add(f, c.act(du(avec, -i + n * m), -n * m),
                      c.act(du(avec, -i - n * m), n * m))
        return lhs == vec_scale(f, f.from_int(2), du(avec, -i))

    def f2(avec, i, n):
        lhs = vec_add(f, c.act(du(avec, -i + n * m), -n * m),
                      vec_scale(f, f.from_int(n), c.act(du(avec, -i - m), m)))
        return lhs == vec_scale(f, f.from_int(1 + n), du(avec, -i))

    def f3(avec, i, n):
        lhs = vec_sub(f, c.act(du(avec, -i + n * m), -n * m),
                      vec_scale(f, f.from_int(n), c.act(du(avec, -i + m), -m)))
        return lhs == vec_scale(f, f.from_int(1 - n), du(avec, -i))

    run("formula-1", tuples1, f1)
    run("formula-2", tuples1, f2)
    run("formula-3", tuples1, f3)

    # residue-shift identity on products, with its wrap case
    wrap_seen = 0
    tuples4 = [(a1, ia, a2, ja) for a1, ia in abasis for a2, ja in abasis]

    def f4(a1, ia, a2, ja):
        nonlocal wrap_seen
        cvec = setup.a.mult(a1, a2)
        e_sum = eps(ia, m) + eps(ja, m)
        if e_sum >= m:
            wrap_seen += 1
        return _bracket(c, ev, cvec, eps(ia + ja, m), m) == _bracket(c, ev, cvec, e_sum, m)

    run("formula-4", tuples4, f4)
    # a wrap needs two occupied left degrees summing to m or more
    top = max((eps(ia, m) for _, ia in abasis), default=0)
    rep.check("wrap-case-exercised", wrap_seen > 0 or 2 * top < m)

    # exchange identities
    tuplesI = [
        (a1, ia, b1, ib1, a2, ja, b2, ib2, sft, tft)
        for a1, ia in abasis for b1, ib1 in sbasis
        for a2, ja in abasis for b2, ib2 in sbasis
        for sft in (eps(ia + ib1, m), eps(ia + ib1, m) + m)
        for tft in (eps(ja + ib2, m), eps(ja + ib2, m) + m)
    ]

    def ex1(a1, ia, b1, ib1, a2, ja, b2, ib2, sft, tft):
        lhs = ts.mult(_bracket(c, ev, a1, sft, m, b1), setup.tensor_elem(a2, b2))
        rhs = ts.mult(setup.tensor_elem(a1, b1), _bracket(c, ev, a2, tft, m, b2))
        return lhs == rhs

    run("exchange-I", tuplesI, ex1)

    tuplesII = [(a1, i, a2, j) for a1, ia in abasis for i in lifts(ia)
                for a2, ja in abasis for j in lifts(ja)]

    def ex2(a1, i, a2, j):
        lhs = ts.mult(c.pure(a1, -i), c.act(_bracket(c, ev, a2, j, m), -j))
        rhs = ts.mult(c.act(_bracket(c, ev, a1, i, m), -i), c.pure(a2, -j))
        return lhs == rhs

    run("exchange-II", tuplesII, ex2)

    tuplesIII = [(a1, i, a2, b2, tft)
                 for a1, ia in abasis for i in lifts(ia)
                 for a2, ja in abasis for b2, ib2 in sbasis
                 for tft in (eps(ja + ib2, m), eps(ja + ib2, m) + m)]

    def ex3(a1, i, a2, b2, tft):
        lhs = ts.mult(c.pure(a1, 0), _bracket(c, ev, a2, tft, m, b2))
        rhs = ts.mult(_bracket(c, ev, a1, i, m), setup.tensor_elem(a2, b2))
        return lhs == rhs

    run("exchange-III", tuplesIII, ex3)

    for name in ("formula-1", "formula-2", "formula-3", "formula-4",
                 "exchange-I", "exchange-II", "exchange-III"):
        rep.dim(f"samples-{name}", counts[name])
        rep.check(name, fails[name] is None, fails[name])
    return rep


# ---------------------------------------------------------------------------
# the restriction isomorphism


def verify_pi_isomorphism(setup: Setup) -> VerificationReport:
    """Restriction to the fixed-point algebra is bijective, with inverse phi."""
    rep = VerificationReport("theorem-2")
    for name in ("perfect-A", "scalar-S", "automorphism-periods", "graded-unit", "psi-iso"):
        rep.hyp(name)
    f = setup.a.field
    m = setup.m
    zero_comp = setup.der_ts_grading.components[0]
    n0 = zero_comp.dim
    k0 = setup.der_fixed.dim
    rep.dim("degree-zero-derivations", n0)
    rep.dim("fixed-algebra-derivations", k0)

    nts = setup.ts.dim
    basis_big = [Matrix.unflatten(f, list(r), nts, nts) for r in zero_comp.rows]
    restrictions = []
    all_restrict = True
    for bm in basis_big:
        cols = [setup.fixed_coords(bm.matvec(setup.fixed_embedding.column(t)))
                for t in range(setup.fixed_algebra.dim)]
        r = _matrix_from_columns(f, cols) if cols else Matrix.zeros(f, 0, 0)
        if not setup.der_fixed.contains_matrix(r):
            all_restrict = False
        restrictions.append(r)
    rep.check("restriction-lands-in-derivations", all_restrict)
    if not all_restrict:
        return rep

    pi_cols = [setup.der_fixed.coords_of_matrix(r) for r in restrictions]
    pi_mat = _matrix_from_columns(f, pi_cols) if pi_cols else Matrix.zeros(f, k0, 0)
    rk = rank(pi_mat)
    rep.dim("restriction-rank", rk)
    rep.check("injective", rk == n0)
    rep.check("surjective", rk == k0)

    ok_left = True
    for bm in basis_big:
        if extend_phi(restrict_pi(bm, setup), setup) != bm:
            ok_left = False
            break
    rep.check("phi-after-pi-is-identity", ok_left)

    ok_right = True
    for dm in setup.der_fixed.basis_matrices():
        if restrict_pi(extend_phi(dm, setup), setup) != dm:
            ok_right = False
            break
    rep.check("pi-after-phi-is-identity", ok_right)

    expected = 0
    for i in range(m):
        expected += setup.der_a_grading.components[i].dim * setup.grading_s.component(-i).dim
        expected += setup.cent_a_grading.components[i].dim * setup.der_s_grading.component(-i).dim
    rep.dim("graded-formula-total", expected)
    rep.check("graded-dimension-formula", k0 == expected)
    return rep
