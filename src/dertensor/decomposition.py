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
from .exactla import (Matrix, Subspace, apply_map, combine_rows, compose_maps, first_difference, invert_matrix,
                      sparse_kron, sparse_rows, vec_add, vec_scale, vec_sub)
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
    psi_multiplicative,
    require_scalar_hypotheses,
    s_module_derivations,
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


def _map_of_columns(field, cols: list[list]) -> tuple:
    """The sparse flattened square map whose column p is the dense vector cols[p]."""
    return sparse_rows(field, [[x for row in zip(*cols) for x in row]])[0]


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
        # (iii) held by the Automorphism type; a grading other than the
        # identity's needs a root of unity
        self.grading_a = grading_from_automorphism(aut1)
        self.grading_s = grading_from_automorphism(aut2)
        self.ts = tensor_product(a, s)
        self.aut = tensor_automorphism(aut1, aut2, self.ts)
        self.grading_ts = grading_from_automorphism(self.aut)
        # (iv) graded unit, normalized into degree one
        self.unit_data = find_graded_unit(s, self.grading_s, q=q, u=u)
        # (v) psi isomorphism
        if not psi_map(a, s, self.ts).bijective:
            raise PsiNotIso("centroid tensor map is not bijective")
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
        if key not in self._lmat:
            self._lmat[key] = self.s.mult_map(list(s_coords))
        return apply_map(self.a.field, self._lmat[key], self.s.dim, x)

    def tensor_elem(self, a_vec: list, s_vec: list) -> list:
        return tensor_vector(self.a, self.s, a_vec, s_vec)

    # -- the fixed subalgebra as a coordinate space -------------------------

    def fixed_coords(self, x: list) -> list:
        return self.fixed_space.coords(x)

    def fixed_lift(self, coords: list) -> list:
        return self.fixed_space.linear_combination(coords)

    def d_eval(self, d):
        """Evaluator for a derivation given in fixed-algebra coordinates.

        d must be a derivation of the fixed algebra, as a sparse flattened map
        (sorted, zero-free: Subspace._sparse). The returned closure takes an
        ambient tensor vector that must lie in the fixed subalgebra and
        returns the ambient image as a new list. It is memoised per distinct
        argument; an argument outside the fixed subalgebra raises NotInDomain
        on every call.
        """
        k = self.fixed_algebra.dim
        if d and d[-1][0] >= k * k:
            raise DimensionMismatch(f"expected a map on the dim-{k} fixed algebra")
        if not self.der_fixed.space.contains_row(d):
            raise NotInDomain("not a derivation of the fixed-point algebra")
        images = {}

        def ev(x: list) -> list:
            key = tuple(x)
            if key not in images:
                try:
                    c = self.fixed_coords(x)
                except NotInDomain:
                    raise NotInDomain("evaluation argument is not in the fixed subalgebra")
                images[key] = tuple(self.fixed_lift(apply_map(self.a.field, d, k, c)))
            return list(images[key])

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
    def pair_basis_inverse(self) -> tuple:
        """Inverse of the matrix whose columns are the graded pair vectors, sparse flattened."""
        def build():
            f, cols = self.a.field, [p[4] for p in self.graded_pair_basis]
            return sparse_rows(f, [invert_matrix(Matrix(f, list(zip(*cols)), self.ts.dim)).flatten()])[0]
        return self._get("pairs_inv", build)


# ---------------------------------------------------------------------------
# block decomposition (ungraded layer)


def split_derivation(delta, a: Algebra, s: Algebra, ts: Algebra | None = None):
    """Split a tensor-algebra derivation into its S-linear part and the rest.

    The S-linear part is d(a_i tensor s_j) = delta(a_i tensor 1) s_j; the
    remainder vanishes on A tensor 1 (all sparse flattened: see Setup.d_eval).
    Both parts are verified to lie in their defining spaces, whose sum is
    checked direct once per tensor algebra: both depend on it alone.
    """
    ts = ts or tensor_product(a, s)
    require_scalar_hypotheses(s)
    f, n, one = a.field, ts.dim, s.unit()
    if not derivation_space(ts).space.contains_row(delta):
        raise NotInDomain("input is not a derivation of the tensor algebra")
    cols = []
    for i in range(a.dim):
        img = apply_map(f, delta, n, tensor_vector(a, s, a.basis_vector(i), one))
        cols += [apply_map(f, lj, s.dim, img) for lj in s.left_mult_operators()]
    d = _map_of_columns(f, cols)
    rem = combine_rows(f, ((f.one(), delta), (f.neg(f.one()), d)))
    slin = s_module_derivations(a, s, ts)
    vanish = vanishing_on_left_derivations(a, s, ts)
    if (c := slin.space.first_outside(d)) is not None:
        raise InternalCheckFailed(f"S-linear part escaped its defining space at entry {divmod(c, n)}")
    if (c := vanish.space.first_outside(rem)) is not None:
        raise InternalCheckFailed(f"remainder does not vanish on the left factor at entry {divmod(c, n)}")
    if "split_direct" not in ts._cache:
        if slin.space.intersect(vanish.space).dim != 0:
            raise InternalCheckFailed("the two summand spaces overlap")
        ts._cache["split_direct"] = True
    return d, rem


def embed_tensor_derivations(a: Algebra, s: Algebra, ts: Algebra | None = None):
    """Spanning endomorphism images of D(A) tensor S and C(A) tensor D(S).

    Every generator is checked to lie in D(A tensor S), the certified kernel
    of all derivations. Closure of the span under commutators is not checked
    here: that kernel is closed, and the theorem-1 report checks that the
    span is all of it.
    """
    ts = ts or tensor_product(a, s)
    if not a.is_perfect():
        raise NotPerfect("left factor is not perfect")
    require_scalar_hypotheses(s)
    images = []
    for tag, xs, ys in (("derA-tensor-S", derivation_space(a), s.left_mult_operators()),
                        ("centA-tensor-derS", centroid(a), derivation_space(s).space._sparse)):
        gens = [sparse_kron(a.field, x, a.dim, y, s.dim) for x in xs.space._sparse for y in ys]
        for idx, gen in enumerate(gens):
            if not derivation_space(ts).space.contains_row(gen):
                raise InternalCheckFailed(f"embedded generator {idx} of {tag}, the tensor of factor basis "
                                          f"maps {divmod(idx, len(ys))}, is not a derivation")
        images.append(EndoSpace(ts, ts.dim, Subspace.from_rows(a.field, ts.dim * ts.dim, gens), tag))
    return tuple(images)


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
    rep.check("multiplicative", psi_multiplicative(a, s))
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
    na = setup.a.dim
    total = 0
    for j in range(m):
        part1 = []
        part2 = []
        for k in range(m):
            lefts = [s.mult_map(y) for y in setup.grading_s.component(j - k).rows]
            for part, xs, ys in ((part1, ga_d, lefts), (part2, ga_c, gs_d.component(j - k)._sparse)):
                part += [sparse_kron(f, x, na, y, s.dim) for x in xs.components[k]._sparse for y in ys]
        sp1 = Subspace.from_rows(f, n2, part1)
        sp2 = Subspace.from_rows(f, n2, part2)
        rep.dim(f"degree-{j}", gd.components[j].dim)
        rep.check(f"degree-{j}-matches", sp1.sum(sp2) == gd.components[j])
        rep.check(f"degree-{j}-direct", sp1.intersect(sp2).dim == 0)
        total += gd.components[j].dim
    rep.dim("D(A tensor S)", setup.der_ts.dim)
    rep.check("degrees-fill-space", total == setup.der_ts.dim)
    return rep


def _restrict(big_d, setup: Setup) -> tuple:
    """big_d on the fixed-point algebra, in its coordinates; the image must stay inside it."""
    f, n, cols = setup.a.field, setup.ts.dim, []
    for t in range(setup.fixed_algebra.dim):
        try:
            cols.append(setup.fixed_coords(apply_map(f, big_d, n, setup.fixed_embedding.column(t))))
        except NotInDomain:
            raise InternalCheckFailed(f"degree-zero derivation moved the fixed subalgebra at basis vector {t}")
    return _map_of_columns(f, cols)


def restrict_pi(big_d, setup: Setup) -> tuple:
    """Restrict a degree-zero tensor derivation to the fixed-point algebra (sparse maps).

    The degree-zero component is cut inside D(A tensor S): one membership
    test refuses a non-derivation and a wrong degree alike (NotInDomain). A
    restriction that is no derivation of the fixed algebra is an engine fault.
    """
    if not setup.der_ts_grading.components[0].contains_row(big_d):
        raise NotInDomain("not a degree-zero derivation of the tensor algebra")
    r = _restrict(big_d, setup)
    if not setup.der_fixed.space.contains_row(r):
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


def extend_phi(d, setup: Setup, branch: str = "char0", n: int = 1) -> tuple:
    """The explicit inverse of the restriction map, fully verified.

    Defined on the graded pair basis a_i tensor b and transported to the
    standard basis, on sparse flattened maps (see Setup.d_eval). The char0
    branch implements the corrected extension formula (with its general
    integer parameter n); the charp branch, over prime fields, is the residue
    shift by the degree-p unit u^p, since u^(pr) = (u^p)^r. The result is
    checked to be a derivation, to commute with sigma (degree zero), and to
    restrict back to the input.
    """
    if branch not in ("char0", "charp"):
        raise ValueError(f"unknown branch {branch!r}")
    ev = setup.d_eval(d)
    f, nts, k = setup.a.field, setup.ts.dim, setup.fixed_algebra.dim
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
    big = compose_maps(f, _map_of_columns(f, cols), setup.pair_basis_inverse, nts)
    wit = leibniz_witness(setup.ts, big)
    if wit is not None:
        raise InternalCheckFailed(f"extension violates the derivation law on pair {wit[:2]}")
    sig = setup.aut.maps()[0]
    if (c := first_difference(compose_maps(f, sig, big, nts), compose_maps(f, big, sig, nts))) is not None:
        raise InternalCheckFailed(f"extension is not of degree zero at entry {divmod(c, nts)}")
    if (c := first_difference(_restrict(big, setup), d)) is not None:
        raise InternalCheckFailed(f"extension does not restrict to the input at entry {divmod(c, k)}")
    return big


def bm_formula_extend(d, setup: Setup) -> tuple:
    """The earlier published extension formula, returned unverified.

    The residue shift by the original degree-q unit: on a_i tensor b with
    total residue s, the image is u^r d(a_i tensor u^{-r} b) where
    s = q r mod m. No derivation property is claimed; this exists to
    reproduce its failure. Maps are sparse flattened (see Setup.d_eval).
    """
    ev = setup.d_eval(d)
    c = _Coords(setup, "u")
    q = setup.unit_data.q
    cols = [_residue_shift(c, ev, avec, b, es, q) for avec, _, b, es in _pair_pieces(setup)]
    f = setup.a.field
    return compose_maps(f, _map_of_columns(f, cols), setup.pair_basis_inverse, setup.ts.dim)


# ---------------------------------------------------------------------------
# the surjectivity-proof identities


def check_surjectivity_identities(d, setup: Setup,
                                  sample_budget: int | None = None) -> VerificationReport:
    """Exact spot checks of the averaging and exchange identities.

    Every homogeneous basis element is tried with several integer lifts of
    its residue and n in -2..2; identities quantified over all integers are
    sampled, which still exercises every case split (including the residue
    wrap, whenever two occupied left degrees can reach m). sample_budget caps
    the number of tuples per identity family. The families share d (sparse,
    see Setup.d_eval), memoised per argument, and each bracket at M = m.
    """
    rep = VerificationReport("surjectivity-identities")
    for name in ("perfect-A", "scalar-S", "automorphism-periods", "graded-unit"):
        rep.hyp(name)
    ev = setup.d_eval(d)
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

    brackets = {}

    def br(avec, t, b=None):
        key = (tuple(avec), t, b if b is None else tuple(b))
        if key not in brackets:
            brackets[key] = _bracket(c, ev, avec, t, m, b)
        return brackets[key]

    abasis = setup.grading_a.graded_basis()
    ns = range(-2, 3)

    fails = {}
    counts = {}

    def run(name, tuples, check):
        bad = None
        tuples = tuples[:sample_budget]
        for idx, tup in enumerate(tuples):
            if bad is None and not check(*tup):
                ints = [x for x in tup if isinstance(x, int)]
                bad = f"sample {idx}, integer parameters {ints}"
        counts[name] = len(tuples)
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
        return br(cvec, eps(ia + ja, m)) == br(cvec, e_sum)

    run("formula-4", tuples4, f4)
    # a wrap needs two occupied left degrees summing to m or more
    top = max((eps(ia, m) for _, ia in abasis), default=0)
    rep.check("wrap-case-exercised", wrap_seen > 0 or 2 * top < m)

    # exchange identities; a (x) b, a (x) 1 and a (x) u^-i are built once, ahead of the tuples
    pairs = setup.graded_pair_basis
    tuplesI = [
        (a1, ia, b1, ib1, t1, a2, ja, b2, ib2, t2, sft, tft)
        for a1, ia, b1, ib1, t1 in pairs
        for a2, ja, b2, ib2, t2 in pairs
        for sft in (eps(ia + ib1, m), eps(ia + ib1, m) + m)
        for tft in (eps(ja + ib2, m), eps(ja + ib2, m) + m)
    ]

    def ex1(a1, ia, b1, ib1, t1, a2, ja, b2, ib2, t2, sft, tft):
        return ts.mult(br(a1, sft, b1), t2) == ts.mult(t1, br(a2, tft, b2))

    run("exchange-I", tuplesI, ex1)

    lifted = [(a1, i, c.pure(a1, -i)) for a1, ia in abasis for i in lifts(ia)]
    tuplesII = [(a1, i, p1, a2, j, p2) for a1, i, p1 in lifted for a2, j, p2 in lifted]

    def ex2(a1, i, p1, a2, j, p2):
        return ts.mult(p1, c.act(br(a2, j), -j)) == ts.mult(c.act(br(a1, i), -i), p2)

    run("exchange-II", tuplesII, ex2)

    ones = [(a1, ia, c.pure(a1, 0)) for a1, ia in abasis]
    tuplesIII = [(a1, i, one1, a2, b2, t2, tft)
                 for a1, ia, one1 in ones for i in lifts(ia)
                 for a2, ja, b2, ib2, t2 in pairs
                 for tft in (eps(ja + ib2, m), eps(ja + ib2, m) + m)]

    def ex3(a1, i, one1, a2, b2, t2, tft):
        return ts.mult(one1, br(a2, tft, b2)) == ts.mult(br(a1, i), t2)

    run("exchange-III", tuplesIII, ex3)

    for name in ("formula-1", "formula-2", "formula-3", "formula-4",
                 "exchange-I", "exchange-II", "exchange-III"):
        rep.dim(f"samples-{name}", counts[name])
        rep.check(name, fails[name] is None, fails[name])
    return rep


# ---------------------------------------------------------------------------
# the restriction isomorphism


def verify_pi_isomorphism(setup: Setup) -> VerificationReport:
    """Restriction to the fixed-point algebra is bijective, with inverse phi.

    Each map runs once per basis element and certifies what it is read for,
    or raises: restrict_pi that pi(D) lies in D(fixed), extend_phi that
    ext_k = phi(d_k) is a degree-zero derivation with pi(ext_k) = d_k. phi
    after pi is D = sum_k c_k ext_k, where pi(D) = sum_k c_k d_k (phi is linear).
    """
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

    coords = [setup.der_fixed.space.row_coords(restrict_pi(big, setup)) for big in zero_comp._sparse]
    rep.check("restriction-lands-in-derivations", True)
    rk = Subspace.from_vectors(f, k0, coords).dim
    rep.dim("restriction-rank", rk)
    rep.check("injective", rk == n0)
    rep.check("surjective", rk == k0)

    exts = [extend_phi(d, setup) for d in setup.der_fixed.space._sparse]
    rep.check("phi-after-pi-is-identity",
              all(combine_rows(f, zip(cs, exts)) == big for cs, big in zip(coords, zero_comp._sparse)))
    rep.check("pi-after-phi-is-identity", True)

    expected = 0
    for i in range(m):
        expected += setup.der_a_grading.components[i].dim * setup.grading_s.component(-i).dim
        expected += setup.cent_a_grading.components[i].dim * setup.der_s_grading.component(-i).dim
    rep.dim("graded-formula-total", expected)
    rep.check("graded-dimension-formula", k0 == expected)
    return rep
