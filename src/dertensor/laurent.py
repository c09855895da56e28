"""Sparse exact model of the loop algebra A (x) k[z^{+-1}].

The finite verifiers work inside k[z]/(z^T - 1), where every extension
formula can be compared as a sparse map. The examples that separate the two
extension formulas need k[z^{+-1}] itself: no power of z collapses, so a
failed Leibniz identity cannot hide behind a quotient relation. This
module represents a loop element, a finite sum of terms a (x) z^n, as one
sparse row of exactla keyed by (exponent, basis index) pairs, so it shares
the one row arithmetic, combine_rows, and evaluates both extension formulas
term by term (the formulas are written once, in decomposition, against a
carrier that this module supplies on those rows). A Laurent polynomial,
such as the graded unit, is a loop element of the one-dimensional algebra
k<1>.

Nothing here ever materialises a basis of an infinite-dimensional operator
space. A fixed-point derivation, a derivation of the degree-zero loop
subalgebra, is a callable from loop elements to loop elements, the same
contract the finite carrier uses, wrapped once per extension to act on
rows. coefficient_derivation builds the one of scalar type, identity (x)
p(z) d/dz, and checks that it fixes degree zero; any other derivation,
such as bracketing with an element of the left factor, is passed as a
plain function. Its extensions are callables too:
loop_phi and loop_bm check the hypotheses, build the carrier and fetch the
grading once from (aut, u, d), and return a function of the target.

The catalog's scenes are verified here, each by a verify_* function that
returns its command's report.
"""

from itertools import groupby

from .algebra import Algebra
from .catalog import group_algebra
from .decomposition import VerificationReport, phi_formula, residue_shifts
from .errors import (
    FieldMismatch,
    HypothesisNotMet,
    InternalCheckFailed,
    NotInDomain,
    ParseError,
)
from .exactla import canonical_row, combine_rows
from .gradings import Grading, check_automorphism, eps, grading_from_automorphism, require_acts_on
from .scalars import make_field

FORWARD = "forward"
INVERSE = "inverse"
SCENE_PERIODS = (2, 3, 4)  # the periods m the twisted normal-form sweep runs
SCENE_SHIFTS = range(-2, 3)  # and its values of n


def graded_component(n: int, m: int, style: str) -> int:
    """Residue class of the monomial z^n under the chosen grading style.

    Forward style puts z^n in degree n mod m; inverse style, the twisted
    loop convention, puts it in degree -n mod m.
    """
    if style == FORWARD:
        return eps(n, m)
    if style == INVERSE:
        return eps(-n, m)
    raise ParseError(f"unknown grading style {style!r}")


class LoopElement:
    """Finite sum of terms a (x) z^n over a fixed finite-dimensional algebra.

    One sparse row (see exactla) keyed by (exponent, basis index) pairs, so
    sums, scalings and products are row arithmetic (combine_rows) and the
    representation is canonical: equality is row equality. terms() groups
    the row by exponent into coefficient rows of the left factor. The
    constructor takes a canonical row; term accepts zeros.
    """

    __slots__ = ("algebra", "row")

    def __init__(self, algebra: Algebra, row: tuple):
        self.algebra = algebra
        self.row = row

    @classmethod
    def term(cls, algebra: Algebra, a_vec, exp: int) -> "LoopElement":
        """a_vec (x) z^exp, for a_vec the (index, value) pairs of a coefficient, zeros allowed."""
        if any(not 0 <= i < algebra.dim for i, _ in a_vec):
            raise FieldMismatch("coefficient vector does not match the carrier")
        nz = algebra.field.nonzero
        return cls(algebra, tuple(sorted(((exp, i), c) for i, c in a_vec if nz(c))))

    def _check(self, other: "LoopElement"):
        if self.algebra is not other.algebra:
            raise FieldMismatch("loop elements over different carriers")

    def terms(self) -> list:
        """(exponent, coefficient row) pairs, by increasing exponent."""
        return [(e, tuple((i, c) for (_, i), c in group))
                for e, group in groupby(self.row, key=lambda entry: entry[0][0])]

    def is_zero(self) -> bool:
        return not self.row

    def add(self, other: "LoopElement") -> "LoopElement":
        self._check(other)
        f = self.algebra.field
        return LoopElement(self.algebra, combine_rows(f, ((f.one(), self.row), (f.one(), other.row))))

    def sub(self, other: "LoopElement") -> "LoopElement":
        self._check(other)
        f = self.algebra.field
        return LoopElement(self.algebra, combine_rows(f, ((f.one(), self.row), (f.neg(f.one()), other.row))))

    def mul(self, other: "LoopElement") -> "LoopElement":
        self._check(other)
        a = self.algebra
        one = a.field.one()
        return LoopElement(a, combine_rows(a.field, (
            (one, [((e1 + e2, i), c) for i, c in a.mult(v1, v2)])
            for e1, v1 in self.terms() for e2, v2 in other.terms())))

    def s_derivative(self, p: "LoopElement") -> "LoopElement":
        """Apply identity (x) p(z) d/dz, the Laurent polynomial p a loop element of k<1>."""
        f = self.algebra.field
        if f != p.algebra.field:
            raise FieldMismatch("derivation coefficient over a different field")
        d = [((e - 1, i), f.mul(f.from_int(e), c)) for (e, i), c in self.row]  # d/dz, zeros allowed
        return LoopElement(self.algebra, combine_rows(f, (
            (pc, [((e + pe, i), c) for (e, i), c in d]) for (pe, _), pc in p.row)))

    def __eq__(self, other):
        return (
            isinstance(other, LoopElement)
            and self.algebra is other.algebra
            and self.row == other.row
        )

    def __hash__(self):
        return hash(self.row)

    def __repr__(self):
        """The sum of its terms: c*(b (x) z^n) for a multiple of a basis vector b
        (b (x) z^n when c = 1), and (c1*b1 + ...) (x) z^n otherwise."""
        if not self.row:
            return "0"
        f, names, parts = self.algebra.field, self.algebra.names, []
        for e, v in self.terms():
            zp = "1" if e == 0 else ("z" if e == 1 else f"z^{e}")
            if len(v) > 1:
                parts.append("(" + " + ".join(f"{f.format(c)}*{names[i]}" for i, c in v) + f") (x) {zp}")
            else:
                c, body = f.format(v[0][1]), f"{names[v[0][0]]} (x) {zp}"
                parts.append(body if c == "1" else f"{c}*({body})")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# fixed-point derivations of scalar type


def _scalar_support(p: LoopElement, what: str) -> dict:
    """Exponent -> coefficient of a Laurent polynomial: a loop element of k<1>."""
    if p.algebra.dim != 1:
        raise FieldMismatch(f"{what} lies over a dim-{p.algebra.dim} algebra, not k<1>")
    return {e: c for (e, _), c in p.row}


def coefficient_derivation(p: LoopElement, m: int):
    """identity (x) p(z) d/dz on loop elements, as a fixed-point derivation.

    It must keep the degree-zero subalgebra invariant, which pins every
    exponent of p (a loop element of k<1>) to 1 mod m in either style.
    """
    bad = [e for e in _scalar_support(p, "the coefficient") if eps(e - 1, m) != 0]
    if bad:
        raise NotInDomain(
            f"coefficient exponents {sorted(bad)} move the derivation off degree zero")
    return lambda x: x.s_derivative(p)


# ---------------------------------------------------------------------------
# the two extension formulas in the loop model


def _unit_monomial(u: LoopElement, m: int, style: str):
    """Validate the degree-one unit and return (exponent, coefficient)."""
    support = _scalar_support(u, "the graded unit")
    if len(support) != 1:
        raise HypothesisNotMet("the graded unit must be a single monomial", "graded-unit")
    (ue, uc), = support.items()
    if graded_component(ue, m, style) != eps(1, m):
        raise HypothesisNotMet(
            f"unit monomial z^{ue} does not lie in the degree-one component", "graded-unit")
    return ue, uc


def _homogeneous_pieces(grading_a: Grading, target: LoopElement, m: int, style: str) -> list:
    """Split every loop term along the left-factor grading (Grading.split).

    Returns (a_vec, ia, exp, es) with a_vec a homogeneous sparse row of
    degree ia and es the total residue of a_vec (x) z^exp.
    """
    return [(part, ia, exp, eps(ia + graded_component(exp, m, style), m))
            for exp, vec in target.terms() for part, ia in grading_a.split(vec)]


class _Loop:
    """The Laurent carrier of the shared formulas: the rows of loop elements.

    The unit is U = uc z^ue, and a scalar-slot factor b is the power z^b, so
    acting re-keys a row by exponent and scales it. Each coefficient uc^t is
    computed once, as Setup.unit_power caches U^t.
    """

    def __init__(self, m: int, field, upair):
        self.m, self.field = m, field
        self.ue, self.uc = upair
        self._upow = {}

    def pure(self, avec, t: int, b=None) -> tuple:
        return self.act([((0, i), c) for i, c in avec], t, b)

    def act(self, x, t: int, b=None) -> tuple:
        if t not in self._upow:
            self._upow[t] = self.field.pow(self.uc, t)
        k, c, mul = t * self.ue + (b or 0), self._upow[t], self.field.mul
        return tuple(((e + k, i), mul(c, v)) for (e, i), v in x)


def _loop_map(a: Algebra, aut1, m: int, style: str, u: LoopElement, d, images):
    """Check the hypotheses once; the map on targets, images(c, ev, pieces) on
    carrier c, with ev the fixed-point derivation d on rows."""
    require_acts_on(aut1, a, m)
    if a.field != u.algebra.field:
        raise FieldMismatch("unit monomial over a different field")
    f = a.field
    c = _Loop(m, f, _unit_monomial(u, m, style))
    grading, one = grading_from_automorphism(aut1), f.one()

    def ev(row):
        return d(LoopElement(a, row)).row

    def apply(target: LoopElement) -> LoopElement:
        if target.algebra is not a:
            raise FieldMismatch("target lives over a different carrier")
        pieces = _homogeneous_pieces(grading, target, m, style)
        return LoopElement(a, combine_rows(f, ((one, x) for x in images(c, ev, pieces))))

    return apply


def loop_phi(a: Algebra, aut1, m: int, style: str, u: LoopElement, d):
    """The inverse-map formula phi(d), as a callable on loop elements.

    d is a fixed-point derivation: a callable on degree-zero loop elements.
    """
    return _loop_map(a, aut1, m, style, u, d, lambda c, ev, pieces: phi_formula(c, ev, pieces, m))


def loop_bm(a: Algebra, aut1, m: int, style: str, u: LoopElement, d):
    """The earlier published extension formula, as a callable on loop elements.

    On a piece of total residue s the image is u^s d(u^{-s} x), the residue
    shift by the degree-one unit; no derivation property is claimed, and on
    the Laurent carrier the failure is visible exactly.
    """
    return _loop_map(a, aut1, m, style, u, d, lambda c, ev, pieces: residue_shifts(c, ev, pieces, 1))


# ---------------------------------------------------------------------------
# literals


def _split_top_level(text: str):
    """Split a sum into signed chunks, respecting parentheses and '^'/'*'."""
    chunks = []
    depth = 0
    cur = []
    sign = 1
    prev = ""
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced parentheses")
        if ch in "+-" and depth == 0 and prev not in ("^", "*", "/", "("):
            # a sign after a term starts the next one; successive signs multiply
            if "".join(cur).strip():
                chunks.append((sign, "".join(cur).strip()))
                cur, sign = [], 1
            sign = sign if ch == "+" else -sign
        else:
            cur.append(ch)
        if not ch.isspace():
            prev = ch
    if depth:
        raise ParseError("unbalanced parentheses")
    if "".join(cur).strip():
        chunks.append((sign, "".join(cur).strip()))
    return chunks


def parse_laurent(text: str, line: Algebra) -> LoopElement:
    """Parse a sum of c*z^n terms (bare scalars and powers allowed) over k<1>, the line."""
    field = line.field
    monomials = []  # (coefficient, the row of z^exp)
    if not text.strip():
        raise ParseError("empty laurent literal")
    for sign, chunk in _split_top_level(text):
        if "z" in chunk:
            head, _, tail = chunk.partition("z")
            head = head.strip().rstrip("*").strip()
            if head in ("", "+"):
                coeff = field.one()
            elif head == "-":
                coeff = field.neg(field.one())
            else:
                if head.startswith("(") and head.endswith(")"):
                    head = head[1:-1]
                coeff = field.parse(head)
            tail = tail.strip()
            if tail == "":
                exp = 1
            elif tail.startswith("^"):
                try:
                    exp = int(tail[1:].strip().strip("()"))
                except ValueError:
                    raise ParseError(f"bad exponent in {chunk!r}")
            else:
                raise ParseError(f"malformed monomial {chunk!r}")
        else:
            body = chunk.strip()
            if body.startswith("(") and body.endswith(")"):
                body = body[1:-1]
            coeff = field.parse(body)
            exp = 0
        if sign < 0:
            coeff = field.neg(coeff)
        monomials.append((coeff, (((exp, 0), field.one()),)))
    return LoopElement(line, combine_rows(field, monomials))


# ---------------------------------------------------------------------------
# the evaluation scenes, on k<1> over Q


def _scalar_scene(m: int):
    """k<1> over Q, with the trivial twist of declared period m."""
    a = group_algebra(1, make_field("rational"))
    return a, check_automorphism(a, ((0, a.field.one()),), m)


def _monomial(a: Algebra, c, exp: int) -> LoopElement:
    """c (x) z^exp on k<1>; a zero c gives zero."""
    return LoopElement.term(a, [(0, c)], exp)


def _scene_unit(a: Algebra, style: str, u: str | None) -> LoopElement:
    """The unit literal u on k<1>, or the style's degree-one unit: z forward, z^-1 inverse."""
    return parse_laurent(u, a) if u else _monomial(a, a.field.one(), 1 if style == FORWARD else -1)


def _period_four(claim: str, extension, style: str, u: str | None, label: str, values):
    """The paper's period-4 scene: d = z d/dz on k<1> extended (loop_phi or
    loop_bm) with the unit _scene_unit gives, checked at scale z^exp for each
    (exp, scale) of values. Returns the report, D(z^3) and the product rule's
    defect D(z^2 z^3) - (D(z^2) z^3 + z^2 D(z^3))."""
    rep = VerificationReport(claim)
    rep.hyp("scalar-S")
    rep.hyp("graded-unit")
    a, aut = _scalar_scene(4)
    f = a.field
    z = _monomial(a, f.one(), 1)
    ext = extension(a, aut, 4, style, _scene_unit(a, style, u), coefficient_derivation(z, 4))
    for exp, scale in values:
        got = ext(_monomial(a, f.one(), exp))
        rep.check(f"value-z{exp}", got == _monomial(a, f.from_int(scale), exp),
                  f"{label}(1 (x) z^{exp}) = {got}")
    x2, x3 = _monomial(a, f.one(), 2), _monomial(a, f.one(), 3)
    img3 = ext(x3)
    return rep, img3, ext(x2.mul(x3)).sub(ext(x2).mul(x3).add(x2.mul(img3)))


def verify_bm_counterexample() -> VerificationReport:
    """The published formula on the paper's example (period 4, forward style,
    u = z) sends z^5 to 4 z^5 and z^2, z^3 to 0: no derivation."""
    rep, _, defect = _period_four("published-formula-counterexample", loop_bm, FORWARD, None, "D",
                                  ((5, 4), (3, 0), (2, 0)))
    rep.check("leibniz-fails-on-z2-z3", not defect.is_zero(),
              f"D(z^2 * z^3) - (D(z^2) z^3 + z^2 D(z^3)) = {defect}, not 0")
    rep.check("defect-value", defect == _monomial(defect.algebra, defect.algebra.field.from_int(4), 5),
              "defect equals 4*(1 (x) z^5)")
    return rep


def verify_inverse_map_values(style: str | None, u: str | None) -> VerificationReport:
    """phi(d) on the paper's period-4 scene (style forward unless given)
    sends z^2, z^5 to 2 z^2, 5 z^5 and keeps the product rule."""
    rep, img3, defect = _period_four("inverse-map-values", loop_phi, style or FORWARD, u, "phi(d)",
                                     ((2, 2), (5, 5)))
    rep.dim("value-z3-coefficient", dict(img3.row).get((3, 0), 0))
    # z^5 = z^2 z^3, so the product rule fixes the image of z^3 from those of z^2 and z^5
    rep.check("value-z3-by-product-rule", defect.is_zero(), f"phi(d)(1 (x) z^3) = {img3}")
    rep.check("product-rule", defect.is_zero())
    return rep


def _t_derivation(a, m: int, n: int):
    """t^(n+1) d/dt with t = z^m, on the degree-zero part of the scalar line."""
    f = a.field

    def d(x: LoopElement) -> LoopElement:
        out = {}
        for (exp, i), c in x.row:
            if exp % m:
                raise InternalCheckFailed(f"derivation argument escaped the degree-zero part: "
                                          f"exponent {exp} is not a multiple of m = {m}")
            out[m * (n + exp // m), i] = f.mul(f.from_int(exp // m), c)
        return LoopElement(a, canonical_row(f, out))

    return d


def verify_twisted_normal_form(ms, ns, style: str | None, u: str | None) -> VerificationReport:
    """phi(d) for d = t^(n+1) d/dt, t = z^m, on k<1>, for each m of ms and n of
    ns (style inverse unless given), is (1/m) z^(nm+1) d/dz on every z^j
    with |j| <= 2m."""
    if bad := [m for m in ms if m < 1]:
        raise ParseError(f"a scene period must be at least 1, got {bad[0]}")
    rep = VerificationReport("twisted-normal-form")
    rep.hyp("scalar-S")
    rep.hyp("graded-unit")
    style = style or INVERSE
    for m in ms:
        a, aut = _scalar_scene(m)
        f, unit = a.field, _scene_unit(a, style, u)
        for n in ns:
            phi = loop_phi(a, aut, m, style, unit, _t_derivation(a, m, n))
            witness = None
            for j in range(-2 * m, 2 * m + 1):
                got = phi(_monomial(a, f.one(), j))
                want = _monomial(a, f.mul(f.from_int(j), f.inv_int(m)), n * m + j)
                if got != want:
                    witness = f"monomial z^{j}: got {got}, want {want}"
                    break
            rep.check(f"normal-form-m{m}-n{n}", witness is None,
                      witness or f"matches (1/{m}) z^{n * m + 1} d/dz on |j| <= {2 * m}")
    return rep


def verify_inverse_map_reproduction(ms, style: str | None, u: str | None) -> VerificationReport:
    """Both phi scenes in one report: the period-4 values, and the twisted
    normal form for each period of ms and each n of SCENE_SHIFTS."""
    rep = VerificationReport("inverse-map-reproduction")
    rep.merge(verify_inverse_map_values(style, u), "values")
    rep.merge(verify_twisted_normal_form(ms, SCENE_SHIFTS, style, u), "normal-form")
    return rep
