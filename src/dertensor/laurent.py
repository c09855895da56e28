"""Sparse exact model of the loop algebra A (x) k[z^{+-1}].

The finite verifiers work inside k[z]/(z^T - 1), where every extension
formula can be compared as a matrix. The examples that separate the two
extension formulas need k[z^{+-1}] itself: no power of z collapses, so a
failed Leibniz identity cannot hide behind a quotient relation. This
module represents loop elements a (x) z^n as finite sparse maps and
evaluates both extension formulas term by term (the formulas are written
once, in decomposition, against a carrier that this module supplies for
loop elements). A Laurent polynomial, such as the graded unit, is a loop
element of the one-dimensional algebra k<1>.

Nothing here ever materialises a basis of an infinite-dimensional operator
space. A fixed-point derivation, a derivation of the degree-zero loop
subalgebra, is a callable from loop elements to loop elements, the same
contract the finite carrier uses. coefficient_derivation builds the one of
scalar type, identity (x) p(z) d/dz, and checks that it fixes degree zero;
any other derivation, such as bracketing with an element of the left
factor, is passed as a plain function. Its extensions are callables too:
loop_phi and loop_bm check the hypotheses, build the carrier and fetch the
grading once from (aut, u, d), and return a function of the target.
"""

from .algebra import Algebra
from .decomposition import phi_formula, residue_shifts
from .errors import (
    FieldMismatch,
    HypothesisNotMet,
    NotInDomain,
    ParseError,
)
from .exactla import combine_rows
from .gradings import Grading, eps, grading_from_automorphism

FORWARD = "forward"
INVERSE = "inverse"


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

    Stored as a map from exponents to coefficients, each a sparse row (see
    exactla) in the canonical basis of the left factor; empty rows are
    dropped, so representation is canonical and equality is support
    equality. The constructor takes canonical rows; term accepts zeros.
    """

    __slots__ = ("algebra", "support")

    def __init__(self, algebra: Algebra, support: dict):
        self.algebra = algebra
        self.support = {e: v for e, v in support.items() if v}

    @classmethod
    def zero(cls, algebra: Algebra) -> "LoopElement":
        return cls(algebra, {})

    @classmethod
    def term(cls, algebra: Algebra, a_vec, exp: int) -> "LoopElement":
        """a_vec (x) z^exp, for a_vec the (index, value) pairs of a coefficient, zeros allowed."""
        if any(not 0 <= i < algebra.dim for i, _ in a_vec):
            raise FieldMismatch("coefficient vector does not match the carrier")
        nz = algebra.field.nonzero
        return cls(algebra, {exp: tuple(sorted((i, c) for i, c in a_vec if nz(c)))})

    def _check(self, other: "LoopElement"):
        if self.algebra is not other.algebra:
            raise FieldMismatch("loop elements over different carriers")

    def terms(self):
        return sorted(self.support.items())

    def is_zero(self) -> bool:
        return not self.support

    def add(self, other: "LoopElement") -> "LoopElement":
        self._check(other)
        f = self.algebra.field
        one = f.one()
        out = dict(self.support)
        for e, v in other.support.items():
            out[e] = combine_rows(f, ((one, out[e]), (one, v))) if e in out else v
        return LoopElement(self.algebra, out)

    def neg(self) -> "LoopElement":
        neg = self.algebra.field.neg
        return LoopElement(self.algebra, {e: tuple((i, neg(c)) for i, c in v) for e, v in self.support.items()})

    def sub(self, other: "LoopElement") -> "LoopElement":
        return self.add(other.neg())

    def shift(self, k: int, coeff=None) -> "LoopElement":
        """Multiply by the scalar monomial coeff * z^k."""
        f = self.algebra.field
        if coeff is not None and not f.nonzero(coeff):
            return LoopElement.zero(self.algebra)
        mul = f.mul
        return LoopElement(self.algebra, {
            e + k: v if coeff is None else tuple((i, mul(coeff, x)) for i, x in v)
            for e, v in self.support.items()})

    def mul(self, other: "LoopElement") -> "LoopElement":
        self._check(other)
        a = self.algebra
        one = a.field.one()
        terms: dict = {}  # exponent -> the products landing there
        for e1, v1 in self.support.items():
            for e2, v2 in other.support.items():
                terms.setdefault(e1 + e2, []).append((one, a.mult(v1, v2)))
        return LoopElement(a, {e: combine_rows(a.field, t) for e, t in terms.items()})

    def s_derivative(self, p: "LoopElement") -> "LoopElement":
        """Apply identity (x) p(z) d/dz, the Laurent polynomial p a loop element of k<1>."""
        if self.algebra.field != p.algebra.field:
            raise FieldMismatch("derivation coefficient over a different field")
        f = self.algebra.field
        out = LoopElement.zero(self.algebra)
        for e, v in self.support.items():
            n = f.from_int(e)
            for pe, ((_, pc),) in p.support.items():
                out = out.add(LoopElement.term(self.algebra, [(i, f.mul(f.mul(n, pc), c)) for i, c in v], e - 1 + pe))
        return out

    def __eq__(self, other):
        return (
            isinstance(other, LoopElement)
            and self.algebra is other.algebra
            and self.support == other.support
        )

    def __hash__(self):
        return hash(tuple(self.terms()))

    def __repr__(self):
        if not self.support:
            return "0"
        f = self.algebra.field
        names = self.algebra.names
        parts = []
        for e, v in self.terms():
            avec = " + ".join(f"{f.format(c)}*{names[i]}" for i, c in v)
            zp = "1" if e == 0 else ("z" if e == 1 else f"z^{e}")
            parts.append(f"({avec}) (x) {zp}")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# fixed-point derivations of scalar type


def _scalar_support(p: LoopElement, what: str) -> dict:
    """Exponent -> coefficient of a Laurent polynomial: a loop element of k<1>."""
    if p.algebra.dim != 1:
        raise FieldMismatch(f"{what} lies over a dim-{p.algebra.dim} algebra, not k<1>")
    return {e: c for e, ((_, c),) in p.support.items()}


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
    f = target.algebra.field
    return [(part, ia, exp, eps(ia + graded_component(exp, m, style), m))
            for exp, vec in target.terms() for part, ia in grading_a.split(f, vec)]


class _Loop:
    """The Laurent carrier of the shared formulas: loop elements.

    The unit is U = uc z^ue, and a scalar-slot factor b is the power z^b.
    Each coefficient uc^t is computed once, as Setup.unit_power caches U^t.
    """

    def __init__(self, a: Algebra, m: int, upair):
        self.a, self.m, self.field = a, m, a.field
        self.ue, self.uc = upair
        self._upow = {}

    def pure(self, avec, t: int, b=None) -> LoopElement:
        return self.act(LoopElement(self.a, {0: avec}), t, b)

    def act(self, x: LoopElement, t: int, b=None) -> LoopElement:
        if t not in self._upow:
            self._upow[t] = self.field.pow(self.uc, t)
        return x.shift(t * self.ue + (b or 0), self._upow[t])

    def comb(self, terms) -> LoopElement:
        out = {}  # exponent -> the scaled coefficient rows landing there
        for c, x in terms:
            for e, v in x.support.items():
                out.setdefault(e, []).append((c, v))
        return LoopElement(self.a, {e: combine_rows(self.field, t) for e, t in out.items()})


def _loop_map(a: Algebra, aut1, m: int, style: str, u: LoopElement, images):
    """Check the hypotheses once; the map on targets, images(c, pieces) on carrier c."""
    if aut1.algebra is not a:
        raise HypothesisNotMet("left-factor automorphism acts on a different algebra",
                               "automorphism-carrier")
    if aut1.period != m:
        raise HypothesisNotMet(
            f"declared periods differ: {aut1.period} vs {m}", "automorphism-periods")
    if a.field != u.algebra.field:
        raise FieldMismatch("unit monomial over a different field")
    c = _Loop(a, m, _unit_monomial(u, m, style))
    grading, one = grading_from_automorphism(aut1), a.field.one()

    def apply(target: LoopElement) -> LoopElement:
        if target.algebra is not a:
            raise FieldMismatch("target lives over a different carrier")
        pieces = _homogeneous_pieces(grading, target, m, style)
        return c.comb((one, x) for x in images(c, pieces))

    return apply


def loop_phi(a: Algebra, aut1, m: int, style: str, u: LoopElement, d):
    """The inverse-map formula phi(d), as a callable on loop elements.

    d is a fixed-point derivation: a callable on degree-zero loop elements.
    """
    return _loop_map(a, aut1, m, style, u, lambda c, pieces: phi_formula(c, d, pieces, m))


def loop_bm(a: Algebra, aut1, m: int, style: str, u: LoopElement, d):
    """The earlier published extension formula, as a callable on loop elements.

    On a piece of total residue s the image is u^s d(u^{-s} x), the residue
    shift by the degree-one unit; no derivation property is claimed, and on
    the Laurent carrier the failure is visible exactly.
    """
    return _loop_map(a, aut1, m, style, u, lambda c, pieces: residue_shifts(c, d, pieces, 1))


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
    out = LoopElement.zero(line)
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
        out = out.add(LoopElement.term(line, [(0, coeff)], exp))
    return out
