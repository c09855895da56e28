"""Sparse exact model of the Laurent scalar algebra and its loop algebra.

The finite verifiers work inside k[z]/(z^T - 1), where every extension
formula can be compared as a matrix. The examples that separate the two
extension formulas need k[z^{+-1}] itself: no power of z collapses, so a
failed Leibniz identity cannot hide behind a quotient relation. This
module represents Laurent polynomials and loop elements a (x) z^n as
finite sparse maps and evaluates both extension formulas term by term (the
formulas are written once, in decomposition, against a carrier that this
module supplies for loop elements).

Derivations of the Laurent algebra appear only in the form p(z) d/dz;
every derivation of k[z^{+-1}] has this shape, and nothing here ever
materialises a basis of an infinite-dimensional operator space. A
fixed-point derivation is supplied either through such a coefficient
(acting as identity (x) p(z) d/dz) or as a finite table of values on
exactly the elements an evaluation will request.
"""

from .algebra import Algebra
from .decomposition import _phi, _residue_shift
from .errors import (
    FieldMismatch,
    HypothesisNotMet,
    InternalCheckFailed,
    NotInDomain,
    ParseError,
)
from .exactla import Matrix, Subspace, _combine, _dense, sparse_rows
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


class LaurentElement:
    """Exact Laurent polynomial: finite map from integer exponents to scalars.

    Zero coefficients are never stored, so support comparison is equality.
    """

    __slots__ = ("field", "support")

    def __init__(self, field, support: dict):
        self.field = field
        self.support = {e: c for e, c in support.items() if field.nonzero(c)}

    @classmethod
    def zero(cls, field) -> "LaurentElement":
        return cls(field, {})

    @classmethod
    def monomial(cls, field, exp: int, coeff=None) -> "LaurentElement":
        return cls(field, {exp: field.one() if coeff is None else coeff})

    def _check(self, other: "LaurentElement"):
        if self.field != other.field:
            raise FieldMismatch("laurent elements over different fields")

    def terms(self):
        return sorted(self.support.items())

    def add(self, other: "LaurentElement") -> "LaurentElement":
        self._check(other)
        f = self.field
        out = dict(self.support)
        for e, c in other.support.items():
            out[e] = f.add(out.get(e, f.zero()), c)
        return LaurentElement(f, out)

    def mul(self, other: "LaurentElement") -> "LaurentElement":
        self._check(other)
        f = self.field
        out: dict = {}
        for e1, c1 in self.support.items():
            for e2, c2 in other.support.items():
                e = e1 + e2
                out[e] = f.add(out.get(e, f.zero()), f.mul(c1, c2))
        return LaurentElement(f, out)

    def shift(self, k: int) -> "LaurentElement":
        """Multiply by the monomial z^k."""
        return LaurentElement(self.field, {e + k: c for e, c in self.support.items()})

    def derivative(self) -> "LaurentElement":
        f = self.field
        return LaurentElement(
            f, {e - 1: f.mul(f.from_int(e), c) for e, c in self.support.items()})

    def __eq__(self, other):
        return (
            isinstance(other, LaurentElement)
            and self.field == other.field
            and self.support == other.support
        )

    def __hash__(self):
        return hash((self.field, tuple(self.terms())))

    def __repr__(self):
        if not self.support:
            return "0"
        f = self.field
        parts = []
        for e, c in self.terms():
            lit = f.format(c)
            if e == 0:
                parts.append(lit)
            else:
                zp = "z" if e == 1 else f"z^{e}"
                parts.append(zp if lit == "1" else f"{lit}*{zp}")
        return " + ".join(parts)


class LaurentDerivation:
    """The derivation p(z) d/dz, determined by its coefficient p."""

    __slots__ = ("coefficient",)

    _SAMPLE_PAIRS = ((2, 3), (-1, 4), (0, 5), (-2, -3))

    def __init__(self, coefficient: LaurentElement):
        self.coefficient = coefficient
        f = coefficient.field
        for i, j in self._SAMPLE_PAIRS:
            prod = self.apply(LaurentElement.monomial(f, i + j))
            split = self.apply(LaurentElement.monomial(f, i)).shift(j).add(
                self.apply(LaurentElement.monomial(f, j)).shift(i))
            if prod != split:
                raise InternalCheckFailed("coefficient action violates the product rule")

    def apply(self, x: LaurentElement) -> LaurentElement:
        return x.derivative().mul(self.coefficient)

    def __repr__(self):
        return f"({self.coefficient!r})*d/dz"


class LoopElement:
    """Finite sum of terms a (x) z^n over a fixed finite-dimensional algebra.

    Stored as a map from exponents to coefficient vectors in the canonical
    basis of the left factor; zero vectors are dropped, so representation
    is canonical and equality is support equality.
    """

    __slots__ = ("algebra", "support")

    def __init__(self, algebra: Algebra, support: dict):
        f = algebra.field
        self.algebra = algebra
        self.support = {
            e: tuple(v) for e, v in support.items()
            if any(map(f.nonzero, v))
        }

    @classmethod
    def zero(cls, algebra: Algebra) -> "LoopElement":
        return cls(algebra, {})

    @classmethod
    def term(cls, algebra: Algebra, a_vec, exp: int) -> "LoopElement":
        if len(a_vec) != algebra.dim:
            raise FieldMismatch("coefficient vector does not match the carrier")
        return cls(algebra, {exp: tuple(a_vec)})

    def _check(self, other: "LoopElement"):
        if self.algebra is not other.algebra:
            raise FieldMismatch("loop elements over different carriers")

    def terms(self):
        return sorted(self.support.items())

    def is_zero(self) -> bool:
        return not self.support

    def canonical_key(self):
        return tuple(self.terms())

    def add(self, other: "LoopElement") -> "LoopElement":
        self._check(other)
        f = self.algebra.field
        out = {e: list(v) for e, v in self.support.items()}
        for e, v in other.support.items():
            if e in out:
                out[e] = [f.add(a, b) for a, b in zip(out[e], v)]
            else:
                out[e] = list(v)
        return LoopElement(self.algebra, out)

    def neg(self) -> "LoopElement":
        f = self.algebra.field
        return LoopElement(
            self.algebra, {e: [f.neg(c) for c in v] for e, v in self.support.items()})

    def sub(self, other: "LoopElement") -> "LoopElement":
        return self.add(other.neg())

    def scale(self, c) -> "LoopElement":
        f = self.algebra.field
        return LoopElement(
            self.algebra, {e: [f.mul(c, x) for x in v] for e, v in self.support.items()})

    def shift(self, k: int, coeff=None) -> "LoopElement":
        """Multiply by the scalar monomial coeff * z^k."""
        out = LoopElement(self.algebra, {e + k: v for e, v in self.support.items()})
        return out if coeff is None else out.scale(coeff)

    def mul(self, other: "LoopElement") -> "LoopElement":
        self._check(other)
        a = self.algebra
        f = a.field
        out: dict = {}
        for e1, v1 in self.support.items():
            for e2, v2 in other.support.items():
                prod = a.mult(list(v1), list(v2))
                e = e1 + e2
                if e in out:
                    out[e] = [f.add(x, y) for x, y in zip(out[e], prod)]
                else:
                    out[e] = prod
        return LoopElement(a, out)

    def s_derivative(self, p: LaurentElement) -> "LoopElement":
        """Apply identity (x) p(z) d/dz."""
        if self.algebra.field != p.field:
            raise FieldMismatch("derivation coefficient over a different field")
        f = self.algebra.field
        out = LoopElement.zero(self.algebra)
        for e, v in self.support.items():
            n = f.from_int(e)
            for pe, pc in p.support.items():
                out = out.add(LoopElement(
                    self.algebra, {e - 1 + pe: [f.mul(f.mul(n, pc), c) for c in v]}))
        return out

    def __eq__(self, other):
        return (
            isinstance(other, LoopElement)
            and self.algebra is other.algebra
            and self.support == other.support
        )

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        if not self.support:
            return "0"
        f = self.algebra.field
        names = self.algebra.names
        parts = []
        for e, v in self.terms():
            avec = " + ".join(
                f"{f.format(c)}*{names[i]}" for i, c in enumerate(v) if f.nonzero(c))
            zp = "1" if e == 0 else ("z" if e == 1 else f"z^{e}")
            parts.append(f"({avec}) (x) {zp}")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# fixed-point derivations, supplied finitely


class FixedDerivationSpec:
    """A derivation of the degree-zero loop subalgebra, given finitely.

    Two forms: 'inner' wraps a coefficient p(z), acting as identity on the
    left factor and p(z) d/dz on the scalars; 'table' lists the values on
    exactly the elements an evaluation will request. The table form covers
    derivations, such as inner derivations of the left factor, that are
    not of scalar type.
    """

    __slots__ = ("kind", "coefficient", "entries")

    def __init__(self, kind: str, coefficient=None, entries=None):
        self.kind = kind
        self.coefficient = coefficient
        self.entries = entries

    @classmethod
    def inner(cls, p) -> "FixedDerivationSpec":
        if isinstance(p, LaurentDerivation):
            p = p.coefficient
        return cls("inner", coefficient=p)

    @classmethod
    def table(cls, pairs) -> "FixedDerivationSpec":
        return cls("table", entries={x.canonical_key(): y for x, y in pairs})

    def evaluator(self, algebra: Algebra, m: int):
        """Closure evaluating the derivation on loop elements.

        Inner coefficients must keep the degree-zero subalgebra invariant,
        which pins every exponent of p to 1 mod m in either grading style.
        """
        if self.kind == "inner":
            p = self.coefficient
            bad = [e for e in p.support if eps(e - 1, m) != 0]
            if bad:
                raise NotInDomain(
                    f"coefficient exponents {sorted(bad)} move the derivation off degree zero")

            def ev(x: LoopElement) -> LoopElement:
                return x.s_derivative(p)

            return ev

        if self.kind == "table":
            entries = self.entries

            def ev(x: LoopElement) -> LoopElement:
                key = x.canonical_key()
                if key not in entries:
                    raise NotInDomain(f"value table has no entry for {x!r}")
                return entries[key]

            return ev

        raise ParseError(f"unknown derivation form {self.kind!r}")


# ---------------------------------------------------------------------------
# the two extension formulas in the loop model


def _unit_monomial(u: LaurentElement, m: int, style: str):
    """Validate the degree-one unit and return (exponent, coefficient)."""
    if len(u.support) != 1:
        raise HypothesisNotMet("the graded unit must be a single monomial", "graded-unit")
    (ue, uc), = u.support.items()
    if graded_component(ue, m, style) != eps(1, m):
        raise HypothesisNotMet(
            f"unit monomial z^{ue} does not lie in the degree-one component", "graded-unit")
    return ue, uc


def _left_grading(aut1) -> Grading:
    """Grading of the left factor; a trivial twist never asks for a root.

    When the automorphism is the identity the whole factor sits in degree
    zero regardless of its period, so the eigenspace route (which would
    demand a primitive root of unity in the field) is skipped. The grading
    is a pure function of the automorphism, which is immutable, so it is
    built once, self-checks included, and kept on the automorphism; the
    grading in turn keeps its projections.
    """
    if "left_grading" not in aut1._cache:
        a, m = aut1.algebra, aut1.period
        f = a.field
        if aut1.matrix == Matrix.identity(f, a.dim):
            full = Subspace.from_vectors(f, a.dim, Matrix.identity(f, a.dim).rows)
            empty = Subspace.from_vectors(f, a.dim, [])
            g = Grading(m, a.dim, [full] + [empty] * (m - 1))
        else:
            g = grading_from_automorphism(aut1)
        aut1._cache["left_grading"] = g
    return aut1._cache["left_grading"]


def _homogeneous_pieces(grading_a: Grading, target: LoopElement, m: int, style: str) -> list:
    """Split every loop term along the left-factor grading.

    Returns (a_vec, ia, exp, es) with a_vec homogeneous of degree ia and es
    the total residue of a_vec (x) z^exp.
    """
    f = target.algebra.field
    parts = grading_a.basis_parts(f)
    pieces = []
    for exp, vec in target.terms():
        coords = sparse_rows(f, [vec])[0]
        for ia, cols in enumerate(parts):
            # the sum of c_i times the degree-ia part of e_i, over the nonzero c_i only
            part = _combine(f, coords, cols)
            if part:
                pieces.append((list(_dense(f, len(vec), part)), ia, exp,
                               eps(ia + graded_component(exp, m, style), m)))
    return pieces


class _Loop:
    """The Laurent carrier of the shared formulas: loop elements.

    The unit is U = uc z^ue, and a scalar-slot factor b is the power z^b.
    """

    def __init__(self, a: Algebra, m: int, upair):
        self.a, self.m, self.field = a, m, a.field
        self.ue, self.uc = upair

    def pure(self, avec, t: int, b=None) -> LoopElement:
        return self.act(LoopElement.term(self.a, avec, 0), t, b)

    def act(self, x: LoopElement, t: int, b=None) -> LoopElement:
        return x.shift(t * self.ue + (b or 0), self.field.pow(self.uc, t))

    def comb(self, terms) -> LoopElement:
        f = self.field
        out = {}
        for c, x in terms:
            for e, v in x.support.items():
                w = [f.mul(c, y) for y in v]
                out[e] = [f.add(p, q) for p, q in zip(out[e], w)] if e in out else w
        return LoopElement(self.a, out)


def _require_loop_setup(a: Algebra, aut1, m: int, u: LaurentElement, style: str):
    if aut1.algebra is not a:
        raise HypothesisNotMet("left-factor automorphism acts on a different algebra",
                               "automorphism-carrier")
    if aut1.period != m:
        raise HypothesisNotMet(
            f"declared periods differ: {aut1.period} vs {m}", "automorphism-periods")
    if a.field != u.field:
        raise FieldMismatch("unit monomial over a different field")
    return _Loop(a, m, _unit_monomial(u, m, style))


def loop_phi_eval(a: Algebra, aut1, m: int, style: str, u: LaurentElement,
                  d_spec: FixedDerivationSpec, target: LoopElement,
                  navg: int = 1) -> LoopElement:
    """Evaluate the inverse-map formula on a loop element, term by term.

    The averaging stretch navg picks which power u^{m*navg} the correction
    bracket is sampled at; any choice with m*navg invertible in the field
    gives the same answer when d really is a fixed-point derivation.
    """
    c = _require_loop_setup(a, aut1, m, u, style)
    if target.algebra is not a:
        raise FieldMismatch("target lives over a different carrier")
    pieces = _homogeneous_pieces(_left_grading(aut1), target, m, style)
    images = _phi(c, d_spec.evaluator(a, m), pieces, m * navg)
    return c.comb((a.field.one(), x) for x in images)


def phi_argument_list(a: Algebra, aut1, m: int, style: str, u: LaurentElement,
                      target: LoopElement, navg: int = 1) -> list:
    """The degree-zero elements a phi evaluation will feed to the derivation.

    Lets a caller assemble a value table for a derivation that has no
    scalar coefficient form before running the evaluation proper.
    """
    c = _require_loop_setup(a, aut1, m, u, style)
    seen: dict = {}

    def recorder(x: LoopElement) -> LoopElement:
        seen.setdefault(x.canonical_key(), x)
        return LoopElement.zero(a)

    _phi(c, recorder, _homogeneous_pieces(_left_grading(aut1), target, m, style), m * navg)
    return list(seen.values())


def loop_bm_eval(a: Algebra, aut1, m: int, style: str, u: LaurentElement,
                 d_spec: FixedDerivationSpec, target: LoopElement) -> LoopElement:
    """Evaluate the earlier published extension formula on a loop element.

    On a piece of total residue s the image is u^s d(u^{-s} x), the residue
    shift by the degree-one unit; no derivation property is claimed, and on
    the Laurent carrier the failure is visible exactly.
    """
    c = _require_loop_setup(a, aut1, m, u, style)
    if target.algebra is not a:
        raise FieldMismatch("target lives over a different carrier")
    dev = d_spec.evaluator(a, m)
    pieces = _homogeneous_pieces(_left_grading(aut1), target, m, style)
    return c.comb((a.field.one(), _residue_shift(c, dev, avec, exp, es, 1))
                  for avec, _, exp, es in pieces)


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
        if ch in "+-" and depth == 0 and prev not in ("^", "*", "/", "(", ""):
            if "".join(cur).strip():
                chunks.append((sign, "".join(cur).strip()))
            cur = []
            sign = 1 if ch == "+" else -1
        else:
            if ch in "+-" and depth == 0 and prev == "":
                sign = 1 if ch == "+" else -1
            else:
                cur.append(ch)
        if not ch.isspace():
            prev = ch
    if depth:
        raise ParseError("unbalanced parentheses")
    if "".join(cur).strip():
        chunks.append((sign, "".join(cur).strip()))
    return chunks


def parse_laurent(text: str, field) -> LaurentElement:
    """Parse a sum of c*z^n terms; bare scalars and bare powers allowed."""
    out = LaurentElement.zero(field)
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
        out = out.add(LaurentElement.monomial(field, exp, coeff))
    return out
