"""Built-in example objects used by the CLI, the tests and the docs.

Entries are constructed afresh on every call; nothing is memoized. Names
accept an optional argument list in parentheses, e.g. "group-algebra(3)" or
"quotient-laurent(1,4)". Setup-producing entries live at the bottom.
"""

from __future__ import annotations

import re

from .algebra import Algebra
from .errors import ParseError
from .exactla import Matrix, canonical_row, diagonal_map
from .gradings import check_automorphism
from .scalars import FieldDescriptor, make_field


def _q() -> FieldDescriptor:
    return make_field("rational")


def _basis_table(field, names, products):
    """The algebra of products {(i, j): {k: int_coeff}}; missing pairs are zero."""
    n = len(names)
    rows = [[()] * n for _ in range(n)]
    for (i, j), vec in products.items():
        rows[i][j] = canonical_row(field, {k: field.from_int(c) for k, c in vec.items()})
    return Algebra.from_products(field, names, rows)


def sl2(field: FieldDescriptor | None = None) -> Algebra:
    """The three-dimensional simple Lie algebra in the e, h, f basis."""
    f = field or _q()
    return _basis_table(
        f,
        ["e", "h", "f"],
        {
            (0, 2): {1: 1},  # [e,f] = h
            (2, 0): {1: -1},
            (1, 0): {0: 2},  # [h,e] = 2e
            (0, 1): {0: -2},
            (1, 2): {2: -2},  # [h,f] = -2f
            (2, 1): {2: 2},
        },
    )


def sl2_graded_variant(field: FieldDescriptor | None = None) -> Algebra:
    """sl2 in the rotated basis x = e+f, y = e-f, h; different table, same algebra."""
    f = field or _q()
    return _basis_table(
        f,
        ["x", "y", "h"],
        {
            (2, 0): {1: 2},  # [h,x] = 2y
            (0, 2): {1: -2},
            (2, 1): {0: 2},  # [h,y] = 2x
            (1, 2): {0: -2},
            (0, 1): {2: -2},  # [x,y] = -2h
            (1, 0): {2: 2},
        },
    )


def dual_numbers(field: FieldDescriptor | None = None) -> Algebra:
    """k[x]/(x^2): basis 1, x with x^2 = 0."""
    f = field or _q()
    return _basis_table(f, ["1", "x"], {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}})


def group_algebra(n: int, field: FieldDescriptor | None = None) -> Algebra:
    """The group algebra of Z_n, i.e. k[z]/(z^n - 1); basis z^0 ... z^{n-1}."""
    if n < 1:
        raise ParseError(f"group order must be positive, got {n}")
    f = field or _q()
    names = ["1" if i == 0 else ("z" if i == 1 else f"z{i}") for i in range(n)]
    return _basis_table(f, names, {(i, j): {(i + j) % n: 1} for i in range(n) for j in range(n)})


def zero_product(n: int = 2, field: FieldDescriptor | None = None) -> Algebra:
    """n-dimensional algebra with all products zero; perfect it is not."""
    f = field or _q()
    return _basis_table(f, [f"b{i}" for i in range(n)], {})


def diagonal_matrix(field, entries):
    """Dense diagonal Matrix of entries, kept for perfbench/ only (src uses exactla.diagonal_map)."""
    n = len(entries)
    z = field.zero()
    vals = [field.from_int(e) if isinstance(e, int) else e for e in entries]
    return Matrix(field, [[vals[i] if i == j else z for j in range(n)] for i in range(n)], n)


def sl2_sign_automorphism(a: Algebra):
    """The period-2 involution negating the two root vectors of sl2."""
    return check_automorphism(a, diagonal_map(a.field, [-1, 1, -1]), 2)


def sl2_twisted_flagship(field: FieldDescriptor | None = None):
    """The Setup pieces (a, s, aut1, aut2) of sl2 with its sign involution
    against k[z]/(z^4 - 1) with z -> -z.

    The running 6-dimensional fixed-point example: both sides of the
    restriction isomorphism have dimension 6.
    """
    f = field or _q()
    a = sl2(f)
    s = group_algebra(4, f)
    return a, s, sl2_sign_automorphism(a), check_automorphism(s, diagonal_map(f, [1, -1, 1, -1]), 2)


def quotient_laurent_setup(n_blocks: int, m: int, field: FieldDescriptor | None = None):
    """The Setup pieces (a, s, aut1, aut2) of sl2 untwisted against
    k[z]/(z^{Nm} - 1) with z -> omega z.

    A finite quotient of the loop-algebra picture: the grading of S cycles
    through the residues, the degree-one unit is z itself. The field must
    contain a primitive m-th root of unity; the default picks the rationals
    for m <= 2 and the m-th cyclotomic field otherwise.
    """
    if n_blocks < 1 or m < 1:
        raise ParseError(f"need positive block count and period, got ({n_blocks}, {m})")
    if field is None:
        field = _q() if m <= 2 else make_field("cyclotomic", m=m)
    a = sl2(field)
    size = n_blocks * m
    s = group_algebra(size, field)
    om = field.root_of_unity(m)
    return (a, s, check_automorphism(a, diagonal_map(field, [1, 1, 1]), m),
            check_automorphism(s, diagonal_map(field, [field.pow(om, k) for k in range(size)]), m))


# ---------------------------------------------------------------------------
# named registry


_ALGEBRA_ENTRIES = {
    "sl2": (0, sl2, "three-dimensional simple Lie algebra"),
    "sl2-graded-variant": (0, sl2_graded_variant, "sl2 in a rotated basis"),
    "dual-numbers": (0, dual_numbers, "k[x]/(x^2)"),
    "group-algebra": (1, group_algebra, "k[z]/(z^n - 1), takes (n)"),
    "zero-product": (1, zero_product, "all products zero, takes (n); not perfect"),
}

# setup entries: (arity, builder, (dim A, dim S) as a function of the arguments, about)
_SETUP_ENTRIES = {
    "sl2-twisted-flagship": (0, sl2_twisted_flagship, lambda: (3, 4),
                             "sl2 with its sign involution over k[z]/(z^4 - 1), period 2"),
    "quotient-laurent": (2, quotient_laurent_setup, lambda n_blocks, m: (3, n_blocks * m),
                         "untwisted sl2 over k[z]/(z^{Nm} - 1) with z -> omega z, takes (N, m)"),
}

# scenes on the genuine Laurent carrier, verified in laurent: (parameters, about)
_SCENE_ENTRIES = {
    "exaBM-laurent": ((), "published extension formula on k<1> (x) k[z^(+-1)], period 4"),
    "last-exa-i": ((), "inverse-map values on k<1> (x) k[z^(+-1)], period 4, unit z"),
    "last-exa-ii": (("m", "n"), "twisted normal form, inverse style, unit z^-1; takes (m, n)"),
}


def parse_catalog_name(text: str):
    """Split 'name' or 'name(i,j,...)' into the base name and integer args."""
    m = re.fullmatch(r"\s*([A-Za-z][A-Za-z0-9-]*)\s*(?:\(\s*(-?\d+(?:\s*,\s*-?\d+)*)\s*\))?\s*",
                     text)
    if not m:
        raise ParseError(f"malformed catalog name {text!r}")
    base = m.group(1)
    args = tuple(int(x) for x in m.group(2).split(",")) if m.group(2) else ()
    return base, args


def _check_arity(base: str, args: tuple, arity: int):
    if len(args) != arity:
        want = "no arguments" if arity == 0 else f"{arity} integer argument(s)"
        raise ParseError(f"catalog entry {base!r} takes {want}, got {args}")


def catalog_algebra(text: str, field: FieldDescriptor | None = None) -> Algebra:
    base, args = parse_catalog_name(text)
    if base not in _ALGEBRA_ENTRIES:
        raise ParseError(f"unknown algebra {base!r}; see catalog list")
    arity, fn, _ = _ALGEBRA_ENTRIES[base]
    _check_arity(base, args, arity)
    return fn(*args, field) if args else fn(field)


def catalog_setup(text: str, field: FieldDescriptor | None = None, dims: bool = False):
    """The pieces (a, s, aut1, aut2) of the named setup, or with dims the
    (dim A, dim S) that its entry declares, building nothing."""
    base, args = parse_catalog_name(text)
    if base not in _SETUP_ENTRIES:
        raise ParseError(f"unknown setup {base!r}; see catalog list")
    arity, fn, dim, _ = _SETUP_ENTRIES[base]
    _check_arity(base, args, arity)
    return dim(*args) if dims else fn(*args, field)


def catalog_scene(text: str):
    """The base name and integer arguments of the named scene, or None when the
    text names no scene. A scene that takes arguments may be named bare, for its sweep."""
    if _base_name(text) not in _SCENE_ENTRIES:
        return None
    base, args = parse_catalog_name(text)
    params, _ = _SCENE_ENTRIES[base]
    if args and len(args) != len(params):
        raise ParseError(f"{base} takes ({', '.join(params)})" if params else f"{base} takes no arguments")
    return base, args


def _base_name(text: str):
    try:
        return parse_catalog_name(text)[0]
    except ParseError:
        return None


def is_catalog_name(text: str) -> bool:
    """Whether the text names a registered algebra, setup or scene."""
    base = _base_name(text)
    return any(base in reg for reg in (_ALGEBRA_ENTRIES, _SETUP_ENTRIES, _SCENE_ENTRIES))


def catalog_entries() -> list:
    """All registered names with kind and description, stable order."""
    out = []
    for name, (arity, _, desc) in _ALGEBRA_ENTRIES.items():
        out.append({"name": name, "kind": "algebra", "args": arity, "about": desc})
    for name, (arity, _, _, desc) in _SETUP_ENTRIES.items():
        out.append({"name": name, "kind": "setup", "args": arity, "about": desc})
    for name, (params, desc) in _SCENE_ENTRIES.items():
        out.append({"name": name, "kind": "scene", "args": len(params), "about": desc})
    return out
