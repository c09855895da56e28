"""Outside-in instrumentation of dertensor, and the analysis of its spans.

Two instruments run in the child process, each in its own pass:

* ``SpanRecorder.install`` wraps every public function and method of the
  layer modules and rebinds every name another dertensor module imported with
  ``from .x import y``. A wrapped call records a span (name, start, end,
  parent) when it enters a layer from another one, or when it is one of the
  ``NAMED`` functions whose inclusive time is reported on its own. Calls
  inside one layer pass straight through, so a layer's self time includes
  its private helpers. ``FieldDescriptor`` and ``Scalar`` are left alone:
  their arithmetic runs millions of times per item, its cost is charged to
  the calling layer, and it is counted in the counting pass instead.
* ``install_counters`` counts FieldDescriptor add/sub/neg/mul/inv calls per
  field kind and the size of every system handed to ``rref_rows``.

Spans stay in memory and are written to a file when the item ends.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array

LAYERS = ("cli", "catalog", "decomposition", "invariants", "gradings", "laurent",
          "algebra", "exactla", "scalars")

# always recorded, even when called from inside their own layer
MEMBER = ("exactla.Subspace.contains", "exactla.Subspace.reduce", "exactla.Subspace.coords")
NAMED = MEMBER + (
    "exactla.rref_rows", "exactla.kernel_of_rows", "exactla.Matrix.mul",
    "exactla.Subspace.intersect", "invariants.derivation_space", "invariants.centroid",
    "invariants.psi_map", "decomposition.embed_tensor_derivations",
    "decomposition.split_derivation", "decomposition.Setup.__init__",
    "decomposition.extend_phi",
)

# arithmetic classes that are counted, not spanned
UNSPANNED = ("scalars.FieldDescriptor", "scalars.Scalar")

ROOT = "bench.item"


def _modules():
    return {name: sys.modules[f"dertensor.{name}"] for name in LAYERS}


class SpanRecorder:
    """Spans of one item, held in flat arrays indexed by span number."""

    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._layers = [None]

    def _intern(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, fn, layer: str, qualname: str):
        nid = self._intern(f"{layer}.{qualname}")
        always = f"{layer}.{qualname}" in NAMED
        stack, layers = self._stack, self._layers
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            if not always and layers[-1] is layer:
                return fn(*args, **kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            layers.append(layer)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                layers.pop()

        spanned.__wrapped__ = fn
        spanned.__name__ = fn.__name__
        spanned.__qualname__ = fn.__qualname__
        spanned.__doc__ = fn.__doc__
        return spanned

    def item_span(self):
        """Context manager for the span around the whole item."""
        return _RootSpan(self, self._intern(ROOT))

    def install(self):
        mods = _modules()
        replaced = {}
        for layer, mod in mods.items():
            layer = sys.intern(layer)
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    new = self._wrap(obj, layer, name)
                    replaced[id(obj)] = (obj, new)
                    setattr(mod, name, new)
                elif inspect.isclass(obj) and f"{layer}.{name}" not in UNSPANNED:
                    self._wrap_class(obj, layer)
        # rebind names imported with "from .x import y" into other modules
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])

    def _wrap_class(self, cls, layer: str):
        for name, attr in list(vars(cls).items()):
            qual = f"{cls.__name__}.{name}"
            if name.startswith("_") and f"{layer}.{qual}" not in NAMED:
                continue
            if inspect.isfunction(attr):
                setattr(cls, name, self._wrap(attr, layer, qual))
            elif isinstance(attr, (classmethod, staticmethod)):
                setattr(cls, name, type(attr)(self._wrap(attr.__func__, layer, qual)))
            elif isinstance(attr, property) and attr.fget is not None:
                setattr(cls, name, property(self._wrap(attr.fget, layer, qual),
                                            attr.fset, attr.fdel, attr.__doc__))

    def dump(self, path: str, item_id: str):
        with open(path, "wb") as fh:
            head = {"item": item_id, "names": self.names, "count": len(self.start)}
            fh.write((json.dumps(head) + "\n").encode())
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)


class _RootSpan:
    def __init__(self, rec: SpanRecorder, nid: int):
        self.rec, self.nid = rec, nid

    def __enter__(self):
        rec = self.rec
        self.idx = len(rec.start)
        rec.name_id.append(self.nid)
        rec.parent.append(rec._stack[-1])
        rec.end.append(0.0)
        rec._stack.append(self.idx)
        rec._layers.append("bench")
        rec.start.append(time.perf_counter())
        return self

    def __exit__(self, *exc):
        rec = self.rec
        rec.end[self.idx] = time.perf_counter()
        rec._stack.pop()
        rec._layers.pop()
        return False


def load_spans(path: str):
    with open(path, "rb") as fh:
        head = json.loads(fh.readline())
        n = head["count"]
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return head, arrays


# ---------------------------------------------------------------------------
# counting pass


def install_counters() -> dict:
    """Patch the counters in; returns the dict they accumulate into."""
    from dertensor import exactla
    from dertensor.scalars import CYCLOTOMIC, PRIME, RATIONAL, FieldDescriptor

    counts = {RATIONAL: 0, PRIME: 0, CYCLOTOMIC: 0, "inv": 0,
              "rref_calls": 0, "rows_in": 0, "nnz_in": 0, "cells_in": 0, "rank_out": 0}

    def binary(fn):
        def op(self, a, b):
            counts[self.kind] += 1
            return fn(self, a, b)
        return op

    def unary(fn, extra=None):
        def op(self, a):
            counts[self.kind] += 1
            if extra:
                counts[extra] += 1
            return fn(self, a)
        return op

    FieldDescriptor.add = binary(FieldDescriptor.add)
    FieldDescriptor.sub = binary(FieldDescriptor.sub)
    FieldDescriptor.mul = binary(FieldDescriptor.mul)
    FieldDescriptor.neg = unary(FieldDescriptor.neg)
    FieldDescriptor.inv = unary(FieldDescriptor.inv, "inv")

    rref_rows = exactla.rref_rows

    def rref_counted(field, rows, ncols):
        rows = list(rows)
        z = field.zero()
        counts["rref_calls"] += 1
        counts["rows_in"] += len(rows)
        counts["cells_in"] += len(rows) * ncols
        counts["nnz_in"] += sum(1 for row in rows for x in row if x != z)
        out = rref_rows(field, rows, ncols)
        counts["rank_out"] += len(out[1])
        return out

    exactla.rref_rows = rref_counted  # only exactla itself calls it
    return counts


# ---------------------------------------------------------------------------
# analysis


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(paths) -> dict:
    """Per-layer self times and the named inclusive times over span files."""
    self_s = {layer: 0.0 for layer in LAYERS + ("bench",)}
    incl = {name: 0.0 for name in NAMED}
    calls = {name: 0 for name in NAMED}
    member_s = 0.0
    entries = {layer: 0 for layer in LAYERS}
    member = set(MEMBER)
    for path in paths:
        head, (nid, parent, start, end) = load_spans(path)
        names = head["names"]
        for i in range(len(start)):
            name = names[nid[i]]
            dur = end[i] - start[i]
            layer = layer_of(name)
            p = parent[i]
            pname = names[nid[p]] if p >= 0 else None
            # self time: a span's duration, less the durations of its children
            self_s[layer] += dur
            if pname is not None:
                self_s[layer_of(pname)] -= dur
            if layer in entries and (pname is None or layer_of(pname) != layer):
                entries[layer] += 1
            if name in incl:
                calls[name] += 1
                if name in member:
                    if pname not in member:
                        member_s += dur
                elif pname != name:
                    incl[name] += dur
    return {"self_s": self_s, "incl": incl, "calls": calls, "member_s": member_s,
            "entries": entries}
