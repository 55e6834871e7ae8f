"""Outside-in tracing of the symrank layers, installed at run time.

``Tracer.instrument`` wraps the public functions and methods of each layer
in place and restores them on exit; no file of the library changes.  A
module-level function is replaced in every ``symrank`` module that bound it
by ``from ... import``, since a wrapper installed only in the defining
module would silently miss those calls.

Two kinds of wrapper:

* span wrappers record (trial, id, parent id, name, start ns, end ns) and
  keep a running self time (span time minus child spans) per
  (root, name), where root is the benchmark's own top-level span of the
  trial: ``channel.sample``, ``decode`` or ``judge``;
* count wrappers (field operations, ``SymSetup.coords`` and the localiser
  test) only count calls.  Field operations count only when no other field
  operation is running, so an ``add`` that calls the base field's ``add``
  per digit counts once.  Wrapping field operations slows a decode several
  times over, so the benchmark takes span times from a pass without them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from symrank import bilinear, gabidulin, gf, linalg, qpoly, symdec

# (owner, attribute, span name); the owner is a module or a class
SPANNED = (
    (gf, "make_field", "gf.make_field"),
    (linalg.Matrix, "kernel", "linalg.kernel"),
    (linalg.Matrix, "rank", "linalg.rank"),
    (linalg.Matrix, "solve", "linalg.solve"),
    (linalg.LinearSolver, "solve", "linalg.solve"),
    (qpoly.QPoly, "compose", "qpoly.compose"),
    (qpoly.QPoly, "left_divide", "qpoly.left_divide"),
    (qpoly.QPoly, "adjoint", "qpoly.adjoint"),
    (qpoly, "qpoly_rank", "qpoly.qpoly_rank"),
    (qpoly, "matrix_of", "qpoly.matrix_of"),
    (qpoly, "matrix_to_qpoly", "qpoly.matrix_to_qpoly"),
    (bilinear.SymSetup, "__init__", "bilinear.setup"),
    (gabidulin, "wb_decode", "gabidulin.wb_decode"),
    (symdec, "matrix_code_of", "symdec.init"),
    (symdec.LowRateDecoder, "__init__", "symdec.init"),
    (symdec.HighRateDecoder, "__init__", "symdec.init"),
    (symdec.LowRateDecoder, "decode", "symdec.decode"),
    (symdec.HighRateDecoder, "decode", "symdec.decode"),
)

GF_OPS = ("add", "sub", "mul", "inv", "frobenius", "trace")

COUNTED = (
    (bilinear.SymSetup, "coords", "bilinear.coords"),
    (gabidulin, "_try_localiser", "gabidulin.localiser"),
)


def _symrank_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "symrank" or name.startswith("symrank."))]


class Tracer:
    """Span records and call counts of one instrumented phase."""

    def __init__(self, field_labels: dict | None = None):
        self.trial = -1
        self.root = "setup"
        self.spans: list[tuple] = []
        self.self_ns: Counter = Counter()      # (root, name) -> ns
        self.total_ns: Counter = Counter()     # (root, name) -> ns, inclusive
        self.calls: Counter = Counter()        # (root, name) -> calls
        self.gf_calls: Counter = Counter()     # (root, field, level, op) -> calls
        self.values: dict = defaultdict(int)   # (root, key) -> summed value
        self._stack: list[list] = []           # [id, name, start, child ns]
        self._next_id = 0
        self._gf_depth = 0
        self._labels = field_labels or {}

    # -- spans ---------------------------------------------------------------

    def open(self, name: str):
        if not self._stack and name in ("channel.sample", "decode", "judge"):
            self.root = name
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter_ns(), 0])

    def close(self):
        end = time.perf_counter_ns()
        sid, name, start, child = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.spans.append((self.trial, sid, parent[0] if parent else 0,
                           name, start, end))
        key = (self.root, name)
        self.self_ns[key] += dur - child
        self.total_ns[key] += dur
        self.calls[key] += 1
        if not self._stack:
            self.root = "setup"

    def add_value(self, key: str, amount):
        self.values[(self.root, key)] += amount

    # -- wrappers --------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close()
            if isinstance(out, gabidulin.DecodeReport):
                tracer._note_report(name, out)
            return out
        return wrapper

    def _note_report(self, name, rep):
        diag = rep.diagnostics
        if name == "gabidulin.wb_decode":
            self.add_value("wb.candidates", len(rep.candidates))
            self.add_value("wb.walked", diag.get("walked", 0))
            self.add_value("wb.truncated", int(bool(diag.get("truncated"))))
        elif name == "symdec.decode":
            self.add_value("sym.decodes", 1)
            self.add_value("sym.ambiguous", int(rep.status == "ambiguous"))
            self.add_value("sym.survivors", diag.get("survivors", 0))

    def _count_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[(tracer.root, name)] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _gf_wrapper(self, level, op, fn):
        tracer = self
        labels = self._labels

        @functools.wraps(fn)
        def wrapper(fld, *args):
            if tracer._gf_depth:
                return fn(fld, *args)
            tracer.gf_calls[(tracer.root, labels.get(id(fld), "other"), level, op)] += 1
            tracer._gf_depth = 1
            try:
                return fn(fld, *args)
            finally:
                tracer._gf_depth = 0
        return wrapper

    @contextmanager
    def instrument(self, count_gf: bool = False):
        """Install the wrappers; restore every patched attribute on exit."""
        undo = []
        try:
            for owner, attr, name in SPANNED:
                undo += _replace(owner, attr, self._span_wrapper(name, getattr(owner, attr)))
            if count_gf:
                for owner, attr, name in COUNTED:
                    undo += _replace(owner, attr,
                                     self._count_wrapper(name, getattr(owner, attr)))
                for cls, level in ((gf.ExtField, "ext"), (gf.BaseField, "base")):
                    for op in GF_OPS:
                        if hasattr(cls, op):
                            undo += _replace(cls, op,
                                             self._gf_wrapper(level, op, getattr(cls, op)))
            yield self
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

    # -- output ----------------------------------------------------------------

    def dump(self, path: str):
        """Write the spans, one JSON array per line:
        [trial, id, parent id, name, start ns, end ns]."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def _replace(owner, attr, wrapper) -> list[tuple]:
    """Set owner.attr to wrapper; for a module function, also in every
    symrank module that imported it.  Returns the undo list."""
    orig = getattr(owner, attr)
    undo = [(owner, attr, orig)]
    setattr(owner, attr, wrapper)
    if not isinstance(owner, type):
        for mod in _symrank_modules():
            if mod is not owner and getattr(mod, attr, None) is orig:
                undo.append((mod, attr, orig))
                setattr(mod, attr, wrapper)
    return undo
