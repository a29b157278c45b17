"""Spans and counters around the library's layer functions, installed from
outside the library.

A module that does `from .lattice import mult` holds its own binding of
the function, so instrumenting `lattice.mult` alone would miss calls made
from `brandt`.  `install` therefore replaces every binding of an identical
function object: module globals of every loaded `gliderbs.*` module and
attributes of every class defined there.

Two instruments share the rebinding:

- `Tracer` records a span (name, start, end, parent span, op id) per call
  into a timed layer function and counts calls into the count-only ones.
  Spans are kept in flat arrays in memory and written out by `dump`.
- `Counter` counts calls, scalar operations by field kind, HNF input rows
  and distinct operand pairs of `mult` and the colon.  Its numbers are
  exact: they depend only on the inputs, never on the clock.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import Counter as _Tally

SPAN, COUNT = "span", "count"

# (metric prefix, module, attribute path, kind)
LAYER_TARGETS = [
    ("lattice.hnf", "gliderbs.lattice", "_hnf", SPAN),
    ("lattice.mix", "gliderbs.lattice", "BaseRing.mix_coefficient", COUNT),
    ("lattice.reduce_mod", "gliderbs.lattice", "BaseRing.reduce_mod", SPAN),
    ("lattice.solve_dual", "gliderbs.lattice", "solve_dual", SPAN),
    ("lattice.mult", "gliderbs.lattice", "mult", SPAN),
    ("lattice.colon", "gliderbs.lattice", "_colon", SPAN),
    ("lattice.intersect", "gliderbs.lattice", "intersect", SPAN),
    ("lattice.contains", "gliderbs.lattice", "Lattice.contains", SPAN),
    ("lattice.coords", "gliderbs.lattice", "Lattice.coords", COUNT),
    ("lattice.simple_quotient", "gliderbs.lattice", "is_simple_quotient",
     SPAN),
    ("lattice.directions", "gliderbs.lattice",
     "_QuotientSpace.enumerate_directions", COUNT),
    ("glider.is_glider", "gliderbs.glider", "is_glider", SPAN),
    ("glider.construct", "gliderbs.glider", "Glider.__init__", COUNT),
    ("glider.level", "gliderbs.glider", "Glider.level", COUNT),
    ("glider.classify_subglider", "gliderbs.glider", "classify_subglider",
     SPAN),
    ("brandt.product", "gliderbs.brandt", "product", SPAN),
    ("brandt.inverse", "gliderbs.brandt", "inverse", SPAN),
    ("brandt.modulizer", "gliderbs.brandt", "modulizer_chain", SPAN),
    ("brandt.repackage", "gliderbs.brandt", "_repackage", SPAN),
    ("brandt.verify", "gliderbs.brandt", "verify_groupoid", SPAN),
    ("gbs.classify_csa", "gliderbs.gbs", "classify_csa_glider", SPAN),
    ("gbs.classify_field", "gliderbs.gbs", "classify_field_glider", SPAN),
    ("gbs.reducible_check", "gliderbs.gbs", "_reducible", SPAN),
    ("tensorext.tensor_glider", "gliderbs.tensorext", "tensor_glider", SPAN),
    ("rank2.classify", "gliderbs.rank2", "classify_z2_glider", SPAN),
    ("jsonio.decode", "gliderbs.jsonio", "loads_glider", SPAN),
    ("jsonio.decode", "gliderbs.jsonio", "loads_z2", SPAN),
    ("jsonio.decode", "gliderbs.jsonio", "loads_filtration", SPAN),
    ("jsonio.encode", "gliderbs.jsonio", "encode_verdict", SPAN),
    ("jsonio.encode", "gliderbs.jsonio", "encode_z2_verdict", SPAN),
    ("jsonio.encode", "gliderbs.jsonio", "dumps", SPAN),
    ("cli.main", "gliderbs.cli", "main", SPAN),
]

# is_glider calls under these spans recheck chains the library built itself
NESTING_SCOPES = ("brandt.product", "brandt.inverse", "brandt.modulizer")

# per-layer metrics of the traced pass: (span name, reported fields)
SPAN_METRICS = [
    ("lattice.hnf", ("calls", "self_s")),
    ("lattice.reduce_mod", ("calls", "self_s")),
    ("lattice.solve_dual", ("calls", "self_s")),
    ("lattice.mult", ("calls", "s", "self_s")),
    ("lattice.colon", ("calls", "s", "self_s")),
    ("lattice.intersect", ("calls", "s")),
    ("lattice.contains", ("calls", "self_s")),
    ("lattice.simple_quotient", ("calls", "s")),
    ("glider.is_glider", ("calls", "s", "self_s")),
    ("glider.classify_subglider", ("calls", "s")),
    ("brandt.product", ("calls", "s")),
    ("brandt.inverse", ("calls", "s")),
    ("brandt.modulizer", ("calls", "s")),
    ("brandt.repackage", ("calls", "s")),
    ("brandt.verify", ("calls", "s")),
    ("gbs.classify_csa", ("calls", "s")),
    ("gbs.classify_field", ("calls", "s")),
    ("gbs.reducible_check", ("calls", "s")),
    ("tensorext.tensor_glider", ("calls", "s")),
    ("rank2.classify", ("calls", "s")),
    ("jsonio.decode", ("calls", "self_s")),
    ("jsonio.encode", ("calls", "self_s")),
    ("cli.main", ("self_s",)),
]
COUNT_METRICS = ["lattice.mix", "lattice.coords", "lattice.directions",
                 "glider.construct", "glider.level"]

FIELD_TARGETS = [
    ("fields.add", "FieldElem.__add__"),
    ("fields.add", "FieldElem.__sub__"),
    ("fields.add", "FieldElem.__rsub__"),
    ("fields.mul", "FieldElem.__mul__"),
    ("fields.div", "FieldElem.__truediv__"),
    ("fields.div", "FieldElem.__rtruediv__"),
    ("fields.bool", "FieldElem.__bool__"),
    ("fields.zero_one", "Field.zero"),
    ("fields.zero_one", "Field.one"),
    ("fields.val", "Valuation.__call__"),
    ("fields.residue", "Valuation.residue"),
]
FIELD_KINDS = {"Q": "Q", "QI": "QI", "FUNC": "FUNC", "FUNC2": "FUNC",
               "FP": "FP", "FP2": "FP", "QUOT": "QUOT"}
COUNT_PASS_METRICS = (
    [f"fields.{k}.calls" for k in
     ("add", "mul", "div", "bool", "zero_one", "val", "residue")]
    + [f"fields.ops.{k}.calls" for k in ("Q", "QI", "FUNC", "FP", "QUOT")]
    + ["count.hnf.calls", "count.hnf.rows", "count.mult.calls",
       "count.colon.calls", "count.intersect.calls",
       "lattice.mult.distinct_frac", "lattice.mult.scaled_distinct_frac",
       "lattice.colon.scaled_distinct_frac"])


def _resolve(module, path):
    obj = sys.modules[module]
    for part in path.split("."):
        obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
    return obj


def install(orig, new):
    """Replace every binding of `orig` in the loaded gliderbs modules and
    their classes by `new`; returns the number of bindings replaced."""
    replaced = 0
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "gliderbs"
                               or name.startswith("gliderbs.")):
            continue
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, new)
                replaced += 1
            elif isinstance(val, type) and \
                    val.__module__.startswith("gliderbs"):
                for ckey, cval in list(vars(val).items()):
                    if cval is orig:
                        setattr(val, ckey, new)
                        replaced += 1
    if not replaced:
        raise RuntimeError(f"no binding of {orig!r} found to instrument")
    return replaced


class Tracer:
    """Spans around the layer functions of LAYER_TARGETS."""

    def __init__(self):
        self.names = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("l")
        self.op = array("l")
        self.stack = [-1]
        self.op_id = -1
        self.calls = _Tally()
        self.nested = 0
        self.scope_depth = 0
        self.bytes_out = 0
        self.active = False

    def install(self):
        for _, module, _, _ in LAYER_TARGETS:
            importlib.import_module(module)
        for metric, module, path, kind in LAYER_TARGETS:
            orig = _resolve(module, path)
            fn = self._measure_bytes(orig) if path == "dumps" else orig
            if kind == SPAN:
                install(orig, self._span(fn, metric))
            else:
                install(orig, self._count(fn, metric))

    def start_op(self, op_id):
        self.op_id = op_id
        self.active = True

    def end_op(self):
        self.active = False
        self.op_id = -1

    def _measure_bytes(self, dumps):
        def measured(*args, **kwargs):
            text = dumps(*args, **kwargs)
            if self.active:
                self.bytes_out += len(text.encode())
            return text

        return measured

    def _name_id(self, metric):
        if metric not in self.names:
            self.names.append(metric)
        return self.names.index(metric)

    def _count(self, fn, metric):
        calls = self.calls

        def counted(*args, **kwargs):
            if self.active:
                calls[metric] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, fn, metric):
        nid = self._name_id(metric)
        scope = metric in NESTING_SCOPES
        is_glider = metric == "glider.is_glider"
        clock = time.perf_counter
        start, end, parent, name, op = (self.start, self.end, self.parent,
                                        self.name, self.op)
        stack = self.stack

        def spanned(*args, **kwargs):
            up = stack[-1]
            if not self.active or up >= 0 and name[up] == nid:
                # an inner call of the same layer function belongs to the
                # outer span (loads_glider -> loads_filtration)
                return fn(*args, **kwargs)
            if is_glider and self.scope_depth:
                self.nested += 1
            if scope:
                self.scope_depth += 1
            idx = len(start)
            name.append(nid)
            parent.append(up)
            op.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                if scope:
                    self.scope_depth -= 1

        return spanned

    def summary(self):
        """Per span name: calls, inclusive seconds, self seconds."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {nm: {"calls": 0, "s": 0.0, "self_s": 0.0} for nm in self.names}
        for i in range(n):
            rec = out[self.names[self.name[i]]]
            dur = self.end[i] - self.start[i]
            rec["calls"] += 1
            rec["s"] += dur
            rec["self_s"] += dur - child[i]
        return out

    def dump(self, path):
        """Write the spans: a JSON header line, then the raw arrays."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "spans": len(self.start),
                      "arrays": ["start:d", "end:d", "parent:l", "name:l",
                                 "op:l"]}
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.start, self.end, self.parent, self.name,
                        self.op):
                arr.tofile(fh)


class WorkCapExceeded(BaseException):
    """An op used more scalar operations than the count pass allows."""


class Counter:
    """Exact counts of the work behind a fixed list of ops."""

    def __init__(self, op_cap):
        self.tally = _Tally()
        self.op_cap = op_cap
        self.op_binops = 0
        self.mult_keys = set()
        self.mult_scaled = set()
        self.colon_scaled = set()
        self.paused = True

    def install(self):
        from gliderbs import fields, lattice

        for metric, path in FIELD_TARGETS:
            install(_resolve("gliderbs.fields", path),
                    self._count(_resolve("gliderbs.fields", path),
                                metric + ".calls"))
        binop = vars(fields.FieldElem)["_binop"]
        install(binop, self._binop(binop))
        install(lattice._hnf, self._hnf(lattice._hnf))
        install(lattice.mult, self._pair(lattice.mult, "count.mult.calls",
                                         self.mult_scaled, self.mult_keys))
        install(lattice._colon, self._pair(lattice._colon,
                                           "count.colon.calls",
                                           self.colon_scaled, None))
        install(lattice.intersect, self._count(lattice.intersect,
                                               "count.intersect.calls"))

    def start_op(self, op_id):
        self.op_binops = 0
        self.paused = False

    def end_op(self):
        self.paused = True

    def _count(self, fn, key):
        tally = self.tally

        def counted(*args, **kwargs):
            if not self.paused:
                tally[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _binop(self, fn):
        tally = self.tally

        def counted(elem, other, op):
            if not self.paused:
                tally["fields.ops." + FIELD_KINDS[elem.field.kind]
                      + ".calls"] += 1
                self.op_binops += 1
                if self.op_binops > self.op_cap:
                    raise WorkCapExceeded()
            return fn(elem, other, op)

        return counted

    def _hnf(self, fn):
        tally = self.tally

        def counted(base, dim, vectors):
            vectors = list(vectors)
            if not self.paused:
                tally["count.hnf.calls"] += 1
                tally["count.hnf.rows"] += len(vectors)
            return fn(base, dim, vectors)

        return counted

    def _pair(self, fn, key, scaled_keys, plain_keys):
        tally = self.tally

        def counted(x, y, *rest, **kwargs):
            if not self.paused:
                tally[key] += 1
                self.paused = True
                try:
                    extra = rest + tuple(sorted(kwargs.items()))
                    if plain_keys is not None:
                        plain_keys.add((_content(x), _content(y), extra))
                    scaled_keys.add((_primitive(x), _primitive(y), extra))
                finally:
                    self.paused = False
            return fn(x, y, *rest, **kwargs)

        return counted

    def metrics(self):
        t = self.tally
        out = {m: t.get(m, 0) for m in COUNT_PASS_METRICS}
        mults = t.get("count.mult.calls", 0)
        colons = t.get("count.colon.calls", 0)
        out["lattice.mult.distinct_frac"] = (
            len(self.mult_keys) / mults if mults else 0.0)
        out["lattice.mult.scaled_distinct_frac"] = (
            len(self.mult_scaled) / mults if mults else 0.0)
        out["lattice.colon.scaled_distinct_frac"] = (
            len(self.colon_scaled) / colons if colons else 0.0)
        return out


def _content(lat):
    return getattr(lat, "rows", lat)


def _primitive(lat):
    """The rows of lat divided by the largest uniformizer power that
    divides every entry: equal for lattices that differ by a central
    scalar of the base ring."""
    rows = getattr(lat, "rows", None)
    if not rows:
        return _content(lat)
    base = lat.base
    mins = [None] * base.nprimes
    for row in rows:
        for e in row:
            if e:
                for j, t in enumerate(base.val_vector(e)):
                    if mins[j] is None or t < mins[j]:
                        mins[j] = t
    # built here rather than by BaseRing.from_exponents, whose cache would
    # otherwise change the work that later counted calls do
    scale = base.field.one()
    for pi, m in zip(base.uniformizers, mins):
        scale = scale * pi ** m
    inv = base.field.one() / scale
    return tuple(tuple(inv * e for e in row) for row in rows)


def per_layer_metrics(trace, count):
    """The per-layer metrics of one traced run and one count pass."""
    out = {}
    spans = trace["spans"]
    for name, fields in SPAN_METRICS:
        rec = spans.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for field in fields:
            out[f"{name}.{field}"] = rec[field]
    for name in COUNT_METRICS:
        out[f"{name}.calls"] = trace["calls"].get(name, 0)
    checks = spans.get("glider.is_glider", {}).get("calls", 0)
    out["glider.is_glider.nested_frac"] = \
        trace["nested"] / checks if checks else 0.0
    out["jsonio.bytes_out"] = trace["bytes_out"]
    out.update(count["counts"])
    out["count.ops"] = count["attempted"]
    plain, traced = trace["untraced"], trace["traced"]
    out["trace.ops"] = traced["attempted"]
    plain, traced = plain["scaled"], traced["scaled"]
    out["trace.untraced_ops_per_s"] = plain["ops_per_s"]
    out["trace.traced_ops_per_s"] = traced["ops_per_s"]
    out["trace.overhead_frac"] = 1 - traced["ops_per_s"] / plain["ops_per_s"]
    return out


def per_layer_units():
    """(name, unit) of every per-layer metric, in report order."""
    names = []
    for name, fields in SPAN_METRICS:
        names += [f"{name}.{field}" for field in fields]
    names += [f"{name}.calls" for name in COUNT_METRICS]
    names += ["glider.is_glider.nested_frac", "jsonio.bytes_out"]
    names += COUNT_PASS_METRICS
    names += ["count.ops", "trace.ops", "trace.untraced_ops_per_s",
              "trace.traced_ops_per_s", "trace.overhead_frac"]
    return [(n, _unit(n)) for n in names]


def _unit(name):
    last = name.rsplit(".", 1)[-1]
    if last in ("s", "self_s"):
        return "s"
    if last.endswith("frac"):
        return "frac"
    if last.endswith("ops_per_s"):
        return "1/s"
    if last == "bytes_out":
        return "bytes"
    return "count"
