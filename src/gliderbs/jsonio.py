"""JSON encoding/decoding for every external value, schema "gbs/1".

Unknown keys are rejected, canonical values round-trip bit-exactly
(parse of a printed value re-prints identically), and dumps are
deterministic (sorted keys, fixed separators).
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .errors import SchemaError
from .fields import GAUSS_FIELD, MAX_EXPONENT, field_from_name, \
    gauss_norm, gauss_prime, padic, poly_prime, composite2, xadic, yadic
from .filtration import AlgebraFiltration, FieldFiltration, StepFunction
from .gbs import BsPoint
from .glider import TAIL_KINDS, Glider, MultiplyBy, Tail
from .lattice import (BaseRing, FracIdeal, ZERO_MODULE, canonicalize,
                      matrix_algebra, quaternion_algebra, span)
from .orders import OrderData
from .rank2 import (Z2Filtration, Z2Glider, Z2Ideal, Z2MultiplyBy)
from .tensorext import gauss_extension, sqrt_x_extension

SCHEMA = "gbs/1"
# the largest prime a document names: a p-adic `p`, an extension's `over`
# and the norm of a Gaussian prime; the trial division that tests one
# takes under 0.1 s at the bound.  An exponent's bound is
# `fields.MAX_EXPONENT`, which element strings obey too.
MAX_PRIME = 10 ** 12
# the largest absolute value of a degree that bounds a window (of `phi`
# or of an explicit algebra filtration) and the largest tail period: the
# step function's checks are quadratic in its horizon, the window plus two
# periods per side, and take about 0.4 s at the bounds; the CLI's
# `--window` and `tensor-map --shift` obey it too
MAX_WINDOW = 100
# the most levels a glider's prefix holds: `is_glider` is quadratic in
# its window, which reaches past the prefix
MAX_PREFIX = 100
# the largest end of a rank-2 grid's window: `Z2Glider` compares every
# pair of cells on its (J+3) x (I+3) horizon, a cost of the fourth power
# of the side, and a 16 x 16 window validates in about 0.15 s
MAX_GRID_WINDOW = 16

__all__ = [
    "SCHEMA", "dumps", "loads_filtration", "loads_glider", "loads_z2",
    "loads_extension", "loads_points", "loads_sample", "loads_order",
    "encode_filtration", "encode_glider", "encode_z2", "encode_lattice",
    "encode_verdict", "encode_z2_verdict", "roundtrip", "detect_and_load",
]


def dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _check_keys(obj, required, optional=(), where="object"):
    _object(obj, where)
    missing = [k for k in required if k not in obj]
    if missing:
        raise SchemaError(f"missing keys {missing}", where)
    unknown = [k for k in obj if k not in required and k not in optional]
    if unknown:
        raise SchemaError(f"unknown keys {unknown}", where)


def _schema_check(obj, where):
    if obj.get("schema") != SCHEMA:
        raise SchemaError(f"schema must be {SCHEMA!r}", where)


def _int(value, where):
    """A JSON integer; floats, strings and booleans are rejected."""
    if type(value) is not int:
        raise SchemaError(f"expected an integer, got {value!r}", where)
    return value


def _rational(value, where):
    """A JSON integer, or a string that spells a rational as a `Fraction`
    prints, with a nonzero denominator (`"-1"`, `"3/2"`)."""
    if type(value) is int or isinstance(value, str) and \
            re.fullmatch(r"-?[0-9]+(/0*[1-9][0-9]*)?", value):
        return Fraction(value)
    raise SchemaError(f"expected a rational, got {value!r}", where)


def _ints(values, where, length=None):
    """A JSON list of integers, of the given length if one is given."""
    if not isinstance(values, list) or length not in (None, len(values)):
        what = "integers" if length is None else f"{length} integers"
        raise SchemaError(f"expected a list of {what}, got {values!r}", where)
    return tuple(_int(v, f"{where}[{i}]") for i, v in enumerate(values))


def _bounded(value, bound, what, where):
    """value, at most `bound` in absolute value."""
    if abs(value) > bound:
        raise SchemaError(f"{what} {value} is past the bound {bound}", where)
    return value


def _exponents(values, where):
    """A JSON list of ideal exponents, each at most `MAX_EXPONENT` in
    absolute value."""
    return tuple(_bounded(e, MAX_EXPONENT, "exponent", f"{where}[{i}]")
                 for i, e in enumerate(_ints(values, where)))


def _window(values, where):
    """A window [lo, hi], each end at most `MAX_WINDOW` in absolute
    value."""
    return tuple(_bounded(e, MAX_WINDOW, "degree", f"{where}[{i}]")
                 for i, e in enumerate(_ints(values, where, 2)))


def _prime_size(p, where):
    """p, checked against `MAX_PRIME` in absolute value before anything
    tests whether it is prime."""
    if abs(p) > MAX_PRIME:
        raise SchemaError(f"{p} is past the bound {MAX_PRIME} on primes",
                          where)
    return p


def _gauss_prime_text(text, where):
    """A Gaussian prime's string as an element of Q(i), its norm checked
    against `MAX_PRIME`."""
    pi = GAUSS_FIELD.parse(_str(text, where))
    _prime_size(gauss_norm(pi), where)
    return pi


def _str(value, where):
    """A JSON string."""
    if not isinstance(value, str):
        raise SchemaError(f"expected a string, got {value!r}", where)
    return value


def _list(value, where):
    """A JSON list."""
    if not isinstance(value, list):
        raise SchemaError(f"expected a list, got {value!r}", where)
    return value


def _object(value, where):
    """A JSON object."""
    if not isinstance(value, dict):
        raise SchemaError(f"expected an object, got {type(value).__name__}",
                          where)
    return value


def _rows(obj, base, where):
    """The `rows` of a lattice object: a list of lists of elements."""
    rows = _list(obj["rows"], where + ".rows")
    return [[base.field.parse(s) for s in _list(row, f"{where}.rows[{i}]")]
            for i, row in enumerate(rows)]


def _int_text(text, where):
    """A string (an object key, an extension's `over`) that spells an
    integer as `str` prints it."""
    if not isinstance(text, str) or \
            not re.fullmatch(r"0|-?[1-9][0-9]*", text):
        raise SchemaError(f"expected an integer string, got {text!r}", where)
    return int(text)


# ---------------------------------------------------------------------------
# valuations and base data
# ---------------------------------------------------------------------------

def encode_valuation(v):
    if v.kind == "padic":
        return {"kind": "padic", "p": v.p}
    if v.kind == "gauss":
        return {"kind": "gauss", "pi": str(v.pi)}
    if v.kind == "polyprime":
        return {"kind": "polyprime", "g": str(v.g)}
    return {"kind": v.kind}  # xadic, yadic, composite2: no parameters


# the keys of each valuation kind besides "kind"
_VALUATION_KEYS = {"padic": ["p"], "gauss": ["pi"], "polyprime": ["g"],
                   "xadic": [], "yadic": [], "composite2": []}


def decode_valuation(obj, field, where="valuation"):
    _check_keys(obj, ["kind"], ["p", "pi", "g"], where)
    kind = _str(obj["kind"], where + ".kind")
    if kind not in _VALUATION_KEYS:
        raise SchemaError(f"unknown valuation kind {kind!r}", where)
    _check_keys(obj, ["kind", *_VALUATION_KEYS[kind]], (), where)
    if kind == "padic":
        return padic(_prime_size(_int(obj["p"], where + ".p"), where + ".p"))
    if kind == "gauss":
        return gauss_prime(_gauss_prime_text(obj["pi"], where + ".pi"))
    if kind == "polyprime":
        return poly_prime(_str(obj["g"], where + ".g"), field)
    if kind == "xadic":
        return xadic(field)
    if kind == "yadic":
        return yadic(field)
    return composite2()


def encode_phi(phi):
    return phi.as_dict()


def _decode_period_tail(obj, where):
    """(period, increments) of a tail block."""
    _check_keys(obj, ["period", "inc"], (), where)
    return (_bounded(_int(obj["period"], where + ".period"), MAX_WINDOW,
                     "period", where + ".period"),
            _exponents(obj["inc"], where + ".inc"))


def decode_phi(obj, order="componentwise", where="phi"):
    _check_keys(obj, ["window", "table", "tailPlus", "tailMinus"], (), where)
    window = _window(obj["window"], where + ".window")
    if not isinstance(obj["table"], dict):
        raise SchemaError("expected an object", where + ".table")
    table = {_int_text(k, where + ".table"):
             _exponents(v, f"{where}.table.{k}")
             for k, v in obj["table"].items()}
    return StepFunction(window, table,
                        _decode_period_tail(obj["tailPlus"],
                                            where + ".tailPlus"),
                        _decode_period_tail(obj["tailMinus"],
                                            where + ".tailMinus"),
                        order=order)


def encode_algebra(alg):
    if alg.kind == "matrix":
        return {"kind": "matrix", "n": alg.n}
    return {"kind": "quaternion", "a": str(alg.a), "b": str(alg.b)}


def decode_algebra(obj, where="algebra"):
    _check_keys(obj, ["kind"], ["n", "a", "b"], where)
    if obj["kind"] == "matrix":
        _check_keys(obj, ["kind", "n"], (), where)
        return matrix_algebra(_int(obj["n"], where + ".n"))
    if obj["kind"] == "quaternion":
        _check_keys(obj, ["kind", "a", "b"], (), where)
        return quaternion_algebra(_rational(obj["a"], where + ".a"),
                                  _rational(obj["b"], where + ".b"))
    raise SchemaError(f"unknown algebra kind {obj['kind']!r}", where)


def encode_lattice(lat):
    return {
        "base": {"field": lat.base.field.name,
                 "valuations": [encode_valuation(v)
                                for v in lat.base.valuations]},
        "dim": lat.dim,
        "rows": [[str(e) for e in row] for row in lat.rows],
    }


def decode_lattice(obj, where="lattice", base=None, require_full=True):
    _check_keys(obj, ["dim", "rows"], ["base"], where)
    if base is None:
        bobj = obj.get("base")
        if bobj is None:
            raise SchemaError("lattice needs a base", where)
        _check_keys(bobj, ["field", "valuations"], (), where + ".base")
        field = field_from_name(_str(bobj["field"], where + ".base.field"))
        vals = [decode_valuation(v, field, f"{where}.base.valuations[{i}]")
                for i, v in enumerate(_list(bobj["valuations"],
                                            where + ".base.valuations"))]
        base = BaseRing(field, vals)
    rows = _rows(obj, base, where)
    dim = _int(obj["dim"], where + ".dim")
    if require_full:
        return canonicalize(base, dim, rows)
    return span(base, dim, rows)


# ---------------------------------------------------------------------------
# filtrations
# ---------------------------------------------------------------------------

def encode_filtration(filt):
    if isinstance(filt, AlgebraFiltration):
        out = encode_filtration(filt.base)
        alg = {"desc": encode_algebra(filt.alg),
               "mode": filt.mode,
               "order": encode_lattice(filt.order)}
        if filt.mode == "explicit":
            alg["window"] = [filt.lo, filt.hi]
            alg["levels"] = [encode_lattice(filt.levels[i])
                             for i in range(len(filt.levels))]
            alg["tailPlus"] = {"period": filt.plus_period,
                               "inc": list(filt.plus_mult.exps)}
            alg["tailMinus"] = {"period": filt.minus_period,
                                "inc": list(filt.minus_mult.exps)}
        out["algebra"] = alg
        return out
    return {
        "schema": SCHEMA,
        "field": filt.field.name,
        "valuations": [encode_valuation(v) for v in filt.valuations],
        "phi": encode_phi(filt.phi),
    }


def loads_filtration(text_or_obj, where="filtration"):
    obj = _as_obj(text_or_obj)
    _check_keys(obj, ["schema", "field", "valuations", "phi"],
                ["algebra"], where)
    _schema_check(obj, where)
    field = field_from_name(_str(obj["field"], where + ".field"))
    vals = [decode_valuation(v, field, f"{where}.valuations[{i}]")
            for i, v in enumerate(_list(obj["valuations"],
                                        where + ".valuations"))]
    order = "lex" if (vals and vals[0].rank == 2) else "componentwise"
    phi = decode_phi(obj["phi"], order=order, where=where + ".phi")
    base = FieldFiltration(field, vals, phi)
    if "algebra" not in obj:
        return base
    aobj = obj["algebra"]
    _check_keys(aobj, ["desc", "mode", "order"],
                ["window", "levels", "tailPlus", "tailMinus"],
                where + ".algebra")
    alg = decode_algebra(aobj["desc"], where + ".algebra.desc")
    order_lat = decode_lattice(aobj["order"], where + ".algebra.order",
                               base=base.base_ring)
    if aobj["mode"] == "induced":
        return AlgebraFiltration(alg, base, order_lat, mode="induced")
    if aobj["mode"] != "explicit":
        raise SchemaError(f"unknown mode {aobj['mode']!r}",
                          where + ".algebra.mode")
    _check_keys(aobj, ["desc", "mode", "order", "window", "levels",
                       "tailPlus", "tailMinus"], (), where + ".algebra")
    window = _window(aobj["window"], where + ".algebra.window")
    levels = [decode_lattice(l, where + ".algebra.levels",
                             base=base.base_ring)
              for l in _list(aobj["levels"], where + ".algebra.levels")]

    def ideal_tail(key):
        period, inc = _decode_period_tail(aobj[key], f"{where}.algebra.{key}")
        return period, FracIdeal(base.base_ring, inc)

    return AlgebraFiltration(alg, base, order_lat, mode="explicit",
                             window=window, levels=levels,
                             plus=ideal_tail("tailPlus"),
                             minus=ideal_tail("tailMinus"))


# ---------------------------------------------------------------------------
# gliders
# ---------------------------------------------------------------------------

def _encode_tail(tail):
    if tail.kind == "multiply":
        return {"kind": "multiply", "ideal": list(tail.ideal.exps)}
    return {"kind": tail.kind}


def _decode_tail(obj, multiply, where, ideal_key="ideal"):
    """`multiply` builds the multiply tail from the listed ideal."""
    _check_keys(obj, ["kind"], [ideal_key], where)
    kind = obj["kind"]
    if kind not in TAIL_KINDS:
        raise SchemaError(f"unknown tail kind {kind!r}", where)
    if kind != "multiply":
        return Tail(kind)
    _check_keys(obj, ["kind", ideal_key], (), where)
    return multiply(obj[ideal_key])


def _encode_level(lvl):
    if lvl is ZERO_MODULE:
        return "zero"
    if isinstance(lvl, FracIdeal):
        return {"exps": list(lvl.exps)}
    return {"rows": [[str(e) for e in row] for row in lvl.rows]}


def _decode_level(obj, base, dim, ambient, where="level"):
    if obj == "zero":
        return ZERO_MODULE
    if ambient == "field":
        _check_keys(obj, ["exps"], (), where)
        return FracIdeal(base, _exponents(obj["exps"], where + ".exps"))
    _check_keys(obj, ["rows"], (), where)
    return span(base, dim, _rows(obj, base, where))


def encode_glider(g):
    return {
        "schema": SCHEMA,
        "filtration": encode_filtration(g.filtration),
        "ambient": g.ambient,
        "algebra": (encode_algebra(g.alg)
                    if g.ambient == "algebra" and not isinstance(
                        g.filtration, AlgebraFiltration) else None),
        "prefix": [_encode_level(lvl) for lvl in g.prefix],
        "tail": _encode_tail(g.tail),
    }


def loads_glider(text_or_obj, where="glider"):
    obj = _as_obj(text_or_obj)
    _check_keys(obj, ["schema", "filtration", "ambient", "prefix", "tail"],
                ["algebra"], where)
    _schema_check(obj, where)
    levels = _list(obj["prefix"], where + ".prefix")
    if len(levels) > MAX_PREFIX:
        raise SchemaError(f"a prefix of {len(levels)} levels is past the "
                          f"bound {MAX_PREFIX}", where + ".prefix")
    filt = loads_filtration(obj["filtration"], where + ".filtration")
    base = filt.base_ring
    ambient = obj["ambient"]
    alg = None
    dim = 1
    if ambient == "algebra":
        if isinstance(filt, AlgebraFiltration):
            alg = filt.alg
        elif obj.get("algebra"):
            alg = decode_algebra(obj["algebra"], where + ".algebra")
        else:
            raise SchemaError("algebra glider needs an algebra", where)
        dim = alg.dim
    prefix = [_decode_level(l, base, dim, ambient, f"{where}.prefix[{i}]")
              for i, l in enumerate(levels)]
    tail = _decode_tail(
        obj["tail"],
        lambda e: MultiplyBy(FracIdeal(base,
                                       _exponents(e, where + ".tail.ideal"))),
        where + ".tail")
    return Glider(filt, ambient, prefix, tail, alg=alg)


# ---------------------------------------------------------------------------
# rank-2 gliders
# ---------------------------------------------------------------------------

def _encode_z2_cell(cell):
    if cell is ZERO_MODULE:
        return "zero"
    if cell.kind == "point":
        return {"point": list(cell.value)}
    return {"horizontal": cell.value}


def _decode_z2_cell(obj, where="cell"):
    if obj == "zero":
        return ZERO_MODULE
    _check_keys(obj, [], ["point", "horizontal"], where)
    if "point" in obj:
        return Z2Ideal.point(*_ints(obj["point"], where + ".point", 2))
    if "horizontal" in obj:
        return Z2Ideal.horizontal(_int(obj["horizontal"],
                                       where + ".horizontal"))
    raise SchemaError("empty cell", where)


def _encode_z2_tail(tail):
    if tail.kind == "multiply":
        return {"kind": "multiply", "inc": list(tail.ideal)}
    return {"kind": tail.kind}


def _decode_z2_tail(obj, where):
    return _decode_tail(
        obj, lambda inc: Z2MultiplyBy(*_ints(inc, where + ".inc", 2)),
        where, "inc")


def encode_z2(g):
    return {
        "schema": SCHEMA,
        "kind": g.filtration.kind,
        "window": [g.J, g.I],
        "grid": [[_encode_z2_cell(g.grid[j][i]) for i in range(g.I + 1)]
                 for j in range(g.J + 1)],
        "tailJ": _encode_z2_tail(g.tail_j),
        "tailI": _encode_z2_tail(g.tail_i),
    }


def loads_z2(text_or_obj, where="z2-glider"):
    obj = _as_obj(text_or_obj)
    _check_keys(obj, ["schema", "kind", "window", "grid", "tailJ", "tailI"],
                (), where)
    _schema_check(obj, where)
    filt = Z2Filtration(obj["kind"])
    window = tuple(
        _bounded(e, MAX_GRID_WINDOW, "grid end", f"{where}.window[{i}]")
        for i, e in enumerate(_ints(obj["window"], where + ".window", 2)))
    grid = [[_decode_z2_cell(c, f"{where}.grid[{j}][{i}]")
             for i, c in enumerate(_list(row, f"{where}.grid[{j}]"))]
            for j, row in enumerate(_list(obj["grid"], where + ".grid"))]
    return Z2Glider(filt, window, grid,
                    _decode_z2_tail(obj["tailJ"], where + ".tailJ"),
                    _decode_z2_tail(obj["tailI"], where + ".tailI"))


# ---------------------------------------------------------------------------
# extensions, points, samples
# ---------------------------------------------------------------------------

def loads_extension(text_or_obj, where="extension"):
    obj = _as_obj(text_or_obj)
    _check_keys(obj, ["schema", "minpoly", "valuation"], ["base"], where)
    _schema_check(obj, where)
    vobj = obj["valuation"]
    _check_keys(vobj, ["over"], ["kind", "factor", "e", "f"],
                where + ".valuation")
    p = _prime_size(_int_text(vobj["over"], where + ".valuation.over"),
                    where + ".valuation.over")
    if obj["minpoly"] == "t^2-x":
        # the x-adic valuation lies over no rational prime, and the keys
        # of a Gaussian prime do not apply to it
        if p != 0 or "kind" in vobj or "factor" in vobj:
            raise SchemaError('t^2-x takes "over": "0" and no "kind" or '
                              '"factor"', where + ".valuation")
        ext = sqrt_x_extension()
    elif obj["minpoly"] == "t^2+1":
        factor = vobj.get("factor")
        if factor is not None:
            factor = _gauss_prime_text(factor, where + ".valuation.factor")
        ext = gauss_extension(p, vobj.get("kind"), factor)
    else:
        raise SchemaError("supported minimal polynomials: t^2+1, t^2-x",
                          where)
    for key in ("e", "f"):
        declared, got = vobj.get(key), getattr(ext, key)
        if key in vobj and _int(declared, f"{where}.valuation.{key}") != got:
            raise SchemaError(f"declared {key}={declared} but the extension "
                              f"has {key}={got}", where)
    return ext


def _encode_extension(ext):
    """The valuation data of an extension that `loads_extension` reads."""
    val = {"over": str(getattr(ext.v, "p", 0)), "e": ext.e, "f": ext.f}
    if ext.w.kind == "gauss":
        val["kind"] = ext.w.case
        if ext.w.case == "split":
            val["factor"] = str(ext.w.pi)
    return {"schema": SCHEMA, "minpoly": ext.minpoly, "valuation": val}


def loads_points(text_or_obj, where="points"):
    obj = _as_obj(text_or_obj)
    _check_keys(obj, ["schema", "field", "points"], (), where)
    _schema_check(obj, where)
    field = field_from_name(_str(obj["field"], where + ".field"))
    return [BsPoint([field.parse(c)
                     for c in _list(coords, f"{where}.points[{i}]")])
            for i, coords in enumerate(_list(obj["points"],
                                             where + ".points"))]


def loads_sample(text_or_obj, where="sample"):
    """A list of glider chains over one shared filtration."""
    obj = _as_obj(text_or_obj)
    _check_keys(obj, ["schema", "filtration", "elements"],
                ["algebra"], where)
    _schema_check(obj, where)
    filt = loads_filtration(obj["filtration"], where + ".filtration")
    out = []
    for i, el in enumerate(_list(obj["elements"], where + ".elements")):
        inner = dict(_object(el, f"{where}.elements[{i}]"))
        inner.setdefault("schema", SCHEMA)
        inner.setdefault("filtration", obj["filtration"])
        inner.setdefault("ambient", "algebra")
        if "algebra" in obj and "algebra" not in inner:
            inner["algebra"] = obj["algebra"]
        out.append(loads_glider(inner, f"{where}.elements[{i}]"))
    return filt, out


def _encode_sample(value):
    """A sample document, each element a whole glider document."""
    filt, gliders = value
    return {"schema": SCHEMA, "filtration": encode_filtration(filt),
            "elements": [encode_glider(g) for g in gliders]}


def loads_order(text_or_obj, where="order"):
    """An order in an algebra, declared maximal only by a JSON `true`."""
    obj = _as_obj(text_or_obj)
    _check_keys(obj, ["schema", "algebra", "lattice"], ["maximal"], where)
    _schema_check(obj, where)
    maximal = obj.get("maximal", False)
    if type(maximal) is not bool:
        raise SchemaError(f"expected a boolean, got {maximal!r}",
                          where + ".maximal")
    return OrderData(decode_lattice(obj["lattice"], where + ".lattice"),
                     decode_algebra(obj["algebra"], where + ".algebra"),
                     declared_maximal=maximal)


# ---------------------------------------------------------------------------
# verdicts and reports
# ---------------------------------------------------------------------------

def encode_element(el):
    if el is None:
        return None
    out = {"kind": el.kind, "shift": el.shift}
    if el.point is not None:
        out["point"] = [str(c) for c in el.point.coords]
    return out


def encode_verdict(v):
    out = {"verdict": {"irreducible": "irreducible",
                       "reducible": "reducible",
                       "out-of-class": "out-of-class"}[v.status],
           "citation": v.rule}
    if v.status == "irreducible":
        out["element"] = encode_element(v.element)
    if v.status == "reducible":
        out["witness"] = encode_glider(v.witness)
        out["witnessShift"] = v.witness_shift
        out["trivialityLevel"] = v.triviality.level
    if v.status == "out-of-class":
        out["reason"] = v.reason
    if v.via:
        out["via"] = v.via
    return out


def encode_z2_verdict(v):
    out = {"verdict": v.status, "citation": v.rule}
    if v.status == "irreducible":
        out["shift"] = list(v.shift)
    if v.status == "reducible":
        out["cell"] = list(v.cell)
        out["witness"] = encode_z2(v.witness)
    if v.status == "out-of-class":
        out["reason"] = v.reason
    return out


# ---------------------------------------------------------------------------
# detection and round-trip
# ---------------------------------------------------------------------------

def _as_obj(text_or_obj):
    """JSON text decoded; any other value is a node of a decoded document,
    whose type the caller checks."""
    if not isinstance(text_or_obj, str):
        return text_or_obj
    try:
        return json.loads(text_or_obj)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc.msg}",
                          f"line {exc.lineno} column {exc.colno}") from exc
    except ValueError as exc:  # an int of more digits than Python reads
        raise SchemaError(f"invalid JSON: {exc}") from None


def detect_and_load(text):
    """Detect the schema family of a JSON document and decode it."""
    obj = _object(_as_obj(text), "input")
    if "grid" in obj:
        return "z2-glider", loads_z2(obj)
    if "prefix" in obj:
        return "glider", loads_glider(obj)
    if "phi" in obj:
        return "filtration", loads_filtration(obj)
    if "minpoly" in obj:
        return "extension", loads_extension(obj)
    if "points" in obj:
        points = loads_points(obj)
        return "points", (field_from_name(obj["field"]), points)
    if "elements" in obj:
        return "sample", loads_sample(obj)
    if "rows" in obj:
        return "lattice", decode_lattice(obj, require_full=False)
    if "lattice" in obj:
        return "order", loads_order(obj)
    raise SchemaError("unrecognized document shape")


# the encoder of each kind of document that `detect_and_load` returns
_ENCODERS = {
    "z2-glider": encode_z2, "glider": encode_glider,
    "filtration": encode_filtration, "extension": _encode_extension,
    "points": lambda fp: {"schema": SCHEMA, "field": fp[0].name, "points": [
        [str(c) for c in pt.coords] for pt in fp[1]]},
    "sample": _encode_sample, "lattice": encode_lattice,
    "order": lambda o: {"schema": SCHEMA, "algebra": encode_algebra(o.alg),
                        "lattice": encode_lattice(o.lattice),
                        "maximal": o.declared_maximal}}


def roundtrip(text):
    """parse -> print -> parse is a fixed point on the printed form."""
    kind, value = detect_and_load(text)
    encode = _ENCODERS.get(kind)
    if encode is None:
        raise SchemaError(f"no encoder for {kind!r} documents")
    enc = encode(value)
    kind2, value2 = detect_and_load(dumps(enc))
    return kind2 == kind and encode(value2) == enc
