"""JSON encoding/decoding for every external value, schema "gbs/1".

Unknown keys are rejected, canonical values round-trip bit-exactly
(parse of a printed value re-prints identically), and dumps are
deterministic (sorted keys, fixed separators).
"""

from __future__ import annotations

import json

from .errors import SchemaError
from .fields import field_from_name, gauss_prime, padic, poly_prime, \
    composite2, xadic, yadic
from .filtration import AlgebraFiltration, FieldFiltration, StepFunction
from .gbs import BsPoint
from .glider import TAIL_KINDS, Glider, MultiplyBy, Tail
from .lattice import (BaseRing, FracIdeal, ZERO_MODULE, canonicalize,
                      matrix_algebra, quaternion_algebra, span)
from .rank2 import (Z2Filtration, Z2Glider, Z2Ideal, Z2MultiplyBy)
from .tensorext import gauss_extension, sqrt_x_extension

SCHEMA = "gbs/1"

__all__ = [
    "SCHEMA", "dumps", "loads_filtration", "loads_glider", "loads_z2",
    "loads_extension", "loads_points", "loads_sample",
    "encode_filtration", "encode_glider", "encode_z2", "encode_lattice",
    "encode_verdict", "encode_z2_verdict", "roundtrip", "detect_and_load",
]


def dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _check_keys(obj, required, optional=(), where="object"):
    if not isinstance(obj, dict):
        raise SchemaError(f"expected an object, got {type(obj).__name__}",
                          where)
    missing = [k for k in required if k not in obj]
    if missing:
        raise SchemaError(f"missing keys {missing}", where)
    unknown = [k for k in obj if k not in required and k not in optional]
    if unknown:
        raise SchemaError(f"unknown keys {unknown}", where)


def _schema_check(obj, where):
    if obj.get("schema") != SCHEMA:
        raise SchemaError(f"schema must be {SCHEMA!r}", where)


# ---------------------------------------------------------------------------
# valuations and base data
# ---------------------------------------------------------------------------

def encode_valuation(v):
    if v.kind == "padic":
        return {"kind": "padic", "p": v.p}
    if v.kind == "gauss":
        return {"kind": "gauss", "pi": str(v.pi)}
    if v.kind == "xadic":
        return {"kind": "xadic"}
    if v.kind == "yadic":
        return {"kind": "yadic"}
    if v.kind == "polyprime":
        return {"kind": "polyprime", "g": str(v.g)}
    if v.kind == "composite2":
        return {"kind": "composite2"}
    raise SchemaError(f"unknown valuation kind {v.kind}")  # pragma: no cover


def decode_valuation(obj, field, where="valuation"):
    _check_keys(obj, ["kind"], ["p", "pi", "g"], where)
    kind = obj["kind"]
    if kind == "padic":
        return padic(int(obj["p"]))
    if kind == "gauss":
        return gauss_prime(obj["pi"])
    if kind == "xadic":
        return xadic(field)
    if kind == "yadic":
        return yadic(field)
    if kind == "polyprime":
        return poly_prime(obj["g"], field)
    if kind == "composite2":
        return composite2()
    raise SchemaError(f"unknown valuation kind {kind!r}", where)


def encode_phi(phi):
    return phi.as_dict()


def decode_phi(obj, order="componentwise", where="phi"):
    _check_keys(obj, ["window", "table", "tailPlus", "tailMinus"], (), where)
    _check_keys(obj["tailPlus"], ["period", "inc"], (), where + ".tailPlus")
    _check_keys(obj["tailMinus"], ["period", "inc"], (), where + ".tailMinus")
    table = {int(k): tuple(v) for k, v in obj["table"].items()}
    return StepFunction(tuple(obj["window"]), table,
                        (obj["tailPlus"]["period"],
                         tuple(obj["tailPlus"]["inc"])),
                        (obj["tailMinus"]["period"],
                         tuple(obj["tailMinus"]["inc"])),
                        order=order)


def encode_algebra(alg):
    if alg.kind == "matrix":
        return {"kind": "matrix", "n": alg.n}
    return {"kind": "quaternion", "a": str(alg.a), "b": str(alg.b)}


def decode_algebra(obj, where="algebra"):
    _check_keys(obj, ["kind"], ["n", "a", "b"], where)
    if obj["kind"] == "matrix":
        return matrix_algebra(int(obj["n"]))
    if obj["kind"] == "quaternion":
        from fractions import Fraction
        return quaternion_algebra(Fraction(obj["a"]), Fraction(obj["b"]))
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
        field = field_from_name(bobj["field"])
        vals = [decode_valuation(v, field, where + ".base")
                for v in bobj["valuations"]]
        base = BaseRing(field, vals)
    rows = [[base.field.parse(s) for s in row] for row in obj["rows"]]
    if require_full:
        return canonicalize(base, int(obj["dim"]), rows)
    return span(base, int(obj["dim"]), rows)


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
    field = field_from_name(obj["field"])
    vals = [decode_valuation(v, field, where) for v in obj["valuations"]]
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
    lo, hi = aobj["window"]
    levels = [decode_lattice(l, where + ".algebra.levels",
                             base=base.base_ring)
              for l in aobj["levels"]]
    plus = (aobj["tailPlus"]["period"],
            FracIdeal(base.base_ring, tuple(aobj["tailPlus"]["inc"])))
    minus = (aobj["tailMinus"]["period"],
             FracIdeal(base.base_ring, tuple(aobj["tailMinus"]["inc"])))
    return AlgebraFiltration(alg, base, order_lat, mode="explicit",
                             window=(lo, hi), levels=levels,
                             plus=plus, minus=minus)


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
        return FracIdeal(base, tuple(obj["exps"]))
    _check_keys(obj, ["rows"], (), where)
    rows = [[base.field.parse(s) for s in row] for row in obj["rows"]]
    return span(base, dim, rows)


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
    filt = loads_filtration(obj["filtration"], where + ".filtration")
    base = filt.base_ring if isinstance(filt, FieldFiltration) \
        else filt.base_ring
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
    prefix = [_decode_level(l, base, dim, ambient, where + ".prefix")
              for l in obj["prefix"]]
    tail = _decode_tail(obj["tail"],
                        lambda e: MultiplyBy(FracIdeal(base, tuple(e))),
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
        return Z2Ideal.point(*obj["point"])
    if "horizontal" in obj:
        return Z2Ideal.horizontal(obj["horizontal"])
    raise SchemaError("empty cell", where)


def _encode_z2_tail(tail):
    if tail.kind == "multiply":
        return {"kind": "multiply", "inc": list(tail.ideal)}
    return {"kind": tail.kind}


def _decode_z2_tail(obj, where):
    return _decode_tail(obj, lambda inc: Z2MultiplyBy(*inc), where, "inc")


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
    grid = [[_decode_z2_cell(c, where + ".grid") for c in row]
            for row in obj["grid"]]
    return Z2Glider(filt, tuple(obj["window"]), grid,
                    _decode_z2_tail(obj["tailJ"], where + ".tailJ"),
                    _decode_z2_tail(obj["tailI"], where + ".tailI"))


# ---------------------------------------------------------------------------
# extensions, points, samples
# ---------------------------------------------------------------------------

def loads_extension(text_or_obj, where="extension"):
    obj = _as_obj(text_or_obj)
    _check_keys(obj, ["schema", "minpoly", "valuation"], ["base"], where)
    _schema_check(obj, where)
    if obj["minpoly"] == "t^2-x":
        return sqrt_x_extension()
    if obj["minpoly"] != "t^2+1":
        raise SchemaError("supported minimal polynomials: t^2+1, t^2-x",
                          where)
    vobj = obj["valuation"]
    _check_keys(vobj, ["over"], ["kind", "factor", "e", "f"],
                where + ".valuation")
    p = int(vobj["over"])
    ext = gauss_extension(p, vobj.get("kind"), vobj.get("factor"))
    if "e" in vobj and int(vobj["e"]) != ext.e:
        raise SchemaError(f"declared e={vobj['e']} but the extension has "
                          f"e={ext.e}", where)
    if "f" in vobj and int(vobj["f"]) != ext.f:
        raise SchemaError(f"declared f={vobj['f']} but the extension has "
                          f"f={ext.f}", where)
    return ext


def loads_points(text_or_obj, where="points"):
    obj = _as_obj(text_or_obj)
    _check_keys(obj, ["schema", "field", "points"], (), where)
    _schema_check(obj, where)
    field = field_from_name(obj["field"])
    return [BsPoint([field.parse(c) for c in coords])
            for coords in obj["points"]]


def loads_sample(text_or_obj, where="sample"):
    """A list of glider chains over one shared filtration."""
    obj = _as_obj(text_or_obj)
    _check_keys(obj, ["schema", "filtration", "elements"],
                ["algebra"], where)
    _schema_check(obj, where)
    filt = loads_filtration(obj["filtration"], where + ".filtration")
    out = []
    for i, el in enumerate(obj["elements"]):
        inner = dict(el)
        inner.setdefault("schema", SCHEMA)
        inner.setdefault("filtration", obj["filtration"])
        inner.setdefault("ambient", "algebra")
        if "algebra" in obj and "algebra" not in inner:
            inner["algebra"] = obj["algebra"]
        out.append(loads_glider(inner, f"{where}.elements[{i}]"))
    return filt, out


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

def _as_obj(text_or_obj, where="input"):
    if isinstance(text_or_obj, (dict, list)):
        return text_or_obj
    try:
        return json.loads(text_or_obj)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc.msg}",
                          f"line {exc.lineno} column {exc.colno}") from exc


def detect_and_load(text):
    """Detect the schema family of a JSON document and decode it."""
    obj = _as_obj(text)
    if "grid" in obj:
        return "z2-glider", loads_z2(obj)
    if "prefix" in obj:
        return "glider", loads_glider(obj)
    if "phi" in obj:
        return "filtration", loads_filtration(obj)
    if "minpoly" in obj:
        return "extension", loads_extension(obj)
    if "points" in obj:
        return "points", loads_points(obj)
    if "elements" in obj:
        return "sample", loads_sample(obj)
    if "rows" in obj:
        return "lattice", decode_lattice(obj, require_full=False)
    raise SchemaError("unrecognized document shape")


def _reencode(kind, value):
    if kind == "z2-glider":
        return encode_z2(value)
    if kind == "glider":
        return encode_glider(value)
    if kind == "filtration":
        return encode_filtration(value)
    if kind == "lattice":
        return encode_lattice(value)
    return None


def roundtrip(text):
    """parse -> print -> parse is a fixed point on the printed form."""
    kind, value = detect_and_load(text)
    enc = _reencode(kind, value)
    if enc is None:
        return True
    kind2, value2 = detect_and_load(dumps(enc))
    enc2 = _reencode(kind2, value2)
    return enc == enc2
