"""The `gbs` command line: JSON in, text or deterministic JSON out.

Exit codes: 0 when the operation succeeded (a query answering "not strong"
still succeeds), 1 for domain errors or failed verification commands,
2 for usage errors.  JSON reports carry the schema tag, the echoed
command, the results, and the ids of the criteria used (see docs/RULES.md);
timing is only attached on request so default output is byte-identical
across runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import acceptance, brandt, jsonio
from .errors import GbsError
from .fields import QQ_FIELD, padic
from .filtration import (associated_strong, estep, is_strong)
from .gbs import (GbsElement, classify_csa_glider, classify_field_glider,
                  enumerate_gbs_csa, enumerate_gbs_field)
from .glider import classify_subglider
from .lattice import BaseRing
from .orders import (builtin_hurwitz2, builtin_mnr, ceil_sum_compare,
                     maxorder_strong_check)
from .rank2 import (classify_z2_glider, residue_glider,
                    vertical_body_glider)
from .tensorext import gbs_map, tensor_filtration


def _degree(text):
    """An int at most `jsonio.MAX_WINDOW` in absolute value."""
    k = int(text)
    if abs(k) > jsonio.MAX_WINDOW:
        raise argparse.ArgumentTypeError(
            f"{k} is past the bound {jsonio.MAX_WINDOW}")
    return k


def _window(text):
    try:
        a, b = text.split(":")
        return _degree(a), _degree(b)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"window must be a:b, got {text!r}")


def _ks(text):
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad exponent list {text!r}")


@functools.cache
def build_parser():
    """Built once per process: the defaults are immutable."""
    p = argparse.ArgumentParser(
        prog="gbs",
        description="exact glider-chain classification over filtered "
                    "fields and algebras")
    p.add_argument("--output", choices=("text", "json"), default="text")
    p.add_argument("--timing", action="store_true",
                   help="attach wall-clock timing to JSON reports")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("field-enum", help="enumerate field elements")
    s.add_argument("--filtration", required=True)
    s.add_argument("--window", type=_window, required=True)

    s = sub.add_parser("csa-enum", help="enumerate algebra elements")
    s.add_argument("--filtration", required=True)
    s.add_argument("--points", required=True)
    s.add_argument("--window", type=_window, required=True)

    s = sub.add_parser("classify", help="classify a glider chain")
    s.add_argument("--glider", required=True)

    s = sub.add_parser("subglider", help="triviality of a subglider")
    s.add_argument("--sub", required=True)
    s.add_argument("--glider", required=True)

    s = sub.add_parser("strong-check", help="is the filtration strong?")
    s.add_argument("--filtration", required=True)

    s = sub.add_parser("estep", help="strong e-step recognition")
    s.add_argument("--filtration", required=True)

    s = sub.add_parser("assoc-strong",
                       help="complete a non-strong filtration")
    s.add_argument("--filtration", required=True)
    s.add_argument("--glider", required=True)

    s = sub.add_parser("maxorder-check",
                       help="divisibility criterion over a maximal order")
    s.add_argument("--order", required=True,
                   help="m2r | hurwitz2 | path to an order file")
    s.add_argument("--k", type=_ks, required=True)

    s = sub.add_parser("ceil-table",
                       help="strict/equal table of the ceiling comparison")
    s.add_argument("--e", type=int, required=True)
    s.add_argument("--window", type=_window, required=True)

    s = sub.add_parser("tensor-map", help="induced map on elements")
    s.add_argument("--ext", required=True)
    s.add_argument("--filtration", required=True)
    s.add_argument("--points", required=True)
    s.add_argument("--shift", type=_degree, default=0)

    s = sub.add_parser("brandt", help="normal glider ideal operations")
    s.add_argument("op", choices=("mul", "inv", "unit", "verify"))
    s.add_argument("--sample", required=True)

    s = sub.add_parser("rank2", help="rank-2 grid operations")
    s.add_argument("op", choices=("classify", "body", "residue"))
    s.add_argument("--glider", required=True)
    s.add_argument("--shift", type=_ks, default=(0,))

    s = sub.add_parser("roundtrip", help="parse/print fixed point check")
    s.add_argument("path")

    s = sub.add_parser("selftest", help="run the acceptance suite")
    s.add_argument("--criteria", type=_ks, default=None)
    return p


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise GbsError(f"cannot read {path}: {exc}") from exc


def _load_order(spec):
    if spec == "m2r":
        return builtin_mnr(2, BaseRing(QQ_FIELD, (padic(5),)))
    if spec == "hurwitz2":
        return builtin_hurwitz2()
    return jsonio.loads_order(_read(spec))


# ---------------------------------------------------------------------------
# command bodies: each returns (results, citations, ok)
# ---------------------------------------------------------------------------

def _cmd_field_enum(args):
    filt = jsonio.loads_filtration(_read(args.filtration))
    els = enumerate_gbs_field(filt, args.window)
    return ([jsonio.encode_element(e) for e in els],
            ["field.dvr-enumeration"], True)


def _cmd_csa_enum(args):
    filt = jsonio.loads_filtration(_read(args.filtration))
    pts = jsonio.loads_points(_read(args.points))
    els = enumerate_gbs_csa(filt, args.window, pts)
    return ([jsonio.encode_element(e) for e in els],
            ["csa.relative-product"], True)


def _cmd_classify(args):
    g = jsonio.loads_glider(_read(args.glider))
    if g.ambient == "field":
        verdict = classify_field_glider(g)
    else:
        verdict = classify_csa_glider(g)
    return jsonio.encode_verdict(verdict), [verdict.rule], True


def _cmd_subglider(args):
    sub = jsonio.loads_glider(_read(args.sub))
    big = jsonio.loads_glider(_read(args.glider))
    verdict = classify_subglider(sub, big)
    out = {"kind": verdict.kind, "level": verdict.level,
           "horizon": verdict.horizon}
    if verdict.alpha is not None:
        out["alpha"] = verdict.alpha
        out["alphaSlope"] = verdict.alpha_slope
    return out, ["glider.triviality"], True


def _cmd_strong_check(args):
    filt = jsonio.loads_filtration(_read(args.filtration))
    return {"strong": is_strong(filt)}, ["field.strong-requires-dvr"], True


def _cmd_estep(args):
    filt = jsonio.loads_filtration(_read(args.filtration))
    e = estep(filt)
    return {"estep": e}, ["field.associated-strong"], True


def _cmd_assoc_strong(args):
    filt = jsonio.loads_filtration(_read(args.filtration))
    g = jsonio.loads_glider(_read(args.glider))
    out = associated_strong(filt, g)
    return (jsonio.encode_filtration(out),
            ["field.associated-strong"], True)


def _cmd_maxorder(args):
    order = _load_order(args.order)
    ok = maxorder_strong_check(order, args.k)
    return ({"strong": ok, "k": list(args.k)},
            ["order.maxorder-divisibility"], True)


def _cmd_ceil_table(args):
    a, b = args.window
    table = []
    for k in range(a, b + 1):
        row = [ceil_sum_compare(args.e, k, l) for l in range(a, b + 1)]
        table.append(row)
    return ({"e": args.e, "window": [a, b], "table": table},
            ["order.ceil-superadditivity"], True)


def _cmd_tensor_map(args):
    ext = jsonio.loads_extension(_read(args.ext))
    filt = jsonio.loads_filtration(_read(args.filtration))
    pts = jsonio.loads_points(_read(args.points))
    tensor_filtration(filt, ext)  # rejects a bad pair, even with no points
    out = []
    for p in pts:
        el = GbsElement("csa", args.shift, point=p, filtration=filt)
        img = gbs_map(el, ext)
        out.append({"source": jsonio.encode_element(el),
                    "image": jsonio.encode_element(img)})
    return out, ["tensor.strong-map"], True


def _cmd_brandt(args):
    filt, gliders = jsonio.loads_sample(_read(args.sample))
    ideals = [brandt.NormalGliderIdeal(g) for g in gliders]
    if args.op == "verify":
        rep = brandt.verify_groupoid(ideals)
        return ({"axioms": rep.axioms},
                ["brandt.groupoid-axioms"], rep.all_pass())
    if args.op == "mul":
        if len(ideals) < 2:
            raise GbsError("mul needs at least two sample elements")
        out = brandt.product(ideals[0], ideals[1])
        return (jsonio.encode_glider(out.glider),
                ["brandt.groupoid-axioms"], True)
    if args.op == "inv":
        out = brandt.inverse(ideals[0])
        return (jsonio.encode_glider(out.glider),
                ["brandt.unit-modulizer"], True)
    out = brandt.unit_left(ideals[0])
    return (jsonio.encode_glider(out.glider),
            ["brandt.unit-modulizer"], True)


def _cmd_rank2(args):
    g = jsonio.loads_z2(_read(args.glider))
    if args.op == "classify":
        verdict = classify_z2_glider(g)
        return (jsonio.encode_z2_verdict(verdict),
                [verdict.rule], True)
    if args.op == "body":
        chain = vertical_body_glider(g).as_glider()
        verdict = classify_field_glider(chain)
        return ({"body": jsonio.encode_glider(chain),
                 "classify": jsonio.encode_verdict(verdict)},
                ["rank2.z2-classification"], True)
    chain = residue_glider(g, args.shift[0])
    verdict = classify_field_glider(chain)
    return ({"residue": jsonio.encode_glider(chain),
             "classify": jsonio.encode_verdict(verdict)},
            ["rank2.z2-classification"], True)


def _cmd_roundtrip(args):
    ok = jsonio.roundtrip(_read(args.path))
    return {"roundtrip": ok}, [], ok


def _cmd_selftest(args):
    selected = set(args.criteria) if args.criteria else None
    results = acceptance.run_all(selected)
    return {"criteria": results}, [], all(r["ok"] for r in results)


_DISPATCH = {
    "field-enum": _cmd_field_enum,
    "csa-enum": _cmd_csa_enum,
    "classify": _cmd_classify,
    "subglider": _cmd_subglider,
    "strong-check": _cmd_strong_check,
    "estep": _cmd_estep,
    "assoc-strong": _cmd_assoc_strong,
    "maxorder-check": _cmd_maxorder,
    "ceil-table": _cmd_ceil_table,
    "tensor-map": _cmd_tensor_map,
    "brandt": _cmd_brandt,
    "rank2": _cmd_rank2,
    "roundtrip": _cmd_roundtrip,
    "selftest": _cmd_selftest,
}


def _render_text(command, results, ok):
    if command == "field-enum" or command == "csa-enum":
        for el in results:
            if el.get("point"):
                print(f"(point {':'.join(el['point'])}, shift {el['shift']})")
            else:
                print(f"(shift {el['shift']})")
        print(f"{len(results)} element(s)")
        return
    if command == "selftest":
        for r in results["criteria"]:
            print(f"criterion {r['id']:2d}: "
                  f"{'PASS' if r['ok'] else 'FAIL'}  {r['detail']}")
        n = sum(1 for r in results["criteria"] if r["ok"])
        print(f"{n}/{len(results['criteria'])} criteria pass")
        return
    if command == "maxorder-check":
        print("strong" if results["strong"] else "not strong")
        return
    if command == "brandt" and "axioms" in results:
        for a in results["axioms"]:
            extra = f"  ({a['detail']})" if a.get("detail") else ""
            print(f"axiom {a['axiom']}: {a['status']}{extra}")
        return
    print(json.dumps(results, sort_keys=True, indent=2))


_VALUE_FLAGS = ("--window", "--k", "--shift", "--e")


def _merge_negative_values(argv):
    """Join flag/value pairs so negative values survive argparse."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None):
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_negative_values(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    t0 = time.monotonic()
    try:
        results, citations, ok = _DISPATCH[args.command](args)
    except GbsError as exc:
        msg = {"schema": jsonio.SCHEMA, "error": str(exc),
               "kind": type(exc).__name__}
        if args.output == "json":
            sys.stdout.write(jsonio.dumps(msg))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.output == "json":
        report = {
            "schema": jsonio.SCHEMA,
            "command": args.command,
            "results": results,
            "citations": citations,
        }
        if args.timing:
            report["timing"] = {"seconds": round(time.monotonic() - t0, 3)}
        sys.stdout.write(jsonio.dumps(report))
    else:
        _render_text(args.command, results, ok)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
