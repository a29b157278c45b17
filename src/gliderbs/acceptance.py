"""The acceptance suite: every criterion is a function returning a result
dict, runnable through pytest (tests/test_acceptance.py) or `gbs selftest`.

All checks are exact (tolerance zero); randomized suites draw from
random.Random(GBS_SEED), default seed 0.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction

from . import brandt
from .fields import QQ_FIELD, padic
from .filtration import (AlgebraFiltration, FieldFiltration, StepFunction,
                         is_strong, valuation_filtration)
from .gbs import (BsPoint, classify_csa_glider, classify_field_glider,
                  enumerate_gbs_field, find_negative_part_witness,
                  realize_csa_element)
from .glider import (FiltrationTail, Glider, classify_subglider,
                     is_glider, negative_part, shift)
from .lattice import (BaseRing, FracIdeal, colon_left, intersect,
                      matrix_algebra, mult, quotient_length, span)
from .orders import (builtin_hurwitz2, builtin_mnr, ceil_sum_compare,
                     maxorder_filtration, maxorder_strong_check)
from .rank2 import classify_z2_glider, realize_z2, vertical_body_glider
from .tensorext import gauss_extension, gbs_map, tensor_filtration, \
    tensor_glider


def _seed():
    return int(os.environ.get("GBS_SEED", "0"))


def _pq_filtration():
    return FieldFiltration(
        QQ_FIELD, (padic(2), padic(3)),
        StepFunction((-1, 1), {-1: (-1, -1), 0: (0, 0), 1: (1, 1)},
                     (1, (1, 1)), (1, (1, 1))))


def _m2_filtration():
    f = valuation_filtration(padic(5))
    order = builtin_mnr(2, f.base_ring)
    return AlgebraFiltration(matrix_algebra(2), f, order.lattice,
                             mode="induced")


def criterion_1_field_enumeration():
    """Field enumeration: 7 shifts over the 5-adic window [-3,3], empty
    over the two-prime localization, with the product witness chain."""
    f5 = valuation_filtration(padic(5))
    els = enumerate_gbs_field(f5, (-3, 3))
    ok = len(els) == 7 and [e.shift for e in els] == list(range(-3, 4))
    fpq = _pq_filtration()
    empty = enumerate_gbs_field(fpq, (-3, 3)) == []
    verdict = classify_field_glider(negative_part(fpq))
    witness_ok = False
    if verdict.status == "reducible":
        w = verdict.witness
        # the witness is the chain p * (pq)^n
        witness_ok = all(
            w.level(n).exps == (n + 1, n) for n in range(4))
        witness_ok = witness_ok and classify_subglider(
            w, shift(negative_part(fpq), verdict.witness_shift)
        ).kind == "nontrivial"
    return {
        "id": 1,
        "ok": bool(ok and empty and witness_ok),
        "detail": f"7-window: {len(els)} elements; localization empty: "
                  f"{empty}; witness chain verified: {witness_ok}",
    }


def criterion_2_ceil_lemma():
    """Exhaustive agreement of the strictness characterization with direct
    evaluation, e in [1,12], k,l in [-50,50]."""
    def ceil_div(a, b):
        return -((-a) // b)

    mismatches = 0
    cases = 0
    for e in range(1, 13):
        for k in range(-50, 51):
            for l in range(-50, 51):
                cases += 1
                direct = ("strict"
                          if ceil_div(k, e) + ceil_div(l, e)
                          > ceil_div(k + l, e) else "equal")
                if ceil_sum_compare(e, k, l) != direct:
                    mismatches += 1
    return {"id": 2, "ok": mismatches == 0,
            "detail": f"{cases} cases, {mismatches} mismatches"}


def criterion_3_maxorder():
    """Divisibility criterion against direct strength of the explicit
    chain, for both builtins and k in [0,4]."""
    q = QQ_FIELD
    m2 = builtin_mnr(2, BaseRing(q, (padic(5),)))
    hur = builtin_hurwitz2()
    rows = []
    ok = True
    for order, name in ((m2, "M2(Z_(5))"), (hur, "Hurwitz")):
        for k in range(5):
            crit = maxorder_strong_check(order, (k,))
            strong = is_strong(maxorder_filtration(order, (k,)))
            rows.append((name, k, crit, strong))
            if crit != strong:
                ok = False
    hur_vals = {k: v for (nm, k, v, _) in rows if nm == "Hurwitz"}
    ok = ok and hur_vals[1] is False and hur_vals[2] is True
    return {"id": 3, "ok": ok,
            "detail": "; ".join(f"{nm} k={k}: {c}" for nm, k, c, _ in rows)}


def criterion_4_relative_product():
    """25 (point, shift) pairs over M_2(Z_(5)): classifier round-trip and
    the scalar-line identity M_i meet K v = F_{m-i}K v."""
    fa = _m2_filtration()
    q = QQ_FIELD
    fe = q.from_int
    pts = [BsPoint([fe(1), fe(0)]), BsPoint([fe(0), fe(1)]),
           BsPoint([fe(1), fe(1)]), BsPoint([fe(1), fe(2)]),
           BsPoint([fe(2), fe(3)])]
    good = 0
    total = 0
    for p in pts:
        vvec = [q.zero()] * 4
        for j, c in enumerate(p.coords):
            vvec[j] = c
        for m in range(-2, 3):
            total += 1
            chain = realize_csa_element(fa, p, m)
            verdict = classify_csa_glider(chain)
            if verdict.status != "irreducible" \
                    or verdict.element.shift != m \
                    or verdict.element.point != p:
                continue
            # M_i meet K*v as an ideal along the scalar line through v
            line_ok = True
            for i in range(4):
                cs = chain.level(i).coords(vvec)
                exp = max(-fa.base.valuations[0](c) for c in cs if c)
                if (exp,) != tuple(-t for t in fa.base.phi(m - i)):
                    line_ok = False
                    break
            if line_ok:
                good += 1
    return {"id": 4, "ok": good == total == 25,
            "detail": f"{good}/{total} exact"}


def criterion_5_negative_part():
    """Column witnesses for M_2 and M_3, irreducibility for n = 1."""
    fa2 = _m2_filtration()
    neg2 = Glider(fa2, "algebra", [fa2.level(0)], FiltrationTail(),
                  alg=fa2.alg)
    w2, _ = find_negative_part_witness(fa2)
    ok2 = classify_subglider(w2, neg2).kind == "nontrivial"

    f2 = valuation_filtration(padic(2))
    order3 = builtin_mnr(3, f2.base_ring)
    fa3 = AlgebraFiltration(matrix_algebra(3), f2, order3.lattice,
                            mode="induced")
    neg3 = Glider(fa3, "algebra", [fa3.level(0)], FiltrationTail(),
                  alg=fa3.alg)
    w3, _ = find_negative_part_witness(fa3)
    ok3 = classify_subglider(w3, neg3).kind == "nontrivial"

    f5 = valuation_filtration(padic(5))
    v1 = classify_field_glider(negative_part(f5))
    ok1 = v1.status == "irreducible" and v1.element.shift == 0
    return {"id": 5, "ok": ok2 and ok3 and ok1,
            "detail": f"M2 witness: {ok2}; M3 witness: {ok3}; "
                      f"n=1 irreducible: {ok1}"}


def _shift_sample():
    f = valuation_filtration(padic(5))
    order = builtin_mnr(2, f.base_ring).lattice
    alg = matrix_algebra(2)
    q = QQ_FIELD
    out = []
    for k in range(-2, 3):
        x = q.from_int(5) ** k if k >= 0 else q.parse("1/5") ** (-k)
        out.append(brandt.NormalGliderIdeal(
            Glider(f, "algebra", [order.scale(x)], FiltrationTail(),
                   alg=alg)))
    return out


def _conjugate_sample():
    f = valuation_filtration(padic(5))
    order = builtin_mnr(2, f.base_ring).lattice
    alg = matrix_algebra(2)
    q = QQ_FIELD
    fe = q.from_int
    base = brandt.NormalGliderIdeal(
        Glider(f, "algebra", [order], FiltrationTail(), alg=alg))

    def vec(*a):
        return tuple(fe(x) for x in a)

    pairs = [
        (vec(1, 0, 0, 1), vec(1, 0, 0, 1)),
        (vec(5, 0, 0, 1), vec(1, 0, 0, 1)),
        (vec(1, 1, 0, 1), vec(5, 0, 0, 1)),
        (vec(5, 1, 0, 1), vec(1, 0, 1, 1)),
    ]
    return [brandt.two_sided_translate(base, g, h) for g, h in pairs]


def criterion_6_groupoid():
    """Groupoid axioms on both samples; the unit equals the modulizer
    chain; double inverse is the identity."""
    shift_sample = _shift_sample()
    rep_a = brandt.verify_groupoid(shift_sample)
    conj = _conjugate_sample()
    rep_b = brandt.verify_groupoid(conj)
    units_ok = all(brandt.unit_left(m) == brandt.modulizer_chain(m)
                   for m in shift_sample + conj)
    dbl_ok = all(brandt.inverse(brandt.inverse(m)) == m
                 for m in shift_sample + conj)
    tri = next(a["detail"] for a in rep_b.axioms if a["axiom"] == 3)
    return {"id": 6,
            "ok": rep_a.all_pass() and rep_b.all_pass() and units_ok
            and dbl_ok,
            "detail": f"shift sample: {rep_a!r}; conjugate sample: "
                      f"{rep_b!r} ({tri}); modulizer: {units_ok}; "
                      f"double inverse: {dbl_ok}"}


def criterion_7_strong_unit():
    """(M M^-1)_i = F_{-i}A for i in [0,6] over M_2(Z_(5))."""
    fa = _m2_filtration()
    f = fa.base
    order = fa.order
    m = brandt.NormalGliderIdeal(
        Glider(f, "algebra", [order], FiltrationTail(), alg=fa.alg))
    unit = brandt.product(m, brandt.inverse(m))
    ok = all(unit.level(i) == fa.level(-i) for i in range(7))
    return {"id": 7, "ok": ok, "detail": "unit chain equals the negative "
                                         "filtration on [0,6]: " + str(ok)}


def criterion_8_tensor():
    """The induced map preserves classification and shift for 3 points
    over the split extension; 20 randomized chains tensor to gliders."""
    fa = _m2_filtration()
    ext = gauss_extension(5, "split", "2+i")
    q = QQ_FIELD
    fe = q.from_int
    pts = [BsPoint([fe(1), fe(0)]), BsPoint([fe(1), fe(1)]),
           BsPoint([fe(2), fe(1)])]
    map_ok = 0
    for i, p in enumerate(pts):
        el = classify_csa_glider(realize_csa_element(fa, p, i - 1)).element
        img = gbs_map(el, ext)
        if img.shift == el.shift and img.point == BsPoint(
                [ext.embed(c) for c in p.coords]):
            map_ok += 1
    rnd = random.Random(_seed())
    tf = tensor_filtration(fa, ext)
    glider_ok = 0
    for _ in range(20):
        chain = _random_csa_glider(fa, rnd)
        tg = tensor_glider(chain, ext, tf=tf)
        if is_glider(tg)[0]:
            glider_ok += 1
    return {"id": 8, "ok": map_ok == 3 and glider_ok == 20,
            "detail": f"map round-trips: {map_ok}/3; tensored gliders "
                      f"valid: {glider_ok}/20"}


def _random_csa_glider(fa, rnd):
    q = QQ_FIELD
    fe = q.from_int
    alg = fa.alg
    ring = fa.base_ring
    while True:
        vecs = [[fe(rnd.randint(-4, 4)) for _ in range(4)]
                for _ in range(2)]
        gens = []
        for v in vecs:
            for row in fa.order.rows:
                gens.append(alg.mul_coords(row, v, q))
        x = span(ring, 4, gens)
        if x.rank == 4:
            break
    pi = fe(5)
    start = rnd.randint(-2, 2)
    exps = [start]
    for _ in range(rnd.randint(1, 3)):
        exps.append(exps[-1] + rnd.randint(1, 2))
    prefix = [x.scale(pi ** e if e >= 0 else q.parse("1/5") ** (-e))
              for e in exps]
    return Glider(fa, "algebra", prefix, FiltrationTail(), alg=alg)


def criterion_9_rank2():
    """Realization/classification round-trip on [-2,2]^2 and the body
    chain shift identity."""
    trips = 0
    bodies = 0
    for m in range(-2, 3):
        for n in range(-2, 3):
            g = realize_z2((m, n))
            v = classify_z2_glider(g)
            if v.status == "irreducible" and v.shift == (m, n):
                trips += 1
            bg = vertical_body_glider(g).as_glider()
            bv = classify_field_glider(bg)
            if bv.status == "irreducible" and bv.element.shift == m:
                bodies += 1
    return {"id": 9, "ok": trips == 25 and bodies == 25,
            "detail": f"round trips {trips}/25; body shifts {bodies}/25"}


def _random_lattice(ring, rnd, dim=4):
    # entries are built once, as the kernel's own scalars
    k = ring.scalars
    while True:
        rows = []
        for _ in range(dim):
            row = []
            for _ in range(dim):
                num = rnd.randint(-9, 9)
                den = rnd.choice([1, 1, 1, 2, 3, 5, 25])
                row.append(k.from_fraction(Fraction(num, den)))
            rows.append(row)
        lat = span(ring, dim, rows)
        if lat.rank == dim:
            return lat


def criterion_10_engine():
    """Randomized engine suites, 500 cases each, plus 100 self-trivial
    subglider classifications."""
    rnd = random.Random(_seed())
    ring = BaseRing(QQ_FIELD, (padic(5),))
    alg = matrix_algebra(2)
    q = QQ_FIELD
    n_cases = 500

    fails = {"assoc": 0, "colon": 0, "length": 0, "canon": 0, "self": 0}

    for _ in range(n_cases):
        x = _random_lattice(ring, rnd)
        y = _random_lattice(ring, rnd)
        z = _random_lattice(ring, rnd)
        if mult(mult(x, y, alg), z, alg) != mult(x, mult(y, z, alg), alg):
            fails["assoc"] += 1

    fifth = q.parse("1/5")
    for _ in range(n_cases):
        x = _random_lattice(ring, rnd)
        y = _random_lattice(ring, rnd)
        c = colon_left(x, y, alg)
        if not x.contains(mult(c, y, alg)):
            fails["colon"] += 1
            continue
        # maximality probing: growing any basis direction breaks it
        for row in c.rows:
            bigger = span(ring, 4, list(c.rows)
                          + [[fifth * e for e in row]])
            if x.contains(mult(bigger, y, alg)):
                fails["colon"] += 1
                break

    for _ in range(n_cases):
        x = _random_lattice(ring, rnd)
        y = intersect(x, _random_lattice(ring, rnd))
        z = intersect(y, _random_lattice(ring, rnd))
        if quotient_length(x, z) != quotient_length(x, y) + \
                quotient_length(y, z):
            fails["length"] += 1

    for _ in range(n_cases):
        x = _random_lattice(ring, rnd)
        rows = list(x.rows)
        rnd.shuffle(rows)
        again = span(ring, 4, rows)
        if again != x or span(ring, 4, list(again.rows)) != again:
            fails["canon"] += 1

    f5 = valuation_filtration(padic(5))
    for _ in range(100):
        n0 = rnd.randint(-3, 3)
        depth = rnd.randint(1, 4)
        prefix = [FracIdeal(f5.base_ring, (n0 + i,)) for i in range(depth)]
        g = Glider(f5, "field", prefix, FiltrationTail())
        verdict = classify_subglider(g, g)
        if verdict.kind != "T3" or verdict.alpha[:4] != [0, 1, 2, 3]:
            fails["self"] += 1

    ok = all(v == 0 for v in fails.values())
    return {"id": 10, "ok": ok,
            "detail": ", ".join(f"{k}: {v} failures"
                                for k, v in fails.items())}


CRITERIA = [
    criterion_1_field_enumeration,
    criterion_2_ceil_lemma,
    criterion_3_maxorder,
    criterion_4_relative_product,
    criterion_5_negative_part,
    criterion_6_groupoid,
    criterion_7_strong_unit,
    criterion_8_tensor,
    criterion_9_rank2,
    criterion_10_engine,
]


def run_all(selected=None):
    """Run the criteria whose ids are in `selected` (all when None);
    CRITERIA[i - 1] is criterion i."""
    return [fn() for i, fn in enumerate(CRITERIA, 1)
            if selected is None or i in selected]
