"""The csa classifier decides every valid chain by construction: a seeded
corpus over four orders of M_2(Z_(5)), each under the valuation filtration
and under phi(n) = 2n, and the enumeration outcome over each of them and
over places of F_p(x) with residue field F_q, q = p^k, k >= 2."""

import json
import random

import pytest

from gliderbs import cli
from gliderbs.errors import UnsupportedError
from gliderbs.fields import QQ_FIELD, fp_func_field, padic, poly_prime
from gliderbs.filtration import (AlgebraFiltration, FieldFiltration,
                                 StepFunction, scaled_valuation_filtration,
                                 valuation_filtration)
from gliderbs.gbs import (BsPoint, classify_csa_glider, enumerate_gbs_csa,
                          realize_csa_element)
from gliderbs.glider import (FiltrationTail, Glider, MultiplyBy, ZeroAfter,
                             classify_subglider, is_glider, shift)
from gliderbs.jsonio import encode_filtration
from gliderbs.lattice import (ZERO_MODULE, FracIdeal, canonicalize,
                              is_simple_quotient, matrix_algebra, mult, span)

fe = QQ_FIELD.from_int
M2 = matrix_algebra(2)


def _unit(i, c=1):
    return [fe(c * int(i == j)) for j in range(4)]


def orders(ring):
    """Name -> order of M_2(Q) over the ring, coordinates (a, b, c, d) of
    [[a, b], [c, d]]."""
    rows = {
        "maximal": [_unit(i) for i in range(4)],
        # diag(1, 5) M_2(Z_(5)) diag(1, 5)^-1 = [[a, b/5], [5c, d]]
        "conjugate": [_unit(0), [fe(0), QQ_FIELD.parse("1/5"), fe(0),
                                 fe(0)], _unit(2, 5), _unit(3)],
        # the Eichler order [[a, b], [5c, d]] of level 5
        "eichler": [_unit(0), _unit(1), _unit(2, 5), _unit(3)],
        "z5+5m2": [[fe(1), fe(0), fe(0), fe(1)], _unit(1, 5), _unit(2, 5),
                   _unit(3, 5)],
    }
    return {name: canonicalize(ring, 4, r) for name, r in rows.items()}


def filtrations():
    """Name -> induced filtration: each order under the 5-adic valuation
    filtration ("dvr") and under phi(n) = 2n ("c2")."""
    out = {}
    for base_name, base in (
            ("dvr", valuation_filtration(padic(5))),
            ("c2", scaled_valuation_filtration(padic(5), 2))):
        for name, order in orders(base.base_ring).items():
            out[f"{name}/{base_name}"] = AlgebraFiltration(
                M2, base, order, mode="induced")
    return out


def _random_point(rnd):
    coords = [fe(rnd.randint(-3, 3)) for _ in range(2)]
    return BsPoint(coords) if any(coords) else _random_point(rnd)


def _module(fa, vecs):
    return mult(fa.order, span(fa.base_ring, 4, vecs), M2)


def _random_chain(fa, rnd):
    """The column chain of a random point and shift, or levels
    X_{k+1} = B y + pi^(c(d+1)) X_k for y in pi^(cd) X_k, d = 1 or 2, from
    X_0 = B x for a rank-1 matrix x or one or two random matrices, under a
    random tail."""
    pi = fe(5)
    c = fa.base.phi(1)[0]
    if rnd.random() < 0.3:
        s = rnd.randint(-2, 2)
        return realize_csa_element(fa, _random_point(rnd), s)
    if rnd.random() < 0.5:
        # a rank-1 matrix w f^T: the top level lies in one minimal left ideal
        f = _random_point(rnd).coords
        w = [fe(rnd.randint(-4, 4)) for _ in range(2)]
        x = _module(fa, [[a * b for a in w for b in f]])
    else:
        x = _module(fa, [[fe(rnd.randint(-4, 4)) for _ in range(4)]
                         for _ in range(rnd.choice((1, 1, 2)))])
    if x is ZERO_MODULE:
        return _random_chain(fa, rnd)
    prefix = [x.scale(pi ** rnd.randint(-2, 1))]
    for _ in range(rnd.randint(0, 2)):
        d = rnd.choice((1, 1, 2))
        top = prefix[-1]
        coeffs = [fe(rnd.randint(-2, 2)) * pi ** (c * d) for _ in top.rows]
        y = [sum((a * row[j] for a, row in zip(coeffs, top.rows)), fe(0))
             for j in range(4)]
        prefix.append(_module(fa, [y] + list(top.scale(
            pi ** (c * (d + 1))).rows)))
    tail = rnd.choice((FiltrationTail(), FiltrationTail(), ZeroAfter(),
                       MultiplyBy(FracIdeal(fa.base_ring,
                                            (rnd.randint(c, 3),)))))
    return Glider(fa, "algebra", prefix, tail, alg=M2)


def corpus(seed, per_filtration):
    """(name, chain) for the first `per_filtration` valid nonzero chains
    drawn over each filtration from the seed."""
    rnd = random.Random(seed)
    out = []
    for name, fa in filtrations().items():
        found = 0
        while found < per_filtration:
            m = _random_chain(fa, rnd)
            if is_glider(m)[0]:
                out.append((name, m))
                found += 1
    return out


def test_every_valid_chain_gets_a_verified_verdict():
    seen = {}
    for name, m in corpus(0, 25):
        v = classify_csa_glider(m)
        seen.setdefault(name, set()).add(v.status)
        if v.status == "irreducible":
            assert name in ("maximal/dvr", "conjugate/dvr")
            assert realize_csa_element(m.filtration, v.element.point,
                                       v.element.shift) == m
        else:
            assert v.status == "reducible"
            assert classify_subglider(
                v.witness, shift(m, v.witness_shift)).kind == "nontrivial"
    assert len(seen) == 8 and all("reducible" in s for s in seen.values())
    assert "irreducible" in seen["maximal/dvr"]
    assert "irreducible" in seen["conjugate/dvr"]


@pytest.mark.parametrize("name", sorted(filtrations()))
def test_a_column_chain_takes_one_simplicity_test(name, monkeypatch):
    """The point and the shift come off the top level, so a column chain,
    irreducible or not, is decided by its first quotient alone."""
    import gliderbs.gbs as gbs

    fa = filtrations()[name]
    calls = []

    def counted(*args):
        calls.append(args)
        return is_simple_quotient(*args)

    monkeypatch.setattr(gbs, "is_simple_quotient", counted)
    for point in _points():
        for s in (-1, 0, 2):
            del calls[:]
            v = classify_csa_glider(realize_csa_element(fa, point, s))
            assert len(calls) == 1, (name, point, s)
            assert (v.status == "irreducible") == (
                name in ("maximal/dvr", "conjugate/dvr"))
            if v.status == "reducible":
                assert v.witness_shift == 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_quotient_witness_sits_at_the_first_quotient_not_simple(seed):
    """Against a scan of every level quotient on the horizon: a witness
    from a level quotient is placed at the first one that is not
    simple."""
    from_quotients = 0
    for name, m in corpus(seed, 25):
        v = classify_csa_glider(m)
        if v.status != "reducible" or v.rule == "csa.principal":
            continue
        fa = m.filtration
        first = next(i for i in range(m.horizon + 1) if not
                     is_simple_quotient(m.level(i), m.level(i + 1),
                                        fa.order, M2))
        assert v.witness_shift == first, name
        from_quotients += 1
    assert from_quotients >= 20


def _points():
    return [BsPoint([fe(1), fe(0)]), BsPoint([fe(0), fe(1)]),
            BsPoint([fe(1), fe(2)])]


@pytest.mark.parametrize("name", sorted(filtrations()))
def test_enumeration_is_the_product_set_or_empty(name):
    fa = filtrations()[name]
    els = enumerate_gbs_csa(fa, (-1, 1), _points())
    if name in ("maximal/dvr", "conjugate/dvr"):
        assert [(e.point, e.shift) for e in els] == [
            (p, s) for p in sorted(_points(), key=BsPoint.sort_key)
            for s in (-1, 0, 1)]
    else:
        # the column module's level quotient is not simple, so no column
        # chain is irreducible, and only column chains can be
        assert els == []
        m = realize_csa_element(fa, _points()[2], 0)
        assert classify_csa_glider(m).status == "reducible"


def test_enumeration_over_the_eichler_order_through_the_cli(tmp_path,
                                                             capsys):
    fa = filtrations()["eichler/dvr"]
    (tmp_path / "fa.json").write_text(json.dumps(encode_filtration(fa)))
    (tmp_path / "p.json").write_text(json.dumps(
        {"schema": "gbs/1", "field": "Q",
         "points": [["1", "0"], ["1", "2"]]}))
    assert cli.main(["--output", "json", "csa-enum", "--filtration",
                     str(tmp_path / "fa.json"), "--points",
                     str(tmp_path / "p.json"), "--window", "0:1"]) == 0
    assert json.loads(capsys.readouterr().out)["results"] == []


def test_out_of_class_bases_still_raise():
    f23 = FieldFiltration(
        QQ_FIELD, (padic(2), padic(3)),
        StepFunction((-1, 1), {-1: (-1, -1), 0: (0, 0), 1: (1, 1)},
                     (1, (1, 1)), (1, (1, 1))))
    fa = AlgebraFiltration(M2, f23, orders(f23.base_ring)["maximal"],
                           mode="induced")
    with pytest.raises(UnsupportedError,
                       match="base must be a single discrete valuation"):
        enumerate_gbs_csa(fa, (0, 1), _points())
    assert classify_csa_glider(realize_csa_element(
        fa, _points()[0], 0)).reason == \
        "base must be a single discrete valuation"


# places of F_p(x) of degree >= 2, whose residue field is F_q, q = p^deg g
FQ_PLACES = [(3, "x^2+1"), (3, "x^3+2*x+1"), (5, "x^2+2")]


def _fq_filtrations(p, g):
    """The maximal order of M_2 and the Eichler order [[a, b], [g c, d]]
    over F_p(x) at g, each under the valuation filtration."""
    field = fp_func_field(p)
    v = poly_prime(g, field)
    base = valuation_filtration(v)
    pi, one, zero = v.uniformizer(), field.one(), field.zero()

    def unit(i, c=one):
        return [c if i == j else zero for j in range(4)]

    rows = {"maximal": [unit(i) for i in range(4)],
            "eichler": [unit(0), unit(1), unit(2, pi), unit(3)]}
    return {name: AlgebraFiltration(
        M2, base, canonicalize(base.base_ring, 4, r), mode="induced")
        for name, r in rows.items()}


def _fq_points(field):
    one, zero = field.one(), field.zero()
    return [BsPoint([one, zero]), BsPoint([zero, one]),
            BsPoint([one, field.gen("x")])]


@pytest.mark.parametrize("p, g", FQ_PLACES)
def test_enumeration_over_a_place_of_higher_degree(p, g):
    """Over F_p(x) at g the level quotient is a vector space over
    F_p[x]/(g): the maximal order gives every (point, shift) of the window,
    each one round-tripped by the classifier, and the Eichler order
    none."""
    fas = _fq_filtrations(p, g)
    points = _fq_points(fp_func_field(p))
    els = enumerate_gbs_csa(fas["maximal"], (-1, 1), points)
    assert len(els) == len(points) * 3
    for el in els:
        verdict = classify_csa_glider(
            realize_csa_element(fas["maximal"], el.point, el.shift))
        assert verdict.status == "irreducible"
        assert (verdict.element.point, verdict.element.shift) == \
            (el.point, el.shift)
    assert enumerate_gbs_csa(fas["eichler"], (-1, 1), points) == []


def test_enumeration_over_f25_through_the_cli(tmp_path, capsys):
    fa = _fq_filtrations(5, "x^2+2")["maximal"]
    (tmp_path / "fa.json").write_text(json.dumps(encode_filtration(fa)))
    (tmp_path / "p.json").write_text(json.dumps(
        {"schema": "gbs/1", "field": "F5(x)",
         "points": [["1", "0"], ["1", "x"]]}))
    assert cli.main(["--output", "json", "csa-enum", "--filtration",
                     str(tmp_path / "fa.json"), "--points",
                     str(tmp_path / "p.json"), "--window", "0:1"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert [(el["point"], el["shift"]) for el in results] == [
        (["1", "0"], 0), (["1", "0"], 1), (["1", "x"], 0), (["1", "x"], 1)]
