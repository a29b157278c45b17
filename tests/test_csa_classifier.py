"""The csa classifier decides every valid chain by construction: a seeded
corpus over four orders of M_2(Z_(5)), each under the valuation filtration
and under phi(n) = 2n, and the enumeration outcome over each of them."""

import json
import random

import pytest

from gliderbs import cli
from gliderbs.errors import UnsupportedError
from gliderbs.fields import QQ_FIELD, padic
from gliderbs.filtration import (AlgebraFiltration, FieldFiltration,
                                 StepFunction, scaled_valuation_filtration,
                                 valuation_filtration)
from gliderbs.gbs import (BsPoint, classify_csa_glider, enumerate_gbs_csa,
                          realize_csa_element)
from gliderbs.glider import (FiltrationTail, Glider, MultiplyBy, ZeroAfter,
                             classify_subglider, is_glider, shift)
from gliderbs.jsonio import encode_filtration
from gliderbs.lattice import (ZERO_MODULE, FracIdeal, canonicalize,
                              matrix_algebra, mult, span)

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

