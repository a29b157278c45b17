"""The field classifier decides every valid glider by construction: a
seeded corpus over eight filtrations, one of each way `classify_field_glider`
can go, and the inputs that used to escape it."""

import json
import random

import pytest

from gliderbs import cli
from gliderbs.fields import QQ_FIELD, padic
from gliderbs.filtration import (FieldFiltration, StepFunction,
                                 scaled_valuation_filtration,
                                 strong_completion, valuation_filtration)
from gliderbs.gbs import (_completion, classify_field_glider,
                          enumerate_gbs_field, represent_over)
from gliderbs.glider import (Constant, FiltrationTail, Glider, MultiplyBy,
                             ZeroAfter, classify_subglider, is_glider, shift)
from gliderbs.jsonio import encode_filtration, encode_glider
from gliderbs.lattice import ZERO_MODULE, FracIdeal


def _filt(table, plus, minus, primes=(5,)):
    lo, hi = min(table), max(table)
    return FieldFiltration(
        QQ_FIELD, tuple(padic(p) for p in primes),
        StepFunction((lo, hi), table, plus, minus))


def filtrations():
    """Name -> filtration, one for each branch of the classifier."""
    v5 = padic(5)
    return {
        "dvr": valuation_filtration(v5),
        "scaled2": scaled_valuation_filtration(v5, 2),
        "scaled3": scaled_valuation_filtration(v5, 3),
        "z23": _filt({-1: (-1, -1), 0: (0, 0), 1: (1, 1)},
                     (1, (1, 1)), (1, (1, 1)), primes=(2, 3)),
        # non-strong, completing to the valuation filtration; the negative
        # part steps by P^2
        "f5": _filt({-2: (-4,), -1: (-2,), 0: (0,), 1: (1,), 2: (2,)},
                    (1, (1,)), (1, (2,))),
        # phi(n) = n - 1 for n >= 1: the positive part is not e-step
        "f7": _filt({-2: (-2,), -1: (-1,), 0: (0,), 1: (0,), 2: (1,)},
                    (1, (1,)), (1, (1,))),
        # a strong 2-step completion
        "estep2": _filt({-1: (-2,), 0: (0,), 1: (0,), 2: (1,)},
                        (2, (1,)), (1, (2,))),
        # P^3 is not among the completion's levels P^2k
        "nonrefining": _filt({-1: (-3,), 0: (0,), 1: (2,)},
                             (1, (2,)), (1, (3,))),
    }


def _random_glider(filt, rnd):
    ring = filt.base_ring
    r = ring.nprimes
    if rnd.random() < 0.02:
        return Glider(filt, "field", [ZERO_MODULE], ZeroAfter())
    exps = [rnd.randint(-2, 2) for _ in range(r)]
    prefix = []
    for _ in range(rnd.randint(1, 3)):
        prefix.append(FracIdeal(ring, tuple(exps)))
        exps = [e + rnd.choice((0, 1, 1, 2, 3)) for e in exps]
    if rnd.random() < 0.1:
        prefix.append(ZERO_MODULE)
    tail = rnd.choice((
        FiltrationTail(), FiltrationTail(), ZeroAfter(), Constant(),
        MultiplyBy(FracIdeal(ring, tuple(rnd.randint(0, 3)
                                         for _ in range(r))))))
    return Glider(filt, "field", prefix, tail)


def corpus(seed, per_filtration):
    """(name, glider) for the first `per_filtration` valid gliders drawn
    over each filtration from the seed."""
    rnd = random.Random(seed)
    out = []
    for name, filt in filtrations().items():
        found = 0
        while found < per_filtration:
            m = _random_glider(filt, rnd)
            if is_glider(m)[0]:
                out.append((name, m))
                found += 1
    return out


RULES = {"field.dvr-enumeration", "field.strong-requires-dvr",
         "field.associated-strong", "field.estep-unsupported"}


def test_every_valid_glider_gets_a_typed_verdict():
    seen = {}
    for name, m in corpus(0, 125):
        v = classify_field_glider(m)
        assert v.rule in RULES
        seen.setdefault(name, set()).add(v.status)
        if v.status == "reducible":
            # a witness over the completion is checked against M there
            big = m if v.witness.filtration is m.filtration else \
                represent_over(m, v.witness.filtration)
            assert classify_subglider(
                v.witness, shift(big, v.witness_shift)).kind == "nontrivial"
        elif v.status == "irreducible":
            assert name in ("dvr", "f5")
        else:
            # a strong filtration answers every nonzero chain
            assert name not in ("dvr", "scaled2", "scaled3", "z23") \
                or m.level(0) is ZERO_MODULE
    assert len(seen) == 8 and all("reducible" in s for s in seen.values())
    assert "irreducible" in seen["dvr"] and "irreducible" in seen["f5"]


def test_the_completion_decision_names_each_case():
    fs = filtrations()
    assert strong_completion(fs["f7"]) is None
    assert _completion(fs["f7"]).startswith("positive part is not e-step")
    assert _completion(fs["nonrefining"]).startswith(
        "negative part does not refine")
    comp, e = _completion(fs["f5"])
    assert e == 1 and comp.is_dvr_valuation()
    comp, e = _completion(fs["estep2"])
    assert e == 2 and not comp.is_dvr_valuation()
    assert [el.shift for el in enumerate_gbs_field(fs["f5"], (-1, 1))] == \
        [-1, 0, 1]
    for name in ("f7", "nonrefining", "estep2", "scaled2", "z23"):
        assert enumerate_gbs_field(fs[name], (-1, 1)) == []


def _cli(tmp_path, argv, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = [a if a != "DOC" else str(path) for a in argv]
    return cli.main(["--output", "json"] + argv)


def _classify(tmp_path, capsys, m):
    assert _cli(tmp_path, ["classify", "--glider", "DOC"],
                encode_glider(m)) == 0
    return json.loads(capsys.readouterr().out)["results"]


def test_the_zero_chain_is_out_of_class(tmp_path, capsys):
    m = Glider(filtrations()["dvr"], "field", [ZERO_MODULE], ZeroAfter())
    assert _classify(tmp_path, capsys, m) == {
        "citation": "field.dvr-enumeration", "reason": "zero chain",
        "verdict": "out-of-class"}


def test_a_positive_part_that_is_not_estep_classifies(tmp_path, capsys):
    f7 = filtrations()["f7"]
    ring = f7.base_ring
    m = Glider(f7, "field", [FracIdeal(ring, (e,)) for e in (1, 4, 6)],
               MultiplyBy(FracIdeal(ring, (2,))))
    out = _classify(tmp_path, capsys, m)
    assert (out["verdict"], out["citation"]) == (
        "reducible", "field.associated-strong")
    assert [lvl["exps"] for lvl in out["witness"]["prefix"]] == [[2], [5],
                                                                 [7]]
    assert _cli(tmp_path, ["field-enum", "--filtration", "DOC",
                           "--window", "-1:1"], encode_filtration(f7)) == 0
    assert json.loads(capsys.readouterr().out)["results"] == []


def test_a_chain_not_presentable_over_a_dvr_completion(tmp_path, capsys):
    # over f5 the chain grows by P^2 a step, which no tail over the
    # completion presents: it is no shift, and pi M witnesses it over f5
    f5 = filtrations()["f5"]
    m = Glider(f5, "field", [FracIdeal(f5.base_ring, (1,))],
               FiltrationTail())
    out = _classify(tmp_path, capsys, m)
    assert (out["verdict"], out["citation"], out["via"]) == (
        "reducible", "field.dvr-enumeration", "field.associated-strong")
    assert out["witness"]["filtration"] == encode_filtration(f5)
    assert out["witness"]["prefix"] == [{"exps": [2]}]


@pytest.mark.parametrize("name", ["dvr", "scaled2", "z23"])
def test_strong_branches_take_the_first_prime_multiple(name):
    filt = filtrations()[name]
    r = filt.base_ring.nprimes
    m = Glider(filt, "field", [FracIdeal(filt.base_ring, (0,) * r)],
               MultiplyBy(FracIdeal(filt.base_ring, (3,) * r)))
    v = classify_field_glider(m)
    assert v.status == "reducible" and v.triviality.kind == "nontrivial"
    assert v.witness.level(0).exps == (1,) + (0,) * (r - 1)


def test_a_chain_not_presentable_over_a_strong_completion():
    # the negative part steps by P^4, the completion is phi(n) = 2n: a
    # chain growing by P^4 is no shift there, and M_1 inside P^2 M_0 puts
    # pi M strictly between its first two levels
    filt = _filt({-1: (-4,), 0: (0,), 1: (2,)}, (1, (2,)), (1, (4,)))
    m = Glider(filt, "field", [FracIdeal(filt.base_ring, (0,))],
               FiltrationTail())
    v = classify_field_glider(m)
    assert (v.status, v.rule, v.via) == (
        "reducible", "field.strong-requires-dvr", "field.associated-strong")
    assert v.witness.filtration is filt and v.triviality.level == 0


def test_a_subglider_without_a_sandwich_gets_a_verdict(tmp_path, capsys):
    # over f7, M = (R, R, P, P^2, ...) and N = 5 M = (P, P, P^2, ...): N_0
    # is M_2, N_1 is no later level, and no module sits strictly between
    # two distinct levels of M; the verdict names where the T3 walk stopped
    f7 = filtrations()["f7"]
    ring = f7.base_ring
    m = Glider(f7, "field", [FracIdeal(ring, (0,))] * 2, FiltrationTail())
    n = Glider(f7, "field", [FracIdeal(ring, (1,))] * 2, FiltrationTail())
    v = classify_subglider(n, m)
    assert (v.kind, v.level, v.witness) == ("nontrivial", 1, None)
    paths = []
    for name, g in (("n", n), ("m", m)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(encode_glider(g)))
    assert cli.main(["--output", "json", "subglider", "--sub", str(paths[0]),
                     "--glider", str(paths[1])]) == 0
    out = json.loads(capsys.readouterr().out)["results"]
    assert (out["kind"], out["level"]) == ("nontrivial", 1)
    # pi M is that N, so M is reducible with it as the witness
    out = _classify(tmp_path, capsys, m)
    assert (out["verdict"], out["trivialityLevel"]) == ("reducible", 1)
    assert out["witness"] == encode_glider(n)
