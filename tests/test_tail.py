"""The tail value, the tail fitter and the stabilizing-tail predicate."""

import pytest

from gliderbs.errors import GbsError, SpecValidationError, UnsupportedError
from gliderbs.glider import (Constant, FiltrationTail, Glider, MultiplyBy,
                             Tail, ZeroAfter, body, classify_subglider,
                             essential_length, fit_tail, negative_part,
                             realize_field_chain)
from gliderbs.lattice import ZERO_MODULE, FracIdeal


def ideal(filt, *exps):
    return FracIdeal(filt.base_ring, tuple(exps))


def test_constructors_build_tail_values(f5):
    assert FiltrationTail() == Tail("filtration")
    assert Constant() == Tail("constant") != ZeroAfter()
    assert MultiplyBy(ideal(f5, 2)) == Tail("multiply", ideal(f5, 2))
    assert MultiplyBy(ideal(f5, 2)) != MultiplyBy(ideal(f5, 1))
    assert len({FiltrationTail(), FiltrationTail(), Constant()}) == 2
    with pytest.raises(SpecValidationError):
        MultiplyBy(ideal(f5, -1))
    with pytest.raises(SpecValidationError):
        Tail("geometric")
    with pytest.raises(SpecValidationError):
        Tail("multiply")


def test_multiply_tails_descend(f5):
    # the check sits in the tail value, so no Glider can hold an ascending
    # multiply tail, however the tail was built
    with pytest.raises(SpecValidationError, match="ascends"):
        Tail("multiply", ideal(f5, -1))
    with pytest.raises(SpecValidationError, match="ascends"):
        Tail("multiply", (1, -5))
    assert Tail("multiply", (0, -1)) == Tail("multiply", (0, -1))


def test_field_and_grid_tails_do_not_mix(f5):
    from gliderbs.rank2 import Z2Filtration, Z2Glider, Z2MultiplyBy, \
        realize_z2

    with pytest.raises(SpecValidationError):
        Glider(f5, "field", [ideal(f5, 0)], Z2MultiplyBy(-1, 0))
    grid = realize_z2((0, 0))
    with pytest.raises(SpecValidationError):
        Z2Glider(Z2Filtration(), (grid.J, grid.I), grid.grid,
                 MultiplyBy(ideal(f5, 1)), FiltrationTail())


def test_stabilizes(f5):
    assert Constant().stabilizes and ZeroAfter().stabilizes
    assert MultiplyBy(ideal(f5, 0)).stabilizes
    assert not MultiplyBy(ideal(f5, 1)).stabilizes
    assert not FiltrationTail().stabilizes


def _valuation_level(f5):
    return lambda i: f5.level(-i)


def test_fit_tail_own_wins_when_it_fits(f5):
    # over a DVR, multiplying by (5) and the filtration tail agree
    own = MultiplyBy(ideal(f5, 1))
    g = fit_tail(f5, "field", _valuation_level(f5), 2, own=own)
    assert g.tail == own and len(g.prefix) == 2


def test_fit_tail_prefers_filtration_over_equal_multiply(f5):
    g = fit_tail(f5, "field", _valuation_level(f5), 2)
    assert g.tail == FiltrationTail()
    assert g == negative_part(f5)


def test_fit_tail_skips_an_own_tail_that_does_not_fit(f5):
    g = fit_tail(f5, "field", _valuation_level(f5), 2,
                 own=MultiplyBy(ideal(f5, 2)))
    assert g.tail == FiltrationTail()


def test_fit_tail_falls_back_to_the_minus_increment(f_mod):
    # the window of f_mod is irregular, so only the geometric tail fits
    g = realize_field_chain(f_mod, 0)
    assert g.tail == MultiplyBy(ideal(f_mod, 1))
    assert all(g.level(i) == f_mod.level(-i) for i in range(12))


def test_fit_tail_raises_a_typed_error(f5):
    levels = [ideal(f5, e) for e in (0, 1, 2, 3, 5, 6)]
    with pytest.raises(UnsupportedError) as info:
        fit_tail(f5, "field", levels.__getitem__, 2)
    assert isinstance(info.value, GbsError)


def _recorded(level):
    calls = []

    def recording(i):
        calls.append(i)
        return level(i)

    return recording, calls


@pytest.mark.parametrize("name", ["f5", "f_mod"])
def test_fit_tail_reads_each_level_once_up_to_the_horizon(name, request):
    # over f_mod the filtration tail fails before the multiply tail fits
    filt = request.getfixturevalue(name)
    level, calls = _recorded(_valuation_level(filt))
    g = fit_tail(filt, "field", level, 2)
    assert calls == list(range(g.horizon + 1))


def test_fit_tail_checks_the_level_at_the_horizon(f5):
    h = fit_tail(f5, "field", _valuation_level(f5), 2).horizon

    def departing_at(k):
        return lambda i: ideal(f5, i + (i >= k))

    with pytest.raises(UnsupportedError):
        fit_tail(f5, "field", departing_at(h), 2)
    # the window ends at the horizon
    assert fit_tail(f5, "field", departing_at(h + 1), 2).horizon == h


@pytest.mark.parametrize("chain", ["bodies", "residues"])
def test_rank2_chains_are_fitted_on_their_horizon(chain, monkeypatch):
    from gliderbs import rank2

    grid = rank2.realize_z2((0, 0))
    seen = []

    def spy(filtration, ambient, level, keep, **kw):
        level, calls = _recorded(level)
        seen.append(calls)
        return fit_tail(filtration, ambient, level, keep, **kw)

    monkeypatch.setattr(rank2, "fit_tail", spy)
    if chain == "bodies":
        g, h = rank2.vertical_body_glider(grid).as_glider(), grid.horizon[0]
    else:
        g, h = rank2.residue_glider(grid, 0), grid.horizon[1]
    assert seen[0] == list(range(g.horizon + 1))
    assert g.horizon == h + 2


# ---------------------------------------------------------------------------
# Constant() and MultiplyBy(unit ideal) are one stabilizing tail
# ---------------------------------------------------------------------------

# None is the zero module: a stabilizing tail on a nonzero level breaks
# the glider axiom, on a zero level it is a glider
PREFIXES = [(0,), (1,), (-1,), (0, 1), (0, 2), (1, 2), (0, 1, 2),
            (0, 2, 3), (0, 1, 2, 3), (-1, 0, 2), (None,), (0, None),
            (1, None), (0, 1, None), (0, 2, None), (-1, 1, 2, None)]


def _levels(f5, exps):
    return [ZERO_MODULE if e is None else ideal(f5, e) for e in exps]


def _partners(f5):
    out = [negative_part(f5), realize_field_chain(f5, -1),
           realize_field_chain(f5, 1)]
    for exps in PREFIXES:
        levels = _levels(f5, exps)
        out += [Glider(f5, "field", levels, FiltrationTail()),
                Glider(f5, "field", levels, ZeroAfter()),
                Glider(f5, "field", levels, MultiplyBy(ideal(f5, 2)))]
    return out


def _verdict(n, m):
    """Kind and level, or the error type: a big chain that is not a
    glider is rejected."""
    try:
        v = classify_subglider(n, m)
    except GbsError as exc:
        return type(exc).__name__
    return v.kind, v.level


def test_constant_and_unit_multiply_agree(f5):
    partners = _partners(f5)
    pairs = 0
    for exps in PREFIXES:
        levels = _levels(f5, exps)
        const = Glider(f5, "field", levels, Constant())
        unit = Glider(f5, "field", levels, MultiplyBy(ideal(f5, 0)))
        assert body(const) == body(unit)
        assert essential_length(const) == essential_length(unit)
        for other in partners + [const]:
            assert _verdict(const, other) == _verdict(unit, other)
            assert _verdict(other, const) == _verdict(other, unit)
            pairs += 2
    assert pairs == 2 * len(PREFIXES) * (len(partners) + 1)
