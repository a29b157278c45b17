"""Z^2-lexicographic filtrations and glider grids over the composite
valuation on Q(x,y).

Every level of the pure rank-2 valuation filtration is a principal module
x^-a y^-b R' over the composite valuation ring R', so the grid machinery
is exact value-pair arithmetic.  A glider grid descends rightward and
upward; its columns have bodies (horizontal x-adic ideals for descending
vertical tails), the chain of those bodies is a glider over the horizontal
coarsening, and the residue chains between consecutive columns are gliders
over the y-adic filtration on the residue field Q(y).  The classification
recognizes exactly the pure shift grids M_{(j,i)} = F_{(m+1-j, n-i)},
indexed by the pair (m, n) read off the (1,0) cell.
"""

from __future__ import annotations

from .errors import SpecValidationError, UnsupportedError
from .fields import QXY_FIELD, QY_FIELD, composite2, xadic, yadic
from .filtration import FieldFiltration, valuation_filtration
from .glider import FiltrationTail, Glider, Tail, ZeroAfter, fit_tail
from .lattice import FracIdeal, ZERO_MODULE

__all__ = [
    "Z2Ideal", "Z2Filtration", "Z2Glider", "Z2Verdict", "Z2MultiplyBy",
    "horizontal_coarsening", "vertical_body_glider", "residue_glider",
    "classify_z2_glider", "realize_z2",
]


def lex_le(a, b):
    if a[0] != b[0]:
        return a[0] < b[0]
    return a[1] <= b[1]


class Z2Ideal:
    """A module over the composite valuation ring: either the principal
    level F_(a,b) = x^-a y^-b R' ('point' kind) or a horizontal x-adic
    level {v_x >= -a} ('horizontal' kind, arising as a column body)."""

    __slots__ = ("kind", "value")

    def __init__(self, kind, value):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "value", value)

    def __setattr__(self, *a):
        raise AttributeError("Z2Ideal is immutable")

    @staticmethod
    def point(a, b):
        return Z2Ideal("point", (int(a), int(b)))

    @staticmethod
    def horizontal(a):
        return Z2Ideal("horizontal", int(a))

    def contains(self, other):
        if other is ZERO_MODULE:
            return True
        if self.kind == "point":
            if other.kind == "point":
                return lex_le(other.value, self.value)
            return False  # a horizontal level is never inside a point level
        if other.kind == "point":
            return other.value[0] <= self.value
        return other.value <= self.value

    def mul_value(self, gamma):
        """Multiplication by the filtration level of degree gamma."""
        if self.kind == "point":
            return Z2Ideal.point(self.value[0] + gamma[0],
                                 self.value[1] + gamma[1])
        return Z2Ideal.horizontal(self.value + gamma[0])

    def __eq__(self, other):
        if not isinstance(other, Z2Ideal):
            return NotImplemented
        return self.kind == other.kind and self.value == other.value

    def __hash__(self):
        return hash((self.kind, self.value))

    def __repr__(self):
        if self.kind == "point":
            return f"F{self.value}"
        return f"Fh({self.value})"


class Z2Filtration:
    """The pure rank-2 valuation filtration on Q(x,y) (kind 'composite'),
    or a rank-1 filtration presented on Z^2 with a trivial vertical
    direction (kind 'horizontal-only', kept to exercise the exclusion)."""

    def __init__(self, kind="composite"):
        if kind not in ("composite", "horizontal-only"):
            raise SpecValidationError(f"unknown Z2 filtration kind {kind!r}")
        self.kind = kind
        self.valuation = composite2()
        self.field = QXY_FIELD

    def level(self, gamma):
        a, b = gamma
        if self.kind == "composite":
            return Z2Ideal.point(a, b)
        return Z2Ideal.horizontal(a)

    def __eq__(self, other):
        return isinstance(other, Z2Filtration) and other.kind == self.kind

    def __hash__(self):
        return hash(("Z2Filtration", self.kind))

    def __repr__(self):
        return f"Z2Filtration({self.kind})"


def Z2MultiplyBy(da, db):
    """Multiply-by tail for grids: value increment per step (lex <= 0,
    so the chain descends)."""
    if (da, db) > (0, 0):  # tuple comparison is lexicographic
        raise SpecValidationError("Z2 tails must descend")
    return Tail("multiply", (int(da), int(db)))


def _tail_step(tail, axis):
    """Per-step value increment of a tail rule along the given axis; None
    for the constant and zero tails."""
    if tail.kind == "filtration":
        return (-1, 0) if axis == 0 else (0, -1)
    return tail.ideal


class Z2Glider:
    """A glider grid: window [0,J] x [0,I] of cells plus per-axis tails.

    `validate=False` skips the glider-axiom check; the structural
    operations (cells, bodies, residues) are still defined on such data,
    but classification requires a validated grid.
    """

    def __init__(self, filtration, window, grid, tail_j, tail_i,
                 validate=True):
        self.filtration = filtration
        self.J, self.I = window
        self.grid = tuple(tuple(row) for row in grid)
        if len(self.grid) != self.J + 1 or any(
                len(r) != self.I + 1 for r in self.grid):
            raise SpecValidationError("grid does not match the window")
        for t in (tail_j, tail_i):
            if t.kind == "multiply" and not isinstance(t.ideal, tuple):
                raise SpecValidationError(f"not a grid tail: {t!r}")
        self.tail_j = tail_j
        self.tail_i = tail_i
        self.validated = validate
        if validate:
            self._validate()

    def cell(self, j, i):
        if j < 0 or i < 0:
            raise SpecValidationError("grid indices are natural numbers")
        base_j = min(j, self.J)
        base_i = min(i, self.I)
        out = self.grid[base_j][base_i]
        if j > self.J:
            out = self._apply_tail(out, self.tail_j, 0, j - self.J)
        if i > self.I:
            out = self._apply_tail(out, self.tail_i, 1, i - self.I)
        return out

    def _apply_tail(self, cell, tail, axis, k):
        if cell is ZERO_MODULE or tail.kind == "zeroafter":
            return ZERO_MODULE
        step = _tail_step(tail, axis)
        if step is None:
            return cell
        return cell.mul_value((step[0] * k, step[1] * k))

    @property
    def horizon(self):
        return (self.J + 3, self.I + 3)

    def _validate(self):
        hj, hi = self.horizon
        for j in range(hj + 1):
            for i in range(hi + 1):
                c = self.cell(j, i)
                if j < hj and not _z2_contains(c, self.cell(j + 1, i)):
                    raise SpecValidationError(
                        f"grid does not descend rightward at ({j},{i})")
                if i < hi and not _z2_contains(c, self.cell(j, i + 1)):
                    raise SpecValidationError(
                        f"grid does not descend upward at ({j},{i})")
        if self.filtration.kind != "composite":
            return
        cells = [(j, i) for j in range(hj + 1) for i in range(hi + 1)]
        for (j2, i2) in cells:
            src = self.cell(j2, i2)
            if src is ZERO_MODULE:
                continue
            for (j1, i1) in cells:
                gamma = (j2 - j1, i2 - i1)
                if gamma < (0, 0) or (gamma[0] == 0 and gamma[1] < 0):
                    continue
                moved = src.mul_value(gamma)
                if not _z2_contains(self.cell(j1, i1), moved):
                    raise SpecValidationError(
                        f"glider axiom fails: F_{gamma} M_({j2},{i2}) is "
                        f"not inside M_({j1},{i1})")

    def __eq__(self, other):
        if not isinstance(other, Z2Glider):
            return NotImplemented
        hj = max(self.horizon[0], other.horizon[0])
        hi = max(self.horizon[1], other.horizon[1])
        return all(self.cell(j, i) == other.cell(j, i)
                   for j in range(hj + 1) for i in range(hi + 1))

    def __repr__(self):
        return f"Z2Glider(J={self.J}, I={self.I})"


def _z2_contains(big, small):
    if small is ZERO_MODULE:
        return True
    if big is ZERO_MODULE:
        return False
    return big.contains(small)


def realize_z2(shift, window=(2, 2)):
    """The pure shift grid for (m, n): M_(j,i) = F_(m+1-j, n-i)."""
    m, n = shift
    J, I = window
    filt = Z2Filtration("composite")
    grid = [[Z2Ideal.point(m + 1 - j, n - i) for i in range(I + 1)]
            for j in range(J + 1)]
    return Z2Glider(filt, window, grid, FiltrationTail(), FiltrationTail())


class Z2Verdict:
    def __init__(self, status, shift=None, witness=None, cell=None,
                 reason=None, rule=None):
        self.status = status
        self.shift = shift
        self.witness = witness
        self.cell = cell
        self.reason = reason
        self.rule = rule

    def __repr__(self):
        if self.status == "irreducible":
            return f"Z2Irreducible{self.shift}"
        if self.status == "reducible":
            return f"Z2Reducible(at {self.cell})"
        return f"Z2OutOfClass({self.reason})"


def classify_z2_glider(m):
    """Irreducible with the shift (m, n) iff the grid is the pure shift
    grid; reducible with a strict sandwich witness at the first deviating
    cell; out-of-class over degenerate (rank-1) presentations."""
    if m.filtration.kind != "composite":
        return Z2Verdict("out-of-class", rule="rank2.z-degenerate",
                         reason="vertical direction trivial: essentially a "
                                "rank-1 filtration")
    c10 = m.cell(1, 0)
    if c10 is ZERO_MODULE or c10.kind != "point":
        return Z2Verdict("out-of-class", rule="rank2.z2-classification",
                         reason="grid has no principal (1,0) cell")
    mm, nn = c10.value
    hj, hi = m.horizon
    for j in range(hj + 1):
        for i in range(hi + 1):
            want = Z2Ideal.point(mm + 1 - j, nn - i)
            got = m.cell(j, i)
            if got == want:
                continue
            witness = _z2_sandwich(m, j, i)
            if witness is not None:
                return witness
            return Z2Verdict("out-of-class",
                             rule="rank2.z2-classification",
                             reason=f"cell ({j},{i}) deviates from the "
                                    "shift grid without a sandwich")
    target = realize_z2((mm, nn), window=(m.J, m.I))
    if m != target:  # pragma: no cover - cells checked above
        return Z2Verdict("out-of-class", rule="rank2.z2-classification",
                         reason="tail growth deviates")
    return Z2Verdict("irreducible", shift=(mm, nn),
                     rule="rank2.z2-classification")


def _z2_sandwich(m, j, i):
    """A strict sandwich witness at a deviating cell: a value strictly
    between the cell and the next distinct cell in a glider direction,
    never equal to any cell of the grid (so no index reparametrization
    can absorb it)."""
    cell = m.cell(j, i)
    if cell is ZERO_MODULE or cell.kind != "point":
        return None
    for (dj, di) in ((0, 1), (1, 0)):
        nxt = m.cell(j + dj, i + di)
        k = 2
        while nxt == cell and k < 8:
            nxt = m.cell(j + dj * k, i + di * k)
            k += 1
        if nxt is ZERO_MODULE or nxt == cell or nxt.kind != "point":
            continue
        a, b = cell.value
        cand = Z2Ideal.point(a, b - 1)
        if cell.contains(cand) and cand != cell and cand.contains(nxt) \
                and cand != nxt and not _is_cell_value(m, cand):
            witness = realize_z2((cand.value[0] - 1, cand.value[1]),
                                 window=(m.J, m.I))
            return Z2Verdict("reducible", witness=witness, cell=(j, i),
                             rule="rank2.z2-classification")
    return None


def _is_cell_value(m, ideal):
    hj, hi = m.horizon
    return any(m.cell(j, i) == ideal
               for j in range(hj + 1) for i in range(hi + 1))


# ---------------------------------------------------------------------------
# coarsening, bodies, residues
# ---------------------------------------------------------------------------

def horizontal_coarsening(filt):
    """The Z-filtration of unions over the second index: the x-adic
    valuation filtration on Q(x,y)."""
    if filt.kind != "composite":
        raise UnsupportedError("coarsening defined for the pure composite")
    return valuation_filtration(xadic(QXY_FIELD))


class VerticalBodies:
    """Column bodies of a grid: body(j) is the intersection of column j."""

    def __init__(self, grid):
        self.grid = grid

    def body(self, j):
        g = self.grid
        tail = g.tail_i
        col_deep = g.cell(j, g.I)
        if col_deep is ZERO_MODULE or tail.kind == "zeroafter":
            return ZERO_MODULE
        step = _tail_step(tail, 1)
        if step is None:
            return col_deep
        if step[0] < 0:
            return ZERO_MODULE  # first component drops: bodies pinch out
        if col_deep.kind == "horizontal":
            return col_deep
        a = col_deep.value[0]
        return Z2Ideal.horizontal(a - 1)

    def as_glider(self):
        """The chain of bodies as a glider over the horizontal coarsening;
        needs every body to be a horizontal (x-adic) level or zero."""
        f_h = horizontal_coarsening(self.grid.filtration)
        ring = f_h.base_ring
        hj = self.grid.horizon[0]
        bodies = [self.body(j) for j in range(hj + 1)]
        levels = []
        for b in bodies:
            if b is ZERO_MODULE:
                levels.append(ZERO_MODULE)
            elif b.kind == "horizontal":
                levels.append(FracIdeal(ring, (-b.value,)))
            else:
                raise UnsupportedError(
                    "column bodies are not x-adic levels (constant "
                    "vertical tails); not presentable over the coarsening")
        if any(lvl is ZERO_MODULE for lvl in levels):
            cut = next(k for k, lvl in enumerate(levels)
                       if lvl is ZERO_MODULE)
            if cut == 0:
                raise UnsupportedError("all bodies vanish")
            return Glider(f_h, "field", levels[:cut], ZeroAfter())
        return fit_tail(f_h, "field", levels, len(levels) - 2)


def vertical_body_glider(m):
    return VerticalBodies(m)


def residue_glider(m, s):
    """The chain of quotients M_(s,i) / M_(s+1,i) as a glider over the
    y-adic filtration on the residue field Q(y).  Defined when column s+1
    sits exactly one horizontal step below column s."""
    if not (0 <= s <= m.J):
        raise SpecValidationError("column index outside the window")
    hi = m.horizon[1]
    exps = []
    for i in range(hi + 1):
        top, bot = m.cell(s, i), m.cell(s + 1, i)
        if top is ZERO_MODULE or bot is ZERO_MODULE:
            raise UnsupportedError("zero column: residue chain vanishes")
        if top.kind != "point" or bot.kind != "point":
            raise UnsupportedError("residues need principal cells")
        (a, b), (a2, b2) = top.value, bot.value
        if a2 != a - 1 or b2 != b:
            raise UnsupportedError(
                f"column {s + 1} is not one horizontal step below column "
                f"{s} at height {i}: quotient is not a residue ideal")
        exps.append(-b)
    g_res = FieldFiltration(
        QY_FIELD, (yadic(QY_FIELD),),
        valuation_filtration(yadic(QY_FIELD)).phi)
    ring = g_res.base_ring
    levels = [FracIdeal(ring, (e,)) for e in exps]
    return fit_tail(g_res, "field", levels, len(levels) - 2)
