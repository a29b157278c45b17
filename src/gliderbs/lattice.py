"""Exact arithmetic of finitely generated modules over semilocal PIDs.

The base ring R is cut out of one of the supported fields by finitely many
rank-1 valuations: R = {x : v_j(x) >= 0 for all j}.  Such a ring is a PID
with exactly one maximal ideal per valuation, every element factors as a
unit times a product of uniformizer powers, and fractional ideals are the
rank-one case of the modules handled here.

A Lattice is the R-span of finitely many vectors in K^d, stored as the
canonical matrix of a Hermite-style normal form: echelon rows, each pivot a
product of uniformizer powers, entries above a pivot reduced to the
canonical representative of their coset modulo the pivot (principal-part
digits at each maximal ideal).  Equal modules have identical canonical
matrices, so equality is syntactic.

Full (rank d) lattices model orders, two-sided ideals and filtration
levels; lower-rank modules appear as levels of chains inside a proper left
ideal of the algebra.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .errors import (BaseMismatchError, ContainmentError, RankError,
                     SpecValidationError, UnsupportedError)
from .fields import FieldElem, QQ_FIELD

__all__ = [
    "BaseRing", "AlgebraDesc", "matrix_algebra", "quaternion_algebra",
    "Lattice", "FracIdeal", "ZERO_MODULE",
    "span", "canonicalize", "add", "intersect", "mult",
    "colon_left", "colon_right", "quotient_length", "is_simple_quotient",
    "intermediate_module", "solve_dual",
]


class _ZeroModule:
    """The zero module; the shared marker for vanished glider levels."""

    _inst = None

    def __new__(cls):
        if cls._inst is None:
            cls._inst = super().__new__(cls)
        return cls._inst

    def __repr__(self):
        return "ZERO_MODULE"


ZERO_MODULE = _ZeroModule()


# ---------------------------------------------------------------------------
# base rings
# ---------------------------------------------------------------------------

class BaseRing:
    """Semilocal PID presented by rank-1 valuations on a common field."""

    _cache = {}

    def __new__(cls, field, valuations):
        valuations = tuple(valuations)
        key = (field.name, tuple(v.name for v in valuations))
        inst = cls._cache.get(key)
        if inst is not None:
            return inst
        inst = super().__new__(cls)
        inst.field = field
        inst.valuations = valuations
        inst._validate()
        inst.uniformizers = tuple(v.uniformizer() for v in valuations)
        inst._gen_cache = {}
        cls._cache[key] = inst
        return inst

    def _validate(self):
        if not self.valuations:
            raise SpecValidationError("a base ring needs at least one valuation")
        names = [v.name for v in self.valuations]
        if len(set(names)) != len(names):
            raise SpecValidationError("valuations must be pairwise distinct")
        for v in self.valuations:
            if v.rank != 1:
                raise SpecValidationError(
                    "base rings are cut out by rank-1 valuations only")
            if v.field is not self.field:
                raise BaseMismatchError(
                    f"valuation {v.name} lives on {v.field.name}, "
                    f"not {self.field.name}")

    @property
    def nprimes(self):
        return len(self.valuations)

    def val_vector(self, x):
        if not x:
            return None
        return tuple(v(x) for v in self.valuations)

    def is_integral(self, x):
        return (not x) or all(t >= 0 for t in self.val_vector(x))

    def is_unit(self, x):
        return bool(x) and all(t == 0 for t in self.val_vector(x))

    def from_exponents(self, exps):
        exps = tuple(exps)
        cache = self._gen_cache
        out = cache.get(exps)
        if out is None:
            out = self.field.one()
            for pi, e in zip(self.uniformizers, exps):
                if e:
                    out = out * pi ** e
            cache[exps] = out
        return out

    def reduce_mod(self, u, g):
        """Canonical representative of the coset u + g*R.

        Computed as g times the sum of the canonical principal parts of u/g
        at each maximal ideal; digits are the canonical residue lifts.
        """
        if not u:
            return u
        h = u / g
        pp = self.field.zero()
        for v, pi in zip(self.valuations, self.uniformizers):
            while h:
                k = v(h)
                if k >= 0:
                    break
                digit = v.lift(v.residue(h * pi ** (-k)))
                term = digit * pi ** k
                pp = pp + term
                h = h - term
        return g * pp

    def mix_coefficient(self, a, b):
        """c in R with val_vector(a + c*b) equal to min(val(a), val(b))
        componentwise.  Exists because R is semilocal; found by a verified
        search over a structured candidate pool."""
        va, vb = self.val_vector(a), self.val_vector(b)
        target = tuple(min(s, t) for s, t in zip(va, vb))
        for c in self._mix_candidates():
            if not self.is_integral(c):
                continue
            s = a + c * b
            if s and self.val_vector(s) == target:
                return c
        raise UnsupportedError(
            "could not find a mixing coefficient; base ring residue "
            "structure outside the supported search pool")

    def _mix_candidates(self):
        one = self.field.one()
        for n in range(1, 24):
            yield self.field.from_fraction(Fraction(n))
        for pi in self.uniformizers:
            yield pi
            yield pi + one
            for n in range(2, 6):
                yield pi + self.field.from_fraction(Fraction(n))
                yield self.field.from_fraction(Fraction(n)) * pi + one
        if len(self.uniformizers) >= 2:
            for i, pi in enumerate(self.uniformizers):
                for j, pj in enumerate(self.uniformizers):
                    if i == j:
                        continue
                    for n in range(1, 6):
                        yield pi + self.field.from_fraction(Fraction(n)) * pj

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return hash((self.field.name,
                     tuple(v.name for v in self.valuations)))

    def __repr__(self):
        vs = ", ".join(v.name for v in self.valuations)
        return f"BaseRing({self.field.name}; {vs})"


# ---------------------------------------------------------------------------
# algebra descriptors
# ---------------------------------------------------------------------------

class AlgebraDesc:
    """A central simple algebra given by structure constants on a basis.

    Either the full matrix algebra M_n (basis the matrix units, row-major)
    or the quaternion algebra (a, b) with basis 1, i, j, k.  Structure
    constants are rational and validated once: associativity on all basis
    triples, and the centre is exactly the scalars.
    """

    _cache = {}

    def __new__(cls, kind, **params):
        key = (kind, tuple(sorted(params.items())))
        inst = cls._cache.get(key)
        if inst is not None:
            return inst
        inst = super().__new__(cls)
        inst.kind = kind
        inst.params = params
        inst._init()
        inst._validate()
        cls._cache[key] = inst
        return inst

    def _init(self):
        if self.kind == "matrix":
            n = self.params["n"]
            self.n = n
            self.dim = n * n
            table = {}
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        for l in range(n):
                            if j == k:
                                table[(i * n + j, k * n + l)] = \
                                    ((i * n + l, Fraction(1)),)
            self._table = table
            self.one_coords = tuple(
                Fraction(1) if (s // n == s % n) else Fraction(0)
                for s in range(self.dim))
        elif self.kind == "quaternion":
            a = Fraction(self.params["a"])
            b = Fraction(self.params["b"])
            self.a, self.b = a, b
            self.dim = 4
            O, I, J, K = 0, 1, 2, 3
            t = {}
            t[(O, O)] = ((O, Fraction(1)),)
            for u in (I, J, K):
                t[(O, u)] = ((u, Fraction(1)),)
                t[(u, O)] = ((u, Fraction(1)),)
            t[(I, I)] = ((O, a),)
            t[(J, J)] = ((O, b),)
            t[(K, K)] = ((O, -a * b),)
            t[(I, J)] = ((K, Fraction(1)),)
            t[(J, I)] = ((K, Fraction(-1)),)
            t[(I, K)] = ((J, a),)
            t[(K, I)] = ((J, -a),)
            t[(J, K)] = ((I, -b),)
            t[(K, J)] = ((I, b),)
            self._table = t
            self.one_coords = (Fraction(1), Fraction(0), Fraction(0),
                               Fraction(0))
        else:
            raise UnsupportedError(f"unknown algebra kind {self.kind!r}")

    def _validate(self):
        d = self.dim

        def mul(u, w):
            out = [Fraction(0)] * d
            for s, cs in enumerate(u):
                if cs:
                    for t, ct in enumerate(w):
                        if ct:
                            for uu, c in self._table.get((s, t), ()):
                                out[uu] += cs * ct * c
            return out

        unit = [Fraction(0)] * d
        for s in range(d):
            e_s = [Fraction(1) if i == s else Fraction(0) for i in range(d)]
            for t in range(d):
                e_t = [Fraction(1) if i == t else Fraction(0) for i in range(d)]
                for u in range(d):
                    e_u = [Fraction(1) if i == u else Fraction(0)
                           for i in range(d)]
                    left = mul(mul(e_s, e_t), e_u)
                    right = mul(e_s, mul(e_t, e_u))
                    if left != right:
                        raise SpecValidationError(
                            f"structure constants not associative at "
                            f"({s},{t},{u})")
        one = list(self.one_coords)
        for s in range(d):
            e_s = [Fraction(1) if i == s else Fraction(0) for i in range(d)]
            if mul(one, e_s) != e_s or mul(e_s, one) != e_s:
                raise SpecValidationError("unit coordinates are wrong")
        # centre = scalars: solve z*e_t = e_t*z for all t
        rows = []
        for t in range(d):
            for u in range(d):
                row = []
                for s in range(d):
                    cl = dict(self._table.get((s, t), ()))
                    cr = dict(self._table.get((t, s), ()))
                    row.append(QQ_FIELD.from_fraction(
                        cl.get(u, Fraction(0)) - cr.get(u, Fraction(0))))
                rows.append(row)
        null = linalg.right_nullspace(rows, QQ_FIELD)
        if len(null) != 1:
            raise SpecValidationError(
                f"centre has dimension {len(null)}, not 1: not central simple")

    # -- coordinate products -------------------------------------------------

    def _field_table(self, field):
        cache = getattr(self, "_ftables", None)
        if cache is None:
            cache = {}
            self._ftables = cache
        tbl = cache.get(field.name)
        if tbl is None:
            tbl = {}
            for key, entries in self._table.items():
                tbl[key] = tuple(
                    (uu, None if c == 1 else field.from_fraction(c))
                    for uu, c in entries)
            cache[field.name] = tbl
        return tbl

    def mul_coords(self, u, w, field):
        """Product of two coordinate vectors of FieldElems."""
        tbl = self._field_table(field)
        out = [field.zero()] * self.dim
        for s, cs in enumerate(u):
            if not cs:
                continue
            for t, ct in enumerate(w):
                if not ct:
                    continue
                prod = cs * ct
                for uu, c in tbl.get((s, t), ()):
                    out[uu] = out[uu] + (prod if c is None else prod * c)
        return out

    def one_vector(self, field):
        return tuple(field.from_fraction(c) for c in self.one_coords)

    def basis_vector(self, s, field):
        return tuple(field.one() if i == s else field.zero()
                     for i in range(self.dim))

    def __repr__(self):
        if self.kind == "matrix":
            return f"M_{self.n}"
        return f"Quaternion({self.a},{self.b})"


def matrix_algebra(n):
    if n < 1:
        raise SpecValidationError("matrix algebra needs n >= 1")
    return AlgebraDesc("matrix", n=n)


def quaternion_algebra(a, b):
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise SpecValidationError("quaternion parameters must be nonzero")
    return AlgebraDesc("quaternion", a=a, b=b)


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------

class Lattice:
    """Canonical-form R-module in K^d.  Rows form the canonical basis."""

    __slots__ = ("base", "dim", "rows")

    def __init__(self, base, dim, rows, _canonical=False):
        if not _canonical:
            raise RankError("use span()/canonicalize() to build lattices")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, *a):
        raise AttributeError("Lattice is immutable")

    @property
    def rank(self):
        return len(self.rows)

    @property
    def full(self):
        return self.rank == self.dim

    def pivot_columns(self):
        cols = []
        for row in self.rows:
            cols.append(next(c for c, e in enumerate(row) if e))
        return cols

    # -- membership ----------------------------------------------------------

    def coords(self, vec):
        """Coordinates of vec in the canonical basis over K, or None if vec
        is outside the K-span."""
        v = list(vec)
        out = []
        for row in self.rows:
            c = next(i for i, e in enumerate(row) if e)
            q = v[c] / row[c]
            out.append(q)
            if q:
                v = [a - q * b for a, b in zip(v, row)]
        if any(v):
            return None
        return out

    def contains_vector(self, vec):
        if not any(vec):
            return True
        cs = self.coords(vec)
        if cs is None:
            return False
        return all(self.base.is_integral(q) for q in cs)

    def contains(self, other):
        if other is ZERO_MODULE:
            return True
        _check_compatible(self, other)
        return all(self.contains_vector(r) for r in other.rows)

    def scale(self, x):
        """x * L for a nonzero field element x.

        Fast path: x = (unit) * t with t a product of uniformizer powers;
        the unit is absorbed by the module and multiplying the canonical
        matrix by t keeps pivots canonical and coset digits unchanged.
        """
        if not x:
            raise SpecValidationError("scaling a lattice by zero")
        t = self.base.from_exponents(self.base.val_vector(x))
        rows = tuple(tuple(t * e for e in row) for row in self.rows)
        return Lattice(self.base, self.dim, rows, _canonical=True)

    def scale_ideal(self, ideal):
        t = self.base.from_exponents(ideal.exps)
        rows = tuple(tuple(t * e for e in row) for row in self.rows)
        return Lattice(self.base, self.dim, rows, _canonical=True)

    def __eq__(self, other):
        if not isinstance(other, Lattice):
            return NotImplemented
        return (self.base is other.base and self.dim == other.dim
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.base, self.dim, self.rows))

    def __repr__(self):
        rws = "; ".join(",".join(str(e) for e in row) for row in self.rows)
        return f"Lattice[{rws}]"


def _check_compatible(x, y):
    if x.base is not y.base:
        raise BaseMismatchError("lattices over different base rings")
    if x.dim != y.dim:
        raise BaseMismatchError("lattices in different ambient dimensions")


def _hnf(base, dim, vectors):
    """Canonical Hermite-style normal form; returns tuple of canonical rows."""
    work = []
    for v in vectors:
        row = list(v)
        if len(row) != dim:
            raise BaseMismatchError("generator of wrong length")
        if any(row):
            work.append(row)
    result = []
    for col in range(dim):
        cand = [i for i, r in enumerate(work) if r[col]]
        if not cand:
            continue
        # mix until some candidate attains the componentwise-min valuation
        while True:
            vecs = {i: base.val_vector(work[i][col]) for i in cand}
            vmin = tuple(min(v[j] for v in vecs.values())
                         for j in range(base.nprimes))
            attained = [i for i in cand if vecs[i] == vmin]
            if attained:
                piv = attained[0]
                break
            # pick the row attaining vmin at the most primes, mix with one
            # that covers a missing prime
            def coverage(i):
                return sum(1 for j in range(base.nprimes)
                           if vecs[i][j] == vmin[j])
            i0 = max(cand, key=coverage)
            j_missing = next(j for j in range(base.nprimes)
                             if vecs[i0][j] > vmin[j])
            i1 = next(i for i in cand if vecs[i][j_missing] == vmin[j_missing])
            c = base.mix_coefficient(work[i0][col], work[i1][col])
            work[i0] = [a + c * b for a, b in zip(work[i0], work[i1])]
        g = base.from_exponents(vmin)
        u = work[piv][col] / g
        uinv = base.field.one() / u
        prow = [e * uinv for e in work[piv]]
        for i in cand:
            if i == piv:
                continue
            q = work[i][col] / g
            work[i] = [a - q * b for a, b in zip(work[i], prow)]
        work = [r for k, r in enumerate(work) if k != piv and any(r)]
        result.append(prow)
    if work:  # pragma: no cover - all rows consumed by construction
        raise RankError("normal form failed to consume generators")
    # reduce entries above each pivot to canonical coset representatives
    for ri in range(len(result)):
        prow = result[ri]
        pcol = next(c for c, e in enumerate(prow) if e)
        g = prow[pcol]
        for rj in range(ri):
            u = result[rj][pcol]
            if not u:
                continue
            u_red = base.reduce_mod(u, g)
            q = (u - u_red) / g
            if q:
                result[rj] = [a - q * b for a, b in zip(result[rj], prow)]
    return tuple(tuple(r) for r in result)


def span(base, dim, vectors):
    """The R-module generated by the vectors, in canonical form.  Any rank."""
    rows = _hnf(base, dim, vectors)
    return Lattice(base, dim, rows, _canonical=True)


def canonicalize(base, dim, vectors):
    """Spec entry point: generators must span a full lattice in K^d."""
    lat = span(base, dim, vectors)
    if not lat.full:
        raise RankError(
            f"generators span rank {lat.rank} < {dim}: not a full lattice")
    return lat


def zero_lattice(base, dim):
    return Lattice(base, dim, (), _canonical=True)


def add(x, y):
    if x is ZERO_MODULE:
        return y
    if y is ZERO_MODULE:
        return x
    _check_compatible(x, y)
    return span(x.base, x.dim, list(x.rows) + list(y.rows))


def solve_dual(base, dim, int_conditions, zero_conditions=()):
    """The module {a in K^dim : <a, t> in R for all t in int_conditions and
    <a, t> = 0 for all t in zero_conditions}.

    Raises RankError when the solution set has a K-line (is not finitely
    generated over R).
    """
    field = base.field
    amb_rows = None
    if zero_conditions:
        amb_rows = linalg.right_nullspace(
            [list(t) for t in zero_conditions], field)
        if not amb_rows:
            return zero_lattice(base, dim)
    if amb_rows is None:
        space_dim = dim
        embed = None
    else:
        space_dim = len(amb_rows)
        embed = amb_rows
    conds = []
    for t in int_conditions:
        if embed is None:
            conds.append(list(t))
        else:
            conds.append([sum_prod(row, t, field) for row in embed])
    rows = _hnf(base, space_dim, conds)
    if len(rows) < space_dim:
        raise RankError("solution set is not a lattice (free directions)")
    emat = [list(r) for r in rows]
    einv = linalg.mat_inv(emat, field)
    basis = [[einv[r][c] for r in range(space_dim)] for c in range(space_dim)]
    if embed is not None:
        basis = [linalg.vec_mat(b, embed) for b in basis]
    return span(base, dim, basis)


def sum_prod(u, v, field):
    s = field.zero()
    for a, b in zip(u, v):
        if a and b:
            s = s + a * b
    return s


def intersect(x, y):
    if x is ZERO_MODULE or y is ZERO_MODULE:
        return ZERO_MODULE
    _check_compatible(x, y)
    field = x.base.field
    if x.full and y.full:
        xi = linalg.mat_inv([list(r) for r in x.rows], field)
        yi = linalg.mat_inv([list(r) for r in y.rows], field)
        conds = []
        for mat in (xi, yi):
            for c in range(x.dim):
                conds.append([mat[r][c] for r in range(x.dim)])
        out = solve_dual(x.base, x.dim, conds)
    else:
        # common K-span first
        stacked = [list(r) for r in x.rows] + [list(r) for r in y.rows]
        null = linalg.left_nullspace(stacked, field)
        span_vecs = []
        for u in null:
            vec = linalg.vec_mat(u[:x.rank], [list(r) for r in x.rows])
            span_vecs.append(vec)
        sbasis, _ = linalg.rref(span_vecs, field) if span_vecs else ([], [])
        if not sbasis:
            return zero_lattice(x.base, x.dim)
        conds = []
        for lat in (x, y):
            qmat, resid = _coords_matrix(sbasis, lat)
            assert not resid, "intersection basis outside span"
            for i in range(lat.rank):
                conds.append([qmat[s][i] for s in range(len(sbasis))])
        z = solve_dual(x.base, len(sbasis), conds)
        vecs = [linalg.vec_mat(r, sbasis) for r in z.rows]
        out = span(x.base, x.dim, vecs)
    if out.rank == 0:
        return zero_lattice(x.base, x.dim)
    return out


def _coords_matrix(vectors, lat):
    """Reduce each vector against lat's echelon rows.

    Returns (Q, residual_columns): Q[i] = coordinates of vectors[i] in
    lat's basis; residual_columns is a list of condition vectors t (length
    len(vectors)) that must vanish for the vectors to lie in lat's K-span,
    expressed as functionals on the coefficient vector of a generic
    K-combination of `vectors`.
    """
    work = [list(v) for v in vectors]
    Q = [[] for _ in vectors]
    for row in lat.rows:
        c = next(i for i, e in enumerate(row) if e)
        for s, w in enumerate(work):
            q = w[c] / row[c]
            Q[s].append(q)
            if q:
                work[s] = [a - q * b for a, b in zip(w, row)]
    residual = []
    for col in range(lat.dim):
        t = [work[s][col] for s in range(len(vectors))]
        if any(t):
            residual.append(t)
    return Q, residual


def mult(x, y, alg):
    """Lattice spanned by all products of basis elements under the algebra
    multiplication."""
    if x is ZERO_MODULE or y is ZERO_MODULE:
        return ZERO_MODULE
    _check_compatible(x, y)
    if x.dim != alg.dim:
        raise BaseMismatchError("lattice ambient does not match the algebra")
    field = x.base.field
    prods = [alg.mul_coords(u, w, field) for u in x.rows for w in y.rows]
    out = span(x.base, x.dim, prods)
    return ZERO_MODULE if out.rank == 0 else out


def colon_left(x, y, alg):
    """{a in A : a*Y subset X} as a lattice (left colon)."""
    return _colon(x, y, alg, side="left")


def colon_right(x, y, alg):
    """{a in A : Y*a subset X}."""
    return _colon(x, y, alg, side="right")


def _colon(x, y, alg, side):
    if y is ZERO_MODULE:
        raise RankError("colon by the zero module is not a lattice")
    if x is ZERO_MODULE:
        x = zero_lattice(y.base, y.dim)
    _check_compatible(x, y)
    base, dim, field = x.base, x.dim, x.base.field
    int_conds = []
    zero_conds = []
    for w in y.rows:
        prods = []
        for s in range(dim):
            e_s = alg.basis_vector(s, field)
            prods.append(alg.mul_coords(e_s, w, field) if side == "left"
                         else alg.mul_coords(w, e_s, field))
        Q, residual = _coords_matrix(prods, x)
        for i in range(x.rank):
            int_conds.append([Q[s][i] for s in range(dim)])
        zero_conds.extend(residual)
    return solve_dual(base, dim, int_conds, zero_conds)


def quotient_length(x, y):
    """Length of X/Y as an R-module; requires Y subset X with equal K-span."""
    if y is ZERO_MODULE:
        if x is ZERO_MODULE:
            return 0
        raise ContainmentError("X/Y has infinite length: Y spans less than X")
    if x is ZERO_MODULE:
        raise ContainmentError("Y is not contained in X")
    _check_compatible(x, y)
    field = x.base.field
    Q, residual = _coords_matrix([list(r) for r in y.rows], x)
    if residual or x.rank != y.rank:
        raise ContainmentError("Y is not contained in X with equal span")
    for row in Q:
        for q in row:
            if not x.base.is_integral(q):
                raise ContainmentError("Y is not contained in X")
    d = linalg.det(Q, field)
    return sum(v(d) for v in x.base.valuations)


# ---------------------------------------------------------------------------
# simplicity of quotients
# ---------------------------------------------------------------------------

def _module_checks(x, y, b, alg):
    if x is ZERO_MODULE:
        if y is not ZERO_MODULE:
            raise ContainmentError("Y is not contained in X")
        return
    if not x.contains(y):
        raise ContainmentError("Y is not contained in X")
    if not x.contains(mult(b, x, alg)):
        raise ContainmentError("X is not a left module over the given order")
    if y is not ZERO_MODULE and not y.contains(mult(b, y, alg)):
        raise ContainmentError("Y is not a left module over the given order")


def _killing_prime(x, y):
    """Index j with p_j * X inside Y, or None."""
    for j, pi in enumerate(x.base.uniformizers):
        if y.contains(x.scale(pi)):
            return j
    return None


class _QuotientSpace:
    """X/Y as a vector space over the residue field of one maximal ideal,
    with the left action of an order."""

    def __init__(self, x, y, b, alg, j):
        base = x.base
        v = base.valuations[j]
        self.res_field = v.residue_field()
        self.v = v
        field = base.field
        k = x.rank
        Q, _ = _coords_matrix([list(r) for r in y.rows], x)
        tbar = [[v.residue(e) if e else self.res_field.zero() for e in row]
                for row in Q]
        self.img_rows, self.img_pivots = linalg.rref(tbar, self.res_field)
        self.k = k
        self.free = [c for c in range(k) if c not in self.img_pivots]
        self.dim = len(self.free)
        # action matrices of the order basis, in X-coordinates mod p
        self.actions = []
        for brow in b.rows:
            mat = []
            for xrow in x.rows:
                prod = alg.mul_coords(brow, xrow, field)
                cs = x.coords(prod)
                mat.append([v.residue(e) if e else self.res_field.zero()
                            for e in cs])
            self.actions.append(mat)

    def project(self, vec):
        """Image of a length-k residue vector in the quotient coordinates."""
        w = list(vec)
        for row, p in zip(self.img_rows, self.img_pivots):
            q = w[p]
            if q:
                w = [a - q * bb for a, bb in zip(w, row)]
        return [w[c] for c in self.free]

    def lift_free(self, qvec):
        w = [self.res_field.zero()] * self.k
        for c, val in zip(self.free, qvec):
            w[c] = val
        return w

    def act(self, s, vec_k):
        """Action of order basis element s on a length-k residue vector."""
        return linalg.vec_mat(vec_k, self.actions[s])

    def cyclic_span_is_all(self, qvec):
        w = self.lift_free(qvec)
        imgs = [self.project(self.act(s, w)) for s in range(len(self.actions))]
        rows, _ = linalg.rref([r for r in imgs if any(r)], self.res_field) \
            if any(any(r) for r in imgs) else ([], [])
        return len(rows) == self.dim

    def enumerate_directions(self, cap=8192):
        """Projectively normalized nonzero vectors of the quotient."""
        fld = self.res_field
        if fld.kind == "FP":
            elems = [fld.from_int(n) for n in range(fld.p)]
        elif fld.kind == "FP2":
            elems = [FieldElem(fld, (a, bb))
                     for a in range(fld.p) for bb in range(fld.p)]
        else:
            raise UnsupportedError(
                f"cannot enumerate the infinite residue field {fld.name}")
        m = self.dim
        total = (len(elems) ** m - 1) // (len(elems) - 1)
        if total > cap:
            raise UnsupportedError(
                f"quotient has {total} directions, over the bound {cap}")
        one = fld.one()
        zero = fld.zero()

        def rec(prefix, started):
            i = len(prefix)
            if i == m:
                if started:
                    yield list(prefix)
                return
            if not started:
                yield from rec(prefix + [zero], False)
                yield from rec(prefix + [one], True)
            else:
                for e in elems:
                    yield from rec(prefix + [e], True)

        yield from rec([], False)


def is_simple_quotient(x, y, b, alg):
    """True iff X/Y is a simple left module over the order B.

    Decided exactly: X strictly contains Y, the quotient is killed by one
    maximal ideal p (otherwise some p(X/Y) is a proper nonzero submodule),
    and every nonzero vector of the residue quotient generates it under the
    order action (full projective enumeration over the finite residue
    field; dimension-1 quotients are simple outright).
    """
    _module_checks(x, y, b, alg)
    if y is ZERO_MODULE:
        return False if x is ZERO_MODULE else _is_simple_vs_zero(x, b, alg)
    if x == y:
        return False
    j = _killing_prime(x, y)
    if j is None:
        return False
    V = _QuotientSpace(x, y, b, alg, j)
    if V.dim == 0:
        return False
    if V.dim == 1:
        return True
    # quick rejection on basis vectors, then exhaustive confirmation
    fld = V.res_field
    for c in range(V.dim):
        qvec = [fld.one() if i == c else fld.zero() for i in range(V.dim)]
        if not V.cyclic_span_is_all(qvec):
            return False
    for qvec in V.enumerate_directions():
        if not V.cyclic_span_is_all(qvec):
            return False
    return True


def _is_simple_vs_zero(x, b, alg):
    # X/0 is simple iff X is a simple B-module; X is torsion-free of
    # positive rank, so p*X is always a proper nonzero submodule
    return False


def intermediate_module(x, y, b, alg):
    """A B-submodule strictly between X and Y, or None when X/Y is simple
    (or zero).  Used to manufacture reducibility witnesses."""
    _module_checks(x, y, b, alg)
    if x == y or y is ZERO_MODULE:
        if y is ZERO_MODULE and x is not ZERO_MODULE:
            w = x.scale(x.base.uniformizers[0])
            return w
        return None
    j = _killing_prime(x, y)
    if j is None:
        for pi in x.base.uniformizers:
            w = add(x.scale(pi), y)
            if w != y and w != x:
                return w
        return None  # pragma: no cover
    V = _QuotientSpace(x, y, b, alg, j)
    if V.dim <= 1:
        return None
    fld = V.res_field
    candidates = []
    for c in range(V.dim):
        candidates.append([fld.one() if i == c else fld.zero()
                           for i in range(V.dim)])
    gen = None
    for qvec in candidates:
        if not V.cyclic_span_is_all(qvec):
            gen = qvec
            break
    if gen is None:
        for qvec in V.enumerate_directions():
            if not V.cyclic_span_is_all(qvec):
                gen = qvec
                break
    if gen is None:
        return None
    # lift the failing direction to an element of X and take B*elt + Y
    w = V.lift_free(gen)
    field = x.base.field
    lift_vec = [field.zero()] * x.dim
    for s, r in enumerate(w):
        if r:
            coeff = V.v.lift(r)
            lift_vec = [a + coeff * e for a, e in zip(lift_vec, x.rows[s])]
    cyc = mult(b, span(x.base, x.dim, [lift_vec]), alg)
    w_mod = add(cyc, y)
    if x.contains(w_mod) and w_mod != x and w_mod != y:
        return w_mod
    return None  # pragma: no cover - defensive


# ---------------------------------------------------------------------------
# fractional ideals (d = 1 fast path)
# ---------------------------------------------------------------------------

class FracIdeal:
    """Product of maximal-ideal powers of the base ring, by exponent vector."""

    __slots__ = ("base", "exps")

    def __init__(self, base, exps):
        exps = tuple(int(e) for e in exps)
        if len(exps) != base.nprimes:
            raise BaseMismatchError("exponent vector length mismatch")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exps", exps)

    def __setattr__(self, *a):
        raise AttributeError("FracIdeal is immutable")

    def generator(self):
        return self.base.from_exponents(self.exps)

    def mul(self, other):
        self._chk(other)
        return FracIdeal(self.base,
                         tuple(a + b for a, b in zip(self.exps, other.exps)))

    def pow(self, k):
        return FracIdeal(self.base, tuple(a * k for a in self.exps))

    def inverse(self):
        return self.pow(-1)

    def add(self, other):
        self._chk(other)
        return FracIdeal(self.base,
                         tuple(min(a, b) for a, b in zip(self.exps, other.exps)))

    def intersect(self, other):
        self._chk(other)
        return FracIdeal(self.base,
                         tuple(max(a, b) for a, b in zip(self.exps, other.exps)))

    def contains(self, other):
        if other is ZERO_MODULE:
            return True
        self._chk(other)
        return all(b >= a for a, b in zip(self.exps, other.exps))

    def is_unit_ideal(self):
        return all(e == 0 for e in self.exps)

    def to_lattice(self):
        return span(self.base, 1, [[self.generator()]])

    def _chk(self, other):
        if other.base is not self.base:
            raise BaseMismatchError("fractional ideals over different bases")

    def __eq__(self, other):
        if not isinstance(other, FracIdeal):
            return NotImplemented
        return self.base is other.base and self.exps == other.exps

    def __hash__(self):
        return hash((self.base, self.exps))

    def __repr__(self):
        return f"FracIdeal{self.exps}"
