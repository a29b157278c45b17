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
digits at each maximal ideal).

The kernel has one body, with the ring as a parameter (`BaseRing.ring`,
from `fields.pid_ring`, which the field alone chooses): Z_(S) over Q on
ints, F_p[x]_(S) and Q[x]_(S) over F_p(x) and Q(x) on polynomials, and
over Q(i) and Q(x,y) R given by its valuations, on field elements.  A lattice
keeps one store, on the ring: its canonical rows as numerators over one
denominator in lowest terms with the ring's canonical unit, and the pivot
columns (`Lattice.store`).  Equal modules have identical stores, so
equality is syntactic.  Vectors from outside enter the ring once, through
its `int_row` (`span`, `solve_dual`, `coords`, `contains_vector`), and
field elements are built only at the boundary (`Lattice.rows`, `coords`).
The normal form `_hnf`, products, duals, colons, intersections and
membership compute on the ring's elements, from the stores and the inverse
pivot block each root caches with its null forms (`_inverse`), which span
the vectors orthogonal to the rows: every null space is read off a normal
form, so `_hnf` is the one elimination on the ring.  So do the quotient
spaces of the simplicity test up to the residues, which the ring reads off
into the residue field's reps (`_QuotientSpace`).  Inside a memo scope,
containment between different roots is decided by a shift bound per pair
of primitive parts (`Lattice.contains`, `_shift_bound`).

Full (rank d) lattices model orders, two-sided ideals and filtration
levels; lower-rank modules appear as levels of chains inside a proper left
ideal of the algebra.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from math import lcm
from operator import mul

from . import fields, linalg
from .errors import (BaseMismatchError, ContainmentError, RankError,
                     SpecValidationError, UnsupportedError)

__all__ = [
    "BaseRing", "AlgebraDesc", "matrix_algebra", "quaternion_algebra",
    "Lattice", "FracIdeal", "ZERO_MODULE",
    "span", "canonicalize", "add", "intersect", "mult",
    "colon_left", "colon_right", "quotient_length", "is_simple_quotient",
    "intermediate_module", "solve_dual", "memo_scope",
]

# the direction search of a quotient X/Y that the rank test leaves open
# (`_QuotientSpace`) stops with UnsupportedError past this many directions
DIRECTION_BOUND = 8192
# the largest n of a matrix algebra M_n: lattices in K^(n^2), and M_6's
# maximal order over Z_(5) takes about 1 s to build and check
MAX_MATRIX_N = 6


def require_int(value):
    """The value, whose type must be int, as in the gbs/1 decoder: a float
    or a bool is rejected, not truncated."""
    if type(value) is not int:
        raise SpecValidationError(f"expected an integer, got {value!r}")
    return value


class _ZeroModule:
    """The zero module, the null level of every glider chain.

    Levels (`FracIdeal`, `Lattice` and this object) answer one protocol:
    `contains`, `==`, `add`, `scale_ideal` and `scale`.  The zero module
    contains only itself, adds as the identity and scales to itself; it
    equals only itself (identity equality).
    """

    _inst = None

    def __new__(cls):
        if cls._inst is None:
            cls._inst = super().__new__(cls)
        return cls._inst

    def contains(self, other):
        return other is self

    def add(self, other):
        return other

    def scale_ideal(self, ideal):
        return self

    def scale(self, x):
        return self

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
        inst._check_uniformizers()
        inst._gen_cache, inst._ring_powers = {}, {}
        # the reps of the field, through which vectors enter the ring
        inst.scalars = field.reps
        # Z_(S), F_p[x]_(S), Q[x]_(S) or R given by its valuations: the
        # ring whose elements the kernel reduces lattices on
        inst.ring = fields.pid_ring(field, valuations)
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

    def _check_uniformizers(self):
        """Each uniformizer is a unit at every other valuation: distinct
        names of one prime (v_(1+i) and v_(1-i)) are rejected here."""
        for j, pi in enumerate(self.uniformizers):
            for k, v in enumerate(self.valuations):
                if k != j and v(pi) != 0:
                    raise SpecValidationError(
                        f"{self.valuations[j].name} and {v.name} are one "
                        "prime: its uniformizer is not a unit at the other")

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

    def prime_powers(self, exps):
        """(tn, td) with p^exps = tn / td for the ring's primes p: the
        products of the powers p^e over e > 0 and of p^-e over e < 0."""
        out = self._ring_powers.get(exps)
        if out is None:
            out = [self.ring.one] * 2
            for p, e in zip(self.ring.primes, exps):
                for _ in range(abs(e)):
                    out[e < 0] = out[e < 0] * p
            out = self._ring_powers[exps] = tuple(out)
        return out

    def reduce_mod(self, u, g):
        """Canonical representative of the coset u + g*R: g times the sum
        of the canonical principal parts of u/g at each maximal ideal.  u,
        g and the result are fractions (n, d) of elements of `ring`."""
        return self.ring.reduce_mod(u, g)

    def mix_coefficient(self, va, vb):
        """c in `ring` with the values of a + c*b the componentwise minimum
        of va and vb, the values of a and b: c is the product of the primes
        where they tie.  There c*b gains a factor, so a dominates;
        elsewhere c is a unit and the values already differ."""
        ring = self.ring
        c = ring.one
        for p, s, t in zip(ring.primes, va, vb):
            if s == t:
                c = c * p
        return c

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
    constants are rational and built, not checked: `matrix_algebra` and
    `quaternion_algebra` check the only inputs (1 <= n <= MAX_MATRIX_N;
    nonzero rational a and b), and the tables are associative with unit
    `one_coords` and centre the scalars by construction
    (`tests/test_structure_constants.py` proves it on samples).
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

    # -- coordinate products -------------------------------------------------

    def _field_table(self, field):
        cache = getattr(self, "_ftables", None)
        if cache is None:
            cache = {}
            self._ftables = cache
        tbl = cache.get(field)
        if tbl is None:
            # per left index s, the (t, entries) of the pairs with a product
            tbl = [[] for _ in range(self.dim)]
            for (s, t), entries in sorted(self._table.items()):
                tbl[s].append((t, tuple(
                    (uu, None if c == 1 else field.from_fraction(c))
                    for uu, c in entries)))
            cache[field] = tbl
        return tbl

    def mul_coords(self, u, w, field):
        """Product of two coordinate vectors of elements of `field`, or of
        Q's reps when `field` is `QQ_FIELD.reps`; the kernel's products
        run on the ring (`ring_products`)."""
        tbl = self._field_table(field)
        out = [field.zero()] * self.dim
        for s, cs in enumerate(u):
            if not cs:
                continue
            for t, entries in tbl[s]:
                ct = w[t]
                if not ct:
                    continue
                prod = cs * ct
                for uu, c in entries:
                    out[uu] = out[uu] + (prod if c is None else prod * c)
        return out

    def _ring_table(self, base):
        """(table, den): per basis index s, the (t, u, c) of the products
        e_s e_t with coefficient c/den at u, for c and den elements of the
        base's ring: den is the least common denominator of the structure
        constants, and c is None where it equals 1."""
        cache = self.__dict__.setdefault("_rtables", {})
        tbl = cache.get(base)
        if tbl is None:
            ring, k = base.ring, base.scalars
            den = lcm(*[c.denominator for entries in self._table.values()
                        for _, c in entries])

            def lift(c):
                return ring.int_row([k.from_fraction(c * den)])[0][0]

            table = [[] for _ in range(self.dim)]
            for (s, t), entries in sorted(self._table.items()):
                table[s] += [(t, u, None if c * den == 1 else lift(c))
                             for u, c in entries]
            tbl = cache[base] = (table, lift(Fraction(1)))
        return tbl

    def ring_products(self, us, ws, base):
        """(prods, den): the products u w of the rows u in us and w in ws,
        rows of elements of the base's ring, u-major, are prods[i] / den,
        by the structure constants of `_ring_table`.  One body for every
        algebra."""
        table, den = self._ring_table(base)
        zero = base.ring.zero
        prods = []
        for u in us:
            for w in ws:
                out = [zero] * self.dim
                for s, a in enumerate(u):
                    if a:
                        for t, i, c in table[s]:
                            b = w[t]
                            if b:
                                ab = a * b
                                out[i] = out[i] + (ab if c is None
                                                   else ab * c)
                prods.append(out)
        return prods, den

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
    if not 1 <= require_int(n) <= MAX_MATRIX_N:
        raise SpecValidationError(
            f"matrix algebra needs 1 <= n <= {MAX_MATRIX_N}, got {n}")
    return AlgebraDesc("matrix", n=n)


def quaternion_algebra(a, b):
    a, b = fields.require_rational(a), fields.require_rational(b)
    if a == 0 or b == 0:
        raise SpecValidationError("quaternion parameters must be nonzero")
    return AlgebraDesc("quaternion", a=a, b=b)


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------

class Lattice:
    """Canonical-form R-module in K^d, stored once, on the base's ring.

    The store is (nums, den, pivots): the canonical rows are nums[i] / den,
    rows of elements of `base.ring` over one denominator in lowest terms,
    with the ring's canonical unit (`lowest_terms`), and pivots are their
    pivot columns.  Equal modules have identical stores, so `==` and the
    hash compare stores.  `rows` is the view for code outside the kernel:
    the same rows as field elements, built on first read.

    A lattice also carries a scale presentation self = pi^exps * root.
    `scale`, `scale_ideal` and the memo results of `mult` and `_colon`
    record the root they multiply and the exponents; a lattice from `span`
    is its own root with exponents 0.  The store stays the authoritative
    content: that of a scaled lattice is the root's store times a product
    of the ring's prime powers (which keeps the rows canonical), brought to
    lowest terms on first read.  Two lattices on one root compare by
    exponents: pi^b P lies in pi^a P iff b >= a componentwise, their sum is
    pi^min(a,b) P and their intersection pi^max(a,b) P.
    """

    __slots__ = ("base", "dim", "_store", "_root", "exps", "_hash",
                 "_primitive", "_rows", "_inv")

    def __init__(self, base, dim, store, _canonical=False, _root=None,
                 _exps=None):
        if not _canonical:
            raise RankError("use span()/canonicalize() to build lattices")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_store", store)
        object.__setattr__(self, "_root", _root)
        object.__setattr__(self, "exps",
                           (0,) * base.nprimes if _exps is None else _exps)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_primitive", None)
        object.__setattr__(self, "_rows", None)
        object.__setattr__(self, "_inv", None)

    def __setattr__(self, *a):
        raise AttributeError("Lattice is immutable")

    @property
    def store(self):
        """(nums, den, pivots), the canonical rows on the ring."""
        store = self._store
        if store is None:
            nums, den = _ring_rows(self)
            store = (*self.base.ring.lowest_terms([(r, den) for r in nums]),
                     self._root.store[2])
            object.__setattr__(self, "_store", store)
        return store

    @property
    def rows(self):
        """The canonical rows as field elements."""
        rows = self._rows
        if rows is None:
            nums, den, _ = self.store
            ring, k = self.base.ring, self.base.scalars
            rows = tuple([k.wrap_row(ring.rat_row(r, den)) for r in nums])
            object.__setattr__(self, "_rows", rows)
        return rows

    @property
    def root(self):
        return self if self._root is None else self._root

    @property
    def rank(self):
        return len(self.root.store[2])

    @property
    def full(self):
        return self.rank == self.dim

    # -- membership ----------------------------------------------------------

    def coords(self, vec):
        """Coordinates of vec in the canonical basis over K, or None if vec
        is outside the K-span."""
        k, ring = self.base.scalars, self.base.ring
        a, e = ring.int_row(k.unwrap_row(vec))
        (q,), d, null = _ring_coords(self, [a], e)
        return None if any(t[0] for t in null) else \
            list(k.wrap_row(ring.rat_row(q, d)))

    def contains_vector(self, vec):
        a, e = self.base.ring.int_row(self.base.scalars.unwrap_row(vec))
        return _ring_holds(self, [a], e)

    def contains(self, other):
        """Whether other lies in self.  On one root the exponents decide;
        inside a memo scope, the shift bound of the primitive parts
        (`_shift_bound`, once per pair and scope)."""
        if other is ZERO_MODULE:
            return True
        _check_compatible(self, other)
        if self.root is other.root:
            return not self.rank or all(
                a <= b for a, b in zip(self.exps, other.exps))
        memo = _MEMO.memo
        if memo is None:
            return _ring_holds(self, *_ring_rows(other))
        (p, a), (q, b) = self.primitive(), other.primitive()
        key = ("contains", p, q)
        mu = memo.get(key, key)
        if mu is key:
            mu = memo[key] = _shift_bound(p, q)
        return mu is not None and all(
            t - s >= m for s, t, m in zip(a, b, mu))

    # -- scale presentation --------------------------------------------------

    def scale(self, x):
        """x * L = pi^v(x) * L for a nonzero field element x with values
        v(x): the module absorbs the unit part of x."""
        if not x:
            raise SpecValidationError("scaling a lattice by zero")
        return self.scale_exponents(self.base.val_vector(x))

    def scale_ideal(self, ideal):
        return self.scale_exponents(ideal.exps)

    def add(self, other):
        if other is ZERO_MODULE:
            return self
        _check_compatible(self, other)
        if self.root is other.root:
            return _on_root(self, other, min)
        rows = []
        for lat in (self, other):
            nums, den = _ring_rows(lat)
            rows += [(r, den) for r in nums]
        return _ring_span(self.base, self.dim, rows)

    def scale_exponents(self, exps):
        """pi^exps * L, presented on the root of L."""
        if not any(exps):
            return self
        return Lattice(self.base, self.dim, None, _canonical=True,
                       _root=self.root,
                       _exps=tuple(a + b for a, b in zip(self.exps, exps)))

    def primitive(self):
        """(Q, f) with self = pi^f * Q, where Q is the root divided by the
        largest uniformizer power dividing all of its entries: lattices
        that differ by a central scalar have equal Q.  One pass over the
        values of the root's numerators, cached on the root."""
        root = self.root
        q = root._primitive
        if q is None:
            ring, (nums, den, _) = root.base.ring, root.store
            vals = [ring.val(e) for row in nums for e in row if e]
            q = root.scale_exponents(tuple(
                t - min(v) for v, t in zip(zip(*vals), ring.val(den)))) \
                if vals else root
            object.__setattr__(root, "_primitive", q)
        return q, tuple(a - b for a, b in zip(self.exps, q.exps))

    def __eq__(self, other):
        if not isinstance(other, Lattice):
            return NotImplemented
        if self.root is other.root:
            return self.exps == other.exps or not self.rank
        return (self.base is other.base and self.dim == other.dim
                and self.store == other.store)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.base, self.dim, self.store))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        rws = "; ".join(",".join(str(e) for e in row) for row in self.rows)
        return f"Lattice[{rws}]"


def _check_compatible(x, y):
    if x.base is not y.base:
        raise BaseMismatchError("lattices over different base rings")
    if x.dim != y.dim:
        raise BaseMismatchError("lattices in different ambient dimensions")


# The kernel over R (`BaseRing.ring`), whose elements (ints, polynomials
# or field elements) answer * - // ==.  While rows are eliminated they only
# generate the module, so a row may be multiplied by a unit of R: the
# working rows are lists of elements over one denominator D, a product of
# the primes.

def _drop_unit(ring, nums):
    """The nonzero row nums divided by the unit part of its content."""
    g = ring.gcd(*nums)
    if g != ring.one:
        u = ring.split(g)[1]
        if u != ring.one:
            return [a // u for a in nums]
    return nums


def _hnf(base, dim, vectors):
    """Canonical Hermite-style normal form of the rows (nums, d), each the
    vector nums / d of elements of the base's ring: the store (nums, den,
    pivots) of `Lattice`.  One body for every ring (Cohen, GTM 138,
    section 2.4).  A row nums/d times the unit part of d is nums/s, s the
    prime part of d, so the rows are cleared to lists of ring elements over
    one denominator D, the lcm of the s.  A pivot is made by a unit
    multiplier, u*row_i - t*row_piv with s*u the pivot entry, s its prime
    part and t = a_i / s exact, instead of a field division; rows are
    mixed until a candidate attains the componentwise-minimum values
    (`BaseRing.mix_coefficient`), and each candidate's values (`ring.val`)
    are read once per column.  A row's content is divided out only where
    it has a unit part (`_drop_unit`).  The pivot row divided by u is the
    pivot row over D u.  Back-substitution runs bottom-up with
    `BaseRing.reduce_mod` on fractions of ring elements: each row is
    reduced modulo the pivots s/D below it, in column order, by rows
    already reduced and gcd-normalised, so no row takes on the unit of a
    later pivot.  The order leaves the store unchanged: two rows reduced
    at the later pivots differ by a combination of the later rows, whose
    first nonzero coefficient would make them two unequal canonical
    representatives of one coset.  The ring's `lowest_terms` puts the rows
    over their canonical denominator."""
    ring = base.ring
    work, dens, den, last = [], [], ring.one, None
    for nums, d in vectors:
        if len(nums) != dim:
            raise BaseMismatchError("generator of wrong length")
        if any(nums):
            # rows built together (products, conditions) share one d
            if d is not last:
                last, s = d, ring.split(d)[0]
            if s != den:
                den = den // ring.gcd(den, s) * s
            work.append(nums)
            dens.append(s)
    work = [nums if s == den else [a * (den // s) for a in nums]
            for nums, s in zip(work, dens)]
    result = []
    for col in range(dim):
        cand = [r for r in work if r[col]]
        if not cand:
            continue
        # mix until some candidate attains the componentwise-min valuation;
        # a lone candidate is the pivot
        piv = 0
        vecs = [ring.val(r[col]) for r in cand] if cand[1:] else None
        while vecs:
            vmin = tuple(map(min, *vecs))
            if vmin in vecs:
                piv = vecs.index(vmin)
                break
            i0 = max(range(len(cand)), key=lambda i: sum(
                1 for a, b in zip(vecs[i], vmin) if a == b))
            j = next(j for j, (a, b) in enumerate(zip(vecs[i0], vmin))
                     if a > b)
            i1 = next(i for i, v in enumerate(vecs) if v[j] == vmin[j])
            c = base.mix_coefficient(vecs[i0], vecs[i1])
            nums = [a + c * b for a, b in zip(cand[i0], cand[i1])]
            vecs[i0] = tuple(map(min, vecs[i0], vecs[i1]))
            if not nums[col] or ring.val(nums[col]) != vecs[i0]:
                raise UnsupportedError(
                    "mixing coefficient missed the componentwise minimum "
                    "valuation")
            cand[i0] = _drop_unit(ring, nums)
        prow = cand[piv]
        s, u = ring.split(prow[col])
        work = [r for r in work if not r[col]]
        for i, row in enumerate(cand):
            if i != piv:
                # a = t s, and u*row_i - t*row_piv is 0 at col
                t = row[col] // s
                row = [u * x - t * y for x, y in zip(row, prow)]
                if any(row):
                    work.append(_drop_unit(ring, row))
        # divide by the unit u: the pivot becomes s, a product of prime
        # powers, over D
        result.append((col, prow, den * u, s))
    # reduce entries above each pivot to canonical coset representatives,
    # bottom-up: row j by the canonical rows below it, in column order
    for rj in range(len(result) - 2, -1, -1):
        col, nums, d, s = result[rj]
        for pcol, pnums, pd, ps in result[rj + 1:]:
            a = nums[pcol]
            if not a:
                continue
            rn, rd = base.reduce_mod((a, d), (ps, den))
            # row_j - q*prow with q = (a/d - rn/rd) / g and g = gp/pd = ps/D
            c = a * rd - rn * d
            if c:
                gp = pnums[pcol]
                nums = [x * rd * gp - c * y for x, y in zip(nums, pnums)]
                d = d * rd * gp
                k = ring.gcd(d, *nums)
                if k != ring.one:
                    nums, d = [x // k for x in nums], d // k
        result[rj] = (col, nums, d, s)
    nums, den = ring.lowest_terms([(nums, d) for _, nums, d, _ in result])
    return nums, den, tuple([col for col, _, _, _ in result])


def span(base, dim, vectors):
    """The R-module generated by the vectors (of field elements or kernel
    scalars), in canonical form.  Any rank.  Each vector enters the ring
    through `int_row`."""
    k, ring = base.scalars, base.ring
    return _ring_span(base, dim,
                      [ring.int_row(k.unwrap_row(v)) for v in vectors])


def _ring_span(base, dim, rows):
    """`span` of rows (nums, d) on the ring."""
    return Lattice(base, dim, _hnf(base, dim, rows), _canonical=True)


def canonicalize(base, dim, vectors):
    """Spec entry point: generators must span a full lattice in K^d."""
    lat = span(base, dim, vectors)
    if not lat.full:
        raise RankError(
            f"generators span rank {lat.rank} < {dim}: not a full lattice")
    return lat


def zero_lattice(base, dim):
    return Lattice(base, dim, ((), base.ring.one, ()), _canonical=True)


def add(x, y):
    """x + y for lattices and the zero module."""
    return x.add(y)


def _on_root(x, y, pick):
    """pi^pick(a,b) P for x = pi^a P and y = pi^b P."""
    exps = tuple(map(pick, x.exps, y.exps))
    if exps == x.exps:
        return x
    if exps == y.exps:
        return y
    return x.root.scale_exponents(exps)


# ---------------------------------------------------------------------------
# the kernel on the elements of the ring
# ---------------------------------------------------------------------------
#
# Duals, colons, intersections, membership and coordinates compute on the
# elements of the ring (`BaseRing.ring`), from the stores, as the normal
# form does.  A lattice root caches one derived value on first need, the
# inverse of its pivot block with its null forms (`_inverse`): canonical
# rows are echelon, so the block is triangular, and its pivots are
# nonzero, so back-substitution inverts it with exact divisions.  The null
# forms are a K-basis of the vectors orthogonal to the rows, so a null
# space is the normal form of the rows and its `_inverse`, and no second
# elimination runs on the ring.  A scaled lattice pi^e P reads the store
# and the inverse of its root P and the factor pi^e.

def _inverse(lat):
    """(inv, inv_den, null) of lat's root, computed on first need and
    cached there: column j of the inverse of the pivot block is
    inv[j] / inv_den (rows 0..j; the rest are zero), and per free column a
    null form, a vector n of ring elements with rows . n = 0, so that a
    vector lies in the K-span of the rows iff it is orthogonal to every
    null form."""
    root = lat.root
    if root._inv is not None:
        return root._inv
    ring, dim, (nums, den, cols) = root.base.ring, root.dim, root.store
    zero = ring.zero
    diag = [row[c] for row, c in zip(nums, cols)]
    det = ring.one
    for p in diag:
        det = det * p
    # the adjugate det * N^-1 of the upper triangular pivot block N,
    # column by column from the diagonal up: N adj = det I gives
    # adj[i][j] = -(sum_{i<k<=j} N[i][k] adj[k][j]) / N[i][i], a quotient
    # in the ring, so the division is exact
    adj = []
    for j in range(len(cols)):
        col = [zero] * j + [det // diag[j]]
        for i in reversed(range(j)):
            row = nums[i]
            s = zero
            for k in range(i + 1, j + 1):
                if row[cols[k]] and col[k]:
                    s = s + row[cols[k]] * col[k]
            col[i] = -s // diag[i]
        adj.append(col)
    # the pivot block of the rows is N / den, so its inverse is
    # den * adj / det, here in lowest terms up to a unit
    g = ring.gcd(det, *[a for col in adj for a in col])
    h = ring.gcd(det // g, den)
    f = den // h
    inv = [[a // g * f for a in col] for col in adj]
    inv_den = det // g // h
    # per free column c: 1 at c and -P^-1 (rows' column c) at the pivots,
    # times inv_den * den
    null = []
    for c in range(dim):
        if c not in cols:
            n = [zero] * dim
            n[c] = inv_den * den
            for j, col in enumerate(inv):
                t = nums[j][c]
                if t:
                    for i in range(j + 1):
                        n[cols[i]] = n[cols[i]] - col[i] * t
            g = ring.gcd(*n)
            null.append(n if g == ring.one else [a // g for a in n])
    object.__setattr__(root, "_inv", (inv, inv_den, null))
    return root._inv


def _ring_rows(lat):
    """lat's rows on its ring: (numerator rows, one denominator), its
    store's once that is built."""
    store = lat._store
    if store is not None:
        return store[0], store[1]
    nums, den, _ = lat._root.store
    tn, td = lat.base.prime_powers(lat.exps)
    if tn != lat.base.ring.one:
        nums = [[a * tn for a in row] for row in nums]
    return nums, den * td


def _ring_coords(lat, vecs, e):
    """The coordinates of the vectors vecs / e (rows of ring elements) in
    lat's basis, as (numerator rows, one denominator), and per null form
    of lat its values on the vectors (all zero iff they lie in the K-span
    of lat).  Over the pivot columns the coordinates are v_c P^-1 / t for
    the pivot block P of the root and lat = t * root."""
    ring = lat.base.ring
    inv, inv_den, nulls = _inverse(lat)
    cols, zero = lat.root.store[2], ring.zero
    tn, td = lat.base.prime_powers(lat.exps)
    Q = []
    for v in vecs:
        a = [v[c] for c in cols]
        q = [sum(map(mul, a, col), zero) for col in inv]
        Q.append(q if td == ring.one else [x * td for x in q])
    null = [[sum(map(mul, v, n), zero) for v in vecs] for n in nulls]
    return Q, e * inv_den * tn, null


def _ring_integral(ring, Q, d):
    """Whether every entry of the rows Q / d lies in R: the part of d at
    the primes divides each numerator."""
    s = ring.split(d)[0]
    return all(ring.divides(s, x) for q in Q for x in q)


def _ring_holds(lat, vecs, e):
    """Whether lat holds every vector vecs / e."""
    Q, d, null = _ring_coords(lat, vecs, e)
    return not any(map(any, null)) and _ring_integral(lat.base.ring, Q, d)


def _shift_bound(p, q):
    """The least exponents mu with pi^mu Q inside P, or None when Q leaves
    the K-span of P: mu_j is the largest v_j(den) - v_j(num) over the
    nonzero coordinates num/den of Q's rows in P, so pi^a P holds pi^b Q
    iff b - a >= mu componentwise.  A Q of rank 0 has no coordinates: its
    bound () holds at every shift."""
    ring = p.base.ring
    Q, d, null = _ring_coords(p, *_ring_rows(q))
    if any(map(any, null)):
        return None
    top = ring.val(d)
    mu = None
    for row in Q:
        for n in row:
            if n:
                gap = tuple([s - t for s, t in zip(top, ring.val(n))])
                mu = gap if mu is None else tuple(map(max, mu, gap))
    return () if mu is None else mu


def solve_dual(base, dim, int_conditions, zero_conditions=()):
    """The module {a in K^dim : <a, t> in R for all t in int_conditions and
    <a, t> = 0 for all t in zero_conditions}: its basis is the columns of
    the inverse of the conditions' normal form.

    Raises RankError when the solution set has a K-line (is not finitely
    generated over R).  Conditions are vectors of field elements or of
    kernel scalars, which enter the ring once, through `int_row`, or the
    kernel's own rows (nums, d) on the ring, nums a list.
    """
    ring = base.ring

    def on_ring(t):
        return t if len(t) == 2 and t[0].__class__ is list else \
            ring.int_row(base.scalars.unwrap_row(t))

    conds = [on_ring(t) for t in int_conditions]
    embed = None
    if zero_conditions:
        # the null forms of the zero conditions' span: a K-basis of the
        # vectors orthogonal to every zero condition
        embed = _inverse(_ring_span(
            base, dim, [on_ring(t) for t in zero_conditions]))[2]
        if not embed:
            return zero_lattice(base, dim)
        conds = [([sum(map(mul, row, nums), ring.zero) for row in embed], d)
                 for nums, d in conds]
    space_dim = dim if embed is None else len(embed)
    lat = _ring_span(base, space_dim, conds)
    if lat.rank < space_dim:
        raise RankError("solution set is not a lattice (free directions)")
    inv, inv_den, _ = _inverse(lat)
    basis = [col + [ring.zero] * (space_dim - len(col)) for col in inv]
    if embed is not None:
        basis = [[sum(map(mul, b, col), ring.zero) for col in zip(*embed)]
                 for b in basis]
    return _ring_span(base, dim, [(b, inv_den) for b in basis])


def intersect(x, y):
    """X meet Y.  On one root, pi^max(a,b) P; else one `solve_dual`: a
    vector lies in X = t * P iff its coordinates a_c P^-1 / t, read at P's
    pivot columns c, are integral and it is orthogonal to P's null forms,
    at any rank."""
    if x is ZERO_MODULE or y is ZERO_MODULE:
        return ZERO_MODULE
    _check_compatible(x, y)
    if x.root is y.root:
        return _on_root(x, y, max)
    ring, dim = x.base.ring, x.dim
    int_conds, zero_conds = [], []
    for lat in (x, y):
        inv, inv_den, null = _inverse(lat)
        tn, td = lat.base.prime_powers(lat.exps)
        # one denominator object per lattice: `_hnf` splits it once
        d = inv_den * tn
        for col in inv:
            t = [ring.zero] * dim
            for c, a in zip(lat.root.store[2], col):
                t[c] = a * td
            int_conds.append((t, d))
        zero_conds += [(n, ring.one) for n in null]
    return solve_dual(x.base, dim, int_conds, zero_conds)


# ---------------------------------------------------------------------------
# products and colons, with the memo of a scope
# ---------------------------------------------------------------------------

class _MemoState(threading.local):
    memo = None


_MEMO = _MemoState()


@contextmanager
def memo_scope():
    """Inside the scope, `mult` and `_colon` reduce each operand to its
    primitive part, look the pair up by content and rescale the result:
    (pi^a X)(pi^b Y) = pi^(a+b) XY and (pi^a X : pi^b Y) = pi^(a-b) (X : Y).
    Nested scopes share the memo of the outermost one, which is dropped
    when it exits.  The state is per thread.

    Glider chains are scalar multiples of few lattices, so the products and
    colons of one chain computation mostly repeat up to scaling; the
    functions that compute on whole chains run inside a scope, as
    `@memo_scope()` (a fresh scope per call)."""
    if _MEMO.memo is not None:
        yield
        return
    _MEMO.memo = {}
    try:
        yield
    finally:
        _MEMO.memo = None


def _through_memo(compute, x, y, alg, side, sign):
    """compute(x, y, alg, side); in a memo scope, its value on the
    primitive parts (computed once per scope) times pi^(e_x + sign*e_y)."""
    memo = _MEMO.memo
    if memo is None:
        return compute(x, y, alg, side)
    px, ex = x.primitive()
    py, ey = y.primitive()
    key = (px, py, alg, side)
    out = memo.get(key)
    if out is None:
        out = memo[key] = compute(px, py, alg, side)
    if out is ZERO_MODULE:
        return out
    return out.scale_exponents(tuple(a + sign * b for a, b in zip(ex, ey)))


def mult(x, y, alg):
    """Lattice spanned by all products of basis elements under the algebra
    multiplication."""
    if x is ZERO_MODULE or y is ZERO_MODULE:
        return ZERO_MODULE
    _check_compatible(x, y)
    if x.dim != alg.dim:
        raise BaseMismatchError("lattice ambient does not match the algebra")
    return _through_memo(_span_products, x, y, alg, "mult", 1)


def require_order(lattice, alg):
    """The order facts, each checked here and only here, with one message
    per fact: the lattice is full, contains 1 and is closed under
    multiplication."""
    if not lattice.full:
        raise SpecValidationError("an order must be a full lattice")
    if not lattice.contains_vector(alg.one_vector(lattice.base.field)):
        raise SpecValidationError("an order must contain 1")
    if mult(lattice, lattice, alg) != lattice:
        raise SpecValidationError(
            "an order must be closed under multiplication")


def _span_products(x, y, alg, side):
    """The span of the products u w of the rows u of x and w of y."""
    (xn, xd), (yn, yd) = _ring_rows(x), _ring_rows(y)
    prods, den = alg.ring_products(xn, yn, x.base)
    d = xd * yd * den
    out = _ring_span(x.base, x.dim, [(r, d) for r in prods])
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
    return _through_memo(_solve_colon, x, y, alg, side, -1)


def _solve_colon(x, y, alg, side):
    """The colon as a dual: the conditions are the columns of the
    coordinates in X of e_s * w (w * e_s), for the rows w of Y."""
    ring, dim = x.base.ring, x.dim
    ynums, yden = _ring_rows(y)
    units = [[ring.one if i == s else ring.zero for i in range(dim)]
             for s in range(dim)]
    int_conds, zero_conds = [], []
    for w in ynums:
        us, ws = (units, [w]) if side == "left" else ([w], units)
        prods, den = alg.ring_products(us, ws, x.base)
        Q, d, null = _ring_coords(x, prods, yden * den)
        int_conds += [(list(c), d) for c in zip(*Q)]
        zero_conds += [(t, ring.one) for t in null if any(t)]
    return solve_dual(x.base, x.dim, int_conds, zero_conds)


def quotient_length(x, y):
    """Length of X/Y as an R-module; requires Y subset X with equal K-span."""
    if y is ZERO_MODULE:
        if x is ZERO_MODULE:
            return 0
        raise ContainmentError("X/Y has infinite length: Y spans less than X")
    if x is ZERO_MODULE:
        raise ContainmentError("Y is not contained in X")
    _check_compatible(x, y)
    Q, d, null = _ring_coords(x, *_ring_rows(y))
    if any(map(any, null)) or x.rank != y.rank:
        raise ContainmentError("Y is not contained in X with equal span")
    if not _ring_integral(x.base.ring, Q, d):
        raise ContainmentError("Y is not contained in X")
    # Y and X span one K-space, so their echelon rows share pivot columns
    # and the coordinates are triangular with diagonal pivot_Y / pivot_X:
    # the length, sum_v v(det), is read off the pivots
    return _pivot_values(y) - _pivot_values(x)


def _pivot_values(lat):
    """The sum of the values of lat's pivots, at every prime."""
    nums, den, cols = lat.root.store
    ring = lat.base.ring
    return sum(sum(ring.val(row[c])) - sum(ring.val(den))
               for row, c in zip(nums, cols)) + lat.rank * sum(lat.exps)


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
    with the left action of an order.  Vectors are rows of the residue
    field's reps (`reps`: ints mod p over F_p), and `linalg` computes on
    them.  Everything before the residues is computed on the ring: Y's
    coordinates in X come from one `_ring_coords` call, the order's action
    matrices from one more, on the products b_s x_r of
    `AlgebraDesc.ring_products`, and the ring maps each entry to its
    residue (`residue_rows`).  The residue algebra B/pB of an order is
    the case X = B, Y = pB (`orders._custom_radical`)."""

    def __init__(self, x, y, b, alg, j):
        self.x = x
        base = x.base
        ring = base.ring
        self.v = base.valuations[j]
        self.res_field = self.v.residue_field()
        self.reps = k = self.res_field.reps
        self.rank = r = x.rank
        Q, d, _ = _ring_coords(x, *_ring_rows(y))
        self.img_rows, pivots = linalg.rref(ring.residue_rows(Q, d, j), k)
        self.free = [c for c in range(r) if c not in pivots]
        self.dim = len(self.free)
        # b_s x_r = sum_t b_s[t] (e_t x_r), over the denominator of the
        # rows and of the structure constants: row r of the action matrix
        # of b_s, in X-coordinates
        xnums, xden = _ring_rows(x)
        bnums, bden = _ring_rows(b)
        vecs, den = alg.ring_products(bnums, xnums, base)
        A, d, _ = _ring_coords(x, vecs, xden * bden * den)
        A = ring.residue_rows(A, d, j)
        self.actions = [A[i:i + r] for i in range(0, len(A), r)]

    def project(self, vec):
        """Image of a length-rank residue vector in the quotient
        coordinates."""
        _, (w,) = linalg.reduce([vec], self.img_rows, self.reps)
        return [w[c] for c in self.free]

    def lift_free(self, qvec):
        w = [self.reps.zero()] * self.rank
        for c, val in zip(self.free, qvec):
            w[c] = val
        return w

    def lift(self, vec):
        """An element of X, as a vector over the field, whose residue
        coordinates are the length-rank vector vec."""
        k, x = self.reps, self.x
        out = [x.base.field.zero()] * x.dim
        for s, r in enumerate(vec):
            if k.nonzero(r):
                coeff = self.v.lift(k.wrap(r))
                out = [a + coeff * e for a, e in zip(out, x.rows[s])]
        return out

    def act(self, s, vec):
        """Action of order basis element s on a length-rank residue
        vector."""
        return linalg.vec_mat(vec, self.actions[s], self.reps)

    def images(self, qvec):
        """b_s * qvec in the quotient, one vector per order basis element."""
        w = self.lift_free(qvec)
        return [self.project(self.act(s, w)) for s in range(len(self.actions))]

    def basis_images(self, c):
        """`images` of the c-th basis vector of the quotient: b_s * e_c is
        row free[c] of the action matrix of b_s."""
        return [self.project(a[self.free[c]]) for a in self.actions]

    def spans_all(self, vectors):
        return len(linalg.rref(vectors, self.reps)[0]) == self.dim

    def non_generating_direction(self):
        """The first direction whose cyclic span is not the whole quotient,
        trying the basis vectors first; None when every direction
        generates.

        The images b_s * e_c of the basis vectors are the columns of the
        matrices by which the order acts on V.  When these span a space of
        dimension dim(V)^2, the image of B is End_k(V) (Burnside), so every
        nonzero vector generates: one rank decides, over any residue field.
        Only a quotient that this cannot settle, a reducible one or a
        simple one that is not absolutely simple, enumerates directions."""
        k, d = self.reps, self.dim
        cols = []
        for c in range(d):
            imgs = self.basis_images(c)
            if not self.spans_all(imgs):
                return [k.one() if i == c else k.zero() for i in range(d)]
            cols.append(imgs)
        actions = [[e for col in cols for e in col[s]]
                   for s in range(len(self.actions))]
        if len(linalg.rref(actions, k)[0]) == d * d:
            return None
        for qvec in self.enumerate_directions():
            if not self.spans_all(self.images(qvec)):
                return qvec
        return None

    def enumerate_directions(self):
        """Projectively normalized nonzero vectors of the quotient."""
        k = self.reps
        # the field's own list raises a typed error for an infinite field
        elems = k.unwrap_row(self.res_field.elements())
        m = self.dim
        total = (len(elems) ** m - 1) // (len(elems) - 1)
        if total > DIRECTION_BOUND:
            raise UnsupportedError(f"quotient has {total} directions, over "
                                   f"the bound {DIRECTION_BOUND}")
        # the first nonzero coordinate is 1; more leading zeros come first
        for lead in reversed(range(m)):
            for rest in product(elems, repeat=m - lead - 1):
                yield [k.zero()] * lead + [k.one()] + list(rest)


def is_simple_quotient(x, y, b, alg):
    """True iff X/Y is a simple left module over the order B: X differs
    from Y and `intermediate_module` finds nothing strictly between them.
    X/0 is never simple (p*X lies strictly between), and a quotient that
    no maximal ideal kills is not either."""
    return intermediate_module(x, y, b, alg) is None and x != y


def intermediate_module(x, y, b, alg):
    """A B-submodule strictly between X and Y, or None when X/Y is simple
    or zero.  Used to manufacture reducibility witnesses.

    Decided exactly: a quotient killed by a maximal ideal p is a vector
    space over the residue field, and it is simple iff it has dimension 1
    or every nonzero direction generates it under the order action (the
    rank of the action matrices, else full projective enumeration over the
    finite residue field; see `_QuotientSpace.non_generating_direction`).
    Inside a memo scope the answer is kept, so asking again about one
    quotient (`is_simple_quotient`, then the witness) is a lookup.
    """
    memo = _MEMO.memo
    if memo is None:
        return _intermediate(x, y, b, alg)
    key = ("intermediate", x, y, b, alg)
    if key not in memo:
        memo[key] = _intermediate(x, y, b, alg)
    return memo[key]


def _intermediate(x, y, b, alg):
    _module_checks(x, y, b, alg)
    if x == y:
        return None
    if y is ZERO_MODULE:
        # X is torsion-free of positive rank, so pi*X is strictly between
        return x.scale(x.base.uniformizers[0])
    j = _killing_prime(x, y)
    if j is None:
        # no pi*X lies in Y, and pi*X + Y = X only where X/Y vanishes
        # (Nakayama); X/Y is nonzero, so it lives at one of the primes
        return next(w for w in (add(x.scale(pi), y)
                                for pi in x.base.uniformizers) if w != x)
    V = _QuotientSpace(x, y, b, alg, j)
    gen = V.non_generating_direction() if V.dim > 1 else None
    if gen is None:
        return None
    # B*v + Y for a lift v of the direction lies strictly between: v is
    # not in Y, and the image in X/Y is the cyclic span of v, not all of it
    lift_vec = V.lift(V.lift_free(gen))
    return add(mult(b, span(x.base, x.dim, [lift_vec]), alg), y)


# ---------------------------------------------------------------------------
# fractional ideals (d = 1 fast path)
# ---------------------------------------------------------------------------

class FracIdeal:
    """Product of maximal-ideal powers of the base ring, by exponent vector."""

    __slots__ = ("base", "exps")

    def __init__(self, base, exps):
        exps = tuple(map(require_int, exps))
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

    scale_ideal = mul

    def scale(self, x):
        """x * I for a nonzero field element x."""
        if not x:
            raise SpecValidationError("scaling an ideal by zero")
        return self.mul(FracIdeal(self.base, self.base.val_vector(x)))

    def add(self, other):
        if other is ZERO_MODULE:
            return self
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
        if not isinstance(other, FracIdeal):
            raise BaseMismatchError(f"a fractional ideal against {other!r}")
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
