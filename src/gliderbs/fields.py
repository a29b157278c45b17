"""Exact arithmetic for the supported coefficient fields and their valuations.

Supported fields: Q, Q(i), Q(x), F_p(x), Q(x,y), plus the residue fields
they produce (prime fields F_p, Q(y), and K[t]/(g) for K = F_p or Q: the
residue field F_p[i] of an inert Gaussian prime, and K[x]/(g) at a
polynomial prime g of degree 2 or more).  Elements are immutable
wrappers around an exact representation (the "rep"), so values are safe
to share between threads.

Each field kind has one rep-level implementation, picked once when the
`Field` is built: the conversion from `Fraction`, the generators, the four
operations, the zero test and the printer.  Reps are `Fraction` for Q;
int triples (a, b, d) meaning (a + b*i)/d for Q(i); for the one-variable
function fields F_p(x) and Q(x) (also Q(y), Q(t)), pairs (num, den) of
`_Poly`, in the one canonical form that the kernel's polynomial rings
keep; ints mod p for F_p; `_Poly` over K reduced mod g for K[t]/(g),
F_p[i] among them; sympy's `frac_field` elements for Q(x,y), whose
set-up alone, with `poly_prime`, imports sympy.  Reps are read and
wrapped only here.  Every field has `Field.reps`, the arithmetic on its
reps, with the conversions to and from elements: the base fields' reps
are the lattice kernel's scalars, and the residue fields' the vectors of
quotient spaces.  The kernel's rings read the residues of their own
elements into those reps (`residue_rows`).

Valuations: p-adic on Q, the three Gaussian prime splittings on Q(i),
x-adic / y-adic on Q(x,y), and the lexicographic Z^2 composite (x-adic
followed by y-adic on the residue field) on Q(x,y).  On a one-variable
function field K(x) each place is one polynomial prime g, named by its
canonical associate, and the x-adic valuation is the prime x.  Each
valuation kind is one subclass of `Valuation`, and the field alone
chooses the lattice kernel's ring (`pid_ring`).
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm

from .errors import FieldMismatchError, ParseError, SpecValidationError, \
    UnsupportedError

__all__ = [
    "INF", "Field", "FieldElem", "Valuation",
    "QQ_FIELD", "GAUSS_FIELD", "QX_FIELD", "QY_FIELD", "QXY_FIELD",
    "fp_func_field", "func_field", "prime_field", "inert_residue_field",
    "quot_field",
    "padic", "gauss_prime", "xadic", "yadic", "poly_prime", "composite2",
    "field_from_name", "rational_value", "substitute", "gauss_norm",
    "pid_ring", "MAX_EXPONENT",
]

# the largest absolute value of an exponent that the input spells: a `^`
# in an element string, and in `jsonio` a level's, a tail ideal's or a
# degree map's; a report may print pi^e, and Python prints no int of more
# than 4,300 digits
MAX_EXPONENT = 1000


class _Infinity:
    """Marker for the valuation of 0.  Distinct from every integer."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self


INF = _Infinity()


def _is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

class Field:
    """A coefficient field descriptor.

    `kind` is one of 'Q', 'QI', 'FUNC' (one variable), 'FUNC2' (x,y over Q),
    'FP' (prime field), 'QUOT' (K[t]/(g), K = F_p or Q, g monic; F_p[i] is
    t^2+1 with the generator named i).  Instances are interned, so identity
    comparison works for equal fields.  `char` is the characteristic.
    """

    _cache = {}
    char = 0

    def __new__(cls, kind, **params):
        key = (kind, tuple(sorted(params.items())))
        inst = cls._cache.get(key)
        if inst is None:
            inst = super().__new__(cls)
            inst.kind = kind
            inst.params = params
            inst._init()
            cls._cache[key] = inst
        return inst

    def _init(self):
        k = self.kind
        if k == "Q":
            self.name = "Q"
            arith = _DomainArith(_itself, str, {}, to_fraction=_itself)
        elif k == "QI":
            self.name = "Q(i)"
            arith = _GaussArith()
        elif k == "FUNC":
            var, p = self.params["var"], self.params.get("char", 0)
            self.var, self.char = var, p
            self.name = f"{f'F{p}' if p else 'Q'}({var})"
            arith = _FuncArith(var, p)
        elif k == "FUNC2":
            from sympy import QQ, symbols
            x, y = symbols("x y")
            dom = QQ.frac_field(x, y)
            self.name = "Q(x,y)"
            arith = _DomainArith(dom, _print_func, {"x": dom(x), "y": dom(y)})
        elif k == "FP":
            p = self.params["p"]
            if not _is_prime(p):
                raise UnsupportedError(f"{p} is not prime")
            self.name, self.char = f"F{p}", p
            arith = _PrimeArith(p)
        elif k == "QUOT":
            # K[t]/(g), K = F_p or Q (p = 0), g monic, its coefficients low
            # to high: a residue field of a polynomial or Gaussian prime
            p, var = self.params["p"], self.params["var"]
            base, self.char = f"F{p}" if p else "Q", p
            # i is the root of t^2+1, which names its field
            self.name = f"{base}[i]" if var == "i" else f"{base}[{var}]/(g)"
            arith = _QuotArith(self.params["modulus"], p, var)
        else:
            raise UnsupportedError(f"unknown field kind {k!r}")
        # the reps with their arithmetic: the lattice kernel's scalars over
        # a base field, the vectors of quotient spaces over a residue field
        self.reps = arith
        arith.field = self
        arith._zero = arith.from_fraction(Fraction(0))
        arith._one = arith.from_fraction(Fraction(1))
        self._ops = {"add": arith.add, "sub": arith.sub, "mul": arith.mul,
                     "div": arith.div}
        self._nonzero = arith.nonzero
        self._zero = _elem(self, arith.from_fraction(Fraction(0)))
        self._one = _elem(self, arith.from_fraction(Fraction(1)))

    # -- construction of elements ------------------------------------------

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_int(self, n):
        return self.from_fraction(n)

    def from_fraction(self, q):
        if q.__class__ is not Fraction:
            q = require_rational(q)
        return _elem(self, self.reps.from_fraction(q))

    def gen(self, name):
        """The named generator ('x', 'y', 'i', 't', ...) as an element."""
        rep = self.reps.gens.get(name)
        if rep is None:
            raise ParseError(f"field {self.name} has no generator {name!r}")
        return _elem(self, rep)

    def generator_names(self):
        return tuple(self.reps.gens)

    @lru_cache(maxsize=None)
    def elements(self):
        """Every element of a finite field, in a fixed order (cached;
        fields are interned, so the cache keeps nothing else alive)."""
        reps = self.reps.elements()
        if reps is None:
            raise UnsupportedError(
                f"cannot enumerate the infinite field {self.name}")
        return tuple(_elem(self, r) for r in reps)

    def parse(self, text):
        return _parse_element(self, text)

    def __repr__(self):
        return f"Field({self.name})"


def require_rational(q):
    """q, an int or a `Fraction`, as a `Fraction`: a float or a bool is
    rejected, not rounded, as `lattice.require_int` rejects it."""
    if q.__class__ not in (int, Fraction):
        raise SpecValidationError(f"expected an int or a Fraction, got {q!r}")
    return Fraction(q)


def func_field(var):
    return Field("FUNC", var=var, char=0)


def fp_func_field(p, var="x"):
    if not _is_prime(p):
        raise UnsupportedError(f"{p} is not prime")
    return Field("FUNC", var=var, char=p)


def prime_field(p):
    return Field("FP", p=p)


def inert_residue_field(p):
    """F_p[i] = F_p[t]/(t^2+1), a field for p = 3 mod 4."""
    if not _is_prime(p) or p % 4 != 3:
        raise UnsupportedError(
            f"F_p[i] residue field needs p = 3 mod 4, got {p}")
    return quot_field((1, 0, 1), p, "i")


def quot_field(modulus_coeffs, p=0, var="x"):
    """K[var]/(g), K = F_p for a prime p > 0 and Q for p = 0, for the monic
    g with the given coefficients, low to high."""
    mod = tuple(Fraction(c) for c in modulus_coeffs)
    if p:
        mod = tuple(prime_field(p).reps.from_fraction(c) for c in mod)
    if not mod or mod[-1] != 1:
        raise UnsupportedError("quotient modulus must be monic")
    return Field("QUOT", modulus=mod, p=p, var=var)


def field_from_name(name):
    name = name.strip()
    if name in _FIELD_NAMES:
        return _FIELD_NAMES[name]
    if name == "Q(x,y)":
        return Field("FUNC2")
    m = re.fullmatch(r"F(\d+)\((\w)\)", name)
    if m:
        return fp_func_field(int(m.group(1)), m.group(2))
    m = re.fullmatch(r"F(\d+)", name)
    if m:
        return prime_field(int(m.group(1)))
    raise ParseError(f"unknown field name {name!r}")


def rational_value(x):
    """The `Fraction` of an element of Q or F_p (for F_p, the least
    nonnegative integer representing it)."""
    to_fraction = x.field.reps.to_fraction
    if to_fraction is None:
        raise UnsupportedError(f"{x.field.name} elements are not rationals")
    return to_fraction(x.rep)


def substitute(x, target, images):
    """The rational function x of a function field evaluated at `images`
    (one element of `target` per generator of x's field), its rational
    coefficients embedded in `target`; for x in Q[x]/(g), the polynomial
    of least degree in its class."""
    num, den = x.field.reps.terms(x.rep)
    return _poly_image(num, target, images) / \
        _poly_image(den, target, images)


def _poly_image(terms, target, images):
    """The polynomial of (exponents, rational coefficient) terms evaluated
    at `images`, in `target`."""
    out = target.zero()
    for mono, c in terms:
        term = target.from_fraction(c)
        for img, e in zip(images, mono):
            if e:
                term = term * img ** e
        out = out + term
    return out


def pid_ring(field, valuations):
    """The ring whose elements the lattice kernel computes on, chosen by
    the field alone, as each place has one valuation: Z_(S) for Q, whose
    valuations are p-adic; F_p[x]_(S) for F_p(x) and Q[x]_(S) for Q(x),
    whose valuations are polynomial primes named by their canonical
    associates (pivots are products of uniformizer powers); for Q(i) and
    Q(x,y), R given by its valuations on the field's own elements
    (`_ValuedRing`)."""
    if field is QQ_FIELD:
        return _IntegersAt(tuple(v.p for v in valuations))
    if field.kind == "FUNC":
        return _PolynomialsAt(field, valuations)
    return _ValuedRing(field, valuations)


def _residues_by_valuation(ring, rows, d, j):
    """`residue_rows` through the j-th valuation: each entry as an element
    of the field, its residue, and that residue's rep."""
    v = ring.valuations[j]
    k, res = v.field.reps, v.residue_field().reps
    zero = res.zero()
    return [[res.unwrap(v.residue(k.wrap(e))) if k.nonzero(e) else zero
             for e in ring.rat_row(row, d)] for row in rows]


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

class FieldElem:
    """Immutable element of a supported field, built only by `_elem`."""

    __slots__ = ("field", "rep")

    def __setattr__(self, *args):
        raise AttributeError("FieldElem is immutable")

    # -- coercion -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElem):
            if other.field is not self.field:
                raise FieldMismatchError(
                    f"mixed fields {self.field.name} and {other.field.name}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_fraction(other)  # refuses a bool
        return NotImplemented

    # -- ring/field operations ----------------------------------------------

    def _binop(self, other, op):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        f = self.field
        return _elem(f, f._ops[op](self.rep, other.rep))

    def __add__(self, other):
        return self._binop(other, "add")

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, "sub")

    def __rsub__(self, other):
        return (-self)._binop(other, "add")

    def __mul__(self, other):
        return self._binop(other, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binop(other, "div")

    # exact in a field: the lattice kernel's `//` on `_ValuedRing` elements
    __floordiv__ = __truediv__

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return other._binop(self, "div")

    def __neg__(self):
        return self.field.zero() - self

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.field.one() / (self ** (-n))
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __bool__(self):
        return self.field._nonzero(self.rep)

    def __eq__(self, other):
        # a bool is no scalar: it compares unequal, as a string does
        if other.__class__ in (int, Fraction):
            try:
                other = self.field.from_fraction(other)
            except FieldMismatchError:
                return NotImplemented
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.field is other.field and self.rep == other.rep

    def __hash__(self):
        return hash((self.field.name, self.rep))

    def __str__(self):
        try:
            return self.field.reps.show(self.rep)
        except ValueError:
            raise UnsupportedError(
                f"an element of {self.field.name} has more digits than "
                "Python prints (4,300)") from None

    def __repr__(self):
        return f"<{self.field.name}: {self}>"


_new_object = object.__new__
_set_field, _set_rep = FieldElem.field.__set__, FieldElem.rep.__set__


def _elem(field, rep):
    """The element of `field` with representation `rep`: the slot
    descriptors write past the immutability guard of `__setattr__`."""
    x = _new_object(FieldElem)
    _set_field(x, field)
    _set_rep(x, rep)
    return x


# ---------------------------------------------------------------------------
# one implementation per field kind, on reps
# ---------------------------------------------------------------------------

class _Arith:
    """The rep-level implementation of one field kind, which is also the
    field's `reps`: `from_fraction`, `add`, `sub`, `mul`, `div`,
    `nonzero`, `show`, `zero`, `one`, the conversions to and from elements
    (`wrap`, `unwrap` and their row forms) and the generators `gens` (name
    -> rep, in print order).  Q and F_p also convert a rep back
    (`to_fraction`); one-variable function fields give the terms of a rep
    (`terms`)."""

    gens = {}
    to_fraction = None

    def elements(self):
        """Every rep of a finite field, or None for an infinite one."""
        return None

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def wrap(self, r):
        return _elem(self.field, r)

    def unwrap(self, x):
        return x.rep

    def wrap_row(self, row):
        return tuple([self.wrap(r) for r in row])

    def unwrap_row(self, row):
        """The reps of a row of elements of the field.  A rep passes
        through, and a plain zero counts as zero of the field."""
        out = []
        for e in row:
            if e.__class__ is FieldElem and e.field is self.field:
                e = e.rep
            elif e.__class__ is not self._zero.__class__:
                if isinstance(e, FieldElem) or e != 0:
                    raise FieldMismatchError(
                        f"{e!r} is not an element of {self.field.name}")
                e = self._zero
            out.append(e)
        return out


class _DomainArith(_Arith):
    """Q and Q(x,y): reps whose own operators are exact and keep one rep
    per value, `Fraction` over Q and sympy's `frac_field` elements over
    Q(x,y).  Over these fields the reps are the lattice kernel's scalars
    (`BaseRing.scalars`), converted to and from elements only at the
    kernel's boundary."""

    add, sub, mul, div = operator.add, operator.sub, operator.mul, \
        operator.truediv
    nonzero = bool

    def __init__(self, from_fraction, show, gens, to_fraction=None):
        self.from_fraction, self.show, self.gens = from_fraction, show, gens
        self.to_fraction = to_fraction


def _itself(q):
    return q


class _GaussArith(_Arith):
    """Q(i): int triples (a, b, d) meaning (a + b*i)/d, with d > 0 and
    gcd(a, b, d) = 1, so that == compares values."""

    gens = {"i": (0, 1, 1)}

    @staticmethod
    def from_fraction(q):
        return q.numerator, 0, q.denominator

    @staticmethod
    def _canon(a, b, d):
        g = gcd(a, b, d)
        return (a, b, d) if g == 1 else (a // g, b // g, d // g)

    def add(self, x, y):
        (a, b, d), (c, e, f) = x, y
        if d == f:
            return self._canon(a + c, b + e, d)
        return self._canon(a * f + c * d, b * f + e * d, d * f)

    def sub(self, x, y):
        return self.add(x, (-y[0], -y[1], y[2]))

    def mul(self, x, y):
        (a, b, d), (c, e, f) = x, y
        return self._canon(a * c - b * e, a * e + b * c, d * f)

    def div(self, x, y):
        (a, b, d), (c, e, f) = x, y
        n = c * c + e * e
        if not n:
            raise ZeroDivisionError("division by zero field element")
        return self._canon((a * c + b * e) * f, (b * c - a * e) * f, d * n)

    @staticmethod
    def nonzero(x):
        return bool(x[0] or x[1])

    @staticmethod
    def show(x):
        a, b, d = x
        return _print_gauss(Fraction(a, d), Fraction(b, d))


class _Poly(tuple):
    """A polynomial in one variable: coefficients low to high, no trailing
    zero; ints reduced mod p for p > 0 (classes from `_poly_class`), else
    ints, or `Fraction`s where a division over Q needs one.  F_p and Z have
    no zero divisors, so a product's lead is nonzero and only a sum or a
    remainder is stripped.  A sum or a product builds one list, then the
    tuple from it: a tuple from a generator is resized and freed to the
    free list of its final size, where hundreds pile up between full
    collections and raise the peak memory."""

    __slots__ = ()
    p = 0

    def _new(self, cs, tail=()):
        """The polynomial cs + tail, cs reduced mod p here: a nonempty tail
        (the rest of a sum's longer operand) keeps the lead, so only an
        empty one leaves trailing zeros to strip."""
        p = self.p
        if p:
            cs = [c % p for c in cs]
        if tail:
            cs += tail
        while cs and not cs[-1]:
            cs.pop()
        return self.__class__(cs)

    def __add__(a, b):
        if not (a and b):
            return a or b
        if len(a) < len(b):
            a, b = b, a
        return a._new([x + y for x, y in zip(a, b)], a[len(b):])

    def __sub__(a, b):
        if not (a and b):
            return a if a else -b
        m = len(a)
        return a._new([x - y for x, y in zip(a, b)],
                      a[len(b):] if m >= len(b) else (-b)[m:])

    def __neg__(a):
        p = a.p
        return a.__class__([-c % p for c in a] if p else [-c for c in a])

    def __mul__(a, b):
        if not (a and b):
            return a.__class__()
        if len(a) < len(b):
            a, b = b, a
        p = a.p
        if len(b) == 1:
            c = b[0]
            return a.__class__([x * c % p for x in a] if p else
                               [x * c for x in a])
        cs = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(b):
            if x:
                for j, y in enumerate(a, i):
                    cs[j] += x * y
        return a.__class__([c % p for c in cs] if p else cs)

    def __divmod__(a, b):
        """(q, r) with a = q b + r and deg r < deg b: over F_p by the
        inverse of b's leading coefficient, over Q with an int quotient
        coefficient wherever it divides exactly; a monic b needs neither."""
        p, n, lc = a.p, len(b) - 1, b[-1]
        if len(a) <= n:
            return a.__class__(), a
        inv = pow(lc, -1, p) if p and lc != 1 else None
        r, q, low = list(a), [0] * (len(a) - n), b[:n]
        for k in reversed(range(len(q))):
            c = r[k + n]
            if lc != 1:
                c = c * inv % p if p else c // lc if c % lc == 0 else \
                    Fraction(c, lc)
            elif p:
                c %= p
            if c:
                q[k] = c
                for j, y in enumerate(low, k):
                    r[j] -= c * y
        return a.__class__(q), a._new(r[:n])

    __floordiv__ = lambda a, b: divmod(a, b)[0]  # noqa: E731
    __mod__ = lambda a, b: divmod(a, b)[1]  # noqa: E731

    def pdivmod(a, b):
        """(q, r, c) with c a = q b + r, deg r < deg b and c a nonzero
        integer, on the coefficients as they are: over F_p divmod and
        c = 1; over Z the pseudo-division, each step scaling by what b's
        leading coefficient lacks to divide the coefficient it removes."""
        if a.p:
            return (*divmod(a, b), 1)
        n, lc, r, c = len(b) - 1, b[-1], list(a), 1
        q, low = [0] * max(len(r) - n, 0), b[:n]
        for k in reversed(range(len(q))):
            x = r[k + n]
            if x:
                f = lc // gcd(x, lc) if lc != 1 else 1
                if f != 1:
                    r, q, c, x = [y * f for y in r], [y * f for y in q], \
                        c * f, x * f
                q[k] = t = x // lc
                for j, y in enumerate(low, k):
                    r[j] -= t * y
        return a.__class__(q), a._new(r[:n]), c

    def primitive(self):
        """The canonical associate: monic over F_p; over Q the multiple with
        coprime int coefficients and a positive leading coefficient."""
        if not self:
            return self
        p = self.p
        if p:
            inv = pow(self[-1], -1, p)
            return self.__class__([c * inv % p for c in self]) \
                if inv != 1 else self
        cs = self
        if not all([c.__class__ is int for c in self]):
            den = lcm(*[c.denominator for c in self])
            cs = [int(c * den) for c in self]
        g = gcd(*cs) if cs[-1] > 0 else -gcd(*cs)
        return self if g == 1 and cs is self else \
            self.__class__([c // g for c in cs])

    @classmethod
    def gcd_of(cls, *xs):
        """The canonical associate of the gcd (over Q, of int polynomials):
        over F_p monic, by Euclid on remainders and one division by the
        lead at the end; over Q with a positive lead, by primitive
        pseudo-remainders (Cohen, GTM 138, ch. 3) times the content."""
        a, one = cls(), cls((1,))
        if cls.p:
            for b in xs:
                while b:
                    a, b = b, a % b
                if len(a) == 1:
                    return one
            return a.primitive()
        xs = [x for x in xs if x]
        for b in xs:
            if a == one:
                break
            b = b.primitive()
            while b:
                a, b = b, a.pdivmod(b)[1].primitive()
        if not a:
            return a
        return a * cls((gcd(*[gcd(*x) for x in xs]),))

    @classmethod
    def unit_gcd(cls, d, xs):
        """gcd(d, *xs) times the unit that makes d divided by it canonical:
        monic over F_p; over Q with a positive lead, the content of the
        quotients then being 1 (the gcd carries the common content)."""
        g, lead = cls.gcd_of(d, *xs), d[-1]
        if cls.p:
            return g if lead == 1 else g * cls((lead,))
        return g if lead > 0 else -g


@lru_cache(maxsize=None)
def _poly_class(p):
    return type(f"_Poly{p}", (_Poly,), {"__slots__": (), "p": p})


def _low(poly):
    """The exponent of the lowest nonzero term of a nonzero `_Poly`."""
    return next(i for i, c in enumerate(poly) if c)


def _terms(poly):
    """The (exponents, coefficient) terms of a `_Poly`."""
    return [((e,), c) for e, c in enumerate(poly) if c]


def _poly_part(n, p):
    """`_IntegersAt._part` for a polynomial n != 0 and a primitive p, by
    pseudo-division: c n = q p + r, p divides n iff r = 0, and then
    n / p = q / c, an int polynomial (Gauss).  At a prime that is not
    monic this builds no `Fraction`, where `divmod` would.  At x the part
    is a shift: k is the number of zero low coefficients."""
    cls = n.__class__
    if p == (0, 1):
        k = _low(n)
        return (k, cls([0] * k + [1]), cls(n[k:])) if k else (0, cls((1,)), n)
    k, pk = 0, cls((1,))
    q, r, c = n.pdivmod(p)
    while not r:
        n = q if c == 1 else q._new([x // c for x in q])
        k, pk = k + 1, pk * p
        q, r, c = n.pdivmod(p)
    return k, pk, n


def _poly_residue(a, b, m):
    """(r, c) with r / c = a b^-1 mod m, the remainder of least degree, for
    int polynomials (over F_p: polynomials) a, b, m with b prime to m and
    c a constant.  Extended Euclid on pseudo-remainders gives s b = k
    (mod m) with k a nonzero constant, and one more pseudo-division
    reduces a s / k; over Q every coefficient stays an integer.  At
    m = x^k, power-series division: b_0 r_i = a_i - sum b_j r_(i-j),
    scaled by c = b_0^k over Q."""
    cls, p = m.__class__, m.p
    if not m[0]:
        b0, r = b[0], []
        c, inv = (1, pow(b0, -1, p)) if p else (b0 ** (len(m) - 1), 0)
        for i in range(len(m) - 1):
            t = (a[i] * c if i < len(a) else 0) - sum(
                [b[j] * r[i - j] for j in range(1, min(i + 1, len(b)))])
            r.append(t * inv % p if p else t // b0)
        return m._new(r), cls((c,))
    r0, r1, s0, s1 = m, b, cls(), cls((1,))
    while len(r1) > 1:
        # s_i b = r_i (mod m) for both pairs
        q, r, c = r0.pdivmod(r1)
        r0, r1, s0, s1 = r1, r, s1, s0 * cls((c,)) - q * s1
        if not p:
            g = gcd(*r1, *s1)
            r1, s1 = (cls([x // g for x in y]) for y in (r1, s1))
    if not r1:
        raise ZeroDivisionError("residue of a non-unit")
    _, r, c = (a * s1).pdivmod(m)
    return r, r1 * cls((c,))


class _IntegersAt:
    """Z_(S) for a finite set S of primes, a ring of `lattice._hnf`: its
    elements are ints, a fraction is a pair (n, d) of them, and rows of
    reps of Q pass in and out through `int_row` and `rat_row`.  The methods
    that use only the operators * - // == and `_part` serve
    `_PolynomialsAt` too."""

    zero, one = 0, 1
    gcd = staticmethod(gcd)

    def __init__(self, primes):
        self.primes = primes
        # per prime p the power p^K just below 2^64, and the exponent k of
        # each p^k with k < K: the p-part of n below p^K is gcd(n, p^K)
        self._top, self._exp = {}, {}
        for p in primes:
            pk, k = 1, 0
            while pk * p < 1 << 64:
                self._exp[pk] = k
                pk, k = pk * p, k + 1
            self._top[p] = pk

    def int_row(self, row):
        """(nums, d) with row[k] = nums[k] / d, for d the least common
        positive denominator of the row."""
        den = 1
        for q in row:
            d = q.denominator
            if den % d:
                den = den // gcd(den, d) * d
        return [q.numerator * (den // q.denominator) for q in row], den

    def rat_row(self, nums, den):
        """The reps nums[k] / den, for ints nums and den != 0."""
        return tuple([Fraction(n, den) for n in nums])

    def lowest_terms(self, rows):
        """(tuple of row tuples, den): the fractions nums / d of the pairs
        (nums, d), d != 0, over one denominator in lowest terms, with the
        unit `_unit_gcd` fixes, so equal fractions give identical pairs."""
        den = self.one
        for _, d in rows:
            if d != den:
                den = den // self.gcd(den, d) * d
        nums = [n if d == den else [a * (den // d) for a in n]
                for n, d in rows]
        g = self._unit_gcd(den, [a for n in nums for a in n])
        if g != self.one:
            nums, den = [[a // g for a in n] for n in nums], den // g
        return tuple([tuple(n) for n in nums]), den

    @staticmethod
    def _unit_gcd(d, xs):
        """gcd(d, *xs), negated where d < 0: d divided by it is positive."""
        return gcd(d, *xs) if d > 0 else -gcd(d, *xs)

    def _part(self, n, p):
        """(k, p^k, n / p^k) for the largest k with p^k dividing n != 0: k
        read off the table by one gcd below p^K, from p^K on by `_strip`."""
        top = self._top[p]
        g = gcd(n, top)
        if g == top:
            return self._strip(n, p)
        return self._exp[g], g, n // g

    def _strip(self, n, p):
        """`_part` by division: one divmod per power of p."""
        k, pk = 0, self.one
        q, r = divmod(n, p)
        while not r:
            n, k, pk = q, k + 1, pk * p
            q, r = divmod(n, p)
        return k, pk, n

    def split(self, n):
        """(s, u) with n = s u for n != 0: s a product of the primes, in
        canonical form (positive, monic or primitive), u prime to them."""
        s = 1
        for p in self.primes:
            top = self._top[p]
            g = gcd(n, top)
            if g != 1:
                if g == top:
                    _, g, n = self._strip(n, p)
                else:
                    n //= g
                s *= g
        return s, n

    def val(self, n):
        """The exponent vector of n != 0 at the primes."""
        exp, top = self._exp, self._top
        return tuple([exp[g] if (g := gcd(n, top[p])) != top[p] else
                      self._strip(n, p)[0] for p in self.primes])

    @staticmethod
    def divides(s, x):
        """Whether x / s lies in R, for s a product of the primes."""
        return not x % s

    @staticmethod
    def residue(a, b, m):
        """(r, c) with r / c = a b^-1 mod m for b prime to m: the least
        residue, with c = 1."""
        return a * pow(b, -1, m) % m, 1

    def residue_rows(self, rows, d, j):
        """The residues at the j-th prime p of the entries of rows / d, each
        in R, as reps of the residue field F_p: the p-part p^k of d divides
        every entry, and n / d has the residue (n / p^k) (d / p^k)^-1."""
        p = self.primes[j]
        _, pk, u = self._part(d, p)
        inv = pow(u, -1, p)
        return [[n // pk * inv % p for n in row] for row in rows]

    def reduce_mod(self, u, g):
        """The canonical representative of u + g R for fractions u = (a, d)
        and g = (gp, pd) != 0: g times the principal parts of h = u/g.  For
        h = A / (b p^k), p prime to b, the part at p is r / p^k with
        r = A b^-1 mod p^k (least residue, or remainder of least degree);
        it is integral at the other primes, so the parts are independent."""
        (a, d), (gp, pd) = u, g
        big_a, n, m = a * pd, self.zero, self.one
        for p in self.primes:
            _, pk, b = self._part(d * gp, p)
            if pk != self.one:
                r, c = self.residue(big_a, b, pk)
                n, m = n * pk * c + r * m, m * pk * c
        return gp * n, pd * m


class _PolynomialsAt(_IntegersAt):
    """F_p[x]_(S) inside F_p(x), or Q[x]_(S) inside Q(x): elements are
    `_Poly` (int polynomials over Q, as a nonzero rational is a unit), the
    primes are the uniformizers, and rows of the field's reps, pairs of
    `_Poly` in this ring's canonical form, pass in and out through
    `int_row` and `rat_row`.  The gcd and its canonical unit are those of
    the reps (`_Poly.gcd_of`, `_Poly.unit_gcd`)."""

    residue = staticmethod(_poly_residue)

    def __init__(self, field, valuations):
        self.valuations = valuations
        cls = _poly_class(field.char)
        self.zero, self.one = cls(), cls((1,))
        self.gcd, self._unit_gcd = cls.gcd_of, cls.unit_gcd
        self._fraction = field.reps.fraction
        # a uniformizer is a polynomial: its rep is (g, 1)
        self.primes = tuple([v.uniformizer().rep[0] for v in valuations])

    # the residues through the valuation, not `_IntegersAt`'s ints mod p
    residue_rows = _residues_by_valuation

    def split(self, n):
        """`_IntegersAt.split`, prime by prime through `_part`."""
        s = self.one
        for p in self.primes:
            k, pk, n = self._part(n, p)
            if k:
                s = s * pk
        return s, n

    def val(self, n):
        """`_IntegersAt.val` through `_part`."""
        return tuple([self._part(n, p)[0] for p in self.primes])

    def divides(self, s, x):
        """`_IntegersAt.divides` by pseudo-division, which builds no
        `Fraction` where s is not monic."""
        return s == self.one or not x.pdivmod(s)[1]

    _part = staticmethod(_poly_part)

    def int_row(self, row):
        """(nums, d) with row[k] = nums[k] / d, for reps of the field."""
        den, one = self.one, self.one
        for _, d in row:
            if d != one and d != den:
                den = den // self.gcd(den, d) * d
        return [n if d == den else n * (den // d) for n, d in row], den

    def rat_row(self, nums, den):
        """The reps nums[k] / den, in the field's canonical form."""
        fraction = self._fraction
        return tuple([fraction(n, den) for n in nums])


class _ValuedRing:
    """R = {x : v(x) >= 0 for each valuation v}, for the bases that
    `pid_ring` gives no PID of its own, Q(i) and Q(x,y): its elements are
    the field's elements, where `//` is exact division; a row of reps
    passes in wrapped, over the denominator 1, and goes out unwrapped.
    Values, splits, divisibility and principal parts are read off the
    valuations."""

    def __init__(self, field, valuations):
        self.valuations = valuations
        self.primes = tuple([v.uniformizer() for v in valuations])
        self.zero, self.one, self._k = field.zero(), field.one(), field.reps
        # the products of uniformizer powers by their values, both ways
        self._powers, self._values = {}, {self.one: (0,) * len(valuations)}

    def gcd(self, *xs):
        """A common divisor: in a field, any nonzero element divides the
        others, and the first one keeps rows divided by it small."""
        return next(filter(None, xs), self.zero)

    def val(self, n):
        """The value vector of n (INF entries for n = 0)."""
        return tuple([v(n) for v in self.valuations])

    def split(self, n):
        """(s, u) with n = s u for n != 0: s the product of the uniformizer
        powers of n's values, u a unit."""
        exps = self.val(n)
        if not any(exps):
            return self.one, n
        s = self._powers.get(exps)
        if s is None:
            s = self.one
            for p, e in zip(self.primes, exps):
                if e:
                    s = s * p ** e
            self._powers[exps], self._values[s] = s, exps
        return s, n / s

    def divides(self, s, x):
        """Whether x / s lies in R: x has at least the values of s."""
        vs = self._values.get(s) or self.val(s)
        return not x or all([a >= b for a, b in zip(self.val(x), vs)])

    def int_row(self, row):
        return list(self._k.wrap_row(row)), self.one

    def rat_row(self, nums, den):
        if den != self.one:
            nums = [n / den if n else n for n in nums]
        return tuple([n.rep for n in nums])

    def lowest_terms(self, rows):
        """`_IntegersAt.lowest_terms`: in a field, over the denominator 1."""
        return tuple([tuple(n) if d == self.one else
                      tuple([a / d if a else a for a in n])
                      for n, d in rows]), self.one

    residue_rows = _residues_by_valuation

    def reduce_mod(self, u, g):
        """`_IntegersAt.reduce_mod` by the digit loop: at each valuation
        the digits of the principal part of u/g are the canonical lifts of
        residues (`Valuation.strip_principal_part`)."""
        (a, d), (gp, pd) = u, g
        g = gp / pd
        h, pp = a / d / g, self.zero
        for v in self.valuations:
            pp, h = v.strip_principal_part(pp, h)
        return g * pp, self.one


class _FuncArith(_Arith):
    """F_p(x) and Q(x), in any one variable: pairs (num, den) of `_Poly`
    in the canonical form of the polynomial rings' `lowest_terms`, so that
    == compares values: coprime, with a monic den over F_p; over Q int
    polynomials with joint content 1 and a positive lead on den."""

    def __init__(self, var, p):
        self.var, self.p = var, p
        self.cls = cls = _poly_class(p)
        self.gens = {var: (cls((0, 1)), cls((1,)))}

    def fraction(self, n, d):
        """The rep of n / d, for elements n and d != 0 of the polynomial
        rings (over Q int polynomials)."""
        if not n:
            return self._zero
        g = self.cls.unit_gcd(d, [n])
        return (n, d) if g == (1,) else (n // g, d // g)

    def from_fraction(self, q):
        p, cls = self.p, self.cls
        if not p:
            return cls((q.numerator,) if q else ()), cls((q.denominator,))
        if q.denominator % p == 0:
            raise FieldMismatchError(
                f"denominator of {q} is zero in characteristic {p}")
        return cls()._new([q.numerator * pow(q.denominator, -1, p)]), \
            cls((1,))

    def add(self, a, b):
        (n, d), (m, e) = a, b
        if not n or not m:
            return b if not n else a
        return self.fraction(n + m, d) if d == e else \
            self.fraction(n * e + m * d, d * e)

    def sub(self, a, b):
        return self.add(a, (-b[0], b[1]))

    def mul(self, a, b):
        return self.fraction(a[0] * b[0], a[1] * b[1])

    def div(self, a, b):
        if not b[0]:
            raise ZeroDivisionError("division by zero field element")
        return self.fraction(a[0] * b[1], a[1] * b[0])

    @staticmethod
    def nonzero(a):
        return bool(a[0])

    @staticmethod
    def terms(a):
        """The (exponents, coefficient) terms of num and of den."""
        return [_terms(x) for x in a]

    def show(self, a):
        """num/den over a monic den, over Q with rational coefficients."""
        lead = a[1][-1]
        if lead != 1:
            a = [[Fraction(c, lead) for c in x] for x in a]
        num, den = [_print_terms(t, (self.var,), self.p)
                    for t in self.terms(a)]
        return num if len(a[1]) == 1 else f"({num})/({den})"


class _PrimeArith(_Arith):
    """F_p: ints reduced mod p, so that 0 is the one false rep."""

    to_fraction = Fraction

    def __init__(self, p):
        self.p = p

    def from_fraction(self, q):
        p = self.p
        if q.denominator % p == 0:
            raise FieldMismatchError(f"{q} has no image in F_{p}")
        return (q.numerator * pow(q.denominator, -1, p)) % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def div(self, a, b):
        p = self.p
        if b % p == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return (a * pow(b, -1, p)) % p

    def nonzero(self, a):
        return a % self.p != 0

    def show(self, a):
        return str(a % self.p)

    def elements(self):
        return tuple(range(self.p))


class _QuotArith(_Arith):
    """K[t]/(g) for K = F_p (p > 0) or Q (p = 0) and a monic g: `_Poly`
    of `_poly_class(p)` reduced mod g, so that == compares values; the
    generator t is named `var`."""

    nonzero = bool

    def __init__(self, modulus, p, var):
        cls = _poly_class(p)
        self.p, self.var, self.modulus = p, var, cls(modulus)
        self.gens = {var: cls((0, 1)) % self.modulus}
        # a rational's image in K
        self._scalar = prime_field(p).reps.from_fraction if p else _itself

    def from_fraction(self, q):
        return self.modulus._new([self._scalar(q)])

    add, sub = operator.add, operator.sub

    def mul(self, a, b):
        return a * b % self.modulus

    def div(self, a, b):
        """a b^-1, b^-1 from the residue of its primitive associate B mod
        the primitive associate of g: b = B b_n / B_n at the leads."""
        if not b:
            raise ZeroDivisionError("division by zero in quotient field")
        big_b = b.primitive()
        r, c = _poly_residue(b.__class__((1,)), big_b,
                             self.modulus.primitive())
        return self.mul(a, r * self.from_fraction(
            Fraction(big_b[-1], c[0] * b[-1])))

    def elements(self):
        """Over F_p the classes of the polynomials of degree < deg g, the
        constant coefficient outermost."""
        if not self.p:
            return None
        new = self.modulus._new
        return tuple([new(list(cs)) for cs in
                      product(range(self.p), repeat=len(self.modulus) - 1)])

    @staticmethod
    def terms(a):
        """The terms of the polynomial of least degree in the class a, and
        of the denominator 1, as `substitute` reads them."""
        return _terms(a), [((0,), 1)]

    def show(self, a):
        if self.var == "i":
            return _print_gauss(*(list(a) + [0, 0])[:2])
        return _print_terms(_terms(a), (self.var,), self.p)


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def _print_gauss(re_part, im_part):
    """a+bi from rationals a and b (ints or `Fraction`s), i for 1i."""
    im = ("-" if im_part < 0 else "") + \
        ("" if abs(im_part) == 1 else str(abs(im_part))) + "i"
    if not im_part:
        return str(re_part)
    if not re_part:
        return im
    return str(re_part) + ("" if im_part < 0 else "+") + im


def _join_signed(parts):
    """'a - b + c' from [(sign, body), ...]; '0' when empty."""
    if not parts:
        return "0"
    sign0, body0 = parts[0]
    out = ("-" if sign0 == "-" else "") + body0
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def _coeff_text(c, char):
    """(sign, text of |c|) of a polynomial coefficient."""
    if char:
        return "+", str(int(c) % char)
    return "-" if c < 0 else "+", \
        str(Fraction(abs(int(c.numerator)), int(c.denominator)))


def _print_terms(terms, gens, char):
    """Canonical infix form of a polynomial given as (exponents, coeff)
    terms: monomials in descending lexicographic exponent order, '^' for
    powers."""
    parts = []
    for mono, coeff in sorted(terms, key=lambda t: t[0], reverse=True):
        factors = []
        for g, e in zip(gens, mono):
            if e == 1:
                factors.append(g)
            elif e > 1:
                factors.append(f"{g}^{e}")
        sign, c = _coeff_text(coeff, char)
        if factors and c == "1":
            c = None
        parts.append((sign, "*".join(([c] if c else []) + factors)))
    return _join_signed(parts)


def _print_func(rep):
    """An element of Q(x,y), over a monic denominator."""
    num, den = rep.numer, rep.denom
    # normalize to a monic denominator (scale num and den by 1/lc(den))
    lead = den.LC
    dom = den.ring.domain
    if lead != dom.one:
        inv = dom.quo(dom.one, lead)
        num = num.mul_ground(inv)
        den = den.mul_ground(inv)
    gens = ("x", "y")
    num_s = _print_terms(num.terms(), gens, 0)
    if den == den.ring.one:
        return num_s
    den_s = _print_terms(den.terms(), gens, 0)
    return f"({num_s})/({den_s})"


QQ_FIELD = Field("Q")
GAUSS_FIELD = Field("QI")
QX_FIELD = Field("FUNC", var="x", char=0)
QY_FIELD = Field("FUNC", var="y", char=0)

_FIELD_NAMES = {
    "Q": QQ_FIELD,
    "Q(i)": GAUSS_FIELD,
    "Q(x)": QX_FIELD,
    "Q(y)": QY_FIELD,
}


def __getattr__(name):
    """`QXY_FIELD`, built on first use, as its set-up imports sympy."""
    if name == "QXY_FIELD":
        return Field("FUNC2")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<imag>\d+(?:/\d+)?i)|(?P<int>\d+)|(?P<name>[a-zA-Z]\w*)"
    r"|(?P<pow>\*\*|\^)|(?P<op>[-+*/()]))")


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "pow":
            out.append(("op", "^", m.start()))
        elif m.lastgroup == "imag":
            out.append(("imag", m.group("imag")[:-1], m.start()))
        elif m.lastgroup == "int":
            out.append(("int", m.group("int"), m.start()))
        elif m.lastgroup == "name":
            out.append(("name", m.group("name"), m.start()))
        else:
            out.append(("op", m.group("op"), m.start()))
        pos = m.end()
    out.append(("end", "", len(text)))
    return out


class _Parser:
    """Recursive descent over the tokens.  `nest` is the product of the
    exponents of the chain of directly nested powers that ends in the last
    expression parsed (each power's base, inside parentheses and signs, is
    the power before it), or 1 when that expression is no power:
    (5^1000)^1000 has nest 10^6 and is refused before it is built."""

    def __init__(self, field, tokens):
        self.field = field
        self.toks = tokens
        self.i = 0
        self.nest = 1

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_op(self, op):
        kind, v, pos = self.next()
        if kind != "op" or v != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse(self):
        e = self.expr()
        kind, v, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {v!r}", pos)
        return e

    def expr(self):
        kind, v, _ = self.peek()
        neg = False
        while kind == "op" and v in "+-":
            self.next()
            if v == "-":
                neg = not neg
            kind, v, _ = self.peek()
        e = self.term()
        if neg:
            e = -e
        while True:
            kind, v, _ = self.peek()
            if kind == "op" and v in "+-":
                self.next()
                rhs = self.term()
                e = e - rhs if v == "-" else e + rhs
                self.nest = 1
            else:
                return e

    def term(self):
        e = self.factor()
        while True:
            kind, v, _ = self.peek()
            if kind == "op" and v in "*/":
                self.next()
                rhs = self.factor()
                if v == "/":
                    if not rhs:
                        raise ParseError("division by zero in literal")
                    e = e / rhs
                else:
                    e = e * rhs
                self.nest = 1
            else:
                return e

    def factor(self):
        kind, v, pos = self.peek()
        if kind == "op" and v == "-":
            self.next()
            return -self.factor()
        e = self.atom()
        kind, v, _ = self.peek()
        if kind == "op" and v == "^":
            self.next()
            k2, v2, p2 = self.next()
            sign = 1
            if k2 == "op" and v2 == "-":
                sign = -1
                k2, v2, p2 = self.next()
            if k2 != "int":
                raise ParseError("exponent must be an integer", p2)
            k = int(_literal(v2, p2))
            if k > MAX_EXPONENT:
                raise ParseError(f"exponent {k} is past the bound "
                                 f"{MAX_EXPONENT}", p2)
            if self.nest * k > MAX_EXPONENT:
                raise ParseError(
                    f"nested exponents multiply to {self.nest * k}, past "
                    f"the bound {MAX_EXPONENT}", p2)
            e, self.nest = e ** (sign * k), self.nest * k
        return e

    def atom(self):
        kind, v, pos = self.next()
        self.nest = 1
        if kind == "int":
            return self.field.from_fraction(_literal(v, pos))
        if kind == "imag":
            return self.field.from_fraction(_literal(v, pos)) * \
                self.field.gen("i")
        if kind == "name":
            return self.field.gen(v)
        if kind == "op" and v == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected token {v!r}", pos)


def _literal(text, pos):
    """The `Fraction` that a literal spells: Python reads no int of more
    than 4,300 digits, and a denominator may be 0."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"unreadable number: {exc}", pos) from None


def _parse_element(field, text):
    if not isinstance(text, str):
        raise ParseError(f"expected string, got {type(text).__name__}")
    return _Parser(field, _tokenize(text)).parse()


# ---------------------------------------------------------------------------
# valuation helpers on raw reps
# ---------------------------------------------------------------------------

def _int_val(n, p):
    n = abs(int(n))
    if n == 0:
        raise ZeroDivisionError
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _poly_var_val(poly, axis):
    """Least exponent of the given generator among the monomials."""
    return min(t[0][axis] for t in poly.terms())


def _func_val(rep, axis):
    """The value of an element of Q(x,y) at the axis generator."""
    return _poly_var_val(rep.numer, axis) - _poly_var_val(rep.denom, axis)


def _at_zero(x, axis):
    """Numerator and denominator of x / t^v(x) at t = 0, for x in Q(x,y)
    and t the axis generator: the lowest t-terms of each, with t removed,
    as (exponents, `Fraction`) terms."""
    def lowest(poly):
        v = _poly_var_val(poly, axis)
        return [(m[:axis] + (0,) + m[axis + 1:],
                 Fraction(int(c.numerator), int(c.denominator)))
                for m, c in poly.terms() if m[axis] == v]

    return lowest(x.rep.numer), lowest(x.rep.denom)


# ---------------------------------------------------------------------------
# valuations
# ---------------------------------------------------------------------------

class Valuation:
    """A discrete (rank-1) or lexicographic rank-2 valuation, one subclass
    per kind: 'padic', 'gauss', 'polyprime' (with 'xadic' and 'yadic' on
    K(x), the polynomial prime of the generator, and on Q(x,y)),
    'composite2'.  Instances are interned on (class, field, parameters),
    a polynomial prime on its canonical associate.
    Each subclass gives `value` of a nonzero element, `uniformizer()`,
    `residue_field()`, `residue0` (the residue of an element of value
    `unit_value`) and `lift(r)`, the canonical lift of a residue back
    into the field; the value (call) and `residue` are read here.
    """

    rank = 1
    unit_value = 0
    _cache = {}

    def __new__(cls, field, *params):
        key = (cls, field.name, *map(str, params))
        inst = Valuation._cache.get(key)
        if inst is None:
            inst = super().__new__(cls)
            inst.field = field
            inst._setup(*params)
            Valuation._cache[key] = inst
        return inst

    def _check_field(self, x):
        if not isinstance(x, FieldElem) or x.field is not self.field:
            got = x.field.name if isinstance(x, FieldElem) else type(x).__name__
            raise FieldMismatchError(
                f"valuation {self.name} is defined on {self.field.name}, got {got}")

    def __call__(self, x):
        self._check_field(x)
        if not x:
            return INF
        return self.value(x)

    def residue(self, x):
        self._check_field(x)
        v = self(x)
        if v is INF:
            return self.residue_field().zero()
        if v < self.unit_value:
            raise UnsupportedError(
                f"residue of element with negative valuation {v}")
        if v != self.unit_value:
            return self.residue_field().zero()
        return self.residue0(x)

    def uniformizer_pair(self):
        raise UnsupportedError("uniformizer_pair needs a rank-2 valuation")

    def lift(self, r):
        """The lift of a residue in Q or F_p: the same rational."""
        return self.field.from_fraction(rational_value(r))

    def strip_principal_part(self, pp, h):
        """(pp + P, h - P) for P the principal part of h here: the digit
        terms d * pi^k, k < 0, with d the canonical lift of a residue, that
        leave h - P integral."""
        pi = last = None
        while h:
            k = self(h)
            if k >= 0:
                break
            if last is not None and k <= last:
                # a wrong residue or lift; without a rise the loop would spin
                raise UnsupportedError(
                    f"a digit of the principal part at {self.name} did not "
                    f"raise the value (still {k})")
            last = k
            if pi is None:
                pi = self.uniformizer()
            digit = self.lift(self.residue(h * pi ** (-k)))
            term = digit * pi ** k
            pp = pp + term
            h = h - term
        return pp, h

    def __repr__(self):
        return f"Valuation({self.name} on {self.field.name})"


# ---------------------------------------------------------------------------
# one class per valuation kind
# ---------------------------------------------------------------------------

class _PAdic(Valuation):
    kind = "padic"

    def _setup(self, p):
        if not _is_prime(p):
            raise UnsupportedError(f"{p} is not prime")
        self.p, self.name = p, f"v_{p}"

    def value(self, x):
        q = x.rep
        return _int_val(q.numerator, self.p) - _int_val(q.denominator, self.p)

    def uniformizer(self):
        return self.field.from_int(self.p)

    def residue_field(self):
        return prime_field(self.p)

    def residue0(self, x):
        return prime_field(self.p).from_fraction(rational_value(x))


class _GaussPrime(Valuation):
    """Shared by the three Gaussian cases: the uniformizer and the
    residue field F_p."""

    kind = "gauss"

    def _setup(self, pi):
        self.pi, self.name = pi, f"v_({pi})"
        self.pa, self.pb, _ = pi.rep
        self.p = self.pa * self.pa + self.pb * self.pb

    def uniformizer(self):
        return self.pi

    def residue_field(self):
        return prime_field(self.p)


class _GaussSplit(_GaussPrime):
    """a+bi of prime norm p = 1 mod 4: the residue field is F_p, where i
    is the root -a/b."""

    case = "split"

    def _setup(self, pi):
        super()._setup(pi)
        self.root = (-self.pa * pow(self.pb, -1, self.p)) % self.p

    def value(self, x):
        # count exact divisions of a+bi by pi in Z[i]; dividing by
        # p = pi*conj(pi) removes exactly one factor of pi
        a, b, den = x.rep
        p, pa, pb = self.p, self.pa, self.pb
        v = 0
        while a % p == 0 and b % p == 0:
            a, b, v = a // p, b // p, v + 1
        # now divide by pi while possible: (a+bi)/pi integral iff
        # (a+bi)*conj(pi) = 0 mod p
        while True:
            na = a * pa + b * pb
            nb = b * pa - a * pb
            if na % p or nb % p:
                break
            a, b = na // p, nb // p
            v += 1
        return v - _int_val(den, p)

    def residue0(self, x):
        # x has value 0, so while p = pi*conj(pi) divides den, pi divides
        # a+bi: x = ((a+bi)*conj(pi)/p) / ((den/p)*conj(pi)), exactly, and
        # conj(pi), a unit here, has residue pa - pb*r
        a, b, den = x.rep
        p, pa, pb, r = self.p, self.pa, self.pb, self.root
        unit = 1
        while den % p == 0:
            a, b = (a * pa + b * pb) // p, (b * pa - a * pb) // p
            den, unit = den // p, unit * (pa - pb * r) % p
        return prime_field(p).from_fraction(Fraction(a + b * r, den * unit))


class _GaussRamified(_GaussSplit):
    """1+i over 2: the residue field is F_2, where i = 1 (the root of the
    split case)."""

    case = "ramified"

    def value(self, x):
        a, b, den = x.rep
        return _int_val(a * a + b * b, 2) - 2 * _int_val(den, 2)


class _GaussInert(_GaussPrime):
    """A rational prime p = 3 mod 4: the residue field is F_p[i]."""

    case = "inert"

    def _setup(self, pi):
        super()._setup(pi)
        self.p = abs(self.pa)

    def value(self, x):
        a, b, den = x.rep
        # p = 3 (mod 4) is inert in Z[i], so v_p(a^2 + b^2) is even
        return _int_val(a * a + b * b, self.p) // 2 - _int_val(den, self.p)

    def residue_field(self):
        return inert_residue_field(self.p)

    def residue0(self, x):
        a, b, den = x.rep
        k = inert_residue_field(self.p)
        dinv = pow(den, -1, self.p)
        return _elem(k, k.reps.modulus._new([a * dinv, b * dinv]))

    def lift(self, r):
        a, b = (list(r.rep) + [0, 0])[:2]
        return _elem(self.field, (a, b, 1))


class _PolyPrime(Valuation):
    """The g-adic valuation of K(x), K = F_p or Q, for an irreducible
    polynomial g, its canonical associate (`poly_prime`): the residue
    field is K, the values at the root of g, for deg g = 1, and K[x]/(g)
    for deg g >= 2."""

    kind = "polyprime"

    def _setup(self, g):
        self.g, self.name, self.poly = g, f"v_({g})", g.rep[0]
        p, poly = self.field.char, self.poly
        if len(poly) == 2:
            self.res_field = prime_field(p) if p else QQ_FIELD
        else:
            self.res_field = quot_field([Fraction(c, poly[-1])
                                         for c in poly], p)

    def value(self, x):
        n, d = x.rep
        return _poly_part(n, self.poly)[0] - _poly_part(d, self.poly)[0]

    def uniformizer(self):
        return self.g

    def residue_field(self):
        return self.res_field

    def residue0(self, x):
        # num and den mod g, then divided; at degree 1 the remainders are
        # constants, the values at the root of g
        k = self.res_field
        n, d = [y % self.poly for y in x.rep]
        if k.kind != "QUOT":
            n, d = [k.reps.from_fraction(Fraction(r[0])) for r in (n, d)]
        return _elem(k, n) / _elem(k, d)

    def lift(self, r):
        f = self.field
        return substitute(r, f, [f.gen(f.var)]) if r.field.kind == "QUOT" \
            else super().lift(r)


class _LineAdic(_PolyPrime):
    """The t-adic valuation of a one-variable function field K(t): the
    polynomial prime t, under the kind ('xadic' or 'yadic') and the name
    v_t that JSON and reports print."""

    def _setup(self, kind):
        super()._setup(self.field.gen(self.field.var))
        self.kind, self.name = kind, f"v_{self.field.var}"


class _PlaneAdic(Valuation):
    """The x- or y-adic valuation of Q(x,y): the residue field is the
    function field of the other variable."""

    def _setup(self, axis):
        self.axis, self.kind = axis, ("xadic", "yadic")[axis]
        self.name = f"v_{'xy'[axis]}"
        self.res_field = QY_FIELD if axis == 0 else QX_FIELD

    def value(self, x):
        return _func_val(x.rep, self.axis)

    def uniformizer(self):
        return self.field.gen("xy"[self.axis])

    def residue_field(self):
        return self.res_field

    def residue0(self, x):
        k = self.res_field
        images = [k.zero(), k.zero()]
        images[1 - self.axis] = k.gen(k.generator_names()[0])
        num0, den0 = _at_zero(x, self.axis)
        return _poly_image(num0, k, images) / _poly_image(den0, k, images)

    def lift(self, r):
        return substitute(r, self.field,
                          [self.field.gen("y" if self.axis == 0 else "x")])


class _Composite2(Valuation):
    """The lexicographic rank-2 valuation on Q(x,y): x-adic first, then
    y-adic on the residue field Q(y)."""

    kind, name = "composite2", "v_(x,y)-lex"
    rank = 2
    unit_value = (0, 0)

    def _setup(self):
        # residue of x / x^v(x) at the x-adic valuation, in Q(y)
        self.stage_one = _PlaneAdic(self.field, 0).residue0
        self.stage_two = yadic(QY_FIELD)

    def value(self, x):
        return (_func_val(x.rep, 0), self.stage_two(self.stage_one(x)))

    def uniformizer(self):
        raise UnsupportedError(
            "rank-2 valuation has no single uniformizer; "
            "use uniformizer_pair")

    def uniformizer_pair(self):
        return (self.field.gen("x"), self.field.gen("y"))

    def residue_field(self):
        return QQ_FIELD

    def residue0(self, x):
        return self.stage_two.residue(self.stage_one(x))


# ---------------------------------------------------------------------------
# constructors and spec operations
# ---------------------------------------------------------------------------

def padic(p):
    return _PAdic(QQ_FIELD, p)


def gauss_prime(pi):
    """Gaussian prime valuation on Q(i).

    Accepts exactly: a ramified associate of 1+i, an inert rational prime
    p = 3 mod 4, or a split factor a+bi of norm a prime p = 1 mod 4.  Other
    inputs are rejected; general number fields are out of scope.
    """
    if isinstance(pi, str):
        pi = GAUSS_FIELD.parse(pi)
    if not isinstance(pi, FieldElem) or pi.field is not GAUSS_FIELD:
        raise FieldMismatchError("gauss_prime needs an element of Q(i)")
    a, b, den = pi.rep
    if den != 1:
        raise UnsupportedError(f"{pi} is not a Gaussian integer")
    nrm = a * a + b * b
    if nrm == 2:
        case = _GaussRamified
    elif b == 0 and _is_prime(abs(a)) and abs(a) % 4 == 3:
        case = _GaussInert
    elif _is_prime(nrm) and nrm % 4 == 1:
        case = _GaussSplit
    else:
        raise UnsupportedError(
            f"{pi} is not a supported Gaussian prime (norm {nrm}); "
            "only 1+i, inert p = 3 mod 4, and split factors are supported")
    return case(GAUSS_FIELD, pi)


def gauss_norm(x):
    """The norm x * conj(x) of an element of Q(i), as a `Fraction`."""
    if not isinstance(x, FieldElem) or x.field is not GAUSS_FIELD:
        raise FieldMismatchError("gauss_norm needs an element of Q(i)")
    a, b, den = x.rep
    return Fraction(a * a + b * b, den * den)


def xadic(field=QX_FIELD):
    if field.kind == "FUNC":
        return _LineAdic(field, "xadic")
    if field.kind == "FUNC2":
        return _PlaneAdic(field, 0)
    raise FieldMismatchError(f"x-adic valuation undefined on {field.name}")


def yadic(field=None):
    field = field or Field("FUNC2")
    if field.kind == "FUNC":
        return _LineAdic(field, "yadic")
    if field.kind == "FUNC2":
        return _PlaneAdic(field, 1)
    raise FieldMismatchError(f"y-adic valuation undefined on {field.name}")


def poly_prime(g, field=QX_FIELD):
    if isinstance(g, str):
        g = field.parse(g)
    if g.field is not field:
        raise FieldMismatchError("polynomial prime outside its field")
    if field.kind != "FUNC":
        raise UnsupportedError("poly_prime needs a one-variable function field")
    num, den = g.rep
    if len(den) != 1:
        raise UnsupportedError("polynomial prime must be a polynomial")
    # the canonical associate (monic over F_p; over Q coprime int
    # coefficients and a positive lead) names the place and is its
    # uniformizer, so 2x^2+2, -x^2-1 and x^2+1 are one valuation, on the
    # PID K[x]_(S): its pivots, `scale` and `BaseRing.from_exponents` use
    # this one element
    num = num.primitive()
    g = _elem(field, (num, den.__class__((1,))))
    # a polynomial's rep has int coefficients, high to low for sympy, which
    # calls a constant irreducible: its values would count without end
    from sympy import Poly, Symbol
    poly = Poly(num[::-1], Symbol(field.var), modulus=field.char or None)
    if len(num) < 2 or not poly.is_irreducible:
        raise UnsupportedError(f"{g} is not irreducible")
    return _PolyPrime(field, g)


def composite2():
    """The lexicographic rank-2 valuation on Q(x,y): x-adic first, then
    y-adic on the residue field Q(y)."""
    return _Composite2(Field("FUNC2"))
