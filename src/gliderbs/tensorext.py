"""Quadratic scalar extension of filtrations and glider chains.

For a quadratic extension L/K carrying a valuation w over v (ramification
e, residue degree f, ef <= 2), the filtration on L inducing the base
filtration is the e-scaled w-filtration.  The tensor filtration on
A (x) L is the convolution sum f_q = sum_k F_kA (x) F_{q-k}L; over a
strong base it collapses to F_qA (x) F_0L, and the collapse is verified
here by computing truncated sums exactly (the glider axiom makes the terms
eventually nested, so the truncation is exact, not approximate).  Tensoring
a glider chain uses the same convolution levelwise.

The induced map on classified elements keeps the shift and extends the
point's coordinates; for fields the image is read off the top O_w-level
(the ramified field case multiplies the shift by e, an extension of the
split/inert bookkeeping recorded as such in the docs).
"""

from __future__ import annotations

from .errors import SpecValidationError, UnsupportedError
from .fields import (GAUSS_FIELD, QQ_FIELD, QX_FIELD, func_field,
                     gauss_prime, padic, xadic)
from .filtration import (AlgebraFiltration, is_strong,
                         scaled_valuation_filtration,
                         valuation_filtration)
from .gbs import (BsPoint, GbsElement, classify_csa_glider,
                  realize_csa_element)
from .glider import fit_tail
from .lattice import FracIdeal, add, canonicalize, span

__all__ = [
    "ExtensionData", "TensorFiltration",
    "gauss_extension", "sqrt_x_extension",
    "tensor_filtration", "tensor_glider", "gbs_map",
]


class ExtensionData:
    """A quadratic extension with explicit valuation-extension data."""

    def __init__(self, base_field, ext_field, minpoly, embed, v, w, e, f):
        if e * f > 2:
            raise SpecValidationError("quadratic extensions have e*f <= 2")
        self.base_field = base_field
        self.ext_field = ext_field
        self.minpoly = minpoly
        self.embed = embed
        self.v = v
        self.w = w
        self.e = e
        self.f = f
        self._spot_check()

    def _spot_check(self):
        probes = [self.base_field.from_int(n) for n in (2, 3, 5, 7, 30)]
        probes.append(self.v.uniformizer())
        for x in probes:
            if not x:
                continue
            if self.w(self.embed(x)) != self.e * self.v(x):
                raise SpecValidationError(
                    "extension data inconsistent: w(embed(x)) != e*v(x)")

    def induced_filtration(self, c=1):
        """The filtration on L inducing phi(n) = c*n on K: phi_L = e*c*n."""
        if self.e * c == 1:
            return valuation_filtration(self.w)
        return scaled_valuation_filtration(self.w, self.e * c)

    def __repr__(self):
        return (f"ExtensionData({self.base_field.name} -> "
                f"{self.ext_field.name}, e={self.e}, f={self.f})")


def gauss_extension(p, kind=None, factor=None):
    """Q -> Q(i) with the valuation over p: split (p = 1 mod 4, a chosen
    factor), inert (p = 3 mod 4), or ramified (p = 2)."""
    v = padic(p)
    if kind is None:
        kind = "ramified" if p == 2 else (
            "split" if p % 4 == 1 else "inert")
    if kind == "ramified":
        if p != 2:
            raise SpecValidationError("only 2 ramifies in Q(i)")
        w = gauss_prime("1+i")
        e, f = 2, 1
    elif kind == "inert":
        if p % 4 != 3:
            raise SpecValidationError(f"{p} does not stay inert in Q(i)")
        w = gauss_prime(str(p))
        e, f = 1, 2
    elif kind == "split":
        if p % 4 != 1:
            raise SpecValidationError(f"{p} does not split in Q(i)")
        if factor is None:
            a = next(a for a in range(1, p)
                     if any(a * a + b * b == p for b in range(1, p)))
            b = next(b for b in range(1, p) if a * a + b * b == p)
            factor = GAUSS_FIELD.from_int(a) + \
                GAUSS_FIELD.from_int(b) * GAUSS_FIELD.gen("i")
        elif isinstance(factor, str):
            factor = GAUSS_FIELD.parse(factor)
        w = gauss_prime(factor)
        e, f = 1, 1
    else:
        raise SpecValidationError(f"unknown kind {kind!r}")

    def embed(x):
        return GAUSS_FIELD.from_fraction(_as_fraction(x))

    return ExtensionData(QQ_FIELD, GAUSS_FIELD, "t^2+1", embed, v, w, e, f)


def _as_fraction(x):
    from fractions import Fraction

    rep = x.rep
    return Fraction(int(rep.numerator), int(rep.denominator))


def sqrt_x_extension():
    """Q(x) -> Q(t) with x = t^2: the t-adic valuation ramifies over the
    x-adic one with e = 2, f = 1."""
    L = func_field("t")
    v = xadic(QX_FIELD)
    w = xadic(L)
    t = L.gen("t")

    def embed(elem):
        num, den = elem.rep.numer, elem.rep.denom

        def push(poly):
            out = L.zero()
            for mono, c in poly.terms():
                from fractions import Fraction
                q = Fraction(int(c.numerator), int(c.denominator))
                out = out + L.from_fraction(q) * t ** (2 * mono[0])
            return out

        return push(num) / push(den)

    return ExtensionData(QX_FIELD, L, "t^2-x", embed, v, w, 2, 1)


# ---------------------------------------------------------------------------
# tensor filtration
# ---------------------------------------------------------------------------

class TensorFiltration:
    """The convolution filtration on A (x) L, materialized over the
    extension's base ring.  `level(q)` is the exact sum; when the base is
    strong it equals F_qA (x) F_0L (verified)."""

    def __init__(self, fa, ext):
        base = fa.base if isinstance(fa, AlgebraFiltration) else fa
        if base.composite or len(base.valuations) != 1:
            raise UnsupportedError("tensor base must be one rank-1 valuation")
        if base.valuations[0] is not ext.v:
            raise SpecValidationError(
                "extension is over a different valuation than the base")
        if not is_strong(base):
            raise UnsupportedError(
                "tensor materialization implemented for strong bases "
                "(the convolution sums stabilize exactly there)")
        self.ext = ext
        self.source = fa
        c = base.phi(1)[0]
        self.fl = ext.induced_filtration(c)
        if isinstance(fa, AlgebraFiltration):
            self.kind = "algebra"
            self.alg = fa.alg
            lring = self.fl.base_ring
            rows = [self._embed_vec(r) for r in fa.order.rows]
            order_l = canonicalize(lring, fa.alg.dim, rows)
            self.fa = AlgebraFiltration(fa.alg, self.fl, order_l,
                                        mode="induced")
        else:
            self.kind = "field"
            self.alg = None
            self.fa = self.fl
        self._verify_collapse()

    def _embed_vec(self, vec):
        return [self.ext.embed(c) for c in vec]

    def embed_lattice(self, lat):
        lring = self.fl.base_ring
        return span(lring, lat.dim,
                    [self._embed_vec(r) for r in lat.rows])

    def sum_level(self, q):
        """The convolution sum at degree q, truncated exactly: below the
        stabilization depth every further term is contained in the sum."""
        src = self.source
        ph = (src.base if self.kind == "algebra" else src).phi
        depth = abs(ph.lo) + ph.hi + 2 * max(ph.minus_period,
                                             ph.plus_period) + 3
        acc = None
        stable = 0
        k = q
        while stable <= depth:
            term = self.term(k, q - k)
            acc2 = term if acc is None else self._join(acc, term)
            if acc is not None and self._eq(acc2, acc):
                stable += 1
            else:
                stable = 0
            acc = acc2
            k -= 1
        return acc

    def term(self, k, qk):
        """F_kA (x) F_{qk}L as a module over the extension base ring."""
        lring = self.fl.base_ring
        gen = lring.from_exponents(tuple(-c for c in self.fl.phi(qk)))
        if self.kind == "algebra":
            lat = self.embed_lattice(self.source.level(k))
            return lat.scale(gen)
        ideal = self.source.level(k)
        g = self.ext.embed(ideal.generator())
        w = lring.valuations[0]
        return FracIdeal(lring, (w(g) + w(gen),))

    def _join(self, a, b):
        if self.kind == "algebra":
            return add(a, b)
        return a.add(b)

    def _eq(self, a, b):
        return a == b

    def level(self, q):
        return self.fa.level(q)

    @property
    def horizon(self):
        return self.fa.horizon if self.kind == "algebra" else self.fl.horizon

    def _verify_collapse(self):
        for q in range(-2, 3):
            if not self._eq(self.sum_level(q), self.level(q)):
                raise UnsupportedError(  # pragma: no cover - strong bases
                    f"convolution sum at degree {q} differs from the "
                    "collapsed level")


def tensor_filtration(fa, ext):
    return TensorFiltration(fa, ext)


def tensor_glider(m, ext, tf=None):
    """(M (x) L)_p = sum_{i >= p} M_i (x) F_{i-p}L, levelwise exact; the
    result is a glider over the tensor filtration."""
    if tf is None:
        tf = TensorFiltration(m.filtration, ext)
    ph_l = tf.fl.phi
    src_ph = (m._base_field_filtration()).phi
    depth = m.prefix_end + abs(src_ph.lo) + 2 * src_ph.minus_period + 4
    levels = []
    upto = m.prefix_end + 2 * ph_l.minus_period + 3
    for p in range(upto + 1):
        acc = None
        stable = 0
        i = p
        while stable <= depth:
            if tf.kind == "algebra":
                term = tf.embed_lattice(m.level(i))
                gen = tf.fl.base_ring.from_exponents(
                    tuple(-c for c in ph_l(i - p)))
                term = term.scale(gen)
                acc2 = term if acc is None else add(acc, term)
            else:
                ideal = m.level(i)
                g = ext.embed(ideal.generator())
                w = tf.fl.base_ring.valuations[0]
                term = FracIdeal(tf.fl.base_ring,
                                 (w(g) - ph_l(i - p)[0],))
                acc2 = term if acc is None else acc.add(term)
            if acc is not None and acc2 == acc:
                stable += 1
            else:
                stable = 0
            acc = acc2
            i += 1
        levels.append(acc)
    return fit_tail(tf.fa, tf.kind, levels, upto - 2 * ph_l.minus_period - 1,
                    alg=tf.alg)


def gbs_map(element, ext):
    """The induced map on classified elements.  Field case: the shift
    multiplies by the ramification index (top O_w-level bookkeeping).
    Algebra case (e = 1): the point's coordinates extend and the shift is
    preserved; the image is classifier-verified and agrees with tensoring
    the realized chain."""
    filt = element.filtration
    if element.kind == "field":
        if filt is None or not is_strong(filt):
            raise SpecValidationError(
                "the induced map needs a strong base filtration")
        target = valuation_filtration(ext.w)
        return GbsElement("field", element.shift * ext.e, filtration=target)
    if filt is None or not is_strong(filt.base):
        raise SpecValidationError(
            "the induced map needs a strong base filtration")
    if ext.e != 1:
        raise UnsupportedError(
            "the algebra-level map is implemented for unramified "
            "extensions (e = 1); the ramified case has no irreducible "
            "image over the scaled filtration")
    tf = TensorFiltration(filt, ext)
    point_l = BsPoint([ext.embed(c) for c in element.point.coords])
    image = GbsElement("csa", element.shift, point=point_l,
                       filtration=tf.fa)
    # verify: direct image classifies back, and tensoring the realized
    # chain gives the image chain
    realized = realize_csa_element(tf.fa, point_l, element.shift)
    verdict = classify_csa_glider(realized)
    if verdict.status != "irreducible" or verdict.element != image:
        raise UnsupportedError("image failed the classifier round-trip")
    source_chain = realize_csa_element(filt, element.point, element.shift)
    tensored = tensor_glider(source_chain, ext, tf=tf)
    if tensored != realized:
        raise UnsupportedError(
            "tensored chain differs from the realized image")
    return image
