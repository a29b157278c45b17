"""Quadratic scalar extension of filtrations and glider chains.

For a quadratic extension L/K carrying a valuation w over v (ramification
e, residue degree f, ef <= 2), the filtration on L inducing the base
filtration is the e-scaled w-filtration.  The tensor filtration on
A (x) L is the convolution sum f_q = sum_k F_kA (x) F_{q-k}L; over a
strong base phi is linear, so every term is F_qA (x) F_0L and the sum
collapses to it.

A glider M tensors levelwise to (M (x) L)_p = sum_{i >= p} M_i (x)
F_{i-p}L, and over the same strong base that sum collapses to its first
term M_p (x) O_L: F_{i-p}L = F_{i-p}K O_L, and the glider axiom puts
F_{i-p}K M_i inside M_p, so every term M_i (x) F_{i-p}L =
(F_{i-p}K M_i) (x) O_L lies in M_p (x) O_L.  The collapse holds only for
a glider, so `tensor_glider` checks the axiom first.

The induced map on classified elements keeps the shift and extends the
point's coordinates; for fields the image is read off the top O_w-level
(the ramified field case multiplies the shift by e, an extension of the
split/inert bookkeeping recorded as such in the docs).
"""

from __future__ import annotations

from math import isqrt

from .errors import SpecValidationError, UnsupportedError
from .fields import (GAUSS_FIELD, QQ_FIELD, QX_FIELD, func_field,
                     gauss_prime, padic, rational_value, substitute, xadic)
from .filtration import (AlgebraFiltration, is_strong,
                         scaled_valuation_filtration,
                         valuation_filtration)
from .gbs import (BsPoint, GbsElement, classify_csa_glider,
                  realize_csa_element)
from .glider import MultiplyBy, fit_tail, require_glider
from .lattice import ZERO_MODULE, FracIdeal, canonicalize, span

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
            a, b = _two_squares(p)
            factor = GAUSS_FIELD.from_int(a) + \
                GAUSS_FIELD.from_int(b) * GAUSS_FIELD.gen("i")
        elif isinstance(factor, str):
            factor = GAUSS_FIELD.parse(factor)
        w = gauss_prime(factor)
        e, f = 1, 1
    else:
        raise SpecValidationError(f"unknown kind {kind!r}")

    def embed(x):
        return GAUSS_FIELD.from_fraction(rational_value(x))

    return ExtensionData(QQ_FIELD, GAUSS_FIELD, "t^2+1", embed, v, w, e, f)


def _two_squares(p):
    """(a, b) with a^2 + b^2 = p and 0 < a < b, for a prime p = 1 mod 4,
    by Hermite-Serret: Euclid on p and a square root r of -1 mod p stops
    at its first remainder below sqrt(p), which is a or b (Brillhart,
    1972).  r is c^((p-1)/4) for the least non-residue c."""
    c = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
    x, y = p, pow(c, (p - 1) // 4, p)
    while y * y > p:
        x, y = y, x % y
    return tuple(sorted((y, isqrt(p - y * y))))


def sqrt_x_extension():
    """Q(x) -> Q(t) with x = t^2: the t-adic valuation ramifies over the
    x-adic one with e = 2, f = 1."""
    L = func_field("t")
    v = xadic(QX_FIELD)
    w = xadic(L)
    t = L.gen("t")

    def embed(elem):
        return substitute(elem, L, [t * t])

    return ExtensionData(QX_FIELD, L, "t^2-x", embed, v, w, 2, 1)


# ---------------------------------------------------------------------------
# tensor filtration
# ---------------------------------------------------------------------------

class TensorFiltration:
    """The convolution filtration on A (x) L, materialized over the
    extension's base ring.  The base is strong, so the convolution sum at q
    collapses to F_qA (x) F_0L, and `level(q)` returns that collapsed level
    without forming the sum."""

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
        # the convolution sums need no check against the levels: over a
        # strong base each term F_kA (x) F_{q-k}L is F_qA (x) F_0L

    def _embed_vec(self, vec):
        return [self.ext.embed(c) for c in vec]

    def embed_lattice(self, lat):
        lring = self.fl.base_ring
        return span(lring, lat.dim,
                    [self._embed_vec(r) for r in lat.rows])

    def tensor(self, module):
        """module (x) O_L over the extension base ring, for a level of the
        source side (a lattice, an ideal or the zero module)."""
        if module is ZERO_MODULE:
            return module
        if self.kind == "algebra":
            return self.embed_lattice(module)
        lring = self.fl.base_ring
        g = self.ext.embed(module.generator())
        return FracIdeal(lring, (lring.valuations[0](g),))

    def level(self, q):
        return self.fa.level(q)


def tensor_filtration(fa, ext):
    return TensorFiltration(fa, ext)


def tensor_glider(m, ext, tf=None):
    """(M (x) L)_p = M_p (x) O_L for a glider M (the collapse of the module
    docstring); a multiply tail by I carries over as multiplication by
    I O_L = I^e over the extension base ring."""
    require_glider(m)
    if tf is None:
        tf = TensorFiltration(m.filtration, ext)
    own = None
    if m.tail.kind == "multiply":
        exps = tuple(tf.ext.e * k for k in m.tail.ideal.exps)
        own = MultiplyBy(FracIdeal(tf.fl.base_ring, exps))
    return fit_tail(tf.fa, tf.kind, lambda p: tf.tensor(m.level(p)),
                    m.prefix_end + 2, alg=tf.alg, own=own)


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
