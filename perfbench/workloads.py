"""The four workloads: input generation, the timed operation and its check.

Every workload is a fixed cycle of op kinds; the seed draws only the
values.  So the mix of kinds in a run does not depend on the seed or on how
far the run gets, and each quantile of latency stays inside one family of
ops.

Generation (`generate`) writes plain data (integers, and for `classify`
JSON files made with the library's encoder); the worker turns one spec at a
time into library objects outside the timed region (`prepare`), times
`run`, then checks the result against an identity (`check`), again outside
the timed region.  `check` returns None for a correct result and a failure
kind otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction

WORKLOADS = ("groupoid", "kernel-q", "kernel-ext", "classify")


class MissingOperands(Exception):
    """A query op found no lattice of its ring made by an earlier op."""


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def _int_matrix(rnd, lo, hi):
    while True:
        a, b, c, d = (rnd.randint(lo, hi) for _ in range(4))
        if a * d - b * c:
            return [a, b, c, d]


def _inverse2(m):
    a, b, c, d = (Fraction(t) for t in m)
    det = a * d - b * c
    return [d / det, -b / det, -c / det, a / det]


def _invertible_mod(rows, p):
    """Whether an integer matrix is invertible modulo the prime p."""
    rows = [[a % p for a in r] for r in rows]
    n = len(rows)
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][col]), None)
        if piv is None:
            return False
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = pow(rows[col][col], -1, p)
        for i in range(col + 1, n):
            q = rows[i][col] * inv
            rows[i] = [(a - q * b) % p for a, b in zip(rows[i], rows[col])]
    return True


def _poly_at(coeffs, t):
    return sum(c * t ** k for k, c in enumerate(coeffs))


def _polys(coeffs, degree):
    out = [[]]
    for _ in range(degree + 1):
        out = [p + [c] for p in out for c in coeffs]
    return out


# The values one matrix entry is drawn from, uniformly (see
# KernelShared.elem for the encodings).
KERNEL_ALPHABET = {
    # Q at 5: the distribution of acceptance criterion 10
    "q5": [[n, d] for n in range(-9, 10) for d in (1, 1, 1, 2, 3, 5, 25)],
    "q23": [[n, d] for n in range(-9, 10) for d in (1, 1, 1, 2, 3, 4, 9, 5)],
    "qi": [[a, b, d] for a in range(-5, 6) for b in range(-5, 6)
           for d in (1, 1, 2, 3, 5)],
    # function fields: numerators of degree at most 1, which keeps a build
    # op near 50 ms, so that a run holds a few hundred ops
    "f3x": [[n, d] for n in _polys(range(3), 1)
            for d in ([1], [1], [0, 1], [1, 1], [2, 0, 1])],
    "qx": [[n, d] for n in _polys(range(-2, 3), 1)
           for d in ([1], [1], [0, 1], [1, 1], [1, 0, 1])],
}


# A prime with a square root of -1: reducing mod P is a ring map from the
# rationals and Gaussian rationals with small denominators, and a matrix
# whose image is invertible mod P is invertible.
_P = 998244353
_I_MOD_P = pow(3, (_P - 1) // 4, _P)


def _full_rank(ring, rows):
    """A sufficient test of full rank, by reduction to a finite field: Q and
    Q(i) mod P; Q(x) at x = 7 mod P and F_3(x) at each point of F_3, after
    multiplying each row by its denominators."""
    if ring in ("q5", "q23"):
        return _invertible_mod([[n * pow(d, -1, _P) for n, d in r]
                                for r in rows], _P)
    if ring == "qi":
        return _invertible_mod([[(a + b * _I_MOD_P) * pow(d, -1, _P)
                                 for a, b, d in r] for r in rows], _P)
    points = (7,) if ring == "qx" else (0, 1, 2)
    p = _P if ring == "qx" else 3
    for t in points:
        m = []
        for r in rows:
            dens = [_poly_at(d, t) for _, d in r]
            row = []
            for j, (n, _) in enumerate(r):
                v = _poly_at(n, t)
                for k, d in enumerate(dens):
                    if k != j:
                        v *= d
                row.append(v)
            m.append(row)
        if _invertible_mod(m, p):
            return True
    return False


def _kernel_rows(ring, rnd):
    alphabet = KERNEL_ALPHABET[ring]
    while True:
        flat = rnd.choices(alphabet, k=16)
        rows = [flat[i:i + 4] for i in range(0, 16, 4)]
        if _full_rank(ring, rows):
            return rows


# The kernel cycle per ring: 12 build ops, one span, three queries.  Spans
# and queries are cheap, so they sit below p50 and both p50 and p90 fall
# among the builds (mult < intersect < colon) rather than on the edge
# between two kinds.
KERNEL_CYCLE = ("span", "mult", "colon_left", "intersect", "contains",
                "mult", "colon_right", "intersect", "mult", "colon_left",
                "intersect", "quotient_length", "mult", "colon_right",
                "intersect", "equal")
# The groupoid cycle: blocks of 20 cheap ops (8 product, 6 inverse,
# 6 unit_left) each followed by one costly op (verify, modulizer, assoc,
# connect).  A run then holds over 100 ops; p50 falls inside the inverse
# ops and p90 inside the unit_left ops, not on an edge between kinds.
# verify and modulizer come early, so that a traced half-run reaches them.
_LIGHT = ("product", "inverse", "unit_left", "product", "inverse",
          "unit_left", "product", "inverse", "unit_left", "product",
          "inverse", "unit_left", "product", "inverse", "unit_left",
          "product", "inverse", "unit_left", "product", "product")
GROUPOID_CYCLE = (_LIGHT[:8] + ("verify",) + _LIGHT[8:]
                  + _LIGHT + ("modulizer",) + _LIGHT + ("assoc",)
                  + _LIGHT + ("connect",))
# The classify cycle: 12 cheap field/subglider ops (~5 ms), 2 rank2 ops
# (~11 ms), 7 costly ops (csa, csa_reducible, tensor: 25-180 ms).  p50
# falls inside the cheap ops and p90 inside the costly ones; the rank2 ops
# vary most from run to run, so no quantile sits among them.
CLASSIFY_CYCLE = ("csa", "field", "subglider", "rank2", "field", "csa",
                  "subglider", "field", "tensor", "subglider", "csa", "field",
                  "subglider", "rank2", "field", "csa_reducible", "subglider",
                  "field", "csa", "subglider")
# Only rings on which every op of the cycle completes and passes its check.
# Two known defects keep the others out (test_bench.py tracks both as
# expected failures): about a fifth of the build ops over Q(i) at 2+i never
# finish or raise FieldMismatchError, and `==` of lattices over F_3(x) is
# not canonical, so the ops that test `==` (span, a canonical-form law, and
# equal) run over Q(x) only; over F_3(x) a mult and a contains take their
# places.
KERNEL_EXT_RINGS = ("f3x", "qx")
KERNEL_EXT_SKIP = {("span", "f3x"): "mult", ("equal", "f3x"): "contains"}


def _kernel_spec(kind, ring, rnd):
    spec = {"k": kind, "r": ring}
    if kind in ("span", "mult", "colon_left", "colon_right", "intersect"):
        spec["x"] = _kernel_rows(ring, rnd)
    if kind in ("mult", "colon_left", "colon_right", "intersect"):
        spec["y"] = _kernel_rows(ring, rnd)
    if kind == "mult":
        spec["z"] = _kernel_rows(ring, rnd)
    if kind in ("colon_left", "colon_right"):
        spec["row"] = rnd.randrange(4)
    if kind == "span":
        spec["perm"] = rnd.sample(range(4), 4)
        spec["mix"] = [rnd.randrange(4), rnd.randrange(4),
                       rnd.randint(1, 4)]
    if kind in ("contains", "equal", "quotient_length"):
        spec["a"] = rnd.randrange(1 << 16)
        spec["b"] = rnd.randrange(1 << 16)
        spec["flag"] = rnd.random() < 0.5
    return spec


def generate(workload, seed, count, workdir):
    """Yield `count` op specs; `classify` also writes its input files
    into `workdir`."""
    rnd = random.Random(f"{workload}:{seed}")
    if workload == "kernel-q":
        for i in range(count):
            yield _kernel_spec(KERNEL_CYCLE[(i // 2) % len(KERNEL_CYCLE)],
                               ("q5", "q23")[i % 2], rnd)
    elif workload == "kernel-ext":
        n = len(KERNEL_EXT_RINGS)
        for i in range(count):
            kind = KERNEL_CYCLE[(i // n) % len(KERNEL_CYCLE)]
            ring = KERNEL_EXT_RINGS[i % n]
            yield _kernel_spec(KERNEL_EXT_SKIP.get((kind, ring), kind), ring,
                               rnd)
    elif workload == "groupoid":
        mat, seen = _Matrices(rnd), {}
        for i in range(count):
            kind = GROUPOID_CYCLE[i % len(GROUPOID_CYCLE)]
            seen[kind] = seen.get(kind, -1) + 1
            yield _groupoid_spec(kind, rnd, mat, seen[kind])
    elif workload == "classify":
        yield from _classify_specs(rnd, count, workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}")


# The 5-adic valuations of the determinants of successive groupoid
# matrices.  A translate g O h costs more the larger v_5(det g) and
# v_5(det h) are (and is O itself when both are 0), so the valuations are
# dealt by position, not drawn: every seed has the same mix of costs.
DET_VALUATIONS = (0, 1, 0, 0, 1, 0, 2, 0, 1, 0)


class _Matrices:
    """Integer 2x2 matrices with entries in [-4, 5], the n-th with
    determinant of valuation DET_VALUATIONS[n] at 5."""

    def __init__(self, rnd):
        self.rnd = rnd
        self.drawn = 0

    def __call__(self):
        v = DET_VALUATIONS[self.drawn % len(DET_VALUATIONS)]
        self.drawn += 1
        while True:
            m = _int_matrix(self.rnd, -4, 5)
            det = m[0] * m[3] - m[1] * m[2]
            if det % 5 ** v == 0 and det % 5 ** (v + 1):
                return m


def _groupoid_operand(rnd, mat, i):
    """The i-th operand of an op kind: every fourth is a shift 5^k O
    (cheaper than a translate), so that every seed has the same mix."""
    if i % 4 == 0:
        return {"shift": rnd.randint(-2, 2)}
    return {"g": mat(), "h": mat()}


def _groupoid_spec(kind, rnd, mat, i):
    spec = {"k": kind}
    if kind in ("inverse", "unit_left", "modulizer"):
        spec["m"] = _groupoid_operand(rnd, mat, i)
    elif kind == "product":
        spec["g"], spec["h"], spec["h2"] = (mat() for _ in range(3))
    elif kind == "assoc":
        spec["g"], spec["h"], spec["h2"], spec["h3"] = (
            mat() for _ in range(4))
    elif kind == "connect":
        spec["m"] = {"g": mat(), "h": mat()}
        spec["m2"] = {"g": mat(), "h": mat()}
    elif kind == "verify":
        spec["shifts"] = rnd.sample(range(-2, 3), 2)
    return spec


def _classify_specs(rnd, count, workdir):
    """Inputs of `classify`: a pool of distinct files per op kind, cycled
    through; the expected answers come from the realizing parameters."""
    from gliderbs import jsonio
    from gliderbs.gbs import BsPoint, GbsElement, realize_csa_element
    from gliderbs.glider import FiltrationTail, Glider, realize_field_chain
    from gliderbs.rank2 import realize_z2

    shared = ClassifyShared()
    q = shared.q
    os.makedirs(workdir, exist_ok=True)
    pools = {k: [] for k in set(CLASSIFY_CYCLE)}

    written = []

    def put(obj):
        path = os.path.join(workdir, f"in{len(written)}.json")
        written.append(path)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(jsonio.dumps(obj))
        return path

    def point(p, n):
        t = rnd.randrange(p + 1)
        coords = [1] + [0] * (n - 1)
        if t == p:
            coords = [0, 1] + [0] * (n - 2)
        else:
            coords[1] = t
        if n == 3:
            coords[2] = rnd.randrange(p)
        return BsPoint([q.from_int(c) for c in coords])

    # Each pool holds every value of the parameters that set an op's cost
    # (shift, prime, dimension, filtration), so the pools of all seeds cost
    # the same; the seed draws the points and the order.
    for p, n in ((5, 2), (13, 2), (31, 2), (2, 3)):
        fa = shared.fa[(p, n)]
        for m in range(-2, 3):
            pt = point(p, n)
            chain = realize_csa_element(fa, pt, m)
            pools["csa"].append({
                "k": "csa", "file": put(jsonio.encode_glider(chain)),
                "expect": jsonio.encode_element(
                    GbsElement("csa", m, point=pt, filtration=fa))})
        # p^k O for the order O: reducible, with a column-subchain witness
        for k in range(-2, 3):
            top = fa.order.scale(q.from_int(p) ** k)
            chain = Glider(fa, "algebra", [top], FiltrationTail(), alg=fa.alg)
            pools["csa_reducible"].append({
                "k": "csa_reducible",
                "file": put(jsonio.encode_glider(chain))})
    for name in ("f5", "fpq", "ffx"):
        filt = shared.field_filtrations[name]
        for n in range(-3, 4):
            pools["field"].append({
                "k": "field", "filt": name, "shift": n,
                "file": put(jsonio.encode_glider(realize_field_chain(filt,
                                                                     n)))})
        for d in range(3):
            for n in range(-2, 3):
                pools["subglider"].append({
                    "k": "subglider", "d": d,
                    "sub": put(jsonio.encode_glider(
                        realize_field_chain(filt, n - d))),
                    "file": put(jsonio.encode_glider(
                        realize_field_chain(filt, n)))})
    for s in ([a, b] for a in range(-2, 3) for b in range(-2, 3)):
        pools["rank2"].append({"k": "rank2", "shift": s,
                               "file": put(jsonio.encode_z2(realize_z2(
                                   tuple(s))))})
    for m in (-1, 0, 1) * 4:
        pt = point(5, 2)
        chain = realize_csa_element(shared.fa[(5, 2)], pt, m)
        pools["tensor"].append({
            "k": "tensor", "shift": m,
            "point": [str(c) for c in pt.coords],
            "file": put(jsonio.encode_glider(chain))})
    for kind in sorted(pools):
        rnd.shuffle(pools[kind])
    seen = {k: 0 for k in pools}
    for i in range(count):
        kind = CLASSIFY_CYCLE[i % len(CLASSIFY_CYCLE)]
        pool = pools[kind]
        yield pool[seen[kind] % len(pool)]
        seen[kind] += 1


def _random_csa_glider(fa, rnd):
    """A seeded random chain over M_2(Z_(5)): two random vectors generate a
    left ideal of the order, scaled along a random increasing exponent
    list (the generator of acceptance criterion 8)."""
    from gliderbs.glider import FiltrationTail, Glider
    from gliderbs.lattice import span

    q = fa.base_ring.field
    alg = fa.alg
    while True:
        vecs = [[q.from_int(rnd.randint(-4, 4)) for _ in range(4)]
                for _ in range(2)]
        gens = [alg.mul_coords(row, v, q) for v in vecs
                for row in fa.order.rows]
        x = span(fa.base_ring, 4, gens)
        if x.rank == 4:
            break
    start = rnd.randint(-2, 2)
    exps = [start]
    for _ in range(rnd.randint(1, 3)):
        exps.append(exps[-1] + rnd.randint(1, 2))
    pi = q.from_int(5)
    prefix = [x.scale(pi ** e) for e in exps]
    return Glider(fa, "algebra", prefix, FiltrationTail(), alg=alg)


# ---------------------------------------------------------------------------
# shared state built at set-up (counted in setup_s)
# ---------------------------------------------------------------------------

class GroupoidShared:
    def __init__(self):
        from gliderbs.fields import QQ_FIELD, padic
        from gliderbs.filtration import valuation_filtration
        from gliderbs.lattice import matrix_algebra
        from gliderbs.orders import builtin_mnr

        self.q = QQ_FIELD
        self.f = valuation_filtration(padic(5))
        self.order = builtin_mnr(2, self.f.base_ring).lattice
        self.alg = matrix_algebra(2)


class KernelShared:
    def __init__(self, rings):
        from gliderbs.fields import (GAUSS_FIELD, QQ_FIELD, QX_FIELD,
                                     fp_func_field, gauss_prime, padic,
                                     poly_prime, xadic)
        from gliderbs.lattice import BaseRing, matrix_algebra

        self.alg = matrix_algebra(2)
        self.rings = {}
        for name in rings:
            if name == "q5":
                ring = BaseRing(QQ_FIELD, (padic(5),))
            elif name == "q23":
                ring = BaseRing(QQ_FIELD, (padic(2), padic(3)))
            elif name == "qi":
                # the prime of the split extension used by tensorext
                ring = BaseRing(GAUSS_FIELD, (gauss_prime("2+i"),))
            elif name == "f3x":
                f3 = fp_func_field(3)
                ring = BaseRing(f3, (xadic(f3),))
            else:
                ring = BaseRing(QX_FIELD, (poly_prime("x^2+1"),))
            self.rings[name] = ring
        self.pools = {name: [] for name in rings}
        self.nested = {name: [] for name in rings}
        # entries come from a small alphabet; converting a function-field
        # entry costs ~2 ms, so each distinct one is converted once
        self._elems = {}

    def elem(self, ring, data):
        key = (ring, json.dumps(data))
        out = self._elems.get(key)
        if out is None:
            out = self._elems[key] = self._convert(ring, data)
        return out

    def _convert(self, ring, data):
        f = self.rings[ring].field
        if ring in ("q5", "q23"):
            return f.from_fraction(Fraction(data[0], data[1]))
        if ring == "qi":
            a, b, d = data
            return (f.from_fraction(Fraction(a, d))
                    + f.from_fraction(Fraction(b, d)) * f.gen("i"))
        x = f.gen("x")

        def poly(cs):
            out = f.zero()
            for k, c in enumerate(cs):
                if c:
                    out = out + f.from_int(c) * x ** k
            return out

        return poly(data[0]) / poly(data[1])

    def rows(self, ring, rows):
        return [[self.elem(ring, e) for e in row] for row in rows]


class ClassifyShared:
    def __init__(self):
        from gliderbs import cli  # noqa: F401  (the entry point under test)
        from gliderbs.fields import QQ_FIELD, fp_func_field, padic, xadic
        from gliderbs.filtration import (AlgebraFiltration, FieldFiltration,
                                         StepFunction, valuation_filtration)
        from gliderbs.lattice import matrix_algebra
        from gliderbs.orders import builtin_mnr
        from gliderbs.tensorext import gauss_extension, tensor_filtration

        self.q = QQ_FIELD
        self.fa = {}
        for p, n in ((5, 2), (13, 2), (31, 2), (2, 3)):
            f = valuation_filtration(padic(p))
            order = builtin_mnr(n, f.base_ring)
            self.fa[(p, n)] = AlgebraFiltration(matrix_algebra(n), f,
                                                order.lattice,
                                                mode="induced")
        f7 = fp_func_field(7)
        self.field_filtrations = {
            "f5": valuation_filtration(padic(5)),
            "fpq": FieldFiltration(
                QQ_FIELD, (padic(2), padic(3)),
                StepFunction((-1, 1), {-1: (-1, -1), 0: (0, 0), 1: (1, 1)},
                             (1, (1, 1)), (1, (1, 1)))),
            "ffx": valuation_filtration(xadic(f7)),
        }
        self.ext = gauss_extension(5, "split", "2+i")
        self.tf = tensor_filtration(self.fa[(5, 2)], self.ext)


# ---------------------------------------------------------------------------
# groupoid
# ---------------------------------------------------------------------------

class Groupoid:
    """Normal glider ideals over M_2(Z_(5)); every op builds fresh
    NormalGliderIdeal objects, so no per-instance cache carries over."""

    deadline_s = 10.0

    def __init__(self):
        from gliderbs import brandt

        self.brandt = brandt
        self.s = GroupoidShared()

    def deadline(self, spec):
        return self.deadline_s

    def _vec(self, m):
        return tuple(self.s.q.from_fraction(Fraction(t)) for t in m)

    def shift(self, k):
        from gliderbs.glider import FiltrationTail, Glider

        s = self.s
        x = s.q.from_fraction(Fraction(5) ** k)
        return self.brandt.NormalGliderIdeal(
            Glider(s.f, "algebra", [s.order.scale(x)], FiltrationTail(),
                   alg=s.alg))

    def translate(self, g, h):
        """The chain of g O h: its levels are 5^i g O h."""
        from gliderbs.glider import FiltrationTail, Glider
        from gliderbs.lattice import span

        s = self.s
        g, h = self._vec(g), self._vec(h)
        rows = [s.alg.mul_coords(s.alg.mul_coords(g, row, s.q), h, s.q)
                for row in s.order.rows]
        return self.brandt.NormalGliderIdeal(
            Glider(s.f, "algebra", [span(s.order.base, 4, rows)],
                   FiltrationTail(), alg=s.alg))

    def operand(self, m):
        if "shift" in m:
            return self.shift(m["shift"])
        return self.translate(m["g"], m["h"])

    def prepare(self, spec):
        b = self.brandt
        k = spec["k"]
        if k == "product":
            hinv = _inverse2(spec["h"])
            return lambda: b.product(self.translate(spec["g"], spec["h"]),
                                     self.translate(hinv, spec["h2"]))
        if k == "inverse":
            return lambda: b.inverse(self.operand(spec["m"]))
        if k == "unit_left":
            return lambda: b.unit_left(self.operand(spec["m"]))
        if k == "modulizer":
            return lambda: b.modulizer_chain(self.operand(spec["m"]))
        if k == "assoc":
            g, h, h2, h3 = (spec[t] for t in ("g", "h", "h2", "h3"))
            m1 = (g, h)
            m2 = (_inverse2(h), h2)
            m3 = (_inverse2(h2), h3)

            def assoc():
                left = b.product(b.product(self.translate(*m1),
                                           self.translate(*m2)),
                                 self.translate(*m3))
                right = b.product(self.translate(*m1),
                                  b.product(self.translate(*m2),
                                            self.translate(*m3)))
                return left, right

            return assoc
        if k == "connect":
            return lambda: b.product(b.unit_left(self.operand(spec["m"])),
                                     b.unit_left(self.operand(spec["m2"])))
        if k == "verify":
            return lambda: b.verify_groupoid(
                [self.shift(t) for t in spec["shifts"]])
        raise ValueError(k)

    def check(self, spec, result):
        b = self.brandt
        k = spec["k"]
        if k == "product":
            # (g O h)(h^-1 O h2) = g O h2
            ok = result == self.translate(spec["g"], spec["h2"])
        elif k == "inverse":
            ok = b.inverse(b.NormalGliderIdeal(result.glider)) == \
                self.operand(spec["m"])
        elif k == "unit_left":
            m = self.operand(spec["m"])
            ok = b.product(result, m) == m
        elif k == "modulizer":
            ok = result == b.unit_left(self.operand(spec["m"]))
        elif k == "assoc":
            left, right = result
            ok = left == right == self.translate(spec["g"], spec["h3"])
        elif k == "connect":
            # E^l(g O h) = chain of g O g^-1; the product of two such unit
            # chains is the chain on the lattice product of their tops
            from gliderbs.glider import FiltrationTail, Glider
            from gliderbs.lattice import mult

            s = self.s
            tops = [self.translate(m["g"], _inverse2(m["g"])).level(0)
                    for m in (spec["m"], spec["m2"])]
            expect = Glider(s.f, "algebra", [mult(tops[0], tops[1], s.alg)],
                            FiltrationTail(), alg=s.alg)
            ok = result.glider == expect
        elif k == "verify":
            ok = result.all_pass()
        else:
            raise ValueError(k)
        return None if ok else "wrong"


# ---------------------------------------------------------------------------
# lattice kernel
# ---------------------------------------------------------------------------

class Kernel:
    """Random full lattices in K^4 over one or more base rings; build ops
    on fresh generators, query ops on lattices earlier ops made."""

    POOL = 16

    def __init__(self, rings, deadlines):
        self.deadlines = deadlines
        self.s = KernelShared(rings)

    def deadline(self, spec):
        return self.deadlines[spec["r"]]

    def prepare(self, spec):
        from gliderbs import lattice as L

        s = self.s
        r = spec["r"]
        ring = s.rings[r]
        alg = s.alg
        k = spec["k"]
        if k in ("span", "mult", "colon_left", "colon_right", "intersect"):
            x = s.rows(r, spec["x"])
            y = s.rows(r, spec["y"]) if "y" in spec else None
            if k == "span":
                return lambda: L.span(ring, 4, x)
            if k == "mult":
                return lambda: L.mult(L.span(ring, 4, x), L.span(ring, 4, y),
                                      alg)
            if k == "intersect":
                def build():
                    a, b = L.span(ring, 4, x), L.span(ring, 4, y)
                    return a, b, L.intersect(a, b)
                return build
            colon = L.colon_left if k == "colon_left" else L.colon_right
            return lambda: colon(L.span(ring, 4, x), L.span(ring, 4, y), alg)
        pool, nested = s.pools[r], s.nested[r]
        if not pool or not nested:
            # every earlier build op of this ring failed
            raise MissingOperands(r)
        if k == "contains":
            a = pool[spec["a"] % len(pool)]
            if spec["flag"]:
                a, b = nested[spec["b"] % len(nested)]
            else:
                b = pool[spec["b"] % len(pool)]
            spec["_args"] = (a, b)
            return lambda: a.contains(b)
        if k == "quotient_length":
            a, b = nested[spec["a"] % len(nested)]
            spec["_args"] = (a, b)
            return lambda: L.quotient_length(a, b)
        if k == "equal":
            a = pool[spec["a"] % len(pool)]
            if spec["flag"]:
                rows = list(a.rows)
                rows.reverse()
                b = L.span(ring, 4, rows)
            else:
                b = pool[spec["b"] % len(pool)]
            spec["_args"] = (a, b)
            return lambda: a == b
        raise ValueError(k)

    def record(self, spec, result):
        """Keep the results of build ops for later queries."""
        r = spec["r"]
        if spec["k"] == "intersect":
            a, _, meet = result
            self._push(self.s.nested[r], (a, meet))
            self._push(self.s.pools[r], meet)
        elif spec["k"] in ("span", "mult", "colon_left", "colon_right"):
            self._push(self.s.pools[r], result)

    def _push(self, pool, item):
        pool.append(item)
        if len(pool) > self.POOL:
            pool.pop(0)

    def check(self, spec, result):
        """Criterion-10 laws.  Apart from the canonical-form law of `span`
        and the `equal` query, modules are compared by containment both
        ways, so that a defect of `==` shows only where `==` is tested."""
        from gliderbs import lattice as L

        def same(a, b):
            return a.contains(b) and b.contains(a)

        s = self.s
        r = spec["r"]
        ring = s.rings[r]
        alg = s.alg
        pi = ring.uniformizers[0]
        k = spec["k"]
        if k == "span":
            # canonical under permutation and unimodular mixing
            rows = [list(s.rows(r, spec["x"])[i]) for i in spec["perm"]]
            i, j, c = spec["mix"]
            if i != j:
                rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
            ok = L.span(ring, 4, rows) == result
        elif k == "mult":
            # associativity with a third lattice
            x, y, z = (L.span(ring, 4, s.rows(r, spec[t]))
                       for t in ("x", "y", "z"))
            ok = same(L.mult(result, z, alg),
                      L.mult(x, L.mult(y, z, alg), alg))
        elif k in ("colon_left", "colon_right"):
            # C*Y inside X (Y*C for the right colon), and maximal: growing
            # a seeded basis row by each inverse uniformizer breaks it
            x, y = (L.span(ring, 4, s.rows(r, spec[t])) for t in ("x", "y"))

            def fits(c):
                prod = L.mult(c, y, alg) if k == "colon_left" \
                    else L.mult(y, c, alg)
                return x.contains(prod)

            row = result.rows[spec["row"] % result.rank]
            ok = fits(result) and not any(
                fits(L.span(ring, 4, list(result.rows)
                            + [[e / p for e in row]]))
                for p in ring.uniformizers)
        elif k == "intersect":
            # inside both, and length(X / X^Y) = length((X+Y) / Y)
            a, b, meet = result
            ok = (a.contains(meet) and b.contains(meet)
                  and L.quotient_length(a, meet)
                  == L.quotient_length(L.add(a, b), b))
        elif k == "contains":
            a, b = spec["_args"]
            ok = result == (L.quotient_length(L.add(a, b), a) == 0)
        elif k == "quotient_length":
            # additivity along X > I + pi X > I
            a, b = spec["_args"]
            mid = L.add(b, a.scale(pi))
            ok = result == L.quotient_length(a, mid) + \
                L.quotient_length(mid, b)
        elif k == "equal":
            a, b = spec["_args"]
            top = L.add(a, b)
            ok = result == (L.quotient_length(top, a) == 0
                            and L.quotient_length(top, b) == 0)
        else:
            raise ValueError(k)
        return None if ok else "wrong"


# ---------------------------------------------------------------------------
# classifiers through the command line entry point
# ---------------------------------------------------------------------------

class Classify:
    """`cli.main(["--output", "json", ...])` in process on generated JSON
    files, plus `tensor_glider` as a library call."""

    deadline_s = 5.0

    def __init__(self):
        from gliderbs import cli, jsonio

        self.cli = cli
        self.jsonio = jsonio
        self.s = ClassifyShared()

    def deadline(self, spec):
        return self.deadline_s

    def _cli(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(["--output", "json"] + argv)
        return code, buf.getvalue()

    def prepare(self, spec):
        k = spec["k"]
        if k in ("csa", "csa_reducible", "field"):
            argv = ["classify", "--glider", spec["file"]]
        elif k == "subglider":
            argv = ["subglider", "--sub", spec["sub"], "--glider",
                    spec["file"]]
        elif k == "rank2":
            argv = ["rank2", "classify", "--glider", spec["file"]]
        elif k == "tensor":
            from gliderbs.tensorext import tensor_glider

            chain = self._load(spec["file"])
            return lambda: tensor_glider(chain, self.s.ext, tf=self.s.tf)
        else:
            raise ValueError(k)
        return lambda: self._cli(argv)

    def _load(self, path):
        with open(path, encoding="utf-8") as fh:
            return self.jsonio.loads_glider(fh.read())

    def check(self, spec, result):
        k = spec["k"]
        if k == "tensor":
            return self._check_tensor(spec, result)
        code, text = result
        out = json.loads(text)
        if code != 0:
            return "error:" + out.get("kind", "exit%d" % code)
        res = out["results"]
        if k == "csa":
            ok = res["verdict"] == "irreducible" and \
                res["element"] == spec["expect"]
        elif k == "field":
            if spec["filt"] == "fpq":
                # the two-prime localization has no irreducible chains
                ok = res["verdict"] == "reducible" and \
                    self._witness_ok(spec, res)
            else:
                ok = res["verdict"] == "irreducible" and \
                    res["element"] == {"kind": "field",
                                       "shift": spec["shift"]}
        elif k == "csa_reducible":
            ok = res["verdict"] == "reducible" and \
                self._witness_ok(spec, res)
        elif k == "subglider":
            d = spec["d"]
            ok = res["kind"] == "T3" and \
                res["alpha"][:4] == [d, d + 1, d + 2, d + 3]
        elif k == "rank2":
            ok = res["verdict"] == "irreducible" and \
                res["shift"] == spec["shift"]
        else:
            raise ValueError(k)
        return None if ok else "wrong"

    def _witness_ok(self, spec, res):
        """A reducibility witness must re-verify as a nontrivial subglider
        of the shifted chain."""
        from gliderbs.glider import Glider, classify_subglider, shift

        chain = self._load(spec["file"])
        w = self.jsonio.loads_glider(res["witness"])
        # decoded separately, the witness has its own filtration object
        witness = Glider(chain.filtration, w.ambient, w.prefix, w.tail,
                         alg=chain.alg)
        return classify_subglider(
            witness, shift(chain, res["witnessShift"])).kind == "nontrivial"

    def _check_tensor(self, spec, tg):
        from gliderbs.gbs import BsPoint, classify_csa_glider
        from gliderbs.glider import is_glider

        if not is_glider(tg)[0]:
            return "wrong"
        v = classify_csa_glider(tg)
        ext = self.s.ext
        q = self.s.q
        pt = BsPoint([ext.embed(q.parse(c)) for c in spec["point"]])
        ok = v.status == "irreducible" and v.element.shift == \
            spec["shift"] and v.element.point == pt
        return None if ok else "wrong"


def make(workload):
    if workload == "groupoid":
        return Groupoid()
    if workload == "kernel-q":
        return Kernel(("q5", "q23"), {"q5": 1.0, "q23": 1.0})
    if workload == "kernel-ext":
        # the function-field ops take up to ~0.2 s
        return Kernel(KERNEL_EXT_RINGS, {"f3x": 3.0, "qx": 3.0})
    if workload == "classify":
        return Classify()
    raise ValueError(f"unknown workload {workload!r}")
