"""The radical of an order by probing its residue algebra: the reference
of the differential tests of `orders.radical`.

B/pB is a finite algebra over a finite residue field, so its radical is
the sum of the nilpotent two-sided ideals that single elements generate.
`probe_radical` enumerates every element of B/pB, on field elements, with
its own multiplication table in the order basis, and keeps those whose
two-sided ideal is nilpotent.  The cost grows with |B/pB| = q^d, so only
small residue algebras are probed here.
"""

from itertools import product

from gliderbs import linalg
from gliderbs.lattice import mult, span


def probe_radical(order, j):
    """(P, e): the preimage P of the radical of B/pB at the j-th prime of
    the base, and the least e with P^e inside pB (at most d)."""
    b, alg = order.lattice, order.alg
    base = order.base
    v = base.valuations[j]
    fld = v.residue_field()
    d = alg.dim
    field = base.field

    def red(vec):
        cs = b.coords(vec)
        return [v.residue(c) if c else fld.zero() for c in cs]

    # multiplication table of the quotient algebra in the order basis
    mul_table = [[red(alg.mul_coords(r1, r2, field)) for r2 in b.rows]
                 for r1 in b.rows]

    def q_mul(u, w):
        out = [fld.zero()] * d
        for s, cu in enumerate(u):
            if not cu:
                continue
            for t, cw in enumerate(w):
                if not cw:
                    continue
                prod = cu * cw
                for idx, c in enumerate(mul_table[s][t]):
                    if c:
                        out[idx] = out[idx] + prod * c
        return out

    basis_elems = [[fld.one() if i == s else fld.zero() for i in range(d)]
                   for s in range(d)]

    def two_sided_ideal(x):
        gens = []
        for a in basis_elems:
            ax = q_mul(a, x)
            for c in basis_elems:
                gens.append(q_mul(ax, c))
        rows, _ = linalg.rref([g for g in gens if any(g)], fld)
        return rows

    def is_nilpotent_ideal(rows):
        # powers strictly descend until zero, so dim+1 steps decide
        current = rows
        for _ in range(d + 1):
            if not current:
                return True
            nxt = [q_mul(u, w) for u in current for w in rows]
            current, _ = linalg.rref([g for g in nxt if any(g)], fld)
        return not current

    radical_rows = []
    for x in map(list, product(fld.elements(), repeat=d)):
        # zero, or already in the radical found so far
        if not any(linalg.reduce([x], radical_rows)[1][0]):
            continue
        ideal_rows = two_sided_ideal(x)
        if is_nilpotent_ideal(ideal_rows):
            radical_rows, _ = linalg.rref(radical_rows + ideal_rows, fld)
    # preimage lattice: lifts of the radical basis plus p*B
    pi = base.uniformizers[j]
    lifts = []
    for row in radical_rows:
        vec = [field.zero()] * d
        for s, c in enumerate(row):
            if c:
                vec = [a + v.lift(c) * e2 for a, e2 in zip(vec, b.rows[s])]
        lifts.append(vec)
    ideal = span(base, d, lifts + [[pi * e2 for e2 in row]
                                   for row in b.rows])
    pb = b.scale(pi)
    power, e = ideal, 1
    while e < d and not pb.contains(power):
        power = mult(power, ideal, alg)
        e += 1
    return ideal, e
