"""Small dense exact linear algebra over any field.

Matrices are lists of lists (rows) of entries.  `k` gives `zero()` and
`one()`, and where its entries have no exact operators of their own, the
arithmetic on them: `add`, `sub`, `mul`, `div` and `nonzero`.  A `Field`
gives the first two, for its elements; a field's `reps` all seven, on
reps: `Fraction` over Q, ints mod p over F_p, `_Poly` mod g over K[t]/(g).
So each routine has one body, and a residue field's vectors need no
element wrappers.  Sizes here are tiny (d <= 9).  Two eliminations do all
the work: `reduce` reduces vectors against rows already in echelon form,
and `rref` brings rows to reduced echelon form; the null space is read
off `rref`.  Lattices do not compute here, their kernel computes on the
base ring's elements (`lattice`): this is linear algebra over fields,
residue fields among them.
"""

from __future__ import annotations

import operator

__all__ = ["vec_mat", "reduce", "rref", "right_nullspace"]

_OPERATORS = (("add", operator.add), ("sub", operator.sub),
              ("mul", operator.mul), ("div", operator.truediv),
              ("nonzero", bool))


def _arith(k):
    """k's add, sub, mul, div and nonzero, each one the entries' own
    operator where k has none."""
    return [getattr(k, name, op) for name, op in _OPERATORS]


def vec_mat(v, A, k=None):
    add, _, mul, _, _ = _arith(k)
    m, n = len(A), len(A[0])
    out = []
    for j in range(n):
        s = None
        for t in range(m):
            term = mul(v[t], A[t][j])
            s = term if s is None else add(s, term)
        out.append(s)
    return out


def reduce(vectors, rows, k=None):
    """Reduce each vector against echelon rows, whose pivots (first nonzero
    entries) lie in strictly increasing columns.

    Returns (Q, rest) with vectors[s] = sum_r Q[s][r] * rows[r] + rest[s];
    rest[s] is zero at every pivot column, and it is zero exactly when
    vectors[s] lies in the span of the rows.  The rows are the outer loop,
    so each pivot is found once.
    """
    _, sub, mul, div, nonzero = _arith(k)
    rest = [list(v) for v in vectors]
    Q = [[] for _ in rest]
    for row in rows:
        c = next(i for i, e in enumerate(row) if nonzero(e))
        for s, w in enumerate(rest):
            q = div(w[c], row[c])
            Q[s].append(q)
            if nonzero(q):
                rest[s] = [sub(a, mul(q, b)) for a, b in zip(w, row)]
    return Q, rest


def rref(A, k):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    _, sub, mul, div, nonzero = _arith(k)
    M = [list(row) for row in A]
    rows = len(M)
    cols = len(M[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if nonzero(M[i][c])), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = div(k.one(), M[r][c])
        M[r] = [mul(e, inv) for e in M[r]]
        for i in range(rows):
            if i != r and nonzero(M[i][c]):
                q = M[i][c]
                M[i] = [sub(a, mul(q, b)) for a, b in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return M[:r], pivots


def right_nullspace(A, k):
    """Basis (list of column vectors as lists) of {v : A v = 0}."""
    rows, pivots = rref(A, k)
    sub = _arith(k)[1]
    cols = len(A[0]) if A else 0
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [k.zero()] * cols
        v[f] = k.one()
        for r, p in enumerate(pivots):
            v[p] = sub(k.zero(), rows[r][f])
        basis.append(v)
    return basis
