"""Small dense exact linear algebra over any field.

Matrices are lists of lists (rows) of field elements, or of the reps of a
field with its `reps` in the place of the field.  Sizes here are tiny
(d <= 9).  Two eliminations do all the work: `reduce` reduces vectors
against rows already in echelon form, and `rref` brings rows to reduced
echelon form; the null space is read off `rref`.  Lattices do not
compute here, their kernel computes on the base ring's elements
(`lattice`): this is linear algebra over fields, residue fields among
them.
"""

from __future__ import annotations

__all__ = ["vec_mat", "reduce", "rref", "right_nullspace"]


def vec_mat(v, A):
    m, k = len(A), len(A[0])
    out = []
    for j in range(k):
        s = None
        for t in range(m):
            term = v[t] * A[t][j]
            s = term if s is None else s + term
        out.append(s)
    return out


def reduce(vectors, rows):
    """Reduce each vector against echelon rows, whose pivots (first nonzero
    entries) lie in strictly increasing columns.

    Returns (Q, rest) with vectors[s] = sum_r Q[s][r] * rows[r] + rest[s];
    rest[s] is zero at every pivot column, and it is zero exactly when
    vectors[s] lies in the span of the rows.  The rows are the outer loop,
    so each pivot is found once.
    """
    rest = [list(v) for v in vectors]
    Q = [[] for _ in rest]
    for row in rows:
        c = next(i for i, e in enumerate(row) if e)
        for s, w in enumerate(rest):
            q = w[c] / row[c]
            Q[s].append(q)
            if q:
                rest[s] = [a - q * b for a, b in zip(w, row)]
    return Q, rest


def rref(A, field):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    M = [list(row) for row in A]
    rows = len(M)
    cols = len(M[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = field.one() / M[r][c]
        M[r] = [e * inv for e in M[r]]
        for i in range(rows):
            if i != r and M[i][c]:
                q = M[i][c]
                M[i] = [a - q * b for a, b in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return M[:r], pivots


def right_nullspace(A, field):
    """Basis (list of column vectors as lists) of {v : A v = 0}."""
    rows, pivots = rref(A, field)
    cols = len(A[0]) if A else 0
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [field.zero()] * cols
        v[f] = field.one()
        for r, p in enumerate(pivots):
            v[p] = -rows[r][f]
        basis.append(v)
    return basis

