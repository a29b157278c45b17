"""The lattice operations by field arithmetic: the reference of the
differential tests of the lattice kernel.

The library computes every lattice on the elements of one ring per base
(`BaseRing.ring`).  `PlainKernel` computes the same modules the plain way:
linear algebra over the field on kernel scalars (`linalg`, with `mat_inv`
and `left_nullspace` here), and one normal form, `field_hnf`, on field
elements, whose mixing, values and principal-part digits are read off the
valuations.  A plain lattice is a `Plain`: its dimension and canonical
rows, in the kernel's scalars, on which it computes with the scalars'
own arithmetic, as `linalg` does.  `Library` gives the library's operations
the same names, so that one test body runs on either.  A lattice's store
(`Lattice.store`, what `lattice._hnf` returns) is read here only, by
`store_rows`.
"""

from collections import namedtuple

from gliderbs import linalg
from gliderbs import lattice as L
from gliderbs.errors import (BaseMismatchError, ContainmentError, RankError,
                             UnsupportedError)


def mat_inv(A, field):
    """A^-1: the right half of the reduced row echelon form of [A | I]."""
    n = len(A)
    rows, pivots = linalg.rref([list(row) + [field.one() if i == j
                                             else field.zero()
                                             for j in range(n)]
                                for i, row in enumerate(A)], field)
    if pivots != list(range(n)):
        raise RankError("matrix is singular")
    return [row[n:] for row in rows]


def left_nullspace(A, field):
    """Basis of row vectors u with u A = 0."""
    t = [[A[r][c] for r in range(len(A))] for c in range(len(A[0]))]
    return linalg.right_nullspace(t, field)


def sum_prod(u, v, k):
    """sum u_i v_i, by the arithmetic of the scalars k."""
    add, _, mul, _, nonzero = linalg._arith(k)
    s = k.zero()
    for a, b in zip(u, v):
        if nonzero(a) and nonzero(b):
            s = add(s, mul(a, b))
    return s


def mix_coefficient(base, a, b):
    """c in R with the values of a + c*b the componentwise minimum of
    those of a and b, for field elements: the product of the uniformizers
    where the values tie."""
    va, vb = base.val_vector(a), base.val_vector(b)
    c = base.from_exponents(tuple(int(s == t) for s, t in zip(va, vb)))
    if base.val_vector(a + c * b) != tuple(map(min, va, vb)):
        raise UnsupportedError(
            "mixing coefficient missed the componentwise minimum valuation")
    return c


def reduce_mod(base, u, g):
    """The canonical representative of the coset u + g*R of field
    elements: g times the principal parts of u/g at each valuation, whose
    digits are the canonical lifts of residues."""
    if not u:
        return u
    h, pp = u / g, base.field.zero()
    for v in base.valuations:
        pp, h = v.strip_principal_part(pp, h)
    return g * pp


def field_hnf(base, dim, vectors, k=None):
    """The canonical rows of the span of vectors of the scalars k (the
    base's `scalars` by default), by field arithmetic: the rows are
    wrapped as elements on entry and unwrapped on exit."""
    k = k or base.scalars
    nonzero = linalg._arith(k)[4]
    work = []
    for v in vectors:
        if len(v) != dim:
            raise BaseMismatchError("generator of wrong length")
        if any(map(nonzero, v)):
            work.append(list(k.wrap_row(v)))
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
            c = mix_coefficient(base, work[i0][col], work[i1][col])
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
        work = [r for j, r in enumerate(work) if j != piv and any(r)]
        result.append(prow)
    # reduce entries above each pivot to canonical coset representatives
    for ri in range(len(result)):
        prow = result[ri]
        pcol = next(c for c, e in enumerate(prow) if e)
        g = prow[pcol]
        for rj in range(ri):
            u = result[rj][pcol]
            if not u:
                continue
            q = (u - reduce_mod(base, u, g)) / g
            if q:
                result[rj] = [a - q * b for a, b in zip(result[rj], prow)]
    return tuple([tuple(map(k.unwrap, r)) for r in result])


def store_rows(base, store):
    """The rows of a store (nums, den, pivots) on the base's ring, as
    kernel scalars."""
    nums, den, _ = store
    return tuple([base.ring.rat_row(r, den) for r in nums])


def ring_hnf(base, dim, vectors):
    """`lattice._hnf` on vectors of kernel scalars: each enters the ring
    through `int_row`, and the store leaves as rows of kernel scalars."""
    ring = base.ring
    return store_rows(base, L._hnf(base, dim, [ring.int_row(v)
                                               for v in vectors]))


Plain = namedtuple("Plain", "dim rows")


class PlainKernel:
    """The operations of `lattice` on `Plain` lattices over `base`, in the
    scalars k (the base's `scalars` by default), with the normal form
    `hnf(dim, vectors)` (`field_hnf` by default)."""

    def __init__(self, base, k=None, hnf=None):
        self.base, self.k = base, k or base.scalars
        self.mul, self.nonzero = (linalg._arith(self.k)[i] for i in (2, 4))
        self.hnf = hnf or (lambda dim, vecs: field_hnf(base, dim, vecs,
                                                       self.k))

    def _span(self, dim, vectors):
        return Plain(dim, self.hnf(dim, vectors))

    def span(self, dim, vectors):
        return self._span(dim, list(map(self.k.unwrap_row, vectors)))

    def rows(self, lat):
        return tuple(map(self.k.wrap_row, lat.rows))

    def equal(self, x, y):
        return x == y

    def hash(self, lat):
        return hash(lat)

    def scale(self, lat, t):
        t = self.k.unwrap(t)
        return self._span(lat.dim, [[self.mul(t, e) for e in r]
                                    for r in lat.rows])

    def add(self, x, y):
        return self._span(x.dim, x.rows + y.rows)

    def _product(self, alg, u, w):
        """u w in coordinates, multiplied as elements of the field."""
        k = self.k
        return k.unwrap_row(alg.mul_coords(k.wrap_row(u), k.wrap_row(w),
                                           self.base.field))

    def mult(self, x, y, alg):
        out = self._span(x.dim, [self._product(alg, u, w)
                                 for u in x.rows for w in y.rows])
        return out if out.rows else L.ZERO_MODULE

    def solve_dual(self, dim, int_conditions, zero_conditions=()):
        k = self.k
        embed = None
        if zero_conditions:
            embed = linalg.right_nullspace(
                list(map(k.unwrap_row, zero_conditions)), k)
            if not embed:
                return Plain(dim, ())
        space_dim = dim if embed is None else len(embed)
        conds = list(map(k.unwrap_row, int_conditions))
        if embed is not None:
            conds = [[sum_prod(row, t, k) for row in embed] for t in conds]
        rows = self.hnf(space_dim, conds)
        if len(rows) < space_dim:
            raise RankError("solution set is not a lattice (free directions)")
        einv = mat_inv(rows, k)
        basis = [[einv[r][c] for r in range(space_dim)]
                 for c in range(space_dim)]
        if embed is not None:
            basis = [linalg.vec_mat(b, embed, k) for b in basis]
        return self._span(dim, basis)

    def coords_matrix(self, vectors, lat):
        """(Q, residual): the coordinates of each vector in lat's basis, and
        the nonzero columns of the remainders, conditions that vanish iff
        the vectors lie in lat's K-span."""
        Q, rest = linalg.reduce(vectors, lat.rows, self.k)
        residual = []
        for col in range(lat.dim):
            t = [w[col] for w in rest]
            if any(map(self.nonzero, t)):
                residual.append(t)
        return Q, residual

    def intersect(self, x, y):
        k, dim = self.k, x.dim
        rank_x, rank_y = len(x.rows), len(y.rows)
        if rank_x == rank_y == dim:
            conds = []
            for mat in (mat_inv(x.rows, k), mat_inv(y.rows, k)):
                for c in range(dim):
                    conds.append([mat[r][c] for r in range(dim)])
            return self.solve_dual(dim, conds)
        if not (rank_x and rank_y):
            return Plain(dim, ())
        # common K-span first
        null = left_nullspace(x.rows + y.rows, k)
        span_vecs = [linalg.vec_mat(u[:rank_x], x.rows, k) for u in null]
        sbasis, _ = linalg.rref(span_vecs, k)
        if not sbasis:
            return Plain(dim, ())
        conds = []
        for lat in (x, y):
            qmat, _ = self.coords_matrix(sbasis, lat)
            for i in range(len(lat.rows)):
                conds.append([qmat[s][i] for s in range(len(sbasis))])
        z = self.solve_dual(len(sbasis), conds)
        return self._span(dim, [linalg.vec_mat(r, sbasis, k)
                                for r in z.rows])

    def colon(self, x, y, alg, side):
        k, dim = self.k, x.dim
        int_conds, zero_conds = [], []
        for w in y.rows:
            prods = []
            for s in range(dim):
                e_s = alg.basis_vector(s, k)
                prods.append(self._product(alg, e_s, w) if side == "left"
                             else self._product(alg, w, e_s))
            Q, residual = self.coords_matrix(prods, x)
            for i in range(len(x.rows)):
                int_conds.append([Q[s][i] for s in range(dim)])
            zero_conds.extend(residual)
        return self.solve_dual(dim, int_conds, zero_conds)

    def _integral(self, vec):
        k, base = self.k, self.base
        return all(base.is_integral(k.wrap(e)) for e in vec)

    def coords(self, lat, vec):
        k = self.k
        (q,), (rest,) = linalg.reduce([k.unwrap_row(vec)], lat.rows, k)
        return None if any(map(self.nonzero, rest)) else list(k.wrap_row(q))

    def contains_vector(self, lat, vec):
        vec, nonzero = self.k.unwrap_row(vec), self.nonzero
        if not any(map(nonzero, vec)):
            return True
        (q,), (rest,) = linalg.reduce([vec], lat.rows, self.k)
        return not any(map(nonzero, rest)) and self._integral(q)

    def contains(self, x, y):
        if y is L.ZERO_MODULE:
            return True
        return all(self.contains_vector(x, self.k.wrap_row(r))
                   for r in y.rows)

    def quotient_length(self, x, y):
        Q, residual = self.coords_matrix(y.rows, x)
        if residual or len(x.rows) != len(y.rows):
            raise ContainmentError("Y is not contained in X with equal span")
        if not all(map(self._integral, Q)):
            raise ContainmentError("Y is not contained in X")
        # Q is triangular with diagonal pivot_Y / pivot_X
        base, k = self.base, self.k

        def pivot_value(row):
            return sum(base.val_vector(k.wrap(next(filter(self.nonzero,
                                                          row)))))

        return sum(pivot_value(ry) - pivot_value(rx)
                   for rx, ry in zip(x.rows, y.rows))


class Library:
    """The library's lattice operations under the names of `PlainKernel`."""

    def __init__(self, base):
        self.base = base

    def span(self, dim, vectors):
        return L.span(self.base, dim, vectors)

    def rows(self, lat):
        return lat.rows

    def equal(self, x, y):
        return x == y

    def hash(self, lat):
        return hash(lat)

    def scale(self, lat, t):
        return lat.scale(t)

    def add(self, x, y):
        return x.add(y)

    def mult(self, x, y, alg):
        return L.mult(x, y, alg)

    def solve_dual(self, dim, int_conditions, zero_conditions=()):
        return L.solve_dual(self.base, dim, int_conditions, zero_conditions)

    def intersect(self, x, y):
        return L.intersect(x, y)

    def colon(self, x, y, alg, side):
        return L._colon(x, y, alg, side)

    def coords(self, lat, vec):
        return lat.coords(vec)

    def contains_vector(self, lat, vec):
        return lat.contains_vector(vec)

    def contains(self, x, y):
        return x.contains(y)

    def quotient_length(self, x, y):
        return L.quotient_length(x, y)
