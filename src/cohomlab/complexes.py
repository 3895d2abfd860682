"""Bounded double complexes, Z-graded bidifferential pairs, total complexes.

Conventions fixed here and used by every other module:

  * d1 has bidegree (1,0), d2 has bidegree (0,1);
  * the relations are d1 d1 = 0, d2 d2 = 0 and d1 d2 + d2 d1 = 0
    (anticommuting squares, as for (del, delbar) on complex manifolds);
  * absent spaces and blocks are zero;
  * inside a fixed total degree of Tot, summands are ordered by p
    ascending, so assembled block matrices are reproducible.

A BidiffPair is the Z-graded analogue: one grading, two differentials
with arbitrary fixed degrees deg1, deg2, same relations.  Both kinds
keep their spaces and blocks by cell (a bidegree, or a degree of the
pair) and differ only in how a cell steps by d1 and d2, so they share
one validate.  The canonical double complex of a pair has
Doub^{p,q} = A^{deg1*p + deg2*q}.  It is realized only through tot:
for deg1 != deg2 each total degree of Doub is a finite direct sum, and
Tot Doub is periodic in the total degree with period |deg1 - deg2|, so
tot builds it over one period.
"""

from __future__ import annotations

from functools import reduce

from .linalg import Matrix, rank

__all__ = [
    "BidiffPair",
    "DoubleComplex",
    "GradedComplex",
    "TotalComplex",
    "cell_name",
    "require_valid",
    "tot",
]


def cell_name(key):
    """'(p,q)' for a bidegree, 'degree k' for a degree of a pair."""
    return "(%s,%s)" % key if isinstance(key, tuple) else "degree %s" % (key,)


def _check_spaces(dims):
    return ["space at %s: dimension must be a positive int, got %r" % (cell_name(key), dim)
            for key, dim in dims.items() if not isinstance(dim, int) or dim <= 0]


class _Bicomplex:
    """Spaces and two anticommuting differentials, keyed by cell.

    dims: {cell: dim}, only nonzero spaces listed; d1/d2: {cell: Matrix}
    blocks keyed by source cell.  A subclass says where a cell goes under
    i steps of d1 and j of d2 (shift) and which cells make up each total
    degree of Tot, and with what period (_tot_cells).
    """

    def __init__(self, dims, d1, d2):
        self.dims = dict(dims)
        self.d1 = dict(d1)
        self.d2 = dict(d2)

    def support(self):
        return sorted(self.dims)

    def _block(self, blocks, key, step):
        """The block out of key, or a zero block when none is given."""
        b = blocks.get(key)
        if b is None:
            return Matrix.zero(self.dims.get(self.shift(key, *step), 0), self.dims.get(key, 0))
        return b

    def validate(self):
        """List of relation/shape violations; empty list means valid."""
        dims, d1, d2 = self.dims, self.d1, self.d2
        out = _check_spaces(dims)
        for name, blocks, step in (("d1", d1, (1, 0)), ("d2", d2, (0, 1))):
            for key, m in blocks.items():
                src, tgt = dims.get(key, 0), dims.get(self.shift(key, *step), 0)
                if not src or not tgt:
                    out.append("%s block at %s: %s space not declared"
                               % (name, cell_name(key), "target" if src else "source"))
                elif (m.nrows, m.ncols) != (tgt, src):
                    out.append("%s block at %s: shape %dx%d, expected %dx%d"
                               % (name, cell_name(key), m.nrows, m.ncols, tgt, src))
        if out:
            return out  # relation checks need sane shapes
        for key in self.support():
            up1, up2 = self.shift(key, 1, 0), self.shift(key, 0, 1)
            for name, blocks, up in (("d1", d1, up1), ("d2", d2, up2)):
                if key in blocks and up in blocks and not blocks[up].mul(blocks[key]).is_zero():
                    out.append("%s o %s != 0 starting at %s" % (name, name, cell_name(key)))
            paths = [second[up].mul(first[key])
                     for first, second, up in ((d1, d2, up1), (d2, d1, up2))
                     if key in first and up in second]
            if paths and not reduce(Matrix.add, paths).is_zero():
                out.append("d1 d2 + d2 d1 != 0 starting at " + cell_name(key))
        return out


class DoubleComplex(_Bicomplex):
    """A bounded double complex given by dimensions and differential blocks.

    spaces: {(p, q): dim}, only nonzero spaces listed.
    d1: {(p, q): Matrix} block of the (1,0) differential out of (p, q).
    d2: {(p, q): Matrix} block of the (0,1) differential out of (p, q).
    """

    @property
    def spaces(self):
        return self.dims

    def dim(self, p, q):
        return self.dims.get((p, q), 0)

    def d1_block(self, p, q):
        return self._block(self.d1, (p, q), (1, 0))

    def d2_block(self, p, q):
        return self._block(self.d2, (p, q), (0, 1))

    def transpose(self):
        """Swap the two directions: (p,q) -> (q,p), d1 <-> d2."""
        sp = {(q, p): d for (p, q), d in self.dims.items()}
        d1 = {(q, p): m for (p, q), m in self.d2.items()}
        d2 = {(q, p): m for (p, q), m in self.d1.items()}
        return DoubleComplex(sp, d1, d2)

    def total_range(self):
        if not self.dims:
            return (0, -1)
        degs = [p + q for p, q in self.dims]
        return (min(degs), max(degs))

    def total_dim(self):
        return sum(self.dims.values())

    def shift(self, key, i, j):
        """The bidegree i steps of d1 and j of d2 away from key."""
        return (key[0] + i, key[1] + j)

    def _tot_cells(self):
        cells = {}
        for p, q in self.support():
            cells.setdefault(p + q, []).append((p, q, (p, q)))
        return cells, None


class BidiffPair(_Bicomplex):
    """Z-graded space with two anticommuting differentials.

    dims: {degree: dim}; deg1/deg2: the degrees of delta1/delta2;
    d1/d2: {degree: Matrix} blocks keyed by source degree.  Relations are
    the same three as for a double complex.
    """

    def __init__(self, dims, deg1, deg2, d1, d2):
        super().__init__(dims, d1, d2)
        self.deg1 = deg1
        self.deg2 = deg2

    def dim(self, k):
        return self.dims.get(k, 0)

    def d1_block(self, k):
        return self._block(self.d1, k, (1, 0))

    def d2_block(self, k):
        return self._block(self.d2, k, (0, 1))

    def shift(self, k, i, j):
        """The degree i steps of d1 and j of d2 away from k."""
        return k + i * self.deg1 + j * self.deg2

    def _tot_cells(self):
        """Doub^{p,q} = A^{deg1*p + deg2*q} over total degrees n = 0..|delta|,
        delta = deg1 - deg2: degree k sits in Tot^n at p = (k - deg2*n)/delta.
        Tot^{|delta|} repeats Tot^0 with every p shifted by the same amount,
        so the block out of degree |delta| - 1 lands in Tot^0's coordinates."""
        delta = self.deg1 - self.deg2
        if not delta:
            raise ValueError("Tot of Doub is infinite-dimensional when deg1 == deg2")
        cells = {}
        for n in range(abs(delta) + 1):
            for k in self.support():
                p, rest = divmod(k - self.deg2 * n, delta)
                if not rest:
                    cells.setdefault(n, []).append((p, n - p, k))
        return {n: sorted(row) for n, row in cells.items()}, abs(delta)


def require_valid(obj):
    """Raise ValueError with the violation list unless obj validates."""
    bad = obj.validate()
    if bad:
        raise ValueError("invalid complex: " + "; ".join(bad))


class GradedComplex:
    """Z-graded complex with one differential of degree +1."""

    def __init__(self, dims, d):
        self.dims = {k: v for k, v in dims.items() if v}
        self.d = dict(d)

    def dim(self, k):
        return self.dims.get(k, 0)

    def block(self, k):
        b = self.d.get(k)
        if b is None:
            return Matrix.zero(self.dim(k + 1), self.dim(k))
        return b

    def degree_range(self):
        if not self.dims:
            return (0, -1)
        return (min(self.dims), max(self.dims))

    def validate(self):
        out = _check_spaces(self.dims)
        for k, m in self.d.items():
            if (m.nrows, m.ncols) != (self.dim(k + 1), self.dim(k)):
                out.append(
                    "d block at degree %d: shape %dx%d, expected %dx%d"
                    % (k, m.nrows, m.ncols, self.dim(k + 1), self.dim(k))
                )
        if out:
            return out
        for k in self.dims:
            if self.d.get(k) is not None and self.d.get(k + 1) is not None:
                if not self.d[k + 1].mul(self.d[k]).is_zero():
                    out.append("d o d != 0 starting at degree %d" % k)
        return out

    def cohomology(self):
        """{degree: dim H} over the degree range of the support."""
        lo, hi = self.degree_range()
        out = {}
        ranks = {}
        for k in range(lo - 1, hi + 1):
            ranks[k] = rank(self.block(k))
        for k in range(lo, hi + 1):
            out[k] = self.dim(k) - ranks[k] - ranks[k - 1]
        return out


class TotalComplex(GradedComplex):
    """Tot of a double complex, or of Doub of a pair, with the summand
    layout retained.

    layout: {n: [(p, q, offset, dim), ...]} with p ascending; the offset
    is the coordinate where the (p,q) block starts inside Tot^n; the
    filtrations of the spectral sequences are read off it.  cells(n)
    names the cell of the complex behind each summand of Tot^n, in the
    same order.  period is None for a double complex; for Doub of a pair
    it is |deg1 - deg2|, and Tot^{n + period} repeats Tot^n.
    """

    def __init__(self, dims, d, layout, sign, cells, period):
        super().__init__(dims, d)
        self.layout = layout
        self.sign = sign
        self._cells = cells
        self.period = period

    def summands(self, n):
        return self.layout.get(n, [])

    def cells(self, n):
        return self._cells.get(n, [])

    def cohomology(self):
        """{degree: dim H}; one degree per residue class when periodic."""
        if self.period is None:
            return super().cohomology()
        rk = [rank(self.block(n)) for n in range(self.period)]
        return {n: self.dim(n) - rk[n] - rk[n - 1] for n in range(self.period)}


def tot(obj, sign=1):
    """Tot with differential d1 + sign*d2 of a double complex, or of Doub
    of a pair with deg1 != deg2 over one period n = 0..|deg1 - deg2|.

    Out of the summand (p, q) of Tot^n, d1 lands in the summand (p+1, q)
    of Tot^{n+1} and sign*d2 in the summand (p, q+1).
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    cells, period = obj._tot_cells()
    layout, dims = {}, {}
    for n, row in cells.items():
        off, layout[n] = 0, []
        for p, q, key in row:
            layout[n].append((p, q, off, obj.dims[key]))
            off += obj.dims[key]
        dims[n] = off
    blocks = {}
    for n, row in cells.items():
        if n + 1 not in cells:
            continue
        tpos = {(p, q): off for (p, q, off, _d) in layout[n + 1]}
        rows = [{} for _ in range(dims[n + 1])]
        for (p, q, key), (_p, _q, soff, sd) in zip(row, layout[n]):
            for mat, cell, scale in (
                (obj.d1.get(key), (p + 1, q), 1),
                (obj.d2.get(key), (p, q + 1), sign),
            ):
                if mat is None or cell not in tpos:
                    continue
                for trow, mrow in zip(rows[tpos[cell]:], mat.sparse):
                    for j, x in mrow.items():
                        trow[soff + j] = scale * x if scale != 1 else x
        blocks[n] = Matrix.from_sparse(rows, dims[n])
    return TotalComplex(dims, blocks, layout, sign,
                        {n: [key for _p, _q, key in row] for n, row in cells.items()}, period)
