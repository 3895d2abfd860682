"""Bounded double complexes, Z-graded bidifferential pairs, total complexes.

Conventions fixed here and used by every other module:

  * d1 has bidegree (1,0), d2 has bidegree (0,1);
  * the relations are d1 d1 = 0, d2 d2 = 0 and d1 d2 + d2 d1 = 0
    (anticommuting squares, as for (del, delbar) on complex manifolds);
  * absent spaces and blocks are zero;
  * inside a fixed total degree of Tot, summands are ordered by p
    ascending, so assembled block matrices are reproducible.

A BidiffPair is the Z-graded analogue: one grading, two differentials
with arbitrary fixed degrees deg1, deg2, same relations.  Its canonical
double complex Doub has Doub^{p,q} = A^{deg1*p + deg2*q}, realized here
lazily (PeriodicDoub); for deg1 != deg2 each total degree of Doub is a
finite direct sum and everything stays computable.
"""

from __future__ import annotations

from .linalg import Matrix, rank

__all__ = [
    "BidiffPair",
    "DoubleComplex",
    "GradedComplex",
    "PeriodicDoub",
    "TotalComplex",
    "doub",
    "doub_total_block",
    "doub_tot_summands",
    "require_valid",
    "tot",
]


def _check_spaces(spaces, where):
    bad = []
    for key, dim in spaces.items():
        if not isinstance(dim, int) or dim <= 0:
            bad.append("%s at %s: dimension must be a positive int, got %r"
                       % (where, key, dim))
    return bad


class DoubleComplex:
    """A bounded double complex given by dimensions and differential blocks.

    spaces: {(p, q): dim}, only nonzero spaces listed.
    d1: {(p, q): Matrix} block of the (1,0) differential out of (p, q).
    d2: {(p, q): Matrix} block of the (0,1) differential out of (p, q).
    """

    def __init__(self, spaces, d1, d2):
        self.spaces = dict(spaces)
        self.d1 = dict(d1)
        self.d2 = dict(d2)

    def dim(self, p, q):
        return self.spaces.get((p, q), 0)

    def support(self):
        return sorted(self.spaces)

    def d1_block(self, p, q):
        b = self.d1.get((p, q))
        if b is None:
            return Matrix.zero(self.dim(p + 1, q), self.dim(p, q))
        return b

    def d2_block(self, p, q):
        b = self.d2.get((p, q))
        if b is None:
            return Matrix.zero(self.dim(p, q + 1), self.dim(p, q))
        return b

    def transpose(self):
        """Swap the two directions: (p,q) -> (q,p), d1 <-> d2."""
        sp = {(q, p): d for (p, q), d in self.spaces.items()}
        d1 = {(q, p): m for (p, q), m in self.d2.items()}
        d2 = {(q, p): m for (p, q), m in self.d1.items()}
        return DoubleComplex(sp, d1, d2)

    def total_range(self):
        if not self.spaces:
            return (0, -1)
        degs = [p + q for p, q in self.spaces]
        return (min(degs), max(degs))

    def total_dim(self):
        return sum(self.spaces.values())

    def validate(self):
        """List of relation/shape violations; empty list means valid."""
        out = _check_spaces(self.spaces, "space")
        for name, blocks, tshift in (("d1", self.d1, (1, 0)), ("d2", self.d2, (0, 1))):
            for (p, q), m in blocks.items():
                src = self.dim(p, q)
                tgt = self.dim(p + tshift[0], q + tshift[1])
                if src == 0:
                    out.append("%s block at (%d,%d): source space not declared" % (name, p, q))
                    continue
                if tgt == 0:
                    out.append("%s block at (%d,%d): target space not declared" % (name, p, q))
                    continue
                if (m.nrows, m.ncols) != (tgt, src):
                    out.append(
                        "%s block at (%d,%d): shape %dx%d, expected %dx%d"
                        % (name, p, q, m.nrows, m.ncols, tgt, src)
                    )
        if out:
            return out  # relation checks need sane shapes
        for (p, q) in self.support():
            if self.d1.get((p, q)) is not None and self.d1.get((p + 1, q)) is not None:
                if not self.d1[(p + 1, q)].mul(self.d1[(p, q)]).is_zero():
                    out.append("d1 o d1 != 0 starting at (%d,%d)" % (p, q))
            if self.d2.get((p, q)) is not None and self.d2.get((p, q + 1)) is not None:
                if not self.d2[(p, q + 1)].mul(self.d2[(p, q)]).is_zero():
                    out.append("d2 o d2 != 0 starting at (%d,%d)" % (p, q))
            path1 = self.d1.get((p, q)) is not None and self.d2.get((p + 1, q)) is not None
            path2 = self.d2.get((p, q)) is not None and self.d1.get((p, q + 1)) is not None
            if path1 or path2:
                acc = self.d2_block(p + 1, q).mul(self.d1_block(p, q)).add(
                    self.d1_block(p, q + 1).mul(self.d2_block(p, q))
                )
                if not acc.is_zero():
                    out.append("d1 d2 + d2 d1 != 0 starting at (%d,%d)" % (p, q))
        return out


class BidiffPair:
    """Z-graded space with two anticommuting differentials.

    dims: {degree: dim}; deg1/deg2: the degrees of delta1/delta2;
    d1/d2: {degree: Matrix} blocks keyed by source degree.  Relations are
    the same three as for a double complex.
    """

    def __init__(self, dims, deg1, deg2, d1, d2):
        self.dims = dict(dims)
        self.deg1 = deg1
        self.deg2 = deg2
        self.d1 = dict(d1)
        self.d2 = dict(d2)

    def dim(self, k):
        return self.dims.get(k, 0)

    def support(self):
        return sorted(self.dims)

    def d1_block(self, k):
        b = self.d1.get(k)
        if b is None:
            return Matrix.zero(self.dim(k + self.deg1), self.dim(k))
        return b

    def d2_block(self, k):
        b = self.d2.get(k)
        if b is None:
            return Matrix.zero(self.dim(k + self.deg2), self.dim(k))
        return b

    def validate(self):
        out = _check_spaces(self.dims, "degree")
        for name, blocks, shift in (("d1", self.d1, self.deg1), ("d2", self.d2, self.deg2)):
            for k, m in blocks.items():
                src = self.dim(k)
                tgt = self.dim(k + shift)
                if src == 0:
                    out.append("%s block at degree %d: source not declared" % (name, k))
                    continue
                if tgt == 0:
                    out.append("%s block at degree %d: target not declared" % (name, k))
                    continue
                if (m.nrows, m.ncols) != (tgt, src):
                    out.append(
                        "%s block at degree %d: shape %dx%d, expected %dx%d"
                        % (name, k, m.nrows, m.ncols, tgt, src)
                    )
        if out:
            return out
        e1, e2 = self.deg1, self.deg2
        for k in self.support():
            if self.d1.get(k) is not None and self.d1.get(k + e1) is not None:
                if not self.d1[k + e1].mul(self.d1[k]).is_zero():
                    out.append("d1 o d1 != 0 starting at degree %d" % k)
            if self.d2.get(k) is not None and self.d2.get(k + e2) is not None:
                if not self.d2[k + e2].mul(self.d2[k]).is_zero():
                    out.append("d2 o d2 != 0 starting at degree %d" % k)
            p1 = self.d1.get(k) is not None and self.d2.get(k + e1) is not None
            p2 = self.d2.get(k) is not None and self.d1.get(k + e2) is not None
            if p1 or p2:
                acc = self.d2_block(k + e1).mul(self.d1_block(k)).add(
                    self.d1_block(k + e2).mul(self.d2_block(k))
                )
                if not acc.is_zero():
                    out.append("d1 d2 + d2 d1 != 0 starting at degree %d" % k)
        return out


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
        out = _check_spaces(self.dims, "degree")
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
    """Tot of a double complex, with the summand layout retained.

    layout: {n: [(p, q, offset, dim), ...]} with p ascending; the offset
    is the coordinate where the (p,q) block starts inside Tot^n; the
    filtrations of the spectral sequences are read off it.
    """

    def __init__(self, dims, d, layout, sign):
        super().__init__(dims, d)
        self.layout = layout
        self.sign = sign

    def summands(self, n):
        return self.layout.get(n, [])


def tot(dc, sign=1):
    """Total complex of a double complex with differential d1 + sign*d2."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    lo, hi = dc.total_range()
    layout = {}
    dims = {}
    for (p, q) in dc.support():
        layout.setdefault(p + q, []).append((p, q))
    for n in layout:
        layout[n].sort()
    full_layout = {}
    for n, cells in layout.items():
        off = 0
        entries = []
        for (p, q) in cells:
            d = dc.dim(p, q)
            entries.append((p, q, off, d))
            off += d
        full_layout[n] = entries
        dims[n] = off
    blocks = {}
    for n in range(lo, hi):
        src = full_layout.get(n, [])
        tgt = full_layout.get(n + 1, [])
        if not src or not tgt:
            continue
        tpos = {(p, q): (off, d) for (p, q, off, d) in tgt}
        m = dims[n + 1]
        k = dims[n]
        rows = [[0] * k for _ in range(m)]
        for (p, q, soff, sd) in src:
            for mat, cell, scale in (
                (dc.d1.get((p, q)), (p + 1, q), 1),
                (dc.d2.get((p, q)), (p, q + 1), sign),
            ):
                if mat is None or cell not in tpos:
                    continue
                toff = tpos[cell][0]
                for i in range(mat.nrows):
                    mrow = mat.rows[i]
                    trow = rows[toff + i]
                    for j in range(sd):
                        x = mrow[j]
                        if x:
                            trow[soff + j] = scale * x if scale != 1 else x
        blocks[n] = Matrix(rows, k)
    return TotalComplex(dims, blocks, full_layout, sign)


# ---------------------------------------------------------------------------
# the canonical double complex of a bidifferential pair


class PeriodicDoub:
    """Lazy view of Doub(bp): Doub^{p,q} = A^{deg1*p + deg2*q} (x) K b^q.

    The d1-direction operator is delta1 (x) id with bidegree (1,0); the
    d2-direction operator is delta2 (x) b with bidegree (0,1).  On the
    underlying spaces both act by the original blocks, so the accessors
    simply translate bidegrees to degrees of the pair.
    """

    def __init__(self, bp):
        self.bp = bp

    def degree(self, p, q):
        return self.bp.deg1 * p + self.bp.deg2 * q

    def dim(self, p, q):
        return self.bp.dim(self.degree(p, q))

    def d1_block(self, p, q):
        return self.bp.d1_block(self.degree(p, q))

    def d2_block(self, p, q):
        return self.bp.d2_block(self.degree(p, q))

    def window(self, pmin, pmax, qmin, qmax):
        """Materialize a finite rectangle as an honest DoubleComplex."""
        spaces = {}
        d1 = {}
        d2 = {}
        for p in range(pmin, pmax + 1):
            for q in range(qmin, qmax + 1):
                d = self.dim(p, q)
                if d:
                    spaces[(p, q)] = d
        for (p, q) in spaces:
            if (p + 1, q) in spaces:
                b = self.d1_block(p, q)
                if not b.is_zero():
                    d1[(p, q)] = b
            if (p, q + 1) in spaces:
                b = self.d2_block(p, q)
                if not b.is_zero():
                    d2[(p, q)] = b
        return DoubleComplex(spaces, d1, d2)


def doub(bp):
    """Canonical double complex of a validated bidifferential pair."""
    require_valid(bp)
    return PeriodicDoub(bp)


def doub_tot_summands(bp, n):
    """Summands of Tot^n Doub(bp) as (p, degree) pairs, p ascending.

    With k = deg1*p + deg2*q and p + q = n one gets k = deg2*n + delta*p
    for delta = deg1 - deg2, so the contributing degrees are those in the
    support congruent to deg2*n mod delta, each from exactly one p.
    Requires deg1 != deg2 (otherwise Tot^n is an infinite sum).
    """
    delta = bp.deg1 - bp.deg2
    if delta == 0:
        raise ValueError("Tot of Doub is infinite-dimensional when deg1 == deg2")
    out = []
    for k in bp.support():
        if (k - bp.deg2 * n) % delta == 0:
            p = (k - bp.deg2 * n) // delta
            out.append((p, k))
    out.sort()
    return out


def doub_total_block(bp, n, sign=1):
    """The differential Tot^n Doub -> Tot^{n+1} Doub as one matrix."""
    src = doub_tot_summands(bp, n)
    tgt = doub_tot_summands(bp, n + 1)
    soff = {}
    off = 0
    for (p, k) in src:
        soff[p] = (off, k)
        off += bp.dim(k)
    sdim = off
    toff = {}
    off = 0
    for (p, k) in tgt:
        toff[p] = (off, k)
        off += bp.dim(k)
    tdim = off
    rows = [[0] * sdim for _ in range(tdim)]
    for (p, k) in src:
        so = soff[p][0]
        # delta1 goes to summand p+1, delta2 (with the sign) to summand p
        for shift, mat, scale in ((1, bp.d1_block(k), 1), (0, bp.d2_block(k), sign)):
            tp = p + shift
            if tp not in toff or mat.nrows == 0:
                continue
            to = toff[tp][0]
            for i in range(mat.nrows):
                mrow = mat.rows[i]
                trow = rows[to + i]
                for j in range(mat.ncols):
                    x = mrow[j]
                    if x:
                        trow[so + j] = scale * x if scale != 1 else x
    return Matrix(rows, sdim)

