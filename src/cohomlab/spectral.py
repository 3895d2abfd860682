"""Spectral sequences of the two standard filtrations of Tot.

The column filtration F^p Tot^n collects the summands with first index
at least p; in the p-ascending summand layout it is a coordinate
suffix.  Approximate cycles are plain subspaces of Tot^n:

    Z_r^{p,q} = F^p Tot^n  n  d^{-1}( F^{p+r} Tot^{n+1} ),       n = p+q,

with Z_0^{p,q} = F^p Tot^n (d preserves the filtration), and

    E_r^{p,q} = Z_r^{p,q} / ( d Z_{r-1}^{p-r+1, q+r-2} + Z_{r-1}^{p+1, q-1} ).

The denominator is contained in the numerator for every valid complex,
so dimensions come from quotient_dim and a violation raises instead of
returning nonsense.  The rank of d_r out of (p,q) is computed the same
way: dim( (d Z_r^{p,q} + Bden_tgt) / Bden_tgt ) at the target cell.
Two independent computations must then satisfy the page recurrence

    dim E_{r+1}^{p,q} = dim E_r^{p,q} - rank d_r out - rank d_r in,

which the tests and the fuzz suite check on every generated complex.

The second filtration (by rows) is computed by running the same
machinery on the transposed complex and swapping the bidegree keys
back; no second implementation to keep in sync.

Pages stabilize once r exceeds the column span: d_r moves the first
index by r, so no differential can connect two occupied columns any
more.  r_stab = (max p - min p) + 1 bounds that, and degenerates_at
compares page r against page r_stab.
"""

from __future__ import annotations

import math

from .linalg import map_subspace, preimage, quotient_dim, rank
from .complexes import (
    doub_tot_summands,
    doub_total_cohomology,
    require_valid,
    tot,
)

__all__ = [
    "SpectralPage",
    "degenerates_at",
    "doub_degeneration_check",
    "pages",
]


class SpectralPage:
    """One page: sparse dims {(p,q): dim} and dr_ranks {(p,q): rank}.

    dr_ranks[(p,q)] is the rank of d_r out of (p,q); zero ranks and zero
    dims are omitted.
    """

    __slots__ = ("which", "r", "dims", "dr_ranks")

    def __init__(self, which, r, dims, dr_ranks):
        self.which = which
        self.r = r
        self.dims = dims
        self.dr_ranks = dr_ranks

    def __repr__(self):
        return "SpectralPage(%s, r=%d, %d nonzero cells)" % (
            self.which, self.r, len(self.dims),
        )


class _Engine:
    def __init__(self, dc):
        self.dc = dc
        self.t = tot(dc, 1)
        self.support = dc.support()
        self._filt = {}
        self._pre = {}
        self._z = {}
        self._dz = {}
        self._bden = {}

    def r_stab(self):
        if not self.support:
            return 1
        ps = [p for p, _q in self.support]
        return max(ps) - min(ps) + 1

    def filt(self, n, p):
        key = (n, p)
        f = self._filt.get(key)
        if f is None:
            f = self.t.filtration(n, p)
            self._filt[key] = f
        return f

    def pre(self, n, p):
        """Preimage of F^p Tot^{n+1} under the total differential at n."""
        key = (n, p)
        w = self._pre.get(key)
        if w is None:
            w = preimage(self.t.block(n), self.filt(n + 1, p))
            self._pre[key] = w
        return w

    def z(self, p, n, r):
        key = (p, n, r)
        s = self._z.get(key)
        if s is None:
            if r == 0:
                s = self.filt(n, p)
            else:
                s = self.filt(n, p).intersect(self.pre(n, p + r))
            self._z[key] = s
        return s

    def dz(self, p, n, r):
        """d(Z_r^{p, n-p}) as a subspace of Tot^{n+1}."""
        key = (p, n, r)
        s = self._dz.get(key)
        if s is None:
            s = map_subspace(self.t.block(n), self.z(p, n, r))
            self._dz[key] = s
        return s

    def bden(self, p, q, r):
        key = (p, q, r)
        s = self._bden.get(key)
        if s is None:
            n = p + q
            s = self.dz(p - r + 1, n - 1, r - 1).sum(self.z(p + 1, n, r - 1))
            self._bden[key] = s
        return s

    def page(self, r, which):
        dims = {}
        for (p, q) in self.support:
            d = quotient_dim(self.z(p, p + q, r), self.bden(p, q, r))
            if d:
                dims[(p, q)] = d
        ranks = {}
        for (p, q), d in dims.items():
            tgt = (p + r, q - r + 1)
            if dims.get(tgt, 0) == 0:
                continue
            b = self.bden(tgt[0], tgt[1], r)
            rk = self.dz(p, p + q, r).sum(b).dim - b.dim
            if rk:
                ranks[(p, q)] = rk
        return SpectralPage(which, r, dims, ranks)


def _swap_keys(table):
    return {(q, p): v for (p, q), v in table.items()}


def pages(dc, which="first", r_max=None, validated=False):
    """Pages r = 1 .. r_max (default: up to stabilization) of one filtration.

    which = "first" filters by the first index (columns), "second" by
    the second (rows, computed on the transpose and swapped back).
    """
    if which not in ("first", "second"):
        raise ValueError("which must be 'first' or 'second'")
    if not validated:
        require_valid(dc)
    if which == "second":
        inner = pages(dc.transpose(), "first", r_max, validated=True)
        return [
            SpectralPage("second", pg.r, _swap_keys(pg.dims), _swap_keys(pg.dr_ranks))
            for pg in inner
        ]
    eng = _Engine(dc)
    upto = eng.r_stab() if r_max is None else r_max
    if upto < 1:
        raise ValueError("r_max must be at least 1")
    return [eng.page(r, which) for r in range(1, upto + 1)]


def degenerates_at(dc, which="first", r=1, validated=False):
    """True when page r already equals the limit page."""
    if r < 1:
        raise ValueError("pages are numbered from 1")
    pgs = pages(dc, which, None, validated=validated)
    if r >= len(pgs):
        return True
    return pgs[r - 1].dims == pgs[-1].dims


def doub_degeneration_check(bp, validated=False):
    """Dimension test for first-page degeneration of both sequences of Doub.

    For a pair with coprime differential degrees (and deg1 != deg2, so
    Tot Doub is finite in each degree) the first page of the column
    sequence restricted to one total degree n sums the D2 flavor over
    the degrees hitting n, and the row sequence sums the D1 flavor.
    Degeneration at the first page is equivalent to those sums equaling
    dim H^n(Tot Doub); periodicity makes one period of n enough.
    """
    if not validated:
        require_valid(bp)
    delta = bp.deg1 - bp.deg2
    if delta == 0:
        raise ValueError("Tot of Doub is infinite-dimensional when deg1 == deg2")
    if math.gcd(abs(bp.deg1), abs(bp.deg2)) != 1:
        raise ValueError("degeneration check needs coprime differential degrees")

    def d1_dim(k):
        return bp.dim(k) - rank(bp.d1_block(k)) - rank(bp.d1_block(k - bp.deg1))

    def d2_dim(k):
        return bp.dim(k) - rank(bp.d2_block(k)) - rank(bp.d2_block(k - bp.deg2))

    h = doub_total_cohomology(bp, 1)
    first = {}
    second = {}
    for n in range(abs(delta)):
        ks = [k for _p, k in doub_tot_summands(bp, n)]
        first[n] = h[n] == sum(d2_dim(k) for k in ks)
        second[n] = h[n] == sum(d1_dim(k) for k in ks)
    return {
        "first": all(first.values()),
        "second": all(second.values()),
        "per_degree": {"first": first, "second": second},
    }
