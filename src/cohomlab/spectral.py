"""Spectral sequences of the two standard filtrations of Tot.

The column filtration F^p Tot^n collects the summands with first index
at least p; in the p-ascending summand layout it is a coordinate
suffix.  With n = p+q and Z_r^p = F^p Tot^n  n  d^{-1}(F^{p+r} Tot^{n+1}),

    E_r^{p,q} = Z_r^p / ( d Z_{r-1}^{p-r+1} + Z_{r-1}^{p+1} ),

but no subspace is ever built.  R_n(a, b) is the rank of the block of
the Tot differential at n with columns in F^a Tot^n and rows outside
F^b Tot^{n+1}: columns from the offset of the first summand with
p >= a, rows before the offset of the first summand with p >= b
(R(a, oo) keeps every row).  Four facts reduce the pages to such ranks:

    dim Z_r^p         = dim F^p - R_n(p, p+r)      (rank-nullity)
    Z_r^p  n  F^{p+1} = Z_{r-1}^{p+1}
    d Z_s^a  n  F^b   = d Z^a_{max(s, b-a)}
    dim d Z_s^a       = R(a, oo) - R(a, a+s)       (Z_s^a contains F^a n ker d)

So the denominator's summands meet in d Z_r^{p-r+1}, and d Z_r^p (onto
the image of d_r) meets the target's in d Z_{r-1}^{p+1} + d Z_{r+1}^p:

    dim E_r^{p,q} = dim(p,q) - [R_n(p, p+r) - R_n(p+1, p+r)]
                  - [R_{n-1}(p-r+1, p+1) - R_{n-1}(p-r+1, p)]
    rank d_r out of (p,q) = [R_n(p, p+r+1) - R_n(p, p+r)]
                          - [R_n(p+1, p+r+1) - R_n(p+1, p+r)]

R comes from one rank profile per degree (Dumas, Pernet, Sultan,
Computing the rank profile matrix, ISSAC 2015).  linalg.rank_profile
inserts the rows of D_n in order into an echelon basis of the columns
read right to left; row i gets a lead column when it is independent of
the rows above it, and then

    rank(rows[:hi] restricted to columns lo:) = #{i < hi : lead_i >= lo}

for every row bound hi and column offset lo.  Both bounds are summand
boundaries, so R_n(a, b) counts the pivots (i, lead_i) whose row lies
in a summand with p < b and whose lead in one with p >= a: a pass per
n gives every (a, b).  The pivots are counted per pair of first
indices, and R is memoised by (n, a, b).

Pages run only on validated complexes, so a negative dimension or rank
is an engine bug and raises.  The page recurrence follows from these
formulas by algebra, so the tests check pages against an independent
subspace computation instead.

The second filtration (by rows) is the first filtration of the
transposed complex, with the bidegree keys swapped back.

Pages stabilize once r exceeds the column span: d_r moves the first
index by r, so no differential can connect two occupied columns any
more.  r_stab = (max p - min p) + 1 bounds that, and degenerates_at
compares page r against page r_stab.
"""

from __future__ import annotations

import math
from collections import Counter

from .linalg import rank_profile
from .complexes import require_valid, tot

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
    """Pages from the rank table R; dc is the transpose for "second"."""

    def __init__(self, dc, which):
        self.dc = dc
        self.which = which
        self.t = tot(dc, 1)
        self.support = dc.support()
        self._pivots = {}  # by n: {(row p, lead p): count} of the profile of D_n
        self._by_index = {}  # by (n, a, b)

    def r_stab(self):
        if not self.support:
            return 1
        ps = [p for p, _q in self.support]
        return max(ps) - min(ps) + 1

    def rank_block(self, n, a, b):
        r = self._by_index.get((n, a, b))
        if r is None:
            pivots = self._pivots.get(n)
            if pivots is None:
                pivots = self._pivots[n] = self._profile(n)
            r = self._by_index[(n, a, b)] = sum(
                k for (pr, pl), k in pivots.items() if pr < b and pl >= a)
        return r

    def _profile(self, n):
        """The rank profile of D_n, each pivot keyed by the first index of
        the summand holding its row and of the summand holding its lead."""
        t = self.t
        col_p = [p for (p, _q, _off, d) in t.summands(n) for _ in range(d)]
        row_p = [p for (p, _q, _off, d) in t.summands(n + 1) for _ in range(d)]
        return Counter((row_p[i], col_p[x])
                       for i, x in enumerate(rank_profile(t.block(n))) if x >= 0)

    def _checked(self, value, what, r, p, q):
        if value < 0:
            cell = (q, p) if self.which == "second" else (p, q)
            raise AssertionError(
                "spectral engine bug: %s of E_%d at %r in the %s filtration is %d"
                % (what, r, cell, self.which, value))
        return value

    def page(self, r):
        R = self.rank_block
        dims = {}
        for (p, q) in self.support:
            n = p + q
            d = self._checked(self.dc.dim(p, q)
                              - R(n, p, p + r) + R(n, p + 1, p + r)
                              - R(n - 1, p - r + 1, p + 1) + R(n - 1, p - r + 1, p),
                              "dimension", r, p, q)
            if d:
                dims[(p, q)] = d
        ranks = {}
        for (p, q) in dims:
            if dims.get((p + r, q - r + 1)):
                n = p + q
                rk = self._checked(R(n, p, p + r + 1) - R(n, p, p + r)
                                   - R(n, p + 1, p + r + 1) + R(n, p + 1, p + r),
                                   "rank of d_r out", r, p, q)
                if rk:
                    ranks[(p, q)] = rk
        if self.which == "second":
            dims, ranks = ({(q, p): v for (p, q), v in t.items()} for t in (dims, ranks))
        return SpectralPage(self.which, r, dims, ranks)


def pages(dc, which="first", r_max=None, validated=False):
    """Pages r = 1 .. r_max (default: up to stabilization) of one filtration.

    which = "first" filters by the first index (columns), "second" by
    the second (rows, computed on the transpose and swapped back).
    """
    if which not in ("first", "second"):
        raise ValueError("which must be 'first' or 'second'")
    if not validated:
        require_valid(dc)
    eng = _Engine(dc.transpose() if which == "second" else dc, which)
    upto = eng.r_stab() if r_max is None else r_max
    if upto < 1:
        raise ValueError("r_max must be at least 1")
    return [eng.page(r) for r in range(1, upto + 1)]


def degenerates_at(dc, which="first", r=1, validated=False):
    """True when page r already equals the limit page."""
    if r < 1:
        raise ValueError("pages are numbered from 1")
    pgs = pages(dc, which, None, validated=validated)
    if r >= len(pgs):
        return True
    return pgs[r - 1].dims == pgs[-1].dims


def doub_degeneration_check(pa):
    """Dimension test for first-page degeneration of both sequences of Doub.

    For a pair with coprime differential degrees (and deg1 != deg2, so
    Tot Doub is finite in each degree) the first page of the column
    sequence restricted to one total degree n sums the D2 flavor over
    the degrees hitting n, and the row sequence sums the D1 flavor.
    Degeneration at the first page is equivalent to those sums equaling
    dim H^n(Tot Doub); periodicity makes one period of n enough.  pa is
    the pair's PairAnalysis, which already holds all three tables.
    """
    bp = pa.bp
    if pa.delta == 0:
        raise ValueError("Tot of Doub is infinite-dimensional when deg1 == deg2")
    if math.gcd(abs(bp.deg1), abs(bp.deg2)) != 1:
        raise ValueError("degeneration check needs coprime differential degrees")
    h = pa.total_table(1)
    first, second = ({n: h[n] == s[n] for n in h}
                     for s in (pa.total_degree_sums("D2"), pa.total_degree_sums("D1")))
    return {
        "first": all(first.values()),
        "second": all(second.values()),
        "per_degree": {"first": first, "second": second},
    }
