"""Spectral sequences of the two standard filtrations of Tot.

The column filtration F^p Tot^n collects the summands with first index
at least p; in the p-ascending summand layout it is a coordinate
suffix.  No subspace is ever built: every page is read off the pivots
of one rank profile per total degree.

The profile lemma (Dumas, Pernet, Sultan, Computing the rank profile
matrix, ISSAC 2015).  linalg.rank_profile inserts the rows of the Tot
differential D_n in order into an echelon basis of the columns read
right to left; row i gets a lead column when it is independent of the
rows above it, and then

    rank(rows[:hi] restricted to columns lo:) = #{i < hi : lead_i >= lo}

for every row bound hi and column offset lo.  Each pivot (i, lead_i) is
counted by the first index of the summand holding its row (in
Tot^{n+1}) and of the summand holding its lead (in Tot^n).

The pivot statement.  A pivot of length s = (row p) - (lead p) is
exactly one rank of d_s: the rank of d_r out of (p,q) is the number of
pivots of D_{p+q} with lead in column p and row in column p+r.  With
E_0^{p,q} = dim(p,q), each page follows from the one before,

    dim E_{r+1}^{p,q} = dim E_r^{p,q} - rank d_r out of (p,q)
                                      - rank d_r into (p,q),

where d_r into (p,q) is d_r out of (p-r, q+r-1).  So E_1 subtracts the
length-0 pivots (d_0 = the vertical differential), and one pass over r
gives every page.  The same pages are signed sums of the ranks
R_n(a, b) of the blocks of D_n with columns in F^a and rows outside
F^b; those sums telescope to this recurrence, e.g. R_n(p, p+r) -
R_n(p+1, p+r) counts the pivots with lead in column p and row below
column p+r.  tests/test_rank_profile.py computes the pages from R on
sliced ranks as an independent reference.

Pages run only on validated complexes, so a negative dimension, or a
rank of d_r above the page-r dimension of its source or target, is an
engine bug and raises naming the cell.  On the last page no later
subtraction sees the d_r ranks, so that bound is their only check there.

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
    """Pages from the profile pivots; dc is the transpose for "second"."""

    def __init__(self, dc, which):
        self.dc = dc
        self.which = which
        self.t = tot(dc, 1)
        self.support = dc.support()

    def r_stab(self):
        if not self.support:
            return 1
        ps = [p for p, _q in self.support]
        return max(ps) - min(ps) + 1

    def _profile(self, n):
        """The rank profile of D_n, each pivot keyed by the first index of
        the summand holding its row and of the summand holding its lead."""
        t = self.t
        col_p = [p for (p, _q, _off, d) in t.summands(n) for _ in range(d)]
        row_p = [p for (p, _q, _off, d) in t.summands(n + 1) for _ in range(d)]
        return Counter((row_p[i], col_p[x])
                       for i, x in enumerate(rank_profile(t.block(n))) if x >= 0)

    def _checked(self, value, what, r, p, q, bound=None):
        if value < 0 or (bound is not None and value > bound):
            cell = (q, p) if self.which == "second" else (p, q)
            raise AssertionError(
                "spectral engine bug: %s of E_%d at %r in the %s filtration is %d%s"
                % (what, r, cell, self.which, value,
                   "" if value < 0 else ", above %d" % bound))
        return value

    def pages(self, upto):
        """Pages 1 .. upto in one pass over r."""
        # {s: {(p,q): rank of d_s out of (p,q)}}, from the length-s pivots
        out_ranks = {}
        t = self.t
        for n in sorted({p + q for p, q in self.support}):
            if not t.dim(n + 1):
                continue  # D_n has no rows, so no pivots
            for (row, lead), k in self._profile(n).items():
                out_ranks.setdefault(row - lead, {})[(lead, n - lead)] = k
        dims = {c: self.dc.dim(*c) for c in self.support}  # E_0
        result = []
        for r in range(upto + 1):
            ranks = out_ranks.get(r, {})
            if r:
                for (p, q), k in ranks.items():
                    self._checked(k, "rank of d_r out", r, p, q,
                                  min(dims.get((p, q), 0), dims.get((p + r, q - r + 1), 0)))
                page = (dims, ranks)
                if self.which == "second":
                    page = ({(q, p): v for (p, q), v in t.items()} for t in page)
                result.append(SpectralPage(self.which, r, *page))
            if r < upto:
                nxt = {}
                for (p, q), d in dims.items():
                    e = d - ranks.get((p, q), 0) - ranks.get((p - r, q + r - 1), 0)
                    if e:
                        nxt[(p, q)] = self._checked(e, "dimension", r + 1, p, q)
                dims = nxt
        return result


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
    return eng.pages(upto)


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
