"""Spectral sequences of the two standard filtrations of Tot.

Both read the differential D_n for d1 + d2 of the analysis's integer
copy (Analysis._leads), the matrix its total tables take rk D_n from:
the copy's rows are the input's, realified over Q(i) and scaled by one
integer per target cell, which keeps the rank of every row prefix x
column prefix.  The column filtration F^p Tot^n collects the summands
with first index at least p.  No subspace is ever built: every page is
read off the pivots of one rank profile per total degree, and the first
filtration's profiles are the ones rk D_n is counted from.

The profile lemma (Dumas, Pernet, Sultan, Computing the rank profile
matrix, ISSAC 2015).  linalg.echelon_leads inserts the rows of a matrix
in order into an echelon basis; row i gets a lead column when it is
independent of the rows above it, and then

    rank(rows[:hi] restricted to columns[:k]) = #{i < hi : 0 <= lead_i < k}

for every row bound hi and column bound k.  In the p-ascending summand
layout F^a Tot^n is a column suffix and the rows outside F^b Tot^{n+1}
a row prefix, so D_n enters with each row reversed.  Each pivot is
counted by the first index of the summands holding its row (in
Tot^{n+1}) and its lead (in Tot^n).

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

The second filtration (by rows) keys the summands by q, which runs
down the layout: D_n enters with its row order reversed, and the pages
are worked out on (q, p) keys and swapped back.

Pages stabilize once r exceeds the column span: d_r moves the first
index by r, so no differential can connect two occupied columns any
more.  r_stab = (max p - min p) + 1 bounds that, and degenerates_at
compares page r against page r_stab.
"""

from __future__ import annotations

from collections import Counter

from .cohomology import Analysis

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
    """Pages from the profile pivots of an analysis's D_n for d1 + d2, on
    cells keyed (filtration index, other index): (q, p) for "second"."""

    def __init__(self, a, which):
        self.which = which
        self.a = a
        i = self.i = int(which == "second")  # where the filtration index sits in (p, q)
        self.dims = dict(sorted(((c[i], c[1 - i]), d) for c, d in a.dc.dims.items()))
        # n -> the filtration index of each coordinate of Tot^n, whose
        # summands run by p ascending
        self.index = {}
        for c, d in sorted(a.dc.dims.items()):
            self.index.setdefault(c[0] + c[1], []).extend([c[i]] * d)

    def r_stab(self):
        ps = [p for p, _q in self.dims] or [0]
        return max(ps) - min(ps) + 1

    def _profile(self, n):
        """The rank profile of D_n, each pivot keyed by the filtration
        index of the summands holding its row and its lead."""
        col, row = self.index[n], self.index[n + 1]
        if self.i:  # q runs down the layout: the rows outside F'^b are a suffix
            row = row[::-1]
        else:  # p runs up the layout: F^a is a column suffix
            col = col[::-1]
        leads = self.a._leads(n, second=bool(self.i))
        return Counter((row[k], col[x]) for k, x in enumerate(leads) if x >= 0)

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
        for n in sorted(self.index):
            if n + 1 not in self.index:
                continue  # D_n has no rows, so no pivots
            for (row, lead), k in self._profile(n).items():
                out_ranks.setdefault(row - lead, {})[(lead, n - lead)] = k
        dims = self.dims  # E_0
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


def pages(obj, which="first", r_max=None):
    """Pages r = 1 .. r_max (default: up to stabilization) of one filtration.

    obj is a DoubleComplex, validated first, or its Analysis (anything
    else raises ValueError).  which = "first" filters by the first index
    (columns), "second" by the second.
    """
    if which not in ("first", "second"):
        raise ValueError("which must be 'first' or 'second'")
    if r_max is not None and r_max < 1:
        raise ValueError("r_max must be at least 1")
    eng = _Engine(Analysis.of(obj), which)
    return eng.pages(eng.r_stab() if r_max is None else r_max)


def degenerates_at(obj, which="first", r=1):
    """True when page r already equals the limit page; obj as for pages."""
    if r < 1:
        raise ValueError("pages are numbered from 1")
    pgs = pages(obj, which)
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
    the pair's PairAnalysis, which already holds all three tables and
    says whether Tot is graded and the degrees are coprime.
    """
    if not pa.graded:
        raise ValueError("Tot of Doub is infinite-dimensional when deg1 == deg2")
    if not pa.characterizes:
        raise ValueError("degeneration check needs coprime differential degrees")
    h = pa.total_table(1)
    first, second = ({n: h[n] == s[n] for n in h}
                     for s in (pa.total_degree_sums("D2"), pa.total_degree_sums("D1")))
    return {
        "first": all(first.values()),
        "second": all(second.values()),
        "per_degree": {"first": first, "second": second},
    }
