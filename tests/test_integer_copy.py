"""The integer copy an analysis ranks on, against linalg.rank on its blocks.

An Analysis or PairAnalysis converts its d1/d2 blocks once: a Gaussian
block is realified and the blocks into one target cell are cleared by
one integer scale.  Every rank it reads from the copy (the cell records,
rk D_n of both signs and the rank profiles the spectral pages read) must
equal the rank of the input's own blocks over its own field, whatever
the entries: ints, Fractions, Gaussian integers and Gaussian rationals
with Fraction parts, with unequal denominators into one cell.  The
blocks here need not form a complex: the copy keeps ranks of any
matrices, so the records are compared without validating.
"""

import sys
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cohomlab import linalg
from cohomlab.cli import main
from cohomlab.cohomology import Analysis, PairAnalysis
from cohomlab.complexes import BidiffPair, DoubleComplex, tot
from cohomlab.linalg import Matrix, hstack, kernel, rank, rank_profile, vstack
from cohomlab.scalars import GaussianRational

_ints = st.integers(-3, 3)
_fractions = st.builds(Fraction, _ints, st.integers(1, 6))
KINDS = {
    "int": _ints,
    "fraction": st.one_of(_ints, _fractions),
    "gaussian-int": st.builds(GaussianRational, _ints, _ints),
    "gaussian-fraction": st.builds(GaussianRational, _fractions, _fractions),
}


@st.composite
def blocks(draw, nrows, ncols):
    """A block of one drawn kind; zeros and repeated rows give rank drops."""
    entries = KINDS[draw(st.sampled_from(sorted(KINDS)))]
    rows = []
    for _ in range(nrows):
        if rows and draw(st.integers(0, 3)) == 0:
            c = draw(entries)
            rows.append([c * x for x in draw(st.sampled_from(rows))])
        else:
            rows.append([draw(st.one_of(st.just(0), entries)) for _ in range(ncols)])
    return Matrix(rows, ncols)


@st.composite
def grids(draw):
    """A DoubleComplex-shaped input on a 3x3 grid with arbitrary blocks.

    Some d2 blocks are drawn inside the kernel of the d1 after them, with
    Fraction coefficients, so that d1 d2 vanishes (or drops rank) by
    cancellation between rows of unequal denominators: a scale per row
    instead of per cell would change those ranks."""
    cells = [(p, q) for p in range(3) for q in range(3)]
    dims = {c: d for c in cells if (d := draw(st.integers(0, 3)))}
    d1, d2 = {}, {}
    for (p, q), n in dims.items():
        for out, tgt in ((d1, (p + 1, q)), (d2, (p, q + 1))):
            if tgt in dims and draw(st.booleans()):
                out[(p, q)] = draw(blocks(dims[tgt], n))
    for (p, q), m in list(d2.items()):
        after = d1.get((p, q + 1))
        if after is None or not draw(st.booleans()):
            continue
        ker = kernel(after).basis
        if not ker:
            continue
        coeffs = KINDS[draw(st.sampled_from(["fraction", "gaussian-fraction"]))]
        cols = [[draw(coeffs) for _ in ker] for _ in range(m.ncols)]
        d2[(p, q)] = Matrix([[sum((c * v.get(i, 0) for c, v in zip(col, ker)), 0)
                              for col in cols] for i in range(m.nrows)], m.ncols)
    return DoubleComplex(dims, d1, d2)


@st.composite
def pairs(draw):
    """A BidiffPair-shaped input on degrees 0..4 with arbitrary blocks."""
    deg1, deg2 = draw(st.sampled_from([(1, 1), (1, -1), (2, -1), (1, 2)]))
    dims = {k: d for k in range(5) if (d := draw(st.integers(0, 2)))}
    d1, d2 = {}, {}
    for k, n in dims.items():
        for out, tgt in ((d1, k + deg1), (d2, k + deg2)):
            if tgt in dims and draw(st.booleans()):
                out[k] = draw(blocks(dims[tgt], n))
    return BidiffPair(dims, deg1, deg2, d1, d2)


def reference_record(n, d1, d2, d1_next, d1_in, d2_in):
    """The record's ranks, by linalg.rank on the input's blocks."""
    if not n:
        return (0,) * 6
    return (n, rank(d1), rank(d2), rank(d1_next.mul(d2)), rank(vstack(d1, d2)),
            rank(hstack(d1_in, d2_in)))


def reversed_columns(m):
    w = m.ncols - 1
    return Matrix.from_sparse([{w - c: x for c, x in r.items()} for r in m.sparse], m.ncols)


@settings(max_examples=300, deadline=None)
@given(grids())
def test_copy_records_tot_ranks_and_profiles_match_the_blocks(dc):
    a = Analysis(dc, validated=True)
    for p in range(-1, 4):
        for q in range(-1, 4):
            want = reference_record(dc.dim(p, q), dc.d1_block(p, q), dc.d2_block(p, q),
                                    dc.d1_block(p, q + 1), dc.d1_block(p - 1, q),
                                    dc.d2_block(p, q - 1))
            assert a._record((p, q)) == want, (p, q)
    for n in range(-1, 5):
        plus, minus = tot(dc, 1).block(n), tot(dc, -1).block(n)
        assert a._rank_plus(n) == rank(plus), n
        assert a._rank(a._tot_block(a._int, -1, n)) == rank(minus), n
        assert a._leads(n) == rank_profile(reversed_columns(plus)), n
        assert a._leads(n, second=True) == rank_profile(
            Matrix.from_sparse(plus.sparse[::-1], plus.ncols)), n


@settings(max_examples=200, deadline=None)
@given(pairs())
def test_pair_copy_records_and_tot_ranks_match_the_blocks(bp):
    a = PairAnalysis(bp, validated=True)
    for k in range(-3, 8):
        want = reference_record(bp.dim(k), bp.d1_block(k), bp.d2_block(k),
                                bp.d1_block(k + bp.deg2), bp.d1_block(k - bp.deg1),
                                bp.d2_block(k - bp.deg2))
        assert a._record(k) == want, k
    for n in (a._tot_degrees() if a.delta else range(-1, 6)):
        for sign in (1, -1):
            want = rank(a._tot_block(bp, sign, n))
            assert a._rank(a._tot_block(a._int, sign, n)) == want, (n, sign)


def test_unequal_denominators_into_one_cell_share_one_scale():
    """d1 and d2 into (1, 1) carry denominators 3, 2 and 4, so the cell's
    scale is 12.  d2 out of (1, 0) is the middle factor of d1 d2, which
    is 0: [1 2] [1/2; -1/4] = 0.  Scaled as a whole it stays 0; clearing
    its rows one by one (by 2 and by 4) would give [1 2] [1; -1] = -1."""
    dc = DoubleComplex(
        {(0, 1): 1, (1, 0): 1, (1, 1): 2, (2, 1): 1},
        {(0, 1): Matrix([[Fraction(1, 3)], [Fraction(1, 3)]]), (1, 1): Matrix([[1, 2]])},
        {(1, 0): Matrix([[Fraction(1, 2)], [Fraction(-1, 4)]])})
    a = Analysis(dc, validated=True)
    into = a._int.d1[(0, 1)], a._int.d2[(1, 0)]
    assert [m.sparse for m in into] == [[{0: 4}, {0: 4}], [{0: 6}, {0: -3}]]
    assert a._record((1, 0)) == (1, 0, 1, 0, 1, 0)
    assert a._record((1, 1)) == (2, 1, 0, 0, 1, 2)


def test_no_integer_rows_call_comes_from_the_analysis(monkeypatch, capsys):
    """analyze on Gaussian, rational and integer inputs, with pages: the
    library's per-call dispatch still runs (the symplectic sections in
    geometry use it) but never under cohomology or spectral."""
    calls = {"analysis": 0, "other": 0}
    real = linalg._integer_rows

    def spy(rows):
        f = sys._getframe(1)
        while f and f.f_globals.get("__name__") not in ("cohomlab.cohomology",
                                                         "cohomlab.spectral"):
            f = f.f_back
        calls["analysis" if f else "other"] += 1
        return real(rows)

    monkeypatch.setattr(linalg, "_integer_rows", spy)
    for args in (("iwasawa-complex", "--spectral", "4"), ("iwasawa-symplectic",),
                 ("heisenberg3",), ("abelian:4", "--spectral", "2")):
        assert main(["analyze", "--builtin", *args]) == 0
    capsys.readouterr()
    assert calls["analysis"] == 0
    assert calls["other"] > 0
