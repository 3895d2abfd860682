"""linalg.rank_profile against sliced ranks, and the spectral pages read
from its pivots against pages from a table of sliced ranks."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohomlab import complexes, linalg, spectral
from cohomlab.complexes import tot
from cohomlab.geometry import builtin
from cohomlab.io import BuildResult
from cohomlab.linalg import Matrix, rank, rank_profile
from cohomlab.properties import check_bicomplex
from cohomlab.randomgen import random_bicomplex, shape_complex
from cohomlab.report import make_report
from cohomlab.scalars import GaussianRational
from cohomlab.spectral import SpectralPage, pages
from test_geometry import gaussian_structures
from test_linalg import field_rref


# -- the profile against a rank per slice ---------------------------------


def profile_ranks(m):
    leads = rank_profile(m)
    assert len(leads) == m.nrows
    assert all(-1 <= x < m.ncols for x in leads)
    return [[sum(0 <= x < k for x in leads[:hi]) for k in range(m.ncols + 1)]
            for hi in range(m.nrows + 1)]


def sliced_ranks(m):
    # field Gauss-Jordan, so the reference shares no elimination with
    # rank_profile
    return [[len(field_rref([row[:k] for row in m.rows[:hi]], k)[1])
             for k in range(m.ncols + 1)]
            for hi in range(m.nrows + 1)]


_ints = st.integers(-3, 3)
_fractions = st.builds(Fraction, _ints, st.integers(1, 4))
ENTRIES = {
    "int": _ints,
    "fraction": st.one_of(_ints, _fractions),
    "gaussian": st.one_of(_ints, _fractions, st.builds(GaussianRational, _fractions, _fractions)),
}


@st.composite
def matrices(draw, kind):
    """A matrix of the kind, some of whose rows are combinations of
    earlier ones, so that dependent rows and rank drops show up."""
    ncols = draw(st.integers(0, 6))
    entries = ENTRIES[kind]
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        if rows and draw(st.booleans()):
            row = [0] * ncols
            for prev in rows:
                c = draw(entries)
                row = [x + c * y for x, y in zip(row, prev)]
        else:
            row = draw(st.lists(entries, min_size=ncols, max_size=ncols))
        rows.append(row)
    return Matrix(rows, ncols)


@pytest.mark.parametrize("kind", sorted(ENTRIES))
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_profile_gives_the_rank_of_every_prefix_by_prefix(kind, data):
    m = data.draw(matrices(kind))
    assert profile_ranks(m) == sliced_ranks(m)


@pytest.mark.parametrize("m", [
    Matrix([], 0), Matrix([], 3), Matrix([[], [], []], 0),
    Matrix([[0, 0], [0, 0]]),
    Matrix([[GaussianRational(0, 1), 1], [1, GaussianRational(0, -1)]]),
    Matrix([[Fraction(1, 2), 0, Fraction(-1, 3)], [1, 0, Fraction(-2, 3)]]),
], ids=["0x0", "0x3", "3x0", "zero", "gaussian-rank-1", "fraction-rank-1"])
def test_profile_on_empty_zero_and_dependent_matrices(m):
    assert profile_ranks(m) == sliced_ranks(m)


# -- the engine against one rank per block slice ----------------------------


def filtration_start(t, n, p):
    """Offset where F^p Tot^n starts: its first summand with first index >= p."""
    for (pp, _q, off, _d) in t.summands(n):
        if pp >= p:
            return off
    return t.dim(n)


def test_filtration_of_square_total_degree_one():
    t = tot(shape_complex(("square", 0, 0)))
    # Tot^1 = (0,1) + (1,0): F^p starts at 0 for p <= 0, at 1 for p = 1
    # and is empty (starts at dim 2) beyond
    assert [filtration_start(t, 1, p) for p in (-1, 0, 1, 2, 5)] == [0, 0, 1, 2, 2]


class SlicedEngine:
    """Pages from the rank table R, each R_n(a, b) a fresh rank of the
    sliced Tot block: no rank profile and no pivot bookkeeping.

    R_n(a, b) is the rank of the block of D_n with columns in F^a Tot^n
    and rows outside F^b Tot^{n+1} (R(a, oo) keeps every row).  With
    n = p+q and Z_r^p = F^p Tot^n  n  d^{-1}(F^{p+r} Tot^{n+1}),

        E_r^{p,q} = Z_r^p / ( d Z_{r-1}^{p-r+1} + Z_{r-1}^{p+1} ),

    and four facts reduce the pages to R:

        dim Z_r^p         = dim F^p - R_n(p, p+r)      (rank-nullity)
        Z_r^p  n  F^{p+1} = Z_{r-1}^{p+1}
        d Z_s^a  n  F^b   = d Z^a_{max(s, b-a)}
        dim d Z_s^a       = R(a, oo) - R(a, a+s)       (Z_s^a contains F^a n ker d)

    So the denominator's summands meet in d Z_r^{p-r+1}, and d Z_r^p
    (onto the image of d_r) meets the target's in d Z_{r-1}^{p+1} +
    d Z_{r+1}^p:

        dim E_r^{p,q} = dim(p,q) - [R_n(p, p+r) - R_n(p+1, p+r)]
                      - [R_{n-1}(p-r+1, p+1) - R_{n-1}(p-r+1, p)]
        rank d_r out of (p,q) = [R_n(p, p+r+1) - R_n(p, p+r)]
                              - [R_n(p+1, p+r+1) - R_n(p+1, p+r)]
    """

    def __init__(self, dc, which):
        self.dc = dc
        self.which = which
        self.t = tot(dc, 1)
        self._by_index = {}

    def rank_block(self, n, a, b):
        key = (n, a, b)
        if key not in self._by_index:
            t = self.t
            lo, hi = filtration_start(t, n, a), filtration_start(t, n + 1, b)
            rows = [row[lo:] for row in t.block(n).rows[:hi]]
            self._by_index[key] = rank(Matrix(rows, t.dim(n) - lo))
        return self._by_index[key]

    def page(self, r):
        R = self.rank_block
        dims = {}
        for (p, q) in self.dc.support():
            n = p + q
            d = (self.dc.dim(p, q)
                 - R(n, p, p + r) + R(n, p + 1, p + r)
                 - R(n - 1, p - r + 1, p + 1) + R(n - 1, p - r + 1, p))
            assert d >= 0, (r, p, q)
            if d:
                dims[(p, q)] = d
        ranks = {}
        for (p, q) in dims:
            if dims.get((p + r, q - r + 1)):
                n = p + q
                rk = (R(n, p, p + r + 1) - R(n, p, p + r)
                      - R(n, p + 1, p + r + 1) + R(n, p + 1, p + r))
                assert rk >= 0, (r, p, q)
                if rk:
                    ranks[(p, q)] = rk
        if self.which == "second":
            dims, ranks = ({(q, p): v for (p, q), v in t.items()} for t in (dims, ranks))
        return SpectralPage(self.which, r, dims, ranks)


def sliced_pages(dc, which, r_max):
    eng = SlicedEngine(dc.transpose() if which == "second" else dc, which)
    return [eng.page(r) for r in range(1, r_max + 1)]


def assert_pages_match_sliced(dc):
    # two pages past the first filtration's stabilization bound
    ps = [p for p, _q in dc.support()] or [0]
    r_max = max(ps) - min(ps) + 3
    for which in ("first", "second"):
        got = [(pg.dims, pg.dr_ranks) for pg in pages(dc, which, r_max)]
        want = [(pg.dims, pg.dr_ranks) for pg in sliced_pages(dc, which, r_max)]
        assert got == want, which


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32),
       counts=st.fixed_dictionaries({k: st.integers(0, 3) for k in
                                     ("dot", "hseg", "vseg", "square", "zigzag")}),
       max_span=st.integers(0, 3), max_zigzag=st.integers(2, 7))
def test_pages_match_sliced_engine_on_random_bicomplexes(seed, counts, max_span, max_zigzag):
    params = {"counts": counts, "max_span": max_span, "max_zigzag": max_zigzag}
    assert_pages_match_sliced(random_bicomplex(seed, params).dc)


@pytest.mark.parametrize("which", ["iwasawa", 0, 1, 2, "n=4"])
def test_pages_match_sliced_engine_on_gaussian_structures(which):
    if which == "iwasawa":
        dc = builtin("iwasawa-complex")
    elif which == "n=4":
        dc = gaussian_structures(7, 1, n=4)[0]
        assert sum(dc.dim(p, q) for p, q in dc.support()) == 256
    else:
        dc = gaussian_structures(2014, 3)[which]
    assert_pages_match_sliced(dc)


# -- the elimination and Tot counts ----------------------------------------


def count_tot_signs(monkeypatch):
    """The sign of every complexes.tot call, through each cohomlab binding."""
    signs = []
    real = complexes.tot

    def counted(obj, sign=1):
        signs.append(sign)
        return real(obj, sign)

    for name, mod in list(sys.modules.items()):
        if name == "cohomlab" or name.startswith("cohomlab."):
            for key, val in list(vars(mod).items()):
                if val is real:
                    monkeypatch.setattr(mod, key, counted)
    return signs


def test_pages_run_one_profile_per_tot_degree_and_no_reduction(monkeypatch):
    dcs = [shape_complex(("zigzag", 0, 0, 7, "upper")),
           random_bicomplex(5, {"counts": {"zigzag": 3, "square": 2, "dot": 2}}).dc,
           gaussian_structures(2014, 1)[0]]
    echelons, profiles = [], []
    echelon = linalg._echelon
    monkeypatch.setattr(linalg, "_echelon",
                        lambda rows: echelons.append(len(rows)) or echelon(rows))
    monkeypatch.setattr(spectral, "rank_profile",
                        lambda m: profiles.append(m) or rank_profile(m))
    signs = count_tot_signs(monkeypatch)

    def profile_shapes():
        shapes = sorted((m.nrows, m.ncols) for m in profiles)
        profiles.clear()
        return shapes

    for dc in dcs:
        t = tot(dc, 1)
        # one profile per support degree whose target Tot^{n+1} is nonempty
        shapes = sorted((t.dim(n + 1), t.dim(n)) for n in {p + q for p, q in dc.support()}
                        if t.dim(n + 1))
        for which in ("first", "second"):
            signs.clear()
            echelons.clear()
            pages(dc, which)
            # the profiles are the only row reductions: one each
            assert sorted(echelons) == sorted(
                len(linalg._integer_rows(m.sparse)[0]) for m in profiles), which
            assert profile_shapes() == shapes, which
            assert signs == [1], which
        # a check and a spectral report read both filtrations from the
        # analysis's own Tot: one Tot per sign, one profile per degree each
        for run in (lambda: check_bicomplex(dc),
                    lambda: make_report(BuildResult("double_complex", dc), {}, spectral_rmax=3)):
            signs.clear()
            run()
            assert sorted(signs) == [-1, 1]
            assert profile_shapes() == sorted(shapes * 2)
