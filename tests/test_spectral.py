"""Spectral pages against hand-worked examples and structural invariants."""

import pytest

from cohomlab.complexes import BidiffPair, tot
from cohomlab.cohomology import Analysis, PairAnalysis
from cohomlab.geometry import ComplexStructureData, builtin, complex_bicomplex
from cohomlab.linalg import Matrix, Subspace, preimage, quotient_dim
from cohomlab.randomgen import random_bicomplex, shape_complex
from cohomlab.scalars import GaussianRational
from cohomlab import spectral
from cohomlab.spectral import (
    degenerates_at,
    doub_degeneration_check,
    pages,
)
from subspace_reference import map_subspace


def test_dot_single_stable_page():
    dc = shape_complex(("dot", 2, 3))
    pgs = pages(dc)
    assert len(pgs) == 1
    assert pgs[0].dims == {(2, 3): 1}
    assert pgs[0].dr_ranks == {}
    assert degenerates_at(dc, "first", 1)
    assert degenerates_at(dc, "second", 1)


def test_square_first_page_vanishes():
    dc = shape_complex(("square", 0, 0))
    pgs = pages(dc)
    assert pgs[0].dims == {}
    assert degenerates_at(dc, "first", 1)
    assert degenerates_at(dc, "second", 1)


def test_hseg_first_sequence_dies_on_page_two():
    dc = shape_complex(("hseg", 0, 0))
    pgs = pages(dc)
    assert len(pgs) == 2
    assert pgs[0].dims == {(0, 0): 1, (1, 0): 1}
    assert pgs[0].dr_ranks == {(0, 0): 1}
    assert pgs[1].dims == {}
    assert not degenerates_at(dc, "first", 1)
    assert degenerates_at(dc, "first", 2)
    # row filtration: E_1 is the D1 table, which is empty for hseg
    second = pages(dc, "second")
    assert second[0].dims == {}
    assert degenerates_at(dc, "second", 1)


def test_vseg_mirrors_hseg():
    dc = shape_complex(("vseg", 0, 0))
    assert pages(dc)[0].dims == {}
    second = pages(dc, "second")
    assert second[0].dims == {(0, 0): 1, (0, 1): 1}
    assert second[0].dr_ranks == {(0, 0): 1}
    assert not degenerates_at(dc, "second", 1)
    assert degenerates_at(dc, "second", 2)


def test_zigzag3_both_sequences_degenerate_immediately():
    dc = shape_complex(("zigzag", 0, 0, 3, "lower"))
    first = pages(dc)
    assert first[0].dims == {(0, 0): 1}
    assert degenerates_at(dc, "first", 1)
    second = pages(dc, "second")
    assert second[0].dims == {(1, -1): 1}
    assert degenerates_at(dc, "second", 1)


def test_zigzag4_needs_a_page_two_differential():
    dc = shape_complex(("zigzag", 0, 0, 4, "lower"))
    pgs = pages(dc)
    assert len(pgs) == 3
    assert pgs[0].dims == {(0, 0): 1, (2, -1): 1}
    assert pgs[0].dr_ranks == {}
    assert pgs[1].dims == {(0, 0): 1, (2, -1): 1}
    assert pgs[1].dr_ranks == {(0, 0): 1}
    assert pgs[2].dims == {}
    assert not degenerates_at(dc, "first", 1)
    assert not degenerates_at(dc, "first", 2)
    assert degenerates_at(dc, "first", 3)


def test_r_max_truncates():
    dc = shape_complex(("zigzag", 0, 0, 4, "lower"))
    assert len(pages(dc, "first", 2)) == 2
    assert len(pages(dc, "first", 5)) == 5
    with pytest.raises(ValueError):
        pages(dc, "first", 0)
    with pytest.raises(ValueError):
        pages(dc, "third")


def _check_structure(dc):
    """E_1 identification, page recurrence, abutment, for both sequences."""
    a = Analysis(dc, validated=True)
    h = tot(dc, 1).cohomology()
    for which, one_sided in (("first", "D2"), ("second", "D1")):
        pgs = pages(dc, which, validated=True)
        assert pgs[0].dims == a.flavor_table(one_sided), which
        for cur, nxt in zip(pgs, pgs[1:]):
            r = cur.r
            cells = set(cur.dims) | set(nxt.dims)
            for (p, q) in cells:
                out = cur.dr_ranks.get((p, q), 0)
                # d_r moves (p,q) by (r, 1-r) in the first sequence and by
                # (1-r, r) in the second; inc looks that move backwards
                if which == "first":
                    src = (p - r, q + r - 1)
                else:
                    src = (p + r - 1, q - r)
                inc = cur.dr_ranks.get(src, 0)
                assert nxt.dims.get((p, q), 0) == cur.dims.get((p, q), 0) - out - inc
        last = pgs[-1].dims
        for n, dim_h in h.items():
            assert dim_h == sum(v for (p, q), v in last.items() if p + q == n)
        assert degenerates_at(dc, which, len(pgs), validated=True)


@pytest.mark.parametrize("seed", range(8))
def test_random_complex_spectral_structure(seed):
    params = {
        "counts": {"dot": 1, "hseg": 1, "vseg": 1, "square": 1, "zigzag": 2},
        "max_span": 2,
        "max_zigzag": 6,
    }
    rb = random_bicomplex(seed, params)
    _check_structure(rb.dc)


def test_long_zigzag_spectral_structure():
    _check_structure(shape_complex(("zigzag", 0, 0, 7, "upper")))
    _check_structure(shape_complex(("zigzag", 0, 0, 6, "lower")))


# -- the subspace-algebra reference ----------------------------------------


class SubspaceEngine:
    """Pages of the column filtration by explicit subspace algebra.

    Builds Z_r^{p,q} = F^p n d^{-1}(F^{p+r}) by preimage and Zassenhaus
    intersection, d Z by mapping bases, and each denominator as a sum,
    then takes quotient_dim (which checks the inclusion).  Slow, but it
    shares no formula with the rank table of cohomlab.spectral.
    """

    def __init__(self, dc):
        self.t = tot(dc, 1)
        self.support = dc.support()
        self._z = {}
        self._dz = {}
        self._bden = {}

    def filt(self, n, p):
        """F^p Tot^n spanned by the unit vectors of the summands with first index >= p."""
        total = self.t.dim(n)
        coords = [off + i for (pp, _q, off, d) in self.t.summands(n) if pp >= p
                  for i in range(d)]
        return Subspace([[int(j == c) for j in range(total)] for c in coords], total)

    def z(self, p, n, r):
        key = (p, n, r)
        if key not in self._z:
            f = self.filt(n, p)
            if r:
                f = f.intersect(preimage(self.t.block(n), self.filt(n + 1, p + r)))
            self._z[key] = f
        return self._z[key]

    def dz(self, p, n, r):
        key = (p, n, r)
        if key not in self._dz:
            self._dz[key] = map_subspace(self.t.block(n), self.z(p, n, r))
        return self._dz[key]

    def bden(self, p, q, r):
        key = (p, q, r)
        if key not in self._bden:
            n = p + q
            self._bden[key] = self.dz(p - r + 1, n - 1, r - 1).sum(self.z(p + 1, n, r - 1))
        return self._bden[key]

    def page(self, r):
        dims = {}
        for (p, q) in self.support:
            d = quotient_dim(self.z(p, p + q, r), self.bden(p, q, r))
            if d:
                dims[(p, q)] = d
        ranks = {}
        for (p, q) in dims:
            tgt = (p + r, q - r + 1)
            if not dims.get(tgt):
                continue
            b = self.bden(tgt[0], tgt[1], r)
            rk = self.dz(p, p + q, r).sum(b).dim - b.dim
            if rk:
                ranks[(p, q)] = rk
        return dims, ranks


def reference_pages(dc, which, r_max):
    """[(dims, dr_ranks)] for r = 1 .. r_max from SubspaceEngine."""
    if which == "first":
        eng = SubspaceEngine(dc)
        return [eng.page(r) for r in range(1, r_max + 1)]
    return [tuple({(q, p): v for (p, q), v in table.items()} for table in pg)
            for pg in reference_pages(dc.transpose(), "first", r_max)]


def _assert_matches_reference(dc):
    ps = {p for p, _q in dc.support()} or {0}
    qs = {q for _p, q in dc.support()} or {0}
    r_max = max(max(ps) - min(ps), max(qs) - min(qs)) + 3
    for which in ("first", "second"):
        got = [(pg.dims, pg.dr_ranks) for pg in pages(dc, which, r_max)]
        assert got == reference_pages(dc, which, r_max), which


@pytest.mark.parametrize("seed", range(6))
def test_pages_match_subspace_reference_on_long_zigzags(seed):
    params = {
        "counts": {"dot": 1, "hseg": 1, "vseg": 1, "square": 1, "zigzag": 4},
        "max_span": 3,
        "max_zigzag": 8,
    }
    _assert_matches_reference(random_bicomplex(100 + seed, params).dc)


def test_pages_match_subspace_reference_on_gaussian_structures():
    _assert_matches_reference(builtin("iwasawa-complex"))
    i = GaussianRational(0, 1)
    # d phi^3 = i phi^1 ^ phi^2 + (1+i) phi^1 ^ phibar^1: a Gaussian,
    # non-real structure with a (1,1) part
    csd = ComplexStructureData(3, {3: {(0, 1): i, (0, 3): 1 + i}})
    _assert_matches_reference(complex_bicomplex(csd))


def test_negative_page_dimension_raises_naming_the_cell(monkeypatch):
    # a rank table that breaks the rank bounds gives dim(p,q) - 4 < 0
    monkeypatch.setattr(spectral._Engine, "rank_block", lambda self, n, a, b: 2 * (b - a))
    dc = shape_complex(("dot", 2, 3))
    for which in ("first", "second"):
        with pytest.raises(AssertionError, match=r"dimension of E_1 at \(2, 3\) in the %s" % which):
            pages(dc, which)


# -- degeneration of the canonical double complex of a pair -------------------


def toy_pair():
    return BidiffPair({0: 1, 1: 2, 2: 1}, 1, -1, {0: Matrix([[1], [0]])}, {})


def test_doub_degeneration_asymmetric():
    res = doub_degeneration_check(PairAnalysis(toy_pair()))
    assert res["second"] is True
    assert res["first"] is False
    assert res["per_degree"]["first"] == {0: False, 1: False}
    assert res["per_degree"]["second"] == {0: True, 1: True}


def test_doub_degeneration_zero_differentials():
    bp = BidiffPair({0: 1, 1: 1, 2: 1}, 1, -1, {}, {})
    res = doub_degeneration_check(PairAnalysis(bp))
    assert res["first"] is True and res["second"] is True


def test_doub_degeneration_guards():
    # the report prints these messages as the reason
    with pytest.raises(ValueError, match="^Tot of Doub is infinite-dimensional when deg1 == deg2$"):
        doub_degeneration_check(PairAnalysis(BidiffPair({0: 1}, 1, 1, {}, {})))
    coprime = "^degeneration check needs coprime differential degrees$"
    with pytest.raises(ValueError, match=coprime):
        doub_degeneration_check(PairAnalysis(BidiffPair({0: 1}, 2, -2, {}, {})))
    with pytest.raises(ValueError, match=coprime):
        doub_degeneration_check(PairAnalysis(BidiffPair({0: 1}, 4, 2, {}, {})))
