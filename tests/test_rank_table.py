"""The rank-table engine against the subspace reference engine.

Random bicomplexes are direct sums of Stelzig's indecomposables (dots,
segments, squares, zigzags), conjugated per cell by random invertible
matrices with Fraction or Gaussian entries, so every entry is generic
while the answer stays that of the shapes.  Pairs are such complexes
collapsed along (p, q) -> deg1*p + deg2*q and conjugated per degree,
with periods |deg1 - deg2| of 1, 2 and 3 and with deg1 = deg2; pairs
(a D, b D) built on one differential D add equal-degree pairs whose two
total tables differ.
"""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohomlab.cohomology import (_CELL_FORMULAS, _ENTRIES, _POSITIONS, Analysis, PairAnalysis,
                                 _cell_values)
from cohomlab.complexes import BidiffPair, tot
from cohomlab.linalg import Matrix, mat_inverse
from cohomlab.randomgen import assemble
from cohomlab.scalars import GaussianRational

from subspace_reference import engine_view, reference

FRACTIONS = st.fractions(min_value=-2, max_value=2, max_denominator=3)
ENTRIES = {
    "fraction": FRACTIONS,
    "gaussian": st.builds(GaussianRational, FRACTIONS, FRACTIONS),
}

SHAPES = st.one_of(
    st.tuples(st.sampled_from(["dot", "hseg", "vseg", "square"]),
              st.integers(-1, 1), st.integers(-1, 1)),
    st.tuples(st.just("zigzag"), st.integers(-1, 1), st.integers(-1, 1),
              st.integers(2, 6), st.sampled_from(["lower", "upper"])),
)

# (deg1, deg2) of the collapsed pairs: periods 3, 2, 2, 1, 1 and deg1 = deg2
DEGREES = [(2, -1), (1, -1), (3, 1), (1, 0), (2, 1), (1, 1)]


def invertible(draw, entries, n):
    """L U with L unit lower triangular and U upper with nonzero diagonal."""
    def entry(i, j):
        x = draw(entries) if i <= j else 0
        return x if x or i != j else 1

    lower = Matrix([[1 if i == j else draw(entries) if j < i else 0
                     for j in range(n)] for i in range(n)], n)
    upper = Matrix([[entry(i, j) for j in range(n)] for i in range(n)], n)
    return lower.mul(upper)


def conjugated(draw, entries, dims, blocks):
    """Blocks {(src, tgt, tag): Matrix} after a change of basis in every space."""
    base = {k: invertible(draw, entries, d) for k, d in sorted(dims.items())}
    return {(s, t, tag): base[t].mul(m).mul(mat_inverse(base[s]))
            for (s, t, tag), m in blocks.items()}


@st.composite
def bicomplexes(draw):
    dc = assemble(draw(st.lists(SHAPES, min_size=1, max_size=4)))
    entries = ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))]
    blocks = {((p, q), (p + 1, q), 1): m for (p, q), m in dc.d1.items()}
    blocks.update({((p, q), (p, q + 1), 2): m for (p, q), m in dc.d2.items()})
    new = conjugated(draw, entries, dc.spaces, blocks)
    dc.d1 = {s: m for (s, _t, tag), m in new.items() if tag == 1}
    dc.d2 = {s: m for (s, _t, tag), m in new.items() if tag == 2}
    return dc


def collapse(dc, deg1, deg2):
    """The pair on A^k = sum of the cells with deg1*p + deg2*q = k."""
    where, dims = {}, {}
    for p, q in dc.support():
        k = deg1 * p + deg2 * q
        where[(p, q)] = (k, dims.get(k, 0))
        dims[k] = dims.get(k, 0) + dc.dim(p, q)
    out = []
    for blocks, shift in ((dc.d1, (1, 0)), (dc.d2, (0, 1))):
        rows = {}
        for (p, q), m in blocks.items():
            k, so = where[(p, q)]
            t, to = where[(p + shift[0], q + shift[1])]
            big = rows.setdefault(k, [[0] * dims[k] for _ in range(dims[t])])
            for i, row in enumerate(m.rows):
                big[to + i][so:so + m.ncols] = row
        out.append({k: Matrix(r, dims[k]) for k, r in rows.items()})
    return BidiffPair(dims, deg1, deg2, out[0], out[1])


@st.composite
def pairs(draw):
    deg1, deg2 = draw(st.sampled_from(DEGREES))
    dc = assemble(draw(st.lists(SHAPES, min_size=1, max_size=3)))
    bp = collapse(dc, deg1, deg2)
    entries = ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))]
    blocks = {(k, k + deg1, 1): m for k, m in bp.d1.items()}
    blocks.update({(k, k + deg2, 2): m for k, m in bp.d2.items()})
    new = conjugated(draw, entries, bp.dims, blocks)
    bp.d1 = {k: m for (k, _t, tag), m in new.items() if tag == 1}
    bp.d2 = {k: m for (k, _t, tag), m in new.items() if tag == 2}
    return bp


@st.composite
def proportional_pairs(draw):
    """(a D, b D) for D the total differential of a bicomplex; deg1 = deg2."""
    t = tot(draw(bicomplexes()), 1)
    a, b = draw(st.sampled_from([(1, 1), (1, -1), (2, 1), (1, 0), (Fraction(1, 2), -1)]))
    return BidiffPair(t.dims, 1, 1, {n: m.scale(a) for n, m in t.d.items()},
                      {n: m.scale(b) for n, m in t.d.items()})


# pin the key sets of the total-degree sums: a complex with no cells in
# total degree 1 sums over degrees 0 and 2 only, a pair with no degree in
# residue class 2 (mod 3) keeps that class
GAP = assemble([("dot", 0, 0), ("dot", 2, 0)])
EMPTY_CLASS = BidiffPair({0: 1, 2: 1}, 2, -1, {0: Matrix([[3]])}, {})


@given(bicomplexes())
@example(GAP)
@settings(max_examples=80, deadline=None)
def test_bicomplex_matches_reference(dc):
    assert dc.validate() == []
    assert engine_view(Analysis(dc)) == reference(dc)


@given(pairs())
@example(EMPTY_CLASS)
@settings(max_examples=80, deadline=None)
def test_collapsed_pair_matches_reference(bp):
    assert bp.validate() == []
    a = PairAnalysis(bp)
    assert engine_view(a) == reference(bp)
    if a.delta:
        # the periodic Tot Doub gives the same total tables on its own
        assert [a.tot(s).cohomology() for s in (1, -1)] == [a.total_table(s) for s in (1, -1)]


@given(proportional_pairs())
@settings(max_examples=30, deadline=None)
def test_equal_degree_pair_matches_reference(bp):
    assert bp.validate() == []
    assert engine_view(PairAnalysis(bp)) == reference(bp)


def test_equal_degree_signs_read_their_own_matrices():
    # d1 = d2: d1 + d2 = 2 d1 is exact, d1 - d2 = 0 leaves everything
    one = Matrix([[1]])
    bp = BidiffPair({0: 1, 1: 1}, 1, 1, {0: one}, {0: one})
    a = PairAnalysis(bp)
    assert a.total_table(1) == {0: 0, 1: 0}
    assert a.total_table(-1) == {0: 1, 1: 1}
    assert engine_view(a) == reference(bp)


def test_broken_rank_names_cell_flavor_and_formula(monkeypatch):
    dc = assemble([("hseg", 0, 0)])
    real = Analysis._record

    def broken(self, key):
        rec = real(self, key)
        return rec[:1] + (2,) + rec[2:] if key == (0, 0) else rec

    monkeypatch.setattr(Analysis, "_record", broken)
    with pytest.raises(AssertionError) as err:
        Analysis(dc).flavor_table("D1")
    msg = str(err.value)
    assert "D1 at cell (0, 0) is -1" in msg
    assert "n - r1 - r1@1" in msg
    # the records the formula read, the broken one at the cell itself
    assert "records (n, r1, r2, r12, rO, rI): cell (1, 2, 0, 0, 1, 0), @1 " in msg
    assert "@12 (0, 0, 0, 0, 0, 0)" in msg
    # rows x cols of the cell's blocks: d1 out of it is the segment's arrow
    assert msg.endswith("; blocks: d1 out 1x1, d2 out none, [d1 | d2] in none")
    with pytest.raises(AssertionError) as err:
        Analysis(assemble([("square", -1, -1), ("dot", 0, 0)], conj_seed=5)).flavor_table("D1")
    assert "D1 at cell (0, 0) is -1" in str(err.value)
    assert str(err.value).endswith("; blocks: d1 out none, d2 out none, [d1 | d2] in 2x2")


def _by_terms(vec):
    """The reference evaluator: each formula of _CELL_FORMULAS summed term
    by term over the flat record vector (cell, @1, @2, @12)."""
    width = len(_ENTRIES)
    return tuple(sum(sign * vec[at * width + entry] for sign, at, entry in terms)
                 for _name, _text, terms in _CELL_FORMULAS)


RECORD_VECTORS = st.lists(st.integers(-5, 30), min_size=24, max_size=24).map(tuple)


@given(RECORD_VECTORS)
@settings(max_examples=300, deadline=None)
def test_compiled_evaluator_matches_the_formula_table(vec):
    assert _cell_values(vec) == _by_terms(vec)


@given(st.lists(st.integers(0, 3), min_size=24, max_size=24).map(tuple))
@example((3, 1, 1, 0, 2, 0) + (0,) * 18)
@settings(max_examples=200, deadline=None)
def test_negative_value_names_the_first_negative_formula(vec):
    """Records planted around the cell (0, 0): a cell with no negative value
    is the reference tuple; otherwise the guard names the first negative
    formula in table order, with its value and its text."""
    dc = assemble([("dot", 0, 0)])
    planted = {key: vec[6 * i:6 * i + 6]
               for i, key in enumerate([(0, 0), (-1, 0), (0, -1), (-1, -1)])}
    want = _by_terms(vec)
    with mock.patch.object(Analysis, "_record", lambda self, key: planted[key]):
        a = Analysis(dc)
        if min(want) >= 0:
            assert a.cell((0, 0)) == want
            return
        with pytest.raises(AssertionError) as err:
            a.cell((0, 0))
    i = next(i for i, v in enumerate(want) if v < 0)
    name, text, _terms = _CELL_FORMULAS[i]
    assert ": %s at cell (0, 0) is %d = %s; records" % (name, want[i], text) in str(err.value)


def test_broken_tot_rank_names_degree_and_formula(monkeypatch):
    dc = assemble([("dot", 0, 0)])
    monkeypatch.setattr(Analysis, "_tot_block", lambda self, obj, sign, n: Matrix.identity(1))
    with pytest.raises(AssertionError) as err:
        Analysis(dc).total_table(-1)
    msg = str(err.value)
    assert "TOT_MINUS at total degree 0 is -1" in msg
    assert "dim Tot^n - rk D_n - rk D_{n-1}" in msg


def _identity_residual(identity):
    """lhs - rhs of 'X + Y = Z - W' over the values of _CELL_FORMULAS, as
    {(position, entry): coefficient} without zero coefficients."""
    forms = {name: terms for name, _text, terms in _CELL_FORMULAS}
    lhs, rhs = identity.split("=")
    out = {}
    for side, outer in ((lhs, 1), (rhs, -1)):
        sign = outer
        for tok in side.split():
            if tok in "+-":
                sign = outer if tok == "+" else -outer
                continue
            for s, at, entry in forms[tok]:
                out[at, entry] = out.get((at, entry), 0) + sign * s
    return {k: c for k, c in out.items() if c}


def test_identities_hold_as_linear_forms_in_the_records():
    """The summed identity and the four exactness identities hold on the
    formula table itself: as linear forms over the 24 record entries (six
    at each of the cell, @1, @2 and @12) both sides agree, so they hold
    for any ranks the records carry."""
    read = {(at, entry) for _name, _text, terms in _CELL_FORMULAS for _s, at, entry in terms}
    assert read <= {(at, entry) for at in range(len(_POSITIONS))
                    for entry in range(len(_ENTRIES))}
    for identity in ("BC + A = D1 + D2 + V1 + V6",
                     "A = V1 - V2 + D1 + V4",
                     "A = V1 - V3 + D2 + V5",
                     "BC = V3 + D1 - V5 + V6",
                     "BC = V2 + D2 - V4 + V6"):
        assert _identity_residual(identity) == {}, identity
    # without V1 + V6 the summed identity leaves a residual
    assert _identity_residual("BC + A = D1 + D2") != {}
