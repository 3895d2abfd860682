"""Double complexes, pairs, total complexes: validation and assembly."""

from fractions import Fraction

import pytest

from cohomlab.linalg import Matrix, rank
from cohomlab.complexes import (
    BidiffPair,
    DoubleComplex,
    GradedComplex,
    doub,
    doub_tot_summands,
    doub_total_block,
    require_valid,
    tot,
)
from cohomlab.randomgen import shape_complex
from subspace_reference import doub_total_cohomology


def square(p=0, q=0):
    return shape_complex(("square", p, q))


def test_empty_complex_is_valid():
    dc = DoubleComplex({}, {}, {})
    assert dc.validate() == []
    assert dc.total_range() == (0, -1)
    assert tot(dc).cohomology() == {}


def test_square_is_valid():
    assert square().validate() == []


def test_square_with_flipped_sign_fails_anticommutation():
    dc = square()
    m = dc.d2[(1, 0)]
    dc.d2[(1, 0)] = m.scale(-1)
    bad = dc.validate()
    assert len(bad) == 1
    assert "d1 d2 + d2 d1" in bad[0]


def test_block_shape_violation_reported():
    dc = DoubleComplex(
        {(0, 0): 2, (1, 0): 1},
        {(0, 0): Matrix([[1, 0], [0, 1]])},
        {},
    )
    bad = dc.validate()
    assert len(bad) == 1 and "shape" in bad[0]


def test_nonpositive_dimension_reported():
    dc = DoubleComplex({(0, 0): 0}, {}, {})
    assert any("positive" in s for s in dc.validate())


def test_block_without_declared_target_reported():
    dc = DoubleComplex({(0, 0): 1}, {(0, 0): Matrix([[1]])}, {})
    assert any("target" in s for s in dc.validate())


def test_require_valid_raises():
    dc = DoubleComplex({(0, 0): -1}, {}, {})
    with pytest.raises(ValueError):
        require_valid(dc)


def test_d1d1_violation_reported():
    dc = DoubleComplex(
        {(0, 0): 1, (1, 0): 1, (2, 0): 1},
        {(0, 0): Matrix([[1]]), (1, 0): Matrix([[1]])},
        {},
    )
    assert any("d1 o d1" in s for s in dc.validate())


def test_tot_of_dot():
    dc = shape_complex(("dot", 2, 3))
    t = tot(dc)
    assert t.dims == {5: 1}
    assert t.cohomology() == {5: 1}


def test_tot_of_square_dims_and_cohomology():
    t = tot(square())
    assert [t.dim(n) for n in (0, 1, 2)] == [1, 2, 1]
    assert t.cohomology() == {0: 0, 1: 0, 2: 0}
    tm = tot(square(), -1)
    assert tm.cohomology() == {0: 0, 1: 0, 2: 0}


def test_tot_square_block_squares_to_zero():
    t = tot(square())
    assert t.validate() == []
    assert t.block(1).mul(t.block(0)).is_zero()


def test_tot_of_hseg():
    dc = shape_complex(("hseg", 1, 1))
    t = tot(dc)
    assert t.dims == {2: 1, 3: 1}
    assert t.cohomology() == {2: 0, 3: 0}


def test_tot_rejects_bad_sign():
    with pytest.raises(ValueError):
        tot(square(), 2)


def test_tot_layout_orders_by_p():
    t = tot(square())
    cells = [(p, q) for (p, q, _off, _d) in t.summands(1)]
    assert cells == [(0, 1), (1, 0)]


def test_filtration_of_square_total_degree_one():
    t = tot(square())
    # Tot^1 = (0,1) + (1,0): F^p starts at 0 for p <= 0, at 1 for p = 1
    # and is empty (starts at dim 2) beyond
    assert [t.filtration_start(1, p) for p in (-1, 0, 1, 2, 5)] == [0, 0, 1, 2, 2]


def test_graded_complex_cohomology():
    g = GradedComplex({0: 1, 1: 1}, {0: Matrix([[1]])})
    assert g.cohomology() == {0: 0, 1: 0}
    g2 = GradedComplex({0: 2, 1: 1}, {0: Matrix([[1, 0]])})
    assert g2.cohomology() == {0: 1, 1: 0}


def test_transpose_swaps_directions():
    dc = shape_complex(("hseg", 1, 2))
    td = dc.transpose()
    assert td.validate() == []
    assert set(td.spaces) == {(2, 1), (2, 2)}
    assert (2, 1) in td.d2 and not td.d1


# -- bidifferential pairs ---------------------------------------------------


def toy_pair():
    """Degrees 0..2, d1 of degree +1 nonzero, d2 of degree -1 zero."""
    return BidiffPair(
        {0: 1, 1: 2, 2: 1},
        1,
        -1,
        {0: Matrix([[1], [0]])},
        {},
    )


def test_pair_validates():
    assert toy_pair().validate() == []


def test_pair_shape_violation():
    bp = BidiffPair({0: 1, 1: 1}, 1, -1, {0: Matrix([[1, 0]])}, {})
    assert any("shape" in s for s in bp.validate())


def test_pair_d1d1_violation():
    bp = BidiffPair(
        {0: 1, 1: 1, 2: 1}, 1, -1,
        {0: Matrix([[1]]), 1: Matrix([[1]])}, {},
    )
    assert any("d1 o d1" in s for s in bp.validate())


def test_doub_view_translates_bidegrees():
    bp = toy_pair()
    pd = doub(bp)
    # Doub^{p,q} = A^{p - q}
    assert pd.dim(0, 0) == 1
    assert pd.dim(1, 0) == 2
    assert pd.dim(1, 1) == 1  # degree 0 again
    assert pd.dim(2, 1) == 2
    assert pd.d1_block(0, 0) == Matrix([[1], [0]])


def test_doub_window_is_valid_double_complex():
    pd = doub(toy_pair())
    win = pd.window(-2, 2, -2, 2)
    assert win.validate() == []
    assert win.dim(0, 0) == 1 and win.dim(1, 1) == 1


def test_doub_tot_summands_orders_by_p():
    bp = toy_pair()
    # delta = 2; n = 0 picks even degrees, n = 1 odd ones
    assert doub_tot_summands(bp, 0) == [(0, 0), (1, 2)]
    assert doub_tot_summands(bp, 1) == [(1, 1)]
    # periodicity: shifting n by delta shifts p by one
    assert doub_tot_summands(bp, 2) == [(1, 0), (2, 2)]


def test_doub_tot_summands_requires_distinct_degrees():
    bp = BidiffPair({0: 1}, 1, 1, {}, {})
    with pytest.raises(ValueError):
        doub_tot_summands(bp, 0)


def test_doub_total_block_and_cohomology():
    bp = toy_pair()
    b0 = doub_total_block(bp, 0)
    # Tot^0 = A^0 + A^2, Tot^1 = A^1; only d1 out of A^0 contributes
    assert (b0.nrows, b0.ncols) == (2, 2)
    assert b0 == Matrix([[1, 0], [0, 0]])
    assert doub_total_cohomology(bp) == {0: 1, 1: 1}
    assert doub_total_cohomology(bp, -1) == {0: 1, 1: 1}


def test_doub_total_cohomology_zero_differentials():
    bp = BidiffPair({0: 1, 1: 1, 2: 1}, 1, -1, {}, {})
    # each residue class collects its degrees with zero differential
    assert doub_total_cohomology(bp) == {0: 2, 1: 1}


def test_doub_total_cohomology_reads_the_rank_into_r_from_r_minus_one():
    # deg1 = 2, deg2 = -1, period 3: Tot^0 = A^0, Tot^1 = A^2, Tot^2 = 0,
    # and d1: A^0 -> A^2 is the only map, from residue 0 into residue 1
    bp = BidiffPair({0: 1, 2: 1}, 2, -1, {0: Matrix([[1]])}, {})
    assert [rank(doub_total_block(bp, r)) for r in range(-1, 3)] == [0, 1, 0, 0]
    assert doub_total_cohomology(bp) == {0: 0, 1: 0, 2: 0}


def test_pair_with_fraction_entries():
    bp = BidiffPair(
        {0: 1, 1: 1}, 1, -1,
        {0: Matrix([[Fraction(1, 2)]])}, {},
    )
    assert bp.validate() == []
    assert doub_total_cohomology(bp) == {0: 0, 1: 0}
