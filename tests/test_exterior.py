"""Exterior algebra conventions: monomial order, signs, derivations.

Sign oracles are worked out by hand from permutation parity and the
graded Leibniz rule; they pin the conventions everything in
geometry.py relies on.
"""

from fractions import Fraction
from itertools import combinations

import pytest

from cohomlab.exterior import (
    basis_positions,
    derivation_matrix,
    extend_derivation,
    form_add,
    form_scale,
    merge_sign,
    multi_indices,
    wedge,
    wedge_power,
)
from cohomlab.linalg import Matrix, det, image, kernel
from cohomlab.scalars import GaussianRational, I


def test_multi_indices_lex_order():
    assert multi_indices(4, 2) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert multi_indices(3, 0) == [()]
    assert multi_indices(3, 3) == [(0, 1, 2)]
    assert multi_indices(2, 3) == []


def test_basis_positions_inverts_listing():
    pos = basis_positions(5, 2)
    for i, m in enumerate(multi_indices(5, 2)):
        assert pos[m] == i


def test_merge_sign_disjoint():
    assert merge_sign((0,), (1,)) == (1, (0, 1))
    assert merge_sign((1,), (0,)) == (-1, (0, 1))
    assert merge_sign((), (0, 1)) == (1, (0, 1))
    assert merge_sign((0, 1), ()) == (1, (0, 1))
    # (0,2),(1,3): one transposition needed, odd permutation
    assert merge_sign((0, 2), (1, 3)) == (-1, (0, 1, 2, 3))
    # (2,3),(0,1): block swap of two 2-blocks, even
    assert merge_sign((2, 3), (0, 1)) == (1, (0, 1, 2, 3))


def test_merge_sign_overlap_is_zero():
    assert merge_sign((0,), (0,)) == (0, None)
    assert merge_sign((0, 2), (2, 3)) == (0, None)


def _full_merge(a, b):
    """merge_sign by definition: sort a + b, sign (-1)^(pairs x in a, y in b, x > y)."""
    if set(a) & set(b):
        return 0, None
    inversions = sum(x > y for x in a for y in b)
    return (-1) ** inversions, tuple(sorted(a + b))


def test_merge_sign_single_index_matches_the_full_merge():
    tuples = [t for k in range(9) for t in combinations(range(8), k)]
    for x in range(8):
        for t in tuples:
            assert merge_sign((x,), t) == _full_merge((x,), t)
            assert merge_sign(t, (x,)) == _full_merge(t, (x,))


def test_form_add_and_scale():
    f = {(0,): 1, (1,): 2}
    g = {(1,): -2, (2,): 5}
    assert form_add(f, g) == {(0,): 1, (2,): 5}
    assert form_scale(f, 0) == {}
    assert form_scale(f, Fraction(1, 2)) == {(0,): Fraction(1, 2), (1,): 1}


def test_wedge_generators():
    e0 = {(0,): 1}
    e1 = {(1,): 1}
    assert wedge(e0, e1) == {(0, 1): 1}
    assert wedge(e1, e0) == {(0, 1): -1}
    assert wedge(e0, e0) == {}


def test_wedge_graded_commutativity_even_degrees():
    f = {(0, 1): 1, (2, 3): 1}
    g = {(0, 2): 3, (1, 3): -1}
    assert wedge(f, g) == wedge(g, f)


def test_wedge_associativity():
    e0, e1, e2 = {(0,): 1}, {(1,): 1}, {(2,): 1}
    left = wedge(wedge(e0, e1), e2)
    right = wedge(e0, wedge(e1, e2))
    assert left == right == {(0, 1, 2): 1}


def test_wedge_power_standard_symplectic():
    # omega^m carries the m! factor; the volume normalization divides it out
    omega4 = {(0, 1): 1, (2, 3): 1}
    assert wedge_power(omega4, 2) == {(0, 1, 2, 3): 2}
    omega6 = {(0, 1): 1, (2, 3): 1, (4, 5): 1}
    assert wedge_power(omega6, 3) == {(0, 1, 2, 3, 4, 5): 6}
    assert wedge_power(omega4, 0) == {(): 1}
    assert wedge_power(omega4, 1) == omega4


def test_extend_derivation_signs():
    # de3 = e1 ^ e2 on four generators
    d = extend_derivation(4, {3: {(1, 2): 1}})
    assert d({(3,): 1}) == {(1, 2): 1}
    # Leibniz with the closed generator e0 in front: position 1 gives -1
    assert d({(0, 3): 1}) == {(0, 1, 2): -1}
    assert d({(0,): 1}) == {}
    assert d({}) == {}
    # overlap kills the term: e1 ^ de3 hits e1 twice
    assert d({(1, 3): 1}) == {}


def test_extend_derivation_leibniz_on_products():
    dgen = {2: {(0, 1): 1}, 5: {(3, 4): 2}}
    d = extend_derivation(6, dgen)
    f = {(2,): 1}
    g = {(5,): 1}
    fg = wedge(f, g)
    # d(f^g) = df^g - f^dg for odd-degree f
    expect = form_add(wedge(d(f), g), form_scale(wedge(f, d(g)), -1))
    assert d(fg) == expect


def test_derivation_matrix_heisenberg():
    # de3 = -e1 ^ e2 (0-based generator index 2)
    dgen = {2: {(0, 1): -1}}
    m0 = derivation_matrix(3, dgen, 0)
    m1 = derivation_matrix(3, dgen, 1)
    m2 = derivation_matrix(3, dgen, 2)
    assert m0 == Matrix.zero(3, 1)
    assert m1 == Matrix([[0, 0, -1], [0, 0, 0], [0, 0, 0]])
    assert m2 == Matrix.zero(1, 3)
    assert m1.mul(m0).is_zero()
    assert m2.mul(m1).is_zero()
    # Betti pattern 1, 2, 2, 1
    assert kernel(m0).dim == 1
    assert kernel(m1).dim - image(m0).dim == 2
    assert kernel(m2).dim - image(m1).dim == 2
    assert 1 - image(m2).dim == 1


def test_derivation_matrix_rejects_nothing_but_shapes_match():
    dgen = {3: {(1, 2): 1}}
    for k in range(4):
        m = derivation_matrix(4, dgen, k)
        assert m.nrows == len(multi_indices(4, k + 1))
        assert m.ncols == len(multi_indices(4, k))


def test_det_integers():
    assert det(Matrix([[1, 2], [3, 4]])) == -2
    assert det(Matrix([[2]])) == 2
    assert det(Matrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]])) == -3
    assert det(Matrix([[0, 1], [1, 0]])) == -1
    assert det(Matrix([[1, 2], [2, 4]])) == 0
    assert det(Matrix([], 0)) == 1


def test_det_exact_scalars():
    assert det(Matrix([[Fraction(1, 2), 0], [0, Fraction(2, 3)]])) == Fraction(1, 3)
    assert det(Matrix([[I, 0], [0, I]])) == -1
    assert det(Matrix([[I, 1], [1, I]])) == GaussianRational(-2, 0)
    v = det(Matrix([[1, 2], [3, 4]]))
    assert isinstance(v, int)


def test_det_requires_square():
    with pytest.raises(ValueError):
        det(Matrix([[1, 2]]))
