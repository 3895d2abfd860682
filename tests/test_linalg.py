from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohomlab import linalg
from cohomlab.linalg import (
    Matrix,
    NotASubspace,
    Subspace,
    _rref_rows,
    annihilator,
    hstack,
    image,
    kernel,
    mat_inverse,
    preimage,
    quotient_dim,
    rank,
    rank_profile,
    rref,
    vstack,
)
from cohomlab.scalars import GaussianRational, demote
from subspace_reference import map_subspace


def M(rows, ncols=None):
    return Matrix(rows, ncols)


# -- strategies -------------------------------------------------------------

ints = st.integers(-6, 6)
fracs = st.fractions(min_value=-8, max_value=8, max_denominator=5)
gausses = st.builds(GaussianRational, st.integers(-3, 3), st.integers(-3, 3))
small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
gauss_fracs = st.builds(GaussianRational, small_fracs, small_fracs)
# mostly zero, as the blocks of real complexes are; half the Gaussian
# entries have a zero real or imaginary part, so one split part is empty
one_part_zero = st.one_of(st.builds(GaussianRational, small_fracs, st.just(0)),
                          st.builds(GaussianRational, st.just(0), small_fracs))
sparse = st.sampled_from((0, 0, 0, 1)).flatmap(
    lambda k: st.one_of(ints, fracs, one_part_zero, gauss_fracs) if k else st.just(0))
entry_kinds = [ints, fracs, st.one_of(ints, gausses),
               st.one_of(ints, fracs, gauss_fracs), sparse]


@st.composite
def matrices(draw, max_dim=5):
    m = draw(st.integers(0, max_dim))
    n = draw(st.integers(0, max_dim))
    entries = draw(st.sampled_from(entry_kinds))
    rows = [[draw(entries) for _ in range(n)] for _ in range(m)]
    return Matrix(rows, n)


@st.composite
def deficient_matrices(draw, max_dim=5):
    """matrices() plus rows that are combinations of the drawn rows."""
    m = draw(matrices(max_dim))
    entries = draw(st.sampled_from(entry_kinds))
    rows = [list(r) for r in m.rows]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        new = [0] * m.ncols
        for r in rows:
            c = draw(entries)
            new = [x + c * y for x, y in zip(new, r)]
        rows.insert(draw(st.integers(0, len(rows))), [demote(x) for x in new])
    return Matrix(rows, m.ncols)


def field_rref(rows, ncols):
    """Reference: plain Gauss-Jordan over the field, one division per pivot."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = Fraction(rows[r][c]) if isinstance(rows[r][c], int) else rows[r][c]
        rows[r] = [x / p for x in rows[r]]
        for i in range(len(rows)):
            a = rows[i][c]
            if i != r and a:
                rows[i] = [x - a * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return [[demote(x) for x in rows[i]] for i in range(len(pivots))], pivots


def dense_rref(rows, ncols):
    """_rref_rows with its sparse rows written out densely."""
    basis, pivots = _rref_rows(rows, ncols)
    return Matrix.from_sparse(basis, ncols).rows, pivots


def well_formed(m):
    """m has nrows sparse rows, each storing only nonzero entries in
    columns below ncols."""
    return len(m.sparse) == m.nrows and all(
        all(r.values()) and all(0 <= c < m.ncols for c in r) for r in m.sparse)


@st.composite
def subspace_pairs(draw, n=4):
    def sub():
        k = draw(st.integers(0, n))
        rows = [[draw(ints) for _ in range(n)] for _ in range(k)]
        return Subspace(rows, n)

    return sub(), sub()


# -- rref -------------------------------------------------------------------


@st.composite
def products(draw):
    """Two matrices of chained shapes (0 rows or columns allowed), each
    with its own entry kind: int, Fraction, Gaussian, a mix, or mostly
    zero."""
    m, k, n = (draw(st.integers(0, 6)) for _ in range(3))
    kinds = st.sampled_from(entry_kinds)
    a, b = draw(kinds), draw(kinds)
    return (Matrix([[draw(a) for _ in range(k)] for _ in range(m)], k),
            Matrix([[draw(b) for _ in range(n)] for _ in range(k)], n))


@settings(max_examples=300, deadline=None)
@given(products())
def test_mul_matches_the_entrywise_sums(ab):
    a, b = ab
    c = a.mul(b)
    assert (c.nrows, c.ncols) == (a.nrows, b.ncols)
    assert well_formed(c)
    assert c.rows == [[sum((a.rows[i][t] * b.rows[t][j] for t in range(a.ncols)), 0)
                       for j in range(b.ncols)] for i in range(a.nrows)]
    # (ab)^T = b^T a^T walks the same nonzeros in the other order
    assert c.transpose() == b.transpose().mul(a.transpose())


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_matrix_operations_match_dense_references(data):
    """add, scale, transpose, hstack, vstack, is_zero and == on sparse
    rows agree with the same operations on the dense rows, for every
    entry kind and with 0 rows or columns."""
    m, n, k = (data.draw(st.integers(0, 4)) for _ in range(3))

    def dense(nrows, ncols):
        kind = data.draw(st.sampled_from(entry_kinds))
        return [[data.draw(kind) for _ in range(ncols)] for _ in range(nrows)]

    a, b, right, below = dense(m, n), dense(m, n), dense(m, k), dense(k, n)
    c = data.draw(data.draw(st.sampled_from(entry_kinds)))
    x, y = Matrix(a, n), Matrix(b, n)
    assert x.rows == a and well_formed(x)
    results = [
        (x.add(y), [[u + v for u, v in zip(r, t)] for r, t in zip(a, b)], (m, n)),
        (x.scale(c), [[c * u for u in r] for r in a], (m, n)),
        (x.transpose(), [[a[i][j] for i in range(m)] for j in range(n)], (n, m)),
        (hstack(x, Matrix(right, k)), [r + t for r, t in zip(a, right)], (m, n + k)),
        (vstack(x, Matrix(below, n)), a + below, (m + k, n)),
    ]
    for got, want, shape in results:
        assert (got.nrows, got.ncols) == shape
        assert well_formed(got)
        assert got.rows == want
    assert x.is_zero() == (not any(u for r in a for u in r))
    assert (x == y) == (a == b)
    assert x == Matrix([[demote(u) for u in r] for r in a], n)
    assert x.add(x.scale(-1)) == Matrix.zero(m, n)
    assert (Matrix.zero(m, n) == Matrix.zero(m, n + 1)) is False
    assert (Matrix.zero(m, n) == Matrix.zero(m + 1, n)) is False


def test_reductions_leave_their_inputs_unchanged():
    """_echelon edits rows in place (a unit pivot clears the row it
    reduces without copying it) and vstack shares row dicts between
    matrices, so _integer_rows hands it copies: rank, rank_profile, rref,
    kernel and contains leave every input as it was, also a matrix
    stacked on itself."""
    i = GaussianRational(0, 1)
    mats = [M([[1, 2, 0], [1, 3, 1], [2, 5, 1]]),
            M([[Fraction(1, 2), 1, 0], [1, 2, 3]]),
            M([[i, 1], [1, -i]])]
    mats += [vstack(m, m) for m in mats]
    for m in mats:
        before = m.rows
        rank(m)
        rank_profile(m)
        rref(m)
        kernel(m)
        assert m.rows == before
    u, v = Subspace([[1, 2, 0], [0, 1, 1]], 3), Subspace([[1, 3, 1]], 3)
    before = (u.rows, v.rows)
    assert u.contains(v) and u.contains(u)
    assert (u.rows, v.rows) == before


def test_mul_of_fractions_reduces_each_entry():
    """Each entry of a product of fractions comes out reduced, and a
    cancelled entry is not stored, so the dense view reads the int 0."""
    a = M([[Fraction(1, 2), Fraction(1, 3), 0], [Fraction(1, 2), -1, 0], [0, 0, 1]])
    b = M([[Fraction(3, 4), 2, 0], [Fraction(3, 2), 1, 0], [0, 0, Fraction(2, 6)]])
    assert a.mul(b).rows == [[Fraction(7, 8), Fraction(4, 3), 0],
                             [Fraction(-9, 8), 0, 0],
                             [0, 0, Fraction(1, 3)]]
    assert type(a.mul(b).rows[1][1]) is int


def test_rref_identity():
    r, rank = rref(Matrix.identity(2))
    assert r == Matrix.identity(2)
    assert rank == 2


def test_rref_dependent_rows():
    r, rank = rref(M([[1, 2], [2, 4]]))
    assert r == M([[1, 2]])
    assert rank == 1


def test_rref_permutation():
    r, rank = rref(M([[0, 1], [1, 0]]))
    assert r == Matrix.identity(2)
    assert rank == 2


def test_rref_produces_fractions_when_needed():
    r, rank = rref(M([[2, 3], [0, 0]]))
    assert rank == 1
    assert r == M([[1, Fraction(3, 2)]])


def test_rref_gaussian_entries():
    i = GaussianRational(0, 1)
    r, rank = rref(M([[i, 1], [1, -i]]))
    # second row is -i times the first
    assert rank == 1
    assert r == M([[1, -i]])


def test_rref_empty_shapes():
    r, rank = rref(Matrix([], 3))
    assert (r.nrows, r.ncols, rank) == (0, 3, 0)
    r, rank = rref(Matrix([[], []], 0))
    assert (r.nrows, r.ncols, rank) == (0, 0, 0)


@given(matrices())
@settings(max_examples=200)
def test_rref_round_trip_and_canonical_shape(m):
    r, rank = rref(m)
    r2, rank2 = rref(r)
    assert r2 == r and rank2 == rank
    # canonical RREF: pivots are 1, strictly increasing, columns cleared
    pivots = []
    for row in r.rows:
        nz = [j for j, x in enumerate(row) if x]
        assert nz, "zero rows must be dropped"
        p = nz[0]
        assert row[p] == 1
        pivots.append(p)
    assert pivots == sorted(set(pivots))
    for i, p in enumerate(pivots):
        for i2 in range(r.nrows):
            if i2 != i:
                assert not r.rows[i2][p]


@given(deficient_matrices(max_dim=7))
@settings(max_examples=300)
def test_rref_matches_field_gauss_jordan(m):
    rows, pivots = dense_rref(m.rows, m.ncols)
    want_rows, want_pivots = field_rref(m.rows, m.ncols)
    assert pivots == want_pivots
    assert rows == want_rows
    # same scalar kinds too, so serialized bases stay byte-identical
    assert [[type(x) for x in r] for r in rows] == [
        [type(x) for x in r] for r in want_rows]
    assert rank(m) == len(want_pivots)
    # sparse basis rows store no zero and are keyed by their smallest column
    basis, leads = linalg._echelon(linalg._integer_rows(m.sparse)[0])
    assert all(min(v) == c and all(v.values()) for c, v in basis.items())
    assert sorted(lead for lead in leads if lead >= 0) == sorted(basis)


def test_rref_gaussian_with_fraction_parts():
    g = GaussianRational
    h = Fraction(1, 2)
    m = M([[g(h, 1), 2, g(0, h)], [g(-1, 2), g(0, -4), 1]])
    # independent rows: row 2 is no Gaussian multiple of row 1
    assert dense_rref(m.rows, 3) == field_rref(m.rows, 3)
    dep = M([list(m.rows[0]), [g(0, 3) * x for x in m.rows[0]]])
    assert rank(dep) == 1
    assert dense_rref(dep.rows, 3) == field_rref(dep.rows, 3)


def test_rank_and_contains_each_run_one_echelon_pass(monkeypatch):
    """rank counts the leads of one _echelon pass and builds no RREF;
    contains is one _echelon pass over the rows of both spaces."""
    echelons, rrefs = [], []
    echelon, rref_rows = linalg._echelon, linalg._rref_rows
    monkeypatch.setattr(linalg, "_echelon",
                        lambda rows: echelons.append(len(rows)) or echelon(rows))
    monkeypatch.setattr(linalg, "_rref_rows",
                        lambda rows, ncols: rrefs.append(ncols) or rref_rows(rows, ncols))
    i = GaussianRational(0, 1)
    for m, want, nrows in ((M([[1, 2], [2, 4]]), 1, 2),
                           (M([[Fraction(1, 2), 1], [0, 3]]), 2, 2),
                           (M([[i, 1], [1, -i]]), 1, 4)):
        echelons.clear()
        assert rank(m) == want
        assert echelons == [nrows]
    u = Subspace([[1, 0, 1], [0, 1, 1]], 3)
    v, w = Subspace([[1, 1, 2]], 3), Subspace([[0, 0, 1]], 3)
    echelons.clear()
    rrefs.clear()
    assert u.contains(v) and not u.contains(w)
    assert echelons == [3, 3]
    assert rrefs == []


def test_gaussian_integer_rows_skip_the_clearing(monkeypatch):
    """Gaussian-integer parts are ints, so their split rows enter _echelon
    as they are; a row with a Fraction part is still cleared."""
    calls = []
    int_rows = linalg._int_rows
    monkeypatch.setattr(linalg, "_int_rows",
                        lambda rows: calls.append(1) or int_rows(rows))
    g = GaussianRational
    # row 3 = i * row 1 + row 2
    m = M([[g(1, 1), 2, 0], [g(0, 1), -1, g(1, -1)], [g(-1, 2), g(-1, 2), g(1, -1)]])
    assert rank(m) == 2
    assert rank_profile(m) == [0, 1, -1]
    assert calls == []
    # the entries and parts are ints, also after a Gaussian product
    assert all(type(p) is int for r in m.mul(m).sparse for x in r.values()
               for p in ((x.re, x.im) if isinstance(x, g) else (x,)))
    h = M([[g(Fraction(1, 2), 1), 2], [1, g(0, -1)]])
    assert rank(h) == 2
    assert calls
    calls.clear()
    assert rank_profile(h) == [0, 1]
    assert calls


def test_integer_rows_of_a_rational_matrix_skip_the_clearing(monkeypatch):
    """Only rows that hold a Fraction are cleared, also one with
    denominator 1; an all-int row enters _echelon as a copy."""
    calls = []
    int_rows = linalg._int_rows
    monkeypatch.setattr(linalg, "_int_rows",
                        lambda rows: calls.append(1) or int_rows(rows))
    m = M([[Fraction(1, 2), 1, 0], [1, 2, 3], [2, 4, 6], [0, Fraction(3), 1]])
    before = [dict(r) for r in m.sparse]
    rows, per_row = linalg._integer_rows(m.sparse)
    assert len(calls) == 2
    assert per_row == 1
    assert rows == [{0: 1, 1: 2}, {0: 1, 1: 2, 2: 3}, {0: 2, 1: 4, 2: 6}, {1: 3, 2: 1}]
    assert all(type(x) is int for r in rows for x in r.values())
    assert all(a is not b for a, b in zip(rows, m.sparse))
    calls.clear()
    assert rank(m) == 3
    assert rank_profile(m) == [0, 2, -1, 1]
    assert len(calls) == 4
    assert [dict(r) for r in m.sparse] == before


def test_rank_of_empty_shapes():
    assert rank(Matrix([], 4)) == 0
    assert rank(Matrix([[], [], []], 0)) == 0
    assert rank(Matrix.zero(3, 2)) == 0


def test_full_space_shortcuts():
    full = Subspace.full(3)
    u = Subspace([[1, 2, 0]], 3)
    assert kernel(Matrix.zero(2, 3)) == full
    assert kernel(Matrix([], 3)) == full
    assert full.intersect(u) is u and u.intersect(full) is u
    assert full.contains(u) and not u.contains(full)
    with pytest.raises(ValueError):
        full.contains(Subspace.full(2))
    # a sum with a full side is that side, with no reduction
    assert full.sum(u) is full and u.sum(full) is full
    assert full.sum(Subspace.full(3)) is full
    with pytest.raises(ValueError):
        full.sum(Subspace.full(2))


def test_preimage_of_zero_is_the_kernel_without_a_product(monkeypatch):
    m = M([[1, 1, 0], [0, 0, 2]])
    want = kernel(m)
    monkeypatch.setattr(Matrix, "mul", lambda *a: pytest.fail("preimage of 0 multiplied"))
    assert preimage(m, Subspace.zero(2)) == want
    with pytest.raises(ValueError):
        preimage(m, Subspace.zero(3))


@given(matrices())
@settings(max_examples=200)
def test_rank_nullity(m):
    assert kernel(m).dim + image(m).dim == m.ncols


@given(deficient_matrices(), st.data())
@settings(max_examples=300)
def test_rank_ignores_row_order(m, data):
    """rank is free to take its rows in any order: every permutation of
    the rows, dependent ones among them, on integer, Fraction, Gaussian and
    mixed entries, gives the same rank."""
    order = data.draw(st.permutations(range(m.nrows)))
    assert rank(Matrix([m.rows[i] for i in order], m.ncols)) == rank(m)


# -- kernel / image ---------------------------------------------------------


def test_kernel_image_zero_and_identity():
    z = Matrix.zero(3, 3)
    assert kernel(z).dim == 3 and image(z).dim == 0
    e = Matrix.identity(4)
    assert kernel(e).dim == 0 and image(e).dim == 4


def test_kernel_of_row_vector():
    k = kernel(M([[1, 1]]))
    assert k.dim == 1
    assert k.rows == ((1, -1),)


def test_kernel_lies_in_domain_image_in_codomain():
    m = M([[1, 0, 2], [0, 0, 0]])
    assert kernel(m).n == 3
    assert image(m).n == 2


@given(matrices())
@settings(max_examples=100)
def test_kernel_vectors_killed(m):
    k = kernel(m)
    assert m.mul(k.basis_matrix().transpose()).is_zero()


# -- subspace lattice -------------------------------------------------------


def test_sum_and_intersection_of_axes():
    u = Subspace([[1, 0]], 2)
    v = Subspace([[0, 1]], 2)
    assert u.sum(v) == Subspace.full(2)
    assert u.intersect(v) == Subspace.zero(2)


def test_idempotence():
    u = Subspace([[1, 2, 3], [0, 1, 1]], 3)
    assert u.sum(u) == u
    assert u.intersect(u) == u


def test_intersection_with_containing_space():
    u = Subspace([[1, 1, 0]], 3)
    v = Subspace([[1, 1, 0], [0, 0, 1]], 3)
    assert u.intersect(v) == u


@given(subspace_pairs())
@settings(max_examples=200)
def test_dimension_formula_and_commutativity(pair):
    u, v = pair
    s = u.sum(v)
    i = u.intersect(v)
    assert u.dim + v.dim == s.dim + i.dim
    assert s == v.sum(u)
    assert i == v.intersect(u)
    assert s.contains(u) and s.contains(v)
    assert u.contains(i) and v.contains(i)


@given(subspace_pairs(), subspace_pairs())
@settings(max_examples=100)
def test_associativity(p1, p2):
    u, v = p1
    w, _ = p2
    assert u.sum(v).sum(w) == u.sum(v.sum(w))
    assert u.intersect(v).intersect(w) == u.intersect(v.intersect(w))


@given(subspace_pairs())
@settings(max_examples=200)
def test_equality_agrees_with_mutual_contains(pair):
    u, v = pair
    assert (u == v) == (u.contains(v) and v.contains(u))


def contains_vector(s, vec):
    """Reference: reduce vec against the RREF rows of s over the field."""
    v = list(vec)
    for row, p in zip(s.rows, s.pivots):
        a = v[p]
        if a:
            v = [x - a * y for x, y in zip(v, row)]
    return not any(v)


def test_contains_vector():
    u = Subspace([[1, 0, 1], [0, 1, 1]], 3)
    assert contains_vector(u, [1, 1, 2])
    assert not contains_vector(u, [0, 0, 1])
    assert contains_vector(u, [0, 0, 0])
    assert u.contains(Subspace([[1, 1, 2]], 3))
    assert not u.contains(Subspace([[1, 1, 2], [0, 0, 1]], 3))


@st.composite
def containment_pairs(draw, n=4):
    """(u, v) over one entry kind; v is spanned by combinations of u's
    rows, plus sometimes one drawn row, so both answers occur."""
    entries = draw(st.sampled_from(entry_kinds))
    u = Subspace([[draw(entries) for _ in range(n)]
                  for _ in range(draw(st.integers(0, n)))], n)
    vrows = []
    for _ in range(draw(st.integers(0, 3))):
        new = [0] * n
        for r in u.rows:
            c = draw(entries)
            new = [x + c * y for x, y in zip(new, r)]
        vrows.append([demote(x) for x in new])
    if draw(st.booleans()):
        vrows.append([draw(entries) for _ in range(n)])
    return u, Subspace(vrows, n)


@given(containment_pairs())
@settings(max_examples=300)
def test_contains_matches_per_vector_reference(pair):
    u, v = pair
    assert u.contains(v) == all(contains_vector(u, r) for r in v.rows)


def test_contains_needs_the_i_multiples_of_rows():
    # each vector below is a row plus i times another row, so reducing
    # it needs the split rows of i*w as well as those of w
    i = GaussianRational(0, 1)
    u = Subspace([[1, 0, Fraction(1, 2)], [0, 1, 0]], 3)  # rational rows
    assert u.contains(Subspace([[1, i, Fraction(1, 2)]], 3))
    assert not u.contains(Subspace([[1, i, 1]], 3))
    w = Subspace([[1, 0, i], [0, 1, 1]], 3)
    assert w.contains(Subspace([[1, i, 2 * i]], 3))
    assert not w.contains(Subspace([[1, i, i]], 3))


# -- quotients --------------------------------------------------------------


def test_quotient_dims():
    full = Subspace.full(2)
    zero = Subspace.zero(2)
    assert quotient_dim(full, zero) == 2
    u = Subspace([[1, 3]], 2)
    assert quotient_dim(u, u) == 0
    assert quotient_dim(full, Subspace([[1, 1]], 2)) == 1


def test_quotient_raises_not_a_subspace():
    z = Subspace([[1, 0]], 2)
    b = Subspace([[0, 1]], 2)
    with pytest.raises(NotASubspace):
        quotient_dim(z, b)


# -- maps on subspaces ------------------------------------------------------


def test_map_subspace():
    m = M([[1, 0], [0, 0]])
    s = Subspace.full(2)
    assert map_subspace(m, s) == Subspace([[1, 0]], 2)


def test_preimage_examples():
    m = M([[1, 0], [0, 1]])
    w = Subspace([[1, 0]], 2)
    assert preimage(m, w) == w
    # collapse map: preimage of 0 is the kernel
    m2 = M([[1, 1]])
    assert preimage(m2, Subspace.zero(1)) == kernel(m2)
    assert preimage(m2, Subspace.full(1)) == Subspace.full(2)


@given(matrices(), st.data())
@settings(max_examples=100)
def test_preimage_characterization(m, data):
    k = data.draw(st.integers(0, m.nrows))
    rows = [
        [data.draw(st.integers(-3, 3)) for _ in range(m.nrows)] for _ in range(k)
    ]
    w = Subspace(rows, m.nrows)
    p = preimage(m, w)
    # everything in the preimage maps into w, and the kernel sits inside
    assert w.contains(map_subspace(m, p))
    assert p.contains(kernel(m))


def test_annihilator_double_dual():
    u = Subspace([[1, 2, 0], [0, 0, 1]], 3)
    assert annihilator(annihilator(u)) == u


def test_mat_inverse():
    m = M([[2, 1], [1, 1]])
    inv = mat_inverse(m)
    assert m.mul(inv) == Matrix.identity(2)
    assert inv.mul(m) == Matrix.identity(2)
    with pytest.raises(ValueError):
        mat_inverse(M([[1, 1], [2, 2]]))


def test_matrix_shape_guards():
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        Matrix([], None)
    with pytest.raises(ValueError):
        M([[1]]).mul(M([[1, 2], [3, 4]]))
    with pytest.raises(ValueError):
        hstack(M([[1]]), M([[1], [2]]))


# -- scaling rational rows ---------------------------------------------------


def cleared_by_loop(values):
    """Reference clearing for _int_rows: the lcm folded over every entry."""
    den = 1
    for x in values:
        den = lcm(den, x.denominator)
    return den, [x.numerator * (den // x.denominator) for x in values]


@pytest.mark.parametrize("values", [
    [],
    [0, 3, -7],
    [Fraction(4, 1), Fraction(-2), 5],
    [Fraction(-1, 2), Fraction(1, 3), -4, Fraction(-5, 6)],
])
def test_cleared_matches_the_per_entry_loop(values):
    den, (row,) = linalg._int_rows([dict(enumerate(values))])
    got = den, list(row.values())
    assert got == cleared_by_loop(values)
    assert all(type(x) is int for x in got[1])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(-9, 9),
                          st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)))))
def test_cleared_matches_the_per_entry_loop_on_random_rows(values):
    den, (row,) = linalg._int_rows([dict(enumerate(values))])
    assert (den, list(row.values())) == cleared_by_loop(values)
