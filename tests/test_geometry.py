"""Lie-algebra geometry oracles.

Dimension tables for the stock examples are pinned from independent
hand computations (structure equations worked out on paper; several
entries double-checked by brute-force kernel/image arithmetic in the
test bodies themselves).
"""

import math
import re
import sys
from fractions import Fraction

import pytest

from cohomlab import geometry, linalg, report
from cohomlab.cohomology import Analysis, PairAnalysis
from cohomlab.complexes import tot
from cohomlab.exterior import extend_derivation, wedge, form_scale
from cohomlab.geometry import (
    ComplexStructureData,
    LieAlgebraPresentation,
    SymplecticData,
    _compounds,
    _conj_form,
    _dim,
    _get,
    builtin,
    ce_complex,
    complex_bicomplex,
    hard_lefschetz,
    iwasawa_lie,
    iwasawa_symplectic,
    primitive_and_lefschetz_decomposition,
    random_nilpotent_lie,
    random_symplectic,
    symplectic_pair,
    type_n_view,
)
from cohomlab.io import BuildResult
from cohomlab.linalg import Matrix, image, kernel, vstack
from cohomlab.report import make_report
from cohomlab.scalars import GaussianRational, I, demote
from cohomlab.spectral import degenerates_at, doub_degeneration_check, pages

import random

import subspace_reference
from subspace_reference import map_subspace


def test_presentation_validation():
    with pytest.raises(ValueError):
        LieAlgebraPresentation(3, {(2, 1): {3: 1}})
    with pytest.raises(ValueError):
        LieAlgebraPresentation(3, {(1, 1): {3: 1}})
    with pytest.raises(ValueError):
        LieAlgebraPresentation(3, {(1, 2): {7: 1}})
    lie = LieAlgebraPresentation(3, {(1, 2): {3: 0}})
    assert lie.brackets == {}


def test_jacobi_violation_reported():
    # [e1,e2] = e3 and [e3,e4] = e1 break Jacobi
    lie = LieAlgebraPresentation(4, {(1, 2): {3: 1}, (3, 4): {1: 1}})
    with pytest.raises(ValueError, match="Jacobi"):
        ce_complex(lie)


def test_non_nilpotent_warns():
    # [e1, e2] = e2 is solvable, not nilpotent
    lie = LieAlgebraPresentation(2, {(1, 2): {2: 1}})
    assert not lie.is_nilpotent()
    assert not lie.is_unimodular()
    with pytest.warns(UserWarning):
        g = ce_complex(lie)
    assert g.cohomology() == {0: 1, 1: 1, 2: 0}


def test_heisenberg_betti():
    g = ce_complex(builtin("heisenberg3"))
    assert g.cohomology() == {0: 1, 1: 2, 2: 2, 3: 1}
    assert builtin("heisenberg3").is_nilpotent()
    assert builtin("heisenberg3").is_unimodular()


def test_abelian_betti():
    g = ce_complex(builtin("abelian:4"))
    assert g.cohomology() == {k: math.comb(4, k) for k in range(5)}


def test_iwasawa_real_betti():
    lie = iwasawa_lie()
    assert lie.is_nilpotent()
    assert lie.is_unimodular()
    g = ce_complex(lie)
    assert g.cohomology() == {0: 1, 1: 4, 2: 8, 3: 10, 4: 8, 5: 4, 6: 1}


def test_builtin_names():
    with pytest.raises(ValueError):
        builtin("nope")
    with pytest.raises(ValueError):
        builtin("abelian:x")
    with pytest.raises(ValueError):
        builtin("abelian:-2")
    assert builtin("abelian:0").n == 0


# ---------------------------------------------------------------------------
# complex structures


def test_complex_structure_validation():
    with pytest.raises(ValueError):
        ComplexStructureData(2, {1: {(0, 1, 2): 1}})
    with pytest.raises(ValueError):
        ComplexStructureData(2, {5: {(0, 1): 1}})
    # (0,2)-component: indices 2,3 are both conjugates when n = 2
    nonint = ComplexStructureData(2, {1: {(2, 3): 1}})
    with pytest.raises(ValueError, match="integrable"):
        complex_bicomplex(nonint)
    # d d != 0 caught through the Jacobi check
    bad = ComplexStructureData(3, {1: {(1, 2): 1}, 2: {(0, 1): 1}})
    with pytest.raises(ValueError, match="Jacobi"):
        complex_bicomplex(bad)


def test_conj_form_signs_on_mixed_monomials():
    # phi_0 ^ conj(phi_1) conjugates to conj(phi_0) ^ phi_1 = -phi_1 ^ conj(phi_0)
    assert _conj_form({(0, 3): 1}, 2) == {(1, 2): -1}
    assert _conj_form({(1, 2): I, (0, 1): 2}, 2) == {(0, 3): I, (2, 3): 2}
    assert _conj_form({(2, 3): 1, (0, 1, 5): I}, 3) == {(0, 5): -1, (2, 3, 4): -I}
    assert _conj_form({(0, 4, 5, 6): 1}, 4) == {(0, 1, 2, 4): -1}


IWASAWA_D2 = {
    (0, 0): 1, (1, 0): 3, (2, 0): 3, (3, 0): 1,
    (0, 1): 2, (1, 1): 6, (2, 1): 6, (3, 1): 2,
    (0, 2): 2, (1, 2): 6, (2, 2): 6, (3, 2): 2,
    (0, 3): 1, (1, 3): 3, (2, 3): 3, (3, 3): 1,
}

IWASAWA_BC = {
    (0, 0): 1, (1, 0): 2, (0, 1): 2,
    (2, 0): 3, (1, 1): 4, (0, 2): 3,
    (3, 0): 1, (2, 1): 6, (1, 2): 6, (0, 3): 1,
    (3, 1): 2, (2, 2): 8, (1, 3): 2,
    (3, 2): 3, (2, 3): 3,
    (3, 3): 1,
}


def test_iwasawa_complex_tables():
    dc = builtin("iwasawa-complex")
    assert dc.validate() == []
    assert dc.total_dim() == 64
    a = Analysis(dc, validated=True)
    assert a.flavor_table("D2") == IWASAWA_D2
    # first-kind cohomology is the conjugate table
    d1 = a.flavor_table("D1")
    assert d1 == {(q, p): v for (p, q), v in IWASAWA_D2.items()}
    assert a.flavor_table("BC") == IWASAWA_BC
    # duality pairs Aeppli at (p,q) with Bott-Chern at (3-q,3-p)
    assert a.flavor_table("A") == {
        (3 - q, 3 - p): v for (p, q), v in IWASAWA_BC.items()
    }
    assert tot(dc, 1).cohomology() == {0: 1, 1: 4, 2: 8, 3: 10, 4: 8, 5: 4, 6: 1}
    assert not a.lemma_verdict()["holds"]


def test_iwasawa_complex_type_n_view():
    dc = builtin("iwasawa-complex")
    view = type_n_view(dc)
    diag = {-3: 1, -2: 5, -1: 11, 0: 14, 1: 11, 2: 5, 3: 1}
    for name in ("D1", "D2", "BC", "A"):
        assert view[name] == diag, name
    # Dolbeault row mass exceeds the Betti number in total degree 1
    d2 = Analysis(dc, validated=True).flavor_table("D2")
    assert d2[(1, 0)] + d2[(0, 1)] == 5 > 4


def test_iwasawa_complex_matches_real_form():
    """Change of frame phi^1 = e1 + i e2, phi^2 = e3 + i e4, phi^3 = e5 + i e6
    carries the bicomplex differential to the real structure equations."""
    real_d = extend_derivation(6, iwasawa_lie().dgen())
    phi = [
        {(0,): 1, (1,): I},
        {(2,): 1, (3,): I},
        {(4,): 1, (5,): I},
    ]
    bar = [
        {(0,): 1, (1,): GaussianRational(0, -1)},
        {(2,): 1, (3,): GaussianRational(0, -1)},
        {(4,): 1, (5,): GaussianRational(0, -1)},
    ]

    def norm(form):
        out = {}
        for k, v in form.items():
            v = demote(v)
            if v:
                out[k] = v
        return out

    # d phi^1 = d phi^2 = 0, d phi^3 = -phi^1 ^ phi^2, and conjugates
    assert norm(real_d(phi[0])) == {}
    assert norm(real_d(phi[1])) == {}
    assert norm(real_d(phi[2])) == norm(form_scale(wedge(phi[0], phi[1]), -1))
    assert norm(real_d(bar[2])) == norm(form_scale(wedge(bar[0], bar[1]), -1))


def gaussian_structures(seed, count, n=3):
    """Nilpotent complex structures with d phi^i in span{phi^a phi^b,
    phi^a phibar^b : a, b < i}, some coefficient non-real, that
    complex_bicomplex accepts."""
    coeffs = (1, -1, 2, I, GaussianRational(1, -1), GaussianRational(Fraction(1, 2), 1))
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        dphi = {}
        for i in range(1, n):
            cands = [(a, b) for a in range(i) for b in range(a + 1, i)]
            cands += [(a, n + b) for a in range(i) for b in range(i)]
            form = {m: rng.choice(coeffs) for m in cands if rng.random() < 0.5}
            if form:
                dphi[i + 1] = form
        if not any(isinstance(c, GaussianRational) for f in dphi.values()
                   for c in f.values()):
            continue
        try:
            out.append(complex_bicomplex(ComplexStructureData(n, dphi)))
        except ValueError:
            continue
    return out


@pytest.mark.parametrize("which", ["iwasawa", 0, 1, 2])
def test_complex_structure_dualities(which):
    """Serre-type duality BC^{p,q} = A^{n-p,n-q}, conjugation D1^{p,q} =
    D2^{q,p}, and equal total cohomology for both signs."""
    if which == "iwasawa":
        dc = builtin("iwasawa-complex")
    else:
        dc = gaussian_structures(2014, 3)[which]
    n = 3
    a = Analysis(dc, validated=True)
    bc, aa = a.flavor_table("BC", True), a.flavor_table("A", True)
    d1, d2 = a.flavor_table("D1", True), a.flavor_table("D2", True)
    assert set(bc) == {(p, q) for p in range(n + 1) for q in range(n + 1)}
    for p, q in bc:
        assert bc[(p, q)] == aa[(n - p, n - q)], (p, q)
        assert d1[(p, q)] == d2[(q, p)], (p, q)
    assert a.total_table(1) == a.total_table(-1)
    assert a.lemma_verdict()["holds"] is False


# ---------------------------------------------------------------------------
# symplectic structures


def test_symplectic_validation():
    with pytest.raises(ValueError, match="even"):
        symplectic_pair(SymplecticData(builtin("heisenberg3"), {(1, 2): 1}))
    # d(e34) = e123 on the 4-dimensional algebra with de4 = -e12
    lie4 = LieAlgebraPresentation(4, {(1, 2): {4: 1}})
    with pytest.raises(ValueError, match="closed"):
        symplectic_pair(SymplecticData(lie4, {(3, 4): 1}))
    with pytest.raises(ValueError, match="degenerate"):
        symplectic_pair(SymplecticData(builtin("abelian:4"), {(1, 2): 1}))
    with pytest.raises(ValueError):
        SymplecticData(builtin("abelian:4"), {(2, 1): 1})


def verify_operator_identities(ops):
    """Recheck every structural identity from the returned matrices."""
    n, m = ops.n, ops.m
    for k in range(n + 1):
        co = _dim(n, k)
        assert ops.star[n - k].mul(ops.star[k]) == Matrix.identity(co)
        comm = _get(ops.Lam, n, k + 2, -2).mul(ops.L[k]).add(
            _get(ops.L, n, k - 2, 2).mul(ops.Lam[k]).scale(-1)
        )
        assert comm == Matrix.identity(co).scale(m - k)
        assert _get(ops.d, n, k + 1, 1).mul(ops.d[k]).is_zero()
        assert _get(ops.d_lam, n, k - 1, -1).mul(ops.d_lam[k]).is_zero()
        assert _get(ops.d, n, k + 2, 1).mul(ops.L[k]) == _get(ops.L, n, k + 1, 2).mul(ops.d[k])
        anti = _get(ops.d, n, k - 1, 1).mul(ops.d_lam[k]).add(
            _get(ops.d_lam, n, k + 1, -1).mul(ops.d[k])
        )
        assert anti.is_zero()
        if k >= 1:
            sgn = -1 if k % 2 == 0 else 1
            via = ops.star[n - k + 1].mul(ops.d[n - k]).mul(ops.star[k]).scale(sgn)
            assert ops.d_lam[k] == via


def test_iwasawa_symplectic_tables():
    pair, ops = builtin("iwasawa-symplectic")
    assert ops.unimodular and ops.n == 6 and ops.m == 3
    verify_operator_identities(ops)
    pa = PairAnalysis(pair, validated=True)
    as_row = lambda t: [t.get(k, 0) for k in range(7)]
    assert as_row(pa.flavor_table("D1", keep_zeros=True)) == [1, 4, 8, 10, 8, 4, 1]
    assert as_row(pa.flavor_table("D2", keep_zeros=True)) == [1, 4, 8, 10, 8, 4, 1]
    # Bott-Chern in degree 2: every d-closed 2-form is d_lam-closed, and
    # d d_lam vanishes identically on 2-forms (its Lambda-factor lands in
    # the closed span of e1, e2), so the quotient is all of ker d, dim 10.
    assert as_row(pa.flavor_table("BC", keep_zeros=True)) == [1, 4, 10, 11, 10, 4, 1]
    assert as_row(pa.flavor_table("A", keep_zeros=True)) == [1, 4, 10, 11, 10, 4, 1]
    assert pa.total_table(1) == {0: 18, 1: 18}
    assert pa.total_table(-1) == {0: 18, 1: 18}
    assert not pa.lemma_verdict()["holds"]

    hl = hard_lefschetz(pa, ops)
    assert hl["betti"] == {0: 1, 1: 4, 2: 8, 3: 10, 4: 8, 5: 4, 6: 1}
    assert hl["slack"] == {0: 0, 1: 0, 2: 4, 3: 2, 4: 4, 5: 0, 6: 0}
    assert hl["lefschetz_iso"] == {0: True, 1: False, 2: False, 3: True}
    assert not hl["holds"]

    chk = doub_degeneration_check(pa)
    assert chk["first"] and chk["second"]


def test_iwasawa_symplectic_bc2_brute_force():
    """BC in degree 2 equals dim ker d = 10: d d_lam kills all of Lambda^2."""
    pair, ops = builtin("iwasawa-symplectic")
    assert kernel(ops.d[2]).dim == 10
    ddlam = ops.d[1].mul(ops.d_lam[2])
    assert ddlam.is_zero()


def lefschetz_on_bc_and_a(sd):
    """{"BC": {k: dim}, "A": {k: dim}} of a symplectic algebra, after
    checking the symplectic hard Lefschetz theorem on both (Tseng-Yau,
    JDG 2012): for every k <= m = n/2, L^k: BC^{m-k} -> BC^{m+k} and
    L^k: A^{m-k} -> A^{m+k} are well defined and bijective.  Computed
    from the operator matrices with kernels, images, sums and
    containment of subspaces only, without Analysis or Subquotient; the
    dimensions must equal the engine's BC and A tables."""
    pair, ops = symplectic_pair(sd)
    n = ops.n
    m = n // 2

    def d(k):
        return _get(ops.d, n, k, 1)

    def d_lam(k):
        return _get(ops.d_lam, n, k, -1)

    def bott_chern(k):
        return (kernel(vstack(d(k), d_lam(k))),
                image(d(k - 1).mul(d_lam(k))))

    def aeppli(k):
        return (kernel(d(k - 1).mul(d_lam(k))),
                image(d(k - 1)).sum(image(d_lam(k + 1))))

    engine = PairAnalysis(pair, validated=True)
    tables = {}
    for name, flavor in (("BC", bott_chern), ("A", aeppli)):
        dims = tables[name] = {}
        for k in range(m + 1):
            (num_s, den_s), (num_t, den_t) = flavor(m - k), flavor(m + k)
            l_k = Matrix.identity(_dim(n, m - k))
            for j in range(m - k, m + k, 2):
                l_k = _get(ops.L, n, j, 2).mul(l_k)
            # L^k is a map of the quotients: numerator into numerator,
            # denominator into denominator
            l_num = map_subspace(l_k, num_s)
            assert num_t.contains(l_num), (name, k)
            assert den_t.contains(map_subspace(l_k, den_s)), (name, k)
            dims[m - k], dims[m + k] = num_s.dim - den_s.dim, num_t.dim - den_t.dim
            # its image fills the target, whose dimension is the source's
            assert l_num.sum(den_t).dim - den_t.dim == dims[m + k] == dims[m - k], (name, k)
        assert dims == engine.flavor_table(name, keep_zeros=True), name
    return tables


def test_iwasawa_symplectic_lefschetz_on_bc_and_a():
    """L: BC^2 -> BC^4 and L: A^2 -> A^4 are isomorphisms of rank 10.
    This is the oracle behind the BC^2 = A^4 = 10 pins of acceptance
    criterion 1."""
    for name, dims in lefschetz_on_bc_and_a(iwasawa_symplectic()).items():
        assert dims[2] == dims[4] == 10, name


def test_abelian_torus_lefschetz():
    lie = builtin("abelian:2")
    pair, ops = symplectic_pair(SymplecticData(lie, {(1, 2): 1}))
    verify_operator_identities(ops)
    pa = PairAnalysis(pair, validated=True)
    hl = hard_lefschetz(pa, ops)
    assert hl["holds"]
    assert hl["slack"] == {0: 0, 1: 0, 2: 0}
    dec = primitive_and_lefschetz_decomposition(pa, ops)
    assert dec["primitive"] == {0: 1, 1: 2, 2: 0}
    assert dec["decomposition_holds"]
    assert pa.lemma_verdict()["holds"]


def test_iwasawa_symplectic_primitive_decomposition():
    pair, ops = builtin("iwasawa-symplectic")
    dec = primitive_and_lefschetz_decomposition(PairAnalysis(pair, validated=True), ops)
    # primitive forms sit in degrees <= m
    assert all(dec["primitive"][k] == 0 for k in range(4, 7))
    assert dec["primitive"][0] == 1
    # the decomposition cannot exhaust de Rham when Lefschetz fails
    assert not dec["decomposition_holds"]


def criterion_6_algebras(count):
    """The first count algebras of acceptance criterion 6 (dims 2, 4, 6)."""
    out, seed = [], 0
    while len(out) < count:
        sd = random_symplectic((2, 4, 6)[len(out) % 3], seed)
        seed += 1
        if sd is not None:
            out.append(sd)
    return out


def affine_symplectic(copies):
    """copies of aff(1): [e1, e2] = e2 with omega = e12, side by side.
    Solvable and not unimodular, so D2^k = b_{n-k} differs from b_k."""
    brackets = {(2 * i + 1, 2 * i + 2): {2 * i + 2: 1} for i in range(copies)}
    omega = {(2 * i + 1, 2 * i + 2): 1 for i in range(copies)}
    return SymplecticData(LieAlgebraPresentation(2 * copies, brackets), omega)


SECTION_INPUTS = [("iwasawa", iwasawa_symplectic()),
                  ("torus", SymplecticData(builtin("abelian:2"), {(1, 2): 1})),
                  ("aff", affine_symplectic(1)),
                  ("aff2", affine_symplectic(2))]
SECTION_INPUTS += [("criterion6-%d" % i, sd) for i, sd in enumerate(criterion_6_algebras(12))]


@pytest.mark.filterwarnings("ignore:Lie algebra is not nilpotent")
@pytest.mark.parametrize("name,sd", SECTION_INPUTS, ids=[n for n, _ in SECTION_INPUTS])
def test_symplectic_sections_match_subspace_reference(name, sd):
    """The rank-based Lefschetz maps, Betti numbers, primitive cohomology
    and decomposition agree with the subspace computation; the Betti
    numbers also agree with the cohomology of the Chevalley-Eilenberg
    complex."""
    pair, ops = symplectic_pair(sd)
    pa = PairAnalysis(pair, validated=True)
    hl = hard_lefschetz(pa, ops)
    dec = primitive_and_lefschetz_decomposition(pa, ops)
    ref_hl = subspace_reference.hard_lefschetz(ops)
    ref_dec = subspace_reference.primitive_and_lefschetz_decomposition(ops)
    assert hl["betti"] == ref_hl["betti"] == ce_complex(sd.lie).cohomology()
    assert hl["lefschetz_iso"] == ref_hl["lefschetz_iso"]
    assert dec["primitive"] == ref_dec["primitive"]
    assert dec["per_degree"] == ref_dec["per_degree"]
    assert dec["decomposition_holds"] == all(ref_dec["per_degree"].values())


@pytest.mark.filterwarnings("ignore:Lie algebra is not nilpotent")
def test_non_unimodular_algebra_slack_subtracts_d2():
    """Without Poincare duality D2 differs from the Betti numbers, and the
    slack BC + A - D1 - D2 of the refined inequality is still nonnegative.
    aff(1): b = D1 = (1, 1, 0) and D2^k = b_{2-k} = (0, 1, 1), with
    BC = (1, 1, 1) and A = (0, 2, 0), so the slack is
    (1 + 0 - 1 - 0, 1 + 2 - 1 - 1, 1 + 0 - 0 - 1) = (0, 1, 0).  The old
    BC + A - 2 b read -1 in degree 0."""
    pair, ops = symplectic_pair(affine_symplectic(1))
    assert not ops.unimodular
    pa = PairAnalysis(pair, validated=True)
    assert pa.flavor_table("D2", keep_zeros=True) == {0: 0, 1: 1, 2: 1}
    hl = hard_lefschetz(pa, ops)
    assert hl["betti"] == {0: 1, 1: 1, 2: 0}
    assert hl["slack"] == {0: 0, 1: 1, 2: 0}
    assert hl["lefschetz_iso"] == {0: True, 1: False}


COMPOUND_INPUTS = [iwasawa_symplectic()] + criterion_6_algebras(50)


@pytest.mark.parametrize("sd", COMPOUND_INPUTS[1:], ids=[
    "criterion6-%d" % i for i in range(50)])
def test_tseng_yau_lefschetz_on_bc_and_a(sd):
    lefschetz_on_bc_and_a(sd)


@pytest.mark.parametrize("sd", COMPOUND_INPUTS, ids=["iwasawa"] + [
    "criterion6-%d" % i for i in range(50)])
def test_compounds_are_the_gram_minors_and_invert(sd):
    """C_k(P) is the matrix of k-by-k minors of P = omega^-1, computed by
    determinants in the reference; the star reads it as the integer
    compound C_k(P_int) over D^k, where P_int = D P.  C_k(P) C_k(omega)
    = I in every degree (Cauchy-Binet), so C_k(omega) is the Gram
    inverse, the factor the Gram route to Lambda in
    test_lambda_matches_the_gram_route reads from the reference; on the
    integers that reads C_k(P_int) C_k(Omega) = (D e)^k I, with
    Omega = e omega."""
    om = sd.omega_matrix()
    n = om.ncols
    p_mat = linalg.mat_inverse(om)
    den_p, p_int = linalg._int_rows(p_mat.sparse)
    e, big_omega = linalg._int_rows(om.sparse)
    gram, gram_inv = _compounds(p_int, n), _compounds(big_omega, n)
    assert sorted(gram) == sorted(gram_inv) == list(range(n + 1))
    for k in range(n + 1):
        co = _dim(n, k)
        assert all(type(x) is int and x for row in gram[k] for x in row.values()), k
        assert (Matrix.from_sparse(gram[k], co).scale(Fraction(1, den_p ** k))
                == subspace_reference.gram_by_minors(p_mat, k)), k
        assert (Matrix.from_sparse(gram[k], co).mul(Matrix.from_sparse(gram_inv[k], co))
                == Matrix.identity(co).scale((den_p * e) ** k)), k


def _scaled_omega(sd, c):
    return SymplecticData(sd.lie, {key: c * v for key, v in sd.omega.items()})


def _scaled_brackets(lie, c):
    return LieAlgebraPresentation(lie.n, {
        key: {k: c * v for k, v in targets.items()}
        for key, targets in lie.brackets.items()})


# Inputs whose scales are not all 1: omega scaled by 2/3 gives D = 2 and
# a non-integer v0; brackets scaled by 1/2 give rational d; the affine
# algebra is neither nilpotent nor unimodular.
RATIONAL_INPUTS = [
    ("iwasawa-omega-scaled", _scaled_omega(iwasawa_symplectic(), Fraction(2, 3))),
    ("iwasawa-brackets-halved", SymplecticData(
        _scaled_brackets(iwasawa_lie(), Fraction(1, 2)), iwasawa_symplectic().omega)),
    ("iwasawa-both", SymplecticData(
        _scaled_brackets(iwasawa_lie(), Fraction(-3, 4)),
        {(1, 6): Fraction(5, 2), (2, 5): Fraction(5, 2), (3, 4): Fraction(-2, 3)})),
    ("torus4-rational", SymplecticData(builtin("abelian:4"),
                                       {(1, 2): Fraction(1, 2), (1, 3): 1, (3, 4): Fraction(7, 5)})),
    ("criterion6-5-omega-scaled", _scaled_omega(criterion_6_algebras(6)[5], Fraction(3, 7))),
    ("aff2-rational", SymplecticData(
        _scaled_brackets(affine_symplectic(2).lie, Fraction(2, 5)),
        {(1, 2): Fraction(1, 3), (3, 4): 2})),
]
REFERENCE_INPUTS = [("iwasawa", iwasawa_symplectic())] + [
    ("criterion6-%d" % i, sd) for i, sd in enumerate(COMPOUND_INPUTS[1:])] + RATIONAL_INPUTS


def _scales(sd):
    """(D, v0, e, rational brackets) of sd, from the reference route."""
    om = sd.omega_matrix()
    den_p = linalg._int_rows(linalg.mat_inverse(om).sparse)[0]
    ref = subspace_reference.fraction_calculus(sd)
    brackets = any(isinstance(c, Fraction) and c.denominator > 1
                   for targets in sd.lie.brackets.values() for c in targets.values())
    return den_p, ref["v0"], linalg._int_rows(om.sparse)[0], brackets


def test_reference_inputs_cover_the_scales():
    """Among the reference inputs some have D > 1, a non-integer v0, a
    non-integer omega and rational structure constants."""
    scales = [_scales(sd) for _name, sd in RATIONAL_INPUTS]
    assert any(den_p > 1 for den_p, _v0, _e, _b in scales)
    assert any(Fraction(v0).denominator > 1 for _d, v0, _e, _b in scales)
    assert any(e > 1 for _d, _v0, e, _b in scales)
    assert any(b for _d, _v0, _e, b in scales)


@pytest.mark.filterwarnings("ignore:Lie algebra is not nilpotent")
@pytest.mark.parametrize("name,sd", REFERENCE_INPUTS, ids=[n for n, _ in REFERENCE_INPUTS])
def test_operators_equal_the_fraction_reference(name, sd):
    """star, L, Lambda and d_lam from the integer route equal the Fraction
    computation of the reference (Gram matrices by determinants, every
    product a Matrix.mul), entry for entry, with each entry an int or a
    Fraction that is not an integer; the pair's d2 is the nonzero d_lam.
    Each is also kept as a nonzero scale times an integer Matrix, which
    is the operator; d and d_lam have one scale in every degree."""
    pair, ops = symplectic_pair(sd)
    ref = subspace_reference.fraction_calculus(sd)
    ref["d"] = ops.d
    for table in ("star", "L", "Lam", "d", "d_lam"):
        scales = {s for s, _mat in ops.scaled[table].values()}
        assert 0 not in scales and (len(scales) == 1 or table not in ("d", "d_lam")), table
        for k, (s, mat) in ops.scaled[table].items():
            assert all(type(x) is int for row in mat.sparse for x in row.values())
            assert mat.scale(s) == ref[table][k], (name, table, k)
    for table in ("star", "L", "Lam", "d_lam"):
        got = getattr(ops, table)
        assert got is getattr(ops, table)
        assert sorted(got) == sorted(ref[table]) == list(range(ops.n + 1)), table
        for k, mat in got.items():
            assert mat == ref[table][k], (name, table, k)
            assert (mat.nrows, mat.ncols) == (ref[table][k].nrows, ref[table][k].ncols)
            assert all(type(x) is int or (type(x) is Fraction and x.denominator > 1)
                       for row in mat.rows for x in row), (name, table, k)
    assert pair.d2 == {k: m for k, m in ref["d_lam"].items()
                       if m.nrows and not m.is_zero()}
    verify_operator_identities(ops)


def test_operator_helpers_match_fraction_arithmetic():
    """The (scale, sparse integer rows) product, difference, comparison
    (a difference with empty rows) and materialization agree with the
    same operations on the Fraction matrices, for scales of every sign
    and with unequal denominators; a zero scale contributes no row
    entries, so no difference stores a zero."""
    rng = random.Random(5)
    scales = [Fraction(1), Fraction(-1), Fraction(2, 3), Fraction(-5, 4),
              Fraction(7), Fraction(1, 6), Fraction(9, 10)]

    def draw(nrows, ncols):
        rows = [[rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(ncols)]
                for _ in range(nrows)]
        return rng.choice(scales), Matrix(rows, ncols).sparse

    def as_matrix(op, ncols):
        return Matrix.from_sparse(op[1], ncols).scale(op[0])

    def same(x, y):
        return not any(geometry._minus(x, y)[1])

    for _ in range(300):
        a, b, c = (rng.randint(0, 3) for _ in range(3))
        x, y, z = draw(a, b), draw(b, c), draw(a, b)
        prod = geometry._compose(x, y)
        assert as_matrix(prod, c) == as_matrix(x, b).mul(as_matrix(y, c))
        diff = geometry._minus(x, z)
        assert type(diff[0]) is Fraction
        assert all(type(v) is int and v for row in diff[1] for v in row.values())
        expected = as_matrix(x, b).add(as_matrix(z, b).scale(-1))
        scaled = linalg._scaled(diff[0].numerator, diff[0].denominator, diff[1])
        assert as_matrix(diff, b) == expected == Matrix.from_sparse(scaled, b)
        assert same(x, z) == (as_matrix(x, b) == as_matrix(z, b))
        assert same(x, (x[0] / 3, [{j: 3 * v for j, v in row.items()} for row in x[1]]))
        zero = (Fraction(0), z[1])
        for diff, want in ((geometry._minus(x, zero), as_matrix(x, b)),
                           (geometry._minus(zero, x), as_matrix(x, b).scale(-1))):
            assert all(v for row in diff[1] for v in row.values())
            assert as_matrix(diff, b) == want


@pytest.mark.filterwarnings("ignore:Lie algebra is not nilpotent")
def test_symplectic_pair_multiplies_no_matrix(monkeypatch):
    """The calculus multiplies integer rows with linalg._product and
    builds its Matrix objects once, at the end: the only Matrix.mul
    calls during symplectic_pair are those of the pair's own validate."""
    validate = geometry.BidiffPair.validate.__code__
    outside, inside = [], []
    real = Matrix.mul

    def counting(self, other):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not validate:
            frame = frame.f_back
        (inside if frame is not None else outside).append(self.ncols)
        return real(self, other)

    monkeypatch.setattr(Matrix, "mul", counting)
    for _name, sd in LAMBDA_INPUTS + RATIONAL_INPUTS:
        symplectic_pair(sd)
    assert outside == []
    assert inside


LAMBDA_INPUTS = [("iwasawa", iwasawa_symplectic()),
                 ("torus4", SymplecticData(builtin("abelian:4"), {(1, 2): 1, (3, 4): 1}))]
LAMBDA_INPUTS += [("criterion6-%d" % i, sd) for i, sd in enumerate(criterion_6_algebras(3))]


@pytest.mark.parametrize("name,sd", LAMBDA_INPUTS, ids=[n for n, _ in LAMBDA_INPUTS])
def test_lambda_matches_the_gram_route(name, sd):
    """Lambda, built as the contraction by the bivector P = omega^-1 with
    no star in it, equals the adjoint of L under the pairing:
    C_{k-2}(omega)^T L_{k-2}^T C_k(P)^T, with both compounds computed as
    determinants of minors by the reference.  So the contraction agrees
    with star L star (test_operators_equal_the_fraction_reference) by a
    route that shares nothing with it but L."""
    _pair, ops = symplectic_pair(sd)
    om = sd.omega_matrix()
    p_mat = linalg.mat_inverse(om)
    for k in range(2, ops.n + 1):
        gram_route = subspace_reference.gram_by_minors(om, k - 2).transpose().mul(
            ops.L[k - 2].transpose()).mul(subspace_reference.gram_by_minors(p_mat, k).transpose())
        assert ops.Lam[k] == gram_route, (name, k)


def test_symplectic_pair_builds_one_compound(monkeypatch):
    """The Gram matrices C_k(P) of the star are the only compounds built."""
    calls = []
    real = geometry._compounds

    def counting(mat, top):
        calls.append(top)
        return real(mat, top)

    monkeypatch.setattr(geometry, "_compounds", counting)
    symplectic_pair(iwasawa_symplectic())
    assert calls == [6]


def test_broken_pair_relation_is_an_engine_bug(monkeypatch):
    """A constructed pair that fails its relations raises AssertionError
    naming the violation, not the ValueError of an invalid input.  The
    plant doubles d_lam out of degree 3, which breaks d d_lam + d_lam d
    there."""

    class Planted(geometry.BidiffPair):
        def __init__(self, dims, deg1, deg2, d1, d2):
            d2 = dict(d2)
            d2[3] = d2[3].scale(2)
            super().__init__(dims, deg1, deg2, d1, d2)

    monkeypatch.setattr(geometry, "BidiffPair", Planted)
    with pytest.raises(AssertionError, match=re.escape(
            "constructed pair invalid: d1 d2 + d2 d1 != 0 starting at degree 3")):
        symplectic_pair(iwasawa_symplectic())


def _scaled_compound(monkeypatch, degree):
    """Plant a star scaled by 2 in one degree: the compound C_degree(P_int)
    it reads comes back doubled."""
    real = geometry._compounds

    def scaled(rows, top):
        out = real(rows, top)
        out[degree] = [{j: 2 * x for j, x in row.items()} for row in out[degree]]
        return out

    monkeypatch.setattr(geometry, "_compounds", scaled)


def test_scaled_star_trips_the_star_square_guard(monkeypatch):
    """A star scaled by 2 in the middle degree 3 of the Iwasawa algebra
    squares to 4 id there.  Lambda is a contraction that reads no star,
    so the star's own square is the first check to see it."""
    _scaled_compound(monkeypatch, 3)
    with pytest.raises(AssertionError, match=re.escape("star star != id in degree 3")):
        symplectic_pair(iwasawa_symplectic())


def test_star_scaled_above_the_middle_trips_the_square_at_n_minus_k(monkeypatch):
    """star star = id is compared only for k <= m.  A star scaled by 2
    only in degree 4 > m = 3 is still caught: star_4 star_2 = 2 id, the
    check in degree n - 4 = 2."""
    _scaled_compound(monkeypatch, 4)
    with pytest.raises(AssertionError, match=re.escape("star star != id in degree 2")):
        symplectic_pair(iwasawa_symplectic())


def test_flipped_contraction_sign_trips_the_lambda_guard(monkeypatch):
    """One entry of the contraction Lambda_4 with its sign flipped breaks
    [Lambda, L] = H in degree 2, where Lambda_4 L_2 is first read; the
    star checks, which read no Lambda, pass before it."""
    real = geometry._contraction
    flipped = []

    def plant(p_int, n, k):
        rows = real(p_int, n, k)
        if k == 4:
            row = next(r for r in rows if r)
            j = min(row)
            row[j] = -row[j]
            flipped.append(j)
        return rows

    monkeypatch.setattr(geometry, "_contraction", plant)
    with pytest.raises(AssertionError, match=re.escape(
            "[Lambda, L] != (m - k) id in degree 2")):
        symplectic_pair(iwasawa_symplectic())
    assert len(flipped) == 1


def test_double_complex_views_refuse_a_pair(monkeypatch):
    """Spectral pages, degenerates_at and type_n_view take a DoubleComplex
    or its Analysis.  A pair or its PairAnalysis raises one ValueError
    naming those inputs, before any Analysis is built."""
    pair, _ops = builtin("iwasawa-symplectic")
    pa = PairAnalysis(pair, validated=True)

    def refuse(*args, **kwargs):
        raise AssertionError("an Analysis was built for a pair")

    monkeypatch.setattr(Analysis, "__init__", refuse)
    for obj in (pair, pa):
        for call in (lambda: pages(obj), lambda: pages(obj, "second", 2),
                     lambda: degenerates_at(obj), lambda: type_n_view(obj)):
            with pytest.raises(ValueError, match=re.escape(
                    "expected a DoubleComplex or its Analysis, got "
                    + type(obj).__name__)):
                call()


@pytest.mark.filterwarnings("ignore:Lie algebra is not nilpotent")
def test_symplectic_calculus_computes_no_determinant(monkeypatch):
    """symplectic_pair and random_symplectic call linalg.det nowhere: the
    Gram matrices are compounds and nondegeneracy is a rank.  Every
    cohomlab global bound to det is counted, so a det imported into
    another module is seen too."""
    calls = []
    real_det = linalg.det

    def counting_det(m):
        calls.append(m.ncols)
        return real_det(m)

    for name, mod in list(sys.modules.items()):
        if name == "cohomlab" or name.startswith("cohomlab."):
            for key, val in list(vars(mod).items()):
                if val is real_det:
                    monkeypatch.setattr(mod, key, counting_det)
    for seed in range(12):
        sd = random_symplectic((2, 4, 6)[seed % 3], seed)
        if sd is not None:
            symplectic_pair(sd)
    symplectic_pair(affine_symplectic(2))
    builtin("iwasawa-symplectic")
    assert calls == []
    # the counter does see the determinants of the reference Gram matrices
    subspace_reference.gram_by_minors(linalg.mat_inverse(iwasawa_symplectic().omega_matrix()), 2)
    assert len(calls) == 15 * 15


# Seeds below 50 for which random_symplectic(n, seed) returns None, as
# found when nondegeneracy was still tested by a determinant.
REJECTED_SEEDS = {
    2: [],
    4: [],
    6: [2, 4, 11, 16, 22, 26, 30, 34, 35, 36, 37, 38, 41, 42, 45, 46],
    8: [0, 1, 5, 7, 8, 12, 13, 14, 15, 17, 18, 19, 20, 21, 23, 24, 25, 27,
        28, 29, 30, 31, 33, 34, 35, 36, 37, 38, 40, 41, 43, 47, 48, 49],
}


def test_random_symplectic_accepts_the_same_seeds():
    """The rank test of nondegeneracy accepts exactly the algebras the
    determinant test accepted on the first 50 seeds of dims 2 to 8."""
    rejected = {n: [s for s in range(50) if random_symplectic(n, s) is None]
                for n in REJECTED_SEEDS}
    assert rejected == REJECTED_SEEDS


def test_degeneration_check_reads_the_report_tables(monkeypatch):
    """Inside make_report, doub_degeneration_check runs no row reduction:
    D1, D2 and TOT_PLUS are already in the report's analysis."""
    reductions = []
    real_echelon, real_check = linalg._echelon, report.doub_degeneration_check

    def counting_echelon(rows):
        reductions.append(len(rows))
        return real_echelon(rows)

    def check(*args, **kwargs):
        monkeypatch.setattr(linalg, "_echelon", counting_echelon)
        try:
            return real_check(*args, **kwargs)
        finally:
            monkeypatch.setattr(linalg, "_echelon", real_echelon)

    monkeypatch.setattr(report, "doub_degeneration_check", check)
    pair, ops = builtin("iwasawa-symplectic")
    doc = make_report(BuildResult("lie_symplectic", pair, ops=ops), {"sha256": ""})
    assert doc["degeneration"]["first"] and doc["degeneration"]["second"]
    assert reductions == []
    # the counter does see the reductions of a fresh analysis
    check(PairAnalysis(pair, validated=True))
    assert reductions


def test_primitive_guard_names_degree_and_formula(monkeypatch):
    """The ranks of N_k and [d_lam; Lam]_k are prefix counts of one
    echelon_leads pass.  A broken pass that reports a phantom lead in
    front of the rows shifts each prefix by one row: on the torus it
    reads rk N_2 = 2, rk N_1 = 1 and rk [d_lam; Lam]_1 = 1, so the
    primitive dimension in degree 2 is 1 - 2 - (1 - 1) = -1, which
    raises."""
    pair, ops = symplectic_pair(SymplecticData(builtin("abelian:2"), {(1, 2): 1}))
    pa = PairAnalysis(pair, validated=True)
    real_leads = geometry.echelon_leads
    monkeypatch.setattr(geometry, "echelon_leads", lambda rows: [0] + real_leads(rows))
    with pytest.raises(AssertionError, match=re.escape(
            "primitive at degree 2 is -1 = dim - rk N_k - (rk N_{k-1} - rk [d_lam; Lam]_{k-1})")):
        primitive_and_lefschetz_decomposition(pa, ops)


def test_random_nilpotent_lie():
    for seed in range(6):
        lie = random_nilpotent_lie(6, random.Random(seed))
        assert lie.is_nilpotent()
        assert lie.is_unimodular()
        g = ce_complex(lie)
        assert sum(g.dims.values()) == 64


def test_random_symplectic_batch():
    made = 0
    seed = 0
    dims_cycle = (2, 4, 6)
    while made < 9:
        sd = random_symplectic(dims_cycle[made % 3], seed)
        seed += 1
        if sd is None:
            continue
        pair, ops = symplectic_pair(sd)
        verify_operator_identities(ops)
        nn = ops.n
        pa = PairAnalysis(pair, validated=True)
        d1 = pa.flavor_table("D1", keep_zeros=True)
        d2 = pa.flavor_table("D2", keep_zeros=True)
        bc = pa.flavor_table("BC", keep_zeros=True)
        av = pa.flavor_table("A", keep_zeros=True)
        for k in range(nn + 1):
            assert d1.get(k, 0) == d2.get(nn - k, 0)
            assert bc.get(k, 0) == av.get(nn - k, 0)
        chk = doub_degeneration_check(pa)
        assert chk["first"] and chk["second"]
        hard_lefschetz(pa, ops)
        made += 1


def test_type_n_view_segment():
    from cohomlab.randomgen import shape_complex
    dc = shape_complex(("hseg", 1, 1))
    view = type_n_view(dc)
    assert view["D1"] == {}
    assert view["D2"] == {0: 1, 1: 1}
    assert view["BC"] == {1: 1}
    assert view["A"] == {0: 1}
