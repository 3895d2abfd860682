"""Flavor tables, Varouchas quotients, induced maps, lemma verdicts.

Expected tables for the small shapes were worked out by hand from the
definitions (kernels/images of 1x1 blocks); the random-complex tests
compare against the shape-multiset ground truth, which conjugation
cannot change.
"""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohomlab.geometry import builtin
from cohomlab.io import BuildResult
from cohomlab.linalg import Matrix, Subspace
from cohomlab.report import make_report
from cohomlab.scalars import GaussianRational
from cohomlab.complexes import BidiffPair, DoubleComplex
from cohomlab.cohomology import (
    Analysis,
    IllFormedMap,
    PairAnalysis,
    Subquotient,
    cohom,
    frolicher_report,
    induced_rank,
    lemma_verdict,
    varouchas,
    varouchas_identity_check,
)
from cohomlab.randomgen import (
    predicted_tables,
    random_bicomplex,
    shape_complex,
)

from subspace_reference import reference


def analysis_of(shape):
    return Analysis(shape_complex(shape))


# -- hand-checked tables ------------------------------------------------------


def test_dot_tables():
    a = analysis_of(("dot", 2, 3))
    for name in ("D1", "D2", "BC", "A"):
        assert a.flavor_table(name) == {(2, 3): 1}
    assert a.flavor_table("TOT_PLUS") == {5: 1}
    assert a.flavor_table("TOT_MINUS") == {5: 1}
    assert all(t == {} for t in a.varouchas_tables().values())
    v = a.lemma_verdict()
    assert v["holds"] is True
    assert all(v["conditions"][i] is True for i in range(1, 9))


def test_square_tables_all_vanish():
    a = analysis_of(("square", 0, 0))
    for name in ("D1", "D2", "BC", "A", "TOT_PLUS", "TOT_MINUS"):
        assert a.flavor_table(name) == {}
    assert all(t == {} for t in a.varouchas_tables().values())
    assert a.lemma_verdict()["holds"] is True


def test_hseg_tables():
    a = analysis_of(("hseg", 1, 1))
    assert a.flavor_table("D1") == {}
    assert a.flavor_table("D2") == {(1, 1): 1, (2, 1): 1}
    assert a.flavor_table("BC") == {(2, 1): 1}
    assert a.flavor_table("A") == {(1, 1): 1}
    assert a.flavor_table("TOT_PLUS") == {}
    v = a.varouchas_tables()
    assert v["V1"] == {} and v["V2"] == {}
    assert v["V3"] == {(2, 1): 1}
    assert v["V4"] == {(1, 1): 1}
    assert v["V5"] == {} and v["V6"] == {}
    verdict = a.lemma_verdict()
    assert verdict["holds"] is False
    assert all(verdict["conditions"][i] is False for i in range(1, 9))


def test_vseg_tables_mirror_hseg():
    a = analysis_of(("vseg", 1, 1))
    assert a.flavor_table("D2") == {}
    assert a.flavor_table("D1") == {(1, 1): 1, (1, 2): 1}
    assert a.flavor_table("BC") == {(1, 2): 1}
    assert a.flavor_table("A") == {(1, 1): 1}
    v = a.varouchas_tables()
    assert v["V2"] == {(1, 2): 1}
    assert v["V5"] == {(1, 1): 1}
    assert v["V1"] == {} and v["V3"] == {} and v["V4"] == {} and v["V6"] == {}


def test_zigzag3_lower_tables():
    a = analysis_of(("zigzag", 0, 0, 3, "lower"))
    assert a.flavor_table("BC") == {(1, 0): 1}
    assert a.flavor_table("A") == {(0, 0): 1, (1, -1): 1}
    assert a.flavor_table("D1") == {(1, -1): 1}
    assert a.flavor_table("D2") == {(0, 0): 1}
    assert a.flavor_table("TOT_PLUS") == {0: 1}
    assert a.flavor_table("TOT_MINUS") == {0: 1}
    v = a.varouchas_tables()
    assert v["V1"] == {(1, 0): 1}
    assert v["V2"] == {(1, 0): 1}
    assert v["V3"] == {(1, 0): 1}
    assert v["V4"] == {(0, 0): 1}
    assert v["V5"] == {(1, -1): 1}
    assert v["V6"] == {}
    assert a.lemma_verdict()["holds"] is False


def test_zigzag3_upper_tables():
    a = analysis_of(("zigzag", 0, 0, 3, "upper"))
    assert a.flavor_table("BC") == {(0, 0): 1, (-1, 1): 1}
    assert a.flavor_table("A") == {(-1, 0): 1}
    assert a.flavor_table("D1") == {(-1, 1): 1}
    assert a.flavor_table("D2") == {(0, 0): 1}
    assert a.flavor_table("TOT_PLUS") == {0: 1}
    v = a.varouchas_tables()
    assert v["V6"] == {(-1, 0): 1}
    assert v["V1"] == {}
    assert a.lemma_verdict()["holds"] is False


def test_transpose_swaps_tables():
    dc = shape_complex(("zigzag", 0, 0, 4, "lower"))
    a = Analysis(dc)
    b = Analysis(dc.transpose())

    def flip(table):
        return {(q, p): v for (p, q), v in table.items()}

    assert b.flavor_table("D1") == flip(a.flavor_table("D2"))
    assert b.flavor_table("D2") == flip(a.flavor_table("D1"))
    assert b.flavor_table("BC") == flip(a.flavor_table("BC"))
    assert b.flavor_table("A") == flip(a.flavor_table("A"))
    va, vb = a.varouchas_tables(), b.varouchas_tables()
    assert vb["V2"] == flip(va["V3"]) and vb["V3"] == flip(va["V2"])
    assert vb["V4"] == flip(va["V5"]) and vb["V5"] == flip(va["V4"])
    assert vb["V1"] == flip(va["V1"]) and vb["V6"] == flip(va["V6"])


# -- identities and implications ---------------------------------------------


SHAPE_SETS = [
    [("dot", 0, 0)],
    [("hseg", 0, 0)],
    [("vseg", 0, 0)],
    [("square", 0, 0)],
    [("zigzag", 0, 0, 3, "lower")],
    [("zigzag", 0, 0, 3, "upper")],
    [("zigzag", 0, 0, 5, "lower")],
    [("zigzag", 0, 0, 4, "upper")],
    [("dot", 0, 0), ("hseg", 0, 0), ("zigzag", 1, 1, 3, "upper")],
]


@pytest.mark.parametrize("shapes", SHAPE_SETS, ids=[str(s) for s in SHAPE_SETS])
def test_identities_on_shapes(shapes):
    from cohomlab.randomgen import assemble

    a = Analysis(assemble(shapes, conj_seed=3))
    assert a.summed_identity_holds()
    assert a.exactness_identities_hold()


def test_varouchas_identity_check_wrapper():
    assert varouchas_identity_check(shape_complex(("hseg", 0, 0)))


def test_v1_v6_vanishing_implications():
    # upper length-3 zigzag: V1 vanishes everywhere, so BC -> TOT_PLUS is
    # surjective in every total degree even though the lemma fails
    a = analysis_of(("zigzag", 0, 0, 3, "upper"))
    assert a.varouchas_tables()["V1"] == {}
    rows = a.induced_tables()["total"]
    assert rows and all(r["BC->TOT_PLUS"]["surjective"] for r in rows.values())
    assert rows == reference(a.dc)["induced"]["total"]
    # lower length-3 zigzag: V6 vanishes everywhere, so TOT_PLUS -> A is
    # injective in every total degree
    b = analysis_of(("zigzag", 0, 0, 3, "lower"))
    assert b.varouchas_tables()["V6"] == {}
    rows = b.induced_tables()["total"]
    assert rows and all(r["TOT_PLUS->A"]["injective"] for r in rows.values())
    assert rows == reference(b.dc)["induced"]["total"]


# -- random complexes vs ground truth ----------------------------------------


@pytest.mark.parametrize("seed", range(12))
def test_random_complex_matches_ground_truth(seed):
    params = {
        "counts": {"dot": 2, "hseg": 1, "vseg": 1, "square": 1, "zigzag": 2},
        "max_span": 2,
        "max_zigzag": 5,
    }
    rb = random_bicomplex(seed, params)
    pred = predicted_tables(rb.shapes)
    a = Analysis(rb.dc)
    for name in ("D1", "D2", "BC", "A"):
        assert a.flavor_table(name) == pred[name], name
    assert a.flavor_table("TOT_PLUS") == pred["TOT"]
    assert a.flavor_table("TOT_MINUS") == pred["TOT"]
    verdict = a.lemma_verdict()  # internally asserts all 8 agree
    assert verdict["holds"] == pred["lemma"]
    assert a.summed_identity_holds()
    assert a.exactness_identities_hold()


def test_report_on_random_complex_is_consistent():
    rb = random_bicomplex(77, {"counts": {"dot": 1, "zigzag": 2, "square": 1}})
    rep = frolicher_report(rb.dc)  # internal asserts: inequalities, verdicts
    for table in rep.slack.values():
        assert all(v >= 0 for v in table.values())


# -- reports -------------------------------------------------------------------


def test_report_dot_all_equalities():
    rep = frolicher_report(shape_complex(("dot", 0, 0)))
    assert rep.verdicts["lemma_holds"] is True
    assert rep.verdicts["thm_refined_equality"] is True
    assert rep.verdicts["cor_equality_plus"] is True
    assert rep.verdicts["cor_equality_minus"] is True
    assert set(rep.slack["classical"].values()) == {0}


def test_report_hseg_refined_equality_but_no_lemma():
    rep = frolicher_report(shape_complex(("hseg", 0, 0)))
    assert rep.verdicts["lemma_holds"] is False
    assert rep.verdicts["thm_refined_equality"] is True
    assert rep.verdicts["cor_equality_plus"] is False
    # degree n0: A contributes 1, 2*TOT = 0
    assert rep.slack["doubled_plus"][0] == 1
    assert rep.slack["doubled_plus"][1] == 1


def test_report_zigzag3_slacks():
    rep = frolicher_report(shape_complex(("zigzag", 0, 0, 3, "lower")))
    assert rep.slack["classical"] == {0: 0, 1: 0}
    assert rep.slack["refined"] == {0: 0, 1: 1}
    assert rep.slack["doubled_plus"] == {0: 0, 1: 1}
    assert rep.verdicts["thm_refined_equality"] is False
    assert rep.verdicts["lemma_holds"] is False


def test_report_on_large_dot_finishes_fast():
    """Zero blocks must not turn a 1500-dim dot into dense eliminations;
    the full-space shortcuts in kernel/intersect/contains keep it cheap."""
    n = 1500
    t0 = time.monotonic()
    rep = frolicher_report(DoubleComplex({(0, 0): n}, {}, {}))
    elapsed = time.monotonic() - t0
    assert rep.tables["BC"] == {(0, 0): n}
    assert rep.verdicts["lemma_holds"] is True
    assert elapsed < 20, "runtime %.1fs, budget 20s" % elapsed


def test_report_tables_keep_zeros():
    rep = frolicher_report(shape_complex(("hseg", 0, 0)))
    assert rep.tables["D1"] == {(0, 0): 0, (1, 0): 0}
    assert rep.varouchas["V3"] == {(0, 0): 0, (1, 0): 1}


# -- induced maps as such ------------------------------------------------------


def full_mod_zero(n):
    return Subquotient("full", Subspace.full(n), Subspace.zero(n))


def test_induced_rank_identity_quotient():
    m = induced_rank(full_mod_zero(2), full_mod_zero(2))
    assert (m.rank, m.injective, m.surjective, m.bijective) == (2, True, True, True)


def test_induced_rank_collapse():
    src = full_mod_zero(1)
    dst = Subquotient("collapsed", Subspace.full(1), Subspace.full(1))
    m = induced_rank(src, dst)
    assert m.rank == 0 and not m.injective and m.surjective


def test_induced_rank_rejects_bad_inclusions():
    z = Subquotient("z", Subspace.zero(1), Subspace.zero(1))
    with pytest.raises(IllFormedMap):
        induced_rank(full_mod_zero(1), z)
    with pytest.raises(IllFormedMap):
        induced_rank(full_mod_zero(1), full_mod_zero(2))


def reference_induced(src, dst):
    """(rank, injective, surjective) by the Zassenhaus formulas:
    the kernel is (Z n B')/B, the image (Z + B')/B'."""
    inter = src.Z.intersect(dst.B)
    return (src.Z.dim - inter.dim, inter == src.B, src.Z.sum(dst.B) == dst.Z)


ENTRIES = st.one_of(
    st.integers(-2, 2),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
    st.builds(GaussianRational, st.integers(-2, 2),
              st.fractions(min_value=-2, max_value=2, max_denominator=3)),
)


def drawn_rows(draw, n, most=2):
    return [[draw(ENTRIES) for _ in range(n)]
            for _ in range(draw(st.integers(0, most)))]


@st.composite
def induced_pairs(draw):
    """(src, dst) with src.B <= src.Z <= dst.Z and src.B <= dst.B <= dst.Z."""
    n = draw(st.integers(1, 4))
    b = drawn_rows(draw, n)
    z = b + drawn_rows(draw, n)
    b2 = b + drawn_rows(draw, n)
    z2 = z + b2 + drawn_rows(draw, n)
    return (Subquotient("src", Subspace(z, n), Subspace(b, n)),
            Subquotient("dst", Subspace(z2, n), Subspace(b2, n)))


def as_tuple(r):
    return (r.rank, r.injective, r.surjective)


@given(induced_pairs())
@settings(max_examples=300)
def test_induced_rank_matches_intersection_formulas(pair):
    src, dst = pair
    assert as_tuple(induced_rank(src, dst)) == reference_induced(src, dst)


def test_report_computes_each_map_and_cell_once(monkeypatch):
    """make_report on iwasawa-symplectic: each block rank, each rk D_n,
    each cell and each total-degree row is computed once (the lemma
    verdict reads the induced table, the symplectic sections the
    report's analysis), and the total rows match the subspace reference."""
    calls = {"block": [], "tot": [], "cell": [], "row": []}
    for name, attr in (("block", "_block_rank"), ("tot", "_tot_block"),
                       ("cell", "_make_cell"), ("row", "_total_row")):
        def counted(self, *args, _orig=getattr(PairAnalysis, attr), _log=calls[name]):
            _log.append(args)
            return _orig(self, *args)

        monkeypatch.setattr(PairAnalysis, attr, counted)
    pair, ops = builtin("iwasawa-symplectic")
    doc = make_report(BuildResult("lie_symplectic", pair, ops=ops), {"sha256": ""})
    induced = doc["cohomology"]["induced"]
    maps = sum(len(row) for part in induced.values() for row in part.values())
    assert maps == 7 * 5 + 2 * 4
    for name, log in calls.items():
        assert len(log) == len(set(log)), name
    assert sorted(key for key, in calls["cell"]) == pair.support()
    assert sorted(n for n, in calls["row"]) == [0, 1]
    assert {block for block, _key in calls["block"]} == {"r1", "r2", "r12", "rO", "rI"}
    want = reference(pair)["induced"]["total"]
    assert PairAnalysis(pair).induced_tables()["total"] == want
    assert induced["total"] == {str(n): row for n, row in want.items()}


def test_edits_to_returned_tables_do_not_reach_the_analysis():
    """The induced and total tables are memoised, but callers get copies:
    editing a report's tables leaves the lemma verdict and later reads
    unchanged."""
    pair, _ops = builtin("iwasawa-symplectic")
    a = PairAnalysis(pair, validated=True)
    rep = frolicher_report(a)
    fresh = a.induced_tables()
    assert rep.induced == fresh and rep.induced is not fresh
    for part in rep.induced.values():
        for row in part.values():
            for res in row.values():
                res["injective"] = res["surjective"] = True
    a.total_table(1)[0] = -1
    assert a.induced_tables() == fresh
    assert a.total_table(1) == rep.tables["TOT_PLUS"]
    assert a.lemma_verdict() == {"holds": False,
                                 "conditions": dict.fromkeys(range(1, 9), False)}


# -- bidifferential pairs ------------------------------------------------------


def toy_pair():
    return BidiffPair({0: 1, 1: 2, 2: 1}, 1, -1, {0: Matrix([[1], [0]])}, {})


def test_pair_flavor_tables():
    a = PairAnalysis(toy_pair())
    assert a.flavor_table("D1") == {1: 1, 2: 1}
    assert a.flavor_table("D2") == {0: 1, 1: 2, 2: 1}
    assert a.flavor_table("BC") == {1: 2, 2: 1}
    assert a.flavor_table("A") == {0: 1, 1: 1, 2: 1}
    assert a.summed_identity_holds()
    assert a.exactness_identities_hold()


def test_pair_total_table_is_periodic():
    a = PairAnalysis(toy_pair())
    assert a.total_table(1) == {0: 1, 1: 1}
    assert a.total_table(-1) == {0: 1, 1: 1}


def test_pair_lemma_conditions_all_agree():
    v = PairAnalysis(toy_pair()).lemma_verdict()
    assert v["holds"] is False
    assert all(v["conditions"][i] is False for i in range(1, 9))


def test_pair_equal_degrees_total_conditions_not_applicable():
    bp = BidiffPair(
        {0: 2, 1: 2},
        1,
        1,
        {0: Matrix([[1, 0], [0, 0]])},
        {0: Matrix([[0, 0], [0, 1]])},
    )
    a = PairAnalysis(bp)
    assert a.flavor_table("D1") == {0: 1, 1: 1}
    assert a.flavor_table("BC") == {1: 2}
    assert a.flavor_table("A") == {0: 2}
    # d1 + d2 is invertible in the only nonzero square, both signs
    assert a.total_table(1) == {0: 0, 1: 0}
    assert a.total_table(-1) == {0: 0, 1: 0}
    v = a.lemma_verdict()
    assert v["holds"] is False
    assert all(v["conditions"][i] is False for i in (1, 2, 3, 4))
    assert all(v["conditions"][i] is None for i in (5, 6, 7, 8))


def test_pair_of_dots_lemma_holds():
    bp = BidiffPair({0: 1, 5: 2}, 2, -1, {}, {})
    v = PairAnalysis(bp).lemma_verdict()
    assert v["holds"] is True
    assert all(v["conditions"][i] is True for i in range(1, 9))


# -- module-level wrappers ------------------------------------------------------


def test_wrappers_accept_both_kinds():
    dc = shape_complex(("dot", 0, 0))
    assert cohom(dc, "BC") == {(0, 0): 1}
    assert varouchas(dc)["V1"] == {}
    assert lemma_verdict(dc)["holds"] is True
    bp = toy_pair()
    assert cohom(bp, "A") == {0: 1, 1: 1, 2: 1}
    assert lemma_verdict(bp)["holds"] is False


def test_wrappers_reject_garbage():
    with pytest.raises(TypeError):
        cohom(42, "BC")


def test_cohom_rejects_unknown_flavor():
    with pytest.raises(ValueError):
        cohom(shape_complex(("dot", 0, 0)), "XX")
