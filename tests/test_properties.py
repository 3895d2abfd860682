"""Tests for the registered property checks used by fuzzing."""

import pytest

from cohomlab import cli, cohomology
from cohomlab.complexes import BidiffPair, DoubleComplex
from cohomlab.cohomology import (
    Analysis,
    PairAnalysis,
    _strip_zeros,
    frolicher_report,
    lemma_verdict,
)
from cohomlab.linalg import Matrix
from cohomlab.properties import (
    PROPERTY_NAMES,
    PropertyFailure,
    check_bicomplex,
)
from cohomlab.randomgen import assemble, random_bicomplex
from cohomlab.scalars import parse_scalar

BATCH_PARAMS = {"counts": {"dot": 2, "square": 1, "hseg": 1, "vseg": 1, "zigzag": 1}}


def test_property_names_are_distinct():
    assert len(PROPERTY_NAMES) == len(set(PROPERTY_NAMES)) == 12


def test_sparse_strips_only_zeros():
    assert _strip_zeros({}) == {}
    assert _strip_zeros({(0, 0): 0, (1, 0): 2, 3: 0, -1: 1}) == {(1, 0): 2, -1: 1}


def test_deterministic_batch_is_clean():
    for seed in range(120):
        rb = random_bicomplex(seed, BATCH_PARAMS)
        check_bicomplex(rb.dc, shapes=rb.shapes)


def test_check_returns_the_analysis():
    rb = random_bicomplex(0, BATCH_PARAMS)
    a = check_bicomplex(rb.dc, shapes=rb.shapes)
    assert a.flavor_table("BC") is not None


def test_one_of_each_shape_with_conjugation():
    shapes = [
        ("dot", 0, 0),
        ("square", -1, 2),
        ("hseg", 3, -3),
        ("vseg", 0, 1),
        ("zigzag", -2, 0, 4, "upper"),
        ("zigzag", 1, 1, 5, "lower"),
    ]
    dc = assemble(shapes, conj_seed=99)
    check_bicomplex(dc, shapes=shapes)


def test_refined_equality_without_lemma_is_accepted():
    """A single horizontal segment has zero refined slack in every total
    degree yet fails the lemma; the equality characterization must only
    tie the lemma to the doubled slack, so this complex passes."""
    shapes = [("hseg", 0, 0)]
    dc = assemble(shapes)
    check_bicomplex(dc, shapes=shapes)
    rep = frolicher_report(dc)
    assert not rep.verdicts["lemma_holds"]
    assert rep.verdicts["thm_refined_equality"]
    assert not rep.verdicts["cor_equality_plus"]
    assert any(rep.slack["doubled_plus"].values())
    assert not any(rep.slack["refined"].values())


def test_lemma_verdict_is_computed_once_per_check(monkeypatch):
    calls = []
    orig = Analysis.lemma_verdict

    def counted(self):
        calls.append(self)
        return orig(self)

    monkeypatch.setattr(Analysis, "lemma_verdict", counted)
    rb = random_bicomplex(3, BATCH_PARAMS)
    check_bicomplex(rb.dc, shapes=rb.shapes)
    assert len(calls) == 1


def test_wrong_ground_truth_is_caught():
    dc = assemble([("hseg", 0, 0)])
    with pytest.raises(PropertyFailure) as ei:
        check_bicomplex(dc, shapes=[("dot", 0, 0), ("dot", 1, 0)])
    assert ei.value.prop == "ground-truth"


def test_invalid_complex_is_caught_before_any_property():
    # d1 squared is not zero here
    one = Matrix([[parse_scalar("1")]])
    dc = DoubleComplex(
        {(0, 0): 1, (1, 0): 1, (2, 0): 1},
        {(0, 0): one, (1, 0): one},
        {},
    )
    with pytest.raises(PropertyFailure) as ei:
        check_bicomplex(dc)
    assert ei.value.prop == "validity"
    assert isinstance(ei.value, AssertionError)


def test_failure_message_carries_property_name():
    try:
        check_bicomplex(assemble([("vseg", 0, 0)]), shapes=[("dot", 0, 0)])
    except PropertyFailure as e:
        assert e.prop in ("ground-truth",)
        assert str(e).startswith("ground-truth:")
    else:
        pytest.fail("expected a ground-truth failure")


def _plant_sums(monkeypatch, cls, flavor, delta):
    """cls.total_degree_sums(flavor) off by delta in every degree."""
    real = cls.total_degree_sums
    monkeypatch.setattr(cls, "total_degree_sums", lambda self, name: {
        n: v + delta * (name == flavor) for n, v in real(self, name).items()})


def test_disagreeing_lemma_conditions_reach_fuzz_by_name(monkeypatch):
    real = cohomology._cell_values

    def planted(vec):
        # ker BC -> A read as 0 in every cell, which no identity reads:
        # condition 1 holds while condition 2 fails where BC and A differ
        values = real(vec)
        return values[:cohomology._KER_BC_A] + (0,) + values[cohomology._KER_BC_A + 1:]

    monkeypatch.setattr(cohomology, "_cell_values", planted)
    rb = random_bicomplex(0, BATCH_PARAMS)
    with pytest.raises(PropertyFailure) as ei:
        check_bicomplex(rb.dc, shapes=rb.shapes)
    assert ei.value.prop == "lemma-equivalence"
    seed, _rb, exc = cli._fuzz_one(0, BATCH_PARAMS["counts"])
    assert (seed, exc.prop) == (0, "lemma-equivalence")


def test_negative_refined_slack_is_named_on_both_paths(monkeypatch):
    _plant_sums(monkeypatch, Analysis, "D1", 1)
    dc = assemble([("dot", 0, 0)])
    for check in (check_bicomplex, frolicher_report):
        with pytest.raises(PropertyFailure) as ei:
            check(dc)
        assert ei.value.prop == "refined-inequality"
        assert isinstance(ei.value, AssertionError)


def test_lemma_with_strict_refined_inequality_is_named(monkeypatch):
    # deg1 = deg2 leaves no total grading, so no doubled check runs first
    bp = BidiffPair({0: 1}, 1, 1, {}, {})
    assert lemma_verdict(bp)["holds"]
    _plant_sums(monkeypatch, PairAnalysis, "BC", 1)
    with pytest.raises(PropertyFailure) as ei:
        frolicher_report(bp)
    assert ei.value.prop == "equality-characterization"
    assert "refined inequality is strict" in ei.value.detail
