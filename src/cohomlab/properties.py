"""Registered property checks for random bicomplexes.

Shared by the fuzz command and the bulk test suites.  Every check is an
exact statement about one complex; check_bicomplex runs them all and
raises PropertyFailure naming the first one that breaks, so a fuzzing
loop can report and minimize around it.  The inequalities, the lemma
formulations and the equality characterization are checked, under the
same property names, by cohomology.frolicher_report, which analyze runs
too; the checks here read its tables and verdicts.
"""

from __future__ import annotations

from .cohomology import (
    BIGRADED_FLAVORS, Analysis, PropertyFailure, _strip_zeros, frolicher_report)
from .randomgen import predicted_tables
from .spectral import pages

__all__ = ["PropertyFailure", "PROPERTY_NAMES", "check_bicomplex"]


def _fail(prop, detail):
    raise PropertyFailure(prop, detail)


def _check_identities(a):
    if not a.summed_identity_holds():
        _fail("identities", "summed Varouchas identity broken")
    if not a.exactness_identities_hold():
        _fail("identities", "per-cell exactness identities broken")


def _check_vanishing_implications(rep):
    v = rep.varouchas
    total = rep.induced["total"]
    if not any(v["V1"].values()):
        for n, row in total.items():
            if not row["BC->TOT_PLUS"]["surjective"]:
                _fail("v1-vanishing",
                      "V1 = 0 everywhere but BC -> total not onto in degree %d" % n)
    if not any(v["V6"].values()):
        for n, row in total.items():
            if not row["TOT_PLUS->A"]["injective"]:
                _fail("v6-vanishing",
                      "V6 = 0 everywhere but total -> A not injective in degree %d" % n)


def _check_spectral(a, tables):
    first = pages(a, "first")
    if first[0].dims != _strip_zeros(tables["D2"]):
        _fail("spectral-e1", "first-sequence E1 differs from second-flavor table")
    second_e1 = pages(a, "second", r_max=1)[0]
    if second_e1.dims != _strip_zeros(tables["D1"]):
        _fail("spectral-e1", "second-sequence E1 differs from first-flavor table")
    limit = {}
    for (p, q), v in first[-1].dims.items():
        limit[p + q] = limit.get(p + q, 0) + v
    hp = _strip_zeros(tables["TOT_PLUS"])
    if limit != hp:
        _fail("spectral-abutment", "E_infinity sums %r != total dims %r" % (limit, hp))


def _check_ground_truth(rep, shapes):
    want = predicted_tables(shapes)
    got = {name: rep.tables[name] for name in BIGRADED_FLAVORS}
    got.update(rep.varouchas)
    got["BC->A"] = {k: row["BC->A"]["rank"] for k, row in rep.induced["bigraded"].items()}
    for name, table in got.items():
        table = _strip_zeros(table)
        if table != want[name]:
            _fail("ground-truth", "%s table %r != predicted %r" % (name, table, want[name]))
    for tag in ("TOT_PLUS", "TOT_MINUS"):
        if _strip_zeros(rep.tables[tag]) != want["TOT"]:
            _fail("ground-truth", "total table != predicted")
    if rep.verdicts["lemma_holds"] != want["lemma"]:
        _fail("ground-truth", "lemma verdict != predicted")


PROPERTY_NAMES = (
    "identities",
    "total-cohomology",
    "refined-inequality",
    "doubled-inequality",
    "classical-frolicher",
    "lemma-equivalence",
    "equality-characterization",
    "v1-vanishing",
    "v6-vanishing",
    "spectral-e1",
    "spectral-abutment",
    "ground-truth",
)


def check_bicomplex(dc, shapes=None):
    """Run every property; raise PropertyFailure on the first violation.

    shapes, when given, is the construction recipe of dc and switches on
    the ground-truth comparison.  Returns the Analysis for reuse.
    """
    bad = dc.validate()
    if bad:
        _fail("validity", "; ".join(bad))
    a = Analysis(dc, validated=True)
    _check_identities(a)
    rep = frolicher_report(a)
    _check_vanishing_implications(rep)
    _check_spectral(a, rep.tables)
    if shapes is not None:
        _check_ground_truth(rep, shapes)
    return a
