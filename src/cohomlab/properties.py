"""Registered property checks for random bicomplexes.

Shared by the fuzz command and the bulk test suites.  Every check is an
exact statement about one complex; check_bicomplex runs them all and
raises PropertyFailure naming the first one that breaks, so a fuzzing
loop can report and minimize around it.
"""

from __future__ import annotations

from .cohomology import Analysis
from .randomgen import predicted_tables
from .spectral import pages

__all__ = ["PropertyFailure", "PROPERTY_NAMES", "check_bicomplex"]


class PropertyFailure(AssertionError):
    def __init__(self, prop, detail):
        super().__init__("%s: %s" % (prop, detail))
        self.prop = prop
        self.detail = detail


def _fail(prop, detail):
    raise PropertyFailure(prop, detail)


def _sparse(table):
    return {k: v for k, v in table.items() if v}


def _total_sums(a, name):
    return _sparse(a.total_degree_sums(name))


def _degree_union(*tables):
    out = set()
    for t in tables:
        out.update(t)
    return sorted(out)


def _check_identities(a):
    if not a.summed_identity_holds():
        _fail("identities", "summed Varouchas identity broken")
    if not a.exactness_identities_hold():
        _fail("identities", "per-cell exactness identities broken")


def _check_inequalities(a):
    d1 = _total_sums(a, "D1")
    d2 = _total_sums(a, "D2")
    bc = _total_sums(a, "BC")
    aa = _total_sums(a, "A")
    hp = _sparse(a.total_table(1))
    hm = _sparse(a.total_table(-1))
    if hp != hm:
        _fail("total-cohomology", "plus and minus total dims differ: %r vs %r" % (hp, hm))
    for n in _degree_union(d1, d2, bc, aa, hp):
        lhs = bc.get(n, 0) + aa.get(n, 0)
        mid = d1.get(n, 0) + d2.get(n, 0)
        h = hp.get(n, 0)
        if lhs < mid:
            _fail("refined-inequality", "degree %d: BC+A=%d < D1+D2=%d" % (n, lhs, mid))
        if lhs < 2 * h:
            _fail("doubled-inequality", "degree %d: BC+A=%d < 2h=%d" % (n, lhs, 2 * h))
        if d1.get(n, 0) < h or d2.get(n, 0) < h:
            _fail("classical-frolicher", "degree %d: D=%d/%d < h=%d"
                  % (n, d1.get(n, 0), d2.get(n, 0), h))
    return d1, d2, bc, aa, hp


def _check_lemma_biconditional(a, sums):
    d1, d2, bc, aa, hp = sums
    verdict = a.lemma_verdict()
    conds = verdict["conditions"]
    vals = [v for v in conds.values() if v is not None]
    if any(v != vals[0] for v in vals):
        _fail("lemma-equivalence", "eight conditions disagree: %r" % (conds,))
    holds = verdict["holds"]
    refined_eq = all(
        bc.get(n, 0) + aa.get(n, 0) == d1.get(n, 0) + d2.get(n, 0)
        for n in _degree_union(d1, d2, bc, aa)
    )
    doubled_eq = all(
        bc.get(n, 0) + aa.get(n, 0) == 2 * hp.get(n, 0)
        for n in _degree_union(bc, aa, hp)
    )
    # the characterization runs through the doubled inequality; the
    # refined one can be an equality without the lemma (a complex can
    # have vanishing middle Varouchas slack while E_1 still moves)
    if doubled_eq != holds:
        _fail("equality-characterization",
              "doubled equality %r but lemma %r" % (doubled_eq, holds))
    if holds and not refined_eq:
        _fail("equality-characterization",
              "lemma holds but refined inequality is strict")
    return holds


def _check_vanishing_implications(a):
    v = a.varouchas_tables()
    total = a.induced_tables()["total"]
    if not v["V1"]:
        for n, row in total.items():
            if not row["BC->TOT_PLUS"]["surjective"]:
                _fail("v1-vanishing",
                      "V1 = 0 everywhere but BC -> total not onto in degree %d" % n)
    if not v["V6"]:
        for n, row in total.items():
            if not row["TOT_PLUS->A"]["injective"]:
                _fail("v6-vanishing",
                      "V6 = 0 everywhere but total -> A not injective in degree %d" % n)


def _check_spectral(a, hp):
    first = pages(a, "first")
    if first[0].dims != a.flavor_table("D2"):
        _fail("spectral-e1", "first-sequence E1 differs from second-flavor table")
    second_e1 = pages(a, "second", r_max=1)[0]
    if second_e1.dims != a.flavor_table("D1"):
        _fail("spectral-e1", "second-sequence E1 differs from first-flavor table")
    limit = {}
    for (p, q), v in first[-1].dims.items():
        limit[p + q] = limit.get(p + q, 0) + v
    if limit != hp:
        _fail("spectral-abutment", "E_infinity sums %r != total dims %r" % (limit, hp))


def _check_ground_truth(a, shapes, holds):
    want = predicted_tables(shapes)
    got = {name: a.flavor_table(name) for name in ("D1", "D2", "BC", "A")}
    got.update(a.varouchas_tables())
    got["BC->A"] = {k: row["BC->A"]["rank"]
                    for k, row in a.induced_tables()["bigraded"].items()
                    if row["BC->A"]["rank"]}
    for name, table in got.items():
        if table != want[name]:
            _fail("ground-truth", "%s table %r != predicted %r" % (name, table, want[name]))
    for sign in (1, -1):
        if _sparse(a.total_table(sign)) != want["TOT"]:
            _fail("ground-truth", "total table != predicted")
    if holds != want["lemma"]:
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
    sums = _check_inequalities(a)
    holds = _check_lemma_biconditional(a, sums)
    _check_vanishing_implications(a)
    _check_spectral(a, sums[4])
    if shapes is not None:
        _check_ground_truth(a, shapes, holds)
    return a
