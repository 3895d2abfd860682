"""Acceptance criteria, one test per criterion, one verdict line each.

Each test prints a single "criterion N: PASS/FAIL" line and then asserts
the pinned values exactly (every quantity here is exact integer data, so
every tolerance is zero).  Expected values fall into three classes:

  * pinned literals for the stock inputs (criteria 1-4),
  * bulk invariants every generated complex must satisfy (criteria 5-6),
  * hand-derived golden files (criterion 7).

A FAIL line states the engine value next to the pinned one; the engine
values are recomputed from scratch on every run, never copied from the
expectation.

The pins of criteria 1-3 carry their derivations in comments, and each of
these criteria first checks its own literals against the dualities they
must obey (symplectic star and Lefschetz symmetry, slack arithmetic, Euler
characteristic and table mass), so a slip in a pin fails as a bad pin
rather than as an engine fault.
"""

import json
import pathlib
import random
import time
from io import StringIO

from cohomlab import cli
from cohomlab import io as cio
from cohomlab.cohomology import Analysis, PairAnalysis, lemma_verdict
from cohomlab.geometry import builtin, hard_lefschetz, random_symplectic, symplectic_pair
from cohomlab.linalg import Matrix
from cohomlab.properties import PropertyFailure, check_bicomplex
from cohomlab.randomgen import _draw_dim, random_bicomplex
from cohomlab.spectral import doub_degeneration_check, pages

from test_geometry import IWASAWA_D2

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def run_cli(*argv):
    out, err = StringIO(), StringIO()
    code = cli.main(list(argv), out=out, err=err)
    assert code == 0, err.getvalue()
    return out.getvalue()


def verdict(num, failures, note=""):
    if failures:
        print("criterion %d: FAIL (%s)" % (num, "; ".join(failures)))
    else:
        print("criterion %d: PASS%s" % (num, " (%s)" % note if note else ""))
    assert not failures, "; ".join(failures)


def row(table, degrees):
    return tuple(table.get(str(k), 0) for k in degrees)


# Real Betti numbers of the Iwasawa Lie algebra, which underlies both
# stock inputs.
IWASAWA_BETTI = (1, 4, 8, 10, 8, 4, 1)

# Rows of iwasawa-symplectic, omega = e16 + e25 + e34, degrees 0..6.
SYMPLECTIC_ROWS = {
    "D1": (1, 4, 8, 10, 8, 4, 1),
    "D2": (1, 4, 8, 10, 8, 4, 1),
    # BC^2 = 10.  On 2-forms d_lam = d Lam - Lam d is -Lam d, since d kills
    # 0-forms, so every d-closed 2-form is d_lam-closed.  Lam maps d(2-forms)
    # into span(e1, e2) (the e3 terms that Lam makes from e136 and e235 in
    # d(e56) cancel), and e1, e2 are closed, so d d_lam vanishes on 2-forms.
    # Hence BC^2 = dim ker d on 2-forms = b2 + rank d on 1-forms = 8 + 2.
    # Hard Lefschetz for BC (Tseng-Yau) gives BC^2 = BC^4 = 10 as well.
    "BC": (1, 4, 10, 11, 10, 4, 1),
    # A^4 = BC^2 = 10 by the symplectic star, which pairs A^k with BC^(6-k).
    "A": (1, 4, 10, 11, 10, 4, 1),
}


def test_criterion_1_symplectic_dimension_tables():
    """Nilmanifold symplectic pair: pinned dimension rows, degrees 0..6."""
    bc, av = SYMPLECTIC_ROWS["BC"], SYMPLECTIC_ROWS["A"]
    for k in range(7):
        assert bc[k] == av[6 - k], (
            "bad pin: BC^%d = %d against A^%d = %d breaks the symplectic star"
            % (k, bc[k], 6 - k, av[6 - k]))
        assert bc[k] == bc[6 - k], (
            "bad pin: BC^%d = %d against BC^%d = %d breaks Lefschetz symmetry"
            % (k, bc[k], 6 - k, bc[6 - k]))
        assert av[k] == av[6 - k], (
            "bad pin: A^%d = %d against A^%d = %d breaks Lefschetz symmetry"
            % (k, av[k], 6 - k, av[6 - k]))

    t0 = time.monotonic()
    rep = json.loads(run_cli("analyze", "--builtin", "iwasawa-symplectic"))
    elapsed = time.monotonic() - t0
    tables = rep["cohomology"]["tables"]
    failures = []
    for name, want in SYMPLECTIC_ROWS.items():
        got = row(tables[name], range(7))
        if got != want:
            failures.append("%s computed %s, pinned %s" % (name, got, want))
    if elapsed >= 60:
        failures.append("runtime %.1fs, budget 60s" % elapsed)
    verdict(1, failures, note="%.1fs" % elapsed)


def test_criterion_2_symplectic_slack_and_lefschetz():
    """Per-degree slack BC + A - 2 b_k pinned at degrees 1..3; no hard
    Lefschetz."""
    # slack_k = BC^k + A^k - 2 b_k with the rows of criterion 1: degree 1 is
    # 4 + 4 - 8 = 0, degree 2 is 10 + 10 - 16 = 4, degree 3 is 11 + 11 - 20 = 2.
    pinned = {1: 0, 2: 4, 3: 2}
    for k, want in pinned.items():
        from_rows = (SYMPLECTIC_ROWS["BC"][k] + SYMPLECTIC_ROWS["A"][k]
                     - 2 * IWASAWA_BETTI[k])
        assert want == from_rows, (
            "bad pin: slack at degree %d pinned %d, but the pinned BC, A and "
            "Betti rows give %d" % (k, want, from_rows))

    rep = json.loads(run_cli("analyze", "--builtin", "iwasawa-symplectic"))
    tables = rep["cohomology"]["tables"]
    betti = rep["symplectic"]["betti"]
    failures = []
    for k, want in pinned.items():
        got = (tables["BC"].get(str(k), 0) + tables["A"].get(str(k), 0)
               - 2 * betti.get(str(k), 0))
        if got != want:
            failures.append("slack at degree %d computed %d, pinned %d"
                            % (k, got, want))
    if rep["symplectic"]["hard_lefschetz"]["holds"] is not False:
        failures.append("hard Lefschetz reported as holding")
    verdict(2, failures)


def test_criterion_3_complex_structure_transverse_tables():
    """Nilmanifold complex-structure bicomplex in the transverse view:
    pinned row for all four flavors over k = -3..3, Betti row below."""
    # k = p - q has the parity of p + q, and the D1 and D2 tables are the
    # first pages of spectral sequences that abut to total cohomology, so
    # the alternating sum of the row equals that of the Betti row, 0.  With
    # x at k = 0 that sum is 14 - x, so x = 14.  The row then sums to 48,
    # the mass of the Dolbeault and Bott-Chern tables of Iwasawa (Angella,
    # J. Geom. Anal. 2013).  A^(p,q) = BC^(3-q,3-p) reverses the BC row, so
    # the same row holds for all four flavors.
    pinned = (1, 5, 11, 14, 11, 5, 1)
    pinned_chi = sum((-1) ** k * v for k, v in zip(range(-3, 4), pinned))
    betti_chi = sum((-1) ** k * v for k, v in enumerate(IWASAWA_BETTI))
    assert pinned_chi == betti_chi, (
        "bad pin: the row's alternating sum is %d, the Betti row's %d"
        % (pinned_chi, betti_chi))
    assert sum(pinned) == sum(IWASAWA_D2.values()), (
        "bad pin: the row sums to %d, the Dolbeault table to %d"
        % (sum(pinned), sum(IWASAWA_D2.values())))

    t0 = time.monotonic()
    rep = json.loads(run_cli("analyze", "--builtin", "iwasawa-complex",
                             "--view", "type-n"))
    elapsed = time.monotonic() - t0
    failures = []
    for name in ("D1", "D2", "BC", "A"):
        got = row(rep["type_n"][name], range(-3, 4))
        if got != pinned:
            failures.append("%s computed %s, pinned %s" % (name, got, pinned))
    betti = row(rep["totals"]["TOT_PLUS"], range(7))
    if betti != IWASAWA_BETTI:
        failures.append("betti row computed %s" % (betti,))
    if elapsed >= 120:
        failures.append("runtime %.1fs, budget 120s" % elapsed)
    verdict(3, failures, note="%.1fs" % elapsed)


def test_criterion_4_characterization_consistency():
    """Transverse equality, first-page degeneration, and the lemma verdict
    computed independently and checked against each other."""
    dc = builtin("iwasawa-complex")
    failures = []

    rep = json.loads(run_cli("analyze", "--builtin", "iwasawa-complex",
                             "--view", "type-n"))
    rows = {name: row(rep["type_n"][name], range(-3, 4))
            for name in ("D1", "D2", "BC", "A")}
    equality = len(set(rows.values())) == 1
    if not equality:
        failures.append("transverse tables differ: %r" % rows)

    e1 = pages(dc, "first", r_max=1)[0].dims
    s1 = sum(v for (p, q), v in e1.items() if p + q == 1)
    an = Analysis(dc, validated=True)
    b1 = an.total_table(1).get(1, 0)
    degenerates = all(
        sum(v for (p, q), v in e1.items() if p + q == n) == hn
        for n, hn in an.total_table(1).items()
    )
    if not (s1 == 5 and b1 == 4):
        failures.append("page-one mass at degree 1 is %d against betti %d, "
                        "pinned 5 > 4" % (s1, b1))
    if degenerates:
        failures.append("first page unexpectedly degenerate")

    lemma = lemma_verdict(dc)["holds"]
    if lemma is not False:
        failures.append("lemma verdict %r, pinned False" % lemma)

    if lemma != (equality and degenerates):
        failures.append(
            "verdicts inconsistent: lemma %r, equality %r, degeneration %r"
            % (lemma, equality, degenerates))
    verdict(4, failures)


# each kind's largest default draw; the order of the kinds fixes the draws
SHAPE_COST = {k: _draw_dim(k) for k in ("dot", "hseg", "vseg", "square", "zigzag")}


def sized_counts(rng):
    """Shape counts whose conservative cost fills a tiered budget <= 40."""
    u = rng.random()
    budget = 14 if u < 0.80 else (24 if u < 0.95 else 40)
    counts, spent = {}, 0
    while True:
        fits = [k for k in SHAPE_COST if spent + SHAPE_COST[k] <= budget]
        if not fits:
            return counts
        kind = rng.choice(fits)
        counts[kind] = counts.get(kind, 0) + 1
        spent += SHAPE_COST[kind]


def test_criterion_5_property_suite_ten_thousand():
    """10,000 seeded random bicomplexes, total dimension <= 40 each, and
    every registered property holds: the per-cell identities, the three
    inequalities per total degree (refined, doubled both signs,
    classical), agreement of all eight lemma formulations, the doubled
    equality matching the lemma verdict, page-one dims equal to the
    one-sided tables with page totals abutting to the total cohomology,
    and the shape-multiset ground truth of every dimension table."""
    t0 = time.monotonic()
    failures = []
    worst = 0
    for seed in range(10_000):
        counts = sized_counts(random.Random(1_000_000_007 + seed))
        rb = random_bicomplex(seed, {"counts": counts})
        dim = rb.dc.total_dim()
        worst = max(worst, dim)
        if dim > 40:
            failures.append("seed %d: total dim %d exceeds 40" % (seed, dim))
            break
        try:
            check_bicomplex(rb.dc, shapes=rb.shapes)
        except PropertyFailure as e:
            failures.append("seed %d: %s" % (seed, e))
            break
    elapsed = time.monotonic() - t0
    if elapsed >= 600:
        failures.append("runtime %.0fs, budget 600s" % elapsed)
    verdict(5, failures, note="%.0fs, max total dim %d" % (elapsed, worst))


def _operator_identities(ops):
    """The defining relations, rechecked from the stored matrices."""
    n, m = ops.n, ops.m
    ident = Matrix.identity

    def blk(table, k, shift):
        src = table.get(k)
        if src is not None:
            return src
        from cohomlab.geometry import _dim
        return Matrix.zero(_dim(n, k + shift), _dim(n, k))

    for k in range(n + 1):
        from cohomlab.geometry import _dim
        co = _dim(n, k)
        assert ops.star[n - k].mul(ops.star[k]) == ident(co), "star^2"
        assert blk(ops.d, k + 1, 1).mul(ops.d[k]).is_zero(), "d^2"
        assert blk(ops.d_lam, k - 1, -1).mul(ops.d_lam[k]).is_zero(), "d_lam^2"
        anti = blk(ops.d, k - 1, 1).mul(ops.d_lam[k]).add(
            blk(ops.d_lam, k + 1, -1).mul(ops.d[k]))
        assert anti.is_zero(), "[d, d_lam]"
        comm = blk(ops.Lam, k + 2, -2).mul(ops.L[k]).add(
            blk(ops.L, k - 2, 2).mul(ops.Lam[k]).scale(-1))
        assert comm == ident(co).scale(m - k), "sl(2) commutator"
        if k >= 1:
            sgn = -1 if k % 2 == 0 else 1
            via = ops.star[n - k + 1].mul(ops.d[n - k]).mul(ops.star[k]).scale(sgn)
            assert ops.d_lam[k] == via, "d_lam = (-1)^(k+1) star d star"


def test_criterion_6_fifty_random_symplectic_algebras():
    """50 random even-dimensional nilpotent algebras (dim 2, 4, 6) with
    random closed nondegenerate two-forms: operator identities, the two
    dimension dualities, and degeneration of both induced sequences.

    Each algebra also meets an oracle that is not read from the engine's
    tables (Benson-Gordon, Topology 1988).  On a nonabelian nilpotent
    algebra of dim 2m, L^(m-1): H^1 -> H^(2m-1) is not bijective: the
    last nonzero term of the lower central series is central and lies
    in [g, g], so it holds an element z with ad z = 0, and alpha =
    iota_z omega is closed (its Lie derivative along z and d omega both
    vanish) and nonzero (omega is nondegenerate).  alpha ^ omega^(m-1)
    is a multiple of iota_z vol, which pairs to zero with every closed
    1-form beta, since beta(z) = 0 on [g, g]; the algebra is unimodular,
    so by Poincare duality iota_z vol is exact, and the class of alpha,
    never exact in degree 1, lies in the kernel.  Hard Lefschetz then
    fails, and with it the d d_lam-lemma, so the lemma verdict is false.
    On an abelian algebra d = d_lam = 0, every flavor is the whole form
    space, and L^k: Lambda^(m-k) -> Lambda^(m+k) is the bijection of the
    sl(2) action: hard Lefschetz holds, the slack is 0 in every degree
    and the lemma holds.  Of the 50 algebras 32 are nonabelian and 18
    abelian."""
    failures = []
    made, seed = 0, 0
    kinds = {"nonabelian": 0, "abelian": 0}
    dims_cycle = (2, 4, 6)
    while made < 50 and seed < 2000:
        sd = random_symplectic(dims_cycle[made % 3], seed)
        seed += 1
        if sd is None:
            continue
        tag = "algebra %d (dim %d, seed %d)" % (made, dims_cycle[made % 3], seed - 1)
        try:
            pair, ops = symplectic_pair(sd)
            _operator_identities(ops)
            nn = ops.n
            pa = PairAnalysis(pair, validated=True)
            d1 = pa.flavor_table("D1", keep_zeros=True)
            d2 = pa.flavor_table("D2", keep_zeros=True)
            bc = pa.flavor_table("BC", keep_zeros=True)
            av = pa.flavor_table("A", keep_zeros=True)
            for k in range(nn + 1):
                assert d1.get(k, 0) == d2.get(nn - k, 0), "D1/D2 duality"
                assert bc.get(k, 0) == av.get(nn - k, 0), "BC/A duality"
            chk = doub_degeneration_check(pa)
            assert chk["first"] and chk["second"], "degeneration"
            hl = hard_lefschetz(pa, ops)
            lemma = pa.lemma_verdict()["holds"]
            if sd.lie.brackets:
                assert hl["lefschetz_iso"][ops.m - 1] is False, \
                    "Benson-Gordon: L^(m-1) bijective on H^1"
                assert lemma is False, "Benson-Gordon: lemma holds"
                kinds["nonabelian"] += 1
            else:
                assert hl["holds"] is True, "abelian: hard Lefschetz fails"
                assert not any(hl["slack"].values()), "abelian: nonzero slack"
                assert lemma is True, "abelian: lemma fails"
                kinds["abelian"] += 1
        except AssertionError as e:
            failures.append("%s: %s" % (tag, e))
            break
        made += 1
    if made < 50:
        failures.append("only %d usable algebras out of %d seeds" % (made, seed))
    elif kinds != {"nonabelian": 32, "abelian": 18}:
        failures.append("expected 32 nonabelian and 18 abelian algebras, got %r" % kinds)
    verdict(6, failures, note="%d algebras, %d nonabelian" % (made, kinds["nonabelian"]))


def test_criterion_7_golden_files():
    """The five hand-derived complexes: every stored table, verdict, and
    spectral page matches the recomputation exactly."""
    failures = []
    for name in ("dot", "square", "hseg", "vseg", "zigzag3"):
        with open(GOLDEN_DIR / ("%s.json" % name)) as fh:
            doc = json.load(fh)
        dc = cio.build(cio.parse_document(doc["input"])).obj
        an = Analysis(dc)
        exp = doc["expected"]

        def cells(table):
            return {tuple(int(x) for x in k.split(",")): v
                    for k, v in table.items()}

        for flavor, want in exp["tables"].items():
            got = an.flavor_table(flavor)
            if got != cells(want):
                failures.append("%s %s: %r != %r" % (name, flavor, got, cells(want)))
        vtabs = an.varouchas_tables()
        for v, want in exp["varouchas"].items():
            if vtabs[v] != cells(want):
                failures.append("%s %s: %r != %r" % (name, v, vtabs[v], cells(want)))
        if an.lemma_verdict()["holds"] != exp["lemma"]:
            failures.append("%s lemma verdict mismatch" % name)
        for sign, tag in ((1, "TOT_PLUS"), (-1, "TOT_MINUS")):
            want = {int(k): v for k, v in exp["total"][tag].items()}
            if an.total_table(sign) != want:
                failures.append("%s %s mismatch" % (name, tag))
        for which in ("first", "second"):
            got = pages(dc, which)
            want = exp["spectral"][which]
            ok = len(got) == len(want) and all(
                pg.r == w["r"] and pg.dims == cells(w["dims"])
                and pg.dr_ranks == cells(w["dr_ranks"])
                for pg, w in zip(got, want))
            if not ok:
                failures.append("%s spectral (%s) mismatch" % (name, which))
    verdict(7, failures)
