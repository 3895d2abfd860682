"""Cohomology flavors of double complexes and bidifferential pairs.

Six flavors are computed from the same cached per-cell subspaces:

    D1  = ker d1 / im d1                 (one-sided)
    D2  = ker d2 / im d2                 (one-sided)
    BC  = (ker d1 n ker d2) / im d1d2    (Bott-Chern type)
    A   = ker d1d2 / (im d1 + im d2)     (Aeppli type)
    TOT_PLUS / TOT_MINUS                 (total, d = d1 +- d2)

plus the six Varouchas quotients

    V1 = (im d1 n im d2) / im d1d2       V4 = ker d1d2 / (ker d1 + im d2)
    V2 = (ker d1 n im d2) / im d1d2      V5 = ker d1d2 / (ker d2 + im d1)
    V3 = (ker d2 n im d1) / im d1d2      V6 = ker d1d2 / (ker d1 + ker d2)

which fit into four exact sequences; their alternating dimension sums
give, per bidegree,

    A  = V1 - V2 + D1 + V4 = V1 - V3 + D2 + V5
    BC = V3 + D1 - V5 + V6 = V2 + D2 - V4 + V6

and, summing, BC + A = D1 + D2 + V1 + V6.  These identities hold for
every valid complex; a failed check means an engine bug, so they are
exposed as cheap self-tests.

The del-del-type lemma has eight equivalent formulations (injectivity /
surjectivity of identity-induced maps among BC, A, D1, D2 and the two
total cohomologies).  All eight are read from the one table of induced
maps (induced_tables, computed once per analysis) and asserted to
agree; the verdict is formulation (1), injectivity of BC -> A.

Each induced map Z/B -> Z'/B' (Z <= Z' and B <= B', else IllFormedMap;
B <= Z, checked by Subquotient) has kernel (Z n B')/B and image
(Z + B')/B', so one subspace sum gives all three answers:

    rank = dim(Z + B') - dim B',
    injective <=> rank == dim Z/B,   surjective <=> rank == dim Z'/B'.

A matrix m induces the same with m Z in place of Z.
"""

from __future__ import annotations

from math import gcd

from .linalg import (
    block_sum,
    image,
    kernel,
    map_subspace,
    quotient_dim,
    rank,
)
from .complexes import (
    doub_tot_summands,
    doub_total_block,
    doub_total_cohomology,
    require_valid,
    tot,
)

__all__ = [
    "Analysis",
    "CohomReport",
    "FLAVORS",
    "IllFormedMap",
    "InducedMap",
    "PairAnalysis",
    "Subquotient",
    "cohom",
    "frolicher_report",
    "induced_map_rank",
    "induced_rank",
    "lemma_verdict",
    "varouchas",
    "varouchas_identity_check",
]

FLAVORS = ("D1", "D2", "BC", "A", "TOT_PLUS", "TOT_MINUS")

BIGRADED_FLAVORS = ("D1", "D2", "BC", "A")

VAROUCHAS = ("V1", "V2", "V3", "V4", "V5", "V6")


class IllFormedMap(Exception):
    """The identity (or given matrix) does not induce a map of quotients."""


class Subquotient:
    """Z/B inside a fixed coordinate space; B <= Z checked at creation."""

    __slots__ = ("label", "Z", "B", "dim")

    def __init__(self, label, z, b):
        self.label = label
        self.Z = z
        self.B = b
        self.dim = quotient_dim(z, b)  # NotASubspace if b is not inside z

    def __repr__(self):
        return "Subquotient(%r, dim %d)" % (self.label, self.dim)


class InducedMap:
    __slots__ = ("rank", "injective", "surjective")

    def __init__(self, rank, injective, surjective):
        self.rank = rank
        self.injective = injective
        self.surjective = surjective

    @property
    def bijective(self):
        return self.injective and self.surjective

    def as_dict(self):
        return {
            "rank": self.rank,
            "injective": self.injective,
            "surjective": self.surjective,
        }


def induced_rank(src, dst):
    """Rank/injectivity/surjectivity of the identity-induced map src -> dst.

    Well-definedness needs src.Z <= dst.Z and src.B <= dst.B; violations
    raise IllFormedMap (they indicate invalid differentials upstream).
    """
    if src.Z.n != dst.Z.n:
        raise IllFormedMap("sub quotients live in different coordinate spaces")
    if not dst.Z.contains(src.Z):
        raise IllFormedMap("numerator inclusion fails: %r -> %r" % (src.label, dst.label))
    if not dst.B.contains(src.B):
        raise IllFormedMap("denominator inclusion fails: %r -> %r" % (src.label, dst.label))
    return _induced(src.Z, src, dst)


def induced_map_rank(m, src, dst):
    """Same for the map a given matrix induces between subquotients."""
    mz = map_subspace(m, src.Z)
    if not dst.Z.contains(mz):
        raise IllFormedMap("matrix does not map numerator into numerator")
    if not dst.B.contains(map_subspace(m, src.B)):
        raise IllFormedMap("matrix does not map denominator into denominator")
    return _induced(mz, src, dst)


def _induced(z, src, dst):
    """The map with image (z + dst.B)/dst.B; see the module docstring."""
    rank = z.sum(dst.B).dim - dst.B.dim
    return InducedMap(rank, rank == src.dim, rank == dst.dim)


class _Cell:
    __slots__ = (
        "dim", "ker1", "ker2", "im1", "im2", "ker12", "im12",
        "zbc", "ba", "subq", "var",
    )


def _strip_zeros(table):
    return {k: v for k, v in table.items() if v}


class _AnalysisBase:
    """Shared flavor/Varouchas/lemma logic over an abstract cell indexing.

    Subclasses provide _cell_keys(), _make_cell(key), total-degree data
    (_tot_degrees, _tot_dim, _tot_block, _tot_parts), _tot_applicable()
    and the total cohomology table (_total_table).  Cells, subquotients,
    total tables and the induced-map table are each computed once.
    """

    def __init__(self):
        self._cells = {}
        self._sq = {}  # total-degree subquotients by label
        self._totals = {}
        self._induced = None

    def cell(self, key):
        c = self._cells.get(key)
        if c is None:
            c = self._make_cell(key)
            self._cells[key] = c
        return c

    def flavor_table(self, name, keep_zeros=False):
        if name in ("TOT_PLUS", "TOT_MINUS"):
            t = self.total_table(1 if name == "TOT_PLUS" else -1)
        elif name in BIGRADED_FLAVORS:
            t = {k: self.cell(k).subq[name].dim for k in self._cell_keys()}
        else:
            raise ValueError("unknown flavor %r" % (name,))
        return dict(t) if keep_zeros else _strip_zeros(t)

    def varouchas_tables(self, keep_zeros=False):
        out = {}
        for v in VAROUCHAS:
            t = {k: self.cell(k).var[v] for k in self._cell_keys()}
            out[v] = dict(t) if keep_zeros else _strip_zeros(t)
        return out

    def summed_identity_holds(self):
        """BC + A = D1 + D2 + V1 + V6 in every cell."""
        for k in self._cell_keys():
            c = self.cell(k)
            lhs = c.subq["BC"].dim + c.subq["A"].dim
            rhs = c.subq["D1"].dim + c.subq["D2"].dim + c.var["V1"] + c.var["V6"]
            if lhs != rhs:
                return False
        return True

    def exactness_identities_hold(self):
        """The four alternating-sum identities of the exact sequences."""
        for k in self._cell_keys():
            c = self.cell(k)
            d1, d2 = c.subq["D1"].dim, c.subq["D2"].dim
            bc, a = c.subq["BC"].dim, c.subq["A"].dim
            v = c.var
            if a != v["V1"] - v["V2"] + d1 + v["V4"]:
                return False
            if a != v["V1"] - v["V3"] + d2 + v["V5"]:
                return False
            if bc != v["V3"] + d1 - v["V5"] + v["V6"]:
                return False
            if bc != v["V2"] + d2 - v["V4"] + v["V6"]:
                return False
        return True

    # -- total-degree machinery ----------------------------------------

    def total_table(self, sign):
        t = self._totals.get(sign)
        if t is None:
            t = self._totals[sign] = self._total_table(sign)
        return dict(t)

    def tot_subquotient(self, sign, n):
        label = ("TOT", sign, n)
        sq = self._sq.get(label)
        if sq is None:
            z = kernel(self._tot_block(sign, n))
            b = image(self._tot_block(sign, n - 1))
            sq = self._sq[label] = Subquotient(label, z, b)
        return sq

    def _embedded(self, name, n, z_name, b_name):
        """Direct sum of per-cell (Z, B) pairs inside total-degree coords."""
        label = (name, n)
        sq = self._sq.get(label)
        if sq is None:
            total = self._tot_dim(n)
            parts = [(off, d, self.cell(key)) for key, off, d in self._tot_parts(n)]
            z = block_sum([(off, d, getattr(c, z_name)) for off, d, c in parts], total)
            b = block_sum([(off, d, getattr(c, b_name)) for off, d, c in parts], total)
            sq = self._sq[label] = Subquotient(label, z, b)
        return sq

    def embedded_bc(self, n):
        return self._embedded("BC_total", n, "zbc", "im12")

    def embedded_a(self, n):
        return self._embedded("A_total", n, "ker12", "ba")

    def lemma_verdict(self):
        """The eight lemma conditions, read from the induced-map table."""
        tables = self._induced_memo()
        cells = tables["bigraded"].values()
        conds = {
            1: all(c["BC->A"]["injective"] for c in cells),
            2: all(c["BC->A"]["surjective"] for c in cells),
            3: all(c["BC->D1"]["injective"] and c["BC->D2"]["injective"]
                   for c in cells),
            4: all(c["D1->A"]["surjective"] and c["D2->A"]["surjective"]
                   for c in cells),
        }
        rows = tables["total"].values()
        for tag, ci, cs in (("TOT_PLUS", 5, 6), ("TOT_MINUS", 7, 8)):
            if self._tot_applicable():
                conds[ci] = all(r["BC->" + tag]["injective"] for r in rows)
                conds[cs] = all(r[tag + "->A"]["surjective"] for r in rows)
            else:
                conds[ci] = conds[cs] = None
        if len({v for v in conds.values() if v is not None}) != 1:
            raise AssertionError(
                "lemma formulations disagree (engine bug): %r" % (conds,)
            )
        return {"holds": conds[1], "conditions": conds}

    def induced_tables(self):
        """Ranks of all identity-induced maps, cellwise and total-degree.

        The maps are computed once per analysis; each call returns a
        fresh copy, so a caller's edits never reach the lemma verdict.
        """
        return {part: {k: {m: dict(r) for m, r in row.items()}
                       for k, row in t.items()}
                for part, t in self._induced_memo().items()}

    def _induced_memo(self):
        if self._induced is not None:
            return self._induced
        per_cell = {}
        for key in self._cell_keys():
            s = self.cell(key).subq
            per_cell[key] = {
                "BC->A": induced_rank(s["BC"], s["A"]).as_dict(),
                "BC->D1": induced_rank(s["BC"], s["D1"]).as_dict(),
                "BC->D2": induced_rank(s["BC"], s["D2"]).as_dict(),
                "D1->A": induced_rank(s["D1"], s["A"]).as_dict(),
                "D2->A": induced_rank(s["D2"], s["A"]).as_dict(),
            }
        per_degree = {}
        if self._tot_applicable():
            for n in self._tot_degrees():
                bc = self.embedded_bc(n)
                a = self.embedded_a(n)
                row = {}
                for sign, tag in ((1, "TOT_PLUS"), (-1, "TOT_MINUS")):
                    tot_sq = self.tot_subquotient(sign, n)
                    row["BC->" + tag] = induced_rank(bc, tot_sq).as_dict()
                    row[tag + "->A"] = induced_rank(tot_sq, a).as_dict()
                per_degree[n] = row
        self._induced = {"bigraded": per_cell, "total": per_degree}
        return self._induced


def _make_cell_from_blocks(dim, out1, out2, in1, in2, out11, in_prev):
    """Build one cell's cached subspaces.

    out1/out2: differentials out of the cell; in1/in2: into the cell;
    out11: the d1 block one d2-step ahead (for d1 d2 out of the cell);
    in_prev: the d2 block feeding the d1 block that lands here (for
    im d1 d2 into the cell).
    """
    c = _Cell()
    c.dim = dim
    c.ker1 = kernel(out1)
    c.ker2 = kernel(out2)
    c.im1 = image(in1)
    c.im2 = image(in2)
    c.ker12 = kernel(out11.mul(out2))
    c.im12 = image(in1.mul(in_prev))
    c.zbc = c.ker1.intersect(c.ker2)
    c.ba = c.im1.sum(c.im2)
    c.subq = {
        "D1": Subquotient("D1", c.ker1, c.im1),
        "D2": Subquotient("D2", c.ker2, c.im2),
        "BC": Subquotient("BC", c.zbc, c.im12),
        "A": Subquotient("A", c.ker12, c.ba),
    }
    c.var = {
        "V1": quotient_dim(c.im1.intersect(c.im2), c.im12),
        "V2": quotient_dim(c.ker1.intersect(c.im2), c.im12),
        "V3": quotient_dim(c.ker2.intersect(c.im1), c.im12),
        "V4": quotient_dim(c.ker12, c.ker1.sum(c.im2)),
        "V5": quotient_dim(c.ker12, c.ker2.sum(c.im1)),
        "V6": quotient_dim(c.ker12, c.ker1.sum(c.ker2)),
    }
    return c


class Analysis(_AnalysisBase):
    """All flavor data of one validated bounded double complex, cached."""

    def __init__(self, dc, validated=False):
        super().__init__()
        if not validated:
            require_valid(dc)
        self.dc = dc
        self._tots = {}

    def _cell_keys(self):
        return self.dc.support()

    def _make_cell(self, key):
        p, q = key
        dc = self.dc
        return _make_cell_from_blocks(
            dc.dim(p, q),
            dc.d1_block(p, q),
            dc.d2_block(p, q),
            dc.d1_block(p - 1, q),
            dc.d2_block(p, q - 1),
            dc.d1_block(p, q + 1),
            dc.d2_block(p - 1, q - 1),
        )

    def tot(self, sign):
        t = self._tots.get(sign)
        if t is None:
            t = tot(self.dc, sign)
            self._tots[sign] = t
        return t

    def _total_table(self, sign):
        return self.tot(sign).cohomology()

    def _tot_applicable(self):
        return True

    def _tot_degrees(self):
        lo, hi = self.dc.total_range()
        return range(lo, hi + 1)

    def _tot_dim(self, n):
        return self.tot(1).dim(n)

    def _tot_block(self, sign, n):
        return self.tot(sign).block(n)

    def _tot_parts(self, n):
        return [((p, q), off, d) for (p, q, off, d) in self.tot(1).summands(n)]

    def total_degree_sums(self, name):
        """Flavor table summed along antidiagonals: {n: sum over p+q=n}."""
        out = {}
        for (p, q), v in self.flavor_table(name, keep_zeros=True).items():
            out[p + q] = out.get(p + q, 0) + v
        return out


class PairAnalysis(_AnalysisBase):
    """Flavor data of a Z-graded bidifferential pair.

    Cells are degrees.  Total cohomology: if deg1 != deg2 it is the
    cohomology of Tot of the (periodic) canonical double complex, one
    value per residue class of the total degree mod (deg1 - deg2); in
    the homogeneous case deg1 == deg2 the differential d1 +- d2 is
    itself graded and the total table is indexed by plain degrees, but
    the four total-degree lemma formulations are reported as not
    applicable (the extra-graduation hypothesis behind the equivalence
    is unavailable).
    """

    def __init__(self, bp, validated=False):
        super().__init__()
        if not validated:
            require_valid(bp)
        self.bp = bp
        self.delta = bp.deg1 - bp.deg2
        self._tot_blocks = {}

    def _cell_keys(self):
        return self.bp.support()

    def _make_cell(self, key):
        k = key
        bp = self.bp
        return _make_cell_from_blocks(
            bp.dim(k),
            bp.d1_block(k),
            bp.d2_block(k),
            bp.d1_block(k - bp.deg1),
            bp.d2_block(k - bp.deg2),
            bp.d1_block(k + bp.deg2),
            bp.d2_block(k - bp.deg1 - bp.deg2),
        )

    def _tot_applicable(self):
        return self.delta != 0

    def _tot_degrees(self):
        return range(abs(self.delta))

    def _tot_dim(self, n):
        return sum(self.bp.dim(k) for _, k in doub_tot_summands(self.bp, n))

    def _tot_block(self, sign, n):
        key = (sign, n)
        b = self._tot_blocks.get(key)
        if b is None:
            b = doub_total_block(self.bp, n, sign)
            self._tot_blocks[key] = b
        return b

    def _tot_parts(self, n):
        parts = []
        off = 0
        for p, k in doub_tot_summands(self.bp, n):
            d = self.bp.dim(k)
            parts.append((k, off, d))
            off += d
        return parts

    def total_degree_sums(self, name):
        """Flavor dims summed the way the total grading groups them.

        For deg1 != deg2 the total complex in degree n collects the
        plain degrees congruent to deg2*n mod (deg1 - deg2), and those
        sums repeat with period |delta|; one value per n in
        range(|delta|).  For deg1 == deg2 the flavor table itself is
        returned (total cohomology is graded by plain degrees there).
        """
        table = self.flavor_table(name, keep_zeros=True)
        if self.delta == 0:
            return table
        out = {}
        for n in self._tot_degrees():
            out[n] = sum(v for k, v in table.items()
                         if (k - self.bp.deg2 * n) % self.delta == 0)
        return out

    def _total_table(self, sign):
        """{residue mod delta: dim} or, when deg1 == deg2, {degree: dim}."""
        if self.delta == 0:
            # d1 + sign*d2 is a single differential of degree deg1
            bp = self.bp
            e = bp.deg1
            ranks = {}

            def rk(k):
                if k not in ranks:
                    m = bp.d1_block(k).add(bp.d2_block(k).scale(sign))
                    ranks[k] = rank(m)
                return ranks[k]

            return {k: bp.dim(k) - rk(k) - rk(k - e) for k in bp.support()}
        return doub_total_cohomology(self.bp, sign)


# ---------------------------------------------------------------------------
# module-level operation wrappers


def cohom(obj, flavor):
    """Dimension table of one flavor; accepts DoubleComplex or BidiffPair."""
    a = _analysis_for(obj)
    return a.flavor_table(flavor)


def varouchas(obj):
    a = _analysis_for(obj)
    return a.varouchas_tables()


def varouchas_identity_check(obj):
    a = _analysis_for(obj)
    return a.summed_identity_holds()


def lemma_verdict(obj):
    return _analysis_for(obj).lemma_verdict()


def _analysis_for(obj):
    from .complexes import BidiffPair, DoubleComplex

    if isinstance(obj, DoubleComplex):
        return Analysis(obj)
    if isinstance(obj, BidiffPair):
        return PairAnalysis(obj)
    if isinstance(obj, (Analysis, PairAnalysis)):
        return obj
    raise TypeError("expected a DoubleComplex or BidiffPair")


class CohomReport:
    """Everything frolicher_report computes, as a plain record."""

    def __init__(self, tables, varouchas_tables, induced, verdicts, slack):
        self.tables = tables
        self.varouchas = varouchas_tables
        self.induced = induced
        self.verdicts = verdicts
        self.slack = slack


def frolicher_report(obj, analysis=None):
    """Dimension tables, inequality slacks and verdicts for one complex.

    Per total degree n the three inequalities are checked and their
    slacks recorded:

      classical:  min(sum D1, sum D2) - dim TOT        >= 0
      refined:    (sum BC + sum A) - (sum D1 + sum D2) >= 0
      doubled:    (sum BC + sum A) - 2 dim TOT         >= 0   (both signs)

    Equality of the doubled inequality (plus sign, all degrees) is
    asserted to coincide with the lemma verdict.

    Pairs are graded by residue classes of the total degree.  When the
    two differentials have equal degrees there is no total grading at
    all: only the refined inequality survives (it is cellwise), the two
    total tables may legitimately differ, and the equality flags come
    back None.  The equality-lemma cross-check also needs the two
    degrees to be coprime, since the total complex only ever sees the
    part of the space sitting in degrees divisible by their gcd.
    """
    a = analysis if analysis is not None else _analysis_for(obj)
    tables = {f: a.flavor_table(f, keep_zeros=True) for f in FLAVORS}
    var = a.varouchas_tables(keep_zeros=True)
    verdict = a.lemma_verdict()

    is_pair = isinstance(a, PairAnalysis)
    tot_graded = not (is_pair and a.delta == 0)
    if is_pair:
        characterizes = tot_graded and gcd(abs(a.bp.deg1), abs(a.bp.deg2)) == 1
    else:
        characterizes = True

    sums = {f: a.total_degree_sums(f) for f in BIGRADED_FLAVORS}
    tot_plus = a.total_table(1)
    tot_minus = a.total_table(-1)
    degrees = sorted(
        set(tot_plus) | set(tot_minus) | {n for s in sums.values() for n in s}
    )
    slack = {"refined": {}}
    if tot_graded:
        slack.update({"classical": {}, "doubled_plus": {}, "doubled_minus": {}})
    for n in degrees:
        d1 = sums["D1"].get(n, 0)
        d2 = sums["D2"].get(n, 0)
        bc = sums["BC"].get(n, 0)
        aa = sums["A"].get(n, 0)
        tp = tot_plus.get(n, 0)
        tm = tot_minus.get(n, 0)
        slack["refined"][n] = (bc + aa) - (d1 + d2)
        checked = [("refined", slack["refined"][n])]
        if tot_graded:
            if tp != tm:
                raise AssertionError(
                    "total cohomologies for the two signs differ at degree %d" % n
                )
            slack["classical"][n] = min(d1, d2) - tp
            slack["doubled_plus"][n] = (bc + aa) - 2 * tp
            slack["doubled_minus"][n] = (bc + aa) - 2 * tm
            checked += [
                ("classical", slack["classical"][n]),
                ("doubled_plus", slack["doubled_plus"][n]),
            ]
        for kind, s in checked:
            if s < 0:
                raise AssertionError(
                    "%s inequality violated at degree %d (slack %d)" % (kind, n, s)
                )
    verdicts = {
        "lemma_holds": verdict["holds"],
        "lemma_conditions": verdict["conditions"],
        "thm_refined_equality": all(v == 0 for v in slack["refined"].values()),
        "cor_equality_plus": None,
        "cor_equality_minus": None,
    }
    if tot_graded:
        verdicts["cor_equality_plus"] = all(
            v == 0 for v in slack["doubled_plus"].values())
        verdicts["cor_equality_minus"] = all(
            v == 0 for v in slack["doubled_minus"].values())
        if characterizes and verdicts["cor_equality_plus"] != verdicts["lemma_holds"]:
            raise AssertionError(
                "doubled-inequality equality and lemma verdict disagree (engine bug)"
            )
    return CohomReport(tables, var, a.induced_tables(), verdicts, slack)
