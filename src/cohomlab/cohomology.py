"""Cohomology flavors of double complexes and bidifferential pairs.

Per cell (a bidegree, or a degree of a pair) the flavors are

    D1 = ker d1 / im d1                  BC = (ker d1 n ker d2) / im d1d2
    D2 = ker d2 / im d2                  A  = ker d1d2 / (im d1 + im d2)

and the six Varouchas quotients

    V1 = (im d1 n im d2) / im d1d2       V4 = ker d1d2 / (ker d1 + im d2)
    V2 = (ker d1 n im d2) / im d1d2      V5 = ker d1d2 / (ker d2 + im d1)
    V3 = (ker d2 n im d1) / im d1d2      V6 = ker d1d2 / (ker d1 + ker d2)

with TOT_PLUS / TOT_MINUS the cohomology of Tot with d = d1 +- d2.  No
subspace is built: every value is a signed sum of ranks of blocks, by
one fact beyond rank-nullity, dim(im M n ker N) = rk M - rk NM.  For a
cell c of dimension n, r1, r2, r12 and rO are the ranks of d1, d2, d1d2
and [d1; d2] out of c, and rI the rank of [d1 | d2] into c.  A suffix
names the cell a block leaves: @1 = (p-1,q), @2 = (p,q-1) and
@12 = (p-1,q-1), or k-deg1, k-deg2 and k-deg1-deg2 for a pair.  As d1
and d2 anticommute, d2d1 has rank r12 and [d1; d2][d1 | d2] rank
r12@2 + r12@1.  _CELL_FORMULAS lists the results; e.g. V2 is
im d2 n ker d1 over im d1d2, so V2 = r2@2 - r12@2 - r12@12.

The eight formulations of the del-del-type lemma are injectivity or
surjectivity of identity-induced maps among BC, A, D1, D2 and the two
total cohomologies.  A map's rank is its source dimension minus its
kernel or its target dimension minus its cokernel; it is injective iff
rank == source, surjective iff rank == target.  ker(BC -> A) is in
_CELL_FORMULAS; BC -> D1 and BC -> D2 have kernels V3 and V2, and
D1 -> A and D2 -> A cokernels V4 and V5.  Per total degree n, with D_n
the Tot differential of one sign and S_n a sum over the cells of Tot^n
(degrees run mod |deg1 - deg2| for a pair):

  * BC -> TOT has kernel (ker d1 n ker d2 n im D_{n-1}) / im d1d2, and
    [d1; d2] D_{n-1} = (d1d2, -d1d2) up to sign, so
    ker = rk D_{n-1} - S_{n-1} r12 - S_{n-2} r12;
  * TOT -> A has image (ker D_n + B)/B for B = im [d1 | d2], of
    dimension dim ker D_n - dim(B n ker D_n), and D_n [d1 | d2] is
    d1d2 on the difference of the two inputs, so
    rank = (dim Tot^n - rk D_n) - S_n rI + S_{n-1} r12.

Each block rank, cell and rk D_n is computed once per analysis; rk D_n
also gives the total tables.  TOT_MINUS reads its own matrix, so the
two-sign agreement stays a check.  A negative value means a broken rank
and raises AssertionError naming the cell, the value and its formula.
The exact sequences of the Varouchas quotients give, per cell,

    A  = V1 - V2 + D1 + V4 = V1 - V3 + D2 + V5
    BC = V3 + D1 - V5 + V6 = V2 + D2 - V4 + V6

and BC + A = D1 + D2 + V1 + V6.  On the formulas these are algebra: the
self-tests exposing them check the formula table, and the shape ground
truth in randomgen checks the values.

Subquotient and induced_rank treat explicit subspaces Z/B -> Z'/B'
(Z <= Z' and B <= B', else IllFormedMap; B <= Z, checked by
Subquotient): the image is (Z + B')/B', so rank = dim(Z + B') - dim B'.
No table reads them any more; they serve the subspace reference in the
tests and the names perfbench's tracer hooks.
"""

from __future__ import annotations

from math import gcd

from .linalg import (
    hstack,
    image,
    kernel,
    quotient_dim,
    rank,
    vstack,
)
from .complexes import (
    doub_tot_summands,
    doub_total_block,
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
    # the image is (Z + B')/B'; see the module docstring
    rank = src.Z.sum(dst.B).dim - dst.B.dim
    return InducedMap(rank, rank == src.dim, rank == dst.dim)


def _map(rank, src, dst):
    return InducedMap(rank, rank == src, rank == dst).as_dict()


def _terms(text):
    """'n - r1 - r1@1' -> ((1, 'n', ''), (-1, 'r1', ''), (-1, 'r1', '1'))."""
    out = []
    for tok in text.replace("- ", "-").replace("+ ", "").split():
        block, _, at = tok.lstrip("-").partition("@")
        out.append((-1 if tok[0] == "-" else 1, block, at))
    return tuple(out)


# name = formula, n the cell's dimension; see the module docstring
_CELL_FORMULAS = tuple((name.strip(), text.strip(), _terms(text)) for name, text in (
    line.split("=") for line in """
D1 = n - r1 - r1@1
D2 = n - r2 - r2@2
BC = n - rO - r12@12
A = n - r12 - rI
V1 = r1@1 + r2@2 - rI - r12@12
V2 = r2@2 - r12@2 - r12@12
V3 = r1@1 - r12@1 - r12@12
V4 = r1 - r12 - r12@2
V5 = r2 - r12 - r12@1
V6 = r1 + r2 - rO - r12
ker BC->A = rI - r12@2 - r12@1 - r12@12
""".strip().splitlines()))

_TOT = "dim Tot^n - rk D_n - rk D_{n-1}"
_KER_BC_TOT = "rk D_{n-1} - S_{n-1} r12 - S_{n-2} r12"
_RANK_TOT_A = "(dim Tot^n - rk D_n) - S_n rI + S_{n-1} r12"


def _strip_zeros(table):
    return {k: v for k, v in table.items() if v}


def _checked(value, where, key, name, formula):
    if value < 0:
        raise AssertionError("rank-table engine bug: %s at %s %r is %d = %s"
                             % (name, where, key, value, formula))
    return value


class _AnalysisBase:
    """Flavor/Varouchas/lemma logic from block ranks over abstract cells.

    Subclasses provide _cell_keys(), _dim(key), _out(key) (the d1 and d2
    blocks out of key and the d1 block out of where d2 lands, None where
    absent), _preds(key) (the keys @1, @2, @12), the total-degree data
    _tot_degrees(), _tot_prev(n), _tot_keys(n), _tot_dim(n),
    _tot_block(sign, n), and _tot_applicable().
    """

    def __init__(self):
        self._cells = {}
        self._ranks = {}  # (block, key) -> rank
        self._tot_ranks = {}  # (sign, n) -> rk D_n
        self._totals = {}
        self._induced = None

    def cell(self, key):
        """{value name: int} for one cell: the flavors, V1-V6, ker BC->A."""
        c = self._cells.get(key)
        if c is None:
            c = self._cells[key] = self._make_cell(key)
        return c

    def _make_cell(self, key):
        at = dict(zip(("", "1", "2", "12"), (key,) + self._preds(key)))
        n = self._dim(key)
        out = {}
        for name, text, terms in _CELL_FORMULAS:
            v = 0
            for sign, block, suffix in terms:
                v += sign * (n if block == "n" else self._rank(block, at[suffix]))
            out[name] = _checked(v, "cell", key, name, text)
        return out

    def _rank(self, block, key):
        r = self._ranks.get((block, key))
        if r is None:
            r = self._ranks[(block, key)] = self._block_rank(block, key) if self._dim(key) else 0
        return r

    def _block_rank(self, block, key):
        d1, d2, d1_next = self._out(key)
        if block == "r1":
            m = d1
        elif block == "r2":
            m = d2
        elif block == "r12":
            m = d1_next.mul(d2) if d1_next and d2 else None
        elif block == "rO":
            m = vstack(d1, d2) if d1 and d2 else d1 or d2
        else:  # rI: d1 from @1 and d2 from @2, side by side
            at1, at2, _ = self._preds(key)
            a, b = self._out(at1)[0], self._out(at2)[1]
            m = hstack(a, b) if a and b else a or b
        return rank(m) if m else 0

    def flavor_table(self, name, keep_zeros=False):
        if name in ("TOT_PLUS", "TOT_MINUS"):
            t = self.total_table(1 if name == "TOT_PLUS" else -1)
        elif name in BIGRADED_FLAVORS:
            t = {k: self.cell(k)[name] for k in self._cell_keys()}
        else:
            raise ValueError("unknown flavor %r" % (name,))
        return dict(t) if keep_zeros else _strip_zeros(t)

    def varouchas_tables(self, keep_zeros=False):
        out = {}
        for v in VAROUCHAS:
            t = {k: self.cell(k)[v] for k in self._cell_keys()}
            out[v] = dict(t) if keep_zeros else _strip_zeros(t)
        return out

    def summed_identity_holds(self):
        """BC + A = D1 + D2 + V1 + V6 in every cell."""
        for k in self._cell_keys():
            c = self.cell(k)
            if c["BC"] + c["A"] != c["D1"] + c["D2"] + c["V1"] + c["V6"]:
                return False
        return True

    def exactness_identities_hold(self):
        """The four alternating-sum identities of the exact sequences."""
        for k in self._cell_keys():
            c = self.cell(k)
            d1, d2, bc, a = c["D1"], c["D2"], c["BC"], c["A"]
            if a != c["V1"] - c["V2"] + d1 + c["V4"]:
                return False
            if a != c["V1"] - c["V3"] + d2 + c["V5"]:
                return False
            if bc != c["V3"] + d1 - c["V5"] + c["V6"]:
                return False
            if bc != c["V2"] + d2 - c["V4"] + c["V6"]:
                return False
        return True

    # -- total-degree machinery ----------------------------------------

    def _tot_rank(self, sign, n):
        r = self._tot_ranks.get((sign, n))
        if r is None:
            r = self._tot_ranks[(sign, n)] = rank(self._tot_block(sign, n))
        return r

    def _total(self, sign):
        t = self._totals.get(sign)
        if t is None:
            name = "TOT_PLUS" if sign == 1 else "TOT_MINUS"
            t = self._totals[sign] = {
                n: _checked(self._tot_dim(n) - self._tot_rank(sign, n)
                            - self._tot_rank(sign, self._tot_prev(n)),
                            "total degree", n, name, _TOT)
                for n in self._tot_degrees()}
        return t

    def total_table(self, sign):
        return dict(self._total(sign))

    def tot_subquotient(self, sign, n):
        """Z/B of total degree n as subspaces.  No table reads it;
        perfbench's tracer hooks the name."""
        return Subquotient(("TOT", sign, n), kernel(self._tot_block(sign, n)),
                           image(self._tot_block(sign, n - 1)))

    def _total_row(self, n):
        """The four maps between BC, A and both total cohomologies at n."""
        keys = self._tot_keys
        bc = sum(self.cell(k)["BC"] for k in keys(n))
        a = sum(self.cell(k)["A"] for k in keys(n))
        r_in = sum(self._rank("rI", k) for k in keys(n))
        r12_1, r12_2 = (sum(self._rank("r12", k) for k in keys(m)) for m in (n - 1, n - 2))
        row = {}
        for sign, tag in ((1, "TOT_PLUS"), (-1, "TOT_MINUS")):
            h = self._total(sign)[n]
            ker = _checked(self._tot_rank(sign, self._tot_prev(n)) - r12_1 - r12_2,
                           "total degree", n, "ker BC->" + tag, _KER_BC_TOT)
            into = _checked(self._tot_dim(n) - self._tot_rank(sign, n) - r_in + r12_1,
                            "total degree", n, "rank %s->A" % tag, _RANK_TOT_A)
            row["BC->" + tag] = _map(bc - ker, bc, h)
            row[tag + "->A"] = _map(into, h, a)
        return row

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
            c = self.cell(key)
            bc, a = c["BC"], c["A"]
            per_cell[key] = {
                "BC->A": _map(bc - c["ker BC->A"], bc, a),
                "BC->D1": _map(bc - c["V3"], bc, c["D1"]),
                "BC->D2": _map(bc - c["V2"], bc, c["D2"]),
                "D1->A": _map(a - c["V4"], c["D1"], a),
                "D2->A": _map(a - c["V5"], c["D2"], a),
            }
        per_degree = {}
        if self._tot_applicable():
            per_degree = {n: self._total_row(n) for n in self._tot_degrees()}
        self._induced = {"bigraded": per_cell, "total": per_degree}
        return self._induced


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

    def _dim(self, key):
        return self.dc.spaces.get(key, 0)

    def _out(self, key):
        p, q = key
        d1, d2 = self.dc.d1, self.dc.d2
        return d1.get(key), d2.get(key), d1.get((p, q + 1))

    def _preds(self, key):
        p, q = key
        return (p - 1, q), (p, q - 1), (p - 1, q - 1)

    def tot(self, sign):
        t = self._tots.get(sign)
        if t is None:
            t = tot(self.dc, sign)
            self._tots[sign] = t
        return t

    def _tot_applicable(self):
        return True

    def _tot_degrees(self):
        lo, hi = self.dc.total_range()
        return range(lo, hi + 1)

    def _tot_prev(self, n):
        return n - 1

    def _tot_keys(self, n):
        return [(p, q) for (p, q, _off, _d) in self.tot(1).summands(n)]

    def _tot_dim(self, n):
        return self.tot(1).dim(n)

    def _tot_block(self, sign, n):
        return self.tot(sign).block(n)

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

    def _cell_keys(self):
        return self.bp.support()

    def _dim(self, k):
        return self.bp.dim(k)

    def _out(self, k):
        bp = self.bp
        return bp.d1.get(k), bp.d2.get(k), bp.d1.get(k + bp.deg2)

    def _preds(self, k):
        e1, e2 = self.bp.deg1, self.bp.deg2
        return k - e1, k - e2, k - e1 - e2

    def _tot_applicable(self):
        return self.delta != 0

    def _tot_degrees(self):
        """Residues mod |delta|, or the plain degrees when delta == 0."""
        return range(abs(self.delta)) if self.delta else self.bp.support()

    def _tot_prev(self, n):
        # rk D is periodic in n; with delta == 0, d1 +- d2 has degree deg1
        return (n - 1) % abs(self.delta) if self.delta else n - self.bp.deg1

    def _tot_keys(self, n):
        return [k for _p, k in doub_tot_summands(self.bp, n)]

    def _tot_dim(self, n):
        if not self.delta:
            return self.bp.dim(n)
        return sum(self.bp.dim(k) for k in self._tot_keys(n))

    def _tot_block(self, sign, n):
        if not self.delta:
            bp = self.bp
            return bp.d1_block(n).add(bp.d2_block(n).scale(sign))
        return doub_total_block(self.bp, n, sign)

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


def frolicher_report(obj):
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
    a = _analysis_for(obj)
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
