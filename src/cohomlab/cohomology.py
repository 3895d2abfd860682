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
one fact beyond rank-nullity, dim(im M n ker N) = rk M - rk NM.  A cell
c has one record (n, r1, r2, r12, rO, rI): its dimension, the ranks of
d1, d2, d1d2 and [d1; d2] out of c and of [d1 | d2] into c, or zeros off
the support.  @1 = (p-1,q), @2 = (p,q-1) and @12 = (p-1,q-1), or k-deg1,
k-deg2 and k-deg1-deg2 for a pair, pick a neighbour's record.  As d1 and
d2 anticommute, d2d1 has rank r12 and [d1; d2][d1 | d2] rank
r12@2 + r12@1.  _CELL_FORMULAS lists the results; e.g. V2 is
im d2 n ker d1 over im d1d2, so V2 = r2@2 - r12@2 - r12@12.

A cell is one tuple of eleven ints, its values in _CELL_FORMULAS order
(D1, D2, BC, A, V1-V6, ker BC->A), read by the constant indices _D1 ...
_KER_BC_A.  _cell_values, compiled once at import from the formula
table, computes it from the four records concatenated into one flat
24-entry vector (cell, @1, @2, @12; six entries each); the table stays
the one source of the formulas, and the guard messages quote it.

The eight formulations of the del-del-type lemma are injectivity or
surjectivity of identity-induced maps among BC, A, D1, D2 and the two
total cohomologies, so lemma_verdict reads each as one vanishing
kernel or cokernel.  ker(BC -> A) is in _CELL_FORMULAS; BC -> D1 and
BC -> D2 have kernels V3 and V2, and D1 -> A and D2 -> A cokernels V4
and V5.  A map's rank is its source dimension minus its kernel or its
target dimension minus its cokernel.  Per total degree n, with D_n the
Tot differential of one sign and S_n a sum over the cells of Tot^n
(degrees run mod |deg1 - deg2| for a pair):

  * BC -> TOT has kernel (ker d1 n ker d2 n im D_{n-1}) / im d1d2, and
    [d1; d2] D_{n-1} = (d1d2, -d1d2) up to sign, so
    ker = rk D_{n-1} - S_{n-1} r12 - S_{n-2} r12;
  * TOT -> A has image (ker D_n + B)/B for B = im [d1 | d2], of
    dimension dim ker D_n - dim(B n ker D_n), and D_n [d1 | d2] is
    d1d2 on the difference of the two inputs, so
    rank = (dim Tot^n - rk D_n) - S_n rI + S_{n-1} r12.

Every rank is taken on the analysis's integer copy of its blocks
(_integer_copy, built with the analysis), whose rows the records, Tot
and the spectral pages eliminate through linalg.echelon_leads.

Each record and cell is computed once per analysis, and so is the
per-degree table that the total tables, the total rows and
total_degree_sums read by index: per total degree n, the records and the
cell tuples summed over the cells of Tot^n (entry n of the records is
dim Tot^n) and rk D_n of each sign; from it _total(sign) holds dim H^n,
ker(BC -> H^n) and rank(H^n -> A), each checked once.  For a double
complex, rk D_n for d1 + d2 is the number of leads of the first
filtration's rank profile of D_n, which the spectral pages read as
well.  TOT_MINUS reads its own matrix, so the two-sign agreement stays
a check.  Only numbers
are memoised: induced_tables() builds fresh dicts from them on each
call.  graded and characterizes, set once per analysis, say whether Tot
is graded and whether its degrees characterize the lemma.  A negative
value means a broken rank and raises AssertionError naming the cell,
the value and its formula, and for a cell the records read and the
shapes of its blocks.
The exact sequences of the Varouchas quotients give, per cell,

    A  = V1 - V2 + D1 + V4 = V1 - V3 + D2 + V5
    BC = V3 + D1 - V5 + V6 = V2 + D2 - V4 + V6

and BC + A = D1 + D2 + V1 + V6.  On the formulas these are algebra: the
test suite checks them as linear forms in the 24 record entries, the
self-tests exposing them (summed_identity_holds and
exactness_identities_hold) still run on every input, as integer
comparisons on the cell tuples, and the shape ground truth in randomgen
checks the values.

frolicher_report is the one home of the paper's results: it checks the
inequalities, the agreement of the eight lemma formulations (inside
lemma_verdict) and the equality characterization, and raises
PropertyFailure, an AssertionError naming the property that broke, for
analyze and for the fuzzer's check_bicomplex alike.

Subquotient and induced_rank treat explicit subspaces Z/B -> Z'/B'
(Z <= Z' and B <= B', else IllFormedMap; B <= Z, checked by
Subquotient): the image is (Z + B')/B', so rank = dim(Z + B') - dim B'.
No table reads them any more; they serve the subspace reference in the
tests and the names perfbench's tracer hooks.
"""

from __future__ import annotations

from math import gcd

from .linalg import (
    echelon_leads,
    hstack,
    image,
    integer_copies,
    kernel,
    quotient_dim,
    vstack,
)
from .complexes import BidiffPair, DoubleComplex, require_valid, tot
from .scalars import GaussianRational

__all__ = [
    "Analysis",
    "CohomReport",
    "FLAVORS",
    "IllFormedMap",
    "InducedMap",
    "PairAnalysis",
    "PropertyFailure",
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


class PropertyFailure(AssertionError):
    """A check on the paper's results failed; prop names the property."""

    def __init__(self, prop, detail):
        super().__init__("%s: %s" % (prop, detail))
        self.prop = prop
        self.detail = detail


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
    """{rank, injective, surjective} of a map from a space of dimension src
    to one of dimension dst."""
    return {"rank": rank, "injective": rank == src, "surjective": rank == dst}


_POSITIONS = ("", "1", "2", "12")  # the cell, @1, @2, @12
_ENTRIES = ("n", "r1", "r2", "r12", "rO", "rI")  # a cell's record
_R12, _RI = _ENTRIES.index("r12"), _ENTRIES.index("rI")
_ZERO_RECORD = (0,) * len(_ENTRIES)


def _terms(text):
    """'n - r1 - r1@1' -> ((1, 0, 0), (-1, 0, 1), (-1, 1, 1)): (sign, position, entry)."""
    out = []
    for tok in text.replace("- ", "-").replace("+ ", "").split():
        entry, _, at = tok.lstrip("-").partition("@")
        out.append((-1 if tok[0] == "-" else 1, _POSITIONS.index(at),
                    _ENTRIES.index(entry)))
    return tuple(out)


# name = formula over the cell records; see the module docstring
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
_INDEX = {name: i for i, (name, _text, _t) in enumerate(_CELL_FORMULAS)}
_D1, _D2, _BC, _A, _V1, _V2, _V3, _V4, _V5, _V6, _KER_BC_A = (
    _INDEX[name] for name in BIGRADED_FLAVORS + VAROUCHAS + ("ker BC->A",))


def _compile(formulas):
    """One function from the flat 24-entry record vector (cell, @1, @2,
    @12) to the tuple of the formulas' values, in table order.  It runs
    the formula texts themselves, with entry r1 of the @1 record read as
    the local r1_1."""
    names = ["%s_%s" % (entry, at) if at else entry for at in _POSITIONS for entry in _ENTRIES]
    scope = {}
    exec("def _cell_values(r):\n    %s = r\n    return (%s,)\n" % (
        ", ".join(names), ", ".join(text.replace("@", "_") for _name, text, _t in formulas)),
        scope)
    return scope["_cell_values"]


_cell_values = _compile(_CELL_FORMULAS)
_ZERO_CELL = (0,) * len(_CELL_FORMULAS)

_TOT = "dim Tot^n - rk D_n - rk D_{n-1}"
_KER_BC_TOT = "rk D_{n-1} - S_{n-1} r12 - S_{n-2} r12"
_RANK_TOT_A = "(dim Tot^n - rk D_n) - S_n rI + S_{n-1} r12"


def _strip_zeros(table):
    return {k: v for k, v in table.items() if v}


def _checked(value, where, key, name, formula, records=(), obj=None):
    """value, which must not be negative.  Otherwise the AssertionError
    names it and its formula; for a cell formula it lists the records
    read (at the cell, @1, @2 and @12) and the rows x cols of d1 and d2
    out of the cell of obj and of [d1 | d2] into it, formatted only then."""
    if value < 0:
        msg = "rank-table engine bug: %s at %s %r is %d = %s" % (
            name, where, key, value, formula)
        if records:
            msg += "; records (%s): %s" % (", ".join(_ENTRIES), ", ".join(
                "%s %r" % ("@" + at if at else "cell", rec)
                for at, rec in zip(_POSITIONS, records)))
            a, b = obj.d1.get(obj.shift(key, -1, 0)), obj.d2.get(obj.shift(key, 0, -1))
            blocks = (("d1 out", obj.d1.get(key)), ("d2 out", obj.d2.get(key)),
                      ("[d1 | d2] in", hstack(a, b) if a and b else a or b))
            msg += "; blocks: " + ", ".join(
                "%s %s" % (label, "%dx%d" % (m.nrows, m.ncols) if m else "none")
                for label, m in blocks)
        raise AssertionError(msg)
    return value


def _integer_copy(obj):
    """(copy, per_row): obj with integer d1/d2 blocks, the one conversion
    of an analysis (linalg.integer_copies); per_row is 2 when Gaussian
    blocks were realified, else 1.  An input of ints is its own copy.

    Realification is a ring map: it commutes with products, stacks and
    Tot and doubles every rank, and echelon_leads halves it again by
    reading one lead per Gaussian row.  The blocks into one target cell
    share one scale, which keeps every rank read here: a stack out of a
    cell scales its row blocks, [d1 | d2] into a cell and d1 +- d2 of a
    homogeneous pair take one scalar, a product through a cell takes the
    middle scale as a scalar, and the rows of Tot and of every
    rank-profile prefix are grouped by target cell.  d1 and d2 out of
    one cell may take different scales, so the copy need not
    anticommute: only ranks are read from it.
    """
    blocks = (obj.d1, obj.d2)
    kinds = {type(x) for d in blocks for m in d.values() for r in m.sparse for x in r.values()}
    if kinds <= {int}:
        return obj, 1
    per_row = 2 if GaussianRational in kinds else 1
    groups = {}  # target cell -> [(0 for d1 or 1 for d2, source cell)]
    for i, d in enumerate(blocks):
        for key in d:
            groups.setdefault(obj.shift(key, 1 - i, i), []).append((i, key))
    out = object.__new__(type(obj))  # obj's shifts and degrees, new spaces and blocks
    out.__dict__.update(vars(obj), dims={k: per_row * v for k, v in obj.dims.items()},
                        d1={}, d2={})
    mats = integer_copies([[blocks[i][key] for i, key in g] for g in groups.values()], per_row)
    for g, ms in zip(groups.values(), mats):
        for (i, key), m in zip(g, ms):
            (out.d1, out.d2)[i][key] = m
    return out, per_row


class _AnalysisBase:
    """Flavor/Varouchas/lemma logic from block ranks over the cells of a
    validated DoubleComplex or BidiffPair, and its memoised tot(sign).
    Every rank is taken on the integer copy (_integer_copy), built with
    the analysis, through linalg.echelon_leads.

    The lemma verdict reads vanishing numbers among the memoised ones,
    and induced_tables() builds fresh dicts from them on each call.
    Subclasses provide the total degrees, _tot_degrees() and
    _tot_prev(n), and set graded (Tot has a total grading: lemma
    conditions 5-8 and the total inequalities apply) and characterizes
    (doubled equality must coincide with the lemma) once per analysis.
    """

    def __init__(self, obj, validated):
        if not validated:
            require_valid(obj)
        self._obj = obj
        self._int, self._per_row = _integer_copy(obj)
        self._tots = {}  # (on the copy, sign) -> Tot
        self._records = {}  # key -> _record(key)
        self._cells = {}  # key -> _make_cell(key)
        self._cell_list = None  # [(key, cell)] over the support
        self._degrees = None  # _degree_table()
        self._totals = {}  # sign -> _total(sign)

    def _rank(self, m):
        """The rank of a matrix over the integer copy, in input units."""
        leads = echelon_leads(m.sparse, self._per_row)
        return len(leads) - leads.count(-1)

    def _record(self, key):
        """(n, r1, r2, r12, rO, rI) of one cell, ranked on the integer copy;
        zeros, and no rank, off the support."""
        n = self._obj.dims.get(key, 0)
        if not n:
            return _ZERO_RECORD
        obj, rank = self._int, self._rank
        shift = obj.shift
        d1, d2 = obj.d1.get(key), obj.d2.get(key)
        d1_next = obj.d1.get(shift(key, 0, 1))
        a, b = obj.d1.get(shift(key, -1, 0)), obj.d2.get(shift(key, 0, -1))
        into = hstack(a, b) if a and b else a or b
        r1 = rank(d1) if d1 else 0
        r2 = rank(d2) if d2 else 0
        return (n, r1, r2,
                rank(d1_next.mul(d2)) if d1_next and d2 else 0,
                rank(vstack(d1, d2)) if d1 and d2 else r1 + r2,
                rank(into) if into else 0)

    def _records_of(self, keys):
        """The records of keys, each built once per analysis."""
        recs = self._records
        for key in keys:
            if key not in recs:
                recs[key] = self._record(key)
        return [recs[key] for key in keys]

    def cell(self, key):
        """The values of one cell as a tuple of ints in _CELL_FORMULAS order
        (D1, D2, BC, A, V1-V6, ker BC->A; read by _D1 ... _KER_BC_A),
        built once per analysis by the compiled _cell_values."""
        c = self._cells.get(key)
        if c is None:
            c = self._cells[key] = self._make_cell(key)
        return c

    def _make_cell(self, key):
        shift = self._obj.shift
        recs = self._records_of((key, shift(key, -1, 0), shift(key, 0, -1),
                                 shift(key, -1, -1)))
        values = _cell_values(recs[0] + recs[1] + recs[2] + recs[3])
        if min(values) < 0:
            # the first negative value in table order names the broken rank
            for (name, text, _t), value in zip(_CELL_FORMULAS, values):
                _checked(value, "cell", key, name, text, recs, self._obj)
        return values

    def _cells_in_order(self):
        """[(key, cell)] over the support, in support order."""
        if self._cell_list is None:
            self._cell_list = [(k, self.cell(k)) for k in self._obj.support()]
        return self._cell_list

    def _column(self, name):
        """{key: value} of one cell value over the support."""
        i = _INDEX[name]
        return {k: c[i] for k, c in self._cells_in_order()}

    def flavor_table(self, name, keep_zeros=False):
        if name in ("TOT_PLUS", "TOT_MINUS"):
            t = self.total_table(1 if name == "TOT_PLUS" else -1)
        elif name in BIGRADED_FLAVORS:
            t = self._column(name)
        else:
            raise ValueError("unknown flavor %r" % (name,))
        return t if keep_zeros else _strip_zeros(t)

    def varouchas_tables(self, keep_zeros=False):
        out = {v: self._column(v) for v in VAROUCHAS}
        return out if keep_zeros else {v: _strip_zeros(t) for v, t in out.items()}

    def summed_identity_holds(self):
        """BC + A = D1 + D2 + V1 + V6 in every cell."""
        return all(c[_BC] + c[_A] == c[_D1] + c[_D2] + c[_V1] + c[_V6]
                   for _k, c in self._cells_in_order())

    def exactness_identities_hold(self):
        """The four alternating-sum identities of the exact sequences."""
        return all(c[_A] == c[_V1] - c[_V2] + c[_D1] + c[_V4]
                   and c[_A] == c[_V1] - c[_V3] + c[_D2] + c[_V5]
                   and c[_BC] == c[_V3] + c[_D1] - c[_V5] + c[_V6]
                   and c[_BC] == c[_V2] + c[_D2] - c[_V4] + c[_V6]
                   for _k, c in self._cells_in_order())

    # -- total-degree machinery ----------------------------------------

    def tot(self, sign):
        """Tot of the input with differential d1 + sign*d2, built once per sign."""
        return self._tot_of(self._obj, sign)

    def _tot_of(self, obj, sign):
        """Tot of obj, the input or its integer copy, built once per sign;
        an input that is its own copy has one Tot per sign."""
        key = (obj is self._int, sign)
        t = self._tots.get(key)
        if t is None:
            t = self._tots[key] = tot(obj, sign)
        return t

    def _tot_keys(self, n):
        """The cells of Tot^n."""
        return self._tot_of(self._int, 1).cells(n)

    def _tot_block(self, obj, sign, n):
        """D_n for d1 + sign*d2 of obj, the input or its integer copy."""
        return self._tot_of(obj, sign).block(n)

    def _rank_plus(self, n):
        """rk D_n for d1 + d2.  A pair has no pages to share a profile
        with, and D_n in matrix order eliminates faster than with its
        columns reversed (dim-8 symplectic analyze)."""
        return self._rank(self._tot_block(self._int, 1, n))

    def _degree_table(self):
        """{n: (records, cells, {sign: rk D_n})} over the total degrees and
        the degree before each, records and cells summed over Tot^n; built
        once.  Every degree with cells is a total degree."""
        if self._degrees is None:
            degrees, table = self._tot_degrees(), {}
            for n in sorted(set(degrees).union(map(self._tot_prev, degrees))):
                keys = self._tot_keys(n)
                table[n] = (tuple(map(sum, zip(_ZERO_RECORD, *self._records_of(keys)))),
                            tuple(map(sum, zip(_ZERO_CELL, *map(self.cell, keys)))),
                            {1: self._rank_plus(n),
                             -1: self._rank(self._tot_block(self._int, -1, n))})
            self._degrees = table  # set only when complete: a guard may raise above
        return self._degrees

    def _total(self, sign):
        """{n: (dim H^n, ker BC -> H^n, rank H^n -> A)} for d1 + sign*d2,
        checked and built once per sign.  The module docstring's
        derivation holds for deg1 == deg2 too: [d1; d2] D and D [d1 | d2]
        are still d1d2, up to sign, out of the degree before n."""
        t = self._totals.get(sign)
        if t is None:
            tag = "TOT_PLUS" if sign == 1 else "TOT_MINUS"
            table, t = self._degree_table(), {}
            for n in self._tot_degrees():
                prev = self._tot_prev(n)
                before = self._tot_prev(prev)
                recs, _cells, rk = table[n]
                r12_1, rk_prev = table[prev][0][_R12], table[prev][2][sign]
                r12_2 = table[before][0][_R12] if before in table else 0
                t[n] = (_checked(recs[0] - rk[sign] - rk_prev, "total degree", n, tag, _TOT),
                        _checked(rk_prev - r12_1 - r12_2,
                                 "total degree", n, "ker BC->" + tag, _KER_BC_TOT),
                        _checked(recs[0] - rk[sign] - recs[_RI] + r12_1,
                                 "total degree", n, "rank %s->A" % tag, _RANK_TOT_A))
            self._totals[sign] = t  # set only when complete: a guard may raise above
        return t

    def total_table(self, sign):
        return {n: h for n, (h, _ker, _into) in self._total(sign).items()}

    def tot_subquotient(self, sign, n):
        """Z/B of total degree n as subspaces.  No table reads it;
        perfbench's tracer hooks the name."""
        obj = self._obj
        return Subquotient(("TOT", sign, n), kernel(self._tot_block(obj, sign, n)),
                           image(self._tot_block(obj, sign, self._tot_prev(n))))

    def _total_row(self, n):
        """The four maps between BC, A and both total cohomologies at n."""
        cells = self._degree_table()[n][1]
        row = {}
        for sign, tag in ((1, "TOT_PLUS"), (-1, "TOT_MINUS")):
            h, ker, into = self._total(sign)[n]
            row["BC->" + tag] = _map(cells[_BC] - ker, cells[_BC], h)
            row[tag + "->A"] = _map(into, h, cells[_A])
        return row

    def lemma_verdict(self):
        """The eight lemma conditions as vanishing numbers: per cell ker and
        coker of BC -> A, V2 and V3, V4 and V5; per total degree ker
        BC -> H and coker H -> A of each sign, when Tot is graded."""
        cells = [c for _k, c in self._cells_in_order()]
        conds = {
            1: not any(c[_KER_BC_A] for c in cells),
            2: not any(c[_BC] - c[_KER_BC_A] - c[_A] for c in cells),
            3: not any(c[_V3] or c[_V2] for c in cells),
            4: not any(c[_V4] or c[_V5] for c in cells),
        }
        for sign, i in ((1, 5), (-1, 7)):
            conds[i] = conds[i + 1] = None
            if self.graded:
                t, table = self._total(sign), self._degree_table()
                conds[i] = not any(ker for _h, ker, _into in t.values())
                conds[i + 1] = not any(table[n][1][_A] - into for n, (_h, _k, into) in t.items())
        if len({v for v in conds.values() if v is not None}) != 1:
            raise PropertyFailure("lemma-equivalence",
                                  "lemma formulations disagree (engine bug): %r" % (conds,))
        return {"holds": conds[1], "conditions": conds}

    def induced_tables(self):
        """Ranks of all identity-induced maps, cellwise and, when Tot is
        graded, total-degree: fresh dicts on each call."""
        per_cell = {}
        for key, c in self._cells_in_order():
            bc, a, d1, d2 = c[_BC], c[_A], c[_D1], c[_D2]
            per_cell[key] = {
                "BC->A": _map(bc - c[_KER_BC_A], bc, a),
                "BC->D1": _map(bc - c[_V3], bc, d1),
                "BC->D2": _map(bc - c[_V2], bc, d2),
                "D1->A": _map(a - c[_V4], d1, a),
                "D2->A": _map(a - c[_V5], d2, a),
            }
        per_degree = {n: self._total_row(n) for n in self._tot_degrees()} if self.graded else {}
        return {"bigraded": per_cell, "total": per_degree}


class Analysis(_AnalysisBase):
    """All flavor data of one validated bounded double complex, cached."""

    input_kind = DoubleComplex
    graded = characterizes = True

    def __init__(self, dc, validated=False):
        super().__init__(dc, validated)
        self.dc = dc
        self._first = {}  # n -> _leads(n)

    def _leads(self, n, second=False):
        """The rank profile of D_n for d1 + d2 on the integer copy, one lead
        per row of the input's D_n, in the layout of a filtration (see
        spectral): for the first, each row's columns reversed, built once;
        for the second, the rows in reverse order."""
        leads = None if second else self._first.get(n)
        if leads is None:
            m = self._tot_block(self._int, 1, n)
            rows = m.sparse
            if second:
                rows = rows[::-1]
            else:
                w = m.ncols - 1
                rows = [{w - c: x for c, x in r.items()} for r in rows]
            leads = echelon_leads(rows, self._per_row)
            if not second:
                self._first[n] = leads
        return leads

    def _rank_plus(self, n):
        """rk D_n for d1 + d2: the number of leads of the first
        filtration's profile, which the spectral pages read too."""
        leads = self._leads(n)
        return len(leads) - leads.count(-1)

    @classmethod
    def of(cls, obj):
        """obj itself when it is an Analysis, else the Analysis of obj,
        a DoubleComplex, validated first.  Anything else (a BidiffPair or
        its PairAnalysis too) raises ValueError before anything is built."""
        return _analysis_of(obj, (cls,))

    def _tot_degrees(self):
        lo, hi = self.dc.total_range()
        return range(lo, hi + 1)

    def _tot_prev(self, n):
        return n - 1

    def total_degree_sums(self, name):
        """Flavor table summed along antidiagonals: {n: sum over p+q=n},
        over the total degrees that have cells."""
        i = _INDEX[name]
        return {n: row[1][i] for n, row in self._degree_table().items() if row[0][0]}


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

    input_kind = BidiffPair

    def __init__(self, bp, validated=False):
        super().__init__(bp, validated)
        self.bp = bp
        self.delta = bp.deg1 - bp.deg2
        self.graded = self.delta != 0
        self.characterizes = self.graded and gcd(bp.deg1, bp.deg2) == 1

    def _tot_degrees(self):
        """Residues mod |delta|, or the plain degrees when delta == 0."""
        return range(abs(self.delta)) if self.delta else self.bp.support()

    def _tot_prev(self, n):
        # Tot Doub is periodic in n; with delta == 0, d1 +- d2 has degree deg1
        return (n - 1) % abs(self.delta) if self.delta else n - self.bp.deg1

    def _tot_keys(self, n):
        # with delta == 0, Tot^n is the degree n itself
        return super()._tot_keys(n) if self.delta else [n] if n in self.bp.dims else []

    def _tot_block(self, obj, sign, n):
        if self.delta:
            return super()._tot_block(obj, sign, n)
        return obj.d1_block(n).add(obj.d2_block(n).scale(sign))

    def total_degree_sums(self, name):
        """Flavor dims summed the way the total grading groups them.

        For deg1 != deg2 the total complex in degree n collects the
        plain degrees congruent to deg2*n mod (deg1 - deg2), and those
        sums repeat with period |delta|; one value per n in
        range(|delta|).  For deg1 == deg2 the flavor table itself is
        returned (total cohomology is graded by plain degrees there).
        """
        i = _INDEX[name]
        table = self._degree_table()
        return {n: table[n][1][i] for n in self._tot_degrees()}


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


def _analysis_of(obj, kinds):
    """obj itself when it is an instance of one of the analysis classes
    kinds, else the analysis of obj when obj is the input of one of them
    (validated first).  Anything else raises ValueError naming the
    accepted inputs, before anything is built."""
    for kind in kinds:
        if isinstance(obj, kind):
            return obj
        if isinstance(obj, kind.input_kind):
            return kind(obj)
    raise ValueError("expected %s, got %s" % (
        ", or ".join("a %s or its %s" % (k.input_kind.__name__, k.__name__)
                     for k in kinds),
        type(obj).__name__))


def _analysis_for(obj):
    return _analysis_of(obj, (Analysis, PairAnalysis))


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

    The one place the paper's inequalities and its equality
    characterization are checked.  Each failure raises PropertyFailure
    naming its property, in this order.  Per total degree n the two
    total cohomologies must agree (total-cohomology), and three slacks,
    recorded in the report, must not be negative:

      refined:    (sum BC + sum A) - (sum D1 + sum D2) >= 0   refined-inequality
      classical:  min(sum D1, sum D2) - dim TOT        >= 0   classical-frolicher
      doubled:    (sum BC + sum A) - 2 dim TOT_+-      >= 0   doubled-inequality

    Then equality of the doubled inequality (plus sign, all degrees) must
    coincide with the lemma verdict, and when the lemma holds the refined
    inequality must be an equality (both equality-characterization).  The
    second is cellwise: under the lemma every identity-induced map is an
    isomorphism, so BC = A = D1 = D2 in each cell.  In Varouchas terms,
    V1 lies in ker(BC -> A), BC -> D1, D2 injective kill V3, V2 and
    D1, D2 -> A surjective kill V4, V5; the exact sequences then give
    A = D1 = D2 and BC = D1 + V6, and BC = A kills V6.  The converse
    fails: a lone segment has no refined slack and no lemma.

    Pairs are graded by residue classes of the total degree.  When the
    two differentials have equal degrees there is no total grading at
    all (graded is False): only the refined inequality survives (it is
    cellwise), the two total tables may legitimately differ, and the
    equality flags come back None.  The doubled equality-lemma
    cross-check also needs the two degrees to be coprime
    (characterizes), since the total complex only ever sees the part of
    the space sitting in degrees divisible by their gcd.
    """
    a = _analysis_for(obj)
    tables = {f: a.flavor_table(f, keep_zeros=True) for f in FLAVORS}
    var = a.varouchas_tables(keep_zeros=True)
    verdict = a.lemma_verdict()

    sums = {f: a.total_degree_sums(f) for f in BIGRADED_FLAVORS}
    tot_plus = a.total_table(1)
    tot_minus = a.total_table(-1)
    slack = {"refined": {}}
    if a.graded:
        slack.update({"classical": {}, "doubled_plus": {}, "doubled_minus": {}})
    for n in a._tot_degrees():
        d1, d2, bc, aa = (sums[f].get(n, 0) for f in BIGRADED_FLAVORS)
        tp, tm = tot_plus[n], tot_minus[n]
        checked = [("refined", "refined-inequality", (bc + aa) - (d1 + d2))]
        if a.graded:
            if tp != tm:
                raise PropertyFailure("total-cohomology",
                                      "the two signs differ at degree %d: %d vs %d"
                                      % (n, tp, tm))
            checked += [
                ("classical", "classical-frolicher", min(d1, d2) - tp),
                ("doubled_plus", "doubled-inequality", (bc + aa) - 2 * tp),
                ("doubled_minus", "doubled-inequality", (bc + aa) - 2 * tm),
            ]
        for kind, prop, s in checked:
            slack[kind][n] = s
            if s < 0:
                raise PropertyFailure(prop, "%s inequality violated at degree %d (slack %d)"
                                      % (kind, n, s))
    holds = verdict["holds"]
    refined_eq = not any(slack["refined"].values())
    verdicts = {
        "lemma_holds": holds,
        "lemma_conditions": verdict["conditions"],
        "thm_refined_equality": refined_eq,
        "cor_equality_plus": None,
        "cor_equality_minus": None,
    }
    if a.graded:
        verdicts["cor_equality_plus"] = not any(slack["doubled_plus"].values())
        verdicts["cor_equality_minus"] = not any(slack["doubled_minus"].values())
        if a.characterizes and verdicts["cor_equality_plus"] != holds:
            raise PropertyFailure("equality-characterization",
                                  "doubled equality %r but lemma %r"
                                  % (verdicts["cor_equality_plus"], holds))
    if holds and not refined_eq:
        raise PropertyFailure("equality-characterization",
                              "lemma holds but refined inequality is strict")
    return CohomReport(tables, var, a.induced_tables(), verdicts, slack)
