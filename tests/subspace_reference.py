"""The subspace cell engine, kept as a reference for the rank table.

Each cell's kernels and images are built as Subspaces, and every flavor,
Varouchas quotient and induced map is read off their sums and
intersections through Subquotient and induced_rank.  The total-degree
maps compare the direct sums of the cells' BC and A subquotients, placed
at their coordinates in Tot^n, with the kernel and image of the Tot
differential of each sign.  Total tables come from GradedComplex and
doub_total_cohomology.  Nothing here shares a formula with
cohomlab.cohomology's rank table.
"""

from cohomlab.cohomology import Subquotient, induced_rank
from cohomlab.complexes import (
    DoubleComplex,
    doub_tot_summands,
    doub_total_block,
    doub_total_cohomology,
    tot,
)
from cohomlab.linalg import Subspace, image, kernel, quotient_dim, rank

CELL_MAPS = (
    ("BC->A", "BC", "A"),
    ("BC->D1", "BC", "D1"),
    ("BC->D2", "BC", "D2"),
    ("D1->A", "D1", "A"),
    ("D2->A", "D2", "A"),
)


class _Cell:
    def __init__(self, out1, out2, in1, in2, out11, in_prev):
        """out1/out2 leave the cell; in1/in2 enter it; out11 is d1 after
        out2 (d1 d2 out of the cell); in_prev is d2 before in1 (im d1 d2)."""
        ker1, ker2 = kernel(out1), kernel(out2)
        im1, im2 = image(in1), image(in2)
        self.ker12 = kernel(out11.mul(out2))
        self.im12 = image(in1.mul(in_prev))
        self.zbc = ker1.intersect(ker2)
        self.ba = im1.sum(im2)
        self.sq = {
            "D1": Subquotient("D1", ker1, im1),
            "D2": Subquotient("D2", ker2, im2),
            "BC": Subquotient("BC", self.zbc, self.im12),
            "A": Subquotient("A", self.ker12, self.ba),
        }
        self.var = {
            "V1": quotient_dim(im1.intersect(im2), self.im12),
            "V2": quotient_dim(ker1.intersect(im2), self.im12),
            "V3": quotient_dim(ker2.intersect(im1), self.im12),
            "V4": quotient_dim(self.ker12, ker1.sum(im2)),
            "V5": quotient_dim(self.ker12, ker2.sum(im1)),
            "V6": quotient_dim(self.ker12, ker1.sum(ker2)),
        }
        self.maps = {name: induced_rank(self.sq[s], self.sq[d]).as_dict()
                     for name, s, d in CELL_MAPS}


def _embedded(parts, n):
    """Direct sum of (offset, Subspace) blocks inside K^n."""
    rows = []
    for off, s in parts:
        for r in s.rows:
            row = [0] * n
            row[off:off + s.n] = r
            rows.append(row)
    return Subspace(rows, n)


def _total_rows(cells, layout, block):
    """{n: the four BC/TOT/A maps}; layout[n] is [(key, offset)] and
    block(sign, n) the Tot differential out of degree n."""
    out = {}
    for n, parts in layout.items():
        dim = block(1, n).ncols
        cs = [(off, cells[key]) for key, off in parts]
        bc = Subquotient("BC", _embedded([(o, c.zbc) for o, c in cs], dim),
                         _embedded([(o, c.im12) for o, c in cs], dim))
        a = Subquotient("A", _embedded([(o, c.ker12) for o, c in cs], dim),
                        _embedded([(o, c.ba) for o, c in cs], dim))
        row = {}
        for sign, tag in ((1, "TOT_PLUS"), (-1, "TOT_MINUS")):
            h = Subquotient(tag, kernel(block(sign, n)), image(block(sign, n - 1)))
            row["BC->" + tag] = induced_rank(bc, h).as_dict()
            row[tag + "->A"] = induced_rank(h, a).as_dict()
        out[n] = row
    return out


def _dc_reference(dc):
    cells = {
        (p, q): _Cell(dc.d1_block(p, q), dc.d2_block(p, q), dc.d1_block(p - 1, q),
                      dc.d2_block(p, q - 1), dc.d1_block(p, q + 1),
                      dc.d2_block(p - 1, q - 1))
        for p, q in dc.support()}
    tots = {sign: tot(dc, sign) for sign in (1, -1)}
    lo, hi = dc.total_range()
    layout = {n: [((p, q), off) for p, q, off, _d in tots[1].summands(n)]
              for n in range(lo, hi + 1)}
    totals = {sign: t.cohomology() for sign, t in tots.items()}
    return cells, totals, _total_rows(cells, layout, lambda s, n: tots[s].block(n))


def _pair_reference(bp):
    e1, e2 = bp.deg1, bp.deg2
    cells = {
        k: _Cell(bp.d1_block(k), bp.d2_block(k), bp.d1_block(k - e1),
                 bp.d2_block(k - e2), bp.d1_block(k + e2), bp.d2_block(k - e1 - e2))
        for k in bp.support()}
    delta = abs(e1 - e2)
    if not delta:
        totals = {}
        for sign in (1, -1):
            def rk(k, sign=sign):
                return rank(bp.d1_block(k).add(bp.d2_block(k).scale(sign)))
            totals[sign] = {k: bp.dim(k) - rk(k) - rk(k - e1) for k in bp.support()}
        return cells, totals, {}
    layout = {}
    for n in range(delta):
        off, parts = 0, []
        for _p, k in doub_tot_summands(bp, n):
            parts.append((k, off))
            off += bp.dim(k)
        layout[n] = parts
    totals = {sign: doub_total_cohomology(bp, sign) for sign in (1, -1)}
    return cells, totals, _total_rows(
        cells, layout, lambda s, n: doub_total_block(bp, n, s))


def reference(obj):
    """Every table, Varouchas quotient and induced map of a complex or pair,
    shaped as the rank-table analysis reports them (zeros kept)."""
    if isinstance(obj, DoubleComplex):
        cells, totals, rows = _dc_reference(obj)
    else:
        cells, totals, rows = _pair_reference(obj)
    return {
        "tables": {f: {k: c.sq[f].dim for k, c in cells.items()}
                   for f in ("D1", "D2", "BC", "A")},
        "varouchas": {v: {k: c.var[v] for k, c in cells.items()}
                      for v in ("V1", "V2", "V3", "V4", "V5", "V6")},
        "TOT_PLUS": totals[1],
        "TOT_MINUS": totals[-1],
        "induced": {"bigraded": {k: c.maps for k, c in cells.items()},
                    "total": rows},
    }


def engine_view(a):
    """The same record read from a cohomlab analysis."""
    return {
        "tables": {f: a.flavor_table(f, keep_zeros=True)
                   for f in ("D1", "D2", "BC", "A")},
        "varouchas": a.varouchas_tables(keep_zeros=True),
        "TOT_PLUS": a.total_table(1),
        "TOT_MINUS": a.total_table(-1),
        "induced": a.induced_tables(),
    }
