"""The subspace engines, kept as references for the rank-based code.

Each cell's kernels and images are built as Subspaces, and every flavor,
Varouchas quotient and induced map is read off their sums and
intersections through Subquotient and induced_rank.  The total-degree
maps compare the direct sums of the cells' BC and A subquotients, placed
at their coordinates in Tot^n, with the kernel and image of the Tot
differential of each sign.  Total tables come from GradedComplex and
doub_total_cohomology.  Nothing here shares a formula with
cohomlab.cohomology's rank table.

hard_lefschetz and primitive_and_lefschetz_decomposition are the
subspace versions of cohomlab.geometry's: de Rham subquotients, maps
induced by L^k on them, Zassenhaus intersections and subspace sums.

gram_by_minors is the Gram matrix of the symplectic pairing as
cohomlab.geometry once built it, one determinant per minor; geometry
now reads it as an exterior compound.  fraction_calculus is the
symplectic operator calculus in Fraction arithmetic on Matrix objects,
as geometry once computed it, with those Gram matrices; geometry now
carries each operator as one rational scale times integer rows.
"""

from cohomlab import linalg
from cohomlab.cohomology import IllFormedMap, Subquotient, induced_rank
from cohomlab.complexes import DoubleComplex, tot
from fractions import Fraction
from math import factorial

from cohomlab.exterior import (basis_positions, derivation_matrix, merge_sign,
                               multi_indices, wedge, wedge_power)
from cohomlab.geometry import _dim, _get
from cohomlab.linalg import Matrix, Subspace, image, kernel, quotient_dim, rank

def map_subspace(m, s):
    """Image of the subspace s under the matrix m."""
    if m.ncols != s.n:
        raise ValueError("ambient dimension mismatch")
    return image(m.mul(s.basis_matrix().transpose()))


def doub_total_cohomology(bp, sign=1):
    """dim H^n(Tot Doub, d1 + sign*d2) for one n per residue class.

    H^n depends on n only through n mod (deg1 - deg2): shifting n by the
    period reproduces the same summands and blocks, so the rank into
    degree r is the rank out of degree (r - 1) mod the period.  Returns
    {residue: dim} for residues 0 .. |deg1-deg2| - 1.
    """
    t = tot(bp, sign)
    delta = abs(bp.deg1 - bp.deg2)
    rk_out = [rank(t.block(r)) for r in range(delta)]
    return {r: t.dim(r) - rk_out[(r - 1) % delta] - rk_out[r] for r in range(delta)}


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
    # Doub^{p,q} = A^{e1*p + e2*q}; Tot Doub repeats with period delta,
    # so the block into residue 0 is the one out of residue delta - 1
    tots = {sign: tot(bp, sign) for sign in (1, -1)}
    layout = {n: [(e1 * p + e2 * q, off) for p, q, off, _d in tots[1].summands(n)]
              for n in range(delta)}
    totals = {sign: doub_total_cohomology(bp, sign) for sign in (1, -1)}
    return cells, totals, _total_rows(
        cells, layout, lambda s, n: tots[s].block(n % delta))


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


# -- symplectic sections -------------------------------------------------------


def _de_rham_subquotients(ops):
    """{k: Subquotient} for the d-cohomology on Lambda^k."""
    return {k: Subquotient(("H_d", k), kernel(ops.d[k]),
                           image(_get(ops.d, ops.n, k - 1, 1)))
            for k in range(ops.n + 1)}


def _induced_map_rank(m, src, dst):
    """Rank of the map the matrix m induces from src to dst, after
    checking that m maps numerator into numerator and denominator into
    denominator."""
    mz = map_subspace(m, src.Z)
    if not dst.Z.contains(mz):
        raise IllFormedMap("matrix does not map numerator into numerator")
    if not dst.B.contains(map_subspace(m, src.B)):
        raise IllFormedMap("matrix does not map denominator into denominator")
    return mz.sum(dst.B).dim - dst.B.dim


def _power_of_L(ops, s, r):
    """L^r on Lambda^s as one matrix."""
    mat = Matrix.identity(_dim(ops.n, s))
    for t in range(r):
        mat = ops.L[s + 2 * t].mul(mat)
    return mat


def hard_lefschetz(ops):
    """{"lefschetz_iso", "betti"} from de Rham subquotients."""
    hq = _de_rham_subquotients(ops)
    m = ops.m
    iso = {}
    for k in range(m + 1):
        r = _induced_map_rank(_power_of_L(ops, m - k, k), hq[m - k], hq[m + k])
        iso[k] = r == hq[m - k].dim and r == hq[m + k].dim
    return {"lefschetz_iso": iso, "betti": {k: q.dim for k, q in hq.items()}}


def primitive_and_lefschetz_decomposition(ops):
    """{"primitive", "per_degree"} from subspace intersections and sums."""
    n = ops.n
    ker_d = {k: kernel(ops.d[k]) for k in range(n + 1)}
    ker_dlam = {k: kernel(ops.d_lam[k]) for k in range(n + 1)}
    ker_lam = {k: kernel(ops.Lam[k]) for k in range(n + 1)}
    primitive = {}
    for k in range(n + 1):
        znum = ker_d[k].intersect(ker_dlam[k]).intersect(ker_lam[k])
        if k == 0:
            bden = Subspace.zero(_dim(n, 0))
        else:
            bden = map_subspace(ops.d[k - 1], ker_dlam[k - 1].intersect(ker_lam[k - 1]))
        primitive[k] = quotient_dim(znum, bden)
    per_degree = {}
    for j in range(n + 1):
        b = image(_get(ops.d, n, j - 1, 1))
        parts = [map_subspace(_power_of_L(ops, j - 2 * r, r),
                              ker_d[j - 2 * r].intersect(ker_lam[j - 2 * r])).sum(b)
                 for r in range(j // 2 + 1)]
        total = b
        for u in parts:
            total = total.sum(u)
        indep_sum = sum(u.dim - b.dim for u in parts)
        per_degree[j] = (total.dim - b.dim == indep_sum
                         and indep_sum == quotient_dim(ker_d[j], b))
    return {"primitive": primitive, "per_degree": per_degree}


def gram_by_minors(p_mat, k):
    """The Gram matrix of the pairing p_mat on Lambda^k: entry (a, b) is
    the determinant of the k-by-k minor on rows a and columns b."""
    idx = multi_indices(p_mat.ncols, k)
    return Matrix([[linalg.det(Matrix([[p_mat.rows[i][j] for j in b] for i in a], k))
                    for b in idx] for a in idx], len(idx))


def fraction_calculus(sd):
    """{"v0", "star", "L", "Lam", "d_lam"} of the symplectic data sd, in
    Fraction arithmetic: the star reads the Gram matrices of
    gram_by_minors times v0 = (omega^m / m!)_top, L is omega ^ . on the
    rational omega, Lambda = star L star and d_lam = d Lambda - Lambda d,
    every product a Matrix.mul."""
    n = sd.lie.n
    m = n // 2
    omega = sd.omega_form()
    p_mat = linalg.mat_inverse(sd.omega_matrix())
    v0 = Fraction(wedge_power(omega, m).get(tuple(range(n)), 0), factorial(m))
    d = {k: derivation_matrix(n, sd.lie.dgen(), k) for k in range(n + 1)}
    star, L = {}, {}
    for k in range(n + 1):
        idx = multi_indices(n, k)
        gram = gram_by_minors(p_mat, k)
        rows = [[0] * len(idx) for _ in range(_dim(n, n - k))]
        cpos = basis_positions(n, n - k)
        for i, a in enumerate(idx):
            comp = tuple(x for x in range(n) if x not in a)
            sgn = merge_sign(a, comp)[0]
            for j in range(len(idx)):
                rows[cpos[comp]][j] = sgn * gram.rows[i][j] * v0
        star[k] = Matrix(rows, len(idx))
        rows = [[0] * len(idx) for _ in range(_dim(n, k + 2))]
        for j, b in enumerate(idx):
            for mono, c in wedge(omega, {b: 1}).items():
                rows[basis_positions(n, k + 2)[mono]][j] = c
        L[k] = Matrix(rows, len(idx))
    lam = {k: star[n - k + 2].mul(L[n - k]).mul(star[k]) if k >= 2
           else Matrix.zero(0, _dim(n, k)) for k in range(n + 1)}
    d_lam = {k: _get(d, n, k - 2, 1).mul(lam[k]).add(
        _get(lam, n, k + 1, -2).mul(d[k]).scale(-1)) for k in range(n + 1)}
    return {"v0": v0, "star": star, "L": L, "Lam": lam, "d_lam": d_lam}
