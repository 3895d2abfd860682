"""Exact linear algebra over QQ and QQ(i).

Matrices act on column vectors: an m-by-n matrix is a map K^n -> K^m.
Matrix stores its rows sparse: Matrix.sparse holds one dict
{column: nonzero entry} per row, the entries int / Fraction /
GaussianRational, and no row stores a zero.  Shapes are tracked
explicitly so matrices with zero rows or columns keep their ambient
dimensions (these show up constantly as boundary maps of complexes with
missing neighbours).  Matrix(rows, ncols) is the validating constructor
for dense input (documents, the random shapes, tests); the builders of
complexes and operators write sparse rows and wrap them with
Matrix.from_sparse.  Every product is one walk over the nonzeros of
both operands (_product); sums, scalings, transposes and stacks work on
the dicts too, and rank and rank_profile hand them to the elimination
as they are.  Matrix.rows is a dense view, a fresh list of lists on
every read, read only at the edges: by io's reproducer writer, and by
rref, kernel, image, mat_inverse and det, whose eliminations take dense
rows (the benchmark tracer hooks _rref_rows and det by name and reads
their entries).

Subspaces are stored as the row space of a basis in reduced row echelon
form, kept as sparse rows (Subspace.basis; Subspace.rows is their dense
view).  RREF is a canonical representative, so subspace equality is
plain comparison of the bases and every lattice operation lands back in
canonical form for free.

Every row reduction but det's is one echelon insertion on sparse integer
rows (_echelon): a row is a dict {column: nonzero int}, and rows are
reduced in order, division-free, against a basis keyed by lead column,
the smallest column left in a row.  Integer rows reach it two ways.  An
analysis converts its blocks once (integer_copies): a Gaussian matrix
becomes its realification, entry a+bi the 2x2 block [[a, b], [-b, a]],
and each group of blocks into one cell is cleared by one integer scale;
it then eliminates those rows through echelon_leads, which takes them as
they are.  The library's rank, rank_profile, rref, kernel and
mat_inverse take exact rows of any kind through one dispatch per call
(_integer_rows): an integer row enters as a copy, a row with a Fraction
is scaled to an integer row with the same span, and a Gaussian row is
split into the interleaved real rows of v and i*v, the rows of its
realification.  GaussianRational keeps integral parts as ints, so the
split rows of a Gaussian-integer row are integer rows as they are; only
a row with a Fraction part is scaled.
rank is the number of leads.  rank_profile is the leads themselves,
which give the ranks of all row prefixes x column prefixes from one
pass; echelon_leads gives the same leads, and an analysis counts its
ranks and reads its spectral pages from them.  RREF, and with it
kernel, image, mat_inverse and the subspace lattice, is that echelon
basis plus back-substitution on the sparse rows (_rref_rows, which
takes dense rows).  Containment is no new lead: s.contains(t) when,
after the rows of s, no row of t gets one.

det keeps its own elimination and has no caller in the package: the
benchmark tracer (perfbench/tracer.py) still hooks it by name, and it
goes together with that hook.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalars import GaussianRational, demote

__all__ = [
    "Matrix",
    "NotASubspace",
    "Subspace",
    "det",
    "image",
    "kernel",
    "mat_inverse",
    "preimage",
    "quotient_dim",
    "rank",
    "rank_profile",
    "rref",
]


class NotASubspace(Exception):
    """Raised when a claimed inclusion of subspaces does not hold."""


class Matrix:
    """Exact matrix with sparse rows {column: nonzero entry} of int /
    Fraction / GaussianRational."""

    __slots__ = ("nrows", "ncols", "sparse")

    def __init__(self, rows, ncols=None):
        """The matrix of dense rows, checked to be of one length ncols."""
        rows = [list(r) for r in rows]
        if rows:
            n = len(rows[0])
            for r in rows:
                if len(r) != n:
                    raise ValueError("ragged rows")
            if ncols is not None and ncols != n:
                raise ValueError("ncols disagrees with row length")
            ncols = n
        elif ncols is None:
            raise ValueError("ncols required for a matrix with no rows")
        self.sparse = [{c: x for c, x in enumerate(r) if x} for r in rows]
        self.nrows = len(rows)
        self.ncols = ncols

    @classmethod
    def from_sparse(cls, rows, ncols):
        """The matrix of sparse rows, taken as they are: each a dict
        {column: nonzero entry} with columns below ncols."""
        self = cls.__new__(cls)
        self.sparse = rows
        self.nrows = len(rows)
        self.ncols = ncols
        return self

    @property
    def rows(self):
        """Dense view: a fresh list of entries per row."""
        return _dense(self.sparse, self.ncols)

    @classmethod
    def zero(cls, m, n):
        return cls.from_sparse([{} for _ in range(m)], n)

    @classmethod
    def identity(cls, n):
        return cls.from_sparse([{i: 1} for i in range(n)], n)

    def is_zero(self):
        return not any(self.sparse)

    def mul(self, other):
        """self @ other (composition: apply other first)."""
        if self.ncols != other.nrows:
            raise ValueError(
                "shape mismatch: %dx%d times %dx%d"
                % (self.nrows, self.ncols, other.nrows, other.ncols)
            )
        return Matrix.from_sparse(_product(self.sparse, other.sparse), other.ncols)

    def add(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in add")
        return Matrix.from_sparse(
            [_lincomb(1, r1, 1, r2) for r1, r2 in zip(self.sparse, other.sparse)],
            self.ncols,
        )

    def scale(self, c):
        return Matrix.from_sparse([_lincomb(c, r, 0, {}) for r in self.sparse], self.ncols)

    def transpose(self):
        cols = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self.sparse):
            for j, x in row.items():
                cols[j][i] = x
        return Matrix.from_sparse(cols, self.nrows)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.nrows, self.ncols, self.sparse) == (other.nrows, other.ncols, other.sparse)

    def __hash__(self):
        return hash((self.nrows, self.ncols))

    def __repr__(self):
        return "Matrix(%d x %d)" % (self.nrows, self.ncols)


def _dense(rows, ncols):
    """Sparse rows written out as lists of width ncols."""
    out = []
    for r in rows:
        row = [0] * ncols
        for c, x in r.items():
            row[c] = x
        out.append(row)
    return out


def _product(arows, brows):
    """The sparse rows of arows @ brows, from the nonzeros of both."""
    out = []
    for arow in arows:
        acc = {}
        for k, a in arow.items():
            for j, b in brows[k].items():
                acc[j] = acc.get(j, 0) + a * b
        out.append({j: x for j, x in acc.items() if x})
    return out


def _lincomb(p, u, q, v):
    """The sparse row p*u + q*v, storing no zero; a zero p or q drops
    its row."""
    out = {c: p * x for c, x in u.items()} if p else {}
    if q:
        for c, y in v.items():
            x = out.get(c, 0) + q * y
            if x:
                out[c] = x
            else:
                del out[c]
    return out


def _int_rows(rows):
    """(den, int rows): sparse rational rows scaled by one common den, the
    lcm of all their denominators; the one clearing routine."""
    den = lcm(*{x.denominator for r in rows for x in r.values()})
    return den, [{c: x.numerator * (den // x.denominator) for c, x in r.items()}
                 for r in rows]


def _scaled(num, den, rows):
    """Integer rows times num/den, ints where integral: the one restoring routine."""
    out = []
    for r in rows:
        row = {}
        for c, x in r.items():
            y = num * x
            row[c] = y // den if not y % den else Fraction(y, den)
        out.append(row)
    return out


def hstack(a, b):
    if a.nrows != b.nrows:
        raise ValueError("hstack: row count mismatch")
    n = a.ncols
    return Matrix.from_sparse(
        [{**r1, **{c + n: x for c, x in r2.items()}} for r1, r2 in zip(a.sparse, b.sparse)],
        n + b.ncols,
    )


def vstack(a, b):
    if a.ncols != b.ncols:
        raise ValueError("vstack: column count mismatch")
    return Matrix.from_sparse(a.sparse + b.sparse, a.ncols)


# ---------------------------------------------------------------------------
# row reduction


def _integer_rows(rows):
    """(int rows, per_row): exact sparse rows as integer rows for _echelon.

    A sparse row is a dict {column: nonzero entry}.  An integer row
    enters as a copy, since _echelon edits its rows in place and matrices
    may share row dicts, and a row with a Fraction through _int_rows,
    which keeps its span: one sparse row each.  A Gaussian row v enters
    as the split rows of v and i*v (_split_rows): two each.  Parts are
    ints when integral (see scalars), so a Gaussian-integer row splits
    into int rows as it is, and only a row with a Fraction part is
    cleared, by one lcm over the denominators of its nonzero parts.  The
    span of the split rows is closed under i, so the pivots of its
    rational RREF come in pairs (2c, 2c+1), the rows at even pivots
    decode to the Gaussian RREF, and the split leads of a row fall on
    one Gaussian column.
    """
    kinds = {type(x) for v in rows for x in v.values()}
    if kinds <= {int}:
        return [dict(v) for v in rows], 1
    if GaussianRational not in kinds:
        return [_int_rows([v])[1][0]
                if Fraction in {type(x) for x in v.values()} else dict(v)
                for v in rows], 1
    split = []
    for v in rows:
        pair = _split_rows(v)
        if Fraction in {type(x) for x in pair[0].values()}:
            pair = _int_rows(pair)[1]
        split += pair
    return split, 2


def _split_rows(v):
    """[w, iw]: the split rows of a sparse row v and of i*v, the (re, im)
    parts of column c at columns 2c and 2c+1.  i*(a + bi) = -b + ai, so
    iw holds -b at 2c and a at 2c+1."""
    w, iw = {}, {}
    for c, x in v.items():
        if type(x) is GaussianRational:
            a, b = x.re, x.im
            if b:
                w[2 * c + 1] = b
                iw[2 * c] = -b
        else:
            a = x
        if a:
            w[2 * c] = a
            iw[2 * c + 1] = a
    return [w, iw]


def integer_copies(groups, per_row):
    """Integer matrices with the ranks of the matrices of groups, a list
    of lists, in the same nesting: an analysis's integer copy (see
    cohomology._integer_copy for the ranks it keeps).

    With per_row 2 every matrix is realified: entry a+bi at (r, c)
    becomes the 2x2 block [[a, b], [-b, a]] at rows 2r, 2r+1 and columns
    2c, 2c+1, the split rows of v and i*v that _integer_rows builds.  A
    group holding a Fraction is then cleared by one integer, the lcm of
    its denominators (_int_rows), a scalar on all its rows.  A group of
    integer rows shares its row dicts with the input: no reader of the
    copy edits a row.
    """
    out = []
    for group in groups:
        rows = []
        for m in group:
            if per_row == 2:
                for v in m.sparse:
                    rows += _split_rows(v)
            else:
                rows += m.sparse
        if Fraction in {type(x) for r in rows for x in r.values()}:
            rows = _int_rows(rows)[1]
        mats, at = [], 0
        for m in group:
            nrows = per_row * m.nrows
            mats.append(Matrix.from_sparse(rows[at:at + nrows], per_row * m.ncols))
            at += nrows
        out.append(mats)
    return out


def _gaussian_leads(leads):
    """One lead per Gaussian row from the leads of its two split rows,
    which must fall on one Gaussian column."""
    out = [x // 2 for x in leads[::2]]
    if out != [y // 2 for y in leads[1::2]]:
        raise AssertionError("rank_profile: split leads of a Gaussian row disagree")
    return out


def echelon_leads(rows, per_row=1):
    """The rank profile (as rank_profile) of sparse integer rows taken as
    they are: no type scan, split or clearing.  The entry for rows that
    are integers already, as an analysis's integer copy holds them; the
    rows are copied, since _echelon edits its rows in place.  With
    per_row 2 the rows are the split rows of Gaussian rows (as realified
    by integer_copies), and the leads come back one per Gaussian row, on
    Gaussian columns; the rank is the number of leads that are not -1.
    """
    leads = _echelon([dict(r) for r in rows])[1]
    return leads if per_row == 1 else _gaussian_leads(leads)


def _reduce(v, w, c):
    """v cleared at column c by the basis row w, in place where it can be:
    p*v - a*w with p = w[c], a = v[c], both divided by gcd(p, a) first
    and p made positive.  Only a p above 1 scales v, and only then is
    the row's content divided out, which keeps its entries small."""
    p, a = w[c], v[c]
    g = gcd(p, a)
    if p < 0:
        g = -g
    if g != 1:
        p, a = p // g, a // g
    if p != 1:
        v = {k: p * x for k, x in v.items()}
    for k, y in w.items():
        x = v.get(k, 0) - a * y
        if x:
            v[k] = x
        else:
            del v[k]
    if p != 1 and v:
        g = gcd(*v.values())
        if g != 1:
            v = {k: x // g for k, x in v.items()}
    return v


def _echelon(rows):
    """(basis, leads): sparse integer rows inserted in order into an
    echelon basis.

    The one row reduction; it consumes the rows of _integer_rows and
    the copies echelon_leads makes.  A row's lead is the smallest
    column left in it.  While a basis row leads there, the row is
    cleared at its lead by that basis row (_reduce), division-free, so
    it stays on integers.  Otherwise it joins the basis there, as the
    row reduced so far.  leads holds one lead per row, -1 for a row in
    the span of the rows before it (it emptied out).  basis maps lead
    column -> row, and each basis row is keyed by its smallest column
    and stores no zero.
    """
    basis = {}
    leads = []
    for v in rows:
        lead = -1
        while v:
            c = min(v)
            w = basis.get(c)
            if w is None:
                basis[c] = v
                lead = c
                break
            v = _reduce(v, w, c)
        leads.append(lead)
    return basis, leads


def _rref_rows(rows, ncols):
    """Canonical RREF (sparse rows, pivot columns) of any dense exact rows
    of width ncols (unread here; the benchmark tracer's hook reads it).

    The _echelon basis of the _integer_rows, cleared from the right:
    each basis row, taken from the last lead back, is reduced against
    the already cleared rows at the later pivots it holds, then divided
    by its pivot.  Over Q(i) the rows at even split pivots decode to the
    Gaussian rows (see _integer_rows).  The rows come in dense, as the
    subspace lattice holds them: the benchmark tracer reads their entries.
    """
    int_rows, per_row = _integer_rows(
        [{c: x for c, x in enumerate(r) if x} for r in rows])
    basis = _echelon(int_rows)[0]
    pivots = sorted(basis)
    for c in reversed(pivots):
        v = basis[c]
        # the rows at later pivots are cleared already, so they vanish
        # at every pivot but their own and the order of reduction is free
        for q in [q for q in v if q != c and q in basis]:
            v = _reduce(v, basis[q], q)
        basis[c] = v
    out, out_pivots = [], []
    for c in pivots:
        if per_row == 2 and c % 2:
            continue
        v = basis[c]
        (row,) = _scaled(1, v[c], [v])
        if per_row == 2:
            row = {g: GaussianRational(row.get(2 * g, 0), row[2 * g + 1])
                   if 2 * g + 1 in row else row[2 * g] for g in {k // 2 for k in row}}
        out.append(row)
        out_pivots.append(c // per_row)
    return out, out_pivots


def rref(m):
    """Reduced row echelon form.  Returns (Matrix, rank).

    The result is the canonical RREF: pivots are 1, pivot columns are
    strictly increasing and cleared above and below, zero rows dropped.
    """
    rows, pivots = _rref_rows(m.rows, m.ncols)
    return Matrix.from_sparse(rows, m.ncols), len(pivots)


def rank(m):
    """Rank of m, the number of _echelon leads; 0 for a matrix with no
    rows or no columns.  The rank does not depend on the order of the
    rows, so they are eliminated sparsest first: the sparse rows build a
    sparse basis before the dense rows are cleared against it."""
    rows, per_row = _integer_rows(m.sparse)
    rows.sort(key=len)
    return len(_echelon(rows)[0]) // per_row


def rank_profile(m):
    """The ranks of all row prefixes x column prefixes of m, from one pass.

    Returns leads, one per row of m, with

        rank(rows[:hi] restricted to columns[:k]) = #{i < hi : 0 <= leads[i] < k}

    for every hi and k; leads[i] is -1 when row i lies in the span of
    the rows above it.  These are the _echelon leads: basis rows vanish
    before their leads, so the basis rows of rows[:hi] with leads below
    k are independent on the first k columns and the others vanish
    there.  For suffixes, reverse the rows of m or their order.

    A Gaussian row enters as its two split rows; the split span of any
    row prefix restricted to a column prefix is closed under i, so the
    two leads fall on the same Gaussian column, which is the row's lead.
    """
    rows, per_row = _integer_rows(m.sparse)
    leads = _echelon(rows)[1]
    return leads if per_row == 1 else _gaussian_leads(leads)


# ---------------------------------------------------------------------------
# subspaces


class Subspace:
    """A subspace of K^n as the row space of a canonical RREF basis, kept
    as sparse rows (basis) and read densely as tuples (rows).

    Equality is literal equality of the reduced bases, which is sound
    because RREF is a unique representative of the row space.
    """

    __slots__ = ("n", "basis", "pivots")

    def __init__(self, spanning_rows, n):
        basis, pivots = _rref_rows(list(spanning_rows), n)
        self.n = n
        self.basis = tuple(basis)
        self.pivots = tuple(pivots)

    @classmethod
    def _trusted(cls, basis, pivots, n):
        # caller guarantees the sparse rows are already canonical RREF
        self = cls.__new__(cls)
        self.n = n
        self.basis = tuple(basis)
        self.pivots = tuple(pivots)
        return self

    @classmethod
    def zero(cls, n):
        return cls._trusted((), (), n)

    @classmethod
    def full(cls, n):
        return cls._trusted([{i: 1} for i in range(n)], range(n), n)

    @property
    def rows(self):
        return tuple(map(tuple, _dense(self.basis, self.n)))

    @property
    def dim(self):
        return len(self.basis)

    def is_zero(self):
        return not self.basis

    def is_full(self):
        return len(self.basis) == self.n

    def basis_matrix(self):
        return Matrix.from_sparse(list(self.basis), self.n)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.n == other.n and self.basis == other.basis

    def __hash__(self):
        # equal subspaces have equal pivots
        return hash((self.n, self.pivots))

    def __repr__(self):
        return "Subspace(dim %d of K^%d)" % (self.dim, self.n)

    def contains(self, other):
        """other <= self as subspaces: inserting the rows of self and
        then those of other into one _echelon basis, no row of other
        gets a lead."""
        if self.n != other.n:
            raise ValueError("ambient dimension mismatch")
        if self.is_full():
            return True
        if other.dim > self.dim:
            return False
        rows, per_row = _integer_rows(self.basis + other.basis)
        leads = _echelon(rows)[1]
        return all(lead < 0 for lead in leads[per_row * self.dim:])

    def sum(self, other):
        if self.n != other.n:
            raise ValueError("ambient dimension mismatch")
        if not other.basis or self.is_full():
            return self
        if not self.basis or other.is_full():
            return other
        return Subspace(list(self.rows) + list(other.rows), self.n)

    def intersect(self, other):
        """Zassenhaus: reduce [U|U; V|0], read the rows with zero left half."""
        if self.n != other.n:
            raise ValueError("ambient dimension mismatch")
        if not self.basis or not other.basis:
            return Subspace.zero(self.n)
        if self.is_full():
            return other
        if other.is_full():
            return self
        n = self.n
        aug = [list(r) + list(r) for r in self.rows]
        aug += [list(r) + [0] * n for r in other.rows]
        rows, pivots = _rref_rows(aug, 2 * n)
        inter_rows = []
        inter_pivots = []
        for row, p in zip(rows, pivots):
            if p >= n:
                inter_rows.append({c - n: x for c, x in row.items()})
                inter_pivots.append(p - n)
        # rows with pivot in the right half have zero left half, and their
        # right halves are already mutually reduced: canonical as they are
        return Subspace._trusted(inter_rows, inter_pivots, n)


def quotient_dim(z, b):
    """dim(z/b); raises NotASubspace unless b really sits inside z."""
    if not z.contains(b):
        raise NotASubspace(
            "quotient denominator (dim %d) is not contained in the numerator"
            " (dim %d) in K^%d" % (b.dim, z.dim, z.n)
        )
    return z.dim - b.dim


def kernel(m):
    """Null space of m as a subspace of K^ncols."""
    n = m.ncols
    if m.is_zero():
        return Subspace.full(n)
    rows, pivots = _rref_rows(m.rows, n)
    pivset = set(pivots)
    basis = []
    for free in range(n):
        if free in pivset:
            continue
        v = [0] * n
        v[free] = 1
        for row, p in zip(rows, pivots):
            x = row.get(free)
            if x:
                v[p] = -x
        basis.append(v)
    # not echelon as built (pivot columns can precede the free column), so
    # canonicalize through the ordinary constructor
    return Subspace(basis, n)


def image(m):
    """Column space of m as a subspace of K^nrows."""
    return Subspace(m.transpose().rows, m.nrows)


def annihilator(s):
    """Rows w with <w, v> = 0 for every v in s, as a Subspace of K^n."""
    return kernel(s.basis_matrix())


def preimage(m, w):
    """{x : m x in w} as a subspace of the source K^ncols.

    Uses the annihilator trick: with C the annihilator basis of w,
    m x in w iff C (m x) = 0, so the preimage is ker(C m).
    """
    if m.nrows != w.n:
        raise ValueError("ambient dimension mismatch")
    if w.is_full():
        return Subspace.full(m.ncols)
    if w.is_zero():
        return kernel(m)
    c = annihilator(w).basis_matrix()
    return kernel(c.mul(m))


def mat_inverse(m):
    """Exact inverse of a square matrix; raises ValueError if singular."""
    if m.nrows != m.ncols:
        raise ValueError("not square")
    n = m.nrows
    aug = hstack(m, Matrix.identity(n))
    rows, pivots = _rref_rows(aug.rows, 2 * n)
    if list(pivots) != list(range(n)):
        raise ValueError("matrix is singular")
    return Matrix.from_sparse([{c - n: x for c, x in row.items() if c >= n}
                               for row in rows], n)


def det(m):
    """Exact determinant by Gaussian elimination, any scalar kind."""
    if m.nrows != m.ncols:
        raise ValueError("not square")
    n = m.nrows
    if n == 0:
        return 1
    rows = [list(r) for r in m.rows]
    sign = 1
    result = 1
    for c in range(n):
        piv = None
        for r in range(c, n):
            if rows[r][c]:
                piv = r
                break
        if piv is None:
            return 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            sign = -sign
        p = rows[c][c]
        result = result * p
        pf = Fraction(p) if isinstance(p, int) else p
        for r in range(c + 1, n):
            a = rows[r][c]
            if a:
                f = a / pf
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return demote(sign * result)
