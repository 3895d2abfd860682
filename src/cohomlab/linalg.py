"""Exact linear algebra over QQ and QQ(i).

Matrices act on column vectors: an m-by-n matrix is a map K^n -> K^m.
Matrix is dense: its rows are lists of int / Fraction / GaussianRational.
Shapes are tracked explicitly so matrices with zero rows or columns keep
their ambient dimensions (these show up constantly as boundary maps of
complexes with missing neighbours).

Subspaces are stored as the row space of a basis in reduced row echelon
form.  RREF is a canonical representative, so subspace equality is plain
tuple comparison and every lattice operation lands back in canonical
form for free.

Every row reduction but det's is one echelon insertion on sparse integer
rows (_echelon): a row is a dict {column: nonzero int}, and rows are
reduced in order, division-free, against a basis keyed by lead column,
the smallest column left in a row.  Exact rows reach it through one
dispatch (_integer_rows), which drops their zeros: a rational row is
scaled to an integer row with the same span, and a Gaussian row is
split into the interleaved real rows of v and i*v.  rank is the number
of leads.  rank_profile is the leads themselves, which give the ranks
of all row prefixes x column prefixes from one pass; the spectral pages
read theirs from it.  RREF, and with it kernel, image, mat_inverse and
the subspace lattice, is that echelon basis plus back-substitution on
the sparse rows, written out as dense rows (_rref_rows).  Containment
is no new lead: s.contains(t) when, after the rows of s, no row of t
gets one.  Products of rational matrices are taken on integers too
(see Matrix.mul).

det keeps its own elimination and has no caller in the package: the
benchmark tracer (perfbench/tracer.py) still hooks it by name, and it
goes together with that hook.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .scalars import GaussianRational, conj, demote

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


# Below 3x3x3 multiply-adds, scaling rational operands to integers costs
# more than the Fraction arithmetic it saves, and the scan for the entry
# kinds would be most of the cost of the many tiny integer products.
_CLEARED_MIN = 27


class NotASubspace(Exception):
    """Raised when a claimed inclusion of subspaces does not hold."""


class Matrix:
    """Dense exact matrix, rows of int / Fraction / GaussianRational."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows, ncols=None):
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
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = ncols

    @classmethod
    def zero(cls, m, n):
        return cls([[0] * n for _ in range(m)], n)

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], n)

    def is_zero(self):
        return all(not x for row in self.rows for x in row)

    def mul(self, other):
        """self @ other (composition: apply other first).

        When the entries are rational and not all integers, and the
        product takes at least _CLEARED_MIN multiply-adds, each operand
        is scaled to integers once by the lcm of its denominators, the
        integers are multiplied, and each nonzero entry of the product is
        divided by both scales.
        """
        if self.ncols != other.nrows:
            raise ValueError(
                "shape mismatch: %dx%d times %dx%d"
                % (self.nrows, self.ncols, other.nrows, other.ncols)
            )
        if (self.nrows * self.ncols * other.ncols < _CLEARED_MIN
                or not _has_fractions_only(self.rows, other.rows)):
            return Matrix(_product(self.rows, other.rows, other.ncols), other.ncols)
        da, arows = _int_rows(self.rows, self.ncols)
        db, brows = _int_rows(other.rows, other.ncols)
        den = da * db
        out = [[Fraction(v, den) if v else 0 for v in row]
               for row in _product(arows, brows, other.ncols)]
        return Matrix(out, other.ncols)

    def apply(self, vec):
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        out = []
        for row in self.rows:
            s = 0
            for a, x in zip(row, vec):
                if a and x:
                    s = s + a * x
            out.append(s)
        return out

    def add(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in add")
        return Matrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
            self.ncols,
        )

    def scale(self, c):
        return Matrix([[c * a for a in row] for row in self.rows], self.ncols)

    def transpose(self):
        return Matrix(
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
            self.nrows,
        )

    def conjugate(self):
        return Matrix([[conj(a) for a in row] for row in self.rows], self.ncols)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and all(
                a == b
                for r1, r2 in zip(self.rows, other.rows)
                for a, b in zip(r1, r2)
            )
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols))

    def __repr__(self):
        return "Matrix(%d x %d)" % (self.nrows, self.ncols)


def _product(arows, brows, ncols):
    """The rows of arows @ brows, skipping zero entries."""
    out = []
    for arow in arows:
        acc = [0] * ncols
        for k, a in enumerate(arow):
            if not a:
                continue
            for j, b in enumerate(brows[k]):
                if b:
                    acc[j] = acc[j] + a * b
        out.append(acc)
    return out


def _has_fractions_only(arows, brows):
    """Every entry of both is an int or a Fraction, and some entry is a
    Fraction.  brows is not scanned when arows already fails."""
    kinds = {type(x) for row in arows for x in row}
    if kinds <= {int, Fraction}:
        kinds |= {type(x) for row in brows for x in row}
    return Fraction in kinds and kinds <= {int, Fraction}


def _cleared(values):
    """(den, ints): rational values times the lcm den of their
    denominators.  The one scaling routine: a rational row enters a
    reduction as _cleared(row)[1], which has the same span."""
    den = lcm(*{x.denominator for x in values})
    if den == 1:
        return 1, [x.numerator for x in values]
    return den, [x.numerator * (den // x.denominator) for x in values]


def _int_rows(rows, ncols):
    """(den, int rows): rational rows scaled by one common den."""
    den, flat = _cleared(list(chain.from_iterable(rows)))
    return den, [flat[i * ncols:(i + 1) * ncols] for i in range(len(rows))]


def hstack(a, b):
    if a.nrows != b.nrows:
        raise ValueError("hstack: row count mismatch")
    return Matrix(
        [list(r1) + list(r2) for r1, r2 in zip(a.rows, b.rows)], a.ncols + b.ncols
    )


def vstack(a, b):
    if a.ncols != b.ncols:
        raise ValueError("vstack: column count mismatch")
    return Matrix([list(r) for r in a.rows] + [list(r) for r in b.rows], a.ncols)


# ---------------------------------------------------------------------------
# row reduction


def _integer_rows(rows):
    """(int rows, per_row): exact rows as sparse integer rows for _echelon.

    A sparse row is a dict {column: nonzero int}.  An integer row enters
    as it is, less its zeros, and a rational row through _cleared, which
    keeps its span: one sparse row each.  A Gaussian row v enters as the
    split rows of v and i*v, the (re, im) parts of column c at columns
    2c and 2c+1, cleared by one lcm over the denominators of the nonzero
    parts: two each.  Their span is closed under i, so the pivots of its
    rational RREF come in pairs (2c, 2c+1), the rows at even pivots
    decode to the Gaussian RREF, and the split leads of a row fall on one
    Gaussian column.
    """
    nz = [{c: x for c, x in enumerate(row) if x} for row in rows]
    kinds = {type(x) for v in nz for x in v.values()}
    if kinds <= {int}:
        return nz, 1
    if GaussianRational not in kinds:
        return [dict(zip(v, _cleared(v.values())[1])) for v in nz], 1
    split = []
    for v in nz:
        parts = {}
        for c, x in v.items():
            if type(x) is GaussianRational:
                if x.re:
                    parts[2 * c] = x.re
                if x.im:
                    parts[2 * c + 1] = x.im
            else:
                parts[2 * c] = x
        w = dict(zip(parts, _cleared(parts.values())[1]))
        # i*(a + bi) = -b + ai: the part at 2c+1 moves to 2c negated,
        # the part at 2c moves to 2c+1
        split += (w, {k ^ 1: -x if k & 1 else x for k, x in w.items()})
    return split, 2


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

    The one row reduction; it consumes the rows of _integer_rows.  A
    row's lead is the smallest column left in it.  While a basis row
    leads there, the row is cleared at its lead by that basis row
    (_reduce), division-free, so it stays on integers.  Otherwise it
    joins the basis there, as the row reduced so far.  leads holds one
    lead per row, -1 for a row in the span of the rows before it (it
    emptied out).  basis maps lead column -> row, and each basis row is
    keyed by its smallest column and stores no zero.
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
    """Canonical RREF (rows, pivot columns) of any exact rows of width ncols.

    The _echelon basis of the _integer_rows, cleared from the right:
    each basis row, taken from the last lead back, is reduced against
    the already cleared rows at the later pivots it holds, then divided
    by its pivot into a dense row of width ncols * per_row.  Over Q(i)
    the rows at even split pivots decode to the Gaussian rows (see
    _integer_rows).
    """
    int_rows, per_row = _integer_rows(rows)
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
        p = v[c]
        row = [0] * (ncols * per_row)
        for k, x in v.items():
            row[k] = x // p if not x % p else Fraction(x, p)
        if per_row == 2:
            row = [a if not b else GaussianRational(a, b)
                   for a, b in zip(row[::2], row[1::2])]
        out.append(row)
        out_pivots.append(c // per_row)
    return out, out_pivots


def rref(m):
    """Reduced row echelon form.  Returns (Matrix, rank).

    The result is the canonical RREF: pivots are 1, pivot columns are
    strictly increasing and cleared above and below, zero rows dropped.
    """
    rows, pivots = _rref_rows(m.rows, m.ncols)
    return Matrix(rows, m.ncols), len(pivots)


def rank(m):
    """Rank of m, the number of _echelon leads; 0 for a matrix with no
    rows or no columns."""
    rows, per_row = _integer_rows(m.rows)
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
    rows, per_row = _integer_rows(m.rows)
    leads = _echelon(rows)[1]
    if per_row == 1:
        return leads
    pairs = list(zip(leads[::2], leads[1::2]))
    if any(x // 2 != y // 2 for x, y in pairs):
        raise AssertionError("rank_profile: split leads of a Gaussian row disagree")
    return [x // 2 for x, _y in pairs]


# ---------------------------------------------------------------------------
# subspaces


class Subspace:
    """A subspace of K^n as the row space of a canonical RREF basis.

    Equality is literal equality of the reduced bases, which is sound
    because RREF is a unique representative of the row space.
    """

    __slots__ = ("n", "rows", "pivots")

    def __init__(self, spanning_rows, n):
        rows, pivots = _rref_rows(list(spanning_rows), n)
        self.n = n
        self.rows = tuple(tuple(r) for r in rows)
        self.pivots = tuple(pivots)

    @classmethod
    def _trusted(cls, rows, pivots, n):
        # caller guarantees rows are already canonical RREF
        self = cls.__new__(cls)
        self.n = n
        self.rows = tuple(tuple(r) for r in rows)
        self.pivots = tuple(pivots)
        return self

    @classmethod
    def zero(cls, n):
        return cls._trusted((), (), n)

    @classmethod
    def full(cls, n):
        rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        return cls._trusted(rows, range(n), n)

    @property
    def dim(self):
        return len(self.rows)

    def is_zero(self):
        return not self.rows

    def is_full(self):
        return len(self.rows) == self.n

    def basis_matrix(self):
        return Matrix([list(r) for r in self.rows], self.n)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

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
        rows, per_row = _integer_rows(self.rows + other.rows)
        leads = _echelon(rows)[1]
        return all(lead < 0 for lead in leads[per_row * self.dim:])

    def sum(self, other):
        if self.n != other.n:
            raise ValueError("ambient dimension mismatch")
        if not other.rows or self.is_full():
            return self
        if not self.rows or other.is_full():
            return other
        return Subspace(list(self.rows) + list(other.rows), self.n)

    def intersect(self, other):
        """Zassenhaus: reduce [U|U; V|0], read the rows with zero left half."""
        if self.n != other.n:
            raise ValueError("ambient dimension mismatch")
        if not self.rows or not other.rows:
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
                inter_rows.append(row[n:])
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
        for i, p in enumerate(pivots):
            x = rows[i][free]
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
    return Matrix([row[n:] for row in rows], n)


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
