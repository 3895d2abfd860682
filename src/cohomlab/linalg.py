"""Exact dense linear algebra over QQ and QQ(i).

Matrices act on column vectors: an m-by-n matrix is a map K^n -> K^m.
Shapes are tracked explicitly so matrices with zero rows or columns keep
their ambient dimensions (these show up constantly as boundary maps of
complexes with missing neighbours).

Subspaces are stored as the row space of a basis in reduced row echelon
form.  RREF is a canonical representative, so subspace equality is plain
tuple comparison and every lattice operation lands back in canonical
form for free.

Every row reduction runs through one division-free integer kernel.
Rational rows are scaled to integer rows with the same span, and a
Gaussian row is split into the interleaved real rows of v and i*v (see
_rref_rows); rank, kernel, image and the subspace lattice all sit on
that one routine.  Products of rational matrices are taken on integers
too (see Matrix.mul).

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
    den = 1
    for x in values:
        den = lcm(den, x.denominator)
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


def _row_gcd_reduce(row):
    g = 0
    for x in row:
        g = gcd(g, x)
        if g == 1:
            return row
    if g > 1:
        return [x // g for x in row]
    return row


def _rref_int(rows, ncols):
    """Division-free Gauss-Jordan on integer rows.

    Eliminates with p*row_i - a*row_pivot and re-reduces each row by its
    gcd, so entries stay small; pivots are divided out only once at the
    end.  Takes ownership of the list `rows` (not of its rows).  Returns
    (rows, pivot_columns) with rows in canonical RREF.
    """
    m = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        # smallest nonzero magnitude makes the cross-multiplies cheap
        best = -1
        best_abs = None
        for i in range(r, m):
            v = rows[i][c]
            if v:
                a = -v if v < 0 else v
                if best_abs is None or a < best_abs:
                    best, best_abs = i, a
                    if a == 1:
                        break
        if best < 0:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(m):
            if i == r:
                continue
            a = rows[i][c]
            if a:
                ri = rows[i]
                rows[i] = _row_gcd_reduce(
                    [p * x - a * y for x, y in zip(ri, prow)]
                )
        pivots.append(c)
        r += 1
    out = []
    for i, c in enumerate(pivots):
        row = rows[i]
        p = row[c]
        if p != 1:
            row = [x // p if not x % p else Fraction(x, p) for x in row]
        out.append(row)
    return out, pivots


def _parts(x):
    if type(x) is GaussianRational:
        return x.re, x.im
    return x, 0


def _split_row(row):
    """A Q(i) row as one integer row of (re, im) parts, interleaved."""
    return _cleared([t for x in row for t in _parts(x)])[1]


def _times_i(v):
    """The split row of i*w, given the split row v of w."""
    return [t for a, b in zip(v[::2], v[1::2]) for t in (-b, a)]


def _rref_rows(rows, ncols):
    """Canonical RREF (rows, pivot columns) of any exact rows.

    Every reduction runs on integers.  A rational row is scaled by the
    lcm of its denominators, which keeps its span.  A Gaussian row v
    enters as the rational rows of v and i*v with (re, im) interleaved
    per column; their span is closed under i, so its rational RREF is
    the interleaved Gaussian RREF: pivots come in pairs (2c, 2c+1) and
    the rows at even pivots decode to the Gaussian rows.
    """
    # inline, like _has_fractions_only's: a helper call per reduction
    # costs about 1% on many tiny integer matrices
    kinds = {type(x) for row in rows for x in row}
    if kinds <= {int}:
        return _rref_int(list(rows), ncols)
    if GaussianRational not in kinds:
        return _rref_int([_cleared(r)[1] for r in rows], ncols)
    split = []
    for row in rows:
        v = _split_row(row)
        split.append(v)
        split.append(_times_i(v))
    out, pivots = [], []
    for row, p in zip(*_rref_int(split, 2 * ncols)):
        if p % 2 == 0:
            out.append([a if not b else GaussianRational(a, b)
                        for a, b in zip(row[::2], row[1::2])])
            pivots.append(p // 2)
    return out, pivots


def rref(m):
    """Reduced row echelon form.  Returns (Matrix, rank).

    The result is the canonical RREF: pivots are 1, pivot columns are
    strictly increasing and cleared above and below, zero rows dropped.
    """
    rows, pivots = _rref_rows(m.rows, m.ncols)
    return Matrix(rows, m.ncols), len(pivots)


def rank(m):
    """Rank of m; 0 for a matrix with no rows or no columns."""
    return len(_rref_rows(m.rows, m.ncols)[1])


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
        """other <= self as subspaces.

        Reduces the rows of other against those of self by cross-
        multiplication on integer rows.  Over Q(i) both sides are split
        as in _rref_rows; a row w of self with its pivot at p gives the
        split rows of w and i*w, echelon at 2p and 2p+1.
        """
        if self.n != other.n:
            raise ValueError("ambient dimension mismatch")
        if self.is_full():
            return True
        if other.dim > self.dim:
            return False
        if any(type(x) is GaussianRational
               for rows in (self.rows, other.rows) for row in rows for x in row):
            basis = []
            for row, p in zip(self.rows, self.pivots):
                w = _split_row(row)
                basis += [(w, 2 * p), (_times_i(w), 2 * p + 1)]
            vecs = [_split_row(row) for row in other.rows]
        else:
            basis = [(_cleared(row)[1], p) for row, p in zip(self.rows, self.pivots)]
            vecs = [_cleared(row)[1] for row in other.rows]
        for v in vecs:
            for w, p in basis:
                a = v[p]
                if a:
                    c = w[p]
                    v = [c * x - a * y for x, y in zip(v, w)]
            if any(v):
                return False
        return True

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
