"""Cohomology of Lie algebras with extra structure.

Three constructions feed the complex machinery:

  * ce_complex: the exterior algebra of the dual with the differential
    dual to the bracket (a GradedComplex).  d d = 0 on generators is
    exactly the Jacobi identity, so it is checked and violations are
    reported by generator.

  * complex_bicomplex: a complex structure is given by the images
    d phi^i of a (1,0)-coframe phi^1..phi^n; the conjugate coframe gets
    the conjugated images, the differential splits by target bidegree
    into d1 = (1,0)-part and d2 = (0,1)-part, and the result is a
    bounded double complex over Q(i).  Integrability means no
    (0,2)-component shows up.

  * symplectic_pair: a closed nondegenerate 2-form omega produces the
    operator calculus on forms: L = omega ^ . , the dual Lambda, the
    symplectic star, H = (m-k) id on degree k (n = 2m), and the second
    differential d_lam = d Lambda - Lambda d of degree -1.  The pair
    (d, d_lam) is a bidifferential pair with degrees (+1, -1).

    The coefficients are rational, and every operator of the calculus
    is carried as one rational scale times an integer matrix, with the
    scales known in closed form: omega = Omega / e, P = omega^-1 =
    P_int / D from the one inverse, L = L_int / e and d = d_int / f
    per degree.  The Gram matrix of the pairing on Lambda^k is the k-th
    exterior compound C_k(P) = C_k(P_int) / D^k (Cauchy-Binet: its
    entries are the k-by-k minors of P), built column by column from
    wedges of the integer columns of P_int; it is the one compound
    computed, and the star (v0 / D^k) S_k reads it, S_k being the
    compound with signed, complemented rows.  No determinant and no
    Gram inversion is computed, and nondegeneracy of omega is a rank.

    Lambda is the contraction by the bivector P (Brylinski, J.
    Differential Geom. 1988): Lambda = sum_{a<b} P^{ab} i_a i_b, with
    i_a the contraction by the a-th dual basis vector, so that on a
    basis k-form e_B, B = (b_0 < ... < b_{k-1}),

        Lambda e_B = sum_{s<t} (-1)^(s+t) P^{b_s b_t} e_{B - {b_s, b_t}},

    at most C(k, 2) nonzeros per column and Lambda = Lambda_int / D.  On
    0-forms [Lambda, L] 1 = Lambda omega = tr(Omega P) / 2 = m, as H
    reads there.  No product star L star is formed: [Lambda, L] = H,
    checked below, certifies Lambda (see the next paragraph), so Lambda
    is the adjoint of L that star L star also is.

    The construction checks each relation once, as an integer identity:
    brought over one scale, the two sides differ by empty sparse rows.
    The relations are: the star squares to the identity (this pins the
    volume normalization omega^m / m!), [Lambda, L] = H, d L = L d
    (omega is closed, so L is a map on d-cohomology), and d_lam =
    (-1)^(k+1) star d star.  star_{n-k} star_k = id is compared for k
    <= m only: both factors are square, so a one-sided inverse is
    two-sided and star_k star_{n-k} = id follows.  These checks run
    first, as the star relation is checked on its sparse side,
    star_{k-1} d_lam_k = (-1)^(k+1) d_{n-k} star_k: that is the
    relation multiplied on the left by star_{k-1}, whose inverse is
    star_{n-k+1} now that star star = id holds in every degree, so the
    two are equivalent, and no product there has a dense star on both
    sides.  Then the pair's own validate checks d d = 0, d_lam d_lam = 0
    and d d_lam + d_lam d = 0 on a copy of the pair whose d and d_lam
    are each taken over one scale for all degrees, so integer matrices:
    each relation is homogeneous in each differential, so scaling d by
    one constant and d_lam by another keeps it.  The returned pair has
    the exact d and d_lam.  A failure is an engine bug and raises
    AssertionError, so a constructed pair is a certificate that the
    calculus holds.

    [Lambda, L] = H certifies Lambda with no second route (Tseng-Yau,
    J. Differential Geom. 2012).
    With H = (m-k) id on Lambda^k and Lambda of degree -2, (Lambda, L,
    H) is an sl(2) triple acting on the finite-dimensional space of
    forms, with L lowering the H-weight by 2.  A second degree -2
    solution Lambda' would give g = Lambda - Lambda' with [g, L] = 0 and
    [H, g] = 2g: g lies in the kernel of ad L and has ad-H weight +2.
    In a finite-dimensional sl(2) module (here ad acting on the
    endomorphisms of the forms) the kernel of the lowering operator
    holds only lowest-weight vectors, whose weights are <= 0, so g = 0.

hard_lefschetz and primitive_and_lefschetz_decomposition read the Betti
numbers from the pair's PairAnalysis (its D1 table) and everything else
from counts of _echelon leads on integer rows.  No subspace lattice, RREF
or Fraction is involved.  They read the integer matrices of
Sl2Operators, each operator up to a nonzero scale per degree, and the
integer kernel bases of linalg.integer_kernel: scaling a block of a stack
by a nonzero constant changes no rank and no kernel, and scaling each
vector of a spanning set, or the operators applied to it, changes no
span.  A quotient (span U + im D) / im D has dimension rk[U | D] - rk D,
the leads that the columns of U gain when inserted into a copy of the
echelon of the columns of D (Sl2Operators.image_echelon, one per degree,
shared by both sections).
"""

from __future__ import annotations

import math
import random
import warnings
from fractions import Fraction

# det has no caller here: the benchmark tracer's self-test checks that
# geometry.det is linalg.det, and this binding goes with the tracer's det
# hook (tests/test_imports.py lists it as the one kept unused import).
from .linalg import (
    Matrix,
    Subspace,
    _echelon,
    _int_rows,
    _lincomb,
    _product,
    _scaled,
    det,
    echelon_leads,
    integer_kernel,
    kernel,
    mat_inverse,
    rank,
    vstack,
)
from .scalars import conj
from .exterior import (
    basis_positions,
    derivation_matrix,
    extend_derivation,
    form_add,
    merge_sign,
    multi_indices,
    wedge,
    wedge_power,
)
from .complexes import BidiffPair, DoubleComplex, GradedComplex, require_valid
from .cohomology import BIGRADED_FLAVORS, Analysis, _checked

__all__ = [
    "ComplexStructureData",
    "LieAlgebraPresentation",
    "Sl2Operators",
    "SymplecticData",
    "builtin",
    "ce_complex",
    "complex_bicomplex",
    "hard_lefschetz",
    "primitive_and_lefschetz_decomposition",
    "random_nilpotent_lie",
    "random_symplectic",
    "symplectic_pair",
    "type_n_view",
]


class LieAlgebraPresentation:
    """n generators e_1 .. e_n with brackets {(i, j): {k: c}} for i < j,
    meaning [e_i, e_j] = sum_k c e_k (1-based indices throughout)."""

    def __init__(self, n, brackets):
        if not isinstance(n, int) or n < 0:
            raise ValueError("generator count must be a nonnegative int")
        self.n = n
        self.brackets = {}
        for (i, j), targets in brackets.items():
            if not (1 <= i < j <= n):
                raise ValueError("bracket indices must satisfy 1 <= i < j <= n, got (%r, %r)" % (i, j))
            cleaned = {}
            for k, c in targets.items():
                if not (1 <= k <= n):
                    raise ValueError("bracket target e%r out of range" % (k,))
                if c:
                    cleaned[k] = c
            if cleaned:
                self.brackets[(i, j)] = cleaned

    def dgen(self):
        """Dual differential on generators, 0-based: de^k = -sum c^k_ij e^i e^j."""
        out = {}
        for (i, j), targets in self.brackets.items():
            for k, c in targets.items():
                out.setdefault(k - 1, {})[(i - 1, j - 1)] = -c
        return out

    def bracket_coords(self, i, y):
        """[e_i, y] for a coordinate vector y, as a coordinate vector."""
        out = [0] * self.n
        for j in range(1, self.n + 1):
            c = y[j - 1]
            if not c or j == i:
                continue
            pair = (i, j) if i < j else (j, i)
            sign = 1 if i < j else -1
            for k, ck in self.brackets.get(pair, {}).items():
                out[k - 1] += sign * c * ck
        return out

    def is_nilpotent(self):
        """Lower central series reaches zero."""
        current = Subspace.full(self.n)
        while True:
            vecs = []
            for i in range(1, self.n + 1):
                for row in current.rows:
                    v = self.bracket_coords(i, row)
                    if any(v):
                        vecs.append(v)
            nxt = Subspace(vecs, self.n)
            if nxt.dim == 0:
                return True
            if nxt.dim == current.dim:
                return False
            current = nxt

    def is_unimodular(self):
        """tr(ad x) = 0 for every x; guarantees Poincare duality."""
        for i in range(1, self.n + 1):
            tr = 0
            for j in range(1, self.n + 1):
                if j == i:
                    continue
                pair = (i, j) if i < j else (j, i)
                sign = 1 if i < j else -1
                tr += sign * self.brackets.get(pair, {}).get(j, 0)
            if tr:
                return False
        return True


def _jacobi_check(n, dgen):
    d = extend_derivation(n, dgen)
    for g in sorted(dgen):
        if d(dgen[g]):
            raise ValueError(
                "Jacobi identity fails: d(d e%d) != 0" % (g + 1)
            )


def ce_complex(lie):
    """Exterior-algebra complex of the dual, degrees 0..n."""
    dgen = lie.dgen()
    _jacobi_check(lie.n, dgen)
    if not lie.is_nilpotent():
        warnings.warn(
            "Lie algebra is not nilpotent; cohomology is still computed, "
            "but the usual comparison theorems need not apply",
            stacklevel=2,
        )
    n = lie.n
    dims = {k: math.comb(n, k) for k in range(n + 1)}
    d = {k: derivation_matrix(n, dgen, k) for k in range(n)}
    g = GradedComplex(dims, d)
    bad = g.validate()
    if bad:
        raise AssertionError("constructed complex invalid: " + "; ".join(bad))
    return g


# ---------------------------------------------------------------------------
# complex structures


class ComplexStructureData:
    """A (1,0)-coframe phi^1..phi^n given by the forms d phi^i.

    Generator indexing for the forms: 0..n-1 are phi^1..phi^n and
    n..2n-1 are the conjugates.  dphi maps 1-based i to a 2-form dict;
    the conjugate differentials are derived, never supplied.
    """

    def __init__(self, n, dphi):
        self.n = n
        self.dphi = {}
        for i, form in dphi.items():
            if not (1 <= i <= n):
                raise ValueError("d phi^%r out of range" % (i,))
            for mono in form:
                if len(mono) != 2 or not (0 <= mono[0] < mono[1] < 2 * n):
                    raise ValueError("d phi^%d has a non-2-form monomial %r" % (i, mono))
            self.dphi[i] = {m: c for m, c in form.items() if c}


def _conj_form(form, n):
    """Swap phi and conjugate-phi blocks and conjugate all coefficients."""
    out = {}
    for mono, c in form.items():
        sign, mapped = merge_sign(tuple(x + n for x in mono if x < n),
                                  tuple(x - n for x in mono if x >= n))
        out[mapped] = sign * conj(c)
    return out


def _bidegree(mono, n):
    p = sum(1 for x in mono if x < n)
    return (p, len(mono) - p)


def _pq_basis(n, p, q):
    """Monomials of bidegree (p, q), lex in (holomorphic, conjugate) parts."""
    out = []
    for a in multi_indices(n, p):
        for b in multi_indices(n, q):
            out.append(a + tuple(x + n for x in b))
    return out


def complex_bicomplex(csd):
    """Bounded double complex of a complex structure, over Q(i)."""
    n = csd.n
    dgen = {}
    for i in range(1, n + 1):
        form = csd.dphi.get(i, {})
        for mono in form:
            if _bidegree(mono, n) == (0, 2):
                raise ValueError(
                    "complex structure is not integrable: "
                    "d phi^%d has a (0,2)-component" % i
                )
        dgen[i - 1] = form
        dgen[n + i - 1] = _conj_form(form, n)
    _jacobi_check(2 * n, dgen)
    d = extend_derivation(2 * n, dgen)

    spaces = {}
    basis = {}
    pos = {}
    for p in range(n + 1):
        for q in range(n + 1):
            b = _pq_basis(n, p, q)
            spaces[(p, q)] = len(b)
            basis[(p, q)] = b
            pos[(p, q)] = {m: i for i, m in enumerate(b)}
    d1 = {}
    d2 = {}
    for (p, q), src in basis.items():
        tgt1 = pos.get((p + 1, q))
        tgt2 = pos.get((p, q + 1))
        rows1 = [{} for _ in range(spaces.get((p + 1, q), 0))]
        rows2 = [{} for _ in range(spaces.get((p, q + 1), 0))]
        for col, mono in enumerate(src):
            for m, c in d({mono: 1}).items():
                bd = _bidegree(m, n)
                if bd == (p + 1, q):
                    rows1[tgt1[m]][col] = c
                elif bd == (p, q + 1):
                    rows2[tgt2[m]][col] = c
                else:
                    raise AssertionError(
                        "differential produced bidegree %r from %r" % (bd, (p, q))
                    )
        if any(rows1):
            d1[(p, q)] = Matrix.from_sparse(rows1, len(src))
        if any(rows2):
            d2[(p, q)] = Matrix.from_sparse(rows2, len(src))
    dc = DoubleComplex(spaces, d1, d2)
    require_valid(dc)
    return dc


# ---------------------------------------------------------------------------
# symplectic structures


class SymplecticData:
    """A Lie algebra with a 2-form {(i, j): c} (1-based, i < j)."""

    def __init__(self, lie, omega):
        self.lie = lie
        self.omega = {}
        for (i, j), c in omega.items():
            if not (1 <= i < j <= lie.n):
                raise ValueError("omega indices must satisfy 1 <= i < j <= n")
            if c:
                self.omega[(i, j)] = c

    def omega_form(self):
        return {(i - 1, j - 1): c for (i, j), c in self.omega.items()}

    def omega_matrix(self):
        n = self.lie.n
        rows = [{} for _ in range(n)]
        for (i, j), c in self.omega.items():
            rows[i - 1][j - 1] = c
            rows[j - 1][i - 1] = -c
        return Matrix.from_sparse(rows, n)


class Sl2Operators:
    """Per-degree matrices of the symplectic calculus, plus metadata.

    star[k]: Lambda^k -> Lambda^{n-k};  L[k]: Lambda^k -> Lambda^{k+2};
    Lam[k]: Lambda^k -> Lambda^{k-2};  d[k] and d_lam[k] are the two
    differentials; H acts on Lambda^k as (m - k) id.  unimodular records
    whether the underlying algebra has Poincare duality.

    Lam[k] is the contraction by P = omega^-1 = P_int / D, e_B -> sum
    over positions s < t of B of (-1)^(s+t) P[b_s][b_t] e_{B - {b_s,
    b_t}}, so its scale is 1 / D; star[k] has scale v0 / D^k, L[k] 1 / e.
    symplectic_pair checks star star = id for k <= m only (square
    matrices: a one-sided inverse is two-sided) and the star relation as
    star_{k-1} d_lam_k = (-1)^(k+1) d_{n-k} star_k (equivalent once
    star star = id holds in every degree); the module docstring gives
    the arguments.

    Each operator is kept as scaled[name][k] = (scale, M): a nonzero
    Fraction times a Matrix of int entries, for name in star, L, Lam, d
    and d_lam; d and d_lam have one scale for all degrees.  integer(name)
    reads the M's.  d is also kept exactly, as built; the exact star, L,
    Lam and d_lam are built from their scaled form on first read and
    cached, so every reader gets the same Matrix objects.  Readers that
    only take ranks, kernels or spans read the integer matrices: scaling
    a block of a stack by a nonzero constant changes no rank or kernel,
    and L_int^r K spans what L^r K spans.
    """

    __slots__ = ("n", "m", "d", "scaled", "unimodular", "_exact", "_images")

    def __init__(self, n, m, d, scaled, unimodular):
        self.n = n
        self.m = m
        self.d = d
        self.scaled = scaled
        self.unimodular = unimodular
        self._exact = {}
        self._images = {}

    def integer(self, name):
        """{k: integer Matrix}: the operator name up to its scale in each degree."""
        return {k: mat for k, (_s, mat) in self.scaled[name].items()}

    def _exact_table(self, name):
        table = self._exact.get(name)
        if table is None:
            table = self._exact[name] = {
                k: Matrix.from_sparse(_scaled(s.numerator, s.denominator, mat.sparse),
                                      mat.ncols)
                for k, (s, mat) in self.scaled[name].items()}
        return table

    def image_echelon(self, k):
        """The _echelon basis of the columns of the integer d_k (empty
        outside degrees 0..n), which spans im d_k; built on first read
        and kept, so that both sections eliminate each image once.
        Readers insert rows into copies of it (_new_leads)."""
        basis = self._images.get(k)
        if basis is None:
            entry = self.scaled["d"].get(k)
            cols = entry[1].transpose().sparse if entry else []
            basis = self._images[k] = _echelon(sorted(cols, key=len))[0]
        return basis

    star = property(lambda self: self._exact_table("star"))
    L = property(lambda self: self._exact_table("L"))
    Lam = property(lambda self: self._exact_table("Lam"))
    d_lam = property(lambda self: self._exact_table("d_lam"))


def _dim(n, k):
    return math.comb(n, k) if 0 <= k <= n else 0


def _get(table, n, k, shift, zero=Matrix.zero):
    """table[k] or zero(rows, cols), the zero map Lambda^k -> Lambda^{k+shift}."""
    m = table.get(k)
    if m is None:
        return zero(_dim(n, k + shift), _dim(n, k))
    return m


def _compounds(rows, top):
    """{k: C_k} for k = 0 .. top, the exterior compounds of a square
    matrix, given and returned as sparse rows, in the lex bases of
    Lambda^k.

    Entry (a, b) of C_k is the minor of the matrix on rows a and columns
    b, so column b is the k-form e_b1 ^ ... ^ e_bk mapped by the matrix:
    one wedge of a column onto the memoised form of the prefix
    (b1 .. b_{k-1}).  Integer rows give integer compounds.
    """
    n = len(rows)
    cols = [{} for _ in range(n)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            cols[j][(i,)] = x
    forms = {(): {(): 1}}
    out = {}
    for k in range(top + 1):
        pos = basis_positions(n, k)
        ck = [{} for _ in pos]
        for j, b in enumerate(multi_indices(n, k)):
            if k:
                forms[b] = wedge(forms[b[:-1]], cols[b[-1]])
            for a, c in forms[b].items():
                ck[pos[a]][j] = c
        out[k] = ck
    return out


# The operators of the calculus are carried as (scale, rows): a Fraction
# times a matrix of sparse integer rows.  Products and differences run on
# the integer rows and multiply or cross-multiply the scales, and two
# operators are equal when their difference has empty rows; a Matrix is
# built from each pair once, at the end.


def _zero_op(nrows, ncols):
    return Fraction(1), [{} for _ in range(nrows)]


def _compose(*ops):
    """The product of ops, applied right to left."""
    scale, rows = ops[-1]
    for s, a in reversed(ops[:-1]):
        rows = _product(a, rows)
        scale *= s
    return scale, rows


def _minus(x, y):
    """x - y over one scale, the gcd of the scales' numerators over the
    lcm of their denominators, which divides each scale to an integer
    (p and q).  A zero scale drops its rows, so the rows of x - y are
    empty exactly when x == y."""
    (s, a), (t, b) = x, y
    num = math.gcd(s.numerator, t.numerator)
    den = math.lcm(s.denominator, t.denominator)
    p = s.numerator // num * (den // s.denominator)
    q = t.numerator // num * (den // t.denominator)
    return Fraction(num, den), [_lincomb(p, ra, -q, rb) for ra, rb in zip(a, b)]


def _identity_op(c, n):
    return Fraction(c), [{i: 1} for i in range(n)]


def _over_one_scale(table):
    """{k: (c, rows)}: the operators of table over one scale c, the gcd
    of their scales' numerators over the lcm of their denominators, so
    each scale is an integer multiple of c (as in _minus).  Operators
    with empty rows take no part in c."""
    scales = [s for s, rows in table.values() if any(rows)]
    c = Fraction(math.gcd(*(s.numerator for s in scales)) or 1,
                 math.lcm(*(s.denominator for s in scales)))
    out = {}
    for k, (s, rows) in table.items():
        q = s / c
        if q != 1 and any(rows):
            rows = [{j: q.numerator * x for j, x in r.items()} for r in rows]
        out[k] = c, rows
    return out


def _contraction(p_int, n, k):
    """The integer rows of Lambda_k = P_int / D on k-forms, the
    contraction by the bivector P = omega^-1 (module docstring):
    e_B -> sum over positions s < t of B of (-1)^(s+t) P_int[b_s][b_t]
    e_{B minus b_s, b_t}."""
    rows = [{} for _ in range(_dim(n, k - 2))]
    if k < 2:
        return rows
    pos = basis_positions(n, k - 2)
    for j, b in enumerate(multi_indices(n, k)):
        for t in range(1, k):
            for s in range(t):
                x = p_int[b[s]].get(b[t])
                if x:
                    rows[pos[b[:s] + b[s + 1:t] + b[t + 1:]]][j] = -x if (s + t) % 2 else x
    return rows


def _first_irrational(sd):
    """A description of the first coefficient of sd that is not an int or
    a Fraction, or None."""
    for (i, j), targets in sorted(sd.lie.brackets.items()):
        for k, c in sorted(targets.items()):
            if not isinstance(c, (int, Fraction)):
                return "bracket [e%d, e%d] has e%d-coefficient %s" % (i, j, k, c)
    for (i, j), c in sorted(sd.omega.items()):
        if not isinstance(c, (int, Fraction)):
            return "omega has e%d^e%d-coefficient %s" % (i, j, c)
    return None


def symplectic_pair(sd):
    """(BidiffPair, Sl2Operators) for a closed nondegenerate 2-form.

    Every structural identity of the calculus is asserted during
    construction; returning at all certifies them.  The coefficients of
    the algebra and of omega must be rational.
    """
    lie = sd.lie
    n = lie.n
    if n % 2:
        raise ValueError("symplectic structure needs even dimension")
    bad = _first_irrational(sd)
    if bad is not None:
        raise ValueError("symplectic coefficients must be rational: " + bad)
    m = n // 2
    dgen = lie.dgen()
    _jacobi_check(n, dgen)
    if not lie.is_nilpotent():
        warnings.warn("Lie algebra is not nilpotent", stacklevel=2)
    omega = sd.omega_form()
    if extend_derivation(n, dgen)(omega):
        raise ValueError("omega is not closed")
    om = sd.omega_matrix()
    if rank(om) != n:
        raise ValueError("omega is degenerate")
    # Pairing on covectors behind the Gram matrices of the star.  Its
    # overall sign is a convention: this orientation makes the star
    # relation below read d_lam = (-1)^(k+1) star d star while keeping
    # [Lambda, L] = H; the opposite orientation flips star by (-1)^k
    # per degree and nothing else (Lambda and both differentials are
    # unaffected either way).  P = omega^-1 = P_int / D.
    den_p, p_int = _int_rows(mat_inverse(om).sparse)

    d = {k: derivation_matrix(n, dgen, k) for k in range(n + 1)}
    dop = {}
    for k, mat in d.items():
        f, rows = _int_rows(mat.sparse)
        dop[k] = Fraction(1, f), rows

    # omega = Omega / e with Omega integer, so L = L_int / e
    e, (big_omega,) = _int_rows([omega])
    # volume normalization: v = omega^m / m!, v0 its top coefficient
    top = tuple(range(n))
    v0 = Fraction(wedge_power(big_omega, m).get(top, 0), math.factorial(m) * e ** m)
    if v0 == 0:
        raise AssertionError("volume form vanished for a nondegenerate omega")

    # star_k = (v0 / D^k) S_k, with S_k the compound C_k(P_int) whose row a
    # moves to the complement of a, signed by the merge
    gram = _compounds(p_int, n)
    full = set(range(n))
    star = {}
    L = {}
    lam = {}
    for k in range(n + 1):
        idx = multi_indices(n, k)
        co = len(idx)
        srows = [None] * co
        cpos = basis_positions(n, n - k)
        for i, a in enumerate(idx):
            acomp = tuple(sorted(full - set(a)))
            sgn, _ = merge_sign(a, acomp)
            srows[cpos[acomp]] = {j: sgn * x for j, x in gram[k][i].items()}
        star[k] = v0 / den_p ** k, srows
        lrows = [{} for _ in range(_dim(n, k + 2))]
        if k + 2 <= n:
            lpos = basis_positions(n, k + 2)
            for j, b in enumerate(idx):
                for mtup, c in wedge(big_omega, {b: 1}).items():
                    lrows[lpos[mtup]][j] = c
        L[k] = Fraction(1, e), lrows
        lam[k] = Fraction(1, den_p), _contraction(p_int, n, k)

    def get(table, k, shift):
        return _get(table, n, k, shift, _zero_op)

    # star_{n-k} star_k = id for k <= m covers every degree (square
    # factors); the star relation below rests on it, so it runs first
    for k in range(m + 1):
        if any(_minus(_compose(star[n - k], star[k]), _identity_op(1, _dim(n, k)))[1]):
            raise AssertionError("star star != id in degree %d" % k)
    d_lam = {}
    for k in range(n + 1):
        co = _dim(n, k)
        commutator = _minus(_compose(get(lam, k + 2, -2), L[k]),
                            _compose(get(L, k - 2, 2), lam[k]))
        if any(_minus(commutator, _identity_op(m - k, co))[1]):
            raise AssertionError("[Lambda, L] != (m - k) id in degree %d" % k)
        if any(_minus(_compose(get(dop, k + 2, 1), L[k]),
                      _compose(get(L, k + 1, 2), dop[k]))[1]):
            raise AssertionError("d L != L d in degree %d" % k)
        d_lam[k] = _minus(_compose(get(dop, k - 2, 1), lam[k]),
                          _compose(get(lam, k + 1, -2), dop[k]))
        # d_lam maps degree 0 into Lambda^{-1} = 0: nothing to compare.
        # d_lam_k = (-1)^(k+1) star d star, multiplied on the left by
        # star_{k-1}, keeps the dense star on one side of each product
        sgn = -1 if k % 2 == 0 else 1  # (-1)^(k+1)
        if k:
            s, rows = _compose(dop[n - k], star[k])
            if any(_minus(_compose(star[k - 1], d_lam[k]), (sgn * s, rows))[1]):
                raise AssertionError(
                    "d_lam != (-1)^(k+1) star d star in degree %d" % k
                )
    scaled = {name: {k: (s, Matrix.from_sparse(rows, _dim(n, k)))
                     for k, (s, rows) in table.items()}
              for name, table in (("star", star), ("L", L), ("Lam", lam),
                                  ("d", _over_one_scale(dop)),
                                  ("d_lam", _over_one_scale(d_lam)))}
    ops = Sl2Operators(n, m, d, scaled, lie.is_unimodular())
    dims = {k: _dim(n, k) for k in range(n + 1)}

    def nonzero(table):
        return {k: mat for k, mat in table.items() if not mat.is_zero() and mat.nrows}

    # the pair's relations are homogeneous in each differential, so they
    # are checked on d and d_lam each over its one scale: integer matrices
    copy = BidiffPair(dims, 1, -1, nonzero(ops.integer("d")), nonzero(ops.integer("d_lam")))
    bad = copy.validate()
    if bad:
        raise AssertionError("constructed pair invalid: " + "; ".join(bad))
    return BidiffPair(dims, 1, -1, nonzero(d), nonzero(ops.d_lam)), ops


def _new_leads(image, rows):
    """rk[U | D] - rk D, for the columns of U given as integer rows and
    image the _echelon basis of the columns of D: the leads that the rows
    gain when inserted, sparsest first, into a copy of image."""
    return len(_echelon(sorted(rows, key=len), image)[0]) - len(image)


def _transposed(table):
    """{k: the sparse rows of the transpose of table[k]}."""
    return {k: mat.transpose().sparse for k, mat in table.items()}


def _apply_L(lt, rows, s, r):
    """L^r applied to forms of degree s, given as rows: the rows of
    (L^r U)^T = U^T (L^T)^r, for lt the transposed rows of the integer L
    per degree (up to scales, the span is the same)."""
    for t in range(r):
        rows = _product(rows, lt[s + 2 * t])
    return rows


def hard_lefschetz(pa, ops):
    """Lefschetz maps on d-cohomology plus the flavor-dimension slack.

    lefschetz_iso[k] says whether L^k: H^{m-k} -> H^{m+k} is bijective;
    the slack table is BC^j + A^j - D1^j - D2^j, the slack of the refined
    inequality in degree j, and is asserted nonnegative.  pa is the
    PairAnalysis of the symplectic pair built with ops; the Betti numbers
    are its D1 table.  For a unimodular algebra D2^j = b_{n-j} = b_j, so
    the slack is BC + A - 2 b, and total slack zero is equivalent to all
    Lefschetz maps being bijective; that is asserted too.

    With K a basis of ker d_{m-k} and D = d_{m+k-1}, L^k maps H^{m-k}
    onto (span L^k K + im D) / im D, so its rank is rk[L^k K | D] - rk D
    (d L = L d makes the map well defined), and it is bijective iff that
    rank equals b_{m-k} = b_{m+k}.  K is integer_kernel's integer basis,
    L^k is applied to it through the integer L, and the rank is the
    number of leads that the vectors of L^k K gain on the image echelon
    of D.
    """
    n, m = ops.n, ops.m
    ops_d, lt = ops.integer("d"), _transposed(ops.integer("L"))
    betti = pa.flavor_table("D1", keep_zeros=True)
    iso = {}
    for k in range(m + 1):
        forms = _apply_L(lt, integer_kernel(ops_d[m - k]).sparse, m - k, k)
        r = _new_leads(ops.image_echelon(m + k - 1), forms)
        iso[k] = r == betti[m - k] == betti[m + k]
    holds = all(iso.values())

    bc = pa.flavor_table("BC", keep_zeros=True)
    aa = pa.flavor_table("A", keep_zeros=True)
    d2 = pa.flavor_table("D2", keep_zeros=True)
    slack = {}
    for k in range(n + 1):
        slack[k] = bc.get(k, 0) + aa.get(k, 0) - betti[k] - d2.get(k, 0)
        if slack[k] < 0:
            raise AssertionError("flavor slack negative in degree %d" % k)
    if ops.unimodular and (sum(slack.values()) == 0) != holds:
        raise AssertionError(
            "slack criterion and Lefschetz maps disagree on a unimodular algebra"
        )
    return {
        "lefschetz_iso": iso,
        "holds": holds,
        "slack": slack,
        "betti": betti,
    }


_PRIMITIVE = "dim - rk N_k - (rk N_{k-1} - rk [d_lam; Lam]_{k-1})"


def primitive_and_lefschetz_decomposition(pa, ops):
    """Primitive cohomology and the Lefschetz decomposition test.

    primitive[k] = dim of (ker d n ker d_lam n ker Lambda)^k modulo
    d((ker d_lam n ker Lambda)^{k-1}).  With N_k = [d; d_lam; Lambda]_k
    and dim M(ker N) = rk[M; N] - rk N, that is
    (dim Lambda^k - rk N_k) - (rk N_{k-1} - rk [d_lam; Lambda]_{k-1}).
    Both ranks come from one echelon_leads pass over the rows of Lambda_k
    and d_lam_k, then those of d_k: rk [d_lam; Lambda]_k counts the leads
    of the first rows, rk N_k all of them.

    The decomposition check asks, degree by degree, whether the images
    of L^r on P_{j-2r} = ker d n ker Lambda span H^j directly and exhaust
    it: with D = d_{j-1}, each part has dimension rk[L^r P | D] - rk D,
    all of them together rk[all parts | D] - rk D, and degree j holds iff
    that total equals the sum of the parts and b_j.  P is
    integer_kernel's basis; each part, and then all parts together, are
    inserted into a copy of the image echelon of D, eliminated once per
    degree.  pa is the PairAnalysis of the symplectic pair built with
    ops.
    """
    n = ops.n
    ops_d, ops_lam = ops.integer("d"), ops.integer("Lam")
    ops_dlam, lt = ops.integer("d_lam"), _transposed(ops.integer("L"))
    rk_n, rk_dlam = {-1: 0}, {-1: 0}
    for k in range(n + 1):
        first = sorted(ops_lam[k].sparse + ops_dlam[k].sparse, key=len)
        leads = echelon_leads(first + sorted(ops_d[k].sparse, key=len))
        rk_dlam[k] = sum(c >= 0 for c in leads[:len(first)])
        rk_n[k] = rk_dlam[k] + sum(c >= 0 for c in leads[len(first):])
    primitive = {k: _checked(_dim(n, k) - rk_n[k] - (rk_n[k - 1] - rk_dlam[k - 1]),
                             "degree", k, "primitive", _PRIMITIVE)
                 for k in range(n + 1)}

    betti = pa.flavor_table("D1", keep_zeros=True)
    prim_forms = {s: integer_kernel(vstack(ops_d[s], ops_lam[s])).sparse
                  for s in range(n + 1)}
    per_degree = {}
    for j in range(n + 1):
        image = ops.image_echelon(j - 1)
        parts = [_apply_L(lt, prim_forms[j - 2 * r], j - 2 * r, r)
                 for r in range(j // 2 + 1)]
        indep_sum = sum(_new_leads(image, u) for u in parts)
        total = _new_leads(image, [v for u in parts for v in u])
        per_degree[j] = total == indep_sum == betti[j]
    return {
        "primitive": primitive,
        "per_degree": per_degree,
        "decomposition_holds": all(per_degree.values()),
    }


# ---------------------------------------------------------------------------
# bigraded summaries


def type_n_view(dc_or_analysis):
    """Antidiagonal-transverse sums: {flavor: {p - q: total dim}} of a
    DoubleComplex or its Analysis (anything else raises ValueError).

    The per-slice inequality sum BC + sum A >= sum D1 + sum D2 follows
    from the cellwise one; it is asserted here as an engine guard.
    """
    a = Analysis.of(dc_or_analysis)
    out = {}
    for name in BIGRADED_FLAVORS:
        t = {}
        for (p, q), v in a.flavor_table(name).items():
            t[p - q] = t.get(p - q, 0) + v
        out[name] = {k: v for k, v in sorted(t.items()) if v}
    for k in {k for t in out.values() for k in t}:
        lhs = out["BC"].get(k, 0) + out["A"].get(k, 0)
        rhs = out["D1"].get(k, 0) + out["D2"].get(k, 0)
        if lhs < rhs:
            raise AssertionError(
                "transverse-slice inequality violated at %d (%d < %d)"
                % (k, lhs, rhs)
            )
    return out


# ---------------------------------------------------------------------------
# stock examples and random generation


def iwasawa_lie():
    """Real six-dimensional nilpotent algebra underlying the Iwasawa manifold."""
    return LieAlgebraPresentation(
        6,
        {
            (1, 3): {5: 1},
            (2, 4): {5: -1},
            (1, 4): {6: 1},
            (2, 3): {6: 1},
        },
    )


def iwasawa_complex_structure():
    """d phi^3 = -phi^1 ^ phi^2, the other coframe elements closed."""
    return ComplexStructureData(3, {3: {(0, 1): -1}})


def iwasawa_symplectic():
    return SymplecticData(
        iwasawa_lie(), {(1, 6): 1, (2, 5): 1, (3, 4): 1}
    )


BUILTIN_NAMES = ("iwasawa-complex", "iwasawa-symplectic", "heisenberg3",
                 "abelian:<n>")


def builtin(name):
    """Stock inputs by name; see the CLI help for the list."""
    if name == "iwasawa-complex":
        return complex_bicomplex(iwasawa_complex_structure())
    if name == "iwasawa-symplectic":
        return symplectic_pair(iwasawa_symplectic())
    if name == "heisenberg3":
        return LieAlgebraPresentation(3, {(1, 2): {3: 1}})
    if name.startswith("abelian:"):
        try:
            k = int(name.split(":", 1)[1])
        except ValueError:
            raise ValueError("abelian:<n> needs an integer dimension")
        if k < 0:
            raise ValueError("abelian:<n> needs a nonnegative dimension")
        return LieAlgebraPresentation(k, {})
    raise ValueError(
        "unknown builtin %r (available: iwasawa-complex, iwasawa-symplectic, "
        "heisenberg3, abelian:<n>)" % (name,)
    )


def random_nilpotent_lie(n, rng):
    """Triangular construction: de^i is a closed 2-form in e^1..e^{i-1}.

    Closedness of every generator image gives d d = 0 (hence Jacobi),
    and the strictly triangular shape forces nilpotency.
    """
    dgen = {}
    for i in range(2, n):
        # closed 2-forms of the partial algebra on generators 0..i-1
        mat = derivation_matrix(i, dgen, 2)
        closed = kernel(mat)
        idx = multi_indices(i, 2)
        form = {}
        for row in closed.rows:
            if rng.random() < 0.5:
                continue
            c = rng.choice((-2, -1, 1, 2))
            form = form_add(form, {idx[t]: c * v for t, v in enumerate(row) if v})
        if form:
            dgen[i] = form
    brackets = {}
    for k, form in dgen.items():
        for (i, j), c in form.items():
            brackets.setdefault((i + 1, j + 1), {})[k + 1] = -c
    return LieAlgebraPresentation(n, brackets)


def random_symplectic(n, seed, max_tries=40):
    """Random nilpotent algebra with a random closed nondegenerate 2-form.

    Returns None when no nondegenerate closed form turns up, so callers
    can move on to the next seed (some random algebras admit none).
    """
    rng = random.Random(seed)
    lie = random_nilpotent_lie(n, rng)
    dgen = lie.dgen()
    closed = kernel(derivation_matrix(n, dgen, 2))
    if closed.dim == 0:
        return None
    idx = multi_indices(n, 2)
    for _ in range(max_tries):
        coeffs = [rng.randint(-2, 2) for _ in range(closed.dim)]
        form = {}
        for c, row in zip(coeffs, closed.rows):
            if c:
                form = form_add(form, {idx[t]: c * v for t, v in enumerate(row) if v})
        omega = {(i + 1, j + 1): c for (i, j), c in form.items()}
        if not omega:
            continue
        sd = SymplecticData(lie, omega)
        if rank(sd.omega_matrix()) == n:
            return sd
    return None
