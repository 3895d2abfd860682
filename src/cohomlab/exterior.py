"""Exterior algebra on n ordered generators, with exact scalars.

Basis monomials of Lambda^k are strictly increasing k-tuples of
generator indices (0-based), ordered lexicographically; forms are
sparse dicts {tuple: coefficient}.  Everything here is generic over
the scalar type (int, Fraction, GaussianRational mix freely).

A differential is given on generators as dgen = {i: 2-form}; the
graded Leibniz rule

    d(e_{a0} ^ ... ^ e_{ak-1}) = sum_j (-1)^j  e_{a0} ^ .. ^ d(e_{aj}) ^ ..

extends it, and derivation_matrix realizes d: Lambda^k -> Lambda^{k+1}
in the monomial bases.  d d = 0 is NOT assumed; callers check it.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .linalg import Matrix

__all__ = [
    "basis_positions",
    "derivation_matrix",
    "extend_derivation",
    "form_add",
    "form_scale",
    "merge_sign",
    "multi_indices",
    "wedge",
    "wedge_power",
]

_POSITIONS = {}


def multi_indices(n, k):
    """All strictly increasing k-tuples in range(n), lex order."""
    return list(combinations(range(n), k))


def basis_positions(n, k):
    key = (n, k)
    pos = _POSITIONS.get(key)
    if pos is None:
        pos = {a: i for i, a in enumerate(combinations(range(n), k))}
        _POSITIONS[key] = pos
    return pos


def merge_sign(a, b):
    """Merge two increasing tuples; (sign, merged) or (0, None) on overlap.

    The sign is that of the shuffle sorting a + b, i.e. (-1)^inversions.
    """
    i, j = 0, 0
    la, lb = len(a), len(b)
    out = []
    inversions = 0
    while i < la and j < lb:
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        elif a[i] > b[j]:
            out.append(b[j])
            inversions += la - i
            j += 1
        else:
            return 0, None
    out.extend(a[i:])
    out.extend(b[j:])
    return (-1 if inversions % 2 else 1), tuple(out)


def form_add(f, g):
    out = dict(f)
    for k, v in g.items():
        s = out.get(k, 0) + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def form_scale(f, c):
    if not c:
        return {}
    return {k: c * v for k, v in f.items()}


def wedge(f, g):
    out = {}
    for a, ca in f.items():
        if not ca:
            continue
        for b, cb in g.items():
            if not cb:
                continue
            s, m = merge_sign(a, b)
            if not s:
                continue
            acc = out.get(m, 0) + s * ca * cb
            if acc:
                out[m] = acc
            else:
                out.pop(m, None)
    return out


def wedge_power(f, k):
    """f ^ f ^ ... ^ f, k factors (k >= 0; empty product is the scalar 1)."""
    out = {(): 1}
    for _ in range(k):
        out = wedge(out, f)
    return out


def extend_derivation(n, dgen):
    """The anti-derivation with the given generator images, as a function."""

    def d(form):
        out = {}
        for mono, c in form.items():
            if not c:
                continue
            for j, a in enumerate(mono):
                img = dgen.get(a)
                if not img:
                    continue
                prefix = mono[:j]
                suffix = mono[j + 1:]
                sgn_j = -1 if j % 2 else 1
                for piece, cc in img.items():
                    s1, m1 = merge_sign(prefix, piece)
                    if not s1:
                        continue
                    s2, m2 = merge_sign(m1, suffix)
                    if not s2:
                        continue
                    acc = out.get(m2, 0) + sgn_j * s1 * s2 * c * cc
                    if acc:
                        out[m2] = acc
                    else:
                        out.pop(m2, None)
        return out

    return d


def derivation_matrix(n, dgen, k):
    """Matrix of the derivation from Lambda^k to Lambda^{k+1}."""
    d = extend_derivation(n, dgen)
    src = multi_indices(n, k)
    tgt_pos = basis_positions(n, k + 1)
    rows = [{} for _ in range(comb(n, k + 1))]
    for col, mono in enumerate(src):
        for m, c in d({mono: 1}).items():
            rows[tgt_pos[m]][col] = c
    return Matrix.from_sparse(rows, len(src))
