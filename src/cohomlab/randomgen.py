"""Random bounded double complexes with known answers.

Every generated complex is a direct sum of indecomposable pieces (dots,
horizontal/vertical segments, anticommuting squares, zigzags), placed at
random bidegrees and then conjugated per bidegree by random unimodular
integer matrices.  Conjugation changes every matrix entry but no
cohomology dimension, so the recorded shape multiset is exact ground
truth for all the dimension tables and for the lemma verdict (the
del-del-type lemma holds iff no segment or zigzag is present).

Shape records are plain tuples so they serialize trivially:
    ("dot", p, q) | ("hseg", p, q) | ("vseg", p, q) | ("square", p, q)
  | ("zigzag", p, q, length, orient)     orient in {"lower", "upper"}

A zigzag alternates d1 and d2 arrows starting with d1.  "lower" walks
the staircase down-right with odd-index spots as sources:

    s1 --d1--> s2 <--d2-- s3 --d1--> s4 <--d2-- s5 ...

"upper" is the reflection (even-index spots are the sources).  A length
2 "lower" zigzag is exactly a horizontal segment.

Each shape has one description (_shape_table): its one-dimensional spots
and its blocks as (d1 or d2, source spot, +-1).  shape_complex builds the
complex from it, shape_dim counts its spots, and the per-spot rules of
predicted_tables read its arrows, not a built complex.
"""

from __future__ import annotations

import random

from .linalg import Matrix, _lincomb
from .complexes import DoubleComplex

__all__ = [
    "RandomBicomplex",
    "assemble",
    "direct_sum",
    "predicted_tables",
    "random_bicomplex",
    "random_shapes",
    "shape_complex",
    "shape_dim",
    "zigzag_spots",
]


def zigzag_spots(p, q, length, orient):
    spots = [(p, q)]
    for i in range(1, length):
        pp, qq = spots[-1]
        if orient == "lower":
            spots.append((pp + 1, qq) if i % 2 == 1 else (pp, qq - 1))
        else:
            spots.append((pp - 1, qq) if i % 2 == 1 else (pp, qq + 1))
    return spots


def _shape_table(shape):
    """(spots, blocks): the one description of a shape.

    spots are its one-dimensional spaces; each block is (d, source, sign),
    the 1x1 matrix [sign] of d = "d1" (one step right) or "d2" (one step
    up) out of the source spot.
    """
    kind, p, q = shape[0], shape[1], shape[2]
    if kind == "dot":
        return [(p, q)], []
    if kind == "hseg":
        return [(p, q), (p + 1, q)], [("d1", (p, q), 1)]
    if kind == "vseg":
        return [(p, q), (p, q + 1)], [("d2", (p, q), 1)]
    if kind == "square":
        # a=(p,q), b=(p+1,q), c=(p,q+1), d=(p+1,q+1)
        # d1 a = b, d2 a = c, d2 b = -d, d1 c = d: then d1d2 + d2d1 = d - d = 0
        a, b, c, d = (p, q), (p + 1, q), (p, q + 1), (p + 1, q + 1)
        return [a, b, c, d], [("d1", a, 1), ("d1", c, 1), ("d2", a, 1), ("d2", b, -1)]
    if kind == "zigzag":
        length, orient = shape[3], shape[4]
        if length < 2:
            raise ValueError("zigzag needs length >= 2")
        if orient not in ("lower", "upper"):
            raise ValueError("orient must be 'lower' or 'upper'")
        spots = zigzag_spots(p, q, length, orient)
        # arrow i joins spots i-1 and i and is d1 for odd i; a "lower"
        # zigzag has the earlier spot as the source of its odd arrows, an
        # "upper" one of its even arrows
        blocks = []
        for i in range(1, length):
            source = spots[i - 1] if (i % 2 == 1) == (orient == "lower") else spots[i]
            blocks.append(("d1" if i % 2 == 1 else "d2", source, 1))
        return spots, blocks
    raise ValueError("unknown shape kind %r" % (kind,))


def shape_complex(shape):
    spots, blocks = _shape_table(shape)
    d = {"d1": {}, "d2": {}}
    for which, source, sign in blocks:
        d[which][source] = Matrix.from_sparse([{0: sign}], 1)
    return DoubleComplex(dict.fromkeys(spots, 1), d["d1"], d["d2"])


def shape_dim(shape):
    return len(_shape_table(shape)[0])


def direct_sum(pieces):
    """Direct sum of double complexes (block diagonal per bidegree)."""
    spaces = {}
    offsets = []  # one {cell: offset} per piece
    for dc in pieces:
        offs = {}
        for cell, d in dc.spaces.items():
            offs[cell] = spaces.get(cell, 0)
            spaces[cell] = spaces.get(cell, 0) + d
        offsets.append(offs)
    d1 = {}
    d2 = {}
    for which, tshift in (("d1", (1, 0)), ("d2", (0, 1))):
        tgt_dict = d1 if which == "d1" else d2
        for dc, offs in zip(pieces, offsets):
            blocks = dc.d1 if which == "d1" else dc.d2
            for (p, q), m in blocks.items():
                tcell = (p + tshift[0], q + tshift[1])
                big = tgt_dict.get((p, q))
                if big is None:
                    big = [{} for _ in range(spaces[tcell])]
                    tgt_dict[(p, q)] = big
                coff = offs[(p, q)]
                for brow, row in zip(big[offs[tcell]:], m.sparse):
                    for j, x in row.items():
                        brow[coff + j] = x
    d1 = {cell: Matrix.from_sparse(rows, spaces[cell]) for cell, rows in d1.items()}
    d2 = {cell: Matrix.from_sparse(rows, spaces[cell]) for cell, rows in d2.items()}
    return DoubleComplex(spaces, d1, d2)


def random_unimodular(k, rng):
    """Product of a few elementary integer row operations; det = +-1."""
    return _unimodular_pair(k, rng)[0]


def _unimodular_pair(k, rng):
    """(m, m^-1) for the m of random_unimodular, from the same draws.

    Each row operation m -> E m is undone on the inverse, kept by its
    columns, as m^-1 -> m^-1 E^-1: row i += c row j as column j -= c
    column i, and a swap or a negation as the same one on columns."""
    rows = [{i: 1} for i in range(k)]
    cols = [{i: 1} for i in range(k)]
    for _ in range(rng.randint(k, 3 * k)):
        op = rng.randrange(3)
        i = rng.randrange(k)
        if op == 0 and k > 1:
            j = rng.randrange(k)
            if j != i:
                c = rng.choice((-1, 1))
                rows[i] = _lincomb(1, rows[i], c, rows[j])
                cols[j] = _lincomb(1, cols[j], -c, cols[i])
        elif op == 1 and k > 1:
            j = rng.randrange(k)
            rows[i], rows[j] = rows[j], rows[i]
            cols[i], cols[j] = cols[j], cols[i]
        else:
            rows[i] = {col: -a for col, a in rows[i].items()}
            cols[i] = {row: -a for row, a in cols[i].items()}
    return Matrix.from_sparse(rows, k), Matrix.from_sparse(cols, k).transpose()


def conjugate_complex(dc, rng):
    """Change basis independently in every bidegree; dims are untouched."""
    s = {}
    s_inv = {}
    for cell, d in dc.spaces.items():
        s[cell], s_inv[cell] = _unimodular_pair(d, rng)
    d1 = {}
    d2 = {}
    for blocks, tgt, tshift in ((dc.d1, d1, (1, 0)), (dc.d2, d2, (0, 1))):
        for (p, q), m in blocks.items():
            tcell = (p + tshift[0], q + tshift[1])
            tgt[(p, q)] = s[tcell].mul(m).mul(s_inv[(p, q)])
    return DoubleComplex(dict(dc.spaces), d1, d2)


class RandomBicomplex:
    """A generated complex together with its ground-truth shape multiset."""

    def __init__(self, dc, shapes):
        self.dc = dc
        self.shapes = list(shapes)

    def total_dim(self):
        return self.dc.total_dim()


def assemble(shapes, conj_seed=None):
    """Build the direct sum of the given shapes; conjugate if seed given."""
    dc = direct_sum([shape_complex(s) for s in shapes])
    if conj_seed is not None:
        dc = conjugate_complex(dc, random.Random(conj_seed))
    return dc


# the longest zigzag random_shapes draws by default
_MAX_ZIGZAG = 5


def random_shapes(rng, counts, max_span=3, max_zigzag=_MAX_ZIGZAG):
    shapes = []
    for kind in sorted(counts):
        for _ in range(counts[kind]):
            p = rng.randint(-max_span, max_span)
            q = rng.randint(-max_span, max_span)
            if kind == "zigzag":
                length = rng.randint(3, max(3, max_zigzag))
                orient = rng.choice(("lower", "upper"))
                shapes.append(("zigzag", p, q, length, orient))
            else:
                shapes.append((kind, p, q))
    return shapes


def _draw_dim(kind):
    """The dimension of the largest shape of this kind that random_shapes
    draws by default; ValueError for an unknown kind."""
    if kind == "zigzag":
        return shape_dim(("zigzag", 0, 0, _MAX_ZIGZAG, "lower"))
    return shape_dim((kind, 0, 0))


def random_bicomplex(seed, params):
    """Random validated double complex with recorded ground truth.

    params keys: "counts" ({kind: how many}), "max_span" (anchor range,
    default 3), "max_zigzag" (default 5).
    """
    rng = random.Random(seed)
    shapes = random_shapes(
        rng,
        dict(params.get("counts", {})),
        params.get("max_span", 3),
        params.get("max_zigzag", _MAX_ZIGZAG),
    )
    dc = conjugate_complex(direct_sum([shape_complex(s) for s in shapes]), rng)
    return RandomBicomplex(dc, shapes)


# ---------------------------------------------------------------------------
# ground truth


# Per-spot ground truth, read off the arrows of the shape.  Outside the
# squares every spot is one-dimensional, no d1d2 arrow exists (so im d1d2
# is 0 and ker d1d2 is the spot), an arrow into a spot makes its image
# the spot, an arrow out makes its kernel 0, and a spot has arrows in
# only (a sink) or out only (a source).  A quotient of these is 1 exactly
# when its numerator is the spot and its denominator 0:
#
#   D1 = ker d1 / im d1:  no d1 arrow         D2: no d2 arrow
#   BC = ker d1 n ker d2: no arrow out         A = spot / (im d1 + im d2): no arrow in
#   V1 = im d1 n im d2:   d1 and d2 in         V2 = ker d1 n im d2: d2 in
#   V3 = ker d2 n im d1:  d1 in                V4 = spot / (ker d1 + im d2): d1 out
#   V5 = spot / (ker d2 + im d1): d2 out       V6 = spot / (ker d1 + ker d2): d1 and d2 out
#   rank BC -> A: BC and A, so no arrow at all (the dots, Stelzig 1812.00865)
#
# A square is exact for d1, d2, d1 + d2 and both BC and A senses, so it
# adds nothing.  Each value maps to (arrows required, arrows excluded).
_SPOT_RULES = {
    "D1": ((), ("in1", "out1")),
    "D2": ((), ("in2", "out2")),
    "BC": ((), ("out1", "out2")),
    "A": ((), ("in1", "in2")),
    "V1": (("in1", "in2"), ()),
    "V2": (("in2",), ()),
    "V3": (("in1",), ()),
    "V4": (("out1",), ()),
    "V5": (("out2",), ()),
    "V6": (("out1", "out2"), ()),
    "BC->A": ((), ("in1", "in2", "out1", "out2")),
}


def _spot_arrows(shape):
    """{spot: set of "in1", "out1", "in2", "out2"} from the shape's table."""
    spots, blocks = _shape_table(shape)
    arrows = {spot: set() for spot in spots}
    for d, (p, q), _sign in blocks:
        arrows[(p, q)].add("out" + d[1])
        arrows[(p + 1, q) if d == "d1" else (p, q + 1)].add("in" + d[1])
    return arrows


def predicted_tables(shapes):
    """Dimension tables forced by the shape multiset.

    Returns {"D1", "D2", "BC", "A", "V1".."V6", "BC->A": {(p, q): ...},
    "TOT": {n: ...}, "lemma": bool}; "BC->A" is the rank of that map.
    Only nonzero entries appear.  Total cohomology is one class per dot
    and per odd-length zigzag, in the total degree of its first spot.
    """
    tables = {name: {} for name in _SPOT_RULES}
    tables["TOT"] = {}

    def add(name, key):
        t = tables[name]
        t[key] = t.get(key, 0) + 1

    lemma = True
    for shape in shapes:
        kind = shape[0]
        if kind == "square":
            continue
        for spot, arrows in _spot_arrows(shape).items():
            for name, (need, lack) in _SPOT_RULES.items():
                if arrows.issuperset(need) and arrows.isdisjoint(lack):
                    add(name, spot)
        if kind == "dot" or (kind == "zigzag" and shape[3] % 2 == 1):
            add("TOT", shape[1] + shape[2])
        if kind != "dot":
            lemma = False
    tables["lemma"] = lemma
    return tables
