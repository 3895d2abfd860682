"""Input documents: parse, validate, and build engine objects from JSON.

A document holds exactly one of three kinds of data:

  double_complex  {"entries": [{"p", "q", "dim"}],
                   "d1": [{"from": [p, q], "matrix": [...]}], "d2": [...]}
  bidiff_pair     {"degrees": [{"k", "dim"}], "deg1", "deg2",
                   "d1": [{"from": k, "matrix": [...]}], "d2": [...]}
  lie_algebra     {"dim", "structure": [{"i", "terms": [{"j","k","coeff"}]}],
                   "complex_structure"?: {"dphi": [...like structure...]},
                   "symplectic"?: {"omega": [{"j","k","coeff"}]}}

Scalars travel as strings ("3", "-1/2", "1/2+3 i"); matrices are
row-major lists of scalar strings, flat or split into rows.  Shape
errors, undeclared degrees, broken relations and the like raise
ValidationError (exit code 2 territory); malformed JSON, wrong types
and unparseable scalars raise ParseError (exit code 1).  Exponent
notation ("1e5") is unparseable: a short exponent makes a huge integer.

A declared object whose total dimension (the sum of the dims, or 2^dim
for a lie_algebra) exceeds MAX_TOTAL_DIM raises ValidationError before
anything is built, instead of hanging or exhausting memory.  So does a
double_complex whose p, q or p+q values span more than MAX_TOTAL_DIM,
and a bidiff_pair with |deg1 - deg2| above it: Tot and the spectral
pages walk every total degree and every column in between, and Tot of
a pair's Doub walks |deg1 - deg2| + 1 total degrees.  A
symplectic lie_algebra above MAX_SYMPLECTIC_DIM generators raises
ValidationError too: on a 2-core Xeon host its analysis takes about
2.7 s at dimension 10 (building the operator calculus about 0.8 s of
it, the symplectic sections about 0.7 s).
Dimension 12 has not been timed since Lambda became a contraction by
omega^-1.  Before, symplectic_pair had not returned there after 17
minutes of process time, in the products that built Lambda = star L
star.  The dense product left is the check star_{n-k} star_k = id in
the middle degree, where the star is a 924 x 924 compound of
omega^-1; at dimension 10 a third of its middle degree is nonzero.
So does a symplectic block whose coefficients, or those of its
algebra, are not rational: the operator calculus runs on integers.
"""

from __future__ import annotations

import json
import warnings

from .complexes import BidiffPair, DoubleComplex, cell_name
from .geometry import (
    ComplexStructureData,
    LieAlgebraPresentation,
    SymplecticData,
    ce_complex,
    complex_bicomplex,
    symplectic_pair,
)
from .linalg import Matrix
from .scalars import format_scalar, parse_scalar

__all__ = [
    "ParseError",
    "ValidationError",
    "InputDocument",
    "BuildResult",
    "parse_document",
    "load_document",
    "build",
    "document_for_double_complex",
    "canonical_json",
    "check_lie_dim",
]

KINDS = ("double_complex", "bidiff_pair", "lie_algebra")

# covers the 1024-dim Dolbeault ladder rung and a 1500-dim single space
MAX_TOTAL_DIM = 4096

# largest symplectic algebra analyzed; see the module docstring
MAX_SYMPLECTIC_DIM = 10


class ParseError(ValueError):
    """The document is not well-formed: shape, types, or scalar syntax."""


class ValidationError(ValueError):
    """Well-formed input describing an inconsistent object."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class InputDocument:
    """Parsed input: kind plus the engine-ready payload pieces."""

    __slots__ = ("kind", "payload", "raw")

    def __init__(self, kind, payload, raw):
        self.kind = kind
        self.payload = payload
        self.raw = raw


class BuildResult:
    __slots__ = ("kind", "obj", "ops", "lie", "warnings")

    def __init__(self, kind, obj, ops=None, lie=None, warns=()):
        self.kind = kind
        self.obj = obj
        self.ops = ops
        self.lie = lie
        self.warnings = list(warns)


def _check_total_dim(total, where):
    if total > MAX_TOTAL_DIM:
        raise ValidationError("%s: total dimension %d exceeds the bound %d"
                              % (where, total, MAX_TOTAL_DIM))


def _check_span(values, what, where):
    if values and max(values) - min(values) > MAX_TOTAL_DIM:
        lo, hi = min(values), max(values)
        raise ValidationError("%s: %s range %d..%d spans %d, above the bound %d"
                              % (where, what, lo, hi, hi - lo, MAX_TOTAL_DIM))


def check_lie_dim(n, where):
    """Reject an n-dim algebra whose exterior algebra (dim 2^n) is too big."""
    # compares n with log2 of the bound, so a huge n never builds 2**n
    if n >= MAX_TOTAL_DIM.bit_length():
        raise ValidationError(
            "%s: dimension %d gives an exterior algebra of dimension 2^%d,"
            " above the bound %d" % (where, n, n, MAX_TOTAL_DIM))


def _expect(cond, msg):
    if not cond:
        raise ParseError(msg)


def _get(obj, key, types, where, optional=False, default=None):
    if key not in obj:
        if optional:
            return default
        raise ParseError("%s: missing key %r" % (where, key))
    v = obj[key]
    if not isinstance(v, types):
        raise ParseError("%s: key %r has the wrong type" % (where, key))
    return v


def _int(obj, key, where):
    v = _get(obj, key, (int,), where)
    if isinstance(v, bool):
        raise ParseError("%s: key %r has the wrong type" % (where, key))
    return v


def _scalar(s, where):
    if not isinstance(s, str):
        raise ParseError("%s: scalar entries must be strings" % where)
    try:
        return parse_scalar(s)
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError("%s: bad scalar %r (%s)" % (where, s, e))


def _matrix(data, nrows, ncols, where):
    """Row-major scalar strings, flat or nested by rows."""
    if not isinstance(data, list):
        raise ParseError("%s: matrix must be a list" % where)
    if data and isinstance(data[0], list):
        _expect(all(isinstance(r, list) for r in data),
                "%s: every row of a nested matrix must be a list" % where)
        if len(data) != nrows or any(len(r) != ncols for r in data):
            raise ValidationError(
                "%s: matrix shape %dx%s, expected %dx%d"
                % (where, len(data), {len(r) for r in data} or "0", nrows, ncols)
            )
        flat = [x for row in data for x in row]
    else:
        if len(data) != nrows * ncols:
            raise ValidationError(
                "%s: matrix has %d entries, expected %d x %d = %d"
                % (where, len(data), nrows, ncols, nrows * ncols)
            )
        flat = data
    rows = []
    for r in range(nrows):
        rows.append([_scalar(flat[r * ncols + c], where) for c in range(ncols)])
    return Matrix(rows, ncols=ncols)


def _cell(obj, coords, where):
    """The cell named by the ints obj[c] for c in coords: (p, q), or a degree."""
    key = tuple(_int(obj, c, where) for c in coords)
    return key if len(key) > 1 else key[0]


def _parse_spaces(spec, kind, list_key, coords):
    """{cell: dim} from [{coords..., "dim"}], zero dims dropped."""
    where = "%s.%s" % (kind, list_key)
    spaces = {}
    for e in _get(spec, list_key, (list,), kind):
        _expect(isinstance(e, dict), where + ": items must be objects")
        key = _cell(e, coords, where)
        dim = _int(e, "dim", where)
        if dim < 0:
            raise ValidationError("space at %s: negative dimension" % cell_name(key))
        if key in spaces:
            raise ValidationError("space at %s declared twice" % cell_name(key))
        if dim:
            spaces[key] = dim
    _check_total_dim(sum(spaces.values()), kind)
    return spaces


def _parse_blocks(spec, kind, coords, obj):
    """Fill obj.d1 and obj.d2 from [{"from", "matrix"}] and validate obj.
    "from" is [p, q] for a double complex and k for a pair."""
    for name, blocks, step in (("d1", obj.d1, (1, 0)), ("d2", obj.d2, (0, 1))):
        for b in _get(spec, name, (list,), kind, optional=True, default=[]):
            _expect(isinstance(b, dict), "%s: items must be objects" % name)
            src = _get(b, "from", (list,) if len(coords) > 1 else (int,), name)
            if not isinstance(src, list):
                src = [src]
            _expect(len(src) == len(coords), "%s: 'from' must be [p, q]" % name)
            key = _cell(dict(zip(coords, src)), coords, name + ".from")
            here = "%s block at %s" % (name, cell_name(key))
            if key in blocks:
                raise ValidationError(here + " given twice")
            tgt = obj.shift(key, *step)
            if key not in obj.dims:
                raise ValidationError(here + ": source space not declared")
            if tgt not in obj.dims:
                raise ValidationError(here + ": target space not declared")
            blocks[key] = _matrix(_get(b, "matrix", (list,), here),
                                  obj.dims[tgt], obj.dims[key], here)
    bad = obj.validate()
    if bad:
        raise ValidationError(bad)
    return obj


def _parse_double_complex(spec):
    coords = ("p", "q")
    spaces = _parse_spaces(spec, "double_complex", "entries", coords)
    for what, values in (("p", [p for p, _q in spaces]), ("q", [q for _p, q in spaces]),
                         ("p+q", [p + q for p, q in spaces])):
        _check_span(values, what, "double_complex")
    return _parse_blocks(spec, "double_complex", coords, DoubleComplex(spaces, {}, {}))


def _parse_bidiff_pair(spec):
    coords = ("k",)
    dims = _parse_spaces(spec, "bidiff_pair", "degrees", coords)
    deg1 = _int(spec, "deg1", "bidiff_pair")
    deg2 = _int(spec, "deg2", "bidiff_pair")
    if deg1 == 0 or deg2 == 0:
        raise ValidationError("differential degrees must be nonzero")
    _check_span((deg1, deg2), "deg1/deg2", "bidiff_pair")
    return _parse_blocks(spec, "bidiff_pair", coords, BidiffPair(dims, deg1, deg2, {}, {}))


def _parse_two_form_terms(items, where, n_gens):
    """[{j, k, coeff}] with 1-based generator indices j < k."""
    form = {}
    for t in items:
        _expect(isinstance(t, dict), where + ": items must be objects")
        j = _int(t, "j", where)
        k = _int(t, "k", where)
        c = _scalar(_get(t, "coeff", (str,), where), where)
        if not (1 <= j < k <= n_gens):
            raise ValidationError(
                "%s: indices (%d,%d) out of range or unordered" % (where, j, k))
        key = (j - 1, k - 1)
        if key in form:
            raise ValidationError("%s: term e%d^e%d repeated" % (where, j, k))
        if c:
            form[key] = c
    return form


def _parse_lie_algebra(spec):
    n = _int(spec, "dim", "lie_algebra")
    if n <= 0:
        raise ValidationError("lie_algebra: dimension must be positive")
    check_lie_dim(n, "lie_algebra")
    structure = _get(spec, "structure", (list,), "lie_algebra",
                     optional=True, default=None)
    cs_spec = _get(spec, "complex_structure", (dict,), "lie_algebra",
                   optional=True, default=None)
    sy_spec = _get(spec, "symplectic", (dict,), "lie_algebra",
                   optional=True, default=None)
    if cs_spec is not None and structure is not None:
        raise ValidationError(
            "complex_structure carries its own structure equations; "
            "give one or the other")
    if cs_spec is not None and sy_spec is not None:
        raise ValidationError(
            "complex_structure and symplectic cannot be combined")
    if sy_spec is not None and n > MAX_SYMPLECTIC_DIM:
        raise ValidationError("symplectic: dimension %d is above the bound %d"
                              % (n, MAX_SYMPLECTIC_DIM))

    if cs_spec is not None:
        if n % 2:
            raise ValidationError(
                "complex_structure needs an even-dimensional algebra")
        half = n // 2
        dphi = {}
        for row in _get(cs_spec, "dphi", (list,), "complex_structure"):
            _expect(isinstance(row, dict), "dphi: items must be objects")
            i = _int(row, "i", "dphi")
            if not (1 <= i <= half):
                raise ValidationError("dphi: generator %d out of range" % i)
            if i in dphi:
                raise ValidationError("dphi for generator %d given twice" % i)
            terms = _get(row, "terms", (list,), "dphi")
            dphi[i] = _parse_two_form_terms(terms, "dphi[%d]" % i, n)
        try:
            csd = ComplexStructureData(half, dphi)
        except ValueError as e:
            raise ValidationError(str(e))
        return ("complex", csd)

    brackets = {}
    for row in structure or []:
        _expect(isinstance(row, dict), "structure: items must be objects")
        i = _int(row, "i", "structure")
        if not (1 <= i <= n):
            raise ValidationError("structure: generator %d out of range" % i)
        terms = _get(row, "terms", (list,), "structure")
        form = _parse_two_form_terms(terms, "d e%d" % i, n)
        for (j0, k0), c in form.items():
            # d e^i = sum coeff e^j ^ e^k  encodes  c^i_{jk} = -coeff
            pair = (j0 + 1, k0 + 1)
            brackets.setdefault(pair, {})
            if i in brackets[pair]:
                raise ValidationError(
                    "structure: e%d appears twice in d e%d" % (i, i))
            brackets[pair][i] = -c
    try:
        lie = LieAlgebraPresentation(n, brackets)
    except ValueError as e:
        raise ValidationError(str(e))

    if sy_spec is not None:
        omega_terms = _get(sy_spec, "omega", (list,), "symplectic")
        form = _parse_two_form_terms(omega_terms, "omega", n)
        omega = {(a + 1, b + 1): c for (a, b), c in form.items()}
        try:
            sd = SymplecticData(lie, omega)
        except ValueError as e:
            raise ValidationError(str(e))
        return ("symplectic", sd)

    return ("plain", lie)


def parse_document(obj):
    """Dict (already JSON-decoded) to InputDocument."""
    _expect(isinstance(obj, dict), "input document must be a JSON object")
    present = [k for k in KINDS if k in obj]
    if len(present) != 1:
        raise ParseError(
            "input document must contain exactly one of %s" % (", ".join(KINDS)))
    kind = present[0]
    spec = obj[kind]
    _expect(isinstance(spec, dict), "%s must be an object" % kind)
    if kind == "double_complex":
        payload = _parse_double_complex(spec)
    elif kind == "bidiff_pair":
        payload = _parse_bidiff_pair(spec)
    else:
        payload = _parse_lie_algebra(spec)
    return InputDocument(kind, payload, obj)


def load_document(path):
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError("cannot read %s: %s" % (path, e))
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError("invalid JSON in %s: %s" % (path, e))
    return parse_document(obj)


def build(doc):
    """Turn a parsed document into engine objects, collecting warnings.

    Geometry constructors raise ValueError on mathematically bad input
    (Jacobi, integrability, omega); those surface as ValidationError.
    """
    caught = []
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        try:
            if doc.kind == "double_complex":
                result = BuildResult("double_complex", doc.payload)
            elif doc.kind == "bidiff_pair":
                result = BuildResult("bidiff_pair", doc.payload)
            else:
                sub, data = doc.payload
                if sub == "plain":
                    result = BuildResult("lie_algebra", ce_complex(data), lie=data)
                elif sub == "complex":
                    result = BuildResult("lie_complex", complex_bicomplex(data))
                else:
                    pair, ops = symplectic_pair(data)
                    result = BuildResult("lie_symplectic", pair, ops=ops,
                                         lie=data.lie)
        except ValueError as e:
            raise ValidationError(str(e))
        caught = ["%s" % w.message for w in rec]
    result.warnings.extend(caught)
    return result


def document_for_double_complex(dc):
    """Inverse of the double_complex parser, for writing reproducers."""
    entries = [{"p": p, "q": q, "dim": dc.spaces[(p, q)]}
               for (p, q) in sorted(dc.spaces)]

    def blocks(table):
        out = []
        for (p, q) in sorted(table):
            m = table[(p, q)]
            out.append({
                "from": [p, q],
                "matrix": [format_scalar(x) for row in m.rows for x in row],
            })
        return out

    return {"double_complex": {
        "entries": entries, "d1": blocks(dc.d1), "d2": blocks(dc.d2),
    }}


def canonical_json(obj):
    """Deterministic serialization used for hashing and reports."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
