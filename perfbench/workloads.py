"""The benchmark workloads: seeded inputs, one timed op each, and oracles.

Every workload turns the seed into a list of inputs at set-up, runs one
op per input through public cohomlab entry points, and checks each op's
output with an oracle that, where possible, does not go through the code
path being timed.  An op that raises, exits nonzero or misses its oracle
counts as failed.

Times quoted here were measured with Python 3.11.7 on a 2-core Intel
Xeon virtual machine.

Calls go through module attributes (``randomgen.assemble``, not a name
imported into this module) so that the traced run's wrappers, which
are installed on those attributes, see them.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from fractions import Fraction
from io import StringIO

from cohomlab import cli, geometry, properties, randomgen
from cohomlab.io import canonical_json
from cohomlab.scalars import GaussianRational, format_scalar

__all__ = ["WORKLOADS", "OracleMiss"]


class OracleMiss(Exception):
    """An op finished but its output contradicts the workload's oracle."""


def _expect(cond, msg):
    if not cond:
        raise OracleMiss(msg)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _run_cli(argv):
    out, err = StringIO(), StringIO()
    code = cli.main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def _report(result):
    code, text, err = result
    _expect(code == 0, "exit code %d: %s" % (code, err.strip()[:200]))
    return json.loads(text)


# ---------------------------------------------------------------------------
# fuzz-mix: what `cohomlab fuzz` does per seed, on criterion 5's draw

SHAPE_COST = {"dot": 1, "hseg": 2, "vseg": 2, "square": 4, "zigzag": 5}


def draw_budget(rng):
    """Criterion 5's cost budget: 14, 24 or 40 with odds 80/15/5."""
    u = rng.random()
    return 14 if u < 0.80 else (24 if u < 0.95 else 40)


def fill_counts(rng, budget):
    """Criterion 5's shape counts: random shapes until the budget is full."""
    counts, spent = {}, 0
    while True:
        fits = [k for k in SHAPE_COST if spent + SHAPE_COST[k] <= budget]
        if not fits:
            return counts
        kind = rng.choice(fits)
        counts[kind] = counts.get(kind, 0) + 1
        spent += SHAPE_COST[kind]


class FuzzMix:
    """assemble + check_bicomplex on criterion 5's first draws.

    The shapes are fixed: criterion 5's complexes from seed 0 on, keeping
    the first 80 of budget 14, 15 of budget 24 and 5 of budget 40.  The
    seed picks the change of basis in every bidegree, which is the other
    half of what `cohomlab fuzz` draws per complex.  Fresh shape draws per
    seed would not do: the work of 100 fresh draws spreads by 0.20
    (quartile distance over median, ten seeds), because it depends on how
    the shapes happen to spread over the bidegrees.
    """

    name = "fuzz-mix"
    quota = {14: 80, 24: 15, 40: 5}

    def __init__(self, seed, workdir):
        self.seed = seed

    def make_inputs(self):
        left = dict(self.quota)
        inputs = []
        s = 0
        while any(left.values()):
            rng = random.Random(1_000_000_007 + s)
            budget = draw_budget(rng)
            if left[budget]:
                left[budget] -= 1
                # the shapes random_bicomplex(s, ...) draws before it
                # builds the complex
                shapes = randomgen.random_shapes(random.Random(s),
                                                 fill_counts(rng, budget))
                conj_seed = self.seed * 1_000_003 + len(inputs)
                inputs.append((conj_seed, shapes))
            s += 1
        return inputs

    def run(self, inp):
        conj_seed, shapes = inp
        dc = randomgen.assemble(shapes, conj_seed)
        an = properties.check_bicomplex(dc, shapes=shapes)
        return dc, an

    def check(self, inp, result):
        # check_bicomplex already raised on any property or ground-truth miss
        dc, _an = result
        _expect(dc.total_dim() <= 40,
                "input %d: total dim %d exceeds 40" % (inp[0], dc.total_dim()))

    def digest(self, result):
        _dc, an = result
        tables = {name: {"%d,%d" % k: v for k, v in an.flavor_table(name).items()}
                  for name in ("D1", "D2", "BC", "A")}
        for sign, tag in ((1, "TOT_PLUS"), (-1, "TOT_MINUS")):
            tables[tag] = {str(k): v for k, v in an.total_table(sign).items()}
        return _sha(canonical_json(tables))


# ---------------------------------------------------------------------------
# symplectic-batch: criterion 6's algebras through `cohomlab analyze`


CRITERION6_DIMS = (2, 4, 6)


def criterion6_algebras(count):
    """The first `count` algebras of criterion 6's draw, dims cycling."""
    out, seed = [], 0
    while len(out) < count:
        dim = CRITERION6_DIMS[len(out) % len(CRITERION6_DIMS)]
        sd = geometry.random_symplectic(dim, seed)
        seed += 1
        if sd is not None:
            out.append(sd)
    return out


def flip_signs(sd, rng):
    """The same algebra and form in the basis e_i -> s_i e_i, s_i = +-1."""
    n = sd.lie.n
    s = [0] + [rng.choice((-1, 1)) for _ in range(n)]
    brackets = {(j, k): {i: c * s[i] * s[j] * s[k] for i, c in tg.items()}
                for (j, k), tg in sd.lie.brackets.items()}
    omega = {(j, k): c * s[j] * s[k] for (j, k), c in sd.omega.items()}
    return geometry.SymplecticData(
        geometry.LieAlgebraPresentation(n, brackets), omega)


def symplectic_document(sd):
    """lie_algebra + symplectic input document for one SymplecticData."""
    rows = {}
    for (j, k), tg in sorted(sd.lie.brackets.items()):
        for i, c in tg.items():
            # d e^i = sum coeff e^j ^ e^k encodes [e_j, e_k] = -coeff e_i
            rows.setdefault(i, []).append(
                {"j": j, "k": k, "coeff": format_scalar(-c)})
    return {"lie_algebra": {
        "dim": sd.lie.n,
        "structure": [{"i": i, "terms": rows[i]} for i in sorted(rows)],
        "symplectic": {"omega": [
            {"j": j, "k": k, "coeff": format_scalar(c)}
            for (j, k), c in sorted(sd.omega.items())]},
    }}


def _write_doc(workdir, name, doc):
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        fh.write(canonical_json(doc))
    return path


class SymplecticBatch:
    """`cohomlab analyze` on algebras from criterion 6's first 24.

    Criterion 6 cycles through dims 2, 4 and 6; this keeps the first two
    algebras of dim 2, all eight of dim 4 and the first two of dim 6.  The
    dim-6 algebras take nearly all the time and set the p90, the dim-4
    ones set the p50, and eight of them keep that median from
    resting on one or two inputs.  The seed picks a signed change of
    basis per algebra, so every seed writes different documents for the
    same isomorphism classes; that alone moves a dim-4 op's fastest time
    by up to 40%.  Drawing new algebras per seed would not do: analyze times
    of dim-6 algebras spread with a coefficient of variation near 0.4.
    """

    name = "symplectic-batch"
    quota = {2: 2, 4: 8, 6: 2}
    pool = 24

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def algebras(self):
        left = dict(self.quota)
        out = []
        for sd in criterion6_algebras(self.pool):
            if left[sd.lie.n]:
                left[sd.lie.n] -= 1
                out.append(sd)
        return out

    def make_inputs(self):
        rng = random.Random(self.seed)
        inputs = []
        for idx, sd in enumerate(self.algebras()):
            sd = flip_signs(sd, rng)
            path = _write_doc(self.workdir, "symplectic-%02d.json" % idx,
                              symplectic_document(sd))
            inputs.append((path, sd.lie.n))
        return inputs

    def run(self, inp):
        return _run_cli(["analyze", inp[0]])

    def check(self, inp, result):
        rep = _report(result)
        n = inp[1]
        t = rep["cohomology"]["tables"]
        for k in range(n + 1):
            a, b = str(k), str(n - k)
            _expect(t["D1"][a] == t["D2"][b], "D1^%s != D2^%s" % (a, b))
            _expect(t["BC"][a] == t["A"][b], "BC^%s != A^%s" % (a, b))
        deg = rep["degeneration"]
        _expect(deg["applicable"] and deg["first"] and deg["second"],
                "an induced sequence does not degenerate at the first page")

    def digest(self, result):
        return _sha(result[1])


# ---------------------------------------------------------------------------
# dolbeault-ladder: complex-structure bicomplexes over Q(i)

GAUSSIAN_COEFFS = (
    1, -1, GaussianRational(0, 1), GaussianRational(0, -1),
    GaussianRational(1, 1), GaussianRational(1, -1), 2,
    GaussianRational(Fraction(1, 2), 1),
)


TERM_DENSITY = 0.5  # chance that a candidate term of d phi^i is drawn


def random_complex_structure(n, rng):
    """Nilpotent complex structure: d phi^i in span{phi^a phi^b, phi^a phibar^b}, a, b < i.

    Forms use generators 0..n-1 for phi and n..2n-1 for phibar.  The
    structure is not checked here; callers reject what complex_bicomplex
    refuses.
    """
    dphi = {}
    for i in range(n):
        cands = [(a, b) for a in range(i) for b in range(a + 1, i)]
        cands += [(a, n + b) for a in range(i) for b in range(i)]
        form = {m: rng.choice(GAUSSIAN_COEFFS) for m in cands
                if rng.random() < TERM_DENSITY}
        if form:
            dphi[i + 1] = form
    return geometry.ComplexStructureData(n, dphi)


def flip_coframe(csd, rng):
    """The same structure in the coframe phi'^i = s_i phi^i, s_i = +-1.

    Units +-i would give new coordinates as well, but they can make every
    coefficient real, which sends the op down the integer path and cuts
    its time by up to three quarters.
    """
    n = csd.n
    s = [rng.choice((-1, 1)) for _ in range(n)]
    # generator g is phi^g for g < n and phibar^(g-n) otherwise
    dphi = {i: {(a, b): c * s[i - 1] * s[a % n] * s[b % n]
                for (a, b), c in form.items()}
            for i, form in csd.dphi.items()}
    return geometry.ComplexStructureData(n, dphi)


def complex_document(csd):
    """lie_algebra + complex_structure input document."""
    return {"lie_algebra": {
        "dim": 2 * csd.n,
        "complex_structure": {"dphi": [
            {"i": i, "terms": [
                {"j": a + 1, "k": b + 1, "coeff": format_scalar(c)}
                for (a, b), c in sorted(form.items())]}
            for i, form in sorted(csd.dphi.items())]},
    }}


def structure_terms(csd):
    return sum(len(f) for f in csd.dphi.values())


class DolbeaultLadder:
    """`cohomlab analyze --spectral n+1` on complex structures of dim n=3.

    The structures are the first three of a fixed draw that have at least
    two terms and that complex_bicomplex accepts; their ops take about
    0.3, 1.5 and 2.2 s.  The seed flips the signs of the coframe, so
    documents differ per seed while the structures stay the same.
    Fresh draws per seed would not do: op times of n=3 structures range
    over 0.3-2.9 s and a run holds only a few dozen ops.  The n=4 rung
    (total dim 256) is left out: one op takes 24-39 s, longer than a run.
    """

    name = "dolbeault-ladder"
    n = 3
    count = 3
    base_seed = 20140310
    min_terms = 2

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def structures(self):
        base = random.Random(self.base_seed)
        rng = random.Random(self.seed)
        out = []
        while len(out) < self.count:
            csd = random_complex_structure(self.n, base)
            if structure_terms(csd) < self.min_terms:
                continue
            csd = flip_coframe(csd, rng)
            try:
                geometry.complex_bicomplex(csd)
            except ValueError:
                continue
            out.append(csd)
        return out

    def make_inputs(self):
        inputs = []
        for idx, csd in enumerate(self.structures()):
            path = _write_doc(self.workdir, "complex-%02d.json" % idx,
                              complex_document(csd))
            inputs.append((path, csd.n))
        return inputs

    def run(self, inp):
        return _run_cli(["analyze", inp[0], "--spectral", str(inp[1] + 1)])

    def check(self, inp, result):
        rep = _report(result)
        n = inp[1]
        t = rep["cohomology"]["tables"]
        for p in range(n + 1):
            for q in range(n + 1):
                pq = "%d,%d" % (p, q)
                _expect(t["BC"].get(pq, 0) == t["A"].get("%d,%d" % (n - p, n - q), 0),
                        "BC^%s != A^{n-p,n-q}" % pq)
                _expect(t["D1"].get(pq, 0) == t["D2"].get("%d,%d" % (q, p), 0),
                        "D1^%s != D2^{q,p}" % pq)
        plus = {k: v for k, v in rep["totals"]["TOT_PLUS"].items() if v}
        minus = {k: v for k, v in rep["totals"]["TOT_MINUS"].items() if v}
        _expect(plus == minus, "TOT_PLUS != TOT_MINUS")
        for which in ("first", "second"):
            limit = {}
            for cell, v in rep["spectral"][which][-1]["dims"].items():
                p, q = (int(x) for x in cell.split(","))
                limit[str(p + q)] = limit.get(str(p + q), 0) + v
            limit = {k: v for k, v in limit.items() if v}
            _expect(limit == plus,
                    "last %s page sums %r != TOT_PLUS %r" % (which, limit, plus))

    def digest(self, result):
        return _sha(result[1])


WORKLOADS = {w.name: w for w in (FuzzMix, SymplecticBatch, DolbeaultLadder)}
