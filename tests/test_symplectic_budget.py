"""Budget tests: `analyze` on symplectic nilpotent algebras of dimension 8 and 10.

No benchmark workload runs a symplectic algebra above dimension 6.  At
dimension 8 the d_Lambda blocks of the symplectic pair carry Fractions,
and the analysis clears them with one integer scale per target cell of
its integer copy, so this rung checks that copy's report bytes and its
cost.  Dimension 10 is the largest the CLI accepts
(io.MAX_SYMPLECTIC_DIM); there the calculus, the pair's analysis and
the sections, which count echelon leads on integer kernels and images,
take about a third of the time each.  The documents are written as
perfbench/workloads.py writes the symplectic-batch inputs, imported
read-only as tests/test_ladder_budget.py imports it.
"""

import hashlib
import io as pyio
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402
from cohomlab import cli, geometry, linalg  # noqa: E402
from cohomlab.io import canonical_json  # noqa: E402

DIM, SEED = 8, 3
REPORT_SHA256 = "2c0b17437ba29b4564836c2617fa55dd86c41fdb0d9743fe19f9e87ed8c59046"
# analyze took 0.12-0.17 s of process time on a 2-core Xeon (0.13-0.15 s
# in the same runs while the sections took Fraction RREF kernels and
# ranked each image of d once per part)
BUDGET_S = 6.0

DIM_10, SEED_10 = 10, 11
REPORT_SHA256_10 = "7815a528d21fdf3b5c6e75867466cd825ece00fb52d065cbde4913bc1c2caf3d"
# analyze took 2.2-3.5 s of wall time on a 2-core Xeon (3.3-5.0 s in the
# same runs while the sections took Fraction RREF kernels and ranked each
# image of d once per part), and 7.8-8.6 s while Lambda was star L star,
# the sections read Fraction matrices and rank took its rows in matrix order
BUDGET_S_10 = 30.0


def _document(tmp_path, dim, seed):
    path = tmp_path / ("symplectic-%d.json" % dim)
    path.write_text(canonical_json(workloads.symplectic_document(
        geometry.random_symplectic(dim, seed))))
    return path


def _analyze(*args):
    """(seconds, stdout) of a successful `cohomlab analyze`."""
    out, err = pyio.StringIO(), pyio.StringIO()
    start = time.perf_counter()
    code = cli.main(["analyze", *args], out=out, err=err)
    elapsed = time.perf_counter() - start
    assert (code, err.getvalue()) == (0, "")
    return elapsed, out.getvalue()


def test_dim_8_symplectic_analyze_within_budget(tmp_path):
    elapsed, out = _analyze(str(_document(tmp_path, DIM, SEED)))
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_SHA256
    assert elapsed < BUDGET_S, "runtime %.2fs, budget %.0fs" % (elapsed, BUDGET_S)


def test_dim_10_symplectic_analyze_within_budget(tmp_path):
    elapsed, out = _analyze(str(_document(tmp_path, DIM_10, SEED_10)))
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_SHA256_10
    assert elapsed < BUDGET_S_10, "runtime %.2fs, budget %.0fs" % (elapsed, BUDGET_S_10)


def test_analyze_builds_no_exact_star_l_or_lambda(tmp_path, monkeypatch):
    """The calculus keeps its operators as integer matrices with scales,
    and analyze reads only those and the pair: on iwasawa-symplectic and
    on the dimension-8 document it builds no exact star, L or Lambda
    Matrix (the pair's exact d_lam is built), and the Gram compounds
    still once per input."""
    built, compounds = [], []
    real_exact, real_compounds = geometry.Sl2Operators._exact_table, geometry._compounds

    def exact(self, name):
        built.append(name)
        return real_exact(self, name)

    def counting(rows, top):
        compounds.append(top)
        return real_compounds(rows, top)

    monkeypatch.setattr(geometry.Sl2Operators, "_exact_table", exact)
    monkeypatch.setattr(geometry, "_compounds", counting)
    _analyze("--builtin", "iwasawa-symplectic")
    _analyze(str(_document(tmp_path, DIM, SEED)))
    assert compounds == [6, DIM]
    assert set(built) == {"d_lam"}
    # the spy does see an exact operator being built
    _pair, ops = geometry.builtin("iwasawa-symplectic")
    assert ops.star[0].nrows == 1
    assert built[-1] == "star"


SECTIONS = {"hard_lefschetz", "primitive_and_lefschetz_decomposition"}


def _callers():
    """The names of the functions on the stack above the caller's caller."""
    names, frame = set(), sys._getframe(2)
    while frame is not None:
        names.add(frame.f_code.co_name)
        frame = frame.f_back
    return names


def test_sections_take_no_rref_and_one_image_echelon_per_degree(tmp_path, monkeypatch):
    """Under analyze on iwasawa-symplectic and on the dimension-8
    document, neither section calls linalg.kernel, _rref_rows or rank:
    their kernels are integer_kernel's and their ranks echelon counts.
    The only RREFs left are omega^-1's (mat_inverse) and is_nilpotent's
    subspaces.  Each image im d_{j-1}, j = 0..n, is eliminated once, in
    Sl2Operators.image_echelon, and both sections read it there."""
    doc = str(_document(tmp_path, DIM, SEED))
    rrefs, ranks, kernels, images = [], [], [], []
    real_rref, real_rank, real_kernel = linalg._rref_rows, geometry.rank, linalg.kernel
    real_echelon = geometry._echelon

    def rref_rows(rows, ncols):
        rrefs.append(_callers())
        return real_rref(rows, ncols)

    def rank(m):
        ranks.append(_callers())
        return real_rank(m)

    def kernel(m):
        kernels.append(_callers())
        return real_kernel(m)

    def echelon(rows, basis=None):
        frame = sys._getframe(1)
        if frame.f_code.co_name == "image_echelon":
            images.append((frame.f_locals["self"], frame.f_locals["k"]))
        return real_echelon(rows, basis)

    monkeypatch.setattr(linalg, "_rref_rows", rref_rows)
    monkeypatch.setattr(geometry, "rank", rank)
    monkeypatch.setattr(linalg, "kernel", kernel)
    monkeypatch.setattr(geometry, "kernel", kernel)
    monkeypatch.setattr(geometry, "_echelon", echelon)
    for args, n in ((("--builtin", "iwasawa-symplectic"), 6), ((doc,), DIM)):
        rrefs.clear()
        images.clear()
        _analyze(*args)
        assert rrefs and all(names & {"mat_inverse", "is_nilpotent"} for names in rrefs)
        assert not any(names & SECTIONS for names in rrefs + ranks + kernels)
        assert len({ops for ops, _k in images}) == 1
        assert sorted(k for _ops, k in images) == list(range(-1, n))
