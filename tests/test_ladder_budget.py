"""Budget test: the first dim-1024 structure of the benchmark's Dolbeault ladder.

perfbench/workloads.py draws the ladder's complex structures; its n = 5
rung (total dimension 2^10 = 1024) is the size at which the sparse
matrix rows matter most, and no benchmark workload runs it.  The draw is
imported read-only, as tests/test_tracer_hooks.py imports the tracer.
"""

import hashlib
import io as pyio
import pathlib
import random
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402
from cohomlab import cli  # noqa: E402
from cohomlab.io import canonical_json  # noqa: E402

N = 5
# DolbeaultLadder.structures() at n = 5 stops at this draw of its base
# stream: the first with two terms that complex_bicomplex accepts.
# Finding it rejects 55231 draws one by one, about 35 s on a 2-core Xeon,
# so here only that draw is built.  The ladder would also flip its
# coframe signs by the run's seed, which changes no cohomology and is
# left out.
FIRST_ACCEPTED = 55232
REPORT_SHA256 = "0915cce7fcda6d5685e17cfdb68692ea0a4370c89071f69164e1af53f9862c31"
# the op took 0.51-0.53 s before matrices stored sparse rows and 2.27 s
# on the dense elimination before that, on the same host
BUDGET_S = 6.0


def first_structure():
    """The first structure DolbeaultLadder.structures() draws at n = 5,
    before its coframe sign flips."""
    ladder = workloads.DolbeaultLadder
    base = random.Random(ladder.base_seed)
    for _ in range(FIRST_ACCEPTED):
        csd = workloads.random_complex_structure(N, base)
    assert workloads.structure_terms(csd) >= ladder.min_terms
    return csd


def test_first_dim_1024_ladder_structure_within_budget(tmp_path):
    csd = first_structure()
    path = tmp_path / "complex-00.json"
    path.write_text(canonical_json(workloads.complex_document(csd)))
    out, err = pyio.StringIO(), pyio.StringIO()
    start = time.perf_counter()
    code = cli.main(["analyze", str(path), "--spectral", str(N + 1)], out=out, err=err)
    elapsed = time.perf_counter() - start
    assert (code, err.getvalue()) == (0, "")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == REPORT_SHA256
    assert elapsed < BUDGET_S, "runtime %.2fs, budget %.0fs" % (elapsed, BUDGET_S)
