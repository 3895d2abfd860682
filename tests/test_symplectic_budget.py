"""Budget test: `analyze` on a dimension-8 symplectic nilpotent algebra.

No benchmark workload runs a symplectic algebra above dimension 6.  At
dimension 8 the d_Lambda blocks of the symplectic pair carry Fractions,
and the analysis clears them with one integer scale per target cell of
its integer copy, so this rung checks that copy's report bytes and its
cost.  The document is written as perfbench/workloads.py writes the
symplectic-batch inputs, imported read-only as
tests/test_ladder_budget.py imports it.
"""

import hashlib
import io as pyio
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402
from cohomlab import cli, geometry  # noqa: E402
from cohomlab.io import canonical_json  # noqa: E402

DIM, SEED = 8, 3
REPORT_SHA256 = "2c0b17437ba29b4564836c2617fa55dd86c41fdb0d9743fe19f9e87ed8c59046"
# analyze took 0.25-0.45 s of process time on a 2-core Xeon
BUDGET_S = 6.0


def test_dim_8_symplectic_analyze_within_budget(tmp_path):
    sd = geometry.random_symplectic(DIM, SEED)
    path = tmp_path / "symplectic-8.json"
    path.write_text(canonical_json(workloads.symplectic_document(sd)))
    out, err = pyio.StringIO(), pyio.StringIO()
    start = time.perf_counter()
    code = cli.main(["analyze", str(path)], out=out, err=err)
    elapsed = time.perf_counter() - start
    assert (code, err.getvalue()) == (0, "")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == REPORT_SHA256
    assert elapsed < BUDGET_S, "runtime %.2fs, budget %.0fs" % (elapsed, BUDGET_S)
