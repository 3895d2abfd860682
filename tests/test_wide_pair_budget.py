"""Budget test: a bidifferential pair whose Tot Doub has a long period.

4096 one-dimensional degrees 0..4095 with deg1 = 1, deg2 = -4095 and no
blocks: |deg1 - deg2| = 4096 is the largest period io accepts, and every
degree sits in its own total degree.  Placing the degrees in Tot must be
linear in the support: trying every degree against every total degree
made this analysis take 4.9 s on a 2-core Xeon, against 0.3 s by residue
lookup.
"""

import hashlib
import io as pyio
import time

from cohomlab import cli
from cohomlab.io import canonical_json

N = 4096
REPORT_SHA256 = "a0b938872b4bb1464481109ef05fdac73e80ac0f6b122845945f5aee89d8b49d"
BUDGET_S = 2.0


def wide_pair_document():
    return {"bidiff_pair": {"degrees": [{"k": k, "dim": 1} for k in range(N)],
                            "deg1": 1, "deg2": 1 - N, "d1": [], "d2": []}}


def test_wide_pair_within_budget(tmp_path):
    path = tmp_path / "wide-pair.json"
    path.write_text(canonical_json(wide_pair_document()))
    out, err = pyio.StringIO(), pyio.StringIO()
    start = time.perf_counter()
    code = cli.main(["analyze", str(path)], out=out, err=err)
    elapsed = time.perf_counter() - start
    assert (code, err.getvalue()) == (0, "")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == REPORT_SHA256
    assert elapsed < BUDGET_S, "runtime %.2fs, budget %.0fs" % (elapsed, BUDGET_S)
