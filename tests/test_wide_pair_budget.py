"""Budget test: a bidifferential pair whose Tot Doub has a long period.

4096 one-dimensional degrees 0..4095 with deg1 = 1, deg2 = -4095 and no
blocks: |deg1 - deg2| = 4096 is the largest period io accepts, and every
degree sits in its own total degree.  Placing the degrees in Tot must be
linear in the support: trying every degree against every total degree
made this analysis take 4.9 s on a 2-core Xeon, against 0.3 s by residue
lookup.  The markdown and csv reports of the pair are pinned as well:
the text renderers sort every table of 4096 degrees by key.
"""

import hashlib
import io as pyio
import time

import pytest

from cohomlab import cli
from cohomlab.io import canonical_json

N = 4096
REPORT_SHA256 = {
    "json": "a0b938872b4bb1464481109ef05fdac73e80ac0f6b122845945f5aee89d8b49d",
    "md": "6c9227d0bdde1e8481e205840b2977fbb85c067c73f2a5761a8668127d138796",
    "csv": "416d7150042997ed7920271e07af343f1c2e853ea9bf1e92dfe1780f87c221c3",
}
BUDGET_S = 2.0


def wide_pair_document():
    return {"bidiff_pair": {"degrees": [{"k": k, "dim": 1} for k in range(N)],
                            "deg1": 1, "deg2": 1 - N, "d1": [], "d2": []}}


@pytest.mark.parametrize("fmt", sorted(REPORT_SHA256))
def test_wide_pair_within_budget(tmp_path, fmt):
    path = tmp_path / "wide-pair.json"
    path.write_text(canonical_json(wide_pair_document()))
    out, err = pyio.StringIO(), pyio.StringIO()
    start = time.perf_counter()
    code = cli.main(["analyze", str(path), "--format", fmt], out=out, err=err)
    elapsed = time.perf_counter() - start
    assert (code, err.getvalue()) == (0, "")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == REPORT_SHA256[fmt]
    assert elapsed < BUDGET_S, "runtime %.2fs, budget %.0fs" % (elapsed, BUDGET_S)
