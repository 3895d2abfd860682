"""The report bytes of two benchmark workloads' inputs, pinned.

perfbench/workloads.py writes, from a seed, the documents its
dolbeault-ladder and symplectic-batch workloads run through
`cohomlab analyze`: 3 complex structures of total dimension 64 over
Q(i), analysed with `--spectral 4`, and 12 symplectic nilpotent
algebras.  Their reports at seed 1 are pinned here, so a change to the
engine that moves those workloads' timings must also keep their
outputs.  The draws are imported read-only, as
tests/test_ladder_budget.py imports them; the whole test takes well
under a second on a 2-core Xeon.
"""

import hashlib
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

SEED = 1
LADDER_SHA256 = (
    "1dd29d5ec9a8434894a8c7d006c92cfd5ede6f65c0a6e3dc47107c5923c61aa6",
    "0117752de72bcb846018c68047d7a1682f6515e87234e6fe005c368b1a432391",
    "da9edc9da7dcb802becec54ed0929b06e18c9816c22dc525611e10457b4d76b7",
)
SYMPLECTIC_SHA256 = (
    "dfef955ab3696342976715d592cdfa425b9afff0e78a44bebc95cea649c48cd2",
    "f783c3b6800a703a546a53b18089ac6ee24246064e955e14c24d88cb45dcecaa",
    "665b65cfe1a38bbad1f35bb301c0b5dfd41bcdb17b490e39019fb38be31f88b3",
    "7965d38e08318c5bb2057af8f72408b819ed03e6f79afd606e137ed2cbb80d50",
    "c2a1843e902fe7fd23e33d2df6042cfb7ba5e6016ed68f9606ca69c22ce5b3e0",
    "d1883d7f7497884dc6cb4e3a2af542742e4622989aa6ef239c60cde04261949b",
    "f330e02cf52e06f39d644e95913ef9fa04f68e905435b89637f49c65100106b1",
    "061e4ce1d5b0d3a9aed31fc45abf6d755db657238f5ba873ff9d15bcd0249a19",
    "25e5ab0febe181ef946cd4fb719a2dcc1878a978576189ba6202fd70a15ef042",
    "759279c322847ef94366a30e6579f460f89129cc39412f8c8ffeb374a7efe532",
    "26168ad2ae9cfb90be4b135a03bd3def406cc621864fd761dff7a14b18acfdf4",
    "b0ac48fa12590690f81cf970f5fb27e47ec630a4bab6575a8a1801698ae197c2",
)


@pytest.mark.parametrize("workload,pins", [
    (workloads.DolbeaultLadder, LADDER_SHA256),
    (workloads.SymplecticBatch, SYMPLECTIC_SHA256),
], ids=["dolbeault-ladder", "symplectic-batch"])
def test_workload_reports_are_pinned(tmp_path, workload, pins):
    w = workload(SEED, str(tmp_path))
    inputs = w.make_inputs()
    assert len(inputs) == len(pins)
    for inp, sha in zip(inputs, pins):
        # run() is the workload's op: analyze, with --spectral 4 on the ladder
        code, text, err = w.run(inp)
        assert (code, err) == (0, "")
        assert hashlib.sha256(text.encode()).hexdigest() == sha, inp[0]
