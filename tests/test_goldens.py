"""Golden-file checks for five small pinned complexes.

Each file under tests/golden/ stores a double complex JSON document, a
hand derivation of every value, and the expected tables. The test must
match exactly: flavor tables, all six auxiliary quotients, lemma
verdict, total cohomology, and both spectral sequences page by page.
"""

import io
import json
import pathlib

import pytest

from cohomlab import cli
from cohomlab import io as cio
from cohomlab.cohomology import Analysis, lemma_verdict
from cohomlab.report import input_echo, make_report
from cohomlab.spectral import pages

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
NAMES = ("dot", "square", "hseg", "vseg", "zigzag3")


def load(name):
    with open(GOLDEN_DIR / ("%s.json" % name)) as fh:
        return json.load(fh)


def decode_cells(table):
    out = {}
    for key, dim in table.items():
        p, q = key.split(",")
        out[(int(p), int(q))] = dim
    return out


def decode_degrees(table):
    return {int(k): v for k, v in table.items()}


def build_complex(doc):
    parsed = cio.parse_document(doc["input"])
    result = cio.build(parsed)
    assert result.kind == "double_complex"
    return result.obj


@pytest.fixture(params=NAMES)
def golden(request):
    return load(request.param)


def test_golden_files_are_well_formed(golden):
    assert set(golden) == {"name", "input", "derivation", "expected"}
    assert golden["derivation"], "a golden without its derivation is just a snapshot"
    exp = golden["expected"]
    assert set(exp["tables"]) == {"D1", "D2", "BC", "A"}
    assert set(exp["varouchas"]) == {"V1", "V2", "V3", "V4", "V5", "V6"}
    assert set(exp["total"]) == {"TOT_PLUS", "TOT_MINUS"}
    assert set(exp["spectral"]) == {"first", "second"}


def test_flavor_tables(golden):
    dc = build_complex(golden)
    an = Analysis(dc)
    for name, want in golden["expected"]["tables"].items():
        assert an.flavor_table(name) == decode_cells(want), name


def test_varouchas_tables(golden):
    dc = build_complex(golden)
    got = Analysis(dc).varouchas_tables()
    for name, want in golden["expected"]["varouchas"].items():
        assert got[name] == decode_cells(want), name


def test_lemma_verdict(golden):
    dc = build_complex(golden)
    verdict = lemma_verdict(dc)
    assert verdict["holds"] == golden["expected"]["lemma"]
    conds = verdict["conditions"]
    assert set(conds) == set(range(1, 9))
    # a double complex always carries the total grading, so all eight
    # formulations are live and must agree with the verdict
    assert all(conds[i] == verdict["holds"] for i in conds)


def test_total_tables(golden):
    dc = build_complex(golden)
    an = Analysis(dc)
    assert an.total_table(1) == decode_degrees(golden["expected"]["total"]["TOT_PLUS"])
    assert an.total_table(-1) == decode_degrees(golden["expected"]["total"]["TOT_MINUS"])


def test_spectral_pages(golden):
    dc = build_complex(golden)
    for which in ("first", "second"):
        got = pages(dc, which)
        want = golden["expected"]["spectral"][which]
        assert len(got) == len(want), which
        for page, w in zip(got, want):
            assert page.r == w["r"]
            assert page.dims == decode_cells(w["dims"]), (which, page.r)
            assert page.dr_ranks == decode_cells(w["dr_ranks"]), (which, page.r)


def test_report_round_trip(golden):
    """The same document driven through the reporting layer agrees."""
    parsed = cio.parse_document(golden["input"])
    result = cio.build(parsed)
    rep = make_report(result, input_echo(golden["input"]))
    tables = rep["cohomology"]["tables"]
    for name, want in golden["expected"]["tables"].items():
        # the report keeps the whole grid; goldens store only nonzero cells
        got = {k: v for k, v in tables[name].items() if v}
        assert got == want, name
    assert rep["cohomology"]["verdicts"]["lemma_holds"] == golden["expected"]["lemma"]


# markdown reports whose tables have gaps: a page lists a cell with no
# d_r rank, and the transverse tables a slice where a flavor vanishes;
# _md_table writes 0 there.  Both files were written by
# `cohomlab analyze zigzag3-input --format md` with the arguments given.
MARKDOWN_GOLDENS = (("zigzag3-spectral4.md", ("--spectral", "4")),
                    ("zigzag3-type-n.md", ("--view", "type-n")))


@pytest.mark.parametrize("name,args", MARKDOWN_GOLDENS, ids=[n for n, _a in MARKDOWN_GOLDENS])
def test_markdown_report_with_gaps(tmp_path, name, args):
    src = tmp_path / "zigzag3.json"
    src.write_text(json.dumps(load("zigzag3")["input"]))
    out, err = io.StringIO(), io.StringIO()
    assert cli.main(["analyze", str(src), *args, "--format", "md"], out=out, err=err) == 0
    assert err.getvalue() == ""
    assert out.getvalue() == (GOLDEN_DIR / name).read_text()
