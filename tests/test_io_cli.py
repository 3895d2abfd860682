"""Input-document parsing, building, and the command line."""

import hashlib
import io as pyio
import json
import re
import time

import pytest

from cohomlab import cli
from cohomlab import io as cio
from cohomlab.cohomology import IllFormedMap, cohom
from cohomlab.linalg import NotASubspace
from cohomlab.randomgen import assemble

DOT = {"double_complex": {"entries": [{"p": 0, "q": 0, "dim": 1}],
                          "d1": [], "d2": []}}

HSEG = {"double_complex": {
    "entries": [{"p": 0, "q": 0, "dim": 1}, {"p": 1, "q": 0, "dim": 1}],
    "d1": [{"from": [0, 0], "matrix": ["1"]}],
    "d2": [],
}}

HEIS3 = {"lie_algebra": {
    "dim": 3,
    "structure": [{"i": 3, "terms": [{"j": 1, "k": 2, "coeff": "-1"}]}],
}}


def run_cli(*argv):
    out, err = pyio.StringIO(), pyio.StringIO()
    code = cli.main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


# -- parsing and validation -------------------------------------------------

def test_document_must_hold_exactly_one_kind():
    with pytest.raises(cio.ParseError):
        cio.parse_document({})
    with pytest.raises(cio.ParseError):
        cio.parse_document({**DOT, **HEIS3})


def test_flat_and_nested_matrices_agree():
    flat = {"double_complex": {
        "entries": [{"p": 0, "q": 0, "dim": 2}, {"p": 1, "q": 0, "dim": 2}],
        "d1": [{"from": [0, 0], "matrix": ["1", "0", "2", "1"]}],
        "d2": [],
    }}
    nested = json.loads(json.dumps(flat))
    nested["double_complex"]["d1"][0]["matrix"] = [["1", "0"], ["2", "1"]]
    a = cio.build(cio.parse_document(flat)).obj
    b = cio.build(cio.parse_document(nested)).obj
    assert a.d1[(0, 0)].rows == b.d1[(0, 0)].rows


def test_matrix_shape_mismatch_is_validation():
    bad = json.loads(json.dumps(HSEG))
    bad["double_complex"]["d1"][0]["matrix"] = ["1", "0"]
    with pytest.raises(cio.ValidationError):
        cio.build(cio.parse_document(bad))


def test_bad_scalar_is_parse_error():
    bad = json.loads(json.dumps(HSEG))
    bad["double_complex"]["d1"][0]["matrix"] = ["one"]
    with pytest.raises(cio.ParseError):
        cio.build(cio.parse_document(bad))


def test_exponent_scalar_exits_one_at_once(tmp_path):
    # Fraction alone would spend minutes on a billion-digit integer
    bad = json.loads(json.dumps(HSEG))
    bad["double_complex"]["d1"][0]["matrix"] = ["1e1000000000"]
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(bad))
    start = time.perf_counter()
    code, out, err = run_cli("analyze", str(path))
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert "exponent notation" in err


PAIR = {"bidiff_pair": {
    "degrees": [{"k": 0, "dim": 1}, {"k": 1, "dim": 1}], "deg1": 1, "deg2": -1,
    "d1": [{"from": 0, "matrix": ["1"]}],
    "d2": [],
}}


@pytest.mark.parametrize("doc", [HSEG, PAIR], ids=["double_complex", "bidiff_pair"])
@pytest.mark.parametrize("matrix", [[["1"], 5], [["1"], "2"], [["1"], None]],
                         ids=["int-row", "string-row", "null-row"])
def test_nested_matrix_row_that_is_not_a_list_is_parse_error(tmp_path, doc, matrix):
    bad = json.loads(json.dumps(doc))
    kind = next(iter(bad))
    bad[kind]["d1"][0]["matrix"] = matrix
    with pytest.raises(cio.ParseError, match="every row of a nested matrix must be a list"):
        cio.parse_document(bad)
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(bad))
    code, out, err = run_cli("analyze", str(src))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "Traceback" not in err


def test_undeclared_target_is_validation():
    bad = {"double_complex": {
        "entries": [{"p": 0, "q": 0, "dim": 1}],
        "d1": [{"from": [0, 0], "matrix": ["1"]}],
        "d2": [],
    }}
    with pytest.raises(cio.ValidationError) as ei:
        cio.build(cio.parse_document(bad))
    assert any("target" in v for v in ei.value.violations)


def test_duplicate_entry_is_validation():
    bad = {"double_complex": {
        "entries": [{"p": 0, "q": 0, "dim": 1}, {"p": 0, "q": 0, "dim": 2}],
        "d1": [], "d2": [],
    }}
    with pytest.raises(cio.ValidationError):
        cio.build(cio.parse_document(bad))


def test_pair_degree_zero_rejected():
    bad = {"bidiff_pair": {"degrees": [{"k": 0, "dim": 1}],
                           "deg1": 0, "deg2": 1, "d1": [], "d2": []}}
    with pytest.raises(cio.ValidationError):
        cio.build(cio.parse_document(bad))


def test_lie_structure_builds_heisenberg():
    res = cio.build(cio.parse_document(HEIS3))
    assert res.kind == "lie_algebra"
    gc = res.obj
    assert gc.cohomology() == {0: 1, 1: 2, 2: 2, 3: 1}


def test_complex_structure_excludes_plain_structure():
    bad = {"lie_algebra": {
        "dim": 2,
        "structure": [],
        "complex_structure": {"dphi": [{"i": 1, "terms": []}]},
    }}
    with pytest.raises(cio.ValidationError):
        cio.build(cio.parse_document(bad))


def test_round_trip_document():
    dc = assemble([("zigzag", 0, 0, 3, "lower"), ("square", 2, -1)])
    doc = cio.document_for_double_complex(dc)
    rebuilt = cio.build(cio.parse_document(doc)).obj
    assert rebuilt.spaces == dc.spaces
    for flavor in ("D1", "D2", "BC", "A"):
        assert cohom(rebuilt, flavor) == cohom(dc, flavor)
    # emitting again is a fixed point
    assert cio.canonical_json(cio.document_for_double_complex(rebuilt)) \
        == cio.canonical_json(doc)


def test_canonical_json_is_sorted_and_tight():
    s = cio.canonical_json({"b": 1, "a": [1, 2]})
    assert s == '{"a":[1,2],"b":1}'


# -- analyze ------------------------------------------------------------------

def test_analyze_builtin_json_deterministic():
    code1, out1, _ = run_cli("analyze", "--builtin", "iwasawa-complex")
    code2, out2, _ = run_cli("analyze", "--builtin", "iwasawa-complex")
    assert code1 == code2 == 0
    assert out1 == out2
    rep = json.loads(out1)
    assert rep["input"]["kind"] == "lie_complex"
    assert "cohomology" in rep and "totals" in rep


def test_analyze_file_and_out(tmp_path):
    src = tmp_path / "dot.json"
    src.write_text(json.dumps(DOT))
    dst = tmp_path / "report.json"
    code, out, err = run_cli("analyze", str(src), "--out", str(dst))
    assert code == 0 and out == "" and err == ""
    rep = json.loads(dst.read_text())
    assert rep["cohomology"]["tables"]["BC"] == {"0,0": 1}
    assert rep["cohomology"]["verdicts"]["lemma_holds"] is True


def test_analyze_views_and_formats(tmp_path):
    src = tmp_path / "hseg.json"
    src.write_text(json.dumps(HSEG))
    for view in ("bigraded", "total"):
        for fmt in ("json", "md", "csv"):
            code, out, _ = run_cli("analyze", str(src),
                                   "--view", view, "--format", fmt)
            assert code == 0 and out.strip()
    code, out, _ = run_cli("analyze", "--builtin", "iwasawa-complex",
                           "--view", "type-n", "--format", "md")
    assert code == 0
    assert "transverse" in out


def test_type_n_needs_a_double_complex():
    code, _, err = run_cli("analyze", "--builtin", "heisenberg3",
                           "--view", "type-n")
    assert code == 1
    assert "type-n" in err


def test_spectral_on_pair_warns_and_continues():
    code, out, _ = run_cli("analyze", "--builtin", "iwasawa-symplectic",
                           "--spectral", "2")
    assert code == 0
    rep = json.loads(out)
    assert "spectral" not in rep
    assert any("ignored" in w for w in rep["warnings"])


def test_spectral_pages_in_report():
    code, out, _ = run_cli("analyze", "--builtin", "iwasawa-complex",
                           "--spectral", "2")
    assert code == 0
    rep = json.loads(out)
    assert {p["r"] for p in rep["spectral"]["first"]} == {1, 2}


@pytest.mark.parametrize("r", ["0", "-3", str(cio.MAX_TOTAL_DIM + 1), "1000000000"])
def test_spectral_bound_is_a_usage_error_before_building(r):
    bound = "between 1 and the bound %d, got %s" % (cio.MAX_TOTAL_DIM, r)
    code, out, err = run_cli("analyze", "--builtin", "iwasawa-complex", "--spectral", r)
    assert (code, out) == (1, "")
    assert bound in err
    # abelian:64 alone exits 2 when it is built; the bound is checked first
    code, out, err = run_cli("analyze", "--builtin", "abelian:64", "--spectral", r)
    assert (code, out) == (1, "")
    assert bound in err


def test_spectral_at_the_bound_is_accepted(tmp_path):
    dot = tmp_path / "dot.json"
    dot.write_text(json.dumps(DOT))
    code, out, _ = run_cli("analyze", str(dot), "--spectral", str(cio.MAX_TOTAL_DIM))
    assert code == 0
    first = json.loads(out)["spectral"]["first"]
    assert len(first) == cio.MAX_TOTAL_DIM
    assert first[-1]["dims"] == first[0]["dims"]


# sha256 of `analyze --builtin` output, recorded from the engine before
# induced maps were computed from one sum; rewrites of the engine must
# leave these report bytes unchanged
REPORT_SHA256 = [
    (("iwasawa-complex", "--spectral", "4"),
     "e13b709447f119d88a01add72c8b8ea137544f5174332e8725a77c7081acfe77"),
    (("iwasawa-complex", "--view", "type-n"),
     "85bae49d43958a795574fa889235405012ce0f39e63dbae946f8d2e3a6445b78"),
    (("iwasawa-symplectic",),
     "a5935313430e86328440f4d67023b8a38ddeaf3722dd34b65e0287f4fc57a390"),
    (("iwasawa-symplectic", "--format", "md"),
     "bc19b0249b04b48852c290187e20a6df80f53d145e0c315da2ffd34ceb610dbd"),
    (("heisenberg3",),
     "67c9740a619a1bd044f4213428ecb9c692ca87aa9f9863533564d3ee3d8e4f94"),
    (("abelian:4",),
     "abc73754d3a12d3a2a02aa7f83d6728dbdd7903eba2e3c21b9b51c6d184b5aaf"),
]


@pytest.mark.parametrize("args,sha", REPORT_SHA256,
                         ids=[" ".join(args) for args, _ in REPORT_SHA256])
def test_analyze_builtin_report_bytes_are_pinned(args, sha):
    code, out, _ = run_cli("analyze", "--builtin", *args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha


def test_analyze_input_xor_builtin(tmp_path):
    src = tmp_path / "dot.json"
    src.write_text(json.dumps(DOT))
    code, _, _ = run_cli("analyze")
    assert code == 1
    code, _, _ = run_cli("analyze", str(src), "--builtin", "heisenberg3")
    assert code == 1


def test_analyze_error_exit_codes(tmp_path):
    code, _, err = run_cli("analyze", str(tmp_path / "missing.json"))
    assert code == 1
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{nope")
    code, _, _ = run_cli("analyze", str(garbled))
    assert code == 1
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({"double_complex": {
        "entries": [{"p": 0, "q": 0, "dim": 1}],
        "d1": [{"from": [0, 0], "matrix": ["1"]}], "d2": []}}))
    code, _, err = run_cli("analyze", str(invalid))
    assert code == 2
    assert "invalid input" in err
    code, _, _ = run_cli("analyze", "--builtin", "no-such-thing")
    assert code == 1


def test_analyze_unwritable_out_exits_one_with_one_line(tmp_path):
    target = tmp_path / "no-such-dir" / "x.json"
    code, out, err = run_cli("analyze", "--builtin", "heisenberg3", "--out", str(target))
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot write %s" % target)
    assert err.count("\n") == 1 and "Traceback" not in err


def test_oversized_declarations_are_rejected_before_building():
    bound = cio.MAX_TOTAL_DIM

    def dc(*dims):
        return {"double_complex": {"entries": [
            {"p": i, "q": 0, "dim": d} for i, d in enumerate(dims)]}}

    def pair(*dims):
        return {"bidiff_pair": {"deg1": 1, "deg2": -1, "degrees": [
            {"k": k, "dim": d} for k, d in enumerate(dims)]}}

    # at the bound parsing only declares spaces; nothing of that size is built
    assert cio.parse_document(dc(bound)).payload.dim(0, 0) == bound
    for doc in (dc(bound + 1), dc(bound - 96, 97), dc(10 ** 30),
                pair(bound, 1), {"lie_algebra": {"dim": 13}},
                {"lie_algebra": {"dim": 64}}, {"lie_algebra": {"dim": 10 ** 30}}):
        with pytest.raises(cio.ValidationError, match="bound %d" % bound):
            cio.parse_document(doc)


def test_oversized_inputs_exit_two(tmp_path):
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"lie_algebra": {"dim": 64}}))
    code, out, err = run_cli("analyze", str(big))
    assert (code, out) == (2, "")
    assert "2^64" in err and "bound 4096" in err
    code, out, err = run_cli("analyze", "--builtin", "abelian:64")
    assert (code, out) == (2, "")
    assert "builtin abelian:64" in err and "bound 4096" in err


def test_wide_cell_spans_and_degree_gaps_are_rejected_before_building():
    bound = cio.MAX_TOTAL_DIM

    def dc(*cells):
        return {"double_complex": {"entries": [
            {"p": p, "q": q, "dim": 1} for p, q in cells]}}

    def pair(deg1, deg2):
        return {"bidiff_pair": {"deg1": deg1, "deg2": deg2,
                                "degrees": [{"k": 0, "dim": 1}]}}

    # at the bound the documents parse
    for doc in (dc((0, 0), (bound, -bound)), dc((0, 0), (0, bound)),
                dc((0, 0), (bound, 0)), pair(bound - 1, -1)):
        cio.parse_document(doc)
    for doc, what in ((dc((0, 0), (bound + 1, -bound - 1)), "p range"),
                      (dc((0, 0), (0, bound + 1)), "q range"),
                      (dc((0, 0), (bound, 1)), "p+q range"),
                      (pair(bound, -1), "deg1/deg2 range"),
                      (pair(1, -bound), "deg1/deg2 range")):
        with pytest.raises(cio.ValidationError, match=re.escape(what) + ".* above the bound %d" % bound):
            cio.parse_document(doc)


@pytest.mark.parametrize("doc", [
    {"bidiff_pair": {"degrees": [{"k": 0, "dim": 1}], "deg1": 10 ** 9, "deg2": -1}},
    {"double_complex": {"entries": [{"p": 0, "q": 0, "dim": 1},
                                    {"p": 10 ** 9, "q": 0, "dim": 1}]}},
], ids=["pair-degree-gap", "far-apart-cells"])
def test_far_apart_degrees_exit_two_at_once(tmp_path, doc):
    # both documents used to walk every total degree in between and hang
    path = tmp_path / "far.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run_cli("analyze", str(path))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert "above the bound %d" % cio.MAX_TOTAL_DIM in err


def symplectic_torus(n):
    """The abelian algebra of dim n with omega = e12 + e34 + ... ."""
    return {"lie_algebra": {"dim": n, "symplectic": {"omega": [
        {"j": j, "k": j + 1, "coeff": "1"} for j in range(1, n, 2)]}}}


def test_symplectic_algebras_above_the_bound_exit_two(tmp_path):
    bound = cio.MAX_SYMPLECTIC_DIM
    assert bound == 10
    # parsing only; nothing of the bound's size is built
    assert cio.parse_document(symplectic_torus(bound)).payload[0] == "symplectic"
    big = tmp_path / "torus12.json"
    big.write_text(json.dumps(symplectic_torus(bound + 2)))
    code, out, err = run_cli("analyze", str(big))
    assert (code, out) == (2, "")
    assert "symplectic: dimension 12 is above the bound 10" in err
    # the plain algebra of that dimension is still accepted
    plain = symplectic_torus(bound + 2)
    del plain["lie_algebra"]["symplectic"]
    assert cio.parse_document(plain).payload[0] == "plain"


def test_usage_errors_exit_one_not_two():
    code, _, _ = run_cli("analyze", "--no-such-flag")
    assert code == 1
    code, _, _ = run_cli()
    assert code == 1


def test_successive_calls_share_no_state():
    """The parser is built once per process, and no flag of one main call
    carries over into the next: --spectral and --format fall back to
    their defaults, and a usage error in between still exits 1."""
    assert cli._build_parser() is cli._build_parser()
    code, out, _ = run_cli("analyze", "--builtin", "iwasawa-complex", "--spectral", "2")
    assert code == 0 and "spectral" in json.loads(out)
    code, out, _ = run_cli("analyze", "--builtin", "iwasawa-complex")
    assert code == 0 and "spectral" not in json.loads(out)
    code, md, _ = run_cli("analyze", "--builtin", "iwasawa-complex", "--format", "md")
    assert code == 0 and md.startswith("#")
    code, _, err = run_cli("analyze", "--builtin", "iwasawa-complex", "--no-such-flag")
    assert code == 1 and "--no-such-flag" in err
    code, default, _ = run_cli("analyze", "--builtin", "iwasawa-complex")
    assert code == 0 and json.loads(default) == json.loads(out)


def symplectic_doc(dim, structure, omega):
    return {"lie_algebra": {"dim": dim, "structure": [
        {"i": i, "terms": [{"j": j, "k": k, "coeff": c}]} for i, j, k, c in structure],
        "symplectic": {"omega": [{"j": j, "k": k, "coeff": c} for j, k, c in omega]}}}


@pytest.mark.parametrize("doc,message", [
    # omega = i e12 + e34 on the abelian algebra used to crash analyze
    # with a TypeError
    (symplectic_doc(4, [], [(1, 2, "i"), (3, 4, "1")]),
     "omega has e1^e2-coefficient 1 i"),
    # d e4 = (1+i) e12 with the closed rational omega = e13 + e24 used to
    # be analyzed over Q(i) with exit 0
    (symplectic_doc(4, [(4, 1, 2, "1+i")], [(1, 3, "1"), (2, 4, "1")]),
     "bracket [e1, e2] has e4-coefficient -1-1 i"),
], ids=["gaussian-omega", "gaussian-structure"])
def test_non_rational_symplectic_input_exits_two(tmp_path, doc, message):
    src = tmp_path / "gaussian.json"
    src.write_text(json.dumps(doc))
    code, out, err = run_cli("analyze", str(src))
    assert (code, out) == (2, "")
    assert err == "invalid input: symplectic coefficients must be rational: %s\n" % message


# -- fuzz ---------------------------------------------------------------------

def test_fuzz_clean_run():
    code, out, err = run_cli("fuzz", "--iters", "5", "--seed", "3")
    assert code == 0
    assert "all properties hold" in out
    assert err == ""


def test_fuzz_rejects_negative_iters_before_any_seed(monkeypatch):
    seeds = []
    monkeypatch.setattr(cli, "_fuzz_one", lambda seed, counts: seeds.append(seed))
    code, out, err = run_cli("fuzz", "--iters", "-5")
    assert (code, out, seeds) == (1, "", [])
    assert "--iters must not be negative, got -5" in err
    code, out, err = run_cli("fuzz", "--iters", "0")
    assert (code, seeds) == (0, [])
    assert "fuzz: 0 iterations, all properties hold" in out


def test_shape_counts_parsing():
    assert cli._parse_shape_counts("dot:2, hseg:1") == {"dot": 2, "hseg": 1}
    assert cli._parse_shape_counts("dot:1,dot:2") == {"dot": 3}
    assert cli._parse_shape_counts(" , dot:1 , ") == {"dot": 1}
    for bad in ("blob:1", "dot", "dot:x", "dot:-1"):
        with pytest.raises(cio.ParseError):
            cli._parse_shape_counts(bad)


@pytest.mark.parametrize("spec", ["dot:4097", "zigzag:820", "dot:1000000000"])
def test_fuzz_shapes_above_the_bound_exit_one_before_any_draw(monkeypatch, spec):
    drawn = []
    monkeypatch.setattr(cli, "random_bicomplex", lambda *args: drawn.append(args))
    code, out, err = run_cli("fuzz", "--shapes", spec)
    assert (code, out, drawn) == (1, "", [])
    assert "above the bound %d" % cio.MAX_TOTAL_DIM in err


def test_fuzz_shapes_at_the_bound_are_accepted():
    code, out, _err = run_cli("fuzz", "--shapes", "dot:4096", "--iters", "0")
    assert code == 0
    assert "fuzz: 0 iterations, all properties hold" in out


def test_fuzz_failure_minimizes_and_writes_reproducer(tmp_path, monkeypatch):
    real_check = cli.check_bicomplex

    def planted(dc, shapes=None):
        if shapes is not None and any(s[0] == "dot" for s in shapes):
            raise cli.PropertyFailure("identities", "planted for the test")
        return real_check(dc, shapes=shapes)

    monkeypatch.setattr(cli, "check_bicomplex", planted)
    repro = tmp_path / "repro.json"
    code, out, err = run_cli(
        "fuzz", "--iters", "2", "--seed", "17",
        "--shapes", "dot:2,hseg:1", "--reproducer", str(repro),
    )
    assert code == 3
    assert "identities" in err and "seed 17" in err
    doc = json.loads(repro.read_text())
    rebuilt = cio.build(cio.parse_document(doc)).obj
    # greedy minimization should strip everything but a single dot
    assert rebuilt.total_dim() == 1


@pytest.mark.parametrize("exc", [
    NotASubspace("planted"),
    IllFormedMap("planted"),
    AssertionError("planted guard"),
    ValueError("planted"),
])
def test_fuzz_engine_crash_minimizes_and_writes_reproducer(tmp_path, monkeypatch, exc):
    real_check = cli.check_bicomplex

    def planted(dc, shapes=None):
        if shapes is not None and any(s[0] == "dot" for s in shapes):
            raise exc
        return real_check(dc, shapes=shapes)

    monkeypatch.setattr(cli, "check_bicomplex", planted)
    repro = tmp_path / "repro.json"
    code, out, err = run_cli(
        "fuzz", "--iters", "2", "--seed", "17",
        "--shapes", "dot:2,hseg:1", "--reproducer", str(repro),
    )
    assert code == 3
    assert "'crash'" in err and "seed 17" in err and repr(exc) in err
    assert "Traceback" in err and "planted" in err
    doc = json.loads(repro.read_text())
    rebuilt = cio.build(cio.parse_document(doc)).obj
    assert rebuilt.total_dim() == 1


def test_fuzz_unwritable_reproducer_still_reports_the_failure(tmp_path, monkeypatch):
    def planted(dc, shapes=None):
        raise cli.PropertyFailure("identities", "planted for the test")

    monkeypatch.setattr(cli, "check_bicomplex", planted)
    repro = tmp_path / "no-such-dir" / "repro.json"
    code, out, err = run_cli("fuzz", "--iters", "1", "--seed", "17",
                             "--shapes", "dot:1", "--reproducer", str(repro))
    assert code == 3
    assert "'identities' failed at seed 17" in err
    assert "cannot write the reproducer to %s" % repro in err
    assert "Traceback" not in err and not repro.exists()
