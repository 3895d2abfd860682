"""Self-tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import random  # noqa: E402
import time  # noqa: E402

import pytest  # noqa: E402

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from cohomlab import cohomology, geometry, io, linalg  # noqa: E402


def _documents(wl):
    out = []
    for inp in wl.make_inputs():
        if isinstance(inp[0], str):
            with open(inp[0]) as fh:
                out.append(fh.read())
        else:
            out.append(inp)
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = _documents(cls(7, str(tmp_path / "a")))
    assert first == _documents(cls(7, str(tmp_path / "b")))
    assert first != _documents(cls(8, str(tmp_path / "a")))


def test_fuzz_mix_keeps_tier_quota():
    # fill_counts spends a budget exactly, since a dot costs 1
    costs = [sum(workloads.SHAPE_COST[s[0]] for s in shapes)
             for _conj, shapes in workloads.FuzzMix(3, None).make_inputs()]
    assert {b: costs.count(b) for b in set(costs)} == workloads.FuzzMix.quota


def test_fuzz_mix_seed_changes_only_the_basis():
    a = workloads.FuzzMix(3, None).make_inputs()
    b = workloads.FuzzMix(4, None).make_inputs()
    assert [shapes for _c, shapes in a] == [shapes for _c, shapes in b]
    dc_a = workloads.randomgen.assemble(a[0][1], a[0][0])
    dc_b = workloads.randomgen.assemble(b[0][1], b[0][0])
    assert dc_a.spaces == dc_b.spaces
    assert (dc_a.d1, dc_a.d2) != (dc_b.d1, dc_b.d2)


def test_symplectic_documents_round_trip():
    rng = random.Random(5)
    for sd in workloads.criterion6_algebras(12):
        sd = workloads.flip_signs(sd, rng)
        doc = json.loads(io.canonical_json(workloads.symplectic_document(sd)))
        kind, back = io.parse_document(doc).payload
        assert kind == "symplectic"
        assert back.lie.n == sd.lie.n
        assert back.lie.brackets == sd.lie.brackets
        assert back.omega == sd.omega


def test_flip_signs_keeps_the_tables():
    sd = workloads.criterion6_algebras(2)[1]
    flipped = workloads.flip_signs(sd, random.Random(1))
    tables = []
    for data in (sd, flipped):
        pair, _ops = geometry.symplectic_pair(data)
        pa = cohomology.PairAnalysis(pair)
        tables.append({f: pa.flavor_table(f) for f in ("D1", "D2", "BC", "A")})
    assert tables[0] == tables[1]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_complex_structures_are_accepted(seed, tmp_path):
    wl = workloads.DolbeaultLadder(seed, str(tmp_path))
    for csd in wl.structures():
        assert workloads.structure_terms(csd) >= wl.min_terms
        for i, form in csd.dphi.items():
            for a, b in form:
                # phi^a ^ phi^b or phi^a ^ phibar^b with a, b < i
                assert a < i - 1 and b % csd.n < i - 1
        geometry.complex_bicomplex(csd)
    for path, n in wl.make_inputs():
        built = io.build(io.load_document(path))
        assert built.kind == "lie_complex"
        assert built.obj.total_dim() == 4 ** n


def test_self_time_arithmetic():
    # op 0: root [0, 10] with children a [1, 4] (grandchild [2, 3], of
    # which the tracer's hooks took 0.25) and b [5, 9]; a second root
    # [20, 22] with no children and weight 2
    names = [0, 1, 2, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0, 20.0]
    ends = [10.0, 4.0, 3.0, 9.0, 22.0]
    parents = [-1, 0, 1, 0, -1]
    hooked = [0.0, 0.0, 0.25, 0.0, 0.0]
    weights = [1, 1, 1, 1, 2]
    st = tracer.self_times(names, starts, ends, parents, hooked, weights)
    assert st[0] == pytest.approx((10 - 3 - 4) + 2 * 2)
    assert st[1] == pytest.approx((3 - 1) + 4)
    assert st[2] == pytest.approx(1 - 0.25)
    assert sum(st.values()) == pytest.approx(10 - 0.25 + 2 * 2)


def test_hook_time_stays_out_of_self_time(monkeypatch):
    # make the tracer's entry scan slow: kernel's span grows, its self
    # time does not
    real = tracer._entry_stats

    def slow(rows):
        time.sleep(0.02)
        return real(rows)

    monkeypatch.setattr(tracer, "_entry_stats", slow)
    tr = tracer.Tracer()
    tr.install()
    try:
        tr.op = 0
        linalg.kernel(linalg.Matrix([[1, 2], [2, 4]]))
    finally:
        tr.uninstall()
    assert tr.counts["reductions"] == 2  # kernel's rref + its Subspace
    assert tr.ends[0] - tr.starts[0] >= 0.04
    assert tr.hooked[0] >= 0.04
    values = tr.metrics([1.0], 1.0, 1.0)
    assert values["linalg.kernel.self_s"] < 0.01


def test_speed_scale_uses_samples_each_side():
    probe = speed.SpeedProbe()
    w = speed.WINDOW
    probe.samples = [1e-3] * w + [3e-3] * w + [2e-3] * (2 * w)
    # the window around a mark holds WINDOW samples on each side
    assert probe.scale(w) == pytest.approx(speed.REF_S / 2e-3)
    assert probe.scale(2 * w) == pytest.approx(speed.REF_S / 2.5e-3)
    assert probe.scale(0) == pytest.approx(speed.REF_S / 1e-3)
    probe.samples = []
    assert probe.catch_up(0.0) == 1
    assert probe.catch_up(1.0 / speed.PER_S) == 2


def test_tracer_installs_and_restores():
    before_kernel = linalg.kernel
    before_intersect = linalg.Subspace.__dict__["intersect"]
    before_rref_rows = linalg._rref_rows
    tr = tracer.Tracer()
    tr.install()
    try:
        assert linalg.kernel is not before_kernel
        s = linalg.kernel(linalg.Matrix([[1, 2], [2, 4]]))
        assert s.dim == 1
    finally:
        tr.uninstall()
    assert linalg.kernel is before_kernel
    assert linalg.Subspace.__dict__["intersect"] is before_intersect
    assert "cell" not in vars(cohomology.Analysis)
    assert tr.counts["reductions"] == 2  # kernel's own rref + its Subspace
    assert [tr.layer_names[i] for i in tr.names] == ["linalg.kernel"]
    assert linalg._rref_rows is before_rref_rows
    assert geometry.det is linalg.det


def test_benchmark_json_matches_code():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        [(n, u, b) for n, u, b, _moves in tracer.LAYER_METRICS]
