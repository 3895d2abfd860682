"""Shape builders, direct sums, conjugation, and ground-truth tables."""

import json
import pathlib
import random

import pytest

from cohomlab.linalg import mat_inverse, rref
from cohomlab.randomgen import (
    assemble,
    direct_sum,
    predicted_tables,
    random_bicomplex,
    random_shapes,
    shape_complex,
    shape_dim,
    zigzag_spots,
)
from cohomlab.randomgen import conjugate_complex, random_unimodular


ALL_SHAPES = [
    ("dot", 0, 0),
    ("dot", -2, 5),
    ("hseg", 1, 1),
    ("vseg", -1, 2),
    ("square", 0, 0),
    ("zigzag", 0, 0, 2, "lower"),
    ("zigzag", 0, 0, 3, "lower"),
    ("zigzag", 1, -1, 3, "upper"),
    ("zigzag", 0, 0, 4, "lower"),
    ("zigzag", 2, 2, 5, "upper"),
    ("zigzag", -3, 0, 6, "lower"),
]


@pytest.mark.parametrize("shape", ALL_SHAPES, ids=[str(s) for s in ALL_SHAPES])
def test_every_shape_validates(shape):
    dc = shape_complex(shape)
    assert dc.validate() == []
    assert dc.total_dim() == shape_dim(shape)
    assert all(d == 1 for d in dc.spaces.values())


def test_unknown_shape_rejected():
    with pytest.raises(ValueError):
        shape_complex(("blob", 0, 0))


def test_zigzag_length_two_lower_is_hseg():
    z = shape_complex(("zigzag", 3, 1, 2, "lower"))
    h = shape_complex(("hseg", 3, 1))
    assert z.spaces == h.spaces
    assert set(z.d1) == set(h.d1) and not z.d2 and not h.d2


def test_zigzag_spots_geometry():
    assert zigzag_spots(0, 0, 4, "lower") == [(0, 0), (1, 0), (1, -1), (2, -1)]
    assert zigzag_spots(0, 0, 4, "upper") == [(0, 0), (-1, 0), (-1, 1), (-2, 1)]


def test_zigzag_rejects_bad_args():
    with pytest.raises(ValueError):
        shape_complex(("zigzag", 0, 0, 1, "lower"))
    with pytest.raises(ValueError):
        shape_complex(("zigzag", 0, 0, 3, "diagonal"))


def test_direct_sum_adds_dimensions_and_validates():
    a = shape_complex(("square", 0, 0))
    b = shape_complex(("hseg", 0, 0))
    dc = direct_sum([a, b])
    assert dc.validate() == []
    assert dc.dim(0, 0) == 2  # square corner + segment source
    assert dc.dim(1, 0) == 2
    assert dc.dim(0, 1) == 1 and dc.dim(1, 1) == 1
    assert dc.total_dim() == 6


def test_random_unimodular_is_integer_invertible():
    rng = random.Random(7)
    for k in (1, 2, 3, 5):
        m = random_unimodular(k, rng)
        assert all(isinstance(x, int) for row in m.rows for x in row)
        assert rref(m)[1] == k
        inv = mat_inverse(m)
        # unimodular: the inverse is again an integer matrix
        assert all(x == int(x) for row in inv.rows for x in row)


def test_conjugation_preserves_validity_and_dimensions():
    base = direct_sum([shape_complex(s) for s in ALL_SHAPES])
    rng = random.Random(11)
    dc = conjugate_complex(base, rng)
    assert dc.spaces == base.spaces
    assert dc.validate() == []
    # the change of basis really changed something
    assert any(
        dc.d1[k] != base.d1.get(k) for k in dc.d1
    ) or any(dc.d2[k] != base.d2.get(k) for k in dc.d2)


def test_assemble_with_and_without_conjugation():
    shapes = [("square", 0, 0), ("zigzag", 0, 0, 3, "upper")]
    plain = assemble(shapes)
    conj = assemble(shapes, conj_seed=5)
    assert plain.validate() == [] and conj.validate() == []
    assert plain.spaces == conj.spaces


def test_random_shapes_deterministic():
    counts = {"dot": 2, "square": 1, "zigzag": 2}
    a = random_shapes(random.Random(42), counts)
    b = random_shapes(random.Random(42), counts)
    assert a == b
    assert len(a) == 5
    kinds = sorted(s[0] for s in a)
    assert kinds == ["dot", "dot", "square", "zigzag", "zigzag"]


def test_random_bicomplex_deterministic_and_valid():
    params = {"counts": {"dot": 2, "hseg": 1, "vseg": 1, "square": 1, "zigzag": 1}}
    one = random_bicomplex(123, params)
    two = random_bicomplex(123, params)
    assert one.shapes == two.shapes
    assert one.dc.spaces == two.dc.spaces
    assert one.dc.d1 == two.dc.d1 and one.dc.d2 == two.dc.d2
    assert one.dc.validate() == []
    assert one.total_dim() == sum(shape_dim(s) for s in one.shapes)


def test_random_bicomplex_different_seeds_differ():
    params = {"counts": {"dot": 1, "zigzag": 2}}
    assert random_bicomplex(1, params).shapes != random_bicomplex(2, params).shapes


def test_predicted_tables_dot():
    t = predicted_tables([("dot", 2, 3)])
    for name in ("D1", "D2", "BC", "A"):
        assert t[name] == {(2, 3): 1}
    assert t["TOT"] == {5: 1}
    assert t["lemma"] is True


def test_predicted_tables_square_empty():
    t = predicted_tables([("square", 1, 1)])
    assert t["D1"] == {} and t["D2"] == {} and t["BC"] == {} and t["A"] == {}
    assert t["TOT"] == {}
    assert t["lemma"] is True


def test_predicted_tables_hseg():
    t = predicted_tables([("hseg", 1, 1)])
    assert t["BC"] == {(2, 1): 1}
    assert t["A"] == {(1, 1): 1}
    assert t["D1"] == {}
    assert t["D2"] == {(1, 1): 1, (2, 1): 1}
    assert t["TOT"] == {}
    assert t["lemma"] is False


def test_predicted_tables_vseg_mirrors_hseg():
    t = predicted_tables([("vseg", 0, 0)])
    assert t["BC"] == {(0, 1): 1}
    assert t["A"] == {(0, 0): 1}
    assert t["D2"] == {}
    assert t["D1"] == {(0, 0): 1, (0, 1): 1}


def test_predicted_tables_zigzag3_lower():
    t = predicted_tables([("zigzag", 0, 0, 3, "lower")])
    assert t["BC"] == {(1, 0): 1}
    assert t["A"] == {(0, 0): 1, (1, -1): 1}
    assert t["D1"] == {(1, -1): 1}
    assert t["D2"] == {(0, 0): 1}
    assert t["TOT"] == {0: 1}
    assert t["lemma"] is False


def test_predicted_tables_zigzag3_upper():
    t = predicted_tables([("zigzag", 0, 0, 3, "upper")])
    assert t["BC"] == {(0, 0): 1, (-1, 1): 1}
    assert t["A"] == {(-1, 0): 1}
    assert t["D1"] == {(-1, 1): 1}
    assert t["D2"] == {(0, 0): 1}
    assert t["TOT"] == {0: 1}


def test_predicted_tables_accumulate():
    t = predicted_tables([("dot", 0, 0), ("dot", 0, 0), ("hseg", 0, 0)])
    assert t["A"] == {(0, 0): 3}
    assert t["BC"] == {(0, 0): 2, (1, 0): 1}
    assert t["lemma"] is False


GOLDEN_SHAPES = {
    "dot": ("dot", 0, 0),
    "square": ("square", 0, 0),
    "hseg": ("hseg", 0, 0),
    "vseg": ("vseg", 0, 0),
    "zigzag3": ("zigzag", 0, 0, 3, "lower"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHAPES))
def test_predicted_tables_match_the_goldens(name):
    """The arrow rules reproduce every pinned flavor and Varouchas table."""
    path = pathlib.Path(__file__).parent / "golden" / ("%s.json" % name)
    expected = json.loads(path.read_text())["expected"]
    t = predicted_tables([GOLDEN_SHAPES[name]])

    def cells(table):
        return {tuple(int(x) for x in k.split(",")): v for k, v in table.items()}

    for group in ("tables", "varouchas"):
        for flavor, table in expected[group].items():
            assert t[flavor] == cells(table), flavor
    assert t["BC->A"] == ({(0, 0): 1} if name == "dot" else {})


def test_predicted_varouchas_of_zigzags():
    # lower zigzag of length 4: s1 -d1-> s2 <-d2- s3 -d1-> s4
    t = predicted_tables([("zigzag", 0, 0, 4, "lower")])
    assert t["V1"] == t["V2"] == {(1, 0): 1}
    assert t["V3"] == {(1, 0): 1, (2, -1): 1}
    assert t["V4"] == {(0, 0): 1, (1, -1): 1}
    assert t["V5"] == t["V6"] == {(1, -1): 1}
    assert t["BC->A"] == {}
    # upper zigzag of length 3: the reflection, sources and sinks swapped
    t = predicted_tables([("zigzag", 0, 0, 3, "upper")])
    assert t["V1"] == {}
    assert t["V2"] == {(-1, 1): 1}
    assert t["V3"] == {(0, 0): 1}
    assert t["V4"] == t["V5"] == t["V6"] == {(-1, 0): 1}
