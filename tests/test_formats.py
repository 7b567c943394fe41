"""Serialization tests: JSON round trips, SOCP/SDPA export, plane slices.

Round trips must be field-identical (rationals survive as strings); the SOCP
export is checked by evaluating both forms at random points; SDPA files are
parsed back and the declared block sizes compared against the entries.
"""

import enum
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from facetforge.constructor import build_ball, default_params, realize
from facetforge.formats import (
    EmptySlice,
    SliceSpec,
    certificate_from_json,
    certificate_to_json,
    dumps,
    emit_slice,
    emit_slice_csv,
    emit_slice_svg,
    export_sdpa,
    export_socp,
    parse_sdpa,
    parse_signature_text,
    plan_from_json,
    plan_to_json,
    quadratic_from_json,
    quadratic_to_json,
    rational_from_json,
    rational_to_json,
    report_from_json,
    report_to_json,
    slice_boundary,
    slice_spec_from_json,
    socp_to_json,
    system_from_json,
    system_to_json,
    tree_from_json,
    tree_to_json,
)
from facetforge.quadratics import ConvexQuadratic, QuadraticSystem, evaluate
from facetforge.signatures import Signature, lower_bound
from facetforge.verifier import exact_signature, probe_signature

F = Fraction


def test_rational_codec():
    assert rational_to_json(F(-3, 7)) == "-3/7"
    assert rational_from_json("-3/7") == F(-3, 7)
    assert rational_from_json(5) == F(5)
    assert rational_from_json("12") == F(12)
    with pytest.raises((TypeError, ValueError)):
        rational_from_json(True)
    with pytest.raises((TypeError, ValueError)):
        rational_from_json(1.5)


def test_system_round_trip_is_field_identical():
    system = realize(Signature.of(0, 2, 5)).system
    data = json.loads(json.dumps(system_to_json(system)))
    assert system_from_json(data) == system
    # ugly denominators survive exactly
    q = ConvexQuadratic(
        A=((F(123456789, 987654321000), F(0)), (F(0), F(1, 3))),
        a=(F(-7, 11), F(2)),
        alpha=F(-991, 13),
    )
    s2 = QuadraticSystem(dim=2, constraints=(q,))
    assert system_from_json(json.loads(json.dumps(system_to_json(s2)))) == s2


def test_quadratic_json_rejects_unknown_keys():
    data = quadratic_to_json(build_ball(2))
    data["extra"] = 1
    with pytest.raises(ValueError):
        quadratic_from_json(data)


def test_parse_signature_text_variants():
    for text in ("0,2,3", "{0, 2, 3}", " 0 2 3 ", "{0,2,3}"):
        assert parse_signature_text(text).elements == (0, 2, 3)
    with pytest.raises(ValueError):
        parse_signature_text("")
    with pytest.raises(ValueError):
        parse_signature_text("{}")
    # Only ASCII digit tokens, separated by a comma, whitespace or both,
    # inside at most one pair of braces.
    for text in ("0,x", "0,,2", "0,2,", ",0,2", "0,1_0", "0,\u0663", "0,+3", "0,-2",
                 "{{0,2}}", "{0,2", "0,2}", "{0}{2}", "0;2"):
        with pytest.raises(ValueError):
            parse_signature_text(text)
    assert parse_signature_text(" { 0 ,2\t3 } ").elements == (0, 2, 3)


def test_plan_tree_certificate_round_trips():
    plan = realize(Signature.of(0, 1, 2, 3), use_decomposition=True).plan
    assert plan_from_json(json.loads(json.dumps(plan_to_json(plan)))) == plan
    assert tree_from_json(tree_to_json(plan.tree)) == plan.tree
    with pytest.raises(ValueError):
        tree_from_json({"neither": []})
    cert = lower_bound(Signature.of(*range(8)))
    assert certificate_from_json(certificate_to_json(cert)) == cert


def test_report_round_trips():
    system = realize(Signature.of(0, 2, 4)).system
    exact = exact_signature(system)
    back = report_from_json(json.loads(json.dumps(report_to_json(exact))))
    assert back == exact
    probe = probe_signature(system, samples=200, seed=9)
    pback = report_from_json(json.loads(json.dumps(report_to_json(probe))))
    assert pback.signature == probe.signature
    assert pback.confidence == probe.confidence
    assert pback.witnesses == probe.witnesses


def test_dumps_is_stable():
    text = dumps({"b": 1, "a": [2]})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')


def json_dumps(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


FLOATS = st.one_of(st.floats(), st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308]))
TEXT = st.one_of(st.text(), st.sampled_from(
    ['"', "\\", "\x00\x1f\x7f", "\u00e9\u2028", "\U0001f600", "a\"b\\c\n"]))
LEAVES = st.one_of(TEXT, st.integers(), st.booleans(), st.none(), FLOATS,
                   st.lists(TEXT), st.lists(st.integers()), st.lists(FLOATS))


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
        st.dictionaries(st.one_of(st.integers(), FLOATS, st.booleans()), children,
                        max_size=4),
        st.dictionaries(st.none(), children),
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(st.recursive(LEAVES, _containers, max_leaves=20))
def test_dumps_writes_what_json_writes(data):
    assert dumps(data) == json_dumps(data)


class _Int(enum.IntEnum):
    TWO = 2


class _Float(float):
    def __repr__(self):
        return "not a float"


class _Str(str):
    pass


def test_dumps_follows_json_on_subclasses():
    data = {"i": [_Int.TWO, _Int.TWO], "f": [_Float(0.5), _Float("nan")],
            "s": [_Str("x")], _Str("k"): _Float(2.0), "n": {3: _Int.TWO, _Int.TWO: 1}}
    assert dumps(data) == json_dumps(data)


@pytest.mark.parametrize("bad", [F(1, 2), [F(1, 2)], {"a": {1, 2}},
                                 {"a": 1, 2: "b"}, {(1, 2): 0}])
def test_dumps_rejects_what_json_rejects(bad):
    with pytest.raises(TypeError):
        json_dumps(bad)
    with pytest.raises(TypeError):
        dumps(bad)


def test_quadratic_rows_do_not_alias():
    q = ConvexQuadratic(A={1: {1: F(2)}}, a=(F(0), F(1), F(0)), alpha=F(-1))
    rows = quadratic_to_json(q)["A"]
    assert rows == [["0", "0", "0"], ["0", "2", "0"], ["0", "0", "0"]]
    rows[0][2] = "7"
    assert rows == [["0", "0", "7"], ["0", "2", "0"], ["0", "0", "0"]]


def test_socp_matches_quadratics_at_random_points():
    rng = random.Random(1234)
    for elements in [(0, 2), (0, 1, 3), (1, 2, 4), (0, 3, 5, 6)]:
        system = realize(Signature.of(*elements)).system
        form = export_socp(system)
        assert form.dim == system.dim
        assert len(form.cones) == len(system.constraints)
        for _ in range(200):
            x = np.array([rng.uniform(-2, 2) for _ in range(system.dim)])
            for cone, q in zip(form.cones, system.constraints):
                direct = float(evaluate(q, tuple(x)))
                assert abs(cone.evaluate(x) - direct) <= 1e-9


def test_socp_ball_is_identity():
    form = export_socp(QuadraticSystem(dim=3, constraints=(build_ball(3),)))
    cone = form.cones[0]
    assert np.allclose(cone.L, np.eye(3))
    assert np.allclose(cone.p, 0) and np.allclose(cone.b, 0)
    assert cone.gamma == -1.0
    data = socp_to_json(form)
    assert data["dim"] == 3 and len(data["cones"]) == 1


def test_sdpa_ball_frozen():
    text = export_sdpa(QuadraticSystem(dim=2, constraints=(build_ball(2),)))
    parsed = parse_sdpa(text)
    assert parsed["nvars"] == 2
    assert parsed["block_sizes"] == [3]
    assert set(parsed["entries"]) == {
        (0, 1, 1, 1, -1.0),
        (0, 1, 2, 2, -1.0),
        (0, 1, 3, 3, -1.0),
        (1, 1, 1, 3, 1.0),
        (2, 1, 2, 3, 1.0),
    }


def test_sdpa_declared_sizes_match_entries():
    system = realize(Signature.of(0, 2, 3)).system
    parsed = parse_sdpa(export_sdpa(system))
    assert parsed["block_sizes"] == [4, 2]
    implied = {}
    for _, blk, i, j, _ in parsed["entries"]:
        implied[blk] = max(implied.get(blk, 0), i, j)
    assert [implied[b] for b in sorted(implied)] == parsed["block_sizes"]


def test_dim_zero_exports_frozen():
    system = QuadraticSystem(
        dim=0,
        constraints=(
            ConvexQuadratic(A=(), a=(), alpha=-1),
            ConvexQuadratic(A=(), a=(), alpha=F(1, 3)),
        ),
    )
    assert dumps(socp_to_json(export_socp(system))) == dumps(
        {
            "cones": [
                {"L": [], "b": [], "gamma": -1.0, "p": []},
                {"L": [], "b": [], "gamma": 0.3333333333333333, "p": []},
            ],
            "dim": 0,
        }
    )
    assert export_sdpa(system) == (
        "0\n2\n1 1\n0\n0 1 1 1 -1.0\n0 2 1 1 0.3333333333333333\n"
    )


def test_parse_sdpa_rejects_malformed():
    with pytest.raises(ValueError):
        parse_sdpa("1\n1\n")
    good = export_sdpa(QuadraticSystem(dim=1, constraints=(build_ball(1),)))
    with pytest.raises(ValueError):
        parse_sdpa(good + "0 5 1 1 1.0\n")  # block index out of range
    with pytest.raises(ValueError):
        parse_sdpa(good + "0 1 9 9 1.0\n")  # entry exceeds block size
    commented = '* comment\n"title line\n' + good
    assert parse_sdpa(commented) == parse_sdpa(good)


def test_slice_circle_geometry():
    system = QuadraticSystem(dim=3, constraints=(build_ball(3),))
    spec = SliceSpec(base_point=(0, 0, 0), u=(1, 0, 0), v=(0, 1, 0), resolution=64)
    thetas, st_rows, points = slice_boundary(system, spec)
    assert len(thetas) == 64
    for st, x in zip(st_rows, points):
        assert abs(math.hypot(st[0], st[1]) - 1.0) <= 1e-6
        assert float(evaluate(system.constraints[0], tuple(x))) <= 1e-6
    # convex slice: consecutive edge cross products keep one sign
    pts = np.array(st_rows)
    for i in range(len(pts)):
        a = pts[(i + 1) % len(pts)] - pts[i]
        b = pts[(i + 2) % len(pts)] - pts[(i + 1) % len(pts)]
        assert float(a[0] * b[1] - a[1] * b[0]) >= -1e-9


def test_slice_csv_and_svg_shapes():
    system = QuadraticSystem(dim=3, constraints=(build_ball(3),))
    spec = SliceSpec(base_point=(0, 0, 0), u=(1, 0, 0), v=(0, 1, 0), resolution=32)
    csv = emit_slice_csv(system, spec)
    lines = csv.strip().splitlines()
    assert lines[0] == "theta,s,t,x1,x2,x3"
    assert len(lines) == 33
    svg = emit_slice_svg(system, spec)
    assert svg.startswith("<?xml")
    assert "<svg" in svg and "Z\"" in svg
    assert emit_slice(system, spec, "csv") == csv
    with pytest.raises(ValueError):
        emit_slice(system, spec, "png")


def test_slice_partial_for_unbounded_slab():
    slab = ConvexQuadratic(A=((1, 0), (0, 0)), a=(0, 0), alpha=-1)
    system = QuadraticSystem(dim=2, constraints=(slab,))
    spec = SliceSpec(base_point=(0, 0), u=(1, 0), v=(0, 1), resolution=64)
    thetas, st_rows, _ = slice_boundary(system, spec)
    # the two rays parallel to the slab stay feasible and are omitted
    assert len(thetas) == 62
    for st in st_rows:
        assert abs(abs(st[0]) - 1.0) <= 1e-6


def test_slice_keeps_every_ray_within_extent():
    disc = ConvexQuadratic(A=((1, 0), (0, 1)), a=(0, 0), alpha=-25)
    system = QuadraticSystem(dim=2, constraints=(disc,))
    spec = SliceSpec(base_point=(0, 0), u=(1, 0), v=(0, 1), resolution=32, extent=6)
    thetas, st_rows, _ = slice_boundary(system, spec)
    assert len(thetas) == 32
    for st in st_rows:
        assert abs(math.hypot(st[0], st[1]) - 5.0) <= 1e-6


def test_slice_empty_cases():
    system = QuadraticSystem(dim=3, constraints=(build_ball(3),))
    offplane = SliceSpec(base_point=(0, 0, 2), u=(1, 0, 0), v=(0, 1, 0))
    with pytest.raises(EmptySlice):
        slice_boundary(system, offplane)
    halfspace = ConvexQuadratic(
        A=((0,) * 3,) * 3, a=(0, 0, 1), alpha=-2
    )
    never_exits = QuadraticSystem(dim=3, constraints=(halfspace,))
    inplane = SliceSpec(base_point=(0, 0, 0), u=(1, 0, 0), v=(0, 1, 0))
    with pytest.raises(EmptySlice):
        slice_boundary(never_exits, inplane)


def test_slice_spec_validation():
    with pytest.raises(ValueError):
        SliceSpec(base_point=(0, 0), u=(2, 0), v=(0, 1))
    with pytest.raises(ValueError):
        SliceSpec(base_point=(0, 0), u=(1, 0), v=(1, 0))
    with pytest.raises(ValueError):
        SliceSpec(base_point=(0, 0), u=(1, 0), v=(0, 1), resolution=4)
    with pytest.raises(ValueError):
        SliceSpec(base_point=(0, 0), u=(1, 0), v=(0, 1), extent=-1)
    with pytest.raises(ValueError):
        SliceSpec(base_point=(0, 0, 0), u=(1, 0), v=(0, 1))
    spec = slice_spec_from_json(
        {"base_point": [0, 0], "u": [1, 0], "v": [0, 1]}
    )
    assert spec.resolution == 64 and spec.extent == 16.0


def test_slice_dim_mismatch():
    system = QuadraticSystem(dim=3, constraints=(build_ball(3),))
    spec = SliceSpec(base_point=(0, 0), u=(1, 0), v=(0, 1))
    with pytest.raises(ValueError):
        slice_boundary(system, spec)
