"""CLI tests, run in process through main(argv).

Exit code contract: 2 for malformed input, 1 for an --expect mismatch,
0 otherwise.
"""

import json
from fractions import Fraction

import pytest

from facetforge.cli import main
from facetforge.constructor import build_ball
from facetforge.formats import dumps, system_to_json
from facetforge.quadratics import ConvexQuadratic, QuadraticSystem


def write_system(path, system):
    path.write_text(dumps(system_to_json(system)))
    return str(path)


def ball_file(tmp_path, n=3):
    system = QuadraticSystem(dim=n, constraints=(build_ball(n),))
    return write_system(tmp_path / "ball.json", system)


def test_construct_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "sys.json"
    assert main(["construct", "--signature", "0,2,5", "--out", str(out)]) == 0
    assert out.exists()
    assert (tmp_path / "sys.plan.json").exists()
    capsys.readouterr()
    assert main(["verify", str(out), "--expect", "0,2,5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["signature"] == [0, 2, 5]
    assert report["method"] == "exact"
    assert set(report["witnesses"]) == {"0", "2", "5"}


def test_construct_writes_stdout_without_out(capsys):
    assert main(["construct", "--signature", "1,3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dim"] == 3
    assert len(data["constraints"]) == 1


def test_construct_accepts_params_and_rejects_bad_ones(capsys):
    assert main(["construct", "--signature", "0,2", "--params", "7/10,8/5"]) == 0
    capsys.readouterr()
    assert main(["construct", "--signature", "0,2", "--params", "1,1"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["construct", "--signature", "0,2", "--params", "1"]) == 2


def test_construct_bad_signature_exit_2(capsys):
    for text in ("0,x", "0,,2", "{{0,2}}"):
        assert main(["construct", "--signature", text]) == 2
        assert "error:" in capsys.readouterr().err


def test_verify_mismatch_exit_1(tmp_path, capsys):
    path = ball_file(tmp_path)
    assert main(["verify", path, "--expect", "1,3"]) == 1
    captured = capsys.readouterr()
    assert "mismatch" in captured.err
    assert json.loads(captured.out)["signature"] == [0, 3]


def test_verify_bad_expect_exit_2_before_any_report(tmp_path, capsys):
    path = ball_file(tmp_path)
    assert main(["verify", path, "--expect", "0,x,3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line.startswith("error:") for line in captured.err.splitlines()] == [True]


def test_verify_malformed_input_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ this is not json")
    assert main(["verify", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    schema = tmp_path / "schema.json"
    schema.write_text('{"dim": 2}')
    assert main(["verify", str(schema)]) == 2
    assert main(["verify", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    # Each message names the field at fault.
    ok = {"A": [["1"]], "a": ["0"], "alpha": "-1"}
    for constraints, message in [
        ([{"a": ["0"], "alpha": "-1"}], "exactly the keys A, a, alpha"),
        ([{**ok, "b": 1}], "exactly the keys A, a, alpha"),
        ([{**ok, "A": 5}], "A must be a list of rows"),
        ([{**ok, "A": [5]}], "each row of A must be a list"),
        ([{**ok, "a": "0"}], "a must be a list"),
        (5, "constraints must be a list"),
    ]:
        schema.write_text(json.dumps({"dim": 1, "constraints": constraints}))
        assert main(["verify", str(schema)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
    schema.write_text(json.dumps({"dim": 1, "constraints": [ok], "interior_witness": 3}))
    assert main(["verify", str(schema)]) == 2
    assert "interior_witness must be a list" in capsys.readouterr().err


def _samples_error(tmp_path, capsys, samples: str) -> str:
    with pytest.raises(SystemExit) as exc:
        main(["verify", ball_file(tmp_path), "--probe", "--samples", samples])
    assert exc.value.code == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_rejects_samples_below_one(tmp_path, capsys, samples):
    err = _samples_error(tmp_path, capsys, samples)
    assert f"argument --samples: must be at least 1, got {samples}" in err


def test_verify_rejects_non_integer_samples(tmp_path, capsys):
    # The same wording as --seed, with no private helper name in it.
    err = _samples_error(tmp_path, capsys, "abc")
    assert "argument --samples: expected an integer, got 'abc'" in err


@pytest.mark.parametrize(
    "argv",
    [["construct", "--signature", "0,2,5", "--decompose", "--budget", "-4"],
     ["decompose", "--signature", "0,2,5", "--budget", "-1"],
     ["decompose", "--signature", "0,2,5", "--budget", "x"]],
)
def test_negative_budget_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--budget" in captured.err


def test_zero_budget_is_accepted(capsys):
    assert main(["decompose", "--signature", "0", "--budget", "0"]) == 0


@pytest.mark.parametrize(
    "seed_args, env_seed",
    [(["--probe", "--seed", "-1"], None), ([], "abc"), (["--probe"], "-3")],
)
def test_bad_seed_exit_2(tmp_path, capsys, monkeypatch, seed_args, env_seed):
    path = ball_file(tmp_path)
    if env_seed is not None:
        monkeypatch.setenv("FACETFORGE_SEED", env_seed)
    try:
        code = main(["verify", path, "--samples", "300", *seed_args])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("error:") == 1


def test_seed_flag_wins_over_bad_env_seed(tmp_path, capsys, monkeypatch):
    path = ball_file(tmp_path)
    monkeypatch.setenv("FACETFORGE_SEED", "-3")
    assert main(["verify", path, "--probe", "--samples", "300", "--seed", "7"]) == 0


def test_verify_infeasible_system(tmp_path, capsys):
    empty = ConvexQuadratic(A=((1, 0), (0, 1)), a=(0, 0), alpha=1)
    path = write_system(
        tmp_path / "empty.json", QuadraticSystem(dim=2, constraints=(empty,))
    )
    assert main(["verify", path]) == 0
    assert json.loads(capsys.readouterr().out)["infeasible"] is True
    assert main(["verify", path, "--expect", "0,2"]) == 1


def test_verify_probe_seed_is_reproducible(tmp_path, capsys, monkeypatch):
    path = ball_file(tmp_path)
    monkeypatch.setenv("FACETFORGE_SEED", "7")
    assert main(["verify", path, "--probe", "--samples", "300"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", path, "--probe", "--samples", "300"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["method"] == "probe"
    monkeypatch.delenv("FACETFORGE_SEED")
    assert main(["verify", path, "--probe", "--samples", "300", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first


def test_verify_falls_back_to_probe(tmp_path, capsys):
    # two concentric balls: feasible but not exactly recognizable
    inner = build_ball(2)
    outer = ConvexQuadratic(A=((1, 0), (0, 1)), a=(0, 0), alpha=-4)
    path = write_system(
        tmp_path / "two.json", QuadraticSystem(dim=2, constraints=(inner, outer))
    )
    assert main(["verify", path, "--samples", "300", "--expect", "0,2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["method"] == "probe"
    assert any("exact path declined" in w for w in report["warnings"])


def test_lowerbound_output(capsys):
    assert main(["lowerbound", "--signature", "0,1,2,3,4,5,6,7"]) == 0
    out = capsys.readouterr().out
    first, rest = out.split("\n", 1)
    assert first == "3"
    cert = json.loads(rest)
    assert cert == {"n": 7, "ds": [6, 5, 3], "k": 3}


def test_decompose_output(capsys):
    assert main(["decompose", "--signature", "0,1,2,3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["cost"] == 2
    assert data["leaf_count"] == 2
    assert data["tree"] == {"sum": [{"leaf": [0, 1]}, {"leaf": [0, 2]}]}


def test_decompose_cap_and_budget(capsys):
    assert main(["decompose", "--signature", "0,33"]) == 2
    capsys.readouterr()
    assert main(["decompose", "--signature", "0,33", "--budget", "33"]) == 0


def test_export_socp_stdout(tmp_path, capsys):
    path = ball_file(tmp_path, n=2)
    assert main(["export", path, "--format", "socp"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dim"] == 2
    assert len(data["cones"]) == 1


def test_export_sdpa_file(tmp_path, capsys):
    path = ball_file(tmp_path, n=2)
    out = tmp_path / "prob.dat-s"
    assert main(["export", path, "--format", "sdpa", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "2" and lines[1] == "1" and lines[2] == "3"


def test_slice_csv_and_svg(tmp_path, capsys):
    path = ball_file(tmp_path)
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {"base_point": [0, 0, 0], "u": [1, 0, 0], "v": [0, 1, 0], "resolution": 16}
        )
    )
    assert main(["slice", path, "--spec", str(spec)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "theta,s,t,x1,x2,x3"
    svg_path = tmp_path / "pic.svg"
    assert main(["slice", path, "--spec", str(spec), "--out", str(svg_path)]) == 0
    assert "<svg" in svg_path.read_text()


def test_slice_empty_exit_2(tmp_path, capsys):
    path = ball_file(tmp_path)
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps({"base_point": [0, 0, 2], "u": [1, 0, 0], "v": [0, 1, 0]})
    )
    assert main(["slice", path, "--spec", str(spec)]) == 2
    assert "error:" in capsys.readouterr().err


def test_slice_without_constraints_exit_2(tmp_path, capsys):
    path = write_system(tmp_path / "free.json", QuadraticSystem(dim=2, constraints=()))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"base_point": [0, 0], "u": [1, 0], "v": [0, 1]}))
    assert main(["slice", path, "--spec", str(spec)]) == 2
    assert "every ray stayed feasible out to the extent" in capsys.readouterr().err


def test_slice_bad_spec_exit_2(tmp_path, capsys):
    path = ball_file(tmp_path)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"base_point": [0, 0, 0], "u": [2, 0, 0], "v": [0, 1, 0]}))
    assert main(["slice", path, "--spec", str(spec)]) == 2


def slab_file(tmp_path, n):
    """5 <= x_1 <= 5.1 in R^n: two linear constraints, no matrix entry."""
    zeros = [["0"] * n for _ in range(n)]
    data = {"dim": n, "constraints": [
        {"A": zeros, "a": ["-1"] + ["0"] * (n - 1), "alpha": "10"},
        {"A": zeros, "a": ["1"] + ["0"] * (n - 1), "alpha": "-51/5"},
    ]}
    path = tmp_path / "slab.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_verify_a_slab_without_matrix_entries(tmp_path, capsys):
    # The exact path declines and no warm start is feasible, so the probe's
    # interior point comes from phase I and the barrier polish.
    assert main(["verify", slab_file(tmp_path, 1), "--expect", "0,1"]) == 0
    assert json.loads(capsys.readouterr().out)["signature"] == [0, 1]


def test_slice_a_slab_without_matrix_entries(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"base_point": [0, 0], "u": [1, 0], "v": [0, 1]}))
    assert main(["slice", slab_file(tmp_path, 2), "--spec", str(spec)]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert rows and all(4.99 < float(row.split(",")[3]) < 5.11 for row in rows)


SPEC = {"base_point": [0.0, 0.0, 0.0], "u": [1.0, 0.0, 0.0], "v": [0.0, 1.0, 0.0],
        "resolution": 48, "extent": 16.0}


@pytest.mark.parametrize(
    "field, value",
    [
        ("resolution", 8.9),
        ("resolution", "9"),
        ("resolution", True),
        ("extent", "3"),
        ("extent", True),
        ("extent", [3]),
        ("base_point", ["0", "0", "0"]),
        ("base_point", "0,0,0"),
        ("u", [1, "0", 0]),
        ("v", [0, True, 0]),
        ("v", [0, 1, None]),
    ],
)
def test_slice_spec_field_of_the_wrong_type_exit_2(tmp_path, capsys, field, value):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**SPEC, field: value}))
    assert main(["slice", ball_file(tmp_path), "--spec", str(spec)]) == 2
    assert field in capsys.readouterr().err


def test_slice_spec_of_float_lists(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC))
    assert main(["slice", ball_file(tmp_path), "--spec", str(spec)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 49


def test_experiment_primes(capsys):
    assert main(["experiment", "primes", "--k", "4"]) == 0
    out = capsys.readouterr().out
    assert "signature: {0,2,3,5,7}" in out
    assert "direct construction cost: 4 inequalities (k = 4)" in out
    assert "cheapest decomposition found: 3 inequalities" in out
    assert "certified lower bound: 3" in out
    assert "no minimality is asserted" in out
    assert "optimal" not in out.lower()


def test_experiment_rejects_bad_args(capsys):
    assert main(["experiment", "nope"]) == 2
    assert main(["experiment", "primes", "--k", "0"]) == 2


def test_experiment_primes_refuses_k_beyond_20(capsys):
    assert main(["experiment", "primes", "--k", "21"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: --k must lie in 1..20"]


def test_argparse_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("dim", ["-1", "1.5", "true"])
@pytest.mark.parametrize(
    "command", [["verify"], ["verify", "--probe"], ["export", "--format", "socp"]]
)
def test_bad_dim_exit_2(tmp_path, capsys, dim, command):
    path = tmp_path / "dim.json"
    path.write_text(f'{{"dim": {dim}, "constraints": []}}')
    assert main([command[0], str(path), *command[1:]]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    ("A", "reason"),
    [([["1", "2"], ["2", "1"]], "not positive semidefinite"),
     ([["1", "2"], ["3", "1"]], "must be symmetric")],
    ids=["indefinite", "asymmetric"],
)
@pytest.mark.parametrize(
    "command",
    [["verify"], ["verify", "--probe"], ["export", "--format", "socp"],
     ["export", "--format", "sdpa"]],
)
def test_matrix_from_a_file_is_checked_exit_2(tmp_path, capsys, A, reason, command):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"dim": 2, "constraints": [{"A": A, "a": ["0", "0"], "alpha": "-1"}]}))
    assert main([command[0], str(path), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and reason in err


def _huge_entry_file(tmp_path, A, a):
    data = {
        "dim": 2,
        "constraints": [{"A": A, "a": a, "alpha": "-1"}],
        "interior_witness": None,
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize(
    "command",
    [
        ["export", "--format", "sdpa"],
        ["verify", "--probe"],
        ["export", "--format", "socp"],
        ["slice"],
    ],
)
def test_entry_beyond_float_range_exit_2(tmp_path, capsys, command):
    path = _huge_entry_file(tmp_path, [["1e400", "0"], ["0", "1"]], ["0", "0"])
    if command == ["slice"]:
        spec = tmp_path / "spec.json"
        spec.write_text('{"base_point": ["0", "0"], "u": ["1", "0"], "v": ["0", "1"]}')
        command = ["slice", "--spec", str(spec)]
    assert main([command[0], path, *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("entry", ["1e400", "3e400"])
def test_exact_verify_of_entry_beyond_float_range(tmp_path, capsys, entry):
    # entry * x0^2 + x1^2 <= 1: the exact path needs no float of the entry
    path = _huge_entry_file(tmp_path, [[entry, "0"], ["0", "1"]], ["0", "0"])
    assert main(["verify", path, "--expect", "0,2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["method"] == "exact" and report["signature"] == [0, 2]
    values = {}
    for dim, point in report["witnesses"].items():
        x0, x1 = (Fraction(e) for e in point)
        values[int(dim)] = Fraction(entry) * x0 * x0 + x1 * x1 - 1
    # the dimension-0 witness is a boundary point, to within 2^-40
    assert values[2] < 0 and -Fraction(1, 2**40) <= values[0] <= 0


def test_exact_verify_of_huge_halfspace_still_works(tmp_path, capsys):
    path = _huge_entry_file(tmp_path, [["0", "0"], ["0", "0"]], ["1e400", "0"])
    assert main(["verify", path, "--expect", "1,2"]) == 0
    assert json.loads(capsys.readouterr().out)["signature"] == [1, 2]


def _interval_file(tmp_path, a_sq, alpha):
    # a_sq * x^2 + alpha <= 0 on the line
    data = {
        "dim": 1,
        "constraints": [{"A": [[a_sq]], "a": ["0"], "alpha": alpha}],
        "interior_witness": None,
    }
    path = tmp_path / "interval.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize(
    "a_sq, alpha", [("1", "-2e-40"), ("1", "-2e-400"), ("1", "-2e400"), ("2e-400", "-1")]
)
def test_exact_verify_of_interval_gives_a_boundary_witness(tmp_path, capsys, a_sq, alpha):
    # the float guess of the root rounds to 0 at 2^-48, underflows or
    # overflows here, and in the last case the curvature underflows too;
    # the dimension-0 witness is still a boundary point
    path = _interval_file(tmp_path, a_sq, alpha)
    assert main(["verify", path, "--expect", "0,1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["method"] == "exact" and report["signature"] == [0, 1]
    target = -Fraction(alpha) / Fraction(a_sq)
    x = Fraction(report["witnesses"]["0"][0])
    assert x != 0 and x * x < target
    assert (target - x * x) / target <= Fraction(1, 2**40)
