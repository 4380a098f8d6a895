import dataclasses
import io
import json
import math

import pytest

from tangentkit.cli import (
    EXIT_LAW_FAILURE,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    dispatch,
)
from tangentkit.dynamics import commuting_flows_check
from tangentkit.fields import (
    FLOW_TOL,
    LawCheck,
    LinearVectorField,
    VectorField,
    is_vf_morphism,
)
from tangentkit.reports import LAW_ANCHORS, emit_report, report_dict
from tangentkit.verify import run_suite


def run(argv):
    out = io.StringIO()
    code = dispatch(argv, stdout=out)
    return code, out.getvalue()


def test_solve_euler_final_state():
    code, out = run(["solve", "--dim", "1", "--vf", "x1", "--t", "1", "--x0", "1"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert abs(payload["state"][0] - math.e) <= 1e-8


def test_solve_time_dependent():
    code, out = run(
        ["solve", "--dim", "1", "--vf", "x1 + cos(t)", "--time-dependent",
         "--t", "1", "--x0", "0"]
    )
    assert code == EXIT_OK
    want = (math.e + math.sin(1.0) - math.cos(1.0)) / 2.0
    assert abs(json.loads(out)["state"][0] - want) <= 1e-6


def test_solve_blow_up_exits_3(capsys):
    code, _ = run(["solve", "--dim", "1", "--vf", "x1^2", "--t", "1", "--x0", "1"])
    assert code == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "step size collapse near t=1.000" in err


def test_usage_error_missing_flag(capsys):
    code, _ = run(["solve", "--dim", "1", "--t", "1", "--x0", "1"])
    assert code == EXIT_USAGE
    assert "--vf" in capsys.readouterr().err


def test_usage_error_bad_subcommand():
    code, _ = run(["orbit"])
    assert code == EXIT_USAGE


def test_usage_error_parse_failure(capsys):
    code, _ = run(["solve", "--dim", "1", "--vf", "x1 +", "--t", "1", "--x0", "1"])
    assert code == EXIT_USAGE
    assert "syntax error" in capsys.readouterr().err


def test_usage_error_wrong_x0_length():
    code, _ = run(["solve", "--dim", "2", "--vf", "x2; -x1", "--t", "1", "--x0", "1"])
    assert code == EXIT_USAGE


def test_flow_emits_trajectory_of_zero_field():
    code, out = run(
        ["flow", "--dim", "2", "--vf", "0; 0", "--t", "1", "--x0", "1,2", "--grid", "2"]
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "t,x1,x2"
    assert len(lines) == 4
    # a zero field stays put: identical state on every row
    states = {line.split(",", 1)[1] for line in lines[1:]}
    assert states == {"1.0,2.0"}


def test_bracket_prints_value_and_matrix():
    code, out = run(
        ["bracket", "--dim", "2", "--vf", "x2; -x1", "--vf2", "x1; x2",
         "--x0", "1,2", "--as-matrix"]
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["bracket"] == [0.0, 0.0]
    assert payload["matrix"] == [[0.0, 0.0], [0.0, 0.0]]


def test_commute_exit_codes():
    code, out = run(["commute", "--dim", "2", "--vf", "x2; -x1", "--vf2", "x1; x2"])
    assert code == EXIT_OK
    code, out = run(
        ["commute", "--dim", "2", "--vf", "x2; 0", "--vf2", "0; x1"]
    )
    assert code == EXIT_LAW_FAILURE
    payload = json.loads(out)
    assert any(not law["passed"] for law in payload["laws"])


def test_expm_subcommand():
    code, out = run(["expm", "--matrix", "0,1;0,0"])
    assert code == EXIT_OK
    got = json.loads(out)["expm"]
    assert abs(got[0][1] - 1.0) <= 1e-12
    code, out = run(["expm", "--matrix", "0,1;-1,0", "--t", str(math.pi / 2.0)])
    assert code == EXIT_OK
    got = json.loads(out)["expm"]
    assert abs(got[0][0]) <= 1e-12 and abs(got[0][1] - 1.0) <= 1e-12


def test_expm_usage_error_nonsquare():
    code, _ = run(["expm", "--matrix", "1,2,3;4,5,6"])
    assert code == EXIT_USAGE


def test_exp_subcommand():
    code, out = run(["exp", "--t", "1"])
    assert code == EXIT_OK
    assert abs(json.loads(out)["e"] - math.e) <= 1e-8
    code, out = run(["exp", "--t", "1", "--dim", "2", "--x0", "1,2"])
    assert code == EXIT_OK
    state = json.loads(out)["state"]
    assert abs(state[1] - 2.0 * math.e) <= 1e-8


def test_grid_below_one_is_a_usage_error():
    flow = ["flow", "--dim", "2", "--vf", "x2; -x1", "--t", "1", "--x0", "1,0"]
    geodesic = ["geodesic", "--dim", "1", "--christoffel=0.5*x1*x2*x2",
                "--t", "1", "--x0", "0,1", "--format", "csv"]
    for argv in (flow, geodesic):
        for grid in ("0", "-3"):
            assert run(argv + ["--grid", grid]) == (EXIT_USAGE, "")
    commute = ["commute", "--dim", "2", "--vf", "x2; -x1", "--vf2", "x1; x2"]
    for grid in ("0", "1"):
        assert run(commute + ["--grid", grid]) == (EXIT_USAGE, "")


def test_geodesic_csv_rows_follow_the_grid():
    geodesic = ["geodesic", "--dim", "1", "--christoffel=0.5*x1*x2*x2",
                "--t", "1", "--x0", "0,1", "--format", "csv"]
    code, out = run(geodesic + ["--grid", "1"])
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "t,x1,x2"
    assert [line.split(",")[0] for line in lines[1:]] == ["0.0", "1.0"]
    assert lines[1] == "0.0,0.0,1.0"
    code, out = run(geodesic)
    assert code == EXIT_OK and len(out.splitlines()) == 1 + 101


def _rotation_at(t, x0):
    c, s = math.cos(t), math.sin(t)
    return [c * x0[0] + s * x0[1], -s * x0[0] + c * x0[1]]


def _half_plane_geodesic_at(t, x0):
    # unit-speed geodesic of the half-plane through (0, 1) heading along x1
    sech, tanh = 1 / math.cosh(t), math.tanh(t)
    return [tanh, sech, sech * sech, -sech * tanh]


def _forced_growth_at(t, x0):
    # x' = x + cos(t): x = (x0 + 1/2) e^t + (sin t - cos t) / 2
    return [(x0[0] + 0.5) * math.exp(t) + (math.sin(t) - math.cos(t)) / 2]


ROTATION = ["--dim", "2", "--vf", "x2; -x1", "--t", "2", "--x0", "0.6,0.8"]


@pytest.mark.parametrize(
    "argv, closed_form",
    [
        (["flow"] + ROTATION, _rotation_at),
        (["flow"] + ROTATION + ["--rk4-h", "0.01"], _rotation_at),
        (["solve", "--dim", "1", "--vf", "x1 + cos(t)", "--time-dependent",
          "--t", "2", "--x0", "0.25", "--format", "csv"], _forced_growth_at),
        (["geodesic", "--dim", "2", "--christoffel", "-2*x3*x4/x2; (x3^2 - x4^2)/x2",
          "--t", "2", "--x0", "0,1,1,0", "--format", "csv"], _half_plane_geodesic_at),
    ],
    ids=["rk45", "rk4", "time-dependent", "geodesic"],
)
def test_trajectory_rows_follow_the_solution(argv, closed_form):
    argv = argv + ["--grid", "7"]
    code, out = run(argv)
    assert code == EXIT_OK
    assert run(argv) == (code, out)
    x0 = [float(v) for v in argv[argv.index("--x0") + 1].split(",")]
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [row[0] for row in rows] == [repr(2.0 * k / 7) for k in range(8)]
    assert [float(v) for v in rows[0][1:]] == x0
    for row in rows:
        state, want = [float(v) for v in row[1:]], closed_form(float(row[0]), x0)
        assert max(abs(a - b) for a, b in zip(state, want)) <= FLOW_TOL, row


def test_trajectory_work_is_linear_in_the_grid(monkeypatch):
    # one integration pass lands on every grid time: rows cost no re-solves
    evals = []
    from_expr = VectorField.from_expr

    def counted_field(expr, dim):
        v = from_expr(expr, dim)
        evaluator = v.vhat.evaluator

        def counted(xs):
            evals.append(1)
            return evaluator(xs)

        return dataclasses.replace(
            v, vhat=dataclasses.replace(v.vhat, evaluator=counted)
        )

    monkeypatch.setattr(VectorField, "from_expr", staticmethod(counted_field))

    def cost(argv):
        evals.clear()
        assert run(argv)[0] == EXIT_OK
        return len(evals)

    rotation = ["--dim", "2", "--vf", "x2; -x1", "--t", "20", "--x0", "0.6,0.8"]
    single = cost(["solve"] + rotation)
    assert cost(["flow"] + rotation + ["--grid", "100"]) <= 1.25 * single
    assert cost(["flow"] + rotation + ["--grid", "400"]) <= 2 * single


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--dim", "1", "--vf", "x1", "--t", "inf", "--x0", "1"],
        ["flow", "--dim", "1", "--vf", "x1", "--t", "nan", "--x0", "1"],
        ["geodesic", "--dim", "1", "--christoffel=0.5*x1*x2*x2", "--t", "inf",
         "--x0", "0,1"],
        ["exp", "--t", "nan"],
        ["expm", "--matrix", "0,1;-1,0", "--t", "inf"],
        ["expm", "--matrix", "nan,0;0,0"],
        ["solve", "--dim", "1", "--vf", "x1", "--t", "1", "--x0", "nan"],
    ],
    ids=["solve-t", "flow-t", "geodesic-t", "exp-t", "expm-t", "expm-matrix", "x0"],
)
def test_non_finite_numbers_are_usage_errors(argv, capsys):
    assert run(argv) == (EXIT_USAGE, "")
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("h", ["-0.5", "0", "nan", "inf"])
def test_rk4_h_must_be_finite_and_positive(h, capsys):
    argv = ["solve", "--dim", "1", "--vf", "x1", "--t", "1", "--x0", "1"]
    assert run(argv + [f"--rk4-h={h}"]) == (EXIT_USAGE, "")
    assert "--rk4-h must be finite and positive" in capsys.readouterr().err


def test_rk4_step_budget_is_a_numeric_failure(capsys):
    argv = ["solve", "--dim", "1", "--vf", "x1", "--t", "1e10", "--x0", "1",
            "--rk4-h", "1e-300"]
    assert run(argv) == (EXIT_NUMERIC, "")
    assert "exceeded 1000000 steps" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "kernel"],
        ["commute", "--dim", "2", "--vf", "x2; -x1", "--vf2", "x1; x2"],
    ],
    ids=["verify", "commute"],
)
def test_tol_must_be_finite_and_non_negative(argv, tol, capsys):
    assert run(argv + [f"--tol={tol}"]) == (EXIT_USAGE, "")
    assert "--tol must be finite and non-negative" in capsys.readouterr().err


def test_geodesic_subcommand():
    code, out = run(
        ["geodesic", "--dim", "2",
         "--christoffel", "-2*x3*x4/x2; (x3^2 - x4^2)/x2",
         "--t", "1", "--x0", "0,1,1,0"]
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    x, y = payload["state"][0], payload["state"][1]
    assert abs(x * x + y * y - 1.0) <= 1e-5
    assert payload["acceleration_residual"] <= 1e-6


def test_verify_curve_suite_passes():
    code, out = run(["verify", "--suite", "curve"])
    assert code == EXIT_OK
    payload = json.loads(out)
    ids = {law["law_id"] for law in payload["laws"]}
    assert "sigma-commutative" in ids
    anchor = next(
        law["paper_anchor"]
        for law in payload["laws"]
        if law["law_id"] == "sigma-commutative"
    )
    assert anchor == "σ is a commutative operation"


def test_verify_reports_are_byte_identical():
    _, a = run(["verify", "--suite", "curve", "--seed", "7"])
    _, b = run(["verify", "--suite", "curve", "--seed", "7"])
    assert a == b


def test_verify_out_file(tmp_path):
    path = tmp_path / "report.json"
    code, out = run(["verify", "--suite", "kernel", "--out", str(path)])
    assert code == EXIT_OK
    assert out == ""
    payload = json.loads(path.read_text())
    assert payload["config"]["suite"] == "kernel"
    assert all(law["passed"] for law in payload["laws"])


def test_verify_tol_leaves_detector_verdicts_as_they_are():
    # detector rows judge classifications, so --tol cannot re-judge them;
    # every other row becomes max_residual <= tol
    detectors = {
        "linear-commutation",
        "self-commutation",
        "f-relatedness-bracket",
        "pair-commuting-predicate",
        "flow-interchange",
        "flow-morphism-equivalence",
        "linearity-equivalence",
    }
    argv = ["verify", "--suite", "all", "--quick"]
    _, plain = run(argv)
    code, judged = run(argv + ["--tol", "1e-300"])
    before = json.loads(plain)["laws"]
    after = json.loads(judged)["laws"]
    assert [law["law_id"] for law in after] == [law["law_id"] for law in before]
    assert detectors <= {law["law_id"] for law in after}
    for was, now in zip(before, after):
        if now["law_id"] in detectors:
            assert now["passed"] == was["passed"], now["law_id"]
        else:
            assert now["passed"] == (now["max_residual"] <= 1e-300), now["law_id"]
    assert code == EXIT_LAW_FAILURE


def test_config_file_supplies_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dim=1\nvf=x1\nt=1\nx0=1\n# comment\n")
    code, out = run(["solve", "--config", str(cfg)])
    assert code == EXIT_OK
    assert abs(json.loads(out)["state"][0] - math.e) <= 1e-8


def test_config_file_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dim=1\nvf=x1\nt=1\nx0=1\n")
    code, out = run(["solve", "--config", str(cfg), "--t", "0"])
    assert code == EXIT_OK
    assert json.loads(out)["state"] == [1.0]


@pytest.mark.parametrize("line", ["t=soon", "dim=two", "t=inf", "tol=nan", "dim=true"])
def test_config_file_bad_number_is_a_usage_error(tmp_path, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"dim=1\nvf=x1\nt=1\nx0=1\n{line}\n")
    assert run(["solve", "--config", str(cfg)]) == (EXIT_USAGE, "")


@pytest.mark.parametrize("line", ["suite=bogus", "format=xml", "quick=yes"])
def test_config_values_meet_the_flags_choices(tmp_path, line):
    # each line is parsed as its flag: a choice outside the flag's choices,
    # or a switch set to anything but true/false, is a usage error
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"suite=kernel\n{line}\n")
    assert run(["verify", "--config", str(cfg)]) == (EXIT_USAGE, "")


def test_config_file_matches_the_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("suite=kernel\nseed=7\nquick=true\n")
    flags = run(["verify", "--suite", "kernel", "--seed", "7", "--quick"])
    assert run(["verify", "--config", str(cfg)]) == flags


def test_flow_with_json_format_in_config_prints_what_solve_prints(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dim=2\nvf=x2; -x1\nt=1\nx0=0.6,0.8\nformat=json\n")
    code, out = run(["flow", "--config", str(cfg)])
    assert code == EXIT_OK
    assert (code, out) == run(["solve", "--config", str(cfg)])
    assert list(json.loads(out)) == ["t", "state"]


def test_out_into_a_missing_directory_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "missing" / "report.json"
    assert run(["verify", "--suite", "kernel", "--out", str(path)]) == (EXIT_USAGE, "")
    assert "--out" in capsys.readouterr().err


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("orbit=3\n")
    code, _ = run(["solve", "--config", str(cfg)])
    assert code == EXIT_USAGE


def test_rk4_flag():
    code, out = run(
        ["solve", "--dim", "1", "--vf", "x1", "--t", "1", "--x0", "1",
         "--rk4-h", "0.001"]
    )
    assert code == EXIT_OK
    assert abs(json.loads(out)["state"][0] - math.e) <= 1e-9


# -- report schema -------------------------------------------------------------------


def test_emit_report_empty_laws_is_valid_json():
    payload = json.loads(emit_report([], seed=1, config={}))
    assert payload["laws"] == []
    assert payload["version"] == "1"


def test_report_field_order_is_stable():
    law = LawCheck("sigma-commutative", True, 0.0, (1.0, 2.0), 1)
    d = report_dict([law], seed=1, config={"suite": "curve"})
    assert list(d) == ["version", "seed", "config", "laws"]
    assert list(d["laws"][0]) == [
        "law_id",
        "paper_anchor",
        "passed",
        "max_residual",
        "witness",
    ]


def test_every_emitted_law_id_is_in_the_anchor_table():
    # the law_id -> anchor mapping is a checked resource
    assert len(set(LAW_ANCHORS)) == len(LAW_ANCHORS)
    for name in ("kernel", "vf", "curve", "flows", "rig", "action"):
        for check in run_suite(name, quick=True):
            assert check.law in LAW_ANCHORS, check.law


def test_every_anchor_is_emitted():
    # the reverse direction: the table holds no law that nothing produces
    emitted = {c.law for c in run_suite("all", quick=True)}
    rot = LinearVectorField([[0.0, 1.0], [-1.0, 0.0]])
    eul = LinearVectorField([[1.0, 0.0], [0.0, 1.0]])
    emitted |= {c.law for c in commuting_flows_check(rot, eul)}
    emitted.add(is_vf_morphism(rot.vhat, rot, rot).law)
    assert set(LAW_ANCHORS) - emitted == set()


def test_nan_residual_fails_and_serializes_as_nan():
    law = LawCheck("commutes", False, math.nan, (1.0, 2.0), 1)
    text = emit_report([law], seed=1, config={}).decode()
    assert '"max_residual": NaN' in text
    assert '"passed": false' in text
