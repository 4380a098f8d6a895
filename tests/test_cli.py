import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from tangentkit import cli
from tangentkit.cli import (
    EXIT_LAW_FAILURE,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    dispatch,
)
from tangentkit import dynamics, kernel
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
    assert "integration failed: state norm above 1e+12 near t=1.000" in err


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


@pytest.mark.parametrize(
    "argv, exit_code, sha",
    [
        (["verify", "--suite", "all", "--quick", "--seed", "1729"], EXIT_OK,
         "b4b9ffe997cbd9eaf4b035cd69dbdda35bfe487fff07487e43d609bd1b3976aa"),
        (["verify", "--suite", "all", "--quick", "--seed", "7"], EXIT_OK,
         "e522bba7a3f3bc6dd6eb1bcac18894ce1540622e3351aa6f29a4356166ce369c"),
        (["commute", "--dim", "2", "--vf", "x2; -x1", "--vf2", "x1; x2"], EXIT_OK,
         "465e3315e74fde5b98ed2b6772dd32a49339ae093dde4fcdc3ff679d83ed4c9f"),
        # fixed-step RK4 misses the finite-time blow-up law
        (["verify", "--suite", "all", "--quick", "--seed", "1729", "--rk4-h", "0.01"],
         EXIT_LAW_FAILURE,
         "2ff93a8376e646518f5ff044ddc822e24f74c10219bed0d66be4cf79f3faae3b"),
    ],
    ids=["verify-quick-1729", "verify-quick-7", "commute", "verify-quick-1729-rk4"],
)
def test_report_bytes_are_pinned(argv, exit_code, sha):
    # sha256 of the report as Python 3.11.7 computes it: a change that is
    # meant to keep behaviour must keep every byte
    code, out = run(argv)
    assert code == exit_code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha


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


_ROTATION_SOLVE = ["solve", "--dim", "2", "--vf", "x2; -x1", "--t", "1"]
_SIN_OF_INF = "sin(x1*1e308*10)"


@pytest.mark.parametrize(
    "argv, message",
    [
        (_ROTATION_SOLVE + ["--x0", "1,,0"], "--x0 entry 2 is empty"),
        (_ROTATION_SOLVE + ["--x0", ",1,0,"], "--x0 entry 1 is empty"),
        (["expm", "--matrix", "1,2;;3,4"], "--matrix row 2 entry 1 is empty"),
    ],
    ids=["x0-inner", "x0-ends", "matrix-row"],
)
def test_an_empty_entry_is_a_usage_error_naming_its_position(argv, message, capsys):
    assert run(argv) == (EXIT_USAGE, "")
    assert f"usage error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, exit_code, message",
    [
        (["solve", "--dim", "1", "--vf", "1/x1", "--t", "1", "--x0", "0"], EXIT_NUMERIC,
         "evaluation failed: division undefined at coordinate 0.0\n"),
        (["bracket", "--dim", "2", "--vf", "x2*x2; sin(x1)", "--vf2", "x2; x1", "--as-matrix"],
         EXIT_NUMERIC, "evaluation failed: component map is not linear: residual 7.256e+00 "),
        (["bracket", "--dim", "2", "--vf", "x2; x1", "--vf2", "x2; x1"], EXIT_USAGE,
         "usage error: --x0 (or --as-matrix) is required\n"),
        (["verify", "--config", "{tmp}/missing.cfg"], EXIT_USAGE,
         "usage error: --config: cannot read "),
        (["verify", "--config", "{tmp}/bad.cfg"], EXIT_USAGE,
         "usage error: --config: line 1 is not key=value\n"),
        (["verify", "--config", "{tmp}/latin1.cfg"], EXIT_USAGE,
         "usage error: --config: cannot read "),
        # exp overflows; only the exit code is pinned, not the message
        (["solve", "--dim", "1", "--vf", "exp(x1)", "--t", "1", "--x0", "800"], EXIT_NUMERIC, ""),
        # sin of inf; x1^2 underflows to 0.0, so x1^-2 divides by zero; t * A is inf
        (["solve", "--dim", "1", "--vf", _SIN_OF_INF, "--t", "1", "--x0", "1"], EXIT_NUMERIC,
         "evaluation failed: math domain error\n"),
        (["flow", "--dim", "1", "--vf", _SIN_OF_INF, "--t", "1", "--x0", "1"], EXIT_NUMERIC,
         "evaluation failed: math domain error\n"),
        (["bracket", "--dim", "1", "--vf", _SIN_OF_INF, "--vf2", "x1", "--x0", "1"],
         EXIT_NUMERIC, "evaluation failed: math domain error\n"),
        (["commute", "--dim", "1", "--vf", _SIN_OF_INF, "--vf2", "x1"], EXIT_NUMERIC,
         "evaluation failed: math domain error\n"),
        (["geodesic", "--dim", "1", "--christoffel", _SIN_OF_INF, "--t", "1", "--x0", "0,1"],
         EXIT_NUMERIC, "evaluation failed: math domain error\n"),
        (["solve", "--dim", "1", "--vf", "x1^-2", "--t", "1", "--x0", "1e-200"], EXIT_NUMERIC,
         "evaluation failed: float division by zero\n"),
        (["expm", "--matrix", "1e308,0;0,0", "--t", "10"], EXIT_NUMERIC,
         "evaluation failed: expm requires finite entries\n"),
    ],
    ids=["division", "nonlinear-matrix", "no-x0", "missing-config", "config-line",
         "config-not-utf8", "overflow", "solve-domain", "flow-domain", "bracket-domain",
         "commute-domain", "geodesic-domain", "float-division", "expm-inf"],
)
def test_dispatch_failures_exit_with_their_code_and_message(
    argv, exit_code, message, tmp_path, capsys
):
    (tmp_path / "bad.cfg").write_text("suite kernel\n")
    (tmp_path / "latin1.cfg").write_bytes("suite=kernel # é\n".encode("latin-1"))
    assert run([a.replace("{tmp}", str(tmp_path)) for a in argv]) == (exit_code, "")
    assert capsys.readouterr().err.startswith(message)


def test_an_overflowing_expm_time_fails_without_a_warning(capsys):
    # t * A overflowed outside np.errstate: a RuntimeWarning on stderr, and
    # under -W error an uncaught exception with exit 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["expm", "--matrix", "1e308,0;0,0", "--t", "10"]) == (EXIT_NUMERIC, "")
    assert capsys.readouterr().err == "evaluation failed: expm requires finite entries\n"


def test_an_empty_x0_is_the_zero_dimensional_state():
    code, out = run(["exp", "--t", "1", "--dim", "0", "--x0", ""])
    assert code == EXIT_OK and json.loads(out)["state"] == []


def test_exp_subcommand():
    code, out = run(["exp", "--t", "1"])
    assert code == EXIT_OK
    assert abs(json.loads(out)["e"] - math.e) <= 1e-8
    code, out = run(["exp", "--t", "1", "--dim", "2", "--x0", "1,2"])
    assert code == EXIT_OK
    state = json.loads(out)["state"]
    assert abs(state[1] - 2.0 * math.e) <= 1e-8
    # the mode follows whether --dim is given, so --dim 0 reads --x0 too
    assert run(["exp", "--t", "1", "--dim", "0", "--x0", "5,6,7"])[0] == EXIT_USAGE


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


def test_negative_dim_is_a_usage_error(capsys):
    argv = ["exp", "--dim", "-1", "--t", "1", "--x0", ""]
    assert run(argv) == (EXIT_USAGE, "")
    assert "--dim must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--vf", "x1", "--t", "1", "--x0", "1"],
        ["flow", "--vf", "x1", "--t", "1", "--x0", "1"],
        ["bracket", "--vf", "x1", "--vf2", "x1", "--x0", "1"],
        ["commute", "--vf", "x1", "--vf2", "x1"],
        ["geodesic", "--christoffel", "0", "--t", "1", "--x0", "0,1"],
    ],
    ids=lambda argv: argv[0],
)
def test_dim_zero_is_a_usage_error_outside_exp(argv, tmp_path, capsys):
    assert run(argv + ["--dim", "0"]) == (EXIT_USAGE, "")
    assert "--dim must be at least 1" in capsys.readouterr().err
    # the rule is the flag's type, so a config line obeys it too
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dim=0\n")
    assert run(argv + ["--config", str(cfg)]) == (EXIT_USAGE, "")
    assert "--dim must be at least 1" in capsys.readouterr().err


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


@pytest.mark.parametrize("seed", ["1729", "7"])
def test_verify_bytes_do_not_depend_on_flat_kernels(seed, monkeypatch):
    # dsl fields, block maps (the scaling field behind e, multiply and the
    # action among them) and linear fields run their flat kernels in solves,
    # and float calls of tangents and composites of those run their own
    # kernels; with both lookups switched off the same solves run the jet
    # codec and the same calls evaluate their parts, bit for bit
    argv = ["verify", "--suite", "all", "--quick", "--seed", seed]
    found = {dynamics: set(), kernel: set()}

    def recorded(module):
        lookup = module._flat_kernel

        def spy(vhat, depth):
            flat = lookup(vhat, depth)
            if flat is not None:
                found[module].add(vhat.name)
            return flat

        return spy

    for module in found:
        monkeypatch.setattr(module, "_flat_kernel", recorded(module))
    _, with_kernels = run(argv)
    assert {"field", "scaling", "linear"} <= found[dynamics]
    # the Lie bracket's component map is one kernel, with the tangents of
    # its fields' full maps inside it
    assert {"{bracket_diff};hat_p", "<id_2,linear>;T(<id_2,linear>)"} <= found[kernel]
    for module in found:
        monkeypatch.setattr(module, "_flat_kernel", lambda vhat, depth: None)
    _, without = run(argv)
    assert without == with_kernels


@pytest.mark.parametrize("seed", ["1729", "7"])
def test_verify_bytes_do_not_depend_on_the_generated_rk45_loop(seed, monkeypatch):
    # solves of up to _GENERATED_MAX_N flat entries step in the loop unrolled
    # for their shape, with a dsl field's kernel written into its stages;
    # with the kernel left out the stages call it, and with the unrolled
    # form switched off they step in the list form
    argv = ["verify", "--suite", "all", "--quick", "--seed", seed]
    writer, codes = dynamics._dp_loop, []
    monkeypatch.setattr(
        dynamics, "_dp_loop",
        lambda n, primals, code=None: codes.append(code) or writer(n, primals, code),
    )
    _, generated = run(argv)
    assert any(code is None for code in codes)
    assert any(code is not None for code in codes)
    monkeypatch.setattr(dynamics, "_dp_loop", lambda n, primals, code=None: writer(n, primals))
    _, called = run(argv)
    assert called == generated
    monkeypatch.setattr(dynamics, "_GENERATED_MAX_N", -1)
    _, list_form = run(argv)
    assert list_form == generated


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


# a config that runs each command, to which a test adds one line read by
# that command
_CONFIG = {"solve": "dim=1\nvf=x1\nt=1\nx0=1\n", "verify": "suite=kernel\n"}
_BAD_NUMBERS = [("solve", "t=soon"), ("solve", "dim=two"), ("solve", "t=inf"),
                ("verify", "tol=nan"), ("solve", "dim=true")]
_BAD_CHOICES = [("verify", "suite=bogus"), ("solve", "format=xml"),
                ("verify", "quick=yes"), ("solve", "format=false")]


@pytest.mark.parametrize(
    "command, line", _BAD_NUMBERS, ids=[line for _, line in _BAD_NUMBERS]
)
def test_config_file_bad_number_is_a_usage_error(tmp_path, command, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{_CONFIG[command]}{line}\n")
    assert run([command, "--config", str(cfg)]) == (EXIT_USAGE, "")


@pytest.mark.parametrize(
    "command, line", _BAD_CHOICES, ids=[line for _, line in _BAD_CHOICES]
)
def test_config_values_meet_the_flags_choices(tmp_path, command, line):
    # each line is parsed as its flag: a choice outside the flag's choices,
    # or a switch set to anything but true/false, is a usage error
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{_CONFIG[command]}{line}\n")
    assert run([command, "--config", str(cfg)]) == (EXIT_USAGE, "")


def test_config_file_matches_the_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("suite=kernel\nseed=7\nquick=true\n")
    flags = run(["verify", "--suite", "kernel", "--seed", "7", "--quick"])
    assert run(["verify", "--config", str(cfg)]) == flags


def test_config_switch_set_to_false_is_left_off(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("suite=kernel\nquick=false\n")
    assert run(["verify", "--config", str(cfg)]) == run(["verify", "--suite", "kernel"])


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


def test_geodesic_christoffel_with_too_many_components_is_a_usage_error():
    argv = ["geodesic", "--dim", "2", "--christoffel", "x1; x2; x3",
            "--t", "1", "--x0", "0,0,1,0"]
    assert run(argv) == (EXIT_USAGE, "")


@pytest.mark.parametrize(
    "vf", ["(" * 250 + "x1" + ")" * 250, "-" * 1200 + "x1"],
    ids=["parentheses", "unary-minus"],
)
def test_deeply_nested_field_is_a_usage_error(vf):
    argv = ["solve", "--dim", "1", f"--vf={vf}", "--t", "1", "--x0", "1"]
    assert run(argv) == (EXIT_USAGE, "")


# The flags each command reads, besides --out and --config.
_COMMAND_FLAGS = {
    "solve": "dim vf time-dependent t x0 grid format rk4-h",
    "flow": "dim vf time-dependent t x0 grid format rk4-h",
    "bracket": "dim vf vf2 x0 as-matrix",
    "commute": "dim vf vf2 grid tol seed rk4-h",
    "expm": "matrix t",
    "geodesic": "dim christoffel t x0 grid format rk4-h",
    "exp": "dim x0 t rk4-h",
    "verify": "suite quick seed tol rk4-h",
}


def test_each_command_takes_only_the_flags_it_reads():
    _, commands = cli._parser()
    assert set(commands) == set(_COMMAND_FLAGS)
    total = 0
    for name, parser in commands.items():
        taken = {
            option
            for action in parser._actions
            for option in action.option_strings
            if option not in ("-h", "--help")
        }
        want = {f"--{flag}" for flag in _COMMAND_FLAGS[name].split() + ["out", "config"]}
        assert taken == want, name
        total += len(taken)
    assert total == 62


@pytest.mark.parametrize(
    "argv",
    [
        ["bracket", "--dim", "2", "--vf", "x2; -x1", "--vf2", "x1; x2", "--x0", "1,2",
         "--format", "csv"],
        ["expm", "--matrix", "0,1;-1,0", "--rk4-h", "0"],
        ["exp", "--t", "1", "--grid", "0"],
        ["verify", "--suite", "curve", "--x0", "1,2", "--time-dependent"],
        # --t is no prefix of --tol: neither command reads a time
        ["verify", "--suite", "kernel", "--t", "0"],
        ["commute", "--dim", "2", "--vf", "x2; -x1", "--vf2", "x1; x2", "--t", "1"],
        ["solve", "--dim", "1", "--vf", "x1", "--time", "--t", "1", "--x0", "1"],
    ],
    ids=["bracket-format", "expm-rk4-h", "exp-grid", "verify-x0", "verify-t",
         "commute-t", "solve-abbreviation"],
)
def test_a_flag_the_command_does_not_read_is_a_usage_error(argv, capsys):
    assert run(argv) == (EXIT_USAGE, "")
    assert "unrecognized arguments" in capsys.readouterr().err


def test_a_config_key_the_command_does_not_read_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("suite=kernel\nt=1\n")
    assert run(["verify", "--config", str(cfg)]) == (EXIT_USAGE, "")
    assert "unrecognized arguments" in capsys.readouterr().err


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


_SRC = str(Path(cli.__file__).resolve().parent.parent)


def _dispatch_in_a_new_process(argv):
    """Exit code, stdout, whether numpy was imported and the loaded
    ``tangentkit.*`` modules (their names after the dot), for
    ``dispatch(argv)`` in a fresh interpreter (``argv`` None: only
    ``import tangentkit``)."""
    script = (
        "import io, json, sys\n"
        "import tangentkit, tangentkit.cli\n"
        "argv, out, code = json.loads(sys.argv[1]), io.StringIO(), None\n"
        "if argv is not None:\n"
        "    code = tangentkit.cli.dispatch(argv, stdout=out)\n"
        "modules = sorted(m[11:] for m in sys.modules if m.startswith('tangentkit.'))\n"
        "print(json.dumps([code, out.getvalue(), 'numpy' in sys.modules, modules]))\n"
    )
    env = dict(os.environ, PYTHONPATH=_SRC)
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argv)],
        env=env, capture_output=True, text=True, check=True,
    )
    code, out, numpy_loaded, modules = json.loads(done.stdout)
    return code, out, numpy_loaded, set(modules)


# The modules that only some commands run.
_ON_DEMAND = {"reports", "rig", "verify"}


@pytest.mark.parametrize(
    "argv, loaded, payload",
    [
        (None, set(), None),
        (["flow", "--dim", "2", "--vf", "x2; -x1", "--t", "1", "--x0", "1,0", "--grid", "4"],
         set(), None),
        (["geodesic", "--dim", "1", "--christoffel=0.5*x1*x2*x2", "--t", "1", "--x0", "0,1"],
         set(), None),
        (["solve", "--dim", "1", "--vf", "x1", "--t", "1", "--x0", "1"], set(), None),
        (["solve", "--dim", "1", "--vf", "x1 + cos(t)", "--time-dependent", "--t", "1",
          "--x0", "0"], set(), None),
        (["commute", "--dim", "2", "--vf", "x2; -x1", "--vf2", "x1; x2", "--grid", "3"],
         {"reports"}, None),
        (["exp", "--t", "1"], {"rig"}, None),
        (["verify", "--suite", "kernel", "--quick"], {"reports", "rig", "verify"}, None),
        (["bracket", "--dim", "2", "--vf", "x2; -x1", "--vf2", "x1; -x2", "--x0", "1,2"],
         set(), None),
        (["bracket", "--dim", "2", "--vf", "x2; -x1", "--vf2", "x1; -x2", "--x0", "1,2",
          "--as-matrix"], set(),
         {"x0": [1.0, 2.0], "bracket": [4.0, 2.0], "matrix": [[0.0, 2.0], [2.0, 0.0]]}),
    ],
    ids=["import", "flow", "geodesic", "solve", "solve_td", "commute", "exp",
         "verify-kernel", "bracket", "bracket-as-matrix"],
)
def test_commands_without_matrices_do_not_import_numpy(argv, loaded, payload):
    # nor the modules they never run
    code, out, numpy_loaded, modules = _dispatch_in_a_new_process(argv)
    assert code in (None, EXIT_OK) and (argv is None or out)
    assert not numpy_loaded
    assert modules & _ON_DEMAND == loaded
    if payload is not None:
        assert out == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["expm", "--matrix", "0,1;-1,0", "--t", "0.5"],
         {"expm": [[0.8775825618903726, 0.47942553860420306],
                   [-0.47942553860420306, 0.8775825618903728]]}),
    ],
    ids=["expm"],
)
def test_matrix_commands_import_numpy_and_keep_their_bytes(argv, payload):
    code, out, numpy_loaded, _ = _dispatch_in_a_new_process(argv)
    assert code == EXIT_OK and numpy_loaded
    assert out == json.dumps(payload, indent=2) + "\n"
