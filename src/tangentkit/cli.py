"""Command-line front end.

Subcommands: solve, flow (``solve`` with CSV output by default), bracket,
commute, expm, geodesic, exp, verify.  Exit codes: 0 success / all laws
pass, 1 a law failed (and nothing else), 2 usage error, 3 evaluation or
integration error.  Outputs are deterministic for a fixed seed: identical
argv produce byte-identical bytes.

A config file of ``key=value`` lines (keys are the long flag names without
the leading dashes, ``#`` starts a comment) can stand in for flags via
``--config``.  Each line is parsed exactly like the flag ``--key=value``,
with the same types and choices; a switch takes ``true`` (on) or ``false``
(off).  Flags on the command line still win.  An unreadable ``--config``
and an unwritable ``--out`` are usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import dsl
from .dynamics import (
    DEFAULT_CONFIG,
    Connection,
    DynamicalSystem,
    IntegratorConfig,
    MaxStepsExceeded,
    StepSizeCollapse,
    _geodesic_field,
    _trajectory,
    acceleration_residual,
    augment_time,
    commuting_flows_check,
    expm,
    geodesic_flow,
    integrate,
)
from .fields import LinearityError, VectorField, lie_bracket, matrix_of
from .jets import EvaluationDomainError, primal_value
from .kernel import ShapeError, Space, TrivialBundle, VerticalityViolation
from .reports import emit_report
from .rig import e_map, exp_flow
from .sampling import DEFAULT_SEED
from .verify import _DETECTOR_ROWS, run_suite

__all__ = ["main", "dispatch"]

EXIT_OK = 0
EXIT_LAW_FAILURE = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class UsageError(ValueError):
    pass


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="tangentkit",
        description="define vector fields, solve them, and verify the laws they satisfy",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def shared(p, vf2=False):
        p.add_argument("--dim", type=int, help="state dimension n")
        p.add_argument("--vf", help="field components, e.g. 'x2; -x1'")
        if vf2:
            p.add_argument("--vf2", help="second field components")
        p.add_argument("--time-dependent", action="store_true",
                       help="allow t in --vf (solved on the clock-augmented state)")
        p.add_argument("--t", type=float, help="target time")
        p.add_argument("--x0", help="comma-separated initial state")
        p.add_argument("--grid", type=int, default=None,
                       help="trajectory rows / time-grid points per axis")
        p.add_argument("--tol", type=float, default=None, help="law tolerance")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--config", help="key=value file supplying defaults for flags")
        p.add_argument("--rk4-h", type=float, default=None,
                       help="use fixed-step RK4 with this step instead of RK45")

    p = sub.add_parser("solve", help="integrate a field and print the final state")
    shared(p)
    p = sub.add_parser("flow", help="integrate a field and emit the trajectory")
    shared(p)
    p.set_defaults(format="csv")
    p = sub.add_parser("bracket", help="evaluate the bracket of two fields at x0")
    shared(p, vf2=True)
    p.add_argument("--as-matrix", action="store_true",
                   help="print the bracket's matrix when it is linear")
    p = sub.add_parser("commute", help="check the commuting-flows laws for two fields")
    shared(p, vf2=True)
    p = sub.add_parser("expm", help="print the matrix exponential of --matrix")
    shared(p)
    p.add_argument("--matrix", help="rows separated by ';', entries by ','")
    p = sub.add_parser("geodesic", help="integrate a geodesic from (x, u)")
    shared(p)
    p.add_argument("--christoffel",
                   help="correction components over x1..xn (position) and "
                        "x{n+1}..x{2n} (velocity)")
    p = sub.add_parser("exp", help="evaluate e(t), or the scaling flow with --dim/--x0")
    shared(p)
    p = sub.add_parser("verify", help="run a law suite and emit its JSON report")
    shared(p)
    p.add_argument("--suite",
                   choices=("kernel", "vf", "curve", "flows", "rig", "action", "all"),
                   default="all")
    p.add_argument("--quick", action="store_true",
                   help="smaller sample counts for the flows and action suites "
                        "(same laws, same seeding; kernel, vf, curve and rig "
                        "ignore it)")
    return top


def _config_flags(path: str) -> list[str]:
    """The ``key=value`` lines of a config file as ``--key=value`` flags;
    ``key=true`` becomes the bare ``--key`` and ``key=false`` no flag."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise UsageError(f"--config: cannot read {path}: {e}") from e
    flags = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"--config: line {lineno} is not key=value")
        key, value = line.split("=", 1)
        flag = "--" + key.strip().replace("_", "-")
        value = value.strip()
        if value == "true":
            flags.append(flag)
        elif value != "false":
            flags.append(f"{flag}={value}")
    return flags


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise UsageError(f"--{name.replace('_', '-')} is required")


def _parse_x0(text: str, expected: int | None = None) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as e:
        raise UsageError(f"--x0: {e}") from e
    if not all(math.isfinite(v) for v in values):
        raise UsageError("--x0 entries must be finite")
    if expected is not None and len(values) != expected:
        raise UsageError(f"--x0 expected {expected} values, got {len(values)}")
    return values


def _parse_matrix(text: str) -> np.ndarray:
    try:
        rows = [
            [float(v) for v in row.split(",")]
            for row in text.split(";")
            if row.strip() != ""
        ]
    except ValueError as e:
        raise UsageError(f"--matrix: {e}") from e
    if not rows or any(len(r) != len(rows) for r in rows):
        raise UsageError("--matrix must be square")
    if not all(math.isfinite(v) for row in rows for v in row):
        raise UsageError("--matrix entries must be finite")
    return np.array(rows)


def _field(args) -> VectorField:
    _require(args, "dim", "vf")
    return VectorField.from_expr(args.vf, args.dim)


def _integrator(args) -> IntegratorConfig:
    if args.rk4_h is None:
        return DEFAULT_CONFIG
    if not (args.rk4_h > 0.0 and math.isfinite(args.rk4_h)):
        raise UsageError("--rk4-h must be finite and positive")
    return IntegratorConfig(method="rk4", h=args.rk4_h)


def _system(args) -> DynamicalSystem:
    _require(args, "dim", "vf")
    if args.time_dependent:
        return augment_time(dsl.parse(args.vf, args.dim, time_dependent=True))
    return DynamicalSystem(Space(args.dim), _field(args))


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2) + "\n").encode("utf-8")


def _grid(args, least: int, default=None):
    """``--grid`` (``default`` when absent); a usage error below ``least``."""
    if args.grid is None:
        return default
    if args.grid < least:
        raise UsageError(f"--grid must be at least {least}")
    return args.grid


def _trajectory_csv(t, states) -> bytes:
    """Rows ``t_k, states[k]`` at the times ``t_k = t * k / steps``, where
    ``steps + 1`` states are given."""
    steps = len(states) - 1
    lines = ["t," + ",".join(f"x{i + 1}" for i in range(len(states[0])))]
    for k, state in enumerate(states):
        lines.append(repr(t * k / steps) + "," + ",".join(repr(v) for v in state))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _cmd_solve(args) -> tuple[bytes, int]:
    _require(args, "t", "x0")
    system = _system(args)
    cfg = _integrator(args)
    x0 = _parse_x0(args.x0, args.dim)
    if args.format == "csv":
        y0 = x0 if system.initial_map is None else system.initial_map(x0)
        states = _trajectory(
            system.vector_field.vhat, args.t, y0, _grid(args, 1, default=100), cfg
        )
        return _trajectory_csv(args.t, [y[: args.dim] for y in states]), EXIT_OK
    state = integrate(system, args.t, x0, cfg)[: args.dim]
    return _json_bytes({"t": args.t, "state": state}), EXIT_OK


def _cmd_bracket(args) -> tuple[bytes, int]:
    _require(args, "dim", "vf", "vf2")
    v1 = VectorField.from_expr(args.vf, args.dim)
    v2 = VectorField.from_expr(args.vf2, args.dim)
    bracket = lie_bracket(v1, v2)
    out = {}
    if args.x0 is not None:
        x0 = _parse_x0(args.x0, args.dim)
        out["x0"] = x0
        out["bracket"] = [primal_value(v) for v in bracket.vhat(x0)]
    if args.as_matrix:
        out["matrix"] = matrix_of(bracket).tolist()
    if not out:
        raise UsageError("--x0 (or --as-matrix) is required")
    return _json_bytes(out), EXIT_OK


def _cmd_commute(args) -> tuple[bytes, int]:
    _require(args, "dim", "vf", "vf2")
    v1 = VectorField.from_expr(args.vf, args.dim)
    v2 = VectorField.from_expr(args.vf2, args.dim)
    tol = args.tol if args.tol is not None else 1e-6
    cfg = _integrator(args)
    kwargs = {}
    grid = _grid(args, 2)
    if grid is not None:
        kwargs["times"] = tuple(-2.0 + 4.0 * k / (grid - 1) for k in range(grid))
    laws = commuting_flows_check(
        v1, v2, tol=tol, seed=args.seed, cfg=cfg, **kwargs
    )
    payload = emit_report(laws, args.seed, {"tol": tol, **cfg.describe()})
    return payload, EXIT_OK if all(c.passed for c in laws) else EXIT_LAW_FAILURE


def _cmd_expm(args) -> tuple[bytes, int]:
    _require(args, "matrix")
    A = _parse_matrix(args.matrix)
    if args.t is not None:
        A = args.t * A
    return _json_bytes({"expm": expm(A).tolist()}), EXIT_OK


def _cmd_geodesic(args) -> tuple[bytes, int]:
    _require(args, "dim", "christoffel", "t", "x0")
    n = args.dim
    spec = dsl.parse(args.christoffel, 2 * n)
    if spec.n_components != n:
        raise UsageError(f"--christoffel needs {n} components")
    conn = Connection(n, dsl.compile_spec(spec))
    cfg = _integrator(args)
    x0 = _parse_x0(args.x0, 2 * n)
    if args.format == "csv":
        states = _trajectory(
            _geodesic_field(conn).vhat, args.t, x0, _grid(args, 1, default=100), cfg
        )
        return _trajectory_csv(args.t, states), EXIT_OK
    flow = geodesic_flow(conn, cfg)
    state = [primal_value(v) for v in flow.evaluate(args.t, x0)]
    resid = acceleration_residual(flow, [x0], times=(args.t,))
    payload = _json_bytes(
        {"t": args.t, "state": state, "acceleration_residual": resid}
    )
    return payload, EXIT_OK


def _cmd_exp(args) -> tuple[bytes, int]:
    _require(args, "t")
    cfg = _integrator(args)
    if args.dim:
        _require(args, "x0")
        x0 = _parse_x0(args.x0, args.dim)
        flow = exp_flow(TrivialBundle(0, args.dim), cfg)
        state = [primal_value(v) for v in flow.evaluate(args.t, x0)]
        return _json_bytes({"t": args.t, "state": state}), EXIT_OK
    e = e_map(cfg)
    value = primal_value(e([args.t])[0])
    return _json_bytes({"t": args.t, "e": value}), EXIT_OK


def _cmd_verify(args) -> tuple[bytes, int]:
    cfg = _integrator(args)
    laws = run_suite(args.suite, seed=args.seed, cfg=cfg, quick=args.quick)
    if args.tol is not None:
        laws = [
            c if c.law in _DETECTOR_ROWS else replace(c, passed=c.max_residual <= args.tol)
            for c in laws
        ]
    payload = emit_report(
        laws, args.seed, {"suite": args.suite, "quick": args.quick, **cfg.describe()}
    )
    return payload, EXIT_OK if all(c.passed for c in laws) else EXIT_LAW_FAILURE


_COMMANDS = {
    "solve": _cmd_solve,
    "flow": _cmd_solve,
    "bracket": _cmd_bracket,
    "commute": _cmd_commute,
    "expm": _cmd_expm,
    "geodesic": _cmd_geodesic,
    "exp": _cmd_exp,
    "verify": _cmd_verify,
}


def dispatch(argv: list[str], stdout=None) -> int:
    """Run one command; returns the exit code (output goes to ``--out`` or
    ``stdout``).  ``--config`` lines become flags right after the
    subcommand, so flags given in ``argv`` come later and win."""
    stdout = stdout if stdout is not None else sys.stdout
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            args = parser.parse_args([argv[0], *_config_flags(args.config), *argv[1:]])
        if args.t is not None and not math.isfinite(args.t):
            raise UsageError("--t must be finite")
        if args.tol is not None and not (0.0 <= args.tol < math.inf):
            raise UsageError("--tol must be finite and non-negative")
        payload, code = _COMMANDS[args.command](args)
        if args.out:
            try:
                with open(args.out, "wb") as fh:
                    fh.write(payload)
            except OSError as e:
                raise UsageError(f"--out: cannot write {args.out}: {e}") from e
        else:
            stdout.write(payload.decode("utf-8"))
        return code
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (dsl.ExprSyntaxError, dsl.UnknownIdentifier, dsl.ArityError, ShapeError) as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return EXIT_USAGE
    except StepSizeCollapse as e:
        print(f"integration failed: step size collapse near t={e.t_reached:.3f}",
              file=sys.stderr)
        return EXIT_NUMERIC
    except MaxStepsExceeded as e:
        print(f"integration failed: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (
        EvaluationDomainError,
        VerticalityViolation,
        LinearityError,
        OverflowError,
    ) as e:
        print(f"evaluation failed: {e}", file=sys.stderr)
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
