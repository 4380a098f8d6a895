"""Command-line front end.

Subcommands: solve, flow (``solve`` with CSV output by default), bracket,
commute, expm, geodesic, exp, verify.  Exit codes: 0 success / all laws
pass, 1 a law failed (and nothing else), 2 usage error, 3 evaluation or
integration error (any ArithmeticError or ValueError the run raises: a
point outside a primitive's domain, a math domain error or float division
by zero in float arithmetic, an overflow, non-finite expm entries, a
collapsed step or a spent step budget).  Outputs are deterministic for a
fixed seed: identical argv produce byte-identical bytes.

Each subcommand takes only the flags it reads (listed in ``_COMMANDS``),
plus ``--out`` and ``--config``; any other flag, or an abbreviated flag, is a
usage error.  A flag's value check is its argparse type: ``--dim`` >= 1
(>= 0 for ``exp``, whose scaling flow also runs on R^0), ``--t`` finite,
``--tol`` finite and >= 0, ``--rk4-h`` finite and > 0, ``--grid`` at least 1
(default 100) for trajectories and at least 2 (default: the law grid) for
``commute``.

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
    commuting_flows_check,
    expm,
    geodesic_flow,
    integrate,
)
from .fields import VectorField, _matrix_rows, lie_bracket
from .jets import primal_value
from .kernel import ShapeError, TrivialBundle
from .sampling import DEFAULT_SEED

__all__ = ["main", "dispatch"]

EXIT_OK = 0
EXIT_LAW_FAILURE = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class UsageError(ValueError):
    pass


def _checked(convert, ok, message: str):
    """An argparse ``type``: ``convert`` the text, then a usage error saying
    ``message`` unless ``ok(value)`` (for flags and ``--config`` lines alike)."""

    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(message)
        return value

    parse.__name__ = convert.__name__  # argparse's "invalid float value: ..."
    return parse


# The spec of every flag, by long name.  A command's parser takes only the
# flags its ``_cmd_*`` reads (see ``_COMMANDS``), so any other flag is
# "unrecognized arguments" (exit 2).
_FLAGS = {
    "dim": dict(type=_checked(int, lambda n: n >= 1, "--dim must be at least 1"),
                help="state dimension n"),
    "vf": dict(help="field components, e.g. 'x2; -x1'"),
    "vf2": dict(help="second field components"),
    "time-dependent": dict(action="store_true",
                           help="allow t in --vf (solved on the clock-augmented state)"),
    "t": dict(type=_checked(float, math.isfinite, "--t must be finite"),
              help="target time"),
    "x0": dict(help="comma-separated initial state"),
    "grid": dict(type=_checked(int, lambda n: n >= 1, "--grid must be at least 1"),
                 default=100, help="trajectory intervals of --format csv"),
    "tol": dict(type=_checked(float, lambda v: 0.0 <= v < math.inf,
                              "--tol must be finite and non-negative"),
                help="law tolerance"),
    "seed": dict(type=int, default=DEFAULT_SEED),
    "format": dict(choices=("csv", "json")),
    "rk4-h": dict(type=_checked(float, lambda h: 0.0 < h < math.inf,
                                "--rk4-h must be finite and positive"),
                  help="use fixed-step RK4 with this step instead of RK45"),
    "as-matrix": dict(action="store_true",
                      help="print the bracket's matrix when it is linear"),
    "matrix": dict(help="rows separated by ';', entries by ','"),
    "christoffel": dict(help="correction components over x1..xn (position) and "
                             "x{n+1}..x{2n} (velocity)"),
    "suite": dict(choices=("kernel", "vf", "curve", "flows", "rig", "action", "all"),
                  default="all"),
    "quick": dict(action="store_true",
                  help="smaller sample counts (flows and action suites only)"),
    "out": dict(help="write output to this path instead of stdout"),
    "config": dict(help="key=value file supplying defaults for flags"),
}


def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and each subcommand's parser by name."""
    top = argparse.ArgumentParser(
        prog="tangentkit",
        description="define vector fields, solve them, and verify the laws they satisfy",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, (run, help_line, flags, specs) in _COMMANDS.items():
        # exact names only, so ``--t`` is not taken as ``--tol`` on ``verify``
        p = sub.add_parser(name, help=help_line, allow_abbrev=False)
        p.set_defaults(run=run)
        for flag in flags.split() + ["out", "config"]:
            p.add_argument(f"--{flag}", **specs.get(flag, _FLAGS[flag]))
    return top, sub.choices


def _config_flags(path: str, command: argparse.ArgumentParser) -> list[str]:
    """The ``key=value`` lines of a config file as ``--key=value`` flags of
    ``command``; for a switch (an action that takes no value, such as
    ``store_true``) ``key=true`` becomes the bare ``--key`` and
    ``key=false`` no flag."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
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
        action = command._option_string_actions.get(flag)
        if action is None or action.nargs != 0 or value not in ("true", "false"):
            flags.append(f"{flag}={value}")
        elif value == "true":
            flags.append(flag)
    return flags


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise UsageError(f"--{name.replace('_', '-')} is required")


def _floats(text: str, where: str) -> list[float]:
    """The comma-separated floats of ``text``; an empty or non-numeric entry
    is a usage error naming ``where`` and the entry's position."""
    values = []
    for i, v in enumerate(text.split(","), 1):
        try:
            values.append(float(v))
        except ValueError:
            problem = "is empty" if v.strip() == "" else f"is not a number: {v!r}"
            raise UsageError(f"{where} entry {i} {problem}") from None
    return values


def _parse_x0(text: str, expected: int | None = None) -> list[float]:
    values = _floats(text, "--x0") if text.strip() != "" else []
    if not all(math.isfinite(v) for v in values):
        raise UsageError("--x0 entries must be finite")
    if expected is not None and len(values) != expected:
        raise UsageError(f"--x0 expected {expected} values, got {len(values)}")
    return values


def _parse_matrix(text: str):
    import numpy as np

    rows = [_floats(row, f"--matrix row {i}") for i, row in enumerate(text.split(";"), 1)]
    if any(len(r) != len(rows) for r in rows):
        raise UsageError("--matrix must be square")
    if not all(math.isfinite(v) for row in rows for v in row):
        raise UsageError("--matrix entries must be finite")
    return np.array(rows)


def _integrator(args) -> IntegratorConfig:
    if args.rk4_h is None:
        return DEFAULT_CONFIG
    return IntegratorConfig(method="rk4", h=args.rk4_h)


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2) + "\n").encode("utf-8")


def _trajectory_csv(t, states) -> bytes:
    """Rows ``t_k, states[k]`` at the times ``t_k = t * k / steps``, where
    ``steps + 1`` states are given."""
    steps = len(states) - 1
    lines = ["t," + ",".join(f"x{i + 1}" for i in range(len(states[0])))]
    for k, state in enumerate(states):
        lines.append(repr(t * k / steps) + "," + ",".join(repr(v) for v in state))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _cmd_solve(args) -> tuple[bytes, int]:
    _require(args, "t", "x0", "dim", "vf")
    spec = dsl.parse(args.vf, args.dim, time_dependent=args.time_dependent)
    system = DynamicalSystem.from_field_spec(spec)
    cfg = _integrator(args)
    x0 = _parse_x0(args.x0, args.dim)
    if args.format == "csv":
        y0 = x0 if system.initial_map is None else system.initial_map(x0)
        states = _trajectory(system.vector_field.vhat, args.t, y0, args.grid, cfg)
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
        out["matrix"] = _matrix_rows(bracket)
    if not out:
        raise UsageError("--x0 (or --as-matrix) is required")
    return _json_bytes(out), EXIT_OK


def _cmd_commute(args) -> tuple[bytes, int]:
    from .reports import emit_report

    _require(args, "dim", "vf", "vf2")
    v1 = VectorField.from_expr(args.vf, args.dim)
    v2 = VectorField.from_expr(args.vf2, args.dim)
    tol = args.tol if args.tol is not None else 1e-6
    cfg = _integrator(args)
    kwargs = {}
    if args.grid is not None:
        kwargs["times"] = tuple(-2.0 + 4.0 * k / (args.grid - 1) for k in range(args.grid))
    laws = commuting_flows_check(
        v1, v2, tol=tol, seed=args.seed, cfg=cfg, **kwargs
    )
    payload = emit_report(laws, args.seed, {"tol": tol, **cfg.describe()})
    return payload, EXIT_OK if all(c.passed for c in laws) else EXIT_LAW_FAILURE


def _cmd_expm(args) -> tuple[bytes, int]:
    _require(args, "matrix")
    A = _parse_matrix(args.matrix)
    if args.t is not None:
        import numpy as np

        # the entries and t are finite, so only an overflow can occur, to an
        # inf that expm rejects
        with np.errstate(over="ignore"):
            A = args.t * A
    return _json_bytes({"expm": expm(A).tolist()}), EXIT_OK


def _cmd_geodesic(args) -> tuple[bytes, int]:
    _require(args, "dim", "christoffel", "t", "x0")
    n = args.dim
    conn = Connection(n, dsl.compile_spec(dsl.parse(args.christoffel, 2 * n)))
    cfg = _integrator(args)
    x0 = _parse_x0(args.x0, 2 * n)
    if args.format == "csv":
        states = _trajectory(_geodesic_field(conn).vhat, args.t, x0, args.grid, cfg)
        return _trajectory_csv(args.t, states), EXIT_OK
    flow = geodesic_flow(conn, cfg)
    state = [primal_value(v) for v in flow.evaluate(args.t, x0)]
    resid = acceleration_residual(flow, [x0], times=(args.t,))
    payload = _json_bytes(
        {"t": args.t, "state": state, "acceleration_residual": resid}
    )
    return payload, EXIT_OK


def _cmd_exp(args) -> tuple[bytes, int]:
    from .rig import e_map, exp_flow

    _require(args, "t")
    cfg = _integrator(args)
    if args.dim is not None:
        _require(args, "x0")
        x0 = _parse_x0(args.x0, args.dim)
        flow = exp_flow(TrivialBundle(0, args.dim), cfg)
        state = [primal_value(v) for v in flow.evaluate(args.t, x0)]
        return _json_bytes({"t": args.t, "state": state}), EXIT_OK
    e = e_map(cfg)
    value = primal_value(e([args.t])[0])
    return _json_bytes({"t": args.t, "e": value}), EXIT_OK


def _cmd_verify(args) -> tuple[bytes, int]:
    from .reports import emit_report
    from .verify import _DETECTOR_ROWS, run_suite

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


# Each command: its function, its help line, the flags it reads besides
# --out and --config, and the specs that replace a flag's ``_FLAGS`` one.
_COMMANDS = {
    "solve": (_cmd_solve, "integrate a field and print the final state",
              "dim vf time-dependent t x0 grid format rk4-h", {}),
    "flow": (_cmd_solve, "integrate a field and emit the trajectory",
             "dim vf time-dependent t x0 grid format rk4-h",
             {"format": dict(_FLAGS["format"], default="csv")}),
    "bracket": (_cmd_bracket, "evaluate the bracket of two fields at x0",
                "dim vf vf2 x0 as-matrix", {}),
    "commute": (_cmd_commute, "check the commuting-flows laws for two fields",
                "dim vf vf2 grid tol seed rk4-h",
                {"grid": dict(type=_checked(int, lambda n: n >= 2,
                                            "--grid must be at least 2"),
                              help="time-grid points per axis (default: the law grid)")}),
    "expm": (_cmd_expm, "print the matrix exponential of --matrix", "matrix t", {}),
    "geodesic": (_cmd_geodesic, "integrate a geodesic from (x, u)",
                 "dim christoffel t x0 grid format rk4-h", {}),
    "exp": (_cmd_exp, "evaluate e(t), or the scaling flow with --dim/--x0",
            "dim x0 t rk4-h",
            # the scaling flow also runs on R^0
            {"dim": dict(_FLAGS["dim"], type=_checked(int, lambda n: n >= 0,
                                                      "--dim must be non-negative"))}),
    "verify": (_cmd_verify, "run a law suite and emit its JSON report",
               "suite quick seed tol rk4-h", {}),
}


def dispatch(argv: list[str], stdout=None) -> int:
    """Run one command; returns the exit code (output goes to ``--out`` or
    ``stdout``).  ``--config`` lines become flags right after the
    subcommand, so flags given in ``argv`` come later and win."""
    stdout = stdout if stdout is not None else sys.stdout
    parser, commands = _parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            flags = _config_flags(args.config, commands[args.command])
            args = parser.parse_args([argv[0], *flags, *argv[1:]])
        payload, code = args.run(args)
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
    except (StepSizeCollapse, MaxStepsExceeded) as e:
        print(f"integration failed: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ArithmeticError, ValueError) as e:
        print(f"evaluation failed: {e}", file=sys.stderr)
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
