"""The benchmark's workloads: op lists built from a seed.

Each op is a call into tangentkit (timed) and a check of its output
against a reference computed here, independently of tangentkit (not
timed).  A check returns the op's output bytes, the number of ops it
stands for (a suite call stands for one op per law row) and a list of
failures; an op that raises is one failure.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

LORENZ = "10*(x2-x1); x1*(28-x3)-x2; x1*x2-8/3*x3"
ROTATION = "x2; -x1"
STIFF = "-1000*(x1-cos(x2)); 1"
HALF_PLANE = "-2*x3*x4/x2; (x3^2 - x4^2)/x2"

# Lorenz state at t=5 from (1, 1, 20): a point on the attractor.  Starts are
# seeded perturbations of it, so every seed does a similar amount of work.
LORENZ_START = (-8.966976962986193, -2.8112149535922977, 33.95637143386707)
# Largest Lyapunov exponent of Lorenz(10, 28, 8/3): integration errors grow
# like exp(LYAPUNOV * t), so Lorenz references are compared with that margin.
LYAPUNOV = 0.906
# The library's tolerance for identities routed through the integrator
# (tangentkit.fields.FLOW_TOL), restated so the check does not read it from
# the code under test.
FLOW_TOL = 1e-6
JET_TOL = 1e-9

SUITES = ("kernel", "vf", "curve", "flows", "rig", "action")
CLI_OPS = ("flow", "geodesic", "solve", "solve_td", "bracket", "commute", "expm", "exp", "verify")


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], tuple[bytes, int, list[str]]]


def import_tangentkit():
    """Import tangentkit from the checkout's ``src`` and nowhere else."""
    if not (SRC / "tangentkit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no tangentkit sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tangentkit

    pin(tangentkit.__file__)
    return tangentkit


def pin(module_file: str) -> None:
    if not Path(module_file).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: tangentkit imported from {module_file}, not {SRC}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# -- independent references ---------------------------------------------------


def lorenz_rhs(x):
    return [10 * (x[1] - x[0]), x[0] * (28 - x[2]) - x[1], x[0] * x[1] - 8 / 3 * x[2]]


def lorenz_jvp(x, v):
    return [
        10 * (v[1] - v[0]),
        v[0] * (28 - x[2]) - x[0] * v[2] - v[1],
        v[0] * x[1] + x[0] * v[1] - 8 / 3 * v[2],
    ]


def rk4(rhs, x, t, steps):
    """Classical fixed-step RK4, the reference for fields without a closed form."""
    h = t / steps
    for _ in range(steps):
        k1 = rhs(x)
        k2 = rhs([a + h / 2 * b for a, b in zip(x, k1)])
        k3 = rhs([a + h / 2 * b for a, b in zip(x, k2)])
        k4 = rhs([a + h * b for a, b in zip(x, k3)])
        x = [a + h / 6 * (p + 2 * q + 2 * r + s) for a, p, q, r, s in zip(x, k1, k2, k3, k4)]
    return x


@functools.lru_cache(maxsize=None)
def lorenz_at(x, t):
    """Lorenz reference by RK4 at h = 5e-4, well inside FLOW_TOL before the
    exp(LYAPUNOV * t) growth."""
    return rk4(lorenz_rhs, list(x), t, round(t * 2000))


def rotation_at(x, t):
    return [x[0] * math.cos(t) + x[1] * math.sin(t), -x[0] * math.sin(t) + x[1] * math.cos(t)]


def stiff_at(x, t):
    # x1' = -1000 (x1 - cos x2), x2' = 1: a forced linear equation in x1.
    a, b = 1e6 / (1 + 1e6), 1e3 / (1 + 1e6)
    steady = lambda s: a * math.cos(s) + b * math.sin(s)  # noqa: E731
    return [steady(x[1] + t) + (x[0] - steady(x[1])) * math.exp(-1000 * t), x[1] + t]


def _finite(values, failures, what):
    if not all(math.isfinite(v) for v in values):
        failures.append(f"{what}: non-finite output {values!r}")
        return False
    return True


def _near(got, want, tol, failures, what):
    err = max((abs(g - w) for g, w in zip(got, want)), default=0.0)
    scale = max([1.0] + [abs(w) for w in want])
    if len(got) != len(want) or not err <= tol * scale:
        failures.append(f"{what}: off by {err:.3e} (allowed {tol * scale:.3e})")


# -- solve ----------------------------------------------------------------------


class SolveWorkload:
    """A few long solves at jet depths 0, 1 and 2 through the public API."""

    def __init__(self, seed: int):
        tk = import_tangentkit()
        from tangentkit.dynamics import curve, flow_of, flow_smooth_map

        curve()
        rng = random.Random(seed)
        lorenz = tk.VectorField.from_expr(LORENZ, 3)
        rotation = tk.VectorField.from_expr(ROTATION, 2)
        stiff = tk.VectorField.from_expr(STIFF, 2)
        self.systems = {
            "lorenz": tk.DynamicalSystem(tk.Space(3), lorenz),
            "rotation": tk.DynamicalSystem(tk.Space(2), rotation),
            "stiff": tk.DynamicalSystem(tk.Space(2), stiff),
        }
        self.maps = {
            "lorenz": flow_smooth_map(flow_of(lorenz)),
            "rotation": flow_smooth_map(flow_of(rotation)),
        }
        theta = rng.uniform(0.0, 2 * math.pi)
        phase = rng.uniform(0.0, 2 * math.pi)
        lorenz_t = 10.0
        self.cases = {
            "lorenz": (lorenz_t, [c + rng.uniform(-1e-3, 1e-3) for c in LORENZ_START]),
            "rotation": (100.0, [math.cos(theta), math.sin(theta)]),
            "stiff": (10.0, [math.cos(phase) + rng.uniform(-0.5, 0.5), phase]),
        }
        self.refs = {
            "lorenz": (
                lambda x, t: lorenz_at(tuple(x), t),
                lorenz_rhs,
                lorenz_jvp,
                FLOW_TOL * math.exp(LYAPUNOV * lorenz_t),
            ),
            "rotation": (
                rotation_at,
                lambda y: [y[1], -y[0]],
                lambda y, v: [v[1], -v[0]],
                FLOW_TOL,
            ),
            "stiff": (stiff_at, None, None, FLOW_TOL),
        }
        self.float_results: dict[str, list] = {}
        depths = {"lorenz": (0, 1, 2), "rotation": (0, 1, 2), "stiff": (0,)}
        self.ops = [self._op(f, d) for f in ("lorenz", "rotation", "stiff") for d in depths[f]]

    def _op(self, field: str, depth: int) -> Op:
        # tangentkit functions are looked up at call time, so the traced
        # pass sees the traced versions.
        import tangentkit as tk

        t, x0 = self.cases[field]
        n = len(x0)
        if depth == 0:
            system = self.systems[field]
            call = lambda: tk.integrate(system, t, x0)  # noqa: E731
        else:
            fmap = self.maps[field]
            # Point (t, x0) with unit time direction; a depth-2 input repeats
            # it in the second direction, so outputs are (y, y', y', y'').
            unit = [1.0] + [0.0] * n
            point = [t] + list(x0) + unit + (unit + [0.0] * (n + 1) if depth == 2 else [])

            def call():
                m = tk.tangent(fmap)
                if depth == 2:
                    m = tk.tangent(m)
                return m(point)

        return Op(f"{field}.d{depth}", call, lambda out: self._check(field, depth, out))

    def _check(self, field, depth, out):
        failures: list[str] = []
        what = f"{field}.d{depth}"
        closed, rhs, jvp, tol = self.refs[field]
        t, x0 = self.cases[field]
        n = len(x0)
        if _finite(out, failures, what):
            y = out[:n]
            if depth == 0:
                self.float_results[field] = y
                _near(y, closed(x0, t), tol, failures, what)
            elif y != self.float_results.get(field):
                failures.append(f"{what}: primal differs from the float solve")
            if depth >= 1:
                _near(out[n : 2 * n], rhs(y), tol, failures, f"{what} d/dt")
            if depth == 2:
                _near(out[2 * n : 3 * n], rhs(y), tol, failures, f"{what} d/dt (second slot)")
                _near(out[3 * n :], jvp(y, rhs(y)), tol, failures, f"{what} d2/dt2")
        return repr(out).encode(), 1, failures


# -- verify ---------------------------------------------------------------------


class VerifyWorkload:
    """Every law suite at full sample counts, then one report of all rows."""

    def __init__(self, seed: int):
        import_tangentkit()
        from tangentkit.dynamics import curve

        curve()
        self.seed = seed
        self.rows: list = []
        self.ops = [self._suite_op(name) for name in SUITES]
        self.ops.append(Op("emit_report", self._emit, self._check_report))

    def _suite_op(self, name: str) -> Op:
        def call():
            from tangentkit import run_suite

            return run_suite(name, self.seed)

        def check(rows):
            if name == SUITES[0]:
                self.rows = []
            self.rows.extend(rows)
            failures = [
                f"{name}: law {c.law} failed (residual {c.max_residual!r})"
                for c in rows
                if not (c.passed and math.isfinite(c.max_residual))
            ]
            text = "".join(f"{c.law} {c.passed} {c.max_residual!r} {c.witness!r}\n" for c in rows)
            return text.encode(), len(rows), failures

        return Op(f"suite.{name}", call, check)

    def _emit(self):
        from tangentkit.reports import emit_report

        return emit_report(self.rows, self.seed, {"suite": "all", "quick": False})

    def _check_report(self, payload):
        failures = []
        laws = json.loads(payload)["laws"]
        if len(laws) != len(self.rows):
            failures.append(f"report has {len(laws)} laws, suites gave {len(self.rows)}")
        for law in laws:
            if not (law["passed"] and math.isfinite(law["max_residual"])):
                failures.append(f"report: law {law['law_id']} failed")
        return payload, 1, failures


# -- cli ------------------------------------------------------------------------


def _csv_rows(stdout: bytes, header: str, count: int, failures: list) -> list[list[float]]:
    lines = stdout.decode().splitlines()
    if not lines or lines[0] != header or len(lines) != count + 1:
        failures.append(f"csv: expected header {header!r} and {count} rows")
        return []
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


class CliWorkload:
    """Sequential ``python -m tangentkit.cli`` processes, one per command."""

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(seed)
        theta = rng.uniform(0.0, 2 * math.pi)
        self.flow_x0 = [math.cos(theta), math.sin(theta)]
        self.lorenz_x0 = [c + rng.uniform(-1e-3, 1e-3) for c in LORENZ_START]
        self.td_x0 = rng.uniform(-1.0, 1.0)
        self.bracket_x0 = [rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)]
        self.expm_t = rng.uniform(0.0, 2 * math.pi)
        self.env = child_env()
        self.traced = False
        self.tracer = None
        self.ops = [
            self._op("flow", ["flow", "--dim", "2", "--vf", ROTATION, "--t", "20",
                              f"--x0={_csv(self.flow_x0)}", "--grid", "100"], self._check_flow),
            self._op("geodesic", ["geodesic", "--dim", "2", "--christoffel", HALF_PLANE,
                                  "--t", "2", "--x0", "0,1,1,0", "--format", "csv",
                                  "--grid", "50"], self._check_geodesic),
            self._op("solve", ["solve", "--dim", "3", "--vf", LORENZ, "--t", "10",
                               f"--x0={_csv(self.lorenz_x0)}"], self._check_lorenz),
            self._op("solve_td", ["solve", "--dim", "1", "--vf", "x1 + cos(t)",
                                  "--time-dependent", "--t", "2", f"--x0={self.td_x0!r}"],
                     self._check_time_dependent),
            self._op("bracket", ["bracket", "--dim", "2", "--vf", ROTATION, "--vf2", "x1; -x2",
                                 f"--x0={_csv(self.bracket_x0)}", "--as-matrix"],
                     self._check_bracket),
            self._op("commute", ["commute", "--dim", "2", "--vf", ROTATION, "--vf2", "x1; x2",
                                 "--grid", "3", "--seed", str(seed)], self._check_laws),
            self._op("expm", ["expm", "--matrix", "0,1;-1,0", f"--t={self.expm_t!r}"],
                     self._check_expm),
            self._op("exp", ["exp", "--t", "1"], self._check_exp),
            self._op("verify", ["verify", "--suite", "kernel", "--seed", str(seed)],
                     self._check_laws),
        ]

    def _op(self, name, argv, check) -> Op:
        def call():
            if self.traced:
                cmd = [sys.executable, str(Path(__file__).with_name("trace_child.py"))]
            else:
                cmd = [sys.executable, "-m", "tangentkit.cli"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd + argv, env=self.env, cwd=ROOT, capture_output=True,
                                  timeout=150)
            if self.traced:
                self.tracer.record(f"cli.{name}", time.perf_counter() - t0)
                self.tracer.merge(json.loads(proc.stderr.decode().splitlines()[-1]))
            return proc

        def checked(proc):
            failures = []
            if proc.returncode != 0:
                failures.append(f"{name}: exit code {proc.returncode}: {proc.stderr[-300:]!r}")
            else:
                try:
                    check(proc.stdout, failures)
                except (ValueError, KeyError, IndexError) as e:
                    failures.append(f"{name}: unreadable output ({e})")
            return proc.stdout, 1, failures

        return Op(f"cli.{name}", call, checked)

    def _check_flow(self, out, failures):
        for t, *x in _csv_rows(out, "t,x1,x2", 101, failures):
            if _finite(x, failures, "flow"):
                _near(x, rotation_at(self.flow_x0, t), FLOW_TOL, failures, f"flow t={t}")

    def _check_geodesic(self, out, failures):
        # Unit-speed geodesic of the half-plane through (0, 1) heading along x1.
        for t, *x in _csv_rows(out, "t,x1,x2,x3,x4", 51, failures):
            sech, tanh = 1 / math.cosh(t), math.tanh(t)
            if _finite(x, failures, "geodesic"):
                _near(x, [tanh, sech, sech * sech, -sech * tanh], FLOW_TOL, failures,
                      f"geodesic t={t}")

    def _check_lorenz(self, out, failures):
        state = json.loads(out)["state"]
        if _finite(state, failures, "solve"):
            want = lorenz_at(tuple(self.lorenz_x0), 10.0)
            _near(state, want, FLOW_TOL * math.exp(LYAPUNOV * 10.0), failures,
                  "solve")

    def _check_time_dependent(self, out, failures):
        state = json.loads(out)["state"]
        # x' = x + cos t from x(0) = a: x(t) = (a + 1/2) e^t + (sin t - cos t) / 2.
        want = (self.td_x0 + 0.5) * math.exp(2.0) + (math.sin(2.0) - math.cos(2.0)) / 2
        if _finite(state, failures, "solve_td"):
            _near(state[:1], [want], FLOW_TOL, failures, "solve_td")

    def _check_bracket(self, out, failures):
        got = json.loads(out)
        # Linear fields A1 x, A2 x have bracket (A2 A1 - A1 A2) x.
        a1, a2 = [[0.0, 1.0], [-1.0, 0.0]], [[1.0, 0.0], [0.0, -1.0]]
        mat = [[sum(a2[i][k] * a1[k][j] - a1[i][k] * a2[k][j] for k in range(2))
                for j in range(2)] for i in range(2)]
        want = [sum(m * x for m, x in zip(row, self.bracket_x0)) for row in mat]
        _near(got["bracket"], want, JET_TOL, failures, "bracket")
        _near(sum(got["matrix"], []), sum(mat, []), JET_TOL, failures, "bracket matrix")

    def _check_laws(self, out, failures):
        for law in json.loads(out)["laws"]:
            if not (law["passed"] and math.isfinite(law["max_residual"])):
                failures.append(f"law {law['law_id']} failed")

    def _check_expm(self, out, failures):
        c, s = math.cos(self.expm_t), math.sin(self.expm_t)
        _near(sum(json.loads(out)["expm"], []), [c, s, -s, c], 1e-12, failures, "expm")

    def _check_exp(self, out, failures):
        _near([json.loads(out)["e"]], [math.exp(1.0)], 1e-8, failures, "exp")


def _csv(values) -> str:
    return ",".join(repr(v) for v in values)


WORKLOADS = {"solve": SolveWorkload, "verify": VerifyWorkload, "cli": CliWorkload}
