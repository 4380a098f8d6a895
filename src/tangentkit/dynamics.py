"""Dynamical systems and their solutions over the curve C = R.

Generic systems are integrated with an adaptive Dormand-Prince RK45 pair (a
fixed-step RK4 is available for jet-heavy runs); linear systems get exact
flows through the matrix exponential.  Both the time and the state arguments
of every flow are jet-polymorphic: integration is performed on the rescaled
system dy/ds = t * vhat(y) over s in [0, 1], so a jet value of t rides
through the same arithmetic as the state and step-size selection is frozen
to primal values.  The derivative a jet extracts is therefore the derivative
of the numerical map actually computed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import chain, product, repeat
from typing import Callable, Sequence

import numpy as np

from .fields import (
    FLOW_TOL,
    JET_TOL,
    LawCheck,
    LinearVectorField,
    VectorField,
    commutes,
    gap,
    law_check,
    tangent_lift,
    worst_case,
)
from .jets import (
    close_level,
    flatten_levels,
    jet_depth,
    open_level,
    primal_value,
    unflatten_levels,
)
from .kernel import (
    ShapeError,
    SmoothMap,
    Space,
    compose,
    structural_map,
    tangent,
)
from . import dsl
from .sampling import DEFAULT_SEED, LAW_GRID_SAMPLES, LAW_GRID_TIMES, sample_points

__all__ = [
    "CurveObject",
    "DynamicalSystem",
    "Flow",
    "Connection",
    "IntegratorConfig",
    "StepSizeCollapse",
    "MaxStepsExceeded",
    "NonCommutingFields",
    "integrate",
    "flow_of",
    "expm",
    "linear_flow",
    "generator",
    "sigma_flow",
    "flow_laws",
    "commuting_flows_check",
    "sum_flow",
    "eta",
    "reverse",
    "solve_nth_order",
    "holonomic_jet",
    "geodesic_flow",
    "acceleration_residual",
    "augment_time",
    "flow_smooth_map",
    "curve",
]


class StepSizeCollapse(ArithmeticError):
    """The adaptive step underflowed or the state blew up: the strongest
    finite-time non-existence signal the integrator can give."""

    def __init__(self, t_reached: float):
        self.t_reached = t_reached
        super().__init__(f"step size collapse near t={t_reached:.3f}")


class MaxStepsExceeded(ArithmeticError):
    def __init__(self, t_reached: float, max_steps: int):
        self.t_reached = t_reached
        super().__init__(f"exceeded {max_steps} steps at t={t_reached:.3f}")


class NonCommutingFields(ValueError):
    def __init__(self, check: LawCheck):
        self.check = check
        super().__init__(
            f"fields do not commute (residual {check.max_residual:.3e})"
        )


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "rk45"  # "rk45" or "rk4"
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_steps: int = 10**6
    h: float = 1e-3  # fixed step for rk4 (in time units)

    def describe(self) -> dict:
        if self.method == "rk4":
            return {"method": "rk4-fixed", "h": self.h}
        return {
            "method": "rk45",
            "abs_tol": self.abs_tol,
            "rel_tol": self.rel_tol,
            "max_steps": self.max_steps,
        }


DEFAULT_CONFIG = IntegratorConfig()


@dataclass(frozen=True)
class DynamicalSystem:
    """(space, field, initial map), optionally of higher order.

    For order n the field lives on T^(n-1) of the base space and must
    satisfy the section conditions checked by :func:`solve_nth_order`.
    """

    space: Space
    vector_field: VectorField
    initial_map: SmoothMap | None = None
    order: int = 1

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be >= 1")
        expected = self.space.tangent_power(self.order - 1)
        if self.vector_field.space != expected:
            raise ShapeError(
                f"order-{self.order} field must live on R^{expected.dim}"
            )
        if self.initial_map is not None and self.initial_map.codomain != expected:
            raise ShapeError("initial map must land in the field's space")

    @classmethod
    def from_field_spec(cls, spec: dsl.FieldSpec) -> "DynamicalSystem":
        """Build a first-order system from a field spec; time-dependent specs
        are made autonomous by :func:`augment_time`."""
        if spec.time_dependent:
            return augment_time(spec)
        vf = VectorField(Space(spec.arity), dsl.compile_spec(spec))
        return cls(vf.space, vf)


@dataclass(frozen=True)
class Flow:
    """A callable (t, x) -> point, with provenance and its defining config.

    ``evaluate`` accepts jets in both arguments.  Instances are immutable
    and safe to call concurrently.
    """

    space: Space
    evaluate: Callable[[object, Sequence], list] = field(repr=False)
    provenance: dict = field(default_factory=dict)

    def __call__(self, t, xs):
        return self.evaluate(t, xs)


@dataclass(frozen=True)
class Connection:
    """Christoffel data in the flat chart: gamma maps (x, u) to the
    quadratic correction vector, so geodesics solve u' = -gamma(x, u)."""

    base_dim: int
    gamma: SmoothMap

    def __post_init__(self):
        if self.gamma.domain.dim != 2 * self.base_dim:
            raise ShapeError("christoffel map must take (x, u)")
        if self.gamma.codomain.dim != self.base_dim:
            raise ShapeError("christoffel map must produce a base vector")

    def quadratic_check(
        self, samples=None, tol: float = JET_TOL, seed: int = DEFAULT_SEED
    ) -> LawCheck:
        """gamma(x, a*u) = a^2 gamma(x, u) on samples."""
        n = self.base_dim
        if samples is None:
            samples = sample_points(2 * n + 1, count=25, seed=seed)

        def residual(row):
            x, u, a = row[:n], row[n : 2 * n], row[2 * n]
            scaled = self.gamma(list(x) + [a * ui for ui in u])
            direct = self.gamma(list(x) + list(u))
            return gap(scaled, [a * a * primal_value(d) for d in direct])

        return law_check("christoffel-quadratic", zip(samples), residual, tol, seed)


# -- the curve object ---------------------------------------------------------


@dataclass(frozen=True)
class CurveObject:
    """C = R with the unit field and base point 0."""

    space: Space
    c0: float
    c1: VectorField

    def self_check(self, tol: float = JET_TOL) -> list[LawCheck]:
        """Startup checks: c1 is a section with constant component 1 and
        commutes with itself."""
        pts = sample_points(1, count=25, seed=DEFAULT_SEED)
        sect, _ = worst_case(zip(pts), lambda p: gap(self.c1.full_map(p)[:1], p))
        comp, _ = worst_case(zip(pts), lambda p: gap(self.c1.vhat(p), [1.0]))
        return [
            LawCheck("curve-section", sect <= tol, sect, None, DEFAULT_SEED),
            LawCheck("curve-unit-component", comp <= tol, comp, None, DEFAULT_SEED),
            commutes(self.c1, self.c1, tol=tol),
        ]


@functools.lru_cache(maxsize=1)
def curve() -> CurveObject:
    """The curve object, validated once on first use."""
    space = Space(1)
    c1 = VectorField(
        space, SmoothMap(space, space, lambda xs: [1.0], name="unit_field")
    )
    obj = CurveObject(space, 0.0, c1)
    for check in obj.self_check():
        if not check.passed:
            raise AssertionError(f"curve object failed {check.law}")
    return obj


# -- integration ---------------------------------------------------------------

# Dormand-Prince 5(4) tableau; no nodes c_i, as the rescaled system is autonomous.
# The last row doubles as the 5th-order weights b5 (b5_7 = 0), so the 7th
# stage state is the new state itself (FSAL).
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# b5 - b4: coefficients of the embedded error estimate.
_DP_E = (
    71 / 57600,
    0.0,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)

_STATE_NORM_LIMIT = 1e12
_MIN_STEP = 1e-14


def _axpy(y, h, k):
    return [yi + h * ki for yi, ki in zip(y, k)]


def _first_stage(rhs, y: list, primals: int) -> list:
    """``rhs(y)``, checked once per solve to have one entry per entry of
    ``y``: a field with the wrong number of components is a ShapeError, not
    a state that zip silently truncates."""
    k = rhs(y)
    if len(k) != len(y):
        raise ShapeError(f"the field's value does not fit its {primals}-dimensional state")
    return k


def _integrate_scaled(
    rhs, y0: list, cfg: IntegratorConfig, t_scale, outputs, primals: int
) -> list:
    """Integrate dy/ds = rhs(y) over s in [0, 1]; the states at ``outputs``.

    ``outputs`` is a sorted tuple of fractions in [0, 1].  A step that would
    pass the next output fraction is clipped to land on it exactly (as the
    last step lands on 1), so each state is a step's end point: there is no
    interpolation.  The FSAL stage, the carried |y| and the step size carry
    across output points; after a clipped step the controller resumes from
    the step it proposed before the clip, so landing on a close output point
    does not shrink the steps after it.  With ``(1.0,)`` this is the plain
    solve to s = 1.

    The loop runs on floats: ``y0`` and every ``rhs`` output are flat lists
    of jet-tower coefficients, level by level (see
    :func:`jets.flatten_levels`), whose first ``primals`` entries are the
    primal values.  Stage sums taken coefficient by coefficient are exactly
    the jet sums, and the controller reads the primals alone, so derivative
    coefficients ride along without steering.  ``t_scale`` is the original
    time value, used only to convert the reached fraction back to time
    units in errors.
    """

    if cfg.method == "rk4":
        return _rk4_fixed(rhs, y0, cfg, t_scale, outputs, primals)
    if cfg.method != "rk45":
        raise ValueError(f"unknown integrator method {cfg.method!r}")

    (
        (a21,),
        (a31, a32),
        (a41, a42, a43),
        (a51, a52, a53, a54),
        (a61, a62, a63, a64, a65),
        (b1, _, b3, b4, b5, b6),  # b2 = 0
    ) = _DP_A[1:]
    e1, _, e3, e4, e5, e6, e7 = _DP_E  # e2 = 0
    abs_tol, rel_tol = cfg.abs_tol, cfg.rel_tol

    y = list(y0)
    y_abs = [abs(primal_value(v)) for v in y[:primals]]  # carried with y
    s = 0.0
    h = 0.01
    k1 = _first_stage(rhs, y, primals)
    steps = 0
    states = []
    for target in outputs:
        while s < target:
            if steps >= cfg.max_steps:
                raise MaxStepsExceeded(s * primal_value(t_scale), cfg.max_steps)
            steps += 1
            if h < _MIN_STEP or not math.isfinite(h):
                raise StepSizeCollapse(s * primal_value(t_scale))
            clipped = h >= target - s
            h_step = (target - s) if clipped else h

            # One pass per stage state, summed left to right with zero
            # coefficients left out; the 7th stage state is y_new (FSAL).
            c1 = h_step * a21
            k2 = rhs([yi + c1 * p1 for yi, p1 in zip(y, k1)])
            c1, c2 = h_step * a31, h_step * a32
            k3 = rhs([yi + c1 * p1 + c2 * p2 for yi, p1, p2 in zip(y, k1, k2)])
            c1, c2, c3 = h_step * a41, h_step * a42, h_step * a43
            k4 = rhs([
                yi + c1 * p1 + c2 * p2 + c3 * p3
                for yi, p1, p2, p3 in zip(y, k1, k2, k3)
            ])
            c1, c2, c3, c4 = h_step * a51, h_step * a52, h_step * a53, h_step * a54
            k5 = rhs([
                yi + c1 * p1 + c2 * p2 + c3 * p3 + c4 * p4
                for yi, p1, p2, p3, p4 in zip(y, k1, k2, k3, k4)
            ])
            c1, c2, c3 = h_step * a61, h_step * a62, h_step * a63
            c4, c5 = h_step * a64, h_step * a65
            k6 = rhs([
                yi + c1 * p1 + c2 * p2 + c3 * p3 + c4 * p4 + c5 * p5
                for yi, p1, p2, p3, p4, p5 in zip(y, k1, k2, k3, k4, k5)
            ])
            c1, c3, c4 = h_step * b1, h_step * b3, h_step * b4
            c5, c6 = h_step * b5, h_step * b6
            y_new = [
                yi + c1 * p1 + c3 * p3 + c4 * p4 + c5 * p5 + c6 * p6
                for yi, p1, p3, p4, p5, p6 in zip(y, k1, k3, k4, k5, k6)
            ]
            k7 = rhs(y_new)

            # Error norm and state norm in one pass over the primals only (zip
            # stops with y_abs: derivative coefficients never steer); NaN
            # sticks in both, so h shrinks until it collapses.
            err = 0.0
            norm = 0.0
            new_abs = []
            for ay, yn, p1, p3, p4, p5, p6, p7 in zip(
                y_abs, y_new, k1, k3, k4, k5, k6, k7
            ):
                an = abs(primal_value(yn))
                new_abs.append(an)
                e = (
                    e1 * primal_value(p1)
                    + e3 * primal_value(p3)
                    + e4 * primal_value(p4)
                    + e5 * primal_value(p5)
                    + e6 * primal_value(p6)
                    + e7 * primal_value(p7)
                )
                ratio = abs(e * h_step) / (abs_tol + rel_tol * max(ay, an))
                if ratio > err or ratio != ratio:
                    err = ratio
                if an > norm or an != an:
                    norm = an

            if err <= 1.0:
                s = target if clipped else s + h_step
                y, y_abs, k1 = y_new, new_abs, k7
                if not norm <= _STATE_NORM_LIMIT:
                    raise StepSizeCollapse(s * primal_value(t_scale))
                if not clipped:
                    h = h_step * (
                        5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err**-0.2))
                    )
            else:
                h = h_step * max(0.2, 0.9 * err**-0.2)
        states.append(y)
    return states


def _rk4_fixed(
    rhs, y0: list, cfg: IntegratorConfig, t_scale, outputs, primals: int
) -> list:
    """Classical RK4 on the same flat lists as :func:`_integrate_scaled`;
    each interval between output fractions takes ceil(interval length in
    time units / cfg.h) equal steps, and the steps of all intervals together
    must not exceed cfg.max_steps."""
    if not (cfg.h > 0.0 and math.isfinite(cfg.h)):
        raise ValueError(f"rk4 step must be finite and positive, got {cfg.h!r}")
    span = abs(primal_value(t_scale))
    intervals = list(zip((0.0, *outputs), outputs))
    # Compared as floats before ceil: span * width / h may be inf.
    counts = [span * (target - s) / cfg.h for s, target in intervals]
    counts = [max(1, math.ceil(c)) if c <= cfg.max_steps else c for c in counts]
    if sum(counts) > cfg.max_steps:
        raise MaxStepsExceeded(0.0, cfg.max_steps)
    y = list(y0)
    k1 = _first_stage(rhs, y, primals)  # the first step's k1; later steps take their own
    states = []
    for (s, target), steps in zip(intervals, counts):
        width = target - s
        h = width / steps
        for i in range(steps):
            if k1 is None:
                k1 = rhs(y)
            k2 = rhs(_axpy(y, h / 2, k1))
            k3 = rhs(_axpy(y, h / 2, k2))
            k4 = rhs(_axpy(y, h, k3))
            y = [
                yi + (h / 6) * (a + 2 * b + 2 * c + d)
                for yi, a, b, c, d in zip(y, k1, k2, k3, k4)
            ]
            k1 = None
            if not gap(y[:primals], repeat(0.0)) <= _STATE_NORM_LIMIT:
                raise StepSizeCollapse(
                    (s + (i + 1) / steps * width) * primal_value(t_scale)
                )
        states.append(y)
    return states


def _trajectory(
    vhat: SmoothMap, t, xs: Sequence, steps: int, cfg: IntegratorConfig
) -> list:
    """The states of y' = vhat(y), y(0) = xs, at the times t * k / steps for
    k = 0..steps, from one integration pass (t and xs may be jets).

    With jets of depth D among t and xs, the integrator steps on the flat
    coefficients of depth-D towers; the field sees towers (xs itself first)
    and ``t * vhat`` is taken in jet arithmetic."""
    xs = list(xs)
    if not math.isfinite(primal_value(t)):
        raise ValueError("integration time must be finite")
    depth = max(map(jet_depth, [t, *xs]))
    if t == 0.0 and not depth:
        return [xs] * (steps + 1)

    def rhs(y):
        vals = vhat.evaluator(list(y))
        return [t * v for v in vals]

    def flat_rhs(y):
        return flatten_levels(rhs(unflatten_levels(y, depth)), depth)

    outputs = tuple(k / steps for k in range(1, steps + 1))
    y0 = flatten_levels(xs, depth)  # xs itself at depth 0
    states = _integrate_scaled(
        flat_rhs if depth else rhs, y0, cfg, t, outputs, len(xs)
    )
    return [xs] + [unflatten_levels(y, depth) for y in states]


def _integrate_field(vhat: SmoothMap, t, xs: Sequence, cfg: IntegratorConfig) -> list:
    """Solve y' = vhat(y), y(0) = xs, up to time t (t and xs may be jets)."""
    return _trajectory(vhat, t, xs, 1, cfg)[1]


def integrate(
    system: DynamicalSystem, t, x0: Sequence, cfg: IntegratorConfig = DEFAULT_CONFIG
) -> list:
    """Approximate the solution of a first-order system at time t from x0
    (x0 lives in the domain of the initial map when one is present)."""
    if system.order != 1:
        raise ShapeError("integrate handles order 1; use solve_nth_order")
    y0 = list(x0)
    if system.initial_map is not None:
        y0 = system.initial_map(y0)
    return _integrate_field(system.vector_field.vhat, t, y0, cfg)


def flow_of(v: VectorField, cfg: IntegratorConfig = DEFAULT_CONFIG) -> Flow:
    """The flow of a field, integrator-backed."""

    def evaluate(t, xs):
        return _integrate_field(v.vhat, t, xs, cfg)

    return Flow(v.space, evaluate, {"kind": "integrator", **cfg.describe()})


# -- matrix exponential --------------------------------------------------------

_PADE13_B = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
_PADE13_THETA = 5.371920351148152


def expm(A) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with the order-13 diagonal
    Pade approximant."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError("expm needs a square matrix")
    if not np.all(np.isfinite(A)):
        raise ValueError("expm requires finite entries")
    n = A.shape[0]
    if n == 0:
        return np.zeros((0, 0))

    norm = float(np.max(np.abs(A).sum(axis=0)))  # 1-norm
    squarings = 0
    if norm > _PADE13_THETA:
        squarings = int(math.ceil(math.log2(norm / _PADE13_THETA)))
    As = A / (2.0**squarings)

    ident = np.eye(n)
    b = _PADE13_B
    A2 = As @ As
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = As @ (
        A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
        + b[7] * A6
        + b[5] * A4
        + b[3] * A2
        + b[1] * ident
    )
    V = (
        A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
        + b[6] * A6
        + b[4] * A4
        + b[2] * A2
        + b[0] * ident
    )
    R = np.linalg.solve(V - U, U + V)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(squarings):
            R = R @ R
    if not np.all(np.isfinite(R)):
        raise OverflowError("matrix exponential overflowed")
    return R


def _jet_matvec(rows, xs):
    return [sum(a * x for a, x in zip(row, xs)) for row in rows]


def linear_flow(A) -> Flow:
    """The exact flow t -> expm(tA) of a linear field.

    Float times go through a per-flow, size-bounded memo of expm(tA).  A jet
    time t is split as primal + nilpotent part d; expm(tA) = expm(t0 A) *
    sum_k (dA)^k / k! truncated at the jet depth, which is exact.
    """

    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError("linear_flow needs a square matrix")
    n = A.shape[0]
    powers = [np.eye(n), A]

    @functools.lru_cache(maxsize=1024)
    def expm_at(t0: float) -> np.ndarray:
        return expm(t0 * A)

    def evaluate(t, xs):
        xs = list(xs)
        depth = jet_depth(t)
        E0 = expm_at(primal_value(t))
        if depth == 0:
            return _jet_matvec(E0.tolist(), xs)
        while len(powers) <= depth:
            powers.append(powers[-1] @ A)
        d = t - primal_value(t)  # nilpotent at the jet level of t
        # rows of E0 (I + dA + d^2 A^2/2 + ...) with jet-scalar entries
        series_rows = []
        fact = 1.0
        mats = [E0]
        for k in range(1, depth + 1):
            fact *= k
            mats.append((E0 @ powers[k]) / fact)
        dk = [1.0]
        for k in range(1, depth + 1):
            dk.append(dk[-1] * d)
        for i in range(n):
            row = []
            for j in range(n):
                acc = mats[0][i, j]
                for k in range(1, depth + 1):
                    acc = acc + dk[k] * mats[k][i, j]
                row.append(acc)
            series_rows.append(row)
        return _jet_matvec(series_rows, xs)

    return Flow(Space(n), evaluate, {"kind": "matrix exponential"})


# -- flows as maps, generators, laws -------------------------------------------


def flow_smooth_map(flow: Flow) -> SmoothMap:
    """The flow as a map C x M -> M, so the kernel can differentiate it."""
    n = flow.space.dim

    def ev(xs):
        return flow.evaluate(xs[0], xs[1:])

    return SmoothMap(Space(1 + n), flow.space, ev, name="flow")


def time_derivative(evaluate, t, xs):
    """Values and d/dt of a jet-polymorphic ``evaluate(t, xs)``.

    Time gets a fresh outermost jet level and the state is lifted as
    constant in that direction.  ``t`` and ``xs`` are used as given (no
    float coercion), so nested jets ride along below the time level.
    """
    (time,) = open_level([t], [1.0])
    return close_level(evaluate(time, open_level(xs, repeat(0.0))))


def generator(flow: Flow) -> VectorField:
    """The derivative of the flow at time 0, by one jet evaluation."""

    def ev(xs):
        return time_derivative(flow.evaluate, 0.0, xs)[1]

    return VectorField(flow.space, SmoothMap(flow.space, flow.space, ev, name="gen"))


def sigma_flow(cfg: IntegratorConfig = DEFAULT_CONFIG) -> Flow:
    """The flow of the unit field on C; numerically this is addition."""
    return flow_of(curve().c1, cfg)


def eta(cfg: IntegratorConfig = DEFAULT_CONFIG) -> SmoothMap:
    """Time reversal: the solution of the negated unit field from 0,
    numerically t -> -t (computed through the integrator)."""
    space = Space(1)
    neg_unit = VectorField(
        space, SmoothMap(space, space, lambda xs: [-1.0], name="neg_unit")
    )

    def ev(xs):
        return _integrate_field(neg_unit.vhat, xs[0], [0.0], cfg)

    return SmoothMap(space, space, ev, name="eta")


def reverse(flow: Flow, cfg: IntegratorConfig = DEFAULT_CONFIG) -> Flow:
    """Run a flow backwards: (t, x) -> flow(eta(t), x); solves the negated field."""
    eta_map = eta(cfg)

    def evaluate(t, xs):
        return flow.evaluate(eta_map([t])[0], xs)

    return Flow(flow.space, evaluate, {"kind": "reversed", "of": flow.provenance})


def _cached_float_flow(flow: Flow):
    """Memoized evaluation for all-float arguments (pure, so this is safe)."""
    memo: dict = {}

    def call(t, xs):
        if not any(map(jet_depth, [t, *xs])):
            key = (float(t), tuple(float(x) for x in xs))
            got = memo.get(key)
            if got is None:
                got = flow.evaluate(t, list(xs))
                memo[key] = got
            return list(got)
        return flow.evaluate(t, list(xs))

    return call


def flow_laws(
    flow: Flow,
    samples=None,
    tol: float = FLOW_TOL,
    times: Sequence[float] = LAW_GRID_TIMES,
    seed: int = DEFAULT_SEED,
) -> list[LawCheck]:
    """The four flow laws, each with its max residual:

    L1 unit: flow(0, x) = x.
    L2 action: flow(t, flow(s, x)) = flow(t+s, x).
    L3 own invariance: the generator is invariant under its own flow,
       D_x flow(t, x) vhat(x) = vhat(flow(t, x)).
    L4 equation of variation: the x-derivative of the flow is itself a flow
       on TM solving the lifted field.
    """

    n = flow.space.dim
    if samples is None:
        samples = sample_points(n, count=LAW_GRID_SAMPLES, seed=seed)
    ev = _cached_float_flow(flow)
    gen = generator(flow)
    lifted = tangent_lift(gen)
    fmap = flow_smooth_map(flow)
    tfmap = tangent(fmap)

    # L4: gammaT(t, (x, v)) := (flow(t, x), D_x flow(t, x) v) must satisfy
    # the unit law and solve the lifted field on TM.
    def gamma_t(t, xv):
        return tfmap.evaluator([t] + list(xv[:n]) + [0.0] + list(xv[n:]))

    def variation(*case):
        if len(case) == 1:  # the unit law, at t = 0
            return gap(gamma_t(0.0, case[0]), case[0])
        # d/dt of gamma_t vs the lifted field at the flowed point
        at, rates = time_derivative(gamma_t, *case)
        return gap(rates, lifted.vhat(at))

    tm_samples = sample_points(2 * n, count=max(4, len(samples) // 2), seed=seed + 1)
    return [
        law_check("flow-unit", zip(samples), lambda x: gap(ev(0.0, x), x), tol, seed),
        law_check(
            "flow-action",
            product(times, times, samples),
            lambda t, s, x: gap(ev(t, ev(s, x)), ev(t + s, x)),
            tol,
            seed,
        ),
        _invariance_check(gen, ev, samples, times, tol, seed, "flow-own-invariance"),
        law_check(
            "flow-equation-of-variation",
            chain(zip(tm_samples), product(times, tm_samples)),
            variation,
            tol,
            seed,
        ),
    ]


def _flow_for(v: VectorField, cfg: IntegratorConfig) -> Flow:
    if isinstance(v, LinearVectorField):
        return linear_flow(v.matrix)
    return flow_of(v, cfg)


def commuting_flows_check(
    v1: VectorField,
    v2: VectorField,
    samples=None,
    tol: float = FLOW_TOL,
    times: Sequence[float] = LAW_GRID_TIMES,
    seed: int = DEFAULT_SEED,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
) -> list[LawCheck]:
    """The four equivalent conditions for a commuting pair, all sampled:
    flow interchange, field commutation, and invariance each way."""

    if v1.space != v2.space:
        raise ShapeError("fields must share a space")
    n = v1.space.dim
    if samples is None:
        samples = sample_points(n, count=LAW_GRID_SAMPLES, seed=seed)
    f1 = _cached_float_flow(_flow_for(v1, cfg))
    f2 = _cached_float_flow(_flow_for(v2, cfg))

    interchange = law_check(
        "flow-interchange",
        product(times, times, samples),
        lambda t, s, x: gap(f1(t, f2(s, x)), f2(s, f1(t, x))),
        tol,
        seed,
    )

    comm = commutes(v1, v2, samples=samples, tol=min(tol, JET_TOL), seed=seed)
    inv12 = _invariance_check(v1, f2, samples, times, tol, seed, "field1-invariant")
    inv21 = _invariance_check(v2, f1, samples, times, tol, seed, "field2-invariant")
    return [interchange, comm, inv12, inv21]


def _invariance_check(v, flow_eval, samples, times, tol, seed, law):
    """V invariant under the flow: D_x gamma(t, x) vhat(x) = vhat(gamma(t, x))."""

    def residual(t, x):
        vx = [primal_value(a) for a in v.vhat(x)]
        at, rates = close_level(flow_eval(t, open_level(x, vx)))
        return gap(rates, v.vhat([primal_value(p) for p in at]))

    return law_check(law, product(times, samples), residual, tol, seed)


def sum_flow(
    v1: VectorField,
    v2: VectorField,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
    tol: float = FLOW_TOL,
    seed: int = DEFAULT_SEED,
) -> Flow:
    """The flow of the sum of a commuting pair: run one flow, then the other
    for the same time.  Raises :class:`NonCommutingFields` when the
    commutation precondition fails."""

    check = commutes(v1, v2, tol=JET_TOL, seed=seed)
    if not check.passed:
        raise NonCommutingFields(check)
    g1 = _flow_for(v1, cfg)
    g2 = _flow_for(v2, cfg)

    def evaluate(t, xs):
        return g2.evaluate(t, g1.evaluate(t, xs))

    return Flow(v1.space, evaluate, {"kind": "sum", "of": [g1.provenance, g2.provenance]})


# -- higher order, geodesics, time dependence ----------------------------------


def holonomic_jet(derivatives: Sequence[Sequence[float]]) -> list:
    """Embed successive curve derivatives (y, y', ..., y^(k)) as an element
    of T^k M: the iterated-jet coordinates of the curve they define.  For
    k = 1 this is just (y, y'); for k = 2 it is (y, y', y', y'')."""
    if len(derivatives) == 1:
        return list(derivatives[0])
    return holonomic_jet(derivatives[:-1]) + holonomic_jet(derivatives[1:])


def _check_section_conditions(
    system: DynamicalSystem, tol: float = JET_TOL, seed: int = DEFAULT_SEED
) -> None:
    """An order-n field must project to the identity under p, T(p), ...,
    T^(n-1)(p).  For n >= 3 the conditions are only jointly satisfiable on
    holonomic jets (which is where solutions live), so that locus is what
    gets sampled."""
    n = system.order
    d = system.space.dim
    full = system.vector_field.full_map
    pts = [
        holonomic_jet([row[i * d : (i + 1) * d] for i in range(n)])
        for row in sample_points(n * d, count=10, seed=seed)
    ]
    for k in range(n):
        proj = structural_map("p", Space(d * 2 ** (n - 1 - k)))
        for _ in range(k):
            proj = tangent(proj)
        candidate = compose(full, proj)
        worst, _ = worst_case(zip(pts), lambda x: gap(candidate(x), x))
        if not worst <= tol:
            raise ShapeError(
                f"order-{n} section condition failed for T^{k}(p): residual {worst:.3e}"
            )


def solve_nth_order(
    system: DynamicalSystem,
    t,
    x0: Sequence,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
) -> list:
    """Solve an order-n system by integrating the first-order system on
    T^(n-1)M and projecting back down with p, n-1 times.

    ``x0`` (or the image of the initial map) must be an element of
    T^(n-1)M; for n >= 3 that means a holonomic jet (see
    :func:`holonomic_jet`), since that is where solutions live.
    """
    _check_section_conditions(system)
    y0 = list(x0)
    if system.initial_map is not None:
        y0 = system.initial_map(y0)
    y = _integrate_field(system.vector_field.vhat, t, y0, cfg)
    for _ in range(system.order - 1):
        y = y[: len(y) // 2]
    return y


def _geodesic_field(conn: Connection) -> VectorField:
    """The geodesic field (x, u) -> (u, -gamma(x, u)) on TM, once gamma is
    checked to be quadratic in u."""
    q = conn.quadratic_check()
    if not q.passed:
        raise ShapeError(
            f"christoffel map is not quadratic in u: residual {q.max_residual:.3e}"
        )
    n = conn.base_dim
    tm = Space(2 * n)

    def ev(xs):
        x, u = xs[:n], xs[n:]
        g = conn.gamma(list(x) + list(u))
        return list(u) + [-gi for gi in g]

    return VectorField(tm, SmoothMap(tm, tm, ev, name="geodesic"))


def geodesic_flow(conn: Connection, cfg: IntegratorConfig = DEFAULT_CONFIG) -> Flow:
    """The geodesic field (x, u) -> (u, -gamma(x, u)) integrated on TM."""
    flow = flow_of(_geodesic_field(conn), cfg)
    return Flow(flow.space, flow.evaluate, {**flow.provenance, "connection": conn})


def acceleration_residual(
    flow: Flow,
    samples: Sequence[Sequence[float]],
    times: Sequence[float] = (0.25, 0.5, 1.0, 1.5, 2.0),
) -> float:
    """Max of |u' + gamma(x, u)| along flowed trajectories; zero for a
    geodesic flow of the stored connection."""
    conn = flow.provenance.get("connection")
    if conn is None:
        raise ValueError("flow has no connection metadata")
    n = conn.base_dim

    def residual(start, t):
        state, rates = time_derivative(flow.evaluate, t, start)
        g = conn.gamma([primal_value(v) for v in state])
        return gap(rates[n:], [-primal_value(gi) for gi in g])

    return worst_case(product(samples, times), residual)[0]


def augment_time(spec: dsl.FieldSpec) -> DynamicalSystem:
    """Make a time-dependent field autonomous on M x R: append a clock
    coordinate whose component is constantly 1.  The first block of the
    solution recovers the non-autonomous solution; the clock recovers t."""
    if not spec.time_dependent:
        raise ValueError("augment_time expects a time-dependent field spec")
    n = spec.arity
    if spec.n_components != n:
        raise ShapeError(f"a field on R^{n} needs {n} components, got {spec.n_components}")
    compiled = dsl.compile_spec(spec)  # inputs (x1..xn, t)
    aug = Space(n + 1)

    def ev(xs):
        return list(compiled.evaluator(list(xs))) + [1.0]

    vf = VectorField(aug, SmoothMap(aug, aug, ev, name="augmented"))
    embed = SmoothMap(Space(n), aug, lambda xs: list(xs) + [0.0], name="clock0")
    return DynamicalSystem(aug, vf, initial_map=embed)
