"""Dynamical systems and their solutions over the curve C = R.

Generic systems are integrated with an adaptive Dormand-Prince RK45 pair (a
fixed-step RK4 is available for jet-heavy runs); linear systems get exact
flows through the matrix exponential.  Both the time and the state arguments
of every flow are jet-polymorphic: integration is performed on the rescaled
system dy/ds = t * vhat(y) over s in [0, 1], so a jet value of t rides
through the same arithmetic as the state and step-size selection is frozen
to primal values.  The derivative a jet extracts is therefore the derivative
of the numerical map actually computed.

Each decision of a solve has one owner.  :func:`_trajectory` alone reads
a solve's jet levels: it flattens the start state and unflattens the states
(:mod:`jets`' codec), and passes a field's flat kernel as ``rhs`` itself, or
else calls the field through one closure, in one widening of its state, time
and closure levels.  :func:`_integrate_scaled` alone picks the loop: RK4, or
an RK45 loop in the list form for a state of more than ``_GENERATED_MAX_N``
entries, else unrolled, fused with a dsl kernel's code of at most
``_FUSED_MAX_LINES`` operations or calling ``rhs`` at each stage.
:func:`_dp_loop` alone writes the RK45 loops, every form from the same
templates, so all give the same bits, and :func:`jets._compiled` compiles
them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import chain, product, repeat
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:
    import numpy as np

from .fields import (
    FLOW_TOL,
    JET_TOL,
    LawCheck,
    LinearVectorField,
    VectorField,
    _check_field_spec,
    _matvec,
    commutes,
    gap,
    law_check,
    tangent_lift,
    worst_case,
)
from .jets import (
    _KERNEL_NAMES,
    _FlatCode,
    _compiled,
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
    _block_map,
    _composite,
    _flat_kernel,
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
    "StateNormExceeded",
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

    def __init__(self, t_reached: float, cause: str = "step size collapse"):
        self.t_reached = t_reached
        super().__init__(f"{cause} near t={t_reached:.3f}")


class StateNormExceeded(StepSizeCollapse):
    """The state's norm passed the integrator's limit: a blow-up that no
    collapsed step signalled."""

    def __init__(self, t_reached: float):
        super().__init__(t_reached, f"state norm above {_STATE_NORM_LIMIT:g}")


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

    def __post_init__(self):
        if self.method not in ("rk45", "rk4"):
            raise ValueError(f"method must be 'rk45' or 'rk4', got {self.method!r}")
        # type, not isinstance: a bool is an int, but True is no step budget
        if type(self.max_steps) is not int or self.max_steps < 1:
            raise ValueError(f"max_steps must be an int of at least 1, got {self.max_steps!r}")
        # Checked whatever the method, as the tolerances are.
        if not 0.0 < self.h < math.inf:
            raise ValueError(f"rk4 step h must be finite and positive, got {self.h!r}")
        # abs_tol > 0 keeps the error ratio's denominator positive at a zero
        # state; a negative or infinite tolerance would accept every step.
        if not 0.0 < self.abs_tol < math.inf:
            raise ValueError(f"abs_tol must be finite and positive, got {self.abs_tol!r}")
        if not 0.0 <= self.rel_tol < math.inf:
            raise ValueError(f"rel_tol must be finite and non-negative, got {self.rel_tol!r}")

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
        vf = VectorField(Space(spec.arity), dsl.compile_spec(_check_field_spec(spec)))
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

    @classmethod
    def from_expr(cls, text: str, dim: int) -> "Flow":
        """The flow of a closed form: ``text`` gives its ``dim`` components
        in ``x1..xn`` and ``t``, which the expression takes last (layout
        rule 9), while the flow takes ``(t, x)``.  Its ``evaluate`` carries
        the map ``(t, x) -> flow(t, x)`` (``smooth_map``, a block map that
        puts the time last, then the compiled spec), whose rule makes the
        flow's :func:`generator` one kernel."""
        field = dsl.compile_spec(_check_field_spec(dsl.parse(text, dim, time_dependent=True)))

        def evaluate(t, xs):
            return field([*xs, t])

        evaluate.smooth_map = compose(_block_map("time_last", (1, dim), (1, 0)), field)
        return cls(Space(dim), evaluate, {"kind": "exact closed form"})


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
    c1 = VectorField(space, _block_map("unit_field", (1,), ([1.0],)))
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
_JET_PRIMAL = "the field's primal values turned from floats into jets mid-solve"
_MIN_STEP = 1e-14


def _dp_terms(row: tuple) -> list:
    """``(column, value)`` of each nonzero entry of a tableau row, columns
    counted from 1."""
    return [(j, c) for j, c in enumerate(row, 1) if c]


# The nonzero weights of stage states 2..6, of the new state (b) and of the
# error estimate (e), which the generated loop writes as literals: repr
# gives each float back exactly.
_DP_STAGES = [_dp_terms(row) for row in _DP_A[1:]]
_DP_ERROR = _dp_terms(_DP_E)

# The caps _integrate_scaled applies: a flat state of at most
# _GENERATED_MAX_N entries steps in the unrolled loop, fused with its
# kernel's code of at most _FUSED_MAX_LINES operations (which the loop
# repeats six times); a longer one in the list form.  The most recently
# used _LOOPS_KEPT loops are kept.
_GENERATED_MAX_N = 64
_FUSED_MAX_LINES = 256
_LOOPS_KEPT = 128

# The step-size factors of the standard controller (Hairer, Norsett and
# Wanner, Solving ODEs I, II.4) for f = 0.9 * err**-0.2: after an accepted
# step min(5.0, max(0.2, f)), after a rejected one max(0.2, f), written as
# conditional expressions with the same value for every f, NaN (0.2)
# included, and no call.
_GROW = "f if 0.2 < f < 5.0 else 5.0 if f >= 5.0 else 0.2"
_SHRINK = "f if f > 0.2 else 0.2"


def _stage_sum(terms: list, y: str, k) -> str:
    """An entry of a stage state: ``y`` plus the weighted entries ``k(j)``
    of the earlier stages, summed left to right."""
    return " + ".join([y, *(f"w{j} * {k(j)}" for j, _ in terms)])


def _error_lines(i, new: str, k) -> list:
    """Fold one primal's error ratio into ``err``, with its new |y| bound
    to ``an{i}``.  NaN sticks, so h shrinks until it collapses."""
    e = " + ".join(f"{c!r} * {k(j)}" for j, c in _DP_ERROR)
    return [
        f"an{i} = abs({new})",
        f"e = {e}",
        f"ratio = abs(e * h_step) / (abs_tol + rel_tol * (an{i} if an{i} > ay{i} else ay{i}))",
        "if ratio > err or ratio != ratio:",
        "  err = ratio",
    ]


@functools.lru_cache(maxsize=_LOOPS_KEPT)
def _dp_loop(n: int | None, primals: int, code: _FlatCode | None = None):
    """The Dormand-Prince loop of the form :func:`_integrate_scaled` picks,
    written out as code for a flat state whose first ``primals`` entries are
    float primal values.  Every form writes each entry of a stage sum and
    each primal's error lines from the same templates (:func:`_stage_sum`,
    :func:`_error_lines`), around the same controller, so all give the same
    bits; a jet among the primals fails ``abs`` in the error block, which
    ends in a ShapeError.  The controller calls nothing, and an accepted
    step whose new state has a primal above ``_STATE_NORM_LIMIT``, or NaN,
    raises StateNormExceeded.

    With ``n`` the loop is unrolled for ``n`` entries, each a local (``y0``,
    ``k2_0``, ``ay0``, ...), and a stage unpacks ``rhs(stage state,
    scale)``; given the ``code`` of ``rhs`` (:class:`jets._FlatCode`),
    stages 2 to 7 run its lines on the stage sums instead, and the loop
    binds ``rhs.cells`` and ``scale`` on entry.  The code names the cells
    and holds no value, so fields that differ only in their constants share
    one loop.  With ``n`` None the loop is the list form, for a state of any
    length, whose stage states are comprehensions."""
    if n is None:
        new = ["y_new"]
    else:
        y = [f"y{i}" for i in range(n)]
        new = [f"n{i}" for i in range(n)]
        k = [[f"k{stage}_{i}" for i in range(n)] for stage in range(1, 8)]
    step = []
    for stage, terms in enumerate(_DP_STAGES, 2):
        step += [f"w{j} = h_step * {c!r}" for j, c in terms]
        if n is None:  # one comprehension over the whole state
            ps = ", ".join(f"p{j}" for j, _ in terms)
            ks = ", ".join(f"k{j}" for j, _ in terms)
            sums = [f"[{_stage_sum(terms, 'yi', 'p{}'.format)} for yi, {ps} in zip(y, {ks})]"]
        else:
            sums = [_stage_sum(terms, y[i], f"k{{}}_{i}".format) for i in range(n)]
        if stage == 7:  # the 7th stage state is the new state (FSAL)
            step += [f"{v} = {total}" for v, total in zip(new, sums)]
            sums = new
        if n is None:
            step.append(f"k{stage} = rhs({sums[0]}, scale)")
        elif code is None:
            step.append(f"[{', '.join(k[stage - 1])}] = rhs([{', '.join(sums)}], scale)")
        else:
            step += [f"{a} = {b}" for a, b in zip(code.inputs, sums)]
            step += code.lines
            step += [f"{a} = {b}" for a, b in zip(k[stage - 1], code.outputs)]
    names = dict(
        MaxStepsExceeded=MaxStepsExceeded,
        StepSizeCollapse=StepSizeCollapse,
        StateNormExceeded=StateNormExceeded,
        ShapeError=ShapeError,
    )
    limit = repr(_STATE_NORM_LIMIT)
    if n is None:
        ps = ", ".join(f"p{j}" for j, _ in _DP_ERROR)
        ks = ", ".join(f"k{j}" for j, _ in _DP_ERROR)
        lines = [
            "norm = 0.0",
            "new_abs = []",
            f"for ay, yn, {ps} in zip(y_abs, y_new, {ks}):",
            *(f"  {line}" for line in _error_lines("", "yn", "p{}".format)),
            "  if an > norm or an != an:",  # NaN sticks
            "    norm = an",
            "  new_abs.append(an)",
        ]
        accept = [("y", "y_new"), ("y_abs", "new_abs"), ("k1", "k7")]
        bounded = f"norm <= {limit}"
        entry = [f"y_abs = [abs(v) for v in y[:{primals}]]"]
        label, state = f"list loop {primals}", "y"
    else:
        lines = [ln for i in range(primals) for ln in _error_lines(i, new[i], f"k{{}}_{i}".format)]
        accept = [*zip(y, new), *((f"ay{i}", f"an{i}") for i in range(primals)), *zip(k[0], k[6])]
        bounded = " and ".join(f"an{i} <= {limit}" for i in range(primals))
        entry = [f"[{', '.join(y)}] = y", f"[{', '.join(k[0])}] = k1"]
        if code is not None:
            names.update(_KERNEL_NAMES)
            entry += [f"[{', '.join(code.scale)}] = scale"]
            entry += [f"[{', '.join(code.cells)}] = rhs.cells"]
        entry += [f"ay{i} = abs({y[i]})" for i in range(primals)]
        label = f"{'loop' if code is None else 'fused loop'} {n}/{primals}"
        state = f"[{', '.join(y)}]"
    step += [
        "err = 0.0",
        "try:",
        *(f"  {line}" for line in lines or ["pass"]),
        "except TypeError:",
        f"  raise ShapeError({_JET_PRIMAL!r}) from None",
        "if err <= 1.0:",
        "  s = target if clipped else s + h_step",
        *(f"  {a} = {b}" for a, b in accept),
        *([f"  if not ({bounded}):", "    raise StateNormExceeded(s * t_unit)"] if bounded else []),
        "  if not clipped:",
        "    f = 5.0 if err == 0.0 else 0.9 * err**-0.2",
        f"    h = h_step * ({_GROW})",
        "else:",
        "  f = 0.9 * err**-0.2",
        f"  h = h_step * ({_SHRINK})",
    ]
    head = [
        "s = 0.0",
        "h = 0.01",
        "steps = 0",
        "states = []",
        "for target in outputs:",
        "  while s < target:",
        "    if steps >= max_steps:",
        "      raise MaxStepsExceeded(s * t_unit, max_steps)",
        "    steps += 1",
        f"    if h < {_MIN_STEP!r} or h - h != 0.0:  # too small, inf or NaN",
        "      raise StepSizeCollapse(s * t_unit)",
        "    clipped = h >= target - s",
        "    h_step = (target - s) if clipped else h",
    ]
    # a generator, so no indented copy of the step is alive while it compiles
    indented = (f"    {line}" for line in step)
    body = chain(entry, head, indented, [f"  states.append({state})", "return states"])
    signature = "loop(rhs, y, k1, t_unit, outputs, abs_tol, rel_tol, max_steps, scale)"
    return _compiled(f"<rk45 {label}>", names, signature, body)(**names)


def _axpy(y, h, k):
    return [yi + h * ki for yi, ki in zip(y, k)]


def _misfit(n: int) -> ShapeError:
    return ShapeError(f"the field's value does not fit its {n}-dimensional state")


def _widened(rhs, levels: int, y: list, scale) -> list:
    """``rhs`` on towers as ``rhs`` on a flat state of ``levels`` levels: the
    one codec boundary :func:`_trajectory` puts round a called field."""
    return flatten_levels(rhs(unflatten_levels(y, levels), scale), levels)


def _integrate_scaled(
    rhs,
    y0: list,
    cfg: IntegratorConfig,
    t_unit: float,
    outputs,
    primals: int,
    scale: Sequence = (),
    k1: list | None = None,
) -> list:
    """Integrate dy/ds = rhs(y, scale) over s in [0, 1]; the flat states at ``outputs``.

    ``outputs`` is a sorted tuple of fractions in [0, 1].  A step that would
    pass the next output fraction is clipped to land on it exactly (as the
    last step lands on 1), so each state is a step's end point: there is no
    interpolation.  The FSAL stage, the carried |y| and the step size carry
    across output points; after a clipped step the controller resumes from
    the step it proposed before the clip, so landing on a close output point
    does not shrink the steps after it.  With ``(1.0,)`` this is the plain
    solve to s = 1.

    The loop runs on floats: ``y0``, the first stage ``k1`` (evaluated here
    when none is given), every ``rhs`` output and every state returned are
    flat lists of jet-tower coefficients, level by level, whose first
    ``primals`` entries are the primal values; only :func:`_trajectory`
    crosses the codec (:func:`jets.flatten_levels`).  Stage sums taken
    coefficient by coefficient are exactly the jet sums, and the controller
    reads the primals alone, so derivative coefficients ride along without
    steering.  ``t_unit`` is the primal value of the solve's time, used
    only to convert the reached fraction back to time units in errors (and
    by RK4 to size its steps).  ``rhs`` is called as ``rhs(y, scale)``,
    the contract of a flat kernel (``scale`` the time's flat coefficients),
    so a kernel is passed as ``rhs`` itself; it must give one value per
    entry of ``y``: none of the loops checks.

    The one place that picks the loop: RK4 steps in :func:`_rk4_fixed`;
    RK45 in a loop :func:`_dp_loop` writes, the list form for a state of
    more than ``_GENERATED_MAX_N`` entries, else the unrolled form, fused
    with ``rhs.code`` (a dsl kernel's, :class:`jets._FlatCode`) when that
    holds at most ``_FUSED_MAX_LINES`` operations, and calling ``rhs`` at
    each stage otherwise.  All run the same float operations in the same
    order.
    """

    y = list(y0)
    k1 = rhs(y, scale) if k1 is None else k1
    if cfg.method == "rk4":
        return _rk4_fixed(rhs, y, k1, cfg, t_unit, outputs, primals, scale)
    code = getattr(rhs, "code", None)
    if len(y) > _GENERATED_MAX_N:
        loop = _dp_loop(None, primals)
    elif code is not None and code.operations <= _FUSED_MAX_LINES:
        loop = _dp_loop(len(y), primals, code)
    else:
        loop = _dp_loop(len(y), primals)
    return loop(rhs, y, k1, t_unit, outputs, cfg.abs_tol, cfg.rel_tol, cfg.max_steps, scale)


def _rk4_fixed(
    rhs, y, k1, cfg: IntegratorConfig, t_unit: float, outputs, primals: int, scale
) -> list:
    """Classical RK4 on the flat lists of :func:`_integrate_scaled`, from
    ``y`` and its first stage ``k1``; each interval between output fractions
    takes ceil(interval length in time units / cfg.h) equal steps, where
    ``t_unit`` is one unit of s in time units, and the steps of all
    intervals together must not exceed cfg.max_steps.  Its state-norm check
    reads float primals only: a jet among them is a ShapeError, as in the
    RK45 loops."""
    span = abs(t_unit)
    intervals = list(zip((0.0, *outputs), outputs))
    # Compared as floats before ceil: span * width / h may be inf.
    counts = [span * (target - s) / cfg.h for s, target in intervals]
    counts = [max(1, math.ceil(c)) if c <= cfg.max_steps else c for c in counts]
    if sum(counts) > cfg.max_steps:
        raise MaxStepsExceeded(0.0, cfg.max_steps)
    states = []
    for (s, target), steps in zip(intervals, counts):
        width = target - s
        h = width / steps
        for i in range(steps):
            if k1 is None:
                k1 = rhs(y, scale)
            k2 = rhs(_axpy(y, h / 2, k1), scale)
            k3 = rhs(_axpy(y, h / 2, k2), scale)
            k4 = rhs(_axpy(y, h, k3), scale)
            y = [
                yi + (h / 6) * (a + 2 * b + 2 * c + d)
                for yi, a, b, c, d in zip(y, k1, k2, k3, k4)
            ]
            k1 = None
            try:
                norms = [abs(v) for v in y[:primals]]
            except TypeError:
                raise ShapeError(_JET_PRIMAL) from None
            if not all(a <= _STATE_NORM_LIMIT for a in norms):
                raise StateNormExceeded((s + (i + 1) / steps * width) * t_unit)
        states.append(y)
    return states


def _trajectory(
    vhat: SmoothMap, t, xs: Sequence, steps: int, cfg: IntegratorConfig
) -> list:
    """The states of y' = vhat(y), y(0) = xs, at the times t * k / steps for
    k = 0..steps, from one integration pass (t and xs may be jets); an xs
    of the wrong length, or a vhat that is not a map R^n -> R^n, is a
    ShapeError before any evaluation.

    The one owner of a solve's jet levels: it reads them, flattens the start
    state once for :func:`_integrate_scaled`, which it gives the primal
    value of t, and unflattens each state once.  A field that carries flat
    kernels (see :mod:`kernel`: a dsl field, a block map, a linear field,
    and their composites and tangents, a closed-form flow's generator and
    the geodesic field of a gamma that carries kernels), looked up through
    ``_flat_kernel``, gives ``t * vhat`` as its flat kernel for D, the
    depth of the deepest jet among t and xs, which is the loop's ``rhs``
    itself, whatever loop :func:`_integrate_scaled` picks.  Any other
    evaluator is called on towers (``t * vhat`` in jet arithmetic) through
    the closure ``rhs(y, scale)``, which checks each value's length and has
    no use for ``scale``, wrapped in one widening (:func:`_widened`) at D
    or, when a jet it closes over is deeper, at its first stage's depth; it
    joins levels by position, as jet arithmetic does.  Both give the same
    bits."""
    xs = list(xs)
    n = vhat.domain.dim
    if len(xs) != n:
        raise ShapeError(f"a field on R^{n} needs a start state of {n} entries, got {len(xs)}")
    if vhat.codomain.dim != n:
        raise ShapeError(f"a field on R^{n} needs values in R^{n}, not R^{vhat.codomain.dim}")
    t_unit = primal_value(t)
    if not math.isfinite(t_unit):
        raise ValueError("integration time must be finite")
    depth = max(map(jet_depth, [t, *xs]))
    if t == 0.0 and not depth:
        return [xs] * (steps + 1)
    outputs = tuple(k / steps for k in range(1, steps + 1))
    kernel = _flat_kernel(vhat, depth)
    if kernel is None:

        def rhs(y, scale):
            k = [t * v for v in vhat.evaluator(list(y))]
            if len(k) != n:  # zip would cut the longer of state and value short
                raise _misfit(n)
            return k

        scale = ()
        k1 = rhs(xs, scale)
        levels = max([depth, *map(jet_depth, k1)])
        if levels:  # jets of the state, the time and the closure join the flat state
            rhs = functools.partial(_widened, rhs, levels)
            k1 = flatten_levels(k1, levels)
        y0 = flatten_levels(xs, levels) if levels else xs
    else:
        levels, scale, y0 = depth, flatten_levels([t], depth), flatten_levels(xs, depth)
        rhs, k1 = kernel, kernel(y0, scale)
        if len(k1) != n * len(scale):  # a map that misstates its codomain
            raise _misfit(n)
    states = _integrate_scaled(rhs, y0, cfg, t_unit, outputs, n, scale, k1)
    return [xs] + [unflatten_levels(y, levels) for y in states]


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
    import numpy as np

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


def _series_rows(E0, A, depth: int) -> list:
    """The matrices ``E0 A^k / k!`` for ``k = 0..depth``, as rows of Python
    floats with the bits of numpy's."""
    mats = [E0]
    fact = 1.0
    power = A
    for k in range(1, depth + 1):
        fact *= k
        mats.append((E0 @ power) / fact)
        if k < depth:
            power = power @ A
    return [m.tolist() for m in mats]


def linear_flow(A) -> Flow:
    """The exact flow t -> expm(tA) of a linear field.

    Float times go through a per-flow, size-bounded memo of expm(tA).  A jet
    time t is split as primal + nilpotent part d; expm(tA) = expm(t0 A) *
    sum_k (dA)^k / k! truncated at the jet depth, which is exact.  The
    series matrices are kept per ``(t0, depth)`` in a second bounded memo,
    as Python floats: a numpy scalar in jet arithmetic costs several times
    a float.
    """
    import numpy as np

    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError("linear_flow needs a square matrix")
    n = A.shape[0]

    @functools.lru_cache(maxsize=1024)
    def expm_at(t0: float) -> np.ndarray:
        return expm(t0 * A)

    @functools.lru_cache(maxsize=256)
    def series_at(t0: float, depth: int) -> list:
        return _series_rows(expm_at(t0), A, depth)

    def evaluate(t, xs):
        xs = list(xs)
        if len(xs) != n:  # zip in _matvec would cut a longer state short
            raise ShapeError(f"a field on R^{n} needs a start state of {n} entries, got {len(xs)}")
        depth = jet_depth(t)
        if depth == 0:
            return _matvec(expm_at(primal_value(t)).tolist(), xs)
        mats = series_at(primal_value(t), depth)
        d = t - primal_value(t)  # nilpotent at the jet level of t
        dk = [1.0]
        for k in range(1, depth + 1):
            dk.append(dk[-1] * d)
        # rows of E0 (I + dA + d^2 A^2/2 + ...) with jet-scalar entries
        series_rows = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = mats[0][i][j]
                for k in range(1, depth + 1):
                    acc = acc + dk[k] * mats[k][i][j]
                row.append(acc)
            series_rows.append(row)
        return _matvec(series_rows, xs)

    return Flow(Space(n), evaluate, {"kind": "matrix exponential"})


# -- flows as maps, generators, laws -------------------------------------------


def flow_smooth_map(flow: Flow) -> SmoothMap:
    """The flow as a map C x M -> M, so the kernel can differentiate it:
    the map a closed-form flow's ``evaluate`` carries (:meth:`Flow.from_expr`),
    with its rule, or else one that calls ``evaluate``."""
    fmap = getattr(flow.evaluate, "smooth_map", None)
    if fmap is not None:
        return fmap
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
    """The derivative of the flow at time 0: the direction block of the
    tangent of :func:`flow_smooth_map` at ``(0.0, x)`` in the direction
    ``(1.0, 0.0, ..., 0.0)``.  The state's directions are the constant 0.0,
    not absent, as :func:`time_derivative` opens the state with them.  Of a
    closed-form flow (:meth:`Flow.from_expr`) the field carries the flow
    map's rule one level deeper and solves on one kernel; of any other flow
    (a hand-written ``evaluate``, or one a wrapper replaced) it is one jet
    evaluation, the bits of :func:`time_derivative` at time 0."""
    n = flow.space.dim
    at_time_zero = _block_map("at_time_0", (n,), ([0.0], 0, [1.0], [0.0] * n))
    rate = _block_map("rate", (n, n), (1,))
    fmap = flow_smooth_map(flow)
    return VectorField(flow.space, compose(compose(at_time_zero, tangent(fmap)), rate))


def sigma_flow(cfg: IntegratorConfig = DEFAULT_CONFIG) -> Flow:
    """The flow of the unit field on C; numerically this is addition."""
    return flow_of(curve().c1, cfg)


def eta(cfg: IntegratorConfig = DEFAULT_CONFIG) -> SmoothMap:
    """Time reversal: the solution of the negated unit field from 0,
    numerically t -> -t (computed through the integrator)."""
    space = Space(1)
    neg_unit = VectorField(space, _block_map("neg_unit", (1,), ([-1.0],)))

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
    tol: float = JET_TOL,
    seed: int = DEFAULT_SEED,
) -> Flow:
    """The flow of the sum of a commuting pair: run one flow, then the other
    for the same time.  Raises :class:`NonCommutingFields` when the
    commutation precondition fails at ``tol``."""

    check = commutes(v1, v2, tol=tol, seed=seed)
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
    k = 1 this is just (y, y'); for k = 2 it is (y, y', y', y'').  No
    blocks, or blocks of unequal length, are a ShapeError."""
    jets = [list(block) for block in derivatives]
    if len({len(block) for block in jets}) != 1:
        raise ShapeError(f"a holonomic jet needs blocks of one length: {[len(b) for b in jets]}")
    while len(jets) > 1:  # round r leaves the jet of blocks i..i+r at place i
        jets = [low + high for low, high in zip(jets, jets[1:])]
    return jets[0]


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
    checked to be quadratic in u.  Of a gamma that carries a rule (a dsl or
    block map, or a composite of such maps) it carries the rule ``(u,
    -gamma(x, u))`` and solves on flat kernels; of any other gamma it calls
    gamma."""
    q = conn.quadratic_check()
    if not q.passed:
        raise ShapeError(
            f"christoffel map is not quadratic in u: residual {q.max_residual:.3e}"
        )
    n = conn.base_dim
    tm = Space(2 * n)

    def combine(gamma, w, ins):
        return list(ins[n:]) + [w.neg(g) for g in gamma(list(ins))]

    return VectorField(tm, _composite(tm, tm, "geodesic", "geodesic", (conn.gamma,), combine))


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
    n = _check_field_spec(spec).arity
    # the clock is one more compiled component; inputs (x1..xn, t) are the state
    clocked = dsl.FieldSpec(n, spec.components + (dsl.Num(1.0),), time_dependent=True)
    aug = Space(n + 1)
    vf = VectorField(aug, dsl.compile_spec(clocked))
    embed = _block_map("clock0", (n,), (0, [0.0]))
    return DynamicalSystem(aug, vf, initial_map=embed)
