import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tangentkit import dsl, dynamics, jets, kernel
from tangentkit.dynamics import (
    Connection,
    DynamicalSystem,
    Flow,
    IntegratorConfig,
    MaxStepsExceeded,
    NonCommutingFields,
    StateNormExceeded,
    StepSizeCollapse,
    _integrate_scaled,
    _trajectory,
    acceleration_residual,
    augment_time,
    commuting_flows_check,
    curve,
    eta,
    expm,
    flow_laws,
    flow_of,
    flow_smooth_map,
    generator,
    geodesic_flow,
    holonomic_jet,
    integrate,
    linear_flow,
    reverse,
    sigma_flow,
    solve_nth_order,
    sum_flow,
    time_derivative,
)
from tangentkit.fields import (
    FLOW_TOL,
    LinearVectorField,
    VectorField,
    euler_space_field,
    matrix_of,
    product_vf,
    rotation_field,
    zero_field,
)
from tangentkit.jets import ABSENT, EvaluationDomainError, Jet, coefficients, primal_value
from tangentkit.kernel import ShapeError, SmoothMap, Space, tangent
from tangentkit.sampling import sample_points
from tangentkit.verify import (
    euler_closed_flow,
    half_plane_connection,
    rotation_closed_flow,
    run_suite,
    solution_square_residuals,
    tangent_of_solution_residual,
)


def _vals(xs):
    return [primal_value(v) for v in xs]


def euler_system(n=1):
    return DynamicalSystem(Space(n), euler_space_field(Space(n)))


# -- integrate -------------------------------------------------------------------


def test_integrate_euler_reaches_e():
    got = integrate(euler_system(), 1.0, [1.0])
    assert abs(got[0] - math.e) <= 1e-8


def test_integrate_at_time_zero_is_exact():
    sys_rot = DynamicalSystem(Space(2), rotation_field())
    assert integrate(sys_rot, 0.0, [1.25, -0.5]) == [1.25, -0.5]


def test_integrate_applies_initial_map():
    g = SmoothMap(Space(1), Space(1), lambda xs: [2.0 * xs[0]], name="double")
    system = DynamicalSystem(Space(1), euler_space_field(Space(1)), initial_map=g)
    got = integrate(system, 1.0, [1.0])
    assert abs(got[0] - 2.0 * math.e) <= 1e-8


def test_blow_up_raises_step_size_collapse_in_window():
    quad = DynamicalSystem(Space(1), VectorField.from_expr("x1^2", 1))
    with pytest.raises(StepSizeCollapse) as info:
        integrate(quad, 1.0, [1.0])
    assert 0.99 <= info.value.t_reached <= 1.0


def test_integrate_backwards_in_time():
    got = integrate(euler_system(), -1.0, [1.0])
    assert abs(got[0] - math.exp(-1.0)) <= 1e-8


def test_rk4_fixed_step_matches_closed_form():
    cfg = IntegratorConfig(method="rk4", h=1e-3)
    got = integrate(euler_system(), 1.0, [1.0], cfg)
    assert abs(got[0] - math.e) <= 1e-9


@pytest.mark.parametrize("h", [-0.5, 0.0, math.nan, math.inf])
def test_rk4_step_must_be_finite_and_positive(h):
    with pytest.raises(ValueError, match="rk4 step"):
        integrate(euler_system(), 1.0, [1.0], IntegratorConfig(method="rk4", h=h))


@pytest.mark.parametrize("method", ["rk45", "rk4"])
def test_trajectory_lands_on_every_grid_time(method):
    # one pass; row k is the state at t * k / steps
    x0 = [0.6, 0.8]
    states = _trajectory(
        rotation_field().vhat, 2.0, x0, 7, IntegratorConfig(method=method, h=0.01)
    )
    assert len(states) == 8 and states[0] == x0
    for k, state in enumerate(states):
        want = rotation_closed_flow().evaluate(2.0 * k / 7, x0)
        assert max(abs(a - b) for a, b in zip(state, want)) <= FLOW_TOL


@pytest.mark.parametrize("method", ["rk45", "rk4"])
def test_field_with_the_wrong_number_of_values_is_a_shape_error(method):
    # a compiled evaluator in a map that misstates its codomain too: its flat
    # kernel gives the values the evaluator does
    cfg = IntegratorConfig(method=method, h=0.01)
    compiled = [dsl.compile_spec(dsl.parse(text, 2)).evaluator for text in ("x2", "x2; -x1; 1")]
    for values in (lambda xs: [xs[1]], lambda xs: [xs[1], -xs[0], 1.0], *compiled):
        v = VectorField(Space(2), SmoothMap(Space(2), Space(2), values))
        with pytest.raises(ShapeError, match="does not fit its 2-dimensional state"):
            integrate(DynamicalSystem(Space(2), v), 1.0, [1.0, 0.0], cfg)


@pytest.mark.parametrize(
    "field",
    [
        lambda: VectorField.from_expr("x2; -x1", 2),
        lambda: LinearVectorField([[0.0, 1.0], [-1.0, 0.0]]),
        lambda: VectorField(Space(2), SmoothMap(Space(2), Space(2), lambda xs: [xs[1], -xs[0]])),
    ],
    ids=["dsl", "linear", "hand-written"],
)
@pytest.mark.parametrize("state", [[1.0, 2.0, 3.0], [1.0]], ids=["long", "short"])
def test_a_start_state_of_the_wrong_length_is_a_shape_error(field, state):
    # checked before the field is evaluated, whatever the field, and not
    # blamed on the field's value
    message = rf"^a field on R\^2 needs a start state of 2 entries, got {len(state)}$"
    with pytest.raises(ShapeError, match=message):
        flow_of(field())(1.0, state)


@pytest.mark.parametrize("t", [1.0, Jet(1.0, 1.0)], ids=["float-time", "jet-time"])
@pytest.mark.parametrize("state", [[1.0, 2.0, 3.0], [1.0]], ids=["long", "short"])
def test_an_exact_linear_flow_refuses_a_start_state_of_the_wrong_length(t, state):
    # as the integrator does: zip cut the state to fit the matrix, so the
    # short state flowed to [0.540..., -0.841...]
    message = rf"^a field on R\^2 needs a start state of 2 entries, got {len(state)}$"
    with pytest.raises(ShapeError, match=message):
        linear_flow([[0.0, 1.0], [-1.0, 0.0]])(t, state)


@pytest.mark.parametrize(
    "vhat",
    [
        lambda calls: dsl.compile_spec(dsl.parse("x2; -x1; x1 * x2", 2)),
        lambda calls: SmoothMap(
            Space(2), Space(3), lambda xs: calls.append("evaluated") or [xs[1], -xs[0], 1.0]
        ),
    ],
    ids=["dsl", "hand-written"],
)
def test_a_map_into_another_space_is_refused_before_any_evaluation(vhat, monkeypatch):
    # R^2 -> R^3 is no field: refused as a start state of the wrong length
    # is, before a flat kernel is looked up or the evaluator called
    calls, lookup = [], dynamics._flat_kernel
    monkeypatch.setattr(
        dynamics, "_flat_kernel", lambda v, depth: calls.append("looked up") or lookup(v, depth)
    )
    with pytest.raises(ShapeError, match=r"^a field on R\^2 needs values in R\^2, not R\^3$"):
        _trajectory(vhat(calls), 1.0, [1.0, 2.0], 1, IntegratorConfig())
    assert calls == []


# The integrator paths: RK45 in the loop unrolled for the state's shape, RK45
# in the list form (the unrolled one switched off), and RK4.
_PATHS = ["generated", "list", "rk4"]


def _on_path(path, monkeypatch) -> IntegratorConfig:
    if path == "list":
        monkeypatch.setattr(dynamics, "_GENERATED_MAX_N", -1)
    return IntegratorConfig(method="rk4" if path == "rk4" else "rk45")


@pytest.mark.parametrize(
    "n, path, captured",
    [
        (2, "generated", False),
        (2, "list", False),
        (2, "rk4", False),
        (65, "generated", False),
        (2, "generated", True),
    ],
    ids=["generated", "list", "rk4", "wide", "widened"],
)
def test_a_field_that_grows_after_its_first_value_is_a_shape_error(n, path, captured, monkeypatch):
    # every stage is checked, not only the first: zip would cut the last
    # component off silently.  65 entries step in the list form; a field
    # closing over a jet is checked on towers, inside its widening
    calls, cfg = [], _on_path(path, monkeypatch)

    def solve(c):
        def values(xs):
            calls.append(None)
            return [c * x for x in xs] + [1.0] * (len(calls) > 1)

        return _flow_of_values(values, n, cfg)(1.0, [1.0] * n)

    with pytest.raises(ShapeError, match=f"does not fit its {n}-dimensional state"):
        if captured:
            tangent(SmoothMap(Space(1), Space(n), lambda cs: solve(cs[0])))([0.5, 1.0])
        else:
            solve(-1.0)


@pytest.mark.parametrize(
    "n, path",
    [(1, "generated"), (1, "list"), (65, "generated"), (3, "rk4"), (65, "rk4")],
    ids=["generated", "list", "wide", "rk4", "rk4-wide"],
)
def test_a_field_whose_primals_turn_into_jets_mid_solve_is_a_shape_error(n, path, monkeypatch):
    # floats at the first stage make the solve step on floats, in either
    # RK45 loop form and in RK4, and all read float primals only; a jet after
    # that is a typed error, not a bare TypeError or a solve that steps on jets
    calls = []

    def values(xs):
        calls.append(None)
        return [x * (1.0 if len(calls) == 1 else Jet(1.0, 0.5)) for x in xs]

    space = Space(n)
    flow = flow_of(VectorField(space, SmoothMap(space, space, values)), _on_path(path, monkeypatch))
    with pytest.raises(ShapeError, match="turned from floats into jets"):
        flow.evaluate(1.0, [1.0] * n)


@pytest.mark.parametrize("path", _PATHS)
def test_a_state_past_the_norm_limit_names_the_limit(path, monkeypatch):
    # e^30 is finite, but above the integrator's limit: no step collapsed,
    # and the error says so while still counting as a blow-up
    cfg = _on_path(path, monkeypatch)
    with pytest.raises(StateNormExceeded, match=r"^state norm above 1e\+12 near t=27\.6") as e:
        integrate(euler_system(), 30.0, [1.0], cfg)
    assert isinstance(e.value, StepSizeCollapse)


def test_rk4_step_budget_is_checked_before_stepping():
    cfg = IntegratorConfig(method="rk4", h=1e-3, max_steps=10)
    with pytest.raises(MaxStepsExceeded):
        integrate(euler_system(), 1.0, [1.0], cfg)


@pytest.mark.parametrize("max_steps,fits", [(11, False), (12, True)])
def test_rk4_step_budget_sums_every_grid_interval(max_steps, fits):
    # four intervals of 0.25 at h = 0.1 take ceil(2.5) = 3 steps each
    cfg = IntegratorConfig(method="rk4", h=0.1, max_steps=max_steps)
    if fits:
        assert len(_trajectory(rotation_field().vhat, 1.0, [1.0, 0.0], 4, cfg)) == 5
    else:
        with pytest.raises(MaxStepsExceeded):
            _trajectory(rotation_field().vhat, 1.0, [1.0, 0.0], 4, cfg)


def test_integrator_is_deterministic():
    sys_rot = DynamicalSystem(Space(2), rotation_field())
    a = integrate(sys_rot, 1.0, [1.0, 0.5])
    b = integrate(sys_rot, 1.0, [1.0, 0.5])
    assert a == b


def test_higher_order_rejected_by_integrate():
    vf = VectorField.from_expr("x2; -x1", 2)
    with pytest.raises(ShapeError):
        integrate(DynamicalSystem(Space(1), vf, order=2), 1.0, [0.0, 1.0])


def test_max_steps_exceeded():
    from tangentkit.dynamics import MaxStepsExceeded

    cfg = IntegratorConfig(abs_tol=1e-13, rel_tol=1e-13, max_steps=3)
    with pytest.raises(MaxStepsExceeded):
        integrate(DynamicalSystem(Space(2), rotation_field()), 10.0, [1.0, 0.0], cfg)


def _nan_past_one_and_a_half() -> VectorField:
    """(1, 0) until x1 passes 1.5, then (1, NaN): from the origin the state
    turns NaN near t = 1.5."""
    vhat = SmoothMap(
        Space(2),
        Space(2),
        lambda xs: [1.0, math.nan if primal_value(xs[0]) > 1.5 else 0.0],
    )
    return VectorField(Space(2), vhat)


@pytest.mark.parametrize("method", ["rk45", "rk4"])
def test_non_finite_state_raises_step_size_collapse(method):
    # neither the error norm nor the state-norm guard may drop the NaN, and
    # the error reports the time reached, not the target time
    system = DynamicalSystem(Space(2), _nan_past_one_and_a_half())
    with pytest.raises(StepSizeCollapse) as info:
        integrate(system, 2.0, [0.0, 0.0], IntegratorConfig(method=method))
    assert 1.49 <= info.value.t_reached <= 1.51


@pytest.mark.parametrize("depth", [1, 2])
def test_non_finite_jet_state_raises_step_size_collapse(depth):
    # the state norm is read from the primal parts of jets: a NaN primal
    # under a jet must still stop the solve
    fmap = flow_smooth_map(flow_of(_nan_past_one_and_a_half()))
    for _ in range(depth):
        fmap = tangent(fmap)
    point = [2.0, 0.0, 0.0] + [1.0, 0.0, 0.0] * (2**depth - 1)
    with pytest.raises(StepSizeCollapse) as info:
        fmap(point)
    assert 1.49 <= info.value.t_reached <= 1.51


_WEIGHTS = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


@st.composite
def _flat_solves(draw):
    """A flat field on n entries, the first p of them primal, with a start,
    output fractions and a config.  Primal values are nonlinear in the
    primals and may turn NaN, blow up or pass the state-norm limit; the
    other entries are linear and
    may be ABSENT, at the start or in every value (a ragged tower)."""
    n = draw(st.integers(min_value=1, max_value=20))
    p = draw(st.integers(min_value=1, max_value=n))
    primal = st.integers(min_value=0, max_value=p - 1)
    rows = [
        (
            draw(st.sampled_from(
                ["linear", "sin", "square", "steep", "nan"] if i < p
                else ["linear", "scaled", "absent"]
            )),
            draw(primal if i < p else st.integers(min_value=0, max_value=n - 1)),
            draw(primal),
            draw(_WEIGHTS),
            draw(_WEIGHTS),
        )
        for i in range(n)
    ]

    def rhs(y, scale):
        out = []
        for i, (kind, j, q, a, b) in enumerate(rows):
            if kind == "linear":
                out.append(a * y[j] + (b if i < p else b * y[i]))
            elif kind == "sin":
                out.append(a * math.sin(b * y[j]))
            elif kind == "square":
                out.append(a * y[j] * y[j])
            elif kind == "steep":
                out.append(a * 1e13 + y[j])
            elif kind == "nan":
                out.append(math.nan if y[j] > b else a)
            elif kind == "scaled":
                out.append(math.cos(y[q]) * y[j])
            else:
                out.append(ABSENT)
        return out

    y0 = draw(st.lists(_WEIGHTS, min_size=p, max_size=p))
    y0 += draw(st.lists(st.one_of(_WEIGHTS, st.just(ABSENT)), min_size=n - p, max_size=n - p))
    outputs = draw(st.one_of(
        st.just((1.0,)),
        st.integers(min_value=2, max_value=9).map(lambda m: tuple(k / m for k in range(1, m + 1))),
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=4).map(
            lambda fractions: tuple(sorted(fractions))
        ),
    ))
    tol = draw(st.sampled_from([1e-10, 1e-6, 1e-3]))
    cfg = IntegratorConfig(
        abs_tol=tol, rel_tol=tol, max_steps=draw(st.integers(min_value=1, max_value=300))
    )
    return rhs, y0, cfg, draw(_WEIGHTS), outputs, p


@settings(max_examples=150, deadline=None)
@given(_flat_solves())
def test_the_unrolled_rk45_loop_is_the_list_form_bit_for_bit(solve):
    # the same states, or the same error at the same time, down to the bit;
    # the two forms write each sum on their own, the unrolled one against
    # named locals and the list form in zip comprehensions
    def outcome():
        try:
            return repr(_integrate_scaled(*solve))
        except (ArithmeticError, ValueError) as e:
            return type(e), str(e), repr(getattr(e, "t_reached", None))

    unrolled = outcome()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "_GENERATED_MAX_N", -1)
        assert outcome() == unrolled


def _flat(values):
    return [c for v in values for c in coefficients(v)]


def test_rk45_bits_are_pinned():
    # exact outputs of the adaptive solver at float and jet depths 1 and 2,
    # all through the single output fraction (1.0,); any change to the
    # step's arithmetic, its order or its step-size sequence shows here
    lorenz = VectorField.from_expr("10*(x2-x1); x1*(28-x3)-x2; x1*x2-8/3*x3", 3)
    evals = []

    def counted(xs):
        evals.append(1)
        return lorenz.vhat.evaluator(xs)

    vhat = dataclasses.replace(lorenz.vhat, evaluator=counted)
    system = DynamicalSystem(Space(3), dataclasses.replace(lorenz, vhat=vhat))
    assert integrate(system, 1.0, [1.0, 1.0, 20.0]) == [
        -4.409120385995094,
        -7.500598779760094,
        13.839064970006126,
    ]
    assert len(evals) == 1693

    # RK4 over the single output interval takes ceil(t / h) equal steps
    evals.clear()
    got = integrate(system, 1.0, [1.0, 1.0, 20.0], IntegratorConfig(method="rk4"))
    assert got == [-4.409120387566219, -7.5005987814639, 13.83906497587975]
    assert len(evals) == 4 * 1000

    d1 = tangent(flow_smooth_map(flow_of(lorenz)))
    assert _flat(d1([1.0, 1.0, 1.0, 20.0, 1.0, 0.0, 0.0, 0.0])) == [
        -4.409120385995094,
        -7.500598779760094,
        13.839064970006126,
        -30.91478392045006,
        -54.93666852467021,
        -3.8331302828904072,
    ]

    d2 = tangent(tangent(flow_smooth_map(flow_of(lorenz))))
    assert _flat(d2([1.0, 1.0, 1.0, 20.0] + [1.0, 0.0, 0.0, 0.0] * 3)) == [
        -4.409120385995094,
        -7.500598779760094,
        13.839064970006126,
        -30.91478392045006,
        -54.93666852467021,
        -3.8331302828904072,
        -30.91478392045006,
        -54.93666852467021,
        -3.8331302828904072,
        -271.1336292503419,
        -454.68297836930554,
        480.49032537010874,
    ]

    d2 = tangent(tangent(flow_smooth_map(flow_of(rotation_field()))))
    point = [3.0, 1.0, 0.5, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0]
    assert _flat(d2(point)) == [
        -0.9194324924946375,
        -0.6361162562993878,
        -0.6361162561490159,
        0.919432492617822,
        -0.6361162561490159,
        0.919432492617822,
        0.2833162368393652,
        1.5555487488259048,
    ]


def _counted(vf):
    evals = []

    def counted(xs):
        evals.append(1)
        return vf.vhat.evaluator(xs)

    vhat = dataclasses.replace(vf.vhat, evaluator=counted)
    return dataclasses.replace(vf, vhat=vhat), evals


# The solver steps on flat jet coefficients; these pin the jet-arithmetic
# results, and the number of field evaluations, for states and outputs that
# are not full towers of the solve's depth.  A counting wrapper hides a dsl
# field's flat kernel, so the pins run the jet codec; the bare-field tests
# run the same solves through the kernel and must give the same literals.

_LORENZ = "10*(x2-x1); x1*(28-x3)-x2; x1*x2-8/3*x3"


def _float_state_under_a_depth_two_time(lorenz):
    got = flow_of(lorenz)(Jet(Jet(0.5, 1.0), Jet(1.0, 0.0)), [1.0, 1.0, 20.0])
    assert repr(got) == (
        "[Jet(Jet(15.641180006136262, -21.01135572288511), "
        "Jet(-21.01135572288511, -1602.841090464834)), "
        "Jet(Jet(13.540044435820814, -181.29546470485008), "
        "Jet(-181.29546470485008, -1290.6547704567008)), "
        "Jet(Jet(38.725240689503266, 108.5149637914896), "
        "Jet(108.5149637914896, -3409.542925748087))]"
    )


def test_float_state_under_a_depth_two_time_is_pinned():
    lorenz, evals = _counted(VectorField.from_expr(_LORENZ, 3))
    _float_state_under_a_depth_two_time(lorenz)
    assert len(evals) == 733


def test_float_state_under_a_depth_two_time_on_the_bare_field():
    _float_state_under_a_depth_two_time(VectorField.from_expr(_LORENZ, 3))


def _time_derivative_over_a_tangent(field):
    # the state is the ragged Jet(Jet(a, b), 0.0) under the time Jet(t, 1.0)
    got = time_derivative(flow_of(field), 0.75, [Jet(1.0, 1.0), Jet(0.5, -0.0)])
    assert repr(got) == (
        "([Jet(0.7829299927040847, 0.033726737952773894), "
        "Jet(-0.9742426649914415, -2.009158766594551)], "
        "[Jet(-0.9742426650775868, -2.009158766750919), "
        "Jet(-1.2628499289345565, -0.09574812119646318)])"
    )


def test_time_derivative_over_a_tangent_is_pinned():
    field, evals = _counted(VectorField.from_expr("x2; -x1*(1+x1*x1)", 2))
    _time_derivative_over_a_tangent(field)
    assert len(evals) == 235


def test_time_derivative_over_a_tangent_on_the_bare_field():
    _time_derivative_over_a_tangent(VectorField.from_expr("x2; -x1*(1+x1*x1)", 2))


def test_field_output_that_drops_a_level_mid_solve_is_pinned():
    # x' = x^2 until x = 1.5, then the constant 2.25: a float output, no
    # tangent, from the step that crosses 1.5 on
    def drop(xs):
        x = xs[0]
        return [x * x] if primal_value(x) < 1.5 else [2.25]

    line = Space(1)
    field, evals = _counted(VectorField(line, SmoothMap(line, line, drop, name="drop")))
    got = flow_of(field)(1.0, [Jet(1.0, 1.0)])
    assert repr(got) == "[Jet(2.9999999886456266, 2.2505126190182354)]"
    assert len(evals) == 229


@pytest.mark.parametrize(
    "t, state, want",
    [
        (1.0, Jet(2.0, 1.0), "[Jet(3.0, 1.0)]"),
        (Jet(Jet(1.0, 1.0), Jet(1.0, 0.0)), Jet(2.0, 1.0), "[Jet(Jet(3.0, 1.0), Jet(2.0, 0.0))]"),
        (Jet(1.0, 1.0), Jet(Jet(2.0, 1.0), Jet(1.0, 0.0)), "[Jet(Jet(3.0, 1.0), Jet(2.0, 0.0))]"),
    ],
    ids=["float-time", "depth-two-time", "state-deeper-than-time"],
)
def test_a_state_deeper_than_the_first_field_value_is_pinned(t, state, want):
    # the constant field's first value is t * 1.0, shallower than the state
    # in the first and last cases; the state's levels still join the flat
    # state, so the solver never steps on a jet primal
    line = Space(1)
    field, evals = _counted(VectorField(line, SmoothMap(line, line, lambda xs: [1.0])))
    assert repr(flow_of(field)(t, [state])) == want
    assert len(evals) == 25


def test_a_depth_two_solve_of_a_dsl_field_builds_no_jets_per_step(monkeypatch):
    # the kernel steps on floats: the jets built are those of the tangent
    # maps around the solve, as many for a solve twice as long
    built, init = [], Jet.__init__
    monkeypatch.setattr(Jet, "__init__", lambda *args: built.append(None) or init(*args))
    d2 = tangent(tangent(flow_smooth_map(flow_of(VectorField.from_expr(_LORENZ, 3)))))
    counts = []
    for t in (0.5, 1.0):
        built.clear()
        d2([t, 1.0, 1.0, 20.0] + [1.0, 0.0, 0.0, 0.0] * 3)
        counts.append(len(built))
    assert counts[0] == counts[1] < 100


def test_a_time_dependent_field_solves_on_its_flat_kernel(monkeypatch):
    # the clock is compiled into the field, so the tangent of its flow steps
    # on floats and builds O(1) jets, with the bits of jet arithmetic
    built, init = [], Jet.__init__
    monkeypatch.setattr(Jet, "__init__", lambda *args: built.append(None) or init(*args))
    vf = augment_time(dsl.parse("x1 + cos(t)", 1, time_dependent=True)).vector_field
    got = tangent(flow_smooth_map(flow_of(vf)))([2.0, 0.3, 0.0, 1.0, 0.0, 0.0])
    assert repr(got) == (
        "[6.573967011184543, 2.0000000000000018, 6.15782017565612, 1.0000000000000009]"
    )
    assert len(built) < 20


# A dsl field's solve runs its flat kernel's lines inside the generated loop
# (the fused path); with the kernel code dropped, the same loop calls it.


def _compiles(monkeypatch, *labels):
    # the labels of the generated code jets._compiled compiles from here on:
    # all of them, or those that start with one of labels
    compiled = []

    def spy(source, label, *args):
        if label.startswith(labels or "<"):
            compiled.append(label)
        return compile(source, label, *args)

    monkeypatch.setattr(jets, "compile", spy, raising=False)
    return compiled


def _kernel_called(monkeypatch):
    writer = dynamics._dp_loop
    monkeypatch.setattr(dynamics, "_dp_loop", lambda n, primals, code=None: writer(n, primals))


def _failure(solve):
    with pytest.raises((ArithmeticError, ValueError)) as info:
        solve()
    return type(info.value), str(info.value), repr(getattr(info.value, "t_reached", None))


_FAILING_SOLVES = {
    # ln's argument reaches 0 in a later stage, not the first
    "ln": lambda: flow_of(VectorField.from_expr("ln(x1) - 3", 1))(2.0, [1.0]),
    "sqrt-depth-1": lambda: tangent(
        flow_smooth_map(flow_of(VectorField.from_expr("-sqrt(x1) - 1", 1)))
    )([1.0, 1.0, 1.0, 0.0]),
    "norm": lambda: flow_of(VectorField.from_expr("x1", 1))(30.0, [1.0]),
    "norm-depth-2": lambda: flow_of(VectorField.from_expr("x1; x2", 2))(
        Jet(Jet(30.0, 1.0), Jet(1.0, 0.0)), [1.0, 2.0]
    ),
    "steps": lambda: flow_of(
        rotation_field(), IntegratorConfig(abs_tol=1e-13, rel_tol=1e-13, max_steps=3)
    )(10.0, [1.0, 0.0]),
}


@pytest.mark.parametrize("case", sorted(_FAILING_SOLVES))
def test_a_fused_solve_fails_as_the_called_kernel_does(case, monkeypatch):
    # the same error type, message and time reached
    fused = _failure(_FAILING_SOLVES[case])
    _kernel_called(monkeypatch)
    assert _failure(_FAILING_SOLVES[case]) == fused
    assert fused[0] in (EvaluationDomainError, StateNormExceeded, MaxStepsExceeded)


def test_only_a_dsl_field_in_the_generated_loop_takes_the_fused_path(monkeypatch):
    writer, loops = dynamics._dp_loop, []

    def spy(n, primals, code=None):
        loops.append((n, code is not None))
        return writer(n, primals, code)

    monkeypatch.setattr(dynamics, "_dp_loop", spy)
    line = Space(1)
    integrate(DynamicalSystem(Space(2), rotation_field()), 1.0, [1.0, 0.0])
    assert loops == [(2, True)]
    loops.clear()
    hand_written = VectorField(line, SmoothMap(line, line, lambda xs: [xs[0]], name="hand"))
    integrate(DynamicalSystem(line, hand_written), 1.0, [1.0])
    assert loops == [(1, False)]
    loops.clear()
    wide = VectorField.from_expr("; ".join(f"-x{i}" for i in range(1, 66)), 65)
    assert integrate(DynamicalSystem(Space(65), wide), 1.0, [1.0] * 65)[0] == pytest.approx(
        math.exp(-1.0), abs=1e-9
    )
    assert loops == [(None, False)]  # 65 entries step in the list form, calling the kernel
    loops.clear()
    long = VectorField.from_expr(" + ".join(["-x1"] * (dynamics._FUSED_MAX_LINES + 1)), 1)
    integrate(DynamicalSystem(line, long), 1e-3, [1.0])
    assert loops == [(1, False)]  # written six times over, the loop would be too long
    # the solver applies the cap: the kernel carries its code, whose size
    # is the lines the writer wrote before any was written into another
    code = long.vhat.evaluator.flat_kernel(0).code
    monkeypatch.setattr(jets, "_inlined", lambda lines, outputs: list(lines))
    written = kernel._code(kernel._rule(long.vhat), 0)
    assert code.operations == len(written.lines) > max(dynamics._FUSED_MAX_LINES, len(code.lines))


def test_the_fuse_cap_is_read_when_a_solve_picks_its_loop(monkeypatch):
    # a kernel written under one cap solves under the cap of the solve: at
    # the cap it is fused, one operation under it the same loop calls it,
    # with the same bits
    writer, loops = dynamics._dp_loop, []

    def spy(n, primals, code=None):
        loops.append((n, code is not None))
        return writer(n, primals, code)

    monkeypatch.setattr(dynamics, "_dp_loop", spy)
    field = rotation_field()
    flow = flow_of(field)
    fused = repr(flow(1.0, [1.0, 0.5]))
    operations = field.vhat.evaluator.flat_kernel(0).code.operations
    monkeypatch.setattr(dynamics, "_FUSED_MAX_LINES", operations)
    assert repr(flow(1.0, [1.0, 0.5])) == fused
    monkeypatch.setattr(dynamics, "_FUSED_MAX_LINES", operations - 1)
    assert repr(flow(1.0, [1.0, 0.5])) == fused
    assert loops == [(2, True), (2, True), (2, False)]


def test_wide_states_take_the_list_form_and_captured_jets_widen_the_state(monkeypatch):
    # the list form is written once per number of primals, whatever the
    # state's length; a field that closes over a jet has its level joined to
    # the flat state, so a 1-entry solve steps on floats in the loop
    # unrolled for 2 entries
    dynamics._dp_loop.cache_clear()
    compiled = _compiles(monkeypatch, "<rk45")
    for n in (65, 80):
        [state] = _integrate_scaled(
            lambda y, scale: [-v for v in y], [1.0] * n, IntegratorConfig(), 1.0, (1.0,), 5
        )
        assert len(state) == n and abs(state[-1] - math.exp(-1.0)) <= 1e-9
    assert compiled == ["<rk45 list loop 5>"]
    compiled.clear()
    tangent(_closing_over_the_argument())([0.5, 1.0])
    assert compiled == ["<rk45 loop 2/1>"]


def test_wide_rk45_bits_are_pinned():
    # 65 flat entries, one past the unrolled loop's cap: the exact states,
    # and the error type, message and time reached of a step budget and of
    # the norm limit
    wide = VectorField.from_expr("; ".join(f"-x{i}" for i in range(1, 66)), 65)
    got = integrate(DynamicalSystem(Space(65), wide), 1.0, [1.0] * 65)
    assert repr(got) == "[" + ", ".join(["0.3678794411919316"] * 65) + "]"
    grow = DynamicalSystem(
        Space(65), VectorField.from_expr("; ".join(f"x{i}" for i in range(1, 66)), 65)
    )
    assert _failure(lambda: integrate(grow, 1.0, [1.0] * 65, IntegratorConfig(max_steps=5))) == (
        MaxStepsExceeded, "exceeded 5 steps at t=0.182", "0.18221909915259896"
    )
    assert _failure(lambda: integrate(grow, 30.0, [1.0] * 65)) == (
        StateNormExceeded, "state norm above 1e+12 near t=27.633", "27.633390823603328"
    )


def test_a_second_solve_of_a_dsl_field_compiles_nothing(monkeypatch):
    flow = flow_of(VectorField.from_expr("x2 * x3; -x1 / 2; sin(x1 * x2)", 3))
    dynamics._dp_loop.cache_clear()
    compiled = _compiles(monkeypatch)
    for depth in range(3):
        t = 1.0
        for _ in range(depth):
            t = Jet(t, 1.0)
        flow(t, [1.0, 0.5, 0.25])
        assert compiled == ["<jet kernel>", f"<rk45 fused loop {3 * 2**depth}/3>"]
        compiled.clear()
        flow(t, [0.5, 1.0, 0.25])
        assert compiled == []


def test_a_second_pass_of_the_law_suites_compiles_nothing(monkeypatch):
    # the suites build the same dsl fields anew on every pass: each key's
    # kernel makers are compiled once, in a bounded memo
    assert kernel._maker.cache_info().maxsize is not None
    run_suite("all", 3)
    compiled = _compiles(monkeypatch)
    run_suite("all", 3)
    assert compiled == []


def test_block_map_kernels_are_compiled_once_per_layout_and_depth(monkeypatch):
    # block-map kernels are kept by layout and depth, in a bounded memo,
    # and called at each stage; each flow solves a new map of euler_field's
    # layout, which keeps its own kernels once written
    def scaling():
        return VectorField(Space(5), kernel._block_map("scaling", (2, 3), ([0.0] * 2, 1)))

    assert kernel._maker.cache_info().maxsize is not None
    kernel._maker.cache_clear()
    dynamics._dp_loop.cache_clear()
    compiled = _compiles(monkeypatch, "<jet kernel>", "<rk45")
    for depth in range(3):
        t = 1.0
        for _ in range(depth):
            t = Jet(t, 1.0)
        flow_of(scaling())(t, [1.0, 0.5, 0.25, -1.0, 2.0])
        assert compiled == ["<jet kernel>", f"<rk45 loop {5 * 2**depth}/5>"]
        compiled.clear()
        flow_of(scaling())(t, [0.5, 1.0, 0.25, 2.0, -1.0])
        assert compiled == []
    run_suite("rig", 1729)
    misses = kernel._maker.cache_info().misses
    compiled.clear()
    run_suite("rig", 1729)
    assert "<jet kernel>" not in compiled
    assert kernel._maker.cache_info().misses == misses


def test_kernels_that_read_the_same_lines_solve_with_their_own_constants():
    # the loop is cached by the kernel code's value and takes the constants
    # as arguments; 3^0 leaves a constant no line reads, so these two read
    # the same lines from two constants and from one
    fields = [VectorField.from_expr(text, 1) for text in ("3^0 + 2*x1", "x1^0 + 2*x1")]
    codes = [field.vhat.evaluator.flat_kernel(0).code for field in fields]
    assert codes[0].lines == codes[1].lines and len(codes[0].cells) == 2 != len(codes[1].cells)
    fused = [repr(flow_of(field)(0.5, [1.0])) for field in fields]
    with pytest.MonkeyPatch.context() as patch:
        _kernel_called(patch)
        assert [repr(flow_of(field)(0.5, [1.0])) for field in fields] == fused


def test_a_parameter_sweep_compiles_one_fused_loop(monkeypatch):
    # the kernel's code names its constants and holds none of their values,
    # so fields that differ only in a constant share one loop, and each
    # solve binds its own constants: the states of the called kernel
    texts = [f"-{a}*x1 + x2; x1" for a in ("2.0", "3.0", "4.5")]
    dynamics._dp_loop.cache_clear()
    compiled = _compiles(monkeypatch, "<rk45")
    fused = [repr(flow_of(VectorField.from_expr(text, 2))(1.0, [1.0, 0.5])) for text in texts]
    assert compiled == ["<rk45 fused loop 2/2>"]
    assert len(set(fused)) == 3
    with pytest.MonkeyPatch.context() as patch:
        _kernel_called(patch)
        called = [repr(flow_of(VectorField.from_expr(text, 2))(1.0, [1.0, 0.5])) for text in texts]
    assert called == fused


_CLAMP_POINTS = [0.2, 5.0, math.nextafter(0.2, 0.0), math.nextafter(0.2, 1.0)]
_CLAMP_POINTS += [math.nextafter(5.0, 0.0), math.nextafter(5.0, 6.0)]
_ERRORS = st.one_of(
    st.floats(min_value=0.0),
    st.floats(min_value=0.0, max_value=2.2250738585072014e-308),  # subnormals
    st.sampled_from([0.0, 5e-324, (0.9 / 5.0) ** 5, (0.9 / 0.2) ** 5, 1.0, math.inf, math.nan]),
)


@settings(max_examples=300, deadline=None)
@given(_ERRORS, st.one_of(st.floats(), st.sampled_from(_CLAMP_POINTS)))
def test_the_controller_clamps_are_min_and_max_with_their_nan(err, f):
    # the step-size factors the generated loop writes as conditional
    # expressions, for the factor of an error (0.0 grows by 5.0, as in the
    # loop) and for any float, NaN and the clamp points included
    for factor in (5.0 if err == 0.0 else 0.9 * err**-0.2, f):
        assert repr(eval(dynamics._GROW, {"f": factor})) == repr(min(5.0, max(0.2, factor)))
        assert repr(eval(dynamics._SHRINK, {"f": factor})) == repr(max(0.2, factor))


@given(st.one_of(st.floats(), st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0])))
def test_the_loop_finite_test_is_isfinite(h):
    assert (h - h != 0.0) == (not math.isfinite(h))


_ABOVE = math.nextafter(1e12, math.inf)
_NORM_STARTS = {
    "at-the-limit": [1.0, 1e12],
    "at-minus-the-limit": [-1e12, 1.0],
    "next-float-up": [1.0, _ABOVE],
    "next-float-down-negative": [-_ABOVE, 1.0],
    "nan": [1.0, math.nan],
}


@pytest.mark.parametrize("case", sorted(_NORM_STARTS))
@pytest.mark.parametrize("method", ["rk45", "rk4"])
def test_the_state_norm_limit_is_the_same_in_every_loop(case, method):
    # a field that keeps its state: a primal of exactly 1e12 passes, the
    # next float up raises, and NaN raises, with the same error type,
    # message and time reached in the fused, unrolled-called, list and
    # codec forms of RK45, and on RK4's kernel and codec paths
    field = VectorField.from_expr("0*x1; 0*x2", 2)
    cfg = IntegratorConfig(method=method, h=0.1)

    def outcome():
        try:
            return repr(flow_of(field, cfg)(1.0, _NORM_STARTS[case]))
        except ArithmeticError as e:
            return type(e), str(e), repr(e.t_reached)

    first = outcome()
    forms = [
        ("_dp_loop", lambda n, primals, code=None, writer=dynamics._dp_loop: writer(n, primals)),
        ("_GENERATED_MAX_N", -1),
        ("_flat_kernel", lambda vhat, depth: None),
    ]
    for name, value in forms:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dynamics, name, value)
            assert outcome() == first, name
    if case.startswith("at-"):
        assert first == repr(_NORM_STARTS[case])
    elif case == "nan" and method == "rk45":
        # NaN in |y| makes every error ratio NaN: each step is rejected
        assert first == (StepSizeCollapse, "step size collapse near t=0.000", "0.0")
    else:
        t = "0.010" if method == "rk45" else "0.100"
        assert first[:2] == (StateNormExceeded, f"state norm above 1e+12 near t={t}")


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"rel_tol": -1.0}, "rel_tol"),
        ({"rel_tol": math.inf}, "rel_tol"),
        ({"rel_tol": math.nan}, "rel_tol"),
        ({"abs_tol": -1.0}, "abs_tol"),
        ({"abs_tol": 0.0}, "abs_tol"),
        ({"abs_tol": 0.0, "rel_tol": 0.0}, "abs_tol"),
        ({"abs_tol": math.inf}, "abs_tol"),
        ({"abs_tol": math.nan}, "abs_tol"),
    ],
)
def test_a_tolerance_that_cannot_steer_the_solver_is_refused(kwargs, name):
    # a negative or infinite tolerance accepted every step, so the rotation
    # from (1, 0) reached [117.9..., 102.7...] at t = 10, and abs_tol = 0
    # divided by zero at a zero state
    with pytest.raises(ValueError, match=f"^{name} must be finite and"):
        IntegratorConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs,name",
    [
        ({"method": "euler"}, "method"),
        ({"max_steps": -1}, "max_steps"),
        ({"max_steps": 0}, "max_steps"),
        ({"max_steps": 2.5}, "max_steps"),
        ({"method": "rk4", "h": 0.0}, "rk4 step h"),
        ({"h": math.inf}, "rk4 step h"),
        ({"max_steps": True}, "max_steps"),
    ],
)
def test_a_config_that_cannot_run_is_refused_when_made(kwargs, name):
    # refused when made, not at the first solve: an unknown method would
    # describe itself as rk45 until then, max_steps=-1 would fail as
    # "exceeded -1 steps", and max_steps=True would describe itself as true
    with pytest.raises(ValueError, match=f"^{name} must be"):
        IntegratorConfig(**kwargs)


def test_a_tolerance_that_steers_the_solver_is_accepted():
    cfg = IntegratorConfig(abs_tol=1e-12, rel_tol=0.0)
    got = flow_of(rotation_field(), cfg)(10.0, [1.0, 0.0])
    assert max(abs(a - b) for a, b in zip(got, [math.cos(10.0), -math.sin(10.0)])) <= 1e-9
    assert cfg.describe() == {
        "method": "rk45", "abs_tol": 1e-12, "rel_tol": 0.0, "max_steps": 10**6
    }


def _closing_over_the_argument(t=1.0, cfg=IntegratorConfig()) -> SmoothMap:
    # x -> the solution of y' = x y from 1, to time t: under a tangent the
    # field closes over a jet
    line = Space(1)

    def g(xs):
        field = SmoothMap(line, line, lambda ys: [xs[0] * ys[0]])
        return flow_of(VectorField(line, field), cfg).evaluate(t, [1.0])

    return SmoothMap(line, line, g)


def test_a_field_closing_over_a_jet_is_solved_at_depth_zero():
    # the state holds floats, so the solve runs at depth 0, but the field
    # returns jets, whose level joins the flat state
    got = tangent(_closing_over_the_argument())([0.5, 1.0])
    assert repr(got) == "[1.6487212707277967, 1.6487212710557269]"
    assert all(abs(v - math.exp(0.5)) <= 1e-9 for v in got)


_SPIED_SOLVES = {
    "called-under-a-jet-time": lambda cfg: flow_of(euler_space_field(Space(2)), cfg)(
        Jet(0.5, 1.0), [1.0, 2.0]
    ),
    "called-from-a-jet-state": lambda cfg: flow_of(euler_space_field(Space(2)), cfg)(
        0.5, [Jet(1.0, 1.0), Jet(2.0, 0.0)]
    ),
    "closing-over-a-jet": lambda cfg: tangent(_closing_over_the_argument(cfg=cfg))([0.5, 1.0]),
    "dsl-kernel-at-depth-2": lambda cfg: flow_of(rotation_field(), cfg)(
        Jet(Jet(1.0, 1.0), Jet(1.0, 0.0)), [1.0, 0.0]
    ),
}


@pytest.mark.parametrize("method", ["rk45", "rk4"])
@pytest.mark.parametrize("case", list(_SPIED_SOLVES))
def test_the_solver_driver_takes_and_returns_flat_floats(case, method, monkeypatch):
    # _trajectory owns every jet level of a solve: the driver gets the start
    # state, any first stage and the time unit as flat floats and hands back
    # flat floats, whatever jets the state, the time or the field's closure hold
    driver, calls = dynamics._integrate_scaled, []

    def spy(rhs, y0, cfg, t_unit, outputs, primals, scale=(), k1=None):
        states = driver(rhs, y0, cfg, t_unit, outputs, primals, scale, k1)
        calls.append((y0, k1 or (), t_unit, states))
        return states

    monkeypatch.setattr(dynamics, "_integrate_scaled", spy)
    _SPIED_SOLVES[case](IntegratorConfig(method=method, h=0.05))
    assert calls

    def flat(values):
        return all(isinstance(v, float) or v is ABSENT for v in values)

    for y0, k1, t_unit, states in calls:
        assert isinstance(t_unit, float) and flat(y0) and flat(k1)
        assert all(flat(state) for state in states)


def _flow_of_values(values, n, cfg=IntegratorConfig()) -> Flow:
    return flow_of(VectorField(Space(n), SmoothMap(Space(n), Space(n), values)), cfg)


_C1 = Jet(-0.75, 2.0)
_C2 = Jet(Jet(0.5, 1.0), Jet(0.25, -0.5))
_RK4 = IntegratorConfig(method="rk4", h=0.05)
_WIDE = [1.0 + i / 70 for i in range(70)]

# Solves of fields that close over a jet (captured depth 1 or 2) from float
# and jet starts, besides the depth-0 one above: the exact states, or the
# error type, message and time.
_CAPTURED_JET_SOLVES = {
    "depth-0-captured-2": (
        lambda: tangent(tangent(_closing_over_the_argument()))([0.5, 1.0, 0.25, 0.0]),
        "[1.6487212707277967, 1.6487212710557269, 0.4121803177639317, 0.41218031865151045]",
    ),
    "depth-1-time-captured-2": (
        lambda: _flow_of_values(lambda ys: [_C2 * ys[0]], 1)(Jet(1.0, 0.5), [1.0]),
        "[Jet(Jet(1.6487212707277967, 1.6487212710557269), "
        "Jet(0.8243606355278634, 0.824360637303021))]",
    ),
    "depth-1-state-captured-2": (
        lambda: _flow_of_values(lambda ys: [_C2 * ys[1], -ys[0]], 2)(1.0, [Jet(1.0, 1.0), 0.5]),
        "[Jet(Jet(0.9899259395298978, -0.03962019327032515), "
        "Jet(0.7503395487484714, -0.45835770793222114)), "
        "Jet(Jet(-0.5386030713223552, -0.07120056964319114), "
        "Jet(-0.9365255122661796, 0.19996619764628498))]",
    ),
    "ragged": (
        lambda: _flow_of_values(lambda ys: [_C1 * ys[1], -ys[0] * _C2, 0.5], 3)(
            1.5, [1.0, 0.0, 0.25]
        ),
        "[Jet(Jet(1.452385048848713, 0.9675097371232976), "
        "Jet(-1.0481355485502388, -3.343215995902454)), "
        "Jet(Jet(-0.8600086550201235, -1.949297441782747), "
        "Jet(-0.18161751812235363, 2.009137192541621)), 1.0000000000000002]",
    ),
    "constant": (
        lambda: _flow_of_values(lambda ys: [_C2, ys[0]], 2)(1.0, [0.0, 1.0]),
        "[Jet(Jet(0.5, 1.0), Jet(0.25, -0.5)), Jet(Jet(1.25, 0.5000000000000001), "
        "Jet(0.12500000000000003, -0.25000000000000006))]",
    ),
    "wide": (
        lambda: (lambda got: [len(got), got[0], got[-1]])(
            _flow_of_values(lambda ys: [_C1 * y for y in ys], 70)(1.0, _WIDE)
        ),
        "[70, Jet(0.4723665527536266, 0.9447331053031162), "
        "Jet(0.9379850118964866, 1.875970023387616)]",
    ),
    "rk4": (
        lambda: tangent(_closing_over_the_argument(cfg=_RK4))([0.5, 1.0]),
        "[1.6487212680719732, 1.6487212418998671]",
    ),
    "rk4-wide": (
        lambda: (lambda got: [len(got), got[0], got[-1]])(
            _flow_of_values(lambda ys: [_C1 * y for y in ys], 70, _RK4)(1.0, _WIDE)
        ),
        "[70, Jet(0.472366558764696, 0.944733036711222), "
        "Jet(0.9379850238327534, 1.8759698871837123)]",
    ),
    "norm": (
        lambda: tangent(_closing_over_the_argument(t=40.0))([1.0, 1.0]),
        (StateNormExceeded, "state norm above 1e+12 near t=27.634", "27.63353255003085"),
    ),
    "blow-up": (
        lambda: _flow_of_values(lambda ys: [_C1 * ys[0] * ys[0]], 1)(2.0, [-1.0]),
        (StateNormExceeded, "state norm above 1e+12 near t=1.333", "1.3333333333032478"),
    ),
    "nan": (
        lambda: _flow_of_values(
            lambda ys: [_C1 * (math.nan if primal_value(ys[0]) < -1.5 else 1.0)], 1
        )(3.0, [0.0]),
        (StepSizeCollapse, "step size collapse near t=2.000", "1.999999999999953"),
    ),
    "steps": (
        lambda: _flow_of_values(lambda ys: [_C1 * ys[0]], 1, IntegratorConfig(max_steps=3))(
            5.0, [1.0]
        ),
        (MaxStepsExceeded, "exceeded 3 steps at t=0.164", "0.1643729572931672"),
    ),
}


@pytest.mark.parametrize("case", list(_CAPTURED_JET_SOLVES))
def test_captured_jet_solves_are_pinned(case):
    solve, want = _CAPTURED_JET_SOLVES[case]
    assert (repr(solve()) if isinstance(want, str) else _failure(solve)) == want


def test_eta_is_jet_polymorphic():
    out = eta()([Jet(1.5, 1.0)])[0]
    assert abs(out.primal + 1.5) <= 1e-9
    assert abs(out.tangent + 1.0) <= 1e-9  # d(eta)/dt = -1


# -- flows -----------------------------------------------------------------------


def test_flow_of_zero_field_is_constant():
    flow = flow_of(zero_field(Space(2)))
    for t in (-2.0, 0.0, 1.5):
        assert flow.evaluate(t, [1.0, 2.0]) == [1.0, 2.0]


def test_flow_of_euler_at_ln2():
    flow = flow_of(euler_space_field(Space(2)))
    got = flow.evaluate(math.log(2.0), [1.0, 1.0])
    assert max(abs(v - 2.0) for v in got) <= 1e-8


def test_flow_of_product_is_componentwise():
    rot = rotation_field()
    eul = euler_space_field(Space(1))
    flow = flow_of(product_vf(rot, eul))
    closed_rot = rotation_closed_flow()
    t = 0.5
    for x1, x2, y in sample_points(3, count=10, seed=8):
        got = flow.evaluate(t, [x1, x2, y])
        want = _vals(closed_rot.evaluate(t, [x1, x2])) + [y * math.exp(t)]
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-8


def test_flow_evaluates_jets_in_state():
    flow = flow_of(euler_space_field(Space(1)))
    out = flow.evaluate(1.0, [Jet(1.0, 1.0)])[0]
    # d/dx0 of e^t x0 is e^t
    assert abs(out.primal - math.e) <= 1e-8
    assert abs(out.tangent - math.e) <= 1e-8


def test_flow_evaluates_jets_in_time():
    flow = flow_of(euler_space_field(Space(1)))
    out = flow.evaluate(Jet(0.5, 1.0), [1.0])[0]
    assert abs(out.primal - math.exp(0.5)) <= 1e-8
    assert abs(out.tangent - math.exp(0.5)) <= 1e-7


# -- expm and linear flows ---------------------------------------------------------


def test_expm_of_zero_is_identity():
    assert np.allclose(expm(np.zeros((3, 3))), np.eye(3), atol=1e-15)


def test_expm_nilpotent():
    got = expm([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(got, [[1.0, 1.0], [0.0, 1.0]], atol=1e-12)


def test_expm_matches_taylor_series_oracle():
    rng = np.random.default_rng(42)
    for _ in range(10):
        A = rng.uniform(-0.5, 0.5, size=(3, 3))
        want = np.zeros((3, 3))
        term = np.eye(3)
        for k in range(1, 31):
            want = want + term
            term = term @ A / k
        got = expm(A)
        assert np.max(np.abs(got - want)) <= 1e-12


def test_expm_large_norm_uses_squaring():
    A = np.array([[0.0, 8.0], [-8.0, 0.0]])
    got = expm(A)
    want = np.array(
        [[math.cos(8.0), math.sin(8.0)], [-math.sin(8.0), math.cos(8.0)]]
    )
    assert np.max(np.abs(got - want)) <= 1e-12


def test_expm_validates_input():
    with pytest.raises(ShapeError):
        expm(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        expm(np.array([[math.inf, 0.0], [0.0, 0.0]]))


def test_expm_reports_overflow():
    with pytest.raises(OverflowError):
        expm(np.array([[1000.0]]))


def test_integrate_rejects_nonfinite_time():
    with pytest.raises(ValueError):
        integrate(euler_system(), math.inf, [1.0])


def test_linear_flow_scalar_exponential():
    flow = linear_flow([[1.0]])
    assert abs(flow.evaluate(1.0, [1.0])[0] - math.e) <= 1e-12


def test_linear_flow_rotation_quarter_turn():
    flow = linear_flow([[0.0, 1.0], [-1.0, 0.0]])
    got = flow.evaluate(math.pi / 2.0, [1.0, 0.0])
    assert abs(got[0]) <= 1e-12 and abs(got[1] + 1.0) <= 1e-12


def test_linear_flow_agrees_with_integrator():
    rng = np.random.default_rng(7)
    for _ in range(5):
        A = rng.uniform(-1.0, 1.0, size=(2, 2))
        exact = linear_flow(A)
        numeric = flow_of(LinearVectorField(A))
        for t in (-1.0, -0.3, 0.4, 1.0):
            for x in sample_points(2, count=5, seed=9):
                a = exact.evaluate(t, x)
                b = numeric.evaluate(t, x)
                assert max(abs(u - v) for u, v in zip(a, b)) <= 1e-6


def test_linear_flow_memoizes_expm_per_float_time(monkeypatch):
    from tangentkit import dynamics

    calls = []
    real = dynamics.expm
    monkeypatch.setattr(dynamics, "expm", lambda M: calls.append(M) or real(M))
    flow = linear_flow([[0.0, 1.0], [-1.0, 0.0]])
    first = flow.evaluate(0.7, [1.0, 0.0])
    assert flow.evaluate(0.7, [1.0, 0.0]) == first
    assert len(calls) == 1
    # the memo is bounded: 1024 further times evict 0.7
    for k in range(1024):
        flow.evaluate(1.0 + k / 1000.0, [1.0, 0.0])
    flow.evaluate(0.7, [1.0, 0.0])
    assert len(calls) == 1 + 1024 + 1


def test_linear_flow_memoizes_its_series_per_time_and_depth(monkeypatch):
    from tangentkit import dynamics

    calls = []
    real = dynamics._series_rows
    monkeypatch.setattr(
        dynamics, "_series_rows", lambda E0, A, depth: calls.append(depth) or real(E0, A, depth)
    )
    flow = linear_flow([[0.0, 1.0], [-1.0, 0.0]])
    t1, t2 = Jet(0.7, 1.0), Jet(Jet(0.7, 1.0), Jet(0.5, 0.25))
    first = [flow.evaluate(t, [1.0, 0.0]) for t in (t1, t2)]
    assert repr([flow.evaluate(t, [1.0, 0.0]) for t in (t1, t2)]) == repr(first)
    assert calls == [1, 2]
    # the memo is bounded: 256 further times evict (0.7, 1)
    for k in range(256):
        flow.evaluate(Jet(1.0 + k / 1000.0, 1.0), [1.0, 0.0])
    flow.evaluate(t1, [1.0, 0.0])
    assert len(calls) == 2 + 256 + 1


def test_linear_flow_jet_time_gives_matrix_derivative():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    flow = linear_flow(A)
    out = flow.evaluate(Jet(0.3, 1.0), [1.0, 2.0])
    E = expm(0.3 * A)
    want_val = E @ np.array([1.0, 2.0])
    want_der = A @ want_val
    assert max(abs(o.primal - v) for o, v in zip(out, want_val)) <= 1e-12
    assert max(abs(o.tangent - v) for o, v in zip(out, want_der)) <= 1e-12


# -- generator ----------------------------------------------------------------------


def test_generator_of_linear_flow_recovers_matrix():
    A = np.array([[0.2, -1.1], [0.7, 0.4]])
    got = matrix_of(generator(linear_flow(A)))
    assert np.max(np.abs(got - A)) <= 1e-9


def test_generator_of_constant_flow_is_zero_field():
    flow = Flow(Space(2), lambda t, xs: list(xs), {"kind": "exact closed form"})
    gen = generator(flow)
    for p in sample_points(2, count=10, seed=10):
        assert _vals(gen.vhat(p)) == [0.0, 0.0]


@pytest.mark.xfail(strict=True, reason="perturbation confusion, ROADMAP N1 step 2")
def test_generator_inside_a_tangent_keeps_the_outer_direction():
    # g(x) = d/dt (y + x t) at t = 0 is x, so T(g)(2, 1) = (2, 1); the jet of
    # x captured in the flow collides with the generator's time jet
    g = SmoothMap(
        Space(1),
        Space(1),
        lambda xs: generator(Flow(Space(1), lambda t, ys: [ys[0] + xs[0] * t])).vhat([0.0]),
    )
    assert tangent(g)([2.0, 1.0]) == [2.0, 1.0]


def test_generator_of_numeric_rotation_flow():
    gen = generator(flow_of(rotation_field()))
    rot = rotation_field()
    for p in sample_points(2, count=20, seed=11):
        got = _vals(gen.vhat(p))
        want = _vals(rot.vhat(p))
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-6


def _hand_written_rotation(t, xs):
    c, s = jets.cos(t), jets.sin(t)
    return [c * xs[0] + s * xs[1], -s * xs[0] + c * xs[1]]


_CLOSED_STARTS = [[0.5, -1.25], [-0.0, 2.0], [Jet(0.5, 1.0), Jet(Jet(-1.0, 0.25), -0.0)]]


def test_a_closed_form_flow_evaluates_as_its_hand_written_form():
    flow = Flow.from_expr("cos(t)*x1 + sin(t)*x2; -sin(t)*x1 + cos(t)*x2", 2)
    assert flow.provenance == {"kind": "exact closed form"}
    assert kernel._rule(flow_smooth_map(flow)) is not None
    for t in (0.0, -0.75, Jet(0.5, 1.0), Jet(Jet(1.5, -1.0), Jet(0.25, 2.0))):
        for xs in _CLOSED_STARTS:
            assert repr(flow(t, xs)) == repr(_hand_written_rotation(t, xs))


def test_a_closed_form_needs_one_component_per_coordinate():
    with pytest.raises(ShapeError, match="needs 2 components, got 1"):
        Flow.from_expr("exp(t)*x1", 2)
    with pytest.raises(dsl.UnknownIdentifier):
        Flow.from_expr("x1; y", 2)


@pytest.mark.parametrize(
    "evaluate",
    [
        # a wrapper, as a tracer replaces evaluate, and a hand-written form
        lambda t, xs: rotation_closed_flow().evaluate(t, xs),
        _hand_written_rotation,
    ],
    ids=["wrapped", "hand-written"],
)
def test_a_flow_without_its_map_takes_one_jet_evaluation_with_the_same_bits(evaluate):
    closed = rotation_closed_flow()
    other = dataclasses.replace(closed, evaluate=evaluate)
    ruled, plain = generator(closed), generator(other)
    assert kernel._kernels(ruled.vhat) is not None
    assert kernel._kernels(plain.vhat) is None
    assert flow_smooth_map(other).name == "flow"
    for xs in _CLOSED_STARTS:
        want = repr(time_derivative(other.evaluate, 0.0, xs)[1])
        assert repr(ruled.vhat(xs)) == repr(plain.vhat(xs)) == want
        for t in (0.75, Jet(-0.5, 1.0)):
            assert repr(flow_of(ruled)(t, xs)) == repr(flow_of(plain)(t, xs))


def test_no_law_suite_solve_goes_through_the_jet_codec(monkeypatch):
    # every field the suites solve carries kernels: closed-form generators and
    # geodesic fields too (the parent of this change called 76 on the codec)
    lookups, real = [], dynamics._flat_kernel
    monkeypatch.setattr(
        dynamics, "_flat_kernel",
        lambda vhat, depth: lookups.append(real(vhat, depth)) or lookups[-1],
    )
    run_suite("all", 3)
    assert len(lookups) > 1000
    assert [k for k in lookups if k is None] == []


def test_linear_flow_jet_time_coefficients_are_pinned():
    # every coefficient of a depth-1 and a depth-2 time, bit for bit, as
    # Python floats
    flow = linear_flow([[0.5, -1.25], [2.0, 0.25]])
    pins = {
        Jet(0.75, 1.0): [
            ["0x1.15db58b3d2b0bp+0", "-0x1.261b181c3e734p+0"],
            ["0x1.5a6d69f81fd61p+0", "0x1.412905f2d6ab6p+1"],
        ],
        Jet(Jet(0.75, 1.0), Jet(0.5, -0.25)): [
            ["0x1.15db58b3d2b0bp+0", "-0x1.261b181c3e734p+0",
             "-0x1.261b181c3e734p-1", "-0x1.9173476f8c566p+0"],
            ["0x1.5a6d69f81fd61p+0", "0x1.412905f2d6ab6p+1",
             "0x1.412905f2d6ab6p+0", "-0x1.76655998f41e2p+0"],
        ],
    }
    for t, want in pins.items():
        got = [coefficients(v) for v in flow.evaluate(t, [1.0, -0.5])]
        assert [[c.hex() for c in row] for row in got] == want
        assert {type(c) for row in got for c in row} == {float}


# -- sigma, eta, reverse --------------------------------------------------------------


def test_sigma_is_addition_on_grid():
    sigma = sigma_flow()
    for t in (-2.0, -1.0, 0.0, 1.0, 2.0):
        for s in (-2.0, -1.0, 0.0, 1.0, 2.0):
            got = sigma.evaluate(t, [s])[0]
            assert abs(got - (t + s)) <= 1e-9


def test_sigma_unit_is_exact():
    sigma = sigma_flow()
    assert sigma.evaluate(0.0, [0.75]) == [0.75]


def test_sigma_commutative():
    sigma = sigma_flow()
    for t, s in sample_points(2, count=20, seed=12):
        assert abs(sigma.evaluate(t, [s])[0] - sigma.evaluate(s, [t])[0]) <= 1e-9


def test_eta_negates():
    eta_map = eta()
    assert abs(eta_map([1.5])[0] + 1.5) <= 1e-9


def test_reverse_linear_flow_is_flow_of_negated_matrix():
    A = np.array([[0.3, 1.0], [-0.4, 0.1]])
    rev = reverse(linear_flow(A))
    tgt = linear_flow(-A)
    for t in (-1.0, 0.5, 2.0):
        for x in sample_points(2, count=5, seed=13):
            a = rev.evaluate(t, x)
            b = tgt.evaluate(t, x)
            assert max(abs(primal_value(u) - primal_value(v)) for u, v in zip(a, b)) <= 1e-9


def test_flow_backwards_then_forwards_is_identity():
    flow = flow_of(rotation_field())
    eta_map = eta()
    t = 0.7
    for x in sample_points(2, count=5, seed=14):
        back = flow.evaluate(eta_map([t])[0], flow.evaluate(t, x))
        assert max(abs(primal_value(u) - v) for u, v in zip(back, x)) <= 1e-6


# -- flow laws -------------------------------------------------------------------------


def test_flow_laws_pass_for_linear_flow():
    A = np.array([[0.1, 0.8], [-0.6, 0.2]])
    for check in flow_laws(linear_flow(A), samples=sample_points(2, count=5, seed=15), tol=1e-9):
        assert check.passed, (check.law, check.max_residual)


def test_flow_laws_pass_for_numeric_rotation_flow():
    flow = flow_of(rotation_field())
    for check in flow_laws(flow, samples=sample_points(2, count=4, seed=16), tol=1e-6):
        assert check.passed, (check.law, check.max_residual)


def test_flow_laws_catch_corrupted_flow():
    eul = euler_space_field(Space(1))
    corrupted = Flow(
        Space(1),
        lambda t, xs: [x + t * v for x, v in zip(xs, eul.vhat([primal_value(q) for q in xs]))],
        {"kind": "corrupted"},
    )
    checks = {c.law: c for c in flow_laws(corrupted, samples=[[1.0]], tol=1e-6)}
    action = checks["flow-action"]
    assert not action.passed
    assert action.max_residual >= 0.1  # (t,s)=(1,1) from x=1: 4 vs e^2-like 3


def test_own_invariance_catches_a_flow_that_does_not_carry_its_generator():
    # gamma(t, x) = x + t x^2 has generator x^2, but D_x gamma(t, x) x^2 =
    # (1 + 2 t x) x^2 is not (x + t x^2)^2 once t != 0
    flow = Flow(Space(1), lambda t, xs: [xs[0] + t * xs[0] ** 2], {"kind": "bad"})
    row = {c.law: c for c in flow_laws(flow)}["flow-own-invariance"]
    assert not row.passed
    t, x = row.witness
    assert t == -2.0 and abs(x - 1.985) <= 1e-3
    want = abs((1 + 2 * t * x) * x**2 - (x + t * x**2) ** 2)
    assert math.isclose(row.max_residual, want, rel_tol=1e-12)
    assert abs(row.max_residual - 62.16) <= 0.01


def test_invariance_rows_catch_a_non_commuting_pair():
    # at any point, the rotation moved by the x1-translation is off by |t|,
    # and the unit field pushed by the rotation turns to (cos t, -sin t)
    unit = VectorField.from_expr("1; 0", 2)
    rep = {c.law: c for c in commuting_flows_check(rotation_field(), unit, samples=[[0.3, -0.4]])}
    one, two = rep["field1-invariant"], rep["field2-invariant"]
    assert not one.passed and math.isclose(one.max_residual, 2.0, rel_tol=1e-9)
    assert not two.passed and math.isclose(two.max_residual, 1 - math.cos(2.0), rel_tol=1e-9)


def test_curve_object_self_checks():
    for check in curve().self_check():
        assert check.passed, check.law


# -- commuting flows, sums --------------------------------------------------------------


def test_commuting_flows_check_positive():
    rot = rotation_field()
    eul = euler_space_field(Space(2))
    rep = commuting_flows_check(rot, eul, samples=sample_points(2, count=5, seed=17),
                                times=(-1.0, 0.5, 1.0), tol=1e-6)
    assert all(c.passed for c in rep), [(c.law, c.max_residual) for c in rep]


def test_commuting_flows_check_negative_shears():
    a = LinearVectorField([[0.0, 1.0], [0.0, 0.0]])
    b = LinearVectorField([[0.0, 0.0], [1.0, 0.0]])
    rep = commuting_flows_check(a, b, samples=sample_points(2, count=5, seed=18),
                                times=(0.5, 1.0), tol=1e-6)
    interchange, comm = rep[0], rep[1]
    assert not interchange.passed and interchange.max_residual >= 1e-2
    assert not comm.passed


def test_commuting_flows_with_zero_field():
    rot = rotation_field()
    rep = commuting_flows_check(rot, zero_field(Space(2)),
                                samples=sample_points(2, count=5, seed=19),
                                times=(0.5, 1.0), tol=1e-6)
    assert all(c.passed for c in rep)


def test_sum_flow_equals_flow_of_sum_for_commuting_matrices():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    B = 0.5 * np.eye(2)
    sflow = sum_flow(LinearVectorField(A), LinearVectorField(B))
    target = linear_flow(A + B)
    for t in (0.25, 1.0):
        for x in sample_points(2, count=5, seed=20):
            a = sflow.evaluate(t, x)
            b = target.evaluate(t, x)
            assert max(abs(primal_value(u) - primal_value(v)) for u, v in zip(a, b)) <= 1e-6


def test_sum_flow_with_zero_field_is_original():
    eul = euler_space_field(Space(1))
    sflow = sum_flow(eul, zero_field(Space(1)))
    assert abs(sflow.evaluate(1.0, [1.0])[0] - math.e) <= 1e-8


def test_sum_flow_rejects_noncommuting_fields():
    a = LinearVectorField([[0.0, 1.0], [0.0, 0.0]])
    b = LinearVectorField([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(NonCommutingFields):
        sum_flow(a, b)


def test_sum_flow_judges_commutation_at_its_tol():
    # the pair fails to commute by about 2e-6: past the default tolerance,
    # within the one given
    a = LinearVectorField([[0.0, 1.0], [-1.0, 0.0]])
    b = LinearVectorField([[1e-6, 0.0], [0.0, 0.0]])
    with pytest.raises(NonCommutingFields, match=r"residual 1\.996e-06"):
        sum_flow(a, b)
    flow = sum_flow(a, b, tol=1e-3)
    assert flow.provenance["kind"] == "sum"


def test_sum_flow_order_independent():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    B = 0.5 * np.eye(2)
    f1 = sum_flow(LinearVectorField(A), LinearVectorField(B))
    f2 = sum_flow(LinearVectorField(B), LinearVectorField(A))
    for x in sample_points(2, count=5, seed=21):
        a = f1.evaluate(1.0, x)
        b = f2.evaluate(1.0, x)
        assert max(abs(primal_value(u) - primal_value(v)) for u, v in zip(a, b)) <= 1e-6


# -- solution lemmas ---------------------------------------------------------------------


def test_tangent_of_solution_solves_lifted_system():
    flow = flow_of(rotation_field())
    for t in (-1.0, 0.5, 1.0):
        for x in sample_points(2, count=4, seed=22):
            assert tangent_of_solution_residual(flow, rotation_field(), 2.0, t, x) <= 1e-6


def test_solution_square_residuals_covanish():
    flow = flow_of(rotation_field())
    v = rotation_field()
    for t in (0.5, 1.0):
        for x in sample_points(2, count=4, seed=23):
            full, proj = solution_square_residuals(flow.evaluate, v, t, x)
            assert abs(full - proj) <= 1e-9
            assert full <= 1e-7


def test_solution_square_fires_on_corrupted_candidate():
    v = euler_space_field(Space(1))
    corrupted = lambda t, xs: [
        x + t * w for x, w in zip(xs, v.vhat([primal_value(q) for q in xs]))
    ]
    full, proj = solution_square_residuals(corrupted, v, 1.0, [1.0])
    assert abs(full - proj) <= 1e-9
    assert proj > 0.5  # d/dt (x + t x) = x vs vhat = x + t x


# -- higher order, geodesics, time dependence ----------------------------------------------


def closed_form_damped(t):
    return (2.0 / math.sqrt(3.0)) * math.exp(-t / 2.0) * math.sin(math.sqrt(3.0) * t / 2.0)


def test_second_order_damped_oscillator():
    vf = VectorField.from_expr("x2; -x2-x1", 2)
    system = DynamicalSystem(Space(1), vf, order=2)
    for t in (0.5, 1.0, 2.0):
        got = solve_nth_order(system, t, [0.0, 1.0])
        assert abs(got[0] - closed_form_damped(t)) <= 1e-6


def test_second_order_straight_line():
    vf = VectorField.from_expr("x2; 0", 2)
    system = DynamicalSystem(Space(1), vf, order=2)
    got = solve_nth_order(system, 1.75, [0.0, 1.0])
    assert abs(got[0] - 1.75) <= 1e-9


def test_second_order_initial_map_sets_the_start_state():
    vf = VectorField.from_expr("x2; 0", 2)
    double = SmoothMap(Space(2), Space(2), lambda xs: [xs[0], 2.0 * xs[1]])
    system = DynamicalSystem(Space(1), vf, initial_map=double, order=2)
    got = solve_nth_order(system, 1.5, [0.0, 1.0])
    assert got == solve_nth_order(DynamicalSystem(Space(1), vf, order=2), 1.5, [0.0, 2.0])
    assert abs(got[0] - 3.0) <= 1e-9


def test_second_order_sine():
    vf = VectorField.from_expr("x2; -x1", 2)
    system = DynamicalSystem(Space(1), vf, order=2)
    got = solve_nth_order(system, math.pi / 2.0, [0.0, 1.0])
    assert abs(got[0] - 1.0) <= 1e-6


def test_third_order_reduction():
    # y''' = 0 with y(0)=0, y'(0)=0, y''(0)=2: y(t) = t^2; the initial
    # state is the holonomic embedding (y, y', y', y'') = (0, 0, 0, 2)
    from tangentkit.dynamics import holonomic_jet

    vf = VectorField.from_expr("x2; x4; x4; 0", 4)
    system = DynamicalSystem(Space(1), vf, order=3)
    x0 = holonomic_jet([[0.0], [0.0], [2.0]])
    assert x0 == [0.0, 0.0, 0.0, 2.0]
    got = solve_nth_order(system, 1.5, x0)
    assert abs(got[0] - 2.25) <= 1e-8


def test_holonomic_jet_of_vector_blocks_is_the_iterated_jet():
    d = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]]
    assert holonomic_jet(d[:2]) == d[0] + d[1]
    assert holonomic_jet(d) == d[0] + d[1] + d[1] + d[2] + d[1] + d[2] + d[2] + d[3]


@pytest.mark.parametrize("blocks", [[], [[1.0, 2.0], [3.0]], [[0.0], [1.0], [2.0, 3.0]]])
def test_holonomic_jet_refuses_no_blocks_and_blocks_of_unequal_length(blocks):
    # no blocks recursed until a RecursionError, and blocks of unequal
    # length were joined into a list that is no jet
    with pytest.raises(ShapeError, match="^a holonomic jet needs blocks of one length"):
        holonomic_jet(blocks)


def test_section_conditions_rejected_when_violated():
    # third slot must equal the second (VT(p) = 1); here it does not
    vf = VectorField.from_expr("x1; -x1", 2)
    system = DynamicalSystem(Space(1), vf, order=2)
    with pytest.raises(ShapeError):
        solve_nth_order(system, 1.0, [0.0, 1.0])


def test_section_conditions_reject_a_nan_velocity_block():
    # a NaN in the block T(p) checks must fail the check, not slip past it
    tm = Space(2)
    vf = VectorField(tm, SmoothMap(tm, tm, lambda xs: [xs[1] * math.nan, -xs[0]]))
    system = DynamicalSystem(Space(1), vf, order=2)
    with pytest.raises(ShapeError, match="nan"):
        solve_nth_order(system, 0.5, [1.0, 0.0])


def test_geodesic_flat_connection_is_linear_motion():
    conn = Connection(2, SmoothMap(Space(4), Space(2), lambda xs: [0.0, 0.0]))
    flow = geodesic_flow(conn)
    for x in sample_points(4, count=5, seed=24):
        got = flow.evaluate(1.0, x)
        want = [x[0] + x[2], x[1] + x[3], x[2], x[3]]
        assert max(abs(primal_value(u) - w) for u, w in zip(got, want)) <= 1e-8


def test_geodesic_half_plane_stays_on_unit_circle():
    flow = geodesic_flow(half_plane_connection())
    for k in range(9):
        t = 0.25 * k
        pt = flow.evaluate(t, [0.0, 1.0, 1.0, 0.0])
        assert abs(primal_value(pt[0]) ** 2 + primal_value(pt[1]) ** 2 - 1.0) <= 1e-5


def test_geodesic_acceleration_residuals():
    flat = Connection(2, SmoothMap(Space(4), Space(2), lambda xs: [0.0, 0.0]))
    f1 = geodesic_flow(flat)
    assert acceleration_residual(f1, sample_points(4, count=3, seed=25)) <= 1e-6
    f2 = geodesic_flow(half_plane_connection())
    assert acceleration_residual(f2, [[0.0, 1.0, 1.0, 0.0]], times=(0.5, 1.0, 2.0)) <= 1e-6


def test_connection_quadratic_check_fires():
    bad = Connection(1, SmoothMap(Space(2), Space(1), lambda xs: [xs[1]]))
    assert not bad.quadratic_check().passed
    with pytest.raises(ShapeError):
        geodesic_flow(bad)


def test_augment_time_nonhomogeneous_equation():
    spec = dsl.parse("x1 + cos(t)", 1, time_dependent=True)
    system = augment_time(spec)
    got = integrate(system, 1.0, [0.0])
    want = (math.e + math.sin(1.0) - math.cos(1.0)) / 2.0
    assert abs(got[0] - want) <= 1e-6


def test_augment_time_pure_cosine():
    spec = dsl.parse("cos(t)", 1, time_dependent=True)
    system = augment_time(spec)
    got = integrate(system, math.pi, [0.0])
    assert abs(got[0]) <= 1e-6


def test_augment_time_clock_component():
    spec = dsl.parse("x1 + cos(t)", 1, time_dependent=True)
    system = augment_time(spec)
    got = integrate(system, 1.25, [0.0])
    assert abs(got[1] - 1.25) <= 1e-9


def test_augment_time_requires_time_dependence():
    with pytest.raises(ValueError):
        augment_time(dsl.parse("x1", 1))


@pytest.mark.parametrize("expr, arity", [("x1; 5*x1", 1), ("1", 2)])
def test_augment_time_requires_one_component_per_coordinate(expr, arity):
    spec = dsl.parse(expr, arity, time_dependent=True)
    with pytest.raises(ShapeError):
        augment_time(spec)
    with pytest.raises(ShapeError):
        DynamicalSystem.from_field_spec(spec)


@pytest.mark.parametrize("time_dependent", [False, True])
def test_every_field_constructor_says_the_same_about_a_missing_component(time_dependent):
    spec = dsl.parse("x1", 2, time_dependent=time_dependent)
    message = "a field on R\\^2 needs 2 components, got 1"
    with pytest.raises(ShapeError, match=message):
        DynamicalSystem.from_field_spec(spec)
    if time_dependent:
        with pytest.raises(ShapeError, match=message):
            augment_time(spec)
    else:
        with pytest.raises(ShapeError, match=message):
            VectorField.from_expr("x1", 2)


def test_from_field_spec_routes_time_dependence():
    system = DynamicalSystem.from_field_spec(dsl.parse("x1 + cos(t)", 1, time_dependent=True))
    assert system.space == Space(2)
    plain = DynamicalSystem.from_field_spec(dsl.parse("x1", 1))
    assert plain.space == Space(1)


def test_closed_flow_oracles_agree_with_numeric():
    # the oracles themselves: rotation closed flow solves the rotation field
    closed = rotation_closed_flow()
    numeric = flow_of(rotation_field())
    for t in (-1.0, 0.5, 1.0):
        for x in sample_points(2, count=5, seed=26):
            a = closed.evaluate(t, x)
            b = numeric.evaluate(t, x)
            assert max(abs(primal_value(u) - primal_value(v)) for u, v in zip(a, b)) <= 1e-8
    ec = euler_closed_flow(1)
    assert abs(ec.evaluate(1.0, [1.0])[0] - math.e) <= 1e-15
