import dataclasses
import math

import numpy as np
import pytest

from tangentkit import dsl
from tangentkit.dynamics import (
    Connection,
    DynamicalSystem,
    Flow,
    IntegratorConfig,
    MaxStepsExceeded,
    NonCommutingFields,
    StepSizeCollapse,
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
from tangentkit.jets import Jet, coefficients, primal_value
from tangentkit.kernel import ShapeError, SmoothMap, Space, tangent
from tangentkit.sampling import sample_points
from tangentkit.verify import (
    euler_closed_flow,
    half_plane_connection,
    rotation_closed_flow,
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
    cfg = IntegratorConfig(method=method, h=0.01)
    for values in (lambda xs: [xs[1]], lambda xs: [xs[1], -xs[0], 1.0]):
        v = VectorField(Space(2), SmoothMap(Space(2), Space(2), values))
        with pytest.raises(ShapeError):
            integrate(DynamicalSystem(Space(2), v), 1.0, [1.0, 0.0], cfg)


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
# are not full towers of the solve's depth.


def test_float_state_under_a_depth_two_time_is_pinned():
    lorenz, evals = _counted(
        VectorField.from_expr("10*(x2-x1); x1*(28-x3)-x2; x1*x2-8/3*x3", 3)
    )
    got = flow_of(lorenz)(Jet(Jet(0.5, 1.0), Jet(1.0, 0.0)), [1.0, 1.0, 20.0])
    assert repr(got) == (
        "[Jet(Jet(15.641180006136262, -21.01135572288511), "
        "Jet(-21.01135572288511, -1602.841090464834)), "
        "Jet(Jet(13.540044435820814, -181.29546470485008), "
        "Jet(-181.29546470485008, -1290.6547704567008)), "
        "Jet(Jet(38.725240689503266, 108.5149637914896), "
        "Jet(108.5149637914896, -3409.542925748087))]"
    )
    assert len(evals) == 733


def test_time_derivative_over_a_tangent_is_pinned():
    # the state is the ragged Jet(Jet(a, b), 0.0) under the time Jet(t, 1.0)
    field, evals = _counted(VectorField.from_expr("x2; -x1*(1+x1*x1)", 2))
    got = time_derivative(flow_of(field), 0.75, [Jet(1.0, 1.0), Jet(0.5, -0.0)])
    assert repr(got) == (
        "([Jet(0.7829299927040847, 0.033726737952773894), "
        "Jet(-0.9742426649914415, -2.009158766594551)], "
        "[Jet(-0.9742426650775868, -2.009158766750919), "
        "Jet(-1.2628499289345565, -0.09574812119646318)])"
    )
    assert len(evals) == 235


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
