import math

import pytest

from tangentkit.jets import exp as jet_exp, primal_value
from tangentkit.kernel import (
    ShapeError,
    SmoothMap,
    Space,
    TrivialBundle,
    identity_map,
    structural_map,
    tangent,
)
from tangentkit.rig import (
    C_BUNDLE,
    action,
    action_suite,
    e_map,
    euler_field,
    exp_flow,
    linearity_via_action,
    multiply,
    rig_suite,
)
from tangentkit.sampling import sample_points


def _vals(xs):
    return [primal_value(v) for v in xs]


# -- scaling field -----------------------------------------------------------------


def test_euler_field_on_differential_object_is_identity_component():
    field = euler_field(TrivialBundle(0, 1))
    for (x,) in sample_points(1, count=10, seed=1):
        assert _vals(field.vhat([x])) == [x]


def test_euler_field_coordinates_on_bundle():
    field = euler_field(TrivialBundle(1, 1))
    full = _vals(field.full_map([2.0, 3.0]))
    assert full == [2.0, 3.0, 0.0, 3.0]  # point (2,3), direction (0,3)


def test_euler_field_vanishes_on_zero_fibre():
    field = euler_field(TrivialBundle(1, 2))
    assert _vals(field.vhat([1.5, 0.0, 0.0])) == [0.0, 0.0, 0.0]


# -- exponential flows --------------------------------------------------------------


def test_exp_flow_scales_by_e_to_t():
    flow = exp_flow(TrivialBundle(0, 2))
    got = flow.evaluate(1.0, [1.0, 2.0])
    assert abs(got[0] - math.e) <= 1e-8
    assert abs(got[1] - 2.0 * math.e) <= 1e-8


def test_exp_flow_at_time_zero_is_identity():
    flow = exp_flow(TrivialBundle(1, 1))
    assert flow.evaluate(0.0, [2.0, 3.0]) == [2.0, 3.0]


def test_exp_flow_keeps_base_constant():
    flow = exp_flow(TrivialBundle(1, 1))
    for t in (-2.0, -0.5, 1.0, 2.0):
        got = flow.evaluate(t, [1.25, 3.0])
        assert got[0] == 1.25
        assert abs(got[1] - 3.0 * math.exp(t)) <= 1e-8


def test_exp_flow_matches_closed_form_across_window():
    ef = exp_flow(TrivialBundle(1, 2))

    def closed_form(t, xs):  # (t, (x, a)) -> (x, e^t a)
        return list(xs[:1]) + [jet_exp(t) * a for a in xs[1:]]

    for t in (-2.0, -1.0, -0.25, 0.5, 1.5, 2.0):
        for p in sample_points(3, count=5, seed=2):
            got = ef.evaluate(t, p)
            want = _vals(closed_form(t, p))
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-8


def test_exp_flow_is_linear_bundle_morphism_on_samples():
    # differentiates along the zero section, where the adaptive controller
    # is blind (zero primal error), so this jet-heavy check runs on the
    # fixed-step integrator
    from tangentkit.dynamics import IntegratorConfig

    bundle = TrivialBundle(1, 1)
    ef = exp_flow(bundle, IntegratorConfig(method="rk4", h=1e-3))
    lift = structural_map("bundle_lift", bundle)
    fmap = SmoothMap(
        Space(3), Space(2), lambda xs: ef.evaluate(xs[0], xs[1:]), name="exp"
    )
    tf = tangent(fmap)
    for t in (-1.0, 0.5, 1.0):
        for x, a in sample_points(2, count=5, seed=3):
            # (0 x lift) T(exp) = exp lift: linearity over the product bundle
            lifted = lift([x, a])
            lhs = tf([t, lifted[0], lifted[1], 0.0, lifted[2], lifted[3]])
            rhs = lift(_vals(ef.evaluate(t, [x, a])))
            assert max(abs(primal_value(u) - primal_value(v)) for u, v in zip(lhs, rhs)) <= 1e-7


# -- the exponential of the curve ----------------------------------------------------


def test_e_at_zero_is_one_exactly():
    e = e_map()
    assert e([0.0]) == [1.0]


def test_e_at_one():
    e = e_map()
    assert abs(e([1.0])[0] - math.e) <= 1e-8


def test_derivative_of_e_is_the_exp_flow():
    e = e_map()
    de = tangent(e)
    for t in (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0):
        for v in (-1.5, 1.0, 2.0):
            got = de([t, v])[1]
            assert abs(primal_value(got) - v * math.exp(t)) <= 1e-7


def test_multiply_examples():
    assert abs(primal_value(multiply(2.0, 3.0)) - 6.0) <= 1e-7
    for (x,) in sample_points(1, count=10, seed=4):
        assert abs(primal_value(multiply(1.0, x)) - x) <= 1e-7
        assert abs(primal_value(multiply(0.0, x))) <= 1e-9


def test_multiply_on_wide_range():
    e = e_map()
    for a, b in sample_points(2, count=25, seed=5):
        a, b = 1.5 * a, 1.5 * b  # [-3, 3]
        assert abs(primal_value(multiply(a, b, e=e)) - a * b) <= 1e-7


def test_rig_structure_unit():
    e = e_map()
    assert primal_value(e([0.0])[0]) == 1.0
    assert abs(primal_value(multiply(2.0, 3.0, e=e)) - 6.0) <= 1e-7


def test_rig_suite_passes():
    for check in rig_suite():
        assert check.passed, (check.law, check.max_residual)


def test_rig_suite_rejects_perturbed_exponential():
    def ev(xs):
        t = xs[0]
        return [jet_exp(t) - t * 1e-3]

    mutated = SmoothMap(Space(1), Space(1), ev, name="e_bad")
    checks = {c.law: c for c in rig_suite(e=mutated)}
    deriv_sum = checks["rig-derivative-sum"]
    assert not deriv_sum.passed
    assert deriv_sum.max_residual >= 1e-4


# -- the action ----------------------------------------------------------------------


def test_action_is_fibrewise_scaling():
    act = action(TrivialBundle(1, 1))
    got = _vals(act([2.0, 1.0, 3.0]))
    assert abs(got[0] - 1.0) <= 1e-7
    assert abs(got[1] - 6.0) <= 1e-6


def test_action_unit_and_zero():
    act = action(TrivialBundle(1, 2))
    for x, a1, a2 in sample_points(3, count=10, seed=6):
        unit = _vals(act([1.0, x, a1, a2]))
        assert max(abs(u - v) for u, v in zip(unit, (x, a1, a2))) <= 1e-7
        collapsed = _vals(act([0.0, x, a1, a2]))
        assert max(abs(u - v) for u, v in zip(collapsed, (x, 0.0, 0.0))) <= 1e-8


def test_action_on_differential_object_is_scalar_multiplication():
    act = action(TrivialBundle(0, 2))
    got = _vals(act([2.0, 1.0, 3.0]))
    assert max(abs(u - v) for u, v in zip(got, (2.0, 6.0))) <= 1e-6


@pytest.mark.parametrize("bundle", [TrivialBundle(0, 2), TrivialBundle(1, 1), TrivialBundle(2, 3)])
def test_action_suite_passes(bundle):
    for check in action_suite(bundle):
        assert check.passed, (bundle, check.law, check.max_residual)


def test_action_time_derivative_is_lift_on_line():
    act = action(C_BUNDLE)
    t_act = tangent(act)
    out = t_act([0.0, 5.0, 1.0, 0.0])
    # equals lift(5) = (0, 5)
    assert abs(primal_value(out[0])) <= 1e-7
    assert abs(primal_value(out[1]) - 5.0) <= 1e-7


# -- linearity equivalence -------------------------------------------------------------


def test_fibrewise_doubling_is_linear_and_preserves_everything():
    b = TrivialBundle(1, 1)
    f = SmoothMap(Space(2), Space(2), lambda xs: [xs[0], 2.0 * xs[1]], name="double")
    rep = linearity_via_action(f, b, b)
    assert rep.is_bundle_map.passed
    assert rep.is_linear.passed
    assert rep.preserves_action.passed
    assert rep.preserves_exp.passed
    assert rep.agreement


def test_fibrewise_square_fails_linearity_and_action_together():
    b = TrivialBundle(1, 1)
    f = SmoothMap(Space(2), Space(2), lambda xs: [xs[0], xs[1] * xs[1]], name="square")
    rep = linearity_via_action(f, b, b, samples=[[2.0, 0.5, 1.0, 1.0]])
    assert not rep.is_linear.passed
    assert not rep.preserves_action.passed
    assert rep.agreement
    # at s=2, (x, a) = (0.5, 1): f(x, 2a) = 4 vs 2 * f(x, a) = 2
    assert rep.preserves_action.max_residual >= 0.5


def test_identity_preserves_all_with_zero_residual():
    b = TrivialBundle(1, 1)
    rep = linearity_via_action(identity_map(Space(2)), b, b)
    assert rep.is_linear.passed and rep.preserves_action.passed
    assert rep.is_linear.max_residual == 0.0


def test_linearity_via_action_shape_check():
    with pytest.raises(ShapeError):
        linearity_via_action(
            identity_map(Space(2)), TrivialBundle(1, 2), TrivialBundle(1, 2)
        )


def test_action_report_serializes():
    b = TrivialBundle(1, 1)
    rep = linearity_via_action(identity_map(Space(2)), b, b)
    d = rep.to_dict()
    assert set(d) == {
        "is_bundle_map",
        "is_linear",
        "preserves_action",
        "preserves_exp",
        "agreement",
    }
