import math

import pytest

from tangentkit.jets import (
    EvaluationDomainError,
    Jet,
    close_level,
    coefficients,
    cos,
    exp,
    jet_depth,
    ln,
    open_level,
    pow_int,
    primal_value,
    sin,
    sqrt,
    tanh,
)


def test_first_order_arithmetic():
    x = Jet(3.0, 1.0)
    y = x * x
    assert y.primal == 9.0 and y.tangent == 6.0
    assert (x + 2.0).primal == 5.0
    assert (2.0 - x).tangent == -1.0
    assert (x / Jet(2.0, 0.0)).primal == 1.5


def test_quotient_rule():
    x = Jet(2.0, 1.0)
    y = (x * x + 1.0) / x  # f(x) = x + 1/x, f'(x) = 1 - 1/x^2
    assert math.isclose(y.primal, 2.5)
    assert math.isclose(y.tangent, 1.0 - 0.25)


def test_nested_jets_give_second_derivatives():
    # f(x) = x^3: f(2) = 8, f'(2) = 12, f''(2) = 12
    x = Jet(Jet(2.0, 1.0), Jet(1.0, 0.0))
    y = pow_int(x, 3)
    assert y.primal.primal == 8.0
    assert y.primal.tangent == 12.0
    assert y.tangent.primal == 12.0
    assert y.tangent.tangent == 12.0  # d2/dx2 x^3 = 6x


def test_transcendental_chain_rule():
    x = Jet(0.7, 1.0)
    s = sin(x)
    assert math.isclose(s.primal, math.sin(0.7))
    assert math.isclose(s.tangent, math.cos(0.7))
    e = exp(x)
    assert math.isclose(e.tangent, math.exp(0.7))
    t = tanh(x)
    assert math.isclose(t.tangent, 1.0 - math.tanh(0.7) ** 2)
    r = sqrt(x)
    assert math.isclose(r.tangent, 0.5 / math.sqrt(0.7))
    l = ln(x)
    assert math.isclose(l.tangent, 1.0 / 0.7)


def test_constants_have_zero_derivative():
    x = Jet(1.5, 1.0)
    assert (x * 3.0).tangent == 3.0
    assert (x + 5.0).tangent == 1.0
    assert (-x).tangent == -1.0


@pytest.mark.parametrize(
    "fn,value",
    [(ln, 0.0), (ln, -1.0), (sqrt, -4.0)],
)
def test_domain_errors(fn, value):
    with pytest.raises(EvaluationDomainError) as info:
        fn(Jet(value, 1.0))
    assert info.value.coordinate == value


def test_division_by_zero_primal():
    with pytest.raises(EvaluationDomainError):
        Jet(1.0, 0.0) / Jet(0.0, 1.0)
    with pytest.raises(EvaluationDomainError):
        pow_int(Jet(0.0, 1.0), -2)


def test_sqrt_at_zero_rejected_for_jets():
    assert sqrt(0.0) == 0.0
    with pytest.raises(EvaluationDomainError):
        sqrt(Jet(0.0, 1.0))


def test_negative_integer_power():
    x = Jet(2.0, 1.0)
    y = pow_int(x, -2)  # x^-2, derivative -2 x^-3
    assert math.isclose(y.primal, 0.25)
    assert math.isclose(y.tangent, -0.25)


def test_helpers():
    x = Jet(Jet(1.0, 2.0), Jet(3.0, 4.0))
    assert primal_value(x) == 1.0
    assert coefficients(x) == [1.0, 2.0, 3.0, 4.0]
    assert jet_depth(x) == 2
    assert jet_depth(1.0) == 0


def test_cos_second_derivative_is_negated_cos():
    x = Jet(Jet(0.3, 1.0), Jet(1.0, 0.0))
    y = cos(x)
    assert math.isclose(y.tangent.tangent, -math.cos(0.3))


def test_close_level_splits_a_constant_as_zero_tangent():
    assert close_level([2.5, -3]) == ([2.5, -3], [0.0, 0.0])


def test_close_level_splits_exactly_one_level():
    inner, direction = Jet(1.0, 2.0), Jet(3.0, 4.0)
    ((primal,), (tangent,)) = close_level([Jet(inner, direction)])
    assert primal is inner and tangent is direction


def test_open_level_round_trips_through_close_level():
    points = [1.5, Jet(2.0, 0.5), -0.0]
    directions = [0.0, Jet(1.0, 0.0), 3.0]
    opened = open_level(points, directions)
    assert [jet_depth(v) for v in opened] == [1, 2, 1]
    assert close_level(opened) == (points, directions)
