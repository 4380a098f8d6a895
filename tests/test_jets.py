import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tangentkit.jets import (
    ABSENT,
    EvaluationDomainError,
    Jet,
    close_level,
    coefficients,
    cos,
    exp,
    flatten_levels,
    jet_depth,
    ln,
    open_level,
    pow_int,
    primal_value,
    sin,
    sqrt,
    tanh,
    unflatten_levels,
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


class _CountingFloat(float):
    """A float that counts the multiplications it takes part in."""

    count = 0

    def __mul__(self, other):
        _CountingFloat.count += 1
        return _CountingFloat(float(self) * float(other))

    __rmul__ = __mul__


@pytest.mark.parametrize("k,multiplications", [(1, 1), (2, 2), (3, 3), (4, 3), (5, 4)])
def test_pow_int_squares_only_while_bits_remain(k, multiplications):
    _CountingFloat.count = 0
    assert pow_int(_CountingFloat(1.5), k) == 1.5**k
    assert _CountingFloat.count == multiplications


def test_pow_int_of_an_int_is_a_float():
    assert pow_int(3, 2) == 9.0 and type(pow_int(3, 2)) is float
    assert type(pow_int(3, 0)) is float


# -- the flat codec ------------------------------------------------------------

_SPECIAL = st.sampled_from([0.0, -0.0, 1.0, -2.5, math.inf, -math.inf, math.nan])
_COEFF = st.one_of(_SPECIAL, st.floats(width=64))


def _towers(depth: int, full: bool):
    """Jet towers of exactly ``depth`` levels everywhere (full) or of at
    most ``depth`` levels in any branch (ragged)."""
    if depth == 0:
        return _COEFF
    jet = st.builds(Jet, _towers(depth - 1, full), _towers(depth - 1, full))
    return jet if full else st.one_of(_towers(depth - 1, False), jet)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_flat_stage_sums_are_the_jet_sums(data):
    # y + c1*p1 + c2*p2 + ... summed coefficient by coefficient on flat
    # lists is the same expression chained in jet arithmetic, bit for bit:
    # repr tells -0.0 from 0.0, so a padded coefficient that is not an
    # exact additive identity fails here
    depth = data.draw(st.integers(0, 2), label="depth")
    n = data.draw(st.integers(1, 3), label="n")
    state = data.draw(st.lists(_towers(depth, False), min_size=n, max_size=n))
    term = st.lists(
        st.one_of(_towers(depth, True), _towers(depth, False)), min_size=n, max_size=n
    )
    terms = data.draw(st.lists(st.tuples(_COEFF, term), min_size=1, max_size=6))

    jets = list(state)
    flat = flatten_levels(state, depth)
    for c, p in terms:
        jets = [y + c * v for y, v in zip(jets, p)]
        flat = [y + c * v for y, v in zip(flat, flatten_levels(p, depth))]
    assert repr(unflatten_levels(flat, depth)) == repr(jets)
    assert repr(flat[:n]) == repr([primal_value(v) for v in jets])


def test_flatten_lists_innermost_primals_first_and_round_trips():
    values = [Jet(Jet(1.0, 2.0), Jet(3.0, 4.0)), Jet(5.0, Jet(6.0, 7.0)), 8.0]
    flat = flatten_levels(values, 2)
    assert flat[:3] == [1.0, 5.0, 8.0]
    assert len(flat) == 3 * 4 and flat.count(ABSENT) == 4
    assert repr(unflatten_levels(flat, 2)) == repr(values)


def test_absent_is_the_identity_of_sums_and_stays_absent_when_scaled():
    assert repr(ABSENT + -0.0) == repr(-0.0 + ABSENT) == "-0.0"
    assert 2.5 * ABSENT is ABSENT and ABSENT + ABSENT is ABSENT
    assert repr(Jet(1.0, -0.0) + ABSENT) == "Jet(1.0, -0.0)"
