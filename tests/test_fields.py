import math

import numpy as np
import pytest

from tangentkit.fields import (
    LinearityError,
    LinearVectorField,
    VectorField,
    commutes,
    euler_space_field,
    is_vf_morphism,
    lie_bracket,
    matrix_of,
    product_vf,
    rotation_field,
    tangent_lift,
    zero_field,
)
from tangentkit.jets import primal_value
from tangentkit.kernel import ShapeError, SmoothMap, Space
from tangentkit.sampling import sample_points


def _vals(xs):
    return [primal_value(v) for v in xs]


def test_vector_field_section_by_construction():
    v = rotation_field()
    for p in sample_points(2, count=20, seed=1):
        full = _vals(v.full_map(p))
        assert full[:2] == list(p)
        assert full[2:] == _vals(v.vhat(p))


def test_from_expr_validates_component_count():
    with pytest.raises(ShapeError):
        VectorField.from_expr("x1", 2)


def test_linear_field_matrix_round_trip():
    A = [[0.0, 1.0], [-1.0, 0.0]]
    v = LinearVectorField(A)
    assert np.allclose(matrix_of(v), A)
    assert _vals(v.vhat([1.0, 2.0])) == [2.0, -1.0]


def test_lie_bracket_of_commuting_fields_vanishes():
    rot = rotation_field()
    eul = euler_space_field(Space(2))
    br = lie_bracket(rot, eul)
    for p in sample_points(2, count=100, seed=2):
        assert max(abs(v) for v in _vals(br.vhat(p))) <= 1e-12


def test_lie_bracket_self_vanishes():
    v = VectorField.from_expr("x1*x2; sin(x1)", 2)
    br = lie_bracket(v, v)
    for p in sample_points(2, count=100, seed=3):
        assert max(abs(x) for x in _vals(br.vhat(p))) <= 1e-12


def test_lie_bracket_of_shears_is_commutator():
    A = [[0.0, 1.0], [0.0, 0.0]]
    B = [[0.0, 0.0], [1.0, 0.0]]
    br = lie_bracket(LinearVectorField(A), LinearVectorField(B))
    # BA - AB = [[-1, 0], [0, 1]]
    assert np.allclose(matrix_of(br), [[-1.0, 0.0], [0.0, 1.0]], atol=1e-12)


def test_lie_bracket_space_mismatch():
    with pytest.raises(ShapeError):
        lie_bracket(rotation_field(), euler_space_field(Space(3)))


def test_commutes_with_zero_field():
    check = commutes(rotation_field(), zero_field(Space(2)))
    assert check.passed and check.max_residual == 0.0


def test_commutes_rotation_euler():
    assert commutes(rotation_field(), euler_space_field(Space(2))).passed


def test_commutes_reports_worst_witness_for_shears():
    A = LinearVectorField([[0.0, 1.0], [0.0, 0.0]])
    B = LinearVectorField([[0.0, 0.0], [1.0, 0.0]])
    check = commutes(A, B, samples=[[1.0, 1.0]])
    assert not check.passed
    # residual of (BA - AB) x at (1,1) is the vector (-1, 1)
    assert check.max_residual == pytest.approx(1.0)
    assert check.witness == (1.0, 1.0)


def test_is_vf_morphism_identity():
    v = rotation_field()
    check = is_vf_morphism(
        SmoothMap(Space(2), Space(2), lambda xs: list(xs)), v, v
    )
    assert check.passed and check.max_residual == 0.0


def test_is_vf_morphism_scaling_relates_euler():
    eul = euler_space_field(Space(1))
    f = SmoothMap(Space(1), Space(1), lambda xs: [2.0 * xs[0]])
    assert is_vf_morphism(f, eul, eul).passed


def test_is_vf_morphism_square_fails_with_known_residual():
    eul = euler_space_field(Space(1))
    f = SmoothMap(Space(1), Space(1), lambda xs: [xs[0] * xs[0]])
    check = is_vf_morphism(f, eul, eul, samples=[[2.0]])
    assert not check.passed
    assert check.max_residual == pytest.approx(4.0)  # |2*2*2 - 4|


def test_tangent_lift_of_zero_is_zero():
    lifted = tangent_lift(zero_field(Space(2)))
    for p in sample_points(4, count=20, seed=4):
        assert _vals(lifted.vhat(p)) == [0.0, 0.0, 0.0, 0.0]


def test_tangent_lift_of_euler_on_line():
    lifted = tangent_lift(euler_space_field(Space(1)))
    for x, v in sample_points(2, count=20, seed=5):
        assert _vals(lifted.vhat([x, v])) == [x, v]


def test_tangent_lift_is_section():
    lifted = tangent_lift(rotation_field())
    for p in sample_points(4, count=100, seed=6):
        full = _vals(lifted.full_map(p))
        assert full[:4] == list(p)


def test_product_field_components():
    v = product_vf(euler_space_field(Space(1)), rotation_field())
    assert _vals(v.vhat([1.0, 0.0, 1.0])) == [1.0, 1.0, 0.0]


def test_product_of_zero_fields_is_zero():
    v = product_vf(zero_field(Space(1)), zero_field(Space(2)))
    for p in sample_points(3, count=10, seed=7):
        assert _vals(v.vhat(p)) == [0.0, 0.0, 0.0]


def test_product_commutation_is_componentwise():
    rng_pairs = [
        (LinearVectorField([[0.0, 1.0], [-1.0, 0.0]]), LinearVectorField([[1.0, 0.0], [0.0, 1.0]]), True),
        (LinearVectorField([[0.0, 1.0], [0.0, 0.0]]), LinearVectorField([[0.0, 0.0], [1.0, 0.0]]), False),
    ]
    for (v1, w1, c1), (v2, w2, c2) in [(rng_pairs[0], rng_pairs[0]), (rng_pairs[0], rng_pairs[1])]:
        got = commutes(product_vf(v1, v2), product_vf(w1, w2)).passed
        assert got == (c1 and c2)


def test_matrix_of_euler_is_identity():
    assert np.allclose(matrix_of(euler_space_field(Space(2))), np.eye(2))


def test_matrix_of_rotation():
    assert np.allclose(matrix_of(rotation_field()), [[0.0, 1.0], [-1.0, 0.0]])


def test_matrix_of_nonlinear_raises_with_witness():
    v = VectorField.from_expr("x1^2", 1)
    with pytest.raises(LinearityError) as info:
        matrix_of(v)
    assert info.value.witness is not None
    assert info.value.max_residual > 1e-9


def test_matrix_of_affine_raises():
    v = VectorField.from_expr("x1 + 1", 1)
    with pytest.raises(LinearityError):
        matrix_of(v)


def test_law_check_serializes():
    check = commutes(rotation_field(), euler_space_field(Space(2)))
    d = check.to_dict()
    assert set(d) == {"law", "passed", "max_residual", "witness", "seed"}
    assert bool(check) == d["passed"]


# -- non-finite residuals ------------------------------------------------------------


def _map(ev, dim=2):
    return SmoothMap(Space(dim), Space(dim), ev)


def test_commutes_fails_on_a_nan_field():
    v = VectorField(Space(2), _map(lambda xs: [math.nan, math.nan]))
    check = commutes(v, v)
    assert not check.passed
    assert math.isnan(check.max_residual)
    assert check.witness is not None


def test_nan_in_first_component_fails_the_law():
    rot = rotation_field()
    f = _map(lambda xs: [xs[0] * math.nan, xs[1]])
    check = is_vf_morphism(f, rot, rot, samples=[[1.0, 2.0]])
    assert not check.passed and math.isnan(check.max_residual)
    assert check.witness == (1.0, 2.0)


def test_nan_in_last_component_fails_the_law():
    rot = rotation_field()
    f = _map(lambda xs: [xs[0], xs[1] * math.nan])
    check = is_vf_morphism(f, rot, rot, samples=[[1.0, 2.0]])
    assert not check.passed and math.isnan(check.max_residual)


def test_nan_at_a_later_sample_only_fails_the_law():
    # finite (and commuting with itself) for x1 > 0, NaN for x1 < 0
    def ev(xs):
        return [xs[1], xs[0] * (1.0 if primal_value(xs[0]) > 0.0 else math.nan)]

    v = VectorField(Space(2), _map(ev))
    check = commutes(v, v, samples=[[1.0, 1.0], [-1.0, 1.0], [2.0, 1.0]])
    assert not check.passed and math.isnan(check.max_residual)
    assert check.witness == (-1.0, 1.0)
    assert math.isnan(check.to_dict()["max_residual"])


def test_matrix_of_rejects_nan_at_some_samples():
    def ev(xs):
        return [xs[0] * (1.0 if primal_value(xs[0]) > -1.0 else math.nan)]

    with pytest.raises(LinearityError) as info:
        matrix_of(VectorField(Space(1), _map(ev, dim=1)))
    assert math.isnan(info.value.max_residual)
    assert info.value.witness[0] <= -1.0
