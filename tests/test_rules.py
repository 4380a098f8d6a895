"""Each map that carries a rule is its rule alone.

A rule's ``write(w, ins)`` is the map's one description: run in jet
arithmetic (``jets._ARITHMETIC``) it is the map's call, and run in the
writer it is the map's kernel.  So for every kind of map that carries one
(a dsl field, a block map, ``compose``, ``pair``, ``product``, ``tangent``,
``vertical_bracket``, a Lie bracket and a geodesic field), the rule in jet
arithmetic gives the call's bits, on floats and on jet towers of one and
two levels, ragged ones included, and a ``VerticalityViolation`` it raises
on jets is the one the kernel raises.

The census below covers every constructor that yields such a map, each
built by ``kernel._ruled``: its call is its rule, in jet arithmetic on
anything but floats, and on floats the depth-0 kernel, looked up once.
"""

import pytest

from tangentkit import jets, kernel
from tangentkit.dsl import compile_spec, parse
from tangentkit.dynamics import _geodesic_field, curve
from tangentkit.fields import (
    LinearVectorField,
    VectorField,
    _linear_rule,
    euler_space_field,
    lie_bracket,
    zero_field,
)
from tangentkit.jets import Jet, VerticalityViolation
from tangentkit.kernel import (
    Space,
    TrivialBundle,
    compose,
    identity_map,
    pair,
    product,
    product_interleave,
    product_interleave_inv,
    structural_map,
    tangent,
    vertical_bracket,
)
from tangentkit.rig import euler_field
from tangentkit.sampling import sample_points
from tangentkit.verify import half_plane_connection


def _field(text, arity):
    return compile_spec(parse(text, arity))


def _checked():
    """A checked map R^2 -> R^2 over the bundle R x R -> R, vertical only
    where x2 = 0.5 * x1."""
    return vertical_bracket(_field("x1; x2; 0.5 * x1 - x2; x1 * x2", 2), TrivialBundle(1, 1))


_MAPS = {
    "dsl": lambda: _field("x1 * x2 + 2.5; sin(x1) / x2", 2),
    "block": lambda: structural_map("ell", Space(2)),
    "compose": lambda: compose(_field("x1 * x2; x2 - 0.5", 2), _field("x2^2; ln(x1)", 2)),
    "pair": lambda: pair(_field("x1 / x2", 2), structural_map("neg", Space(1))),
    "product": lambda: product(_field("sqrt(x1)", 1), structural_map("plus", Space(1))),
    "tangent": lambda: tangent(tangent(_field("x1 * x2; exp(x2) / x1", 2))),
    "vertical_bracket": _checked,
    "lie_bracket": lambda: lie_bracket(
        VectorField.from_expr("x2^2; x1 / x2", 2), VectorField.from_expr("sin(x2); x1 * x2", 2)
    ).vhat,
    "geodesic": lambda: _geodesic_field(half_plane_connection()).vhat,
}


def _ragged(point, depth):
    """``point`` as jet towers of at most ``depth`` levels: every third
    coordinate has ``depth`` levels, every third one fewer, and every third
    is a float."""
    out = []
    for i, x in enumerate(point):
        v = x
        for k in range(max(0, depth - i % 3) if i % 3 < 2 else 0):
            v = Jet(v, 0.5 * v + (i + k + 1))
        out.append(v)
    return out


def _points(n):
    return [[2.0, 1.0] * (n // 2), [0.0] * n, [-0.0] + [1.0] * (n - 1)] + [
        list(p) for p in sample_points(n, count=4, seed=5)
    ]


def _outcome(call):
    """``repr`` of the values, or the type and message of what was raised
    (with a violation's point and residual)."""
    try:
        return repr(call())
    except VerticalityViolation as e:
        return VerticalityViolation, repr(e.point), repr(e.residual), str(e)
    except (ArithmeticError, ValueError) as e:
        return type(e), str(e)


@pytest.mark.parametrize("kind", _MAPS)
def test_a_rule_in_jet_arithmetic_is_its_maps_call_bit_for_bit(kind):
    f = _MAPS[kind]()
    rule = kernel._rule(f)
    outcomes = set()
    for point in _points(f.domain.dim):
        for depth in (0, 1, 2):
            xs = _ragged(point, depth)
            on_rule = _outcome(lambda: rule.write(jets._ARITHMETIC, list(xs)))
            assert on_rule == _outcome(lambda: f(xs))
            outcomes.add(type(on_rule))
    assert str in outcomes  # values, not only errors


@pytest.mark.parametrize("build", [_checked, lambda: tangent(_checked())], ids=["map", "tangent"])
def test_a_violation_on_jets_is_the_kernels(build):
    f = build()
    rule = kernel._rule(f)
    raised = 0
    for point in _points(f.domain.dim):
        for depth in (1, 2):
            xs = _ragged(point, depth)
            on_jets = _outcome(lambda: rule.write(jets._ARITHMETIC, list(xs)))
            run = rule.kernel(depth)
            flat, scale = jets.flatten_levels(xs, depth), jets.flatten_levels([1.0], depth)
            on_kernel = _outcome(lambda: run(flat, scale))
            if on_jets[0] is VerticalityViolation:
                raised += 1
                assert on_kernel == on_jets
            else:
                assert on_kernel[0] is not VerticalityViolation
    assert raised


def _linear():
    return LinearVectorField([[1.5, -0.0, 2.0], [0.25, -3.0, 1e300], [0.0, 1.0, -0.5]])


_CENSUS = {
    **_MAPS,
    **{
        f"structural_map-{kind}": lambda kind=kind: structural_map(kind, Space(2))
        for kind in ("p", "zero", "plus", "ell", "flip", "neg")
    },
    "structural_map-hat_p": lambda: structural_map("hat_p", TrivialBundle(0, 2)),
    "structural_map-bundle_lift": lambda: structural_map("bundle_lift", TrivialBundle(1, 2)),
    "structural_map-bundle_mu": lambda: structural_map("bundle_mu", TrivialBundle(1, 2)),
    "identity_map": lambda: identity_map(Space(3)),
    "product_interleave": lambda: product_interleave(Space(1), Space(2)),
    "product_interleave_inv": lambda: product_interleave_inv(Space(2), Space(1)),
    "linear": lambda: _linear().vhat,
    "zero_field": lambda: zero_field(Space(2)).vhat,
    "euler_space_field": lambda: euler_space_field(Space(3)).vhat,
    "rig.euler_field": lambda: euler_field(TrivialBundle(1, 2)).vhat,
    "curve.c1": lambda: curve().c1.vhat,
    "tangent-of-linear": lambda: tangent(compose(identity_map(Space(3)), _linear().vhat)),
    "linear-bracket": lambda: lie_bracket(_linear(), VectorField.from_expr("x2; x3; x1", 3)).vhat,
}


def _census_points(n):
    floats = [([2.0, 1.0] * n)[:n], [0.0] * n, [-0.0] + [1.0] * (n - 1)]
    return floats + [list(p) for p in sample_points(n, count=4, seed=5)]


@pytest.mark.parametrize("kind", _CENSUS)
def test_every_ruled_maps_call_is_its_rule_in_jet_arithmetic(kind):
    f = _CENSUS[kind]()
    rule = kernel._rule(f)
    n = f.domain.dim
    ints = [[i % 3 + 1 for i in range(n)], [0] * n]
    towers = [_ragged(p, depth) for p in _census_points(n) for depth in (1, 2)]
    outcomes = set()
    for xs in [*_census_points(n), *ints, *towers]:
        on_rule = _outcome(lambda: rule.write(jets._ARITHMETIC, list(xs)))
        assert on_rule == _outcome(lambda: f(xs))
        outcomes.add(type(on_rule))
    assert str in outcomes  # values, not only errors


@pytest.mark.parametrize("kind", _CENSUS)
def test_every_ruled_maps_float_call_looks_up_its_depth_0_kernel_once(kind, monkeypatch):
    f = _CENSUS[kind]()
    looked_up, lookup = [], kernel._flat_kernel

    def spy(g, depth):
        flat = lookup(g, depth)
        looked_up.append((depth, flat is not None))
        return flat

    monkeypatch.setattr(kernel, "_flat_kernel", spy)
    f(_census_points(f.domain.dim)[0])
    assert looked_up == [(0, True)]


def test_a_linear_rule_in_jet_arithmetic_is_the_linear_fields_call():
    f = _linear().vhat
    rows = ((1.5, -0.0, 2.0), (0.25, -3.0, 1e300), (0.0, 1.0, -0.5))
    for xs in [*_census_points(3), [1, 2, 3], _ragged([0.5, -0.0, 2.0], 2)]:
        assert repr(_linear_rule(rows, jets._ARITHMETIC, list(xs))) == repr(f(xs))
