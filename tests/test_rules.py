"""Each map that carries a rule is its rule alone.

A rule's ``write(w, ins)`` is the map's one description: run in jet
arithmetic (``jets._ARITHMETIC``) it is the map's call, and run in the
writer it is the map's kernel.  So for every kind of map that carries one
(a dsl field, a block map, ``compose``, ``pair``, ``product``, ``tangent``,
``vertical_bracket``, a Lie bracket and a geodesic field), the rule in jet
arithmetic gives the call's bits, on floats and on jet towers of one and
two levels, ragged ones included, and a ``VerticalityViolation`` it raises
on jets is the one the kernel raises.
"""

import pytest

from tangentkit import jets, kernel
from tangentkit.dsl import compile_spec, parse
from tangentkit.dynamics import _geodesic_field
from tangentkit.fields import VectorField, lie_bracket
from tangentkit.jets import Jet, VerticalityViolation
from tangentkit.kernel import (
    Space,
    TrivialBundle,
    compose,
    pair,
    product,
    structural_map,
    tangent,
    vertical_bracket,
)
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
