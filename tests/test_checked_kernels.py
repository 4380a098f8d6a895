"""The Lie bracket as one checked kernel.

``vertical_bracket`` of a map that carries a rule carries one too: the
map's values, then one guard statement that runs the verticality test.  So
the bracket, and every composite built on it, runs one straight-line
kernel on floats, and the test runs inside it at every depth, before the
time scales the values.  The kernel path and the parts path (the lookup
``kernel._flat_kernel`` switched off) raise the same
``VerticalityViolation``, with the same point and residual.

A kernel's code writes each name read once into the line that reads it
(``jets._inlined``); that code runs the same operations in the same order
as the code the writer wrote.
"""

import math
from unittest import mock

import pytest

from tangentkit import dynamics, jets, kernel
from tangentkit.dsl import compile_spec, parse
from tangentkit.dynamics import IntegratorConfig, flow_of
from tangentkit.fields import (
    LinearVectorField,
    VectorField,
    is_vf_morphism,
    lie_bracket,
    tangent_lift,
)
from tangentkit.jets import Jet
from tangentkit.kernel import (
    VERTICALITY_TOL,
    Space,
    TrivialBundle,
    VerticalityViolation,
    compose,
    structural_map,
    tangent,
    vertical_bracket,
)
from tangentkit.sampling import sample_points


def _outcome(call):
    """``repr`` of the values, or the type, point and residual (as reprs, so
    that NaN compares) of what was raised."""
    try:
        return repr(call())
    except VerticalityViolation as e:
        return VerticalityViolation, repr(e.point), repr(e.residual), str(e)


def _by_parts(call):
    """``_outcome`` with both kernel lookups switched off: every float call
    evaluates its parts, and solves call the field on the jet codec."""
    off = lambda f, depth: None  # noqa: E731
    with mock.patch.object(kernel, "_flat_kernel", off), mock.patch.object(
        dynamics, "_flat_kernel", off
    ):
        return _outcome(call)


def _on_kernels(call, monkeypatch):
    """``_outcome`` of ``call``, which must look up and run a kernel."""
    found = []
    lookup = kernel._flat_kernel

    def spy(f, depth):
        flat = lookup(f, depth)
        found.append(flat is not None)
        return flat

    with monkeypatch.context() as m:
        m.setattr(kernel, "_flat_kernel", spy)
        out = _outcome(call)
    assert found and all(found)
    return out


def _checked(text, tol=VERTICALITY_TOL):
    """The checked map of the dsl map ``text`` R^2 -> R^4 over the bundle
    R x R -> R: its base direction is its third value."""
    return vertical_bracket(compile_spec(parse(text, 2)), TrivialBundle(1, 1), tol)


def _both(f, args, monkeypatch):
    on_kernel = _on_kernels(lambda: f(args), monkeypatch)
    assert on_kernel == _by_parts(lambda: f(args))
    return on_kernel


def test_a_checked_map_of_a_rule_carries_a_rule_keyed_by_its_shape():
    f = compile_spec(parse("x1; x2; 0; x1 * x2", 2))
    a = vertical_bracket(f, TrivialBundle(1, 1))
    b = vertical_bracket(f, TrivialBundle(1, 1), tol=0.5)
    assert kernel._rule(a).key == ("vertical", 1, 1, kernel._rule(f).key)
    assert kernel._rule(a) == kernel._rule(b)  # one maker, each its own tolerance
    assert kernel._rule(a).cells == (*kernel._rule(f).cells, VERTICALITY_TOL)
    assert kernel._rule(b).cells[-1] == 0.5
    wrapped = vertical_bracket(
        kernel.SmoothMap(Space(2), Space(4), lambda xs: f(xs)), TrivialBundle(1, 1)
    )
    assert kernel._rule(wrapped) is None


def test_a_non_vertical_map_raises_the_same_violation_on_both_paths(monkeypatch):
    f = _checked("x1; x2; 0.5 * x1 - x2; x1 * x2")
    assert _both(f, [1.0, 2.0], monkeypatch) == (
        VerticalityViolation, "[1.0, 2.0]", "1.5",
        "bracket applied to a non-vertical value: residual 1.500e+00 at [1.0, 2.0]",
    )
    assert _both(f, [2.0, 1.0], monkeypatch) == "[2.0, 2.0]"


def test_a_nan_direction_raises_the_same_violation_on_both_paths(monkeypatch):
    f = _checked("x1; x2; x1 * x2 - x1 * x2; x2")
    point, residual = _both(f, [math.nan, 1.0], monkeypatch)[1:3]
    assert (point, residual) == ("[nan, 1.0]", "nan")
    # a NaN later in the block sticks too: max() alone would drop it
    g = vertical_bracket(
        compile_spec(parse("x1; x2; x1; x2; 0; 0", 2)), TrivialBundle(1, 2)
    )
    assert _both(g, [0.0, math.nan], monkeypatch)[1:3] == ("[0.0, nan]", "nan")


def test_a_residual_at_the_tolerance_passes_and_one_above_it_raises(monkeypatch):
    tol = 1e-9
    f = _checked("x1; x2; x2; x1", tol)
    assert _both(f, [3.0, tol], monkeypatch) == "[3.0, 3.0]"
    assert _both(f, [3.0, -tol], monkeypatch) == "[3.0, 3.0]"
    above = math.nextafter(tol, 1.0)
    assert _both(f, [3.0, above], monkeypatch)[1:3] == (f"[3.0, {above!r}]", repr(above))


def test_the_tangent_of_a_checked_map_checks_its_direction_coefficients(monkeypatch):
    # the base direction x2 - 1 vanishes at x2 = 1 but its derivative along
    # the direction (0, 0.5) does not: T of the checked map raises, naming
    # the base point, on both paths
    f = _checked("x1; x2; x2 - 1; x1 * x2")
    assert _both(f, [2.0, 1.0], monkeypatch) == "[2.0, 2.0]"
    tf = tangent(f)
    assert _both(tf, [2.0, 1.0, 0.0, 0.5], monkeypatch)[1:3] == ("[2.0, 1.0]", "0.5")
    assert _both(tf, [2.0, 1.0, 1.0, 0.0], monkeypatch) == "[2.0, 2.0, 1.0, 1.0]"
    # and one level deeper, the mixed coefficient alone
    ttf = tangent(tangent(_checked("x1; x2; x1 * x2 - x1 * x2 + (x1 - 2) * (x2 - 1); x2")))
    args = [2.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0]
    assert _both(ttf, args, monkeypatch)[1:3] == ("[2.0, 1.0]", "1.0")


@pytest.mark.parametrize("depth", [0, 1])
def test_a_solve_of_a_checked_field_raises_the_same_violation(depth, monkeypatch):
    # the field (x1, w) with base direction x1 - 1: vertical at the start,
    # not once x1 has moved; the check runs inside the solve's kernel at
    # each stage, before the time scales the values
    field = VectorField(Space(2), _checked("x1; x2; x1 - 1; x2"))
    flow = flow_of(field, IntegratorConfig())
    t = 1.0
    for _ in range(depth):
        t = Jet(t, 1.0)
    kernels = []
    lookup = dynamics._flat_kernel
    monkeypatch.setattr(
        dynamics, "_flat_kernel", lambda f, d: kernels.append(d) or lookup(f, d)
    )
    on_kernel = _outcome(lambda: flow(t, [1.0, 2.0]))
    monkeypatch.setattr(dynamics, "_flat_kernel", lookup)
    assert kernels == [depth] and kernel._rule(field.vhat) is not None
    assert on_kernel[0] is VerticalityViolation
    assert on_kernel == _by_parts(lambda: flow(t, [1.0, 2.0]))
    # a field that stays vertical solves on both paths alike
    still = VectorField(Space(2), _checked("x1; x2; x1 - x1; x2"))
    assert _outcome(lambda: flow_of(still)(t, [1.0, 2.0])) == _by_parts(
        lambda: flow_of(still)(t, [1.0, 2.0])
    )


def _morphism_lookups(f, w1, w2, v1, v2, monkeypatch):
    looked_up = []
    lookup = kernel._flat_kernel

    def spy(g, depth):
        flat = lookup(g, depth)
        looked_up.append((g.name, flat is not None))
        return flat

    samples = sample_points(f.domain.dim, count=4, seed=5)
    monkeypatch.setattr(kernel, "_flat_kernel", spy)
    is_vf_morphism(f, lie_bracket(v1, v2), lie_bracket(w1, w2), samples=samples)
    monkeypatch.setattr(kernel, "_flat_kernel", lookup)
    return looked_up, len(samples)


def test_each_morphism_side_of_a_dsl_bracket_runs_one_kernel(monkeypatch):
    v1 = VectorField.from_expr("x2^2; x1", 2)
    v2 = VectorField.from_expr("sin(x2); x1 * x2", 2)
    f = compile_spec(parse("2 * x1; x1 + x2", 2))
    looked_up, samples = _morphism_lookups(f, v1, v2, v1, v2, monkeypatch)
    # one lookup per side and sample, each finding a kernel: no part of a
    # side is evaluated on its own
    assert len(looked_up) == 2 * samples and all(found for _, found in looked_up)
    assert len({name for name, _ in looked_up}) == 2


def test_each_morphism_side_of_a_linear_bracket_runs_one_kernel(monkeypatch):
    a1 = LinearVectorField([[0.0, 1.0, 0.5], [-1.0, 0.0, 0.0], [0.25, 0.0, 1.0]])
    a2 = LinearVectorField([[1.0, 0.0, 0.0], [0.0, 2.0, 1.0], [0.0, -1.0, 0.5]])
    p = LinearVectorField([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.0, 1.0]]).vhat
    looked_up, samples = _morphism_lookups(p, a1, a2, a1, a2, monkeypatch)
    assert len(looked_up) == 2 * samples and all(found for _, found in looked_up)


def test_a_bracket_and_its_lift_are_the_parts_path_bit_for_bit(monkeypatch):
    v1 = VectorField.from_expr("x2^2; x1", 2)
    v2 = VectorField.from_expr("sin(x2); x1 * x2", 2)
    bracket = lie_bracket(v1, v2)
    for g in (bracket.vhat, bracket.full_map, tangent_lift(bracket).vhat, tangent(bracket.vhat)):
        for p in sample_points(g.domain.dim, count=5, seed=11):
            assert _on_kernels(lambda: g(p), monkeypatch) == _by_parts(lambda: g(p))


# maps whose kernels, at depths 0 to 2, hold branches (sqrt, division),
# guards and the bracket's check
_BRANCHED = [
    ("dsl", lambda: compile_spec(parse("sqrt(x1) / x2; x1 * ln(x2)", 2))),
    ("bracket", lambda: lie_bracket(
        VectorField.from_expr("x2^2; x1 / x2", 2), VectorField.from_expr("sin(x2); x1 * x2", 2)
    ).vhat),
    ("flip", lambda: compose(
        tangent(tangent(compile_spec(parse("x1 * x2; sqrt(x1)", 2)))),
        structural_map("flip", Space(2)),
    )),
]
_KERNEL_ARGS = [0.0, -0.0, 1.0, 2.5, -1.5, 4.0, math.inf, math.nan]


@pytest.mark.parametrize("name, build", _BRANCHED, ids=[name for name, _ in _BRANCHED])
def test_an_inlined_kernel_is_the_written_kernel_bit_for_bit(name, build, monkeypatch):
    f = build()
    rule = kernel._rule(f)
    n = rule.arity
    for depth in range(3 if n <= 2 else 1):
        code = kernel._code(rule, depth)
        inlined = jets._kernel_maker(code)(*rule.cells)
        monkeypatch.setattr(jets, "_inlined", lambda lines, outputs: list(lines))
        written = kernel._code(rule, depth)
        monkeypatch.undo()
        assert len(written.lines) == code.operations > len(code.lines)
        written = jets._kernel_maker(written)(*rule.cells)
        size = 2**depth
        for k in range(40):
            args = [_KERNEL_ARGS[(k * (i + 3) + i) % len(_KERNEL_ARGS)] for i in range(n * size)]
            for scale in ([1.0] + [0.5] * (size - 1), [2.0] + [jets.ABSENT] * (size - 1)):

                def run(kernel_):
                    try:
                        return repr(kernel_(args, scale))
                    except (ArithmeticError, ValueError) as e:
                        return type(e), str(e)

                assert run(inlined) == run(written)


def test_a_name_read_once_is_written_in_but_never_past_a_line_that_may_raise():
    lines = [
        "j1 = c0 * x0_0",
        "j2 = 0 + j1",
        "j3 = -x1_0",
        "if x1_0 == 0.0: raise domain('division', x1_0)",
        "j4 = j2 / x1_0",
        "j5 = j3 + j4",
        "j6 = j5 * j5",
    ]
    assert jets._inlined(lines, ("j6",)) == [
        "j2 = 0 + (c0 * x0_0)",
        "j3 = -x1_0",
        "if x1_0 == 0.0: raise domain('division', x1_0)",
        "j4 = j2 / x1_0",
        "j5 = j3 + j4",
        "j6 = j5 * j5",
    ]
    # an output, and a name read twice, keep their lines
    assert jets._inlined(["j1 = x0_0 * x0_0", "j2 = j1 + 1.0"], ("j1", "j2")) == [
        "j1 = x0_0 * x0_0", "j2 = j1 + 1.0",
    ]
