"""Float calls of ``tangent``, ``compose``, ``pair`` and ``product`` on flat
kernels against their parts and the jet path.

A map that carries kernels (a dsl, block, identity, linear, ``plus`` or
``neg`` map, or a pair, composite, product or tangent of such maps, the
geodesic field of such a Christoffel map and the generator of a closed-form
flow among them) carries one rule, and a composite's kernel is one
straight-line function of all its parts.  On
float arguments a tangent or composite of such maps runs its depth-0 kernel
at unit time; every other map and argument evaluates its parts, and
``tangent`` opens a level and evaluates on jets.  Both give the same bits,
and so do solves of fields that carry composite kernels against the jet
codec.
"""

import dataclasses
import gc
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tangentkit import dsl, dynamics, jets, kernel
from tangentkit.dsl import BinOp, Call, Neg, Num, Pow, TimeVar, Var, compile_spec, parse
from tangentkit.dynamics import (
    Connection,
    Flow,
    IntegratorConfig,
    _geodesic_field,
    flow_of,
    generator,
    time_derivative,
)
from tangentkit.fields import LinearVectorField, VectorField, product_vf, tangent_lift
from tangentkit.jets import EvaluationDomainError, Jet
from tangentkit.kernel import (
    SmoothMap,
    Space,
    _block_map,
    compose,
    identity_map,
    pair,
    product,
    structural_map,
    tangent,
)
from tangentkit.verify import half_plane_connection, rotation_closed_flow, run_suite

_EDGES = [0.0, -0.0, 1.0, -1.5, 2.0, 1e308, -1e308, math.inf, -math.inf, math.nan]
_ARGS = st.one_of(st.sampled_from(_EDGES), st.floats(min_value=-4.0, max_value=4.0))
_ENTRIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 1e308, -2.5])


def _outcome(f, args):
    """``repr`` of the values, or the type and message of what was raised."""
    try:
        return repr(f(list(args)))
    except (ArithmeticError, ValueError) as e:
        return type(e), str(e)


def _on_jets(f, args):
    """``_outcome`` with the kernel lookup of float calls switched off."""
    with mock.patch.object(kernel, "_flat_kernel", lambda f, depth: None):
        return _outcome(f, args)


def _leaf_ast(arity, time=False, numbers=(0.0, -0.0, 0.5, 2.0)):
    variables = st.integers(min_value=1, max_value=arity).map(Var)
    return st.one_of(variables, st.sampled_from(numbers).map(Num), *[st.just(TimeVar())] * time)


def _ast(arity, time=False, numbers=(0.0, -0.0, 0.5, 2.0)):
    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from("+-*/"), children, children).map(lambda t: BinOp(*t)),
            children.map(Neg),
            st.tuples(children, st.integers(min_value=-2, max_value=3)).map(lambda t: Pow(*t)),
            st.tuples(st.sampled_from(sorted(dsl.FUNCTIONS)), children).map(
                lambda t: Call(*t)
            ),
        )

    return st.recursive(_leaf_ast(arity, time, numbers), extend, max_leaves=6)


_ASTS = {n: _ast(n) for n in range(1, 5)}


def _draw_map(data, n: int, budget: int) -> SmoothMap:
    """A map on R^n: a dsl, linear, block, identity, ``plus`` or ``neg``
    map, or a pair, composite, product or tangent of such maps, with at most
    four values."""
    kinds = ["dsl", "linear", "block", "identity"] + ["plus"] * (n == 3) + ["neg"] * (n % 2 == 0)
    if budget:
        kinds += ["pair", "compose"] + ["product"] * (n > 1) + ["tangent"] * (n % 2 == 0)
    kind = data.draw(st.sampled_from(kinds))
    if kind == "dsl":
        m = data.draw(st.integers(min_value=1, max_value=3))
        components = data.draw(st.lists(_ASTS[n], min_size=m, max_size=m))
        return compile_spec(dsl.FieldSpec(n, tuple(components)))
    if kind == "linear":
        row = st.lists(_ENTRIES, min_size=n, max_size=n)
        return LinearVectorField(data.draw(st.lists(row, min_size=n, max_size=n))).vhat
    if kind == "block":
        part = st.one_of(st.just(0), st.lists(_ENTRIES, min_size=1, max_size=2))
        return _block_map("block", (n,), data.draw(st.lists(part, min_size=1, max_size=2)))
    if kind == "identity":
        return identity_map(Space(n))
    if kind in ("plus", "neg"):
        return structural_map(kind, Space(n // 3 if kind == "plus" else n // 2))
    if kind == "tangent":
        return tangent(_draw_map(data, n // 2, budget - 1))
    if kind == "product":
        n1 = data.draw(st.integers(min_value=1, max_value=n - 1))
        return product(_draw_map(data, n1, budget - 1), _draw_map(data, n - n1, budget - 1))
    f = _draw_map(data, n, budget - 1)
    if kind == "pair":
        g = _draw_map(data, n, budget - 1)
        return pair(f, g) if f.codomain.dim + g.codomain.dim <= 4 else f
    return compose(f, _draw_map(data, f.codomain.dim, budget - 1)) if f.codomain.dim <= 4 else f


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_float_calls_on_kernels_are_the_jet_path_bit_for_bit(data):
    # the drawn map itself (a pair, composite or product among them) and its
    # tangents, each with the lookup on and with it off
    n = data.draw(st.integers(min_value=1, max_value=4))
    f = _draw_map(data, n, 2)
    assert kernel._kernels(f) is not None
    for g in (f, tangent(f), tangent(tangent(f))):
        args = data.draw(st.lists(_ARGS, min_size=g.domain.dim, max_size=g.domain.dim))
        assert _outcome(g, args) == _on_jets(g, args)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_tangent_kernels_on_ragged_towers_are_the_jet_path_bit_for_bit(data):
    # T's direction is filled where it is absent as the code is written;
    # ragged towers of the levels below T's reach the kernel as ABSENT
    n = data.draw(st.integers(min_value=1, max_value=2))
    tf = tangent(_draw_map(data, n, 1))
    depth = data.draw(st.sampled_from((1, 2)))
    xs = data.draw(st.lists(_TOWERS[depth], min_size=tf.domain.dim, max_size=tf.domain.dim))
    t = data.draw(_TOWERS[depth])
    scale, y = jets.flatten_levels([t], depth), jets.flatten_levels(xs, depth)

    def jet_path(y):
        values = tf.evaluator(jets.unflatten_levels(y, depth))
        return jets.flatten_levels([t * v for v in values], depth)

    want = _on_jets(jet_path, y)
    assert _outcome(lambda y: tf.evaluator.flat_kernel(depth)(y, scale), y) == want


def test_a_dsl_division_by_zero_through_a_kernel_map_is_the_same_error():
    quotient = compile_spec(parse("x1 / x2", 2))
    one = identity_map(Space(1))
    maps = [
        tangent(quotient),
        tangent(tangent(quotient)),
        compose(identity_map(Space(2)), quotient),
        pair(quotient, compose(quotient, one)),
        product(quotient, one),
        product(tangent(quotient), one),
    ]
    for f in maps:
        args = [1.0, 0.0] + [1.0] * (f.domain.dim - 2)
        want = (EvaluationDomainError, "division undefined at coordinate 0.0")
        assert _outcome(f, args) == _on_jets(f, args) == want


def _maps():
    """One map of each kind that carries kernels."""
    field = compile_spec(parse("x1 * x2; sin(x1)", 2))
    linear = LinearVectorField([[1.0, -0.0], [2.0, 0.5]]).vhat
    flip = structural_map("flip", Space(1))
    return {
        "dsl": field,
        "linear": linear,
        "block": flip,
        "identity": identity_map(Space(2)),
        "pair": pair(identity_map(Space(2)), linear),
        "compose": compose(linear, field),
        "product": product(field, linear),
        "tangent": tangent(linear),
        "plus": structural_map("plus", Space(1)),
        "neg": structural_map("neg", Space(1)),
    }


def _jets_built(f, args, monkeypatch):
    built, init = [], Jet.__init__
    monkeypatch.setattr(Jet, "__init__", lambda *a: built.append(None) or init(*a))
    try:
        f(args)
    finally:
        monkeypatch.setattr(Jet, "__init__", init)
    return len(built)


@pytest.mark.parametrize("kind", sorted(_maps()))
def test_these_maps_take_the_kernel_path_on_floats(kind, monkeypatch):
    f = _maps()[kind]
    tf = tangent(f)
    floats = [0.5 * (k + 1) for k in range(tf.domain.dim)]
    assert _jets_built(tf, floats, monkeypatch) == 0
    assert _jets_built(tangent(tf), floats * 2, monkeypatch) == 0
    # ints, numpy scalars and jets take the jet path, and so does a float
    # argument list once the lookup is switched off
    for args in ([1] + floats[1:], [np.float64(0.5)] + floats[1:], [Jet(0.5, 1.0)] + floats[1:]):
        assert _jets_built(tf, args, monkeypatch) > 0
    monkeypatch.setattr(kernel, "_flat_kernel", lambda f, depth: None)
    assert _jets_built(tf, floats, monkeypatch) > 0


def test_float_calls_of_kernel_maps_run_no_absent_operator(monkeypatch):
    # the parts of a composite write into one kernel with no time between
    # them, so no coefficient is ABSENT in a float call: a depth-1 tangent
    # run at a unit time of (1, ABSENT) makes one __rmul__ and one __radd__
    # per value coefficient
    calls = []
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
               "__rmul__", "__truediv__"):
        method = getattr(jets._Absent, op)
        monkeypatch.setattr(
            jets._Absent, op, lambda *args, op=op, method=method: calls.append(op) or method(*args)
        )
    for f in _maps().values():
        for g in (f, tangent(f), tangent(tangent(f))):
            g([0.5 * (k + 1) for k in range(g.domain.dim)])
    assert calls == []


def test_with_the_lookup_off_no_float_call_runs_a_kernel(monkeypatch):
    compiled = []

    def spy(source, label, *args):
        if label == "<jet kernel>":  # dsl fields compile through jets too
            compiled.append(label)
        return compile(source, label, *args)

    monkeypatch.setattr(jets, "compile", spy, raising=False)
    monkeypatch.setattr(kernel, "_flat_kernel", lambda f, depth: None)
    kernel._maker.cache_clear()
    for f in _maps().values():
        for g in (f, tangent(f), tangent(tangent(f))):
            g([0.5 * (k + 1) for k in range(g.domain.dim)])
    assert compiled == []


def test_composites_of_one_shape_share_a_maker_and_keep_their_own_constants():
    # 0.0 and -0.0 compare equal: as block constants and as dsl literals they
    # give one key, so one maker, but each map binds its own cells
    def composite(zero):
        block = _block_map("c", (1,), (0, [zero]))
        field = compile_spec(
            dsl.FieldSpec(2, (BinOp("+", Var(2), Num(zero)), BinOp("*", Var(1), Num(zero))))
        )
        return compose(block, field)

    kernel._maker.cache_clear()
    maps = [composite(0.0), composite(-0.0)]
    got = [_outcome(f, [-0.0]) for f in maps]
    assert got == ["[0.0, -0.0]", "[-0.0, 0.0]"] == [_on_jets(f, [-0.0]) for f in maps]
    assert kernel._maker.cache_info().misses == 1


def test_composites_whose_dsl_parts_differ_in_their_cells_never_share_code():
    # 3^0 leaves a cell that no line reads, so the two dsl parts write the
    # same lines from two cells and from one
    fields = [compile_spec(parse(text, 1)) for text in ("3^0 + 2*x1", "x1^0 + 2*x1")]
    maps = [compose(identity_map(Space(1)), f) for f in fields]
    kernel._maker.cache_clear()
    assert [_outcome(f, [1.5]) for f in maps] == ["[4.0]", "[4.0]"]
    assert kernel._maker.cache_info().misses == 2
    assert [len(kernel._rule(f).cells) for f in maps] == [2, 1]


def test_a_composite_shares_or_concatenates_its_parts_cells():
    # built from a generator for every composite, the cells tuples raised
    # the verify workload's resident size pass over pass
    f = compile_spec(parse("2.5*x1; x2 + 0.75", 2))
    g = compose(f, _block_map("c", (2,), (0, [0.5])))
    rules = [kernel._rule(m) for m in (f, tangent(f), g)]
    assert rules[1].cells is rules[0].cells
    assert rules[2].cells == rules[0].cells + (0.5,)


def test_the_maker_memo_holds_every_law_suite_key():
    # the bound covers the keys of a whole run, and the law suites draw new
    # maps, not new shapes, at a new seed
    kernel._maker.cache_clear()
    run_suite("all", 3)
    info = kernel._maker.cache_info()
    assert info.currsize == info.misses < info.maxsize
    run_suite("vf", 11)
    assert kernel._maker.cache_info().misses == info.misses


def test_a_law_suite_pass_leaves_no_cyclic_garbage():
    # garbage that only the cyclic collector frees raised the verify
    # workload's peak RSS: a nested function that calls itself, or an exec
    # namespace that holds the function whose globals it is
    run_suite("all", 3)
    gc.collect()
    gc.disable()
    try:
        run_suite("all", 3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_user_lambda_and_a_counting_wrapper_take_the_jet_path(monkeypatch):
    user = SmoothMap(Space(2), Space(1), lambda xs: [xs[0] * xs[1]])
    field = compile_spec(parse("x1 * x2", 2))
    counted = dataclasses.replace(field, evaluator=lambda xs: field.evaluator(xs))
    last = SmoothMap(Space(1), Space(1), lambda xs: xs)
    for f in (user, counted, pair(field, user), compose(field, last)):
        assert kernel._kernels(f) is None
        assert _jets_built(tangent(f), [1.0, 2.0, 0.5, -0.0], monkeypatch) > 0


# -- solves of fields that carry composite kernels, against the jet codec --------


_START = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(min_value=-2.0, max_value=2.0))


def _towers(depth):
    """Jet towers of at most ``depth`` levels, ragged: any primal or tangent
    may stop early as a float."""
    if depth == 0:
        return _START
    below = _towers(depth - 1)
    return st.one_of(_START, st.builds(Jet, below, below))


_TOWERS = {depth: _towers(depth) for depth in (0, 1, 2)}


def _fields():
    rotation = LinearVectorField([[0.0, 1.0], [-1.0, -0.0]])
    shear = LinearVectorField([[0.5, -0.0], [1.0, 0.25]])
    cubic = VectorField.from_expr("x2; -x1*(1+x1*x1)", 2)
    p = structural_map("p", Space(2))
    return {
        "linear": rotation,
        "lift-of-linear": tangent_lift(shear),
        "lift-of-dsl": tangent_lift(cubic),
        # T(f) last, so the solve's time scales its values
        "tangent-of-dsl": VectorField(Space(4), tangent(cubic.vhat)),
        "tangent-of-composite": VectorField(Space(4), tangent(compose(shear.vhat, cubic.vhat))),
        "product": product_vf(rotation, cubic),
        "composite": VectorField(Space(2), compose(pair(shear.vhat, identity_map(Space(2))), p)),
        "neg": VectorField(Space(2), structural_map("neg", Space(1))),
        # (x1, x2) -> (x1, x2 + sin(x1) x2)
        "plus": VectorField(
            Space(2),
            compose(
                pair(identity_map(Space(2)), compile_spec(parse("sin(x1)*x2", 2))),
                structural_map("plus", Space(1)),
            ),
        ),
        "generator-of-closed-flow": generator(rotation_closed_flow()),
        "geodesic": _geodesic_field(half_plane_connection()),
    }


def _solve(field, t, xs):
    cfg = IntegratorConfig(abs_tol=1e-6, rel_tol=1e-6, max_steps=200)
    try:
        return repr(flow_of(field, cfg)(t, xs))
    except (ArithmeticError, ValueError) as e:
        return type(e), str(e)


def _solves_on_kernels(field, t, xs):
    kernels = []
    with mock.patch.object(
        dynamics, "_flat_kernel",
        lambda vhat, depth: kernels.append(kernel._flat_kernel(vhat, depth)) or kernels[-1],
    ):
        got = _solve(field, t, xs)
    assert all(k is not None for k in kernels)
    return got


def _solve_on_jets(field, t, xs):
    # both lookups off: a float state calls the field, whose tangents would
    # otherwise run their kernels
    with mock.patch.object(dynamics, "_flat_kernel", lambda vhat, depth: None):
        with mock.patch.object(kernel, "_flat_kernel", lambda f, depth: None):
            return _solve(field, t, xs)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_solves_on_composite_kernels_are_the_jet_codec_bit_for_bit(data):
    name = data.draw(st.sampled_from(sorted(_fields())))
    field = _fields()[name]
    depth = data.draw(st.sampled_from((0, 1, 2)))
    xs = data.draw(st.lists(_TOWERS[depth], min_size=field.space.dim, max_size=field.space.dim))
    t = data.draw(st.one_of(_START, _TOWERS[depth]))
    assert _solves_on_kernels(field, t, xs) == _solve_on_jets(field, t, xs)


@pytest.mark.parametrize("name", sorted(_fields()))
def test_a_depth_two_solve_of_each_field_is_the_jet_codec(name):
    # a depth-two time over a ragged state: the solve's two levels sit
    # under the level a tangent lift opens, and the time scales once
    field = _fields()[name]
    t = Jet(Jet(0.75, 1.0), Jet(-0.5, 0.25))
    xs = [Jet(Jet(1.0, 0.5), 0.25), Jet(-0.5, Jet(1.0, -0.0))]
    xs += [Jet(0.5, 1.0), 0.25][: field.space.dim - 2]
    assert _solves_on_kernels(field, t, xs) == _solve_on_jets(field, t, xs)


def _int_fields():
    # x1^4 - (x1^2)^2 is 0 on ints but a rounding gap on floats, so a part
    # run at unit time must leave an int state's ints as the codec does
    gap = compile_spec(parse("x1*x1*x1*x1 - (x1*x1)*(x1*x1)", 1))
    composite = VectorField(Space(1), compose(identity_map(Space(1)), gap))
    return {
        "composite": composite,
        "lift-of-composite": tangent_lift(composite),
        "product": product_vf(composite, composite),
    }


@pytest.mark.parametrize("name", sorted(_int_fields()))
def test_a_solve_from_an_int_state_is_the_jet_codec(name):
    field = _int_fields()[name]
    xs = [2**20 + 5] * field.space.dim
    assert _solves_on_kernels(field, 0.5, xs) == _solve_on_jets(field, 0.5, xs)


# -- closed-form generators and geodesic fields, against the maps they replace ----


def _same_solves(ruled, plain, t, xs):
    """A solve of the rule-carrying field on its kernels and on the jet
    codec with both lookups off, and a solve of the field that carries
    none, give the same outcome."""
    want = _solve_on_jets(VectorField(plain.domain, plain), t, xs)
    field = VectorField(ruled.domain, ruled)
    assert _solves_on_kernels(field, t, xs) == want == _solve_on_jets(field, t, xs)


def _wrapped(flow):
    """``flow`` with its ``evaluate`` wrapped, as a tracer wraps it: the
    wrapper carries no map, so its generator takes one jet evaluation."""
    return dataclasses.replace(flow, evaluate=lambda t, xs: flow.evaluate(t, xs))


def _time_derivative_at_0(flow):
    """The jet path a generator replaces: d/dt of ``evaluate`` at time 0."""
    return lambda xs: time_derivative(flow.evaluate, 0.0, xs)[1]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_the_generator_of_a_closed_form_flow_is_its_jet_evaluation_bit_for_bit(data):
    # float starts and depth-1 and depth-2 towers, the lookups on and off;
    # the literals are ones a spec can spell (a parse writes a sign as Neg)
    n = data.draw(st.integers(min_value=1, max_value=2))
    closed_form = st.lists(_ast(n, True, (0.0, 0.5, 2.0)), min_size=n, max_size=n)
    spec = dsl.FieldSpec(n, tuple(data.draw(closed_form)), time_dependent=True)
    flow = Flow.from_expr(dsl.format_spec(spec), n)
    ruled, plain = generator(flow).vhat, generator(_wrapped(flow)).vhat
    assert kernel._kernels(ruled) is not None and kernel._kernels(plain) is None
    depth = data.draw(st.sampled_from((0, 1, 2)))
    xs = data.draw(st.lists(_TOWERS[depth] if depth else _ARGS, min_size=n, max_size=n))
    want = _outcome(_time_derivative_at_0(flow), xs)
    assert _outcome(ruled, xs) == _on_jets(ruled, xs) == _outcome(plain, xs) == want
    t = data.draw(st.one_of(_START, _TOWERS[depth]))
    starts = data.draw(st.lists(_TOWERS[depth], min_size=n, max_size=n))
    _same_solves(ruled, plain, t, starts)


def _quadratic_gamma(data, n: int) -> SmoothMap:
    """A dsl Christoffel map on ``(x, u)``, quadratic in ``u``: each
    component is an expression in ``x`` times ``u_i u_j``."""
    components = []
    for _ in range(n):
        i, j = (data.draw(st.integers(min_value=n + 1, max_value=2 * n)) for _ in range(2))
        components.append(BinOp("*", BinOp("*", data.draw(_ASTS[n]), Var(i)), Var(j)))
    return compile_spec(dsl.FieldSpec(2 * n, tuple(components)))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_the_geodesic_rule_is_the_field_that_calls_gamma_bit_for_bit(data):
    n = data.draw(st.integers(min_value=1, max_value=2))
    gamma = _quadratic_gamma(data, n)
    called = SmoothMap(gamma.domain, gamma.codomain, lambda xs: gamma.evaluator(xs))
    try:
        ruled = _geodesic_field(Connection(n, gamma)).vhat
    except (ArithmeticError, ValueError):  # gamma fails the quadratic check
        with pytest.raises((ArithmeticError, ValueError)):
            _geodesic_field(Connection(n, called))
        return
    plain = _geodesic_field(Connection(n, called)).vhat
    assert kernel._kernels(ruled) is not None and kernel._kernels(plain) is None
    depth = data.draw(st.sampled_from((0, 1, 2)))
    xs = data.draw(st.lists(_TOWERS[depth] if depth else _ARGS, min_size=2 * n, max_size=2 * n))
    assert _outcome(ruled, xs) == _on_jets(ruled, xs) == _outcome(plain, xs)
    t = data.draw(st.one_of(_START, _TOWERS[depth]))
    starts = data.draw(st.lists(_TOWERS[depth], min_size=2 * n, max_size=2 * n))
    _same_solves(ruled, plain, t, starts)


def test_the_flat_and_half_plane_connections_solve_as_their_lambdas():
    # the suites' connections as a constant block map and a dsl spec, against
    # the lambdas they replace, from a float and a depth-2 start
    flat = _block_map("flat", (4,), ([0.0, 0.0],))
    half = half_plane_connection().gamma

    def half_plane(xs):
        y, u1, u2 = xs[1], xs[2], xs[3]
        return [(-2.0 * u1 * u2) / y, (u1 * u1 - u2 * u2) / y]

    pairs = [(flat, lambda xs: [0.0, 0.0]), (half, half_plane)]
    t = Jet(Jet(0.75, 1.0), Jet(-0.5, 0.25))
    starts = [
        [0.25, 1.0, 1.0, -0.5],
        [Jet(Jet(0.5, 1.0), 0.25), Jet(1.5, Jet(1.0, -0.0)), 1.0, 0.0],
    ]
    for gamma, ev in pairs:
        ruled = _geodesic_field(Connection(2, gamma)).vhat
        plain = _geodesic_field(Connection(2, SmoothMap(Space(4), Space(2), ev))).vhat
        for xs in starts:
            assert _outcome(ruled, xs) == _outcome(plain, xs)
            _same_solves(ruled, plain, 2.0, xs)
            _same_solves(ruled, plain, t, xs)
