import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tangentkit import dsl, jets, kernel
from tangentkit.cli import EXIT_OK, dispatch
from tangentkit.dsl import (
    ArityError,
    BinOp,
    Call,
    ExprSyntaxError,
    Neg,
    Num,
    Pow,
    TimeVar,
    UnknownIdentifier,
    Var,
    compile_spec,
    format_spec,
    parse,
)
from tangentkit.dynamics import IntegratorConfig, _integrate_scaled, curve
from tangentkit.fields import euler_space_field, zero_field
from tangentkit.jets import EvaluationDomainError, Jet
from tangentkit.kernel import (
    Space,
    TrivialBundle,
    _block_map,
    product_interleave,
    product_interleave_inv,
    structural_map,
    tangent,
)
from tangentkit.rig import euler_field
from tangentkit.sampling import sample_points


def test_parse_rotation_field():
    spec = parse("x2; −x1", 2)
    assert spec.n_components == 2
    assert spec.components[0] == Var(2)
    assert spec.components[1] == Neg(Var(1))


@pytest.mark.parametrize(
    "char, kind, text",
    [
        ("+", "OP", "+"),
        ("-", "OP", "-"),
        ("−", "OP", "-"),
        ("*", "OP", "*"),
        ("/", "OP", "/"),
        ("(", "LPAREN", "("),
        (")", "RPAREN", ")"),
        (";", "SEMI", ";"),
    ],
)
def test_each_one_character_token_has_its_kind_text_and_byte_offset(char, kind, text):
    # after a U+2212 (three bytes), x1 and a space: byte 6
    tokens = dsl._tokenize(f"−x1 {char}")
    assert tokens[2] == dsl._Token(kind, text, 6)
    assert tokens[3] == dsl._Token("EOF", "", 6 + len(char.encode("utf-8")))


def test_parse_time_dependent():
    spec = parse("x1 + cos(t)", 1, time_dependent=True)
    assert spec.components[0] == BinOp("+", Var(1), Call("cos", TimeVar()))


def test_time_rejected_when_not_declared():
    with pytest.raises(UnknownIdentifier):
        parse("x1 + cos(t)", 1)


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as info:
        parse("x1 + ", 1)
    assert info.value.offset == 5
    assert "atom" in info.value.expected


def test_byte_offsets_count_utf8():
    # U+2212 is three bytes; the error lands after it
    with pytest.raises(ExprSyntaxError) as info:
        parse("−", 1)
    assert info.value.offset == 3


def test_unknown_identifier_and_arity():
    with pytest.raises(UnknownIdentifier):
        parse("y1", 2)
    with pytest.raises(UnknownIdentifier):
        parse("sinh(x1)", 1)
    with pytest.raises(ArityError) as info:
        parse("x3", 2)
    assert info.value.declared == 2 and info.value.used == 3


def test_unbalanced_parens():
    with pytest.raises(ExprSyntaxError):
        parse("(x1 + 2", 1)
    with pytest.raises(ExprSyntaxError):
        parse("sin(x1", 1)


def test_power_requires_integer_literal():
    spec = parse("x1^3", 1)
    assert spec.components[0] == Pow(Var(1), 3)
    spec = parse("x1^-2", 1)
    assert spec.components[0] == Pow(Var(1), -2)
    with pytest.raises(ExprSyntaxError):
        parse("x1^x1", 1)
    with pytest.raises(ExprSyntaxError):
        parse("x1^1.5", 1)


@pytest.mark.parametrize(
    "text, exponent",
    [("x1 ^ 2", 2), ("x1^ -2", -2), ("x1 ^ − 2", -2), ("x1 ^\t+3", 3), ("x1 ^2", 2)],
)
def test_whitespace_around_an_exponent_is_insignificant(text, exponent):
    assert parse(text, 1).components[0] == Pow(Var(1), exponent)


def test_a_missing_exponent_is_reported_where_it_should_start():
    with pytest.raises(ExprSyntaxError) as info:
        parse("x1 ^  x1", 1)
    assert info.value.offset == 6 and info.value.expected == ("integer exponent",)


def test_empty_input_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("   ", 1)


def test_precedence_and_associativity():
    node = parse("1 - 2 - 3", 1).components[0]
    assert node == BinOp("-", BinOp("-", Num(1.0), Num(2.0)), Num(3.0))
    node = parse("2 + 3 * 4", 1).components[0]
    assert node == BinOp("+", Num(2.0), BinOp("*", Num(3.0), Num(4.0)))


def test_compile_evaluates():
    f = compile_spec(parse("x1^2", 1))
    assert f([3.0]) == [9.0]
    assert tangent(f)([3.0, 1.0]) == [9.0, 6.0]

    g = compile_spec(parse("x1*x2; x1+x2", 2))
    assert g([2.0, 5.0]) == [10.0, 7.0]


def test_compile_division_domain_error():
    f = compile_spec(parse("1/x1", 1))
    with pytest.raises(EvaluationDomainError):
        f([0.0])


def test_time_variable_is_last_input():
    f = compile_spec(parse("x1 + t", 1, time_dependent=True))
    assert f([2.0, 0.5]) == [2.5]


def test_format_canonical_examples():
    assert format_spec(parse("x2; −x1", 2)) == "x2; -x1"
    assert format_spec(parse("2.5", 1)) == "2.5"
    assert format_spec(parse("(x1 - (x2 - x1)) * -(x2^2)", 2)) == "(x1 - (x2 - x1)) * -(x2^2)"
    assert format_spec(parse("x1*t + sin(t)", 1, time_dependent=True)) == "x1 * t + sin(t)"


def test_format_round_trip_examples():
    for text in ("x1 + x2*x2", "sin(x1)^2 + cos(x1)^2", "-(x1/x2)", "x1^-3", "1e999*x1"):
        spec = parse(text, 2)
        again = parse(format_spec(spec), 2)
        assert again.components == spec.components


@pytest.mark.parametrize(
    "text",
    [" + ".join(["x1"] * 1200), "-" * 60 + "x1", "1e999 * x1"],
    ids=["long-chain", "deep-minus", "infinity"],
)
def test_format_round_trips_what_the_parser_accepts(text):
    # each text is canonical, so its parse renders back to it, and so
    # parses back to the same spec (a structural == on a 1200-deep chain
    # would itself overflow the stack)
    assert format_spec(parse(text, 1)) == text


@pytest.mark.parametrize("value", [-1.0, -0.0, math.nan, -math.inf])
def test_format_refuses_a_number_no_literal_parses_back_to(value):
    # a parse writes a minus sign as Neg and has no NaN literal, so these
    # would render as text that parses to another spec, or to none
    spec = dsl.FieldSpec(1, (BinOp("+", Var(1), Num(value)),))
    with pytest.raises(ValueError, match=f"Num\\({value!r}\\)"):
        format_spec(spec)


_FN = st.sampled_from(sorted(dsl.FUNCTIONS))


def _ast(max_depth, arity, time_dependent=False):
    leaf = st.one_of(
        st.integers(min_value=1, max_value=arity).map(Var),
        st.floats(
            min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
        ).map(Num),
        *[st.just(TimeVar())] * time_dependent,
    )

    def extend(children):
        return st.one_of(
            children,
            st.tuples(st.sampled_from("+-*/"), children, children).map(
                lambda t: BinOp(*t)
            ),
            children.map(Neg),
            st.tuples(_FN, children).map(lambda t: Call(*t)),
            st.tuples(children, st.integers(min_value=-4, max_value=6)).map(
                lambda t: Pow(*t)
            ),
        )

    return st.recursive(leaf, extend, max_leaves=2**max_depth)


# Built once: a fresh st.recursive per example is re-validated every time.
_ASTS = {n: _ast(8, n) for n in range(1, 5)}


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(lambda n: st.tuples(st.just(n), _ASTS[n])))
def test_parse_format_round_trip(case):
    arity, node = case
    spec = dsl.FieldSpec(arity, (node,))
    assert parse(format_spec(spec), arity).components == spec.components


def _oracle_eval(node, env, t=None):
    """Naive tree-walking interpreter: the independent evaluation oracle."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return env[node.index - 1]
    if isinstance(node, TimeVar):
        return t
    if isinstance(node, Neg):
        return -_oracle_eval(node.operand, env, t)
    if isinstance(node, BinOp):
        a = _oracle_eval(node.left, env, t)
        b = _oracle_eval(node.right, env, t)
        return {"+": a + b, "-": a - b, "*": a * b, "/": a / b if b else math.inf}[
            node.op
        ]
    if isinstance(node, Pow):
        return _oracle_eval(node.base, env, t) ** node.exponent
    if isinstance(node, Call):
        return {
            "sin": math.sin,
            "cos": math.cos,
            "exp": math.exp,
            "ln": math.log,
            "sqrt": math.sqrt,
            "tanh": math.tanh,
        }[node.fn](_oracle_eval(node.arg, env, t))
    raise TypeError(node)


def test_compile_of_formatted_spec_is_semantically_identical():
    spec = parse("sin(x1)^2 * x2 - 1/(x2^2 + 3); x1*exp(x2)", 2)
    f = compile_spec(spec)
    g = compile_spec(parse(format_spec(spec), 2))
    for env in sample_points(2, count=100, seed=101):
        assert f(env) == g(env)


def test_compiled_matches_oracle_interpreter():
    spec = parse("sin(x1)*x2 + exp(x3)/(x2^2 + 1)", 3)
    f = compile_spec(spec)
    for env in sample_points(3, count=1000, seed=99):
        got = f(env)[0]
        want = _oracle_eval(spec.components[0], env)
        assert abs(got - want) <= 1e-14 * max(1.0, abs(want))


def test_compiled_maps_are_jet_polymorphic():
    spec = parse("sin(x1*x2); x1^3 - x2", 2)
    f = compile_spec(spec)
    tf = tangent(f)
    for x1, x2, d1, d2 in sample_points(4, count=50, seed=100):
        direct = f([Jet(x1, d1), Jet(x2, d2)])
        via_tangent = tf([x1, x2, d1, d2])
        # level-1 evaluation agrees with the tangent map, bit for bit
        assert [v.primal for v in direct] == via_tangent[:2]
        assert [v.tangent for v in direct] == via_tangent[2:]


# -- the generated evaluator against the closure tree it replaced --------------


def _closure_tree_node(node):
    """The recursive closure-tree compiler that ``compile_spec`` replaced,
    kept as the bit-exact reference for the generated evaluator."""
    if isinstance(node, Num):
        v = node.value
        return lambda env: v
    if isinstance(node, Var):
        i = node.index - 1
        return lambda env: env[i]
    if isinstance(node, TimeVar):
        return lambda env: env[-1]
    if isinstance(node, Neg):
        inner = _closure_tree_node(node.operand)
        return lambda env: -inner(env)
    if isinstance(node, BinOp):
        left = _closure_tree_node(node.left)
        right = _closure_tree_node(node.right)
        if node.op == "+":
            return lambda env: left(env) + right(env)
        if node.op == "-":
            return lambda env: left(env) - right(env)
        if node.op == "*":
            return lambda env: left(env) * right(env)
        return lambda env: jets._div(left(env), right(env))
    if isinstance(node, Pow):
        base = _closure_tree_node(node.base)
        k = node.exponent
        return lambda env: jets.pow_int(base(env), k)
    if isinstance(node, Call):
        fn = dsl.FUNCTIONS[node.fn]
        arg = _closure_tree_node(node.arg)
        return lambda env: fn(arg(env))
    raise TypeError(f"unknown node {node!r}")


def _outcome(evaluator, env):
    """``repr`` of the outputs, or the type and message of what was raised."""
    try:
        return repr(evaluator(list(env)))
    except (ArithmeticError, ValueError) as e:
        return type(e), str(e)


_COORDINATES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(_ASTS[n], min_size=1, max_size=3),
            st.lists(_COORDINATES, min_size=4 * n, max_size=4 * n),
        )
    )
)
def test_generated_evaluator_is_the_closure_tree_bit_for_bit(case):
    arity, components, flat = case
    generated = compile_spec(dsl.FieldSpec(arity, tuple(components))).evaluator
    bodies = [_closure_tree_node(c) for c in components]
    for depth in (0, 1, 2):
        env = jets.unflatten_levels(flat[: arity * 2**depth], depth)
        want = _outcome(lambda xs: [body(xs) for body in bodies], env)
        assert _outcome(generated, env) == want, depth


# -- the flat kernels against the jet path ------------------------------------


_SCALARS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan]),
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
)


def _towers(depth, scalars=_SCALARS):
    """Jet towers of at most ``depth`` levels, ragged: any primal or tangent
    may stop early as a float."""
    if depth == 0:
        return scalars
    below = _towers(depth - 1, scalars)
    return st.one_of(scalars, st.builds(Jet, below, below))


_TOWERS = {depth: _towers(depth) for depth in (0, 1, 2)}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_flat_kernel_is_the_jet_path_bit_for_bit(data):
    arity = data.draw(st.integers(min_value=1, max_value=3))
    depth = data.draw(st.sampled_from((0, 1, 2)))
    components = data.draw(st.lists(_ASTS[arity], min_size=1, max_size=3))
    xs = data.draw(st.lists(_TOWERS[depth], min_size=arity, max_size=arity))
    # a float time, one of fewer levels than the state's, or a full tower
    t = data.draw(st.one_of(_SCALARS, _TOWERS[min(1, depth)], _TOWERS[depth]))
    evaluator = compile_spec(dsl.FieldSpec(arity, tuple(components))).evaluator
    kernel, scale = evaluator.rule.kernel(depth), jets.flatten_levels([t], depth)

    def jet_path(y):  # at depth 0: [t * v for v in evaluator(y)]
        vals = evaluator(jets.unflatten_levels(y, depth))
        return jets.flatten_levels([t * v for v in vals], depth)

    y = jets.flatten_levels(xs, depth)
    assert _outcome(lambda y: kernel(y, scale), y) == _outcome(jet_path, y)


@pytest.mark.parametrize(
    "text, depth, xs, t, want",
    [
        # a float over a depth-2 jet is (-p) * u; -(p * u) would end in -0.0
        ("x1/x2", 2, [1.0, Jet(Jet(2.0, -0.0), Jet(1.0, -0.0))], 1.0, "[0.5, -0.25, 0.0, 0.0]"),
        # sqrt at 0 rejects a jet but gives 0.0 for a float
        ("sqrt(x1)", 1, [Jet(0.0, 1.0)], 1.0,
         (EvaluationDomainError, "sqrt undefined at coordinate 0.0")),
        ("sqrt(x1)", 1, [-0.0], Jet(1.0, 1.0), "[0.0, 0.0]"),
        # 1.0 / x^k is _div for a jet but float division for a float
        ("x1^-2", 1, [Jet(1e-200, 1.0)], 1.0,
         (EvaluationDomainError, "division undefined at coordinate 0.0")),
        ("x1^-2", 1, [1e-200], Jet(1.0, 1.0), (ZeroDivisionError, "float division by zero")),
        ("x1^-2", 0, [1e-200], 1.0, (ZeroDivisionError, "float division by zero")),
    ],
)
def test_flat_kernel_takes_the_jet_methods_branches(text, depth, xs, t, want):
    evaluator = compile_spec(parse(text, len(xs))).evaluator
    kernel, scale = evaluator.rule.kernel(depth), jets.flatten_levels([t], depth)
    assert _outcome(lambda xs: jets.flatten_levels([t * v for v in evaluator(xs)], depth), xs) == want
    assert _outcome(lambda y: kernel(y, scale), jets.flatten_levels(xs, depth)) == want


@pytest.mark.parametrize("depth", (1, 2))
@pytest.mark.parametrize("fn", sorted(dsl.FUNCTIONS))
def test_each_function_kernel_is_its_chain_rule_at_every_level(fn, depth):
    # a full tower, so the rate of every level runs in both representations
    evaluator = compile_spec(parse(f"{fn}(x1)", 1)).evaluator
    y, scale = [0.75, 0.5, -0.25, 0.125][: 2**depth], jets.flatten_levels([1.0], depth)
    vals = evaluator(jets.unflatten_levels(y, depth))
    want = jets.flatten_levels([1.0 * v for v in vals], depth)
    assert repr(evaluator.rule.kernel(depth)(y, scale)) == repr(want)


def _block_maps(n, m):
    """Every map the library builds from a block layout over ``n`` and
    ``m``: the structural maps, the interleaves, the scaling field and the
    constant and identity fields, and constant layouts with -0.0."""
    return [
        *(structural_map(kind, Space(n)) for kind in ("p", "zero", "ell", "flip")),
        *(structural_map(kind, TrivialBundle(n, m)) for kind in ("bundle_lift", "bundle_mu")),
        structural_map("hat_p", TrivialBundle(0, m)),
        product_interleave(Space(n), Space(m)),
        product_interleave_inv(Space(n), Space(m)),
        euler_field(TrivialBundle(n, m)).vhat,
        zero_field(Space(n)).vhat,
        euler_space_field(Space(m)).vhat,
        curve().c1.vhat,
        _block_map("signed_zeros", (n, m), ([-0.0] * m, 1, [0.0, -1.0])),
        _block_map("negative_zero", (m,), ([-0.0],)),
    ]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_block_map_kernel_is_the_jet_path_bit_for_bit(data):
    n, m = data.draw(st.integers(0, 2)), data.draw(st.integers(1, 2))
    vhat = data.draw(st.sampled_from(_block_maps(n, m)))
    depth = data.draw(st.sampled_from((0, 1, 2)))
    xs = data.draw(st.lists(_TOWERS[depth], min_size=vhat.domain.dim, max_size=vhat.domain.dim))
    # a float time, one of fewer levels than the state's, or a full tower
    t = data.draw(st.one_of(_SCALARS, _TOWERS[min(1, depth)], _TOWERS[depth]))
    kernel, scale = vhat.evaluator.rule.kernel(depth), jets.flatten_levels([t], depth)

    def jet_path(y):
        vals = vhat.evaluator(jets.unflatten_levels(y, depth))
        return jets.flatten_levels([t * v for v in vals], depth)

    y = jets.flatten_levels(xs, depth)
    assert _outcome(lambda y: kernel(y, scale), y) == _outcome(jet_path, y)


def test_block_maps_whose_constants_compare_equal_keep_their_own_bits():
    # one kernel code serves both layouts; each binds its own constant
    maps = [_block_map("c", (1,), ([c],)) for c in (0.0, -0.0)]
    for depth in (0, 1):
        scale = jets.flatten_levels([1.0], depth)
        got = [repr(f.evaluator.rule.kernel(depth)([2.0] * 2**depth, scale)) for f in maps]
        assert got == [f"[0.0{', ABSENT' * depth}]", f"[-0.0{', ABSENT' * depth}]"]


# -- the fused RK45 loop against the called kernel ------------------------------


_START = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
_START_TOWERS = {depth: _towers(depth, _START) for depth in (0, 1, 2)}
_SOLVE_ASTS = {
    (n, time_dependent): _ast(5, n, time_dependent)
    for n in range(1, 4)
    for time_dependent in (False, True)
}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_the_fused_rk45_loop_is_the_called_kernel_bit_for_bit(data):
    # stages that run the kernel's lines inside the generated loop give the
    # states of stages that call the kernel, or the same error at the same time
    arity = data.draw(st.integers(min_value=1, max_value=3))
    depth = data.draw(st.sampled_from((0, 1, 2)))
    time_dependent = data.draw(st.booleans())
    asts = _SOLVE_ASTS[arity, time_dependent]
    components = tuple(data.draw(st.lists(asts, min_size=arity, max_size=arity)))
    # a time-dependent field has augment_time's clock as its last input
    clock = (Num(1.0),) * time_dependent
    spec = dsl.FieldSpec(arity, components + clock, time_dependent)
    n = arity + time_dependent
    kernel = compile_spec(spec).evaluator.rule.kernel(depth)
    xs = data.draw(st.lists(_START_TOWERS[depth], min_size=n, max_size=n))
    t = data.draw(st.one_of(_START, _START_TOWERS[depth]))
    scale, y0 = jets.flatten_levels([t], depth), jets.flatten_levels(xs, depth)
    outputs = data.draw(st.sampled_from([(1.0,), (0.25, 0.5, 1.0), (0.0, 0.3, 0.3, 1.0)]))
    tol = data.draw(st.sampled_from([1e-10, 1e-6, 1e-3]))
    steps = data.draw(st.integers(min_value=1, max_value=200))
    cfg = IntegratorConfig(abs_tol=tol, rel_tol=tol, max_steps=steps)

    def outcome(rhs):
        try:
            unit = jets.primal_value(t)
            return repr(_integrate_scaled(rhs, y0, cfg, unit, outputs, n, scale))
        except (ArithmeticError, ValueError) as e:
            return type(e), str(e), repr(getattr(e, "t_reached", None))

    assert outcome(kernel) == outcome(lambda y, s: kernel(y, s))


def test_time_variable_matches_the_closure_tree():
    spec = parse("x1 * sin(t) - t^2 / (x2 + t)", 2, time_dependent=True)
    body = _closure_tree_node(spec.components[0])
    f = compile_spec(spec)
    for env in sample_points(3, count=50, seed=102):
        assert repr(f(env)) == repr([body(env)])


def test_a_long_chain_compiles_and_solves():
    chain = " + ".join(["x1"] * 3000)
    assert compile_spec(parse(chain, 1))([1.0]) == [3000.0]
    argv = ["solve", "--dim", "1", "--vf", chain, "--t", "0.001", "--x0", "1"]
    assert dispatch(argv, stdout=io.StringIO()) == EXIT_OK


def test_a_field_compiles_only_its_kernels(monkeypatch):
    # a float call runs the depth-0 kernel and a jet call walks the nodes in
    # jet arithmetic: no evaluator source of its own is compiled
    compiled = []

    def spy(source, label, *args):
        compiled.append(label)
        return compile(source, label, *args)

    monkeypatch.setattr(jets, "compile", spy, raising=False)
    kernel._maker.cache_clear()
    f = compile_spec(parse("x1 * x2 - sin(x2) / 3.5; exp(x1)", 2))
    assert f([0.5, 1.5]) == [0.5 * 1.5 - math.sin(1.5) / 3.5, math.exp(0.5)]
    f([Jet(0.5, 1.0), Jet(1.5, 0.0)])
    assert compiled == ["<jet kernel>"]


def test_a_float_call_looks_up_the_depth_0_kernel(monkeypatch):
    looked_up = []

    def counting(f, depth):
        looked_up.append(depth)
        return kernels(f, depth)

    kernels = kernel._flat_kernel
    monkeypatch.setattr(kernel, "_flat_kernel", counting)
    f = compile_spec(parse("x1 + 2.0 * x2", 2))
    assert f([1.0, 0.25]) == [1.5]
    assert f([1, 0.25]) == [1.5]  # an int walks the nodes
    assert looked_up == [0]


def test_maps_of_one_spec_share_one_writer_pass(monkeypatch):
    # the maker memo keeps each key's code beside its maker, so a map's
    # kernel reads that code and does not write it again
    passes = []
    code = jets._FlatWriter.code
    monkeypatch.setattr(
        jets._FlatWriter, "code", lambda *args: passes.append(1) or code(*args)
    )
    kernel._maker.cache_clear()
    spec = parse("x1 * x2 + 0.5; cos(x1)", 2)
    kernels = [compile_spec(spec).evaluator.rule.kernel(0) for _ in range(2)]
    assert len(passes) == 1
    assert kernels[0].code is kernels[1].code


def test_an_overflowing_literal_evaluates_to_inf():
    assert compile_spec(parse("1e999", 1))([0.0]) == [math.inf]


@pytest.mark.parametrize(
    "node",
    [Call("sinh", Var(1)), BinOp("%", Var(1), Num(2.0)), Pow(Var(1), "2"), Var("1")],
    ids=["function", "operator", "exponent", "index"],
)
def test_a_malformed_ast_is_rejected_before_anything_is_compiled(node, monkeypatch):
    def no_compile(*args):
        raise AssertionError("compile was called")

    monkeypatch.setattr(jets, "compile", no_compile, raising=False)
    spec = dsl.FieldSpec(1, (Var(1), BinOp("+", Num(1.0), node)))
    with pytest.raises(TypeError, match="cannot compile"):
        compile_spec(spec)


@pytest.mark.parametrize(
    "opener, closer", [("(", ")"), ("-", ""), ("sin(", ")")],
    ids=["parentheses", "unary-minus", "calls"],
)
def test_nesting_deeper_than_100_levels_is_a_syntax_error(opener, closer):
    def nested(levels):
        return opener * levels + "x1" + closer * levels

    assert len(compile_spec(parse(nested(100), 1))([0.5])) == 1
    with pytest.raises(ExprSyntaxError) as info:
        parse(nested(101), 1)
    # the first token more than 100 levels deep
    assert info.value.offset == len(opener) * 101
