import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tangentkit import dsl
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
from tangentkit.jets import EvaluationDomainError, Jet
from tangentkit.kernel import tangent
from tangentkit.sampling import sample_points


def test_parse_rotation_field():
    spec = parse("x2; −x1", 2)
    assert spec.n_components == 2
    assert spec.components[0] == Var(2)
    assert spec.components[1] == Neg(Var(1))


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
    assert format_spec(parse("x2; −x1", 2)) == "x2; -(x1)"
    assert format_spec(parse("2.5", 1)) == "2.5"


def test_format_round_trip_examples():
    for text in ("x1 + x2*x2", "sin(x1)^2 + cos(x1)^2", "-(x1/x2)", "x1^-3"):
        spec = parse(text, 2)
        again = parse(format_spec(spec), 2)
        assert again.components == spec.components


_FN = st.sampled_from(sorted(dsl.FUNCTIONS))


def _ast(max_depth, arity):
    leaf = st.one_of(
        st.integers(min_value=1, max_value=arity).map(Var),
        st.floats(
            min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
        ).map(Num),
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
