"""A small expression language for defining component maps.

Grammar (a public, versioned contract; version 1):

    spec   := expr (";" expr)*
    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := atom ("^" INT)?
    atom   := NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")" | "-" atom

Operators are left-associative, whitespace is insignificant, and error
positions are byte offsets into the UTF-8 encoding of the source.  The
minus sign may be written as ASCII ``-`` or as U+2212; the canonical
renderer emits ASCII.  Variables are ``x1..xn`` (n = declared arity) plus
the reserved ``t`` when the spec is time dependent; ``t`` is passed as the
last input of the compiled map.  Exponents must be integer literals;
general powers go through ``exp``/``ln``.

Functions: sin, cos, exp, ln, sqrt, tanh.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import jets
from .kernel import SmoothMap, Space

__all__ = [
    "Num",
    "Var",
    "TimeVar",
    "Neg",
    "BinOp",
    "Pow",
    "Call",
    "FieldSpec",
    "ExprSyntaxError",
    "UnknownIdentifier",
    "ArityError",
    "FUNCTIONS",
    "parse",
    "compile_spec",
    "format_spec",
    "format_expr",
]

FUNCTIONS = {
    "sin": jets.sin,
    "cos": jets.cos,
    "exp": jets.exp,
    "ln": jets.ln,
    "sqrt": jets.sqrt,
    "tanh": jets.tanh,
}


class ExprSyntaxError(ValueError):
    """Malformed source; ``offset`` is a byte offset, ``expected`` the token set."""

    def __init__(self, offset: int, expected: tuple[str, ...]):
        self.offset = offset
        self.expected = tuple(expected)
        super().__init__(f"syntax error at byte {offset}: expected {', '.join(expected)}")


class UnknownIdentifier(ValueError):
    def __init__(self, name: str, offset: int):
        self.name = name
        self.offset = offset
        super().__init__(f"unknown identifier {name!r} at byte {offset}")


class ArityError(ValueError):
    def __init__(self, declared: int, used: int):
        self.declared = declared
        self.used = used
        super().__init__(f"variable x{used} used but arity is {declared}")


# -- AST --------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True)
class TimeVar:
    pass


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Node"


Node = Num | Var | TimeVar | Neg | BinOp | Pow | Call


@dataclass(frozen=True)
class FieldSpec:
    """A list of component expressions over x1..x{arity} (and t if time dependent)."""

    arity: int
    components: tuple[Node, ...]
    time_dependent: bool = False

    @property
    def n_components(self) -> int:
        return len(self.components)


# -- lexer ------------------------------------------------------------------

_MINUS = {"-", "−"}
_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_INT_RE = re.compile(r"[+\-−]?\d+")


@dataclass(frozen=True)
class _Token:
    kind: str  # NUMBER IDENT OP LPAREN RPAREN SEMI POW INT EOF
    text: str
    offset: int  # byte offset


def _tokenize(text: str) -> list[_Token]:
    # Byte offset of each character, so errors are reported against the
    # UTF-8 encoding (U+2212 is three bytes).
    byte_at = [0]
    for ch in text:
        byte_at.append(byte_at[-1] + len(ch.encode("utf-8")))

    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        off = byte_at[i]
        if ch == "^":
            # The exponent is lexed as a (signed) integer literal.
            m = _INT_RE.match(text, i + 1)
            if not m:
                raise ExprSyntaxError(byte_at[i + 1], ("integer exponent",))
            tokens.append(_Token("POW", "^", off))
            tokens.append(
                _Token("INT", m.group().replace("−", "-"), byte_at[m.start()])
            )
            i = m.end()
            continue
        if ch in _MINUS:
            tokens.append(_Token("OP", "-", off))
            i += 1
            continue
        if ch in "+*/":
            tokens.append(_Token("OP", ch, off))
            i += 1
            continue
        if ch == "(":
            tokens.append(_Token("LPAREN", ch, off))
            i += 1
            continue
        if ch == ")":
            tokens.append(_Token("RPAREN", ch, off))
            i += 1
            continue
        if ch == ";":
            tokens.append(_Token("SEMI", ch, off))
            i += 1
            continue
        m = _NUMBER_RE.match(text, i)
        if m:
            tokens.append(_Token("NUMBER", m.group(), off))
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            tokens.append(_Token("IDENT", m.group(), off))
            i = m.end()
            continue
        raise ExprSyntaxError(off, ("number", "identifier", "operator"))
    tokens.append(_Token("EOF", "", byte_at[n]))
    return tokens


# -- parser -----------------------------------------------------------------

_VAR_RE = re.compile(r"x([1-9]\d*)$")


class _Parser:
    def __init__(self, tokens: list[_Token], arity: int, time_dependent: bool):
        self.tokens = tokens
        self.pos = 0
        self.arity = arity
        self.time_dependent = time_dependent

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(tok.offset, (what,))
        return self.advance()

    def parse_spec(self) -> list[Node]:
        components = [self.parse_expr()]
        while self.peek().kind == "SEMI":
            self.advance()
            components.append(self.parse_expr())
        self.expect("EOF", "end of input")
        return components

    def parse_expr(self) -> Node:
        node = self.parse_term()
        while self.peek().kind == "OP" and self.peek().text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> Node:
        node = self.parse_factor()
        while self.peek().kind == "OP" and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.parse_factor())
        return node

    def parse_factor(self) -> Node:
        node = self.parse_atom()
        if self.peek().kind == "POW":
            self.advance()
            exponent = int(self.expect("INT", "integer exponent").text)
            node = Pow(node, exponent)
        return node

    def parse_atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "OP" and tok.text == "-":
            self.advance()
            return Neg(self.parse_atom())
        if tok.kind == "LPAREN":
            self.advance()
            node = self.parse_expr()
            self.expect("RPAREN", ")")
            return node
        if tok.kind == "IDENT":
            self.advance()
            if self.peek().kind == "LPAREN":
                if tok.text not in FUNCTIONS:
                    raise UnknownIdentifier(tok.text, tok.offset)
                self.advance()
                arg = self.parse_expr()
                self.expect("RPAREN", ")")
                return Call(tok.text, arg)
            return self._variable(tok)
        raise ExprSyntaxError(tok.offset, ("atom",))

    def _variable(self, tok: _Token) -> Node:
        if tok.text == "t":
            if not self.time_dependent:
                raise UnknownIdentifier("t", tok.offset)
            return TimeVar()
        m = _VAR_RE.match(tok.text)
        if not m:
            raise UnknownIdentifier(tok.text, tok.offset)
        index = int(m.group(1))
        if index > self.arity:
            raise ArityError(self.arity, index)
        return Var(index)


def parse(text: str, arity: int, time_dependent: bool = False) -> FieldSpec:
    """Parse ``;``-separated component expressions into a :class:`FieldSpec`."""
    if not text.strip():
        raise ExprSyntaxError(0, ("expression",))
    parser = _Parser(_tokenize(text), arity, time_dependent)
    components = parser.parse_spec()
    return FieldSpec(arity, tuple(components), time_dependent)


# -- compiler ---------------------------------------------------------------


def _compile_node(node: Node):
    if isinstance(node, Num):
        v = node.value
        return lambda env: v
    if isinstance(node, Var):
        i = node.index - 1
        return lambda env: env[i]
    if isinstance(node, TimeVar):
        return lambda env: env[-1]
    if isinstance(node, Neg):
        inner = _compile_node(node.operand)
        return lambda env: -inner(env)
    if isinstance(node, BinOp):
        left = _compile_node(node.left)
        right = _compile_node(node.right)
        if node.op == "+":
            return lambda env: left(env) + right(env)
        if node.op == "-":
            return lambda env: left(env) - right(env)
        if node.op == "*":
            return lambda env: left(env) * right(env)
        return lambda env: jets._div(left(env), right(env))
    if isinstance(node, Pow):
        base = _compile_node(node.base)
        k = node.exponent
        return lambda env: jets.pow_int(base(env), k)
    if isinstance(node, Call):
        fn = FUNCTIONS[node.fn]
        arg = _compile_node(node.arg)
        return lambda env: fn(arg(env))
    raise TypeError(f"unknown node {node!r}")


def compile_spec(spec: FieldSpec) -> SmoothMap:
    """Compile a :class:`FieldSpec` to a :class:`SmoothMap`.

    Inputs are ``(x1, ..., xn)``, with ``t`` appended last when the spec is
    time dependent; outputs are the component values in order.
    """
    bodies = [_compile_node(c) for c in spec.components]
    dim_in = spec.arity + (1 if spec.time_dependent else 0)
    return SmoothMap(
        Space(dim_in),
        Space(len(bodies)),
        lambda xs: [body(xs) for body in bodies],
        name="field",
    )


# -- canonical renderer -------------------------------------------------------


def format_expr(node: Node) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return f"x{node.index}"
    if isinstance(node, TimeVar):
        return "t"
    if isinstance(node, Neg):
        return f"-({format_expr(node.operand)})"
    if isinstance(node, BinOp):
        return f"({format_expr(node.left)} {node.op} {format_expr(node.right)})"
    if isinstance(node, Pow):
        if isinstance(node.base, (Num, Var, TimeVar, Call)):
            base = format_expr(node.base)
        else:
            base = f"({format_expr(node.base)})"
        return f"{base}^{node.exponent}"
    if isinstance(node, Call):
        return f"{node.fn}({format_expr(node.arg)})"
    raise TypeError(f"unknown node {node!r}")


def format_spec(spec: FieldSpec) -> str:
    """Canonical parenthesized rendering; ``parse(format_spec(s))`` returns
    components structurally equal to ``s``'s."""
    return "; ".join(format_expr(c) for c in spec.components)
