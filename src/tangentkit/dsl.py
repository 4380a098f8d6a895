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
general powers go through ``exp``/``ln``.  Parentheses, unary minus and
calls nest at most 100 levels deep.  A spec compiles to its nodes in post
order, walked in a loop in the tree's order, so ``+ - * /`` chains have no
length limit.  The walk runs in two arithmetics: jet arithmetic, for a call
on anything but floats, and the writer's (see :class:`jets._FlatWriter`),
which writes, per jet depth and on first use, a flat kernel: the same
operations on flat jet coefficients, which a float call runs at depth 0,
the solver inlines in its generated RK45 loop, and composites of the field
write into their own.

Functions: sin, cos, exp, ln, sqrt, tanh.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

from . import jets
from .kernel import SmoothMap, Space, _ruled, _Rule

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
_INT_RE = re.compile(r"([+\-−]?)\s*(\d+)")
_SPACE_RE = re.compile(r"\s*")


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
            # The exponent is lexed as a (signed) integer literal; whitespace
            # may come before it and after its sign.
            j = _SPACE_RE.match(text, i + 1).end()
            m = _INT_RE.match(text, j)
            if not m:
                raise ExprSyntaxError(byte_at[j], ("integer exponent",))
            tokens.append(_Token("POW", "^", off))
            sign = m.group(1).replace("−", "-")
            tokens.append(_Token("INT", sign + m.group(2), byte_at[j]))
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
_MAX_NESTING = 100  # parentheses, unary minus and calls; bounds the recursion


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
        components = [self.parse_expr(0)]
        while self.peek().kind == "SEMI":
            self.advance()
            components.append(self.parse_expr(0))
        self.expect("EOF", "end of input")
        return components

    def parse_expr(self, depth: int) -> Node:
        node = self.parse_term(depth)
        while self.peek().kind == "OP" and self.peek().text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.parse_term(depth))
        return node

    def parse_term(self, depth: int) -> Node:
        node = self.parse_factor(depth)
        while self.peek().kind == "OP" and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.parse_factor(depth))
        return node

    def parse_factor(self, depth: int) -> Node:
        node = self.parse_atom(depth)
        if self.peek().kind == "POW":
            self.advance()
            exponent = int(self.expect("INT", "integer exponent").text)
            node = Pow(node, exponent)
        return node

    def parse_atom(self, depth: int) -> Node:
        tok = self.peek()
        if depth > _MAX_NESTING:
            raise ExprSyntaxError(tok.offset, (f"at most {_MAX_NESTING} nested levels",))
        if tok.kind == "NUMBER":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "OP" and tok.text == "-":
            self.advance()
            return Neg(self.parse_atom(depth + 1))
        if tok.kind == "LPAREN":
            self.advance()
            node = self.parse_expr(depth + 1)
            self.expect("RPAREN", ")")
            return node
        if tok.kind == "IDENT":
            self.advance()
            if self.peek().kind == "LPAREN":
                if tok.text not in FUNCTIONS:
                    raise UnknownIdentifier(tok.text, tok.offset)
                self.advance()
                arg = self.parse_expr(depth + 1)
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


_BINARY = {"+": "add", "-": "sub", "*": "mul", "/": "div"}


def _node(node: Node, spec: FieldSpec, cells: list) -> tuple[str, tuple, tuple]:
    """A node's name, its operands and its extra arguments.  A variable is
    named as its input (``x1``, ``t``); a number's value is appended to
    ``cells``, and the node is named ``c{k}`` after it; any other node is
    named as its operation in the writer (:class:`jets._FlatWriter`) and in
    jet arithmetic (:data:`jets._ARITHMETIC`), and ``pow_int`` takes its
    exponent as an extra argument.  TypeError if it cannot be compiled."""
    if isinstance(node, Num):
        cells.append(node.value)
        return f"c{len(cells) - 1}", (), ()
    if isinstance(node, Var) and isinstance(node.index, int) and 0 < node.index <= spec.arity:
        return f"x{int(node.index)}", (), ()
    if isinstance(node, TimeVar) and spec.time_dependent:
        return "t", (), ()
    if isinstance(node, Neg):
        return "neg", (node.operand,), ()
    if isinstance(node, BinOp) and node.op in _BINARY:
        return _BINARY[node.op], (node.left, node.right), ()
    if isinstance(node, Pow) and isinstance(node.exponent, int):
        return "pow_int", (node.base,), (int(node.exponent),)
    if isinstance(node, Call) and node.fn in FUNCTIONS:
        return node.fn, (node.arg,), ()
    raise TypeError(f"cannot compile {node!r}")


def compile_spec(spec: FieldSpec) -> SmoothMap:
    """Compile a :class:`FieldSpec` to a :class:`SmoothMap`.

    Inputs are ``(x1, ..., xn)``, with ``t`` appended last when the spec is
    time dependent; outputs are the component values in order.

    The nodes, listed in post order as ``(name, operand count, args)``
    (:func:`_node`), are the field's one description, and its rule's key
    (:class:`kernel._Rule`): :func:`_walk` runs them in the writer's
    arithmetic (:func:`_write`), so a composite of the field writes them
    into its own kernels and :func:`kernel.tangent` one level deeper, and a
    call evaluates them in jet arithmetic.  A call whose arguments are all
    floats runs the depth-0 kernel at unit time instead, through the same
    lookup as a composite (:func:`kernel._ruled`), with the same bits and
    errors.  The rule carries the map's kernels (:meth:`kernel._Rule.kernel`),
    which the solver looks up: for each jet depth D it gives
    ``kernel(y, s)``, the flat coefficients (:func:`jets.flatten_levels`) of
    ``t * v`` for each output ``v``, computed from those of the inputs
    (``y``) and of a time ``t`` (``s``) with no :class:`jets.Jet` built.
    Each depth's kernel maker and code are written and compiled once per key
    and depth; each map binds its own cells, the number literals.  The rule
    is ``coded``, so each kernel carries its code as data (``kernel.code``,
    which names the cells) and the map's own cells (``kernel.cells``), which
    the solver writes into its generated RK45 loop when the code is short
    enough (:func:`dynamics._integrate_scaled`).  The other maps of
    :mod:`kernel` that carry flat kernels carry no code, and are called.
    """
    # Pre-order with the right operand first: reversed, it is post order.
    cells: list = []
    preorder, stack = [], list(spec.components)
    while stack:
        name, operands, args = _node(stack.pop(), spec, cells)
        preorder.append((name, len(operands), args))
        stack.extend(operands)
    postorder = tuple(preorder[::-1])
    inputs = [f"x{i}" for i in range(1, spec.arity + 1)]
    inputs += ["t"] if spec.time_dependent else []
    cells = tuple(cells)
    constants = {f"c{k}": c for k, c in enumerate(cells)}

    def by_nodes(xs):
        # strict: a call of the wrong length is a ValueError
        leaves = dict(zip(inputs, xs, strict=True), **constants)
        return _walk(postorder, leaves, jets._ARITHMETIC)

    # the nodes name every input and cell the code reads
    write = functools.partial(_write, postorder, inputs, len(cells))
    rule = _Rule(("dsl", len(inputs), postorder), len(inputs), write, cells, coded=True)
    domain, codomain = Space(len(inputs)), Space(len(spec.components))
    return _ruled(domain, codomain, by_nodes, rule, "field")


def _walk(postorder: tuple, leaves: dict, arithmetic) -> list:
    """The values of the nodes :func:`compile_spec` listed in post order:
    a leaf is ``leaves[name]``, any other node ``arithmetic``'s operation of
    that name on its operands and args.  A loop, not a recursion, so any
    depth and chain length walks."""
    values: list = []
    for name, n, args in postorder:
        if n:
            operands = values[-n:]
            del values[-n:]
            values.append(getattr(arithmetic, name)(*operands, *args))
        else:
            values.append(leaves[name])
    return values


def _write(postorder: tuple, inputs: list[str], n_cells: int, w, ins, size, cells) -> list:
    """The dsl rule (see :class:`kernel._Rule`): the nodes walked in the
    writer's arithmetic over its inputs' and cells' coefficients."""
    leaves = dict(zip(inputs, ins))
    leaves.update((f"c{k}", w.constant(next(cells), size)) for k in range(n_cells))
    return _walk(postorder, leaves, w)


# -- canonical renderer -------------------------------------------------------


# Binding strength: a sum, a product, a power, then an atom (a number, a
# variable, a call or a unary minus); a node's operand is put in parentheses
# when it binds less strongly than the grammar allows there.
_SUM, _PRODUCT, _POWER, _ATOM = range(4)


def _strength(node: Node) -> int:
    if isinstance(node, BinOp):
        return _SUM if node.op in "+-" else _PRODUCT
    return _POWER if isinstance(node, Pow) else _ATOM


def _parts(node: Node) -> tuple:
    """The node's text: strings and ``(operand, weakest strength allowed)``."""
    if isinstance(node, Num):
        # a parse writes a minus sign as Neg and has no NaN literal
        if math.isnan(node.value) or math.copysign(1.0, node.value) < 0.0:
            raise ValueError(f"no literal parses back to Num({node.value!r})")
        # 1e999 is the literal that parses back to inf
        return ("1e999" if node.value == math.inf else repr(node.value),)
    if isinstance(node, Var):
        return (f"x{node.index}",)
    if isinstance(node, TimeVar):
        return ("t",)
    if isinstance(node, Neg):
        return ("-", (node.operand, _ATOM))
    if isinstance(node, BinOp):
        level = _strength(node)
        return ((node.left, level), f" {node.op} ", (node.right, level + 1))
    if isinstance(node, Pow):
        return ((node.base, _ATOM), f"^{node.exponent}")
    if isinstance(node, Call):
        return (f"{node.fn}(", (node.arg, _SUM), ")")
    raise TypeError(f"unknown node {node!r}")


def format_expr(node: Node) -> str:
    """Render one expression, parenthesised only where precedence or left
    associativity needs it.  Written with an explicit stack, so any depth
    renders."""
    out, stack = [], [(node, _SUM)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, weakest = item
        parts = _parts(node)
        if _strength(node) < weakest:
            parts = ("(", *parts, ")")
        stack.extend(reversed(parts))
    return "".join(out)


def format_spec(spec: FieldSpec) -> str:
    """Canonical rendering; ``parse(format_spec(s))`` returns components
    structurally equal to ``s``'s."""
    return "; ".join(format_expr(c) for c in spec.components)
