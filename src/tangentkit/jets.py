"""Jet scalars: the nested dual-number tower that powers exact differentiation.

A level-1 jet carries a value and one directional derivative.  A level-k jet
carries a level-(k-1) primal and a level-(k-1) tangent, so k applications of
the tangent functor are evaluated by k nested wrappings.  All arithmetic is
exact in the sense that the derivative rules are the analytic ones; nothing
here ever falls back to finite differences.

Plain ``int``/``float`` values mix freely with jets and behave as constants
(zero derivative in every direction).

Every scalar function is one chain rule (:func:`_chain`): the function of
the primal, lifted in turn, and a rate in jet arithmetic for the tangent;
``ln`` and ``sqrt`` put their domain checks around that lifted core.
Integer powers square in one loop (:func:`_power`).

Only :func:`open_level` and :func:`close_level` open or close a perturbation
level, and only the codec beside them, :func:`flatten_levels` and
:func:`unflatten_levels`, turns towers into flat coefficient lists and back:
every other module evaluates through these and never builds or takes apart
a :class:`Jet` itself, so how a level is identified is decided here.

The rules of :class:`Jet` arithmetic are also written out here as flat
kernels (:class:`_FlatWriter`): straight-line float code that runs the same
operations on the coefficients of :func:`flatten_levels`, with no ``Jet``
built.  The writer and the jet arithmetic :data:`_ARITHMETIC` answer to one
set of names: the scalar operations, and a map's own ``cells`` (its
constants), ``open`` and ``close`` (a level, :func:`open_level` and
:func:`close_level` on jets) and ``vertical`` (the verticality check).  So
a map's rule (:class:`kernel._Rule`: a dsl field's, a block map's, a
linear field's, and that of every composite of such maps) is one function
that is the map's call in jet arithmetic and writes its kernels, one per
jet depth, on first use, in the writer; a composite's parts write into one
writer pass (see :mod:`kernel`).  The solver runs a kernel in place of the
codec, and a float call of every map that carries a rule its depth-0
kernel (:func:`kernel._ruled`); a dsl kernel's code (:class:`_FlatCode`) is written into the stages of the
generated RK45 loop.  :func:`dynamics._trajectory` alone reads a solve's
levels and places the codec, and calls any other evaluator on towers
through one widening that joins the levels of the state, time and closure.
"""

from __future__ import annotations

import functools
import math
import operator
import re
import types
from typing import NamedTuple

__all__ = [
    "Jet",
    "EvaluationDomainError",
    "primal_value",
    "coefficients",
    "jet_depth",
    "open_level",
    "close_level",
    "ABSENT",
    "flatten_levels",
    "unflatten_levels",
    "sin",
    "cos",
    "exp",
    "ln",
    "sqrt",
    "tanh",
    "pow_int",
]


class EvaluationDomainError(ArithmeticError):
    """A partial primitive (division, ln, sqrt, negative power) was evaluated
    outside its domain.  Carries the operation name and the offending
    coordinate value."""

    def __init__(self, op: str, coordinate: float):
        self.op = op
        self.coordinate = coordinate
        super().__init__(f"{op} undefined at coordinate {coordinate!r}")


class VerticalityViolation(ValueError):
    """The bracket was applied to a map whose base direction does not vanish."""

    def __init__(self, point, residual: float):
        self.point = point
        self.residual = residual
        super().__init__(
            f"bracket applied to a non-vertical value: residual {residual:.3e} at {point}"
        )


class Jet:
    """One level of the jet tower: ``primal + tangent * eps``."""

    __slots__ = ("primal", "tangent")

    def __init__(self, primal, tangent):
        self.primal = primal
        self.tangent = tangent

    def __repr__(self):
        return f"Jet({self.primal!r}, {self.tangent!r})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.primal + other.primal, self.tangent + other.tangent)
        if isinstance(other, (int, float)):
            return Jet(self.primal + other, self.tangent)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.primal - other.primal, self.tangent - other.tangent)
        if isinstance(other, (int, float)):
            return Jet(self.primal - other, self.tangent)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, float)):
            return Jet(other - self.primal, -self.tangent)
        return NotImplemented

    def __neg__(self):
        return Jet(-self.primal, -self.tangent)

    def __mul__(self, other):
        if isinstance(other, Jet):
            return Jet(
                self.primal * other.primal,
                self.primal * other.tangent + self.tangent * other.primal,
            )
        if isinstance(other, (int, float)):
            return Jet(self.primal * other, self.tangent * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _div(self, other)

    def __rtruediv__(self, other):
        return _div(other, self)

    def __pow__(self, exponent):
        if isinstance(exponent, int):
            return pow_int(self, exponent)
        return NotImplemented


def primal_value(v) -> float:
    """Innermost primal: the plain float a jet tower sits over."""
    while isinstance(v, Jet):
        v = v.primal
    return v


def coefficients(v) -> list[float]:
    """All scalar coefficients of a jet tower, flattened (primal first)."""
    if isinstance(v, Jet):
        return coefficients(v.primal) + coefficients(v.tangent)
    return [v]


def jet_depth(v) -> int:
    depth = 0
    while isinstance(v, Jet):
        depth += 1
        v = v.primal
    return depth


def open_level(points, directions) -> list:
    """A fresh outermost level: ``Jet(x, d)`` for each point and direction."""
    return [Jet(x, d) for x, d in zip(points, directions)]


def close_level(values, fill=0.0) -> tuple[list, list]:
    """Split the outermost level off: ``(primals, tangents)``.  A value that
    is not a jet is a constant there, so it splits as ``(v, fill)``."""
    primals, tangents = [], []
    for v in values:
        if isinstance(v, Jet):
            primals.append(v.primal)
            tangents.append(v.tangent)
        else:
            primals.append(v)
            tangents.append(fill)
    return primals, tangents


class _Absent:
    """The coefficient of a level a tower does not reach.  Adding it changes
    nothing, subtracting a value from it negates that value, and scaling,
    negating or dividing it leaves it absent, which is exactly how jet
    arithmetic treats the missing tangent of a value below the level."""

    __slots__ = ()
    __array_ufunc__ = None  # so numpy scalar + ABSENT is that numpy scalar

    def __add__(self, other):
        return other

    __radd__ = __add__

    def __sub__(self, other):
        return -other

    def __rsub__(self, other):
        return other

    def __neg__(self):
        return self

    def __mul__(self, other):
        return self

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self

    def __repr__(self):
        return "ABSENT"


ABSENT = _Absent()


def flatten_levels(values, depth: int) -> list:
    """Coefficients of ``depth``-level jet towers as one flat list.

    Each of ``depth`` rounds splits the outermost level off the whole list
    (:func:`close_level`) and puts the primals ahead of the tangents, so the
    first ``len(values)`` entries are the innermost primals.  A value with
    fewer levels fills what it lacks with :data:`ABSENT`, so a sum of scalar
    multiples of flat lists, taken coefficient by coefficient, is exactly
    the same sum in jet arithmetic.
    """
    for _ in range(depth):
        primals, tangents = close_level(values, ABSENT)
        values = primals + tangents
    return values


def unflatten_levels(flat, depth: int) -> list:
    """The towers whose coefficients :func:`flatten_levels` listed, rebuilt
    innermost level first; a level whose coefficients are all
    :data:`ABSENT` is left off again."""
    for _ in range(depth):
        half = len(flat) // 2
        flat = [
            p if d is ABSENT else Jet(p, d) for p, d in zip(flat[:half], flat[half:])
        ]
    return flat


def _div(num, den):
    if primal_value(den) == 0.0:
        raise EvaluationDomainError("division", primal_value(den))
    if isinstance(num, Jet):
        if isinstance(den, Jet):
            p = num.primal / den.primal
            return Jet(p, (num.tangent - p * den.tangent) / den.primal)
        return Jet(num.primal / den, num.tangent / den)
    if isinstance(den, Jet):
        p = num / den.primal
        return Jet(p, (-p * den.tangent) / den.primal)
    return num / den


def pow_int(x, k: int):
    """x**k for integer k, by repeated multiplication (negative k divides)."""
    if not isinstance(k, int):
        raise TypeError("pow_int exponent must be an int")
    if k < 0:
        if primal_value(x) == 0.0:
            raise EvaluationDomainError("negative power", primal_value(x))
        return 1.0 / pow_int(x, -k)
    return _power(1.0, operator.mul, x, k)


def _power(one, mul, base, k: int):
    """``base**k`` for ``k >= 0`` by repeated squaring, in the arithmetic of
    ``one`` and ``mul``: jets here, flat coefficients in the writer."""
    out = one
    while k:
        if k & 1:
            out = mul(out, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return out


def _chain(f, rate):
    """Lift the float function ``f`` to jet towers by the chain rule: at
    each level the value is the lifted function of the primal, and the
    tangent is ``rate(value, primal, tangent)`` in jet arithmetic."""

    def lifted(x):
        if isinstance(x, Jet):
            value = lifted(x.primal)
            return Jet(value, rate(value, x.primal, x.tangent))
        return f(x)

    return lifted


sin = _chain(math.sin, lambda v, p, d: cos(p) * d)
cos = _chain(math.cos, lambda v, p, d: -sin(p) * d)
exp = _chain(math.exp, lambda v, p, d: v * d)
tanh = _chain(math.tanh, lambda v, p, d: (1.0 - v * v) * d)
_ln = _chain(math.log, lambda v, p, d: d / p)
_sqrt = _chain(math.sqrt, lambda v, p, d: d / (2.0 * v))


def ln(x):
    if primal_value(x) <= 0.0:
        raise EvaluationDomainError("ln", primal_value(x))
    return _ln(x)


def sqrt(x):
    if primal_value(x) <= 0.0:
        # sqrt(0) itself is fine as a value but not smooth there; a jet
        # evaluation would divide by zero, so the whole point is rejected.
        if primal_value(x) < 0.0 or isinstance(x, Jet):
            raise EvaluationDomainError("sqrt", primal_value(x))
        return 0.0
    return _sqrt(x)


def _vertical_of(direction: list, point: list, tol) -> None:
    """:func:`_vertical` on values: every coefficient of the jets of
    ``direction``, at the innermost primals of ``point``."""
    coeffs = [c for v in direction for c in coefficients(v)]
    _vertical(coeffs, [primal_value(v) for v in point], tol)


# Jet arithmetic under the names of the writer's rules (:class:`_FlatWriter`),
# so a map's rule (:class:`kernel._Rule`) also evaluates on jet towers (and
# on any scalars the jet operations take); its cells are their values here.
_ARITHMETIC = types.SimpleNamespace(
    neg=operator.neg,
    add=operator.add,
    sub=operator.sub,
    mul=operator.mul,
    div=_div,
    pow_int=pow_int,
    sin=sin,
    cos=cos,
    exp=exp,
    tanh=tanh,
    ln=ln,
    sqrt=sqrt,
    cells=tuple,
    open=open_level,
    close=close_level,
    vertical=_vertical_of,
)


# -- flat kernels ---------------------------------------------------------------

def _vertical(direction: list, point: list, tol) -> None:
    """The verticality test of :func:`kernel.vertical_bracket`: the inf-norm
    of the base-direction coefficients ``direction``, skipping
    :data:`ABSENT`, must be at most ``tol``; a NaN sticks, as in
    :func:`fields.gap`, so a NaN direction is not vertical.  Kernels call it
    by the name ``vertical``."""
    coeffs = [abs(c) for c in direction if c is not ABSENT]
    residual = math.nan if any(c != c for c in coeffs) else max(coeffs, default=0.0)
    if not residual <= tol:
        raise VerticalityViolation(point, residual)


_KERNEL_NAMES = {
    "ABSENT": ABSENT,
    "domain": EvaluationDomainError,
    "vertical": _vertical,
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "tanh": math.tanh,
}


def _interleave(primal: list, tangent: list) -> list:
    return [c for pair in zip(primal, tangent) for c in pair]


class _FlatWriter:
    """Writes one kernel: straight-line float code for the jet arithmetic of
    a field, run on the flat coefficients of :func:`flatten_levels`.

    A value is the list of its ``2**depth`` coefficient names in flat order:
    the even entries are the outermost primal's coefficients and the odd
    entries the outermost tangent's, each again in flat order one level down.
    ``None`` stands for a coefficient known to be absent when the code is
    written (a constant's tangents); a name may still hold :data:`ABSENT`
    when the code runs (a ragged tower), and ``_Absent``'s operators carry
    it as the jet methods treat a value that is not a jet.

    Each rule runs the float operations of the :class:`Jet` method or scalar
    function it mirrors, in the order that code runs them, so a kernel gives
    the jet path's bits and raises its errors: a scalar function is one
    :meth:`_chain` with the rate of its :func:`_chain` on jets, and
    :meth:`pow_int` squares in the same :func:`_power` loop.  Where that
    code takes a different path for an operand that is not a jet and the
    difference shows in the bits (``_div`` with a numerator of two or more
    levels), the kernel tests whether that operand's tangent is absent.  An
    expression written twice is computed once: every operation here is
    pure.

    A map's rule (:class:`kernel._Rule`) runs here as in :data:`_ARITHMETIC`.
    The writer keeps ``size``, each value's number of coefficients, which
    :meth:`open` doubles until :meth:`close`, and hands out cell names.
    """

    def __init__(self, depth: int, inputs: list[str]):
        self.size = 2**depth
        self.inputs = [[f"{name}_{k}" for k in range(self.size)] for name in inputs]
        self.scale = [f"s_{k}" for k in range(self.size)]
        self.lines: list[str] = []
        self.memo: dict[str, str] = {}
        self.count = 0
        self.cell_names: list[str] = []

    def constant(self, name: str, size: int) -> list:
        """A value of ``size`` coefficients without tangents."""
        return [name] + [None] * (size - 1)

    def cells(self, values) -> list:
        """The next ``len(values)`` cell names (``c0..``), as constants."""
        names = [f"c{len(self.cell_names) + k}" for k in range(len(values))]
        self.cell_names += names
        return [self.constant(name, self.size) for name in names]

    def open(self, points: list, directions: list) -> list:
        """:func:`open_level`: each point interleaved with its direction."""
        self.size *= 2
        return [_interleave(x, d) for x, d in zip(points, directions)]

    def close(self, values: list) -> tuple[list, list]:
        """:func:`close_level`: the even coefficients (primals) and the odd
        ones (tangents).  A tangent's first coefficient reads only the
        innermost primals, so it is absent exactly when it is absent as the
        code is written: there ``close_level``'s 0.0."""
        self.size //= 2
        return [v[0::2] for v in values], [[v[1] or "0.0", *v[3::2]] for v in values]

    def vertical(self, direction: list, point: list, tol) -> None:
        """:func:`_vertical_of` as one guard statement, with ``tol`` a cell."""
        dx = ", ".join(c for v in direction for c in v if c is not None)
        (tol,) = self.cells((tol,))
        self.lines.append(f"vertical([{dx}], [{', '.join(v[0] for v in point)}], {tol[0]})")

    def _fresh(self) -> str:
        self.count += 1
        return f"j{self.count}"

    def _let(self, expr: str) -> str:
        name = self.memo.get(expr)
        if name is None:
            name = self.memo[expr] = self._fresh()
            self.lines.append(f"{name} = {expr}")
        return name

    def _branch(self, test: str, then, otherwise) -> list:
        """``if test:`` ``then()`` ``else:`` ``otherwise()``: each writes its
        code and returns a value; the value of the arm that ran, under
        names common to both."""
        arms = []
        for write in (then, otherwise):
            lines, memo = self.lines, self.memo
            self.lines, self.memo = [], dict(memo)
            value = write()
            arms.append((self.lines, value))
            self.lines, self.memo = lines, memo
        (_, a), (_, b) = arms
        merged = [None if p is None and q is None else self._fresh() for p, q in zip(a, b)]
        for keyword, (body, value) in zip((f"if {test}:", "else:"), arms):
            body += [f"{m} = {v or 'ABSENT'}" for m, v in zip(merged, value) if m]
            self.lines.append(keyword)
            self.lines += ["  " + line for line in body] or ["  pass"]
        return merged

    # -- ring operations ----------------------------------------------------

    def neg(self, x: list) -> list:
        return [None if a is None else self._let(f"-{a}") for a in x]

    def add(self, x: list, y: list) -> list:
        return [
            b if a is None else a if b is None else self._let(f"{a} + {b}")
            for a, b in zip(x, y)
        ]

    def sub(self, x: list, y: list) -> list:
        return [
            a if b is None else self._let(f"-{b}") if a is None else self._let(f"{a} - {b}")
            for a, b in zip(x, y)
        ]

    def mul(self, x: list, y: list) -> list:
        if len(x) == 1:
            a, b = x[0], y[0]
            return [None if a is None or b is None else self._let(f"{a} * {b}")]
        xp, xt, yp, yt = x[0::2], x[1::2], y[0::2], y[1::2]
        primal = self.mul(xp, yp)
        return _interleave(primal, self.add(self.mul(xp, yt), self.mul(xt, yp)))

    def div(self, x: list, y: list) -> list:
        """``_div(x, y)``: division-by-zero check on the primal, then the
        quotient."""
        self.lines.append(f"if {y[0]} == 0.0: raise domain('division', {y[0]})")
        return self._quotient(x, y)

    def _quotient(self, x: list, y: list) -> list:
        if len(x) == 1:
            return [None if x[0] is None else self._let(f"{x[0]} / {y[0]}")]
        xp, xt, yp, yt = x[0::2], x[1::2], y[0::2], y[1::2]
        p = self._quotient(xp, yp)
        if all(u is None for u in yt):  # a constant denominator: xt / yp
            rate = xt
        elif xt[0] is None:  # a constant numerator: -p * yt / yp
            rate = self.mul(self.neg(p), yt)
        elif len(xt) == 1:  # (-p)*u is -(p*u) bit for bit
            rate = self.sub(xt, self.mul(p, yt))
        else:
            rate = self._branch(
                f"{xt[0]} is ABSENT",
                lambda: self.mul(self.neg(p), yt),
                lambda: self.sub(xt, self.mul(p, yt)),
            )
        return _interleave(p, self._quotient(rate, yp))

    def pow_int(self, x: list, k: int) -> list:
        if k < 0:
            self.lines.append(f"if {x[0]} == 0.0: raise domain('negative power', {x[0]})")
            den = self.pow_int(x, -k)
            if len(den) > 1 and den[1] is not None:  # _div for a jet, float division else
                self.lines.append(
                    f"if {den[0]} == 0.0 and {den[1]} is not ABSENT: "
                    f"raise domain('division', {den[0]})"
                )
            return self._quotient(self.constant("1.0", len(x)), den)
        return _power(self.constant("1.0", len(x)), self.mul, x, k)

    # -- scalar functions -----------------------------------------------------

    def _chain(self, fn: str, x: list, rate) -> list:
        """:func:`jets._chain` on coefficients: ``fn`` of the innermost
        primal, then at each level ``rate(value, primal, tangent)`` in the
        writer's arithmetic."""
        if len(x) == 1:
            return [self._let(f"{fn}({x[0]})")]
        xp, xt = x[0::2], x[1::2]
        value = self._chain(fn, xp, rate)
        return _interleave(value, rate(value, xp, xt))

    def sin(self, x: list) -> list:
        return self._chain("sin", x, lambda v, p, d: self.mul(self.cos(p), d))

    def cos(self, x: list) -> list:
        return self._chain("cos", x, lambda v, p, d: self.mul(self.neg(self.sin(p)), d))

    def exp(self, x: list) -> list:
        return self._chain("exp", x, lambda v, p, d: self.mul(v, d))

    def tanh(self, x: list) -> list:
        def rate(v, p, d):
            return self.mul(self.sub(self.constant("1.0", len(v)), self.mul(v, v)), d)

        return self._chain("tanh", x, rate)

    def ln(self, x: list) -> list:
        self.lines.append(f"if {x[0]} <= 0.0: raise domain('ln', {x[0]})")
        return self._chain("log", x, lambda v, p, d: self._quotient(d, p))

    def sqrt(self, x: list) -> list:
        """At a primal of exactly 0 the value is 0.0 when ``x`` has no
        tangent at all; any other primal <= 0 raises."""
        tangents = [f"{a} is not ABSENT" for a in x[1:] if a is not None]

        def at_zero():
            test = " or ".join([f"{x[0]} < 0.0"] + tangents)
            self.lines.append(f"if {test}: raise domain('sqrt', {x[0]})")
            return self.constant("0.0", len(x))

        def rate(v, p, d):
            return self._quotient(d, self.mul(self.constant("2.0", len(v)), v))

        return self._branch(f"{x[0]} <= 0.0", at_zero, lambda: self._chain("sqrt", x, rate))

    # -- the kernel -----------------------------------------------------------

    def code(self, outputs: list) -> "_FlatCode":
        """The code of ``t * v`` for each output ``v``, as data, with each
        name read once inlined where it is read (:func:`_inlined`), reading
        the cells :meth:`cells` named."""
        scaled = [self.mul(self.scale, v) for v in outputs]
        outputs = tuple(v[k] for k in range(self.size) for v in scaled)
        return _FlatCode(
            tuple(v[k] for k in range(self.size) for v in self.inputs),
            tuple(self.scale),
            tuple(_inlined(self.lines, outputs)),
            outputs,
            tuple(self.cell_names),
            len(self.lines),
        )


_NAME = re.compile(r"\bj\d+\b")
# one sum, difference, product or negation of names and numbers: the one
# kind of line a kernel may run later than written, since on floats and
# ABSENT it raises nothing
_SIMPLE = re.compile(r"-?[\w.]+(?: [-+*] [\w.]+)?")


def _inlined(lines: list, outputs: tuple) -> list:
    """``lines`` with each name that one line binds to a simple operation
    (:data:`_SIMPLE`) and one later line reads once written into that line,
    in parentheses: ``j1 = c0 * x0_0`` and ``j2 = 0 + j1`` become ``j2 = 0 +
    (c0 * x0_0)``.  The same operations run on the same operands, and an
    operation is held back only past other simple ones, never past a line
    that may raise (a call, a division, a guard) or a branch, so the bits
    and the errors stay.  A kernel binds fewer names and its source is
    shorter; only an operation on names and numbers is written in, so no
    expression nests more than one level."""
    reads: dict = {}
    for line in [*(line.split(" = ", 1)[-1] for line in lines), *outputs]:
        for name in _NAME.findall(line):
            reads[name] = reads.get(name, 0) + 1
    held: dict = {}
    out = []
    for line in lines:
        name, _, value = line.partition(" = ")
        if not (_NAME.fullmatch(name) and _SIMPLE.fullmatch(value)):
            out += [f"{n} = {v}" for n, v in held.items()]  # they run first
            held.clear()
        line = _NAME.sub(lambda m: f"({held.pop(m[0])})" if m[0] in held else m[0], line)
        name, _, value = line.partition(" = ")
        if reads.get(name) == 1 and name not in outputs and _SIMPLE.fullmatch(value):
            held[name] = value
        else:
            out.append(line)
    return out


class _FlatCode(NamedTuple):
    """A flat kernel's code as data, for a caller that writes it into its
    own straight-line code: bind the flat input coefficients to ``inputs``
    and the time's to ``scale``, run ``lines``, and read the flat
    coefficients of the values from ``outputs``.  The lines read the names
    ``cells`` (``c0..``, bound to the map's constants by whoever runs the
    code, so maps that differ only in their constants share one code) and
    the names of :data:`_KERNEL_NAMES`; they bind only names ``j1..``, and
    every output is one of those.  ``operations`` is the number of lines
    the writer wrote before :func:`_inlined` wrote some into others: the
    size :func:`dynamics._integrate_scaled` caps before it writes the code
    into a loop."""

    inputs: tuple[str, ...]
    scale: tuple[str, ...]
    lines: tuple[str, ...]
    outputs: tuple[str, ...]
    cells: tuple[str, ...]
    operations: int


def _compiled(label: str, params, signature: str, body):
    """``make(*params)``, which defines the function ``signature`` with the
    lines ``body`` and returns it, compiled under the name ``label``.  Jet
    kernels (:func:`_kernel_maker`) and RK45 loops (:func:`dynamics._dp_loop`)
    both compile here."""
    source = (
        f"def make({', '.join(params)}):\n"
        f"  def {signature}:\n"
        + "".join(f"    {line}\n" for line in body)
        + f"  return {signature.partition('(')[0]}\n"
    )
    namespace: dict = {}
    exec(compile(source, label, "exec"), namespace)
    # popped: left in the namespace that is its globals, make would be a
    # reference cycle, which only the cyclic collector frees
    return namespace.pop("make")


def _kernel_maker(code: _FlatCode):
    """Compile ``code`` as ``make(*cells)``, which gives ``kernel(y, s)``
    with the names ``c0..`` bound to the cells it is given: ``y`` holds the
    inputs' flat coefficients, ``s`` the time's, and the result is the flat
    coefficients of ``t * v`` for each output ``v``.  Kernels whose code
    differs only in their cells' values can share one maker."""
    body = [
        f"[{', '.join(code.inputs)}] = y",
        f"[{', '.join(code.scale)}] = s",
        *code.lines,
        f"return [{', '.join(code.outputs)}]",
    ]
    make = _compiled("<jet kernel>", [*_KERNEL_NAMES, *code.cells], "kernel(y, s)", body)
    return functools.partial(make, *_KERNEL_NAMES.values())
