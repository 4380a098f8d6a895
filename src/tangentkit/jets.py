"""Jet scalars: the nested dual-number tower that powers exact differentiation.

A level-1 jet carries a value and one directional derivative.  A level-k jet
carries a level-(k-1) primal and a level-(k-1) tangent, so k applications of
the tangent functor are evaluated by k nested wrappings.  All arithmetic is
exact in the sense that the derivative rules are the analytic ones; nothing
here ever falls back to finite differences.

Plain ``int``/``float`` values mix freely with jets and behave as constants
(zero derivative in every direction).

Only :func:`open_level` and :func:`close_level` open or close a perturbation
level, and only the codec beside them, :func:`flatten_levels` and
:func:`unflatten_levels`, turns towers into flat coefficient lists and back:
every other module evaluates through these and never builds or takes apart
a :class:`Jet` itself, so how a level is identified is decided here.
"""

from __future__ import annotations

import math

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
    nothing and scaling it leaves it absent, which is exactly how jet
    arithmetic treats the missing tangent of a value below the level."""

    __slots__ = ()
    __array_ufunc__ = None  # so numpy scalar + ABSENT is that numpy scalar

    def __add__(self, other):
        return other

    __radd__ = __add__

    def __rmul__(self, other):
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
    out = 1.0
    base = x
    n = k
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


def sin(x):
    if isinstance(x, Jet):
        return Jet(sin(x.primal), cos(x.primal) * x.tangent)
    return math.sin(x)


def cos(x):
    if isinstance(x, Jet):
        return Jet(cos(x.primal), -sin(x.primal) * x.tangent)
    return math.cos(x)


def exp(x):
    if isinstance(x, Jet):
        e = exp(x.primal)
        return Jet(e, e * x.tangent)
    return math.exp(x)


def ln(x):
    if primal_value(x) <= 0.0:
        raise EvaluationDomainError("ln", primal_value(x))
    if isinstance(x, Jet):
        return Jet(ln(x.primal), x.tangent / x.primal)
    return math.log(x)


def sqrt(x):
    if primal_value(x) <= 0.0:
        # sqrt(0) itself is fine as a value but not smooth there; a jet
        # evaluation would divide by zero, so the whole point is rejected.
        if primal_value(x) < 0.0 or isinstance(x, Jet):
            raise EvaluationDomainError("sqrt", primal_value(x))
        return 0.0
    if isinstance(x, Jet):
        r = sqrt(x.primal)
        return Jet(r, x.tangent / (2.0 * r))
    return math.sqrt(x)


def tanh(x):
    if isinstance(x, Jet):
        t = tanh(x.primal)
        return Jet(t, (1.0 - t * t) * x.tangent)
    return math.tanh(x)
