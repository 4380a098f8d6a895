"""Tangent-functor kernel on Euclidean spaces.

Everything here is exact: the tangent of a map is computed by evaluating its
evaluator on jet scalars (see :mod:`tangentkit.jets`), or the same jet
arithmetic written out as a flat kernel, never by symbolic rewriting or
finite differences.  Coordinate conventions are fixed once and
for all; see docs/layout.md, whose numbered rules the tests cite.

The short version (layout rules 1-6):

* an element of ``T(R^n)`` is the flat vector ``(x, dx)``;
* an element of ``T^2(R^n)`` is ``(x, dx, delta_x, delta_dx)``, base pair
  first, so the canonical flip is a pure block swap;
* a trivial bundle ``R^n x R^m -> R^n`` has total-space elements ``(x, a)``
  and tangent elements ``(x, a, dx, da)``.

Every structural map except ``plus`` and ``neg`` only moves coordinate
blocks and inserts zero blocks, so each is written as its block layout, one
table that mirrors rule 8 (with rules 5 and 7), and built by ``_block_map``.
A block layout already is straight-line code, so each such map also carries
a flat kernel (:class:`jets._FlatWriter`), which the solver runs in place of
the jet codec when the map is a field: the scaling field behind ``e``, the
multiplication and the action, and the library's constant and identity
fields, are block maps.

How a map is built decides whether it carries flat kernels: a dsl field, a
block map (the identity among them), a linear field, and ``compose``,
``pair``, ``product`` and ``tangent`` of maps that carry them.  On float
arguments ``tangent(f)`` of such an ``f`` runs ``f``'s kernel one level deep
at unit time in place of opening a level, evaluating on jets and closing
it, with the same bits.  Every other evaluator (a hand-written one, a
wrapper, :func:`vertical_bracket`, whose verticality check is a boundary)
and every other argument (an int, a numpy scalar, a jet) takes the jet
path.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .jets import (
    ABSENT,
    _FlatWriter,
    _kernel_maker,
    close_level,
    coefficients,
    flatten_levels,
    open_level,
    primal_value,
)

__all__ = [
    "Space",
    "SmoothMap",
    "TrivialBundle",
    "ShapeError",
    "VerticalityViolation",
    "identity_map",
    "tangent",
    "structural_map",
    "compose",
    "pair",
    "product",
    "vertical_bracket",
    "product_interleave",
    "product_interleave_inv",
    "pack_jets",
    "unpack_jets",
    "VERTICALITY_TOL",
]

# Default absolute tolerance (inf-norm) for the verticality precondition of
# the bracket; the identities it guards are exact in theory but routed
# through numerics in practice.
VERTICALITY_TOL = 1e-9


class ShapeError(ValueError):
    """Domain/codomain dimensions do not line up."""


class VerticalityViolation(ValueError):
    """The bracket was applied to a map whose base direction does not vanish."""

    def __init__(self, point, residual: float):
        self.point = point
        self.residual = residual
        super().__init__(
            f"bracket applied to a non-vertical value: residual {residual:.3e} at {point}"
        )


@dataclass(frozen=True)
class Space:
    """Euclidean space R^dim."""

    dim: int

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError("dimension must be nonnegative")

    @property
    def tangent(self) -> "Space":
        return Space(2 * self.dim)

    def tangent_power(self, k: int) -> "Space":
        return Space(self.dim * (2**k))


@dataclass(frozen=True)
class TrivialBundle:
    """Trivial bundle R^base_dim x R^fibre_dim -> R^base_dim.

    With ``base_dim == 0`` this is a differential object; ``hat_p`` is only
    available in that case.
    """

    base_dim: int
    fibre_dim: int

    def __post_init__(self):
        if self.base_dim < 0 or self.fibre_dim < 0:
            raise ValueError("bundle dimensions must be nonnegative")

    @property
    def total(self) -> Space:
        return Space(self.base_dim + self.fibre_dim)

    @property
    def base(self) -> Space:
        return Space(self.base_dim)


@dataclass(frozen=True)
class SmoothMap:
    """A map R^n -> R^m whose evaluator is polymorphic over the jet tower.

    The evaluator must be pure and must treat its inputs uniformly: feeding
    jet scalars of any level yields the same computation carried out one
    derivative deeper.  That property is what makes ``tangent`` exact.
    """

    domain: Space
    codomain: Space
    evaluator: Callable[[list], list] = field(repr=False)
    name: str = ""

    def __call__(self, xs: Sequence) -> list:
        xs = list(xs)
        if len(xs) != self.domain.dim:
            raise ShapeError(
                f"{self.name or 'map'} expected {self.domain.dim} inputs, got {len(xs)}"
            )
        out = list(self.evaluator(xs))
        if len(out) != self.codomain.dim:
            raise ShapeError(
                f"{self.name or 'map'} produced {len(out)} outputs, expected {self.codomain.dim}"
            )
        return out


def identity_map(space: Space) -> SmoothMap:
    return _block_map(f"id_{space.dim}", (space.dim,), (0,))


def _check_level(level) -> None:
    if isinstance(level, bool) or not isinstance(level, int):
        raise TypeError(f"a jet level is an int, got {level!r}")
    if level < 0:
        raise ValueError(f"a jet level is nonnegative, got {level}")


def pack_jets(flat: Sequence, level: int) -> list:
    """Interpret a flat T^level element as base-space jet scalars (rule 3:
    base half first, recursively).  A length that is not a multiple of
    ``2**level`` is a ShapeError."""
    flat = list(flat)
    _check_level(level)
    if len(flat) % 2**level:
        raise ShapeError(
            f"a T^{level} element has a multiple of {2**level} entries, got {len(flat)}"
        )
    if level == 0:
        return flat
    half = len(flat) // 2
    base = pack_jets(flat[:half], level - 1)
    tang = pack_jets(flat[half:], level - 1)
    return open_level(base, tang)


def unpack_jets(jets: Sequence, level: int) -> list:
    """Flatten jet scalars back to the T^level layout; inverse of
    :func:`pack_jets`."""
    _check_level(level)
    if level == 0:
        return list(jets)
    base, tang = close_level(jets)
    return unpack_jets(base, level - 1) + unpack_jets(tang, level - 1)


def tangent(f: SmoothMap) -> SmoothMap:
    """The tangent functor: T(f)(x, dx) = (f(x), Df(x) dx), exactly.

    Applies to maps at any level of the tower, so ``tangent(tangent(f))``
    is T^2(f) in the layout of rule 2.

    When every argument is a float and ``f`` carries flat kernels, T(f) runs
    ``f``'s kernel at depth 1 and unit time (:func:`_opened`), which gives
    the bits of the jet path below: opening a level, evaluating ``f`` on
    jets and closing the level.  T(f) of such an ``f`` carries kernels too:
    at depth d, ``f``'s at depth d + 1 and unit time, then scaled at depth d
    by the identity layout's.  T's level is the outermost of ``f``'s d + 1,
    so T's arguments flatten to ``f``'s inputs and ``f``'s values to T's
    values, in the same order; the time never enters ``f``, whose levels
    other than T's are the solve's.
    """

    n, m = f.domain.dim, f.codomain.dim
    kernels = _kernels(f)

    def ev(args):
        if kernels is not None and all(a.__class__ is float for a in args):
            kernel = _flat_kernel(f, 1)
            if kernel is not None:
                return _opened(kernel, args, m, _UNIT_1)
        base, tang = args[:n], args[n:]
        primals, tangents = close_level(f.evaluator(open_level(base, tang)))
        return primals + tangents

    if kernels is not None:

        def write(depth):
            kernel, unit = kernels(depth + 1), _unit(depth + 1)
            scale = _block_kernel((0, 2 * m), (0,), depth)()
            return lambda y, s: scale(_opened(kernel, y, m, unit), s)

        _carry_kernels(ev, write)
    return SmoothMap(
        f.domain.tangent, f.codomain.tangent, ev, name=f"T({f.name or 'f'})"
    )


def _kernels(f: SmoothMap):
    """``f``'s ``flat_kernel(depth)``, or None."""
    return getattr(f.evaluator, "flat_kernel", None)


def _flat_kernel(f: SmoothMap, depth: int):
    """``f``'s flat kernel at ``depth``, or None when its evaluator carries
    none: the one lookup of :func:`tangent` on floats (and, under its own
    name, of the solver, :func:`dynamics._trajectory`)."""
    kernels = _kernels(f)
    return kernels(depth) if kernels is not None else None


def _carry_kernels(ev, write):
    """``ev`` carrying ``flat_kernel(depth)``: ``write(depth)``, written on
    first use and kept, one per depth."""
    kernels: dict = {}

    def flat_kernel(depth: int):
        kernel = kernels.get(depth)
        if kernel is None:
            kernel = kernels[depth] = write(depth)
        return kernel

    ev.flat_kernel = flat_kernel


def _unit(depth: int) -> tuple:
    """The flat coefficients of the unit time at ``depth``: the int 1, whose
    products keep every bit of a float (-0.0, inf and nan among them) and
    leave an int an int, as the jet path does, where 1.0 would turn it into
    a float one step early.  Each kernel that runs a part at unit time
    takes it once, when it is written."""
    return tuple(flatten_levels([1], depth))


_UNIT_1 = _unit(1)


def _opened(kernel, y: list, m: int, unit: tuple) -> list:
    """The ``m`` values of ``kernel`` at the unit time ``unit``, whose
    outermost level was opened by :func:`tangent`, with that level closed:
    each value's coefficient of T's direction is absent only where the
    value is a constant there, which :func:`jets.close_level` splits as
    ``(v, 0.0)``."""
    out = kernel(y, unit)
    out[m : 2 * m] = [0.0 if c is ABSENT else c for c in out[m : 2 * m]]
    return out


# -- structural transformations ------------------------------------------


def _block_map(name: str, sizes: Sequence[int], layout: Sequence) -> SmoothMap:
    """A map that splits its input into blocks of the given ``sizes`` and
    concatenates the ``layout``: an int is that input block, a list of
    floats (a constant block) is inserted as it stands.  A layout of one
    input block returns that slice of the input.

    The evaluator carries ``flat_kernel(depth)``, which the solver and
    :func:`tangent` look up: the flat kernel of ``t * v`` for each value
    ``v`` at jet depth ``depth`` (see :func:`_block_kernel`), with this
    map's constants bound."""
    starts = (0, *itertools.accumulate(sizes))
    pieces = [
        slice(starts[b], starts[b + 1]) if isinstance(b, int) else b for b in layout
    ]
    out_dim = sum(sizes[b] if isinstance(b, int) else len(b) for b in layout)

    if len(pieces) == 1 and isinstance(pieces[0], slice):
        (only,) = pieces

        def ev(xs):
            return xs[only]

    else:

        def ev(xs):
            out = []
            for piece in pieces:
                out += xs[piece] if piece.__class__ is slice else piece
            return out

    key = tuple(b if isinstance(b, int) else tuple(b) for b in layout)
    constants = [c for b in key if not isinstance(b, int) for c in b]
    ev.flat_kernel = lambda depth: _block_kernel(starts, key, depth)(*constants)
    return SmoothMap(Space(starts[-1]), Space(out_dim), ev, name=name)


@functools.lru_cache(maxsize=64)
def _block_kernel(starts: tuple, layout: tuple, depth: int):
    """The maker (:func:`jets._kernel_maker`) of a block layout's flat
    kernel at ``depth``, written by :class:`jets._FlatWriter`: an input
    block is its coefficients' names and a constant a cell without
    tangents, so the kernel runs nothing but the writer's ``t * v`` for
    each value ``v``.

    Kept by value, as ``zero_field``, ``euler_space_field`` and ``eta``
    build a new map on every call, and :func:`tangent` scales its values by
    the identity layout's kernel.  The code reads the layout's shape only
    and each map binds its own constants, so layouts whose constants
    compare equal but differ (0.0 and -0.0) share the code, not the bits.

    The kernel carries no ``code``, so the solver calls it at each stage
    rather than writing it into a fused loop of its own: inlined, its few
    products would save little, and each fused loop is one more compile
    (for a 20-entry state it peaks at about 2.1 MB under tracemalloc,
    against 1.8 MB for the unfused loop that every field of that size
    shares).
    """
    writer = _FlatWriter(depth, [f"x{i}" for i in range(starts[-1])])
    constants = [c for b in layout if not isinstance(b, int) for c in b]
    cells = (f"c{k}" for k in range(len(constants)))
    values = []
    for b in layout:
        if isinstance(b, int):
            values += writer.inputs[starts[b] : starts[b + 1]]
        else:
            values += [writer.constant(next(cells)) for _ in b]
    return _kernel_maker(writer.code(values, constants))


def _plus_map(n: int) -> SmoothMap:
    def ev(xs):
        x, u, w = xs[:n], xs[n : 2 * n], xs[2 * n :]
        return list(x) + [ui + wi for ui, wi in zip(u, w)]

    return SmoothMap(Space(3 * n), Space(2 * n), ev, name="plus")


def _neg_map(n: int) -> SmoothMap:
    def ev(xs):
        return xs[:n] + [-v for v in xs[n:]]

    return SmoothMap(Space(2 * n), Space(2 * n), ev, name="neg")


# Layout rules 5 and 8 as data: every structural map but plus and neg only
# moves blocks of its input and inserts zero blocks.
_SPACE_KINDS = {
    "p": lambda n: _block_map("p", (n, n), (0,)),
    "zero": lambda n: _block_map("zero", (n,), (0, [0.0] * n)),
    "plus": _plus_map,
    "ell": lambda n: _block_map("ell", (n, n), (0, [0.0] * n, [0.0] * n, 1)),
    "flip": lambda n: _block_map("flip", (n, n, n, n), (0, 2, 1, 3)),
    "neg": _neg_map,
}

_BUNDLE_KINDS = {
    "hat_p": lambda n, m: _block_map("hat_p", (m, m), (1,)),
    "bundle_lift": lambda n, m: _block_map("lift", (n, m), (0, [0.0] * m, [0.0] * n, 1)),
    "bundle_mu": lambda n, m: _block_map("mu", (n, m, m), (0, 1, [0.0] * n, 2)),
}


def structural_map(kind: str, shape) -> SmoothMap:
    """Structural transformations in the fixed coordinate layout.

    ``p``, ``zero``, ``plus``, ``ell``, ``flip``, ``neg`` take a
    :class:`Space`; ``hat_p``, ``bundle_lift``, ``bundle_mu`` take a
    :class:`TrivialBundle` (``hat_p`` additionally requires base dimension
    zero, i.e. a differential object).
    """

    if kind in _SPACE_KINDS:
        if not isinstance(shape, Space):
            raise ShapeError(f"structural map {kind!r} needs a Space, got {shape!r}")
        return _SPACE_KINDS[kind](shape.dim)
    if kind in _BUNDLE_KINDS:
        if not isinstance(shape, TrivialBundle):
            raise ShapeError(
                f"structural map {kind!r} needs a TrivialBundle, got {shape!r}"
            )
        if kind == "hat_p" and shape.base_dim != 0:
            raise ShapeError("hat_p is only defined over a point base (base_dim 0)")
        return _BUNDLE_KINDS[kind](shape.base_dim, shape.fibre_dim)
    raise ShapeError(f"unknown structural map kind {kind!r}")


# -- combinators -----------------------------------------------------------


def compose(f: SmoothMap, g: SmoothMap) -> SmoothMap:
    """Diagrammatic-order composite: ``compose(f, g)`` is f followed by g.

    Of maps that carry flat kernels: at each depth, ``g``'s kernel on ``f``'s
    at unit time, so the time scales once, in ``g``."""
    if f.codomain != g.domain:
        raise ShapeError(
            f"cannot compose {f.name or 'f'}: R^{f.codomain.dim} into "
            f"{g.name or 'g'}: R^{g.domain.dim}"
        )

    def ev(xs):
        return g.evaluator(list(f.evaluator(xs)))

    first, then = _kernels(f), _kernels(g)
    if first and then:

        def write(depth):
            inner, outer, unit = first(depth), then(depth), _unit(depth)
            return lambda y, s: outer(inner(y, unit), s)

        _carry_kernels(ev, write)
    return SmoothMap(f.domain, g.codomain, ev, name=f"{f.name or 'f'};{g.name or 'g'}")


def pair(f: SmoothMap, g: SmoothMap) -> SmoothMap:
    """The pairing <f, g> into a product (f and g share a domain).

    Of maps that carry flat kernels: at each depth, both kernels, their
    values joined level block by level block."""
    if f.domain != g.domain:
        raise ShapeError("pair requires a shared domain")

    def ev(xs):
        return list(f.evaluator(list(xs))) + list(g.evaluator(list(xs)))

    left, right = _kernels(f), _kernels(g)
    if left and right:
        m1, m2 = f.codomain.dim, g.codomain.dim

        def write(depth):
            a, b = left(depth), right(depth)
            cuts = [
                (slice(k * m1, (k + 1) * m1), slice(k * m2, (k + 1) * m2))
                for k in range(2**depth)
            ]

            def kernel(y, s):
                u, v, out = a(y, s), b(y, s), []
                for cu, cv in cuts:
                    out += u[cu]
                    out += v[cv]
                return out

            return kernel

        _carry_kernels(ev, write)
    return SmoothMap(
        f.domain,
        Space(f.codomain.dim + g.codomain.dim),
        ev,
        name=f"<{f.name or 'f'},{g.name or 'g'}>",
    )


def product(f: SmoothMap, g: SmoothMap) -> SmoothMap:
    """f x g on concatenated inputs.

    Of maps that carry flat kernels: the kernels of ``<p1; f, p2; g>``, with
    ``p1`` and ``p2`` the block projections onto the two inputs."""
    n1, n2 = f.domain.dim, g.domain.dim

    def ev(xs):
        return list(f.evaluator(xs[:n1])) + list(g.evaluator(xs[n1:]))

    if _kernels(f) and _kernels(g):
        first = compose(_block_map("p1", (n1, n2), (0,)), f)
        second = compose(_block_map("p2", (n1, n2), (1,)), g)
        ev.flat_kernel = _kernels(pair(first, second))
    return SmoothMap(
        Space(n1 + n2),
        Space(f.codomain.dim + g.codomain.dim),
        ev,
        name=f"{f.name or 'f'}x{g.name or 'g'}",
    )


def product_interleave(s1: Space, s2: Space) -> SmoothMap:
    """The canonical iso T(M1 x M2) -> TM1 x TM2 (layout rule 7):
    (x1, x2, d1, d2) -> (x1, d1, x2, d2)."""
    n1, n2 = s1.dim, s2.dim
    return _block_map("interleave", (n1, n2, n1, n2), (0, 2, 1, 3))


def product_interleave_inv(s1: Space, s2: Space) -> SmoothMap:
    """Inverse of :func:`product_interleave`: (x1, d1, x2, d2) -> (x1, x2, d1, d2)."""
    n1, n2 = s1.dim, s2.dim
    return _block_map("interleave_inv", (n1, n1, n2, n2), (0, 2, 1, 3))


def vertical_bracket(
    f: SmoothMap, bundle: TrivialBundle, tol: float = VERTICALITY_TOL
) -> SmoothMap:
    """Extract the vertical component of a map into a tangent space.

    ``f`` must land in ``T(total)`` for the given bundle and be vertical:
    the base-direction block of every value must vanish (inf-norm <= tol,
    over all jet coefficients).  For a value with point ``(x, a)`` and
    direction ``(0, w)`` the result is ``(x, w)``.  The tangent-bundle case
    is the bundle ``TM -> M``, i.e. ``TrivialBundle(n, n)``.
    """

    n, m = bundle.base_dim, bundle.fibre_dim
    if f.codomain.dim != 2 * (n + m):
        raise ShapeError(
            f"bracket source must land in R^{2 * (n + m)}, got R^{f.codomain.dim}"
        )

    def ev(xs):
        ys = f.evaluator(list(xs))
        x = ys[:n]
        dx = ys[n + m : 2 * n + m]
        da = ys[2 * n + m :]
        # NaN sticks, as in fields.gap: a NaN direction is not vertical
        coeffs = [abs(c) for v in dx for c in coefficients(v)]
        residual = math.nan if any(c != c for c in coeffs) else max(coeffs, default=0.0)
        if not residual <= tol:
            raise VerticalityViolation([primal_value(v) for v in xs], residual)
        return list(x) + list(da)

    return SmoothMap(f.domain, Space(n + m), ev, name=f"{{{f.name or 'f'}}}")
