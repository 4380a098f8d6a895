"""Tangent-functor kernel on Euclidean spaces.

Everything here is exact: the tangent of a map is computed by evaluating its
evaluator on jet scalars (see :mod:`tangentkit.jets`), never by symbolic
rewriting or finite differences.  Coordinate conventions are fixed once and
for all; see docs/layout.md, whose numbered rules the tests cite.

The short version (layout rules 1-6):

* an element of ``T(R^n)`` is the flat vector ``(x, dx)``;
* an element of ``T^2(R^n)`` is ``(x, dx, delta_x, delta_dx)``, base pair
  first, so the canonical flip is a pure block swap;
* a trivial bundle ``R^n x R^m -> R^n`` has total-space elements ``(x, a)``
  and tangent elements ``(x, a, dx, da)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .jets import close_level, coefficients, open_level, primal_value

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
    return SmoothMap(space, space, lambda xs: list(xs), name=f"id_{space.dim}")


def pack_jets(flat: Sequence, level: int) -> list:
    """Interpret a flat T^level element as base-space jet scalars (rule 3:
    base half first, recursively)."""
    flat = list(flat)
    if level == 0:
        return flat
    half = len(flat) // 2
    base = pack_jets(flat[:half], level - 1)
    tang = pack_jets(flat[half:], level - 1)
    return open_level(base, tang)


def unpack_jets(jets: Sequence, level: int) -> list:
    """Flatten jet scalars back to the T^level layout; inverse of
    :func:`pack_jets`."""
    if level == 0:
        return list(jets)
    base, tang = close_level(jets)
    return unpack_jets(base, level - 1) + unpack_jets(tang, level - 1)


def tangent(f: SmoothMap) -> SmoothMap:
    """The tangent functor: T(f)(x, dx) = (f(x), Df(x) dx), exactly.

    Applies to maps at any level of the tower, so ``tangent(tangent(f))``
    is T^2(f) in the layout of rule 2.
    """

    n = f.domain.dim

    def ev(args):
        base, tang = args[:n], args[n:]
        primals, tangents = close_level(f.evaluator(open_level(base, tang)))
        return primals + tangents

    return SmoothMap(
        f.domain.tangent, f.codomain.tangent, ev, name=f"T({f.name or 'f'})"
    )


# -- structural transformations ------------------------------------------


def _p_map(space: Space) -> SmoothMap:
    n = space.dim
    return SmoothMap(Space(2 * n), space, lambda xs: xs[:n], name="p")


def _zero_map(space: Space) -> SmoothMap:
    n = space.dim
    return SmoothMap(space, Space(2 * n), lambda xs: list(xs) + [0.0] * n, name="zero")


def _plus_map(space: Space) -> SmoothMap:
    n = space.dim

    def ev(xs):
        x, u, w = xs[:n], xs[n : 2 * n], xs[2 * n :]
        return list(x) + [ui + wi for ui, wi in zip(u, w)]

    return SmoothMap(Space(3 * n), Space(2 * n), ev, name="plus")


def _ell_map(space: Space) -> SmoothMap:
    n = space.dim

    def ev(xs):
        x, v = xs[:n], xs[n:]
        return list(x) + [0.0] * n + [0.0] * n + list(v)

    return SmoothMap(Space(2 * n), Space(4 * n), ev, name="ell")


def _flip_map(space: Space) -> SmoothMap:
    n = space.dim

    def ev(xs):
        return xs[:n] + xs[2 * n : 3 * n] + xs[n : 2 * n] + xs[3 * n :]

    return SmoothMap(Space(4 * n), Space(4 * n), ev, name="flip")


def _neg_map(space: Space) -> SmoothMap:
    n = space.dim

    def ev(xs):
        return xs[:n] + [-v for v in xs[n:]]

    return SmoothMap(Space(2 * n), Space(2 * n), ev, name="neg")


def _hat_p_map(bundle: TrivialBundle) -> SmoothMap:
    m = bundle.fibre_dim
    return SmoothMap(Space(2 * m), Space(m), lambda xs: xs[m:], name="hat_p")


def _bundle_lift_map(bundle: TrivialBundle) -> SmoothMap:
    n, m = bundle.base_dim, bundle.fibre_dim

    def ev(xs):
        x, a = xs[:n], xs[n:]
        return list(x) + [0.0] * m + [0.0] * n + list(a)

    return SmoothMap(Space(n + m), Space(2 * (n + m)), ev, name="lift")


def _bundle_mu_map(bundle: TrivialBundle) -> SmoothMap:
    n, m = bundle.base_dim, bundle.fibre_dim

    def ev(xs):
        x, a1, a2 = xs[:n], xs[n : n + m], xs[n + m :]
        return list(x) + list(a1) + [0.0] * n + list(a2)

    return SmoothMap(Space(n + 2 * m), Space(2 * (n + m)), ev, name="mu")


_SPACE_KINDS = {
    "p": _p_map,
    "zero": _zero_map,
    "plus": _plus_map,
    "ell": _ell_map,
    "flip": _flip_map,
    "neg": _neg_map,
}

_BUNDLE_KINDS = {
    "hat_p": _hat_p_map,
    "bundle_lift": _bundle_lift_map,
    "bundle_mu": _bundle_mu_map,
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
        return _SPACE_KINDS[kind](shape)
    if kind in _BUNDLE_KINDS:
        if not isinstance(shape, TrivialBundle):
            raise ShapeError(
                f"structural map {kind!r} needs a TrivialBundle, got {shape!r}"
            )
        if kind == "hat_p" and shape.base_dim != 0:
            raise ShapeError("hat_p is only defined over a point base (base_dim 0)")
        return _BUNDLE_KINDS[kind](shape)
    raise ShapeError(f"unknown structural map kind {kind!r}")


# -- combinators -----------------------------------------------------------


def compose(f: SmoothMap, g: SmoothMap) -> SmoothMap:
    """Diagrammatic-order composite: ``compose(f, g)`` is f followed by g."""
    if f.codomain != g.domain:
        raise ShapeError(
            f"cannot compose {f.name or 'f'}: R^{f.codomain.dim} into "
            f"{g.name or 'g'}: R^{g.domain.dim}"
        )
    return SmoothMap(
        f.domain,
        g.codomain,
        lambda xs: g.evaluator(list(f.evaluator(xs))),
        name=f"{f.name or 'f'};{g.name or 'g'}",
    )


def pair(f: SmoothMap, g: SmoothMap) -> SmoothMap:
    """The pairing <f, g> into a product (f and g share a domain)."""
    if f.domain != g.domain:
        raise ShapeError("pair requires a shared domain")
    return SmoothMap(
        f.domain,
        Space(f.codomain.dim + g.codomain.dim),
        lambda xs: list(f.evaluator(list(xs))) + list(g.evaluator(list(xs))),
        name=f"<{f.name or 'f'},{g.name or 'g'}>",
    )


def product(f: SmoothMap, g: SmoothMap) -> SmoothMap:
    """f x g on concatenated inputs."""
    n1 = f.domain.dim

    def ev(xs):
        return list(f.evaluator(xs[:n1])) + list(g.evaluator(xs[n1:]))

    return SmoothMap(
        Space(f.domain.dim + g.domain.dim),
        Space(f.codomain.dim + g.codomain.dim),
        ev,
        name=f"{f.name or 'f'}x{g.name or 'g'}",
    )


def product_interleave(s1: Space, s2: Space) -> SmoothMap:
    """The canonical iso T(M1 x M2) -> TM1 x TM2 (layout rule 7):
    (x1, x2, d1, d2) -> (x1, d1, x2, d2)."""
    n1, n2 = s1.dim, s2.dim

    def ev(xs):
        return (
            xs[:n1]
            + xs[n1 + n2 : 2 * n1 + n2]
            + xs[n1 : n1 + n2]
            + xs[2 * n1 + n2 :]
        )

    return SmoothMap(
        Space(2 * (n1 + n2)), Space(2 * (n1 + n2)), ev, name="interleave"
    )


def product_interleave_inv(s1: Space, s2: Space) -> SmoothMap:
    """Inverse of :func:`product_interleave`: (x1, d1, x2, d2) -> (x1, x2, d1, d2)."""
    n1, n2 = s1.dim, s2.dim

    def ev(xs):
        return (
            xs[:n1]
            + xs[2 * n1 : 2 * n1 + n2]
            + xs[n1 : 2 * n1]
            + xs[2 * n1 + n2 :]
        )

    return SmoothMap(
        Space(2 * (n1 + n2)), Space(2 * (n1 + n2)), ev, name="interleave_inv"
    )


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
