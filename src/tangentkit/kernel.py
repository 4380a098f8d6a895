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

Every structural map moves coordinate blocks, inserts zero blocks, or adds
(``plus``) or negates (``neg``) blocks entry by entry, so each is written as
its block layout, one table that mirrors rule 8 (with rules 5 and 7), and
built by ``_block_map``.  The layout is the map's one description: a call
evaluates it in jet arithmetic and the writer (:class:`jets._FlatWriter`)
runs it as a flat kernel, which the solver runs in place of the jet codec
when the map is a field: the
scaling field behind ``e``, the multiplication and the action, and the
library's constant and identity fields, are block maps.

How a map is built decides whether it carries flat kernels: a dsl field, a
block map (the identity, ``plus`` and ``neg`` among them), a linear field,
and ``compose``, ``pair``, ``product``, ``tangent`` and
:func:`vertical_bracket` of maps that carry them (and so the Lie bracket of
such fields and :mod:`dynamics`' geodesic field of such a Christoffel map).
Each such map carries a rule (:class:`_Rule`), which writes its values in
the writer's arithmetic from its inputs' coefficient names; a composite's
rule runs its parts' rules in turn, ``tangent``'s one level deeper, and
``vertical_bracket``'s writes its verticality check as one guard statement
after its map's values.  So a composite's kernel at each depth is one
straight-line function of the whole tree, written in one writer pass and
compiled once per structure and depth (:func:`_maker`), and a call of such a
composite, or of a dsl field, whose arguments are all floats runs its
depth-0 kernel at unit time (:func:`_ruled`) in place of evaluating the
parts (in ``tangent``, opening a level, evaluating on jets and closing it;
in a dsl field, walking its nodes in jet arithmetic), with the same bits
and the same errors.  Every other evaluator (a hand-written one, a wrapper,
the tangent of an integrator flow) and every other argument (an int, a
numpy scalar, a jet) takes the parts' path; a block map always evaluates
its layout.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .jets import (
    _ARITHMETIC,
    VerticalityViolation,
    _FlatCode,
    _FlatWriter,
    _interleave,
    _kernel_maker,
    _vertical,
    close_level,
    coefficients,
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

    Of an ``f`` that carries a rule, T(f) carries one too: ``f``'s rule one
    level deeper.  T's level is the outermost of ``f``'s, so each of
    ``f``'s inputs is T's base and direction inputs interleaved, and each
    of ``f``'s values splits into its even coefficients (the primal) and
    its odd ones (the direction), whose first coefficient, where it is
    absent, is the 0.0 that :func:`jets.close_level` fills in.  On float
    arguments T(f) then runs its depth-0 kernel, which gives the bits of
    the jet path below: opening a level, evaluating ``f`` on jets and
    closing the level.
    """

    n = f.domain.dim

    def ev(args):
        base, tang = args[:n], args[n:]
        primals, tangents = close_level(f.evaluator(open_level(base, tang)))
        return primals + tangents

    def write(inner, w, ins, size, cells):
        opened = [_interleave(ins[i], ins[n + i]) for i in range(n)]
        values = inner.write(w, opened, 2 * size, cells)
        # a direction's first coefficient reads only the innermost primals
        # of T's inputs, so it is absent exactly when it is absent as the
        # code is written: there close_level's 0.0
        return [v[0::2] for v in values] + [[v[1] or "0.0", *v[3::2]] for v in values]

    name = f"T({f.name or 'f'})"
    return _composite(f.domain.tangent, f.codomain.tangent, ev, name, "T", (f,), write)


@dataclass(frozen=True)
class _Rule:
    """How a map that carries flat kernels writes its values in
    :class:`jets._FlatWriter` arithmetic.  ``write(w, ins, size, cells)``
    returns the coefficient names of the map's values.  ``ins`` holds the
    names of the map's ``arity`` inputs, and ``size`` is the number of
    coefficients of each value: each rule is told its depth, as a composite
    writes :func:`tangent`'s part one level deeper than itself.  The rule
    reads its ``cells``, the map's constants, from names it takes in turn
    from the iterator ``cells``.

    ``key`` determines the code ``write`` writes exactly: the map's kind,
    its parts' keys and every shape it reads.  A rule compares and hashes
    by its key alone, so maps of one key share one maker (:func:`_maker_of`)
    and each binds its own cells: constants that compare equal but differ
    (0.0 and -0.0) keep their bits."""

    key: tuple
    arity: int = field(compare=False)
    write: Callable = field(compare=False, repr=False)
    cells: tuple = field(compare=False, repr=False)


def _rule(f: SmoothMap):
    """``f``'s :class:`_Rule`, or None."""
    return getattr(f.evaluator, "rule", None)


def _kernels(f: SmoothMap):
    """``f``'s ``flat_kernel(depth)``, or None."""
    return getattr(f.evaluator, "flat_kernel", None)


def _flat_kernel(f: SmoothMap, depth: int):
    """``f``'s flat kernel at ``depth``, or None when its evaluator carries
    none: the one lookup of a float call of a dsl field and of every
    composite (:func:`_ruled`; and, under its own name, of the solver,
    :func:`dynamics._trajectory`).  With it returning None every float call
    evaluates its parts, ``tangent`` on jets and a dsl field by walking its
    nodes in jet arithmetic."""
    kernels = _kernels(f)
    return kernels(depth) if kernels is not None else None


def _code(rule: _Rule, depth: int) -> _FlatCode:
    """The code of ``t * v`` for each of ``rule``'s values ``v`` at jet
    depth ``depth``: one :class:`jets._FlatWriter` pass, in which the parts
    of a composite write their values in turn, with no time between them."""
    w = _FlatWriter(depth, [f"x{i}" for i in range(rule.arity)])
    cells = tuple(f"c{k}" for k in range(len(rule.cells)))
    return w.code(rule.write(w, w.inputs, 2**depth, iter(cells)), cells)


# run_suite("all") compiles makers for 85 keys and depths, the same 85 at
# seeds 3, 1729 and 7 (62 compose, 5 T, 4 geodesic, 1 pair, 1 linear and 12
# block, all at depth 0 but the solves' block maps at depths 1 and 2 and
# geodesic fields at depth 1); no cli workload command compiles more than
# 14, and `cli geodesic` compiles 1.
@functools.lru_cache(maxsize=128)
def _maker(key: tuple, depth: int) -> list:
    """The slot of the maker of the kernel at ``depth`` of the rules keyed
    ``key`` and of its code, which :func:`_maker_of` fills on first use:
    ``zero_field``, ``euler_space_field`` and the law suites build new maps
    of a few shapes on every call, and the code reads the key only.  The
    memo holds keys, not rules, so it keeps no rule's tree of parts and
    cells alive."""
    return []


def _maker_of(rule: _Rule, depth: int, coded: bool = False) -> list:
    """``[make, code]``: the maker (:func:`jets._kernel_maker`) of ``rule``'s
    kernel at ``depth`` and, for the ``coded`` rules of dsl fields, the code
    (:class:`jets._FlatCode`) it compiled, else None, kept by key and depth
    (:func:`_maker`), so the writer runs once per key and depth.  Only dsl
    fields read it again: kept for every key, the codes of a
    ``run_suite("all")`` pass held about 190 KB, and raised the verify
    workload's peak resident size by about 0.09 MB.

    Only a dsl field's kernel carries its code (:func:`dsl.compile_spec`);
    every other kernel the solver calls at each stage rather than writing
    it into a fused loop of its own: inlined, the few
    products of a block map would save little, and each fused loop is one
    more compile (for a 20-entry state it peaks at about 2.1 MB under
    tracemalloc, against 1.8 MB for the unfused loop that every field of
    that size shares)."""
    slot = _maker(rule.key, depth)
    if not slot:
        code = _code(rule, depth)
        slot += (_kernel_maker(code), code if coded else None)
    return slot


def _carry_rule(ev, rule: _Rule, make=None):
    """``ev`` carrying ``rule`` and ``flat_kernel(depth)``: ``make(depth)``,
    by default :func:`_maker_of`'s kernel with ``rule``'s cells bound, written
    on first use and kept, one per depth."""
    kernels: dict = {}

    def flat_kernel(depth: int):
        kernel = kernels.get(depth)
        if kernel is None:
            kernel = make(depth) if make else _maker_of(rule, depth)[0](*rule.cells)
            kernels[depth] = kernel
        return kernel

    ev.rule = rule
    ev.flat_kernel = flat_kernel


# The time 1 at depth 0, flatten_levels([1], 0): the int 1, whose products
# keep every bit of a float (-0.0, inf and nan among them) and leave an int
# an int, as the parts do.
_UNIT = (1,)


def _composite(
    domain: Space,
    codomain: Space,
    parts,
    name: str,
    kind: str,
    maps,
    write,
    shape: tuple = (),
    cells: tuple = (),
) -> SmoothMap:
    """The map that evaluates ``parts``, built of ``maps``.  When each of
    them carries a rule, it carries one too, keyed by ``kind``, the
    ``shape`` its ``write`` reads and their keys, that writes ``write(*their
    rules, w, ins, size, cells)`` on their cells in turn and then its own
    ``cells``; and a call whose arguments are all floats runs its depth-0
    kernel at unit time (:func:`_ruled`), one straight-line function for
    the whole composite.  The one builder of a
    map written from other maps' rules: the combinators and
    :func:`vertical_bracket` here, :func:`fields.lie_bracket`'s difference
    and :func:`dynamics._geodesic_field`."""
    rules = [_rule(f) for f in maps]
    if not all(rules):
        return SmoothMap(domain, codomain, parts, name=name)
    # one part's cells are shared, two are concatenated: a tuple built from
    # a generator grows by reallocation, and built so for every composite
    # it raised the resident size after 60 `verify` passes by about 0.3 MB
    cells = functools.reduce(operator.add, [*(rule.cells for rule in rules), cells])
    key = (kind, *shape, *(rule.key for rule in rules))
    rule = _Rule(key, domain.dim, functools.partial(write, *rules), cells)
    return _ruled(domain, codomain, parts, rule, name)


def _ruled(domain: Space, codomain: Space, parts, rule: _Rule, name: str, make=None):
    """The map that evaluates ``parts`` and carries ``rule`` (with
    :func:`_carry_rule`'s ``make``), whose call on all floats runs its
    depth-0 kernel at unit time, looked up through :func:`_flat_kernel`:
    the float call of every composite (:func:`_composite`) and of a dsl
    field (:func:`dsl.compile_spec`)."""
    # the lookup is given the map evaluated by its parts, which carries the
    # same kernels: given the map itself, ev would hold it in a reference
    # cycle, which only the cyclic collector frees
    _carry_rule(parts, rule, make)
    by_parts = SmoothMap(domain, codomain, parts, name=name)

    def ev(xs):
        if all(a.__class__ is float for a in xs):
            kernel = _flat_kernel(by_parts, 0)
            if kernel is not None:
                return kernel(xs, _UNIT)
        return parts(xs)

    ev.rule, ev.flat_kernel = rule, parts.flat_kernel
    return SmoothMap(domain, codomain, ev, name=name)


# -- structural transformations ------------------------------------------


def _block_map(name: str, sizes: Sequence[int], layout: Sequence) -> SmoothMap:
    """A map that splits its input into blocks of the given ``sizes`` and
    concatenates the ``layout``: an int is that input block, a list of
    floats (a constant block) is inserted as it stands, and a tuple
    ``(op, b, ...)`` is ``op`` (``"add"`` or ``"neg"``) of the input blocks
    ``b, ...``, entry by entry.

    The layout is its rule: each value is an input, a constant, or ``op``
    of inputs, one comprehension over ``sources`` (:func:`_blocks`) that
    calls evaluate in jet arithmetic and the writer runs in its own, so its
    kernel runs little but the writer's ``t * v`` for each value ``v``.
    The key is the layout's shape, and each map binds its own constants."""
    starts = (0, *itertools.accumulate(sizes))
    blocks = [range(a, z) for a, z in zip(starts, starts[1:])]

    def reads(b):
        """What each value of ``b`` reads: an input, None for a constant, or
        ``(op, input, ...)``.  Not recursive: a nested function that calls
        itself is a reference cycle, which only the cyclic collector frees."""
        if isinstance(b, int):
            return blocks[b]
        if isinstance(b, list):
            return [None] * len(b)
        return [(b[0], *inputs) for inputs in zip(*[blocks[k] for k in b[1:]])]

    sources = tuple(i for b in layout for i in reads(b))
    constants = tuple(c for b in layout if isinstance(b, list) for c in b)

    def ev(xs):
        return _blocks(sources, xs, iter(constants).__next__, _ARITHMETIC)

    def write(w, ins, size, cells):
        return _blocks(sources, ins, lambda: w.constant(next(cells), size), w)

    _carry_rule(ev, _Rule(("block", starts[-1], sources), starts[-1], write, constants))
    return SmoothMap(Space(starts[-1]), Space(len(sources)), ev, name=name)


def _blocks(sources: tuple, ins, constant, arithmetic) -> list:
    """A block map's values in ``arithmetic`` (:data:`jets._ARITHMETIC` or a
    :class:`jets._FlatWriter`): for each source an input of ``ins``, the
    next ``constant()``, or the arithmetic's ``op`` of inputs."""
    return [
        ins[i] if i.__class__ is int
        else constant() if i is None
        else getattr(arithmetic, i[0])(*[ins[k] for k in i[1:]])
        for i in sources
    ]


# Layout rules 5 and 8 as data: every structural map moves blocks of its
# input, inserts zero blocks, or adds or negates blocks entry by entry.
_SPACE_KINDS = {
    "p": lambda n: _block_map("p", (n, n), (0,)),
    "zero": lambda n: _block_map("zero", (n,), (0, [0.0] * n)),
    "plus": lambda n: _block_map("plus", (n, n, n), (0, ("add", 1, 2))),
    "ell": lambda n: _block_map("ell", (n, n), (0, [0.0] * n, [0.0] * n, 1)),
    "flip": lambda n: _block_map("flip", (n, n, n, n), (0, 2, 1, 3)),
    "neg": lambda n: _block_map("neg", (n, n), (0, ("neg", 1))),
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

    Of maps that carry rules: ``g``'s rule on ``f``'s values, so each
    depth's kernel is one straight-line function of both, which float
    calls run."""
    if f.codomain != g.domain:
        raise ShapeError(
            f"cannot compose {f.name or 'f'}: R^{f.codomain.dim} into "
            f"{g.name or 'g'}: R^{g.domain.dim}"
        )

    def ev(xs):
        return g.evaluator(list(f.evaluator(xs)))

    def write(first, then, w, ins, size, cells):
        return then.write(w, first.write(w, ins, size, cells), size, cells)

    name = f"{f.name or 'f'};{g.name or 'g'}"
    return _composite(f.domain, g.codomain, ev, name, "compose", (f, g), write)


def pair(f: SmoothMap, g: SmoothMap) -> SmoothMap:
    """The pairing <f, g> into a product (f and g share a domain).

    Of maps that carry rules: both rules on the same inputs, in one
    straight-line kernel per depth, which float calls run."""
    if f.domain != g.domain:
        raise ShapeError("pair requires a shared domain")

    def ev(xs):
        return list(f.evaluator(list(xs))) + list(g.evaluator(list(xs)))

    def write(left, right, w, ins, size, cells):
        return left.write(w, ins, size, cells) + right.write(w, ins, size, cells)

    name = f"<{f.name or 'f'},{g.name or 'g'}>"
    codomain = Space(f.codomain.dim + g.codomain.dim)
    return _composite(f.domain, codomain, ev, name, "pair", (f, g), write)


def product(f: SmoothMap, g: SmoothMap) -> SmoothMap:
    """f x g on concatenated inputs.

    Of maps that carry rules: each rule on its slice of the inputs, in one
    straight-line kernel per depth, which float calls run."""
    n1, n2 = f.domain.dim, g.domain.dim

    def ev(xs):
        return list(f.evaluator(xs[:n1])) + list(g.evaluator(xs[n1:]))

    def write(left, right, w, ins, size, cells):
        return left.write(w, ins[:n1], size, cells) + right.write(w, ins[n1:], size, cells)

    name = f"{f.name or 'f'}x{g.name or 'g'}"
    domain, codomain = Space(n1 + n2), Space(f.codomain.dim + g.codomain.dim)
    return _composite(domain, codomain, ev, name, "product", (f, g), write)


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
    over all jet coefficients), or :class:`VerticalityViolation` names the
    inputs' primals and the residual.  For a value with point ``(x, a)``
    and direction ``(0, w)`` the result is ``(x, w)``.  The tangent-bundle
    case is the bundle ``TM -> M``, i.e. ``TrivialBundle(n, n)``.

    Of an ``f`` that carries a rule the result carries one too, keyed by
    ``n``, ``m`` and ``f``'s key, with ``tol`` as a cell: ``f``'s values,
    then one guard statement that runs the same check (:func:`jets._vertical`)
    on the coefficients of the base-direction block, so the check runs
    inside every kernel of a composite built on it, at every depth and
    before the time scales the values.
    """

    n, m = bundle.base_dim, bundle.fibre_dim
    if f.codomain.dim != 2 * (n + m):
        raise ShapeError(
            f"bracket source must land in R^{2 * (n + m)}, got R^{f.codomain.dim}"
        )

    def ev(xs):
        ys = f.evaluator(list(xs))
        dx = ys[n + m : 2 * n + m]
        _vertical(
            [c for v in dx for c in coefficients(v)], [primal_value(v) for v in xs], tol
        )
        return list(ys[:n]) + list(ys[2 * n + m :])

    def write(inner, w, ins, size, cells):
        ys = inner.write(w, ins, size, cells)
        dx = [c for v in ys[n + m : 2 * n + m] for c in v if c is not None]
        point = [v[0] for v in ins]
        w.lines.append(f"vertical([{', '.join(dx)}], [{', '.join(point)}], {next(cells)})")
        return ys[:n] + ys[2 * n + m :]

    name = f"{{{f.name or 'f'}}}"
    return _composite(
        f.domain, Space(n + m), ev, name, "vertical", (f,), write, (n, m), (tol,)
    )
