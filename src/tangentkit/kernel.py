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
built by ``_block_map``: the scaling field behind ``e``, the multiplication
and the action, and the library's constant and identity fields, are block
maps.

A dsl field, a block map, a linear field and a composite of maps that
carry rules are each their rule (:class:`_Rule`): one description
``write(w, ins)`` that writes the map's flat kernels in the writer
(:class:`jets._FlatWriter`), which the solver runs in place of the jet
codec.  One builder, :func:`_ruled`, makes every such map and derives its
whole call from the rule: on all floats it runs the depth-0 kernel, on
anything else ``write`` in jet arithmetic (:data:`jets._ARITHMETIC`), with
the same bits and the same errors.  Each combinator (and so the Lie bracket
and :mod:`dynamics`' geodesic field) is one ``combine(*parts, w, ins)``
(:func:`_composite`): ``tangent`` opens and closes a level (``w.open``,
``w.close``) and :func:`vertical_bracket` checks its base direction
(``w.vertical``), in either arithmetic.  So a composite's kernel at each
depth is one straight-line function of the whole tree, compiled once per
structure and depth (:func:`_maker`).  A composite of any other evaluator
(a hand-written one, a wrapper, the tangent of an integrator flow) carries
no rule and calls its parts on every argument.
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
    _kernel_maker,
    close_level,
    open_level,
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


def _check_dimensions(owner, *fields: str) -> None:
    """A TypeError naming ``owner``'s class and field unless each of ``fields``
    is an integer (:func:`operator.index`), not a bool; run only for a field
    that is not an int, since every composite builds spaces."""
    for name in fields:
        value = getattr(owner, name)
        try:
            if isinstance(value, bool):
                raise TypeError
            operator.index(value)
        except TypeError:
            message = f"{type(owner).__name__}.{name} must be an integer, got {value!r}"
            raise TypeError(message) from None


@dataclass(frozen=True)
class Space:
    """Euclidean space R^dim."""

    dim: int

    def __post_init__(self):
        if type(self.dim) is not int:
            _check_dimensions(self, "dim")
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
        if type(self.base_dim) is not int or type(self.fibre_dim) is not int:
            _check_dimensions(self, "base_dim", "fibre_dim")
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

    T(f) opens a level on its base and direction inputs, evaluates ``f``
    there and closes the level again, in whichever arithmetic it runs: on
    jets, or in the writer, where ``f``'s rule is written one level deeper.
    So of an ``f`` that carries a rule, T(f) carries one too, and on float
    arguments runs its depth-0 kernel, with the bits of the jet path.
    """

    n = f.domain.dim

    def combine(part, w, ins):
        primals, tangents = w.close(part(w.open(ins[:n], ins[n:])))
        return primals + tangents

    name = f"T({f.name or 'f'})"
    return _composite(f.domain.tangent, f.codomain.tangent, name, "T", (f,), combine)


@dataclass(frozen=True)
class _Rule:
    """A map's one description, and the one carrier of its flat kernels
    (:meth:`kernel`), made by :func:`_ruled`.  ``write(w, ins)`` returns the
    map's values on its ``arity`` inputs ``ins`` in the arithmetic ``w``:
    in jet arithmetic (:data:`jets._ARITHMETIC`) for a call on anything but
    floats, and in a :class:`jets._FlatWriter`, where the values are
    coefficient names, to write a kernel.  The rule reads its ``cells``,
    the map's constants, through ``w.cells(cells)``, which gives the values
    themselves in jet arithmetic and their names in the writer; the writer
    also keeps the number of coefficients of each value, as :func:`tangent`
    opens a level.

    ``key`` determines the code ``write`` writes exactly: the map's kind,
    its parts' keys and every shape it reads.  A rule compares and hashes
    by its key alone, so rules of one key share one maker (:func:`_maker`)
    and each binds its own cells: constants that compare equal but differ
    (0.0 and -0.0) keep their bits.  ``kernels`` is the rule's own memo of
    its kernels, one per depth, which :func:`dataclasses.replace` never
    shares.  Only a ``coded`` rule, a dsl field's
    (:func:`dsl.compile_spec`), gives its kernels their code."""

    key: tuple
    arity: int = field(compare=False)
    write: Callable = field(compare=False, repr=False)
    cells: tuple = field(compare=False, repr=False)
    coded: bool = field(default=False, compare=False)
    kernels: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __call__(self, ins: list) -> list:
        """The rule in jet arithmetic, so a rule is an evaluator: the one
        of the map :func:`_ruled` gives its kernel lookup."""
        return self.write(_ARITHMETIC, ins)

    @property
    def rule(self) -> "_Rule":
        """The rule itself, which a map it evaluates carries (:func:`_rule`)."""
        return self

    def kernel(self, depth: int):
        """The flat kernel at ``depth``, made on first use and kept: the
        maker in :func:`_maker`'s slot for the key and depth, which the
        first rule of that key to ask fills with the maker
        (:func:`jets._kernel_maker`) of :func:`_code`, called on the cells.

        A ``coded`` rule's kernel carries its code as data (``kernel.code``,
        which names the cells) and the cells (``kernel.cells``), which the
        solver writes into its generated RK45 loop when the code is short
        enough (:func:`dynamics._integrate_scaled`).  Every other kernel the
        solver calls at each stage: inlined, the few products of a block
        map would save little, and each fused loop is one more compile (for
        a 20-entry state it peaks at about 2.1 MB under tracemalloc,
        against 1.8 MB for the unfused loop that every field of that size
        shares).  So only a coded slot keeps its code: kept for every key,
        the codes of a ``run_suite("all")`` pass held about 190 KB, and
        raised the verify workload's peak resident size by about 0.09 MB."""
        kernel = self.kernels.get(depth)
        if kernel is None:
            slot = _maker(self.key, depth)
            if not slot:
                code = _code(self, depth)
                slot += (_kernel_maker(code), code if self.coded else None)
            make, code = slot
            kernel = self.kernels[depth] = make(*self.cells)
            if self.coded:
                kernel.code, kernel.cells = code, self.cells
        return kernel


def _rule(f: SmoothMap):
    """``f``'s :class:`_Rule`, or None."""
    return getattr(f.evaluator, "rule", None)


def _flat_kernel(f: SmoothMap, depth: int):
    """``f``'s flat kernel at ``depth`` (:meth:`_Rule.kernel`), or None when
    its evaluator carries no rule: the one lookup of a float call of every
    map that carries a rule (:func:`_ruled`; and, under its own name, of
    the solver, :func:`dynamics._trajectory`).  With it returning None every
    such call runs the map's rule in jet arithmetic."""
    rule = getattr(f.evaluator, "rule", None)
    return rule.kernel(depth) if rule is not None else None


def _code(rule: _Rule, depth: int) -> _FlatCode:
    """The code of ``t * v`` for each of ``rule``'s values ``v`` at jet
    depth ``depth``: one :class:`jets._FlatWriter` pass, in which the parts
    of a composite write their values in turn, with no time between them."""
    w = _FlatWriter(depth, [f"x{i}" for i in range(rule.arity)])
    return w.code(rule.write(w, w.inputs))


# A fresh-process run_suite("all") fills 115 slots, the same 115 at seeds 3,
# 1729 and 7: 65 compose, 3 T, 9 dsl, 4 geodesic, 1 pair, 1 linear and 32
# block.  Only block, dsl and geodesic keys go deeper than depth 0 (block
# maps to depths 1 and 2, dsl fields to 1 and 2, geodesic fields to 1).  No
# cli workload command fills more than 18 (`cli verify --suite kernel`), and
# `cli geodesic` fills 2.
@functools.lru_cache(maxsize=128)
def _maker(key: tuple, depth: int) -> list:
    """The slot ``[make, code]`` of the rules keyed ``key`` at ``depth``,
    which :meth:`_Rule.kernel` fills on first use, so the writer runs once
    per key and depth: ``zero_field``, ``euler_space_field`` and the law
    suites build new maps of a few shapes on every call, and the code reads
    the key only.  The memo holds keys, not rules, so it keeps no rule's
    tree of parts and cells alive."""
    return []


# The time 1 at depth 0, flatten_levels([1], 0): the int 1, whose products
# keep every bit of a float (-0.0, inf and nan among them) and leave an int
# an int, as the parts do.
_UNIT = (1,)


def _composite(
    domain: Space,
    codomain: Space,
    name: str,
    kind: str,
    maps,
    combine,
    shape: tuple = (),
    cells: tuple = (),
) -> SmoothMap:
    """The map ``combine(*parts, w, ins)`` of ``maps``, whose parts are
    functions of ``ins`` in the arithmetic ``w``: in jet arithmetic the
    maps' evaluators, bound once, which a call runs.  When each of them
    carries a rule, the map is the rule (:func:`_ruled`) keyed by ``kind``,
    the ``shape`` ``combine`` reads and their keys, which in the writer
    runs ``combine`` on their rules, so reads their cells in turn and then
    its own ``cells``.  The one builder of a map written from other maps:
    the combinators here, :func:`fields.lie_bracket`'s difference and
    :func:`dynamics._geodesic_field`."""
    evaluators = [f.evaluator for f in maps]
    # a part's evaluator is its rule in jet arithmetic, or on all floats its
    # kernel, with the same bits; run as their rules instead, the parts
    # raised the verify workload's peak resident size by 0.2-0.5 MB
    jet = functools.partial(combine, *evaluators, _ARITHMETIC)
    rules = [getattr(ev, "rule", None) for ev in evaluators]
    if not all(rules):
        return SmoothMap(domain, codomain, jet, name=name)
    # one part's cells are shared, two are concatenated: a tuple built from
    # a generator grows by reallocation, and built so for every composite
    # it raised the resident size after 60 `verify` passes by about 0.3 MB
    cells = functools.reduce(operator.add, [*(rule.cells for rule in rules), cells])
    key = (kind, *shape, *(rule.key for rule in rules))

    def write(w, ins):
        if w is _ARITHMETIC:
            return jet(ins)
        return combine(*[functools.partial(rule.write, w) for rule in rules], w, ins)

    return _ruled(domain, codomain, name, key, write, cells)


def _ruled(domain: Space, codomain: Space, name: str, key: tuple, write, cells=(), coded=False):
    """The map that is the rule ``write`` (:class:`_Rule`, of ``key``,
    ``cells`` and ``coded``), and the one builder of a map that carries a
    rule: a dsl field (:func:`dsl.compile_spec`), a block map
    (:func:`_block_map`), a linear field (:class:`fields.LinearVectorField`)
    and every composite of such maps (:func:`_composite`).  Its call on all
    floats runs its depth-0 kernel at unit time, looked up through
    :func:`_flat_kernel`; any other call, or one with that lookup giving
    None, runs ``write`` in jet arithmetic."""
    rule = _Rule(key, domain.dim, write, cells, coded)
    # the lookup is given the map evaluated by the rule alone: given the map
    # itself, ev would hold it in a reference cycle, which only the cyclic
    # collector frees
    lookup = SmoothMap(domain, codomain, rule, name=name)

    def ev(xs):
        if all(a.__class__ is float for a in xs):
            kernel = _flat_kernel(lookup, 0)
            if kernel is not None:
                return kernel(xs, _UNIT)
        return write(_ARITHMETIC, xs)

    ev.rule = rule
    return SmoothMap(domain, codomain, ev, name=name)


# -- structural transformations ------------------------------------------


def _block_map(name: str, sizes: Sequence[int], layout: Sequence) -> SmoothMap:
    """A map that splits its input into blocks of the given ``sizes`` and
    concatenates the ``layout``: an int is that input block, a list of
    floats (a constant block) is inserted as it stands, and a tuple
    ``(op, b, ...)`` is ``op`` (``"add"`` or ``"neg"``) of the input blocks
    ``b, ...``, entry by entry.

    The layout is its rule (:func:`_ruled`): each value is a leaf (a
    constant, or an input after the constants) or ``op`` of inputs, one
    comprehension over ``sources`` (:func:`_blocks`), which a call on
    anything but floats runs in jet arithmetic and the writer in its own,
    so its kernel, which a float call runs, runs little but the writer's
    ``t * v`` for each value ``v``.  The key is the layout's shape, and
    each map binds its own constants."""
    constants = tuple(c for b in layout if isinstance(b, list) for c in b)
    starts = tuple(itertools.accumulate(sizes, initial=len(constants)))
    blocks = [range(a, z) for a, z in zip(starts, starts[1:])]
    leaf = itertools.count()

    def reads(b):
        """What each value of ``b`` reads: a leaf or ``(op, input, ...)``.
        Not recursive: a nested function that calls itself is a reference
        cycle, which only the cyclic collector frees."""
        if isinstance(b, int):
            return blocks[b]
        if isinstance(b, list):
            return [next(leaf) for _ in b]
        return [(b[0], *inputs) for inputs in zip(*[blocks[k] for k in b[1:]])]

    sources = tuple(i for b in layout for i in reads(b))
    n = starts[-1] - starts[0]
    key = ("block", n, starts[0], sources)
    write = functools.partial(_blocks, sources, constants)
    return _ruled(Space(n), Space(len(sources)), name, key, write, constants)


def _blocks(sources: tuple, constants: tuple, w, ins) -> list:
    """A block map's rule: for each source a leaf, one of the cells of
    ``constants`` and then ``ins``, or ``w``'s ``op`` of inputs."""
    leaves = [*w.cells(constants), *ins]
    return [
        leaves[i] if i.__class__ is int else getattr(w, i[0])(*[leaves[k] for k in i[1:]])
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

    def combine(first, then, w, ins):
        return then(list(first(ins)))

    name = f"{f.name or 'f'};{g.name or 'g'}"
    return _composite(f.domain, g.codomain, name, "compose", (f, g), combine)


def pair(f: SmoothMap, g: SmoothMap) -> SmoothMap:
    """The pairing <f, g> into a product (f and g share a domain).

    Of maps that carry rules: both rules on the same inputs, in one
    straight-line kernel per depth, which float calls run."""
    if f.domain != g.domain:
        raise ShapeError("pair requires a shared domain")

    def combine(left, right, w, ins):
        return list(left(list(ins))) + list(right(list(ins)))

    name = f"<{f.name or 'f'},{g.name or 'g'}>"
    codomain = Space(f.codomain.dim + g.codomain.dim)
    return _composite(f.domain, codomain, name, "pair", (f, g), combine)


def product(f: SmoothMap, g: SmoothMap) -> SmoothMap:
    """f x g on concatenated inputs.

    Of maps that carry rules: each rule on its slice of the inputs, in one
    straight-line kernel per depth, which float calls run."""
    n1, n2 = f.domain.dim, g.domain.dim

    def combine(left, right, w, ins):
        return list(left(ins[:n1])) + list(right(ins[n1:]))

    name = f"{f.name or 'f'}x{g.name or 'g'}"
    domain, codomain = Space(n1 + n2), Space(f.codomain.dim + g.codomain.dim)
    return _composite(domain, codomain, name, "product", (f, g), combine)


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

    The check is ``w.vertical`` on ``f``'s values, with ``tol`` as a cell:
    :func:`jets._vertical_of` on jets, and in the writer one guard statement
    that runs the same test on the coefficients of the base-direction
    block.  So of an ``f`` that carries a rule the result carries one too,
    keyed by ``n``, ``m`` and ``f``'s key, and the check runs inside every
    kernel of a composite built on it, at every depth and before the time
    scales the values.
    """

    n, m = bundle.base_dim, bundle.fibre_dim
    if f.codomain.dim != 2 * (n + m):
        raise ShapeError(
            f"bracket source must land in R^{2 * (n + m)}, got R^{f.codomain.dim}"
        )

    def combine(part, w, ins):
        ys = part(list(ins))
        w.vertical(ys[n + m : 2 * n + m], ins, tol)
        return list(ys[:n]) + list(ys[2 * n + m :])

    name = f"{{{f.name or 'f'}}}"
    return _composite(
        f.domain, Space(n + m), name, "vertical", (f,), combine, (n, m), (tol,)
    )
