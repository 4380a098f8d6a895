"""Vector fields on Euclidean spaces: brackets, commutation, morphisms, lifts.

A vector field is stored through its component map ``vhat`` (the classical
ODE right-hand side); the full section ``x -> (x, vhat(x))`` is derived.
Every predicate returns a :class:`LawCheck` carrying the max residual and
the worst witness point, never a bare boolean.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from functools import reduce
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

from . import dsl
from .jets import _ARITHMETIC, primal_value
from .kernel import (
    ShapeError,
    SmoothMap,
    Space,
    TrivialBundle,
    _block_map,
    _composite,
    _ruled,
    compose,
    identity_map,
    pair,
    product,
    structural_map,
    tangent,
    vertical_bracket,
)
from .sampling import DEFAULT_SEED, sample_points

__all__ = [
    "VectorField",
    "LinearVectorField",
    "LawCheck",
    "LinearityError",
    "lie_bracket",
    "commutes",
    "is_vf_morphism",
    "tangent_lift",
    "product_vf",
    "matrix_of",
    "zero_field",
    "euler_space_field",
    "rotation_field",
    "JET_TOL",
    "FLOW_TOL",
]

# Default tolerances: jet-exact identities vs identities routed through an
# integrator.
JET_TOL = 1e-9
FLOW_TOL = 1e-6


@dataclass(frozen=True)
class LawCheck:
    """Outcome of a sampled law check: serializes as
    {law, passed, max_residual, witness, seed}."""

    law: str
    passed: bool
    max_residual: float
    witness: tuple | None = None
    seed: int | None = None

    def __bool__(self) -> bool:
        return self.passed

    def to_dict(self) -> dict:
        return {
            "law": self.law,
            "passed": bool(self.passed),
            "max_residual": float(self.max_residual),
            "witness": (
                [float(w) for w in self.witness] if self.witness is not None else None
            ),
            "seed": self.seed,
        }


class LinearityError(ValueError):
    def __init__(self, max_residual: float, witness):
        self.max_residual = max_residual
        self.witness = witness
        super().__init__(
            f"component map is not linear: residual {max_residual:.3e} at {witness}"
        )


def _check_field_spec(spec: dsl.FieldSpec) -> dsl.FieldSpec:
    """``spec``, or a ShapeError unless it has one component per coordinate."""
    n = spec.arity
    if spec.n_components != n:
        raise ShapeError(f"a field on R^{n} needs {n} components, got {spec.n_components}")
    return spec


@dataclass(frozen=True)
class VectorField:
    """A section of the tangent projection, stored via its component map."""

    space: Space
    vhat: SmoothMap

    def __post_init__(self):
        if self.vhat.domain != self.space or self.vhat.codomain != self.space:
            raise ShapeError(
                f"component map must be R^{self.space.dim} -> R^{self.space.dim}"
            )

    @functools.cached_property
    def full_map(self) -> SmoothMap:
        """x -> (x, vhat(x)); the section property holds by construction.
        Built on first read and kept, outside the fields that compare."""
        return pair(identity_map(self.space), self.vhat)

    @classmethod
    def from_expr(cls, text: str, dim: int) -> "VectorField":
        spec = _check_field_spec(dsl.parse(text, dim))
        return cls(Space(dim), dsl.compile_spec(spec))


class LinearVectorField(VectorField):
    """Vector field whose component map is a matrix: the rule
    (:func:`kernel._ruled`) :func:`_linear_rule` of its rows."""

    def __init__(self, matrix):
        import numpy as np

        A = np.asarray(matrix, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ShapeError("matrix must be square")
        n = A.shape[0]
        rows = tuple(tuple(map(float, row)) for row in A)
        cells = (0, *[a for row in rows for a in row])
        write = functools.partial(_linear_rule, rows)
        vhat = _ruled(Space(n), Space(n), "linear", ("linear", n), write, cells)
        object.__setattr__(self, "matrix", A.copy())
        super().__init__(Space(n), vhat)


def _matvec(rows, xs, w=_ARITHMETIC, zero=0) -> list:
    """``rows`` times ``xs`` in the arithmetic ``w``, each row summed left
    to right from ``zero``, the int 0 or its cell (a left fold, not
    ``sum``, which compensates float sums since Python 3.12): the one float
    order of a linear field (:func:`_linear_rule`), its exact flow and
    :func:`matrix_of`'s residuals."""
    return [reduce(w.add, map(w.mul, row, xs), zero) for row in rows]


def _linear_rule(rows: tuple, w, ins) -> list:
    """A linear field's rule (see :class:`kernel._Rule`): :func:`_matvec`
    in ``w``, with the int 0 and then each of the ``rows`` as its cells, so
    in jet arithmetic the rows themselves."""
    (zero,) = w.cells((0,))
    return _matvec([w.cells(row) for row in rows], ins, w, zero)


def zero_field(space: Space) -> VectorField:
    n = space.dim
    return VectorField(space, _block_map("zero_field", (n,), ([0.0] * n,)))


def euler_space_field(space: Space) -> VectorField:
    """The field x -> (x, x) on R^n; its flow is e^t scaling."""
    return VectorField(space, _block_map("euler", (space.dim,), (0,)))


def rotation_field() -> VectorField:
    """(x1, x2) -> (x2, -x1); flows are clockwise rotations."""
    return VectorField.from_expr("x2; -x1", 2)


# -- residual machinery -------------------------------------------------------


def gap(a, b) -> float:
    """The largest |a_i - b_i| over primal values (0.0 when empty); NaN as
    soon as any component is NaN, so a non-finite residual never passes.
    Always a Python float, also for numpy inputs."""
    worst = 0.0
    for x, y in zip(a, b):
        r = abs(primal_value(x) - primal_value(y))
        if r > worst:
            worst = r
        elif r != r:
            return float(r)
    return float(worst)


def _flat(case) -> tuple:
    # an ndarray part exists only once numpy is loaded, so do not load it here
    np = sys.modules.get("numpy")
    sequences = (list, tuple) if np is None else (list, tuple, np.ndarray)
    out = []
    for part in case:
        if isinstance(part, sequences):
            out.extend(part)
        else:
            out.append(part)
    return tuple(out)


def worst_case(cases, residual) -> tuple:
    """Fold a sampled law: ``(worst, witness)`` where ``worst`` is the largest
    ``residual(*case)`` and ``witness`` the first case attaining it, flattened
    (a case ``(t, s, x)`` is reported as ``(t, s, *x)``).  The witness stays
    ``None`` while every residual is 0.  The first NaN residual sticks: it
    becomes ``worst`` with its case as witness, and every case is still
    evaluated."""
    worst, witness = 0.0, None
    for case in cases:
        r = residual(*case)
        if r > worst or (r != r and worst == worst):
            worst, witness = r, _flat(case)
    return worst, witness


def law_check(law: str, cases, residual, tol: float, seed: int | None) -> LawCheck:
    """The :func:`worst_case` fold as a :class:`LawCheck` passing iff
    ``worst <= tol``."""
    worst, witness = worst_case(cases, residual)
    return LawCheck(law, worst <= tol, worst, witness, seed)


def _default_samples(dim: int, samples, seed):
    if samples is not None:
        return samples, seed
    return sample_points(dim, seed=seed), seed


# -- operations ----------------------------------------------------------------


def lie_bracket(v1: VectorField, v2: VectorField) -> VectorField:
    """[V1, V2] through the structural pipeline: form V1 T(V2) and
    V2 T(V1) c, subtract in the fibre over TM, and extract the vertical
    component.  The coordinate consequence D(vhat2) vhat1 - D(vhat1) vhat2
    is checked by tests, not assumed here.

    Of fields that carry rules, the difference carries one (both sides
    written in one pass, as :func:`kernel.pair` does, then the direction
    blocks subtracted), and so does its vertical component
    (:func:`kernel.vertical_bracket`, whose check is a guard in the
    kernel): the bracket, and every map built on it, runs one kernel.
    """

    if v1.space != v2.space:
        raise ShapeError("lie_bracket requires fields on the same space")
    space = v1.space
    n = space.dim
    flip = structural_map("flip", space)
    z1 = compose(v1.full_map, tangent(v2.full_map))
    z2 = compose(compose(v2.full_map, tangent(v1.full_map)), flip)

    def combine(first, second, w, ins):
        a = first(list(ins))
        b = second(list(ins))
        # Both land over the same point of TM; subtract direction blocks.
        return a[: 2 * n] + [w.sub(ai, bi) for ai, bi in zip(a[2 * n :], b[2 * n :])]

    name = "bracket_diff"
    diff = _composite(space, Space(4 * n), name, name, (z1, z2), combine)
    full = vertical_bracket(diff, TrivialBundle(n, n))
    vhat = compose(full, _component_of(space))
    return VectorField(space, vhat)


def _component_of(space: Space) -> SmoothMap:
    """TM -> M, (x, v) -> v: the fibre projection of the differential object."""
    return structural_map("hat_p", TrivialBundle(0, space.dim))


def commutes(
    v1: VectorField,
    v2: VectorField,
    samples=None,
    tol: float = JET_TOL,
    seed: int = DEFAULT_SEED,
) -> LawCheck:
    """V1 T(V2) c = V2 T(V1), sampled."""
    if v1.space != v2.space:
        raise ShapeError("commutes requires fields on the same space")
    samples, seed = _default_samples(v1.space.dim, samples, seed)
    flip = structural_map("flip", v1.space)
    lhs = compose(compose(v1.full_map, tangent(v2.full_map)), flip)
    rhs = compose(v2.full_map, tangent(v1.full_map))
    return law_check("commutes", zip(samples), lambda p: gap(lhs(p), rhs(p)), tol, seed)


def is_vf_morphism(
    f: SmoothMap,
    v1: VectorField,
    v2: VectorField,
    samples=None,
    tol: float = JET_TOL,
    seed: int = DEFAULT_SEED,
) -> LawCheck:
    """f relates V1 to V2: V1 T(f) = f V2, sampled on the domain."""
    if f.domain != v1.space or f.codomain != v2.space:
        raise ShapeError("morphism check needs f: space(V1) -> space(V2)")
    samples, seed = _default_samples(v1.space.dim, samples, seed)
    lhs = compose(v1.full_map, tangent(f))
    rhs = compose(f, v2.full_map)
    return law_check(
        "vf-morphism", zip(samples), lambda p: gap(lhs(p), rhs(p)), tol, seed
    )


def tangent_lift(v: VectorField) -> VectorField:
    """The lifted field T(V) c on the tangent space."""
    space = v.space
    lifted_space = space.tangent
    full = compose(tangent(v.full_map), structural_map("flip", space))
    vhat = compose(full, _component_of(lifted_space))
    return VectorField(lifted_space, vhat)


def product_vf(v1: VectorField, v2: VectorField) -> VectorField:
    """The product field on M1 x M2; its component map is the concatenation
    of the component maps (the tangent interleaving is applied by the
    full-map construction)."""
    return VectorField(
        Space(v1.space.dim + v2.space.dim), product(v1.vhat, v2.vhat)
    )


def matrix_of(
    v: VectorField, tol: float = JET_TOL, seed: int = DEFAULT_SEED
) -> np.ndarray:
    """Extract the matrix of a linear field (columns vhat(e_i) - vhat(0));
    raises :class:`LinearityError` when the sampled linearity residual
    exceeds ``tol``."""
    import numpy as np

    n = v.space.dim
    return np.array(_matrix_rows(v, tol, seed), dtype=float).reshape(n, n)


def _matrix_rows(v: VectorField, tol: float = JET_TOL, seed: int = DEFAULT_SEED) -> list:
    """The rows of :func:`matrix_of` as lists of floats, without numpy."""
    n = v.space.dim
    at_zero = [primal_value(y) for y in v.vhat([0.0] * n)]
    cols = []
    for i in range(n):
        e = [0.0] * n
        e[i] = 1.0
        cols.append([float(primal_value(y) - z) for y, z in zip(v.vhat(e), at_zero)])
    rows = [list(row) for row in zip(*cols)]

    worst, witness = worst_case(
        zip(sample_points(n, count=25, seed=seed)),
        lambda p: gap([primal_value(y) for y in v.vhat(p)], _matvec(rows, p)),
    )
    if not worst <= tol:
        raise LinearityError(worst, witness)
    return rows
