"""Scaling fields, exponential flows, and the multiplicative structure they
induce on the curve C.

The exponential map ``e`` is deliberately computed through the integrator
(never hard-coded as ``math.exp``) so that the algebraic suites genuinely
exercise the solver; closed forms appear only as oracles in tests.
Multiplication on C is recovered from the second derivative of ``e``:
evaluating the second-order jet of ``e`` at point ``(0, a)`` with direction
``(b, 0)`` yields ``a * b``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

from .dynamics import (
    DEFAULT_CONFIG,
    Flow,
    IntegratorConfig,
    flow_of,
    flow_smooth_map,
    time_derivative,
)
from .fields import LawCheck, VectorField, gap, law_check
from .jets import primal_value
from .kernel import (
    ShapeError,
    SmoothMap,
    Space,
    TrivialBundle,
    _block_map,
    compose,
    product,
    product_interleave_inv,
    structural_map,
    tangent,
    vertical_bracket,
)
from .sampling import DEFAULT_SEED, sample_points

__all__ = [
    "ActionLinearityReport",
    "euler_field",
    "exp_flow",
    "e_map",
    "multiply",
    "rig_suite",
    "action",
    "action_suite",
    "linearity_via_action",
    "C_BUNDLE",
]

RIG_TOL = 1e-6

# The curve as a differential object: a one-dimensional fibre over a point.
C_BUNDLE = TrivialBundle(0, 1)


# The law suites scale five bundles; a field is frozen, so callers share it.
@functools.lru_cache(maxsize=8)
def euler_field(bundle: TrivialBundle, check_tol: float = 1e-12) -> VectorField:
    """The fibrewise-scaling field of a trivial bundle (at ``(x, a)`` the
    direction is ``(0, a)``).  Its component map is the one layout
    ``(x, a) -> (0_n, a)``; on seeded samples it is checked against the
    structural construction it abbreviates (the diagonal into the fibre
    square, then mu, then hat_p), and the field's section, over-zero and
    linearity properties are verified.  Each bundle's field is built and
    checked once, then kept in a bounded memo keyed by the arguments."""

    n, m = bundle.base_dim, bundle.fibre_dim
    total = bundle.total
    vhat = _block_map("scaling", (n, m), ([0.0] * n, 1))
    field_ = VectorField(total, vhat)
    mu = structural_map("bundle_mu", bundle)
    diag = _block_map("diag", (n, m), (0, 1, 1))  # A -> A_2, (x, a) -> (x, a, a)
    full = compose(diag, mu)
    hat_p = structural_map("hat_p", TrivialBundle(0, n + m))

    pts = sample_points(n + m, count=10, seed=DEFAULT_SEED)
    lift = structural_map("bundle_lift", bundle)
    flip = structural_map("flip", total)
    lhs = compose(compose(field_.full_map, tangent(lift)), flip)
    rhs = compose(lift, tangent(field_.full_map))
    for p in pts:
        y = full(p)
        # over the zero field on the base: T(q) sends it to (x, 0)
        base_dir = y[n + m : 2 * n + m]
        resid = gap(base_dir, [0.0] * n)
        sect = gap(y[: n + m], p)
        lin = gap(lhs(p), rhs(p))
        layout = gap(vhat(p), hat_p(y))
        if not all(r <= check_tol for r in (resid, sect, lin, layout)):
            raise ShapeError(
                f"scaling field failed its structural checks at {p}: "
                f"section {sect:.2e}, base {resid:.2e}, linearity {lin:.2e}, "
                f"layout {layout:.2e}"
            )
    return field_


def exp_flow(bundle: TrivialBundle, cfg: IntegratorConfig = DEFAULT_CONFIG) -> Flow:
    """The flow of the scaling field, (t, (x, a)) -> (x, e^t a) up to
    integrator tolerance."""
    return flow_of(euler_field(bundle), cfg)


def e_map(cfg: IntegratorConfig = DEFAULT_CONFIG) -> SmoothMap:
    """The exponential of the curve: the solution through 1 of the scaling
    field on C, as a jet-polymorphic map C -> C."""
    flow = exp_flow(C_BUNDLE, cfg)

    def ev(xs):
        return flow.evaluate(xs[0], [1.0])

    return SmoothMap(Space(1), Space(1), ev, name="e")


def multiply(a: float, b: float, cfg: IntegratorConfig = DEFAULT_CONFIG, e: SmoothMap | None = None):
    """Multiplication recovered from the second derivative of e.

    Evaluates the second-order jet of e at point (0, a) with direction
    (b, 0) (the point-first layout of rule 2) and returns the corner
    coefficient, which is a*b up to integrator tolerance.
    """
    if e is None:
        e = e_map(cfg)
    d2e = tangent(tangent(e))
    out = d2e([0.0, a, b, 0.0])
    return out[3]


def rig_suite(
    samples=None,
    tol: float = RIG_TOL,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
    seed: int = DEFAULT_SEED,
    e: SmoothMap | None = None,
) -> list[LawCheck]:
    """The exponential-rig laws, each with its max residual:

    R1 <0,1> D(e) = id          R2 (1 x e) D(e) = + e
    R3 e(a+b) = e(a) * e(b)     R4 * is commutative/associative/bilinear
    R5 e(0) = 1

    Passing an explicit ``e`` lets callers probe how the laws reject a
    perturbed exponential.
    """

    if e is None:
        e = e_map(cfg)
    de = tangent(e)
    mult = lambda a, b: primal_value(multiply(a, b, cfg=cfg, e=e))
    ev_e = lambda t: primal_value(e([t])[0])
    if samples is None:
        samples = sample_points(3, count=15, seed=seed)

    def multiply_laws(a, b, c):
        return gap(
            [mult(a, b), mult(a, mult(b, c)), mult(a, b + c), mult(a + b, c)],
            [
                mult(b, a),
                mult(mult(a, b), c),
                mult(a, b) + mult(a, c),
                mult(a, c) + mult(b, c),
            ],
        )

    pairs = [(row[0], row[1]) for row in samples]
    r = abs(ev_e(0.0) - 1.0)
    return [
        law_check(
            "rig-derivative-unit",
            ((row[0],) for row in samples),
            lambda v: abs(primal_value(de([0.0, v])[1]) - v),
            tol,
            seed,
        ),
        law_check(
            "rig-derivative-sum",
            pairs,
            lambda a, b: abs(primal_value(de([a, ev_e(b)])[1]) - ev_e(a + b)),
            tol,
            seed,
        ),
        law_check(
            "rig-exp-of-sum",
            pairs,
            lambda a, b: abs(ev_e(a + b) - mult(ev_e(a), ev_e(b))),
            tol,
            seed,
        ),
        law_check("rig-multiply-laws", samples, multiply_laws, tol, seed),
        # the witness is kept even when the residual is 0
        LawCheck("rig-unit-value", r <= tol, r, (0.0,), seed),
    ]


# -- the action of C on bundles -------------------------------------------------


def action(
    bundle: TrivialBundle,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
    verticality_tol: float = 1e-7,
) -> SmoothMap:
    """The scalar action C x A -> A, built through the structural pipeline:
    lift the time, zero the point, differentiate the exponential flow, and
    extract the vertical component.  Coordinates: (s, (x, a)) -> (x, s a).

    A VerticalityViolation here signals integrator drift; retry with a
    tighter integrator tolerance.
    """

    total = bundle.total
    lam_c = structural_map("bundle_lift", C_BUNDLE)
    zero_a = structural_map("zero", total)
    pre = compose(
        product(lam_c, zero_a), product_interleave_inv(Space(1), total)
    )
    fmap = flow_smooth_map(exp_flow(bundle, cfg))
    pipeline = compose(pre, tangent(fmap))
    act = vertical_bracket(pipeline, bundle, tol=verticality_tol)
    return SmoothMap(act.domain, act.codomain, act.evaluator, name="action")


def _fibre_add(bundle: TrivialBundle, p: Sequence, q: Sequence) -> list:
    n = bundle.base_dim
    return list(p[:n]) + [a + b for a, b in zip(p[n:], q[n:])]


def action_suite(
    bundle: TrivialBundle,
    samples=None,
    tol: float = RIG_TOL,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
    seed: int = DEFAULT_SEED,
) -> list[LawCheck]:
    """Laws of the scalar action:

    A1 unitality (1 acts as identity)
    A2 associativity through the rig multiplication
    A3 additivity in the scalar and in the fibre
    A4 the time derivative at 0 is the bundle lift
    A5 the paired action solves its defining linear system
    """

    n, m = bundle.base_dim, bundle.fibre_dim
    act = action(bundle, cfg)
    e = e_map(cfg)
    mult = lambda a, b: primal_value(multiply(a, b, cfg=cfg, e=e))
    if samples is None:
        samples = sample_points(2 + n + 2 * m, count=10, seed=seed)

    def act_at(s, p):
        return [primal_value(v) for v in act([s] + list(p))]

    def additive(row):
        s, r_ = row[0], row[1]
        p = row[2 : 2 + n + m]
        q = list(p[:n]) + list(row[2 + n + m :])
        # additivity in the scalar, then in the fibre
        return gap(
            act_at(s + r_, p) + act_at(s, _fibre_add(bundle, p, q)),
            _fibre_add(bundle, act_at(s, p), act_at(r_, p))
            + _fibre_add(bundle, act_at(s, p), act_at(s, q)),
        )

    lift = structural_map("bundle_lift", bundle)
    t_act = tangent(act)

    # A5: (action, second projection) solves the system on the fibre square
    # whose field sends (x, a1, a2) to direction (0, a2, 0) and whose initial
    # map is (x, a) -> (x, 0, a).
    def paired(t, xs):
        y = act.evaluator([t] + list(xs))
        return list(y) + list(xs[n:])

    def solves_system(p):
        got = paired(0.0, p)
        want = list(p[:n]) + [0.0] * m + list(p[n:])
        for t in (-1.0, -0.25, 0.5, 1.0):
            vals, rates = time_derivative(paired, t, p)
            got += rates
            want += [0.0] * n + vals[n + m :] + [0.0] * m
        return gap(got, want)

    points = [(row[2 : 2 + n + m],) for row in samples]
    return [
        law_check(
            "action-unit", points, lambda p: gap(act_at(1.0, p), p), tol, seed
        ),
        law_check(
            "action-associative",
            [(row[0], row[1], row[2 : 2 + n + m]) for row in samples],
            lambda s, r_, p: gap(act_at(s, act_at(r_, p)), act_at(mult(s, r_), p)),
            tol,
            seed,
        ),
        law_check("action-additive", zip(samples), additive, tol, seed),
        # T(action) at point (0, p) with direction (1, 0) is a TA-element.
        law_check(
            "action-derivative-is-lift",
            points,
            lambda p: gap(t_act([0.0] + list(p) + [1.0] + [0.0] * (n + m)), lift(p)),
            tol,
            seed,
        ),
        law_check("action-solves-system", points, solves_system, tol, seed),
    ]


@dataclass(frozen=True)
class ActionLinearityReport:
    is_bundle_map: LawCheck
    is_linear: LawCheck
    preserves_action: LawCheck
    preserves_exp: LawCheck

    @property
    def agreement(self) -> bool:
        """The equivalence under test: linearity iff action preservation."""
        return self.is_linear.passed == self.preserves_action.passed

    def to_dict(self) -> dict:
        return {
            "is_bundle_map": self.is_bundle_map.to_dict(),
            "is_linear": self.is_linear.to_dict(),
            "preserves_action": self.preserves_action.to_dict(),
            "preserves_exp": self.preserves_exp.to_dict(),
            "agreement": self.agreement,
        }


def linearity_via_action(
    f: SmoothMap,
    bundle_a: TrivialBundle,
    bundle_b: TrivialBundle,
    samples=None,
    tol: float = RIG_TOL,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
    seed: int = DEFAULT_SEED,
) -> ActionLinearityReport:
    """Check, on samples, whether a total-space map is a bundle morphism,
    whether it is linear, and whether it preserves the scalar actions and
    exponential flows of the two bundles."""

    if f.domain != bundle_a.total or f.codomain != bundle_b.total:
        raise ShapeError("map must go between the bundles' total spaces")
    na, ma = bundle_a.base_dim, bundle_a.fibre_dim
    nb = bundle_b.base_dim
    if samples is None:
        samples = sample_points(1 + na + 2 * ma, count=12, seed=seed)

    def f_at(p):
        return [primal_value(v) for v in f([primal_value(q) for q in p])]

    def bundle_map(row):
        x = list(row[1 : 1 + na])
        a1 = row[1 + na : 1 + na + ma]
        a2 = row[1 + na + ma :]
        return gap(f_at(x + list(a1))[:nb], f_at(x + list(a2))[:nb])

    lift_a = structural_map("bundle_lift", bundle_a)
    lift_b = structural_map("bundle_lift", bundle_b)
    lin_lhs = compose(lift_a, tangent(f))
    lin_rhs = compose(f, lift_b)
    act_a = action(bundle_a, cfg)
    act_b = action(bundle_b, cfg)
    ea = exp_flow(bundle_a, cfg)
    eb = exp_flow(bundle_b, cfg)
    points = [(row[1 : 1 + na + ma],) for row in samples]
    scaled = [(row[0], row[1 : 1 + na + ma]) for row in samples]
    return ActionLinearityReport(
        law_check("bundle-map", zip(samples), bundle_map, tol, seed),
        law_check(
            "linear", points, lambda p: gap(lin_lhs(p), lin_rhs(p)), tol, seed
        ),
        law_check(
            "preserves-action",
            scaled,
            lambda s, p: gap(f_at(act_a([s] + list(p))), act_b([s] + f_at(p))),
            tol,
            seed,
        ),
        law_check(
            "preserves-exp",
            scaled,
            lambda s, p: gap(f_at(ea.evaluate(s, list(p))), eb.evaluate(s, f_at(p))),
            tol,
            seed,
        ),
    )
