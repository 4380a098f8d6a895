"""Law-verification suites.

Each suite returns a list of :class:`LawCheck` rows; a suite passes when
every row does.  Negative instances (detectors that must fire) are encoded
so the row passes exactly when the detector classifies correctly.  Suites
are deterministic given the seed.  Every suite takes ``(seed, cfg, quick)``;
only ``flows`` and ``action`` shrink their sample counts under ``quick``.
"""

from __future__ import annotations

import math
import random
from functools import partial
from itertools import product

import numpy as np

from . import dsl
from .dynamics import (
    DEFAULT_CONFIG,
    Connection,
    DynamicalSystem,
    Flow,
    IntegratorConfig,
    StepSizeCollapse,
    acceleration_residual,
    commuting_flows_check,
    curve,
    eta,
    expm,
    flow_laws,
    flow_of,
    generator,
    geodesic_flow,
    integrate,
    linear_flow,
    reverse,
    sigma_flow,
    sum_flow,
    time_derivative,
)
from .fields import (
    LawCheck,
    LinearVectorField,
    VectorField,
    commutes,
    euler_space_field,
    gap,
    is_vf_morphism,
    law_check,
    lie_bracket,
    matrix_of,
    rotation_field,
    tangent_lift,
    worst_case,
    zero_field,
)
from .jets import primal_value
from .jets import cos as jcos, exp as jexp, sin as jsin
from .kernel import (
    SmoothMap,
    Space,
    TrivialBundle,
    compose,
    identity_map,
    structural_map,
    tangent,
    vertical_bracket,
)
from .rig import (
    action,
    action_suite,
    e_map,
    linearity_via_action,
    multiply,
    rig_suite,
)
from .sampling import DEFAULT_SEED, sample_matrix, sample_points

__all__ = ["SUITES", "run_suite"]

SIGMA_GRID = (-2.0, -1.0, 0.0, 1.0, 2.0)


def _law(law, worst, tol, witness=None, seed=None):
    return LawCheck(law, worst <= tol, worst, witness, seed)


# Rows that judge classifier verdicts; their residual is not a tolerance
# residual, so ``verify --tol`` leaves their verdicts as they are.
_DETECTOR_ROWS = frozenset({
    "linear-commutation",
    "self-commutation",
    "f-relatedness-bracket",
    "pair-commuting-predicate",
    "flow-interchange",
    "flow-morphism-equivalence",
    "linearity-equivalence",
})


def _detector(law, cases, judge, seed):
    """A row over classifier cases: ``judge(*case)`` returns
    ``(verdict_right, residual)``.  The row passes only if every verdict is
    right and reports the largest residual (NaN sticks), with no witness.
    Cases are consumed lazily, one judgement at a time."""
    right = []

    def residual(*case):
        ok, r = judge(*case)
        right.append(ok)
        return r

    worst, _ = worst_case(cases, residual)
    return LawCheck(law, all(right), worst, None, seed)


def _test_map() -> SmoothMap:
    """A mildly nonlinear 2 -> 2 map used for the kernel identities."""
    return dsl.compile_spec(dsl.parse("sin(x1) * x2; x1^2 + tanh(x2)", 2))


def _second_map() -> SmoothMap:
    return dsl.compile_spec(dsl.parse("x1 + x2^3; cos(x2)", 2))


# -- kernel ----------------------------------------------------------------------


def suite_kernel(seed: int = DEFAULT_SEED, cfg=DEFAULT_CONFIG, quick: bool = False,
                 tol: float = 1e-12, count: int = 100):
    f = _test_map()
    g = _second_map()
    space2 = Space(2)

    pts_m = sample_points(2, count=count, seed=seed)
    pts_tm = sample_points(4, count=count, seed=seed + 1)
    pts_t2m = sample_points(8, count=count, seed=seed + 2)
    pts_sum = sample_points(6, count=count, seed=seed + 3)

    p2 = structural_map("p", space2)
    zero2 = structural_map("zero", space2)
    ell2 = structural_map("ell", space2)
    flip2 = structural_map("flip", space2)
    plus2 = structural_map("plus", space2)
    neg2 = structural_map("neg", space2)

    def square(law, lhs, rhs, pts):
        return law_check(law, zip(pts), lambda p: gap(lhs(p), rhs(p)), tol, seed)

    def plus_monoid(row):
        x, u, w = row[:2], row[2:4], row[4:6]
        v = [wi + 0.5 for wi in w]
        # commutativity, then associativity
        return gap(
            plus2(x + u + w) + plus2(plus2(x + u + w) + v),
            plus2(x + w + u) + plus2(x + u + [a + b for a, b in zip(w, v)]),
        )

    def neg_inverse(row):
        return gap(plus2(row + neg2(row)[2:]), row[:2] + [0.0, 0.0])

    # bracket reconstruction: a vertical value with point (x, a) and
    # direction (0, w) is rebuilt from its bracket output (x, w) and its
    # point part.
    bundle = TrivialBundle(2, 2)

    def vertical_ev(xs):
        x1, x2 = xs[0], xs[1]
        return [x1, x2, x1 * x2, 0.0, 0.0, 0.0, x2, x1 * x1]

    vert = SmoothMap(Space(2), Space(8), vertical_ev, name="vertical")
    br = vertical_bracket(vert, bundle)
    lift = structural_map("bundle_lift", bundle)

    def reconstruction(p):
        original = vert(p)
        return gap(original[:4] + lift(br(p))[4:], original)

    t2f = tangent(tangent(f))
    return [
        square("naturality-p", compose(tangent(f), p2), compose(p2, f), pts_tm),
        square("naturality-zero", compose(f, zero2), compose(zero2, tangent(f)), pts_m),
        square("naturality-ell", compose(tangent(f), ell2), compose(ell2, t2f), pts_tm),
        square("naturality-flip", compose(t2f, flip2), compose(flip2, t2f), pts_t2m),
        square(
            "coherence-flip-involution",
            compose(flip2, flip2),
            identity_map(Space(8)),
            pts_t2m,
        ),
        square("coherence-ell-flip", compose(ell2, flip2), ell2, pts_tm),
        square(
            "coherence-ell-p", compose(ell2, tangent(p2)), compose(p2, zero2), pts_tm
        ),
        law_check("plus-monoid", zip(pts_sum), plus_monoid, tol, seed),
        law_check("neg-inverse", zip(pts_tm), neg_inverse, tol, seed),
        square(
            "functoriality",
            tangent(compose(f, g)),
            compose(tangent(f), tangent(g)),
            pts_tm,
        ),
        law_check("bracket-reconstruction", zip(pts_m), reconstruction, tol, seed),
    ]


# -- vector fields -----------------------------------------------------------------


def _commuting_pair(rng: random.Random, n: int):
    A = np.array(sample_matrix(n, rng))
    B = (
        rng.uniform(-1, 1) * np.eye(n)
        + rng.uniform(-1, 1) * A
        + rng.uniform(-1, 1) * (A @ A)
    )
    return A, B


def _noncommuting_pair(rng: random.Random, n: int):
    while True:
        A = np.array(sample_matrix(n, rng))
        B = np.array(sample_matrix(n, rng))
        if np.max(np.abs(A @ B - B @ A)) > 0.1:
            return A, B


def _invertible(rng: random.Random, n: int) -> np.ndarray:
    while True:
        P = np.array(sample_matrix(n, rng))
        if abs(np.linalg.det(P)) > 0.3:
            return P


def _jacobian_bracket(v1: VectorField, v2: VectorField, p):
    """D(vhat2) vhat1 - D(vhat1) vhat2 by direct jet evaluation, independent
    of the structural pipeline."""
    n = v1.space.dim
    w1 = [primal_value(v) for v in v1.vhat(p)]
    w2 = [primal_value(v) for v in v2.vhat(p)]
    a = tangent(v2.vhat)(list(p) + w1)[n:]
    b = tangent(v1.vhat)(list(p) + w2)[n:]
    return [primal_value(x) - primal_value(y) for x, y in zip(a, b)]


def _fd_bracket(v1: VectorField, v2: VectorField, p, h: float = 1e-5):
    """Central-difference bracket oracle."""
    n = v1.space.dim
    w1 = [primal_value(v) for v in v1.vhat(p)]
    w2 = [primal_value(v) for v in v2.vhat(p)]

    def jac_times(vhat, vec):
        out = [0.0] * n
        for j in range(n):
            hi, lo = list(p), list(p)
            hi[j] += h
            lo[j] -= h
            fp = [primal_value(v) for v in vhat(hi)]
            fm = [primal_value(v) for v in vhat(lo)]
            for i in range(n):
                out[i] += (fp[i] - fm[i]) / (2 * h) * vec[j]
        return out

    a = jac_times(v2.vhat, w1)
    b = jac_times(v1.vhat, w2)
    return [x - y for x, y in zip(a, b)]


def suite_vf(seed: int = DEFAULT_SEED, cfg=DEFAULT_CONFIG, quick: bool = False):
    tol = 1e-9
    rng = random.Random(seed)
    checks = []
    rot = rotation_field()
    eul = euler_space_field(Space(2))

    zc = commutes(rot, zero_field(Space(2)), tol=tol, seed=seed)
    checks.append(LawCheck("zero-commutes", zc.passed, zc.max_residual, zc.witness, seed))

    def linear_commutation(should, i):
        draw = _commuting_pair if should else _noncommuting_pair
        A, B = draw(rng, 2 + (i % 2))
        c = commutes(LinearVectorField(A), LinearVectorField(B), tol=tol, seed=seed)
        if c.passed == should:
            return True, 0.0
        # a missed commuting pair reports its residual, a false positive 1
        return False, c.max_residual if should else 1.0

    cases = product((True, False), range(5))
    checks.append(_detector("linear-commutation", cases, linear_commutation, seed))

    c12 = commutes(rot, eul, tol=tol, seed=seed)
    c21 = commutes(eul, rot, tol=tol, seed=seed)
    checks.append(
        LawCheck(
            "commutes-symmetric",
            c12.passed == c21.passed,
            abs(c12.max_residual - c21.max_residual),
            None,
            seed,
        )
    )

    def self_commutation(v):
        c = commutes(v, v, tol=tol, seed=seed)
        return c.passed, c.max_residual

    cases = zip((rot, eul, VectorField.from_expr("x1*x2; sin(x1)", 2)))
    checks.append(_detector("self-commutation", cases, self_commutation, seed))

    v1 = VectorField.from_expr("x2^2; x1", 2)
    v2 = VectorField.from_expr("sin(x2); x1*x2", 2)
    bracket = lie_bracket(v1, v2)

    for law, oracle, count, pts_seed, law_tol in (
        ("bracket-jacobian", _jacobian_bracket, 50, seed, 1e-12),
        ("bracket-finite-difference", _fd_bracket, 25, seed + 4, 1e-5),
    ):
        pts = zip(sample_points(2, count=count, seed=pts_seed))
        residual = lambda p: gap(bracket.vhat(p), oracle(v1, v2, p))
        checks.append(law_check(law, pts, residual, law_tol, seed))

    def related_brackets(_):
        n = rng.choice((2, 3))
        P = _invertible(rng, n)
        Pinv = np.linalg.inv(P)
        A1 = np.array(sample_matrix(n, rng))
        A2 = np.array(sample_matrix(n, rng))
        W1, W2 = P @ A1 @ Pinv, P @ A2 @ Pinv
        fmap = LinearVectorField(P).vhat
        va1, va2 = LinearVectorField(A1), LinearVectorField(A2)
        wb1, wb2 = LinearVectorField(W1), LinearVectorField(W2)
        m1 = is_vf_morphism(fmap, va1, wb1, tol=1e-9, seed=seed)
        m2 = is_vf_morphism(fmap, va2, wb2, tol=1e-9, seed=seed)
        mb = is_vf_morphism(
            fmap, lie_bracket(va1, va2), lie_bracket(wb1, wb2), tol=1e-7, seed=seed
        )
        return m1.passed and m2.passed and mb.passed, mb.max_residual

    cases = zip(range(10))
    checks.append(_detector("f-relatedness-bracket", cases, related_brackets, seed))

    def pair_predicate(va, vb, should):
        cm = commutes(va, vb, tol=tol, seed=seed)
        morph = is_vf_morphism(vb.full_map, va, tangent_lift(va), tol=tol, seed=seed)
        return (
            cm.passed == morph.passed == should,
            abs(cm.max_residual - morph.max_residual),
        )

    shear_a = LinearVectorField([[0.0, 1.0], [0.0, 0.0]])
    shear_b = LinearVectorField([[0.0, 0.0], [1.0, 0.0]])
    cases = [(rot, eul, True), (shear_a, shear_b, False)]
    checks.append(_detector("pair-commuting-predicate", cases, pair_predicate, seed))

    return checks


# -- curve -------------------------------------------------------------------------


def suite_curve(seed: int = DEFAULT_SEED, cfg=DEFAULT_CONFIG, quick: bool = False):
    tol = 1e-9
    checks = list(curve().self_check())
    sigma = sigma_flow(cfg)

    def s(t, x):
        return primal_value(sigma.evaluate(t, [x])[0])

    eta_map = eta(cfg)

    def minus(t):
        return primal_value(eta_map([t])[0])

    law = partial(law_check, tol=tol, seed=seed)
    grid, grid2 = list(zip(SIGMA_GRID)), list(product(SIGMA_GRID, SIGMA_GRID))
    return checks + [
        law("sigma-addition", grid2, lambda t, x: abs(s(t, x) - (t + x))),
        law("sigma-unit", grid, lambda x: gap([s(0.0, x), s(x, 0.0)], [x, x])),
        law("sigma-commutative", grid2, lambda t, x: abs(s(t, x) - s(x, t))),
        law(
            "sigma-associative",
            product(SIGMA_GRID, SIGMA_GRID, SIGMA_GRID),
            lambda t, u, x: abs(s(t, s(u, x)) - s(s(t, u), x)),
        ),
        law(
            "eta-negation", zip(SIGMA_GRID + (1.5, -0.75)), lambda t: abs(minus(t) + t)
        ),
        law("group-inverse", grid, lambda t: abs(s(t, minus(t)))),
    ]


# -- flows -------------------------------------------------------------------------


def rotation_closed_flow() -> Flow:
    def evaluate(t, xs):
        c, s = jcos(t), jsin(t)
        return [c * xs[0] + s * xs[1], -s * xs[0] + c * xs[1]]

    return Flow(Space(2), evaluate, {"kind": "exact closed form"})


def euler_closed_flow(n: int) -> Flow:
    def evaluate(t, xs):
        g = jexp(t)
        return [g * x for x in xs]

    return Flow(Space(n), evaluate, {"kind": "exact closed form"})


def tangent_of_solution_residual(flow: Flow, v: VectorField, g_scale: float, t, x):
    """Residual of the claim that (t, x) -> V(flow(t, g x)) solves the lifted
    system with initial map g V, for the linear g = g_scale * id."""
    lift = tangent_lift(v)

    def candidate(t, xs):
        y = flow.evaluate(t, [g_scale * q for q in xs])
        return list(y) + list(v.vhat(y))

    vals, rates = time_derivative(candidate, t, x)
    return gap(rates, lift.vhat([primal_value(q) for q in vals]))


def solution_square_residuals(flow_eval, v: VectorField, t: float, x):
    """Full and hat-p-projected residuals of the solution square at (t, x)."""
    n = v.space.dim
    fmap = SmoothMap(
        Space(1 + n), Space(n), lambda xs: flow_eval(xs[0], xs[1:]), name="cand"
    )
    out = tangent(fmap)([t] + list(x) + [1.0] + [0.0] * n)
    plain = [primal_value(q) for q in flow_eval(t, list(x))]
    want = v.vhat(plain)
    return gap(out, plain + list(want)), gap(out[n:], want)


def suite_flows(seed: int = DEFAULT_SEED, cfg=DEFAULT_CONFIG, quick: bool = False):
    rng = random.Random(seed)
    checks = []
    times = (-1.0, -0.5, 0.0, 0.5, 1.0)
    pts2 = sample_points(2, count=5 if quick else 8, seed=seed)

    got = integrate(
        DynamicalSystem(Space(1), euler_space_field(Space(1))), 1.0, [1.0], cfg
    )
    r = abs(got[0] - math.e)
    checks.append(LawCheck("e-value", r <= 1e-8, r, (1.0,), seed))

    def generator_roundtrip(i):
        A = np.array(sample_matrix(2 if i % 2 == 0 else 3, rng))
        return gap(matrix_of(generator(linear_flow(A))).ravel(), A.ravel())

    worst, _ = worst_case(zip(range(4 if quick else 8)), generator_roundtrip)
    checks.append(_law("generator-roundtrip", worst, 1e-9, None, seed))

    def flow_roundtrip(closed):
        numeric = flow_of(generator(closed), cfg)
        return worst_case(
            product(times, pts2[:5]),
            lambda t, x: gap(numeric.evaluate(t, list(x)), closed.evaluate(t, list(x))),
        )[0]

    worst, _ = worst_case(
        zip((rotation_closed_flow(), euler_closed_flow(2))), flow_roundtrip
    )
    checks.append(_law("flow-roundtrip", worst, 1e-6, None, seed))

    A = np.array(sample_matrix(2, rng))
    for c in flow_laws(
        linear_flow(A), samples=pts2[:5], tol=1e-9, times=times, seed=seed
    ):
        checks.append(c)
    rot_flow = flow_of(rotation_field(), cfg)
    for c in flow_laws(
        rot_flow, samples=pts2[:4], tol=1e-6, times=times, seed=seed
    ):
        checks.append(c)

    def interchange(should, _):
        A, B = (_commuting_pair if should else _noncommuting_pair)(rng, 2)
        rep = commuting_flows_check(
            LinearVectorField(A),
            LinearVectorField(B),
            samples=pts2[:5],
            tol=1e-6,
            times=times,
            seed=seed,
            cfg=cfg,
        )
        if should:
            return all(c.passed for c in rep), rep[0].max_residual
        swapped, comm = rep[0], rep[1]
        fired = not swapped.passed and not comm.passed
        return fired and swapped.max_residual >= 1e-3, 0.0

    cases = product((True, False), range(2 if quick else 4))
    checks.append(_detector("flow-interchange", cases, interchange, seed))

    def sum_agreement(_):
        A, B = _commuting_pair(rng, 2)
        sflow = sum_flow(LinearVectorField(A), LinearVectorField(B), cfg)
        target = linear_flow(A + B)
        swapped = sum_flow(LinearVectorField(B), LinearVectorField(A), cfg)
        return worst_case(
            product((target, swapped), (0.5, 1.0), pts2[:5]),
            lambda other, t, x: gap(
                sflow.evaluate(t, list(x)), other.evaluate(t, list(x))
            ),
        )[0]

    worst, _ = worst_case(zip(range(2 if quick else 4)), sum_agreement)
    checks.append(_law("sum-flow-agreement", worst, 1e-6, None, seed))

    A = np.array(sample_matrix(2, rng))
    backward, negated = reverse(linear_flow(A), cfg), linear_flow(-A)
    eta_map = eta(cfg)

    def reverse_inverse(x):
        got = [q for t in times for q in backward.evaluate(t, list(x))]
        want = [q for t in times for q in negated.evaluate(t, list(x))]
        moved = rot_flow.evaluate(0.7, x)
        back = rot_flow.evaluate(primal_value(eta_map([0.7])[0]), moved)
        return gap(got + back, want + list(x))

    worst, _ = worst_case(zip(pts2[:5]), reverse_inverse)
    checks.append(_law("reverse-inverse", worst, 1e-6, None, seed))

    v = rotation_field()
    worst, _ = worst_case(
        product(times, pts2[:4]),
        lambda t, x: tangent_of_solution_residual(rot_flow, v, 2.0, t, x),
    )
    checks.append(_law("tangent-of-solution", worst, 1e-6, None, seed))

    corrupted = lambda tt, xs: [
        xi + tt * wi
        for xi, wi in zip(xs, v.vhat([primal_value(q) for q in xs]))
    ]

    def criterion(t, x):
        full_r, proj_r = solution_square_residuals(rot_flow.evaluate, v, t, x)
        full_b, proj_b = solution_square_residuals(corrupted, v, t, x)
        return gap([full_r, full_b], [proj_r, proj_b])

    worst, _ = worst_case(product(times, pts2[:4]), criterion)
    checks.append(_law("diff-object-criterion", worst, 1e-9, None, seed))

    def expm_agreement(_):
        A = np.array(sample_matrix(2, rng))
        fl = flow_of(LinearVectorField(A), cfg)
        E = {t: expm(t * A) for t in (-1.0, 0.5, 1.0)}
        return worst_case(
            product(E, pts2[:4]), lambda t, x: gap(fl.evaluate(t, x), E[t] @ np.array(x))
        )[0]

    worst, _ = worst_case(zip(range(3 if quick else 6)), expm_agreement)
    checks.append(_law("expm-vs-integrator", worst, 1e-6, None, seed))

    def morphism_equivalence(should):
        P = _invertible(rng, 2)
        A1 = np.array(sample_matrix(2, rng))
        if should:
            A2 = P @ A1 @ np.linalg.inv(P)
        else:
            while True:
                A2 = np.array(sample_matrix(2, rng))
                if np.max(np.abs(P @ A2 - A1 @ P)) > 0.05:
                    break
        fmap = LinearVectorField(P).vhat
        morph = is_vf_morphism(
            fmap, LinearVectorField(A1), LinearVectorField(A2), tol=1e-9, seed=seed
        )
        fl1, fl2 = linear_flow(A1), linear_flow(A2)
        fworst, _ = worst_case(
            product(times, pts2[:5]),
            lambda t, x: gap(
                fmap([primal_value(u) for u in fl1.evaluate(t, x)]),
                fl2.evaluate(t, fmap(list(x))),
            ),
        )
        right = morph.passed == (fworst <= 1e-6) == should
        return right, fworst if should else 0.0

    cases = [(True,), (False,)]
    checks.append(_detector("flow-morphism-equivalence", cases, morphism_equivalence, seed))

    quad = VectorField.from_expr("x1^2", 1)
    try:
        integrate(DynamicalSystem(Space(1), quad), 1.0, [1.0], cfg)
        blew, t_reached = False, 0.0
    except StepSizeCollapse as e:
        blew, t_reached = True, e.t_reached
    ok = blew and 0.99 <= t_reached <= 1.0
    checks.append(
        LawCheck("blowup-detection", ok, abs(1.0 - t_reached), (t_reached,), seed)
    )

    flat = Connection(
        2, SmoothMap(Space(4), Space(2), lambda xs: [0.0, 0.0], name="flat")
    )
    gflow = geodesic_flow(flat, cfg)
    worst, _ = worst_case(
        product(sample_points(4, count=5, seed=seed), (0.5, 1.0)),
        lambda x, t: gap(
            gflow.evaluate(t, x), [x[0] + t * x[2], x[1] + t * x[3], x[2], x[3]]
        ),
    )
    checks.append(_law("geodesic-flat", worst, 1e-8, None, seed))

    half_conn = half_plane_connection()
    checks.append(
        _law(
            "christoffel-quadratic",
            half_conn.quadratic_check().max_residual,
            1e-9,
            None,
            seed,
        )
    )
    half = geodesic_flow(half_conn, cfg)

    def drift(t):
        x, y = [primal_value(q) for q in half.evaluate(t, [0.0, 1.0, 1.0, 0.0])[:2]]
        return abs(x**2 + y**2 - 1.0)

    worst, _ = worst_case(zip([0.25 * k for k in range(9)]), drift)
    checks.append(_law("geodesic-semicircle", worst, 1e-5, None, seed))

    acc, _ = worst_case(
        [
            (gflow, sample_points(4, count=3, seed=seed)),
            (half, [[0.0, 1.0, 1.0, 0.0]], (0.5, 1.0, 2.0)),
        ],
        acceleration_residual,
    )
    checks.append(_law("geodesic-acceleration", acc, 1e-6, None, seed))

    sys_rot = DynamicalSystem(Space(2), rotation_field())
    a1 = integrate(sys_rot, 1.0, [1.0, 0.5], cfg)
    a2 = integrate(sys_rot, 1.0, [1.0, 0.5], cfg)
    det = gap(a1, a2)
    checks.append(LawCheck("integrator-determinism", det == 0.0, det, None, seed))

    return checks


def half_plane_connection() -> Connection:
    """Christoffel data of the hyperbolic upper half-plane in the flat chart."""

    def ev(xs):
        y, u1, u2 = xs[1], xs[2], xs[3]
        return [(-2.0 * u1 * u2) / y, (u1 * u1 - u2 * u2) / y]

    return Connection(2, SmoothMap(Space(4), Space(2), ev, name="half_plane"))


# -- rig and action ------------------------------------------------------------------


def suite_rig(seed: int = DEFAULT_SEED, cfg=DEFAULT_CONFIG, quick: bool = False):
    checks = list(rig_suite(cfg=cfg, seed=seed))
    e = e_map(cfg)
    r = abs(primal_value(e([1.0])[0]) - math.e)
    checks.append(LawCheck("e-value", r <= 1e-8, r, (1.0,), seed))

    de = tangent(e)
    checks.append(
        law_check(
            "de-is-exp-flow",
            product((-2.0, -1.0, 0.0, 0.5, 1.0, 2.0), (-1.5, -0.5, 1.0, 2.0)),
            lambda t, v: abs(primal_value(de([t, v])[1]) - v * math.exp(t)),
            1e-7,
            seed,
        )
    )
    checks.append(
        law_check(
            "multiply-scalar",
            [(1.5 * a, 1.5 * b) for a, b in sample_points(2, count=20, seed=seed)],
            lambda a, b: abs(primal_value(multiply(a, b, cfg=cfg, e=e)) - a * b),
            1e-7,
            seed,
        )
    )
    return checks


def suite_action(seed: int = DEFAULT_SEED, cfg=DEFAULT_CONFIG, quick: bool = False):
    checks = []
    bundles = [TrivialBundle(0, 2), TrivialBundle(1, 1)]
    if not quick:
        bundles += [TrivialBundle(2, 3), TrivialBundle(3, 3)]

    acts = {(b.base_dim, b.fibre_dim): action(b, cfg) for b in bundles}

    def scaling(n, m, row):
        s, p = row[0], row[1:]
        return gap(acts[n, m](row), p[:n] + [s * a for a in p[n:]])

    worst, wit = worst_case(
        (
            (n, m, row)
            for n, m in acts
            for row in sample_points(1 + n + m, count=6, seed=seed)
        ),
        scaling,
    )
    # the witness names the bundle and the scalar: (n, m, s)
    wit = wit and tuple(float(w) for w in wit[:3])
    checks.append(LawCheck("action-is-scaling", worst <= 1e-6, worst, wit, seed))

    for bundle in bundles[:2] if quick else bundles[:3]:
        checks.extend(action_suite(bundle, tol=1e-6, cfg=cfg, seed=seed))

    b11 = TrivialBundle(1, 1)
    family = [
        (SmoothMap(Space(2), Space(2), lambda xs: [xs[0], 2.0 * xs[1]], name="double"), True),
        (SmoothMap(Space(2), Space(2), lambda xs: [xs[0], xs[1] * xs[1]], name="square"), False),
        (identity_map(Space(2)), True),
        (
            SmoothMap(
                Space(2),
                Space(2),
                lambda xs: [xs[0], (1.0 + xs[0] * xs[0]) * xs[1]],
                name="xdep",
            ),
            True,
        ),
        (
            SmoothMap(Space(2), Space(2), lambda xs: [xs[0], xs[1] + 0.5], name="affine"),
            False,
        ),
    ]
    ok, disagreements = True, 0
    for fmap, is_lin in family:
        rep = linearity_via_action(fmap, b11, b11, tol=1e-6, cfg=cfg, seed=seed)
        if not rep.agreement:
            disagreements += 1
        ok &= rep.agreement and rep.is_linear.passed == is_lin
    checks.append(LawCheck("linearity-equivalence", ok, float(disagreements), None, seed))
    return checks


SUITES = {
    "kernel": suite_kernel,
    "vf": suite_vf,
    "curve": suite_curve,
    "flows": suite_flows,
    "rig": suite_rig,
    "action": suite_action,
}


def run_suite(
    name: str,
    seed: int = DEFAULT_SEED,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
    quick: bool = False,
) -> list[LawCheck]:
    if name == "all":
        return [c for suite in SUITES.values() for c in suite(seed, cfg, quick)]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](seed, cfg, quick)
