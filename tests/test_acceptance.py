"""Acceptance gate: every criterion at its stated tolerance, one printed
pass line each (run with ``pytest tests/test_acceptance.py -v -s``)."""

import io
import json
import math
import random

import numpy as np
import pytest

from tangentkit.cli import dispatch
from tangentkit.dynamics import (
    Connection,
    DynamicalSystem,
    StepSizeCollapse,
    acceleration_residual,
    commuting_flows_check,
    eta,
    flow_of,
    generator,
    geodesic_flow,
    integrate,
    linear_flow,
    sigma_flow,
    solve_nth_order,
    sum_flow,
)
from tangentkit.fields import (
    LinearVectorField,
    VectorField,
    euler_space_field,
    is_vf_morphism,
    lie_bracket,
    matrix_of,
)
from tangentkit.jets import primal_value
from tangentkit.kernel import SmoothMap, Space, TrivialBundle, identity_map, tangent
from tangentkit.rig import (
    action,
    action_suite,
    e_map,
    linearity_via_action,
    multiply,
    rig_suite,
)
from tangentkit.sampling import sample_matrix, sample_points
from tangentkit.verify import (
    _commuting_pair,
    _fd_bracket,
    _jacobian_bracket,
    _noncommuting_pair,
    euler_closed_flow,
    half_plane_connection,
    rotation_closed_flow,
    suite_kernel,
)

SEED = 20240
_vals = lambda xs: [primal_value(v) for v in xs]


def report(name: str, detail: str):
    print(f"PASS {name}: {detail}")


def test_criterion_1_kernel_exactness():
    checks = suite_kernel(seed=SEED)
    for check in checks:
        assert check.passed, (check.law, check.max_residual)
    worst = max(c.max_residual for c in checks)
    report("criterion-1", f"{len(checks)} kernel identities exact at 1e-12 "
                          f"(worst residual {worst:.2e})")


def test_criterion_2_euler_flow_reaches_e():
    got = integrate(
        DynamicalSystem(Space(1), euler_space_field(Space(1))), 1.0, [1.0]
    )
    err = abs(got[0] - math.e)
    assert err <= 1e-8
    report("criterion-2", f"unit-coefficient flow from 1 reaches e (err {err:.2e})")


def test_criterion_3_sigma_monoid_and_group():
    sigma = sigma_flow()
    s = lambda t, x: primal_value(sigma.evaluate(t, [x])[0])
    grid = (-2.0, -1.0, 0.0, 1.0, 2.0)
    worst = max(abs(s(t, x) - (t + x)) for t in grid for x in grid)
    assert worst <= 1e-9
    unit = max(max(abs(s(0.0, x) - x), abs(s(x, 0.0) - x)) for x in grid)
    comm = max(abs(s(t, x) - s(x, t)) for t in grid for x in grid)
    assoc = max(
        abs(s(t, s(u, x)) - s(s(t, u), x)) for t in grid for u in grid for x in grid
    )
    assert max(unit, comm, assoc) <= 1e-9
    eta_map = eta()
    group = max(abs(s(t, primal_value(eta_map([t])[0]))) for t in grid)
    assert group <= 1e-9
    report(
        "criterion-3",
        f"sigma is addition (worst {worst:.2e}); unit/comm/assoc <= "
        f"{max(unit, comm, assoc):.2e}; group inverse <= {group:.2e}",
    )


def test_criterion_4_generator_flow_bijection():
    rng = random.Random(SEED)
    worst_m = 0.0
    for n in (2, 3):
        for _ in range(10):
            A = np.array(sample_matrix(n, rng))
            got = matrix_of(generator(linear_flow(A)))
            worst_m = max(worst_m, float(np.max(np.abs(got - A))))
    assert worst_m <= 1e-9

    worst_f = 0.0
    for closed in (rotation_closed_flow(), euler_closed_flow(2)):
        numeric = flow_of(generator(closed))
        for t in (-1.0, -0.5, 0.5, 1.0):
            for x in sample_points(2, count=5, seed=SEED):
                a = numeric.evaluate(t, x)
                b = closed.evaluate(t, x)
                worst_f = max(
                    worst_f,
                    max(abs(primal_value(u) - primal_value(v)) for u, v in zip(a, b)),
                )
    assert worst_f <= 1e-6
    report(
        "criterion-4",
        f"20 generator/flow matrix round-trips <= {worst_m:.2e}; "
        f"flow-of-generator round-trips <= {worst_f:.2e}",
    )


def _acceptance_pairs():
    rng = random.Random(SEED + 1)
    commuting = [_commuting_pair(rng, 2) for _ in range(10)]
    noncommuting = [_noncommuting_pair(rng, 2) for _ in range(10)]
    return commuting, noncommuting


def test_criterion_5_commuting_flows_theorem():
    commuting, noncommuting = _acceptance_pairs()
    times = (-1.0, -0.5, 0.5, 1.0)
    pts = sample_points(2, count=5, seed=SEED)
    worst_pos = 0.0
    for A, B in commuting:
        rep = commuting_flows_check(
            LinearVectorField(A), LinearVectorField(B),
            samples=pts, tol=1e-6, times=times, seed=SEED,
        )
        assert all(c.passed for c in rep), [(c.law, c.max_residual) for c in rep]
        worst_pos = max(worst_pos, rep[0].max_residual)
    worst_neg = math.inf
    for A, B in noncommuting:
        rep = commuting_flows_check(
            LinearVectorField(A), LinearVectorField(B),
            samples=pts, tol=1e-6, times=times, seed=SEED,
        )
        interchange, comm = rep[0], rep[1]
        assert not comm.passed
        assert interchange.max_residual >= 1e-3
        worst_neg = min(worst_neg, interchange.max_residual)
    report(
        "criterion-5",
        f"10 commuting pairs: all four predicates pass (interchange <= "
        f"{worst_pos:.2e}); 10 non-commuting pairs detected "
        f"(interchange >= {worst_neg:.2e})",
    )


def test_criterion_6_sum_of_commuting_fields():
    commuting, _ = _acceptance_pairs()
    pts = sample_points(2, count=5, seed=SEED)
    worst = 0.0
    for A, B in commuting:
        sflow = sum_flow(LinearVectorField(A), LinearVectorField(B))
        target = linear_flow(A + B)
        for t in (0.5, 1.0):
            for x in pts:
                a = sflow.evaluate(t, x)
                b = target.evaluate(t, x)
                worst = max(
                    worst,
                    max(abs(primal_value(u) - primal_value(v)) for u, v in zip(a, b)),
                )
    assert worst <= 1e-6
    report("criterion-6", f"sum flow matches the flow of the sum (worst {worst:.2e})")


def test_criterion_7_lie_bracket_routes():
    v1 = VectorField.from_expr("x2^2; x1", 2)
    v2 = VectorField.from_expr("sin(x2); x1*x2", 2)
    bracket = lie_bracket(v1, v2)
    worst_j, worst_fd = 0.0, 0.0
    for p in sample_points(2, count=100, seed=SEED):
        got = _vals(bracket.vhat(p))
        worst_j = max(
            worst_j,
            max(abs(a - b) for a, b in zip(got, _jacobian_bracket(v1, v2, p))),
        )
    for p in sample_points(2, count=25, seed=SEED + 1):
        got = _vals(bracket.vhat(p))
        worst_fd = max(
            worst_fd, max(abs(a - b) for a, b in zip(got, _fd_bracket(v1, v2, p)))
        )
    assert worst_j <= 1e-12
    assert worst_fd <= 1e-5

    rng = random.Random(SEED + 2)
    for _ in range(10):
        n = rng.choice((2, 3))
        while True:
            P = np.array(sample_matrix(n, rng))
            if abs(np.linalg.det(P)) > 0.3:
                break
        Pinv = np.linalg.inv(P)
        A1 = np.array(sample_matrix(n, rng))
        A2 = np.array(sample_matrix(n, rng))
        va1, va2 = LinearVectorField(A1), LinearVectorField(A2)
        wb1, wb2 = LinearVectorField(P @ A1 @ Pinv), LinearVectorField(P @ A2 @ Pinv)
        rows = [tuple(map(float, row)) for row in P]
        fmap = SmoothMap(
            Space(n), Space(n),
            lambda xs, rows=rows: [sum(a * x for a, x in zip(r, xs)) for r in rows],
        )
        assert is_vf_morphism(fmap, va1, wb1, tol=1e-9, seed=SEED).passed
        assert is_vf_morphism(fmap, va2, wb2, tol=1e-9, seed=SEED).passed
        assert is_vf_morphism(
            fmap, lie_bracket(va1, va2), lie_bracket(wb1, wb2), tol=1e-7, seed=SEED
        ).passed
    report(
        "criterion-7",
        f"bracket pipeline vs jacobian {worst_j:.2e} (<=1e-12), vs finite "
        f"differences {worst_fd:.2e} (<=1e-5); relatedness preserved on 10 instances",
    )


def test_criterion_8_blow_up_detection():
    quad = DynamicalSystem(Space(1), VectorField.from_expr("x1^2", 1))
    with pytest.raises(StepSizeCollapse) as info:
        integrate(quad, 1.0, [1.0])
    assert 0.99 <= info.value.t_reached <= 1.0
    report(
        "criterion-8",
        f"quadratic field from 1 collapses at t={info.value.t_reached:.6f} "
        f"(in [0.99, 1.0]; closed form blows at 1)",
    )


def test_criterion_9_second_order_system():
    vf = VectorField.from_expr("x2; -x2-x1", 2)
    system = DynamicalSystem(Space(1), vf, order=2)
    closed = lambda t: (2.0 / math.sqrt(3.0)) * math.exp(-t / 2.0) * math.sin(
        math.sqrt(3.0) * t / 2.0
    )
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        got = solve_nth_order(system, t, [0.0, 1.0])
        worst = max(worst, abs(got[0] - closed(t)))
    assert worst <= 1e-6
    report(
        "criterion-9",
        f"damped oscillator matches characteristic-roots closed form "
        f"(worst {worst:.2e} at t in {{0.5, 1, 2}})",
    )


def test_criterion_10_geodesics():
    flat = Connection(2, SmoothMap(Space(4), Space(2), lambda xs: [0.0, 0.0]))
    flat_flow = geodesic_flow(flat)
    worst_flat = 0.0
    for x in sample_points(4, count=5, seed=SEED):
        for t in (0.5, 1.0, 2.0):
            got = flat_flow.evaluate(t, x)
            want = [x[0] + t * x[2], x[1] + t * x[3], x[2], x[3]]
            worst_flat = max(
                worst_flat, max(abs(primal_value(u) - w) for u, w in zip(got, want))
            )
    assert worst_flat <= 1e-8

    half = geodesic_flow(half_plane_connection())
    drift = 0.0
    for k in range(9):
        pt = half.evaluate(0.25 * k, [0.0, 1.0, 1.0, 0.0])
        drift = max(
            drift, abs(primal_value(pt[0]) ** 2 + primal_value(pt[1]) ** 2 - 1.0)
        )
    assert drift <= 1e-5

    acc = max(
        acceleration_residual(flat_flow, sample_points(4, count=3, seed=SEED)),
        acceleration_residual(half, [[0.0, 1.0, 1.0, 0.0]], times=(0.5, 1.0, 2.0)),
    )
    assert acc <= 1e-6
    report(
        "criterion-10",
        f"flat geodesics linear (worst {worst_flat:.2e}); half-plane geodesic "
        f"on its semicircle (drift {drift:.2e}); acceleration residual {acc:.2e}",
    )


def test_criterion_11_exponential_rig():
    e = e_map()
    assert abs(e([0.0])[0] - 1.0) <= 1e-9
    de = tangent(e)
    worst_de = 0.0
    for t in (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0):
        for v in (-1.5, -0.5, 1.0, 2.0):
            worst_de = max(
                worst_de, abs(primal_value(de([t, v])[1]) - v * math.exp(t))
            )
    assert worst_de <= 1e-7
    worst_m = 0.0
    for a, b in sample_points(2, count=25, seed=SEED):
        a, b = 1.5 * a, 1.5 * b
        worst_m = max(worst_m, abs(primal_value(multiply(a, b, e=e)) - a * b))
    assert worst_m <= 1e-7
    checks = rig_suite(tol=1e-6, seed=SEED)
    assert all(c.passed for c in checks), [(c.law, c.max_residual) for c in checks]
    worst_r = max(c.max_residual for c in checks)
    report(
        "criterion-11",
        f"e(0)=1; D(e) is the scaling flow ({worst_de:.2e}); multiply on "
        f"[-3,3]^2 ({worst_m:.2e}); rig laws <= {worst_r:.2e}",
    )


def test_criterion_12_bundle_action():
    worst_scale = 0.0
    for bundle in (
        TrivialBundle(0, 1),
        TrivialBundle(0, 3),
        TrivialBundle(1, 1),
        TrivialBundle(2, 3),
        TrivialBundle(3, 3),
    ):
        n = bundle.base_dim
        act = action(bundle)
        for row in sample_points(1 + n + bundle.fibre_dim, count=6, seed=SEED):
            s, p = row[0], row[1:]
            got = _vals(act([s] + list(p)))
            want = list(p[:n]) + [s * a for a in p[n:]]
            worst_scale = max(worst_scale, max(abs(u - w) for u, w in zip(got, want)))
    assert worst_scale <= 1e-6

    worst_suite, worst_a4 = 0.0, 0.0
    for bundle in (TrivialBundle(1, 1), TrivialBundle(2, 3), TrivialBundle(3, 3)):
        checks = {c.law: c for c in action_suite(bundle, tol=1e-6, seed=SEED)}
        assert all(c.passed for c in checks.values()), [
            (c.law, c.max_residual) for c in checks.values() if not c.passed
        ]
        worst_suite = max(worst_suite, max(c.max_residual for c in checks.values()))
        worst_a4 = max(worst_a4, checks["action-derivative-is-lift"].max_residual)
    assert worst_a4 <= 1e-7

    b11 = TrivialBundle(1, 1)
    family = [
        (SmoothMap(Space(2), Space(2), lambda xs: [xs[0], 2.0 * xs[1]]), True),
        (SmoothMap(Space(2), Space(2), lambda xs: [xs[0], -0.75 * xs[1]]), True),
        (SmoothMap(Space(2), Space(2), lambda xs: [xs[0], xs[1] * xs[1]]), False),
        (SmoothMap(Space(2), Space(2), lambda xs: [xs[0], (1.0 + xs[0] ** 2) * xs[1]]), True),
        (SmoothMap(Space(2), Space(2), lambda xs: [xs[0], xs[1] + 0.5]), False),
        (SmoothMap(Space(2), Space(2), lambda xs: [xs[0], xs[1] ** 3]), False),
        (identity_map(Space(2)), True),
    ]
    disagreements = 0
    for fmap, is_lin in family:
        rep = linearity_via_action(fmap, b11, b11, tol=1e-6, seed=SEED)
        if not rep.agreement:
            disagreements += 1
        assert rep.is_linear.passed == is_lin
    assert disagreements == 0
    report(
        "criterion-12",
        f"action is fibrewise scaling up to (3,3) ({worst_scale:.2e}); "
        f"A1-A5 <= {worst_suite:.2e}; lift derivative <= {worst_a4:.2e}; "
        f"linearity iff action preservation with 0 disagreements over "
        f"{len(family)} maps",
    )


def test_criterion_13_cli_determinism():
    def run(argv):
        out = io.StringIO()
        code = dispatch(argv, stdout=out)
        return code, out.getvalue()

    for argv in (
        ["verify", "--suite", "curve", "--seed", "11"],
        ["verify", "--suite", "vf", "--seed", "11"],
        ["solve", "--dim", "2", "--vf", "x2; -x1", "--t", "1", "--x0", "1,0"],
    ):
        code_a, a = run(argv)
        code_b, b = run(argv)
        assert code_a == code_b
        assert a.encode() == b.encode()
    json.loads(a)  # the last payload is valid JSON as well
    report("criterion-13", "repeated CLI runs with fixed seed are byte-identical")
