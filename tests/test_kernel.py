"""Tangent-functor kernel: exactness, structural maps, the bracket.

Coordinate layouts referenced as "rule N" are docs/layout.md.
"""

import math

import pytest

from tangentkit import dsl
from tangentkit.jets import Jet, primal_value
from tangentkit.kernel import (
    ShapeError,
    SmoothMap,
    Space,
    TrivialBundle,
    VerticalityViolation,
    compose,
    identity_map,
    pair,
    product,
    product_interleave,
    product_interleave_inv,
    structural_map,
    tangent,
    vertical_bracket,
)
from tangentkit.sampling import sample_points


def _expr(text, arity):
    return dsl.compile_spec(dsl.parse(text, arity))


def residual(f, g, samples):
    worst = 0.0
    for p in samples:
        worst = max(
            worst,
            max(
                (abs(primal_value(a) - primal_value(b)) for a, b in zip(f(p), g(p))),
                default=0.0,
            ),
        )
    return worst


def test_tangent_of_square():
    f = _expr("x1^2", 1)
    assert tangent(f)([3.0, 1.0]) == [9.0, 6.0]


def test_tangent_of_identity_is_identity():
    tid = tangent(identity_map(Space(3)))
    pts = sample_points(6, count=20, seed=3)
    assert residual(tid, identity_map(Space(6)), pts) == 0.0


def test_second_tangent_of_sin_matches_closed_form():
    # layout rule 3/4: gives (sin x, cos x, cos x, -sin x) at direction (1,1,0)
    f = _expr("sin(x1)", 1)
    out = tangent(tangent(f))([0.7, 1.0, 1.0, 0.0])
    want = [math.sin(0.7), math.cos(0.7), math.cos(0.7), -math.sin(0.7)]
    assert max(abs(a - b) for a, b in zip(out, want)) <= 1e-15


def test_functoriality_on_composites():
    f = _expr("sin(x1)*x2; x1+x2", 2)
    g = _expr("x1*x2; x1^3", 2)
    pts = sample_points(4, count=50, seed=5)
    assert residual(tangent(compose(f, g)), compose(tangent(f), tangent(g)), pts) <= 1e-15


def test_structural_flip_is_involution():
    flip = structural_map("flip", Space(2))
    pts = sample_points(8, count=100, seed=11)
    assert residual(compose(flip, flip), identity_map(Space(8)), pts) == 0.0


def test_ell_then_p_is_zero_of_p():
    # rule 8 coherence: ell T(p) = p 0
    ell = structural_map("ell", Space(2))
    p = structural_map("p", Space(2))
    zero = structural_map("zero", Space(2))
    pts = sample_points(4, count=100, seed=12)
    assert residual(compose(ell, tangent(p)), compose(p, zero), pts) == 0.0


def test_bundle_mu_coordinates():
    # rule 5: mu(2,3,5) has point (2,3) and direction (0,5)
    mu = structural_map("bundle_mu", TrivialBundle(1, 1))
    assert mu([2.0, 3.0, 5.0]) == [2.0, 3.0, 0.0, 5.0]


def test_bundle_mu_agrees_with_zero_lift_sigma_expansion():
    # oracle: mu = (0 x lift) then T(fibre addition), expanded by hand
    bundle = TrivialBundle(2, 2)
    mu = structural_map("bundle_mu", bundle)
    for x1, x2, a1, a2, b1, b2 in sample_points(6, count=25, seed=13):
        got = mu([x1, x2, a1, a2, b1, b2])
        want = [x1, x2, a1, a2, 0.0, 0.0, b1, b2]
        assert got == want


def test_bundle_lift_and_hat_p():
    lift = structural_map("bundle_lift", TrivialBundle(1, 2))
    assert lift([2.0, 3.0, 4.0]) == [2.0, 0.0, 0.0, 0.0, 3.0, 4.0]
    hat = structural_map("hat_p", TrivialBundle(0, 2))
    assert hat([1.0, 2.0, 3.0, 4.0]) == [3.0, 4.0]


def _zeros(block):
    return [0.0] * len(block)


# Each block map's name and its action on blocks, written out by hand from
# docs/layout.md (rules 2, 5, 7 and 8).
_LAYOUT_RULES = {
    "p": ("p", lambda x, dx: [x]),
    "zero": ("zero", lambda x: [x, _zeros(x)]),
    "ell": ("ell", lambda x, v: [x, _zeros(x), _zeros(x), v]),
    "flip": ("flip", lambda x, dx, dlx, dldx: [x, dlx, dx, dldx]),
    "hat_p": ("hat_p", lambda x, v: [v]),
    "bundle_lift": ("lift", lambda x, a: [x, _zeros(a), _zeros(x), a]),
    "bundle_mu": ("mu", lambda x, a1, a2: [x, a1, _zeros(x), a2]),
    "interleave": ("interleave", lambda x1, x2, d1, d2: [x1, d1, x2, d2]),
    "interleave_inv": ("interleave_inv", lambda x1, d1, x2, d2: [x1, x2, d1, d2]),
}


def _block_maps():
    """(rule, map, input block sizes), with blocks of size 0 among them: a
    zero block of size 0 must not be read as input block 0."""
    for n in (0, 1, 3):
        s = Space(n)
        yield "p", structural_map("p", s), (n, n)
        yield "zero", structural_map("zero", s), (n,)
        yield "ell", structural_map("ell", s), (n, n)
        yield "flip", structural_map("flip", s), (n, n, n, n)
        yield "hat_p", structural_map("hat_p", TrivialBundle(0, n)), (n, n)
    for n, m in ((0, 0), (0, 2), (2, 0), (1, 1), (3, 1)):
        b = TrivialBundle(n, m)
        yield "bundle_lift", structural_map("bundle_lift", b), (n, m)
        yield "bundle_mu", structural_map("bundle_mu", b), (n, m, m)
        yield "interleave", product_interleave(Space(n), Space(m)), (n, m, n, m)
        yield "interleave_inv", product_interleave_inv(Space(n), Space(m)), (n, n, m, m)


_BLOCK_MAPS = list(_block_maps())


def _blocks(xs, sizes):
    starts = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
    return [xs[a:b] for a, b in zip(starts, starts[1:])]


@pytest.mark.parametrize(
    "rule, f, sizes",
    _BLOCK_MAPS,
    ids=[f"{rule}-{'.'.join(map(str, sizes))}" for rule, _, sizes in _BLOCK_MAPS],
)
def test_block_maps_follow_the_layout_rules(rule, f, sizes):
    from tangentkit.kernel import pack_jets, unpack_jets

    name, action = _LAYOUT_RULES[rule]
    dim = sum(sizes)
    assert f.name == name and f.domain == Space(dim)
    # on floats and on depth-2 jets (each row packs into dim jet scalars)
    for level in (0, 2):
        for row in sample_points(dim * 2**level, count=3, seed=60 + level):
            xs = pack_jets(row, level)
            want = [v for block in action(*_blocks(xs, sizes)) for v in block]
            assert unpack_jets(f(xs), level) == unpack_jets(want, level)
    # a block map is linear, so its tangent is the layout on both halves
    for row in sample_points(2 * dim, count=3, seed=62):
        assert tangent(f)(row) == f(row[:dim]) + f(row[dim:])


def test_structural_shape_validation():
    with pytest.raises(ShapeError):
        structural_map("hat_p", Space(2))
    with pytest.raises(ShapeError):
        structural_map("hat_p", TrivialBundle(1, 1))
    with pytest.raises(ShapeError):
        structural_map("bundle_mu", Space(3))
    with pytest.raises(ShapeError):
        structural_map("spin", Space(1))


def test_naturality_squares_sampled():
    f = _expr("sin(x1)*x2; x1^2 + tanh(x2)", 2)
    s = Space(2)
    p = structural_map("p", s)
    zero = structural_map("zero", s)
    ell = structural_map("ell", s)
    flip = structural_map("flip", s)
    tm = sample_points(4, count=100, seed=21)
    t2m = sample_points(8, count=100, seed=22)
    m = sample_points(2, count=100, seed=23)
    assert residual(compose(tangent(f), p), compose(p, f), tm) <= 1e-12
    assert residual(compose(f, zero), compose(zero, tangent(f)), m) <= 1e-12
    assert residual(compose(tangent(f), ell), compose(ell, tangent(tangent(f))), tm) <= 1e-12
    assert (
        residual(
            compose(tangent(tangent(f)), flip),
            compose(flip, tangent(tangent(f))),
            t2m,
        )
        <= 1e-12
    )


def test_tangent_matches_hand_derivative_of_polynomial():
    f = _expr("x1^3*x2 + x2^2", 2)
    tf = tangent(f)
    for x1, x2, d1, d2 in sample_points(4, count=100, seed=31):
        got = tf([x1, x2, d1, d2])
        want_val = x1**3 * x2 + x2**2
        want_tan = 3 * x1**2 * x2 * d1 + (x1**3 + 2 * x2) * d2
        assert abs(got[0] - want_val) <= 1e-13
        assert abs(got[1] - want_tan) <= 1e-13


def test_tangent_matches_central_differences():
    f = _expr("sin(x1*x2); exp(x1)*tanh(x2)", 2)
    tf = tangent(f)
    h = 1e-5
    for x1, x2, d1, d2 in sample_points(4, count=50, seed=32):
        got = tf([x1, x2, d1, d2])[2:]
        hi = f([x1 + h * d1, x2 + h * d2])
        lo = f([x1 - h * d1, x2 - h * d2])
        fd = [(a - b) / (2 * h) for a, b in zip(hi, lo)]
        assert max(abs(a - b) for a, b in zip(got, fd)) <= 1e-6


def test_combine_modes():
    f = _expr("2*x1", 1)
    g = _expr("x1^2", 1)
    assert product(f, g)([3.0, 4.0]) == [6.0, 16.0]
    assert compose(f, g)([3.0]) == [36.0]
    assert pair(f, g)([3.0]) == [6.0, 9.0]
    with pytest.raises(ShapeError):
        pair(f, _expr("x1+x2", 2))
    with pytest.raises(ShapeError):
        compose(f, _expr("x1+x2", 2))


def test_pair_of_projections_is_identity():
    s = Space(4)
    pi0 = SmoothMap(s, Space(2), lambda xs: xs[:2], name="pi0")
    pi1 = SmoothMap(s, Space(2), lambda xs: xs[2:], name="pi1")
    pts = sample_points(4, count=30, seed=33)
    assert residual(pair(pi0, pi1), identity_map(s), pts) == 0.0


def test_zero_then_p_is_identity():
    zero = structural_map("zero", Space(3))
    p = structural_map("p", Space(3))
    pts = sample_points(3, count=30, seed=34)
    assert residual(compose(zero, p), identity_map(Space(3)), pts) == 0.0


def test_tangent_of_product_up_to_interleaving():
    # rule 7: T(f x g) = interleave_inv . (T(f) x T(g)) . interleave
    f = _expr("sin(x1)", 1)
    g = _expr("x1*x2", 2)
    lhs = tangent(product(f, g))
    shuffled = compose(
        compose(product_interleave(Space(1), Space(2)), product(tangent(f), tangent(g))),
        product_interleave_inv(f.codomain, g.codomain),
    )
    pts = sample_points(6, count=50, seed=35)
    assert residual(lhs, shuffled, pts) == 0.0


def test_vertical_bracket_extracts_components():
    bundle = TrivialBundle(1, 1)
    f = SmoothMap(Space(2), Space(4), lambda xs: [xs[0], xs[1], 0.0, xs[0] * xs[1]])
    br = vertical_bracket(f, bundle)
    assert br([2.0, 3.0]) == [2.0, 6.0]


def test_vertical_bracket_rejects_nonvertical_values():
    bundle = TrivialBundle(1, 1)
    f = SmoothMap(Space(2), Space(4), lambda xs: [xs[0], xs[1], 0.5, 0.0])
    br = vertical_bracket(f, bundle)
    with pytest.raises(VerticalityViolation) as info:
        br([1.0, 1.0])
    assert info.value.residual == pytest.approx(0.5)


def test_vertical_bracket_rejects_nan_base_direction():
    # max() drops a NaN unless it comes first, and nan > tol is False: the
    # NaN must stick so that the value counts as non-vertical
    m = SmoothMap(Space(2), Space(4), lambda xs: [xs[0], xs[1], float("nan"), 2.0])
    br = vertical_bracket(m, TrivialBundle(1, 1))
    with pytest.raises(VerticalityViolation) as info:
        br([1.0, 3.0])
    assert math.isnan(info.value.residual)


def test_vertical_bracket_of_zero_section_is_projection_zero():
    # the bracket of the constant zero tangent over the zero section is (x, 0)
    bundle = TrivialBundle(2, 2)
    zero_tm = SmoothMap(
        Space(2), Space(8), lambda xs: [xs[0], xs[1], 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    )
    br = vertical_bracket(zero_tm, bundle)
    for p in sample_points(2, count=20, seed=36):
        assert br(p) == [p[0], p[1], 0.0, 0.0]


def test_vertical_bracket_reconstruction():
    bundle = TrivialBundle(2, 1)
    f = SmoothMap(
        Space(2),
        Space(6),
        lambda xs: [xs[0], xs[1], xs[0] + xs[1], 0.0, 0.0, xs[0] * xs[1]],
    )
    br = vertical_bracket(f, bundle)
    lift = structural_map("bundle_lift", bundle)
    for p in sample_points(2, count=50, seed=37):
        original = f(p)
        rebuilt = original[:3] + lift(br(p))[3:]
        assert max(abs(a - b) for a, b in zip(rebuilt, original)) <= 1e-12


def test_vertical_bracket_checks_jet_coefficients_too():
    bundle = TrivialBundle(1, 1)
    f = SmoothMap(Space(2), Space(4), lambda xs: [xs[0], xs[1], 0.0, xs[1]])
    br = vertical_bracket(f, bundle)
    out = br([Jet(1.0, 0.0), Jet(2.0, 1.0)])
    assert primal_value(out[1]) == 2.0

    # a map whose verticality fails only in a derivative coefficient
    g = SmoothMap(Space(2), Space(4), lambda xs: [xs[0], xs[1], 0.0 * xs[0] + 1e-3 * xs[0], xs[1]])
    with pytest.raises(VerticalityViolation):
        vertical_bracket(g, bundle)([1.0, 1.0])


def test_spaces_and_bundles_validate():
    assert Space(2).tangent == Space(4)
    assert Space(3).tangent_power(2) == Space(12)
    with pytest.raises(ValueError):
        Space(-1)
    with pytest.raises(ValueError):
        TrivialBundle(-1, 2)
    assert TrivialBundle(1, 2).total == Space(3)


def test_pack_unpack_round_trip():
    from tangentkit.kernel import pack_jets, unpack_jets

    for level in (0, 1, 2, 3):
        for flat in sample_points(2 * 2**level, count=10, seed=40 + level):
            jets = pack_jets(flat, level)
            assert unpack_jets(jets, level) == list(flat)


@pytest.mark.parametrize("flat, level", [([1.0, 2.0, 3.0], 1), ([1.0] * 6, 2)])
def test_pack_jets_refuses_a_length_that_is_no_multiple_of_its_levels(flat, level):
    from tangentkit.kernel import pack_jets

    with pytest.raises(ShapeError, match=f"multiple of {2**level} entries, got {len(flat)}"):
        pack_jets(flat, level)


@pytest.mark.parametrize("codec", ["pack_jets", "unpack_jets"])
@pytest.mark.parametrize("level, error", [(-1, ValueError), (1.5, TypeError)])
def test_the_jet_codec_refuses_a_level_that_is_no_nonnegative_int(codec, level, error):
    from tangentkit import kernel

    with pytest.raises(error, match=f"jet level .*{level}"):
        getattr(kernel, codec)([1.0, 2.0], level)


def test_iterated_tangent_equals_jet_tower_evaluation():
    # rule 3: T^k(f) computed by k applications of tangent equals running
    # f's evaluator on a packed level-k tower
    from tangentkit.kernel import pack_jets, unpack_jets

    f = _expr("sin(x1)*x2; x1^2", 2)
    for k in (1, 2, 3):
        tk = f
        for _ in range(k):
            tk = tangent(tk)
        for flat in sample_points(2 * 2**k, count=10, seed=50 + k):
            via_tangent = tk(flat)
            via_tower = unpack_jets(f.evaluator(pack_jets(flat, k)), k)
            # the two routes order the mixed-derivative products differently,
            # so agreement is to roundoff, not bitwise
            assert max(abs(a - b) for a, b in zip(via_tangent, via_tower)) <= 1e-13


def test_smooth_map_shape_errors():
    f = _expr("x1", 1)
    with pytest.raises(ShapeError):
        f([1.0, 2.0])
    bad = SmoothMap(Space(1), Space(2), lambda xs: [xs[0]])
    with pytest.raises(ShapeError):
        bad([1.0])


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: Space(2.5), "Space.dim"),
        (lambda: Space(True), "Space.dim"),
        (lambda: Space("2"), "Space.dim"),
        (lambda: TrivialBundle(1.5, 1), "TrivialBundle.base_dim"),
        (lambda: TrivialBundle(1, False), "TrivialBundle.fibre_dim"),
    ],
    ids=["space-float", "space-bool", "space-str", "bundle-float", "bundle-bool"],
)
def test_a_dimension_that_is_a_bool_or_no_integer_is_refused_where_it_is_given(build, field):
    # accepted, these failed only later, deep inside a structural map
    with pytest.raises(TypeError, match=field):
        build()


def test_a_numpy_integer_is_a_dimension():
    np = pytest.importorskip("numpy")
    space = Space(np.int64(2))
    assert space == Space(2) and identity_map(space)([1.0, 2.0]) == [1.0, 2.0]
    bundle = TrivialBundle(np.int32(0), np.int64(2))
    assert structural_map("bundle_lift", bundle)([1.0, 2.0]) == [0.0, 0.0, 1.0, 2.0]
