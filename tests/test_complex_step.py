"""The complex-step oracle for derivatives taken through the solver.

Perturbing state entry ``j`` by ``i*h``, ``h = 1e-30``, makes the imaginary
part of the solve, over ``h``, the derivative of the computed map along
``e_j`` (Squire & Trapp, SIAM Review 1998; Martins, Sturdza & Alonso, ACM
TOMS 2003): there is no difference quotient, so no cancellation.  The
solver reads step sizes off primal values only, so the derivative a jet
extracts is the derivative of the numerical map actually computed.  Two
checks follow, and neither goes through the exact flow:

* ``Re(flow(t, x + i*h*e_j))`` is the float solve bit for bit;
* ``Im(flow(t, x + i*h*e_j)) / h`` matches the tangent of
  ``flow(t, x with Jet(x_j, 1.0))`` within :data:`BOUND`.

A complex entry has no jet levels (``jet_depth`` is 0), so the complex
solve runs the unmodified depth-0 paths: dsl kernels written into the
unrolled loop (fused), called fields in the unrolled loop, block-map
kernels called from the unrolled loop, the list form and RK4.

Limits:

* The dsl scalar functions call ``math``, which refuses complex arguments,
  so the dsl fields here are polynomials; division is not tried.
* ``Jet`` arithmetic takes only ``int`` and ``float``, so jets and complex
  numbers do not mix: this is no oracle for nested levels, nor for a field
  that closes over a jet.
* The solver refuses a complex time, so time directions are not covered.
* The controller reads ``abs()``, which for a complex entry is
  ``hypot(re, im)``; that equals ``|re|`` only while ``|re|`` is far above
  ``h*|im|``.  Start entries are drawn away from 0, as complex step needs
  a nonzero real part.
* Block-map kernels are covered at depth 0 only, for the same reason: a
  complex state has no jet levels.
"""

import random

import pytest

from tangentkit import dsl, dynamics
from tangentkit.dynamics import IntegratorConfig, curve, flow_of
from tangentkit.fields import VectorField, euler_space_field, zero_field
from tangentkit.jets import Jet, coefficients
from tangentkit.kernel import SmoothMap, Space, TrivialBundle, product_interleave, structural_map
from tangentkit.rig import euler_field

H = 1e-30
MAX_STEPS = 200
# The bound, fixed from an error model before any case ran.  The jet and
# the complex step differentiate the same float map and differ only in
# rounding: in each of at most MAX_STEPS steps an entry's derivative goes
# through at most 64 roundings in each arithmetic (seven stages, each a
# stage sum and a field value of a few operations), each off by at most
# one unit roundoff, 2**-53, of a quantity no larger than
# max(1, |derivative|).  The complex step's own error, O(h**2), is far
# below that.
BOUND = 2 * 64 * MAX_STEPS * 2.0**-53


def _polynomial(rng, n):
    """A dsl field on R^n: per component a linear term and a small
    quadratic one, so no solve blows up over |t| <= 1."""
    terms = []
    for _ in range(n):
        p, q, r = (rng.randint(1, n) for _ in range(3))
        a, b = round(rng.uniform(-1.0, 1.0), 3), round(rng.uniform(-0.25, 0.25), 3)
        quadratic = f"x{q}^2" if q == r else f"x{q} * x{r}"
        terms.append(f"{a!r} * x{p} + {b!r} * {quadratic}")
    return dsl.compile_spec(dsl.parse("; ".join(terms), n))


def _block_field(rng):
    """One of the library's fields built from a block layout."""
    a, b = rng.randint(0, 2), rng.randint(1, 3)
    return rng.choice(
        [
            lambda: euler_field(TrivialBundle(a, b)),
            lambda: euler_space_field(Space(b)),
            lambda: zero_field(Space(b)),
            lambda: curve().c1,
            lambda: VectorField(Space(4 * b), structural_map("flip", Space(b))),
            lambda: VectorField(Space(2 * (a + b)), product_interleave(Space(a), Space(b))),
        ]
    )()


def _field(kind, rng, n):
    if kind == "block":
        return _block_field(rng)
    compiled = _polynomial(rng, n)
    if kind == "dsl":
        return VectorField(Space(n), compiled)
    # the same evaluator without its flat kernel: called on the jet codec
    return VectorField(Space(n), SmoothMap(Space(n), Space(n), lambda xs: compiled.evaluator(xs)))


# (loop, field kind) -> what the RK45 driver is asked to write: whether it
# is the list form and whether a kernel's code is written into it
_LOOPS = {
    ("unrolled", "dsl"): {(False, True)},  # the fused loop
    ("unrolled", "called"): {(False, False)},
    ("unrolled", "block"): {(False, False)},
    ("list", "dsl"): {(True, False)},
    ("list", "called"): {(True, False)},
    ("list", "block"): {(True, False)},
    ("wide", "dsl"): {(True, False)},
    ("wide", "called"): {(True, False)},
    ("rk4", "dsl"): set(),
    ("rk4", "called"): set(),
    ("rk4", "block"): set(),
}
_CASES = [
    (loop, kind, seed)
    for (loop, kind) in _LOOPS
    for seed in range(4 if loop == "wide" else 14)
]


@pytest.mark.parametrize("loop, kind, seed", _CASES)
def test_complex_step_matches_the_jet_derivative_through_the_solver(loop, kind, seed, monkeypatch):
    rng = random.Random(f"{loop}-{kind}-{seed}")
    if loop == "list":
        monkeypatch.setattr(dynamics, "_GENERATED_MAX_N", -1)
    writer, written = dynamics._dp_loop, set()
    monkeypatch.setattr(
        dynamics, "_dp_loop",
        lambda n, primals, code=None: written.add((n is None, code is not None))
        or writer(n, primals, code),
    )
    field = _field(kind, rng, 70 if loop == "wide" else rng.choice([1, 2, 3, 5]))
    if loop == "rk4":
        cfg = IntegratorConfig(method="rk4", h=0.05, max_steps=MAX_STEPS)
    else:
        cfg = IntegratorConfig(max_steps=MAX_STEPS)
    flow = flow_of(field, cfg)
    n = field.space.dim
    x = [rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 1.0) for _ in range(n)]
    t = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 1.0)
    plain = flow(t, x)
    for j in rng.sample(range(n), min(n, 2)):
        jet = flow(t, x[:j] + [Jet(x[j], 1.0)] + x[j + 1 :])
        step = flow(t, x[:j] + [complex(x[j], H)] + x[j + 1 :])
        assert repr([complex(v).real for v in step]) == repr(plain), j
        for v, d in zip(step, jet):
            tangent = (coefficients(d) + [0.0])[1]
            assert abs(complex(v).imag / H - tangent) <= BOUND * max(1.0, abs(tangent)), j
    assert written == _LOOPS[loop, kind]
    if kind == "block":  # a kernel, called at each stage
        kernel = dynamics._flat_kernel(field.vhat, 0)
        assert kernel is not None and not hasattr(kernel, "code")
