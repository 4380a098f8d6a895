"""The bicomplex-step oracle for second derivatives.

Perturbing entry ``k`` by ``i1*h`` and entry ``j`` by ``i2*h``, with
``h = 1e-30`` and ``i1**2 = i2**2 = -1`` commuting units, makes the ``i1``
and ``i2`` parts of a computed value, over ``h``, its derivatives along
``e_k`` and ``e_j``, and its ``i1*i2`` part, over ``h**2``, the mixed
second derivative (Lantoine, Russell & Dargent, ACM TOMS 2012).  No
difference quotient is taken, so nothing cancels.  Two checks follow, and
neither goes through the exact flow or a second writing of jet arithmetic:

* the real part is the float computation bit for bit;
* the three other parts match the coefficients ``[p, d_k, d_j, d_jk]`` of
  a depth-2 jet start (``e_k`` at the inner level, ``e_j`` at the outer)
  within :data:`BOUND` or :data:`MAP_BOUND`, relative to
  ``max(1, |coefficient|)``.

A bicomplex entry has no jet levels, so a solve of one runs the unmodified
depth-0 paths: the fused, unrolled, list and RK4 loops, and a field called
on the codec.  The depth-0 kernels of composites, the Lie bracket's checked
kernel among them, are run on bicomplex arguments directly and compared
with ``tangent(tangent(f))`` on floats.

Limits:

* ``math.*`` refuses these scalars, so the fields are polynomials;
  division is not tried.
* Jets and bicomplex scalars do not mix, so this is no oracle for nested
  levels of the same direction (perturbation confusion).
* The solver refuses a non-real time, so time directions are not covered.
* The controller reads ``abs()``, here ``hypot`` of the four parts, which
  equals ``|re|`` only while ``|re|`` is far above ``h``: the perturbed
  entries need nonzero real parts, so starts are drawn from [0.5, 1.5].
"""

import math
import random

import pytest

from tangentkit import dsl, dynamics, kernel
from tangentkit.dynamics import IntegratorConfig, flow_of
from tangentkit.fields import LinearVectorField, VectorField, lie_bracket
from tangentkit.jets import ABSENT, Jet, flatten_levels
from tangentkit.kernel import SmoothMap, Space, compose, pair, product, tangent

H = 1e-30
MAX_STEPS = 200
# The bounds, fixed from an error model before any case ran.  The jet and
# the bicomplex step differentiate the same float map and differ only in
# rounding.  A second-order coefficient is a sum of twice the terms of a
# first-order one, so each operation that N13's model charges one rounding
# is charged two here: in each of at most MAX_STEPS steps a coefficient
# goes through at most 2 * 64 roundings in each arithmetic, each off by at
# most one unit roundoff, 2**-53, of a quantity no larger than
# max(1, |coefficient|).  A map's kernel is at most 256 operations, with no
# steps.  The bicomplex step's own error, O(h**2) relative, is far below.
BOUND = 2 * 2 * 64 * MAX_STEPS * 2.0**-53
MAP_BOUND = 2 * 2 * 256 * 2.0**-53


class Bicomplex:
    """``a + b*i2`` with ``a`` and ``b`` complex numbers in ``i1``."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0j):
        self.a, self.b = a, b

    def _parts(self, other):
        if isinstance(other, Bicomplex):
            return other.a, other.b
        return other, None

    def __add__(self, other):
        c, d = self._parts(other)
        return Bicomplex(self.a + c, self.b if d is None else self.b + d)

    __radd__ = __add__

    def __sub__(self, other):
        c, d = self._parts(other)
        return Bicomplex(self.a - c, self.b if d is None else self.b - d)

    def __rsub__(self, other):
        return Bicomplex(other - self.a, -self.b)

    def __neg__(self):
        return Bicomplex(-self.a, -self.b)

    def __mul__(self, other):
        c, d = self._parts(other)
        if d is None:  # a real scalar scales both parts
            return Bicomplex(self.a * c, self.b * c)
        return Bicomplex(self.a * c - self.b * d, self.a * d + self.b * c)

    __rmul__ = __mul__

    def __abs__(self):
        return math.hypot(self.a.real, self.a.imag, self.b.real, self.b.imag)

    def parts(self) -> list:
        """``[re, i1, i2, i1*i2]`` over ``[1, h, h, h**2]``: the value, the
        derivative along ``e_k``, along ``e_j``, and the mixed one."""
        return [self.a.real, self.a.imag / H, self.b.real / H, self.b.imag / H**2]


def _perturbed(x, j, k):
    """``x`` with ``i2*h`` added to entry ``j`` and ``i1*h`` to entry
    ``k``."""
    return [
        Bicomplex(complex(v, H if i == k else 0.0), complex(H if i == j else 0.0, 0.0))
        if i in (j, k) else v
        for i, v in enumerate(x)
    ]


def _jet_start(x, j, k):
    """``x`` with ``e_k`` at the inner level and ``e_j`` at the outer."""
    out = []
    for i, v in enumerate(x):
        if i in (j, k):
            inner = Jet(v, 1.0) if i == k else v
            v = Jet(inner, 1.0 if i == j else 0.0)
        out.append(v)
    return out


def _coefficients(v) -> list:
    """``[p, d_k, d_j, d_jk]`` of a depth-2 jet value (0.0 where absent)."""
    p, d_j, d_k, d_jk = flatten_levels([v], 2)
    return [0.0 if c is ABSENT else c for c in (p, d_k, d_j, d_jk)]


def _close(got, want, bound):
    return all(abs(g - w) <= bound * max(1.0, abs(w)) for g, w in zip(got, want))


def _polynomial(rng, n):
    """A dsl field on R^n: per component a linear term and a small
    quadratic one, so no solve blows up over |t| <= 1."""
    terms = []
    for _ in range(n):
        p, q, r = (rng.randint(1, n) for _ in range(3))
        a, b = round(rng.uniform(-1.0, 1.0), 3), round(rng.uniform(-0.25, 0.25), 3)
        terms.append(f"{a!r} * x{p} + {b!r} * x{q} * x{r}")
    return dsl.compile_spec(dsl.parse("; ".join(terms), n))


# form -> (field kind, config, whether the list form is forced), and what
# the RK45 driver is asked to write: (list form, kernel code written in)
_FORMS = {
    "fused": ("dsl", IntegratorConfig(max_steps=MAX_STEPS), False, {(False, True)}),
    "unrolled": ("called", IntegratorConfig(max_steps=MAX_STEPS), False, {(False, False)}),
    "list": ("dsl", IntegratorConfig(max_steps=MAX_STEPS), True, {(True, False)}),
    "rk4": ("dsl", IntegratorConfig(method="rk4", h=0.05, max_steps=MAX_STEPS), False, set()),
    "called-list": ("called", IntegratorConfig(max_steps=MAX_STEPS), True, {(True, False)}),
}


@pytest.mark.parametrize("form", sorted(_FORMS))
@pytest.mark.parametrize("seed", range(3))
def test_bicomplex_step_matches_second_jet_derivatives_through_the_solver(form, seed, monkeypatch):
    kind, cfg, as_list, loops = _FORMS[form]
    rng = random.Random(f"{form}-{seed}")
    compiled = _polynomial(rng, 2)
    vhat = compiled if kind == "dsl" else SmoothMap(
        Space(2), Space(2), lambda xs: compiled.evaluator(xs)
    )
    if as_list:
        monkeypatch.setattr(dynamics, "_GENERATED_MAX_N", -1)
    writer, written = dynamics._dp_loop, set()
    monkeypatch.setattr(
        dynamics, "_dp_loop",
        lambda n, primals, code=None: written.add((n is None, code is not None))
        or writer(n, primals, code),
    )
    flow = flow_of(VectorField(Space(2), vhat), cfg)
    x = [rng.uniform(0.5, 1.5) for _ in range(2)]
    t = rng.uniform(-1.0, 1.0)
    plain = flow(t, x)
    for j in range(2):
        for k in range(2):
            step = flow(t, _perturbed(x, j, k))
            jet = flow(t, _jet_start(x, j, k))
            got = [v.parts() if isinstance(v, Bicomplex) else [v, 0.0, 0.0, 0.0] for v in step]
            assert repr([g[0] for g in got]) == repr(plain), (j, k)
            for g, v in zip(got, jet):
                assert _close(g, _coefficients(v), BOUND), (j, k, g, _coefficients(v))
    assert written == loops


def _maps():
    """Maps that carry rules, by name: composites of polynomial dsl and
    linear fields, and the Lie brackets of polynomial fields."""
    f = dsl.compile_spec(dsl.parse("x1 * x2 + 0.5 * x1; x2 * x2 - x1", 2))
    g = dsl.compile_spec(dsl.parse("x1 * x1 * x2; 0.25 * x1 - x2 * x1", 2))
    a = LinearVectorField([[0.5, -1.0], [2.0, 0.25]]).vhat
    v1 = VectorField.from_expr("x2 * x2; x1", 2)
    v2 = VectorField.from_expr("x1 * x2; 0.5 * x1 * x1 - x2", 2)
    return {
        "compose": compose(f, g),
        "pair": pair(f, a),
        "product": product(f, a),
        "tangent": tangent(g),
        "bracket": lie_bracket(v1, v2).vhat,
        "bracket-of-linear": lie_bracket(VectorField(Space(2), a), v2).vhat,
        "bracket-full-map": lie_bracket(v2, v1).full_map,
    }


@pytest.mark.parametrize("name", sorted(_maps()))
def test_bicomplex_step_on_a_composite_kernel_matches_its_second_tangent(name):
    f = _maps()[name]
    run = kernel._flat_kernel(f, 0)
    assert run is not None
    t2f = tangent(tangent(f))
    n, m = f.domain.dim, f.codomain.dim
    rng = random.Random(name)
    for _ in range(3):
        x = [rng.uniform(0.5, 1.5) for _ in range(n)]
        plain = f(x)
        for j in range(n):
            for k in range(n):
                got = [
                    v.parts() if isinstance(v, Bicomplex) else [v, 0.0, 0.0, 0.0]
                    for v in run(_perturbed(x, j, k), kernel._UNIT)
                ]
                assert repr([g[0] for g in got]) == repr(plain), (j, k)
                e_k = [float(i == k) for i in range(n)]
                e_j = [float(i == j) for i in range(n)]
                blocks = t2f(x + e_k + e_j + [0.0] * n)
                for i, g in enumerate(got):
                    want = [blocks[b * m + i] for b in range(4)]
                    assert _close(g, want, MAP_BOUND), (j, k, i, g, want)
