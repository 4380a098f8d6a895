"""The public surface of the package is a contract: adding or removing a name
means editing this list."""

import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import tangentkit
from tangentkit import ShapeError, jets

PUBLIC_NAMES = [
    "ActionLinearityReport",
    "ArityError",
    "Connection",
    "CurveObject",
    "DynamicalSystem",
    "EvaluationDomainError",
    "ExprSyntaxError",
    "FieldSpec",
    "Flow",
    "IntegratorConfig",
    "Jet",
    "LawCheck",
    "LinearVectorField",
    "LinearityError",
    "MaxStepsExceeded",
    "NonCommutingFields",
    "ShapeError",
    "SmoothMap",
    "Space",
    "StateNormExceeded",
    "StepSizeCollapse",
    "TrivialBundle",
    "UnknownIdentifier",
    "VectorField",
    "VerticalityViolation",
    "acceleration_residual",
    "action",
    "action_suite",
    "augment_time",
    "commutes",
    "commuting_flows_check",
    "compile_spec",
    "compose",
    "curve",
    "e_map",
    "eta",
    "euler_field",
    "exp_flow",
    "expm",
    "flow_laws",
    "flow_of",
    "format_spec",
    "generator",
    "geodesic_flow",
    "holonomic_jet",
    "identity_map",
    "integrate",
    "is_vf_morphism",
    "lie_bracket",
    "linear_flow",
    "linearity_via_action",
    "matrix_of",
    "multiply",
    "pack_jets",
    "pair",
    "parse",
    "product",
    "product_vf",
    "reverse",
    "rig_suite",
    "run_suite",
    "sigma_flow",
    "solve_nth_order",
    "structural_map",
    "sum_flow",
    "tangent",
    "tangent_lift",
    "unpack_jets",
    "vertical_bracket",
]


def test_public_names_are_exactly_the_listed_ones():
    # dir, not vars: the rig and verify names resolve on first access
    public = sorted(
        name
        for name in dir(tangentkit)
        if not name.startswith("_")
        and not isinstance(getattr(tangentkit, name), types.ModuleType)
    )
    assert public == PUBLIC_NAMES


def test_import_loads_neither_rig_nor_verify_until_their_names_are_used():
    script = (
        "import json, sys\n"
        "import tangentkit\n"
        "before = sorted(m for m in ('tangentkit.rig', 'tangentkit.verify') if m in sys.modules)\n"
        "from tangentkit import run_suite, e_map\n"
        "import tangentkit.rig as rig, tangentkit.verify as verify\n"
        "print(json.dumps([before, run_suite is verify.run_suite, e_map is rig.e_map]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(tangentkit.__file__).resolve().parent.parent))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(done.stdout) == [[], True, True]


def _field(text, n):
    return tangentkit.VectorField.from_expr(text, n)


def _map(n, m):
    return tangentkit.SmoothMap(tangentkit.Space(n), tangentkit.Space(m), lambda xs: [0.0] * m)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda tk: tk.DynamicalSystem(tk.Space(1), _field("x1", 1), order=0),
         ValueError, "order must be >= 1"),
        (lambda tk: tk.DynamicalSystem(tk.Space(1), _field("x2; x1", 2)),
         ShapeError, "order-1 field must live on R^1"),
        (lambda tk: tk.DynamicalSystem(tk.Space(1), _field("x1", 1), initial_map=_map(1, 2)),
         ShapeError, "initial map must land in the field's space"),
        (lambda tk: tk.Connection(2, _map(3, 2)),
         ShapeError, "christoffel map must take (x, u)"),
        (lambda tk: tk.linear_flow([[1.0, 2.0]]),
         ShapeError, "linear_flow needs a square matrix"),
        (lambda tk: tk.LinearVectorField([[1.0, 2.0]]),
         ShapeError, "matrix must be square"),
        (lambda tk: tk.commuting_flows_check(_field("x1", 1), _field("x2; x1", 2)),
         ShapeError, "fields must share a space"),
        (lambda tk: tk.commutes(_field("x1", 1), _field("x2; x1", 2)),
         ShapeError, "commutes requires fields on the same space"),
        (lambda tk: tk.is_vf_morphism(_map(2, 2), _field("x1", 1), _field("x1", 1)),
         ShapeError, "morphism check needs f: space(V1) -> space(V2)"),
        (lambda tk: tk.acceleration_residual(tk.flow_of(_field("x1", 1)), [[1.0]]),
         ValueError, "flow has no connection metadata"),
        (lambda tk: tk.VectorField(tk.Space(2), _map(2, 1)),
         ShapeError, "component map must be R^2 -> R^2"),
        (lambda tk: tk.structural_map("p", tk.TrivialBundle(1, 1)),
         ShapeError, "structural map 'p' needs a Space, got TrivialBundle"),
        (lambda tk: tk.vertical_bracket(_map(3, 3), tk.TrivialBundle(1, 1)),
         ShapeError, "bracket source must land in R^4, got R^3"),
        (lambda tk: jets.pow_int(2.0, 1.5),
         TypeError, "pow_int exponent must be an int"),
    ],
    ids=[
        "order-0", "field-space", "initial-map", "christoffel-domain", "linear-flow",
        "linear-field", "commuting-flows", "commutes", "vf-morphism", "acceleration",
        "vector-field", "structural-map", "vertical-bracket", "pow-int",
    ],
)
def test_public_calls_refuse_what_they_cannot_take(call, error, message):
    with pytest.raises(error, match="^" + re.escape(message)):
        call(tangentkit)
