"""The public surface of the package is a contract: adding or removing a name
means editing this list."""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import tangentkit

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
