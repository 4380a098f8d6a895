"""The public surface of the package is a contract: adding or removing a name
means editing this list."""

import types

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
    public = sorted(
        name
        for name, value in vars(tangentkit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert public == PUBLIC_NAMES
