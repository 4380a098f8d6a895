"""tangentkit: an exact tangent-functor kernel on Euclidean spaces, with
vector fields, flows, exponentials, a field-definition DSL, and law
verification suites."""

from .jets import EvaluationDomainError, Jet
from .kernel import (
    ShapeError,
    SmoothMap,
    Space,
    TrivialBundle,
    VerticalityViolation,
    compose,
    identity_map,
    pack_jets,
    pair,
    product,
    structural_map,
    unpack_jets,
    tangent,
    vertical_bracket,
)
from .dsl import ArityError, ExprSyntaxError, FieldSpec, UnknownIdentifier, parse
from .dsl import compile_spec, format_spec
from .fields import (
    LawCheck,
    LinearVectorField,
    LinearityError,
    VectorField,
    commutes,
    is_vf_morphism,
    lie_bracket,
    matrix_of,
    product_vf,
    tangent_lift,
)
from .dynamics import (
    Connection,
    CurveObject,
    DynamicalSystem,
    Flow,
    IntegratorConfig,
    MaxStepsExceeded,
    NonCommutingFields,
    StepSizeCollapse,
    acceleration_residual,
    augment_time,
    commuting_flows_check,
    curve,
    eta,
    expm,
    flow_laws,
    flow_of,
    generator,
    geodesic_flow,
    holonomic_jet,
    integrate,
    linear_flow,
    reverse,
    sigma_flow,
    solve_nth_order,
    sum_flow,
)
from .rig import (
    ActionLinearityReport,
    action,
    action_suite,
    e_map,
    euler_field,
    exp_flow,
    linearity_via_action,
    multiply,
    rig_suite,
)
from .verify import run_suite

__version__ = "0.1.0"
