"""tangentkit: an exact tangent-functor kernel on Euclidean spaces, with
vector fields, flows, exponentials, a field-definition DSL, and law
verification suites."""

from importlib import import_module as _import_module

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
    StateNormExceeded,
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

# Names of the modules most commands never run resolve on first access
# (PEP 562), so ``import tangentkit`` loads neither ``rig`` nor ``verify``.
_LAZY = dict.fromkeys(
    (
        "ActionLinearityReport",
        "action",
        "action_suite",
        "e_map",
        "euler_field",
        "exp_flow",
        "linearity_via_action",
        "multiply",
        "rig_suite",
    ),
    "rig",
)
_LAZY["run_suite"] = "verify"


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"
