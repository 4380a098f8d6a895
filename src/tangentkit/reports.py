"""Law-report serialization.

Reports are JSON with a stable field order so identical runs are
byte-identical: {version, seed, config, laws: [{law_id, paper_anchor,
passed, max_residual, witness}]}.  ``paper_anchor`` states the law being
checked in one traceable phrase; the mapping from law ids to anchors is a
checked resource (tests assert every emitted id is in the table).
"""

from __future__ import annotations

import json

from .fields import LawCheck

__all__ = ["REPORT_VERSION", "LAW_ANCHORS", "emit_report", "report_dict"]

REPORT_VERSION = "1"

LAW_ANCHORS = {
    # kernel identities
    "naturality-p": "p T(f) = f p",
    "naturality-zero": "0 T(f) = f 0",
    "naturality-ell": "ell T^2(f) = T(f) ell",
    "naturality-flip": "c T^2(f) = T^2(f) c",
    "coherence-flip-involution": "c c = 1",
    "coherence-ell-flip": "ell c = ell",
    "coherence-ell-p": "ell T(p) = p 0",
    "plus-monoid": "fibrewise + is commutative and associative",
    "neg-inverse": "fibrewise - inverts +",
    "bracket-reconstruction": "a vertical map is rebuilt from its bracket",
    "functoriality": "T(fg) = T(f)T(g)",
    # vector fields
    "commutes": "commute if V1 T(V2) c = V2 T(V1)",
    "commutes-symmetric": "commutes with V1 if and only if",
    "self-commutation": "every field here commutes with itself",
    "linear-commutation": "if and only if V1hat V2hat = V2hat V1hat",
    "vf-morphism": "vector field morphism square",
    "bracket-jacobian": "bracket component is DV2hat V1hat - DV1hat V2hat",
    "bracket-finite-difference": "bracket matches a finite-difference oracle",
    "f-relatedness-bracket": "is also a vector field morphism of brackets",
    "pair-commuting-predicate": "a commuting pair is a field over a lifted field",
    "zero-commutes": "0_M commutes with V",
    # curve / sigma
    "curve-section": "c1 is a section of p",
    "curve-unit-component": "c1 assigns the multiplicative unit",
    "sigma-addition": "the solution through the identity is t + x",
    "sigma-unit": "0 is a two-sided unit for sigma",
    "sigma-commutative": "σ is a commutative operation",
    "sigma-associative": "sigma is associative",
    "eta-negation": "eta solves the reversed unit field",
    "group-inverse": "group with inverse η",
    # flows
    "flow-unit": "gamma(0, x) = x",
    "flow-action": "gamma(t, gamma(s, x)) = gamma(t+s, x)",
    "flow-own-invariance": "every complete vector field is invariant",
    "flow-equation-of-variation": "the x-derivative of a flow is a flow on TM",
    "generator-roundtrip": "iota after gamma is the identity",
    "flow-roundtrip": "gamma after iota is the identity",
    "flow-interchange": "order of application does not matter",
    "field1-invariant": "first field invariant under the second flow",
    "field2-invariant": "second field invariant under the first flow",
    "sum-flow-agreement": "their sum is also a complete vector field",
    "reverse-inverse": "time-t maps are isomorphisms with inverse",
    "tangent-of-solution": "gamma V solves the lifted system",
    "diff-object-criterion": "the solution square holds iff its projection does",
    "expm-vs-integrator": "matrix exponential agrees with integration",
    "flow-morphism-equivalence": "a field morphism is exactly a flow morphism",
    "blowup-detection": "no solution that exists for all time",
    "integrator-determinism": "identical inputs give identical outputs",
    "christoffel-quadratic": "christoffel correction is quadratic in u",
    "geodesic-flat": "flat-connection geodesics are straight lines",
    "geodesic-semicircle": "half-plane geodesics stay on their semicircle",
    "geodesic-acceleration": "zero acceleration relative to the connection",
    # rig / action
    "rig-derivative-unit": "<0,1> D(e) = 1",
    "rig-derivative-sum": "(1 x e) D(e) = + e",
    "rig-exp-of-sum": "e^{a+b} = e^a * e^b",
    "rig-multiply-laws": "multiplication is commutative, associative, bilinear",
    "rig-unit-value": "0e = u",
    "e-value": "e is the ordinary exponential function",
    "de-is-exp-flow": "D(e) equals the exponential flow",
    "multiply-scalar": "second derivative of e recovers the product",
    "action-unit": "is a unit for the map",
    "action-associative": "the action is associative",
    "action-additive": "the action is additive in each argument",
    "action-derivative-is-lift": "is the lift map λ",
    "action-solves-system": "solution to the paired linear system",
    "action-is-scaling": "the ordinary scalar action",
    "linearity-equivalence": "if and only if f preserves the actions",
}


def report_dict(laws: list[LawCheck], seed: int, config: dict) -> dict:
    return {
        "version": REPORT_VERSION,
        "seed": seed,
        "config": config,
        "laws": [
            {
                "law_id": c.law,
                "paper_anchor": LAW_ANCHORS.get(c.law, ""),
                "passed": bool(c.passed),
                "max_residual": float(c.max_residual),
                "witness": (
                    [float(w) for w in c.witness] if c.witness is not None else None
                ),
            }
            for c in laws
        ],
    }


def emit_report(laws: list[LawCheck], seed: int, config: dict) -> bytes:
    """Serialize with a stable field order; identical runs are byte-identical."""
    return (
        json.dumps(report_dict(laws, seed, config), indent=2, sort_keys=False) + "\n"
    ).encode("utf-8")
