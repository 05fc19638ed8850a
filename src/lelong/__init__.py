"""Exact and numerical Lelong-number calculus for monomial-type weights.

The exact layer computes Newton-diagram geometry, atomic boundary
measures and the resulting directional / generalized densities in
rational arithmetic.  The numeric layer estimates the same quantities
from their defining radial limits by torus quadrature, and a
Bergman-kernel approximation layer reproduces the two-sided density
bounds for multicircled weights on the polydisk.
"""

from .demailly import (
    ApproxBasis,
    LelongBoundsReport,
    SandwichReport,
    basis_norms,
    lelong_bounds_check,
    sandwich_check,
    um_eval,
)
from .indicator_calculus import (
    LelongValue,
    directional_lelong_exact,
    generalized_lelong_exact,
    newton_number,
    tau,
)
from .numeric_oracle import (
    DEFAULT_SCHEDULE,
    LimitEstimate,
    NonPshStarProbeError,
    ProfileEntry,
    RadialSchedule,
    SliceUndefinedError,
    classical_lelong_numeric,
    directional_lelong_numeric,
    generalized_lelong_numeric,
    indicator_profile,
    slice_lelong,
    swept_measure_apply,
    torus_mean,
)
from .poly_geom import (
    DegenerateIndicatorError,
    ExponentSet,
    GammaMeasure,
    NewtonDiagramStruct,
    SublevelPolyhedron,
    cone_volume,
    dominated_hull,
    dual_face,
    gamma_measure,
    sublevel_vertices,
)
from .weights import (
    CoordLog,
    MaxOf,
    NegPowLog,
    PolyLog,
    Scale,
    WeightExpr,
    eval_expr,
    indicator_support,
    is_multicircled,
    is_psh_star,
    scaling_transform,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxBasis",
    "CoordLog",
    "DEFAULT_SCHEDULE",
    "DegenerateIndicatorError",
    "ExponentSet",
    "GammaMeasure",
    "LelongBoundsReport",
    "LelongValue",
    "LimitEstimate",
    "MaxOf",
    "NegPowLog",
    "NewtonDiagramStruct",
    "NonPshStarProbeError",
    "PolyLog",
    "ProfileEntry",
    "RadialSchedule",
    "SandwichReport",
    "Scale",
    "SliceUndefinedError",
    "SublevelPolyhedron",
    "WeightExpr",
    "basis_norms",
    "classical_lelong_numeric",
    "cone_volume",
    "directional_lelong_exact",
    "directional_lelong_numeric",
    "dominated_hull",
    "dual_face",
    "eval_expr",
    "gamma_measure",
    "generalized_lelong_exact",
    "generalized_lelong_numeric",
    "indicator_profile",
    "indicator_support",
    "is_multicircled",
    "is_psh_star",
    "lelong_bounds_check",
    "newton_number",
    "sandwich_check",
    "scaling_transform",
    "slice_lelong",
    "sublevel_vertices",
    "swept_measure_apply",
    "tau",
    "torus_mean",
    "um_eval",
]
