"""Exact stability arithmetic for bundle triples and a torus vortex solver.

Two halves. The exact half (invariants, stability, chambers, extensions)
does every slope, threshold, wall and dimension computation in rational
arithmetic with no floating point. The numeric half (vortex) solves the
coupled vortex equations for a line-bundle pair on a discretized flat
torus and reproduces the stability threshold as a solvability threshold.
Only the numeric half needs numpy, and it is imported on first use of one
of its names, so the exact half and its commands start without it.
"""

from .invariants import (
    ConstraintViolationError,
    InvalidRankError,
    InvalidSubtripleError,
    InvariantError,
    ParameterRangeError,
    SubtripleInvariants,
    TripleInvariants,
    dual_invariants,
    dual_subtriple,
    slope,
)
from .stability import (
    StabilityStatus,
    StabilityVerdict,
    classify_line_pair,
    classify_phi_zero,
    evaluate_stability,
    kernel_image_identity,
    mu_sigma,
    sigma_from_tau,
    tau_prime,
    theta_tau,
)
from .chambers import (
    ChamberDecomposition,
    ParameterInterval,
    enumerate_walls,
    fibration_bound,
    is_generic,
    is_projective,
    moduli_dimension,
    parameter_interval,
    sigma_interval,
    small_tau_window,
)
from .extensions import (
    SlopeEquivalence,
    check_slope_equivalence,
    dual_parameter,
)
__version__ = "0.1.0"

__all__ = [
    "ConstraintViolationError",
    "InvalidRankError",
    "InvalidSubtripleError",
    "InvariantError",
    "ParameterRangeError",
    "SubtripleInvariants",
    "TripleInvariants",
    "dual_invariants",
    "dual_subtriple",
    "slope",
    "StabilityStatus",
    "StabilityVerdict",
    "classify_line_pair",
    "classify_phi_zero",
    "evaluate_stability",
    "kernel_image_identity",
    "mu_sigma",
    "sigma_from_tau",
    "tau_prime",
    "theta_tau",
    "ChamberDecomposition",
    "ParameterInterval",
    "enumerate_walls",
    "fibration_bound",
    "is_generic",
    "is_projective",
    "moduli_dimension",
    "parameter_interval",
    "sigma_interval",
    "small_tau_window",
    "SlopeEquivalence",
    "check_slope_equivalence",
    "dual_parameter",
    "ConstantProfile",
    "CosineProfile",
    "PhiProfile",
    "ResidualReport",
    "SolveStatus",
    "SweepRow",
    "SweepWarning",
    "TorusGrid",
    "VortexProblem",
    "VortexSolution",
    "ZeroProfile",
    "build_problem",
    "residual",
    "solve",
    "summary_json",
    "sweep_sigma",
    "write_fields_csv",
    "__version__",
]


def __getattr__(name):
    # every name of __all__ not bound above belongs to the numeric half
    if name in __all__:
        from . import vortex

        return getattr(vortex, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
