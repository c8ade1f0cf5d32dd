"""Relaxed alternating projections between two affine subspaces, analyzed as a
variable-step Landweber iteration, with independent linear-algebra oracles for
limits, rates and subspace angles."""

from .subspace import (
    AffineSubspace,
    ProblemGeometry,
    canonicalize,
    project,
    project_relaxed,
)
from .projector import (
    AngleReport,
    LeastSquaresSet,
    RestrictedProjector,
    build,
    compute_report,
    distance_to_w,
    least_squares_set,
    limit_point,
)
from .schedule import (
    Schedule,
    ScheduleDiagnostics,
    diagnose,
    filter_pair,
)
from .engine import (
    IterationTrace,
    RateBound,
    contraction_factor,
    estimate_rate,
    geometric_step,
    rate_bound,
    run_alternating,
)

__all__ = [
    "AffineSubspace",
    "ProblemGeometry",
    "canonicalize",
    "project",
    "project_relaxed",
    "AngleReport",
    "compute_report",
    "LeastSquaresSet",
    "RestrictedProjector",
    "build",
    "distance_to_w",
    "least_squares_set",
    "limit_point",
    "Schedule",
    "ScheduleDiagnostics",
    "diagnose",
    "filter_pair",
    "IterationTrace",
    "RateBound",
    "contraction_factor",
    "estimate_rate",
    "geometric_step",
    "rate_bound",
    "run_alternating",
]

__version__ = "0.1.0"
