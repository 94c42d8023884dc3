"""Pareto front exploration by a Hopf-Lax primal-dual scheme.

Scalarized multi-objective problems are embedded in a one-parameter family of
shifted scalarizations; sweeping the shift parameter tau traces continuous
curves along (possibly nonconvex) Pareto fronts. Brute-force oracles validate
every solver result.
"""

__version__ = "0.1.0"

from .constrained import ConstraintSet, box_constraints
from .core import (
    HopfLaxParams,
    NumericalError,
    PreferenceFunction,
    SoftMax,
    VectorObjective,
    WeightedSum,
)
from .oracle import (
    SampleCloud,
    certification_cloud,
    convex_envelope_front,
    enrich_cloud,
    front_distance,
    greedy_pareto_filter,
    nondominated_mask,
    sample_cloud,
)
from .problems import BenchmarkProblem, get_problem, problem_ids
from .solver import (
    BatchResult,
    SolveResult,
    SolverConfig,
    evaluate,
    gap_certificates,
    merit_psi,
    multiplier_estimate,
    solve,
    solve_batch,
    stationarity_residual,
)
from .sweep import sweep, tau_line
