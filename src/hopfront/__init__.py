"""Pareto front exploration by a Hopf-Lax primal-dual scheme.

Scalarized multi-objective problems are embedded in a one-parameter family of
shifted scalarizations; sweeping the shift parameter tau traces continuous
curves along (possibly nonconvex) Pareto fronts. Brute-force oracles validate
every solver result.
"""

__version__ = "0.1.0"

from .constrained import ConstraintSet, box_constraints
from .core import (
    CertificationError,
    HopfLaxParams,
    NumericalError,
    PreferenceFunction,
    QuadraticRegularizer,
    SoftMax,
    VectorObjective,
    WeightedSum,
    jacobian_check,
)
from .oracle import (
    SampleCloud,
    certification_cloud,
    convex_envelope_front,
    enrich_cloud,
    front_distance,
    greedy_pareto_filter,
    nonconvexity_witness,
    nondominated_mask,
    reference_front,
    sample_cloud,
)
from .problems import BenchmarkProblem, get_problem, problem_ids, register_problem
from .solver import (
    BatchResult,
    SolveResult,
    SolverConfig,
    certify_gap,
    dual_update_pi,
    evaluate,
    gap_and_bound,
    merit_psi,
    multiplier_estimate,
    solve,
    solve_batch,
    stationarity_residual,
)
from .sweep import FrontSample, ParetoFront, TauPath, sweep
