"""Pareto-front exploration by sweeping tau along a path.

Holding x and alpha fixed while tau moves along a line traces continuous
curves of converged points; warm-starting each solve from its neighbor keeps
the curve coherent. All randomness-free: identical inputs give identical
fronts.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .core import HopfLaxParams, as_vector
from .solver import SolverConfig, gap_and_bound, solve


@dataclass(frozen=True, eq=False)
class TauPath:
    """Uniform affine interpolation between two tau endpoints."""

    start: np.ndarray
    end: np.ndarray
    n_samples: int

    def __post_init__(self):
        object.__setattr__(self, "start", as_vector(self.start, name="start"))
        object.__setattr__(self, "end", as_vector(self.end, self.start.shape[0], "end"))
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")

    def parameters(self):
        if self.n_samples == 1:
            return np.zeros(1)
        return np.linspace(0.0, 1.0, self.n_samples)

    def points(self):
        return [self.start + t * (self.end - self.start) for t in self.parameters()]


@dataclass(eq=False)
class FrontSample:
    index: int
    t: float
    tau: np.ndarray
    u: np.ndarray
    objectives: np.ndarray
    pi: np.ndarray
    E: np.ndarray
    p: np.ndarray
    residual: float
    iterations: int
    converged: bool
    nu: Optional[np.ndarray] = None
    merit: float = np.nan
    gap: Optional[float] = None
    bregman_bound: Optional[float] = None


@dataclass(eq=False)
class ParetoFront:
    problem_id: str
    samples: List[FrontSample] = field(default_factory=list)

    def converged_count(self):
        return sum(1 for s in self.samples if s.converged)

    def objective_points(self, converged_only=True):
        """Objective vectors in path order, optionally converged samples only."""
        pts = [s.objectives for s in self.samples if s.converged or not converged_only]
        return [np.array(p) for p in pts]


def sweep(
    problem,
    g=None,
    *,
    alpha=None,
    c=None,
    mu=None,
    path: Optional[TauPath] = None,
    n_samples: int = 100,
    cfg=None,
    warm_start: bool = True,
    reference=None,
) -> ParetoFront:
    """Run one solve per tau sample and assemble the front in path order.

    Non-converged samples are retained and flagged. When ``reference`` (a
    SampleCloud) is given, each converged sample records its duality-gap
    certificate and Bregman bound.
    """
    g = g or problem.default_preference()
    alpha = problem.alpha if alpha is None else alpha
    c = problem.c if c is None else c
    mu = problem.mu if mu is None else mu
    if path is None:
        path = TauPath(problem.tau_start, problem.tau_end, n_samples)
    cfg = cfg or SolverConfig()

    ts = path.parameters()
    taus = path.points()

    def make_params(tau):
        return HopfLaxParams(x=problem.x, tau=tau, alpha=alpha, c=c, mu=mu)

    results = []
    warm = None
    for tau in taus:
        u0, pi0, nu0 = warm or (None, None, None)
        res = solve(problem.objective, g, make_params(tau), cfg, u0, pi0,
                    constraints=problem.constraints, nu0=nu0)
        if warm is not None and not res.converged:
            # a stale neighboring basin can wedge the merit descent;
            # retry from the default initialization
            retry = solve(problem.objective, g, make_params(tau), cfg,
                          constraints=problem.constraints)
            if retry.converged:
                res = retry
        results.append(res)
        if warm_start and res.converged:
            warm = (res.u_star, res.pi_star, res.nu_star)

    front = ParetoFront(problem_id=problem.id)
    for i, (t, tau, res) in enumerate(zip(ts, taus, results)):
        gap = bound = None
        if reference is not None and res.converged:
            gap, bound = gap_and_bound(problem.objective, g, res, make_params(tau), reference)
        front.samples.append(
            FrontSample(
                index=i,
                t=float(t),
                tau=np.array(tau),
                u=res.u_star,
                objectives=problem.objective.value(res.u_star),
                pi=res.pi_star,
                E=res.E_bar,
                p=res.p_bar,
                residual=res.residual_history[-1] if res.residual_history else np.inf,
                iterations=res.iterations,
                converged=res.converged,
                nu=res.nu_star,
                merit=res.merit_history[-1] if res.merit_history else np.nan,
                gap=gap,
                bregman_bound=bound,
            )
        )
    return front
