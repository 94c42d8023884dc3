"""Pareto-front exploration by sweeping tau along a path.

Holding x and alpha fixed while tau moves along a line traces continuous
curves of converged points. Each tau fixes one shifted scalarization, so every
sample is an independent solve from the default start: no sample depends on
its neighbor, and identical inputs give identical fronts. All samples run as
one lock-step batch (``solve_batch``), and each equals a lone ``solve`` at its
tau bit for bit. Gap certificates are one separate pass over the converged
samples (``gap_certificates``), which screens the cloud for all of them.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .core import HopfLaxParams, as_count, as_vector
from .solver import SolverConfig, gap_certificates, solve_batch


@dataclass(frozen=True, eq=False)
class TauPath:
    """Uniform affine interpolation between two tau endpoints."""

    start: np.ndarray
    end: np.ndarray
    n_samples: int

    def __post_init__(self):
        object.__setattr__(self, "start", as_vector(self.start, name="start"))
        object.__setattr__(self, "end", as_vector(self.end, self.start.shape[0], "end"))
        object.__setattr__(self, "n_samples", as_count(self.n_samples, "n_samples"))

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
    residual: float
    iterations: int
    converged: bool
    gap: Optional[float] = None
    bregman_bound: Optional[float] = None


@dataclass(eq=False)
class ParetoFront:
    """Samples in path order; ``timings`` holds the seconds ``sweep`` spent
    on the batched solves and on the certificates, ``inner_steps``,
    ``inner_row_steps`` and ``merit_evals`` the work of the batch
    (``BatchResult``)."""

    problem_id: str
    samples: List[FrontSample] = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    inner_steps: int = 0
    inner_row_steps: int = 0
    merit_evals: int = 0

    def converged_count(self):
        return sum(1 for s in self.samples if s.converged)


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
    reference=None,
) -> ParetoFront:
    """Solve every tau sample of the path from the default start, all in
    one lock-step batch, and assemble the front in path order.

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

    start = time.perf_counter()
    params = HopfLaxParams(x=problem.x, tau=np.stack(path.points()), alpha=alpha, c=c, mu=mu)
    results = solve_batch(problem.objective, g, params, cfg, constraints=problem.constraints)
    front = ParetoFront(problem.id, inner_steps=results.inner_steps, inner_row_steps=results.inner_row_steps,
                        merit_evals=results.merit_evals)
    for i, (t, res) in enumerate(zip(path.parameters(), results)):
        residual = res.residual_history[-1] if res.residual_history else np.inf
        front.samples.append(FrontSample(i, float(t), params.tau[i], res.u_star, res.objectives, res.pi_star,
                                         res.E_bar, residual, res.iterations, res.converged))
    solved = time.perf_counter()
    if reference is not None:
        done = [i for i, res in enumerate(results) if res.converged]
        for i, cert in zip(done, gap_certificates(g, [results[i] for i in done], params, reference)):
            front.samples[i].gap, front.samples[i].bregman_bound = cert
    front.timings = {"solves": solved - start, "certificates": time.perf_counter() - solved}
    return front
