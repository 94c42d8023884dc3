"""Pareto-front exploration by sweeping a stack of tau.

Holding x and alpha fixed while tau moves along a line (``tau_line``) traces
continuous curves of converged points. Each tau fixes one shifted
scalarization, so every sample is an independent solve from the default
start: no sample depends on its neighbor, and identical inputs give identical
fronts. All samples run as one lock-step batch (``solve_batch``), and each
equals a lone ``solve`` at its tau bit for bit. Gap certificates are one
separate pass over the converged samples (``gap_certificates``), which
screens the cloud for all of them.
"""
from __future__ import annotations

import time

import numpy as np

from .core import HopfLaxParams, as_count, as_vector
from .solver import BatchResult, gap_certificates, solve_batch


def tau_line(start, end, n_samples):
    """``n_samples`` tau rows evenly spaced from ``start`` to ``end``,
    ``(n_samples, N)``: start + t (end - start) with t = linspace(0, 1,
    n_samples). A component whose end - start overflows takes
    (1 - t) start + t end, which stays finite."""
    start = as_vector(start, name="start")
    end = as_vector(end, start.shape[0], "end")
    t = np.linspace(0.0, 1.0, as_count(n_samples, "n_samples"))[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        step = end - start
        return np.where(np.isfinite(step), start + t * step, (1.0 - t) * start + t * end)


def sweep(problem, tau, g=None, *, alpha=None, c=None, mu=None, cfg=None, reference=None) -> BatchResult:
    """Solve every row of the tau stack ``(n, N)`` from the default start,
    all in one lock-step batch, and return the ``solve_batch`` results in
    row order.

    Non-converged samples are retained and flagged. When ``reference`` (a
    SampleCloud) is given, each converged result records its duality-gap
    certificate and Bregman bound (``gap``, ``bregman_bound``). ``timings``
    adds the seconds spent on the batched solves and on the certificates to
    the solver's own layers.
    """
    g = g or problem.default_preference()
    alpha = problem.alpha if alpha is None else alpha
    c = problem.c if c is None else c
    mu = problem.mu if mu is None else mu

    start = time.perf_counter()
    params = HopfLaxParams(x=problem.x, tau=tau, alpha=alpha, c=c, mu=mu)
    results = solve_batch(problem.objective, g, params, cfg, constraints=problem.constraints)
    solved = time.perf_counter()
    if reference is not None:
        done = [res for res in results if res.converged]
        for res, (gap, bound) in zip(done, gap_certificates(g, done, params, reference)):
            res.gap, res.bregman_bound = gap, bound
    results.timings.update(solves=solved - start, certificates=time.perf_counter() - solved)
    return results
