"""Primal-dual solver for the Hopf-Lax optimality system, with or without
inequality constraints k(u) >= 0.

One outer iteration updates the dual weights pi, re-estimates (or ascends)
the constraint multipliers nu, and refines the primal point u. A merit
function measuring violation of the full optimality system safeguards every
step: the dual step and the primal step are damped until the merit is
non-increasing, so recorded merit values never rise.

The primal refinement is chosen from the inputs, not from an option: a
smooth scalarizer over an unconstrained problem or a constraint set with a
projector gets the inner minimization of the shifted scalarization (value
descent); a non-smooth scalarizer or a projector-less constraint set gets
damped Levenberg-Marquardt steps on the stationarity residual.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.optimize import nnls

from .core import (
    CertificationError,
    NumericalError,
    as_vector,
)

# Acceptance slack for the merit safeguard; absorbs rounding near the floor
# without masking genuine increases.
_MERIT_SLACK = 1e-15

# Inner-loop limits and line-search constants. No run sets them, so they are
# fixed here rather than carried in SolverConfig.
_MAXIT_INNER = 50  # LM refinement steps per outer iteration
_BACKTRACK_FACTOR = 0.5  # primal step damping per safeguard trial
_MAX_BACKTRACKS = 20  # safeguard trials per outer iteration, beyond one per theta
_ACTIVE_THRESHOLD = 1e-3  # k(u) below this counts as nearly active
_MAXIT_U = 200  # value-descent steps per inner solve
_TOL_U = 1e-4  # value-descent move tolerance, tightened to 0.01 eps when smaller
_LS_BETA = 0.5  # Armijo step reduction
_LS_C1 = 1e-4  # Armijo sufficient-decrease constant


@dataclass(frozen=True)
class SolverConfig:
    """The solver parameters a run sets: dual step ``rho``, primal damping
    ``eta``, tolerance ``eps``, outer iteration limit ``maxit_outer``, the
    merit ``safeguard`` and multiplier ascent step ``sigma``."""

    rho: float = 0.5
    eta: float = 1.0
    eps: float = 1e-5
    maxit_outer: int = 100
    safeguard: bool = True
    sigma: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.eta <= 1.0):
            raise ValueError("eta must lie in (0, 1]")
        if self.eps <= 0 or self.rho <= 0:
            raise ValueError("eps and rho must be positive")
        if self.maxit_outer < 1:
            raise ValueError("maxit_outer must be positive")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


@dataclass(eq=False)
class SolveResult:
    """Outcome of one solve. Without constraints ``nu_star`` is empty and
    ``complementarity`` and ``feasibility_violation`` are 0."""

    u_star: np.ndarray
    pi_star: np.ndarray
    p_bar: np.ndarray
    E_bar: np.ndarray
    iterations: int
    converged: bool
    residual_history: List[float] = field(default_factory=list)
    merit_history: List[float] = field(default_factory=list)
    nu_star: np.ndarray = field(default_factory=lambda: np.zeros(0))
    complementarity: float = 0.0
    feasibility_violation: float = 0.0
    gap_certificate: Optional[float] = None


def dual_update_pi(f, g, u, pi, params, rho):
    """One dual step: returns (pi_next, E) with E = c (tau + alpha pi).

    Differentiable scalarizers take the gradient shortcut
    pi_next = grad g(ell(u) + E); otherwise a proximal step on the conjugate.
    """
    E = params.dual_shift(pi)
    y = f.value(u) + E
    if g.smooth:
        pi_next = g.gradient(y)
    else:
        pi_next = g.prox_conjugate(np.asarray(pi, dtype=float) + rho * y, rho)
    return pi_next, E


def dual_update_nu(k_vals, nu, sigma):
    """Projected ascent in the constraint channel: [nu + sigma (-k)]_+."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    k_vals = np.asarray(k_vals, dtype=float)
    nu = np.asarray(nu, dtype=float)
    return np.maximum(nu + sigma * (-k_vals), 0.0)


def stationarity_residual(J, u, pi, params, Jk=None, nu=None):
    """J^T pi + mu u - c (x - alpha u) - Jk^T nu.

    ``J`` is Jac[ell](u) and ``Jk`` is Jac[k](u), both already evaluated; the
    constraint term is left out when ``Jk`` is None.
    """
    r = J.T @ np.asarray(pi, dtype=float) + params.mu * u - params.dual_momentum(u)
    if Jk is not None:
        r = r - Jk.T @ np.asarray(nu, dtype=float)
    return r


@lru_cache(maxsize=None)
def _identity(d):
    # np.eye costs more than the rest of a 2x2 preconditioner, which is
    # built once per inner iteration; the shared copy is made read-only
    eye = np.eye(d)
    eye.flags.writeable = False
    return eye


def preconditioner(J, params, Jk=None):
    """(mu + alpha c) I + J^T J, plus Jk^T Jk when ``Jk`` holds the Jacobian
    rows of the nearly active constraints; positive definite for any u."""
    B = (params.mu + params.alpha * params.c) * _identity(J.shape[1]) + J.T @ J
    if Jk is not None and Jk.shape[0] > 0:
        B = B + Jk.T @ Jk
    return B


def spd_solve(B, r):
    # The LAPACK pair behind cho_factor/cho_solve, called directly: for the
    # small systems solved here, the wrappers' argument checks cost several
    # times the factorization. A non-finite B or r shows up in the solution.
    c, info = dpotrf(B, lower=1, clean=0)
    if info == 0:
        x, info = dpotrs(c, r, lower=1)
    if info != 0 or not np.isfinite(x).all():
        raise NumericalError(f"preconditioner factorization failed (info={info})")
    return x


def merit_psi(f, g, u, pi, params, rho, k=None, nu=None, sigma=0.5) -> float:
    """Violation of the optimality system; zero exactly at its solutions.

    First block: squared stationarity residual in the inverse-preconditioner
    norm. Second block: squared fixed-point displacement of the dual prox.
    With a nonempty constraint set ``k``, the residual carries the multiplier
    term and a third block adds the ascent displacement of ``nu``.
    """
    if rho <= 0 or sigma <= 0:
        raise ValueError("rho and sigma must be positive")
    u = as_vector(u, f.dim_u, "u")
    pi = as_vector(pi, f.dim_obj, "pi")
    constrained = k is not None and k.dim_con > 0
    J = f.jacobian(u)
    r = stationarity_residual(J, u, pi, params, k.jacobian(u) if constrained else None, nu)
    term1 = 0.5 * float(r @ spd_solve(preconditioner(J, params), r))
    E = params.dual_shift(pi)
    disp = g.prox_conjugate(pi + rho * (f.value(u) + E), rho) - pi
    term2 = float(disp @ disp) / (2.0 * rho * rho)
    if not constrained:
        return term1 + term2
    nu_disp = dual_update_nu(k.value(u), nu, sigma) - nu
    return term1 + term2 + float(nu_disp @ nu_disp) / (2.0 * sigma * sigma)


def multiplier_estimate(f, k, u, pi, params):
    """Nonnegative least-squares multipliers over the nearly active set.

    Exact projection zeroes the ascent signal on active constraints, so the
    multipliers are recovered from stationarity instead: minimize
    ||Jac[k]_A^T nu - F|| over nu >= 0 supported on the active set A.
    """
    u = as_vector(u, f.dim_u, "u")
    nu = np.zeros(k.dim_con)
    active = np.flatnonzero(k.value(u) <= _ACTIVE_THRESHOLD)
    if active.size == 0:
        return nu
    F = stationarity_residual(f.jacobian(u), u, pi, params)
    sol, _ = nnls(k.jacobian(u)[active].T, F)
    nu[active] = sol
    return nu


def _null_basis(A):
    # Orthonormal basis of null(A) for small dense A.
    _, s, vt = np.linalg.svd(A, full_matrices=True)
    rank = int(np.sum(s > max(A.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)))
    return vt[rank:].T


def _two_metric_step(k, u, gvec, B, Jk, active):
    # Preconditioning a projected-gradient step can rotate the descent
    # direction across the tangent space of a curved active constraint, so the
    # inverse preconditioner is applied within that tangent space only; the
    # normal component keeps the plain gradient, conservatively scaled.
    if not np.any(active):
        return spd_solve(B, gvec)
    Jk_a = Jk[active]
    Q = k.tangent_basis(u, active) if k.tangent_basis is not None else _null_basis(Jk_a)
    lam_hi = B.trace()
    if Q.size == 0:
        return gvec / lam_hi
    tangential = Q @ spd_solve(Q.T @ B @ Q, Q.T @ gvec)
    normal = gvec - Q @ (Q.T @ gvec)
    return tangential + normal / lam_hi


def _inner_projected_gradient(f, g, k, u0, pi_new, params, cfg):
    # Full inner solve of the shifted scalarization over K (or all of R^d when
    # k is None): projected gradient descent, preconditioned in the two-metric
    # sense, with Armijo backtracking and a plain-gradient arc fallback.
    E = params.dual_shift(pi_new)
    stiff = params.mu + params.alpha * params.c
    cx = params.c * params.x
    gamma = 1.0 / stiff
    move_tol = min(_TOL_U, 0.01 * cfg.eps)
    res_tol = 0.05 * cfg.eps
    project = k.project if k is not None else (lambda u_: u_)

    def val(u):
        return g.value(f.value(u) + E) + 0.5 * stiff * float(u @ u) - float(cx @ u)

    u = u0
    fu = val(u)
    res = np.inf
    t_warm = 1.0  # accepted step carries over; curvature mismatch is persistent
    for _ in range(_MAXIT_U):
        J = f.jacobian(u)
        gvec = J.T @ g.gradient(f.value(u) + E) + stiff * u - cx
        res = float(np.linalg.norm(u - project(u - gamma * gvec))) / gamma
        if res <= res_tol:
            break
        if k is not None:
            Jk = k.jacobian(u)
            active = k.value(u) <= _ACTIVE_THRESHOLD
            B = preconditioner(J, params, Jk[active])
            primary = _two_metric_step(k, u, gvec, B, Jk, active)
        else:
            primary = spd_solve(preconditioner(J, params), gvec)
        cand = fc = None
        for attempt, direction in enumerate((primary, gamma * gvec)):
            t = min(1.0, t_warm / _LS_BETA) if attempt == 0 else 1.0
            for _ in range(30):
                trial = project(u - t * direction)
                ft = val(trial)
                step = trial - u
                # projection-arc form of the Armijo sufficient decrease
                if ft <= fu - _LS_C1 * float(step @ step) / max(t, 1e-300):
                    cand, fc = trial, ft
                    if attempt == 0:
                        t_warm = t
                    break
                t *= _LS_BETA
            if cand is not None:
                break
        if cand is None:
            break
        move = float(np.linalg.norm(cand - u))
        u, fu = cand, fc
        if move <= move_tol:
            break
    return u, res


def _refine_lm(f, k, u, pi, nu, params, eta, cfg, projector, nu_of=None, maxit=None):
    # Damped LM steps at frozen pi until the residual target is met or the
    # iterate stalls. ``nu_of`` re-estimates the multipliers at every iterate
    # so the step tracks the active manifold; otherwise nu stays frozen.
    target = 0.05 * cfg.eps
    constrained = k is not None and k.dim_con > 0

    def residual(u_):
        nu_ = nu_of(u_) if nu_of is not None else nu
        J = f.jacobian(u_)
        Jk = k.jacobian(u_) if constrained else None
        return stationarity_residual(J, u_, pi, params, Jk, nu_), nu_, J, Jk

    u_cur = u
    r_cur, nu_cur, J, Jk = residual(u_cur)
    for _ in range(maxit if maxit is not None else _MAXIT_INNER):
        Jk_active = Jk[k.value(u_cur) <= _ACTIVE_THRESHOLD] if constrained else None
        B = preconditioner(J, params, Jk_active)
        if projector is None:
            res_here = float(np.linalg.norm(r_cur))
        else:
            gamma = 1.0 / (params.mu + params.alpha * params.c)
            res_here = float(np.linalg.norm(u_cur - projector(u_cur - gamma * r_cur))) / gamma
        if res_here <= target:
            return u_cur
        step = eta * spd_solve(B, r_cur)
        r_norm = float(np.linalg.norm(r_cur))
        accepted = None
        frac = 1.0
        for _ in range(25):
            u_next = u_cur - step
            if projector is not None:
                u_next = projector(u_next)
            if not np.all(np.isfinite(u_next)):
                raise NumericalError("primal update produced non-finite iterate")
            r_next, nu_next, J_next, Jk_next = residual(u_next)
            # damping: the Gauss-Newton model can understate curvature and
            # equal-norm mirror steps would cycle; the required decrease
            # scales with the damping so short steps stay acceptable
            if float(np.linalg.norm(r_next)) <= r_norm * (1.0 - 1e-3 * frac):
                accepted = (u_next, r_next, nu_next, J_next, Jk_next)
                break
            step = 0.5 * step
            frac *= 0.5
        if accepted is None:
            return u_cur
        u_next, r_cur, nu_cur, J, Jk = accepted
        if float(np.linalg.norm(u_next - u_cur)) <= 1e-15 * (1.0 + float(np.linalg.norm(u_cur))):
            return u_next
        u_cur = u_next
    return u_cur


def run_primal_dual(f, g, params, cfg, constraints=None, u0=None, pi0=None, nu0=None) -> SolveResult:
    """The outer loop behind ``solve``; inputs are assumed consistent."""
    k = constraints
    m = 0 if k is None else k.dim_con
    projector = None if k is None else k.projector
    use_estimate = m > 0 and projector is not None

    u = as_vector(u0, f.dim_u, "u0") if u0 is not None else params.x / max(params.alpha, 1.0)
    if k is not None:
        if projector is not None:
            u = k.project(u)
        elif not k.is_feasible(u):
            raise ValueError("infeasible start and no projector available")
    pi = as_vector(pi0, f.dim_obj, "pi0") if pi0 is not None else np.zeros(f.dim_obj)
    nu = as_vector(nu0, m, "nu0") if (nu0 is not None and m > 0) else np.zeros(m)
    if np.any(nu < 0):
        raise ValueError("nu0 must be nonnegative")

    def merit(u_, pi_, nu_):
        return merit_psi(f, g, u_, pi_, params, cfg.rho, k, nu_, cfg.sigma)

    def stop_residual(u_, pi_, nu_):
        J = f.jacobian(u_)
        if m > 0 and projector is None:
            return float(np.linalg.norm(stationarity_residual(J, u_, pi_, params, k.jacobian(u_), nu_)))
        F = stationarity_residual(J, u_, pi_, params)
        if m == 0:
            return float(np.linalg.norm(F))
        gamma = 1.0 / (params.mu + params.alpha * params.c)
        return float(np.linalg.norm(u_ - projector(u_ - gamma * F))) / gamma

    # Smooth scalarizers get the value-descent inner solve whenever iterates
    # can be kept feasible: the residual-only LM refinement cannot cross
    # residual ridges of nonconvex composites, and its Gauss-Newton model
    # misses the penalty-coupling curvature on valley floors and oscillates
    # against box faces. LM steps remain for non-smooth scalarizers, which
    # have no gradient to descend, and for projector-less constraint sets.
    value_descent = g.smooth and (m == 0 or projector is not None)

    def refine(u_, pi_, nu_, eta):
        nu_of = None
        if use_estimate:
            nu_of = lambda uu: multiplier_estimate(f, k, uu, pi_, params)
        if value_descent:
            u_in, res_in = _inner_projected_gradient(f, g, k if m > 0 else None, u_, pi_, params, cfg)
            if m == 0 and res_in > 0.05 * cfg.eps:
                # LM polish: value descent bottoms out at the rounding floor
                # of the composite, the residual does not
                u_in = _refine_lm(f, k, u_in, pi_, nu_, params, 1.0, cfg, projector,
                                  nu_of=nu_of, maxit=10)
            return u_ + eta * (u_in - u_)
        return _refine_lm(f, k, u_, pi_, nu_, params, eta, cfg, projector, nu_of=nu_of)

    psi = merit(u, pi, nu)
    psi_floor = cfg.eps**2 * max(1.0, psi)
    merit_history = [psi]
    residual_history: List[float] = []
    converged = False
    iterations = 0

    # The safeguard damps both channels: the dual step by theta, the primal
    # step by eta, accepting the first merit-nonincreasing combination.
    thetas = (1.0, 0.5, 0.25, 0.125, 0.0) if cfg.safeguard else (1.0,)
    eta_trials = 1 if not cfg.safeguard else min(_MAX_BACKTRACKS, 4) + 1

    for iterations in range(1, cfg.maxit_outer + 1):
        pi_new, _ = dual_update_pi(f, g, u, pi, params, cfg.rho)
        nu_asc = None
        if m > 0 and not use_estimate:
            nu_asc = dual_update_nu(k.value(u), nu, cfg.sigma)

        accepted = None
        budget = _MAX_BACKTRACKS + len(thetas)
        for theta in thetas:
            if theta == 1.0:
                pi_cand = pi_new
            elif theta == 0.0:
                pi_cand = pi
            else:
                pi_cand = pi + theta * (pi_new - pi)
            if nu_asc is not None:
                nu_seed = nu_asc if theta > 0.0 else nu
            else:
                nu_seed = nu

            # one inner solve per dual candidate, which eta only relaxes;
            # LM steps are recomputed for each eta
            u_in = refine(u, pi_cand, nu_seed, 1.0) if value_descent else None
            eta = cfg.eta
            for _ in range(eta_trials):
                budget -= 1
                if value_descent:
                    u_cand = u + eta * (u_in - u)
                else:
                    u_cand = refine(u, pi_cand, nu_seed, eta)
                eta *= _BACKTRACK_FACTOR
                if nu_asc is not None:
                    nu_cand = nu_seed
                elif use_estimate:
                    nu_cand = multiplier_estimate(f, k, u_cand, pi_cand, params)
                else:
                    nu_cand = nu
                psi_cand = merit(u_cand, pi_cand, nu_cand)
                ok = np.isfinite(psi_cand) and (
                    not cfg.safeguard or psi_cand <= psi + _MERIT_SLACK * max(1.0, psi)
                )
                if ok:
                    accepted = (u_cand, pi_cand, nu_cand, psi_cand)
                    break
                if budget <= 0:
                    break
            if accepted is not None or budget <= 0:
                break
        if accepted is None:
            iterations -= 1
            break  # merit stalled at its numerical floor

        u_next, pi_next, nu_next, psi_next = accepted
        res = stop_residual(u_next, pi_next, nu_next)
        pi_disp = float(np.linalg.norm(pi_next - pi))
        nu_disp = float(np.linalg.norm(nu_next - nu))
        u_disp = float(np.linalg.norm(u_next - u))
        u, pi, nu, psi = u_next, pi_next, nu_next, psi_next
        residual_history.append(res)
        merit_history.append(psi)
        if not (np.isfinite(res) and np.isfinite(psi)):
            raise NumericalError("iteration diverged to non-finite values")
        if res <= cfg.eps and pi_disp <= cfg.eps and nu_disp <= cfg.eps and psi <= psi_floor:
            converged = True
            break
        stagnant = max(pi_disp, nu_disp, u_disp) <= 1e-14 * (1.0 + float(np.linalg.norm(u)))
        if stagnant:
            break  # fixed point reached at the solver's numerical resolution

    complementarity = feasibility = 0.0
    if use_estimate:
        nu = multiplier_estimate(f, k, u, pi, params)
    if m > 0:
        kv = k.value(u)
        complementarity = float(np.max(np.abs(nu * kv)))
        feasibility = max(0.0, -float(kv.min()))
    return SolveResult(
        u_star=u,
        pi_star=pi,
        p_bar=params.dual_momentum(u),
        E_bar=params.dual_shift(pi),
        iterations=iterations,
        converged=converged,
        residual_history=residual_history,
        merit_history=merit_history,
        nu_star=nu,
        complementarity=complementarity,
        feasibility_violation=feasibility,
    )


def solve(f, g, params, cfg=None, u0=None, pi0=None, *, constraints=None, nu0=None) -> SolveResult:
    """Run the primal-dual iteration from u0 = x / max(alpha, 1), pi0 = 0.

    ``constraints`` (a ConstraintSet k(u) >= 0) adds the multiplier channel;
    without it the problem is unconstrained. Stops when the (projected)
    stationarity residual, the dual displacements, and the merit target are
    all below tolerance. Non-convergence within ``maxit_outer`` is reported
    through ``converged=False``, not an exception; non-finite iterates raise
    NumericalError.
    """
    cfg = cfg or SolverConfig()
    if f.dim_obj != g.dim_obj or params.dim_u != f.dim_u or params.dim_obj != f.dim_obj:
        raise ValueError("dimension mismatch between objective, scalarizer, and params")
    if constraints is not None and constraints.dim_u != f.dim_u:
        raise ValueError("constraint set dimension mismatch")
    return run_primal_dual(f, g, params, cfg, constraints, u0, pi0, nu0)


def gap_and_bound(f, g, result, params, cloud):
    """Duality-gap sample and its admissible upper bound.

    gap = g(ell(u*) + E) - min over the cloud of g(ell(u) + E); the bound is
    the Bregman divergence between u* and the regularizer's dual point p/mu.
    """
    E = result.E_bar
    value_at_star = g.value(f.value(result.u_star) + E)
    m_hat = float(np.min(g.value_batch(cloud.points_obj + E)))
    gap = value_at_star - m_hat
    R = params.regularizer()
    bound = R.bregman(result.u_star, R.conjugate_gradient(result.p_bar))
    return gap, bound


def certify_gap(f, g, result, params, cloud, tol=1e-6) -> float:
    """Check 0 <= gap <= Bregman bound (within tol) against a sampled oracle.

    Raises CertificationError carrying both sides when violated.
    """
    if not result.converged:
        raise ValueError("certification requires a converged result")
    gap, bound = gap_and_bound(f, g, result, params, cloud)
    if not (-tol <= gap <= bound + tol):
        raise CertificationError(
            f"gap certificate violated: gap={gap:.3e} outside [{-tol:.1e}, {bound + tol:.3e}]",
            gap=gap,
            lower=-tol,
            upper=bound + tol,
        )
    result.gap_certificate = gap
    return gap
