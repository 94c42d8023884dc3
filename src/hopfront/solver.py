"""Primal-dual solver for the Hopf-Lax optimality system, with or without
inequality constraints k(u) >= 0, run in lock step over a batch of tau.

One outer iteration takes the dual step in the weights pi, estimates the
constraint multipliers nu from stationarity, and refines the primal point u
by minimizing the shifted scalarization over the constraint set (projected
value descent). A merit function measuring violation of the full optimality
system safeguards every step: the dual step is damped until the inner
minimizer at the damped weights does not raise the merit, so recorded merit
values never rise.

The inner descent preconditions with the Gauss-Newton matrix B0 = s I +
J^T J plus, away from active constraints, a memoryless structured SR1 row
for the curvature B0 misses (``_secant_row``; Dennis, Gay & Welsch, NL2SOL,
ACM TOMS 1981; Conn, Gould & Toint, Math. Prog. 1991). Its Armijo
backtracking interpolates (``_interpolated_step``), and a trial within 4
ulps of the start value passes too, since value descent ends at the
composite's rounding floor while the step there still shrinks the gradient
(the approximate-Wolfe rule of Hager & Zhang, SIAM J. Optim. 2005).

``solve_batch`` solves a stack of tau (``HopfLaxParams.tau`` of shape
``(n, N)``) as one batch, one row per tau; ``solve`` is the batch of one.
Every function here takes stacks, a lone point being the stack of one.
Every nesting level -- outer iteration, dual candidate round, inner descent
step, Armijo trial -- makes one batched objective, Jacobian and projection
call per step for its live rows; a row leaves a level when it stops there,
and a step whose rows are all live reads them in place. The damped thetas
of a batch share candidate rounds, each within the full step's row count.
Each row does exactly the arithmetic of a lone solve, so its result does
not depend on the batch; the batch reports its work and the seconds of its
layers (``BatchResult``). Linear systems are solved as one stack without a
d x d matrix (``spd_solve``), and a box (``ConstraintSet.bounds``) never
forms Jac[k].

Each point is evaluated once (``evaluate``): the merit, the multipliers, the
stop test and the next steps read that record, and ``stationarity_residual``
is the one place that assembles J^T pi + mu u - p - Jac[k]^T nu from it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .core import _DBL_EPSILON, HopfLaxParams, NumericalError, SoftMax, as_count

# Acceptance slack for the merit safeguard; absorbs rounding near the floor
# without masking genuine increases.
_MERIT_SLACK = 1e-15

# Step sizes, inner-loop limits and line-search constants. No run sets them,
# so they are fixed here rather than carried in SolverConfig.
_RHO = 0.5  # dual prox step
_THETAS = (1.0, 0.5, 0.25, 0.125, 0.0)  # dual step damping, in the order a row tries it
_ACTIVE_THRESHOLD = 1e-3  # k(u) below this counts as nearly active
_MAXIT_U = 200  # value-descent steps per inner solve
_TOL_U = 1e-4  # value-descent move tolerance, tightened to 0.01 eps when smaller
_LS_BETA = 0.5  # after a failed Armijo trial, the next step is at most this share of it
_LS_FLOOR = 0.1  # and at least this share; a warm start grows by 1 / _LS_BETA
_LS_C1 = 1e-4  # Armijo sufficient-decrease constant
# An accepted step whose fitted minimizer is below this share of it overshot
# to near its mirror point (share 0.5). On the 100-sample sweeps 0.6 cut
# ex3b's inner row steps from 2,707 to 1,641 and moved no other problem by
# more than 2%; 0.7 added 5% on ex2a and ex2b, and 1.0 lost one sample each.
_LS_OVERSHOOT = 0.6
_CERT_CHUNK = 1024  # cloud rows per screening product in _cloud_minima: 1024 x samples doubles
_CERT_FLOOR = 1e-150  # smallest screened exp factor; the product of two stays a normal number


@dataclass(frozen=True)
class SolverConfig:
    """The solver parameters a run sets: tolerance ``eps`` and outer
    iteration limit ``maxit_outer``."""

    eps: float = 1e-5
    maxit_outer: int = 100

    def __post_init__(self):
        # the chained comparison is False for NaN as well
        if not 0.0 < self.eps < np.inf:
            raise ValueError("eps must be positive and finite")
        object.__setattr__(self, "maxit_outer", as_count(self.maxit_outer, "maxit_outer"))


@dataclass(eq=False)
class SolveResult:
    """Outcome of one solve; ``objectives`` is ell(u_star). Without
    constraints ``nu_star`` is empty and ``complementarity`` and
    ``feasibility_violation`` are 0. ``gap`` and ``bregman_bound`` hold the
    certificate ``sweep`` records for a converged result against its
    reference cloud, None otherwise."""

    u_star: np.ndarray
    pi_star: np.ndarray
    p_bar: np.ndarray
    E_bar: np.ndarray
    objectives: np.ndarray
    iterations: int
    converged: bool
    residual_history: List[float] = field(default_factory=list)
    merit_history: List[float] = field(default_factory=list)
    nu_star: np.ndarray = field(default_factory=lambda: np.zeros(0))
    complementarity: float = 0.0
    feasibility_violation: float = 0.0
    gap: Optional[float] = None
    bregman_bound: Optional[float] = None


class BatchResult(list):
    """The results of ``solve_batch`` in row order, plus the work of its
    lock-step loop: ``inner_steps`` descent steps taken together,
    ``inner_row_steps`` live rows summed over those steps and ``merit_evals``
    merit calls, the initial one included. ``timings`` holds the seconds of
    the loop's ``dual_step``, ``inner_solve``, ``multipliers`` and ``merit``,
    to which ``sweep`` adds ``solves`` (the whole batch) and ``certificates``."""

    def __init__(self):
        super().__init__()
        self.inner_steps = self.inner_row_steps = self.merit_evals = 0
        self.timings = dict.fromkeys(("dual_step", "inner_solve", "multipliers", "merit"), 0.0)


@dataclass(eq=False)
class Evaluation:
    """ell(u) and Jac[ell](u) at every row of a stack u ``(n, d)``, plus k(u)
    when there are constraints (``kv`` is None otherwise). ``k`` is kept for
    Jac[k] or a box's faces, which only the rows next to an active
    constraint read."""

    u: np.ndarray
    ell: np.ndarray
    J: np.ndarray
    kv: Optional[np.ndarray] = None
    k: object = None

    def take(self, rows):
        """The evaluation at the given rows."""
        kv = None if self.kv is None else self.kv[rows]
        return Evaluation(self.u[rows], self.ell[rows], self.J[rows], kv, self.k)

    def put(self, rows, other):
        """Overwrite the given rows with the rows of ``other``."""
        self.u[rows], self.ell[rows], self.J[rows] = other.u, other.ell, other.J
        if self.kv is not None:
            self.kv[rows] = other.kv


def evaluate(f, k, u, ell=None) -> Evaluation:
    """The one evaluation of the objective (and constraint) maps at every
    row of a stack u ``(n, d)`` that every solver step there reads; ``ell``,
    when the caller already holds ell(u), is taken as it is."""
    if ell is None:
        ell = f.value_batch(u)
    J = f.jacobian_batch(u)
    if k is None or k.dim_con == 0:
        return Evaluation(u, ell, J)
    return Evaluation(u, ell, J, k.value_batch(u), k)


def _tmv(A, x):
    # A^T x row by row, (..., p, q) and (..., p) -> (..., q); a stack makes
    # the same BLAS call per row that one matrix does
    return np.matmul(np.swapaxes(A, -1, -2), x[..., None])[..., 0]


def _mv(A, x):
    # A x row by row, (..., p, q) and (..., q) -> (..., p)
    return np.matmul(A, x[..., None])[..., 0]


def _dot(a, b):
    # row-wise a . b, the BLAS dot that a @ b is on one row
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _norm(a):
    # row-wise np.linalg.norm, which is sqrt(a @ a) on a vector
    return np.sqrt(_dot(a, a))


def stationarity_residual(pt, pi, params, nu=None):
    """J^T pi + mu u - c (x - alpha u) - Jac[k]^T nu at every row of the
    evaluated stack ``pt``; the constraint term is left out when ``nu`` is
    None. A box's Jac[k]^T nu is nu_lo - nu_hi; any other set evaluates
    Jac[k] at the rows whose nu is nonzero only, as the term vanishes on the
    others."""
    r = _tmv(pt.J, pi) + params.mu * pt.u - params.dual_momentum(pt.u)
    if nu is None or not nu.any():
        return r
    rows = np.flatnonzero(nu.any(axis=1))
    if pt.k.bounds is not None:
        lo, hi = _box_faces(nu[rows])
        r[rows] -= lo - hi
    else:
        r[rows] -= _tmv(pt.k.jacobian_batch(pt.u[rows]), nu[rows])
    return r


def _projected_residual(k, u, F, gamma):
    # |u - P(u - gamma F)| / gamma row by row for the projection P onto K (the
    # identity when k is None): the variational-inequality residual of F
    v = u - gamma * F
    return _norm(u - (v if k is None else k.project(v))) / gamma


def spd_solve(s, L, r):
    """x with (s I + L^T L) x = r for s > 0 and L ``(m, d)``, row by row on a
    stack of r ``(n, d)`` with one L per row ``(n, m, d)`` or one L for every
    row; NumericalError when the solution is not finite.

    By the Sherman-Morrison-Woodbury identity x = (r - L^T y) / s, where
    (s I_m + L L^T) y = L r (Golub & Van Loan, Matrix Computations, 4th ed.,
    sec. 2.1.4): an m x m system whatever d, and no d x d matrix. LAPACK's
    LU solve takes the stack in one call and solves each of its rows exactly
    as it solves that row alone.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite x raises below
        A = np.matmul(L, np.swapaxes(L, -1, -2)) + s * np.eye(L.shape[-2])
        try:
            y = np.linalg.solve(A, _mv(L, r)[..., None])[..., 0]
        except np.linalg.LinAlgError:
            raise NumericalError("preconditioner solve failed (singular system)") from None
        x = (r - _tmv(L, y)) / s
    if not np.isfinite(x).all():
        raise NumericalError("preconditioner solve failed (non-finite solution)")
    return x


def merit_psi(g, pt, pi, params, *, nu=None):
    """Violation of the optimality system at every row of the evaluated
    stack ``pt``; zero exactly at its solutions. The squared stationarity
    residual (with the multiplier term when ``nu`` is given) in the
    inverse-preconditioner norm, plus the squared fixed-point displacement
    of the dual prox."""
    r = stationarity_residual(pt, pi, params, nu)
    term1 = 0.5 * _dot(r, spd_solve(params.stiffness, pt.J, r))
    E = params.dual_shift(pi)
    disp = g.prox_conjugate(pi + _RHO * (pt.ell + E), _RHO, start=pi) - pi  # pi is its fixed point
    return term1 + _dot(disp, disp) / (2.0 * _RHO * _RHO)


def multiplier_estimate(pt, pi, params):
    """Nonnegative least-squares multipliers over the nearly active set A of
    every row of the evaluated stack ``pt``. Exact projection zeroes the
    ascent signal on active constraints, so they come from stationarity:
    min ||Jac[k]_A^T nu - F|| over nu >= 0 on A, every row of A a candidate
    whether or not the step pushes against it. A box takes its faces' closed
    form max(0, +-F_i) and never forms Jac[k]; any other set takes the
    Lawson-Hanson NNLS ``_nnls``."""
    nu = np.zeros(pt.kv.shape)
    active = _near(pt.kv)
    rows = np.flatnonzero(active.any(axis=1))
    if not rows.size:
        return nu
    F = stationarity_residual(pt.take(rows), pi[rows], params)
    if pt.k.bounds is not None:
        for half, on, b in zip(_box_faces(nu), _box_faces(active[rows]), (F, -F)):
            half[rows] = np.where(on, np.maximum(b, 0.0), 0.0)
        return nu
    cols = np.flatnonzero(active[rows].any(axis=0))  # the constraints some row needs
    Jk = pt.k.jacobian_batch(pt.u[rows])[..., cols, :]  # a shared (p, d) stays one matrix, as does G
    G = np.matmul(Jk, np.swapaxes(Jk, -1, -2))
    nu[np.ix_(rows, cols)] = _nnls(G, _dot(Jk, F[:, None, :]), active[np.ix_(rows, cols)], _norm(F))
    return nu


def _nnls(G, b, on, fnorm):
    # min |A x - F| over x >= 0, zero off the mask ``on``, row by row from G =
    # A^T A (per row or shared), b = A^T F and |F|: Lawson & Hanson's active
    # set (Solving Least Squares Problems, 1974, ch. 23) in lock step. A row
    # frees the masked column of largest w = b - G x once x solves its free
    # block, and stops when no w exceeds its rounding, so no column dependent
    # on the free ones makes the LU solve singular; a solve that leaves a free
    # column <= 0 steps back to the first zero crossing, which leaves.
    n, p = b.shape
    G, tol = np.broadcast_to(G, (n, p, p)), 8 * p * np.finfo(float).eps
    x, free, grow, live = np.zeros((n, p)), np.zeros((n, p), dtype=bool), np.ones(n, dtype=bool), np.arange(n)
    for _ in range(3 * p):
        Gl, xl = G[live], x[live]
        w = b[live] - _mv(Gl, xl)
        noise = tol * (np.sqrt(np.diagonal(Gl, axis1=1, axis2=2)) * fnorm[live, None] + _mv(np.abs(Gl), xl))
        w[~on[live] | free[live] | ~grow[live, None] | (w <= noise)] = 0.0
        j = w.argmax(axis=1)
        more = w[np.arange(live.size), j] > 0.0
        free[live[more], j[more]] = True
        live = live[more | ~grow[live]]
        if not live.size:
            break
        fl = free[live]
        M = np.where(fl[:, :, None] & fl[:, None, :], G[live], np.eye(p))  # the identity off the free block
        z = np.linalg.solve(M, np.where(fl, b[live], 0.0)[..., None])[..., 0]
        neg = fl & (z <= 0.0)
        grow[live] = ok = ~neg.any(axis=1)
        x[live[ok]] = np.where(fl[ok], z[ok], 0.0)
        r, xr, zr, neg = live[~ok], x[live[~ok]], z[~ok], neg[~ok]
        # the step to each crossing; 0 where x = 0 already, so no 0 / 0
        ratio = np.divide(xr, xr - zr, out=np.where(neg, 0.0, np.inf), where=neg & (xr > 0.0))
        step = ratio.min(axis=1, keepdims=True)
        xr += step * (zr - xr)
        free[r] &= (ratio > step) & (xr > 0.0)  # the first crossing leaves exactly
        x[r] = np.where(free[r], xr, 0.0)
    return x


def _near(kv):
    # the nearly active constraints of every row, from its values k(u)
    return kv <= _ACTIVE_THRESHOLD


def _box_faces(x):
    # the lower-face and upper-face halves, as views, of a box's constraint
    # axis: its rows are +e_i, then -e_i (``box_constraints``)
    d = x.shape[-1] // 2
    return x[..., :d], x[..., d:]


def _tangent_projector(k, Jk, active):
    # The projector P onto the tangent space of each row's active
    # constraints, as the map V -> V P on stacks (n, r, d), and |Jk_A|_F^2
    # of each row's active Jacobian rows. A box zeroes the coordinates of
    # its active faces (unit rows) and reads no Jk. Any other set takes
    # P = I - W^T W for an orthonormal basis W of the row space of A, its
    # Jacobian Jk with the inactive rows zeroed, by Gram-Schmidt over the
    # rows of A. A remainder with |v|^2 <= 1e-15 |A|_F^2, pinv's cutoff on
    # the Gram matrix, lies in the span of the earlier rows and is dropped,
    # so P is pinv's I - A^T (A A^T)^+ A on parallel and zeroed rows too.
    if k.bounds is not None:
        free = ~np.logical_or(*_box_faces(active))[:, None, :]
        return (lambda V: np.where(free, V, 0.0)), active.sum(axis=1)
    A = np.where(active[..., None], Jk, 0.0)
    AA = (A * A).sum(axis=(-2, -1))
    W = np.zeros(A.shape)
    for j in range(A.shape[-2]):
        v = A[:, j] - _tmv(W, _mv(W, A[:, j]))
        vv = _dot(v, v)
        keep = vv > 1e-15 * AA
        W[:, j] = np.where(keep[:, None], v / np.sqrt(np.where(keep, vv, 1.0))[:, None], 0.0)
    return (lambda V: V - np.matmul(np.matmul(V, np.swapaxes(W, -1, -2)), W)), AA


def _secant_row(pt, step, dg, stiff, near):
    # Each row's memoryless structured SR1 row x: with r = dg - B0 step for
    # the Gauss-Newton matrix B0 = stiff I + J^T J at the row's point, x =
    # r / sqrt(r . step), so B0 + x x^T maps the last step to the gradient
    # change dg (the secant equation). Zero where r . step is not safely
    # positive, keeping B positive definite, or a constraint is nearly active
    # (``near``, None without constraints).
    r = dg - stiff * step - _tmv(pt.J, _mv(pt.J, step))
    rs = _dot(r, step)
    ok = rs > 1e-12 * _norm(r) * _norm(step)
    if near is not None:
        ok &= ~near.any(axis=1)
    return np.where(ok[:, None], r / np.sqrt(np.where(ok, rs, 1.0))[:, None], 0.0)


def _direction(k, pt, gvec, params, x, near):
    # The preconditioned descent direction of every row of the evaluated
    # stack pt, in one solve, with B = s I + J^T J + x x^T for the row's
    # secant row x (``_secant_row``). Preconditioning a projected-gradient
    # step can rotate it across the tangent space of a curved active
    # constraint, so a row applies B + Jk_A^T Jk_A within that space only and
    # divides the normal component by its trace s d + |J|_F^2 + |x|^2 +
    # |Jk_A|_F^2 (the two-metric step). With P the tangent projector and
    # z = Q y for an orthonormal basis Q of its range, (s I + P L^T L P) z =
    # P g for L = [J; x] is the tangent system Q^T B Q y = Q^T g. A nearly
    # active constraint j counts only where the step pushes against it,
    # (Jac[k] g)_j > 0 (Bertsekas, SIAM J. Control Optim. 1982): on a box,
    # g_i > 0 at lower face i and g_i < 0 at its upper face. A row with no
    # such constraint has P = I and takes the plain preconditioned step bit
    # for bit. ``near`` is the rows' nearly active constraints (``_near``),
    # None without constraints.
    s = params.stiffness
    L = np.concatenate((pt.J, x[:, None, :]), axis=1)
    active, Jk = near, None
    if near is not None and near.any():
        if k.bounds is not None:
            active = near & np.concatenate((gvec > 0.0, gvec < 0.0), axis=1)
        else:
            Jk = k.jacobian_batch(pt.u)
            active = near & (_mv(Jk, gvec) > 0.0)
    if active is None or not active.any():  # P = I on every row
        return spd_solve(s, L, gvec)
    project, kk = _tangent_projector(k, Jk, active)
    Pg = project(gvec[:, None, :])[:, 0]
    trace = s * gvec.shape[-1] + (L * L).sum(axis=(-2, -1)) + kk
    return spd_solve(s, project(L), Pg) + (gvec - Pg) / trace[:, None]


def _fitted_minimizer(t, f0, slope, ft):
    # The minimizer of the quadratic in the step length through the
    # composite's value f0 and slope at 0 and its value ft at t; NaN where
    # that quadratic has no minimizer.
    curv = (ft - f0 - slope * t) / (t * t)
    return np.divide(-slope, 2.0 * curv, out=np.full_like(t, np.nan), where=(slope < 0.0) & (curv > 0.0))


def _interpolated_step(t, t_fit):
    # The next Armijo trial of rows whose trial at t failed: its fitted
    # minimizer t_fit kept within [0.1 t, 0.5 t], or half of t where the fit
    # has none (Nocedal & Wright, Numerical Optimization, 2nd ed., sec. 3.5).
    return np.where(np.isnan(t_fit), _LS_BETA * t, np.clip(t_fit, _LS_FLOOR * t, _LS_BETA * t))


def _inner_solve(f, g, k, pt, pi, params, cfg):
    # Inner solve of the shifted scalarization over K (or all of R^d when k
    # is None) from every row of the evaluated stack pt, in lock step:
    # projected gradient descent along the two-metric direction, a positive
    # definite scaling of the gradient that descends wherever the gradient
    # is nonzero (Bertsekas, SIAM J. Control Optim. 1982), with Armijo
    # backtracking along the projection arc. A row stops when its residual
    # meets res_tol, when it stops moving, when it accepts no step in 30
    # trials or at _MAXIT_U; a trial within 4 ulps of the start value passes,
    # so a row at the composite's rounding floor keeps stepping. From its
    # second step on, a row away from active constraints adds the secant row
    # of its last step and gradient change (``_secant_row``), afresh in each
    # inner solve. A failed trial's next step length is the safeguarded
    # minimizer of the quadratic fitted to its value and the slope gvec . s / t
    # of its realized step s (``_interpolated_step``). A row's next step first
    # tries twice its accepted length, the curvature mismatch being
    # persistent, or the fitted minimizer where the accepted step overshot
    # past it (``_LS_OVERSHOOT``): doubling would repeat that zig-zag. Returns
    # the evaluation of each row's last point and each row's descent steps.
    E = params.dual_shift(pi)
    stiff = params.stiffness
    cx = params.c * params.x
    gamma = 1.0 / stiff
    move_tol = min(_TOL_U, 0.01 * cfg.eps)
    res_tol = 0.05 * cfg.eps
    project = k.project if k is not None else (lambda u_: u_)

    def val(rows, u, ell):
        # the composite at the points u of the given rows from ell = ell(u)
        return g.value_batch(ell + E[rows]) + 0.5 * stiff * _dot(u, u) - _dot(cx, u)

    n = pt.u.shape[0]
    pt = pt.take(np.arange(n))  # a copy, updated row by row
    u_prev, g_prev = np.empty_like(pt.u), np.empty_like(pt.u)  # each row's last point and gradient
    fu = val(slice(None), pt.u, pt.ell)
    t_first = np.ones(n)  # the first Armijo trial of each row's next step
    steps = np.zeros(n, dtype=int)
    live = np.arange(n)
    for it in range(_MAXIT_U):
        if not live.size:
            break
        at = slice(None) if live.size == n else live  # every row live: read pt's rows in place
        cur = pt.take(at)
        gvec = _tmv(cur.J, g.gradient(cur.ell + E[at])) + stiff * cur.u - cx
        go = ~(_projected_residual(k, cur.u, gvec, gamma) <= res_tol)
        if not go.all():
            at = live = live[go]
            cur, gvec = cur.take(go), gvec[go]
            if not live.size:
                break
        steps[at] += 1
        u, near = cur.u, None if k is None else _near(cur.kv)
        # every row still live after the first step accepted its last one
        x = np.zeros_like(u) if it == 0 else _secant_row(cur, u - u_prev[at], gvec - g_prev[at], stiff, near)
        u_prev[at], g_prev[at] = u, gvec
        direction = _direction(k, cur, gvec, params, x, near)
        # The first trial reads the live rows whole, and copies of its stacks
        # (user maps may return read-only arrays) hold the candidates, which
        # the rows failing it (todo) fill in from later, gathered trials.
        t, f0, rows, ut, dt, gt, todo = t_first[live], fu[at], at, u, direction, gvec, None
        for _ in range(30):
            trial = project(ut - t[:, None] * dt)
            ell_t = f.value_batch(trial)
            ft = val(rows, trial, ell_t)
            step = trial - ut
            # projection-arc form of the Armijo sufficient decrease
            ok = ft <= f0 - _LS_C1 * _dot(step, step) / np.maximum(t, 1e-300)
            # or no change the composite's three-term sum can resolve
            ok |= ft <= f0 + 4 * _DBL_EPSILON * np.abs(f0)
            t_fit = _fitted_minimizer(t, f0, _dot(gt, step) / t, ft)
            t_next = np.where(t_fit < _LS_OVERSHOOT * t, t_fit, np.minimum(1.0, t / _LS_BETA))
            if todo is None:  # t_first of a failing row is set again if it passes, else never read
                t_first[at], cand, ell_c, fc, found = t_next, trial.copy(), ell_t.copy(), ft, ok
                todo = fail = np.flatnonzero(~ok)
            else:
                hit = todo[ok]
                cand[hit], ell_c[hit], fc[hit], found[hit] = trial[ok], ell_t[ok], ft[ok], True
                t_first[live[hit]] = t_next[ok]
                todo, fail = todo[~ok], ~ok
            if not todo.size:
                break
            t, f0 = _interpolated_step(t[fail], t_fit[fail]), f0[fail]
            rows, ut, dt, gt = live[todo], u[todo], direction[todo], gvec[todo]
        hit = np.flatnonzero(found) if todo.size else slice(None)
        if todo.size:  # a row that accepted no trial stops where it is
            at = live = live[hit]
        stays = _norm(cand[hit] - u[hit]) <= move_tol  # before put: u may be pt's own rows
        if live.size:
            pt.put(at, evaluate(f, k, cand[hit], ell_c[hit]))
            fu[at] = fc[hit]
        live = live[~stays]
    return pt, steps


def run_primal_dual(f, g, k, params, cfg) -> BatchResult:
    """The outer loop behind ``solve_batch``, one row per row of params.tau,
    from u = x / max(alpha, 1) projected onto K, pi = 0 and zero
    multipliers; inputs are assumed consistent. Each dual candidate theta
    gets one inner solve, whose last point is the row's candidate; a row
    accepts the first candidate in ``_THETAS`` order whose merit does not
    rise. The full step (theta = 1) takes one round over every live row;
    the rows it leaves stack their damped candidates as rows of one more
    round, theta-major, as many thetas at a time as keep that round within
    the full step's row count. So a lone solve tries one theta per round,
    and no round holds more rows than the full step."""
    work = BatchResult()

    def timed(layer, fn, *args, **kwargs):  # fn(*args, **kwargs), its seconds added to work.timings[layer]
        from time import perf_counter  # function-local: importing the solver does no extra work
        start = perf_counter()
        out = fn(*args, **kwargs)
        work.timings[layer] += perf_counter() - start
        return out

    n, m = params.tau.shape[0], 0 if k is None else k.dim_con
    # the loop writes the start evaluation's rows, so it takes a copy: user
    # maps may return read-only arrays
    U = np.tile(params.x / max(params.alpha, 1.0), (n, 1))
    pt = evaluate(f, k, U if k is None else k.project(U)).take(np.arange(n))
    del U  # the copy is the one start stack kept
    PI, nu = np.zeros((n, f.dim_obj)), np.zeros((n, m))
    psi = timed("merit", merit_psi, g, pt, PI, params, nu=nu)
    work.merit_evals = 1
    psi_floor = cfg.eps**2 * np.maximum(1.0, psi)
    merit_history = [[p] for p in psi.tolist()]
    residual_history: List[List[float]] = [[] for _ in range(n)]
    iterations = np.zeros(n, dtype=int)
    converged = np.zeros(n, dtype=bool)
    moved = np.zeros(n, dtype=bool)  # the rows that accepted a candidate, so nu holds its multipliers
    live = np.arange(n)

    for it in range(1, cfg.maxit_outer + 1):
        if not live.size:
            break
        iterations[live] = it
        P, cur, pi = params.take(live), pt.take(live), PI[live]
        pi_new = timed("dual_step", g.gradient, cur.ell + P.dual_shift(pi))  # the dual step, pi = grad g(ell + E)
        nxt = None  # the accepted candidates, once a round leaves some row without one
        todo, thetas = np.arange(live.size), _THETAS  # the rows without a candidate yet, the thetas left
        while todo.size and thetas:
            q = min(live.size // todo.size, len(thetas))  # the first round is the full step alone
            whole = todo.size == live.size  # then q = 1: the round is the live rows, in order
            rows = np.tile(todo, q)  # candidate j * todo.size + i is row todo[i] at thetas[j]
            base, full = (pi, pi_new) if whole else (pi[todo], pi_new[todo])
            pi_cand = np.concatenate([full if theta == 1.0 else base if theta == 0.0 else base + theta * (full - base)
                                      for theta in thetas[:q]])
            thetas = thetas[q:]
            P_rows, pt_rows = (P, cur) if whole else (P.take(rows), cur.take(rows))
            # one inner solve per dual candidate, its last point the candidate
            cand, steps = timed("inner_solve", _inner_solve, f, g, k, pt_rows, pi_cand, P_rows, cfg)
            # a row leaves the lock step for good, so the batch took as many
            # steps as its longest row
            work.inner_steps += int(steps.max(initial=0))
            work.inner_row_steps += int(steps.sum())
            nu_cand = timed("multipliers", multiplier_estimate, cand, pi_cand, P_rows) if m else nu[live[rows]]
            psi_cand = timed("merit", merit_psi, g, cand, pi_cand, P_rows, nu=nu_cand)
            work.merit_evals += 1
            psi_now = psi[live[rows]]
            ok = np.isfinite(psi_cand) & (psi_cand <= psi_now + _MERIT_SLACK * np.maximum(1.0, psi_now))
            ok = ok.reshape(q, todo.size)
            hit = ok.any(axis=0)
            if whole and hit.all():  # no row has a candidate yet, and every row takes this one
                nxt, pi_next, nu_next, psi_next, todo = cand, pi_cand, nu_cand, psi_cand, todo[:0]
                break
            if nxt is None:
                nxt, pi_next, nu_next, psi_next = cur.take(np.arange(live.size)), pi.copy(), nu[live], psi[live]
            pick = ok.argmax(axis=0)[hit] * todo.size + np.flatnonzero(hit)  # each row's first passing theta
            won = todo[hit]
            nxt.put(won, cand.take(pick))
            pi_next[won], nu_next[won], psi_next[won] = pi_cand[pick], nu_cand[pick], psi_cand[pick]
            todo = todo[~hit]

        rows = live
        if todo.size:
            iterations[live[todo]] -= 1  # merit stalled at its numerical floor
            keep = ~np.isin(np.arange(live.size), todo)
            rows = live[keep]
            nxt, pi_next, nu_next, psi_next = nxt.take(keep), pi_next[keep], nu_next[keep], psi_next[keep]
        F = stationarity_residual(nxt, pi_next, params)
        res = _norm(F) if k is None else _projected_residual(k, nxt.u, F, 1.0 / params.stiffness)
        pi_disp, nu_disp = _norm(pi_next - PI[rows]), _norm(nu_next - nu[rows])
        u_disp = _norm(nxt.u - pt.u[rows])
        pt.put(rows, nxt)
        PI[rows], nu[rows], psi[rows], moved[rows] = pi_next, nu_next, psi_next, True
        for row, r, p in zip(rows.tolist(), res.tolist(), psi_next.tolist()):
            residual_history[row].append(r)
            merit_history[row].append(p)
        if not (np.isfinite(res).all() and np.isfinite(psi_next).all()):
            raise NumericalError("iteration diverged to non-finite values")
        done = (res <= cfg.eps) & (pi_disp <= cfg.eps) & (nu_disp <= cfg.eps) & (psi_next <= psi_floor[rows])
        converged[rows[done]] = True
        # a fixed point reached at the solver's numerical resolution stops too
        stagnant = np.maximum(np.maximum(pi_disp, nu_disp), u_disp) <= 1e-14 * (1.0 + _norm(nxt.u))
        live = rows[~done & ~stagnant]

    complementarity = feasibility = np.zeros(n)
    if m:
        fresh = np.flatnonzero(~moved)  # rows still at their start, nu = 0 there
        if fresh.size:
            nu[fresh] = multiplier_estimate(pt.take(fresh), PI[fresh], params.take(fresh))
        complementarity = np.abs(nu * pt.kv).max(axis=1)
        feasibility = 0.0 - np.minimum(pt.kv.min(axis=1), 0.0)  # +0.0, not -0.0, on the boundary
    p_bar, E_bar = params.dual_momentum(pt.u), params.dual_shift(PI)
    work.extend(map(SolveResult, pt.u, PI, p_bar, E_bar, pt.ell, iterations.tolist(), converged.tolist(),
                    residual_history, merit_history, nu, complementarity.tolist(), feasibility.tolist()))
    return work


def solve(f, g, params, cfg=None, *, constraints=None) -> SolveResult:
    """Run the primal-dual iteration from u = x / max(alpha, 1), pi = 0 and
    zero multipliers: ``solve_batch`` on the one tau of ``params``.

    ``constraints`` (a ConstraintSet k(u) >= 0 with a projector) adds the
    multiplier channel; without it the problem is unconstrained. The
    scalarizer must be smooth. Stops when the (projected) stationarity
    residual, the dual displacements, and the merit target are all below
    tolerance. Non-convergence within ``maxit_outer`` is reported through
    ``converged=False``, not an exception; non-finite iterates raise
    NumericalError.
    """
    one = HopfLaxParams(params.x, params.tau[None], params.alpha, params.c, params.mu)
    return solve_batch(f, g, one, cfg, constraints=constraints)[0]


def solve_batch(f, g, params, cfg=None, *, constraints=None) -> BatchResult:
    """``solve`` at every row of the stacked ``params.tau`` ``(n, N)``, all
    rows in one lock-step batch; returns one result per row, each equal bit
    for bit to the lone solve at its tau, with the batch's inner work."""
    cfg = cfg or SolverConfig()
    if f.dim_obj != g.dim_obj or params.dim_u != f.dim_u or params.dim_obj != f.dim_obj:
        raise ValueError("dimension mismatch between objective, scalarizer, and params")
    if constraints is not None and constraints.dim_u != f.dim_u:
        raise ValueError("constraint set dimension mismatch")
    if not g.smooth:
        raise ValueError("the solver needs a smooth scalarizer; SoftMax with a small eps approximates a max")
    k = constraints if constraints is not None and constraints.dim_con > 0 else None
    if k is not None and k.projector is None:
        raise ValueError("constraint set has no projector")
    if params.tau.ndim != 2:
        raise ValueError("solve_batch takes a stack of tau, shape (n, N); solve takes one")
    return run_primal_dual(f, g, k, params, cfg)


def _cloud_minima(g, Y, E):
    """The array of np.min(g.value_batch(Y + E_i)) over the rows E_i of ``E``.

    For ``SoftMax`` only candidate rows take that formula, which leaves each
    minimum bit for bit the same. With A = exp(Y/eps - max Y/eps) and
    B_i = exp(E_i/eps - max E_i/eps), S_ri = A_r . B_i is exp(v_ri/eps) times
    a constant, for the exact soft max v_ri of Y_r + E_i. Let u = 2^-53 and
    M_i = (max|Y| + max|E_i|)/eps. In log S the screen errs by at most
    d_S = u (3 M_i + N + 4): 3 u M_i in the exp arguments, 2 u in each exp,
    u in the products and (N - 1) u in the positive sum. In v/eps the direct
    formula errs by at most d_V = u (6 M_i + 4 N + 1), the |m_hat|/eps scale:
    rounding (Y + E_i)/eps and its shift move the 1-Lipschitz log-sum-exp by
    4 u M_i, exp, sum and log add (N + 1 + log N) u, and m + log and * eps
    2 u (M_i + log N). A row attaining the direct minimum thus has
    S_r <= S_q exp(2 d_S + 2 d_V) for every row q, and the candidates are
    the rows with S_r <= S_min (1 + 2 margin), margin = 64 u (M_i + N + 1).
    S is taken in row chunks c, for column i only where L_ci <= T_i (1 + 2
    margin), T_i the least S_qi over a strided subsample: L_ci = (A's least
    entries in c) . B_i is below every S_ri of c (A, B > 0) and errs like S,
    so the bound above holds for it, with q the row of T_i, where c holds a
    row attaining the direct minimum. S_min is the least S taken; a chunk is
    taken again only for the columns whose minimum there is within their
    bound, and every column's candidates go through one ``g.value_batch``
    call, reduced per column by ``np.minimum.at``. The bound needs normal
    numbers, so a column with an entry of A or B_i below _CERT_FLOOR, like
    any other g, takes the whole cloud in a call of its own, as does a column
    without a candidate below +inf.
    """
    cand_rows, cand_cols = [], []  # each candidate's cloud row and column
    if isinstance(g, SoftMax) and len(Y):
        with np.errstate(over="ignore", invalid="ignore"):
            A, zE = Y / g.eps, E / g.eps  # A is the one cloud-sized array
            np.exp(np.subtract(A, A.max(), out=A), out=A)
            B = np.exp(zE - zE.max(axis=1, keepdims=True))
            margin = 64 * 2.0**-53 * ((max(Y.max(), -Y.min()) + np.abs(E).max(axis=1)) / g.eps + Y.shape[1] + 1)
        cols = np.flatnonzero((B.min(axis=1) >= _CERT_FLOOR) & (A.min() >= _CERT_FLOOR))
        starts, Bt, slack = np.arange(0, len(Y), _CERT_CHUNK), B[cols].T, 1 + 2 * margin[cols]
        if cols.size:
            top = (A[:: max(1, len(A) // _CERT_CHUNK)] @ Bt).min(axis=0) * slack
            pairs = np.minimum.reduceat(A, starts, axis=0) @ Bt <= top
            chunk_min = np.full(pairs.shape, np.inf)
            for c in np.flatnonzero(pairs.any(axis=1)):
                ks = np.flatnonzero(pairs[c])
                chunk_min[c, ks] = (A[starts[c] : starts[c] + _CERT_CHUNK] @ Bt[:, ks]).min(axis=0)
            bound = chunk_min.min(axis=0) * slack
            near = chunk_min <= bound
            for c in np.flatnonzero(near.any(axis=1)):
                ks = np.flatnonzero(near[c])
                r, j = np.nonzero(A[starts[c] : starts[c] + _CERT_CHUNK] @ Bt[:, ks] <= bound[ks])
                cand_rows.append(starts[c] + r)
                cand_cols.append(cols[ks[j]])
    out = np.full(len(E), np.inf)
    if cand_rows:
        c = np.concatenate(cand_cols)
        np.minimum.at(out, c, g.value_batch(Y[np.concatenate(cand_rows)] + E[c]))
    for i in np.flatnonzero(out == np.inf):  # not screened, or no candidate below +inf
        out[i] = np.min(g.value_batch(Y + E[i]))
    return out


def gap_certificates(g, results, params, cloud):
    """Duality-gap certificate (gap, bound) of each converged result. Theory
    gives 0 <= gap <= bound; a cloud minimum, never below the true one, can
    only lower the gap.

    gap = g(ell(u*) + E) - min over the cloud of g(ell(u) + E), with ell(u*)
    from ``result.objectives`` and the minima in one ``_cloud_minima`` pass;
    bound = D_R(u*, p/mu) = mu/2 |u* - p/mu|^2 from ``u_star``, ``p_bar``, the
    Bregman distance of the regularizer R(u) = mu/2 |u|^2 of ``params``
    (only its mu is read). Each is one stacked call over the results."""
    if not results:
        return []
    ell, E, u, p = (np.array([getattr(r, name) for r in results])
                    for name in ("objectives", "E_bar", "u_star", "p_bar"))
    gaps = g.value_batch(ell + E) - _cloud_minima(g, cloud.points_obj, E)
    d = u - p / params.mu
    return list(zip(gaps.tolist(), (0.5 * params.mu * _dot(d, d)).tolist()))
