"""Core types: vector objectives, preference scalarizers, the Hopf-Lax parameters.

Everything here is immutable after construction and safe to share between
concurrent solver runs.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class NumericalError(RuntimeError):
    """An iteration produced non-finite values or a linear solve failed."""


_FD_STEP = 1e-6  # central-difference step of Jacobians a user does not supply
_DBL_EPSILON = float(np.finfo(float).eps)


def as_vector(y, n=None, name="y"):
    """Coerce to a finite 1-D float array, optionally of fixed length."""
    v = np.atleast_1d(np.asarray(y, dtype=float))
    if v.ndim != 1:
        raise ValueError(f"{name} must be a vector, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise ValueError(f"{name} must have length {n}, got {v.shape[0]}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} must be finite")
    return v


def as_count(n, name):
    """``n`` as an int of at least 1, from any integer type but no float."""
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {n!r}") from None
    if n < 1:
        raise ValueError(f"{name} must be >= 1")
    return n


def as_points(y, n, name="y"):
    """Coerce to a finite float point ``(n,)`` or stack of points ``(k, n)``."""
    v = np.asarray(y, dtype=float)
    if v.ndim != 2:
        return as_vector(v, n, name)
    if v.shape[1] != n or not np.isfinite(v).all():
        raise ValueError(f"{name} must be a finite stack of length-{n} rows, got shape {v.shape}")
    return v


@dataclass(frozen=True, eq=False)
class VectorObjective:
    """Smooth map from decision vectors to objective vectors.

    ``fn`` maps an ``(n, d)`` stack of points to its ``(n, dim_obj)``
    values and ``jac`` to its ``(n, dim_obj, d)`` Jacobians; each row must
    equal the stack of that point alone, bit for bit. When ``jac`` is
    omitted, central finite differences are used. ``value`` and
    ``jacobian`` take one point, as the stack of one.
    """

    dim_u: int
    dim_obj: int
    fn: Callable[[np.ndarray], np.ndarray]
    jac: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def value(self, u):
        return self.value_batch(as_vector(u, self.dim_u, "u")[None])[0]

    def value_batch(self, U):
        U = np.asarray(U, dtype=float).reshape(-1, self.dim_u)
        Y = np.asarray(self.fn(U), dtype=float)
        shape = (U.shape[0], self.dim_obj)
        if Y.shape != shape:
            raise ValueError(f"fn returned shape {Y.shape}, expected {shape}")
        if not np.isfinite(Y).all():
            raise NumericalError("objective returned non-finite values")
        return Y

    def jacobian(self, u):
        return self.jacobian_batch(as_vector(u, self.dim_u, "u")[None])[0]

    def jacobian_batch(self, U):
        """Jacobians at a stack of points, ``(n, dim_obj, dim_u)``."""
        U = np.asarray(U, dtype=float).reshape(-1, self.dim_u)
        if self.jac is None:
            return self.fd_jacobian(U, _FD_STEP)
        J = np.asarray(self.jac(U), dtype=float)
        shape = (U.shape[0], self.dim_obj, self.dim_u)
        if J.shape != shape:
            raise ValueError(f"jac returned shape {J.shape}, expected {shape}")
        return J

    def fd_jacobian(self, U, h):
        """Central-difference Jacobians at a stack of points with step ``h``,
        which ``jacobian_batch`` uses when no ``jac`` is given."""
        U = np.asarray(U, dtype=float).reshape(-1, self.dim_u)
        J = np.empty((U.shape[0], self.dim_obj, self.dim_u))
        for i in range(self.dim_u):
            up = U.copy()
            dn = U.copy()
            up[:, i] += h
            dn[:, i] -= h
            # divide by the realized step so a linear map gives its exact slope
            J[:, :, i] = (self.value_batch(up) - self.value_batch(dn)) / (up[:, i] - dn[:, i])[:, None]
        return J


class PreferenceFunction:
    """Monotone convex scalarizer with conjugate-prox calculus.

    Subclasses provide ``value_batch`` (one value per row of a stack
    ``(k, N)``), ``gradient`` and ``prox_scaled`` (the prox of ``g/rho``);
    ``value`` is the stack of one. ``prox_conjugate`` follows from the Moreau
    identity and always lands in the domain of the conjugate. ``gradient``,
    ``prox_scaled`` and ``prox_conjugate`` take a point ``(N,)`` or a stack
    ``(k, N)``, row by row; the solver only accepts ``smooth`` scalarizers.
    """

    dim_obj: int
    smooth: bool

    def value(self, y) -> float:
        return float(self.value_batch(as_vector(y, self.dim_obj)[None])[0])

    def value_batch(self, Y) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, y) -> np.ndarray:
        raise NotImplementedError

    def prox_scaled(self, v, rho: float) -> np.ndarray:
        """prox of g/rho at v."""
        raise NotImplementedError

    def prox_conjugate(self, v, rho: float, *, start=None) -> np.ndarray:
        """prox of rho*g^* at v, via prox_{rho g*}(v) = v - rho prox_{g/rho}(v/rho).
        ``start``, a guess of the answer for an iterative prox, is ignored."""
        if rho <= 0:
            raise ValueError("rho must be positive")
        v = as_points(v, self.dim_obj, "v")
        return v - rho * self.prox_scaled(v / rho, rho)


def _fsc_step(x, w):
    # One Fritsch-Shafer-Crowley step towards the root of w + log(w) = x;
    # returns the new iterate, the residual and w + 1 at the old one.
    r = x - w - np.log(w)
    wp1 = w + 1.0
    t = 2.0 * wp1 * (wp1 + 2.0 / 3.0 * r)
    return w * (1.0 + r / wp1 * (t - r) / (t - 2.0 * r)), r, wp1


def _wright_omega(x):
    # The Wright omega function at real x, elementwise: the w with
    # w + log(w) = x. Lawrence, Corless & Jeffrey, "Algorithm 917: complex
    # double-precision evaluation of the Wright omega function", ACM TOMS
    # 2012, restricted to real arguments: an initial guess on three
    # intervals, one FSC step and a second one where its error bound asks
    # for it; exp(x) below -50, x above 1e20, 0 at -inf. Every branch is
    # computed on every entry and the right one picked, so no branch's
    # overflow or log of a negative number is an error.
    with np.errstate(all="ignore"):
        ex, lx = np.exp(x), np.log(x)
        w = np.where(x < -2.0, ex, np.where(x < 1.0, np.exp(2.0 * (x - 1.0) / 3.0), x - lx + lx / x))
        w, r, wp1 = _fsc_step(x, w)
        r2, wp2 = r * r, wp1 * wp1
        again = np.abs((2.0 * w * w - 8.0 * w - 1.0) * (r2 * r2)) >= (72.0 * _DBL_EPSILON) * (wp2 * wp2 * wp2)
        w = np.where(again, _fsc_step(x, w)[0], w)
        return np.where(x < -50.0, ex, np.where(x > 1e20, x, w))


def _entropic_weights(v, eps, rho, tol=1e-13, maxit=200, start=None):
    # Solves the stationarity system of prox_{g/rho} for the log-sum-exp g at
    # every row of the stack v: weights s_i satisfy eps*log(s_i) + s_i/rho =
    # v_i - theta with sum(s) = 1. Each s_i is a Wright-omega evaluation,
    # leaving a monotone 1-D root-find in the row's multiplier theta. The
    # weights do not change when v shifts by a constant; with max(v) shifted
    # to 0, theta lies in [-1/rho, eps log n] however large |v| is: at -1/rho
    # the max entry's weight is 1, at eps log n every weight is below 1/n.
    # sum(s) - 1 is convex and decreasing in theta (omega is convex), so
    # Newton from the bracket's lower end climbs to the root from below; the
    # bracket, narrowed as theta moves, still safeguards it. A guess
    # ``start`` of the weights gives each entry the theta_i at which its
    # weight equals the guess; at the least of them every weight is at least
    # its guess, so for a guess on the simplex the sum is at least 1 and
    # Newton starts below the root there. Rows whose least theta_i is not
    # finite start at the bracket's lower end. Entries whose shift
    # overflows to -inf get weight omega(-inf) = 0. The rows refine their
    # own theta in lock step, each leaving at its own stop test.
    with np.errstate(over="ignore"):
        base = (v - v.max(axis=1, keepdims=True)) / eps - np.log(eps * rho)

    def weights(rows, theta):
        return eps * rho * _wright_omega(base[rows] - theta[:, None] / eps)

    scale = max(1.0, eps, 1.0 / rho)
    rows = np.arange(v.shape[0])
    lo, hi = np.full(rows.size, -1.0 / rho), np.full(rows.size, eps * np.log(v.shape[1]))
    theta = lo.copy()
    if start is not None:
        with np.errstate(all="ignore"):
            omega = np.asarray(start, dtype=float) / (eps * rho)
            guess = (eps * (base - omega - np.log(omega))).min(axis=1)
        theta = np.where(np.isfinite(guess), np.clip(guess, lo, hi), lo)
    out = np.empty_like(base)
    live = rows
    for _ in range(maxit):
        if not live.size:
            break
        s = weights(live, theta[live])
        val = s.sum(axis=1) - 1.0
        done = np.abs(val) <= tol
        out[live[done]] = s[done]
        live, s, val, th = live[~done], s[~done], val[~done], theta[live[~done]]
        pos = val > 0.0
        lo[live[pos]] = th[pos]
        hi[live[~pos]] = th[~pos]
        omega = s / (eps * rho)
        deriv = -rho * (omega / (1.0 + omega)).sum(axis=1)
        mid = 0.5 * (lo[live] + hi[live])
        new = mid.copy()
        newton = deriv != 0.0
        new[newton] = th[newton] - val[newton] / deriv[newton]
        new = np.where((lo[live] < new) & (new < hi[live]), new, mid)
        fin = np.abs(new - th) <= 1e-16 * scale
        if fin.any():
            out[live[fin]] = weights(live[fin], new[fin])
        theta[live] = new
        live = live[~fin]
    if live.size:
        raise NumericalError("entropic prox root-find did not converge")
    return out


class SoftMax(PreferenceFunction):
    """Entropic smooth maximum: eps * log(sum_i exp(y_i / eps))."""

    smooth = True

    def __init__(self, eps: float, dim_obj: int):
        if not 0.0 < eps < np.inf:
            raise ValueError("eps must be positive and finite")
        self.eps = float(eps)
        self.dim_obj = int(dim_obj)

    def value_batch(self, Y):
        # eps (m + log sum exp(y/eps - m)) with m = max y/eps; rows where y/eps
        # overflows take m + eps log sum exp((y - m)/eps) with m = max y instead
        Y = np.asarray(Y, dtype=float).reshape(-1, self.dim_obj)
        with np.errstate(over="ignore", invalid="ignore"):
            z = np.divide(Y.T, self.eps, order="C")  # the one stack-sized array
            m = z.max(axis=0)
            # each row's terms added left to right at every N, on a stack of one
            # too, where numpy's sum would go pairwise from 8 terms
            total, *rest = np.exp(np.subtract(z, m, out=z), out=z)
            for terms in rest:
                total += terms
            v = self.eps * (m + np.log(total))
            if not -np.inf < v.sum() < np.inf:  # one sum tests every row, NaN included
                big = np.flatnonzero(~np.isfinite(v))
                m = Y[big].max(axis=1, keepdims=True)
                v[big] = m[:, 0] + self.eps * np.log(np.exp((Y[big] - m) / self.eps).sum(axis=1))
        return v

    def gradient(self, y):
        y = as_points(y, self.dim_obj)
        with np.errstate(over="ignore"):  # a shift below -eps * 1.8e308 has weight exp(-inf) = 0
            z = (y - y.max(axis=-1, keepdims=True)) / self.eps
        w = np.exp(z)
        return w / w.sum(axis=-1, keepdims=True)

    def prox_scaled(self, v, rho):
        if rho <= 0:
            raise ValueError("rho must be positive")
        v = as_points(v, self.dim_obj, "v")
        return v - _entropic_weights(np.atleast_2d(v), self.eps, rho).reshape(v.shape) / rho

    def prox_conjugate(self, v, rho, *, start=None):
        # The Moreau form v - rho prox_{g/rho}(v/rho) returns exactly these
        # weights, but cancels to 0 for large |v|. ``start`` warm-starts the
        # root-find in theta.
        if rho <= 0:
            raise ValueError("rho must be positive")
        v = as_points(v, self.dim_obj, "v")
        with np.errstate(over="ignore"):
            shifted = (v - v.max(axis=-1, keepdims=True)) / rho
            return _entropic_weights(np.atleast_2d(shifted), self.eps, rho, start=start).reshape(v.shape)


class WeightedSum(PreferenceFunction):
    """Linear scalarizer sum_i w_i y_i with strictly positive weights."""

    smooth = True

    def __init__(self, weights):
        w = as_vector(weights, name="weights")
        if np.any(w <= 0):
            raise ValueError("weights must be strictly positive")
        self.weights = w
        self.dim_obj = w.size

    def value_batch(self, Y):
        Y = np.asarray(Y, dtype=float).reshape(-1, self.dim_obj)
        return Y @ self.weights

    def gradient(self, y):
        return np.broadcast_to(self.weights, as_points(y, self.dim_obj).shape).copy()

    def prox_scaled(self, v, rho):
        if rho <= 0:
            raise ValueError("rho must be positive")
        return as_points(v, self.dim_obj, "v") - self.weights / rho

    def prox_conjugate(self, v, rho, *, start=None):
        # The conjugate is the indicator of {weights}.
        if rho <= 0:
            raise ValueError("rho must be positive")
        return np.broadcast_to(self.weights, as_points(v, self.dim_obj, "v").shape).copy()


@dataclass(frozen=True, eq=False)
class HopfLaxParams:
    """Per-solve parameter bundle: state (x, tau), horizon weight alpha,
    quadratic terminal-cost weight c, and regularization strength mu.

    ``tau`` may be a stack ``(n, N)``, one row per solve of a batch; the
    maps then act row by row on stacks of ``pi`` and ``u``."""

    x: np.ndarray
    tau: np.ndarray
    alpha: float
    c: float
    mu: float

    def __post_init__(self):
        object.__setattr__(self, "x", as_vector(self.x, name="x"))
        tau = np.asarray(self.tau, dtype=float)
        if tau.ndim != 2:
            tau = as_vector(tau, name="tau")
        elif not np.isfinite(tau).all():
            raise ValueError("tau must be finite")
        object.__setattr__(self, "tau", tau)
        for name in ("alpha", "c", "mu"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")

    @property
    def dim_u(self):
        return self.x.shape[0]

    @property
    def dim_obj(self):
        return self.tau.shape[-1]

    @property
    def stiffness(self):
        """mu + alpha c, the curvature of the quadratic terms in u."""
        return self.mu + self.alpha * self.c

    def take(self, rows):
        """The parameters of the given rows of a stacked ``tau``."""
        return HopfLaxParams(self.x, self.tau[rows], self.alpha, self.c, self.mu)

    def dual_shift(self, pi):
        """E = c (tau + alpha pi)."""
        return self.c * (self.tau + self.alpha * np.asarray(pi, dtype=float))

    def dual_momentum(self, u):
        """p = c (x - alpha u)."""
        return self.c * (self.x - self.alpha * np.asarray(u, dtype=float))
