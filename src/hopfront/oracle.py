"""Brute-force references and front metrics.

Grid / Monte Carlo sampling, nondominated filtering, weighted-sum envelope
baselines, and set distances. These are the validation oracles the solver
results are checked against, so everything here is deliberately simple and
deterministic. The 2-D filter sorts once, by f1 (Kung, Luccio & Preparata,
J. ACM 22, 1975). The N > 2 filter screens with the front of a subsample and
compares one objective at a time, as rejection sampling tests constraints
one column at a time. The envelope runs its spectral projected-gradient
descents (SPG; Birgin, Martinez & Raydan 2000, with the nonmonotone test of
Grippo, Lampariello & Lucidi 1986), one per weight and start, in lock step
as one batch: each row keeps its own step and stopping test, and leaves the
batch when it stops.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import as_count


@dataclass(frozen=True, eq=False)
class SampleCloud:
    """Objective samples, their decision vectors row for row where they are
    kept (``points_u`` is None in objective-space clouds), and a provenance
    tag."""

    points_u: Optional[np.ndarray]
    points_obj: np.ndarray
    source: str

    def __post_init__(self):
        if self.points_u is not None and self.points_u.shape[0] != self.points_obj.shape[0]:
            raise ValueError("points_u and points_obj must be index-aligned")

    def __len__(self):
        return self.points_obj.shape[0]


_BLOCK = 64  # points compared per vectorised step of the N != 2 filter
_SCREEN = 256  # subsample size of the N != 2 filter's screen, used from 2 * _SCREEN points
_PLANE = 1 << 18  # bytes per boolean plane of the screen
_ENVELOPE_STARTS = 16  # descents per envelope weight, from its best cloud points
_GLL_MEMORY = 10  # accepted values the envelope's nonmonotone Armijo test looks back on
_BB_MIN, _BB_MAX = 1e-6, 1e6  # clip bounds of the envelope's Barzilai-Borwein step
_CERT_ENRICH = 20000  # optimal-manifold samples of a certification cloud
_CLOUD_CHUNK = 1 << 16  # decision entries (rows x d) per objective call on a cloud


def _dominated_mask_2d(P, strong):
    # Exact, ties handled explicitly: each f1 group's least f2, and the
    # running minimum of the earlier groups' least f2 (the best f2 at strictly
    # smaller f1), do not depend on the order inside a group.
    order = np.argsort(P[:, 0])
    f1 = P[order, 0]
    starts = np.flatnonzero(np.concatenate(([True], f1[1:] != f1[:-1])))
    del f1  # the sorted copies are the filter's peak memory
    f2 = P[order, 1]
    least = np.minimum.reduceat(f2, starts)
    bound = np.concatenate(([np.inf], np.minimum.accumulate(least)[:-1]))
    if strong:
        # smaller f1 and f2 <= ours (f2 >= b is f2 > b one ulp down), or
        # equal f1 and f2 strictly smaller
        bound = np.minimum(np.nextafter(bound, -np.inf), least)
    mask = np.empty(len(f2), dtype=bool)
    mask[order] = f2 > np.repeat(bound, np.diff(starts, append=len(f2)))
    return mask


def _dominated_by(C, Xt, strong):
    # Whether a row of C dominates each column (point) of Xt, plane by plane.
    merge = np.logical_or if strong else np.logical_and
    le, lt = C[:, 0, None] <= Xt[0], C[:, 0, None] < Xt[0]
    for j in range(1, Xt.shape[0]):
        le &= C[:, j, None] <= Xt[j]
        merge(lt, C[:, j, None] < Xt[j], out=lt)
    return (le & lt if strong else lt).any(axis=0)


def _dominated_mask_sorted(P, strong):
    n, Pt = P.shape[0], np.ascontiguousarray(P.T)
    dominated = np.zeros(n, dtype=bool)
    if n >= 2 * _SCREEN:
        # Screen: drop what the front of a strided subsample dominates. This
        # is exact by transitivity: a survivor's dominators are survivors.
        sub = P[:: n // _SCREEN]
        front = sub[~_dominated_mask_sorted(sub, strong)]
        step = _PLANE // len(front) + 1
        for start in range(0, n, step):
            dominated[start : start + step] = _dominated_by(front, Pt[:, start : start + step], strong)
    alive = np.flatnonzero(~dominated)
    # A dominator sorts lexicographically before what it dominates (it is
    # smaller where they first differ). By transitivity a dominated point is
    # then dominated by an earlier kept point or one in its own block, so each
    # block is compared with the kept set and itself: O(n log n + n k N).
    order = alive[np.lexsort(Pt[::-1, alive])]
    kept = P[:0]
    for start in range(0, len(order), _BLOCK):
        idx = order[start : start + _BLOCK]
        block = P[idx]
        dominated[idx] = _dominated_by(np.concatenate([kept, block]), Pt[:, idx], strong)
        kept = np.concatenate([kept, block[~dominated[idx]]])
    return dominated


def nondominated_mask(points, mode="strong"):
    """Boolean keep-mask of the nondominated subset of finite points (exact comparisons)."""
    P = np.asarray(points, dtype=float)
    if P.ndim != 2 or P.shape[1] == 0:
        raise ValueError("points must be a 2-D array with at least one objective")
    if mode not in ("strong", "weak"):
        raise ValueError(f"unknown mode {mode!r}")
    if P.shape[0] == 0:
        raise ValueError("empty cloud")
    if not np.isfinite(P).all():
        raise ValueError("non-finite objective values")
    strong = mode == "strong"
    if P.shape[1] == 2:
        return ~_dominated_mask_2d(P, strong)
    return ~_dominated_mask_sorted(P, strong)


def greedy_pareto_filter(cloud: SampleCloud) -> SampleCloud:
    """The strong nondominated subset (``nondominated_mask``), in input order."""
    mask = nondominated_mask(cloud.points_obj)
    return SampleCloud(
        points_u=None if cloud.points_u is None else cloud.points_u[mask],
        points_obj=cloud.points_obj[mask],
        source=cloud.source + "|filtered(strong)",
    )


def _feasible_mask(problem, U):
    k, (lo, hi) = problem.constraints, problem.feasible_box
    # points drawn in the box lie in a constraint box that holds it
    if k is None or k.bounds is not None and (k.bounds[0] <= lo).all() and (hi <= k.bounds[1]).all():
        return np.ones(U.shape[0], dtype=bool)
    # min down contiguous columns, not along each short row; a NaN row fails
    return np.ascontiguousarray(k.value_batch(U).T).min(axis=0) >= -k.membership_tol


def _feasible_rows(problem, U):
    # U itself when every row is feasible, as every draw of a box problem is
    keep = _feasible_mask(problem, U)
    return U if keep.all() else U[keep]


def _cloud_values(f, U):
    """``f.value_batch(U)`` in chunks of rows of at most ``_CLOUD_CHUNK``
    entries, so the objective's temporaries stay chunk-sized. Rows are
    independent (the ``VectorObjective`` contract), so the values are those
    of one call, bit for bit."""
    rows = max(1, _CLOUD_CHUNK // U.shape[1])
    Y = np.empty((U.shape[0], f.dim_obj))
    for start in range(0, U.shape[0], rows):
        Y[start : start + rows] = f.value_batch(U[start : start + rows])
    return Y


def sample_cloud(problem, grid=None, mc=None, seed=0) -> SampleCloud:
    """Raw feasible samples of a problem (no filtering).

    Exactly one of ``grid`` (per-axis resolution, 2-D box problems only) or
    ``mc`` (feasible sample count, rejection-sampled from the bounding box)
    must be given.
    """
    if (grid is None) == (mc is None):
        raise ValueError("specify exactly one of grid= or mc=")
    lo, hi = problem.feasible_box
    d = problem.objective.dim_u
    if grid is not None:
        if grid < 2:
            raise ValueError("grid resolution must be >= 2")
        grid = as_count(grid, "grid")
        if d != 2:
            raise ValueError("grid sampling is supported for 2-D problems only")
        axes = [np.linspace(lo[i], hi[i], grid) for i in range(d)]
        G = np.meshgrid(*axes, indexing="ij")
        U = _feasible_rows(problem, np.stack([g.ravel() for g in G], axis=1))
        source = f"grid({grid})"
    else:
        if mc <= 0:
            raise ValueError("empty reference: mc must be positive")
        mc = as_count(mc, "mc")
        rng = np.random.default_rng(seed)
        chunks, total = [], 0
        while total < mc:
            if len(chunks) == 1000:
                raise ValueError("empty reference: rejection sampling failed")
            chunks.append(_feasible_rows(problem, rng.uniform(lo, hi, size=(max(mc, 1024), d))))
            total += len(chunks[-1])
        U = (chunks[0] if len(chunks) == 1 else np.concatenate(chunks))[:mc]
        source = f"monte_carlo({mc},seed={seed})"
    return SampleCloud(points_u=U, points_obj=_cloud_values(problem.objective, U), source=source)


def enrich_cloud(problem, cloud) -> SampleCloud:
    """``cloud``'s objective values followed by those of ``_CERT_ENRICH``
    samples of the problem's known optimal manifold, when it declares one, as
    an objective-space cloud (``points_u`` is None); otherwise ``cloud``
    itself. The extra samples only sharpen minima estimates, never bias
    them."""
    if problem.optimal_manifold is None:
        return cloud
    extra = problem.optimal_manifold(_CERT_ENRICH)
    return SampleCloud(points_u=None,
                       points_obj=np.concatenate([cloud.points_obj, _cloud_values(problem.objective, extra)]),
                       source=cloud.source + f"|enriched({extra.shape[0]})")


def certification_cloud(problem, mc=20000, seed=0) -> SampleCloud:
    """Feasible objective-space cloud (``points_u`` is None) for duality-gap
    certificates.

    Monte Carlo base plus optimal-manifold enrichment where the problem
    provides one, so the sampled minimum of shifted scalarizations tracks the
    true minimum tightly. For box problems on a 2-D grid the plain grid is
    already adequate; this helper targets the sampled cases. A caller
    holding ``sample_cloud(problem, mc=mc, seed=seed)`` enriches it instead
    of drawing it again.
    """
    base = sample_cloud(problem, mc=mc, seed=seed)
    return enrich_cloud(problem, SampleCloud(None, base.points_obj, base.source))


def _lockstep_descent(f, project, W, U0, maxit=200, tol=1e-9):
    """Spectral projected gradient (SPG; Birgin, Martinez & Raydan, SIAM J.
    Optim. 10, 2000) on w_r . ell from ``U0[r]`` for every row r of ``W``;
    returns the final points and their weighted values.

    Each row searches the projection arc (Bertsekas, IEEE TAC 21, 1976), from
    t = 1, then from the Barzilai-Borwein step s.s / s.y of its last move (IMA
    J. Numer. Anal. 8, 1988; 1e6 where s.y <= 0, clipped to [1e-6, 1e6]). It
    halves t at most 40 times until f(u_t) <= F + 1e-4 g . (u_t - u) for
    u_t = P(u - t g), F the largest of its last 10 accepted values: the
    nonmonotone test of Grippo, Lampariello & Lucidi (SIAM J. Numer. Anal. 23,
    1986). A row stops after a step shorter than ``tol``, when no step is
    accepted, or after ``maxit`` iterations. The rows share one batched
    objective, Jacobian and projection call per iteration and halving.
    """

    def weighted(V, w):
        return (f.value_batch(V) * w).sum(axis=1)

    U = project(U0)
    FU = weighted(U, W)
    recent = np.full((U.shape[0], _GLL_MEMORY), -np.inf)  # last accepted values
    recent[:, 0] = FU
    S, G = np.zeros_like(U), np.zeros_like(U)  # each row's last step and gradient
    live = np.arange(U.shape[0])
    for it in range(maxit):
        if live.size == 0:
            break
        u, w = U[live], W[live]
        g = (f.jacobian_batch(u) * w[:, :, None]).sum(axis=1)
        t = np.ones(live.size)
        if it:
            s, sy = S[live], (S[live] * (g - G[live])).sum(axis=1)
            t = np.divide((s * s).sum(axis=1), sy, out=np.full(live.size, _BB_MAX), where=sy > 0)
            t = np.clip(t, _BB_MIN, _BB_MAX)
        G[live] = g
        fmax = recent[live].max(axis=1)
        stop = np.zeros(live.size, dtype=bool)
        todo = np.arange(live.size)  # rows still halving their step
        for _ in range(40):
            cand = project(u[todo] - t[todo, None] * g[todo])
            fc = weighted(cand, w[todo])
            step = cand - u[todo]
            ok = fc <= fmax[todo] + 1e-4 * (g[todo] * step).sum(axis=1)
            done, rows = todo[ok], live[todo[ok]]
            U[rows], FU[rows], S[rows] = cand[ok], fc[ok], step[ok]
            recent[rows, (it + 1) % _GLL_MEMORY] = fc[ok]
            stop[done] = np.linalg.norm(step[ok], axis=1) <= tol
            todo = todo[~ok]
            if todo.size == 0:
                break
            t[todo] *= 0.5
        stop[todo] = True  # no step accepted
        live = live[~stop]
    return U, FU


def _smallest(scores, k):
    # indices of the k smallest scores, ordered by (score, index)
    idx = np.argpartition(scores, k - 1)[:k]
    return idx[np.lexsort((idx, scores[idx]))]


def convex_envelope_front(problem, n_weights=16, seed=0, base_cloud=None):
    """Weighted-sum baseline: minimize w . ell(u) over the feasible set for a
    spread of weights; returns the nondominated set of the resulting points,
    each distinct point once.

    Nonconvex landscapes need multiple starts, seeded from the best cloud
    samples per weight; all weight x start descents run as one lock-step
    batch, and each weight keeps its first best start. Recovers only the
    convex envelope of the front. ``base_cloud`` (by default a 4,000-point
    ``sample_cloud``) must keep its decision vectors ``points_u``.
    """
    if n_weights < 2:
        raise ValueError("n_weights must be >= 2")
    n_weights = as_count(n_weights, "n_weights")
    f = problem.objective
    N = f.dim_obj
    if base_cloud is None:
        base_cloud = sample_cloud(problem, mc=4000, seed=seed)
    U, Y = base_cloud.points_u, base_cloud.points_obj
    if U is None:
        raise ValueError("base_cloud must keep its decision vectors (points_u is None)")

    if N == 1:
        best = int(np.argmin(Y[:, 0]))
        return SampleCloud(U[best : best + 1], Y[best : best + 1], "envelope(min)")

    if N == 2:
        ts = np.linspace(0.0, 1.0, n_weights)
        W = np.stack([ts, 1.0 - ts], axis=1)
    else:
        rng = np.random.default_rng(seed)
        W = np.concatenate([np.eye(N), rng.dirichlet(np.ones(N), size=max(0, n_weights - N))])
    W = np.maximum(W, 1e-12)

    k = min(_ENVELOPE_STARTS, len(Y))
    seed_idx = np.stack([_smallest(Y @ w, k) for w in W])  # (n_weights, k)
    sols, vals = _lockstep_descent(f, problem.projector(), np.repeat(W, k, axis=0), U[seed_idx.ravel()])
    best = np.argmin(vals.reshape(-1, k), axis=1)
    sols_u = sols.reshape(-1, k, f.dim_u)[np.arange(len(W)), best]
    sols_y = f.value_batch(sols_u)
    # Weights that share a minimizer give equal rows, which the strong
    # filter keeps; the first of each stands for them.
    first = np.sort(np.unique(sols_y, axis=0, return_index=True)[1])
    return greedy_pareto_filter(SampleCloud(sols_u[first], sols_y[first], f"envelope({n_weights})"))


def front_distance(A, B):
    """(forward, backward, hausdorff) distances between two point sets.

    forward = max over a in A of the distance from a to B.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.size == 0 or B.size == 0:
        raise ValueError("front_distance requires nonempty inputs")
    A = A.reshape(A.shape[0], -1)
    B = B.reshape(B.shape[0], -1)
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"front_distance: {A.shape[1]} objectives against {B.shape[1]}")
    # squared differences added one coordinate at a time, without an (n, m, N) temporary
    d2 = np.zeros((A.shape[0], B.shape[0]))
    for a, b in zip(A.T, B.T):
        d2 += np.square(a[:, None] - b)
    forward = float(np.sqrt(d2.min(axis=1)).max())
    backward = float(np.sqrt(d2.min(axis=0)).max())
    return forward, backward, max(forward, backward)

