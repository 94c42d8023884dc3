import math

import numpy as np
import pytest


def brute_force_filter(points, mode="strong"):
    """Quadratic all-pairs nondominated filter; the reference the library's
    filter is checked against."""
    P = np.asarray(points, dtype=float)
    keep = np.ones(P.shape[0], dtype=bool)
    for i in range(P.shape[0]):
        for j in range(P.shape[0]):
            if i == j:
                continue
            if mode == "strong":
                if np.all(P[j] <= P[i]) and np.any(P[j] < P[i]):
                    keep[i] = False
                    break
            else:
                if np.all(P[j] < P[i]):
                    keep[i] = False
                    break
    return keep


def all_pairs_filter(points, mode="strong"):
    """Vectorised all-pairs nondominated filter: every point is compared with
    every other, a chunk of columns at a time. Fast enough to check the
    library's sort-based filter on clouds of thousands of points."""
    P = np.asarray(points, dtype=float)
    dominated = np.zeros(P.shape[0], dtype=bool)
    chunk = 256
    for start in range(0, P.shape[0], chunk):
        block = P[start : start + chunk]  # (b, N)
        if mode == "strong":
            le = np.all(P[:, None, :] <= block[None, :, :], axis=2)
            lt = np.any(P[:, None, :] < block[None, :, :], axis=2)
            dom = le & lt
        else:
            dom = np.all(P[:, None, :] < block[None, :, :], axis=2)
        dominated[start : start + chunk] = dom.any(axis=0)
    return ~dominated


def epsilon_filter(cloud, epsilon):
    """Sequential epsilon filter for ``epsilon > 0``: a point is dropped when
    some already-kept point q satisfies q <= p + epsilon componentwise with
    q != p."""
    from hopfront.oracle import SampleCloud

    P = np.asarray(cloud.points_obj, dtype=float)
    kept = []
    for i in range(P.shape[0]):
        p = P[i]
        drop = False
        for j in kept:
            q = P[j]
            if np.all(q <= p + epsilon) and not np.array_equal(q, p):
                drop = True
                break
        if not drop:
            kept.append(i)
    mask = np.zeros(P.shape[0], dtype=bool)
    mask[kept] = True
    return SampleCloud(
        points_u=cloud.points_u[mask],
        points_obj=cloud.points_obj[mask],
        source=cloud.source + "|filtered(strong)",
    )


def nonconvexity_witness(front, envelope, margin, tol=1e-9) -> int:
    """Count front points sitting on a genuine nonconvex bulge.

    A planar front point witnesses nonconvexity when it is nondominated
    within the front, at least ``margin`` away from every envelope point, and
    not dominated by any envelope point beyond ``tol``.
    """
    from hopfront.oracle import nondominated_mask

    front = np.asarray(front, dtype=float)
    if front.size == 0:
        return 0
    front = front.reshape(front.shape[0], -1)
    envelope = np.asarray(envelope, dtype=float).reshape(-1, front.shape[1])
    if front.shape[1] != 2:
        raise ValueError("witness is defined for two objectives")
    keep = nondominated_mask(front, "strong")
    count = 0
    for p in front[keep]:
        dists = np.sqrt(((envelope - p) ** 2).sum(axis=1))
        if dists.min() < margin:
            continue
        le = np.all(envelope <= p + tol, axis=1)
        lt = np.any(envelope < p - tol, axis=1)
        if np.any(le & lt):
            continue
        count += 1
    return count


def jacobian_check(f, u, h: float = 1e-6) -> float:
    """Max relative gap between the stored Jacobian and central differences.

    Relative to ``max(1, |entry|)`` so flat rows do not divide by zero.
    """
    from hopfront.core import as_vector

    if h <= 0:
        raise ValueError("h must be positive")
    J = f.jacobian(u)
    Jfd = f.fd_jacobian(as_vector(u, f.dim_u, "u")[None], h)[0]
    scale = np.maximum(1.0, np.abs(Jfd))
    return float(np.max(np.abs(J - Jfd) / scale))


def read_front_csv(path):
    """Header and rows of a ``front.csv``, each row a dict keyed by column."""
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
        rows = []
        for line in handle:
            line = line.strip()
            if not line:
                continue
            vals = line.split(",")
            rec = {}
            for key, val in zip(header, vals):
                if key in ("sample_index", "iterations"):
                    rec[key] = int(val)
                elif key == "converged":
                    rec[key] = val == "true"
                else:
                    rec[key] = float(val) if val else None
            rows.append(rec)
    return header, rows


def _projected_descent(grad_fn, val_fn, u0, project, maxit=200, tol=1e-9):
    # Spectral projected gradient: Barzilai-Borwein first trials clipped to
    # [1e-6, 1e6], halved under the nonmonotone Armijo test against the
    # largest of the last 10 accepted values.
    u = project(np.array(u0, dtype=float))
    accepted = [val_fn(u)]
    t, s, g_prev = 1.0, None, None
    for _ in range(maxit):
        g = grad_fn(u)
        if s is not None:
            sy = float(s @ (g - g_prev))
            t = min(max(float(s @ s) / sy, 1e-6), 1e6) if sy > 0.0 else 1e6
        f_ref = max(accepted[-10:])
        moved = False
        for _ in range(40):
            cand = project(u - t * g)
            fc = val_fn(cand)
            if fc <= f_ref + 1e-4 * float(g @ (cand - u)):
                if np.linalg.norm(cand - u) <= tol:
                    return cand
                s, g_prev, u = cand - u, g, cand
                accepted.append(fc)
                moved = True
                break
            t *= 0.5
        if not moved:
            return u
    return u


def scalar_envelope(problem, n_weights=16, starts=16, seed=0, base_cloud=None):
    """Weighted-sum envelope with one scalar spectral projected-gradient
    descent per weight and start, without dropping duplicate rows; the
    reference the library's lock-step batched envelope is checked against."""
    from hopfront.oracle import SampleCloud, greedy_pareto_filter, sample_cloud

    f = problem.objective
    N = f.dim_obj
    if base_cloud is None:
        base_cloud = sample_cloud(problem, mc=4000, seed=seed)
    U, Y = base_cloud.points_u, base_cloud.points_obj
    if N == 2:
        ts = np.linspace(0.0, 1.0, n_weights)
        W = np.stack([ts, 1.0 - ts], axis=1)
    else:
        rng = np.random.default_rng(seed)
        W = np.concatenate([np.eye(N), rng.dirichlet(np.ones(N), size=max(0, n_weights - N))])
    W = np.maximum(W, 1e-12)

    project = problem.projector()
    sols_u, sols_y = [], []
    for w in W:
        scores = Y @ w
        seed_idx = np.argsort(scores)[:starts]
        best_u, best_val = None, np.inf
        for i in seed_idx:
            u = _projected_descent(
                lambda u: f.jacobian(u).T @ w,
                lambda u: float(f.value(u) @ w),
                U[i],
                project,
            )
            val = float(f.value(u) @ w)
            if val < best_val:
                best_u, best_val = u, val
        sols_u.append(best_u)
        sols_y.append(f.value(best_u))
    cloud = SampleCloud(np.stack(sols_u), np.stack(sols_y), f"envelope({n_weights})")
    return greedy_pareto_filter(cloud)


def constraint_value(k, u):
    """The constraint values of k at one point u, the stack of one."""
    return k.value_batch(np.asarray(u, dtype=float)[None])[0]


def constraint_jacobian(k, u):
    """The ``(dim_con, d)`` constraint Jacobian of k at one point u, the
    stack of one, whose ``jac`` may return one matrix for every row."""
    return np.broadcast_to(k.jacobian_batch(np.asarray(u, dtype=float)[None]), (1, k.dim_con, k.dim_u))[0]


def evaluate_one(f, k, u):
    """The solver's evaluation of the stack of one point u."""
    from hopfront.solver import evaluate

    return evaluate(f, k, np.asarray(u, dtype=float)[None])


def rowwise_direction(k, pt, gvec, params, x):
    """The solver's preconditioned descent direction, one row at a time, with
    the two-metric step next to the nearly active constraints the step pushes
    against ((Jk g)_j > 0), from the dense preconditioner
    B = (mu + alpha c) I + J^T J + x x^T for the row's secant row x (+ Jk^T Jk
    on those rows Jk) and a dense orthonormal basis Q of the null space of
    Jk; the reference the solver's low-rank stacked projector step is checked
    against. Returns the directions and each row's spectral norm |B|."""
    from scipy.linalg import null_space

    from hopfront.solver import _ACTIVE_THRESHOLD

    d = pt.u.shape[-1]
    active = pt.kv <= _ACTIVE_THRESHOLD
    out, B_norm = np.empty_like(gvec), np.empty(len(gvec))
    for i, gi in enumerate(gvec):
        active[i] &= constraint_jacobian(k, pt.u[i]) @ gi > 0  # near, and the step pushes against it
        B = params.stiffness * np.eye(d) + pt.J[i].T @ pt.J[i] + np.outer(x[i], x[i])
        if active[i].any():
            Jk_a = constraint_jacobian(k, pt.u[i])[active[i]]
            B += Jk_a.T @ Jk_a
            Q = null_space(Jk_a)
            out[i] = Q @ np.linalg.solve(Q.T @ B @ Q, Q.T @ gi) + (gi - Q @ (Q.T @ gi)) / B.trace()
        else:
            out[i] = np.linalg.solve(B, gi)
        B_norm[i] = np.linalg.norm(B, 2)
    return out, B_norm


def scalar_entropic_weights(v, eps, rho, tol=1e-13, maxit=200):
    """One row's weights of the entropic conjugate prox, by the scalar
    safeguarded Newton root-find on its multiplier theta in the bracket
    [-1/rho, eps log n], from its lower end; the reference the library's
    lock-step stacked root-find is checked against."""
    from hopfront.core import _wright_omega

    with np.errstate(over="ignore"):
        base = (v - v.max()) / eps - np.log(eps * rho)

    def weights(theta):
        return eps * rho * _wright_omega(base - theta / eps)

    scale = max(1.0, eps, 1.0 / rho)
    lo, hi = -1.0 / rho, eps * np.log(v.size)
    theta = lo
    for _ in range(maxit):
        s = weights(theta)
        val = float(np.sum(s)) - 1.0
        if abs(val) <= tol:
            return s
        if val > 0.0:
            lo = theta
        else:
            hi = theta
        omega = s / (eps * rho)
        deriv = -rho * float(np.sum(omega / (1.0 + omega)))
        theta_new = theta - val / deriv if deriv != 0.0 else 0.5 * (lo + hi)
        if not (lo < theta_new < hi):
            theta_new = 0.5 * (lo + hi)
        if abs(theta_new - theta) <= 1e-16 * scale:
            return weights(theta_new)
        theta = theta_new
    raise AssertionError("reference root-find did not converge")


def _pointwise_parabola_root(a, b):
    # Cardano or the trigonometric form in scalar math, the closest real
    # root, then Newton to the library's tolerance.
    from hopfront.constrained import _NEWTON_TOL

    p, q = (1.0 - 2.0 * b) / 2.0, -a / 2.0
    disc = 0.25 * q * q + (p / 3.0) ** 3
    if disc > 0.0:
        sq = math.sqrt(disc)
        roots = [math.copysign(abs(v) ** (1.0 / 3.0), v) for v in (-0.5 * q + sq, -0.5 * q - sq)]
        roots = [roots[0] + roots[1]]
    elif p == 0.0:
        roots = [0.0]
    else:
        m = 2.0 * math.sqrt(-p / 3.0)
        ang = math.acos(min(1.0, max(-1.0, -4.0 * q / (m * m * m))))
        roots = [m * math.cos((ang + 2.0 * math.pi * k) / 3.0) for k in range(3)]
    x = min(roots, key=lambda t: (t - a) ** 2 + (t * t - b) ** 2)
    for _ in range(60):
        psi = 2.0 * x * x * x + (1.0 - 2.0 * b) * x - a
        if abs(psi) <= _NEWTON_TOL:
            return x
        dpsi = 6.0 * x * x + (1.0 - 2.0 * b)
        assert dpsi > 0.0, "reference root-find stalled"
        x -= psi / dpsi
    raise AssertionError("reference root-find did not converge")


def pointwise_epigraph_halfspace(u):
    """Projection of one point onto {u2 >= u1^2} intersect {u1 + 2 u2 <= 3}
    in scalar arithmetic: the parabola projection if it lands in the
    halfspace, else the halfspace projection put on the edge if it lands in
    the epigraph, else the nearer vertex; the reference the library's
    stacked projection is checked against."""
    a, b = float(u[0]), float(u[1])
    if b >= a * a and a + 2.0 * b <= 3.0:
        return np.array([a, b])
    if b < a * a:
        x = _pointwise_parabola_root(a, b)
        p = np.array([x, x * x])
    else:
        p = np.array([a, b])
    if p[0] + 2.0 * p[1] <= 3.0:
        return p
    if a + 2.0 * b > 3.0:
        h1 = b - 2.0 * ((a + 2.0 * b - 3.0) / 5.0)
        h0 = 3.0 - 2.0 * h1
        if h1 >= h0 * h0:
            return np.array([h0, h1])
    vertices = np.array([[1.0, 1.0], [-1.5, 2.25]])
    return vertices[int(np.argmin(((vertices - (a, b)) ** 2).sum(axis=1)))].copy()


def cellwise_front_csv(front):
    """The text of a ``front.csv`` written one ``_fmt`` cell at a time; the
    reference the library's array-cell writer is checked against."""
    from hopfront.cli import _columns, _fmt

    d, n_obj = front.samples[0].u.shape[0], front.samples[0].objectives.shape[0]
    cols = (
        ["sample_index", "t"] + _columns("tau", n_obj) + _columns("u", d)
        + _columns("ell", n_obj) + _columns("pi", n_obj) + _columns("E", n_obj)
        + ["residual", "iterations", "converged", "gap", "bregman_bound"]
    )
    rows = (
        [s.index, s.t, *s.tau, *s.u, *s.objectives, *s.pi, *s.E,
         s.residual, s.iterations, s.converged, s.gap, s.bregman_bound]
        for s in front.samples
    )
    return "\n".join([",".join(cols)] + [",".join(_fmt(v) for v in row) for row in rows]) + "\n"


def cellwise_cloud_csv(cloud):
    """The text of a cloud CSV written one ``_fmt`` cell at a time."""
    from hopfront.cli import _columns, _fmt

    cols = ["sample_index"] + _columns("u", cloud.points_u.shape[1]) + _columns("ell", cloud.points_obj.shape[1])
    rows = ([i, *u, *y] for i, (u, y) in enumerate(zip(cloud.points_u, cloud.points_obj)))
    return "\n".join([",".join(cols)] + [",".join(_fmt(v) for v in row) for row in rows]) + "\n"


def pointwise_scatter_svg(layers, title, xlabel="objective 1", ylabel="objective 2"):
    """The text of ``write_scatter_svg`` with every point mapped and formatted
    on its own; the reference the library's array writer is checked
    against."""
    from hopfront.cli import _svg_color

    W, H = 640, 480
    ml, mr, mt, mb = 60, 20, 30, 45
    pts = np.concatenate([np.asarray(l["points"], dtype=float) for l in layers if len(l["points"])])
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    span = np.where(hi - lo < 1e-12, 1.0, hi - lo)
    lo, hi = lo - 0.05 * span, hi + 0.05 * span
    span = hi - lo

    def sx(x):
        return ml + (x - lo[0]) / span[0] * (W - ml - mr)

    def sy(y):
        return H - mb - (y - lo[1]) / span[1] * (H - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W/2:.1f}" y="18" text-anchor="middle" font-size="13">{title}</text>',
        f'<line x1="{ml}" y1="{H-mb}" x2="{W-mr}" y2="{H-mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{H-mb}" stroke="black"/>',
        f'<text x="{(ml+W-mr)/2:.1f}" y="{H-8}" text-anchor="middle" font-size="11">{xlabel}</text>',
        f'<text x="14" y="{(mt+H-mb)/2:.1f}" text-anchor="middle" font-size="11" '
        f'transform="rotate(-90 14 {(mt+H-mb)/2:.1f})">{ylabel}</text>',
    ]
    for i in range(5):
        fx, fy = lo[0] + span[0] * i / 4, lo[1] + span[1] * i / 4
        parts.append(f'<text x="{sx(fx):.1f}" y="{H-mb+14}" text-anchor="middle" font-size="9">{fx:.3g}</text>')
        parts.append(f'<text x="{ml-6}" y="{sy(fy)+3:.1f}" text-anchor="end" font-size="9">{fy:.3g}</text>')
    legend_y = mt + 8
    for layer in layers:
        P = np.asarray(layer["points"], dtype=float)
        if len(P) == 0:
            continue
        if layer["style"] == "line":
            color = layer["color"]
            coords = " ".join(f"{sx(p[0]):.2f},{sy(p[1]):.2f}" for p in P)
            parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1" '
                         f'stroke-dasharray="{layer.get("dash", "")}"/>')
            for p in P:
                parts.append(f'<circle cx="{sx(p[0]):.2f}" cy="{sy(p[1]):.2f}" r="1.5" fill="{color}"/>')
        else:
            color = _svg_color(0.5)
            n = max(len(P) - 1, 1)
            for j, p in enumerate(P):
                parts.append(f'<circle cx="{sx(p[0]):.2f}" cy="{sy(p[1]):.2f}" r="3" fill="{_svg_color(j/n)}"/>')
        parts.append(f'<rect x="{W-mr-150}" y="{legend_y-8}" width="10" height="10" fill="{color}"/>')
        parts.append(f'<text x="{W-mr-135}" y="{legend_y}" font-size="10">{layer["label"]}</text>')
        legend_y += 16
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def pairwise_front_distance(A, B):
    """(forward, backward, hausdorff) from one scalar distance per pair, its
    squares summed left to right; the reference ``front_distance`` is checked
    against."""
    def dist(a, b):
        s = 0.0
        for x, y in zip(a, b):
            s += (x - y) * (x - y)
        return math.sqrt(s)

    A, B = np.asarray(A, dtype=float).tolist(), np.asarray(B, dtype=float).tolist()
    forward = max(min(dist(a, b) for b in B) for a in A)
    backward = max(min(dist(a, b) for a in A) for b in B)
    return forward, backward, max(forward, backward)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
