"""Command-line front end: solve, sweep, oracle, check.

Emits CSV/JSON results and dependency-free SVG scatter plots. Exit codes:
0 success, 1 usage or I/O error, 2 numerical non-convergence / failed checks.
Floats are serialized in shortest round-trip decimal so re-parsing an emitted
CSV reconstructs the run bit for bit.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
import time

import numpy as np

from . import __version__
from .core import HopfLaxParams, SoftMax
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
from .problems import get_problem, problem_ids
from .solver import SolverConfig, solve
from .sweep import sweep, tau_line


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A value such as "-1,0" or "-1e-3" after --tau is a value, not an
        # option: argparse's default matcher only knows plain numbers.
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise _UsageError(message)


def _fmt(value):
    if isinstance(value, np.ndarray):  # a float array fills one cell per entry
        return ",".join(map(repr, value.tolist()))
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _color_ok(use_color, ok):
    tag = "PASS" if ok else "FAIL"
    if not use_color:
        return tag
    code = "32" if ok else "31"
    return f"\x1b[{code}m{tag}\x1b[0m"


def _use_color():
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _columns(prefix, n):
    return [f"{prefix}_{i+1}" for i in range(n)]


def _write_csv(path, cols, rows):
    lines = [",".join(cols)] + [",".join(map(_fmt, row)) for row in rows]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def write_front_csv(path, front, tau, t):
    """One row per result of ``front`` (a ``sweep``), at its tau row and its
    fraction t along the line; a result with no residual yet writes inf."""
    n_obj, d = tau.shape[1], front[0].u_star.shape[0]
    cols = (
        ["sample_index", "t"] + _columns("tau", n_obj) + _columns("u", d)
        + _columns("ell", n_obj) + _columns("pi", n_obj) + _columns("E", n_obj)
        + ["residual", "iterations", "converged", "gap", "bregman_bound"]
    )
    rows = (
        [i, t_i, tau_i, r.u_star, r.objectives, r.pi_star, r.E_bar,
         r.residual_history[-1] if r.residual_history else np.inf, r.iterations, r.converged, r.gap,
         r.bregman_bound]
        for i, (t_i, tau_i, r) in enumerate(zip(t.tolist(), tau, front))
    )
    _write_csv(path, cols, rows)


def write_cloud_csv(path, cloud):
    cols = (["sample_index"] + _columns("u", cloud.points_u.shape[1])
            + _columns("ell", cloud.points_obj.shape[1]))
    rows = ([i, u, y] for i, (u, y) in enumerate(zip(cloud.points_u, cloud.points_obj)))
    _write_csv(path, cols, rows)


def _svg_color(t):
    # Dark blue -> orange ramp over the path parameter.
    r = int(40 + 210 * t)
    g = int(60 + 90 * t)
    b = int(180 - 140 * t)
    return f"#{r:02x}{g:02x}{b:02x}"


def write_scatter_svg(path, layers, title, xlabel="objective 1", ylabel="objective 2"):
    """Minimal scatter plot: layers are dicts with keys points (n, 2), label
    and style; a "line" layer also takes color and dash, a "colored" layer
    shades its points along the path parameter."""
    W, H = 640, 480
    ml, mr, mt, mb = 60, 20, 30, 45
    pts = np.concatenate([np.asarray(l["points"], dtype=float) for l in layers if len(l["points"])])
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.where(hi - lo < 1e-12, 1.0, hi - lo)
    lo = lo - 0.05 * span
    hi = hi + 0.05 * span
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
        fx = lo[0] + span[0] * i / 4
        fy = lo[1] + span[1] * i / 4
        parts.append(
            f'<text x="{sx(fx):.1f}" y="{H-mb+14}" text-anchor="middle" font-size="9">{fx:.3g}</text>'
        )
        parts.append(
            f'<text x="{ml-6}" y="{sy(fy)+3:.1f}" text-anchor="end" font-size="9">{fy:.3g}</text>'
        )
    legend_y = mt + 8
    for layer in layers:
        P = np.asarray(layer["points"], dtype=float)
        if len(P) == 0:
            continue
        xy = list(zip(sx(P[:, 0]).tolist(), sy(P[:, 1]).tolist()))
        if layer["style"] == "line":
            color = layer["color"]
            coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in xy)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1" '
                f'stroke-dasharray="{layer.get("dash", "")}"/>'
            )
            parts.extend(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="1.5" fill="{color}"/>' for x, y in xy)
        else:
            color = _svg_color(0.5)
            n = max(len(P) - 1, 1)
            parts.extend(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{_svg_color(j/n)}"/>'
                         for j, (x, y) in enumerate(xy))
        parts.append(f'<rect x="{W-mr-150}" y="{legend_y-8}" width="10" height="10" fill="{color}"/>')
        parts.append(
            f'<text x="{W-mr-135}" y="{legend_y}" font-size="10">{layer["label"]}</text>'
        )
        legend_y += 16
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(parts) + "\n")


def _float_list(text):
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of numbers: {text!r}")


def _pair_list(text):
    try:
        return [[int(i), int(j)] for i, j in (chunk.split(":") for chunk in text.split(","))]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of i:j pairs: {text!r}")


def _add_common(p):
    # Every dest is a SolverConfig field, a sweep() keyword or a manifest
    # key under the same name, so no map translates between them.
    defaults = SolverConfig()
    p.add_argument("--problem", required=True, help="problem id (%s)" % ", ".join(problem_ids()))
    p.add_argument("--alpha", type=float, help="default: the problem's")
    p.add_argument("--c", type=float, help="default: the problem's")
    p.add_argument("--mu", type=float, help="default: the problem's")
    p.add_argument("--eps", type=float, default=defaults.eps)
    p.add_argument("--maxit", dest="maxit_outer", type=int, default=defaults.maxit_outer)
    p.add_argument("--pref-eps", type=float, default=0.1, help="softmax sharpness")


def _add_reference(p, mc):
    p.add_argument("--grid", type=int, help="reference grid resolution (2-D problems)")
    p.add_argument("--mc", type=int, default=mc, help="reference Monte Carlo sample count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weights", type=int, default=16, help="envelope weight count")
    p.add_argument("--out", help="output directory (default: cwd)")


def _build_cfg(args):
    return SolverConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(SolverConfig)})


def _resolve_hopf_lax(args, problem):
    # an explicit flag wins, 0 included, so HopfLaxParams can reject it
    for name in ("alpha", "c", "mu"):
        if getattr(args, name) is None:
            setattr(args, name, getattr(problem, name))


def _vector_arg(vals, n, name):
    if len(vals) == 1 and n > 1:
        vals = vals * n
    if len(vals) != n:
        raise _UsageError(f"{name} must have {n} components")
    return vals


class _Timings(dict):
    """Seconds per layer; ``timed(layer, fn, ...)`` runs fn and adds its time."""

    def __call__(self, layer, fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self[layer] += time.perf_counter() - start
        return out


_LAYERS = ("sampling", "filter", "envelope", "certification_cloud", "solves", "certificates", "distance",
           "output")


def _reference(problem, args, timed):
    """Base cloud, its strong nondominated subset and the convex envelope.
    The filter and the envelope are the last to read the base cloud's
    decision vectors, so it comes back in objective space only."""
    where = {"grid": args.grid} if args.grid is not None else {"mc": args.mc, "seed": args.seed}
    base = timed("sampling", sample_cloud, problem, **where)
    reference = timed("filter", greedy_pareto_filter, base)
    envelope = timed("envelope", convex_envelope_front, problem, n_weights=args.weights, seed=args.seed,
                     base_cloud=base)
    return SampleCloud(None, base.points_obj, base.source), reference, envelope


def _write_manifest(outdir, args, **fields):
    # params is the resolved namespace: replaying it as parser defaults
    # repeats the run
    params = {k: v for k, v in vars(args).items() if k not in ("func", "command", "config", "out")}
    manifest = {"command": args.command, "problem": args.problem, "version": __version__,
                "params": params, **fields}
    with open(os.path.join(outdir, "manifest.json"), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def cmd_solve(args):
    problem = get_problem(args.problem)
    n_obj = problem.objective.dim_obj
    _resolve_hopf_lax(args, problem)
    params = HopfLaxParams(x=problem.x, tau=_vector_arg(args.tau, n_obj, "--tau"),
                           alpha=args.alpha, c=args.c, mu=args.mu)
    res = solve(problem.objective, SoftMax(args.pref_eps, n_obj), params, _build_cfg(args),
                constraints=problem.constraints)
    out = {
        "problem": problem.id,
        "converged": bool(res.converged),
        "iterations": res.iterations,
        "u_star": res.u_star.tolist(),
        "pi_star": res.pi_star.tolist(),
        "p_bar": res.p_bar.tolist(),
        "E_bar": res.E_bar.tolist(),
        "residual": res.residual_history[-1] if res.residual_history else None,
        "psi": res.merit_history[-1],
        "objectives": res.objectives.tolist(),
        "nu_star": res.nu_star.tolist(),
        "complementarity": res.complementarity,
        "feasibility_violation": res.feasibility_violation,
    }
    print(json.dumps(out))
    return 0 if res.converged else 2


def cmd_sweep(args):
    problem = get_problem(args.problem)
    n_obj = problem.objective.dim_obj
    _resolve_hopf_lax(args, problem)
    # each endpoint defaults to the problem's own, independently of the other
    args.tau_start = _vector_arg(args.tau_start or problem.tau_start.tolist(), n_obj, "--tau-start")
    args.tau_end = _vector_arg(args.tau_end or problem.tau_end.tolist(), n_obj, "--tau-end")
    for p, q in args.pairs:
        if not (1 <= p <= n_obj and 1 <= q <= n_obj):
            raise _UsageError(f"--pairs index outside 1..{n_obj}: {p}:{q}")
    # a bad --n fails here, before the reference clouds are sampled
    tau = tau_line(args.tau_start, args.tau_end, args.n)
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    if not os.access(outdir, os.W_OK):
        print(f"error: output directory {outdir!r} not writable", file=sys.stderr)
        return 1

    timed = _Timings.fromkeys(_LAYERS, 0.0)
    reference = envelope = cert_cloud = None
    if args.compare:
        t_ref = time.perf_counter()
        base, reference, envelope = _reference(problem, args, timed)
        # shifted-scalarization minima live on the nondominated subset; N > 2
        # stays unfiltered, as ex3b's enriched 30k cloud keeps 20,000 points
        # and filtering it took 2.1 s against 5 ms for its 100 gaps. A Monte
        # Carlo base is the certification cloud's first rows. For N = 2 its
        # filtered subset stands in for it: by transitivity the filter keeps
        # the same points, in the same order.
        if args.grid is not None:
            cert_cloud = timed("certification_cloud", certification_cloud, problem, mc=args.mc, seed=args.seed)
        else:
            base = reference if n_obj == 2 else base
            cert_cloud = timed("certification_cloud", enrich_cloud, problem, base)
        if n_obj == 2:
            cert_cloud = timed("filter", greedy_pareto_filter, cert_cloud)
        ref_seconds = time.perf_counter() - t_ref

    start = time.perf_counter()
    front = sweep(problem, tau, SoftMax(args.pref_eps, n_obj), alpha=args.alpha, c=args.c, mu=args.mu,
                  cfg=_build_cfg(args), reference=cert_cloud)
    duration = time.perf_counter() - start
    timed.update(front.timings)
    start_output = time.perf_counter()

    front_csv = os.path.join(outdir, "front.csv")
    write_front_csv(front_csv, front, tau, np.linspace(0.0, 1.0, args.n))

    converged_pts = np.array([r.objectives for r in front if r.converged])
    if args.compare and len(converged_pts):
        fwd, bwd, haus = timed("distance", front_distance, converged_pts, reference.points_obj)
        print(f"front distance forward={fwd!r} backward={bwd!r} hausdorff={haus!r}")

    for p, q in args.pairs:
        i, j = p - 1, q - 1
        layers = [
            {"points": cloud.points_obj[np.argsort(cloud.points_obj[:, i])][:, [i, j]], "label": label,
             "style": "line", **style}
            for cloud, label, style in ((reference, "reference front", {"color": "#222222"}),
                                        (envelope, "convex envelope", {"color": "#cc2222", "dash": "6,3"}))
            if cloud is not None
        ]
        if len(converged_pts):
            layers.append({"points": converged_pts[:, [i, j]], "label": "solver front", "style": "colored"})
        if layers:
            name = "front.svg" if args.pairs == [[1, 2]] else f"front_{p}_{q}.svg"
            write_scatter_svg(os.path.join(outdir, name), layers, title=f"{problem.id}: traced front",
                              xlabel=f"objective {p}", ylabel=f"objective {q}")

    timed["output"] = time.perf_counter() - start_output - timed["distance"]
    extra = {"reference_seconds": ref_seconds} if args.compare else {}
    converged = len(converged_pts)
    _write_manifest(outdir, args, duration_s=duration, converged=converged, total=len(front),
                    timings=dict(timed), inner_steps=front.inner_steps, inner_row_steps=front.inner_row_steps,
                    merit_evals=front.merit_evals, **extra)
    print(f"swept {len(front)} samples ({converged} converged) in {duration:.3f}s -> {front_csv}")
    return 0 if converged == len(front) else 2


def cmd_oracle(args):
    problem = get_problem(args.problem)
    if args.grid is None and args.mc is None:
        print("error: empty reference (need --grid R or --mc COUNT > 0)", file=sys.stderr)
        return 1
    if args.grid is not None and args.mc is not None:
        # sweep reads --mc as the certification cloud's size; oracle has none
        raise _UsageError("--grid and --mc each choose the reference cloud: give one")
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    base, reference, envelope = _reference(problem, args, _Timings.fromkeys(_LAYERS, 0.0))
    write_cloud_csv(os.path.join(outdir, "reference.csv"), reference)
    write_cloud_csv(os.path.join(outdir, "envelope.csv"), envelope)
    _write_manifest(outdir, args, reference_size=len(reference), envelope_size=len(envelope),
                    source=base.source)
    print(f"reference front: {len(reference)} points; envelope: {len(envelope)} points")
    return 0


def cmd_check(args):
    use_color = _use_color()
    failures = 0

    def report(name, ok, detail):
        nonlocal failures
        if not ok:
            failures += 1
        print(f"{_color_ok(use_color, ok)} {name}: {detail}")

    rng = np.random.default_rng(0)

    # Moreau identity on the entropic scalarizer.
    g3 = SoftMax(0.1, 3)
    worst = 0.0
    for _ in range(100):
        v = rng.normal(scale=3.0, size=3)
        rho = float(rng.uniform(0.05, 5.0))
        res = g3.prox_conjugate(v, rho) + rho * g3.prox_scaled(v / rho, rho) - v
        # np.max, unlike max, keeps a NaN, which then fails the line
        worst = np.max([worst, float(np.linalg.norm(res))])
    report("moreau-identity", worst <= 1e-10, f"max residual {worst:.2e}")

    # The conjugate prox is a point of the simplex at any scale of v and rho.
    worst = 0.0
    for scale in np.append(10.0 ** np.arange(0, 301, 10), 1e308):
        for v in ([1.0, -1.0, 0.0], [1.0, 1.0, -1.0], [-0.5, 1.0, 0.25]):
            for rho in (1e-10, 0.05, 0.5, 5.0):
                p = g3.prox_conjugate(scale * np.array(v), rho)
                worst = np.max([worst, abs(float(p.sum()) - 1.0), -float(p.min())])
    report("prox-extreme-scale", worst <= 1e-12, f"max simplex violation {worst:.2e} for |v| up to 1e308")

    # Filter equivalence against an all-pairs comparison, in both modes: 40
    # small clouds, and clouds past the filter's subsample screen with rounded
    # coordinates (ties and duplicates) or on a simplex (all nondominated).
    def all_pairs(P, strong):  # every pair, one objective at a time
        n, merge = len(P), (np.logical_or if strong else np.logical_and)
        le, lt = np.ones((n, n), dtype=bool), np.full((n, n), not strong)
        for p in P.T:
            le &= p[:, None] <= p
            merge(lt, p[:, None] < p, out=lt)
        return ~(le & lt).any(axis=0)

    clouds = [rng.random((rng.integers(5, 200), [2, 3, 5][trial % 3])) for trial in range(40)]
    clouds += [np.round(rng.random((n, N)), 1) for n, N in ((1000, 3), (3000, 3), (1000, 5), (3000, 5))]
    clouds.append(rng.dirichlet(np.ones(5), 2000))
    mismatches = sum(not np.array_equal(nondominated_mask(P, mode), all_pairs(P, mode == "strong"))
                     for P in clouds for mode in ("strong", "weak"))
    report("filter-equivalence", mismatches == 0, f"{mismatches} mismatches on {len(clouds)} clouds x 2 modes")

    # Closed-form stationary point of the scalar linear problem.
    from .core import VectorObjective, WeightedSum

    ident = VectorObjective(1, 1, lambda u: u, lambda u: np.ones((len(u), 1, 1)))
    params = HopfLaxParams(x=np.array([1.0]), tau=np.array([0.0]), alpha=1.0, c=1.0, mu=1.0)
    res = solve(ident, WeightedSum([1.0]), params, SolverConfig(eps=1e-9))
    err = np.max(np.abs([res.u_star[0], res.p_bar[0] - 1.0, res.E_bar[0] - 1.0]))
    report("closed-form-kkt", res.converged and err <= 1e-8, f"max error {err:.2e}")

    # Gap certificate + merit descent on a short nonconvex sweep.
    problem = get_problem("ex2a")
    cloud = sample_cloud(problem, grid=150)
    front = sweep(problem, tau_line(problem.tau_start, problem.tau_end, 15), reference=cloud)
    gaps_ok = True
    merit_ok = True
    for r in front:
        if r.converged and r.gap is not None:
            gaps_ok &= -1e-6 <= r.gap <= r.bregman_bound + 1e-6
        diffs = np.diff(r.merit_history)
        merit_ok &= bool(diffs.size == 0 or diffs.max() <= 1e-12)
    report("gap-certificate", gaps_ok, "all converged samples within bounds")
    report("merit-descent", merit_ok, "histories non-increasing")

    return 2 if failures else 0


def build_parser():
    parser = _Parser(prog="hopfront", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="one solve at a fixed tau")
    _add_common(p_solve)
    p_solve.add_argument("--tau", type=_float_list, required=True, help="comma-separated tau, e.g. 0,0")
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="trace the front along a tau path")
    _add_common(p_sweep)
    _add_reference(p_sweep, mc=20000)
    p_sweep.add_argument("--n", type=int, default=100)
    p_sweep.add_argument("--compare", action="store_true", help="also build reference/envelope")
    p_sweep.add_argument("--pairs", type=_pair_list, default=[[1, 2]],
                         help="objective pairs for SVGs, e.g. 1:2,3:4")
    p_sweep.add_argument("--tau-start", type=_float_list, help="default: the problem's")
    p_sweep.add_argument("--tau-end", type=_float_list, help="default: the problem's")
    p_sweep.add_argument("--config", help="JSON manifest to take parameter defaults from")
    p_sweep.set_defaults(func=cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="brute-force reference and envelope fronts")
    p_oracle.add_argument("--problem", required=True)
    _add_reference(p_oracle, mc=None)
    p_oracle.set_defaults(func=cmd_oracle)

    p_check = sub.add_parser("check", help="run the certificate suite")
    p_check.set_defaults(func=cmd_check)

    return parser, p_sweep


def _replay_config(argv, p_sweep):
    # The manifest's params become the sweep parser's defaults, so a flag
    # given on the command line wins by argparse's own rule. --problem is
    # required, which a default does not satisfy; it goes in first, where a
    # later --problem overrides it.
    pre = _Parser(add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return argv
    with open(path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    if manifest.get("command") != "sweep":
        raise _UsageError(f"{path}: a manifest of command {manifest.get('command')!r}; "
                          "--config replays sweep manifests only")
    params = manifest.get("params", {})
    known = {a.dest for a in p_sweep._actions}
    unknown = sorted(set(params) - known)
    if unknown:
        raise _UsageError(f"{path}: params are not sweep flags: {', '.join(unknown)}")
    p_sweep.set_defaults(**params)
    return argv[:1] + ["--problem=" + manifest["problem"]] + argv[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, p_sweep = build_parser()
    try:
        args = parser.parse_args(_replay_config(argv, p_sweep))
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except (KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
