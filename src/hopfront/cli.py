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
import sys
import time

import numpy as np

from . import __version__
from .core import HopfLaxParams, SoftMax
from .oracle import (
    certification_cloud,
    convex_envelope_front,
    front_distance,
    greedy_pareto_filter,
    nondominated_mask,
    sample_cloud,
)
from .problems import get_problem, problem_ids
from .solver import SolverConfig, solve
from .sweep import TauPath, sweep


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fmt(value):
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
    lines = [",".join(cols)] + [",".join(_fmt(v) for v in row) for row in rows]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def write_front_csv(path, front):
    d = front.samples[0].u.shape[0]
    n_obj = front.samples[0].objectives.shape[0]
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
    _write_csv(path, cols, rows)


def read_front_csv(path):
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


def write_cloud_csv(path, cloud):
    cols = (["sample_index"] + _columns("u", cloud.points_u.shape[1])
            + _columns("ell", cloud.points_obj.shape[1]))
    rows = ([i, *u, *y] for i, (u, y) in enumerate(zip(cloud.points_u, cloud.points_obj)))
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
        if layer["style"] == "line":
            color = layer["color"]
            coords = " ".join(f"{sx(p[0]):.2f},{sy(p[1]):.2f}" for p in P)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1" '
                f'stroke-dasharray="{layer.get("dash", "")}"/>'
            )
            for p in P:
                parts.append(f'<circle cx="{sx(p[0]):.2f}" cy="{sy(p[1]):.2f}" r="1.5" fill="{color}"/>')
        else:
            color = _svg_color(0.5)
            n = max(len(P) - 1, 1)
            for j, p in enumerate(P):
                parts.append(
                    f'<circle cx="{sx(p[0]):.2f}" cy="{sy(p[1]):.2f}" r="3" fill="{_svg_color(j/n)}"/>'
                )
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
    p.add_argument("--rho", type=float, default=defaults.rho)
    p.add_argument("--sigma", type=float, default=defaults.sigma)
    p.add_argument("--eta", type=float, default=defaults.eta)
    p.add_argument("--eps", type=float, default=defaults.eps)
    p.add_argument("--maxit", dest="maxit_outer", type=int, default=defaults.maxit_outer)
    p.add_argument("--pref-eps", type=float, default=0.1, help="softmax sharpness")
    p.add_argument("--no-safeguard", dest="safeguard", action="store_false")


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


def _reference(problem, args):
    """Base cloud, its strong nondominated subset and the convex envelope."""
    if args.grid is not None:
        base = sample_cloud(problem, grid=args.grid)
    else:
        base = sample_cloud(problem, mc=args.mc, seed=args.seed)
    reference = greedy_pareto_filter(base, mode="strong")
    envelope = convex_envelope_front(problem, n_weights=args.weights, base_cloud=base)
    return base, reference, envelope


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
        "objectives": problem.objective.value(res.u_star).tolist(),
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
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    if not os.access(outdir, os.W_OK):
        print(f"error: output directory {outdir!r} not writable", file=sys.stderr)
        return 1

    reference = envelope = cert_cloud = None
    if args.compare:
        t_ref = time.perf_counter()
        _, reference, envelope = _reference(problem, args)
        cert_cloud = certification_cloud(problem, mc=args.mc, seed=args.seed)
        if n_obj == 2:
            # shifted-scalarization minima live on the nondominated subset
            cert_cloud = greedy_pareto_filter(cert_cloud, mode="strong")
        ref_seconds = time.perf_counter() - t_ref

    start = time.perf_counter()
    front = sweep(
        problem,
        SoftMax(args.pref_eps, n_obj),
        alpha=args.alpha,
        c=args.c,
        mu=args.mu,
        path=TauPath(args.tau_start, args.tau_end, args.n),
        cfg=_build_cfg(args),
        warm_start=args.warm_start,
        reference=cert_cloud,
    )
    duration = time.perf_counter() - start

    front_csv = os.path.join(outdir, "front.csv")
    write_front_csv(front_csv, front)

    converged_pts = np.array([s.objectives for s in front.samples if s.converged])
    if args.compare and len(converged_pts):
        fwd, bwd, haus = front_distance(converged_pts, reference.points_obj)
        print(f"front distance forward={fwd!r} backward={bwd!r} hausdorff={haus!r}")

    for p, q in args.pairs:
        i, j = p - 1, q - 1
        layers = []
        if reference is not None:
            order = np.argsort(reference.points_obj[:, i])
            layers.append(
                {"points": reference.points_obj[order][:, [i, j]], "label": "reference front",
                 "style": "line", "color": "#222222"}
            )
        if envelope is not None:
            order = np.argsort(envelope.points_obj[:, i])
            layers.append(
                {"points": envelope.points_obj[order][:, [i, j]], "label": "convex envelope",
                 "style": "line", "color": "#cc2222", "dash": "6,3"}
            )
        if len(converged_pts):
            layers.append(
                {"points": converged_pts[:, [i, j]], "label": "solver front", "style": "colored"}
            )
        if not layers:
            continue
        name = "front.svg" if args.pairs == [[1, 2]] else f"front_{p}_{q}.svg"
        write_scatter_svg(
            os.path.join(outdir, name),
            layers,
            title=f"{problem.id}: traced front",
            xlabel=f"objective {p}",
            ylabel=f"objective {q}",
        )

    timings = {"reference_seconds": ref_seconds} if args.compare else {}
    _write_manifest(outdir, args, duration_s=duration, converged=front.converged_count(),
                    total=len(front.samples), **timings)
    print(
        f"swept {len(front.samples)} samples ({front.converged_count()} converged) "
        f"in {duration:.3f}s -> {front_csv}"
    )
    return 0 if front.converged_count() else 2


def cmd_oracle(args):
    problem = get_problem(args.problem)
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    if args.grid is None and args.mc is None:
        print("error: empty reference (need --grid R or --mc COUNT > 0)", file=sys.stderr)
        return 1
    base, reference, envelope = _reference(problem, args)
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
        worst = max(worst, float(np.linalg.norm(res)))
    report("moreau-identity", worst <= 1e-10, f"max residual {worst:.2e}")

    # Filter equivalence against the quadratic brute force.
    mismatches = 0
    for trial in range(40):
        n_obj = [2, 3, 5][trial % 3]
        P = rng.random((rng.integers(5, 200), n_obj))
        keep = nondominated_mask(P, "strong")
        brute = np.ones(P.shape[0], dtype=bool)
        for i in range(P.shape[0]):
            for j in range(P.shape[0]):
                if i != j and np.all(P[j] <= P[i]) and np.any(P[j] < P[i]):
                    brute[i] = False
                    break
        if not np.array_equal(keep, brute):
            mismatches += 1
    report("filter-equivalence", mismatches == 0, f"{mismatches} mismatching clouds of 40")

    # Closed-form stationary point of the scalar linear problem.
    from .core import VectorObjective, WeightedSum

    ident = VectorObjective(1, 1, lambda u: u, lambda u: np.array([[1.0]]))
    params = HopfLaxParams(x=np.array([1.0]), tau=np.array([0.0]), alpha=1.0, c=1.0, mu=1.0)
    res = solve(ident, WeightedSum([1.0]), params, SolverConfig(eps=1e-9))
    err = max(abs(res.u_star[0]), abs(res.p_bar[0] - 1.0), abs(res.E_bar[0] - 1.0))
    report("closed-form-kkt", res.converged and err <= 1e-8, f"max error {err:.2e}")

    # Gap certificate + merit descent on a short nonconvex sweep.
    problem = get_problem("ex2a")
    cloud = sample_cloud(problem, grid=150)
    front = sweep(problem, n_samples=15, reference=cloud)
    gaps_ok = True
    merit_ok = True
    for s in front.samples:
        if s.converged and s.gap is not None:
            gaps_ok &= -1e-6 <= s.gap <= s.bregman_bound + 1e-6
    g2 = problem.default_preference()
    for tau in TauPath(problem.tau_start, problem.tau_end, 5).points():
        r = solve(problem.objective, g2, problem.params_for(tau), constraints=problem.constraints)
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
    p_sweep.add_argument("--cold-start", dest="warm_start", action="store_false")
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
