"""Acceptance gate: one test per criterion, run at the stated tolerances.

Heavy artifacts (benchmark runs, sampling clouds) are shared through
module-scoped fixtures. Each test finishes by printing a PASS line with the
measured quantities (visible with -s or on failure).
"""
import time

import numpy as np
import pytest

from conftest import epsilon_filter, jacobian_check, nonconvexity_witness, read_front_csv

import hopfront as hf
from hopfront.cli import main as cli_main
from hopfront.core import SoftMax, VectorObjective, WeightedSum, HopfLaxParams
from hopfront.solver import SolverConfig, solve

BENCHMARKS = ("ex1", "ex2a", "ex2b", "ex3a-d10", "ex3b")


def _pass(num, msg):
    print(f"criterion-{num:02d} PASS: {msg}")


def all_pairs_filter(P):
    # independent matrix-form all-pairs filter (minimization, strong mode)
    le = np.all(P[:, None, :] <= P[None, :, :], axis=2)
    lt = np.any(P[:, None, :] < P[None, :, :], axis=2)
    return ~np.logical_and(le, lt).any(axis=0)


@pytest.fixture(scope="module")
def ex1_cli_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("ex1_run")
    start = time.perf_counter()
    code = cli_main(["sweep", "--problem", "ex1", "--n", "100", "--compare", "--out", str(out)])
    elapsed = time.perf_counter() - start
    return code, out, elapsed


@pytest.fixture(scope="module")
def benchmark_runs():
    """One batch of solves from the default start along a 40-point path per
    benchmark, plus the certification cloud used for the duality-gap checks."""
    runs = {}
    for pid in BENCHMARKS:
        prob = hf.get_problem(pid)
        g = prob.default_preference()
        cfg = SolverConfig()
        cloud = hf.certification_cloud(prob, mc=20000, seed=0)
        taus = hf.tau_line(prob.tau_start, prob.tau_end, 40)
        params = HopfLaxParams(prob.x, taus, prob.alpha, prob.c, prob.mu)
        results = hf.solve_batch(prob.objective, g, params, cfg, constraints=prob.constraints)
        chain = [(params.take(i), res) for i, res in enumerate(results)]
        runs[pid] = (prob, g, cfg, cloud, chain)
    return runs


def test_criterion_01_example1_reproduction(ex1_cli_run):
    code, out, elapsed = ex1_cli_run
    assert code == 0
    _, rows = read_front_csv(out / "front.csv")
    converged = [r for r in rows if r["converged"]]
    assert len(converged) >= 90

    prob = hf.get_problem("ex1")
    us = np.array([[r["u_1"], r["u_2"]] for r in converged])
    kvals = prob.constraints.value_batch(us)
    assert kvals.min() >= -1e-6
    parabola_gap = np.abs(us[:, 1] - us[:, 0] ** 2).max()
    assert parabola_gap <= 0.02

    objs = np.array([[r["ell_1"], r["ell_2"]] for r in converged])
    ref = hf.greedy_pareto_filter(hf.sample_cloud(prob, mc=20000, seed=11))
    forward = hf.front_distance(objs, ref.points_obj)[0]
    assert forward <= 0.05
    assert elapsed <= 5.0
    _pass(1, f"{len(converged)}/100 converged, forward={forward:.4f}, "
             f"max|u2-u1^2|={parabola_gap:.2e}, wall={elapsed:.2f}s")


def test_criterion_02_nonconvex_front_recovery():
    details = []
    for pid in ("ex2a", "ex2b"):
        prob = hf.get_problem(pid)
        start = time.perf_counter()
        front = hf.sweep(prob, hf.tau_line(prob.tau_start, prob.tau_end, 100))
        elapsed = time.perf_counter() - start
        objs = np.array([r.objectives for r in front if r.converged])
        base = hf.sample_cloud(prob, grid=150)
        ref = hf.greedy_pareto_filter(base)
        forward = hf.front_distance(objs, ref.points_obj)[0]
        assert forward <= 0.03, pid
        assert elapsed <= 5.0, pid
        details.append(f"{pid}: forward={forward:.4f}, wall={elapsed:.2f}s")
        if pid == "ex2b":
            envelope = hf.convex_envelope_front(prob, n_weights=16, base_cloud=base)
            witnesses = nonconvexity_witness(objs, envelope.points_obj, margin=0.05)
            assert witnesses >= 5
            details.append(f"ex2b witnesses={witnesses}")
    _pass(2, "; ".join(details))


def test_criterion_03_gap_certificates(benchmark_runs):
    checked = 0
    worst_low = np.inf
    worst_high = -np.inf
    for pid, (prob, g, cfg, cloud, chain) in benchmark_runs.items():
        assert len(cloud) >= 20000
        for params, res in chain:
            if not res.converged:
                continue
            [(gap, bound)] = hf.gap_certificates(g, [res], params, cloud)
            assert -1e-6 <= gap <= bound + 1e-6, (pid, gap, bound)
            worst_low = min(worst_low, gap)
            worst_high = max(worst_high, gap - bound)
            checked += 1
    assert checked > 150
    _pass(3, f"{checked} converged solves certified; min gap={worst_low:.2e}, "
             f"max gap-bound={worst_high:.2e}")


def test_criterion_04_merit_descent(benchmark_runs):
    worst_increase = -np.inf
    worst_final = -np.inf
    n_solves = 0
    for pid, (prob, g, cfg, cloud, chain) in benchmark_runs.items():
        for params, res in chain:
            history = np.asarray(res.merit_history)
            if history.size > 1:
                worst_increase = max(worst_increase, float(np.diff(history).max()))
            if res.converged:
                bound = cfg.eps**2 * max(1.0, history[0])
                worst_final = max(worst_final, history[-1] - bound)
            n_solves += 1
    assert worst_increase <= 1e-12
    assert worst_final <= 0.0
    _pass(4, f"{n_solves} solves; max merit increase={worst_increase:.2e}, "
             f"worst final-minus-bound={worst_final:.2e}")


def test_criterion_05_filter_equivalence():
    rng = np.random.default_rng(2024)
    for trial in range(200):
        n_obj = (2, 3, 5)[trial % 3]
        n = int(rng.integers(2, 501))
        P = np.round(rng.random((n, n_obj)) * 16) / 16.0  # force exact ties
        keep = hf.nondominated_mask(P, "strong")
        assert np.array_equal(keep, all_pairs_filter(P)), trial
    _pass(5, "200 random clouds (n<=500, N in {2,3,5}) match the all-pairs filter exactly")


def test_criterion_06_closed_form_kkt():
    f = VectorObjective(1, 1, lambda u: u, lambda u: np.ones((len(u), 1, 1)))
    g = WeightedSum([1.0])
    params = HopfLaxParams(x=np.array([1.0]), tau=np.array([0.0]), alpha=1.0, c=1.0, mu=1.0)
    res = solve(f, g, params, SolverConfig(eps=1e-9))
    assert res.converged
    assert res.iterations <= 10
    assert abs(res.u_star[0] - 0.0) <= 1e-8
    assert abs(res.p_bar[0] - 1.0) <= 1e-8
    assert abs(res.E_bar[0] - 1.0) <= 1e-8
    _pass(6, f"converged in {res.iterations} iterations, |u*|={abs(res.u_star[0]):.1e}")


def test_criterion_07_high_dimensional_scaling():
    times = {}
    for d in (3, 10, 30, 100):
        prob = hf.get_problem(f"ex3a-d{d}")
        start = time.perf_counter()
        front = hf.sweep(prob, hf.tau_line(prob.tau_start, prob.tau_end, 100))
        times[d] = time.perf_counter() - start
        assert len(front) == 100, d
    assert times[100] <= 600.0
    ds = np.log([10.0, 30.0, 100.0])
    ts = np.log([times[10], times[30], times[100]])
    slope = float(np.polyfit(ds, ts, 1)[0])
    assert slope <= 3.5
    _pass(7, "times " + ", ".join(f"d={d}: {t:.2f}s" for d, t in times.items())
             + f"; log-log slope={slope:.2f}")


def test_criterion_08_five_objective_run():
    prob = hf.get_problem("ex3b")
    start = time.perf_counter()
    front = hf.sweep(prob, hf.tau_line(prob.tau_start, prob.tau_end, 100))
    elapsed = time.perf_counter() - start
    conv = sum(r.converged for r in front)
    assert conv >= 80
    objs = np.array([r.objectives for r in front if r.converged])
    us = np.array([r.u_star for r in front if r.converged])
    cloud = hf.SampleCloud(us, objs, "solver front")
    filtered = epsilon_filter(cloud, 1e-9)
    assert hf.nondominated_mask(filtered.points_obj, "strong").all()
    assert elapsed <= 120.0
    _pass(8, f"{conv}/100 converged, {len(filtered)} points after eps-filter, wall={elapsed:.2f}s")


def test_criterion_09_numerical_hygiene(rng):
    worst_jac = 0.0
    for pid in BENCHMARKS:
        prob = hf.get_problem(pid)
        lo, hi = prob.feasible_box
        for _ in range(20):
            u = rng.uniform(lo, hi)
            worst_jac = max(worst_jac, jacobian_check(prob.objective, u))
    assert worst_jac <= 1e-5

    g = SoftMax(0.1, 3)
    worst_grad = 0.0
    for _ in range(100):
        y = rng.normal(scale=4.0, size=3)
        fd = np.zeros(3)
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1e-6
            fd[i] = (g.value(y + e) - g.value(y - e)) / 2e-6
        worst_grad = max(worst_grad, float(np.abs(g.gradient(y) - fd).max()))
    assert worst_grad <= 1e-6

    worst_moreau = 0.0
    for _ in range(100):
        v = rng.normal(scale=3.0, size=3)
        rho = float(rng.uniform(0.05, 5.0))
        resid = g.prox_conjugate(v, rho) + rho * g.prox_scaled(v / rho, rho) - v
        worst_moreau = max(worst_moreau, float(np.linalg.norm(resid)))
    assert worst_moreau <= 1e-10
    _pass(9, f"jacobians<={worst_jac:.1e}, softmax grad fd<={worst_grad:.1e}, "
             f"moreau<={worst_moreau:.1e}")


def test_criterion_10_constrained_unconstrained_reduction():
    f = VectorObjective(1, 1, lambda u: u, lambda u: np.ones((len(u), 1, 1)))
    g = WeightedSum([1.0])
    params = HopfLaxParams(x=np.array([1.0]), tau=np.array([0.0]), alpha=1.0, c=1.0, mu=1.0)
    box = hf.box_constraints(np.array([-1e3]), np.array([1e3]))
    unc = solve(f, g, params, SolverConfig(eps=1e-9))
    con = solve(f, g, params, SolverConfig(eps=1e-9), constraints=box)
    assert unc.converged and con.converged
    du = abs(unc.u_star[0] - con.u_star[0])
    assert du <= 1e-8
    assert np.linalg.norm(con.nu_star) <= 1e-8
    _pass(10, f"|u_unc - u_con|={du:.1e}, |nu*|={np.linalg.norm(con.nu_star):.1e}")
