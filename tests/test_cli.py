import argparse
import json
import math
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from conftest import cellwise_cloud_csv, cellwise_front_csv, default_line, pointwise_scatter_svg, read_front_csv

from hopfront import cli
from hopfront.cli import build_parser, main, write_cloud_csv, write_front_csv, write_scatter_svg
from hopfront.constrained import ConstraintSet
from hopfront.core import HopfLaxParams, SoftMax, VectorObjective
from hopfront.oracle import convex_envelope_front, sample_cloud
from hopfront.problems import PROBLEMS, BenchmarkProblem, get_problem
from hopfront.solver import SolverConfig


def run(args):
    return main(args)


class TestSolveCommand:
    def test_ex1_feasible_json(self, capsys):
        code = run(["solve", "--problem", "ex1", "--tau", "0,0"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["converged"] is True
        assert out["feasibility_violation"] <= 1e-6
        assert len(out["u_star"]) == 2
        assert len(out["nu_star"]) == 4 or len(out["nu_star"]) == 2

    def test_feasibility_violation_on_the_boundary_is_positive_zero(self, capsys):
        # u* = (0, 0) lies on the parabola, where the least constraint is +0.0
        assert run(["solve", "--problem", "ex1", "--tau", "0,0"]) == 0
        text = capsys.readouterr().out
        violation = json.loads(text)["feasibility_violation"]
        assert violation == 0.0 and math.copysign(1.0, violation) == 1.0
        assert '"feasibility_violation": 0.0' in text

    def test_ex2a_converges_with_reference_params(self, capsys):
        code = run(["solve", "--problem", "ex2a", "--tau", "0,0",
                    "--alpha", "1", "--c", "0.1", "--mu", "0.01"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["converged"]

    def test_missing_problem_is_usage_error(self, capsys):
        code = run(["solve", "--tau", "0,0"])
        assert code == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_problem_exit_one(self, capsys):
        code = run(["solve", "--problem", "zzz", "--tau", "0,0"])
        assert code == 1

    @pytest.mark.parametrize("tau", ["-1,0", "-1e-3"])
    def test_negative_tau_as_separate_argument(self, capsys, tau):
        assert run(["solve", "--problem", "ex2a", "--tau", tau]) == 0
        spaced = capsys.readouterr().out
        assert run(["solve", "--problem", "ex2a", f"--tau={tau}"]) == 0
        assert spaced == capsys.readouterr().out

    @pytest.mark.parametrize("flag, value, build", [
        ("--eps", "nan", lambda v: SolverConfig(eps=v)),
        ("--mu", "inf", lambda v: HopfLaxParams(x=[0.0], tau=[0.0], alpha=1.0, c=1.0, mu=v)),
        ("--c", "nan", lambda v: HopfLaxParams(x=[0.0], tau=[0.0], alpha=1.0, c=v, mu=1.0)),
        ("--alpha", "inf", lambda v: HopfLaxParams(x=[0.0], tau=[0.0], alpha=v, c=1.0, mu=1.0)),
        ("--pref-eps", "nan", lambda v: SoftMax(v, 2)),
    ], ids=["eps-nan", "mu-inf", "c-nan", "alpha-inf", "pref-eps-nan"])
    def test_non_finite_parameters_are_rejected(self, capsys, flag, value, build):
        assert run(["solve", "--problem", "ex2a", "--tau", "0,0", flag, value]) == 1
        assert "error:" in capsys.readouterr().err
        with pytest.raises(ValueError, match="must be positive and finite"):
            build(float(value))

    def test_nonconvergence_exit_two(self, capsys):
        code = run(["solve", "--problem", "ex2b", "--tau", "0,0", "--maxit", "1", "--eps", "1e-13"])
        assert code == 2


class TestSweepCommand:
    def test_partial_convergence_exit_two(self, tmp_path):
        # 4 outer iterations converge 3 of these 6 samples: any unconverged
        # sample is non-convergence, as for ``solve``
        out = tmp_path / "run"
        assert run(["sweep", "--problem", "ex2a", "--n", "6", "--maxit", "4", "--out", str(out)]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert 0 < manifest["converged"] < manifest["total"] == 6

    def test_outputs_and_schema(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run(["sweep", "--problem", "ex2a", "--n", "8", "--out", str(out)])
        assert code == 0
        header, rows = read_front_csv(out / "front.csv")
        assert header[:2] == ["sample_index", "t"]
        for name in ("tau_1", "u_1", "ell_1", "pi_1", "E_1", "residual", "iterations",
                     "converged", "gap", "bregman_bound"):
            assert name in header
        assert len(rows) == 8
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["problem"] == "ex2a"
        assert manifest["total"] == 8
        ET.parse(out / "front.svg")

    @pytest.mark.parametrize("compare", [False, True])
    def test_manifest_records_layer_timings(self, tmp_path, compare):
        out = tmp_path / "run"
        flags = ["--compare", "--mc", "2000"] if compare else []
        assert run(["sweep", "--problem", "ex2a", "--n", "6", "--out", str(out), *flags]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        timings = manifest["timings"]
        assert set(timings) == {"sampling", "filter", "envelope", "certification_cloud",
                                "solves", "certificates", "distance", "output"}
        assert all(isinstance(v, float) and v >= 0.0 for v in timings.values())
        assert (timings["envelope"] > 0.0) == compare
        assert (timings["distance"] > 0.0) == compare
        assert timings["solves"] > 0.0
        assert manifest["duration_s"] >= 0.0 and ("reference_seconds" in manifest) == compare

    def test_manifest_records_inner_work(self, tmp_path):
        import hopfront as hf

        out = tmp_path / "run"
        assert run(["sweep", "--problem", "ex1", "--n", "12", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        front = hf.sweep(hf.get_problem("ex1"), default_line(hf.get_problem("ex1"), 12))
        assert 0 < front.inner_steps <= front.inner_row_steps
        assert 0 < front.merit_evals
        assert ((manifest["inner_steps"], manifest["inner_row_steps"], manifest["merit_evals"])
                == (front.inner_steps, front.inner_row_steps, front.merit_evals))

    @pytest.mark.parametrize("pid", ["ex1", "ex3b"])
    def test_gaps_are_certificates_against_a_fresh_certification_cloud(self, tmp_path, pid):
        # the CLI reuses its base cloud; the gaps must be those of the cloud drawn anew
        import hopfront as hf

        out = tmp_path / "run"
        assert run(["sweep", "--problem", pid, "--compare", "--n", "10", "--mc", "3000", "--seed", "2",
                    "--out", str(out)]) == 0
        prob = hf.get_problem(pid)
        cloud = hf.certification_cloud(prob, mc=3000, seed=2)
        if prob.objective.dim_obj == 2:
            cloud = hf.greedy_pareto_filter(cloud)
        front = hf.sweep(prob, default_line(prob, 10), reference=cloud)
        _, rows = read_front_csv(out / "front.csv")
        assert all(r.converged for r in front)
        assert [rec["gap"] for rec in rows] == [r.gap for r in front]

    def test_csv_round_trip_full_precision(self, tmp_path):
        out = tmp_path / "run"
        run(["sweep", "--problem", "ex2a", "--n", "5", "--out", str(out)])
        import hopfront as hf

        front = hf.sweep(hf.get_problem("ex2a"), default_line(hf.get_problem("ex2a"), 5))
        _, rows = read_front_csv(out / "front.csv")
        for rec, r in zip(rows, front):
            assert rec["u_1"] == r.u_star[0]
            assert rec["ell_2"] == r.objectives[1]
            assert rec["residual"] == r.residual_history[-1]

    @pytest.mark.parametrize("flags", [
        [],
        ["--pref-eps", "0.05", "--c", "0.5", "--compare", "--grid", "40"],
        ["--tau-start=-5,5", "--tau-end=5,-5", "--maxit", "80", "--eps", "2e-5",
         "--alpha", "1.5", "--mu", "0.02",
         "--pairs", "2:1", "--compare", "--mc", "3000", "--seed", "4", "--weights", "8"],
    ], ids=["default", "non-default", "every-flag"])
    def test_manifest_reproduces_csv_bit_for_bit(self, tmp_path, flags):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run(["sweep", "--problem", "ex2a", "--n", "6", "--out", str(a)] + flags) == 0
        assert run(["sweep", "--config", str(a / "manifest.json"), "--out", str(b)]) == 0
        assert (a / "front.csv").read_bytes() == (b / "front.csv").read_bytes()
        svgs = sorted(path.name for path in a.glob("front*.svg"))
        assert svgs and svgs == sorted(path.name for path in b.glob("front*.svg"))
        assert all((a / name).read_bytes() == (b / name).read_bytes() for name in svgs)
        assert (json.loads((a / "manifest.json").read_text())["params"]
                == json.loads((b / "manifest.json").read_text())["params"])

    def test_manifest_params_are_the_sweep_flags(self, tmp_path):
        _, p_sweep = build_parser()
        dests = {a.dest for a in p_sweep._actions if a.default is not argparse.SUPPRESS}
        run(["sweep", "--problem", "ex2a", "--n", "2", "--out", str(tmp_path)])
        params = json.loads((tmp_path / "manifest.json").read_text())["params"]
        assert set(params) == dests - {"config", "out"}
        assert params["mc"] == 20000
        assert params["pairs"] == [[1, 2]]

    def test_config_with_unknown_params_is_rejected(self, tmp_path, capsys):
        run(["sweep", "--problem", "ex2a", "--n", "2", "--out", str(tmp_path / "a")])
        for key, value in (("pref", {"kind": "softmax", "eps": 0.05}), ("warm_start", True),
                           ("safeguard", False), ("rho", 0.5), ("eta", 1.0), ("sigma", 0.5)):
            manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
            manifest["params"][key] = value
            config = tmp_path / "old.json"
            config.write_text(json.dumps(manifest))
            assert run(["sweep", "--config", str(config), "--out", str(tmp_path / "b")]) == 1
            err = capsys.readouterr().err
            assert "params are not sweep flags" in err and key in err

    @pytest.mark.parametrize("flag, value", [("--rho", "0.4"), ("--eta", "0.9"), ("--sigma", "0.6")])
    def test_step_size_flags_are_gone(self, tmp_path, capsys, flag, value):
        assert run(["sweep", "--problem", "ex2a", "--n", "2", "--out", str(tmp_path), flag, value]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "front.csv").exists()

    def test_config_from_another_command_is_rejected(self, tmp_path, capsys):
        run(["oracle", "--problem", "ex2a", "--grid", "20", "--out", str(tmp_path / "a")])
        config = str(tmp_path / "a" / "manifest.json")
        for flags in ([], ["--compare"]):
            assert run(["sweep", "--config", config, "--out", str(tmp_path / "b")] + flags) == 1
            assert "'oracle'" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_zero_samples_fail_before_the_reference_is_built(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("reference cloud built for an empty sweep")

        monkeypatch.setattr("hopfront.cli.sample_cloud", never)
        monkeypatch.setattr("hopfront.cli.certification_cloud", never)
        code = run(["sweep", "--problem", "ex3b", "--compare", "--n", "0", "--out", str(tmp_path)])
        assert code == 1
        assert "n_samples must be >= 1" in capsys.readouterr().err

    def test_compare_with_zero_mc_is_rejected(self, tmp_path, capsys):
        code = run(["sweep", "--problem", "ex2a", "--n", "2", "--compare", "--mc", "0",
                    "--out", str(tmp_path)])
        assert code == 1
        assert "empty reference" in capsys.readouterr().err

    @pytest.mark.parametrize("pid, start, end", [
        ("ex1", "1e308,-1e308", "-1e308,1e308"),
        ("ex3b", "1e308,-1e308,1e308,-1e308,1e308", "-1e308,1e308,-1e308,1e308,-1e308"),
    ])
    def test_tau_endpoints_whose_difference_overflows(self, tmp_path, capsys, pid, start, end):
        # end - start overflows in every component, but each row of the line
        # is finite, and its solves converge without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["sweep", "--problem", pid, "--n", "5", f"--tau-start={start}", f"--tau-end={end}",
                        "--out", str(tmp_path)])
        assert code == 0
        assert "swept 5 samples (5 converged)" in capsys.readouterr().out

    def test_one_tau_endpoint_alone_takes_effect(self, tmp_path):
        base = tmp_path / "base"
        moved = tmp_path / "moved"
        run(["sweep", "--problem", "ex2a", "--n", "4", "--out", str(base)])
        assert run(["sweep", "--problem", "ex2a", "--n", "4", "--tau-start", "1,1",
                    "--out", str(moved)]) == 0
        assert (base / "front.csv").read_bytes() != (moved / "front.csv").read_bytes()
        params = json.loads((moved / "manifest.json").read_text())["params"]
        assert params["tau_start"] == [1.0, 1.0]
        assert params["tau_end"] == json.loads((base / "manifest.json").read_text())["params"]["tau_end"]

    def test_negative_tau_endpoints_as_separate_arguments(self, tmp_path):
        spaced, joined = tmp_path / "spaced", tmp_path / "joined"
        base = ["sweep", "--problem", "ex2a", "--n", "2"]
        assert run(base + ["--tau-start", "-5,5", "--tau-end", "5,-5", "--out", str(spaced)]) == 0
        assert run(base + ["--tau-start=-5,5", "--tau-end=5,-5", "--out", str(joined)]) == 0
        assert (spaced / "front.csv").read_bytes() == (joined / "front.csv").read_bytes()
        params = json.loads((spaced / "manifest.json").read_text())["params"]
        assert (params["tau_start"], params["tau_end"]) == ([-5.0, 5.0], [5.0, -5.0])

    def test_explicit_flags_override_config(self, tmp_path):
        run(["sweep", "--problem", "ex2a", "--n", "2", "--out", str(tmp_path / "a")])
        config = str(tmp_path / "a" / "manifest.json")
        for i, flags in enumerate((["--c", "0.5"], ["--c=0.5"])):
            out = tmp_path / f"b{i}"
            assert run(["sweep", "--config", config, "--out", str(out)] + flags) == 0
            assert json.loads((out / "manifest.json").read_text())["params"]["c"] == 0.5

    def test_hopf_lax_flags_take_effect(self, tmp_path):
        base = tmp_path / "base"
        changed = tmp_path / "c05"
        run(["sweep", "--problem", "ex2a", "--n", "8", "--out", str(base)])
        assert run(["sweep", "--problem", "ex2a", "--n", "8", "--c", "0.5", "--out", str(changed)]) == 0
        assert (base / "front.csv").read_bytes() != (changed / "front.csv").read_bytes()
        assert json.loads((changed / "manifest.json").read_text())["params"]["c"] == 0.5

    def test_explicit_zero_alpha_is_rejected(self, tmp_path, capsys):
        assert run(["sweep", "--problem", "ex2a", "--n", "2", "--alpha", "0", "--out", str(tmp_path)]) == 1
        assert run(["solve", "--problem", "ex2a", "--tau", "0,0", "--alpha", "0"]) == 1
        assert capsys.readouterr().err.count("alpha must be positive") == 2

    def test_pairs_svgs_for_many_objectives(self, tmp_path):
        out = tmp_path / "run"
        code = run(["sweep", "--problem", "ex3b", "--n", "4", "--out", str(out),
                    "--pairs", "1:2,3:4"])
        assert code == 0
        assert (out / "front_1_2.svg").exists()
        assert (out / "front_3_4.svg").exists()
        ET.parse(out / "front_1_2.svg")
        assert json.loads((out / "manifest.json").read_text())["params"]["pairs"] == [[1, 2], [3, 4]]

    @pytest.mark.parametrize("pairs", ["1:3", "0:1"])
    def test_pairs_outside_objectives_are_rejected(self, tmp_path, capsys, pairs):
        code = run(["sweep", "--problem", "ex2a", "--n", "2", "--pairs", pairs, "--out", str(tmp_path)])
        assert code == 1
        assert "--pairs index outside 1..2" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.svg"))

    def test_compare_prints_distances(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run(["sweep", "--problem", "ex2a", "--n", "10", "--out", str(out),
                    "--compare", "--grid", "60"])
        assert code == 0
        text = capsys.readouterr().out
        assert "front distance forward=" in text
        _, rows = read_front_csv(out / "front.csv")
        assert any(r["gap"] is not None for r in rows if r["converged"])

    def test_compare_memory_is_one_decision_cloud(self, tmp_path):
        # Each cloud costs its objective stack, and at most one mc x d stack of
        # decision vectors is alive at a time: the traced peak stays within three.
        import tracemalloc

        mc, d = 4000, 200
        argv = ["sweep", "--problem", f"ex3a-d{d}", "--compare", "--mc", str(mc), "--n", "10",
                "--out", str(tmp_path)]
        assert run(argv) == 0  # warm-up: first-call allocations of numpy and the solver
        tracemalloc.start()
        try:
            assert run(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * mc * d * 8, f"traced peak {peak / 2**20:.1f} MiB"


class TestWriters:
    """The array-cell CSV and array SVG writers write the bytes of the
    one-cell-at-a-time and one-point-at-a-time writers."""

    def test_front_csv_with_unconverged_rows(self, tmp_path):
        from hopfront.sweep import sweep

        prob = get_problem("ex2a")
        tau, t = default_line(prob, 8), np.linspace(0.0, 1.0, 8)
        front = sweep(prob, tau, reference=sample_cloud(prob, mc=2000, seed=0), cfg=SolverConfig(maxit_outer=3))
        assert 0 < sum(r.converged for r in front) < 8  # rows with false and empty gap cells
        write_front_csv(tmp_path / "front.csv", front, tau, t)
        assert (tmp_path / "front.csv").read_text() == cellwise_front_csv(front, tau, t)

    def test_cloud_csv(self, tmp_path):
        cloud = sample_cloud(get_problem("ex3b"), mc=500, seed=2)
        write_cloud_csv(tmp_path / "cloud.csv", cloud)
        assert (tmp_path / "cloud.csv").read_text() == cellwise_cloud_csv(cloud)

    def test_scatter_svg_layers(self, tmp_path, rng):
        layers = [
            {"points": rng.normal(size=(40, 2)), "label": "reference", "style": "line", "color": "#222222"},
            {"points": rng.normal(size=(9, 2)), "label": "envelope", "style": "line", "color": "#cc2222",
             "dash": "6,3"},
            {"points": np.zeros((0, 2)), "label": "empty", "style": "colored"},
            {"points": rng.normal(size=(25, 2)) * 1e3, "label": "solver", "style": "colored"},
            {"points": [[0.5, -0.25]], "label": "one point", "style": "colored"},
        ]
        write_scatter_svg(tmp_path / "f.svg", layers, "t", "x", "y")
        assert (tmp_path / "f.svg").read_text() == pointwise_scatter_svg(layers, "t", "x", "y")
        one = [{"points": [[1.0, 2.0]], "label": "one point", "style": "line", "color": "#000000"}]
        write_scatter_svg(tmp_path / "one.svg", one, "one")
        assert (tmp_path / "one.svg").read_text() == pointwise_scatter_svg(one, "one")

    def test_scatter_svg_of_an_ex3b_sweep_with_pairs(self, tmp_path, monkeypatch):
        written, write = [], cli.write_scatter_svg

        def both(path, layers, title, **labels):
            write(path, layers, title, **labels)
            written.append(Path(path).read_text() == pointwise_scatter_svg(layers, title, **labels))

        monkeypatch.setattr(cli, "write_scatter_svg", both)
        out = tmp_path / "run"
        assert run(["sweep", "--problem", "ex3b", "--n", "10", "--compare", "--mc", "2000",
                    "--pairs", "1:2,3:4", "--out", str(out)]) == 0
        assert written == [True, True]


class TestOracleCommand:
    def test_grid_reference(self, tmp_path, capsys):
        out = tmp_path / "orc"
        code = run(["oracle", "--problem", "ex2b", "--grid", "150", "--out", str(out)])
        assert code == 0
        header, rows = read_front_csv(out / "reference.csv")
        assert header[0] == "sample_index" and "ell_1" in header
        assert len(rows) > 50
        assert (out / "envelope.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["params"]["seed"] == 0

    def test_mc_reference_records_seed(self, tmp_path):
        out = tmp_path / "orc"
        run(["oracle", "--problem", "ex1", "--mc", "2000", "--seed", "7", "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["params"]["seed"] == 7
        assert "seed=7" in manifest["source"]

    def test_mc_reference_envelope_uses_seed(self, tmp_path):
        # more than two objectives: the envelope draws Dirichlet weights
        out = tmp_path / "orc"
        assert run(["oracle", "--problem", "ex3b", "--mc", "2000", "--seed", "7", "--out", str(out)]) == 0
        prob = get_problem("ex3b")
        base = sample_cloud(prob, mc=2000, seed=7)
        for seed in (7, 0):
            write_cloud_csv(tmp_path / f"envelope_{seed}.csv", convex_envelope_front(prob, seed=seed, base_cloud=base))
        written = (out / "envelope.csv").read_bytes()
        assert written == (tmp_path / "envelope_7.csv").read_bytes()
        assert written != (tmp_path / "envelope_0.csv").read_bytes()

    def test_zero_samples_exit_one(self, capsys):
        code = run(["oracle", "--problem", "ex1", "--mc", "0"])
        assert code == 1
        assert "empty reference" in capsys.readouterr().err

    def test_grid_and_mc_together_are_a_usage_error(self, tmp_path, capsys):
        # the manifest would record an --mc the reference never used
        out = tmp_path / "orc"
        assert run(["oracle", "--problem", "ex2b", "--grid", "50", "--mc", "100", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "--grid" in err and "--mc" in err
        assert not out.exists()

    def test_constraints_without_projector_exit_one(self, tmp_path, capsys, monkeypatch):
        # ell(u) = -u on the unit disc: clipping to the bounding box would put
        # the envelope at the infeasible corner (1, 1), dominating the disc
        disc = ConstraintSet(2, 1, lambda u: 1.0 - (u * u).sum(axis=-1, keepdims=True), lambda u: -2.0 * u[:, None])
        prob = BenchmarkProblem(
            id="disc",
            objective=VectorObjective(2, 2, lambda u: -u, lambda u: np.tile(-np.eye(2), (len(u), 1, 1))),
            constraints=disc,
            feasible_box=(-np.ones(2), np.ones(2)),
            alpha=1.0, c=0.1, mu=0.01, x=np.zeros(2),
            tau_start=np.zeros(2), tau_end=np.ones(2),
            label="disc",
        )
        monkeypatch.setitem(PROBLEMS, "disc", lambda: prob)
        out = tmp_path / "orc"
        assert run(["oracle", "--problem", "disc", "--mc", "2000", "--out", str(out)]) == 1
        assert "'disc'" in capsys.readouterr().err
        assert not (out / "envelope.csv").exists()


class TestCheckCommand:
    def test_check_passes(self, capsys):
        code = run(["check"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 6
        assert "FAIL" not in out

    def test_check_fails_on_nan(self, capsys, monkeypatch):
        monkeypatch.setattr(SoftMax, "prox_conjugate", lambda self, v, rho, start=None: np.full(self.dim_obj, np.nan))
        code = run(["check"])
        out = capsys.readouterr().out
        assert code == 2
        assert "FAIL moreau-identity" in out
        assert "FAIL prox-extreme-scale" in out

    def test_no_color_respected(self, capsys, monkeypatch):
        monkeypatch.setenv("NO_COLOR", "1")
        run(["check"])
        assert "\x1b[" not in capsys.readouterr().out


class TestNumpyOnlyRuntime:
    def test_cli_runs_load_no_scipy(self, tmp_path):
        # a fresh interpreter, so no other test's import of scipy counts
        script = "\n".join([
            "import sys",
            "import hopfront",
            "from hopfront import cli",
            f"argv = ['sweep', '--problem', 'ex1', '--compare', '--n', '3', '--mc', '500', '--out', {str(tmp_path)!r}]",
            "assert cli.main(argv) == 0",
            "assert cli.main(['check']) == 0",
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
        ])
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                              timeout=300, check=True)
        assert proc.stdout.splitlines()[-1] == "[]"
        assert (tmp_path / "front.csv").is_file()
