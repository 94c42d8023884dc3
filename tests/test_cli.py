import argparse
import json
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from hopfront.cli import build_parser, main, read_front_csv


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

    def test_nonconvergence_exit_two(self, capsys):
        code = run(["solve", "--problem", "ex2b", "--tau", "0,0", "--maxit", "1", "--eps", "1e-13"])
        assert code == 2


class TestSweepCommand:
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

    def test_csv_round_trip_full_precision(self, tmp_path):
        out = tmp_path / "run"
        run(["sweep", "--problem", "ex2a", "--n", "5", "--out", str(out)])
        import hopfront as hf

        front = hf.sweep(hf.get_problem("ex2a"), n_samples=5)
        _, rows = read_front_csv(out / "front.csv")
        for rec, s in zip(rows, front.samples):
            assert rec["u_1"] == s.u[0]
            assert rec["ell_2"] == s.objectives[1]
            assert rec["residual"] == s.residual

    @pytest.mark.parametrize("flags", [
        [],
        ["--pref-eps", "0.05", "--no-safeguard", "--c", "0.5", "--compare", "--grid", "40"],
        ["--cold-start", "--tau-start=-5,5", "--tau-end=5,-5", "--maxit", "80", "--rho", "0.4",
         "--sigma", "0.6", "--eta", "0.9", "--eps", "2e-5", "--alpha", "1.5", "--mu", "0.02",
         "--pairs", "2:1", "--compare", "--mc", "3000", "--seed", "4", "--weights", "8"],
    ], ids=["default", "non-default", "every-flag"])
    def test_manifest_reproduces_csv_bit_for_bit(self, tmp_path, flags):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run(["sweep", "--problem", "ex2a", "--n", "6", "--out", str(a)] + flags) == 0
        assert run(["sweep", "--config", str(a / "manifest.json"), "--out", str(b)]) == 0
        assert (a / "front.csv").read_bytes() == (b / "front.csv").read_bytes()
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
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        manifest["params"]["pref"] = {"kind": "softmax", "eps": 0.05}
        config = tmp_path / "old.json"
        config.write_text(json.dumps(manifest))
        assert run(["sweep", "--config", str(config), "--out", str(tmp_path / "b")]) == 1
        assert "pref" in capsys.readouterr().err

    def test_compare_with_zero_mc_is_rejected(self, tmp_path, capsys):
        code = run(["sweep", "--problem", "ex2a", "--n", "2", "--compare", "--mc", "0",
                    "--out", str(tmp_path)])
        assert code == 1
        assert "empty reference" in capsys.readouterr().err

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

    def test_zero_samples_exit_one(self, capsys):
        code = run(["oracle", "--problem", "ex1", "--mc", "0"])
        assert code == 1
        assert "empty reference" in capsys.readouterr().err


class TestCheckCommand:
    def test_check_passes(self, capsys):
        code = run(["check"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 5
        assert "FAIL" not in out

    def test_no_color_respected(self, capsys, monkeypatch):
        monkeypatch.setenv("NO_COLOR", "1")
        run(["check"])
        assert "\x1b[" not in capsys.readouterr().out
