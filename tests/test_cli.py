"""End-to-end command runs: artifacts, exit codes, reproducibility."""

import csv
import functools
import json
import time

import numpy as np
import pytest

from graphham import cli, markov, sbp
from graphham.cli import main
from graphham.errors import InvalidGenerator, RateBoundExceeded
from graphham.graph import complete_graph
from graphham.hamiltonians import PhasePoint, symmetric_rates
from graphham.markov import empirical_densities, sample_paths
from graphham.scenarios import ConfigError, Scenario, load_config, parse_config
from test_markov import spiking_rates
from test_sbp import spoil_call


def run(tmp_path, *argv):
    out = tmp_path / "out"
    rc = main(list(argv) + ["--out", str(out)])
    return rc, out


def bridge_config(tmp_path, matrix, rho0, rho1):
    cfg = tmp_path / "bridge.json"
    cfg.write_text(json.dumps({
        "graph": {"nodes": 2, "edges": [[0, 1, 1.0]]},
        "reference": {"kind": "constant", "matrix": matrix},
        "marginals": {"rho0": rho0, "rho1": rho1},
    }))
    return cfg


class TestGeodesic:
    def test_upwind_run_writes_all_artifacts(self, tmp_path):
        rc, out = run(tmp_path, "geodesic", "--config", "two-node-upwind",
                      "--particles", "40")
        assert rc == 0
        for name in ("run.json", "trajectory.csv", "rates.json", "paths.jsonl"):
            assert (out / name).exists()
        rates = json.loads((out / "rates.json").read_text())
        assert rates["valid"] and rates["kind"] == "upwind_ot"

    def test_trajectory_format(self, tmp_path):
        rc, out = run(tmp_path, "geodesic", "--config", "two-node-upwind",
                      "--particles", "1")
        with open(out / "trajectory.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["time", "rho_0", "rho_1", "S_0", "S_1", "H", "mass_defect"]
        body = np.array(rows[1:], dtype=float)  # every cell parses as a float
        assert body[0, 0] == 0.0
        np.testing.assert_allclose(body[:, 1] + body[:, 2], 1.0, atol=1e-9)

    def test_invalid_generator_exits_2_with_diagnostic(self, tmp_path):
        rc, out = run(tmp_path, "geodesic", "--config", "theta-average-counter")
        assert rc == 2
        rates = json.loads((out / "rates.json").read_text())
        assert not rates["valid"]
        assert rates["first_invalid_time"] == 0.0
        assert rates["violations"]
        assert not (out / "paths.jsonl").exists()

    def test_paths_carry_stream_seeds(self, tmp_path):
        rc, out = run(tmp_path, "geodesic", "--config", "two-node-upwind",
                      "--particles", "3", "--seed", "11")
        lines = (out / "paths.jsonl").read_text().splitlines()
        assert len(lines) == 3
        seeds = [json.loads(line)["seed"] for line in lines]
        assert seeds == [[11, 0], [11, 1], [11, 2]]

    def test_requires_initial(self, tmp_path):
        rc, _ = run(tmp_path, "geodesic", "--config", "two-node-bridge")
        assert rc == 1

    def test_sbp_row_without_outflow_is_positive_zero(self, tmp_path):
        # node 1 of the reference has no outflow, so its generator row is zero,
        # the diagonal +0.0 as the kinetic kinds write it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "graph": {"nodes": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0]]},
            "hamiltonian": {"variant": "sbp_entropic"},
            "reference": {"kind": "constant",
                          "matrix": [[-1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, -1.0]]},
            "initial": {"rho": [0.3, 0.4, 0.3], "pot": [0.1, 0.0, -0.1]},
            "horizon": {"t0": 0.0, "t1": 0.1, "dt": 0.01},
        }))
        rc, out = run(tmp_path, "geodesic", "--config", str(cfg), "--particles", "10")
        assert rc == 0
        entries = json.loads((out / "rates.json").read_text())["entries_t0"]
        assert entries == [[-1.0448162537518144, 1.0448162537518144, 0.0], [0.0, 0.0, 0.0],
                           [0.0, 1.2761414541030422, -1.2761414541030422]]
        assert not np.signbit(entries[1]).any()


class TestBridge:
    def test_builtin_bridge(self, tmp_path):
        rc, out = run(tmp_path, "bridge", "--config", "two-node-bridge")
        assert rc == 0
        doc = json.loads((out / "bridge.json").read_text())
        assert max(doc["residuals"]) <= 1e-8
        assert doc["iterations"] <= 200
        assert np.max(np.diff(doc["objective"])) <= 1e-10
        rho = np.array(doc["rho"])
        np.testing.assert_allclose(rho.sum(axis=1), 1.0, atol=1e-8)

    def test_oracle_section(self, tmp_path):
        rc, out = run(tmp_path, "bridge", "--config", "two-node-bridge",
                      "--oracle", "8")
        doc = json.loads((out / "bridge.json").read_text())
        oracle = doc["oracle"]
        assert oracle["n_steps"] == 8
        assert oracle["gap"] == pytest.approx(oracle["bruteforce"] - oracle["target"])
        assert abs(oracle["gap"]) < 0.2

    @pytest.mark.parametrize("steps", ["700", "10000000000000"])
    def test_oracle_beyond_the_path_budget_exits_1(self, tmp_path, capsys, steps):
        # 3^700 paths are past the float range, and 1e13 steps past the step cap
        rc, out = run(tmp_path, "bridge", "--config", "three-node-bridge", "--oracle", steps)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not (out / "bridge.json").exists()

    def test_oracle_on_a_chain_that_never_moves(self, tmp_path, capsys):
        # a zero generator passes the path budget at any step count; its
        # frontier never moves, so 1e7 steps give the 12-step value, quickly
        cfg = bridge_config(tmp_path, [[0.0, 0.0], [0.0, 0.0]], [0.3, 0.7], [0.3, 0.7])
        for steps in ("12", "10000000"):
            start = time.perf_counter()
            rc, out = run(tmp_path, "bridge", "--config", str(cfg), "--oracle", steps)
            assert time.perf_counter() - start < 5.0
            assert rc == 0 and "Traceback" not in capsys.readouterr().err
            oracle = json.loads((out / "bridge.json").read_text())["oracle"]
            assert oracle["bruteforce"] == 0.08228287850505173

    def test_nonconvergence_exits_3_with_history(self, tmp_path):
        # the residuals settle near 1.5e-16, so a tolerance of 1e-300 is never met
        rc, out = run(tmp_path, "bridge", "--config", "two-node-bridge",
                      "--tol", "1e-300")
        assert rc == 3
        doc = json.loads((out / "bridge.json").read_text())
        assert doc["converged"] is False
        assert len(doc["history"]) == 200

    def test_slow_far_apart_fit_exits_0_with_nonincreasing_objective(self, tmp_path):
        # slow rates and far-apart marginals: the sweep-to-sweep coupling cost
        # rises on the way, but the dual climbs and the fit meets tol
        cfg = tmp_path / "slow.json"
        cfg.write_text(json.dumps({
            "graph": {"nodes": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0], [0, 2, 1.0]]},
            "reference": {"kind": "constant",
                          "matrix": [[-0.0034, 0.0, 0.0034], [0.0027, -0.0027, 0.0],
                                     [0.0039, 0.0048, -0.0087]]},
            "marginals": {"rho0": [0.1, 0.7, 0.2], "rho1": [0.08, 0.86, 0.06]},
            "horizon": {"dt": 0.01},
        }))
        rc, out = run(tmp_path, "bridge", "--config", str(cfg))
        assert rc == 0
        doc = json.loads((out / "bridge.json").read_text())
        assert max(doc["residuals"]) <= 1e-8
        assert np.max(np.diff(doc["objective"])) <= 1e-10

    def test_dual_fall_exits_3_with_history(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sbp, "_logsumexp", spoil_call(sbp._logsumexp, 3))
        rc, out = run(tmp_path, "bridge", "--config", "two-node-bridge")
        assert rc == 3
        err = capsys.readouterr().err
        assert "dual fell by" in err and "Traceback" not in err
        doc = json.loads((out / "bridge.json").read_text())
        assert doc["converged"] is False
        assert len(doc["history"]) == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_scalings_exit_3_at_their_sweep(self, tmp_path, capsys):
        # node 0 absorbs, so node 1 cannot hold 0.999 of the mass at the end;
        # the scalings grow each sweep until e^gam overflows
        rc, out = run(tmp_path, "bridge", "--config", str(bridge_config(
            tmp_path, [[0, 0], [1, -1]], [0.5, 0.5], [0.001, 0.999])))
        assert rc == 3
        err = capsys.readouterr().err
        assert "not finite at sweep 115" in err and "Traceback" not in err
        doc = json.loads((out / "bridge.json").read_text())
        assert len(doc["history"]) == 114
        assert np.isfinite(doc["history"]).all() and np.isfinite(doc["residuals"]).all()

    @pytest.mark.parametrize("rho1, code", [([0.4, 0.6], 3), ([0.6, 0.4], 0)])
    def test_zero_generator(self, tmp_path, capsys, rho1, code):
        # the kernel is the identity: only equal marginals can be bridged
        rc, out = run(tmp_path, "bridge", "--config", str(bridge_config(
            tmp_path, [[0, 0], [0, 0]], [0.6, 0.4], rho1)))
        assert rc == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        doc = json.loads((out / "bridge.json").read_text())
        if code == 3:
            assert "marginal residuals" in err and "after 200 sweeps" in err
            assert len(doc["history"]) == 200 and np.isfinite(doc["history"]).all()
        else:
            assert max(doc["residuals"]) <= 1e-8

    def test_requires_marginals(self, tmp_path):
        rc, _ = run(tmp_path, "bridge", "--config", "two-node-upwind")
        assert rc == 1


class TestSimulate:
    def test_periodic_reference(self, tmp_path):
        rc, out = run(tmp_path, "simulate", "--config", "two-node-periodic",
                      "--particles", "400", "--seed", "3")
        assert rc == 0
        doc = json.loads((out / "report.json").read_text())
        assert len(doc["checkpoints"]) == 10
        assert doc["max_tv"] <= doc["bound"]
        first = doc["checkpoints"][0]
        np.testing.assert_allclose(first["master"], [0.75, 0.25], atol=1e-12)

    def test_lam_override_can_trip_the_bound(self, tmp_path):
        cfg = tmp_path / "lam.json"
        cfg.write_text(json.dumps({"builtin": "two-node-periodic",
                                   "sampler": {"lam": 0.05, "particles": 20}}))
        rc, _ = run(tmp_path, "simulate", "--config", str(cfg))
        assert rc == 4

    def test_lam_below_the_generator_exits_4(self, tmp_path, capsys):
        cfg = tmp_path / "lam0.json"
        cfg.write_text(json.dumps({
            "graph": {"nodes": 2, "edges": [[0, 1, 1.0]]},
            "reference": {"kind": "constant", "matrix": [[-1, 1], [1, -1]]},
            "initial": {"rho": [0.9, 0.1], "pot": [0.0, 0.0]},
            "sampler": {"particles": 2000, "lam": 0.0},
        }))
        rc, out = run(tmp_path, "simulate", "--config", str(cfg))
        assert rc == 4
        assert "sampler bound violated:" in capsys.readouterr().err
        assert not (out / "paths.jsonl").exists()

    def test_zero_generator_paths_are_constant(self, tmp_path):
        cfg = tmp_path / "zero.json"
        cfg.write_text(json.dumps({
            "graph": {"nodes": 2, "edges": [[0, 1, 1.0]]},
            "reference": {"kind": "constant", "matrix": [[0, 0], [0, 0]]},
            "initial": {"rho": [0.6, 0.4], "pot": [0.0, 0.0]},
            "sampler": {"particles": 200},
        }))
        rc, out = run(tmp_path, "simulate", "--config", str(cfg))
        assert rc == 0
        for line in (out / "paths.jsonl").read_text().splitlines():
            assert json.loads(line)["jump_times"] == []
        doc = json.loads((out / "report.json").read_text())
        assert doc["max_tv"] <= doc["bound"]

    def test_reruns_are_byte_identical(self, tmp_path):
        _, out1 = run(tmp_path / "a", "simulate", "--config", "two-node-periodic",
                      "--particles", "150")
        _, out2 = run(tmp_path / "b", "simulate", "--config", "two-node-periodic",
                      "--particles", "150")
        for name in ("run.json", "paths.jsonl", "report.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestPathStream:
    """paths.jsonl and the simulate counts are built chunk by chunk."""

    def test_artifacts_do_not_depend_on_the_chunk(self, tmp_path, monkeypatch):
        # 2,500 paths are one chunk at the default size and four of 700
        argv = ["simulate", "--config", "two-node-periodic", "--particles", "2500", "--seed", "8"]
        rc, whole = run(tmp_path / "whole", *argv)
        monkeypatch.setattr(cli, "path_chunks", functools.partial(markov.path_chunks, chunk=700))
        rc_chunked, chunked = run(tmp_path / "chunked", *argv)
        assert rc == rc_chunked == 0
        names = sorted(p.name for p in whole.iterdir())
        assert names == sorted(p.name for p in chunked.iterdir())
        for name in names:
            assert (whole / name).read_bytes() == (chunked / name).read_bytes()

    def test_simulate_matches_the_one_shot_sampler(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "path_chunks", functools.partial(markov.path_chunks, chunk=700))
        rc, out = run(tmp_path, "simulate", "--config", "two-node-periodic",
                      "--particles", "2500", "--seed", "8")
        assert rc == 0
        sc = cli.load_config("two-node-periodic")
        rho0 = cli._to_s_chart(sc.initial).rho
        paths = sample_paths(sc.reference, rho0, 2500, sc.t0, sc.t1, seed=8)
        lines = (out / "paths.jsonl").read_text().splitlines()
        assert len(lines) == 2500
        for k in (0, 699, 700, 1399, 1400, 2499):
            a, z = paths.offsets[k], paths.offsets[k + 1]
            assert lines[k] == json.dumps({"seed": [8, k], "t0": sc.t0, "t1": sc.t1,
                                           "jump_times": paths.times[a:z].tolist(),
                                           "states": paths.states[a + k:z + k + 1].tolist()})
        doc = json.loads((out / "report.json").read_text())
        ts = [c["t"] for c in doc["checkpoints"]]
        np.testing.assert_array_equal([c["empirical"] for c in doc["checkpoints"]],
                                      empirical_densities(paths, ts))

    def assert_no_paths_file(self, out):
        assert not (out / "paths.jsonl").exists()
        assert not (out / "paths.jsonl.part").exists()

    @pytest.mark.parametrize("command, config", [
        ("simulate", {"graph": {"nodes": 2, "edges": [[0, 1, 1.0]]},
                      "reference": {"kind": "constant", "matrix": [[-1, 1], [1, -1]]},
                      "initial": {"rho": [0.9, 0.1], "pot": [0.0, 0.0]},
                      "sampler": {"particles": 50, "lam": 0.5}}),
        ("geodesic", {"builtin": "two-node-upwind", "horizon": {"dt": 0.01},
                      "sampler": {"lam": 1e-9}}),
    ], ids=["simulate", "geodesic"])
    def test_grid_bound_exits_4_before_paths_are_written(self, tmp_path, capsys,
                                                        command, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        rc, out = run(tmp_path, command, "--config", str(cfg))
        assert rc == 4
        assert "sampler bound violated:" in capsys.readouterr().err
        self.assert_no_paths_file(out)

    def test_simulate_bound_violated_mid_stream_leaves_no_paths(self, tmp_path, capsys,
                                                                monkeypatch):
        # the spike lies between grid times, so the bound passes the grid check
        # and a proposal in a later chunk trips it
        g = complete_graph(2)
        scenario = Scenario(name="spike", graph=g, reference=spiking_rates(),
                            initial=PhasePoint(np.array([0.5, 0.5]), np.zeros(2)),
                            particles=3000, seed=3)
        monkeypatch.setattr(cli, "load_config", lambda source: scenario)
        drawn = []

        def chunks(*args, **kwargs):
            for chunk in markov.path_chunks(*args, chunk=16, **kwargs):
                drawn.append(len(chunk))
                yield chunk

        monkeypatch.setattr(cli, "path_chunks", chunks)
        rc, out = run(tmp_path, "simulate", "--config", "spike")
        assert rc == 4
        assert "sampler bound violated:" in capsys.readouterr().err
        assert len(drawn) > 1
        self.assert_no_paths_file(out)
        assert not (out / "report.json").exists()

    def test_geodesic_failure_mid_stream_leaves_no_paths(self, tmp_path, capsys, monkeypatch):
        written = []

        def chunks(*args, **kwargs):
            stream = markov.path_chunks(*args, chunk=1, **kwargs)
            yield next(stream)
            written.append((tmp_path / "out" / "paths.jsonl.part").exists())
            raise RateBoundExceeded("|Q_ii| = 3 exceeds the bound 2")

        monkeypatch.setattr(cli, "path_chunks", chunks)
        rc, out = run(tmp_path, "geodesic", "--config", "two-node-upwind", "--dt", "0.01",
                      "--particles", "5")
        assert rc == 4
        assert "sampler bound violated:" in capsys.readouterr().err
        assert written == [True]
        self.assert_no_paths_file(out)
        assert (out / "rates.json").exists()


@pytest.mark.parametrize("argv, names", [
    (["bridge", "--config", "three-node-bridge", "--oracle", "12"], ["bridge.json"]),
    (["geodesic", "--config", "two-node-upwind", "--particles", "200"],
     ["trajectory.csv", "rates.json", "paths.jsonl"]),
    (["analyze", "--config", "two-node-periodic"], ["report.json"]),
], ids=["bridge", "geodesic", "analyze"])
def test_every_subcommand_reruns_byte_identical(tmp_path, argv, names):
    rc1, out1 = run(tmp_path / "a", *argv)
    rc2, out2 = run(tmp_path / "b", *argv)
    assert rc1 == rc2 == 0
    for name in ["run.json"] + names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestAnalyze:
    def test_periodic_report(self, tmp_path):
        rc, out = run(tmp_path, "analyze", "--config", "two-node-periodic")
        assert rc == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["floquet"]["has_unit_multiplier"]
        assert doc["markov_residual"]["max"] > 0.0
        assert doc["symplectic"]["hopf_cole"] < 1e-8
        assert doc["symplectic"]["madelung"] < 1e-8

    def test_constant_reference_reports_stationary(self, tmp_path):
        rc, out = run(tmp_path, "analyze", "--config", "three-node-bridge")
        doc = json.loads((out / "report.json").read_text())
        np.testing.assert_allclose(doc["stationary"]["rho"], 1 / 3, atol=1e-12)
        assert doc["stationary"]["field_residual"] < 1e-9
        # the stationary direction of a constant chain is a unit multiplier
        assert doc["floquet"]["has_unit_multiplier"]


class TestErrors:
    def test_unknown_config(self, tmp_path):
        rc, _ = run(tmp_path, "analyze", "--config", "no-such-thing")
        assert rc == 1

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        rc, _ = run(tmp_path, "analyze", "--config", str(bad))
        assert rc == 1

    def test_bad_flag_value(self, tmp_path):
        assert main(["analyze", "--config", "two-node-upwind", "--dt", "abc"]) == 1

    def test_threads_flag_is_gone(self, tmp_path, capsys):
        rc, _ = run(tmp_path, "simulate", "--config", "two-node-periodic",
                    "--particles", "10", "--threads", "2")
        assert rc == 1
        assert "config error:" in capsys.readouterr().err

    # every (subcommand, flag) pair of a flag the subcommand does not read
    @pytest.mark.parametrize("argv", [
        ["geodesic", "--config", "two-node-upwind", "--tol", "1e-6"],
        ["geodesic", "--config", "two-node-upwind", "--oracle", "4"],
        ["simulate", "--config", "two-node-periodic", "--tol", "1e-6"],
        ["simulate", "--config", "two-node-periodic", "--oracle", "4"],
        ["bridge", "--config", "two-node-bridge", "--particles", "5"],
        ["bridge", "--config", "two-node-bridge", "--seed", "5"],
        ["analyze", "--config", "two-node-bridge", "--dt", "0.01"],
        ["analyze", "--config", "two-node-bridge", "--tol", "3"],
        ["analyze", "--config", "two-node-bridge", "--oracle", "7"],
        ["analyze", "--config", "two-node-bridge", "--particles", "5"],
        ["analyze", "--config", "two-node-bridge", "--seed", "5"],
    ], ids=lambda argv: "%s%s" % (argv[0], argv[3]))
    def test_unread_flag_exits_1(self, tmp_path, capsys, argv):
        rc, out = run(tmp_path, *argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert "config error:" in err and "unrecognized arguments: %s" % argv[3] in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--oracle", "-2"), ("--oracle", "0"), ("--oracle", "1.5"), ("--oracle", "x"),
        ("--tol", "-1"), ("--tol", "0"), ("--tol", "nan"), ("--tol", "inf"), ("--tol", "x"),
    ])
    def test_bad_bridge_flag_exits_1(self, tmp_path, capsys, flag, value):
        rc, out = run(tmp_path, "bridge", "--config", "two-node-bridge", flag + "=" + value)
        err = capsys.readouterr().err
        assert rc == 1
        assert "config error:" in err and "argument %s" % flag in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("edges", [
        [[0, 1, 1.0], [1, 5, 1.0]],
        [[0, 1], [1, 2, 1.0]],
    ], ids=["dangling", "short-row"])
    def test_malformed_edge_exits_1(self, tmp_path, capsys, edges):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "graph": {"nodes": 3, "edges": edges},
            "reference": {"kind": "symmetric", "value": 1.0},
            "marginals": {"rho0": [0.5, 0.3, 0.2], "rho1": [0.2, 0.3, 0.5]},
        }))
        rc, out = run(tmp_path, "bridge", "--config", str(cfg))
        err = capsys.readouterr().err
        assert rc == 1
        assert "config error: config key 'edges'" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, block, key", [
        ("bridge", {"marginals": {"rho0": [0.8, 0.1], "rho1": [0.1, 0.9]}}, "rho0"),
        ("bridge", {"marginals": {"rho0": [0.8, 0.1, 0.1], "rho1": [0.1, 0.9]}}, "rho0"),
        ("simulate", {"initial": {"rho": [1.5, 0.5], "pot": [0.0, 0.0]}}, "rho"),
    ])
    def test_off_simplex_density_exits_1(self, tmp_path, capsys, command, block, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict({
            "graph": {"nodes": 2, "edges": [[0, 1, 1.0]]},
            "reference": {"kind": "symmetric", "value": 1.0},
        }, **block)))
        rc, out = run(tmp_path, command, "--config", str(cfg))
        err = capsys.readouterr().err
        assert rc == 1
        assert "config error: config key %r" % key in err and "Traceback" not in err
        assert not out.exists()

    def test_missing_subcommand(self):
        assert main([]) == 1

    @pytest.mark.parametrize("matrix, message", [
        ([[-5.0, 1.0], [1.0, -1.0]], "row 0 sums to -4.0"),
        ([[0.0, -1e-11], [1.0, 0.0]], "entry (0, 1) is -1e-11"),
    ])
    def test_constant_generator_off_the_rule_exits_1(self, tmp_path, capsys, matrix, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "graph": {"nodes": 2, "edges": [[0, 1, 1.0]]},
            "reference": {"kind": "constant", "matrix": matrix},
            "initial": {"rho": [0.6, 0.4], "pot": [0.0, 0.0]},
        }))
        rc, out = run(tmp_path, "simulate", "--config", str(cfg), "--particles", "10")
        assert rc == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (out / "paths.jsonl").exists()

    @pytest.mark.parametrize("hamiltonian", [
        {"variant": "ot_kinetic", "theta": "bogus"},
        {"variant": "lp_kinetic", "theta": "average", "q": 0.5},
        {"variant": "fisher_ot", "theta": "average", "beta": -1},
        {"variant": "fisher_ot", "theta": "upwind"},
        {"variant": "fisher_ot", "theta": "average", "beta": float("inf")},
        {"variant": "fisher_ot", "theta": "average", "beta": float("nan")},
        {"variant": "lp_kinetic", "theta": "average", "q": float("inf")},
        {"variant": "lp_kinetic", "theta": "average", "q": float("nan")},
    ])
    def test_hamiltonian_construction_error_exits_1(self, tmp_path, capsys, hamiltonian):
        # json.dumps spells the non-finite values Infinity and NaN, as a config may
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "graph": {"nodes": 2, "edges": [[0, 1, 1.0]]},
            "hamiltonian": hamiltonian,
            "initial": {"rho": [0.4, 0.6], "pot": [0.0, 1.0]},
        }))
        rc, out = run(tmp_path, "geodesic", "--config", str(cfg))
        assert rc == 1
        err = capsys.readouterr().err
        assert "config error:" in err and "Traceback" not in err
        assert not (out / "run.json").exists()

    def test_node_count_beyond_the_edges_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "graph": {"nodes": 10 ** 20, "edges": [[0, 1, 1.0]]},
            "reference": {"kind": "symmetric", "value": 1.0},
            "initial": {"rho": [0.4, 0.6], "pot": [0.0, 0.0]},
        }))
        rc, out = run(tmp_path, "simulate", "--config", str(cfg))
        assert rc == 1
        err = capsys.readouterr().err
        assert "config error:" in err and "need at least" in err and "Traceback" not in err
        assert not (out / "run.json").exists()

    def test_floquet_window_beyond_the_step_cap_exits_1(self, tmp_path, capsys):
        # analyze runs monodromy at its own dt of 1e-4, so 2,000 time units
        # are 2e7 steps, above the cap, whatever the horizon's dt
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "graph": {"nodes": 2, "edges": [[0, 1, 1.0]]},
            "reference": {"kind": "constant", "matrix": [[-1, 1], [1, -1]]},
            "horizon": {"t0": 0, "t1": 2000, "dt": 1},
        }))
        rc, out = run(tmp_path, "analyze", "--config", str(cfg))
        assert rc == 1
        err = capsys.readouterr().err
        assert "config error: config key 't1'" in err and "Traceback" not in err
        assert list(out.glob("*")) == []

    def test_floquet_window_is_checked_at_the_monodromy_step(self):
        # 1,000 time units at dt = 1e-4 are exactly the 10^7-step cap and
        # pass; 1,000.5 cross it, whatever the horizon's dt
        def chain(t1):
            return parse_config({
                "graph": {"nodes": 2, "edges": [[0, 1, 1.0]]},
                "reference": {"kind": "constant", "matrix": [[-1, 1], [1, -1]]},
                "horizon": {"t0": 0, "t1": t1, "dt": 1}})

        assert cli._floquet_span(chain(1000)) == 1000.0
        with pytest.raises(ConfigError) as caught:
            cli._floquet_span(chain(1000.5))
        assert caught.value.key == "t1"
        assert cli._floquet_span(load_config("three-node-circle")) == 2 * np.pi
        assert cli._floquet_span(load_config("two-node-upwind")) is None

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_absorbing_chain_is_refused_before_the_log(self, tmp_path, capsys):
        # the stationary density (0, 1) sits on the simplex boundary
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "graph": {"nodes": 2, "edges": [[0, 1, 1.0]]},
            "reference": {"kind": "constant", "matrix": [[-1, 1], [0, 0]]},
        }))
        rc, out = run(tmp_path, "analyze", "--config", str(cfg))
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: stationary density [0.0, 1.0] has a nonpositive mass\n"
        assert not (out / "report.json").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("text", [
        pytest.param(str(10 ** 400), id="10**400"), "Infinity", "-Infinity", "NaN", "1e400"])
    def test_symmetric_value_not_a_finite_float_exits_1(self, tmp_path, capsys, text):
        # JSON reads 1e400 as inf, and the 401-digit integer as an int
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "graph": {"nodes": 2, "edges": [[0, 1, 1.0]]},
            "reference": {"kind": "symmetric", "value": "VALUE"},
            "initial": {"rho": [0.4, 0.6], "pot": [0.0, 0.0]},
        }).replace('"VALUE"', text))
        rc, out = run(tmp_path, "simulate", "--config", str(cfg))
        assert rc == 1
        err = capsys.readouterr().err
        assert "config error: config key 'value'" in err and "Traceback" not in err
        assert not (out / "run.json").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_symmetric_rates_name_the_non_finite_entry(self, value):
        with pytest.raises(InvalidGenerator, match=r"entry \(0, 1\) is %r" % value):
            symmetric_rates(complete_graph(3), value)

    @pytest.mark.parametrize("flags, sampler", [
        (["--seed", "-1"], {}),
        (["--seed", str(2 ** 64)], {}),
        (["--particles", "0"], {}),
        (["--particles", "-3"], {}),
        ([], {"checkpoints": 0}),
        ([], {"particles": "x"}),
        ([], {"seed": 2 ** 64}),
        ([], {"lam": "fast"}),
        ([], {"particles": 2.7}),
        ([], {"seed": 3.5}),
        ([], {"checkpoints": 2.5}),
        ([], {"particles": True, "checkpoints": True}),
        ([], {"checkpoints": False}),
        ([], {"seed": False}),
        ([], {"lam": True}),
        ([], {"checkpoints": 10 ** 13}),
    ])
    def test_bad_sampler_settings_exit_1(self, tmp_path, capsys, flags, sampler):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"builtin": "two-node-periodic",
                                   "sampler": dict({"particles": 20}, **sampler)}))
        rc, out = run(tmp_path, "simulate", "--config", str(cfg), *flags)
        assert rc == 1
        assert "config error:" in capsys.readouterr().err
        assert not (out / "paths.jsonl").exists()

    @pytest.mark.parametrize("variant, chart", [
        ("sbp_psi", None), ("schrodinger_fg", None), ("sbp_entropic", "psi"),
    ])
    def test_initial_chart_must_match_the_hamiltonian(self, tmp_path, capsys, variant, chart):
        init = {"rho": [0.2, 0.3, 0.5], "pot": [0.1, 0.0, -0.1]}
        if chart is not None:
            init["chart"] = chart
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "graph": {"nodes": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0], [0, 2, 1.0]]},
            "reference": {"kind": "symmetric", "value": 1.0},
            "hamiltonian": {"variant": variant},
            "initial": init,
            "horizon": {"t0": 0, "t1": 0.01, "dt": 0.001},
        }))
        rc, out = run(tmp_path, "geodesic", "--config", str(cfg))
        err = capsys.readouterr().err
        assert rc == 1
        assert "config error:" in err and "Traceback" not in err
        assert not (out / "trajectory.csv").exists()

    @pytest.mark.parametrize("dt", ["0", "nan", "-1", "inf", "-inf", "-0"])
    def test_bad_dt_flag_exits_1(self, tmp_path, capsys, dt):
        rc, out = run(tmp_path, "geodesic", "--config", "two-node-periodic", "--dt=" + dt)
        err = capsys.readouterr().err
        assert rc == 1
        assert "config error: config key 'dt'" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("dt", ["1e-320", "1e-300"])
    def test_dt_beyond_the_step_cap_exits_1(self, tmp_path, capsys, dt):
        # 1e-320 gave an infinite step count and a raw OverflowError after
        # run.json was written; 1e-300 asked for about 1e300 steps
        rc, out = run(tmp_path, "geodesic", "--config", "two-node-upwind", "--dt", dt)
        err = capsys.readouterr().err
        assert rc == 1
        assert "config error: config key 'dt'" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("horizon, key", [
        ({"dt": 0}, "dt"),
        ({"dt": -0.01}, "dt"),
        ({"dt": float("nan")}, "dt"),
        ({"dt": float("inf")}, "dt"),
        ({"dt": "fast"}, "dt"),
        ({"dt": True}, "dt"),
        ({"t0": float("-inf")}, "t0"),
        ({"t1": float("nan")}, "t1"),
        ({"t1": float("inf")}, "t1"),
        ({"t0": 1.0, "t1": 1.0}, "t1"),
        ({"t0": 2.0, "t1": 1.0}, "t1"),
        ({"t1": [1]}, "t1"),
        ({"dt": 1e-9}, "dt"),
    ])
    @pytest.mark.parametrize("command", ["geodesic", "bridge"])
    def test_bad_horizon_exits_1(self, tmp_path, capsys, horizon, key, command):
        builtin = "two-node-upwind" if command == "geodesic" else "two-node-bridge"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"builtin": builtin, "horizon": horizon}))
        rc, out = run(tmp_path, command, "--config", str(cfg))
        err = capsys.readouterr().err
        assert rc == 1
        assert "config error: config key %r" % key in err and "Traceback" not in err
        assert not out.exists()

    def test_integral_float_counts_are_accepted(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"builtin": "two-node-periodic", "sampler": {
            "particles": 20.0, "seed": 3.0, "checkpoints": 4.0}}))
        rc, out = run(tmp_path, "simulate", "--config", str(cfg))
        assert rc == 0
        assert len((out / "paths.jsonl").read_text().splitlines()) == 20
        assert len(json.loads((out / "report.json").read_text())["checkpoints"]) == 4

    def test_nan_matrix_entry_meets_the_kolmogorov_rule(self, tmp_path, capsys):
        # the number rule checks only the type of a matrix entry
        cfg = bridge_config(tmp_path, [[-1.0, float("nan")], [1.0, -1.0]],
                            [0.6, 0.4], [0.4, 0.6])
        rc, out = run(tmp_path, "bridge", "--config", str(cfg))
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: rate matrix")
        assert not out.exists()

    @pytest.mark.parametrize("command, code", [("geodesic", 1), ("analyze", 0)])
    def test_logmean_at_equal_masses_is_a_typed_refusal(self, tmp_path, capsys, command, code):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "graph": {"nodes": 2, "edges": [[0, 1, 1.0]]},
            "hamiltonian": {"variant": "ot_kinetic", "theta": "logmean"},
            "initial": {"rho": [0.5, 0.5], "pot": [0.1, -0.1]},
            "horizon": {"t0": 0, "t1": 0.01, "dt": 0.001},
        }))
        rc, out = run(tmp_path, command, "--config", str(cfg))
        err = capsys.readouterr().err
        assert rc == code
        assert "Traceback" not in err
        message = "log-mean splitting degenerates at equal masses"
        if command == "geodesic":
            assert "error: %s" % message in err
        else:
            report = json.loads((out / "report.json").read_text())
            assert report["markov_residual"] == {"error": message}

    def test_largest_seed_is_accepted(self, tmp_path):
        rc, out = run(tmp_path, "simulate", "--config", "two-node-periodic",
                      "--particles", "5", "--seed", str(2 ** 64 - 1))
        assert rc == 0
        assert json.loads((out / "paths.jsonl").read_text().splitlines()[4])["seed"] \
            == [2 ** 64 - 1, 4]

    def test_run_json_is_config_plus_versions(self, tmp_path):
        _, out = run(tmp_path, "analyze", "--config", "two-node-upwind")
        doc = json.loads((out / "run.json").read_text())
        assert set(doc) == {"command", "config", "effective", "versions"}
        assert "numpy" in doc["versions"]
