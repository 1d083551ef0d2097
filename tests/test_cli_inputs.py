"""Generated configs and argv through cli.main.

Claims checked here, for small generated configs of every subcommand with
refusable faults mixed in (flags the subcommand does not read, malformed,
fractional and dangling edges, a fractional, boolean or too small node
count, wrong-length and off-simplex densities, bad --oracle and --tol values,
an infinite edge weight, a NaN or infinite reference rate, checkpoints beyond
the step cap, and config values of the wrong type, such as a string or a
boolean for a number; --oracle 700 is past the brute force's path budget,
and --oracle 10000000 is past it too unless the reference is the all-zero
generator, whose chain never moves):
  * main returns an exit code in 0-4 and no exception escapes it, so no
    traceback reaches stderr
  * an input refused while parsing argv or the config exits 1 and leaves
    no artifact, not even the --out directory; a bad node count is reported
    under the key nodes, and a non-finite reference rate as an invalid rate
    matrix
  * an exit 2 leaves rates.json and an exit 3 leaves bridge.json
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from graphham.cli import main

READS = {"geodesic": ("--dt", "--particles", "--seed"),
         "bridge": ("--dt", "--tol", "--oracle"),
         "simulate": ("--dt", "--particles", "--seed"),
         "analyze": ()}
GOOD = {"--dt": ["0.01", "0.05"], "--particles": ["1", "30"], "--seed": ["0", "7"],
        "--tol": ["1e-8", "1e-300"], "--oracle": ["1", "4", "700", "10000000"]}
BAD = {"--tol": ["-1", "0", "nan", "inf"], "--oracle": ["-2", "0", "1.5"]}
# config blocks holding a value of the wrong type
WRONG_TYPE = [{"hamiltonian": {"variant": "lp_kinetic", "theta": "average", "q": None}},
              {"hamiltonian": {"variant": "fisher_ot", "theta": "average", "beta": [1]}},
              {"reference": {"kind": "constant", "matrix": [[-1, "a"], [1, -1]]}},
              {"reference": {"kind": "constant", "matrix": [[-1, 1], [1]]}},
              {"builtin": ["x"]},
              {"horizon": {"t0": 0.0, "t1": "0.1", "dt": 0.01}},
              {"reference": {"kind": "symmetric", "value": True}}]


@st.composite
def densities(draw, n):
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    return [v / sum(raw) for v in raw]


def spoiled(draw, rho):
    """rho made off the simplex or of the wrong length."""
    how = draw(st.sampled_from(["short", "long", "light", "heavy", "negative"]))
    if how == "short":
        return rho[:-1]
    if how == "long":
        return rho + [0.0]
    if how == "negative":
        return [rho[0] + 1.0, rho[1] - 1.0] + rho[2:]
    return [v * (0.9 if how == "light" else 2.0) for v in rho]


@st.composite
def cases(draw):
    """(argv, config, fault): fault names the parse-time fault mixed in, or is None."""
    n = draw(st.integers(2, 3))
    command = draw(st.sampled_from(sorted(READS)))
    fault = draw(st.sampled_from([None] * 4 + ["edge", "nodes", "density", "unread flag",
                                               "bad value", "infinite weight",
                                               "nonfinite rate", "wrong type",
                                               "huge checkpoints"]))
    edges = [[i, i + 1, 1.0] for i in range(n - 1)]
    if fault == "edge":
        edges.append(draw(st.sampled_from([[0, n + 1, 1.0], [0, 1], [0, 1, "heavy"],
                                           [0.5, 1, 1.0], [0, n - 0.1, 1.0]])))
    nodes = draw(st.sampled_from([n + 0.5, True, 1, 0])) if fault == "nodes" else n
    config = {"graph": {"nodes": nodes, "edges": edges},
              "horizon": {"t0": 0.0, "t1": 0.1, "dt": 0.01},
              "sampler": {"particles": 20, "seed": 1}}
    shape = {"geodesic": "flow", "simulate": "chain", "bridge": "bridge"}.get(
        command, draw(st.sampled_from(["flow", "chain", "bridge"])))
    if shape == "flow":
        theta = draw(st.sampled_from(["upwind", "average", "logmean"]))
        config["hamiltonian"] = {"variant": "ot_kinetic", "theta": theta}
    else:
        config["reference"] = draw(st.sampled_from([
            {"kind": "symmetric", "value": 1.0},
            {"kind": "constant", "matrix": [[0.0] * n] * n}]))
    if shape == "bridge":
        config["horizon"]["t1"] = 1.0
        block = config["marginals"] = {"rho0": draw(densities(n)), "rho1": draw(densities(n))}
    else:
        block = config["initial"] = {"rho": draw(densities(n)),
                                     "pot": draw(st.lists(st.floats(-0.5, 0.5),
                                                          min_size=n, max_size=n))}
    if fault == "density":
        key = draw(st.sampled_from(sorted(block)))
        key = "rho" if key == "pot" else key
        block[key] = spoiled(draw, block[key])
    if fault == "infinite weight":
        edges[0] = draw(st.sampled_from([[0, 1, float("inf")], [0, 1, 1.0, float("inf")]]))
    if fault == "nonfinite rate":
        matrix = np.ones((n, n)) - n * np.eye(n)
        matrix[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
        config["reference"] = {"kind": "constant", "matrix": matrix.tolist()}
    if fault == "wrong type":
        config.update(draw(st.sampled_from(WRONG_TYPE)))
    if fault == "huge checkpoints":
        config["sampler"]["checkpoints"] = 10 ** 13

    argv = [command, "--config"]
    for flag in READS[command]:
        if draw(st.integers(0, 2)) == 0:
            argv += [flag, draw(st.sampled_from(GOOD[flag]))]
    if fault == "unread flag":
        flag = draw(st.sampled_from([f for f in sorted(GOOD) if f not in READS[command]]))
        argv += [flag, draw(st.sampled_from(GOOD[flag]))]
    if fault == "bad value":
        flag = draw(st.sampled_from(sorted(BAD)))
        argv += [flag, draw(st.sampled_from(BAD[flag]))]
    return argv, config, fault


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_generated_runs_exit_with_a_code_and_their_artifacts(case):
    argv, config, fault = case
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(argv[:2] + [str(path)] + argv[2:] + ["--out", str(out)])
        stderr = err.getvalue()
        assert rc in range(5)
        assert "Traceback" not in stderr
        if fault is not None:
            want = "error: rate matrix" if fault == "nonfinite rate" else "config error:"
            assert rc == 1 and stderr.startswith(want), (rc, stderr)
            if fault == "nodes":
                assert stderr.startswith("config error: config key 'nodes'"), stderr
            assert not out.exists()
        if rc == 2:
            assert (out / "rates.json").exists()
        if rc == 3:
            assert (out / "bridge.json").exists()
