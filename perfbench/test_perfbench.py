"""Self-test of the benchmark at toy sizes.

    python3 -m pytest perfbench/test_perfbench.py

Each workload runs once untraced and once traced with tiny node counts,
particle counts and step counts; every metric BENCHMARK.json declares must
be emitted and no invocation may fail.
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import workloads
from spans import _self_times

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_toy_run_emits_every_metric(workload, trace, capsys):
    assert run.bench(workload, seed=5, seconds=1, trace=trace, toy=True) == 0
    result = _result(capsys)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    assert result["correct"] and result["failed"] == 0
    for name, metric in result["metrics"].items():
        assert np.isfinite(metric["value"]), name


def test_configs_follow_the_seed(tmp_path):
    def generated(seed, where):
        invs = workloads.build("large-graph", seed, where, toy=True)
        return [open(c).read() for c in workloads.configs(invs) if c.endswith(".json")]

    first = generated(7, tmp_path / "a")
    assert first == generated(7, tmp_path / "b")
    assert first != generated(8, tmp_path / "c")


def test_self_time_subtracts_the_union_of_children():
    # span 0 covers [0, 100]; children 1 and 2 overlap on [20, 60] and
    # [40, 80] (two threads), so 60 of its 100 ns are covered; span 3 is a
    # child of 1 covering [30, 35]
    starts = np.array([0, 20, 40, 30])
    ends = np.array([100, 60, 80, 35])
    parents = np.array([-1, 0, 0, 1])
    assert _self_times(starts, ends, parents).tolist() == [40, 35, 40, 5]


def test_changing_artifacts_count_as_failed(tmp_path):
    calls = []

    def flaky_main(argv):
        # writes a different report on every call
        out = tmp_path / "out" / "flaky"
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(str(len(calls)))
        calls.append(argv)
        return 0

    inv = workloads.Invocation("flaky", ("geodesic", "--config", "x"))
    bench = run.Run(flaky_main, [inv], tmp_path / "out")
    bench.one_pass()
    bench.one_pass()
    assert bench.attempted == 2
    assert [f["invocation"] for f in bench.failures] == ["flaky"]


def test_refuses_a_tree_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "large-graph",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
