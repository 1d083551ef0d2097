"""JSON artifacts: the streaming writer against json.dumps, and the form of
every JSON file the CLI writes.

Claims checked here:
  * the writer's bytes equal json.dumps(obj, indent=2, sort_keys=True) plus
    a newline, with every ndarray replaced by its tolist(), for generated
    and hand-picked documents: special floats, 0-d and zero-size arrays,
    int and bool arrays, length-1 axes, arrays larger than one block, and
    dicts nested in lists
  * what json.dumps refuses, the writer refuses with TypeError
  * every JSON artifact of bridge, simulate, analyze and geodesic runs,
    exit-2 and exit-3 diagnostics included, is in that canonical form
  * writing a (1001, 32, 32) array keeps the heap peak under 8 MB, and so
    does a dense array of six blocks
  * trajectory.csv is byte for byte what csv.writer writes from the same
    rows, for flows in the S, psi and fg charts and for a trajectory holding
    -0.0, 5e-324, 1e16, 1e-5 and 0.1 + 0.2
"""

import csv
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from graphham.cli import _ARRAY_BLOCK, _dump, _write_trajectory, main
from graphham.dynamics import Trajectory, integrate
from graphham.scenarios import load_config, parse_config

SPECIAL = [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, math.nan, math.inf, -math.inf,
           1.7976931348623157e308, 0.1, 1 / 3, 2.0 ** 60]


def _plain(obj):
    """obj with every ndarray replaced by its tolist(), containers kept."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(_plain(v) for v in obj)
    return obj


def written(obj) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        _dump(path, obj)
        return path.read_bytes()


def assert_like_json_dumps(obj):
    assert written(obj) == (json.dumps(_plain(obj), indent=2, sort_keys=True) + "\n").encode()


def _with_specials(rng, shape, zeros=0.8):
    """Floats of a shape, mostly +0.0, the rest drawn from SPECIAL and rng."""
    a = rng.normal(size=shape) * 10.0 ** rng.integers(-20, 20, size=shape)
    pick = rng.random(shape) < 0.1
    a[pick] = rng.choice(SPECIAL, size=int(pick.sum()))
    a[rng.random(shape) < zeros] = 0.0
    return a


class TestWriterMatchesJsonDumps:
    def test_scalars_and_containers(self):
        assert_like_json_dumps({
            "floats": SPECIAL, "ints": [0, -1, 2 ** 70, True, False], "none": None,
            "tuple": (1, (2.5, "x"), ()), "empty": [[], {}, ""],
            "text": ["plain", "quote\" back\\slash", "tab\t\n", "é中\U0001f600"],
            "numpy scalars": [np.float64(0.1), np.float64(-0.0), np.float64(math.nan)],
        })
        for top in (1.5, -0.0, math.nan, 7, None, True, "s", [], {}):
            assert_like_json_dumps(top)

    def test_keys_sort_at_every_depth(self):
        assert_like_json_dumps({
            "b": 1, "a": {"z": 0, "B": [{"y": 1, "x": [{"d": 2, "c": 3}]}], "10": 4, "9": 5},
            "checkpoints": [{"t": 0.0, "tv": 0.1, "empirical": np.array([0.5, 0.5]),
                             "master": np.array([0.25, 0.75])},
                            {"t": 1.0, "tv": -0.0, "empirical": np.zeros(2),
                             "master": np.array([1.0, 0.0])}],
        })

    def test_zero_dim_and_zero_size_arrays(self):
        assert_like_json_dumps({
            "scalars": [np.array(1.5), np.array(-0.0), np.array(math.nan), np.array(-math.inf),
                        np.array(3), np.array(True), np.array(5e-324)],
            "empty": [np.zeros(0), np.zeros((2, 0)), np.zeros((0, 3)), np.zeros((2, 0, 3)),
                      np.zeros((1, 1, 0), dtype=int), np.zeros(0, dtype=bool)],
        })

    def test_int_and_bool_arrays(self):
        assert_like_json_dumps({
            "int": np.arange(-6, 6).reshape(3, 4), "uint8": np.arange(250, 256, dtype=np.uint8),
            "big": np.array([2 ** 62, -2 ** 63], dtype=np.int64),
            "bool": np.array([[True, False], [False, False], [True, True]]),
        })

    @pytest.mark.parametrize("shape", [(1,), (1, 1), (1, 1, 1), (3, 1, 2), (1, 4, 1),
                                       (2, 1, 1), (5, 3), (2, 3, 4, 2)])
    def test_small_float_arrays(self, shape):
        rng = np.random.default_rng(len(shape) * 100 + sum(shape))
        assert_like_json_dumps({"a": _with_specials(rng, shape, zeros=0.3),
                                "in list": [_with_specials(rng, shape), 1]})

    @pytest.mark.parametrize("shape", [
        (3 * _ARRAY_BLOCK + 5,),                    # 1-d, a short last block
        (40, 30, 30),                               # slices that tile several blocks
        (2, _ARRAY_BLOCK // 64 + 3, 64),            # one slice beyond a block
        (7, 1, _ARRAY_BLOCK // 3),
    ], ids=["1d", "3d", "3d-big-slices", "3d-unit-axis"])
    def test_arrays_larger_than_one_block(self, shape):
        a = _with_specials(np.random.default_rng(sum(shape)), shape, zeros=0.89)
        assert a.size > _ARRAY_BLOCK
        assert_like_json_dumps({"m_hat": a, "tail": [a[:1], 0.0]})

    @settings(max_examples=150, deadline=None)
    @given(st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(max_size=5)
        | st.floats() | st.sampled_from(SPECIAL)
        | hnp.arrays(st.sampled_from([np.float64, np.float32, np.int64, np.uint16, np.bool_]),
                     hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)),
        lambda children: (st.lists(children, max_size=4)
                          | st.lists(children, max_size=3).map(tuple)
                          | st.dictionaries(st.text(max_size=4), children, max_size=4)),
        max_leaves=12))
    def test_generated_documents(self, doc):
        assert_like_json_dumps(doc)

    @pytest.mark.parametrize("obj", [{"a": {1.5, 2.5}}, [np.int64(3)], [np.bool_(True)],
                                     np.array([1 + 2j]), object()])
    def test_refuses_what_json_refuses(self, obj):
        with pytest.raises(TypeError):
            json.dumps(_plain(obj), indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            written(obj)

    @pytest.mark.parametrize("shape, zeros", [
        ((1001, 32, 32), 0.89),         # a bridge's m_hat: 89% of it is +0.0
        ((101, 32, 32), 0.0),           # dense, every entry its own string; six blocks
    ], ids=["m_hat", "dense"])
    def test_bounded_memory_for_a_large_array(self, tmp_path, shape, zeros):
        rng = np.random.default_rng(3)
        a = rng.random(shape)
        a[rng.random(shape) < zeros] = 0.0
        tracemalloc.start()
        try:
            _dump(tmp_path / "big.json", {"m_hat": a})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        assert (tmp_path / "big.json").stat().st_size > a.size * 10


def _json_artifacts(out: Path) -> list:
    found = sorted(out.glob("*.json"))
    assert found
    return found


@pytest.mark.parametrize("argv, code", [
    (["bridge", "--config", "two-node-bridge", "--oracle", "8"], 0),
    (["bridge", "--config", "two-node-bridge", "--tol", "1e-300"], 3),
    (["simulate", "--config", "two-node-periodic", "--particles", "100"], 0),
    (["analyze", "--config", "two-node-periodic"], 0),
    (["analyze", "--config", "three-node-bridge"], 0),
    (["geodesic", "--config", "two-node-upwind", "--particles", "20"], 0),
    (["geodesic", "--config", "theta-average-counter"], 2),
], ids=["bridge", "bridge-exit-3", "simulate", "analyze-periodic", "analyze-constant",
        "geodesic", "geodesic-exit-2"])
def test_every_json_artifact_is_canonical(tmp_path, argv, code):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == code
    for path in _json_artifacts(out):
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path.name


def _csv_writer_trajectory(path: Path, traj) -> None:
    """trajectory.csv as csv.writer writes it, one %.17g string per value."""
    n = traj.rho.shape[1]
    rhos = traj.rho * traj.pot if traj.chart == "fg" else traj.rho
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time"] + ["rho_%d" % i for i in range(n)]
                        + ["S_%d" % i for i in range(n)] + ["H", "mass_defect"])
        for k, t in enumerate(traj.times):
            writer.writerow(["%.17g" % t]
                            + ["%.17g" % v for v in rhos[k]]
                            + ["%.17g" % v for v in traj.pot[k]]
                            + ["%.17g" % traj.H[k], "%.17g" % traj.mass_defect[k]])


_K3 = {"nodes": 3, "edges": [[0, 1, 1.0], [1, 2, 0.5], [0, 2, 2.0]]}
_REF3 = {"kind": "constant", "matrix": [[0, 1, 0.5], [0.3, 0, 1], [1, 0.4, 0]]}


def _flow(source) -> Trajectory:
    sc = load_config(source) if isinstance(source, str) else parse_config(source)
    return integrate(sc.hamiltonian, sc.initial, 0.0, 0.2, 0.01)


class TestTrajectoryCsv:
    @pytest.mark.parametrize("source, chart", [
        ({"graph": _K3, "hamiltonian": {"variant": "ot_kinetic", "theta": "logmean"},
          "initial": {"rho": [0.2, 0.3, 0.5], "pot": [0.1, -0.2, 0.05]}}, "S"),
        ("two-node-periodic", "psi"),
        ({"graph": _K3, "reference": _REF3, "hamiltonian": {"variant": "schrodinger_fg"},
          "initial": {"chart": "fg", "rho": [0.3, 0.5, 0.4], "pot": [0.7, 0.6, 0.5]}}, "fg"),
    ], ids=["S", "psi", "fg"])
    def test_flows_match_csv_writer(self, tmp_path, source, chart):
        traj = _flow(source)
        assert traj.chart == chart
        self._assert_matches(tmp_path, traj)

    def test_special_values_match_csv_writer(self, tmp_path):
        values = np.array([-0.0, 5e-324, 1e16, 1e-5, 0.1 + 0.2, -1.5e-300])
        rows = np.stack([values, values[::-1], np.roll(values, 2)])
        traj = Trajectory(values[:3], rows[:, :3], rows[:, 3:], "S", values[3:],
                          values[:3][::-1])
        self._assert_matches(tmp_path, traj)

    @staticmethod
    def _assert_matches(tmp_path, traj):
        _write_trajectory(tmp_path, traj)
        _csv_writer_trajectory(tmp_path / "oracle.csv", traj)
        got = (tmp_path / "trajectory.csv").read_bytes()
        assert got == (tmp_path / "oracle.csv").read_bytes()
        assert got.count(b"\r\n") == len(traj.times) + 1
