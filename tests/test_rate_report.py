"""A geodesic's generator report: rates.json and the generators that the
sampler reads, as (K, n) diagonals and (K, P) pair rates, extracted in blocks
of recorded states.

Claims checked here:
  * the blocked extraction gives bit for bit the rates.json bytes of a
    per-record loop kept here as the oracle, together with the per-state
    generator it used, and the diagonals and pair rates of the oracle's
    generators, which are +0.0 off those pairs, for every rate kind: sbp on a
    constant and on a periodic reference (S and psi charts), upwind_ot,
    theta_general with the average and the log mean, and lp_kinetic at q = 3;
    at BLOCK - 1, BLOCK and BLOCK + 1 records, with clamped entries, and for
    the invalid theta-average-counter flow
  * a record that fails raises what the per-record loop raises: the type and
    message of the earliest failing record, checked in that loop's order,
    when a later record fails with another error, in the same block and in
    a later one
  * on a 64-node upwind geodesic of 335 records the report's heap peak stays
    within 1 MB of the diagonals and pair rates it returns
  * on a 256-node unit-ring upwind geodesic of 51 records, the report and
    the sampler's 2,000 paths stay under a 4 MB heap peak and 0.3 s, where a
    (51, 256, 256) generator stack alone is 27 MB
"""

import time
import tracemalloc

import numpy as np
import pytest

from graphham.cli import _dump, _rate_report, _to_s_chart, cmd_geodesic
from graphham.dynamics import Trajectory, integrate
from graphham.errors import (
    BoundaryDensity,
    NonfiniteValue,
    NonpositiveFG,
    NoRateDecomposition,
)
from graphham.hamiltonians import _block_size, _capped, _lp_flow, _RecordedRates
from graphham.markov import _step_count, path_chunks, validate_rate_matrix
from graphham.scenarios import load_config, parse_config

N = 16
BLOCK = _block_size(N)


# -- the per-record oracle -------------------------------------------------------------


def _oracle_generator(spec, state, t):
    """One state's generator candidate, validated, assembled state by state."""
    kind, g = spec.rate_kind, spec.graph
    rho, s = state.rho, state.pot
    if kind == "sbp":                   # on the reference's pairs, m(t) read alone
        if np.min(rho) <= 0:
            raise BoundaryDensity("reweighted rates need interior masses")
        src, dst = spec.reference.src, spec.reference.dst
        m = spec.reference.at(t)[src, dst]
        ex = np.exp(_capped(s[dst] - s[src], m != 0))
        rate = ex * np.sqrt(rho[dst] / rho[src]) * m
    else:
        src, dst = g.src, g.dst
        ds = s[src] - s[dst]
        flow = _lp_flow(ds, spec.q) if spec.variant == "lp_kinetic" and spec.q != 2 else ds
        if kind == "upwind_ot":
            rate = g.w * np.clip(-flow, 0.0, None)
        elif spec.theta.kind == "average":
            rate = 0.5 * g.w * (-flow)
        else:
            if np.min(rho) <= 0:
                raise BoundaryDensity("log-mean splitting needs interior masses")
            logs = np.log(rho)
            dlog = logs[src] - logs[dst]
            if (np.abs(dlog) < 1e-12).any():
                raise NoRateDecomposition("log-mean splitting degenerates at equal masses")
            rate = -g.w * flow / dlog
    q = np.zeros((g.n, g.n))
    q[src, dst] = rate
    q[np.diag_indices(g.n)] = np.bincount(src, -rate, minlength=g.n)
    return validate_rate_matrix(q, kind)


def _oracle_report(scenario, traj):
    report = {"kind": scenario.rate_kind, "valid": True, "violations": [],
              "clamped": 0, "checked_times": 0, "first_invalid_time": None,
              "entries_t0": None}
    qs = np.empty((len(traj.times), scenario.graph.n, scenario.graph.n))
    for k, t in enumerate(traj.times):
        state = _to_s_chart(traj.state(k))
        rm = _oracle_generator(scenario.hamiltonian, state, float(t))
        qs[k] = rm.entries
        report["checked_times"] += 1
        report["clamped"] += rm.clamped
        if k == 0:
            report["entries_t0"] = rm.entries
        if not rm.valid and report["first_invalid_time"] is None:
            report["valid"] = False
            report["first_invalid_time"] = float(t)
            report["violations"] = [[int(i), int(j), float(v)]
                                    for i, j, v in rm.violations]
    return report, qs


# -- scenarios and recorded states ----------------------------------------------------------


def _ring(n):
    """A ring on n nodes with a chord every fourth node, weights in [0.5, 1.5]."""
    edges = [[i, (i + 1) % n] for i in range(n)] + [[i, (i + n // 2) % n]
                                                     for i in range(0, n // 2, 4)]
    return {"nodes": n, "edges": [[min(e), max(e), 0.5 + (7 * k % 11) / 10]
                                  for k, e in enumerate(edges)]}


def _reference(n):
    rng = np.random.default_rng(n)
    m = rng.uniform(0.2, 1.5, size=(n, n)) * (rng.random((n, n)) < 0.6)
    m[0, 1] = m[1, 0] = 1.0             # the pair the error-order cases overflow on
    np.fill_diagonal(m, 0.0)
    return {"kind": "constant", "matrix": m.tolist()}


def _scenario(variant, theta=None, chart="S", q=None, n=N):
    data = {"graph": _ring(n), "hamiltonian": {"variant": variant}}
    if theta is not None:
        data["hamiltonian"]["theta"] = theta
    if q is not None:
        data["hamiltonian"]["q"] = q
    if variant in ("sbp_entropic", "sbp_psi", "schrodinger_fg"):
        data["reference"] = _reference(n)
    scenario = parse_config(data)
    assert scenario.hamiltonian.chart == chart
    return scenario


def _states(count, n=N, chart="S", seed=0, times=None, pot_scale=0.3):
    """`count` recorded states in a chart: interior densities (positive
    factors in the fg chart) and random potentials."""
    rng = np.random.default_rng(seed)
    rho = rng.dirichlet(np.full(n, 4.0), size=count)
    pot = rng.normal(0.0, pot_scale, size=(count, n))
    if chart == "fg":
        rho, pot = np.sqrt(rho) * np.exp(-pot), np.sqrt(rho) * np.exp(pot)
    times = np.linspace(0.0, 1.0, count) if times is None else times
    return Trajectory(times, rho, pot, chart, np.zeros(count), np.zeros(count))


def _assert_same_report(tmp_path, scenario, traj):
    want_report, want_qs = _oracle_report(scenario, traj)
    report, (diagonals, rates, src, dst) = _rate_report(scenario, traj)
    assert diagonals.tobytes() == np.diagonal(want_qs, axis1=1, axis2=2).tobytes()
    assert rates.tobytes() == want_qs[:, src, dst].tobytes()
    off = ~np.eye(scenario.graph.n, dtype=bool)
    off[src, dst] = False
    assert want_qs[:, off].tobytes() == np.zeros(len(want_qs) * off.sum()).tobytes()
    assert report["entries_t0"].tobytes() == want_report["entries_t0"].tobytes()
    _dump(tmp_path / "want.json", want_report)
    _dump(tmp_path / "got.json", report)
    assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()
    return report


KINDS = {
    "sbp-constant": lambda: _scenario("sbp_entropic"),
    "sbp-psi-constant": lambda: _scenario("sbp_psi", chart="psi"),
    "upwind_ot": lambda: _scenario("ot_kinetic", "upwind"),
    "theta-average": lambda: _scenario("ot_kinetic", "average"),
    "theta-logmean": lambda: _scenario("ot_kinetic", "logmean"),
    "lp-upwind-q3": lambda: _scenario("lp_kinetic", "upwind", q=3.0),
    "lp-logmean-q3": lambda: _scenario("lp_kinetic", "logmean", q=3.0),
}


class TestBlockedExtraction:
    @pytest.mark.parametrize("count", [BLOCK - 1, BLOCK, BLOCK + 1])
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_matches_the_per_record_loop(self, tmp_path, kind, count):
        scenario = KINDS[kind]()
        chart = scenario.hamiltonian.chart
        report = _assert_same_report(tmp_path, scenario, _states(count, chart=chart, seed=count))
        assert report["checked_times"] == count

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_periodic_reference_matches_the_per_record_loop(self, tmp_path, offset):
        scenario = load_config("three-node-circle")
        count = _block_size(scenario.graph.n) + offset
        times = np.linspace(0.0, scenario.period, count)
        traj = _states(count, n=scenario.graph.n, chart="psi", times=times)
        _assert_same_report(tmp_path, scenario, traj)

    def test_clamped_then_invalid(self, tmp_path):
        # potentials within 1e-13 give average rates within 1e-12 of zero on
        # either side, clamped; from record 40 on they are negative beyond it
        traj = _states(BLOCK + 9, pot_scale=1e-13)
        traj.pot[40:] *= 1e12
        report = _assert_same_report(tmp_path, _scenario("ot_kinetic", "average"), traj)
        assert report["clamped"] > 0
        assert not report["valid"]
        assert report["first_invalid_time"] == traj.times[40]

    def test_theta_average_counter(self, tmp_path):
        scenario = load_config("theta-average-counter")
        steps = _step_count(scenario.t0, scenario.t1, scenario.dt)
        traj = integrate(scenario.hamiltonian, scenario.initial, scenario.t0, scenario.t1,
                         scenario.dt, record_every=max(1, steps // 256))
        report = _assert_same_report(tmp_path, scenario, traj)
        assert not report["valid"]
        assert cmd_geodesic(scenario, tmp_path, None) == 2


# -- error order -------------------------------------------------------------------------


def _spoil(traj, k, how):
    """Make record k fail one check of the per-record loop."""
    if how == "nonpositive-mass":           # BoundaryDensity, in the chart or the splitting
        traj.rho[k, 2] = 0.0
    elif how == "big-gap":                  # NonfiniteValue: e^{gap} would overflow
        traj.pot[k, 0], traj.pot[k, 1] = 400.0, -400.0
    elif how == "fg-big-gap":               # NonfiniteValue: S = 1/2 log(g/f) = +-352
        traj.rho[k, :2] = 1e-153, 1e153
        traj.pot[k, :2] = 1e153, 1e-153
    elif how == "nonpositive-factor":       # NonpositiveFG
        traj.pot[k, 3] = -0.1
    elif how == "equal-masses":             # NoRateDecomposition on the edge (0, 1)
        traj.rho[k, 1] = traj.rho[k, 0]
    return traj


ERRORS = {
    "nonpositive-mass": BoundaryDensity,
    "big-gap": NonfiniteValue,
    "fg-big-gap": NonfiniteValue,
    "nonpositive-factor": NonpositiveFG,
    "equal-masses": NoRateDecomposition,
}

CASES = [
    ("sbp_psi", None, "psi", "nonpositive-mass", "big-gap"),
    ("schrodinger_fg", None, "fg", "nonpositive-factor", "fg-big-gap"),
    ("sbp_entropic", None, "S", "nonpositive-mass", "big-gap"),
    ("ot_kinetic", "logmean", "S", "nonpositive-mass", "equal-masses"),
]


def _outcome(fn, *args):
    try:
        fn(*args)
    except Exception as exc:      # the error itself is the outcome compared
        return type(exc), str(exc)
    return None


class TestErrorOrder:
    @pytest.mark.parametrize("first, later", [(3, 10), (3, BLOCK + 2), (BLOCK - 1, BLOCK)])
    @pytest.mark.parametrize("swap", [False, True], ids=["", "swapped"])
    @pytest.mark.parametrize("variant, theta, chart, one, other", CASES,
                             ids=[c[0] + "-" + c[3] for c in CASES])
    def test_earliest_failing_record_raises_its_error(self, variant, theta, chart, one,
                                                      other, swap, first, later):
        early, late = (other, one) if swap else (one, other)
        scenario = _scenario(variant, theta, chart)
        traj = _spoil(_spoil(_states(BLOCK + 5, chart=chart), later, late), first, early)
        want = _outcome(_oracle_report, scenario, traj)
        assert want is not None and want[0] is ERRORS[early]
        assert _outcome(_rate_report, scenario, traj) == want

    def test_psi_conversion_message(self):
        traj = _spoil(_spoil(_states(BLOCK, chart="psi"), 9, "big-gap"), 4, "nonpositive-mass")
        assert _outcome(_rate_report, _scenario("sbp_psi", chart="psi"), traj) == (
            BoundaryDensity, "log of a nonpositive mass")


# -- memory ---------------------------------------------------------------------------------


def test_report_memory_is_its_generator_stack():
    # a 64-node upwind geodesic over 1,000 steps, recorded every third: 335 records
    rng = np.random.default_rng(11)
    n = 64
    scenario = parse_config({
        "graph": _ring(n),
        "hamiltonian": {"variant": "ot_kinetic", "theta": "upwind"},
        "initial": {"rho": rng.dirichlet(np.full(n, 4.0)).tolist(),
                    "pot": rng.normal(0.0, 0.05, n).tolist()},
        "horizon": {"t0": 0.0, "t1": 1.0, "dt": 1e-3},
    })
    steps = _step_count(scenario.t0, scenario.t1, scenario.dt)
    traj = integrate(scenario.hamiltonian, scenario.initial, scenario.t0, scenario.t1,
                     scenario.dt, record_every=max(1, steps // 256))
    assert len(traj.times) == 335
    tracemalloc.start()
    try:
        report, (diagonals, rates, _, _) = _rate_report(scenario, traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["valid"]
    assert peak - diagonals.nbytes - rates.nbytes < 1e6


def test_ring_geodesic_keeps_no_dense_generator_stack():
    # the unit ring of tests/digests.py at 256 nodes over 50 steps: the
    # report's pair records go to the sampler as they are
    n = 256
    x = 2 * np.pi * np.arange(n) / n
    rho = (1.0 + 0.5 * np.sin(x)) / (1.0 + 0.5 * np.sin(x)).sum()
    scenario = parse_config({
        "graph": {"nodes": n, "edges": [[i, (i + 1) % n, 1.0] for i in range(n)]},
        "hamiltonian": {"variant": "ot_kinetic", "theta": "upwind"},
        "initial": {"rho": rho.tolist(), "pot": (0.2 * np.cos(x)).tolist()},
        "horizon": {"t0": 0.0, "t1": 0.05, "dt": 1e-3},
    })
    traj = integrate(scenario.hamiltonian, scenario.initial, scenario.t0, scenario.t1,
                     scenario.dt, record_every=1)
    assert len(traj.times) == 51
    tracemalloc.start()
    try:
        start = time.perf_counter()
        report, records = _rate_report(scenario, traj)
        rates = _RecordedRates(scenario.t0, float(traj.times[1] - traj.times[0]), *records)
        paths = sum(len(p) for p in path_chunks(rates, rho, 2000, 0.0, 0.05, seed=5))
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["valid"] and paths == 2000
    assert peak < 4e6
    assert elapsed < 0.3
