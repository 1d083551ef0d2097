"""A geodesic's generator report: rates.json and the (K, n, n) generators
that the sampler reads, extracted in blocks of recorded states.

Claims checked here:
  * the blocked extraction gives bit for bit the generators and the
    rates.json bytes of a per-record loop kept here as the oracle, together
    with the per-state generator it used, for every rate kind: sbp on a
    constant and on a periodic reference (S and psi charts), upwind_ot,
    theta_general with the average and the log mean, and lp_kinetic at q = 3;
    at BLOCK - 1, BLOCK and BLOCK + 1 records, with clamped entries, and for
    the invalid theta-average-counter flow
  * a record that fails raises what the per-record loop raises: the type and
    message of the earliest failing record, checked in that loop's order,
    when a later record fails with another error, in the same block and in
    a later one
  * on a 64-node upwind geodesic of 335 records the report's heap peak stays
    within 1 MB of the generator stack it returns
"""

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
from graphham.hamiltonians import _block_size, _capped, _lp_flow, _reference_at
from graphham.markov import _step_count, validate_rate_matrix
from graphham.scenarios import load_config, parse_config

N = 16
BLOCK = _block_size(N)


# -- the per-record oracle -------------------------------------------------------------


def _oracle_generator(spec, state, t):
    """One state's generator candidate, validated, assembled state by state."""
    kind, g = spec.rate_kind, spec.graph
    rho, s = state.rho, state.pot
    if kind == "sbp":
        if np.min(rho) <= 0:
            raise BoundaryDensity("reweighted rates need interior masses")
        m, sup, _, _ = _reference_at(spec.reference)(t)
        ex = np.exp(_capped(s[None, :] - s[:, None], sup))
        q = ex * np.sqrt(rho[None, :] / rho[:, None]) * m
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, -q.sum(axis=1))
        return validate_rate_matrix(q, kind)
    ds = s[g.src] - s[g.dst]
    flow = _lp_flow(ds, spec.q) if spec.variant == "lp_kinetic" and spec.q != 2 else ds
    if kind == "upwind_ot":
        rate = g.w * np.clip(-flow, 0.0, None)
    elif spec.theta.kind == "average":
        rate = 0.5 * g.w * (-flow)
    else:
        if np.min(rho) <= 0:
            raise BoundaryDensity("log-mean splitting needs interior masses")
        logs = np.log(rho)
        dlog = logs[g.src] - logs[g.dst]
        if (np.abs(dlog) < 1e-12).any():
            raise NoRateDecomposition("log-mean splitting degenerates at equal masses")
        rate = -g.w * flow / dlog
    q = np.zeros((g.n, g.n))
    q[g.src, g.dst] = rate
    q[np.diag_indices(g.n)] = np.bincount(g.src, -rate, minlength=g.n)
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
    report, qs = _rate_report(scenario, traj)
    assert qs.tobytes() == want_qs.tobytes()
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
        report, qs = _rate_report(scenario, traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["valid"]
    assert peak - qs.nbytes < 1e6
