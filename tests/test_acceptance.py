"""Acceptance gate: twelve numbered criteria, one verdict line each.

Each test prints a single PASS/FAIL line with the measured quantities and
its runtime, then asserts. Tolerances and budgets are stated inline; the
ensembles are seeded so every run measures the same flow.
"""

import time

import numpy as np
import pytest

from graphham import scenarios
from graphham.dynamics import (
    hopf_cole,
    hopf_cole_inverse,
    integrate,
    madelung,
    madelung_inverse,
    monodromy,
    symplectic_check,
)
from graphham.graph import complete_graph
from graphham.hamiltonians import (
    PhasePoint,
    constant_rates,
    fisher_ot,
    grad_check,
    lp_kinetic,
    ot_kinetic,
    sbp_entropic,
    sbp_psi,
    schrodinger_fg,
    symmetric_rates,
    vector_field,
)
from graphham.markov import (
    build_rate_matrix,
    empirical_densities,
    propagator,
    sample_paths,
    validate_rate_matrix,
)
from graphham.sbp import (
    BridgeProblem,
    path_entropy_bruteforce,
    relative_entropy,
    solve_bridge,
    stationary_density,
    stationary_point,
)
from graphham.scenarios import BRIDGE_BUILTINS, load_config
from graphham.theta import from_name

K3 = complete_graph(3)
PERIODICS = ("two-node-periodic", "three-node-circle")
# the density loop each periodic built-in's rates are constructed to drive
LOOPS = {"two-node-periodic": scenarios._two_node_density,
         "three-node-circle": scenarios._circle_density}


def verdict(capsys, num, label, ok, detail, elapsed, budget):
    ok = bool(ok) and elapsed < budget
    line = "[%2d] %s %s: %s (%.2fs < %gs)" % (
        num, "PASS" if ok else "FAIL", label, detail, elapsed, budget)
    with capsys.disabled():
        print(line)
    assert ok, line


def interior_start(seed, spread):
    rng = np.random.default_rng(seed)
    rho = rng.dirichlet([3.0, 3.0, 3.0])
    rho = np.clip(rho, 0.2, None)
    rho /= rho.sum()
    return PhasePoint(rho, rng.uniform(-spread, spread, 3))


def test_01_hamiltonian_conservation(capsys):
    t = time.perf_counter()
    spec = sbp_entropic(K3, symmetric_rates(K3, 0.6))
    start = interior_start(seed=4, spread=0.2)
    drift = []
    for dt in (1e-3, 5e-4):
        tr = integrate(spec, start, 0.0, 1.0, dt)
        drift.append(np.abs(tr.H - tr.H[0]).max())
    ratio = drift[0] / drift[1]
    verdict(capsys, 1, "energy conservation", drift[0] <= 1e-8 and ratio >= 10,
            "drift %.2e, halving ratio %.1f" % (drift[0], ratio),
            time.perf_counter() - t, 1.0)


def test_02_symplectic_transforms(capsys):
    t = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        rho = rng.dirichlet([2.0, 2.0, 2.0])
        rho = np.clip(rho, 0.05, None)
        rho /= rho.sum()
        state = PhasePoint(rho, rng.normal(0.0, 1.0, 3))
        worst = max(worst, symplectic_check(hopf_cole, state),
                    symplectic_check(madelung, state))
    verdict(capsys, 2, "symplectic transforms", worst <= 1e-6,
            "worst |D^T J D - J| = %.2e over 20 states" % worst,
            time.perf_counter() - t, 1.0)


def test_03_three_chart_equivalence(capsys):
    t = time.perf_counter()
    ref = symmetric_rates(K3, 0.5)
    start = interior_start(seed=1, spread=0.2)
    tr_s = integrate(sbp_entropic(K3, ref), start, 0.0, 1.0, 1e-3, record_every=50)
    tr_p = integrate(sbp_psi(K3, ref), hopf_cole(start), 0.0, 1.0, 1e-3,
                     record_every=50)
    tr_f = integrate(schrodinger_fg(K3, ref), madelung(start), 0.0, 1.0, 1e-3,
                     record_every=50)
    worst = 0.0
    for k in range(len(tr_s)):
        a = tr_s.state(k)
        b = hopf_cole_inverse(tr_p.state(k))
        c = madelung_inverse(tr_f.state(k))
        worst = max(worst,
                    np.abs(a.rho - b.rho).max(), np.abs(a.pot - b.pot).max(),
                    np.abs(a.rho - c.rho).max(), np.abs(a.pot - c.pot).max())
    verdict(capsys, 3, "three-chart equivalence", worst <= 1e-6,
            "worst cross-chart gap %.2e" % worst, time.perf_counter() - t, 5.0)


def test_04_path_entropy_oracle(capsys):
    t = time.perf_counter()
    sc = load_config("two-node-bridge")
    problem = BridgeProblem(sc.reference, sc.rho0, sc.rho1,
                            reference_initial=sc.reference_initial)
    sol = solve_bridge(problem, dt=1.0 / 1024)
    target = relative_entropy(problem.rho0, problem.reference_initial) + sol.entropy
    gaps = {n: path_entropy_bruteforce(sol, n) - target for n in (4, 8, 16)}
    r48 = gaps[4] / gaps[8]
    r816 = gaps[8] / gaps[16]
    ok = (abs(gaps[16]) <= 2 * abs(gaps[8])
          and 1.5 <= r48 <= 3.0 and 1.5 <= r816 <= 3.0)
    verdict(capsys, 4, "path entropy oracle", ok,
            "gaps %.4f/%.4f/%.4f, ratios %.2f, %.2f"
            % (gaps[4], gaps[8], gaps[16], r48, r816),
            time.perf_counter() - t, 30.0)


def test_05_bridge_solver(capsys):
    t = time.perf_counter()
    details = []
    ok = True
    for name in BRIDGE_BUILTINS:
        sc = load_config(name)
        sol = solve_bridge(BridgeProblem(sc.reference, sc.rho0, sc.rho1,
                                         reference_initial=sc.reference_initial))
        ok &= max(sol.residuals) <= 1e-8 and sol.iterations <= 200
        ok &= len(sol.objective) < 2 or np.diff(sol.objective).max() <= 1e-10
        details.append("%s it=%d r=%.1e" % (name, sol.iterations,
                                            max(sol.residuals)))
        if name == "two-node-self-bridge":
            m = sc.reference.at(0.0)
            dev = max(np.abs(sol.m_hat[k] - m).max() for k in range(len(sol.times)))
            ok &= dev <= 1e-9 and abs(sol.entropy) <= 1e-10
            details.append("self m-dev %.1e H %.1e" % (dev, abs(sol.entropy)))
    verdict(capsys, 5, "bridge solver", ok, "; ".join(details),
            time.perf_counter() - t, 30.0)


def test_06_stationary_points(capsys):
    t = time.perf_counter()
    g4 = complete_graph(4)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(10):
        m = 0.5 + rng.random((4, 4))
        np.fill_diagonal(m, 0.0)
        np.fill_diagonal(m, -m.sum(axis=1))
        rates = constant_rates(m)
        star = stationary_point(rates, stationary_density(rates))
        drho, dpot = vector_field(sbp_entropic(g4, rates), star)
        worst = max(worst, np.abs(drho).max(), np.abs(dpot).max())
    verdict(capsys, 6, "stationary points", worst <= 1e-9,
            "worst field norm %.2e over 10 chains" % worst,
            time.perf_counter() - t, 1.0)


def test_07_periodic_construction(capsys):
    t = time.perf_counter()
    details = []
    ok = True
    for name in PERIODICS:
        sc = load_config(name)
        ts = np.linspace(0.0, sc.period, 629)
        stack = sc.reference.at_many(ts)
        all_valid = all(validate_rate_matrix(q).valid for q in stack)
        rho = sc.initial.rho.copy()
        dens_err = 0.0
        checks = np.linspace(0.0, sc.period, 26)
        for a, b in zip(checks[:-1], checks[1:]):
            rho = rho @ propagator(sc.reference, float(a), float(b), dt=1e-3)
            dens_err = max(dens_err, np.abs(rho - LOOPS[name](float(b))).max())
        ret = np.abs(rho - sc.initial.rho).max()
        ok &= all_valid and dens_err <= 1e-6 and ret <= 1e-6
        details.append("%s valid=%s err %.1e return %.1e"
                       % (name, all_valid, dens_err, ret))
    verdict(capsys, 7, "periodic construction", ok, "; ".join(details),
            time.perf_counter() - t, 5.0)


def test_08_floquet_unit_multiplier(capsys):
    t = time.perf_counter()
    details = []
    ok = True
    for name in PERIODICS:
        sc = load_config(name)
        mon = monodromy(sc.reference, period=sc.period, dt=5e-4)
        dev = np.abs(np.abs(mon.multipliers) - 1.0).min()
        ok &= mon.has_unit_multiplier and dev <= 1e-6
        details.append("%s unit dev %.1e" % (name, dev))
    verdict(capsys, 8, "unit Floquet multiplier", ok, "; ".join(details),
            time.perf_counter() - t, 2.0)


def test_09_monte_carlo_consistency(capsys):
    t = time.perf_counter()
    sc = load_config("two-node-periodic")
    m = 10 ** 5
    paths = sample_paths(sc.reference, sc.initial.rho, m, 0.0, sc.period, seed=42)
    ts = np.linspace(0.0, sc.period, 10)
    hist = empirical_densities(paths, ts)
    master = np.empty_like(hist)
    rho = sc.initial.rho.copy()
    master[0] = rho
    for k in range(1, len(ts)):
        rho = rho @ propagator(sc.reference, float(ts[k - 1]), float(ts[k]), dt=1e-3)
        master[k] = rho
    tv = 0.5 * np.abs(hist - master).sum(axis=1)
    bound = 3.0 * np.sqrt(2.0 / m)
    verdict(capsys, 9, "Monte Carlo consistency", tv.max() <= bound,
            "max TV %.4f <= %.4f at 10 checkpoints, M=1e5" % (tv.max(), bound),
            time.perf_counter() - t, 60.0)


def test_10_negative_rate_detector(capsys):
    t = time.perf_counter()
    counter = load_config("theta-average-counter")
    rm = build_rate_matrix(counter.hamiltonian, counter.initial)
    flagged = not rm.valid and len(rm.violations) > 0

    up = load_config("two-node-upwind")
    rng = np.random.default_rng(11)
    bad = 0
    for _ in range(1000):
        rho = rng.dirichlet([1.0, 1.0])
        rho = np.clip(rho, 1e-3, None)
        rho /= rho.sum()
        state = PhasePoint(rho, rng.normal(0.0, 2.0, 2))
        if not build_rate_matrix(up.hamiltonian, state).valid:
            bad += 1
    verdict(capsys, 10, "negative-rate detector", flagged and bad == 0,
            "mean-weight counter flagged=%s, upwind invalid %d/1000"
            % (flagged, bad), time.perf_counter() - t, 5.0)


def test_11_potential_gap_dichotomy(capsys):
    t = time.perf_counter()
    sc = load_config("two-node-periodic")
    spec = sc.hamiltonian
    rho0 = sc.initial.rho

    ok = True
    details = []
    # distinct potentials diverge monotonically while the flow lasts
    for gap0 in (0.1, -0.1):
        psi = np.array([gap0 / 2, -gap0 / 2])
        tr = integrate(spec, PhasePoint(rho0, psi, chart="psi"), 0.0, 3.0, 2e-3,
                       record_every=10)
        signs = []
        for k in range(len(tr)):
            _, dpot = vector_field(spec, tr.state(k), float(tr.times[k]))
            signs.append(np.sign(dpot[0] - dpot[1]))
        signs = np.array(signs)
        ok &= (signs == np.sign(gap0)).all()
        details.append("gap %+0.1f sign-constant %s" % (gap0, (signs == signs[0]).all()))

    # equal potentials ride the reference density around the full period
    tr = integrate(spec, sc.initial, 0.0, sc.period, 4e-3, record_every=50)
    dens_err = max(np.abs(tr.rho[k] - LOOPS["two-node-periodic"](float(tr.times[k]))).max()
                   for k in range(len(tr)))
    ret = np.abs(tr.rho[-1] - tr.rho[0]).max()
    ok &= dens_err <= 1e-6 and ret <= 1e-6
    details.append("equal-gap density err %.1e return %.1e" % (dens_err, ret))
    verdict(capsys, 11, "potential-gap dichotomy", ok, "; ".join(details),
            time.perf_counter() - t, 5.0)


def test_12_gradient_checks(capsys):
    t = time.perf_counter()
    ref = symmetric_rates(K3, 0.7)
    smooth = [
        ("ot-average", ot_kinetic(K3, from_name("average")), "S"),
        ("ot-logmean", ot_kinetic(K3, from_name("logmean")), "S"),
        ("lp-q3", lp_kinetic(K3, from_name("average"), q=3.0), "S"),
        ("fisher", fisher_ot(K3, from_name("average")), "S"),
        ("entropic", sbp_entropic(K3, ref), "S"),
        ("dual", sbp_psi(K3, ref), "psi"),
        ("factored", schrodinger_fg(K3, ref), "fg"),
    ]
    rng = np.random.default_rng(5)
    worst = {}
    for label, spec, chart in smooth:
        top = 0.0
        for _ in range(100):
            rho = rng.dirichlet([2.0, 2.0, 2.0])
            rho = np.clip(rho, 0.05, None)
            rho /= rho.sum()
            pot = rng.normal(0.0, 0.5, 3)
            state = PhasePoint(rho, pot)
            if chart == "psi":
                state = hopf_cole(state)
            elif chart == "fg":
                state = madelung(state)
            rel = grad_check(spec, state)
            top = max(top, rel["max_rel_deviation"])
        worst[label] = top
    ok = all(v <= 1e-5 for v in worst.values())
    verdict(capsys, 12, "gradient checks", ok,
            ", ".join("%s %.1e" % kv for kv in worst.items()),
            time.perf_counter() - t, 10.0)
