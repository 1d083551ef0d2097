"""Bridge solver, entropy accounting, periodic construction, stationarity.

Two independent accountings of the bridge cost are held against each other:
the static coupling relative entropy at the IPFP fixed point and the
dynamic route, endpoint term plus integrated entropy production of the
bridged rates. The discrete-chain brute force then closes the triangle at
finite step counts.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphham import sbp
from graphham.errors import (
    BoundaryDensity,
    BoundaryMarginal,
    InvalidGenerator,
    NegativeStepProbability,
    NonconvergedIPFP,
    NonsmoothSpec,
    NotInterior,
    NotStationary,
    PathExplosion,
    SupportMismatch,
)
from graphham.dynamics import integrate
from graphham.graph import complete_graph, validate_graph
from graphham.hamiltonians import (
    PhasePoint,
    ReferenceRates,
    _dense,
    constant_rates,
    ot_kinetic,
    sbp_entropic,
    symmetric_rates,
    vector_field,
)
from graphham.markov import _rate_pairs, _rate_stack, propagator, validate_rate_matrix
from graphham.sbp import (
    BridgeProblem,
    integrated_entropy_rate,
    markov_condition_residual,
    path_entropy_bruteforce,
    periodic_rate_from_density,
    relative_entropy,
    relative_entropy_rate,
    solve_bridge,
    stationary_density,
    stationary_point,
)
from graphham.theta import UPWIND

FLIP = np.array([[-1.0, 1.0], [1.0, -1.0]])


def spoil_call(fn, call, shift=5.0):
    """fn, with its `call`-th result raised by `shift`."""
    calls = itertools.count(1)

    def spoiled(*args, **kwargs):
        out = fn(*args, **kwargs)
        return out + shift if next(calls) == call else out
    return spoiled


def random_generator(rng, n, low=0.5):
    m = low + rng.random((n, n))
    np.fill_diagonal(m, 0.0)
    np.fill_diagonal(m, -m.sum(axis=1))
    return m


class TestRelativeEntropy:
    def test_pinned_discrete(self):
        got = relative_entropy([0.9, 0.1], [0.5, 0.5])
        want = 0.9 * np.log(1.8) + 0.1 * np.log(0.2)
        assert got == pytest.approx(want, abs=1e-14)

    def test_zero_against_itself(self):
        assert relative_entropy([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_support_mismatch(self):
        with pytest.raises(SupportMismatch):
            relative_entropy([0.5, 0.5], [1.0, 0.0])

    def test_rate_pinned_doubled_generator(self):
        # doubling unit two-way rates at the flat density costs u(2) per
        # unit of reference flux, weighted by mass: 2 log 2 - 1
        m_hat = 2.0 * FLIP
        got = relative_entropy_rate([0.5, 0.5], m_hat, FLIP)
        assert got == pytest.approx(2 * np.log(2) - 1, abs=1e-14)

    def test_rate_closed_channel_costs_reference_flux(self):
        # u(0) = 1: silencing a unit channel costs its reference rate
        m_hat = np.zeros((2, 2))
        got = relative_entropy_rate([0.25, 0.75], m_hat, FLIP)
        assert got == pytest.approx(0.25 * 1.0 + 0.75 * 1.0, abs=1e-14)

    def test_rate_support_mismatch(self):
        m = np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 0.0]])
        m_hat = m.copy()
        m_hat[0, 2] = 0.5
        with pytest.raises(SupportMismatch):
            relative_entropy_rate([0.3, 0.3, 0.4], m_hat, m)

    def test_rate_stack_matches_rows(self):
        # a (T, n) rho with (T, n, n) generators gives each row's rate; the
        # oracle is the row-by-row formula with closed channels and u(0) = 1,
        # in the same arithmetic, so the values are equal
        rng = np.random.default_rng(12)
        n, count = 5, 9
        m = random_generator(rng, n)
        m[0, 3] = m[3, 0] = 0.0
        np.fill_diagonal(m, 0.0)
        np.fill_diagonal(m, -m.sum(axis=1))
        ms = np.broadcast_to(m, (count, n, n))
        m_hat = ms * rng.uniform(0.2, 3.0, size=(count, n, n))
        m_hat[2, 1, :] = np.where(np.arange(n) == 1, m_hat[2, 1, 1], 0.0)
        rho = rng.dirichlet(np.ones(n), count)
        off = ~np.eye(n, dtype=bool)
        want = []
        for k in range(count):
            x = np.where(m > 0, m_hat[k] / np.where(m > 0, m, 1.0), 0.0)
            u = np.where(x > 0, x * np.log(np.where(x > 0, x, 1.0)) - x + 1.0, 1.0)
            want.append(np.sum(rho[k][:, None] * np.where(off & (m > 0), u * m, 0.0)))
        got = relative_entropy_rate(rho, m_hat, ms)
        assert got.shape == (count,)
        assert got.tolist() == want
        assert [relative_entropy_rate(rho[k], m_hat[k], m) for k in range(count)] \
            == got.tolist()
        m_hat[4, 0, 3] = 0.1
        with pytest.raises(SupportMismatch):
            relative_entropy_rate(rho, m_hat, ms)

    def test_integration_of_constant_rate(self):
        times = np.linspace(0.0, 2.0, 401)
        rho = np.tile([0.5, 0.5], (401, 1))
        m_hat = np.tile(2.0 * FLIP, (401, 1, 1))
        m = np.tile(FLIP, (401, 1, 1))
        got = integrated_entropy_rate(times, rho, m_hat, m)
        assert got == pytest.approx(2 * (2 * np.log(2) - 1), rel=1e-12)


class TestBridge:
    def setup_method(self):
        self.problem = BridgeProblem(constant_rates(FLIP), [0.9, 0.1], [0.1, 0.9])

    def test_converges_and_hits_marginals(self):
        sol = solve_bridge(self.problem)
        assert sol.iterations <= 200
        assert max(sol.residuals) <= 1e-8
        np.testing.assert_allclose(sol.rho[0], [0.9, 0.1], atol=1e-8)
        np.testing.assert_allclose(sol.rho[-1], [0.1, 0.9], atol=1e-8)
        assert sol.rho.min() > 0

    @pytest.mark.parametrize("scale, rho0, rho1", [
        (1.0, [0.9, 0.1], [0.1, 0.9]),
        (0.1, [0.99, 0.01], [0.01, 0.99]),      # -D ends near -1.24
    ])
    def test_sweep_cost_nonincreasing(self, scale, rho0, rho1):
        # weak duality: -D after every sweep is at least its value at the
        # fixed point, 1 - coupling entropy - <rho0, log ref0>
        problem = BridgeProblem(constant_rates(scale * FLIP), rho0, rho1)
        sol = solve_bridge(problem, tol=1e-12)
        drift = np.diff(sol.objective)
        assert len(drift) == 0 or drift.max() <= 1e-10
        shift = problem.rho0 @ np.log(problem.reference_initial)
        assert min(sol.objective) >= 1.0 - sol.coupling_entropy[-1] - shift - 1e-10

    def test_coupling_entropy_settles(self):
        sol = solve_bridge(self.problem)
        trace = np.array(sol.coupling_entropy)
        assert abs(trace[-1] - trace[-2]) <= 1e-6

    def test_static_and_dynamic_costs_agree(self):
        # coupling relative entropy at the fixed point against the
        # endpoint term plus integrated entropy production
        sol = solve_bridge(self.problem)
        dynamic = relative_entropy(self.problem.rho0,
                                   self.problem.reference_initial) + sol.entropy
        assert sol.coupling_entropy[-1] == pytest.approx(dynamic, abs=1e-5)

    def test_bridged_generators_valid(self):
        sol = solve_bridge(self.problem)
        for k in range(0, len(sol.times), 100):
            assert validate_rate_matrix(sol.m_hat[k]).valid

    def test_bridged_rates_steer_the_density(self):
        # d rho/dt = rho m_hat along the solution, checked at mid-horizon
        sol = solve_bridge(self.problem)
        k = len(sol.times) // 2
        dt = sol.times[1] - sol.times[0]
        fd = (sol.rho[k + 1] - sol.rho[k - 1]) / (2 * dt)
        np.testing.assert_allclose(sol.rho[k] @ sol.m_hat[k], fd, atol=1e-5)

    def test_self_bridge_symmetric_single_sweep(self):
        # a doubly stochastic reference is its own bridge to the flat
        # marginal, and the very first sweep lands on it exactly
        g = complete_graph(3)
        m = np.full((3, 3), 0.8)
        np.fill_diagonal(m, -1.6)
        rates = constant_rates(m)
        star = np.full(3, 1 / 3)
        sol = solve_bridge(BridgeProblem(rates, star, star))
        assert sol.iterations == 1
        np.testing.assert_allclose(sol.m_hat, np.tile(m, (len(sol.times), 1, 1)),
                                   atol=1e-9)
        assert abs(sol.entropy) <= 1e-10

    def test_self_bridge_is_trivial(self):
        rng = np.random.default_rng(2)
        m = random_generator(rng, 3)
        rates = constant_rates(m)
        star = stationary_density(rates)
        sol = solve_bridge(BridgeProblem(rates, star, star))
        assert sol.iterations <= 10
        np.testing.assert_allclose(sol.m_hat, np.tile(m, (len(sol.times), 1, 1)),
                                   atol=1e-9)
        assert abs(sol.entropy) <= 1e-10

    def test_time_dependent_reference(self):
        rates = periodic_rate_from_density(
            lambda ts: np.stack([0.5 + 0.25 * np.cos(ts), 0.5 - 0.25 * np.cos(ts)], axis=1),
            2 * np.pi, 2,
            deriv_fn=lambda ts: np.stack([-0.25 * np.sin(ts), 0.25 * np.sin(ts)], axis=1)).rates
        sol = solve_bridge(BridgeProblem(rates, [0.3, 0.7], [0.6, 0.4]))
        assert max(sol.residuals) <= 1e-8
        np.testing.assert_allclose(sol.rho[-1], [0.6, 0.4], atol=1e-8)

    def test_streamed_generators_match_a_held_stack(self):
        # m_hat and the entropy are built block by block (four blocks of
        # times at n = 8); both must be what the whole stack of m gives
        rng = np.random.default_rng(29)
        n = 8
        base, phase = rng.uniform(0.3, 1.5, (n, n)), rng.uniform(0.0, 2 * np.pi, (n, n))
        np.fill_diagonal(base, 0.0)

        def batch(ts):
            off = base * (1.0 + 0.5 * np.sin(3.0 * np.asarray(ts)[:, None, None] + phase))
            return off - np.eye(n) * off.sum(axis=2)[:, :, None]

        rates = ReferenceRates(n, batch_fn=batch)
        sol = solve_bridge(BridgeProblem(rates, rng.dirichlet(np.full(n, 3.0)),
                                         rng.dirichlet(np.full(n, 3.0))))
        m, g = rates.at_many(sol.times), sol.g
        m_hat = m * (g[:, None, :] / g[:, :, None])
        m_hat[:, np.arange(n), np.arange(n)] = 0.0
        m_hat[:, np.arange(n), np.arange(n)] = -m_hat.sum(axis=2)
        np.testing.assert_array_equal(sol.m_hat, m_hat)
        assert sol.entropy == integrated_entropy_rate(sol.times, sol.f * sol.g, m_hat, m)

    def test_memory_is_one_generator_stack(self):
        # 32 nodes, 1,001 grid times: the step matrices and m_hat take 8.2 MB
        # each and are not held together; whole stacks of m would add 16 MB
        rng = np.random.default_rng(5)
        n = 32
        m = rng.uniform(0.5, 1.5, (n, n)) * (rng.random((n, n)) < 0.3)
        m = np.maximum(m, m.T)
        np.fill_diagonal(m, 0.0)
        np.fill_diagonal(m, -m.sum(axis=1))
        problem = BridgeProblem(constant_rates(m), rng.dirichlet(np.full(n, 4.0)),
                                rng.dirichlet(np.full(n, 4.0)))
        tracemalloc.start()
        try:
            sol = solve_bridge(problem, dt=1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(sol.residuals) <= 1e-8
        assert peak < 14e6

    def test_boundary_marginal_rejected(self):
        with pytest.raises(BoundaryMarginal):
            solve_bridge(BridgeProblem(constant_rates(FLIP), [1.0, 0.0], [0.5, 0.5]))

    def test_negative_bridged_rate_is_typed(self):
        # the reference turns invalid only within 2e-4 of t = 0.5, one grid
        # time; the check of every grid time refuses it before the fit
        good = np.array([[-1.0, 1.0], [1.0, -1.0]])
        bad = np.array([[0.3, -0.3], [1.0, -1.0]])

        def batch(ts):
            near = np.abs(np.asarray(ts, dtype=float) - 0.5) < 2e-4
            return np.where(near[:, None, None], bad, good)

        problem = BridgeProblem(ReferenceRates(2, batch_fn=batch), [0.6, 0.4], [0.4, 0.6])
        with pytest.raises(InvalidGenerator, match="raw rate matrix invalid"):
            solve_bridge(problem, dt=1e-3)

    def test_nonconvergence_carries_residuals(self, monkeypatch):
        monkeypatch.setattr(sbp, "_MAX_SWEEPS", 1)
        with pytest.raises(NonconvergedIPFP) as info:
            solve_bridge(self.problem)
        assert max(info.value.residuals) > 1e-8

    def test_spoiled_half_step_is_a_dual_fall(self, monkeypatch):
        # the third log-sum-exp is sweep 2's gam half-step; shifting it by 5
        # moves gam off the maximizer of D, which costs 5 - 1 + e^-5
        monkeypatch.setattr(sbp, "_logsumexp", spoil_call(sbp._logsumexp, 3))
        with pytest.raises(NonconvergedIPFP, match="dual fell by 4.* at sweep 2") as info:
            solve_bridge(self.problem)
        assert len(info.value.history) == 1

    def test_dual_meets_the_coupling_cost(self):
        # strong duality at the fixed point: with unit coupling mass,
        # -D = 1 - sum pi log(pi / K), and the coupling entropy against
        # ref0_i K_ij is sum pi log(pi / K) - <rho0, log ref0>
        sol = solve_bridge(self.problem, tol=1e-12)
        shift = self.problem.rho0 @ np.log(self.problem.reference_initial)
        assert sol.objective[-1] == pytest.approx(1.0 - sol.coupling_entropy[-1] - shift,
                                                  abs=1e-10)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 4), seed=st.integers(0, 2 ** 32 - 1))
    def test_dual_ascent_on_random_constant_references(self, n, seed):
        # slow to fast rates, some channels closed, so some pairs of marginals
        # cannot be bridged; only unmet residuals or overflowing scalings may
        # stop the fit, never a fall of the dual
        rng = np.random.default_rng(seed)
        m = 10.0 ** rng.uniform(-3, 1) * rng.random((n, n)) * (rng.random((n, n)) < 0.7)
        np.fill_diagonal(m, 0.0)
        np.fill_diagonal(m, -m.sum(axis=1))
        problem = BridgeProblem(constant_rates(m), rng.dirichlet(np.ones(n)),
                                rng.dirichlet(np.ones(n)))
        try:
            sol = solve_bridge(problem, dt=1e-2)
        except NonconvergedIPFP as exc:
            assert "dual fell" not in str(exc)
            assert np.isfinite(exc.history).all()
            assert not exc.history or max(exc.history[-1]) > 1e-8
            return
        assert max(sol.residuals) <= 1e-8
        assert np.diff(sol.objective, prepend=np.inf).max() <= 1e-10

    def test_fixed_point_is_second_order_optimal(self):
        # feasible coupling perturbations (zero row and column sums) cannot
        # lower the cost, and move it only at second order
        sol = solve_bridge(self.problem, tol=1e-12)
        k = propagator(self.problem.reference, 0.0, 1.0, dt=1e-3)
        pi = sol.f[0][:, None] * k * sol.g[-1][None, :]
        ref = self.problem.reference_initial[:, None] * k

        def kl(a):
            return np.sum(a * np.log(a / ref))

        base = kl(pi)
        rng = np.random.default_rng(8)
        eps = 1e-3
        for _ in range(3):
            d = rng.normal(size=pi.shape)
            d -= d.mean(axis=0, keepdims=True)
            d -= d.mean(axis=1, keepdims=True)
            moved = kl(pi + eps * d * pi.min()) - base
            assert moved >= -1e-12
            assert moved <= 100 * eps ** 2


# -- the bridge is the sbp Hamiltonian flow -------------------------------------------


def _flow_gaps(g, reference, rho0, rho1, dt):
    """The bridge at step dt against the sbp_entropic flow from its (rho0, S0),
    S = (log g - log f) / 2: the largest gap in rho, the largest in S up to a
    constant at each time, and _rate_stack's sbp generator off m_hat."""
    sol = solve_bridge(BridgeProblem(reference, rho0, rho1, t1=0.5), dt=dt, tol=1e-6)
    s = 0.5 * (np.log(sol.g) - np.log(sol.f))
    spec = sbp_entropic(g, reference)
    flow = integrate(spec, PhasePoint(sol.rho[0], s[0]), 0.0, 0.5, dt)
    ds = flow.pot - s
    q = _dense(*_rate_pairs(spec), *_rate_stack(spec, sol.rho, s, sol.times))
    return (np.abs(flow.rho - sol.rho).max(),
            np.abs(ds - ds.mean(axis=1, keepdims=True)).max(),
            np.abs(q - sol.m_hat).max() / max(1.0, np.abs(sol.m_hat).max()))


@settings(max_examples=10, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 2 ** 32 - 1), constant=st.booleans())
def test_bridge_is_the_sbp_hamiltonian_flow(n, seed, constant):
    # the paper's claim: the Schrodinger bridge is a Hamiltonian process. Both
    # sides are rk4 at step dt, so their gap is truncation, read as criterion 1
    # reads energy drift: halving dt must shrink it more than 8-fold, which
    # only an order above three does (about 16-fold at fourth order), unless
    # it is already near rounding. The generators agree to rounding at every
    # grid time.
    rng = np.random.default_rng(seed)
    pairs = {(int(rng.integers(i)), i) for i in range(1, n)}      # a spanning tree
    pairs |= {tuple(sorted(rng.choice(n, 2, replace=False).tolist()))
              for _ in range(int(rng.integers(0, n)))}
    g = validate_graph(n, [[i, j, 1.0] for i, j in sorted(pairs)])
    if constant:
        reference = symmetric_rates(g, float(rng.uniform(0.2, 2.0)))
    else:
        ramp = np.zeros((n, n))
        ramp[g.src, g.dst] = rng.uniform(0.2, 2.0, len(g.src))
        np.fill_diagonal(ramp, -ramp.sum(axis=1))
        reference = ReferenceRates(n, batch_fn=lambda ts: (
            1.0 + 0.5 * np.sin(3.0 * np.asarray(ts)))[:, None, None] * ramp)
    rho0, rho1 = (rng.dirichlet(np.full(n, 2.0)) * 0.8 + 0.2 / n for _ in range(2))
    coarse = _flow_gaps(g, reference, rho0, rho1, 0.01)
    fine = _flow_gaps(g, reference, rho0, rho1, 0.005)
    for gap, half in zip(coarse[:2], fine[:2]):
        assert half <= max(gap / 8.0, 1e-10), (gap, half)
    assert max(coarse[2], fine[2]) <= 1e-14


def _enumerated(solution, n_steps):
    """The oracle by index arrays of length b n over the whole frontier: the
    enumeration path_entropy_bruteforce replaced, kept as its reference."""
    problem = solution.problem
    n = problem.reference.n
    h = (problem.t1 - problem.t0) / n_steps
    bridged, refr = solution.rates(), problem.reference
    with np.errstate(divide="ignore"):
        logp = np.log(problem.rho0)
        logr = np.log(problem.reference_initial)
    states = np.arange(n)
    keep = np.isfinite(logp)
    states, logp, logr = states[keep], logp[keep], logr[keep]
    for step in range(n_steps):
        t = problem.t0 + step * h
        pi_hat = np.eye(n) + h * bridged.at(t)
        pi_ref = np.eye(n) + h * refr.at(t)
        b = len(states)
        idx = np.repeat(np.arange(b), n)
        tgt = np.tile(np.arange(n), b)
        with np.errstate(divide="ignore"):
            lp = logp[idx] + np.log(pi_hat[states[idx], tgt])
            lr = logr[idx] + np.log(pi_ref[states[idx], tgt])
        keep = np.isfinite(lp)
        assert np.isfinite(lr[keep]).all()
        states, logp, logr = tgt[keep], lp[keep], lr[keep]
    return float(np.sum(np.exp(logp) * (logp - logr)))


def _builtin_bridge(name):
    """The bridge `graphham bridge --config name` solves."""
    from graphham.scenarios import load_config

    sc = load_config(name)
    return solve_bridge(BridgeProblem(sc.reference, sc.rho0, sc.rho1,
                                      reference_initial=sc.reference_initial,
                                      t0=sc.t0, t1=sc.t1), dt=sc.dt)


class TestBruteForce:
    def test_equals_the_full_index_enumeration(self):
        sol = _builtin_bridge("three-node-bridge")
        for n_steps in (5, 8, 10):
            assert path_entropy_bruteforce(sol, n_steps) == _enumerated(sol, n_steps)
        rng = np.random.default_rng(31)
        for _ in range(6):
            n = int(rng.integers(2, 5))
            m = random_generator(rng, n, low=0.1)
            m[rng.random((n, n)) < 0.3] = 0.0
            np.fill_diagonal(m, 0.0)
            m[0, 1] = m[1, 0] = 0.5                 # stays connected through node 0
            for i in range(2, n):
                m[0, i] = m[i, 0] = max(m[0, i], 0.2)
            rho0, rho1 = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
            sol = solve_bridge(BridgeProblem(constant_rates(m), rho0, rho1), dt=1.0 / 256)
            for n_steps in (3, 6):
                assert path_entropy_bruteforce(sol, n_steps) == _enumerated(sol, n_steps)

    def test_bounded_frontier_memory(self):
        sol = _builtin_bridge("three-node-bridge")
        tracemalloc.start()
        try:
            value = path_entropy_bruteforce(sol, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == 0.14327213171322747
        assert peak < 70e6

    def test_rate_off_the_reference_support(self):
        # a bridged jump 0 -> 2 that the reference path 0 - 1 - 2 never makes
        path = np.array([[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]])
        sol = solve_bridge(BridgeProblem(constant_rates(path), [0.5, 0.3, 0.2],
                                         [0.2, 0.3, 0.5]), dt=1.0 / 256)
        sol.m_hat = sol.m_hat + np.array([[-0.1, 0.0, 0.1], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(SupportMismatch):
            path_entropy_bruteforce(sol, 3)

    def test_frontier_guard(self):
        # 30^4 paths pass the 1e7 count, but 30 start states times 30^4 children
        # outgrow the 2e7 frontier: refused before the last expansion
        rates = constant_rates(0.1 * (np.ones((30, 30)) - np.eye(30)))
        flat = np.full(30, 1.0 / 30)
        sol = solve_bridge(BridgeProblem(rates, flat, flat), dt=0.05)
        tracemalloc.start()
        try:
            with pytest.raises(PathExplosion, match="frontier"):
                path_entropy_bruteforce(sol, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 60e6

    def test_gaps_halve_toward_the_identity(self):
        problem = BridgeProblem(constant_rates(FLIP), [0.9, 0.1], [0.1, 0.9])
        sol = solve_bridge(problem, dt=1.0 / 1024)
        target = relative_entropy(problem.rho0, problem.reference_initial) + sol.entropy
        gaps = {n: path_entropy_bruteforce(sol, n) - target for n in (4, 8, 16)}
        assert 1.5 <= gaps[4] / gaps[8] <= 3.0
        assert 1.5 <= gaps[8] / gaps[16] <= 3.0
        assert abs(gaps[16]) <= 2 * abs(gaps[8])

    def test_same_laws_means_zero(self):
        # bridging a stationary marginal onto itself: both chains coincide
        # except for the initial laws
        rng = np.random.default_rng(4)
        rates = constant_rates(random_generator(rng, 2))
        star = stationary_density(rates)
        sol = solve_bridge(BridgeProblem(rates, star, star,
                                         reference_initial=star), dt=1.0 / 1024)
        assert abs(path_entropy_bruteforce(sol, 8)) <= 1e-9

    def test_path_explosion_guard(self):
        rng = np.random.default_rng(6)
        rates = constant_rates(random_generator(rng, 3))
        sol = solve_bridge(BridgeProblem(rates, [0.5, 0.3, 0.2], [0.2, 0.3, 0.5]))
        with pytest.raises(PathExplosion):
            path_entropy_bruteforce(sol, 16)

    def test_sparse_time_dependent_reference_counts_its_moves(self):
        # a 4-node path moves along at most 2 pairs per node: 3^12 paths are
        # enumerated, where every pair (4^12 > 1e7) would be refused
        path = np.diag([1.0, 1.0, 1.0], 1) + np.diag([1.0, 1.0, 1.0], -1)
        path -= np.diag(path.sum(axis=1))
        rates = ReferenceRates(
            4, batch_fn=lambda ts: (1.0 + 0.5 * np.sin(ts))[:, None, None] * path)
        sol = solve_bridge(BridgeProblem(rates, [0.4, 0.3, 0.2, 0.1],
                                         [0.1, 0.2, 0.3, 0.4]), dt=1.0 / 256)
        assert np.isfinite(path_entropy_bruteforce(sol, 12))
        with pytest.raises(PathExplosion):
            path_entropy_bruteforce(sol, 15)

    @pytest.mark.parametrize("n_steps", [700, 10 ** 13])
    def test_step_counts_beyond_the_budget_are_refused(self, n_steps):
        # 3^700 paths are past the float range; 1e13 steps are past the step
        # cap, refused before the reference is evaluated at their times
        with pytest.raises(PathExplosion):
            path_entropy_bruteforce(_builtin_bridge("three-node-bridge"), n_steps)

    def test_moves_after_the_first_block_are_counted(self):
        # the reference first moves after the 1,820 step times of the first
        # block: 2,000 steps are refused at the second
        k3 = np.ones((3, 3)) - 3.0 * np.eye(3)
        rates = ReferenceRates(3, batch_fn=lambda ts: (np.asarray(ts) > 0.95)[:, None, None] * k3)
        flat = np.full(3, 1.0 / 3)
        sol = solve_bridge(BridgeProblem(rates, flat, flat), dt=0.01)
        with pytest.raises(PathExplosion, match="support paths"):
            path_entropy_bruteforce(sol, 2000)

    def test_negative_step_probability(self):
        sol = solve_bridge(BridgeProblem(constant_rates(10.0 * FLIP),
                                         [0.9, 0.1], [0.1, 0.9]))
        with pytest.raises(NegativeStepProbability):
            path_entropy_bruteforce(sol, 2)

    @pytest.mark.parametrize("n_steps", [0, -2])
    def test_bruteforce_needs_a_step(self, n_steps):
        sol = solve_bridge(BridgeProblem(constant_rates(FLIP), [0.9, 0.1], [0.1, 0.9]), dt=0.01)
        with pytest.raises(ValueError, match="at least one step"):
            path_entropy_bruteforce(sol, n_steps)


class TestPeriodicConstruction:
    def test_two_node_loop(self):
        # one time gives (n,), an array of K times gives (K, n)
        def rho(t):
            return np.array([0.5 + 0.25 * np.cos(t), 0.5 - 0.25 * np.cos(t)]).T

        def drho(t):
            return np.array([-0.25 * np.sin(t), 0.25 * np.sin(t)]).T

        pr = periodic_rate_from_density(rho, 2 * np.pi, 2, deriv_fn=drho)
        # the cycle correction needs exactly the peak outflow |drho_1| = 1/4
        assert pr.strength == pytest.approx(0.25, rel=5e-3)
        for t in (0.0, 1.3, 4.0, 6.0):
            m = pr.rates.at(t)
            assert validate_rate_matrix(m).valid
            np.testing.assert_allclose(rho(t) @ m, drho(t), atol=1e-12)
        p = propagator(pr.rates, 0.0, 2 * np.pi, dt=2e-3)
        np.testing.assert_allclose(rho(0.0) @ p, rho(0.0), atol=1e-9)

    def test_three_node_loop_with_difference_derivative(self):
        c1, c2 = 1 / (2 * np.sqrt(6)), 1 / (6 * np.sqrt(2))

        def rho(t):
            return np.array([np.cos(t) * c1 + np.sin(t) * c2 + 1 / 3,
                             -np.cos(t) * c1 + np.sin(t) * c2 + 1 / 3,
                             -np.sin(t) / (3 * np.sqrt(2)) + 1 / 3]).T

        def central_difference(ts, step=2 * np.pi / 1024):
            return (rho(ts + step) - rho(ts - step)) / (2 * step)

        pr = periodic_rate_from_density(rho, 2 * np.pi, 3, deriv_fn=central_difference)
        for t in (0.3, 2.0, 5.5):
            m = pr.rates.at(t)
            assert validate_rate_matrix(m).valid
            fd = (rho(t + 1e-6) - rho(t - 1e-6)) / 2e-6
            np.testing.assert_allclose(rho(t) @ m, fd, atol=1e-5)
        p = propagator(pr.rates, 0.0, 2 * np.pi, dt=2e-3)
        np.testing.assert_allclose(rho(0.0) @ p, rho(0.0), atol=1e-5)

    @pytest.mark.parametrize("name, strength", [("two-node-periodic", 0.250244140625),
                                                ("three-node-circle", 0.471435546875)])
    def test_builtin_construction_pinned(self, name, strength):
        from graphham import scenarios

        density, deriv = {"two-node-periodic": (scenarios._two_node_density,
                                                scenarios._two_node_deriv),
                          "three-node-circle": (scenarios._circle_density,
                                                scenarios._circle_deriv)}[name]
        n = len(density(0.0))
        assert periodic_rate_from_density(density, 2 * np.pi, n,
                                          deriv_fn=deriv).strength == strength
        rates = scenarios.load_config(name).reference
        for t in (0.0, 0.7, 2.5, 6.1):
            np.testing.assert_array_equal(rates.at(t), rates.at_many([t])[0])

    def test_boundary_loop_rejected(self):
        with pytest.raises(NotInterior):
            periodic_rate_from_density(
                lambda ts: np.stack([0.5 + 0.5 * np.cos(ts), 0.5 - 0.5 * np.cos(ts)], axis=1),
                2 * np.pi, 2,
                deriv_fn=lambda ts: np.stack([-0.5 * np.sin(ts), 0.5 * np.sin(ts)], axis=1))


class TestStationarity:
    def setup_method(self):
        rng = np.random.default_rng(1)
        self.m = random_generator(rng, 3)
        self.rates = constant_rates(self.m)
        self.g = complete_graph(3)

    def test_stationary_density_annihilated(self):
        rho = stationary_density(self.rates)
        assert np.abs(rho @ self.m).max() <= 1e-12
        assert rho.sum() == pytest.approx(1.0, abs=1e-14)

    def test_stationary_point_freezes_the_flow(self):
        star = stationary_point(self.rates)
        drho, dpot = vector_field(sbp_entropic(self.g, self.rates), star)
        assert np.abs(drho).max() <= 1e-10
        assert np.abs(dpot).max() <= 1e-10

    def test_not_stationary_rejected(self):
        with pytest.raises(NotStationary):
            stationary_point(self.rates, rho_star=[0.5, 0.3, 0.2])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_absorbing_chain_has_no_rest_point(self):
        # the stationary density (0, 1) has no log, so no potential -log(rho)/2
        rates = constant_rates(np.array([[-1.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(BoundaryDensity, match="nonpositive mass"):
            stationary_point(rates)

    def test_markov_residual_vanishes_at_rest(self):
        star = stationary_point(self.rates)
        spec = sbp_entropic(self.g, self.rates)
        assert markov_condition_residual(spec, star).max() <= 1e-8

    def test_markov_residual_large_generically(self):
        spec = sbp_entropic(self.g, self.rates)
        state = PhasePoint(np.array([0.5, 0.3, 0.2]), np.array([0.3, -0.1, 0.0]))
        assert markov_condition_residual(spec, state).max() > 1e-3

    def test_markov_residual_kinetic_variant(self):
        from graphham.theta import AVERAGE
        spec = ot_kinetic(self.g, AVERAGE)
        state = PhasePoint(np.array([0.5, 0.3, 0.2]), np.array([0.3, -0.1, 0.0]))
        assert markov_condition_residual(spec, state).max() > 1e-3

    def test_donor_splitting_has_no_smooth_generator(self):
        spec = ot_kinetic(self.g, UPWIND)
        state = PhasePoint(np.array([0.5, 0.3, 0.2]), np.array([0.3, -0.1, 0.0]))
        with pytest.raises(NonsmoothSpec):
            markov_condition_residual(spec, state)
