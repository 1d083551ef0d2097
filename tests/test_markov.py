"""Rate matrices against the density equations, propagator against closed
forms and expm, sampler against exact marginals.

The rate-matrix oracle throughout is the coupling identity: rho Q must
reproduce the density component of the matching Hamiltonian vector field,
entry for entry. That pins the index convention without trusting any
transcription twice.
"""

import numpy as np
import pytest
import scipy.linalg

from graphham.errors import InvalidGenerator, RateBoundExceeded
from graphham.graph import complete_graph, validate_graph
from graphham.hamiltonians import (
    PhasePoint,
    ReferenceRates,
    constant_rates,
    ot_kinetic,
    sbp_entropic,
    symmetric_rates,
    vector_field,
)
from graphham.markov import (
    PathSample,
    build_rate_matrix,
    empirical_density,
    propagator,
    rate_bound,
    sample_paths,
    validate_rate_matrix,
)
from graphham.theta import AVERAGE, LOGMEAN, upwind
from graphham.dynamics import integrate

K2 = complete_graph(2)
K3 = complete_graph(3)


def random_interior(rng, n):
    rho = rng.dirichlet(np.full(n, 3.0))
    while rho.min() < 0.05:
        rho = rng.dirichlet(np.full(n, 3.0))
    return rho


class TestValidation:
    def test_clamps_tiny_negatives(self):
        q = np.array([[-1.0, 1.0 + 5e-13, -5e-13], [0.5, -1.0, 0.5], [1.0, 1.0, -2.0]])
        r = validate_rate_matrix(q)
        assert r.valid
        assert r.clamped == 1
        assert r.entries[0, 2] == 0.0

    def test_flags_negative_offdiagonal(self):
        q = np.array([[0.5, -0.5], [1.0, -1.0]])
        r = validate_rate_matrix(q)
        assert not r.valid
        assert any(i == 0 and j == 1 for i, j, _ in r.violations)
        with pytest.raises(InvalidGenerator):
            r.require_valid()

    def test_flags_rowsum_drift(self):
        q = np.array([[-1.0, 1.0 + 1e-6], [1.0, -1.0]])
        assert not validate_rate_matrix(q).valid

    def test_matches_entrywise_loop(self):
        def reference(q):
            q = np.array(q, dtype=float)
            n = q.shape[0]
            violations, clamped = [], 0
            for i in range(n):
                for j in range(n):
                    v = q[i, j]
                    if i == j:
                        if v > 1e-12:
                            violations.append((i, j, v))
                        elif v > 0:
                            q[i, j] = 0.0
                            clamped += 1
                    elif v < -1e-12:
                        violations.append((i, j, v))
                    elif v < 0:
                        q[i, j] = 0.0
                        clamped += 1
            rows = q.sum(axis=1)
            for i in range(n):
                if abs(rows[i]) > 1e-10:
                    violations.append((i, i, rows[i]))
            return q, violations, clamped

        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            q = rng.random((n, n))
            np.fill_diagonal(q, 0.0)
            np.fill_diagonal(q, -q.sum(axis=1))
            for _ in range(int(rng.integers(0, 2 * n + 1))):
                i, j = rng.integers(0, n, size=2)
                q[i, j] = rng.choice([1e-13, -1e-13, 0.3, -0.3])
            want_q, want_v, want_c = reference(q)
            got = validate_rate_matrix(q)
            np.testing.assert_array_equal(got.entries, want_q)
            assert got.violations == want_v
            assert [tuple(map(type, v)) for v in got.violations] == \
                [tuple(map(type, v)) for v in want_v]
            assert got.clamped == want_c
            assert got.valid == (not want_v)


class TestUpwindRates:
    def test_pinned_two_node(self):
        # S = (1, 0): mass rides toward the larger potential, so node 2
        # drains into node 1 and row 1 is silent
        state = PhasePoint(np.array([0.4, 0.6]), np.array([1.0, 0.0]))
        r = build_rate_matrix("upwind_ot", K2, state)
        assert r.valid
        np.testing.assert_allclose(r.entries, [[0.0, 0.0], [1.0, -1.0]], atol=1e-15)

    def test_always_valid(self):
        rng = np.random.default_rng(7)
        g = validate_graph(3, [(0, 1, 1.3), (1, 2, 0.7), (0, 2, 2.0)])
        for _ in range(100):
            state = PhasePoint(random_interior(rng, 3), rng.normal(size=3))
            assert build_rate_matrix("upwind_ot", g, state).valid

    def test_reproduces_density_equation(self):
        rng = np.random.default_rng(11)
        spec = ot_kinetic(K3, upwind())
        for _ in range(20):
            state = PhasePoint(random_interior(rng, 3), rng.normal(size=3))
            drho, _ = vector_field(spec, state)
            q = build_rate_matrix("upwind_ot", K3, state).entries
            np.testing.assert_allclose(state.rho @ q, drho, atol=1e-13)


class TestSbpRates:
    def test_stationary_pair_recovers_reference(self):
        rng = np.random.default_rng(3)
        m = 0.5 + rng.random((3, 3))
        np.fill_diagonal(m, 0.0)
        np.fill_diagonal(m, -m.sum(axis=1))
        rates = constant_rates(m)
        w, v = np.linalg.eig(m.T)
        rho = np.real(v[:, np.argmin(np.abs(w))])
        rho = rho / rho.sum()
        state = PhasePoint(rho, -0.5 * np.log(rho))
        r = build_rate_matrix("sbp", K3, state, reference=rates)
        assert r.valid
        np.testing.assert_allclose(r.entries, m, atol=1e-12)

    def test_reproduces_density_equation(self):
        rng = np.random.default_rng(5)
        rates = symmetric_rates(K3, 0.8)
        spec = sbp_entropic(K3, rates)
        for _ in range(20):
            state = PhasePoint(random_interior(rng, 3), 0.5 * rng.normal(size=3))
            drho, _ = vector_field(spec, state)
            q = build_rate_matrix("sbp", K3, state, reference=rates)
            assert q.valid
            np.testing.assert_allclose(state.rho @ q.entries, drho, atol=1e-12)

    def test_gap_between_pairs_without_rate_is_harmless(self):
        # path 0 - 1 - 2: only the gap on (0, 2) exceeds 700, and it carries no rate
        g = validate_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        rates = symmetric_rates(g)
        state = PhasePoint(np.full(3, 1 / 3), [0.0, -360.0, -720.0])
        q = build_rate_matrix("sbp", g, state, reference=rates)
        assert q.valid
        drho, _ = vector_field(sbp_entropic(g, rates), state)
        scale = np.abs(drho).max()
        np.testing.assert_allclose(state.rho @ q.entries, drho, atol=1e-12 * scale)


class TestThetaRates:
    def test_average_counterexample_flagged(self):
        # the arithmetic splitting at S = (1, 0) wants a negative rate
        state = PhasePoint(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        r = build_rate_matrix("theta_general", K2, state, theta_kind=AVERAGE)
        assert not r.valid
        assert any(i == 0 and j == 1 and v < 0 for i, j, v in r.violations)
        np.testing.assert_allclose(r.entries[0, 1], -0.5, atol=1e-15)

    def test_average_reproduces_density_equation(self):
        rng = np.random.default_rng(13)
        spec = ot_kinetic(K3, AVERAGE)
        for _ in range(20):
            state = PhasePoint(random_interior(rng, 3), rng.normal(size=3))
            drho, _ = vector_field(spec, state)
            q = build_rate_matrix("theta_general", K3, state, theta_kind=AVERAGE)
            np.testing.assert_allclose(state.rho @ q.entries, drho, atol=1e-13)

    def test_logmean_reproduces_density_equation(self):
        rng = np.random.default_rng(17)
        spec = ot_kinetic(K3, LOGMEAN)
        for _ in range(20):
            state = PhasePoint(random_interior(rng, 3), rng.normal(size=3))
            drho, _ = vector_field(spec, state)
            q = build_rate_matrix("theta_general", K3, state, theta_kind=LOGMEAN)
            np.testing.assert_allclose(state.rho @ q.entries, drho, atol=1e-12)

    def test_logmean_degenerates_at_equal_masses(self):
        state = PhasePoint(np.array([0.25, 0.25, 0.5]), np.array([1.0, 0.0, 0.5]))
        with pytest.raises(ValueError, match="equal masses"):
            build_rate_matrix("theta_general", K3, state, theta_kind=LOGMEAN)


class TestPropagator:
    def test_identity_at_zero_span(self):
        q = np.array([[-1.0, 1.0], [1.0, -1.0]])
        np.testing.assert_allclose(propagator(q, 0.3, 0.3), np.eye(2), atol=1e-14)

    def test_two_node_closed_form(self):
        q = np.array([[-1.0, 1.0], [1.0, -1.0]])
        p = propagator(q, 0.0, 1.0, dt=1e-3)
        e = np.exp(-2.0)
        want = 0.5 * np.array([[1 + e, 1 - e], [1 - e, 1 + e]])
        np.testing.assert_allclose(p, want, atol=1e-9)

    def test_matches_expm(self):
        rng = np.random.default_rng(23)
        m = rng.random((4, 4))
        np.fill_diagonal(m, 0.0)
        np.fill_diagonal(m, -m.sum(axis=1))
        p = propagator(m, 0.0, 0.7, dt=1e-3)
        np.testing.assert_allclose(p, scipy.linalg.expm(0.7 * m), atol=1e-8)

    def test_semigroup_property(self):
        base = np.array([[-1.0, 0.6, 0.4], [0.3, -0.5, 0.2], [0.7, 0.3, -1.0]])
        rates = ReferenceRates(3, fn=lambda t: base * (1.0 + 0.5 * np.sin(t)))
        full = propagator(rates, 0.0, 1.5, dt=1e-3)
        split = propagator(rates, 0.0, 0.7, dt=1e-3) @ propagator(rates, 0.7, 1.5, dt=1e-3)
        np.testing.assert_allclose(full, split, atol=1e-8)

    def test_rows_stochastic(self):
        q = np.array([[-2.0, 2.0], [0.5, -0.5]])
        p = propagator(q, 0.0, 3.0)
        assert p.min() >= 0.0
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)

    def test_rejects_invalid_generator(self):
        with pytest.raises(InvalidGenerator):
            propagator(np.array([[0.5, -0.5], [1.0, -1.0]]), 0.0, 1.0)

    def test_couples_to_hamiltonian_flow(self):
        # freezing Q(t) along a flow and propagating the start density must
        # land on the flow's own endpoint density
        spec = ot_kinetic(K3, upwind())
        state = PhasePoint(np.array([0.5, 0.3, 0.2]), np.array([0.2, -0.05, 0.15]))
        traj = integrate(spec, state, 0.0, 0.3, dt=5e-4)
        assert traj.min_rho.min() > 0.02
        qs = np.stack([
            build_rate_matrix("upwind_ot", K3, traj.state(k)).entries
            for k in range(len(traj.times))
        ])

        def frozen(t):
            return qs[int(round((t - 0.0) / 5e-4))]

        p = propagator(ReferenceRates(3, fn=frozen), 0.0, 0.3, dt=1e-3)
        np.testing.assert_allclose(state.rho @ p, traj.final.rho, atol=1e-6)


class TestSampler:
    def test_zero_generator_constant_paths(self):
        paths = sample_paths(np.zeros((2, 2)), [0.3, 0.7], 50, 0.0, 1.0, seed=1)
        assert all(len(p.jump_times) == 0 for p in paths)
        assert all(p.state_at(0.0) == p.state_at(1.0) for p in paths)

    def test_deterministic_and_chunk_invariant(self):
        q = np.array([[-1.0, 1.0], [1.0, -1.0]])
        a = sample_paths(q, [0.5, 0.5], 40, 0.0, 2.0, seed=9, chunk=7)
        b = sample_paths(q, [0.5, 0.5], 40, 0.0, 2.0, seed=9, chunk=40)
        c = sample_paths(q, [0.5, 0.5], 40, 0.0, 2.0, seed=10)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.jump_times, y.jump_times)
            np.testing.assert_array_equal(x.states, y.states)
        assert any(len(x.jump_times) != len(z.jump_times)
                   or not np.array_equal(x.jump_times, z.jump_times)
                   for x, z in zip(a, c))

    def test_jump_count_matches_poisson_mean(self):
        # symmetric unit rates: jumps over [0, T] are Poisson(T)
        q = np.array([[-1.0, 1.0], [1.0, -1.0]])
        paths = sample_paths(q, [0.5, 0.5], 4000, 0.0, 2.0, seed=21)
        counts = np.array([len(p.jump_times) for p in paths])
        assert abs(counts.mean() - 2.0) < 3 * np.sqrt(2.0 / 4000)

    def test_density_matches_propagator(self):
        q = np.array([[-2.0, 2.0], [1.0, -1.0]])
        m = 20000
        paths = sample_paths(q, [0.9, 0.1], m, 0.0, 1.0, seed=33)
        want = np.array([0.9, 0.1]) @ propagator(q, 0.0, 1.0)
        got = empirical_density(paths, 1.0)
        assert got.sum() == pytest.approx(1.0, abs=1e-12)
        assert 0.5 * np.abs(got - want).sum() < 3 * np.sqrt(2.0 / m)

    def test_time_dependent_density(self):
        base = np.array([[-1.5, 1.5], [0.8, -0.8]])
        rates = ReferenceRates(
            2, fn=lambda t: base * (1.0 + 0.5 * np.sin(2 * np.pi * t)),
            batch_fn=lambda ts: base[None] * (1.0 + 0.5 * np.sin(2 * np.pi * ts))[:, None, None])
        m = 20000
        paths = sample_paths(rates, [0.5, 0.5], m, 0.0, 1.0, seed=41)
        want = np.array([0.5, 0.5]) @ propagator(rates, 0.0, 1.0)
        got = empirical_density(paths, 1.0)
        assert 0.5 * np.abs(got - want).sum() < 3 * np.sqrt(2.0 / m)

    def test_initial_states_follow_marginal(self):
        paths = sample_paths(np.zeros((2, 2)), [0.3, 0.7], 10000, 0.0, 1.0, seed=5)
        got = empirical_density(paths, 0.0)
        assert abs(got[0] - 0.3) < 3 * np.sqrt(0.3 * 0.7 / 10000)

    def test_rate_bound_enforced(self):
        q = np.array([[-1.0, 1.0], [1.0, -1.0]])
        with pytest.raises(RateBoundExceeded):
            sample_paths(q, [0.5, 0.5], 10, 0.0, 1.0, seed=2, lam=0.5)

    def test_rate_bound_scan(self):
        base = np.array([[-1.0, 1.0], [1.0, -1.0]])
        rates = ReferenceRates(2, fn=lambda t: base * (1.0 + t))
        assert rate_bound(rates, 0.0, 1.0) == pytest.approx(2.4)

    def test_state_lookup(self):
        p = PathSample(np.array([0.25, 0.75]), np.array([0, 1, 0]), (0, 0), 2, 0.0, 1.0)
        assert p.state_at(0.0) == 0
        assert p.state_at(0.25) == 1
        assert p.state_at(0.5) == 1
        assert p.state_at(1.0) == 0
        with pytest.raises(ValueError):
            p.state_at(1.5)


class TestEmpiricalDensity:
    def test_sums_to_one_with_unvisited_states(self):
        p = PathSample(np.empty(0), np.array([0]), (0, 0), 3, 0.0, 1.0)
        got = empirical_density([p], 0.5)
        np.testing.assert_allclose(got, [1.0, 0.0, 0.0])
        assert got.sum() == 1.0
