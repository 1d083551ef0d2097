"""Rate matrices against the density equations, propagator against closed
forms and expm, sampler against exact marginals.

The rate-matrix oracle throughout is the coupling identity: rho Q must
reproduce the density component of the matching Hamiltonian vector field,
entry for entry. That pins the index convention without trusting any
transcription twice.
"""

import dataclasses
import json
import logging
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from graphham import markov
from graphham.cli import _PATH_BLOCK, _write_paths

from graphham.errors import InvalidGenerator, NoRateDecomposition, RateBoundExceeded
from graphham.graph import complete_graph, validate_graph
from graphham.hamiltonians import (
    PhasePoint,
    ReferenceRates,
    _RecordedRates,
    constant_rates,
    lp_kinetic,
    ot_kinetic,
    sbp_entropic,
    symmetric_rates,
    vector_field,
)
from graphham.markov import (
    _MAX_STEPS,
    Paths,
    _draws,
    _invalid,
    _jump_targets,
    _step_count,
    build_rate_matrix,
    empirical_densities,
    path_chunks,
    philox4x32,
    propagator,
    sample_paths,
    validate_rate_matrix,
)
from graphham.sbp import BridgeProblem, solve_bridge
from graphham.theta import AVERAGE, LOGMEAN, UPWIND
from graphham.dynamics import fundamental_matrix, integrate, schrodinger_evolve

K2 = complete_graph(2)
K3 = complete_graph(3)


def recorded(t0, dt, stack):
    """_RecordedRates of a dense (K, n, n) stack, every off-diagonal pair a candidate."""
    src, dst = np.nonzero(~np.eye(stack.shape[1], dtype=bool))
    return _RecordedRates(t0, dt, np.diagonal(stack, axis1=1, axis2=2), stack[:, src, dst],
                          src, dst)


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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("i, j", [(0, 1), (1, 1)])
    def test_flags_nonfinite_entries(self, value, i, j):
        q = np.array([[-1.0, 1.0], [1.0, -1.0]])
        q[i, j] = value
        r = validate_rate_matrix(q)
        assert not r.valid and (i, j) in [(a, b) for a, b, _ in r.violations]
        assert bool(_invalid(q[None])[0])
        with pytest.raises(InvalidGenerator, match=r"entry \(%d, %d\)" % (i, j)):
            constant_rates(q)

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
            assert bool(_invalid(q[None])[0]) == (not got.valid)


class TestUpwindRates:
    def test_pinned_two_node(self):
        # S = (1, 0): mass rides toward the larger potential, so node 2
        # drains into node 1 and row 1 is silent
        state = PhasePoint(np.array([0.4, 0.6]), np.array([1.0, 0.0]))
        r = build_rate_matrix(ot_kinetic(K2, UPWIND), state)
        assert r.valid
        np.testing.assert_allclose(r.entries, [[0.0, 0.0], [1.0, -1.0]], atol=1e-15)

    def test_always_valid(self):
        rng = np.random.default_rng(7)
        g = validate_graph(3, [(0, 1, 1.3), (1, 2, 0.7), (0, 2, 2.0)])
        for _ in range(100):
            state = PhasePoint(random_interior(rng, 3), rng.normal(size=3))
            assert build_rate_matrix(ot_kinetic(g, UPWIND), state).valid

    def test_reproduces_density_equation(self):
        rng = np.random.default_rng(11)
        spec = ot_kinetic(K3, UPWIND)
        for _ in range(20):
            state = PhasePoint(random_interior(rng, 3), rng.normal(size=3))
            drho, _ = vector_field(spec, state)
            q = build_rate_matrix(spec, state).entries
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
        r = build_rate_matrix(sbp_entropic(K3, rates), state)
        assert r.valid
        np.testing.assert_allclose(r.entries, m, atol=1e-12)

    def test_reproduces_density_equation(self):
        rng = np.random.default_rng(5)
        rates = symmetric_rates(K3, 0.8)
        spec = sbp_entropic(K3, rates)
        for _ in range(20):
            state = PhasePoint(random_interior(rng, 3), 0.5 * rng.normal(size=3))
            drho, _ = vector_field(spec, state)
            q = build_rate_matrix(spec, state)
            assert q.valid
            np.testing.assert_allclose(state.rho @ q.entries, drho, atol=1e-12)

    def test_gap_between_pairs_without_rate_is_harmless(self):
        # path 0 - 1 - 2: only the gap on (0, 2) exceeds 700, and it carries no rate
        g = validate_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        rates = symmetric_rates(g)
        state = PhasePoint(np.full(3, 1 / 3), [0.0, -360.0, -720.0])
        q = build_rate_matrix(sbp_entropic(g, rates), state)
        assert q.valid
        drho, _ = vector_field(sbp_entropic(g, rates), state)
        scale = np.abs(drho).max()
        np.testing.assert_allclose(state.rho @ q.entries, drho, atol=1e-12 * scale)


class TestThetaRates:
    def test_average_counterexample_flagged(self):
        # the arithmetic splitting at S = (1, 0) wants a negative rate
        state = PhasePoint(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        r = build_rate_matrix(ot_kinetic(K2, AVERAGE), state)
        assert not r.valid
        assert any(i == 0 and j == 1 and v < 0 for i, j, v in r.violations)
        np.testing.assert_allclose(r.entries[0, 1], -0.5, atol=1e-15)

    def test_average_reproduces_density_equation(self):
        rng = np.random.default_rng(13)
        spec = ot_kinetic(K3, AVERAGE)
        for _ in range(20):
            state = PhasePoint(random_interior(rng, 3), rng.normal(size=3))
            drho, _ = vector_field(spec, state)
            q = build_rate_matrix(spec, state)
            np.testing.assert_allclose(state.rho @ q.entries, drho, atol=1e-13)

    def test_logmean_reproduces_density_equation(self):
        rng = np.random.default_rng(17)
        spec = ot_kinetic(K3, LOGMEAN)
        for _ in range(20):
            state = PhasePoint(random_interior(rng, 3), rng.normal(size=3))
            drho, _ = vector_field(spec, state)
            q = build_rate_matrix(spec, state)
            np.testing.assert_allclose(state.rho @ q.entries, drho, atol=1e-12)

    def test_logmean_degenerates_at_equal_masses(self):
        state = PhasePoint(np.array([0.25, 0.25, 0.5]), np.array([1.0, 0.0, 0.5]))
        with pytest.raises(NoRateDecomposition, match="equal masses"):
            build_rate_matrix(ot_kinetic(K3, LOGMEAN), state)


class TestLpRates:
    # the flux of lp_kinetic is w |dS|^(q-1) sign(dS), not the q = 2 gap
    STATE = PhasePoint(np.array([0.5, 0.3, 0.2]), np.array([0.4, -0.1, 0.0]))

    @pytest.mark.parametrize("q", [1.5, 3.0])
    @pytest.mark.parametrize("kind", [UPWIND, AVERAGE, LOGMEAN], ids=["upwind", "average", "logmean"])
    def test_reproduces_density_equation(self, kind, q):
        spec = lp_kinetic(K3, kind, q=q)
        drho, _ = vector_field(spec, self.STATE)
        entries = build_rate_matrix(spec, self.STATE).entries
        assert np.abs(self.STATE.rho @ entries - drho).max() <= 1e-12

    @pytest.mark.parametrize("kind", [UPWIND, AVERAGE, LOGMEAN], ids=["upwind", "average", "logmean"])
    def test_quadratic_rates_are_the_ot_rates(self, kind):
        # bit for bit, signed zeros included: the gap of nodes 0 and 2 is zero
        state = PhasePoint(self.STATE.rho, np.array([0.4, -0.1, 0.4]))
        got = build_rate_matrix(lp_kinetic(K3, kind, q=2.0), state).entries
        want = build_rate_matrix(ot_kinetic(K3, kind), state).entries
        assert got.tobytes() == want.tobytes()


class TestPropagator:
    def test_clipping_is_logged(self, caplog):
        # 2a dt = 2.785293564 sits just past rk4's stability limit on the real
        # axis (2.7852935634), so the step's off-diagonal (1 - R(-2a dt)) / 2 is
        # a hair below zero
        a = 1.392646782
        with warnings.catch_warnings(), caplog.at_level(logging.WARNING, "graphham.markov"):
            warnings.simplefilter("error")
            p = propagator(constant_rates([[-a, a], [a, -a]]), 0.0, 1.0, dt=1.0)
        assert p.min() == 0.0
        assert [r.getMessage() for r in caplog.records] == [
            "clipped 2 tiny negative propagator entries"]

    def test_identity_at_zero_span(self):
        q = constant_rates(np.array([[-1.0, 1.0], [1.0, -1.0]]))
        np.testing.assert_allclose(propagator(q, 0.3, 0.3), np.eye(2), atol=1e-14)

    def test_two_node_closed_form(self):
        q = constant_rates(np.array([[-1.0, 1.0], [1.0, -1.0]]))
        p = propagator(q, 0.0, 1.0, dt=1e-3)
        e = np.exp(-2.0)
        want = 0.5 * np.array([[1 + e, 1 - e], [1 - e, 1 + e]])
        np.testing.assert_allclose(p, want, atol=1e-9)

    def test_matches_expm(self):
        rng = np.random.default_rng(23)
        m = rng.random((4, 4))
        np.fill_diagonal(m, 0.0)
        np.fill_diagonal(m, -m.sum(axis=1))
        p = propagator(constant_rates(m), 0.0, 0.7, dt=1e-3)
        np.testing.assert_allclose(p, scipy.linalg.expm(0.7 * m), atol=1e-8)

    def test_semigroup_property(self):
        base = np.array([[-1.0, 0.6, 0.4], [0.3, -0.5, 0.2], [0.7, 0.3, -1.0]])
        rates = ReferenceRates(
            3, batch_fn=lambda ts: base * (1.0 + 0.5 * np.sin(ts))[:, None, None])
        full = propagator(rates, 0.0, 1.5, dt=1e-3)
        split = propagator(rates, 0.0, 0.7, dt=1e-3) @ propagator(rates, 0.7, 1.5, dt=1e-3)
        np.testing.assert_allclose(full, split, atol=1e-8)

    def test_rows_stochastic(self):
        q = constant_rates(np.array([[-2.0, 2.0], [0.5, -0.5]]))
        p = propagator(q, 0.0, 3.0)
        assert p.min() >= 0.0
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)

    def test_rejects_invalid_generator(self):
        with pytest.raises(InvalidGenerator):
            propagator(constant_rates(np.array([[0.5, -0.5], [1.0, -1.0]])), 0.0, 1.0)

    @pytest.mark.parametrize("bad_time", [0.5, 0.5005])   # a grid time, a midpoint
    def test_rejects_a_reference_invalid_at_one_stage_time(self, bad_time):
        good = np.array([[-1.0, 1.0], [1.0, -1.0]])
        bad = np.array([[0.3, -0.3], [1.0, -1.0]])

        def batch(ts):
            near = np.abs(np.asarray(ts, dtype=float) - bad_time) < 2e-4
            return np.where(near[:, None, None], bad, good)

        with pytest.raises(InvalidGenerator, match="raw rate matrix invalid"):
            propagator(ReferenceRates(2, batch_fn=batch), 0.0, 1.0, dt=1e-3)

    @pytest.mark.parametrize("caller", ["propagator", "solve_bridge"])
    def test_reports_the_first_bad_generator_in_block_order(self, caller):
        # a midpoint of the first block (t = 0.0105) and a grid time of the
        # second (t = 4.5; a block holds 4,096 steps at n = 2) are invalid: m
        # is checked per block, grid times before midpoints, so the midpoint's
        # generator is the one reported
        good = np.array([[-1.0, 1.0], [1.0, -1.0]])
        bad_mid = np.array([[0.3, -0.3], [1.0, -1.0]])
        bad_grid = np.array([[-1.0, 1.0], [-0.4, 0.4]])

        def batch(ts):
            ts = np.asarray(ts, dtype=float)[:, None, None]
            return np.where(np.abs(ts - 0.0105) < 2e-4, bad_mid,
                            np.where(np.abs(ts - 4.5) < 2e-4, bad_grid, good))

        rates = ReferenceRates(2, batch_fn=batch)
        messages = []
        for bad in (bad_mid, bad_grid):
            with pytest.raises(InvalidGenerator) as want:
                validate_rate_matrix(bad).require_valid()
            messages.append(str(want.value))
        with pytest.raises(InvalidGenerator) as got:
            if caller == "propagator":
                propagator(rates, 0.0, 5.0, dt=1e-3)
            else:
                solve_bridge(BridgeProblem(rates, [0.6, 0.4], [0.4, 0.6], t1=5.0), dt=1e-3)
        assert messages[0] != messages[1]
        assert str(got.value) == messages[0]

    def test_couples_to_hamiltonian_flow(self):
        # freezing Q(t) along a flow and propagating the start density must
        # land on the flow's own endpoint density
        spec = ot_kinetic(K3, UPWIND)
        state = PhasePoint(np.array([0.5, 0.3, 0.2]), np.array([0.2, -0.05, 0.15]))
        traj = integrate(spec, state, 0.0, 0.3, dt=5e-4)
        assert traj.rho.min() > 0.02
        qs = np.stack([
            build_rate_matrix(spec, traj.state(k)).entries
            for k in range(len(traj.times))
        ])

        def frozen(ts):
            return qs[np.round((np.asarray(ts) - 0.0) / 5e-4).astype(int)]

        p = propagator(ReferenceRates(3, batch_fn=frozen), 0.0, 0.3, dt=1e-3)
        np.testing.assert_allclose(state.rho @ p, traj.final.rho, atol=1e-6)


class TestStepCount:
    """Every fixed-step grid takes its step count from _step_count, which
    refuses a window it cannot step forward in a bounded number of steps."""

    Q = np.array([[-1.0, 1.0], [1.0, -1.0]])

    def test_rounds_to_at_least_one_step(self):
        assert _step_count(0.0, 1.0, 0.3) == 3
        assert _step_count(0.0, 1.0, 0.26) == 4
        assert _step_count(0.3, 0.3, 1e-3) == 1          # one step of size zero
        assert _step_count(0.0, 1.0, 1.0 / _MAX_STEPS) == _MAX_STEPS

    def reversed_windows(self):
        flip, state = constant_rates(self.Q), PhasePoint([0.6, 0.4], [0.1, 0.0])
        return {
            "fundamental_matrix": lambda: fundamental_matrix(flip, 1.0, 0.0, dt=1e-3),
            "propagator": lambda: propagator(flip, 1.0, 0.0),
            "schrodinger_evolve": lambda: schrodinger_evolve(flip, f0=[1.0, 1.0],
                                                             t0=1.0, t1=0.0),
            "integrate": lambda: integrate(ot_kinetic(K2, UPWIND), state, 1.0, 0.0, 1e-2),
        }

    @pytest.mark.parametrize("name", ["fundamental_matrix", "propagator",
                                      "schrodinger_evolve", "integrate"])
    def test_reversed_window_is_refused(self, name):
        # it used to take one rk4 step of size -1 (or fail the kernel's row
        # check with InvalidGenerator on a valid generator)
        with pytest.raises(ValueError, match="no forward grid"):
            self.reversed_windows()[name]()

    @pytest.mark.parametrize("dt", [0.0, -0.0, -1e-3, float("nan")])
    def test_dt_not_positive_is_refused(self, dt):
        with pytest.raises(ValueError, match="no forward grid"):
            propagator(constant_rates(self.Q), 0.0, 1.0, dt=dt)

    @pytest.mark.parametrize("t1, dt", [(1.0, 1e-320), (1.0, 1e-300), (float("inf"), 1e-3),
                                        (1.0, 0.99 / _MAX_STEPS)])
    def test_count_not_finite_or_above_the_cap_is_refused(self, t1, dt):
        for march in (lambda: propagator(constant_rates(self.Q), 0.0, t1, dt=dt),
                      lambda: fundamental_matrix(constant_rates(self.Q), 0.0, t1, dt=dt)):
            with pytest.raises(ValueError, match="exceed the cap"):
                march()


class TestSampler:
    def test_zero_generator_constant_paths(self):
        paths = sample_paths(constant_rates(np.zeros((2, 2))), [0.3, 0.7], 50, 0.0, 1.0, seed=1)
        assert len(paths) == 50 and len(paths.times) == 0
        np.testing.assert_array_equal(paths.offsets, 0)
        at = paths.counts_at([0.0, 1.0])
        np.testing.assert_array_equal(at[0], at[1])

    def test_deterministic_and_chunk_invariant(self, monkeypatch):
        q = constant_rates(np.array([[-1.0, 1.0], [1.0, -1.0]]))
        monkeypatch.setattr(markov, "_ROUND_PATHS", 7)
        a = sample_paths(q, [0.5, 0.5], 40, 0.0, 2.0, seed=9)
        monkeypatch.setattr(markov, "_ROUND_PATHS", 40)
        b = sample_paths(q, [0.5, 0.5], 40, 0.0, 2.0, seed=9)
        c = sample_paths(q, [0.5, 0.5], 40, 0.0, 2.0, seed=10)
        for name in ("offsets", "times", "states"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        assert len(a.times) != len(c.times) or not np.array_equal(a.times, c.times)

    def test_path_sampled_alone_is_the_same_path(self, monkeypatch):
        q = constant_rates(np.array([[-1.5, 1.0, 0.5], [0.3, -0.3, 0.0], [2.0, 1.0, -3.0]]))
        rho0 = [0.2, 0.3, 0.5]
        every = sample_paths(q, rho0, 30, 0.0, 2.0, seed=2 ** 40 + 5)
        with monkeypatch.context() as m:
            m.setattr(markov, "_ROUND_PATHS", 1)
            alone = sample_paths(q, rho0, 30, 0.0, 2.0, seed=2 ** 40 + 5)
        for name in ("offsets", "times", "states"):
            np.testing.assert_array_equal(getattr(every, name), getattr(alone, name))
        k = 17                              # the last path of a shorter run
        short = sample_paths(q, rho0, k + 1, 0.0, 2.0, seed=2 ** 40 + 5)
        a, z = every.offsets[k], every.offsets[k + 1]
        np.testing.assert_array_equal(short.times[short.offsets[k]:], every.times[a:z])
        np.testing.assert_array_equal(short.states[short.offsets[k] + k:],
                                      every.states[a + k:z + k + 1])

    def test_seed_outside_the_key_range(self):
        q = constant_rates(np.array([[-1.0, 1.0], [1.0, -1.0]]))
        for seed in (-1, 2 ** 64):
            with pytest.raises(ValueError):
                sample_paths(q, [0.5, 0.5], 3, 0.0, 1.0, seed=seed)

    def test_jump_count_matches_poisson_mean(self):
        # symmetric unit rates: jumps over [0, T] are Poisson(T)
        q = constant_rates(np.array([[-1.0, 1.0], [1.0, -1.0]]))
        paths = sample_paths(q, [0.5, 0.5], 4000, 0.0, 2.0, seed=21)
        counts = np.diff(paths.offsets)
        assert abs(counts.mean() - 2.0) < 3 * np.sqrt(2.0 / 4000)
    def test_density_matches_propagator(self):
        q = constant_rates(np.array([[-2.0, 2.0], [1.0, -1.0]]))
        m = 20000
        paths = sample_paths(q, [0.9, 0.1], m, 0.0, 1.0, seed=33)
        want = np.array([0.9, 0.1]) @ propagator(q, 0.0, 1.0)
        got = empirical_densities(paths, [1.0])[0]
        assert got.sum() == pytest.approx(1.0, abs=1e-12)
        assert 0.5 * np.abs(got - want).sum() < 3 * np.sqrt(2.0 / m)

    def test_time_dependent_density(self):
        base = np.array([[-1.5, 1.5], [0.8, -0.8]])
        rates = ReferenceRates(
            2, batch_fn=lambda ts: base[None] * (1.0 + 0.5 * np.sin(2 * np.pi * ts))[:, None, None])
        m = 20000
        paths = sample_paths(rates, [0.5, 0.5], m, 0.0, 1.0, seed=41)
        want = np.array([0.5, 0.5]) @ propagator(rates, 0.0, 1.0)
        got = empirical_densities(paths, [1.0])[0]
        assert 0.5 * np.abs(got - want).sum() < 3 * np.sqrt(2.0 / m)

    def test_initial_states_follow_marginal(self):
        paths = sample_paths(constant_rates(np.zeros((2, 2))), [0.3, 0.7], 10000, 0.0, 1.0,
                             seed=5)
        got = empirical_densities(paths, [0.0])[0]
        assert abs(got[0] - 0.3) < 3 * np.sqrt(0.3 * 0.7 / 10000)

    def test_rate_bound_enforced(self):
        # the bound is 1.2 times the grid's largest |Q_ii| = 1: rates between
        # grid times at 1.15 of it are drawn, at 1.25 of it they are refused
        within = sample_paths(spiking_rates(factor=1.15), [0.5, 0.5], 20000, 0.0, 1.0, seed=2)
        assert np.any((within.times > 0.5006) & (within.times < 0.5014))
        with pytest.raises(RateBoundExceeded):
            sample_paths(spiking_rates(factor=1.25), [0.5, 0.5], 20000, 0.0, 1.0, seed=2)

    def test_refuses_generator_invalid_at_one_grid_time(self):
        base = np.array([[-1.0, 1.0, 0.0], [0.5, -1.0, 0.5], [0.0, 2.0, -2.0]])
        bad = np.array([[-1.0, 1.4, -0.4], [0.5, -1.0, 0.6], [0.0, 2.0, -2.0]])
        t_bad = np.linspace(0.0, 1.0, 1000)[417]
        rates = ReferenceRates(3, batch_fn=lambda ts: np.where(
            (np.asarray(ts) == t_bad)[:, None, None], bad, base))
        with pytest.raises(InvalidGenerator) as want:
            validate_rate_matrix(bad).require_valid()
        with pytest.raises(InvalidGenerator) as got:
            sample_paths(rates, [0.2, 0.3, 0.5], 10, 0.0, 1.0, seed=3)
        assert "(0, 2)" in str(want.value)
        assert str(got.value) == str(want.value)

    def test_grid_check_blocks_hold_the_rows_of_the_grid(self):
        # at n = 64 a _block_size(n) block holds 4 times; the check reads
        # ceil(1000 / 64) = 16 at a time, 63 at_many calls for the grid
        n = 64
        base = symmetric_rates(complete_graph(n)).matrix
        calls = []

        def batch(ts):
            calls.append(len(ts))
            return np.broadcast_to(base, (len(ts), n, n))

        sample_paths(ReferenceRates(n, batch_fn=batch), np.full(n, 1.0 / n), 0, 0.0, 1.0, seed=1)
        assert calls == [16] * 62 + [8]

    def test_recorded_and_batch_rows_give_the_same_paths(self):
        # a recorded stack gathers its rows from the stack; the same stack
        # behind a batch_fn is read through at_many in blocks of times
        rng = np.random.default_rng(37)
        n = 40
        stack = rng.random((21, n, n)) * (rng.random((21, n, n)) < 0.2)
        stack[:, np.arange(n), np.arange(n)] = 0.0
        stack[:, np.arange(n), np.arange(n)] = -stack.sum(axis=2)
        stored = recorded(0.0, 0.05, stack)
        batch = ReferenceRates(n, batch_fn=lambda ts: stack[
            np.clip(np.round(np.asarray(ts) / 0.05), 0, 20).astype(int)])
        a = sample_paths(stored, np.full(n, 1.0 / n), 300, 0.0, 1.0, seed=4)
        b = sample_paths(batch, np.full(n, 1.0 / n), 300, 0.0, 1.0, seed=4)
        assert len(a.times) > 300
        for name in ("offsets", "times", "states"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_recorded_and_batch_give_the_same_bound_and_paths(self, data):
        # pair records read for the bound without a check, and the same stack
        # behind a batch_fn checked on the grid, give the same lam and paths:
        # with support pairs at rate 0 or -0.0 in some records, records with
        # no positive rate, and windows inside and past the records' span
        n, k = data.draw(st.integers(2, 6)), data.draw(st.integers(1, 5))
        rate = st.one_of(st.just(0.0), st.just(-0.0), st.floats(1e-3, 10.0))
        stack = data.draw(hnp.arrays(float, (k, n, n), elements=rate, fill=st.nothing()))
        stack[list(data.draw(st.sets(st.integers(0, k - 1), max_size=1)))] = 0.0
        diagonal = np.arange(n)
        stack[:, diagonal, diagonal] = 0.0
        stack[:, diagonal, diagonal] = -stack.sum(axis=2)
        t_rec, dt = data.draw(st.floats(0.0, 1.0)), data.draw(st.floats(0.05, 0.5))
        t0 = data.draw(st.floats(0.0, t_rec + k * dt))
        t1 = t0 + data.draw(st.floats(0.01, 2.0 * k * dt))
        stored = recorded(t_rec, dt, stack)
        batch = ReferenceRates(n, batch_fn=lambda ts: stack[np.clip(
            np.round((np.asarray(ts) - t_rec) / dt), 0, k - 1).astype(int)])
        with pytest.MonkeyPatch.context() as patch:
            lams = spy_lam(patch)
            a = sample_paths(stored, np.full(n, 1.0 / n), 50, t0, t1, seed=4)
            b = sample_paths(batch, np.full(n, 1.0 / n), 50, t0, t1, seed=4)
        grid = np.linspace(t0, t1, markov._BOUND_GRID)
        read = np.abs(np.diagonal(batch.at_many(grid), axis1=1, axis2=2))
        assert lams == [1.2 * read.max()] * 2
        for name in ("offsets", "times", "states"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_memory_is_per_path_rows(self):
        # 2,000 paths over a recorded (501, 64, 64) stack read one row per
        # proposal; the (paths, n, n) stack of a round alone would be 65 MB
        rng = np.random.default_rng(19)
        n = 64
        stack = rng.random((501, n, n)) * (rng.random((501, n, n)) < 0.1)
        stack[:, np.arange(n), np.arange(n)] = 0.0
        stack[:, np.arange(n), np.arange(n)] = -stack.sum(axis=2)
        rates = recorded(0.0, 0.002, stack)
        tracemalloc.start()
        try:
            paths = sample_paths(rates, np.full(n, 1.0 / n), 2000, 0.0, 1.0, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(paths.times) > 2000
        assert peak < 8e6

    def test_state_lookup(self):
        p = Paths(np.array([0, 2]), np.array([0.25, 0.75]), np.array([0, 1, 0]),
                  0, 2, 0.0, 1.0)
        np.testing.assert_array_equal(p.counts_at([0.0, 0.25, 0.5, 1.0]),
                                      [[1, 0], [0, 1], [0, 1], [1, 0]])
        with pytest.raises(ValueError):
            p.counts_at([1.5])

    def test_jump_target_stays_in_range(self):
        # for n >= 8 the pairwise row sum can exceed the cumsum's last entry,
        # and a uniform at the top of (0, 1) then lands past every column
        rows = np.random.default_rng(7).random((2000, 12))
        rows[:, 3] = 0.0
        u = np.full(len(rows), 1.0 - 2.0 ** -53)
        pairwise = (np.cumsum(rows, axis=1) < (u * rows.sum(axis=1))[:, None]).sum(axis=1)
        assert (pairwise == 12).any()
        got = _jump_targets(rows, u)
        assert got.max() == 11
        assert (rows[np.arange(len(rows)), _jump_targets(rows, u / 3)] > 0).all()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_support_segments_pick_the_dense_target(self, data):
        # a recorded stack's support is the pairs positive in some record, so
        # a record's own row can carry rate 0 on part of its segment; the
        # target drawn from the segment, through its columns, is the dense row's
        n, k = data.draw(st.integers(2, 7)), data.draw(st.integers(1, 3))
        rate = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))
        stack = data.draw(hnp.arrays(float, (k, n, n), elements=rate))
        diagonal = np.arange(n)
        stack[:, diagonal, diagonal] = 0.0
        stack[:, diagonal, diagonal] = -stack.sum(axis=2)
        # the sampler's uniforms, (j + 1/2) / 2^52, so u times a row's total is never 0
        u = data.draw(hnp.arrays(float, k * n, elements=st.floats(2.0 ** -53, 1.0 - 2.0 ** -53)))
        record, states = np.repeat(np.arange(k), n), np.tile(diagonal, k)
        _, q, cols = recorded(0.0, 1.0, stack).rows(record.astype(float), states)
        dense = np.clip(stack[record, states], 0.0, None)
        dense[np.arange(k * n), states] = 0.0
        moves = dense.sum(axis=1) > 0
        want = _jump_targets(dense[moves], u[moves])
        got = cols[moves][np.arange(moves.sum()), _jump_targets(q[moves], u[moves])]
        np.testing.assert_array_equal(got, want)


def spiking_rates(lo=0.5006, hi=0.5014, factor=10.0):
    """Unit two-state rates, `factor` times faster on (lo, hi): the default window
    lies between two of the 1,000 grid times on [0, 1], 500/999 and 501/999,
    so the grid bound is 1.2 and, for a factor above 1.2, only proposals
    inside the window exceed it."""
    base = np.array([[-1.0, 1.0], [1.0, -1.0]])

    def batch(ts):
        ts = np.asarray(ts)
        return base[None] * np.where((ts > lo) & (ts < hi), factor, 1.0)[:, None, None]
    return ReferenceRates(2, batch_fn=batch)


def spy_lam(monkeypatch) -> list:
    """The proposal rate of every chunk that path_chunks draws, as drawn."""
    lams, draw = [], markov._draw
    monkeypatch.setattr(markov, "_draw", lambda rates, key, lam, *rest: lams.append(lam)
                        or draw(rates, key, lam, *rest))
    return lams


class TestChunks:
    Q = constant_rates(np.array([[-1.5, 1.0, 0.5], [0.3, -0.3, 0.0], [2.0, 1.0, -3.0]]))
    RHO0 = [0.2, 0.3, 0.5]
    M = 30
    SEED = 2 ** 40 + 5

    @staticmethod
    def assert_chunks_are_slices(parts, whole, chunk):
        """Each chunk is its slice of the one-shot paths, bit for bit."""
        m = len(whole)
        assert [p.first for p in parts] == list(range(0, m, chunk))
        assert [len(p) for p in parts] == [min(chunk, m - lo) for lo in range(0, m, chunk)]
        for p in parts:
            k, z = p.first, p.first + len(p)
            a, b = whole.offsets[k], whole.offsets[z]
            assert p.offsets.tobytes() == (whole.offsets[k:z + 1] - a).tobytes()
            assert p.times.tobytes() == whole.times[a:b].tobytes()
            assert p.states.tobytes() == whole.states[a + k:b + z].tobytes()

    @pytest.mark.parametrize("chunk", [1, 7, M - 1, M, M + 5])
    def test_chunks_are_slices_of_the_one_shot_run(self, chunk, monkeypatch):
        args = (self.Q, self.RHO0, self.M, 0.0, 1.0, self.SEED)
        monkeypatch.setattr(markov, "_ROUND_PATHS", 10 ** 6)
        whole = sample_paths(*args)
        assert len(whole.times) > self.M
        monkeypatch.setattr(markov, "_ROUND_PATHS", chunk)
        self.assert_chunks_are_slices(list(path_chunks(*args)), whole, chunk)
        joined = sample_paths(*args)
        for name in ("offsets", "times", "states"):
            got, want = getattr(joined, name), getattr(whole, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_zero_jump_paths_on_both_sides_of_a_chunk_edge(self, monkeypatch):
        # slow rates leave most paths without a jump; the chunk size puts an
        # edge between two such paths, with paths that do jump elsewhere
        q = constant_rates(0.2 * np.array([[-1.0, 1.0], [1.0, -1.0]]))
        whole = sample_paths(q, [0.5, 0.5], 200, 0.0, 1.0, seed=6)
        still = np.diff(whole.offsets) == 0
        edge = next(k for k in range(2, 200) if still[k - 1] and still[k])
        assert not still.all()
        monkeypatch.setattr(markov, "_ROUND_PATHS", edge)
        parts = list(path_chunks(q, [0.5, 0.5], 200, 0.0, 1.0, seed=6))
        assert len(parts) > 1 and parts[1].first == edge
        self.assert_chunks_are_slices(parts, whole, edge)

    def test_lam_zero_chunks_hold_the_start_states(self, monkeypatch):
        zero = constant_rates(np.zeros((2, 2)))
        whole = sample_paths(zero, [0.3, 0.7], 50, 0.0, 1.0, seed=1)
        monkeypatch.setattr(markov, "_ROUND_PATHS", 7)
        parts = list(path_chunks(zero, [0.3, 0.7], 50, 0.0, 1.0, seed=1))
        self.assert_chunks_are_slices(parts, whole, 7)
        assert all(len(p.times) == 0 for p in parts)

    def test_constant_rates_are_scanned_at_one_time(self, monkeypatch):
        # a constant generator was checked when it was built: its one record
        # gives the bound, and neither the bound nor the draws call at_many
        rates, calls = constant_rates(self.Q.matrix), []
        rates.at_many = lambda ts: calls.append(len(ts))
        args = (self.RHO0, self.M, 0.0, 1.0, self.SEED)
        whole = sample_paths(self.Q, *args)
        monkeypatch.setattr(markov, "_ROUND_PATHS", 7)
        lams = spy_lam(monkeypatch)
        parts = list(path_chunks(rates, *args))
        assert calls == [] and set(lams) == {1.2 * 3.0}
        self.assert_chunks_are_slices(parts, whole, 7)

    def test_refusals_come_before_the_first_chunk(self):
        # no chunk is asked for: the call itself raises
        q = np.array([[-1.0, 1.0], [1.0, -1.0]])
        with pytest.raises(InvalidGenerator):
            path_chunks(ReferenceRates(2, batch_fn=lambda ts: np.broadcast_to(
                -q, (len(ts), 2, 2))), [0.5, 0.5], 10, 0.0, 1.0, seed=2)
        with pytest.raises(ValueError, match="key range"):
            path_chunks(constant_rates(q), [0.5, 0.5], 10, 0.0, 1.0, seed=-1)

    def test_bound_violation_between_grid_times_is_raised_mid_stream(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(markov, "_ROUND_PATHS", 16)
        with pytest.raises(RateBoundExceeded):
            for chunk in path_chunks(spiking_rates(), [0.5, 0.5], 3000, 0.0, 1.0, seed=3):
                drawn.append(len(chunk))
        assert drawn and sum(drawn) < 3000

    def test_chunk_counts_add_up_to_the_run(self, monkeypatch):
        args = (self.Q, self.RHO0, self.M, 0.0, 1.0, self.SEED)
        ts = np.linspace(0.0, 1.0, 7)
        whole = sample_paths(*args)
        monkeypatch.setattr(markov, "_ROUND_PATHS", 7)
        total = sum(p.counts_at(ts) for p in path_chunks(*args))
        np.testing.assert_array_equal(total, whole.counts_at(ts))
        assert (total / self.M).tobytes() == empirical_densities(whole, ts).tobytes()

    def test_memory_does_not_grow_with_paths(self, monkeypatch):
        # each chunk is dropped before the next is drawn, so the traced peak of
        # the stream, after the grid check, is the same at 4x the paths; keeping
        # the chunks would add about 30 kB at these sizes
        q = constant_rates(np.array([[-1.0, 1.0], [1.0, -1.0]]))
        monkeypatch.setattr(markov, "_ROUND_PATHS", 50)
        # in a fresh interpreter the free lists of small objects fill over the
        # first ~250 rounds, and traced memory rises about 0.5 kB a round until
        # they are full; 300 untraced rounds fill them before the comparison
        for _ in path_chunks(q, [0.5, 0.5], 300 * 50, 0.0, 0.5, seed=8):
            pass

        def peak(m):
            tracemalloc.start()
            try:
                chunks = path_chunks(q, [0.5, 0.5], m, 0.0, 0.5, seed=8)
                tracemalloc.reset_peak()
                for _ in chunks:
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(250), peak(1000)
        assert large < small + 8 * 1024

    def test_rounds_are_sized_from_n(self):
        # a round holds min(_ROUND_PATHS, _ROUND_ENTRIES // n) paths, so its
        # (paths, n) arrays hold at most 2^20 entries at any n: 512 paths on
        # 2,048 nodes, where one round of all 4,000 peaks at about 82 MB
        n = 2048
        ring = symmetric_rates(validate_graph(n, [(i, (i + 1) % n, 1.0) for i in range(n)]))
        tracemalloc.start()
        try:
            chunks = path_chunks(ring, np.full(n, 1.0 / n), 4000, 0.0, 0.5, seed=8)
            tracemalloc.reset_peak()
            sizes = [len(p) for p in chunks]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sizes == [512] * 7 + [4000 - 7 * 512]
        assert peak < 32 * 2 ** 20

    def test_recorded_ring_is_scanned_once_per_record(self, monkeypatch):
        # 21 records of a 256-node unit ring, scaled from 0.5 to 1.5: the bound
        # is read from the records' diagonals, with no at_many call, and a
        # proposal reads the 2 support rates of its row, not n
        n = 256
        ring = symmetric_rates(validate_graph(n, [(i, (i + 1) % n, 1.0) for i in range(n)]))
        rates = recorded(0.0, 0.025, ring.matrix * np.linspace(0.5, 1.5, 21)[:, None, None])
        times, widths = [], []
        rows = rates.rows

        def counted_rows(ts, states):
            out = rows(ts, states)
            widths.append(out[1].shape[1])
            return out

        monkeypatch.setattr(rates, "at_many", lambda ts: times.append(len(ts)))
        monkeypatch.setattr(rates, "rows", counted_rows)
        lams = spy_lam(monkeypatch)
        chunks = path_chunks(rates, np.full(n, 1.0 / n), 200, 0.0, 0.5, seed=9)
        assert sum(len(p.times) for p in chunks) > 200 and set(widths) == {2}
        assert times == [] and set(lams) == {1.2 * 3.0}

    def test_records_without_a_positive_rate_never_jump(self):
        # off-diagonals all 0 and a diagonal of -1e-11 pass the Kolmogorov rule:
        # proposals come at 1.2e-11 over [0, 1e12], with empty support rows
        stack = np.diag([-1e-11, -1e-11])[None]
        paths = sample_paths(recorded(0.0, 1.0, stack), [0.5, 0.5], 5, 0.0, 1e12, seed=4)
        assert len(paths.times) == 0


class TestStreams:
    @pytest.mark.parametrize("ctr, key, want", [
        ((0, 0, 0, 0), (0, 0), "6627e8d5 e169c58d bc57ac4c 9b00dbd8"),
        ((0xFFFFFFFF,) * 4, (0xFFFFFFFF,) * 2, "408f276d 41c83b0e a20bc7c6 6d5451fd"),
        ((0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344), (0xA4093822, 0x299F31D0),
         "d16cfe09 94fdcceb 5001e420 24126ea1"),
    ])
    def test_philox_known_answers(self, ctr, key, want):
        # the Random123 known-answer vectors of Philox4x32-10
        words = philox4x32(ctr, key)
        assert " ".join("%08x" % int(w) for w in words) == want

    def test_philox_broadcasts_counter_arrays(self):
        lanes = philox4x32((np.arange(5), 7, 0, 1), (3, 4))
        for i in range(5):
            one = philox4x32((i, 7, 0, 1), (3, 4))
            assert [int(w[i]) for w in lanes] == [int(w) for w in one]
        # a uint64 counter array is read, not written
        ctr = np.arange(5, dtype=np.uint64)
        again = philox4x32((ctr, 7, 0, 1), (3, 4))
        np.testing.assert_array_equal(ctr, np.arange(5, dtype=np.uint64))
        assert all((a == b).all() for a, b in zip(again, lanes))

    @pytest.mark.parametrize("word", [0, 0xFFFFFFFF])
    def test_uniforms_strictly_inside_the_unit_interval(self, monkeypatch, word):
        monkeypatch.setattr(markov, "philox4x32",
                            lambda ctr, key: [np.full(3, word, dtype=np.uint64)] * 4)
        for u in _draws((0, 0), 0, np.arange(3), 0):
            assert (u > 0.0).all() and (u < 1.0).all()
            assert u[0] == (2.0 ** -53 if word == 0 else 1.0 - 2.0 ** -53)

    def test_uniforms_are_uniform(self):
        u = np.concatenate(_draws((5, 0), np.arange(20000), 3, 0))
        assert (u > 0.0).all() and (u < 1.0).all()
        assert abs(u.mean() - 0.5) < 4 * np.sqrt(1 / 12 / len(u))
        hist = np.bincount((u * 10).astype(int), minlength=10)
        assert hist.min() > 0.9 * len(u) / 10


def _random_paths(rng, m, n, t0, t1, checkpoints, zero_at=()):
    """Seeded CSR paths with zero-jump paths and jumps exactly at checkpoints;
    every fourth path and those listed in zero_at have no jumps."""
    counts = rng.integers(0, 5, size=m)
    counts[::4] = 0
    counts[list(zero_at)] = 0
    times, states = [], []
    for c in counts:
        ts = np.sort(rng.uniform(t0, t1, size=c))
        if c >= 2:
            ts[rng.integers(c)] = rng.choice(checkpoints)
            ts = np.sort(ts)
        times.append(ts)
        states.append(rng.integers(0, n, size=c + 1))
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return Paths(offsets, np.concatenate(times), np.concatenate(states),
                 1234, n, t0, t1), times, states


class TestPaths:
    def test_counts_at_matches_a_per_path_loop(self):
        rng = np.random.default_rng(11)
        checkpoints = np.array([0.0, 0.3, 0.3, 1.1, 0.7, 2.0])   # unsorted, repeated
        paths, times, states = _random_paths(rng, 60, 4, 0.0, 2.0, checkpoints)
        want = np.array([[s[np.searchsorted(ts, t, side="right")]
                          for ts, s in zip(times, states)] for t in checkpoints])
        counts = np.zeros((len(checkpoints), 4))
        for k in range(len(checkpoints)):
            np.add.at(counts[k], want[k], 1)
        np.testing.assert_array_equal(paths.counts_at(checkpoints), counts)
        np.testing.assert_array_equal(empirical_densities(paths, checkpoints),
                                      counts / 60)

    def test_counts_at_refuses_times_off_the_horizon(self):
        paths, _, _ = _random_paths(np.random.default_rng(1), 5, 3, 0.0, 1.0, [0.5])
        with pytest.raises(ValueError):
            paths.counts_at([-0.1, 0.5])

    def test_writer_matches_json_dumps(self, tmp_path):
        # (paths, nodes, t0, first, no jumps at all): the second count spans
        # three blocks, with zero-jump paths on both sides of each block edge;
        # twelve nodes have two-digit names
        t1 = 2 * np.pi
        for m, n, t0, first, still in [(25, 3, 0.0, 0, False),
                                       (2 * _PATH_BLOCK + 5, 3, 0.0, 0, False),
                                       (_PATH_BLOCK, 12, 0.25, 20000, False),
                                       (30, 12, 0.25, 20000, True)]:
            edges = [k for b in range(_PATH_BLOCK, m, _PATH_BLOCK) for k in (b - 1, b)]
            paths, times, states = _random_paths(np.random.default_rng(3), m, n, t0, t1,
                                                 [t1 / 3, t1],
                                                 zero_at=range(m) if still else edges)
            assert still == (len(paths.times) == 0) and (n < 10 or paths.states.max() >= 10)
            _write_paths(tmp_path, [dataclasses.replace(paths, first=first)])
            lines = (tmp_path / "paths.jsonl").read_text().splitlines()
            assert len(lines) == m
            for k, line in enumerate(lines):
                assert line == json.dumps({"seed": [1234, first + k], "t0": t0, "t1": t1,
                                           "jump_times": times[k].tolist(),
                                           "states": states[k].tolist()})


class TestEmpiricalDensity:
    def test_sums_to_one_with_unvisited_states(self):
        p = Paths(np.array([0, 0]), np.empty(0), np.array([0]), 0, 3, 0.0, 1.0)
        got = empirical_densities(p, [0.5])[0]
        np.testing.assert_allclose(got, [1.0, 0.0, 0.0])
        assert got.sum() == 1.0

    def test_no_paths(self):
        p = Paths(np.array([0]), np.empty(0), np.empty(0, dtype=np.int64), 0, 3, 0.0, 1.0)
        with pytest.raises(ValueError):
            empirical_densities(p, [0.5])
