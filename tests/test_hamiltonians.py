"""Hamiltonian values and vector fields.

Core claims checked here:
  * pinned closed-form values for every variant on 2- and 3-node graphs
  * vector_field matches central differences of eval_H (canonical signs)
  * the three entropic charts (S, psi, fg) give the same Hamiltonian value
    at corresponding states
  * the entropic field vanishes at a stationary pair (rho*, -1/2 log rho*)
  * lp with exponent 2 reproduces the quadratic kinetic Hamiltonian
  * constant shifts of the potential coordinate change nothing
  * guard rails: overflow, kink proximity, invalid generators
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphham.errors import (
    BoundaryDensity,
    InvalidGenerator,
    KinkProximity,
    NonfiniteValue,
)
from graphham.graph import Graph, complete_graph, validate_graph
from graphham.hamiltonians import (
    PhasePoint,
    ReferenceRates,
    constant_rates,
    eval_H,
    fisher_information,
    fisher_ot,
    fisher_potential,
    grad_check,
    linear_potential,
    lp_kinetic,
    ot_kinetic,
    quadratic_interaction,
    sbp_entropic,
    sbp_psi,
    schrodinger_fg,
    symmetric_rates,
    vector_field,
)
from graphham.theta import AVERAGE, LOGMEAN, UPWIND
from graphham.dynamics import integrate


def two_node():
    return validate_graph(2, [(0, 1, 1.0)])


def flip_rates():
    return constant_rates([[-1.0, 1.0], [1.0, -1.0]])


def random_generator(rng, n):
    m = rng.uniform(0.2, 2.0, size=(n, n))
    np.fill_diagonal(m, 0.0)
    return constant_rates(m - np.diag(m.sum(axis=1)))


def random_interior(rng, n):
    rho = rng.uniform(0.2, 1.0, size=n)
    return rho / rho.sum()


class TestReferenceRates:
    def test_diagonal_rebuilt(self):
        m = constant_rates([[0.0, 2.0], [3.0, 0.0]]).matrix
        assert np.allclose(m, [[-2.0, 2.0], [3.0, -3.0]])
        assert np.allclose(m.sum(axis=1), 0.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(InvalidGenerator):
            constant_rates([[0.0, -1.0], [1.0, 0.0]])

    def test_matrix_of_the_wrong_size_is_refused_at_construction(self):
        with pytest.raises(InvalidGenerator, match=r"shape \(2, 2\), expected \(3, 3\)"):
            ReferenceRates(3, matrix=[[-1.0, 1.0], [1.0, -1.0]])

    def test_non_square_constant_matrix_is_refused(self):
        with pytest.raises(InvalidGenerator, match=r"shape \(2, 3\), expected \(2, 2\)"):
            constant_rates([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0]])

    @pytest.mark.parametrize("matrix", [
        [[-5.0, 1.0], [1.0, -1.0]],                 # diagonal off its row sum
        [[0.0, 1.0], [1.0, -1.0]],                  # a zero entry of a given diagonal
        [[-1.0, 1.0], [1.0, -1.0 + 2e-10]],
        [[0.0, -2e-12], [1.0, 0.0]],                # below the off-diagonal bound
        [[-1.0 + 2e-12, 1.0 - 2e-12], [-2e-12, 2e-12]],
    ])
    def test_the_kolmogorov_rule_is_not_rewritten_away(self, matrix):
        with pytest.raises(InvalidGenerator):
            constant_rates(matrix)

    @pytest.mark.parametrize("matrix", [
        [[0.0, 2.0, 0.5], [3.0, 0.0, 0.0], [0.1, 0.2, 0.0]],
        [[-1.0, 1.0, 0.0], [0.7, -1.0, 0.3], [0.0, 0.0, 0.0]],
        [[-1.0 + 5e-11, 1.0, 0.0], [0.7, -1.0, 0.3], [0.0, -5e-13, 5e-13]],
    ])
    def test_passing_matrices_keep_the_rebuilt_diagonal(self, matrix):
        m = np.array(matrix)
        off = np.clip(m - np.diag(np.diag(m)), 0.0, None)
        np.testing.assert_array_equal(constant_rates(m).matrix,
                                      off - np.diag(off.sum(axis=1)))

    def test_symmetric_rates_on_graph(self):
        g = validate_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        m = symmetric_rates(g, 2.0).matrix
        assert m[0, 1] == 2.0 and m[0, 2] == 0.0
        assert m[1, 1] == -4.0

    def test_symmetric_rates_sit_on_the_pairs(self):
        g = validate_graph(5, [(0, 1, 2.0), (1, 2, 0.5), (2, 3, 1.0), (3, 4, 3.0), (0, 3, 1.5)])
        m = symmetric_rates(g, 0.7).matrix
        want = np.zeros((5, 5))
        for i, j in g.edges:
            want[i, j] = want[j, i] = 0.7
        np.fill_diagonal(want, -want.sum(axis=1))
        np.testing.assert_array_equal(m, want)

    def test_time_dependent_and_batch(self):
        from graphham.hamiltonians import ReferenceRates

        def batch(ts):
            t = np.asarray(ts, dtype=float)[:, None, None]
            return np.array([[-1.0, 1.0], [1.0, -1.0]]) + t * np.array([[-1.0, 1.0], [0.0, 0.0]])

        rates = ReferenceRates(2, batch_fn=batch, period=2 * math.pi)
        assert rates.at(0.5)[0, 1] == 1.5
        stack = rates.at_many(np.array([0.0, 0.5]))
        assert stack.shape == (2, 2, 2)
        assert stack[1, 0, 1] == 1.5

    def test_rows_are_the_stack_rows(self):
        # a constant matrix, both periodic built-ins, a recorded stack read
        # before, inside and past its rows, and a batch_fn reference asked for
        # more times than one block
        from graphham.hamiltonians import ReferenceRates
        from graphham.scenarios import load_config
        from test_markov import recorded

        rng = np.random.default_rng(23)
        m = rng.random((5, 5))
        np.fill_diagonal(m, 0.0)
        cases = [(constant_rates(m), rng.uniform(0.0, 3.0, 40))]
        for name in ("two-node-periodic", "three-node-circle"):
            rates = load_config(name).reference
            cases.append((rates, rng.uniform(0.0, rates.period, 9000)))
        stack = rng.random((11, 40, 40))
        cases.append((recorded(0.5, 0.1, stack),
                      np.concatenate([[0.0, 0.5, 0.54, 0.56, 1.5, 3.0], rng.uniform(0.0, 2.0, 30)])))
        cases.append((ReferenceRates(40, batch_fn=lambda ts: np.asarray(ts)[:, None, None] * stack[3]),
                      rng.uniform(0.0, 1.0, 37)))
        for rates, times in cases:
            states = rng.integers(0, rates.n, len(times))
            want = rates.at_many(times)[np.arange(len(times)), states]
            diag, q, cols = rates.rows(times, states)
            width = np.diff(rates.indptr).max()
            assert diag.shape == (len(times),) and q.shape == cols.shape == (len(times), width)
            # scattered back: the support rates, then the diagonal over the padding
            k = np.arange(len(times))
            got = np.zeros((len(times), rates.n))
            got[k[:, None], cols] = q
            got[k, states] = diag
            assert got.tobytes() == want.tobytes()
            empty = rates.rows(times[:0], states[:0])
            assert [a.shape for a in empty] == [(0,), (0, width), (0, width)]

    def test_support_mask(self):
        rates = constant_rates([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        sup = rates.support()
        assert sup[0, 1] and not sup[0, 2]
        assert not sup.diagonal().any()


class TestDeclaredSupport:
    RAMP = np.array([[-1.0, 1.0], [1.0, -1.0]])
    PATH = np.array([[False, True, False], [True, False, True], [False, True, False]])

    def test_rates_vanishing_at_zero_keep_their_support(self):
        # m(t) = t B is zero at t = 0, where a probe for the support finds none
        from graphham.hamiltonians import ReferenceRates

        ramp = ReferenceRates(2, batch_fn=lambda ts: np.asarray(ts)[:, None, None] * self.RAMP)
        frozen = constant_rates(self.RAMP)
        for maker, chart in ((sbp_entropic, "S"), (sbp_psi, "psi")):
            state = PhasePoint([0.7, 0.3], [0.2, -0.1], chart=chart)
            got = vector_field(maker(two_node(), ramp), state, t=1.0)
            want = vector_field(maker(two_node(), frozen), state, t=1.0)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])

    def test_default_support(self):
        from graphham.hamiltonians import ReferenceRates

        sup = ReferenceRates(3, batch_fn=lambda ts: np.zeros((len(ts), 3, 3))).support()
        np.testing.assert_array_equal(sup, ~np.eye(3, dtype=bool))
        with pytest.raises(ValueError):
            sup[0, 1] = False

    def test_sparse_time_dependent_rates(self):
        # a potential gap beyond +-700 between nodes without rate is harmless
        from graphham.hamiltonians import ReferenceRates

        path = np.where(self.PATH, 1.0, 0.0)
        path -= np.diag(path.sum(axis=1))
        sparse = ReferenceRates(
            3, batch_fn=lambda ts: (1.0 + np.asarray(ts))[:, None, None] * path)
        frozen = constant_rates(2.0 * path)
        g = validate_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        for maker, chart in ((sbp_entropic, "S"), (sbp_psi, "psi")):
            state = PhasePoint([0.5, 0.3, 0.2], [0.0, 360.0, 720.0], chart=chart)
            got = vector_field(maker(g, sparse), state, t=1.0)
            want = vector_field(maker(g, frozen), state, t=1.0)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
            assert eval_H(maker(g, sparse), state, t=1.0) == eval_H(maker(g, frozen), state, t=1.0)

    def test_batch_fn_alone(self):
        from graphham.hamiltonians import ReferenceRates

        def batch(ts):
            return np.asarray(ts)[:, None, None] * self.RAMP

        rates = ReferenceRates(2, batch_fn=batch)
        np.testing.assert_array_equal(rates.at(0.5), 0.5 * self.RAMP)
        np.testing.assert_array_equal(rates.at_many([0.5, 2.0])[1], 2.0 * self.RAMP)
        with pytest.raises(ValueError):
            ReferenceRates(2)
        with pytest.raises(ValueError):
            ReferenceRates(2, matrix=self.RAMP, batch_fn=batch)

    def test_one_rate_evaluation_per_field_call(self):
        from graphham.hamiltonians import ReferenceRates

        times = []

        def batch(ts):
            times.extend(ts)
            return (1.0 + np.sin(ts) ** 2)[:, None, None] * self.RAMP

        spec = sbp_entropic(two_node(), ReferenceRates(2, batch_fn=batch, period=2 * math.pi))
        state = PhasePoint([0.6, 0.4], [0.1, -0.1])
        for k in range(5):
            vector_field(spec, state, t=0.3 * k)
        assert len(times) == 5
        # integrate: one evaluation per distinct time its steps and records use
        dt = 0.1
        starts = [0.0 + k * dt for k in range(6)]
        for method, offsets in (("rk4", (0.5, 1.0)), ("implicit_midpoint", (0.5,))):
            want = sorted(set(starts) | {t + h * dt for t in starts[:-1] for h in offsets})
            for record_every in (1, 2):
                times.clear()
                integrate(spec, state, 0.0, 0.5, dt, method=method, record_every=record_every)
                assert sorted(times) == want


class TestConvexDuals:
    def test_entropy_dual(self):
        # sbp_psi's dual u*(x) = e^x - 1, u*'(x) = e^x on one edge of unit rate
        # each way: H = sum_i rho_i u*(psi_j - psi_i), d rho = rho Q at equal psi
        spec = sbp_psi(two_node(), flip_rates())
        rho = [0.6, 0.4]
        level = PhasePoint(rho, [0.0, 0.0], chart="psi")
        assert eval_H(spec, level) == 0.0                          # u*(0) = 0
        drho, dpsi = vector_field(spec, level)
        np.testing.assert_allclose(drho, [-0.2, 0.2], atol=1e-15)  # u*'(0) = 1
        np.testing.assert_array_equal(dpsi, 0.0)
        step = PhasePoint(rho, [0.0, 1.0], chart="psi")
        assert eval_H(spec, step) == pytest.approx(0.6 * (math.e - 1) + 0.4 * (math.exp(-1) - 1))


class TestKineticPinned:
    # 2 nodes, w = 1, rho = (0.7, 0.3), S = (1, 0), average weights:
    # theta = 1/2 both ways, H = 1/4 * (1 * 1/2 + 1 * 1/2) = 1/4,
    # d rho = (1/2, -1/2), dS = (-1/4, -1/4).
    def test_average_two_node(self):
        spec = ot_kinetic(two_node(), AVERAGE)
        state = PhasePoint([0.7, 0.3], [1.0, 0.0])
        assert eval_H(spec, state) == pytest.approx(0.25, abs=1e-14)
        drho, dpot = vector_field(spec, state)
        assert np.allclose(drho, [0.5, -0.5])
        assert np.allclose(dpot, [-0.25, -0.25])

    def test_upwind_two_node_matches_donor_form(self):
        # S = (0, 1): the gap at node 0 is negative, node 0 donates its mass.
        spec = ot_kinetic(two_node(), UPWIND)
        state = PhasePoint([0.7, 0.3], [0.0, 1.0])
        drho, dpot = vector_field(spec, state)
        assert np.allclose(drho, [-0.7, 0.7])
        assert np.allclose(dpot, [-0.5, 0.0])
        assert eval_H(spec, state) == pytest.approx(0.25 * 2 * 0.7)

    def test_linear_potential_shifts_dpot_only(self):
        v = np.array([2.0, -1.0])
        bare = ot_kinetic(two_node(), AVERAGE)
        spec = ot_kinetic(two_node(), AVERAGE, potential=linear_potential(v))
        state = PhasePoint([0.7, 0.3], [1.0, 0.0])
        assert eval_H(spec, state) == pytest.approx(0.25 + 0.7 * 2 - 0.3)
        drho0, dpot0 = vector_field(bare, state)
        drho, dpot = vector_field(spec, state)
        assert np.allclose(drho, drho0)
        assert np.allclose(dpot, dpot0 - v)

    def test_quadratic_interaction_gradient(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(4, 4))
        pot = quadratic_interaction(w)
        rho = random_interior(rng, 4)
        h = 1e-6
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            fd = (pot.value(rho + e, 0.0) - pot.value(rho - e, 0.0)) / (2 * h)
            assert pot.grad(rho, 0.0)[i] == pytest.approx(fd, rel=1e-6)

    def test_lp_q2_equals_quadratic(self):
        g = complete_graph(4)
        rng = np.random.default_rng(11)
        for _ in range(5):
            state = PhasePoint(random_interior(rng, 4), rng.normal(size=4))
            a = ot_kinetic(g, LOGMEAN)
            b = lp_kinetic(g, LOGMEAN, q=2.0)
            assert eval_H(a, state) == pytest.approx(eval_H(b, state), rel=1e-12)
            da, db = vector_field(a, state), vector_field(b, state)
            assert np.allclose(da[0], db[0]) and np.allclose(da[1], db[1])

    def test_lp_exponent_validation(self):
        with pytest.raises(ValueError):
            lp_kinetic(two_node(), AVERAGE, q=1.0)

    def test_logmean_needs_interior(self):
        spec = ot_kinetic(two_node(), LOGMEAN)
        with pytest.raises(BoundaryDensity):
            eval_H(spec, PhasePoint([1.0, 0.0], [0.5, 0.0]))


class TestFisher:
    def test_pinned_information(self):
        # 2 nodes, rho = (3/4, 1/4), average weights: both ordered pairs give
        # (log 3)^2 * 1/2, so I = (log 3)^2 / 2.
        g = two_node()
        val = fisher_information(g, np.array([0.75, 0.25]), AVERAGE)
        assert val == pytest.approx(0.5 * math.log(3.0) ** 2, rel=1e-12)

    def test_information_respects_fisher_weights(self):
        g = validate_graph(2, [(0, 1, 1.0, 2.5)])
        val = fisher_information(g, np.array([0.75, 0.25]), AVERAGE)
        assert val == pytest.approx(2.5 * 0.5 * math.log(3.0) ** 2, rel=1e-12)

    def test_uniform_state_is_critical(self):
        g = complete_graph(3)
        spec = fisher_ot(g, AVERAGE, beta=0.125)
        state = PhasePoint(np.full(3, 1 / 3), np.zeros(3))
        assert eval_H(spec, state) == pytest.approx(0.0, abs=1e-15)
        drho, dpot = vector_field(spec, state)
        assert np.allclose(drho, 0.0) and np.allclose(dpot, 0.0)

    def test_beta_zero_reduces_to_kinetic(self):
        g = complete_graph(3)
        rng = np.random.default_rng(3)
        state = PhasePoint(random_interior(rng, 3), rng.normal(size=3))
        a = fisher_ot(g, AVERAGE, beta=0.0)
        b = ot_kinetic(g, AVERAGE)
        assert eval_H(a, state) == pytest.approx(eval_H(b, state), rel=1e-12)

    def test_fisher_potential_composition(self):
        # kinetic minus beta I, written as a node potential with coeff -beta
        g = complete_graph(3)
        rng = np.random.default_rng(4)
        state = PhasePoint(random_interior(rng, 3), rng.normal(size=3))
        beta = 0.125
        a = fisher_ot(g, AVERAGE, beta=beta)
        b = ot_kinetic(g, AVERAGE, potential=fisher_potential(g, AVERAGE, -beta))
        assert eval_H(a, state) == pytest.approx(eval_H(b, state), rel=1e-12)
        da, db = vector_field(a, state), vector_field(b, state)
        assert np.allclose(da[0], db[0]) and np.allclose(da[1], db[1])

    def test_information_rejects_upwind(self):
        with pytest.raises(ValueError):
            fisher_information(two_node(), np.array([0.5, 0.5]), UPWIND)


class TestEntropicPinned:
    def test_psi_two_node(self):
        # constant psi: u*(0) = 0, derivative 1, so the density equation is
        # the plain master equation and the psi equation is zero.
        spec = sbp_psi(two_node(), flip_rates())
        state = PhasePoint([0.75, 0.25], [0.0, 0.0], chart="psi")
        assert eval_H(spec, state) == 0.0
        drho, dpot = vector_field(spec, state)
        assert np.allclose(drho, [-0.5, 0.5])
        assert np.allclose(dpot, [0.0, 0.0])

    def test_entropic_two_node_constant_S(self):
        # H = 2 sqrt(3)/4 + (m_00 rho_0 + m_11 rho_1) = sqrt(3)/2 - 1
        spec = sbp_entropic(two_node(), flip_rates())
        state = PhasePoint([0.75, 0.25], [0.0, 0.0])
        assert eval_H(spec, state) == pytest.approx(math.sqrt(3) / 2 - 1, rel=1e-14)

    def test_fg_two_node(self):
        spec = schrodinger_fg(two_node(), flip_rates())
        state = PhasePoint([1.0, 2.0], [3.0, 4.0], chart="fg")
        assert eval_H(spec, state) == pytest.approx(-1.0)
        df, dg = vector_field(spec, state)
        assert np.allclose(df, [1.0, -1.0])
        assert np.allclose(dg, [-1.0, 1.0])

    def test_stationary_pair_freezes_the_flow(self):
        rng = np.random.default_rng(21)
        for _ in range(6):
            n = 4
            rates = random_generator(rng, n)
            # left null vector of the generator, normalized to a density
            w, vl = np.linalg.eig(rates.matrix.T)
            k = int(np.argmin(np.abs(w)))
            rho = np.real(vl[:, k])
            rho = np.abs(rho) / np.abs(rho).sum()
            state = PhasePoint(rho, -0.5 * np.log(rho))
            spec = sbp_entropic(complete_graph(n), rates)
            drho, dpot = vector_field(spec, state)
            assert np.max(np.abs(drho)) < 1e-12
            assert np.max(np.abs(dpot)) < 1e-12

    def test_entropic_needs_interior(self):
        spec = sbp_entropic(two_node(), flip_rates())
        with pytest.raises(BoundaryDensity):
            eval_H(spec, PhasePoint([1.0, 0.0], [0.0, 0.0]))

    def test_overflow_guard(self):
        spec = sbp_entropic(two_node(), flip_rates())
        with pytest.raises(NonfiniteValue):
            eval_H(spec, PhasePoint([0.5, 0.5], [0.0, 800.0]))
        with pytest.raises(NonfiniteValue):
            vector_field(sbp_psi(two_node(), flip_rates()),
                         PhasePoint([0.5, 0.5], [0.0, 800.0], chart="psi"))

    def test_chart_mismatch_rejected(self):
        spec = sbp_psi(two_node(), flip_rates())
        with pytest.raises(ValueError):
            eval_H(spec, PhasePoint([0.5, 0.5], [0.0, 0.0], chart="S"))


class TestChartAgreement:
    # the same Hamiltonian through S, psi and fg coordinates
    def test_three_values_agree(self):
        rng = np.random.default_rng(33)
        g = complete_graph(3)
        for _ in range(10):
            rates = random_generator(rng, 3)
            rho = random_interior(rng, 3)
            s = rng.normal(size=3)
            psi = s + 0.5 * np.log(rho)
            f = np.sqrt(rho) * np.exp(-s)
            gg = np.sqrt(rho) * np.exp(s)
            h_s = eval_H(sbp_entropic(g, rates), PhasePoint(rho, s))
            h_psi = eval_H(sbp_psi(g, rates), PhasePoint(rho, psi, chart="psi"))
            h_fg = eval_H(schrodinger_fg(g, rates), PhasePoint(f, gg, chart="fg"))
            assert h_psi == pytest.approx(h_s, rel=1e-12, abs=1e-12)
            assert h_fg == pytest.approx(h_s, rel=1e-12, abs=1e-12)


class TestGradientConsistency:
    SMOOTH = [
        lambda g, m: ot_kinetic(g, AVERAGE),
        lambda g, m: ot_kinetic(g, LOGMEAN),
        lambda g, m: ot_kinetic(g, AVERAGE, potential=linear_potential([1.0, -2.0, 0.5, 0.0])),
        lambda g, m: lp_kinetic(g, AVERAGE, q=3.0),
        lambda g, m: lp_kinetic(g, LOGMEAN, q=2.5),
        lambda g, m: fisher_ot(g, AVERAGE, beta=0.125),
        lambda g, m: fisher_ot(g, LOGMEAN, kind_tilde=AVERAGE, beta=0.5),
        lambda g, m: sbp_entropic(g, m),
        lambda g, m: sbp_psi(g, m),
        lambda g, m: schrodinger_fg(g, m),
    ]

    def test_all_smooth_variants(self):
        rng = np.random.default_rng(7)
        g = complete_graph(4)
        for make in self.SMOOTH:
            rates = random_generator(rng, 4)
            spec = make(g, rates)
            for _ in range(3):
                rho = random_interior(rng, 4)
                pot = rng.normal(scale=0.7, size=4)
                if spec.chart == "fg":
                    state = PhasePoint(rng.uniform(0.5, 1.5, 4), rng.uniform(0.5, 1.5, 4), chart="fg")
                else:
                    state = PhasePoint(rho, pot, chart=spec.chart)
                report = grad_check(spec, state, h=1e-6)
                assert report["max_rel_deviation"] < 1e-6, (spec.variant, report["max_rel_deviation"])

    def test_upwind_away_from_kinks(self):
        g = complete_graph(3)
        spec = ot_kinetic(g, UPWIND)
        state = PhasePoint([0.5, 0.3, 0.2], [0.9, 0.1, -0.6])
        report = grad_check(spec, state, h=1e-6)
        assert report["max_rel_deviation"] < 1e-6

    def test_kink_proximity_raises(self):
        g = complete_graph(3)
        spec = ot_kinetic(g, UPWIND)
        state = PhasePoint([0.5, 0.3, 0.2], [0.5, 0.5 + 1e-9, -0.6])
        with pytest.raises(KinkProximity):
            grad_check(spec, state, h=1e-6)

    def test_time_dependent_rates_enter_eval(self):
        from graphham.hamiltonians import ReferenceRates

        def batch(ts):
            t = np.asarray(ts, dtype=float)[:, None, None]
            return np.array([[-1.0, 1.0], [1.0, -1.0]]) + t * np.array([[-1.0, 1.0], [0.0, 0.0]])

        spec = sbp_psi(two_node(), ReferenceRates(2, batch_fn=batch))
        state = PhasePoint([0.6, 0.4], [0.3, 0.0], chart="psi")
        assert eval_H(spec, state, t=1.0) != eval_H(spec, state, t=0.0)
        report = grad_check(spec, state, t=1.0, h=1e-6)
        assert report["max_rel_deviation"] < 1e-6


@st.composite
def interior_states(draw, n=3):
    raw = [draw(st.floats(0.05, 1.0)) for _ in range(n)]
    pot = [draw(st.floats(-2.0, 2.0)) for _ in range(n)]
    rho = np.array(raw) / np.sum(raw)
    return rho, np.array(pot)


class TestInvariants:
    @given(interior_states())
    @settings(max_examples=40, deadline=None)
    def test_mass_is_conserved_by_density_equation(self, rs):
        rho, pot = rs
        g = complete_graph(3)
        for spec in (ot_kinetic(g, AVERAGE), ot_kinetic(g, LOGMEAN),
                     sbp_entropic(g, symmetric_rates(g))):
            drho, _ = vector_field(spec, PhasePoint(rho, pot))
            assert abs(drho.sum()) < 1e-12

    @given(interior_states(), st.floats(-5.0, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_constant_potential_shift_is_a_gauge(self, rs, c):
        rho, pot = rs
        g = complete_graph(3)
        for spec in (ot_kinetic(g, AVERAGE), sbp_entropic(g, symmetric_rates(g))):
            a = eval_H(spec, PhasePoint(rho, pot))
            b = eval_H(spec, PhasePoint(rho, pot + c))
            assert a == pytest.approx(b, rel=1e-10, abs=1e-10)
            da = vector_field(spec, PhasePoint(rho, pot))
            db = vector_field(spec, PhasePoint(rho, pot + c))
            assert np.allclose(da[0], db[0], atol=1e-10)
            assert np.allclose(da[1], db[1], atol=1e-10)
