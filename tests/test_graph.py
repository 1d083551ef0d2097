"""Graph construction and discrete calculus.

Claims checked here:
    - validate_graph enforces connectivity, no self loops, positive and
      consistent weights; fisher weights default to w
    - gradient is antisymmetric and supported on edges
    - divergence of any flux sums to zero (mass conservation)
    - integration by parts: <grad S, v>_rho = -sum_j S_j div(rho v)_j
    - pinned examples for divergence and the inner product
    - Hodge splitting: exact reconstruction, divergence-free remainder,
      gradient inputs recovered up to gauge, circulation left untouched
"""

import numpy as np
import pytest

from graphham.errors import (
    AsymmetricWeight,
    BoundaryDensity,
    DisconnectedGraph,
    MalformedEdge,
    NonpositiveWeight,
    SelfLoop,
)
from graphham.graph import (
    Density,
    Potential,
    SkewField,
    complete_graph,
    divergence,
    edge_theta,
    edge_theta_with_partial_sum,
    graph_gradient,
    hodge_decompose,
    inner_product,
    validate_graph,
)
from graphham.theta import AVERAGE, LOGMEAN, UPWIND, theta_partial


def two_node():
    return validate_graph(2, [(0, 1, 1.0)])


def triangle():
    return complete_graph(3)


class TestValidation:
    def test_accepts_weighted_edges(self):
        g = validate_graph(3, [(0, 1, 2.0), (1, 2, 0.5)])
        assert g.n == 3
        assert g.weight[0, 1] == 2.0
        assert g.weight[1, 0] == 2.0
        np.testing.assert_array_equal(g.wt, [2.0, 2.0, 0.5, 0.5])

    def test_fisher_weight_can_differ(self):
        g = validate_graph(2, [(0, 1, 1.0, 3.0)])
        assert g.weight[0, 1] == 1.0
        np.testing.assert_array_equal(g.w, [1.0, 1.0])
        np.testing.assert_array_equal(g.wt, [3.0, 3.0])

    def test_rejects_self_loop(self):
        with pytest.raises(SelfLoop):
            validate_graph(2, [(0, 0, 1.0), (0, 1, 1.0)])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(NonpositiveWeight):
            validate_graph(2, [(0, 1, 0.0)])

    def test_rejects_disconnected(self):
        with pytest.raises(DisconnectedGraph):
            validate_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])

    def test_rejects_conflicting_orientations(self):
        with pytest.raises(AsymmetricWeight):
            validate_graph(2, [(0, 1, 1.0), (1, 0, 2.0)])

    @pytest.mark.parametrize("nodes, edges, message", [
        (3, [[0, 1, 1.0], [1, 5, 1.0]], "outside node range"),
        (3, [[0, 1], [1, 2, 1.0]], "is not"),
        (3, [[0, 1, 1.0, 1.0, 1.0], [1, 2, 1.0]], "is not"),
        (2, [[0, "x", 1.0]], "is not"),
        (2, [[0, 1, "heavy"]], "is not"),
        (2, [7], "is not"),
        (3, [[0.5, 1, 1.0], [1, 2.9, 1.0]], "is not"),
        (3, [[0, 1, 1.0], [1, 2.9, 1.0]], "is not"),
        (2, [[0, float("inf"), 1.0]], "is not"),
        (2, [[0, 1, 10 ** 400]], "is not"),
        (2, [[False, True, 1.0]], "is not"),
        (2, [["0", 1, 1.0]], "is not"),
        (3.5, [[0, 1, 1.0], [1, 2, 1.0]], "node count"),
        (True, [], "node count"),
    ])
    def test_malformed_edge_is_typed(self, nodes, edges, message):
        with pytest.raises(MalformedEdge, match=message):
            validate_graph(nodes, edges)

    def test_integral_floats_are_nodes(self):
        g = validate_graph(3.0, [[0.0, 1.0, 1.0], [np.int64(1), 2, 1.0]])
        assert g.n == 3 and g.edges == ((0, 1), (1, 2))

    def test_nan_weight_rejected(self):
        with pytest.raises(NonpositiveWeight):
            validate_graph(2, [(0, 1, float("nan"))])

    @pytest.mark.parametrize("row", [(0, 1, float("inf")), (0, 1, 1.0, float("inf"))])
    def test_infinite_weight_rejected(self, row):
        with pytest.raises(NonpositiveWeight, match="infinite"):
            validate_graph(2, [row])

    def test_density_gauge(self):
        with pytest.raises(BoundaryDensity):
            Density(np.array([0.7, 0.7]))
        with pytest.raises(BoundaryDensity):
            Density(np.array([1.2, -0.2]))
        with pytest.raises(BoundaryDensity):
            Density(np.array([0.5, float("nan")]))
        d = Density(np.array([0.25, 0.75]))
        assert d.values.min() > 0

    def test_potential_zero_mean(self):
        p = Potential(np.array([1.0, 2.0, 6.0]))
        assert p.values.sum() == pytest.approx(0.0, abs=1e-12)
        assert p.shift == pytest.approx(3.0)


class TestCalculus:
    def test_gradient_matches_convention(self):
        g = two_node()
        v = graph_gradient(g, np.array([1.0, 0.0])).values
        assert v[0, 1] == pytest.approx(1.0)   # S_0 - S_1
        assert v[1, 0] == pytest.approx(-1.0)

    def test_gradient_zero_off_edges(self):
        g = validate_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        v = graph_gradient(g, np.array([5.0, 1.0, 0.0])).values
        assert v[0, 2] == 0.0 and v[2, 0] == 0.0

    def test_divergence_pinned(self):
        # two nodes, rho uniform, v_01 = 1, theta average = 1/2
        g = two_node()
        rho = np.array([0.5, 0.5])
        v = SkewField(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        d = divergence(g, rho, v, AVERAGE)
        assert d == pytest.approx([-0.5, 0.5])

    def test_divergence_sums_to_zero(self):
        rng = np.random.default_rng(3)
        g = complete_graph(5)
        for kind in (AVERAGE, LOGMEAN, UPWIND):
            for _ in range(25):
                rho = rng.dirichlet(np.ones(5))
                raw = rng.normal(size=(5, 5))
                v = SkewField((raw - raw.T) * g.adjacency)
                if kind.kind == "logmean":
                    rho = 0.9 * rho + 0.02  # keep masses positive
                assert abs(divergence(g, rho, v, kind).sum()) < 1e-12

    def test_inner_product_pinned(self):
        g = two_node()
        rho = np.array([0.5, 0.5])
        v = SkewField(np.array([[0.0, 2.0], [-2.0, 0.0]]))
        assert inner_product(g, v, v, rho, AVERAGE) == pytest.approx(2.0)

    def test_integration_by_parts(self):
        rng = np.random.default_rng(11)
        g = complete_graph(4)
        for _ in range(30):
            rho = rng.dirichlet(np.ones(4)) * 0.9 + 0.025
            s = rng.normal(size=4)
            raw = rng.normal(size=(4, 4))
            v = SkewField((raw - raw.T) * g.adjacency)
            lhs = inner_product(g, graph_gradient(g, s), v, rho, AVERAGE)
            rhs = -float(np.dot(s, divergence(g, rho, v, AVERAGE)))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


class TestHodge:
    def test_recovers_gradient(self):
        rng = np.random.default_rng(5)
        g = complete_graph(4)
        for kind in (AVERAGE, LOGMEAN):
            for _ in range(10):
                rho = rng.dirichlet(np.ones(4)) * 0.9 + 0.025
                s = rng.normal(size=4)
                v = graph_gradient(g, s)
                s_hat, u = hodge_decompose(g, rho, v, kind)
                assert np.max(np.abs(s_hat.values - (s - s.mean()))) < 1e-10
                assert np.max(np.abs(u.values)) < 1e-10

    def test_circulation_is_divergence_free(self):
        # unit circulation around a triangle has zero divergence for uniform
        # mass, so the potential part vanishes
        g = triangle()
        rho = np.full(3, 1 / 3)
        c = np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])
        v = SkewField(c)
        s_hat, u = hodge_decompose(g, rho, v, AVERAGE)
        assert np.max(np.abs(s_hat.values)) < 1e-12
        assert np.max(np.abs(u.values - c)) < 1e-12

    def test_split_properties_random(self):
        rng = np.random.default_rng(17)
        g = complete_graph(5)
        for _ in range(20):
            rho = rng.dirichlet(np.ones(5)) * 0.9 + 0.02
            raw = rng.normal(size=(5, 5))
            v = SkewField((raw - raw.T) * g.adjacency)
            s_hat, u = hodge_decompose(g, rho, v, AVERAGE)
            # exact reconstruction
            recon = graph_gradient(g, s_hat).values + u.values
            assert np.max(np.abs(recon - v.values)) < 1e-12
            # remainder carries no net flux anywhere
            assert np.max(np.abs(divergence(g, rho, u, AVERAGE))) < 1e-10
            # idempotence: decomposing u again yields no potential part
            s2, _ = hodge_decompose(g, rho, u, AVERAGE)
            assert np.max(np.abs(s2.values)) < 1e-10

    def test_boundary_density_rejected(self):
        g = triangle()
        v = SkewField(np.zeros((3, 3)))
        with pytest.raises(BoundaryDensity):
            hodge_decompose(g, np.array([0.0, 0.5, 0.5]), v, AVERAGE)

    def test_orthogonality_of_split(self):
        # <grad S, u>_rho = 0 because u is divergence free
        rng = np.random.default_rng(23)
        g = complete_graph(4)
        rho = rng.dirichlet(np.ones(4)) * 0.9 + 0.025
        raw = rng.normal(size=(4, 4))
        v = SkewField((raw - raw.T) * g.adjacency)
        s_hat, u = hodge_decompose(g, rho, v, AVERAGE)
        ip = inner_product(g, graph_gradient(g, s_hat), u, rho, AVERAGE)
        assert abs(ip) < 1e-10


class TestEdgeTheta:
    @pytest.mark.parametrize("kind", [AVERAGE, LOGMEAN, UPWIND])
    def test_partial_sum_matches_differences(self, kind):
        # P_k = d theta_ij / d rho_i + d theta_ji / d rho_i for pair k = (i, j)
        g = validate_graph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5), (0, 2, 1.5)])
        rho = np.array([0.1, 0.2, 0.3, 0.4])
        s = np.array([0.3, -0.2, 0.5, 0.1])
        direction = s[g.src] - s[g.dst]     # read by the upwind kind only
        th, p = edge_theta_with_partial_sum(g, rho, kind, direction=direction)
        # the same bits as the weights and partials evaluated apart
        np.testing.assert_array_equal(th, edge_theta(g, rho, kind, direction=direction))
        first, second = theta_partial(kind, rho[g.src], rho[g.dst], direction)
        np.testing.assert_array_equal(p, first + second[g.rev])
        h = 1e-6
        for i in range(g.n):
            e = h * np.eye(g.n)[i]
            d = (edge_theta(g, rho + e, kind, direction=direction)
                 - edge_theta(g, rho - e, kind, direction=direction)) / (2 * h)
            at_i = g.src == i
            np.testing.assert_allclose(p[at_i], (d + d[g.rev])[at_i], atol=1e-8)
