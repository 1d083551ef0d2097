"""Graph construction, the density rule and theta weights on the pairs.

Claims checked here:
    - validate_graph enforces connectivity, no self loops, positive and
      consistent weights; fisher weights default to w
    - node counts, edge rows and weights of the wrong type or range are
      refused with typed errors, before any array is sized by the node count
    - a Graph holds only (2|E|,) pair arrays, nothing of size (n, n), and
      complete_graph has every ordered pair at unit weight
    - a Density is nonnegative and sums to one
    - the pair calculus of the kinetic field: velocity v_ij = S_i - S_j on
      edges only, d rho/dt = -div(rho grad S) sums to zero, integration by
      parts <grad S', grad S>_rho = sum_j S'_j d rho_j/dt, and pinned
      examples for the divergence and the inner product 2H
    - edge_theta_with_partial_sum gives edge_theta's weights bit for bit and
      the summed partials of both orientations of each pair
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
    Graph,
    complete_graph,
    edge_theta,
    edge_theta_with_partial_sum,
    validate_graph,
)
from graphham.hamiltonians import PhasePoint, lp_kinetic, ot_kinetic, prepare
from graphham.markov import build_rate_matrix
from graphham.theta import AVERAGE, LOGMEAN, UPWIND, theta_partial


def two_node():
    return validate_graph(2, [(0, 1, 1.0)])


def kinetic(g, kind, rho, s):
    """(d rho/dt, H) of ot_kinetic at (rho, S)."""
    field, energy = prepare(ot_kinetic(g, kind))
    rho, s = np.asarray(rho, dtype=float), np.asarray(s, dtype=float)
    return field(rho, s, 0.0)[0], energy(rho, s, 0.0)


class TestValidation:
    def test_accepts_weighted_edges(self):
        g = validate_graph(3, [(0, 1, 2.0), (1, 2, 0.5)])
        assert g.n == 3
        # pairs (0, 1), (1, 0), (1, 2), (2, 1)
        np.testing.assert_array_equal(g.w, [2.0, 2.0, 0.5, 0.5])
        np.testing.assert_array_equal(g.wt, [2.0, 2.0, 0.5, 0.5])

    def test_fisher_weight_can_differ(self):
        g = validate_graph(2, [(0, 1, 1.0, 3.0)])
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

    @pytest.mark.parametrize("nodes", [4, 10 ** 20])
    def test_refuses_more_nodes_than_edges_can_connect(self, nodes):
        # refused before any array is sized by the node count
        with pytest.raises(DisconnectedGraph, match="need at least %d edges, got 2" % (nodes - 1)):
            validate_graph(nodes, [(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)])

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

    def test_graph_holds_only_pair_arrays(self):
        g = validate_graph(64, [(i, (i + 1) % 64, 1.0) for i in range(64)])
        assert not hasattr(g, "weight") and not hasattr(g, "adjacency")
        arrays = [getattr(g, f) for f in Graph.__dataclass_fields__
                  if isinstance(getattr(g, f), np.ndarray)]
        assert len(arrays) == 5
        assert all(a.shape == (128,) for a in arrays)

    def test_complete_graph_pairs(self):
        g = complete_graph(4)
        assert g.edges == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
        np.testing.assert_array_equal(g.src, np.repeat(np.arange(4), 3))
        np.testing.assert_array_equal(g.dst, [1, 2, 3, 0, 2, 3, 0, 1, 3, 0, 1, 2])
        np.testing.assert_array_equal(g.src[g.rev], g.dst)
        np.testing.assert_array_equal(g.w, np.ones(12))
        np.testing.assert_array_equal(g.wt, np.ones(12))


class TestCalculus:
    """The edge calculus the kinetic field runs on the pairs: d rho/dt =
    +dH/dS = -div(rho grad S) and H = <grad S, grad S>_rho / 2."""

    def test_gradient_matches_convention(self):
        # v_01 = S_0 - S_1 = 1: the upwind generator moves mass from node 1
        # to node 0, along -v, and the density gains at node 0
        g = two_node()
        rho, s = np.array([0.5, 0.5]), np.array([1.0, 0.0])
        q = build_rate_matrix(ot_kinetic(g, UPWIND), PhasePoint(rho, s)).entries
        assert q[1, 0] == pytest.approx(1.0)
        assert q[0, 1] == 0.0
        drho, _ = kinetic(g, AVERAGE, rho, s)
        assert drho[0] > 0 > drho[1]

    def test_gradient_zero_off_edges(self):
        g = validate_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        rho = np.array([0.2, 0.3, 0.5])
        s = np.array([5.0, 1.0, 0.0])
        for spec in (ot_kinetic(g, UPWIND), ot_kinetic(g, LOGMEAN)):
            q = build_rate_matrix(spec, PhasePoint(rho, s)).entries
            assert q[0, 2] == 0.0 and q[2, 0] == 0.0
        # node 0 has no pair with node 2, so S_2 does not reach d rho_0/dt
        drho, _ = kinetic(g, AVERAGE, rho, s)
        moved, _ = kinetic(g, AVERAGE, rho, s + [0.0, 0.0, 3.0])
        assert moved[0] == drho[0]

    def test_divergence_pinned(self):
        # two nodes, rho uniform, v_01 = 1, theta average = 1/2:
        # div(rho v) = (-1/2, 1/2)
        drho, _ = kinetic(two_node(), AVERAGE, [0.5, 0.5], [1.0, 0.0])
        assert drho == pytest.approx([0.5, -0.5])

    def test_divergence_sums_to_zero(self):
        rng = np.random.default_rng(3)
        g = complete_graph(5)
        for kind in (AVERAGE, LOGMEAN, UPWIND):
            fields = [prepare(ot_kinetic(g, kind))[0], prepare(lp_kinetic(g, kind, q=3.0))[0]]
            for _ in range(25):
                rho = rng.dirichlet(np.ones(5))
                s = rng.normal(size=5)
                if kind.kind == "logmean":
                    rho = 0.9 * rho + 0.02  # keep masses positive
                for field in fields:
                    assert abs(field(rho, s, 0.0)[0].sum()) < 1e-12

    def test_inner_product_pinned(self):
        # v_01 = 2 at uniform rho: <v, v>_rho = 2, so H = 1
        _, h = kinetic(two_node(), AVERAGE, [0.5, 0.5], [2.0, 0.0])
        assert h == pytest.approx(1.0)

    def test_integration_by_parts(self):
        # H is quadratic in S for a theta that ignores S, so
        # <grad S', grad S>_rho = H(S + S') - H(S) - H(S')
        rng = np.random.default_rng(11)
        g = complete_graph(4)
        for kind in (AVERAGE, LOGMEAN):
            field, energy = prepare(ot_kinetic(g, kind))
            for _ in range(30):
                rho = rng.dirichlet(np.ones(4)) * 0.9 + 0.025
                s, s2 = rng.normal(size=4), rng.normal(size=4)
                lhs = (energy(rho, s + s2, 0.0) - energy(rho, s, 0.0)
                       - energy(rho, s2, 0.0))
                rhs = float(np.dot(s2, field(rho, s, 0.0)[0]))
                assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


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
