"""Finite weighted graphs and their discrete calculus.

A graph here is a connected, undirected, simple graph on nodes 0..n-1 with
strictly positive symmetric edge weights w, plus an optional second weight
family wt ("fisher weights") used by the Fisher information functional and
defaulting to w.

The calculus runs over the 2|E| ordered pairs, each edge in both
directions: a Graph carries the pairs' endpoints src and dst, their weights
w and wt, and rev, the index of each pair's reverse. Pairs are sorted by
(src, dst), and a sum over a node's pairs is a bincount over src. Theta
weights are (2|E|,) vectors on these pairs. The dense (n, n) weight matrix
stays for the dense edge fields below and for callers that want it.

States living on a graph:

* Density     nonnegative node vector summing to one.
* Potential   node vector modulo additive constants; the stored
              representative has zero mean.
* SkewField   edge vector field, antisymmetric: v_ij = -v_ji, zero off-edge.

The calculus follows one sign convention throughout:

    gradient      (grad S)_ij = S_i - S_j
    divergence    div(rho v)_j = -(sum_l w_jl v_jl theta_jl)
    inner product <u, v>_rho = 1/2 sum over both edge orientations of
                  u_ij v_ij theta_ij w_ij

so that <grad S, v>_rho = -sum_j S_j div(rho v)_j (integration by parts)
and the weighted Laplacian L = -div(rho grad .) is positive semidefinite
with kernel spanned by constants on a connected graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AsymmetricWeight,
    BoundaryDensity,
    DisconnectedGraph,
    MalformedEdge,
    NonpositiveWeight,
    SelfLoop,
    SingularLaplacian,
)
from .theta import ThetaKind, AVERAGE, theta, theta_with_partial

_SUM_TOL = 1e-12


def _arr(x) -> np.ndarray:
    """Accept a plain array or one of the thin state wrappers."""
    return np.asarray(getattr(x, "values", x), dtype=float)


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple            # tuple of (i, j) with i < j
    weight: np.ndarray      # (n, n) symmetric, zero off-edge
    src: np.ndarray         # (2|E|,) ordered pairs (src, dst), sorted
    dst: np.ndarray
    w: np.ndarray           # (2|E|,) edge weight of each pair
    wt: np.ndarray          # (2|E|,) fisher weight of each pair
    rev: np.ndarray         # (2|E|,) index of the pair (dst, src)

    @property
    def adjacency(self) -> np.ndarray:
        return self.weight > 0


def _integer(x) -> int:
    """x as an int if it is a number of integral value other than a boolean;
    TypeError, ValueError or OverflowError otherwise."""
    i = int(x)
    if i != x or isinstance(x, (bool, np.bool_)):
        raise ValueError("%r is not an integer" % (x,))
    return i


def validate_graph(raw_nodes, raw_edges) -> Graph:
    """Build a Graph from a node count and an edge list.

    raw_edges rows are (i, j, w) or (i, j, w, wt); duplicate orientations
    are allowed only when their weights agree exactly.
    """
    try:
        n = _integer(raw_nodes)
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedEdge("node count %r is not an integer" % (raw_nodes,)) from exc
    if n < 2:
        raise DisconnectedGraph("need at least two nodes, got %d" % n)
    seen = {}
    for row in raw_edges:
        try:
            i, j, w, wt = (*row, row[2]) if len(row) == 3 else row
            i, j, w, wt = _integer(i), _integer(j), float(w), float(wt)
        except (TypeError, ValueError, LookupError, OverflowError) as exc:
            raise MalformedEdge("edge row %r is not (i, j, w) or (i, j, w, wt)"
                                % (row,)) from exc
        if not (0 <= i < n and 0 <= j < n):
            raise MalformedEdge("edge (%d, %d) outside node range 0..%d" % (i, j, n - 1))
        if i == j:
            raise SelfLoop("edge (%d, %d) is a self loop" % (i, j))
        if not (w > 0 and wt > 0):                      # NaN fails too
            raise NonpositiveWeight("edge (%d, %d) has nonpositive weight" % (i, j))
        if max(w, wt) == np.inf:
            raise NonpositiveWeight("edge (%d, %d) has an infinite weight" % (i, j))
        key = (min(i, j), max(i, j))
        if key in seen and seen[key] != (w, wt):
            raise AsymmetricWeight("conflicting weights for edge %s" % (key,))
        seen[key] = (w, wt)
    if n > len(seen) + 1:        # a connected graph on n nodes has n - 1 edges
        raise DisconnectedGraph("%d nodes need at least %d edges, got %d"
                                % (n, n - 1, len(seen)))
    edges = tuple(sorted(seen))
    ij = np.array(edges, dtype=np.int64).reshape(-1, 2)
    ww = np.array([seen[e] for e in edges], dtype=float).reshape(-1, 2)
    # both orientations of every edge, sorted by (src, dst)
    src, dst = np.concatenate([ij[:, 0], ij[:, 1]]), np.concatenate([ij[:, 1], ij[:, 0]])
    order = np.argsort(src * n + dst)
    src, dst = src[order], dst[order]
    w, wt = np.tile(ww[:, 0], 2)[order], np.tile(ww[:, 1], 2)[order]
    rev = np.searchsorted(src * n + dst, dst * n + src)
    # connectivity by breadth-first search from node 0 over the sorted pairs
    start = np.searchsorted(src, np.arange(n + 1))
    reached = np.zeros(n, dtype=bool)
    stack = [0]
    reached[0] = True
    while stack:
        i = stack.pop()
        nbrs = dst[start[i]:start[i + 1]]
        new = nbrs[~reached[nbrs]]
        reached[new] = True
        stack.extend(new.tolist())
    if not reached.all():
        raise DisconnectedGraph("nodes %s unreachable from node 0"
                                % np.flatnonzero(~reached).tolist())
    weight = np.zeros((n, n))
    weight[src, dst] = w
    for a in (weight, src, dst, w, wt, rev):
        a.setflags(write=False)
    return Graph(n, edges, weight, src, dst, w, wt, rev)


def complete_graph(n: int, w: float = 1.0) -> Graph:
    return validate_graph(n, [(i, j, w) for i in range(n) for j in range(i + 1, n)])


# -- node and edge states -------------------------------------------------------


@dataclass(frozen=True)
class Density:
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if np.any(v < -_SUM_TOL):
            raise BoundaryDensity("negative mass %r" % v[v < -_SUM_TOL][0])
        if not abs(v.sum() - 1.0) <= _SUM_TOL * max(1, len(v)):   # NaN fails too
            raise BoundaryDensity("mass sums to %r, not 1" % v.sum())
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class Potential:
    """Node potential stored with zero mean; the removed shift is kept."""

    values: np.ndarray
    shift: float = field(default=0.0)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        mean = v.mean()
        object.__setattr__(self, "values", v - mean)
        object.__setattr__(self, "shift", float(self.shift + mean))


@dataclass(frozen=True)
class SkewField:
    values: np.ndarray  # (n, n), antisymmetric, zero off-edge

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if np.max(np.abs(v + v.T)) > 1e-9 * max(1.0, np.max(np.abs(v))):
            raise ValueError("edge field is not antisymmetric")
        object.__setattr__(self, "values", v)


def graph_gradient(g: Graph, S) -> SkewField:
    """(grad S)_ij = S_i - S_j on edges, zero elsewhere."""
    s = _arr(S)
    v = (s[:, None] - s[None, :]) * g.adjacency
    return SkewField(v)


def _pair_direction(kind: ThetaKind, direction):
    """The upwind kind's directions over the ordered pairs; other kinds ignore
    directions and get 0.0."""
    if kind.kind != "upwind":
        return 0.0
    if direction is None:
        raise ValueError("upwind theta needs a direction source")
    return direction


def edge_theta(g: Graph, rho, kind: ThetaKind, direction=None) -> np.ndarray:
    """Theta weights as a (2|E|,) vector over the ordered pairs.

    `direction`, a (2|E|,) antisymmetric pair vector, feeds the upwind kind.
    """
    r = _arr(rho)
    return theta(kind, r[g.src], r[g.dst], _pair_direction(kind, direction))


def edge_theta_with_partial_sum(g: Graph, rho, kind: ThetaKind, direction=None):
    """(edge_theta, P) from one evaluation of the weights, where
    P_k = d theta_ij / d rho_i + d theta_ji / d rho_i for each pair k = (i, j).

    Directions are as in edge_theta; an upwind direction must be
    antisymmetric, so that d_ji = -d_ij.
    """
    r = _arr(rho)
    th, (first, second) = theta_with_partial(kind, r[g.src], r[g.dst],
                                             _pair_direction(kind, direction))
    return th, first + second[g.rev]


def divergence(g: Graph, rho, v, kind: ThetaKind = AVERAGE) -> np.ndarray:
    """div(rho v)_j = -(sum_l w_jl v_jl theta_jl)."""
    vv = _arr(v)[g.src, g.dst]
    th = edge_theta(g, rho, kind, direction=vv)
    return -np.bincount(g.src, g.w * vv * th, minlength=g.n)


def inner_product(g: Graph, u, v, rho, kind: ThetaKind = AVERAGE) -> float:
    """<u, v>_rho, summed over both orientations of every edge with a 1/2."""
    uu = _arr(u)[g.src, g.dst]
    vv = _arr(v)[g.src, g.dst]
    th = edge_theta(g, rho, kind, direction=vv)
    return float(0.5 * (uu * vv * th * g.w).sum())


def hodge_decompose(g: Graph, rho, v, kind: ThetaKind = AVERAGE):
    """Split v = grad S + u with div(rho u) = 0.

    Solves the weighted Laplacian system div(rho grad S) = div(rho v) with
    the constant mode deflated; S is returned with zero mean. The density
    must be interior so every edge keeps positive conductance.
    """
    r = _arr(rho)
    if r.min() <= 0:
        raise BoundaryDensity("decomposition needs an interior density")
    vv = _arr(v)
    cond = np.zeros((g.n, g.n))              # edge conductances
    cond[g.src, g.dst] = g.w * edge_theta(g, r, kind, direction=vv[g.src, g.dst])
    lap = np.diag(cond.sum(axis=1)) - cond   # L = -div(rho grad .)
    eigs = np.sort(np.abs(np.linalg.eigvalsh(lap)))
    scale = max(eigs[-1], 1.0)
    if len(eigs) > 1 and eigs[1] < 1e-12 * scale:
        raise SingularLaplacian("weighted Laplacian kernel has dimension > 1")
    rhs = -divergence(g, r, vv, kind)
    # deflate the constant kernel; rhs is orthogonal to constants already
    s = np.linalg.solve(lap + np.ones_like(lap) / g.n, rhs)
    s -= s.mean()
    grad = graph_gradient(g, s).values
    u = SkewField(vv - grad)
    return Potential(s), u
