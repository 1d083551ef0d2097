"""Finite weighted graphs and their edge pairs.

A graph here is a connected, undirected, simple graph on nodes 0..n-1 with
strictly positive symmetric edge weights w, plus an optional second weight
family wt ("fisher weights") used by the Fisher information functional and
defaulting to w.

Every edge field runs over the 2|E| ordered pairs, each edge in both
directions: a Graph carries the pairs' endpoints src and dst, their weights
w and wt, and rev, the index of each pair's reverse, and nothing of size
(n, n). Pairs are sorted by (src, dst), and a sum over a node's pairs is a
bincount over src. Theta weights are (2|E|,) vectors on these pairs.

A Density is a nonnegative node vector summing to one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetricWeight,
    BoundaryDensity,
    DisconnectedGraph,
    MalformedEdge,
    NonpositiveWeight,
    SelfLoop,
)
from .theta import ThetaKind, theta, theta_with_partial

_SUM_TOL = 1e-12


def _arr(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple            # tuple of (i, j) with i < j
    src: np.ndarray         # (2|E|,) ordered pairs (src, dst), sorted
    dst: np.ndarray
    w: np.ndarray           # (2|E|,) edge weight of each pair
    wt: np.ndarray          # (2|E|,) fisher weight of each pair
    rev: np.ndarray         # (2|E|,) index of the pair (dst, src)


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
    for a in (src, dst, w, wt, rev):
        a.setflags(write=False)
    return Graph(n, edges, src, dst, w, wt, rev)


def complete_graph(n: int) -> Graph:
    return validate_graph(n, [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)])


# -- densities and theta weights on the pairs -------------------------------------


@dataclass(frozen=True)
class Density:
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if np.any(v < -_SUM_TOL):
            raise BoundaryDensity("negative mass %r" % float(v[v < -_SUM_TOL][0]))
        if not abs(v.sum() - 1.0) <= _SUM_TOL * max(1, len(v)):   # NaN fails too
            raise BoundaryDensity("mass sums to %r, not 1" % float(v.sum()))
        object.__setattr__(self, "values", v)


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
