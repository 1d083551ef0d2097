"""Hamiltonians on the phase space of densities over a graph.

A phase point pairs a node density with a conjugate node variable. Three
coordinate charts appear:

* (rho, S)    the kinetic chart; S generates velocity through its gradient
* (rho, psi)  the dual chart of the entropic bridge problem
* (f, g)      the Schroedinger factorization, rho = f * g componentwise

Supported Hamiltonian families (all evaluated by eval_H and differentiated
exactly by vector_field; grad_check compares the two):

* ot_kinetic      H = 1/4 sum_ij (S_i - S_j)^2 theta_ij w_ij + V(rho, t)
* fisher_ot       ot kinetic energy minus beta * Fisher information
* lp_kinetic      H = 1/(2q) sum_ij |S_i - S_j|^q theta_ij w_ij + V(rho, t)
* sbp_entropic    H = sum_ij e^{S_j - S_i} m_ij sqrt(rho_i rho_j)
                      + sum_i m_ii rho_i
* sbp_psi         H = sum_ij u*(psi_j - psi_i) m_ij rho_i for a convex dual u*
* schrodinger_fg  H = sum_ij f_i m_ij g_j, bilinear, diagonal included

Sums run over ordered adjacent pairs. The three entropic forms are the same
function written in the three charts: substituting S = psi - 1/2 log rho or
(f, g) = (sqrt(rho) e^{-S}, sqrt(rho) e^{S}) maps one onto another, which the
test-suite checks. The convention dictionary:

    velocity          v_ij = S_i - S_j
    density equation  d rho/dt = +dH/dS
    potential         dS/dt   = -dH/drho

Exponentials of potential gaps are guarded: |gap| > 700 raises instead of
saturating.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import BoundaryDensity, InvalidGenerator, KinkProximity, NonfiniteValue
from .graph import Graph, _arr, edge_theta, edge_theta_partial_sum
from .theta import ThetaKind

_EXP_CAP = 700.0


def _capped(x, mask):
    """x on the masked entries and 0 elsewhere, refusing gaps whose exp overflows."""
    x = np.where(mask, x, 0.0)
    if np.max(np.abs(x), initial=0.0) > _EXP_CAP:
        raise NonfiniteValue("potential gap beyond +-700; exp would overflow")
    return x


def _guarded_exp(x, mask):
    """exp(x) on the masked entries and 1 elsewhere, refusing to overflow silently."""
    return np.exp(_capped(x, mask))


# -- states ----------------------------------------------------------------------


@dataclass
class PhasePoint:
    """Density-like and potential-like coordinates in a named chart.

    chart "S" and "psi" store (rho, potential); chart "fg" stores the
    Schroedinger pair in the same two slots (rho slot holds f).
    """

    rho: np.ndarray
    pot: np.ndarray
    chart: str = "S"

    def __post_init__(self):
        self.rho = np.asarray(_arr(self.rho), dtype=float).copy()
        self.pot = np.asarray(_arr(self.pot), dtype=float).copy()
        if self.chart not in ("S", "psi", "fg"):
            raise ValueError("unknown chart %r" % (self.chart,))

    @property
    def f(self) -> np.ndarray:
        if self.chart != "fg":
            raise ValueError("f only exists in the fg chart")
        return self.rho

    @property
    def g(self) -> np.ndarray:
        if self.chart != "fg":
            raise ValueError("g only exists in the fg chart")
        return self.pot

    def copy(self) -> "PhasePoint":
        return PhasePoint(self.rho.copy(), self.pot.copy(), self.chart)


# -- reference jump rates ----------------------------------------------------------


class ReferenceRates:
    """Transition rates m(t) of a reference jump process.

    Off-diagonal entries are nonnegative jump rates i -> j; the diagonal is
    minus the row sum, so rows sum to zero and d rho/dt = rho m is mass
    preserving. Either a constant matrix or a matrix-valued function of
    time; a period can be declared for time-periodic families.

    The support, the off-diagonal mask of pairs that may carry rate, is fixed
    at construction: the nonzero pattern of a constant matrix, and every
    off-diagonal pair for a function of time. A function of time is fn(t), a
    batch_fn(times) giving the (len(times), n, n) stack, or both; with
    batch_fn alone, at(t) is batch_fn([t])[0].
    """

    def __init__(self, n: int, fn: Callable[[float], np.ndarray] | None = None,
                 matrix: np.ndarray | None = None, period: float | None = None,
                 batch_fn: Callable[[np.ndarray], np.ndarray] | None = None):
        if (fn is None and batch_fn is None) == (matrix is None):
            raise ValueError("give exactly one of matrix or fn/batch_fn")
        self.n = int(n)
        self.period = period
        self._fn = fn if fn is not None or batch_fn is None else lambda t: batch_fn([t])[0]
        self._batch_fn = batch_fn
        self.matrix = None
        if matrix is not None:
            self.matrix = _validated_generator(np.asarray(matrix, dtype=float))
        self._support = (self.matrix > 0 if self.matrix is not None
                         else ~np.eye(self.n, dtype=bool))
        np.fill_diagonal(self._support, False)
        self._support.setflags(write=False)

    @property
    def constant(self) -> bool:
        return self.matrix is not None

    def at(self, t: float) -> np.ndarray:
        if self.matrix is not None:
            return self.matrix
        return np.asarray(self._fn(float(t)), dtype=float)

    def at_many(self, ts: np.ndarray) -> np.ndarray:
        """(len(ts), n, n) stack; uses a vectorized closure when available."""
        ts = np.asarray(ts, dtype=float)
        if self.matrix is not None:
            return np.broadcast_to(self.matrix, (len(ts), self.n, self.n))
        if self._batch_fn is not None:
            return np.asarray(self._batch_fn(ts), dtype=float)
        return np.stack([self.at(t) for t in ts])

    def support(self) -> np.ndarray:
        """Read-only boolean off-diagonal mask of the pairs that may carry rate."""
        return self._support


def _carrying(rates: ReferenceRates, m: np.ndarray) -> np.ndarray:
    """Support pairs whose rate m = rates.at(t) is nonzero at that t."""
    return rates.support() if rates.constant else rates.support() & (m != 0)


def _validated_generator(m: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    off = m - np.diag(np.diag(m))
    if off.min() < -tol:
        raise InvalidGenerator("negative off-diagonal rate %r" % off.min())
    off = np.clip(off, 0.0, None)
    return off - np.diag(off.sum(axis=1))


def constant_rates(matrix) -> ReferenceRates:
    """Reference rates from a constant matrix; the diagonal is rebuilt."""
    m = np.asarray(matrix, dtype=float)
    return ReferenceRates(m.shape[0], matrix=m)


def symmetric_rates(g: Graph, value: float = 1.0) -> ReferenceRates:
    """Unit (or scaled) rates along every edge of a graph."""
    m = value * g.adjacency.astype(float)
    return ReferenceRates(g.n, matrix=m)


# -- convex duals -------------------------------------------------------------------


@dataclass(frozen=True)
class ConvexDual:
    """Convex dual u* with u*(0) = 0, paired with its derivative."""

    name: str
    value: Callable
    derivative: Callable


ENTROPY_DUAL = ConvexDual("entropy", np.expm1, np.exp)
# kept for exercising the general dual flow; not a generator for large gaps
QUADRATIC_DUAL = ConvexDual("quadratic", lambda x: x + 0.5 * x * x, lambda x: 1.0 + x)


def dual_from_name(name: str) -> ConvexDual:
    table = {"entropy": ENTROPY_DUAL, "quadratic": QUADRATIC_DUAL}
    if name not in table:
        raise ValueError("unknown convex dual %r" % name)
    return table[name]


# -- node potentials V(rho, t) --------------------------------------------------------


@dataclass(frozen=True)
class NodePotential:
    """Scalar functional of the density with its gradient."""

    value: Callable
    grad: Callable


def linear_potential(v) -> NodePotential:
    v = np.asarray(v, dtype=float)
    return NodePotential(lambda rho, t: float(np.dot(rho, v)),
                         lambda rho, t: v)


def quadratic_interaction(w) -> NodePotential:
    w = np.asarray(w, dtype=float)
    return NodePotential(lambda rho, t: float(rho @ w @ rho),
                         lambda rho, t: (w + w.T) @ rho)


def fisher_potential(g: Graph, kind: ThetaKind, coeff: float) -> NodePotential:
    """coeff * I(rho); lets the Fisher functional enter as a potential term."""
    return NodePotential(lambda rho, t: coeff * fisher_information(g, rho, kind),
                         lambda rho, t: coeff * _fisher_grad(g, rho, kind))


# -- Hamiltonian variants ---------------------------------------------------------------


@dataclass
class HamiltonianSpec:
    variant: str
    graph: Graph
    theta: ThetaKind | None = None
    theta_tilde: ThetaKind | None = None
    reference: ReferenceRates | None = None
    dual: ConvexDual = ENTROPY_DUAL
    beta: float = 0.125
    q: float = 2.0
    potential: NodePotential | None = None

    def __post_init__(self):
        if self.variant not in ("ot_kinetic", "fisher_ot", "lp_kinetic",
                                "sbp_entropic", "sbp_psi", "schrodinger_fg"):
            raise ValueError("unknown Hamiltonian variant %r" % (self.variant,))
        if self.variant in ("sbp_entropic", "sbp_psi", "schrodinger_fg"):
            if self.reference is None:
                raise ValueError("%s needs reference rates" % self.variant)
        elif self.theta is None:
            raise ValueError("%s needs a theta kind" % self.variant)
        if self.variant == "fisher_ot":
            if self.beta < 0:
                raise ValueError("beta must be nonnegative")
            if self.theta_tilde is None:
                self.theta_tilde = self.theta
            if self.theta_tilde.kind == "upwind":
                raise ValueError("fisher information needs a smooth theta kind")
        if self.variant == "lp_kinetic" and not self.q > 1:
            raise ValueError("lp exponent must exceed 1")

    @property
    def chart(self) -> str:
        return {"sbp_psi": "psi", "schrodinger_fg": "fg"}.get(self.variant, "S")


def ot_kinetic(graph: Graph, kind: ThetaKind, potential: NodePotential | None = None) -> HamiltonianSpec:
    return HamiltonianSpec("ot_kinetic", graph, theta=kind, potential=potential)


def fisher_ot(graph: Graph, kind: ThetaKind, kind_tilde: ThetaKind | None = None,
              beta: float = 0.125, potential: NodePotential | None = None) -> HamiltonianSpec:
    return HamiltonianSpec("fisher_ot", graph, theta=kind, theta_tilde=kind_tilde,
                           beta=beta, potential=potential)


def lp_kinetic(graph: Graph, kind: ThetaKind, q: float,
               potential: NodePotential | None = None) -> HamiltonianSpec:
    return HamiltonianSpec("lp_kinetic", graph, theta=kind, q=q, potential=potential)


def sbp_entropic(graph: Graph, reference: ReferenceRates) -> HamiltonianSpec:
    return HamiltonianSpec("sbp_entropic", graph, reference=reference)


def sbp_psi(graph: Graph, reference: ReferenceRates, dual: ConvexDual = ENTROPY_DUAL) -> HamiltonianSpec:
    return HamiltonianSpec("sbp_psi", graph, reference=reference, dual=dual)


def schrodinger_fg(graph: Graph, reference: ReferenceRates) -> HamiltonianSpec:
    return HamiltonianSpec("schrodinger_fg", graph, reference=reference)


def _interior(rho: np.ndarray):
    if np.min(rho) <= 0.0:
        raise BoundaryDensity("state requires strictly positive masses")


# -- Fisher information -------------------------------------------------------------------


def fisher_information(g: Graph, rho, kind: ThetaKind) -> float:
    """I(rho) = 1/2 sum over ordered adjacent pairs of
    (log rho_i - log rho_j)^2 theta_ij wt_ij, with the fisher edge weights."""
    r = _arr(rho)
    _interior(r)
    if kind.kind == "upwind":
        raise ValueError("fisher information needs a smooth theta kind")
    dlog = np.log(r)[:, None] - np.log(r)[None, :]
    th = edge_theta(g, r, kind)
    return float(0.5 * (dlog ** 2 * th * g.fisher_weight).sum())


def _fisher_grad(g: Graph, rho, kind: ThetaKind) -> np.ndarray:
    """dI/drho_i = sum_j wt_ij [2 D_ij theta_ij / rho_i
                                + 1/2 D_ij^2 (d1 theta_ij + d2 theta_ji)]."""
    r = _arr(rho)
    _interior(r)
    dlog = np.log(r)[:, None] - np.log(r)[None, :]
    th = edge_theta(g, r, kind)
    psum = edge_theta_partial_sum(g, r, kind)
    w = g.fisher_weight
    term = 2.0 * dlog * th / r[:, None] + 0.5 * dlog ** 2 * psum
    return (np.where(g.adjacency, term, 0.0) * w).sum(axis=1)


# -- evaluation ---------------------------------------------------------------------------


def _kinetic_energy(spec: HamiltonianSpec, rho, ds) -> float:
    g = spec.graph
    th = edge_theta(g, rho, spec.theta, direction=ds)
    if spec.variant == "lp_kinetic":
        dens = np.abs(ds) ** spec.q
        return float((dens * th * g.weight).sum() / (2.0 * spec.q))
    return float(0.25 * (ds ** 2 * th * g.weight).sum())


def eval_H(spec: HamiltonianSpec, state: PhasePoint, t: float = 0.0) -> float:
    """Value of the Hamiltonian at a phase point."""
    if state.chart != spec.chart:
        raise ValueError("state chart %r does not match spec chart %r"
                         % (state.chart, spec.chart))
    g = spec.graph
    if spec.variant == "schrodinger_fg":
        m = spec.reference.at(t)
        val = float(state.f @ m @ state.g)
        if not np.isfinite(val):
            raise NonfiniteValue("bilinear Hamiltonian is not finite")
        return val

    rho, pot = state.rho, state.pot
    if spec.variant in ("ot_kinetic", "fisher_ot", "lp_kinetic"):
        if spec.theta.kind == "logmean" or spec.variant == "fisher_ot":
            _interior(rho)
        ds = (pot[:, None] - pot[None, :]) * g.adjacency
        val = _kinetic_energy(spec, rho, ds)
        if spec.variant == "fisher_ot":
            val -= spec.beta * fisher_information(g, rho, spec.theta_tilde)
        if spec.potential is not None:
            val += float(spec.potential.value(rho, t))
        return val

    m = spec.reference.at(t)
    sup = _carrying(spec.reference, m)
    gap = pot[None, :] - pot[:, None]          # pot_j - pot_i
    if spec.variant == "sbp_entropic":
        _interior(rho)
        ex = _guarded_exp(gap, sup)
        bulk = float((ex * m * np.sqrt(np.outer(rho, rho)) * sup).sum())
        return bulk + float(np.diag(m) @ rho)
    # sbp_psi
    z = _capped(gap, sup) if spec.dual.name == "entropy" else np.where(sup, gap, 0.0)
    vals = np.where(sup, spec.dual.value(z), 0.0)
    val = float((vals * m * rho[:, None]).sum())
    if not np.isfinite(val):
        raise NonfiniteValue("Hamiltonian is not finite")
    return val


# -- exact vector fields --------------------------------------------------------------------


def vector_field(spec: HamiltonianSpec, state: PhasePoint, t: float = 0.0):
    """(d rho/dt, d pot/dt) = (+dH/dpot, -dH/drho), differentiated exactly."""
    if state.chart != spec.chart:
        raise ValueError("state chart %r does not match spec chart %r"
                         % (state.chart, spec.chart))
    g = spec.graph

    if spec.variant == "schrodinger_fg":
        m = spec.reference.at(t)
        return state.f @ m, -(m @ state.g)

    rho, pot = state.rho, state.pot

    if spec.variant in ("ot_kinetic", "fisher_ot", "lp_kinetic"):
        if spec.theta.kind == "logmean" or spec.variant == "fisher_ot":
            _interior(rho)
        ds = (pot[:, None] - pot[None, :]) * g.adjacency
        th = edge_theta(g, rho, spec.theta, direction=ds)
        psum = edge_theta_partial_sum(g, rho, spec.theta, direction=ds)
        if spec.variant == "lp_kinetic":
            flow = np.abs(ds) ** (spec.q - 1.0) * np.sign(ds)
            dens = np.abs(ds) ** spec.q
            drho = 0.5 * (g.weight * flow * (th + th.T)).sum(axis=1)
            dpot = -(g.weight * dens * psum).sum(axis=1) / (2.0 * spec.q)
        else:
            drho = 0.5 * (g.weight * ds * (th + th.T)).sum(axis=1)
            dpot = -0.25 * (g.weight * ds ** 2 * psum).sum(axis=1)
        if spec.variant == "fisher_ot":
            dpot += spec.beta * _fisher_grad(g, rho, spec.theta_tilde)
        if spec.potential is not None:
            dpot -= np.asarray(spec.potential.grad(rho, t), dtype=float)
        return drho, dpot

    m = spec.reference.at(t)
    sup = _carrying(spec.reference, m)
    gap = pot[None, :] - pot[:, None]

    if spec.variant == "sbp_entropic":
        _interior(rho)
        ex = _guarded_exp(gap, sup)
        flux = ex * m * np.sqrt(np.outer(rho, rho)) * sup   # flux_ij, mass i -> j
        drho = flux.sum(axis=0) - flux.sum(axis=1)
        dpot = -np.diag(m) - (flux.sum(axis=1) + flux.T.sum(axis=1)) / (2.0 * rho)
        return drho, dpot

    # sbp_psi: d rho_i = sum_j -u*'(gap_ij) m_ij rho_i + u*'(gap_ji) m_ji rho_j
    #          d psi_i = -sum_j u*(gap_ij) m_ij
    z = _capped(gap, sup) if spec.dual.name == "entropy" else np.where(sup, gap, 0.0)
    du = np.where(sup, spec.dual.derivative(z), 0.0)
    uval = np.where(sup, spec.dual.value(z), 0.0)
    out = (du * m * rho[:, None])               # rate-weighted outflow i -> j
    drho = out.sum(axis=0) - out.sum(axis=1)
    dpot = -(uval * m).sum(axis=1)
    return drho, dpot


def grad_check(spec: HamiltonianSpec, state: PhasePoint, t: float = 0.0, h: float = 1e-5) -> dict:
    """Compare vector_field with central differences of eval_H.

    Returns a report with the maximum relative deviation across both blocks.
    Refuses to difference across an upwind branch boundary.
    """
    if spec.variant != "schrodinger_fg":
        kinds = [k for k in (spec.theta,) if k is not None]
        if any(k.kind == "upwind" for k in kinds):
            ds = (state.pot[:, None] - state.pot[None, :])[spec.graph.adjacency]
            if np.min(np.abs(ds)) <= 10 * h:
                raise KinkProximity("potential gap within 10h of an upwind kink")
    n = len(state.rho)
    fd_rho = np.zeros(n)
    fd_pot = np.zeros(n)
    for i in range(n):
        for arrname, store in (("rho", fd_rho), ("pot", fd_pot)):
            plus = state.copy()
            minus = state.copy()
            getattr(plus, arrname)[i] += h
            getattr(minus, arrname)[i] -= h
            store[i] = (eval_H(spec, plus, t) - eval_H(spec, minus, t)) / (2 * h)
    drho, dpot = vector_field(spec, state, t)
    want_drho, want_dpot = fd_pot, -fd_rho
    scale = max(np.max(np.abs(want_drho)), np.max(np.abs(want_dpot)), 1e-10)
    dev = max(np.max(np.abs(drho - want_drho)), np.max(np.abs(dpot - want_dpot)))
    return {
        "max_rel_deviation": float(dev / scale),
        "scale": float(scale),
        "fd_drho": want_drho,
        "fd_dpot": want_dpot,
        "drho": drho,
        "dpot": dpot,
    }
