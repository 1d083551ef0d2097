"""Hamiltonians on the phase space of densities over a graph.

A phase point pairs a node density with a conjugate node variable. Three
coordinate charts appear:

* (rho, S)    the kinetic chart; S generates velocity through its gradient
* (rho, psi)  the dual chart of the entropic bridge problem
* (f, g)      the Schroedinger factorization, rho = f * g componentwise

Supported Hamiltonian families. prepare(spec) gives each one's energy and
exactly differentiated field on plain arrays; eval_H and vector_field
evaluate them at a phase point, and grad_check compares the two:

* ot_kinetic      H = 1/4 sum_ij (S_i - S_j)^2 theta_ij w_ij + V(rho, t)
* fisher_ot       ot kinetic energy minus beta * Fisher information
* lp_kinetic      H = 1/(2q) sum_ij |S_i - S_j|^q theta_ij w_ij + V(rho, t)
* sbp_entropic    H = sum_ij e^{S_j - S_i} m_ij sqrt(rho_i rho_j)
                      + sum_i m_ii rho_i
* sbp_psi         H = sum_ij u*(psi_j - psi_i) m_ij rho_i, u*(x) = e^x - 1
* schrodinger_fg  H = sum_ij f_i m_ij g_j, bilinear, diagonal included

Sums run over ordered pairs, summed per node by np.bincount: the graph's
adjacent pairs, and for sbp_entropic and sbp_psi the reference's support
pairs. The three entropic forms are the same function written in the three
charts: substituting S = psi - 1/2 log rho or (f, g) = (sqrt(rho) e^{-S},
sqrt(rho) e^{S}) maps one onto another, which the test-suite checks. The
convention dictionary:

    velocity          v_ij = S_i - S_j
    density equation  d rho/dt = +dH/dS
    potential         dS/dt   = -dH/drho

Exponentials of potential gaps are guarded: |gap| > 700 raises instead of
saturating.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BoundaryDensity, InvalidGenerator, KinkProximity, NonfiniteValue
from .graph import Graph, _arr, edge_theta, edge_theta_with_partial_sum
from .theta import ThetaKind

_EXP_CAP = 700.0
_BLOCK_ENTRIES = 1 << 14   # matrix entries per block of a stack of (n, n) matrices; bounds memory
# the Kolmogorov rule's tolerances: sign bounds of entries, zero row sums
_OFF_TOL = 1e-12
_DIAG_TOL = 1e-12
_ROW_TOL = 1e-10


def _capped(x, mask):
    """x on the masked entries and 0 elsewhere, refusing gaps whose exp overflows."""
    x = np.where(mask, x, 0.0)
    if np.maximum.reduce(np.abs(x), axis=None, initial=0.0) > _EXP_CAP:
        raise NonfiniteValue("potential gap beyond +-700; exp would overflow")
    return x


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
        self.rho = np.array(_arr(self.rho))
        self.pot = np.array(_arr(self.pot))
        if self.chart not in ("S", "psi", "fg"):
            raise ValueError("unknown chart %r" % (self.chart,))


# -- reference jump rates ----------------------------------------------------------


class ReferenceRates:
    """Transition rates m(t) of a reference jump process.

    Off-diagonal entries are nonnegative jump rates i -> j; the diagonal is
    minus the row sum, so rows sum to zero and d rho/dt = rho m is mass
    preserving. Either a constant matrix or a batch_fn(times) giving the
    (len(times), n, n) stack of a time-dependent m, whose at(t) is
    batch_fn([t])[0]; a period can be declared for time-periodic families.

    The support, the off-diagonal mask of pairs that may carry rate, is fixed
    at construction: the pairs positive in some stored record (a constant
    matrix is a recording of one), and every off-diagonal pair for a
    function of time. src and dst list its pairs i -> j sorted by (src, dst),
    as Graph lists its edges' pairs; row i's are indptr[i]:indptr[i + 1].
    """

    _diagonals, _t0, _dt = None, 0.0, 1.0   # a stored source's (K, n) diagonals, one every _dt from _t0

    def __init__(self, n: int, matrix: np.ndarray | None = None,
                 period: float | None = None,
                 batch_fn: Callable[[np.ndarray], np.ndarray] | None = None):
        if (batch_fn is None) == (matrix is None):
            raise ValueError("give exactly one of matrix or batch_fn")
        self.n, self.period, self._batch_fn, self.matrix = int(n), period, batch_fn, None
        if matrix is None:
            self._pairs(*np.nonzero(~np.eye(self.n, dtype=bool)))
            return
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape != (self.n, self.n):
            raise InvalidGenerator("rate matrix has shape %s, expected %s"
                                   % (matrix.shape, (self.n, self.n)))
        self.matrix = _validated_generator(matrix)
        src, dst = np.nonzero(self.matrix > 0)      # off the diagonal, which is <= 0
        self._pairs(src, dst, self.matrix.diagonal()[None], self.matrix[src, dst][None])

    def _pairs(self, src, dst, diagonals=None, rates=None):
        """Fix the support pairs src -> dst and their CSR rows; given records, those positive in one."""
        if rates is not None:
            keep = rates.max(axis=0) > 0
            src, dst, self._diagonals, self._rates = src[keep], dst[keep], diagonals, rates[:, keep]
        self.src, self.dst, self.indptr = src, dst, np.searchsorted(src, np.arange(self.n + 1))
        self._support = np.zeros((self.n, self.n), dtype=bool)
        self._support[src, dst] = True
        for a in (self._support, self.src, self.dst, self.indptr):
            a.setflags(write=False)
        deg = np.diff(self.indptr)
        self._pad = np.arange(deg.max(initial=0)) >= deg[:, None]     # (n, w): past row i's pairs
        self._slots = np.where(self._pad, 0, self.indptr[:-1, None] + np.arange(self._pad.shape[1]))
        self._cols = np.where(self._pad, np.arange(self.n)[:, None], dst[self._slots])  # dst, then i

    @property
    def constant(self) -> bool:
        return self.matrix is not None

    def at(self, t: float) -> np.ndarray:
        return self.matrix if self.matrix is not None else self.at_many([t])[0]

    def at_many(self, ts: np.ndarray) -> np.ndarray:
        """(len(ts), n, n) stack of m at the times ts; stored records are scattered back."""
        ts = np.asarray(ts, dtype=float)
        if self.matrix is not None:
            return np.broadcast_to(self.matrix, (len(ts), self.n, self.n))
        if self._diagonals is None:
            return np.asarray(self._batch_fn(ts), dtype=float)
        k, diagonal = self._index(ts), np.arange(self.n)
        stack = np.zeros((len(ts), self.n, self.n))
        stack[:, self.src, self.dst] = self._rates[k]
        stack[:, diagonal, diagonal] = self._diagonals[k]
        return stack

    def _index(self, ts) -> np.ndarray:
        """The stored record each time reads: (t - _t0) / _dt rounded, clipped to the records;
        after a short last gap, not always the nearest (every 3 dt to 1,000 dt: 999.9 dt reads 999 dt)."""
        steps = np.round((np.asarray(ts) - self._t0) / self._dt)
        return np.clip(steps, 0, len(self._diagonals) - 1).astype(int)

    def rows(self, times, states) -> tuple:
        """(diagonal, rates, cols) of the rows m(times[k])[states[k]]: the (len,)
        diagonal, and each row's support rates and columns in CSR order, (len, w)
        arrays padded to the widest row by rate 0 at the row's own state. Stored
        records are gathered at _index(times); a function of time is evaluated in
        blocks as large as the (len, n) rows, or as one _block_size(n) block."""
        times, states = np.asarray(times, dtype=float), np.asarray(states, dtype=np.intp)
        pad = self._pad.take(states, axis=0)
        if self._diagonals is not None:     # the slots' (len, w) temporary is gone before cols
            k = self._index(times)
            diag, rates = self._diagonals[k, states], self._rates[k[:, None], self._slots[states]]
            cols = self._cols.take(states, axis=0)
        else:
            cols = self._cols.take(states, axis=0)
            diag, rates = np.empty(len(times)), np.empty(cols.shape)
            size = max(_block_size(self.n), -(-len(times) // self.n))
            for lo in range(0, len(times), size):
                ms, part = self.at_many(times[lo:lo + size]), slice(lo, lo + size)
                k = np.arange(len(ms))
                diag[part] = ms[k, states[part], states[part]]
                rates[part] = ms[k[:, None], states[part, None], cols[part]]
        return diag, np.where(pad, 0.0, rates), cols

    def support(self) -> np.ndarray:
        """Read-only boolean off-diagonal mask of the pairs that may carry rate."""
        return self._support


class _RecordedRates(ReferenceRates):
    """K checked generators recorded every dt from t0: (K, n) diagonals, (K, P) rates on src -> dst."""

    def __init__(self, t0: float, dt: float, diagonals, rates, src, dst):
        self.n, self.period, self._batch_fn, self.matrix = diagonals.shape[1], None, None, None
        self._t0, self._dt = t0, dt
        self._pairs(src, dst, diagonals, rates)


def _block_size(n: int) -> int:
    """(n, n) matrices per block of at most _BLOCK_ENTRIES entries, at least one."""
    return max(1, _BLOCK_ENTRIES // (n * n))


def _reference_at(rates: ReferenceRates, times=()):
    """t -> (m(t), the diagonal of m(t), m(t) on the support pairs src -> dst).

    A pair rate of 0 carries no jump, so the fields cap the gaps only where
    it is nonzero; a NaN or infinite one makes their flux NaN. A constant
    reference has one fixed triple. A time-dependent one is evaluated at
    `times`, an iterable of the times a flow will ask for in order, and
    walked by a forward cursor over a chain of (t, m, diagonal, pair rates)
    entries. The chain is built from the distinct consecutive times, through
    at_many in blocks of _block_size(n) of them.
    A call at the time of the entry served last is served from it again; a
    call at the time of the entry after it moves the cursor on; a call at any
    other time evaluates m(t) alone. The first block is evaluated when the
    lookup is built, and each later one when the cursor reaches the last
    time of the block before it, so at most two blocks are held.
    """
    src, dst = rates.src, rates.dst
    if rates.constant:
        fixed = rates.matrix, rates.matrix.diagonal(), rates.matrix[src, dst]
        return lambda t: fixed

    def at(t):
        m = rates.at(t)
        return m, m.diagonal(), m[src, dst]

    def entries():
        distinct = (t for t, _ in itertools.groupby(times))
        while ts := list(itertools.islice(distinct, _block_size(rates.n))):
            ms = rates.at_many(ts)
            yield from zip(ts, ms, np.diagonal(ms, axis1=1, axis2=2), ms[:, src, dst])

    chain = entries()
    served, ahead = (None,), next(chain, None)

    def lookup(t):
        nonlocal served, ahead
        if t != served[0]:
            if t != ahead[0]:
                return at(t)
            served, ahead = ahead, next(chain, (None,))
        return served[1:]

    return lookup if ahead is not None else at


def _kolmogorov(q: np.ndarray):
    """Kolmogorov rule over a (..., n, n) stack of generator candidates.

    Returns (clamped, clamp, bad, rows, bad_rows): the stack with entries
    within 1e-12 of a violated sign bound zeroed (q itself when none are),
    the mask of those entries, the mask of worse sign violations and of
    non-finite entries, the row sums of the clamped stack and the mask of
    rows off zero beyond 1e-10.
    """
    diag = np.eye(q.shape[-1], dtype=bool)
    bad = np.where(diag, q > _DIAG_TOL, q < -_OFF_TOL) | ~np.isfinite(q)
    clamp = np.where(diag, q > 0, q < 0) & ~bad
    if clamp.any():
        q = np.where(clamp, 0.0, q)
    rows = q.sum(axis=-1)
    return q, clamp, bad, rows, np.abs(rows) > _ROW_TOL


def _validated_generator(m: np.ndarray) -> np.ndarray:
    """A constant matrix that passes the Kolmogorov rule, its diagonal rebuilt
    as minus the clipped off-diagonal row sums. An all-zero diagonal stands
    for that rebuilt one, so only its entries' signs and finiteness are checked."""
    q, _, bad, rows, bad_rows = _kolmogorov(m)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise InvalidGenerator("rate matrix entry (%d, %d) is %r" % (i, j, float(q[i, j])))
    if m.diagonal().any() and bad_rows.any():
        i = np.flatnonzero(bad_rows)[0]
        raise InvalidGenerator("rate matrix row %d sums to %r, not 0" % (i, float(rows[i])))
    off = np.clip(m - np.diag(np.diag(m)), 0.0, None)
    return off - np.diag(off.sum(axis=1))


def constant_rates(matrix) -> ReferenceRates:
    """Reference rates from a constant matrix that passes the Kolmogorov rule;
    the diagonal is rebuilt, and an all-zero one is filled in."""
    return ReferenceRates(len(matrix), matrix=matrix)


def symmetric_rates(g: Graph, value: float = 1.0) -> ReferenceRates:
    """Unit (or scaled) rates along every edge of a graph."""
    m = np.zeros((g.n, g.n))
    m[g.src, g.dst] = value
    return ReferenceRates(g.n, matrix=m)


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

_KINETIC = ("ot_kinetic", "fisher_ot", "lp_kinetic")
_ENTROPIC = ("sbp_entropic", "sbp_psi", "schrodinger_fg")


@dataclass
class HamiltonianSpec:
    variant: str
    graph: Graph
    theta: ThetaKind | None = None
    theta_tilde: ThetaKind | None = None
    reference: ReferenceRates | None = None
    beta: float = 0.125
    q: float = 2.0
    potential: NodePotential | None = None

    def __post_init__(self):
        if self.variant not in _KINETIC + _ENTROPIC:
            raise ValueError("unknown Hamiltonian variant %r" % (self.variant,))
        if self.variant in _ENTROPIC:
            if self.reference is None:
                raise ValueError("%s needs reference rates" % self.variant)
        elif self.theta is None:
            raise ValueError("%s needs a theta kind" % self.variant)
        if self.variant == "fisher_ot":
            if not 0 <= self.beta < np.inf:
                raise ValueError("beta must be a finite number >= 0, not %r" % (self.beta,))
            if self.theta_tilde is None:
                self.theta_tilde = self.theta
            if self.theta_tilde.kind == "upwind":
                raise ValueError("fisher information needs a smooth theta kind")
        if self.variant == "lp_kinetic" and not 1 < self.q < np.inf:
            raise ValueError("lp exponent must be a finite number above 1, not %r" % (self.q,))

    @property
    def chart(self) -> str:
        return {"sbp_psi": "psi", "schrodinger_fg": "fg"}.get(self.variant, "S")

    @property
    def rate_kind(self) -> str:
        """The kind of jump generator its flow extracts (markov.build_rate_matrix):
        sbp when entropic, else upwind_ot for an upwind theta, else theta_general."""
        if self.variant in _ENTROPIC:
            return "sbp"
        return "upwind_ot" if self.theta.kind == "upwind" else "theta_general"


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


def sbp_psi(graph: Graph, reference: ReferenceRates) -> HamiltonianSpec:
    return HamiltonianSpec("sbp_psi", graph, reference=reference)


def schrodinger_fg(graph: Graph, reference: ReferenceRates) -> HamiltonianSpec:
    return HamiltonianSpec("schrodinger_fg", graph, reference=reference)


def _interior(rho: np.ndarray):
    if np.minimum.reduce(rho) <= 0.0:
        raise BoundaryDensity("state requires strictly positive masses")


# -- Fisher information -------------------------------------------------------------------


def fisher_information(g: Graph, rho, kind: ThetaKind) -> float:
    """I(rho) = 1/2 sum over ordered adjacent pairs of
    (log rho_i - log rho_j)^2 theta_ij wt_ij, with the fisher edge weights."""
    r = _arr(rho)
    _interior(r)
    if kind.kind == "upwind":
        raise ValueError("fisher information needs a smooth theta kind")
    logs = np.log(r)
    dlog = logs[g.src] - logs[g.dst]
    return float(0.5 * (dlog ** 2 * edge_theta(g, r, kind) * g.wt).sum())


def _fisher_grad(g: Graph, rho, kind: ThetaKind) -> np.ndarray:
    """dI/drho_i = sum_j wt_ij [2 D_ij theta_ij / rho_i
                                + 1/2 D_ij^2 (d1 theta_ij + d2 theta_ji)]."""
    r = _arr(rho)
    _interior(r)
    logs = np.log(r)
    dlog = logs[g.src] - logs[g.dst]
    th, psum = edge_theta_with_partial_sum(g, r, kind)
    term = 2.0 * dlog * th / r[g.src] + 0.5 * dlog ** 2 * psum
    return np.bincount(g.src, term * g.wt, minlength=g.n)


# -- prepared Hamiltonians ------------------------------------------------------------------


def prepare(spec: HamiltonianSpec, times=()):
    """(field, energy) of a spec on plain arrays in its chart.

    energy(rho, pot, t) is H; field(rho, pot, t) is the (2, n) array of
    (d rho/dt, d pot/dt) = (+dH/dpot, -dH/drho), differentiated exactly. The
    variant is dispatched here once, and everything that does not depend on
    the state (graph arrays, theta kinds, potential terms, a constant
    reference with its diagonal and pair rates) is fixed here. In the fg
    chart rho and pot hold f and g.

    `times` iterates over the times at which a flow will evaluate the pair,
    in order, such as the stage times of an rk4 grid. A time-dependent
    reference is then evaluated once per flow, on that grid: once at each
    distinct time, in blocks, with its diagonal and pair rates. Any other
    time evaluates it per call.
    """
    variant = {"sbp_entropic": _entropic, "sbp_psi": _dual,
               "schrodinger_fg": _bilinear}.get(spec.variant)
    if variant is None:
        return _kinetic(spec)
    return variant(spec, _reference_at(spec.reference, times))


def _lp_flow(ds, q: float):
    """|ds|^(q-1) sign(ds), the lp_kinetic flux per unit weight and theta of a gap ds."""
    return np.abs(ds) ** (q - 1.0) * np.sign(ds)


def _kinetic(spec: HamiltonianSpec):
    """ot_kinetic and lp_kinetic, and fisher_ot as ot_kinetic minus beta * I,
    over the graph's ordered pairs.

    theta_ij = theta_ji for every kind (the upwind direction is the
    antisymmetric gap itself), so d rho_i = sum_j w_ij flow_ij theta_ij.
    """
    g, kind, q = spec.graph, spec.theta, spec.q
    src, dst, w, n = g.src, g.dst, g.w, g.n
    lp = spec.variant == "lp_kinetic"
    terms = [fisher_potential(g, spec.theta_tilde, -spec.beta)] if spec.variant == "fisher_ot" else []
    terms += [spec.potential] if spec.potential is not None else []

    def gaps(rho, pot):
        if kind.kind == "logmean":
            _interior(rho)
        return pot[src] - pot[dst]

    def energy(rho, pot, t):
        ds = gaps(rho, pot)
        th = edge_theta(g, rho, kind, direction=ds)
        if lp:
            val = float((np.abs(ds) ** q * th * w).sum() / (2.0 * q))
        else:
            val = float(0.25 * (ds ** 2 * th * w).sum())
        for term in terms:
            val += float(term.value(rho, t))
        return val

    def field(rho, pot, t):
        ds = gaps(rho, pot)
        th, psum = edge_theta_with_partial_sum(g, rho, kind, direction=ds)
        if lp:
            flow = _lp_flow(ds, q)
            drho = np.bincount(src, w * flow * th, minlength=n)
            dpot = -np.bincount(src, w * np.abs(ds) ** q * psum, minlength=n) / (2.0 * q)
        else:
            drho = np.bincount(src, w * ds * th, minlength=n)
            dpot = -0.25 * np.bincount(src, w * ds ** 2 * psum, minlength=n)
        for term in terms:
            dpot -= np.asarray(term.grad(rho, t), dtype=float)
        return np.array((drho, dpot))

    return field, energy


def _entropic(spec: HamiltonianSpec, at):
    """sbp_entropic over the (rho, S) chart; `at` is _reference_at's lookup."""
    src, dst, n = spec.reference.src, spec.reference.dst, spec.reference.n

    def flux(rho, pot, t):
        """flux over the pairs, the mass moving src -> dst, and the diagonal of m(t)."""
        _, diag, rate = at(t)
        gap = pot[dst] - pot[src]
        _interior(rho)
        return np.exp(_capped(gap, rate != 0)) * rate * np.sqrt(rho[src] * rho[dst]), diag

    def energy(rho, pot, t):
        fl, diag = flux(rho, pot, t)
        return float(fl.sum()) + float(diag @ rho)

    def field(rho, pot, t):
        fl, diag = flux(rho, pot, t)
        out, inflow = np.bincount(src, fl, minlength=n), np.bincount(dst, fl, minlength=n)
        return np.array((inflow - out, -diag - (out + inflow) / (2.0 * rho)))

    return field, energy


def _dual(spec: HamiltonianSpec, at):
    """sbp_psi over the (rho, psi) chart, with u*(x) = e^x - 1 and u*'(x) = e^x:
    d rho_i = sum_j -u*'(gap_ij) m_ij rho_i + u*'(gap_ji) m_ji rho_j,
    d psi_i = -sum_j u*(gap_ij) m_ij."""
    src, dst, n = spec.reference.src, spec.reference.dst, spec.reference.n

    def gaps(pot, t):
        """The pair rates and the gaps, which are +0.0 where the rate is 0:
        there u*(0) = 0 and u*'(0) = 1 times the rate give 0 * m."""
        rate = at(t)[2]
        return rate, _capped(pot[dst] - pot[src], rate != 0)

    def energy(rho, pot, t):
        rate, z = gaps(pot, t)
        val = float((np.expm1(z) * rate * rho[src]).sum())
        if not np.isfinite(val):
            raise NonfiniteValue("Hamiltonian is not finite")
        return val

    def field(rho, pot, t):
        rate, z = gaps(pot, t)
        out = np.exp(z) * rate * rho[src]   # rate-weighted outflow src -> dst
        return np.array((np.bincount(dst, out, minlength=n) - np.bincount(src, out, minlength=n),
                         -np.bincount(src, np.expm1(z) * rate, minlength=n)))

    return field, energy


def _bilinear(spec: HamiltonianSpec, at):
    """schrodinger_fg over the (f, g) chart."""

    def energy(f, g, t):
        val = float(f @ at(t)[0] @ g)
        if not np.isfinite(val):
            raise NonfiniteValue("bilinear Hamiltonian is not finite")
        return val

    def field(f, g, t):
        m = at(t)[0]
        return np.array((f @ m, -(m @ g)))

    return field, energy


# -- evaluation at a phase point --------------------------------------------------------------


def _check_chart(spec: HamiltonianSpec, state: PhasePoint):
    if state.chart != spec.chart:
        raise ValueError("state chart %r does not match spec chart %r"
                         % (state.chart, spec.chart))


def eval_H(spec: HamiltonianSpec, state: PhasePoint, t: float = 0.0) -> float:
    """Value of the Hamiltonian at a phase point."""
    _check_chart(spec, state)
    return prepare(spec)[1](state.rho, state.pot, t)


def vector_field(spec: HamiltonianSpec, state: PhasePoint, t: float = 0.0) -> np.ndarray:
    """The (2, n) array of (d rho/dt, d pot/dt) = (+dH/dpot, -dH/drho),
    differentiated exactly."""
    _check_chart(spec, state)
    return prepare(spec)[0](state.rho, state.pot, t)


def grad_check(spec: HamiltonianSpec, state: PhasePoint, t: float = 0.0, h: float = 1e-5) -> dict:
    """Compare the exact field with central differences of the energy.

    Returns a report with the maximum relative deviation across both blocks.
    Refuses to difference across an upwind branch boundary.
    """
    _check_chart(spec, state)
    if spec.theta is not None and spec.theta.kind == "upwind":
        ds = state.pot[spec.graph.src] - state.pot[spec.graph.dst]
        if np.min(np.abs(ds)) <= 10 * h:
            raise KinkProximity("potential gap within 10h of an upwind kink")
    field, energy = prepare(spec)
    x = np.array([state.rho, state.pot])
    fd = np.zeros_like(x)                       # central differences in rho, then pot
    for i, k in np.ndindex(x.shape[1], 2):
        plus, minus = x.copy(), x.copy()
        plus[k, i] += h
        minus[k, i] -= h
        fd[k, i] = (energy(*plus, t) - energy(*minus, t)) / (2 * h)
    drho, dpot = field(state.rho, state.pot, t)
    want_drho, want_dpot = fd[1], -fd[0]
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
