"""Jump-process machinery: rate matrices, propagators, path sampling.

Everything here uses the row convention: densities are row vectors and evolve
by d rho/dt = rho Q, so (rho Q)_j collects inflow Q_ij from each i and the
diagonal drain Q_jj. All constructed matrices are transcribed into this
convention and checked against the Hamiltonian density equations they encode.

Rate matrices extracted from phase-space states come in three kinds:

* upwind_ot      Q_ab = w_ab (S_b - S_a)^+ off the diagonal; mass rides the
                 potential gradient from the donor node. Always valid.
* sbp            Q_ab = e^{S_b - S_a} sqrt(rho_b / rho_a) m_ab; the
                 reweighting of the reference by h = e^S sqrt(rho). Always
                 valid when rho is interior.
* theta_general  the arithmetic/logarithmic-mean splittings; diagnostic
                 only, the off-diagonals can go negative and the report
                 says where.
"""

from __future__ import annotations

import logging
import operator
from dataclasses import dataclass, field

import numpy as np

from .dynamics import rk4_grid, rk4_step_product
from .errors import (
    BoundaryDensity,
    InvalidGenerator,
    NoRateDecomposition,
    RateBoundExceeded,
)
from .graph import Graph, _arr
from .hamiltonians import (
    HamiltonianSpec,
    PhasePoint,
    ReferenceRates,
    _capped,
    _kolmogorov,
    _reference_at,
    constant_rates,
)

_log = logging.getLogger(__name__)


# -- rate matrices -------------------------------------------------------------------


@dataclass
class RateMatrix:
    """A generator candidate plus the validity report that qualifies it."""

    entries: np.ndarray
    kind: str
    valid: bool
    violations: list = field(default_factory=list)   # (i, j, value) triples
    clamped: int = 0

    def require_valid(self) -> np.ndarray:
        if not self.valid:
            worst = max(self.violations, key=lambda v: abs(v[2]))
            raise InvalidGenerator(
                "%s rate matrix invalid, worst violation at (%d, %d): %r"
                % (self.kind, worst[0], worst[1], worst[2]))
        return self.entries


def _invalid(stack: np.ndarray) -> np.ndarray:
    """(K,) mask of the generators in a (K, n, n) stack that fail the rule."""
    _, _, bad, _, bad_rows = _kolmogorov(stack)
    return bad.any(axis=(1, 2)) | bad_rows.any(axis=1)


def _require_valid_stack(stack: np.ndarray) -> None:
    """Raise the validator's InvalidGenerator for the first bad generator."""
    invalid = _invalid(stack)
    if invalid.any():
        validate_rate_matrix(stack[int(np.argmax(invalid))]).require_valid()


def validate_rate_matrix(q: np.ndarray, kind: str = "raw") -> RateMatrix:
    """Kolmogorov check: off-diagonals >= 0, diagonal <= 0, zero row sums.

    Entries within 1e-12 of a violated sign bound are clamped (counted);
    anything worse is recorded as a violation and marks the matrix invalid.
    """
    q, clamp, bad, rows, bad_rows = _kolmogorov(np.array(q, dtype=float))
    ii, jj = np.nonzero(bad)                        # row-major order
    violations = list(zip(ii.tolist(), jj.tolist(), q[ii, jj]))
    violations += [(i, i, rows[i]) for i in np.flatnonzero(bad_rows).tolist()]
    return RateMatrix(q, kind, valid=not violations,
                      violations=violations, clamped=int(clamp.sum()))


def build_rate_matrix(kind: str, g: Graph, state: PhasePoint,
                      reference: ReferenceRates | None = None,
                      theta_kind=None, t: float = 0.0) -> RateMatrix:
    """Extract the jump generator encoded by a phase-space state.

    The index order is fixed by requiring rho Q to reproduce the density
    equation of the matching Hamiltonian flow, which pins every sign.
    """
    rho, s = state.rho, state.pot

    if kind == "upwind_ot":
        ds = s[g.src] - s[g.dst]                    # S_a - S_b over the pairs
        return validate_rate_matrix(_scatter(g, g.w * np.clip(-ds, 0.0, None)), kind)

    if kind == "sbp":
        if reference is None:
            raise ValueError("sbp kind needs reference rates")
        if np.min(rho) <= 0:
            raise BoundaryDensity("reweighted rates need interior masses")
        m, sup, _ = _reference_at(reference)(t)
        ex = np.exp(_capped(s[None, :] - s[:, None], sup))   # e^{S_b - S_a} where m carries rate
        q = ex * np.sqrt(rho[None, :] / rho[:, None]) * m
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, -q.sum(axis=1))
        return validate_rate_matrix(q, kind)

    if kind == "theta_general":
        if theta_kind is None:
            raise ValueError("theta_general kind needs a theta kind")
        ds = s[g.src] - s[g.dst]
        if theta_kind.kind == "average":
            rate = 0.5 * g.w * (-ds)
        elif theta_kind.kind == "logmean":
            if np.min(rho) <= 0:
                raise BoundaryDensity("log-mean splitting needs interior masses")
            logs = np.log(rho)
            dlog = logs[g.src] - logs[g.dst]
            if (np.abs(dlog) < 1e-12).any():
                raise NoRateDecomposition("log-mean splitting degenerates at equal masses")
            rate = -g.w * ds / dlog
        else:
            raise ValueError("theta_general supports average or logmean")
        return validate_rate_matrix(_scatter(g, rate), kind)

    raise ValueError("unknown rate-matrix kind %r" % kind)


def _scatter(g: Graph, rate: np.ndarray) -> np.ndarray:
    """Dense generator with the pair rates off the diagonal and minus their
    row sums on it. Summing -rate keeps the diagonal of a row without
    outflow +0.0, as rates.json has always written it."""
    q = np.zeros((g.n, g.n))
    q[g.src, g.dst] = rate
    q[np.diag_indices(g.n)] = np.bincount(g.src, -rate, minlength=g.n)
    return q


# -- propagators ----------------------------------------------------------------------


def _as_reference(rates_like) -> ReferenceRates:
    if isinstance(rates_like, ReferenceRates):
        return rates_like
    if isinstance(rates_like, RateMatrix):
        return constant_rates(rates_like.require_valid())
    return constant_rates(np.asarray(rates_like, dtype=float))


def propagator(rates_like, s: float, t: float, dt: float = 1e-3,
               validate: bool = True) -> np.ndarray:
    """Row-stochastic P with rho(t) = rho(s) P, by rk4 on dP = P Q(tau).

    Validity of Q is spot-checked on the integration grid; tiny negative
    entries of the result are clipped to zero and logged as a warning.
    """
    rates = _as_reference(rates_like)
    _, dt, full, half = rk4_grid(rates, s, t, dt)
    if validate:
        _require_valid_stack(full[::max(1, len(half) // 16)])
    p = rk4_step_product(full, half, dt)
    low = p.min()
    if low < -1e-9:
        raise InvalidGenerator("propagator entry %r below tolerance" % low)
    if low < 0:
        _log.warning("clipped %d tiny negative propagator entries", int((p < 0).sum()))
        p = np.clip(p, 0.0, None)
    if np.max(np.abs(p.sum(axis=1) - 1.0)) > 1e-9:
        raise InvalidGenerator("propagator rows drifted off 1")
    return p


# -- path sampling ----------------------------------------------------------------------

_WORD = 0xFFFFFFFF


def philox4x32(ctr, key) -> list:
    """Philox4x32-10 (Salmon et al., SC'11) on arrays: four broadcasting
    32-bit counter words and two key words in, four uint64 word arrays out."""
    c0, c1, c2, c3 = (np.asarray(c, dtype=np.uint64) for c in ctr)
    k0, k1 = key
    for _ in range(10):
        p0, p1 = c0 * np.uint64(0xD2511F53), c2 * np.uint64(0xCD9E8D57)
        c0, c1, c2, c3 = ((p1 >> np.uint64(32)) ^ c1 ^ np.uint64(k0), p1 & np.uint64(_WORD),
                          (p0 >> np.uint64(32)) ^ c3 ^ np.uint64(k1), p0 & np.uint64(_WORD))
        k0, k1 = (k0 + 0x9E3779B9) & _WORD, (k1 + 0xBB67AE85) & _WORD
    return np.broadcast_arrays(c0, c1, c2, c3)


def _draws(key, j, path, lane) -> list:
    """Two uniforms strictly inside (0, 1) from draw j of each path on one lane:
    (k + 1/2) / 2^52 for k the top 52 bits of output words 0:1, then of 2:3."""
    path = np.asarray(path, dtype=np.uint64)
    w = philox4x32((j, path & np.uint64(_WORD), path >> np.uint64(32), lane), key)
    return [(((hi << np.uint64(20)) | (lo >> np.uint64(12))).astype(float) + 0.5) * 2.0 ** -52
            for hi, lo in (w[:2], w[2:])]


def _jump_targets(rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF column of each nonnegative rate row at a uniform in (0, 1);
    the total is the cumsum's own last entry, so the column carries rate."""
    cum = np.cumsum(rows, axis=1)
    return (cum < (u * cum[:, -1])[:, None]).sum(axis=1)


@dataclass(eq=False)
class Paths:
    """M sampled jump paths in CSR form: path k jumps at times[offsets[k]:
    offsets[k + 1]] and holds states[offsets[k] + k : offsets[k + 1] + k + 1],
    its start state and then one target per jump. Its stream is (seed, k)."""

    offsets: np.ndarray         # (M + 1,)
    times: np.ndarray
    states: np.ndarray          # len(times) + M entries
    seed: int
    n: int
    t0: float
    t1: float

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def states_at(self, times) -> np.ndarray:
        """(K, M) state of every path at each of K times; a jump at t counts from t on."""
        times = np.asarray(times, dtype=float)
        if times.size and (times.min() < self.t0 or times.max() > self.t1):
            raise ValueError("a time lies outside the sampled horizon")
        m = len(self)
        owner = np.repeat(np.arange(m), np.diff(self.offsets))
        first = self.offsets[:-1] + np.arange(m)
        return np.array([self.states[first + np.bincount(owner[self.times <= t], minlength=m)]
                         for t in times], dtype=np.int64).reshape(len(times), m)


def rate_bound(rates: ReferenceRates, t0: float, t1: float,
               grid_points: int = 1000, safety: float = 1.2) -> float:
    """Safety-factored bound on |Q_ii| from a time-grid scan."""
    stack = rates.at_many(np.linspace(t0, t1, grid_points))
    return safety * float(np.max(np.abs(np.diagonal(stack, axis1=1, axis2=2))))


def sample_paths(rates_like, rho0, n_paths: int, t0: float, t1: float,
                 seed: int, lam: float | None = None, grid_points: int = 1000,
                 chunk: int = 20000) -> Paths:
    """Thinning sampler: M independent paths of the (possibly inhomogeneous)
    jump process with generator Q(t), exact in distribution.

    Proposals arrive at rate lam; a proposal at tau from state i becomes a
    jump with probability |Q_ii(tau)| / lam, landing on j with probability
    Q_ij(tau) / |Q_ii(tau)|. Draws come from Philox4x32-10 keyed on the
    seed's two 32-bit words at counter (proposal j, path index low and high
    word, lane): lane 0 gives proposal j's gap and accept uniform, lane 1
    its jump-target uniform, lane 2 at j = 0 the start state. So a path
    depends only on (seed, path index), not on `chunk`, which bounds the
    (paths, n, n) rate stack of one step. lam must bound |Q_ii| on the grid
    check; a zero generator with lam = 0 never proposes.
    """
    rates = _as_reference(rates_like)
    seed = operator.index(seed)
    if not 0 <= seed < 2 ** 64:
        raise ValueError("seed %d outside the Philox key range [0, 2**64)" % seed)
    key = (seed & _WORD, seed >> 32)

    stack = rates.at_many(np.linspace(t0, t1, grid_points))
    _require_valid_stack(stack)
    peak = float(np.max(np.abs(np.diagonal(stack, axis1=1, axis2=2))))
    lam = 1.2 * peak if lam is None else lam
    if lam < peak:
        raise RateBoundExceeded(
            "|Q_ii| = %g on the rate grid exceeds the bound %g" % (peak, lam))

    cum0 = np.cumsum(_arr(rho0))
    state = np.searchsorted(cum0, _draws(key, 0, np.arange(n_paths), 2)[0] * cum0[-1])
    start = state.copy()
    cur_t = np.full(n_paths, float(t0))
    j = np.zeros(n_paths, dtype=np.uint64)
    events = [(np.empty(0, np.int64), np.empty(0), np.empty(0, np.int64))]
    for lo in range(0, n_paths if lam > 0 else 0, chunk):
        live = np.arange(lo, min(lo + chunk, n_paths))
        while len(live):
            u_gap, u_acc = _draws(key, j[live], live, 0)
            tau = cur_t[live] - np.log(u_gap) / lam
            inside = tau <= t1
            live, tau, u_acc = live[inside], tau[inside], u_acc[inside]
            if len(live) == 0:
                break
            q = rates.at_many(tau)
            diag = q[np.arange(len(live)), state[live], state[live]]
            if np.max(np.abs(diag)) > lam:
                raise RateBoundExceeded(
                    "|Q_ii| = %g exceeds the bound %g; rerun with larger safety"
                    % (np.max(np.abs(diag)), lam))
            accept = np.flatnonzero(u_acc < (-diag / lam))
            jump = live[accept]
            rows = np.clip(q[accept, state[jump]], 0.0, None)
            rows[np.arange(len(jump)), state[jump]] = 0.0
            # clamp-residue rows with no positive exit are no jump at all
            solid = rows.sum(axis=1) > 0
            jump, rows = jump[solid], rows[solid]
            state[jump] = _jump_targets(rows, _draws(key, j[jump], jump, 1)[0])
            events.append((jump, tau[accept[solid]], state[jump]))
            cur_t[live] = tau
            j[live] += np.uint64(1)

    owner, times, targets = map(np.concatenate, zip(*events))
    order = np.argsort(owner, kind="stable")      # each path's jumps stay in time order
    offsets = np.concatenate([[0], np.cumsum(np.bincount(owner, minlength=n_paths))])
    # path k's start state goes right before its first jump target
    return Paths(offsets, times[order], np.insert(targets[order], offsets[:-1], start),
                 seed, rates.n, float(t0), float(t1))


def empirical_densities(paths: Paths, times) -> np.ndarray:
    """(len(times), n) share of the paths in each state at each time."""
    if len(paths) == 0:
        raise ValueError("no samples")
    return np.array([np.bincount(row, minlength=paths.n) for row in paths.states_at(times)],
                    dtype=float).reshape(-1, paths.n) / len(paths)
