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

import warnings
from dataclasses import dataclass, field

import numpy as np

from .dynamics import rk4_grid, rk4_step_product
from .errors import (
    BoundaryDensity,
    InvalidGenerator,
    RateBoundExceeded,
)
from .graph import Graph, _arr
from .hamiltonians import (
    HamiltonianSpec,
    PhasePoint,
    ReferenceRates,
    _carrying,
    _guarded_exp,
    constant_rates,
)

_OFF_TOL = 1e-12
_DIAG_TOL = 1e-12
_ROW_TOL = 1e-10


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


def _kolmogorov(q: np.ndarray):
    """Kolmogorov rule over a (..., n, n) stack of generator candidates.

    Returns (clamped, clamp, bad, rows, bad_rows): the stack with entries
    within 1e-12 of a violated sign bound zeroed (q itself when none are),
    the mask of those entries, the mask of worse sign violations, the row
    sums of the clamped stack and the mask of rows off zero beyond 1e-10.
    """
    diag = np.eye(q.shape[-1], dtype=bool)
    bad = np.where(diag, q > _DIAG_TOL, q < -_OFF_TOL)
    clamp = np.where(diag, q > 0, q < 0) & ~bad
    if clamp.any():
        q = np.where(clamp, 0.0, q)
    rows = q.sum(axis=-1)
    return q, clamp, bad, rows, np.abs(rows) > _ROW_TOL


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
    ds = s[:, None] - s[None, :]                    # S_i - S_j

    if kind == "upwind_ot":
        q = g.weight * np.clip(-ds, 0.0, None)      # w_ab (S_b - S_a)^+
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, (g.weight * np.minimum(ds, 0.0)).sum(axis=1))
        return validate_rate_matrix(q, kind)

    if kind == "sbp":
        if reference is None:
            raise ValueError("sbp kind needs reference rates")
        if np.min(rho) <= 0:
            raise BoundaryDensity("reweighted rates need interior masses")
        m = reference.at(t)
        ex = _guarded_exp(-ds, _carrying(reference, m))  # e^{S_b - S_a} where m carries rate
        q = ex * np.sqrt(rho[None, :] / rho[:, None]) * m
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, -q.sum(axis=1))
        return validate_rate_matrix(q, kind)

    if kind == "theta_general":
        if theta_kind is None:
            raise ValueError("theta_general kind needs a theta kind")
        if theta_kind.kind == "average":
            q = 0.5 * g.weight * (-ds)
            np.fill_diagonal(q, 0.0)
            np.fill_diagonal(q, 0.5 * (g.weight * ds).sum(axis=1))
        elif theta_kind.kind == "logmean":
            if np.min(rho) <= 0:
                raise BoundaryDensity("log-mean splitting needs interior masses")
            dlog = np.log(rho)[:, None] - np.log(rho)[None, :]
            off = np.abs(dlog) < 1e-12
            np.fill_diagonal(off, False)
            if (off & g.adjacency).any():
                raise ValueError("log-mean splitting degenerates at equal masses")
            safe = np.where(np.abs(dlog) < 1e-300, 1.0, dlog)
            q = np.where(g.adjacency, -g.weight * ds / safe, 0.0)
            np.fill_diagonal(q, (np.where(g.adjacency, g.weight * ds / safe, 0.0)).sum(axis=1))
        else:
            raise ValueError("theta_general supports average or logmean")
        return validate_rate_matrix(q, kind)

    raise ValueError("unknown rate-matrix kind %r" % kind)


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
    entries of the result are clipped to zero with a warning.
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
        warnings.warn("clipped %d tiny negative propagator entries"
                      % int((p < 0).sum()), stacklevel=2)
        p = np.clip(p, 0.0, None)
    if np.max(np.abs(p.sum(axis=1) - 1.0)) > 1e-9:
        raise InvalidGenerator("propagator rows drifted off 1")
    return p


# -- path sampling ----------------------------------------------------------------------


@dataclass
class PathSample:
    """One realized jump path: state is states[k] on [jump boundary k, k+1)."""

    jump_times: np.ndarray
    states: np.ndarray          # len(jump_times) + 1 entries
    seed: tuple                 # (base seed, path index)
    n: int
    t0: float = 0.0
    t1: float = 1.0

    def state_at(self, t: float) -> int:
        if not (self.t0 <= t <= self.t1):
            raise ValueError("time %g outside the sampled horizon" % t)
        return int(self.states[np.searchsorted(self.jump_times, t, side="right")])


def rate_bound(rates: ReferenceRates, t0: float, t1: float,
               grid_points: int = 1000, safety: float = 1.2) -> float:
    """Safety-factored bound on |Q_ii| from a time-grid scan."""
    ts = np.linspace(t0, t1, grid_points)
    stack = rates.at_many(ts)
    return safety * float(np.max(np.abs(np.diagonal(stack, axis1=1, axis2=2))))


_BLOCK_MARGIN = 10.0


def sample_paths(rates_like, rho0, n_paths: int, t0: float, t1: float,
                 seed: int, lam: float | None = None, grid_points: int = 1000,
                 chunk: int = 20000) -> list:
    """Thinning sampler: M independent paths of the (possibly inhomogeneous)
    jump process with generator Q(t), exact in distribution.

    Proposals arrive at rate lam; a proposal at tau from state i becomes a
    jump with probability |Q_ii(tau)| / lam, landing on j with probability
    Q_ij(tau) / |Q_ii(tau)|. Each path owns the RNG stream (seed, index), so
    results are reproducible and independent of chunking. lam must bound
    |Q_ii| on the grid check; a zero generator with lam = 0 never proposes.
    """
    rates = _as_reference(rates_like)
    rho0 = _arr(rho0)
    n = rates.n

    stack = rates.at_many(np.linspace(t0, t1, grid_points))
    _require_valid_stack(stack)
    peak = float(np.max(np.abs(np.diagonal(stack, axis1=1, axis2=2))))
    if lam is None:
        lam = 1.2 * peak
    if lam < peak:
        raise RateBoundExceeded(
            "|Q_ii| = %g on the rate grid exceeds the bound %g" % (peak, lam))

    span = t1 - t0
    block = int(lam * span + _BLOCK_MARGIN * np.sqrt(lam * span) + _BLOCK_MARGIN)
    cum0 = np.cumsum(rho0)
    out = [None] * n_paths

    def run_chunk(lo: int, hi: int) -> list:
        b = hi - lo
        gens = [np.random.default_rng([seed, k]) for k in range(lo, hi)]
        init_u = np.array([g.random() for g in gens])
        state = np.searchsorted(cum0, init_u, side="right").astype(np.int64)
        # every path starts on a worn block, so the first pass draws it
        exps = np.empty((b, block))
        us = np.empty((b, block, 2))
        cur_t = np.full(b, t0)
        col = np.full(b, block, dtype=np.int64)
        active = np.full(b, lam > 0)
        ev_path, ev_time, ev_from, ev_to = [], [], [], []

        while active.any():
            idx = np.flatnonzero(active)
            # paths that exhausted their block get a fresh one, same stream
            worn = idx[col[idx] >= block]
            for k in worn:
                exps[k] = gens[k].exponential(scale=1.0 / lam, size=block)
                us[k] = gens[k].random((block, 2))
            col[worn] = 0
            tau = cur_t[idx] + exps[idx, col[idx]]
            over = tau > t1
            active[idx[over]] = False
            live = idx[~over]
            if len(live) == 0:
                break
            tau = tau[~over]
            q = rates.at_many(tau)
            diag = q[np.arange(len(live)), state[live], state[live]]
            if np.max(np.abs(diag)) > lam:
                raise RateBoundExceeded(
                    "|Q_ii| = %g exceeds the bound %g; rerun with larger safety"
                    % (np.max(np.abs(diag)), lam))
            accept = us[live, col[live], 0] < (-diag / lam)
            jump = live[accept]
            tau_j = tau[accept]
            if len(jump) > 0:
                rows = q[accept][np.arange(len(jump)), state[jump], :]
                rows[np.arange(len(jump)), state[jump]] = 0.0
                rows = np.clip(rows, 0.0, None)
                tot = rows.sum(axis=1)
                # clamp-residue rows with no positive exit are no jump at all
                solid = tot > 0
                jump, rows, tot, tau_j = jump[solid], rows[solid], tot[solid], tau_j[solid]
            if len(jump) > 0:
                cum = np.cumsum(rows, axis=1)
                u2 = us[jump, col[jump], 1] * tot
                tgt = (cum < u2[:, None]).sum(axis=1)
                ev_path.append(jump + lo)
                ev_time.append(tau_j)
                ev_from.append(state[jump].copy())
                ev_to.append(tgt.astype(np.int64))
                state[jump] = tgt
            cur_t[live] = tau
            col[live] += 1

        if ev_path:
            p_arr = np.concatenate(ev_path)
            t_arr = np.concatenate(ev_time)
            f_arr = np.concatenate(ev_from)
            to_arr = np.concatenate(ev_to)
            order = np.lexsort((t_arr, p_arr))
            p_arr, t_arr, f_arr, to_arr = p_arr[order], t_arr[order], f_arr[order], to_arr[order]
            bounds = np.searchsorted(p_arr, np.arange(lo, hi + 1))
        else:
            bounds = np.zeros(hi - lo + 1, dtype=int)
            t_arr = np.empty(0)
            f_arr = np.empty(0, dtype=np.int64)
            to_arr = np.empty(0, dtype=np.int64)

        part = []
        for k in range(lo, hi):
            a, z = bounds[k - lo], bounds[k - lo + 1]
            if z > a:
                sts = np.concatenate([[f_arr[a]], to_arr[a:z]])
            else:
                sts = state[k - lo:k - lo + 1].copy()
            part.append(PathSample(t_arr[a:z].copy(), sts.astype(np.int64),
                                   (seed, k), n, t0, t1))
        return part

    for lo in range(0, n_paths, chunk):
        hi = min(lo + chunk, n_paths)
        out[lo:hi] = run_chunk(lo, hi)
    return out


def empirical_densities(samples: list, times) -> np.ndarray:
    """(len(times), n) histogram matrix; one searchsorted pass per path."""
    if not samples:
        raise ValueError("no samples")
    times = np.asarray(times, dtype=float)
    counts = np.zeros((len(times), samples[0].n))
    rows = np.arange(len(times))
    for s in samples:
        if times.min() < s.t0 or times.max() > s.t1:
            raise ValueError("a checkpoint lies outside the sampled horizon")
        sts = s.states[np.searchsorted(s.jump_times, times, side="right")]
        counts[rows, sts] += 1
    return counts / len(samples)
