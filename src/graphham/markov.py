"""Jump-process machinery: rate matrices, propagators, path sampling.

Everything here uses the row convention: densities are row vectors and evolve
by d rho/dt = rho Q, so (rho Q)_j collects inflow Q_ij from each i and the
diagonal drain Q_jj. All constructed matrices are transcribed into this
convention and checked against the Hamiltonian density equations they encode.

Rate matrices extracted from phase-space states come in three kinds; a
Hamiltonian's own kind is HamiltonianSpec.rate_kind:

* upwind_ot      Q_ab = w_ab (S_b - S_a)^+ off the diagonal; mass rides the
                 potential gradient from the donor node. Always valid.
                 lp_kinetic takes the flux |S_b - S_a|^(q-1) sign(S_b - S_a)
                 in place of the gap here and in theta_general.
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

from .errors import (
    BoundaryDensity,
    InvalidGenerator,
    NoRateDecomposition,
    RateBoundExceeded,
)
from .graph import _arr
from .hamiltonians import (
    HamiltonianSpec,
    PhasePoint,
    ReferenceRates,
    _block_size,
    _capped,
    _dense,
    _kolmogorov,
    _kolmogorov_pairs,
    _lp_flow,
)

_log = logging.getLogger(__name__)
_MAX_STEPS = 10 ** 7   # steps of one fixed-step grid; the largest in use is 62,832


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
                % (self.kind, worst[0], worst[1], float(worst[2])))
        return self.entries


def _check_pairs(rates: ReferenceRates, stack: np.ndarray) -> np.ndarray:
    """The (K, n) diagonals of a (K, n, n) stack of rates, after raising validate_rate_matrix's
    InvalidGenerator for its first generator that fails the Kolmogorov rule on rates' pairs."""
    diagonals = np.diagonal(stack, axis1=1, axis2=2)
    invalid = _kolmogorov_pairs(diagonals, stack[:, rates.src, rates.dst], rates.src)[3]
    if invalid.any():
        validate_rate_matrix(stack[int(np.argmax(invalid))]).require_valid()
    return diagonals


def validate_rate_matrix(q: np.ndarray, kind: str = "raw") -> RateMatrix:
    """Kolmogorov check: off-diagonals >= 0, diagonal <= 0, zero row sums.

    Entries within 1e-12 of a violated sign bound are clamped (counted);
    anything worse is recorded as a violation and marks the matrix invalid.
    """
    q, clamp, bad, rows, bad_rows = _kolmogorov(np.array(q, dtype=float))
    ii, jj = np.nonzero(bad)                        # row-major order
    violations = list(zip(ii.tolist(), jj.tolist(), q[ii, jj]))
    violations += [(i, i, rows[i]) for i in np.flatnonzero(bad_rows).tolist()]
    return RateMatrix(q, kind, not violations, violations, int(clamp.sum()))


def build_rate_matrix(spec: HamiltonianSpec, state: PhasePoint, t: float = 0.0) -> RateMatrix:
    """Extract the jump generator of the spec's flow, of kind spec.rate_kind,
    at a phase-space state in the S chart: the K = 1 case of _rate_stack, scattered."""
    record = _rate_stack(spec, state.rho[None], state.pot[None], [t])
    return validate_rate_matrix(_dense(*_rate_pairs(spec), *record)[0], spec.rate_kind)


def _rate_pairs(spec: HamiltonianSpec) -> tuple:
    """(src, dst) of the pairs _rate_stack fills: the reference's for sbp, else the graph's."""
    pairs = spec.reference if spec.rate_kind == "sbp" else spec.graph
    return pairs.src, pairs.dst


def _rate_stack(spec: HamiltonianSpec, rho: np.ndarray, s: np.ndarray, times) -> tuple:
    """(K, n) diagonals and (K, P) rates on the pairs _rate_pairs(spec) of K generator
    candidates of kind spec.rate_kind, +0.0 elsewhere, at K states of the S chart, rows
    of rho and s, at their K times; unchecked by the Kolmogorov rule. Each candidate
    is element for element what one state gives alone.

    The index order is fixed by requiring rho Q to reproduce the density
    equation of the matching Hamiltonian flow, which pins every sign.
    """
    kind, g = spec.rate_kind, spec.graph
    count, n = rho.shape
    src, dst = _rate_pairs(spec)

    if kind == "sbp":
        if np.min(rho) <= 0:
            raise BoundaryDensity("reweighted rates need interior masses")
        m = spec.reference.records(times)[1]
        # e^{S_b - S_a} where m carries rate
        ex = np.exp(_capped(s[:, dst] - s[:, src], m != 0))
        rate = ex * np.sqrt(rho[:, dst] / rho[:, src]) * m
    else:
        ds = s[:, src] - s[:, dst]                  # S_a - S_b
        # the flow's flux function of the gaps; at q = 2 it is the gap itself
        flow = _lp_flow(ds, spec.q) if spec.variant == "lp_kinetic" and spec.q != 2 else ds
        if kind == "upwind_ot":
            rate = g.w * np.clip(-flow, 0.0, None)
        elif spec.theta.kind == "average":
            rate = 0.5 * g.w * (-flow)
        else:                                       # the log-mean splitting
            if np.min(rho) <= 0:
                raise BoundaryDensity("log-mean splitting needs interior masses")
            logs = np.log(rho)
            dlog = logs[:, src] - logs[:, dst]
            if (np.abs(dlog) < 1e-12).any():
                raise NoRateDecomposition("log-mean splitting degenerates at equal masses")
            rate = -g.w * flow / dlog
    # the diagonal sums -rate over each state's pairs in order (bins k n + src),
    # which keeps it +0.0 in a row without outflow, as rates.json writes it
    bins = (n * np.arange(count)[:, None] + src).ravel()
    return np.bincount(bins, -rate.ravel(), minlength=count * n).reshape(count, n), rate


# -- propagators ----------------------------------------------------------------------


def _step_count(t0: float, t1: float, dt: float) -> int:
    """Steps of dt from t0 to t1, rounded and at least one; ValueError for a reversed
    window, a dt <= 0, or a count that is not finite or is above _MAX_STEPS."""
    if t1 < t0 or not dt > 0:
        raise ValueError("no forward grid from t0 = %r to t1 = %r by dt = %r" % (t0, t1, dt))
    count = (t1 - t0) / dt
    if not count <= _MAX_STEPS:
        raise ValueError("%r steps of dt = %r exceed the cap of %d" % (count, dt, _MAX_STEPS))
    return max(1, int(round(count)))


class LinearGrid:
    """The rk4 grid of d rho = rho m(t) over [t0, t1]: its times and its rounded
    dt. blocks() evaluates m at each block's grid times and midpoints as it
    goes; product() and kernel() reduce its step matrices, march() steps on them."""

    def __init__(self, rates: ReferenceRates, t0: float, t1: float, dt: float):
        steps = _step_count(t0, t1, dt)
        self.rates = rates
        self.dt = (t1 - t0) / steps
        self.times = t0 + self.dt * np.arange(steps + 1)

    def blocks(self, check: bool = False):
        """Yield the rk4 step matrices R_k = I + dt (m0 + 2 k2 + 2 k3 + k4) / 6
        of dU = U m(t) in order, in (b, n, n) blocks of _block_size(n) matrices.
        With check, a time-dependent m must pass the Kolmogorov rule on its
        pairs at each block's grid times, then at its midpoints, before its steps.

        R_k is one rk4 step from U = I, so k1 = I m0 = m0. It also serves the
        backward factor: the rk4 step of dg/dt = -m g from t_{k+1} back to t_k
        expands to the same polynomial in (m0, mh, m1), so g_k = R_k g_{k+1}.
        """
        times, dt = self.times, self.dt
        eye = np.eye(self.rates.n)
        block, steps = _block_size(len(eye)), len(times) - 1
        for lo in range(0, steps, block):
            hi = min(lo + block, steps)
            full = self.rates.at_many(times[lo:hi + 1])
            mh = self.rates.at_many(times[lo:hi] + 0.5 * dt)
            if check and not self.rates.constant:
                _check_pairs(self.rates, full)
                _check_pairs(self.rates, mh)
            m0, m1 = full[:-1], full[1:]
            k2 = (eye + 0.5 * dt * m0) @ mh
            k3 = (eye + 0.5 * dt * k2) @ mh
            k4 = (eye + dt * k3) @ m1
            yield eye + dt * (m0 + 2 * k2 + 2 * k3 + k4) / 6.0

    def product(self, blocks) -> np.ndarray:
        """R_0 R_1 ... R_{K-1}, rk4 for dU = U m(t) from U = I: each block is
        reduced by pairwise products in order and multiplies the running product."""
        u = np.eye(self.rates.n)
        for r in blocks:
            while len(r) > 1:
                paired = r[0:len(r) - 1:2] @ r[1::2]
                r = np.concatenate([paired, r[-1:]]) if len(r) % 2 else paired
            u = u @ r[0]
        return u

    def kernel(self, blocks) -> np.ndarray:
        """The product of checked blocks, blocks(check=True), as a row-stochastic
        kernel: tiny negative entries are clipped to zero with a warning, a worse
        one or a row sum off 1 raises."""
        p = self.product(blocks)
        low = p.min()
        if low < -1e-9:
            raise InvalidGenerator("propagator entry %r below tolerance" % float(low))
        if low < 0:
            _log.warning("clipped %d tiny negative propagator entries", int((p < 0).sum()))
            p = np.clip(p, 0.0, None)
        if np.max(np.abs(p.sum(axis=1) - 1.0)) > 1e-9:
            raise InvalidGenerator("propagator rows drifted off 1")
        return p

    def march(self, blocks: list, f0=None, g1=None):
        """(f, g) at the grid times by f_{k+1} = f_k R_k from f0 and g_k = R_k g_{k+1}
        from g1, over a list of the blocks; a factor without a seed is None."""
        f = g = None
        if f0 is not None:
            f = np.empty((len(self.times), self.rates.n))
            f[0] = _arr(f0)
            for k, r in enumerate(r for block in blocks for r in block):
                f[k + 1] = f[k] @ r
        if g1 is not None:
            g = np.empty((len(self.times), self.rates.n))
            g[-1] = _arr(g1)
            for k, r in enumerate(r for block in reversed(blocks) for r in block[::-1]):
                g[-k - 2] = r @ g[-k - 1]
        return f, g


def propagator(rates: ReferenceRates, s: float, t: float, dt: float = 1e-3) -> np.ndarray:
    """Row-stochastic P with rho(t) = rho(s) P: the LinearGrid kernel from s to t."""
    grid = LinearGrid(rates, s, t, dt)
    return grid.kernel(grid.blocks(check=True))


# -- path sampling ----------------------------------------------------------------------

_WORD = 0xFFFFFFFF
_BOUND_GRID = 1000      # evenly spaced times on which path_chunks checks Q and bounds |Q_ii|
_ROUND_PATHS = 20000    # most paths of one proposal round: README's measured best at n = 2 and 8
_ROUND_ENTRIES = 1 << 20   # most entries of one round's (paths, n) arrays: 8 MB of floats
# Philox's round multipliers, and the uint64 shifts and mask of its words and uniforms
_MUL0, _MUL1 = np.uint64(0xD2511F53), np.uint64(0xCD9E8D57)
_U12, _U20, _U32, _LOW = np.uint64(12), np.uint64(20), np.uint64(32), np.uint64(_WORD)


def philox4x32(ctr, key) -> list:
    """Philox4x32-10 (Salmon et al., SC'11) on arrays: four broadcasting
    32-bit counter words and two key words in, four uint64 word arrays out.
    The counter arrays passed in are left as they are."""
    c0, c1, c2, c3 = (w.copy() for w in np.broadcast_arrays(
        *(np.asarray(c, dtype=np.uint64) for c in ctr)))
    p0, p1, hi = np.empty_like(c0), np.empty_like(c0), np.empty_like(c0)
    k0, k1 = key
    for _ in range(10):
        np.multiply(c0, _MUL0, out=p0)
        np.multiply(c2, _MUL1, out=p1)
        # in place: the new words 0 and 2 in the old 1 and 3, the new 1 and 3 in
        # p1 and p0; the old words 0 and 2 are the next round's products
        c1 ^= np.right_shift(p1, _U32, out=hi)
        c1 ^= np.uint64(k0)
        c3 ^= np.right_shift(p0, _U32, out=hi)
        c3 ^= np.uint64(k1)
        p1 &= _LOW
        p0 &= _LOW
        c0, c1, c2, c3, p0, p1 = c1, p1, c3, p0, c0, c2
        k0, k1 = (k0 + 0x9E3779B9) & _WORD, (k1 + 0xBB67AE85) & _WORD
    return [c0, c1, c2, c3]


def _draws(key, j, path, lane) -> list:
    """Two uniforms strictly inside (0, 1) from draw j of each path on one lane:
    (k + 1/2) / 2^52 for k the top 52 bits of output words 0:1, then of 2:3.
    Each is built in a fresh array; Philox's words are only read."""
    path = np.asarray(path, dtype=np.uint64)
    w = philox4x32((j, path & _LOW, path >> _U32, lane), key)
    out = []
    for hi, lo in (w[:2], w[2:]):
        k = hi << _U20
        k |= lo >> _U12
        out.append(k.astype(float))
        out[-1] += 0.5
        out[-1] *= 2.0 ** -52
    return out


def _jump_targets(rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF column of each nonnegative rate row at a uniform in (0, 1);
    the total is the cumsum's own last entry, so the column carries rate."""
    cum = np.cumsum(rows, axis=1)
    return (cum < u[:, None] * cum[:, -1:]).sum(axis=1)


@dataclass(eq=False)
class Paths:
    """M sampled jump paths in CSR form: path k jumps at times[offsets[k]:
    offsets[k + 1]] and holds states[offsets[k] + k : offsets[k + 1] + k + 1],
    its start state and then one target per jump. Path k is path first + k
    of its run, and its stream is (seed, first + k)."""

    offsets: np.ndarray         # (M + 1,)
    times: np.ndarray
    states: np.ndarray          # len(times) + M entries
    seed: int
    n: int
    t0: float
    t1: float
    first: int = 0              # the run's index of path 0

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def counts_at(self, times) -> np.ndarray:
        """(K, n) number of paths in each state at each of K times, one time at a
        time: counts of consecutive chunks of a run add up to the run's. A jump
        at t counts from t on."""
        times = np.asarray(times, dtype=float)
        if times.size and (times.min() < self.t0 or times.max() > self.t1):
            raise ValueError("a time lies outside the sampled horizon")
        m = len(self)
        owner = np.repeat(np.arange(m), np.diff(self.offsets))
        begin = self.offsets[:-1] + np.arange(m)         # each path's start state
        rows = (self.states[begin + np.bincount(owner[self.times <= t], minlength=m)]
                for t in times)
        return np.array([np.bincount(row, minlength=self.n) for row in rows],
                        dtype=np.int64).reshape(-1, self.n)


def path_chunks(rates: ReferenceRates, rho0, n_paths: int, t0: float, t1: float, seed: int):
    """The paths of sample_paths as an iterator of Paths, one per proposal round
    of min(_ROUND_PATHS, _ROUND_ENTRIES // n) consecutive paths, at least one
    (the last may hold fewer), each carrying its first path's index.

    The proposal rate is lam = 1.2 times the largest |Q_ii| on _BOUND_GRID evenly
    spaced times of [t0, t1], a stored source's read off the diagonals of the
    records they read. The seed, the Kolmogorov check of a function of time on
    its pairs (a stored source was checked where it was made) and the bound scan
    run when this is called, before any chunk is drawn, so a refusal comes before
    a caller has written anything. A chunk's jumps are ordered by path within the
    chunk only, and the chunks are drawn one at a time as the iterator is read: a
    caller that writes or tallies each chunk and drops it holds one round's (paths,
    w) rate rows, w < n, of at most _ROUND_ENTRIES entries, whatever n_paths and n are.
    """
    seed = operator.index(seed)
    if not 0 <= seed < 2 ** 64:
        raise ValueError("seed %d outside the Philox key range [0, 2**64)" % seed)

    grid = np.linspace(t0, t1, _BOUND_GRID)
    if rates._diagonals is not None:
        peak = float(np.abs(rates._diagonals).max(axis=1)[rates._index(grid)].max())
    else:   # blocks are sized as ReferenceRates.rows sizes them
        peak, size = 0.0, max(_block_size(rates.n), -(-len(grid) // rates.n))
        for lo in range(0, len(grid), size):
            diagonals = _check_pairs(rates, rates.at_many(grid[lo:lo + size]))
            peak = max(peak, float(np.max(np.abs(diagonals))))
    key, cum0, lam = (seed & _WORD, seed >> 32), np.cumsum(_arr(rho0)), 1.2 * peak
    chunk = min(_ROUND_PATHS, max(1, _ROUND_ENTRIES // rates.n))
    # a generator: each chunk is drawn as it is asked for, and nothing of it kept
    return (Paths(*_draw(rates, key, lam, cum0, np.arange(lo, min(lo + chunk, n_paths)), t0, t1),
                  seed, rates.n, float(t0), float(t1), first=lo)
            for lo in range(0, n_paths, chunk))


def _draw(rates: ReferenceRates, key, lam: float, cum0, ids, t0, t1) -> tuple:
    """(offsets, times, states) of the paths with stream indices ids: their
    start states from the cumulative start density cum0, then the proposal
    rounds until every path has passed t1."""
    state = np.searchsorted(cum0, _draws(key, 0, ids, 2)[0] * cum0[-1])
    start = state.copy()
    cur_t = np.full(len(ids), float(t0))
    j = np.zeros(len(ids), dtype=np.uint64)
    count = np.zeros(len(ids), dtype=np.int64)      # jumps of each path so far
    events = []
    # live and jump index the chunk; ids[live] are the paths' stream indices
    live = np.arange(len(ids) if lam > 0 else 0)
    while len(live):
        u_gap, u_acc = _draws(key, j[live], ids[live], 0)
        tau = cur_t[live] - np.log(u_gap) / lam
        inside = tau <= t1
        live, tau, u_acc = live[inside], tau[inside], u_acc[inside]
        if len(live) == 0:
            break
        diag, q, cols = rates.rows(tau, state[live])
        if np.max(np.abs(diag)) > lam:
            raise RateBoundExceeded(
                "|Q_ii| = %g exceeds the bound %g, 1.2 times its largest value on the rate grid"
                % (np.max(np.abs(diag)), lam))
        q = np.clip(q, 0.0, None)
        # clamp-residue rows with no positive exit are no jump at all
        accept = np.flatnonzero((u_acc < (-diag / lam)) & (q.sum(axis=1) > 0))
        jump = live[accept]
        target = _jump_targets(q[accept], _draws(key, j[jump], ids[jump], 1)[0])
        state[jump] = cols[accept, target]
        events.append((jump, tau[accept], state[jump]))
        count[jump] += 1
        cur_t[live] = tau
        j[live] += np.uint64(1)

    # path k holds states[offsets[k] + k], its start state, then its jump targets
    # in the order of the rounds that made them, which is their time order
    offsets = np.concatenate([[0], np.cumsum(count)])
    times = np.empty(offsets[-1])
    states = np.empty(offsets[-1] + len(ids), dtype=np.int64)
    at = offsets[:-1] + np.arange(len(ids))
    states[at] = start
    for jump, tau, target in events:
        at[jump] += 1
        states[at[jump]] = target
        times[at[jump] - jump - 1] = tau
    return offsets, times, states


def sample_paths(rates: ReferenceRates, rho0, n_paths: int, t0: float, t1: float,
                 seed: int) -> Paths:
    """Thinning sampler: M independent paths of the (possibly inhomogeneous)
    jump process with generator Q(t), exact in distribution.

    Proposals arrive at rate lam; a proposal at tau from state i becomes a
    jump with probability |Q_ii(tau)| / lam, landing on j with probability
    Q_ij(tau) / |Q_ii(tau)|. Draws come from Philox4x32-10 keyed on the
    seed's two 32-bit words at counter (proposal j, path index low and high
    word, lane): lane 0 gives proposal j's gap and accept uniform, lane 1
    its jump-target uniform, lane 2 at j = 0 the start state. So a path
    depends only on (seed, path index), not on the paths one proposal round
    carries, which path_chunks sizes from n. Each proposal reads only its
    current state's support rates, through ReferenceRates.rows, so a round
    holds (paths, w) arrays, w < n. lam is path_chunks' bound; a proposal
    whose |Q_ii| exceeds it raises RateBoundExceeded, and a zero generator
    never proposes.

    This is the concatenation of path_chunks' chunks, so it holds every
    path at once; a caller that can take the paths chunk by chunk should.
    """
    parts = list(path_chunks(rates, rho0, n_paths, t0, t1, seed))
    offsets = np.concatenate([[0], *(np.diff(p.offsets) for p in parts)]).cumsum()
    return Paths(offsets, np.concatenate([np.empty(0), *(p.times for p in parts)]),
                 np.concatenate([np.empty(0, np.int64), *(p.states for p in parts)]),
                 operator.index(seed), rates.n, float(t0), float(t1))


def empirical_densities(paths: Paths, times) -> np.ndarray:
    """(len(times), n) share of the paths in each state at each time: their
    integer counts over M."""
    if len(paths) == 0:
        raise ValueError("no samples")
    return paths.counts_at(times) / len(paths)
