"""Discrete bridge problems over a reference jump process.

Given a reference process with generator m(t) and two endpoint marginals,
the bridge is the path law closest to the reference in relative entropy
among those hitting both marginals. It is found by alternating marginal
fits of the endpoint coupling (the classical iterative proportional
fitting loop) and realized as a reweighting of the reference: the bridged
generator is the h-transform m_hat_ij = m_ij g_j(t) / g_i(t) with g the
backward factor.

Conventions: densities are row vectors, d rho/dt = rho m. The backward
factor solves dg/dt = -m g with terminal seed g(1); the forward factor
solves df/dt = f m. The product f g is the bridged density.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BoundaryDensity,
    BoundaryMarginal,
    InvalidGenerator,
    NonconvergedIPFP,
    NonpositiveFG,
    NonsmoothSpec,
    NoFeasibleK,
    NoRateDecomposition,
    NotInterior,
    NotStationary,
    NegativeStepProbability,
    PathExplosion,
    SupportMismatch,
)
from .graph import _arr
from .hamiltonians import (HamiltonianSpec, PhasePoint, ReferenceRates, _BLOCK_ENTRIES,
                           _RecordedRates, _block_size)
from .dynamics import integrate
from .markov import _MAX_STEPS, LinearGrid, build_rate_matrix

_RATE_MARGIN = 1e-9       # least off-diagonal rate of a constructed periodic generator
_RESIDUAL_STEP = 1e-4     # time step of markov_condition_residual's difference
_DUAL_SLACK = 1e-12       # relative rounding slack of the IPFP dual's rise per half-step
_MAX_SWEEPS = 200         # IPFP sweeps after which solve_bridge gives up on the tolerance


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    top = np.max(a, axis=axis, keepdims=True)
    top = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        return np.squeeze(top, axis=axis) + np.log(
            np.exp(a - top).sum(axis=axis))


def relative_entropy(p, q) -> float:
    """Sum of p log(p/q), with 0 log 0 = 0; p charging a q-null atom is an error."""
    p, q = _arr(p), _arr(q)
    on = p > 0
    if np.any(q[on] <= 0):
        raise SupportMismatch("first argument charges a null atom of the second")
    return float(np.sum(p[on] * np.log(p[on] / q[on])))


# -- relative entropy rate -------------------------------------------------------------


def relative_entropy_rate(rho, m_hat: np.ndarray, m: np.ndarray):
    """Instantaneous entropy production of rates m_hat against reference m.

    Sums rho_i u(m_hat_ij / m_ij) m_ij over ordered pairs, u(x) = x log x - x + 1
    continuously extended by u(0) = 1. Channels absent from both generators
    contribute nothing; a channel open in m_hat but closed in m is a support
    mismatch. A (T, n) stack of rho with (T, n, n) stacks of generators gives
    the (T,) rates; one rho with one pair of generators gives a float.
    """
    rho = _arr(rho)
    off = ~np.eye(rho.shape[-1], dtype=bool)
    on = off & (m > 0)
    if np.any(off & (m_hat > 0) & (m <= 0)):
        raise SupportMismatch("bridged rates leave the reference support")
    x = np.divide(m_hat, m, out=np.zeros(on.shape), where=on)
    # u(x) m in place, so a stack holds two (T, n, n) arrays; log stays 0 at x = 0
    cell = np.log(x, out=np.zeros_like(x), where=x > 0)
    cell *= x
    cell -= x
    cell += 1.0
    cell *= m
    cell[~on] = 0.0
    cell *= rho[..., :, None]
    total = cell.sum(axis=(-2, -1))
    return total if total.ndim else float(total)


def integrated_entropy_rate(times: np.ndarray, rho: np.ndarray,
                            m_hat: np.ndarray, m: np.ndarray) -> float:
    """Trapezoid rule over a uniformly sampled trajectory of the rate above."""
    return _trapezoid(times, relative_entropy_rate(rho, m_hat, m))


def _trapezoid(times: np.ndarray, values: np.ndarray) -> float:
    return float((times[1] - times[0]) * (values.sum() - 0.5 * (values[0] + values[-1])))


# -- the bridge solver ------------------------------------------------------------------


@dataclass
class BridgeProblem:
    reference: ReferenceRates
    rho0: np.ndarray
    rho1: np.ndarray
    reference_initial: np.ndarray | None = None   # reference law at time 0; uniform if omitted
    t0: float = 0.0
    t1: float = 1.0

    def __post_init__(self):
        self.rho0 = _arr(self.rho0)
        self.rho1 = _arr(self.rho1)
        if self.reference_initial is None:
            self.reference_initial = np.full(self.reference.n, 1.0 / self.reference.n)
        else:
            self.reference_initial = _arr(self.reference_initial)


@dataclass
class BridgeSolution:
    problem: BridgeProblem
    times: np.ndarray
    f: np.ndarray               # forward factor on the grid, (T, n)
    g: np.ndarray               # backward factor on the grid, (T, n)
    rho: np.ndarray             # bridged density f g, (T, n)
    m_hat: np.ndarray           # bridged generators, (T, n, n)
    iterations: int
    residuals: tuple            # final (initial, terminal) L1 marginal gaps
    objective: list             # minus the entropic dual after each sweep, nonincreasing
    coupling_entropy: list      # relative entropy of the coupling per sweep
    entropy: float              # integrated entropy production of m_hat vs m

    def rates(self) -> ReferenceRates:
        src, dst = np.nonzero(~np.eye(self.problem.reference.n, dtype=bool))   # every pair
        return _RecordedRates(self.times[0], float(self.times[1] - self.times[0]),
                              np.diagonal(self.m_hat, axis1=1, axis2=2), self.m_hat[:, src, dst], src, dst)


def solve_bridge(problem: BridgeProblem, dt: float = 1e-3, tol: float = 1e-8) -> BridgeSolution:
    """Fit the bridge between rho0 and rho1 over the reference process.

    Alternates exact marginal fits of the endpoint coupling e^phi_i K_ij e^gam_j
    in log space, starting from a flat forward scaling, then expands the fitted
    endpoint factors into the full factor pair (f, g) and the bridged generators.

    Each half-step maximizes the entropic dual
    D = <phi, rho0> + <gam, rho1> - sum_ij e^phi_i K_ij e^gam_j over its
    scaling. A fall of D beyond _DUAL_SLACK max(1, |D|), a non-finite
    scaling or D, or residuals still above tol after _MAX_SWEEPS sweeps
    raises NonconvergedIPFP; -D after each sweep is recorded in
    the nonincreasing `objective`. `coupling_entropy` records the relative
    entropy of the coupling against ref0_i K_ij per sweep, from its row and
    column masses; it approaches the bridge cost from either side.
    """
    rho0, rho1 = problem.rho0, problem.rho1
    for name, r in (("initial", rho0), ("terminal", rho1),
                    ("reference initial", problem.reference_initial)):
        if np.min(r) <= 0:
            raise BoundaryMarginal("%s marginal touches the simplex boundary" % name)
        if abs(r.sum() - 1.0) > 1e-9:
            raise ValueError("%s marginal does not sum to 1" % name)

    # one list of the grid's rk4 step blocks serves the endpoint kernel, which
    # is what propagator would return, and the factor march
    reference = problem.reference
    grid = LinearGrid(reference, problem.t0, problem.t1, dt)
    blocks = list(grid.blocks(check=True))
    k = grid.kernel(blocks)
    with np.errstate(divide="ignore"):
        logk = np.log(k)
        logr0, logr1 = np.log(rho0), np.log(rho1)
    logref0 = np.log(problem.reference_initial)

    phi = np.zeros(reference.n)
    kt_f0 = k.sum(axis=0)           # K^T e^phi at the flat seed
    objective, coupling_entropy, history = [], [], []
    dual = -np.inf
    residuals = (np.inf, np.inf)
    failure = None
    for it in range(1, _MAX_SWEEPS + 1):
        # overflowing scalings turn into the non-finite check below
        with np.errstate(over="ignore", invalid="ignore"):
            gam = logr1 - _logsumexp(phi[:, None] + logk, axis=0)
            g1 = np.exp(gam)
            duals = [phi @ rho0 + gam @ rho1 - g1 @ kt_f0]
            phi = logr0 - _logsumexp(logk + gam[None, :], axis=1)
            f0 = np.exp(phi)
            row, kt_f0 = f0 * (k @ g1), k.T @ f0
            col = g1 * kt_f0
            duals.append(phi @ rho0 + gam @ rho1 - row.sum())
        if not np.isfinite(np.concatenate([f0, g1, duals])).all():
            failure = "scalings or dual not finite at sweep %d" % it
            break
        fall = np.subtract([dual, duals[0]], duals)     # per half-step
        if (fall > _DUAL_SLACK * np.maximum(1.0, np.abs(duals))).any():
            failure = "dual fell by %g at sweep %d" % (fall.max(), it)
            break
        dual = duals[1]
        residuals = (float(np.abs(row - rho0).sum()), float(np.abs(col - rho1).sum()))
        history.append(residuals)
        objective.append(-float(dual))
        coupling_entropy.append(
            float((phi - logref0) @ row + gam @ col - row.sum() + 1.0))
        if max(residuals) <= tol:
            break
    else:
        failure = "marginal residuals %r still above %g after %d sweeps" % (
            residuals, tol, _MAX_SWEEPS)
    if failure is not None:
        err = NonconvergedIPFP(failure, residuals)
        err.history = history
        raise err

    f, g = grid.march(blocks, f0=f0, g1=g1)
    del blocks                      # before the (T, n, n) bridged generators
    if g.min() <= 0 or f.min() <= 0:
        raise NonpositiveFG("bridge factors left the positive cone")

    # the bridged generators, block by block from m at the block's grid times
    n, times, rho = reference.n, grid.times, f * g
    m_hat, rate = np.empty((len(times), n, n)), np.empty(len(times))
    diag, off = np.arange(n), ~np.eye(n, dtype=bool)
    low, top, size = np.inf, 1.0, _block_size(n)   # top scales the check: max(1, |m_hat|)
    for lo in range(0, len(times), size):
        m = reference.at_many(times[lo:lo + size])
        hi, gb = lo + len(m), g[lo:lo + size]
        block = np.multiply(m, gb[:, None, :] / gb[:, :, None], out=m_hat[lo:hi])
        block[:, diag, diag] = 0.0
        block[:, diag, diag] = -block.sum(axis=2)
        low = min(low, float(block[:, off].min()))
        top = max(top, float(np.abs(block).max()))
        rate[lo:hi] = relative_entropy_rate(rho[lo:hi], block, m)
    if low < -1e-12 * top:
        raise InvalidGenerator("bridged generator grew a negative rate %r" % low)

    entropy = _trapezoid(times, rate)
    return BridgeSolution(problem, times, f, g, rho,
                          m_hat, it, residuals, objective,
                          coupling_entropy, entropy)


# -- exact path entropy for short chains ---------------------------------------------


def path_entropy_bruteforce(solution: BridgeSolution, n_steps: int) -> float:
    """Relative entropy of the bridged Euler chain against the reference chain,
    summed exactly over every path of the n_steps-step skeleton.

    Both chains step with transition I + h m at the left endpoint of each
    subinterval, h = horizon / n_steps. The count of support-consistent
    paths is capped near 1e7; beyond that the enumeration refuses, and so
    it does for more than _MAX_STEPS steps.
    """
    if n_steps < 1:
        raise ValueError("the skeleton needs at least one step, got %r" % (n_steps,))
    if n_steps > _MAX_STEPS:
        raise PathExplosion("%d steps exceed the cap of %d" % (n_steps, _MAX_STEPS))
    problem = solution.problem
    refr = problem.reference
    n = refr.n
    h = (problem.t1 - problem.t0) / n_steps
    # the pairs the reference moves along at the step times, gathered in blocks
    # of them; (out-degree + 1) ** n_steps counts the paths, as an int whose
    # power stops at 24 steps, where a degree of 1 or more is past 1e7
    moves, size = np.zeros(len(refr.src), dtype=bool), _block_size(n)
    for lo in range(0, n_steps, size):
        steps = np.arange(lo, min(lo + size, n_steps))
        moves |= (refr.records(problem.t0 + h * steps)[1] != 0).any(axis=0)
        choices = int(np.bincount(refr.src[moves], minlength=n).max()) + 1
        if choices ** min(n_steps, 24) > 1e7:
            raise PathExplosion("%d steps of up to %d choices make over 1e7 support paths; "
                                "brute force stops there" % (n_steps, choices))

    bridged = solution.rates()

    with np.errstate(divide="ignore"):
        logp = np.log(problem.rho0)
        logr = np.log(problem.reference_initial)
    states = np.arange(n)
    keep = np.isfinite(logp)
    states, logp, logr = states[keep], logp[keep], logr[keep]

    # the steps' transitions in blocks; a step where both chains are the
    # identity maps the frontier onto itself, each log-probability plus 0.0
    eye = np.eye(n)
    for lo in range(0, n_steps, size):
        times = problem.t0 + h * np.arange(lo, min(lo + size, n_steps))
        pi_hats, pi_refs = eye + h * bridged.at_many(times), eye + h * refr.at_many(times)
        moving = ((pi_hats != eye) | (pi_refs != eye)).any(axis=(1, 2))
        for k in np.flatnonzero(moving).tolist():
            for name, pi in (("bridged", pi_hats[k]), ("reference", pi_refs[k])):
                if np.diagonal(pi).min() < 0:
                    raise NegativeStepProbability(
                        "%s holding probability negative at t = %g; take more steps"
                        % (name, times[k]))
            with np.errstate(divide="ignore"):
                log_hat, log_ref = np.log(pi_hats[k]), np.log(pi_refs[k])
            states, logp, logr = _next_frontier(states, logp, logr, log_hat, log_ref)
    del states      # the sum reads only the log-probabilities

    return float(np.sum(np.exp(logp) * (logp - logr)))


def _next_frontier(states, logp, logr, log_hat, log_ref):
    """Every child (path, target) of the frontier with a finite bridged
    log-probability, in row-major order, expanded _BLOCK_ENTRIES entries at
    a time: its target, and its bridged and reference log-probabilities.

    Frontier log-probabilities are finite and no step log is below
    log(5e-324), so a child is kept exactly where its log pi_hat is finite.
    """
    kept = np.isfinite(log_hat)
    total = int(kept.sum(axis=1)[states].sum())
    if total > 2e7:
        raise PathExplosion("path frontier outgrew memory bounds")
    out = np.empty(total, np.int64), np.empty(total), np.empty(total)
    size, at = max(1, _BLOCK_ENTRIES // len(log_hat)), 0
    for lo in range(0, len(states), size):
        src = states[lo:lo + size]
        keep = kept[src]
        lr = (logr[lo:lo + size, None] + log_ref[src])[keep]
        if not np.isfinite(lr).all():
            raise SupportMismatch("bridged chain leaves the reference support")
        end = at + len(lr)
        out[0][at:end] = np.nonzero(keep)[1]
        out[1][at:end] = (logp[lo:lo + size, None] + log_hat[src])[keep]
        out[2][at:end] = lr
        at = end
    return out


# -- periodic rates from a prescribed density loop -------------------------------------


@dataclass
class PeriodicRates:
    rates: ReferenceRates       # its period is the loop's
    strength: float             # chosen kernel multiple


def periodic_rate_from_density(density_fn, period: float, n: int,
                               deriv_fn) -> PeriodicRates:
    """Rates m(t) on the complete graph whose master equation runs along a
    prescribed smooth density loop.

    The construction superposes K copies of the mixing kernel with
    off-diagonals 1 / ((n-1) rho_i), which moves no mass, and a directed
    cycle correction through nodes 0 -> 1 -> ... -> n-1 -> 0 whose fluxes
    telescope the density derivative. The smallest feasible K (all
    off-diagonals at least _RATE_MARGIN) is found by doubling and
    bisection to 0.1% relative.

    density_fn and deriv_fn map an array of K times to the (K, n) densities
    and their time derivatives. Rates are assembled for an array of times at
    once; at(t) is batch([t])[0].
    """
    def loop_of(ts, rho):
        # cycle rates m_{k,k+1} = x_k / rho_k from the fluxes x, gauged by x_0 = 0
        x = np.zeros_like(rho)
        x[:, 1:] = -np.cumsum(deriv_fn(ts)[:, 1:], axis=1)
        return x / rho

    ts = np.linspace(0.0, period, 1024, endpoint=False)
    rho_grid = density_fn(ts)
    if rho_grid.min() <= 1e-12:
        raise NotInterior("density loop touches the simplex boundary")
    loop_grid = loop_of(ts, rho_grid)
    nodes = np.arange(n)

    def feasible(strength):
        # off-diagonals: mix everywhere, plus the loop on the cycle entries
        mix = strength / ((n - 1) * rho_grid)
        return (mix + loop_grid).min() >= _RATE_MARGIN and (n == 2 or mix.min() >= _RATE_MARGIN)

    hi = 1.0
    while not feasible(hi):
        hi *= 2.0
        if hi > 2.0 ** 30:
            raise NoFeasibleK("no kernel multiple up to 2^30 keeps rates nonnegative")
    lo = 0.0
    while hi - lo > 1e-3 * hi:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid

    def batch(times):
        times = np.asarray(times, dtype=float)
        rho = density_fn(times)
        loop = loop_of(times, rho)
        m = np.repeat((hi / ((n - 1) * rho))[:, :, None], n, axis=2)
        m[:, nodes, nodes] = -hi / rho - loop
        m[:, nodes, (nodes + 1) % n] += loop
        return m

    return PeriodicRates(ReferenceRates(n, period=period, batch_fn=batch), float(hi))


# -- stationarity ------------------------------------------------------------------------


def stationary_density(rates: ReferenceRates) -> np.ndarray:
    """Left null vector of a constant generator, normalized to the simplex."""
    if not rates.constant:
        raise ValueError("stationary density needs a constant generator")
    m = rates.at(0.0)
    w, v = np.linalg.eig(m.T)
    rho = np.real(v[:, np.argmin(np.abs(w))])
    rho = np.abs(rho)
    return rho / rho.sum()


def stationary_point(rates: ReferenceRates, rho_star=None) -> PhasePoint:
    """The phase-space rest point over a constant reference: the stationary
    density paired with the potential -log(rho)/2, gauged to zero mean."""
    rho = stationary_density(rates) if rho_star is None else _arr(rho_star)
    drift = float(np.abs(rho @ rates.at(0.0)).max())
    if drift > 1e-10:
        raise NotStationary("rho m has residual %g" % drift)
    if not rho.min() > 0:
        raise BoundaryDensity("stationary density %s has a nonpositive mass" % rho.tolist())
    s = -0.5 * np.log(rho)
    return PhasePoint(rho, s - s.mean())


def markov_condition_residual(spec: HamiltonianSpec, state: PhasePoint,
                              t: float = 0.0) -> np.ndarray:
    """Entrywise |d/dt Q| of the extracted generator along the flow, by one
    forward difference over _RESIDUAL_STEP.

    A flow that solves a time-homogeneous master equation freezes its own
    generator, so the residual vanishes there and is order one elsewhere.
    Only smooth variants carry a differentiable generator.
    """
    if spec.theta is not None and spec.theta.kind == "upwind":
        raise NonsmoothSpec("the donor-cell splitting has no smooth generator")
    if spec.variant not in ("sbp_entropic", "ot_kinetic"):
        raise NoRateDecomposition("no rate decomposition for variant %r" % spec.variant)
    h = _RESIDUAL_STEP
    q0 = build_rate_matrix(spec, state, t).entries
    q1 = build_rate_matrix(spec, integrate(spec, state, t, t + h, dt=h).final, t + h).entries
    return np.abs(q1 - q0) / h
