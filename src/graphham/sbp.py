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
    BoundaryMarginal,
    NonconvergedIPFP,
    NonpositiveFG,
    NonsmoothSpec,
    NoFeasibleK,
    NotInterior,
    NotStationary,
    NegativeStepProbability,
    PathExplosion,
    SupportMismatch,
)
from .graph import _arr
from .hamiltonians import HamiltonianSpec, PhasePoint, ReferenceRates
from .dynamics import integrate, schrodinger_evolve
from .markov import build_rate_matrix, propagator


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    top = np.max(a, axis=axis, keepdims=True)
    top = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        return np.squeeze(top, axis=axis) + np.log(
            np.exp(a - top).sum(axis=axis))


def _trapezoid(values: np.ndarray, dt: float) -> float:
    return float(dt * (values.sum() - 0.5 * (values[0] + values[-1])))


def relative_entropy(p, q) -> float:
    """Sum of p log(p/q), with 0 log 0 = 0; p charging a q-null atom is an error."""
    p, q = _arr(p), _arr(q)
    on = p > 0
    if np.any(q[on] <= 0):
        raise SupportMismatch("first argument charges a null atom of the second")
    return float(np.sum(p[on] * np.log(p[on] / q[on])))


# -- relative entropy rate -------------------------------------------------------------


def _u(x: np.ndarray) -> np.ndarray:
    # x log x - x + 1, continuously extended by u(0) = 1
    out = np.ones_like(x)
    on = x > 0
    out[on] = x[on] * np.log(x[on]) - x[on] + 1.0
    return out


def relative_entropy_rate(rho, m_hat: np.ndarray, m: np.ndarray) -> float:
    """Instantaneous entropy production of rates m_hat against reference m.

    Sums rho_i u(m_hat_ij / m_ij) m_ij over ordered pairs, u(x) = x log x - x + 1.
    Channels absent from both generators contribute nothing; a channel open
    in m_hat but closed in m is a support mismatch.
    """
    rho = _arr(rho)
    n = len(rho)
    off = ~np.eye(n, dtype=bool)
    mh, mr = m_hat[off], m[off]
    if np.any((mh > 0) & (mr <= 0)):
        raise SupportMismatch("bridged rates leave the reference support")
    ratio = np.zeros_like(mh)
    on = mr > 0
    ratio[on] = mh[on] / mr[on]
    cell = np.zeros((n, n))
    cell[off] = np.where(on, _u(ratio) * mr, 0.0)
    return float(np.sum(rho[:, None] * cell))


def integrated_entropy_rate(times: np.ndarray, rho: np.ndarray,
                            m_hat: np.ndarray, m: np.ndarray) -> float:
    """Trapezoid rule over a uniformly sampled trajectory of the rate above."""
    vals = np.array([relative_entropy_rate(rho[k], m_hat[k], m[k])
                     for k in range(len(times))])
    return _trapezoid(vals, float(times[1] - times[0]))


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
    objective: list             # per-sweep projection cost, nonincreasing
    coupling_entropy: list      # relative entropy of the coupling per sweep
    entropy: float              # integrated entropy production of m_hat vs m

    def rates(self) -> ReferenceRates:
        dt = float(self.times[1] - self.times[0])

        def batch(ts):
            return self.m_hat[np.round((np.asarray(ts) - self.times[0]) / dt).astype(int)]

        return ReferenceRates(self.m_hat.shape[1], batch_fn=batch)


def _coupling_entropy(logk: np.ndarray, phi: np.ndarray, gam: np.ndarray,
                      ref0: np.ndarray) -> float:
    # generalized relative entropy of the coupling e^phi_i K_ij e^gam_j
    # against the reference coupling ref0_i K_ij, whose total mass is 1
    logpi = phi[:, None] + logk + gam[None, :]
    logr = np.log(ref0)[:, None] + logk
    on = np.isfinite(logpi)
    pi = np.exp(logpi[on])
    return float(np.sum(pi * (logpi[on] - logr[on])) - pi.sum() + 1.0)


def solve_bridge(problem: BridgeProblem, dt: float = 1e-3, tol: float = 1e-8,
                 max_iter: int = 200) -> BridgeSolution:
    """Fit the bridge between rho0 and rho1 over the reference process.

    Alternates exact marginal fits of the endpoint coupling in log space,
    starting from a flat forward scaling, then expands the fitted endpoint
    factors into the full factor pair (f, g) and the bridged generators.

    Each sweep is a projection minimizing the relative entropy against the
    previous coupling; that per-sweep cost is recorded in `objective` and
    checked to be nonincreasing up to 1e-10 slack. The relative entropy of
    the coupling against the reference itself is recorded per sweep in
    `coupling_entropy`; it converges to the bridge cost but approaches it
    from either side depending on the marginals, so no direction is
    asserted for it.
    """
    rho0, rho1 = problem.rho0, problem.rho1
    for name, r in (("initial", rho0), ("terminal", rho1),
                    ("reference initial", problem.reference_initial)):
        if np.min(r) <= 0:
            raise BoundaryMarginal("%s marginal touches the simplex boundary" % name)
        if abs(r.sum() - 1.0) > 1e-9:
            raise ValueError("%s marginal does not sum to 1" % name)

    k = propagator(problem.reference, problem.t0, problem.t1, dt)
    with np.errstate(divide="ignore"):
        logk = np.log(k)
        logr0, logr1 = np.log(rho0), np.log(rho1)

    phi = np.zeros(problem.reference.n)
    objective = []
    coupling_entropy = []
    history = []
    prev_logpi = logk.copy()        # the flat-scaled seed coupling
    residuals = (np.inf, np.inf)
    done = 0
    for it in range(1, max_iter + 1):
        gam = logr1 - _logsumexp(phi[:, None] + logk, axis=0)
        phi = logr0 - _logsumexp(logk + gam[None, :], axis=1)
        f0, g1 = np.exp(phi), np.exp(gam)
        r_init = float(np.abs(f0 * (k @ g1) - rho0).sum())
        r_term = float(np.abs(g1 * (k.T @ f0) - rho1).sum())
        residuals = (r_init, r_term)
        history.append(residuals)
        logpi = phi[:, None] + logk + gam[None, :]
        on = np.isfinite(logpi)
        pi, prev = np.exp(logpi[on]), np.exp(prev_logpi[on])
        objective.append(float(np.sum(pi * (logpi[on] - prev_logpi[on]))
                               - pi.sum() + prev.sum()))
        coupling_entropy.append(
            _coupling_entropy(logk, phi, gam, problem.reference_initial))
        prev_logpi = logpi
        if max(residuals) <= tol:
            done = it
            break
    if not done:
        err = NonconvergedIPFP(
            "marginal residuals %r still above %g after %d sweeps"
            % (residuals, tol, max_iter))
        err.residuals = residuals
        err.history = history
        raise err
    drift = np.diff(objective)
    if len(drift) and drift.max() > 1e-10:
        raise AssertionError(
            "sweep cost lost monotonicity: worst rise %g" % drift.max())

    flow = schrodinger_evolve(problem.reference, f0=f0, g1=g1,
                              t0=problem.t0, t1=problem.t1, dt=dt)
    if flow.g.min() <= 0 or flow.f.min() <= 0:
        raise NonpositiveFG("bridge factors left the positive cone")

    n = problem.reference.n
    ms = problem.reference.at_many(flow.times)
    m_hat = ms * (flow.g[:, None, :] / flow.g[:, :, None])
    diag = np.arange(n)
    m_hat[:, diag, diag] = 0.0
    m_hat[:, diag, diag] = -m_hat.sum(axis=2)
    off = ~np.eye(n, dtype=bool)
    if m_hat[:, off].min() < -1e-12 * max(1.0, float(np.abs(m_hat).max())):
        raise AssertionError("bridged generator grew a negative rate")

    entropy = integrated_entropy_rate(flow.times, flow.rho, m_hat, ms)
    return BridgeSolution(problem, flow.times, flow.f, flow.g, flow.rho,
                          m_hat, done, residuals, objective,
                          coupling_entropy, entropy)


# -- exact path entropy for short chains ---------------------------------------------


def path_entropy_bruteforce(solution: BridgeSolution, n_steps: int) -> float:
    """Relative entropy of the bridged Euler chain against the reference chain,
    summed exactly over every path of the n_steps-step skeleton.

    Both chains step with transition I + h m at the left endpoint of each
    subinterval, h = horizon / n_steps. The count of support-consistent
    paths is capped near 1e7; beyond that the enumeration refuses.
    """
    problem = solution.problem
    n = problem.reference.n
    h = (problem.t1 - problem.t0) / n_steps
    # out-degree of the pairs the reference moves along at the step times
    moves = (problem.reference.at_many(problem.t0 + h * np.arange(n_steps)) != 0).any(axis=0)
    maxdeg = int((moves & problem.reference.support()).sum(axis=1).max())
    if float(maxdeg + 1) ** n_steps > 1e7:
        raise PathExplosion(
            "about %g support paths; brute force stops at 1e7"
            % (float(maxdeg + 1) ** n_steps))

    grid_dt = float(solution.times[1] - solution.times[0])
    bridged = solution.rates()
    refr = problem.reference

    with np.errstate(divide="ignore"):
        logp = np.log(problem.rho0)
        logr = np.log(problem.reference_initial)
    states = np.arange(n)
    keep = np.isfinite(logp)
    states, logp, logr = states[keep], logp[keep], logr[keep]

    for step in range(n_steps):
        t = problem.t0 + step * h
        snap = solution.times[0] + grid_dt * round((t - solution.times[0]) / grid_dt)
        pi_hat = np.eye(n) + h * bridged.at(snap)
        pi_ref = np.eye(n) + h * refr.at(t)
        for name, pi in (("bridged", pi_hat), ("reference", pi_ref)):
            if np.diagonal(pi).min() < 0:
                raise NegativeStepProbability(
                    "%s holding probability negative at t = %g; take more steps"
                    % (name, t))
        b = len(states)
        idx = np.repeat(np.arange(b), n)
        tgt = np.tile(np.arange(n), b)
        with np.errstate(divide="ignore"):
            lp = logp[idx] + np.log(pi_hat[states[idx], tgt])
            lr = logr[idx] + np.log(pi_ref[states[idx], tgt])
        keep = np.isfinite(lp)
        if np.any(~np.isfinite(lr[keep])):
            raise SupportMismatch("bridged chain leaves the reference support")
        states, logp, logr = tgt[keep], lp[keep], lr[keep]
        if len(states) > 2e7:
            raise PathExplosion("path frontier outgrew memory bounds")

    return float(np.sum(np.exp(logp) * (logp - logr)))


# -- periodic rates from a prescribed density loop -------------------------------------


@dataclass
class PeriodicRates:
    rates: ReferenceRates
    strength: float             # chosen kernel multiple
    period: float


def periodic_rate_from_density(density_fn, period: float, n: int,
                               deriv_fn=None, margin: float = 1e-9) -> PeriodicRates:
    """Rates m(t) on the complete graph whose master equation runs along a
    prescribed smooth density loop.

    The construction superposes K copies of the mixing kernel with
    off-diagonals 1 / ((n-1) rho_i), which moves no mass, and a directed
    cycle correction through nodes 0 -> 1 -> ... -> n-1 -> 0 whose fluxes
    telescope the density derivative. The smallest feasible K (all
    off-diagonals nonnegative with margin) is found by doubling and
    bisection to 0.1% relative.

    density_fn and deriv_fn map an array of K times to the (K, n) densities
    and their time derivatives. Without deriv_fn the derivative is a central
    difference at step period / 1024. Rates are assembled for an array of
    times at once; at(t) is batch([t])[0].
    """
    fd = period / 1024.0
    if deriv_fn is None:
        def deriv_fn(ts):
            return (density_fn(ts + fd) - density_fn(ts - fd)) / (2 * fd)

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
        return (mix + loop_grid).min() >= margin and (n == 2 or mix.min() >= margin)

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

    return PeriodicRates(ReferenceRates(n, period=period, batch_fn=batch), float(hi), period)


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
    s = -0.5 * np.log(rho)
    return PhasePoint(rho, s - s.mean())


def markov_condition_residual(spec: HamiltonianSpec, state: PhasePoint,
                              step: float = 1e-4, t: float = 0.0) -> np.ndarray:
    """Entrywise |d/dt Q| of the extracted generator along the flow.

    A flow that solves a time-homogeneous master equation freezes its own
    generator, so the residual vanishes there and is order one elsewhere.
    Only smooth variants carry a differentiable generator.
    """
    if spec.variant in ("ot_kinetic", "lp_kinetic", "fisher_ot") \
            and spec.theta.kind == "upwind":
        raise NonsmoothSpec("the donor-cell splitting has no smooth generator")

    def extract(st, at):
        if spec.variant == "sbp_entropic":
            return build_rate_matrix("sbp", spec.graph, st,
                                     reference=spec.reference, t=at).entries
        if spec.variant == "ot_kinetic":
            return build_rate_matrix("theta_general", spec.graph, st,
                                     theta_kind=spec.theta).entries
        raise ValueError("no rate decomposition for variant %r" % spec.variant)

    q0 = extract(state, t)
    moved = integrate(spec, state, t, t + step, dt=step).final
    q1 = extract(moved, t + step)
    return np.abs(q1 - q0) / step


def dual_balance_residual(rates: ReferenceRates, psi, t: float = 0.0) -> np.ndarray:
    """Pairwise residual of the dual balance relation under c_ab = e^(psi_a - psi_b).

    Collapses to zero whenever psi is constant, by the zero row sums of the
    generator; a nonzero pattern localizes which node pairs are out of
    balance.
    """
    psi = _arr(psi)
    m = rates.at(t)
    c = np.exp(psi[:, None] - psi[None, :])
    # the balance expression telescopes: only sum_k m_ik c_ki survives per node
    mixed = np.diagonal(m @ c)
    return np.abs(mixed[None, :] - mixed[:, None])
