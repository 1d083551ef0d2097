"""Time integration, coordinate transforms and monodromy analysis.

Integrators:

* rk4               classical fourth order explicit
* implicit_midpoint fixed-point iterated midpoint rule, symplectic, order 2

Both land exactly on the final time by rounding the step count. Each step is
guarded: potentials beyond 1e6 in magnitude or node masses below -1e-9 abort
with BlowUp, non-finite values abort with NonfiniteValue (raised by the
Hamiltonian layer). A time-dependent reference is evaluated once per flow, on
the stage-time grid: integrate hands prepare every step's start, midpoint and
(rk4) end and the final time, and each distinct one is evaluated once, in
blocks through ReferenceRates.at_many.

Transforms between the three charts:

* hopf_cole         (rho, S) -> (rho, psi),  psi = S + 1/2 log rho
* madelung          (rho, S) -> (f, g), f = sqrt(rho) e^{-S}, g = sqrt(rho) e^{S},
                    preserves the canonical two-form
* symplectic_check  finite-difference Jacobian test of D^T J D = J

No transform renormalizes the potential; gauge fixing is the caller's
business, because trajectories must stay in the gauge the flow picked.

Linear marchers run on the rk4 step matrices R_k of a markov.LinearGrid:
fundamental_matrix and monodromy take their product R_0 ... R_{K-1} unchecked,
and schrodinger_evolve steps f_{k+1} = f_k R_k and g_k = R_k g_{k+1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BlowUp,
    BoundaryDensity,
    NonconvergentImplicitStep,
    NonfiniteValue,
    NonpositiveFG,
)
from .hamiltonians import (
    HamiltonianSpec,
    PhasePoint,
    ReferenceRates,
    _check_chart,
    prepare,
)
from .markov import LinearGrid, _step_count

_POT_CAP = 1e6
_RHO_FLOOR = -1e-9
_FP_TOL = 1e-12
_FP_MAXITER = 50
_SYMPLECTIC_H = 1e-6      # symplectic_check's difference step
_MONODROMY_DT = 1e-4      # monodromy's default rk4 step
_UNIT_TOL = 1e-6          # |multiplier| this close to 1 is flagged as on the unit circle


# -- trajectories ------------------------------------------------------------------


@dataclass
class Trajectory:
    """Recorded flow of a phase point: states plus conserved-quantity audit."""

    times: np.ndarray
    rho: np.ndarray          # (K, n) density-like coordinate
    pot: np.ndarray          # (K, n) potential-like coordinate
    chart: str
    H: np.ndarray            # Hamiltonian along the flow
    mass_defect: np.ndarray  # total mass minus its initial value

    def __len__(self) -> int:
        return len(self.times)

    def state(self, k: int) -> PhasePoint:
        return PhasePoint(self.rho[k], self.pot[k], self.chart)

    @property
    def final(self) -> PhasePoint:
        return self.state(len(self) - 1)


def _guard(x: np.ndarray, chart: str, t: float):
    """Refuse a stacked (rho, pot) state that left the flow's domain."""
    if not np.logical_and.reduce(np.isfinite(x), axis=None):
        raise BlowUp("non-finite state at t = %g" % t)
    if chart == "fg":
        if np.maximum.reduce(np.abs(x), axis=None) > _POT_CAP:
            raise BlowUp("factor magnitude beyond 1e6 at t = %g" % t)
        return
    if np.maximum.reduce(np.abs(x[1])) > _POT_CAP:
        raise BlowUp("potential beyond 1e6 at t = %g" % t)
    if np.minimum.reduce(x[0]) < _RHO_FLOOR:
        raise BlowUp("node mass below -1e-9 at t = %g" % t)


def _rk4_step(field, x, t, dt):
    """One classical rk4 step of the stacked (rho, pot) state x."""
    k1 = field(x[0], x[1], t)
    y = x + 0.5 * dt * k1
    k2 = field(y[0], y[1], t + 0.5 * dt)
    y = x + 0.5 * dt * k2
    k3 = field(y[0], y[1], t + 0.5 * dt)
    y = x + dt * k3
    k4 = field(y[0], y[1], t + dt)
    return x + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0


def _midpoint_step(field, x, t, dt):
    """One implicit midpoint step of the stacked (rho, pot) state x. The
    iteration's error and scale take the maximum of each half first, and
    Python's max over the halves then, which skips a NaN in the second."""
    mid = x + 0.5 * dt * field(x[0], x[1], t)
    tm = t + 0.5 * dt
    for _ in range(_FP_MAXITER):
        try:
            f = field(mid[0], mid[1], tm)
        except (BoundaryDensity, NonfiniteValue) as exc:
            # a diverging iterate left the Hamiltonian's domain
            raise NonconvergentImplicitStep(
                "midpoint iterate escaped at t = %g (dt = %g)" % (t, dt)) from exc
        nxt = x + 0.5 * dt * f
        err = max(np.maximum.reduce(np.abs(nxt - mid), axis=1))
        mid = nxt
        if err < _FP_TOL * max(1.0, *np.maximum.reduce(np.abs(nxt), axis=1)):
            return 2 * mid - x
    raise NonconvergentImplicitStep(
        "midpoint fixed point stalled at t = %g (dt = %g)" % (t, dt))


def integrate(spec: HamiltonianSpec, state: PhasePoint, t0: float, t1: float,
              dt: float, method: str = "rk4", record_every: int = 1) -> Trajectory:
    """Flow a phase point from t0 to t1 and record the trajectory."""
    if method not in ("rk4", "implicit_midpoint"):
        raise ValueError("unknown method %r" % method)
    _check_chart(spec, state)
    steps = _step_count(t0, t1, dt)
    dt = (t1 - t0) / steps
    rk4, chart = method == "rk4", spec.chart
    stepper = _rk4_step if rk4 else _midpoint_step

    def stage_times():
        """Every time the loop below evaluates at, as the same floats and in
        order: each step's start, midpoint and (rk4) end, then the last record."""
        for k in range(steps):
            t = t0 + k * dt
            yield t
            yield t + 0.5 * dt
            if rk4:
                yield t + dt
        yield t0 + steps * dt

    field, energy = prepare(spec, stage_times())

    def record(tk, x):
        r, p = x[0], x[1]
        mass = np.dot(r, p) if chart == "fg" else r.sum()   # in the state's chart
        return tk, r, p, energy(r, p, tk), float(mass)

    x = np.array((state.rho, state.pot))          # the stacked (rho, pot) state
    _guard(x, chart, t0)
    rows = [record(t0, x)]
    for k in range(steps):
        t = t0 + k * dt
        x = stepper(field, x, t, dt)             # a fresh array every step
        _guard(x, chart, t + dt)
        if (k + 1) % record_every == 0 or k == steps - 1:
            rows.append(record(t0 + (k + 1) * dt, x))
    times, rhos, pots, hs, masses = map(np.array, zip(*rows))
    return Trajectory(times, rhos, pots, chart, hs, masses - masses[0])


# -- chart transforms ---------------------------------------------------------------


def hopf_cole(state: PhasePoint) -> PhasePoint:
    """(rho, S) -> (rho, psi) with psi = S + 1/2 log rho."""
    if state.chart != "S":
        raise ValueError("hopf_cole starts from the S chart")
    if np.min(state.rho) <= 0:
        raise BoundaryDensity("log of a nonpositive mass")
    return PhasePoint(state.rho, state.pot + 0.5 * np.log(state.rho), chart="psi")


def hopf_cole_inverse(state: PhasePoint) -> PhasePoint:
    if state.chart != "psi":
        raise ValueError("inverse starts from the psi chart")
    if np.min(state.rho) <= 0:
        raise BoundaryDensity("log of a nonpositive mass")
    return PhasePoint(state.rho, state.pot - 0.5 * np.log(state.rho), chart="S")


def madelung(state: PhasePoint) -> PhasePoint:
    """(rho, S) -> (f, g) = (sqrt(rho) e^{-S}, sqrt(rho) e^{S}); df ^ dg = drho ^ dS."""
    if state.chart != "S":
        raise ValueError("madelung starts from the S chart")
    if np.min(state.rho) <= 0:
        raise BoundaryDensity("sqrt of a nonpositive mass")
    root = np.sqrt(state.rho)
    return PhasePoint(root * np.exp(-state.pot), root * np.exp(state.pot), chart="fg")


def madelung_inverse(state: PhasePoint) -> PhasePoint:
    if state.chart != "fg":
        raise ValueError("inverse starts from the fg chart")
    f, g = state.rho, state.pot
    if np.min(f) <= 0 or np.min(g) <= 0:
        raise NonpositiveFG("factorization requires strictly positive f and g")
    return PhasePoint(f * g, 0.5 * np.log(g / f), chart="S")


def symplectic_check(transform, state: PhasePoint) -> float:
    """max |D^T J D - J| for the finite-difference Jacobian D of a transform.

    Zero (to truncation error) certifies the transform preserves the
    canonical two-form, so Hamiltonian flows stay Hamiltonian through it.
    """
    n, h = len(state.rho), _SYMPLECTIC_H
    J = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])

    def stacked(z):
        out = transform(PhasePoint(z[:n], z[n:], state.chart))
        return np.concatenate([out.rho, out.pot])

    z0 = np.concatenate([state.rho, state.pot])
    D = np.empty((2 * n, 2 * n))
    for col in range(2 * n):
        e = np.zeros(2 * n)
        e[col] = h
        D[:, col] = (stacked(z0 + e) - stacked(z0 - e)) / (2 * h)
    return float(np.max(np.abs(D.T @ J @ D - J)))


# -- linear factor flow ----------------------------------------------------------------


@dataclass
class FGFlow:
    """Forward factor f and backward factor g of the reference flow on a grid."""

    times: np.ndarray
    f: np.ndarray | None     # (K, n); d f/dt = f m(t), marched forward
    g: np.ndarray | None     # (K, n); d g/dt = -m(t) g, marched backward

    @property
    def rho(self) -> np.ndarray:
        if self.f is None or self.g is None:
            raise ValueError("need both factors for a density")
        return self.f * self.g


def schrodinger_evolve(rates: ReferenceRates, f0=None, g1=None,
                       t0: float = 0.0, t1: float = 1.0, dt: float = 1e-3) -> FGFlow:
    """March the linear factor equations across [t0, t1].

    f0 seeds the forward equation at t0, g1 seeds the backward equation at
    t1; either or both. Both factors march on the LinearGrid from t0 to t1
    and are reported at its times.
    """
    if f0 is None and g1 is None:
        raise ValueError("give at least one of f0, g1")
    grid = LinearGrid(rates, t0, t1, dt)
    return FGFlow(grid.times, *grid.march(list(grid.blocks()), f0, g1))


# -- monodromy of the density equation ---------------------------------------------------


@dataclass
class Monodromy:
    """Fundamental matrix of d rho = rho m(t) over one period, with spectrum."""

    matrix: np.ndarray
    multipliers: np.ndarray
    exponents: np.ndarray
    period: float
    unit_flags: np.ndarray   # |multiplier| within _UNIT_TOL of the unit circle

    @property
    def has_unit_multiplier(self) -> bool:
        return bool(self.unit_flags.any())


def fundamental_matrix(rates: ReferenceRates, t0: float, t1: float, dt: float = 1e-4) -> np.ndarray:
    """U with rho(t1) = rho(t0) U, from rk4 on dU = U m(t), U(t0) = I."""
    grid = LinearGrid(rates, t0, t1, dt)
    return grid.product(grid.blocks())


def monodromy(rates: ReferenceRates, period: float, dt: float = _MONODROMY_DT) -> Monodromy:
    """Spectrum of the one-period fundamental matrix of the density equation.

    Row sums of the fundamental matrix are conserved, so the multiplier 1 is
    structural whenever the rates stay a generator.
    """
    u = fundamental_matrix(rates, 0.0, period, dt)
    mult = np.linalg.eigvals(u)
    expo = np.log(mult.astype(complex)) / period
    flags = np.abs(np.abs(mult) - 1.0) <= _UNIT_TOL
    return Monodromy(u, mult, expo, period, flags)
