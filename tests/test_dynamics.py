"""Integrators, chart transforms and monodromy.

Core claims checked here:
  * rk4 reproduces the closed-form two-node linear factor flow
  * energy drift: tiny for rk4 at dt = 1e-3 and contracts at fourth order;
    implicit midpoint contracts at second order
  * mass defect stays at rounding level along Hamiltonian flows
  * transforms round-trip exactly and preserve the canonical two-form;
    madelung with its (f, g) slots swapped reverses its sign
  * the same initial condition integrated in the three charts lands on the
    same final state after mapping back
  * the one-period fundamental matrix of the density equation keeps row sums
    at one and carries a structural unit multiplier

Entropic flows reach the simplex boundary in finite time for generic starts
(the backward factor grows at the reference spectral gap), so conservation
windows below use starts whose interior margin was verified against the
closed-form factor solution; each flow test also asserts the margin it
relies on.
"""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from graphham import dynamics
from graphham.errors import (
    BlowUp,
    BoundaryDensity,
    NonconvergentImplicitStep,
    NonfiniteValue,
    NonpositiveFG,
)
from graphham.graph import complete_graph, validate_graph
from graphham.hamiltonians import (
    _BLOCK_ENTRIES,
    _block_size,
    _capped,
    _interior,
    NodePotential,
    PhasePoint,
    ReferenceRates,
    constant_rates,
    eval_H,
    fisher_ot,
    linear_potential,
    lp_kinetic,
    ot_kinetic,
    prepare,
    sbp_entropic,
    sbp_psi,
    schrodinger_fg,
    symmetric_rates,
    vector_field,
)
from graphham.dynamics import (
    _FP_MAXITER,
    _FP_TOL,
    _POT_CAP,
    _RHO_FLOOR,
    _midpoint_step,
    _rk4_step,
    FGFlow,
    fundamental_matrix,
    hopf_cole,
    hopf_cole_inverse,
    integrate,
    madelung,
    madelung_inverse,
    monodromy,
    schrodinger_evolve,
    symplectic_check,
)
from graphham.markov import LinearGrid, _step_count, propagator
from graphham.scenarios import load_config
from graphham.theta import AVERAGE, LOGMEAN, UPWIND


def two_node():
    return validate_graph(2, [(0, 1, 1.0)])


def flip_rates():
    return constant_rates([[-1.0, 1.0], [1.0, -1.0]])


def flip_propagator(t):
    e = math.exp(-2.0 * t)
    return 0.5 * np.array([[1 + e, 1 - e], [1 - e, 1 + e]])


def random_generator(rng, n):
    m = rng.uniform(0.2, 2.0, size=(n, n))
    np.fill_diagonal(m, 0.0)
    return constant_rates(m - np.diag(m.sum(axis=1)))


class TestIntegrators:
    def test_linear_flow_closed_form(self):
        # d f = f m from (1, 0): f(t) = (1 + e^{-2t}, 1 - e^{-2t}) / 2
        spec = schrodinger_fg(two_node(), flip_rates())
        traj = integrate(spec, PhasePoint([1.0, 0.0], [1.0, 1.0], chart="fg"),
                         0.0, 1.0, 1e-3)
        want = np.array([1.0, 0.0]) @ flip_propagator(1.0)
        assert np.max(np.abs(traj.rho[-1] - want)) < 1e-12

    # start with verified interior margin 0.12 on [0, 0.4] under unit rates
    SAFE_RHO = [0.5, 0.3, 0.2]
    SAFE_S = [0.2, -0.05, 0.15]

    def test_rk4_energy_drift_and_order(self):
        g = complete_graph(3)
        spec = sbp_entropic(g, symmetric_rates(g))
        state = PhasePoint(self.SAFE_RHO, self.SAFE_S)
        drifts = {}
        for dt in (2e-3, 1e-3):
            traj = integrate(spec, state, 0.0, 0.4, dt)
            assert traj.rho.min() > 0.05
            drifts[dt] = np.max(np.abs(traj.H - traj.H[0]))
        assert drifts[1e-3] <= 1e-8
        assert drifts[2e-3] / drifts[1e-3] >= 10.0

    def test_rk4_state_error_order(self):
        g = complete_graph(3)
        spec = sbp_entropic(g, symmetric_rates(g))
        state = PhasePoint(self.SAFE_RHO, self.SAFE_S)
        ref = integrate(spec, state, 0.0, 0.4, 1e-4).final
        errs = [np.max(np.abs(integrate(spec, state, 0.0, 0.4, dt).final.rho - ref.rho))
                for dt in (2e-2, 1e-2)]
        assert 10.0 <= errs[0] / errs[1] <= 24.0

    def test_midpoint_state_error_order(self):
        g = complete_graph(3)
        spec = sbp_entropic(g, symmetric_rates(g))
        state = PhasePoint(self.SAFE_RHO, self.SAFE_S)
        ref = integrate(spec, state, 0.0, 0.4, 1e-4).final
        errs = [np.max(np.abs(
            integrate(spec, state, 0.0, 0.4, dt, method="implicit_midpoint").final.rho
            - ref.rho)) for dt in (2e-2, 1e-2)]
        assert 3.0 <= errs[0] / errs[1] <= 5.5

    def test_midpoint_energy_stays_put(self):
        g = complete_graph(3)
        spec = sbp_entropic(g, symmetric_rates(g))
        state = PhasePoint(self.SAFE_RHO, self.SAFE_S)
        traj = integrate(spec, state, 0.0, 0.4, 1e-3, method="implicit_midpoint")
        assert np.max(np.abs(traj.H - traj.H[0])) < 1e-6

    def test_mass_defect_rounding_level(self):
        g = complete_graph(3)
        spec = ot_kinetic(g, AVERAGE)
        traj = integrate(spec, PhasePoint([0.5, 0.3, 0.2], [0.4, -0.1, 0.3]),
                         0.0, 1.0, 1e-3)
        assert np.max(np.abs(traj.mass_defect)) < 1e-13

    def test_blowup_on_negative_mass(self):
        spec = ot_kinetic(two_node(), AVERAGE)
        with pytest.raises(BlowUp):
            integrate(spec, PhasePoint([0.01, 0.99], [0.0, 10.0]), 0.0, 1.0, 1e-2)

    def test_midpoint_nonconvergence(self):
        g = complete_graph(3)
        spec = sbp_entropic(g, symmetric_rates(g, 40.0))
        state = PhasePoint([0.5, 0.3, 0.2], [0.4, -0.1, 0.3])
        with pytest.raises(NonconvergentImplicitStep):
            integrate(spec, state, 0.0, 1.0, 0.5, method="implicit_midpoint")

    @pytest.mark.parametrize("method", ["rk4", "implicit_midpoint"])
    @pytest.mark.parametrize("variant", ["ot_kinetic", "fisher_ot", "lp_kinetic",
                                         "sbp_entropic", "sbp_psi", "schrodinger_fg"])
    def test_prepared_flow_matches_the_public_field(self, variant, method):
        spec, state, _, _, _ = oracle_case(variant)
        traj = integrate(spec, state, 0.0, 0.2, 0.02, method=method, record_every=3)

        def field(r, p, t):
            return vector_field(spec, PhasePoint(r, p, spec.chart), t)

        stepper = _rk4_step if method == "rk4" else _midpoint_step
        dt = 0.2 / 10
        x = np.array((state.rho, state.pot))
        want = [(x[0], x[1], eval_H(spec, state, 0.0))]
        for k in range(10):
            x = stepper(field, x, k * dt, dt)
            if (k + 1) % 3 == 0 or k == 9:
                want.append((x[0], x[1],
                             eval_H(spec, PhasePoint(x[0], x[1], spec.chart), (k + 1) * dt)))
        for got, expected in zip((traj.rho, traj.pot, traj.H), zip(*want)):
            assert np.array_equal(got, np.array(expected))

    def test_recording_and_landing(self):
        spec = ot_kinetic(two_node(), AVERAGE)
        traj = integrate(spec, PhasePoint([0.6, 0.4], [0.1, 0.0]),
                         0.0, 0.3, 1e-2, record_every=5)
        assert traj.times[-1] == pytest.approx(0.3, abs=1e-15)
        assert len(traj) == 1 + 30 // 5
        assert traj.rho.shape == (len(traj), 2)


# -- the two-array integrator, as it stood before the stacked state ---------------
#
# Verbatim copies of the steppers and the guard that stepped rho and pot as two
# arrays, and the sbp_entropic and sbp_psi fields on the reference's support
# pairs, each call reading m(t) alone through ReferenceRates.at rather than the
# blocked lookup prepare builds. integrate must match them bit for bit.


def two_array_guard(rho: np.ndarray, pot: np.ndarray, chart: str, t: float):
    if not (np.isfinite(rho).all() and np.isfinite(pot).all()):
        raise BlowUp("non-finite state at t = %g" % t)
    if chart == "fg":
        if max(np.max(np.abs(rho)), np.max(np.abs(pot))) > _POT_CAP:
            raise BlowUp("factor magnitude beyond 1e6 at t = %g" % t)
        return
    if np.abs(pot).max() > _POT_CAP:
        raise BlowUp("potential beyond 1e6 at t = %g" % t)
    if rho.min() < _RHO_FLOOR:
        raise BlowUp("node mass below -1e-9 at t = %g" % t)


def two_array_rk4_step(field, r, p, t, dt):
    k1r, k1p = field(r, p, t)
    k2r, k2p = field(r + 0.5 * dt * k1r, p + 0.5 * dt * k1p, t + 0.5 * dt)
    k3r, k3p = field(r + 0.5 * dt * k2r, p + 0.5 * dt * k2p, t + 0.5 * dt)
    k4r, k4p = field(r + dt * k3r, p + dt * k3p, t + dt)
    return (r + dt * (k1r + 2 * k2r + 2 * k3r + k4r) / 6.0,
            p + dt * (k1p + 2 * k2p + 2 * k3p + k4p) / 6.0)


def two_array_midpoint_step(field, r, p, t, dt):
    fr, fp = field(r, p, t)
    mr, mp = r + 0.5 * dt * fr, p + 0.5 * dt * fp
    tm = t + 0.5 * dt
    for _ in range(_FP_MAXITER):
        try:
            fr, fp = field(mr, mp, tm)
        except (BoundaryDensity, NonfiniteValue) as exc:
            # a diverging iterate left the Hamiltonian's domain
            raise NonconvergentImplicitStep(
                "midpoint iterate escaped at t = %g (dt = %g)" % (t, dt)) from exc
        nr, np_ = r + 0.5 * dt * fr, p + 0.5 * dt * fp
        err = max(np.max(np.abs(nr - mr)), np.max(np.abs(np_ - mp)))
        mr, mp = nr, np_
        if err < _FP_TOL * max(1.0, np.max(np.abs(nr)), np.max(np.abs(np_))):
            return 2 * mr - r, 2 * mp - p
    raise NonconvergentImplicitStep(
        "midpoint fixed point stalled at t = %g (dt = %g)" % (t, dt))


def two_array_entropic(spec):
    ref = spec.reference

    def flux(rho, pot, t):
        m = ref.at(t)
        rate = m[ref.src, ref.dst]
        gap = pot[ref.dst] - pot[ref.src]          # pot_j - pot_i
        _interior(rho)
        fl = np.exp(_capped(gap, rate != 0)) * rate * np.sqrt(rho[ref.src] * rho[ref.dst])
        return fl, m.diagonal()

    def energy(rho, pot, t):
        fl, diag = flux(rho, pot, t)
        return float(fl.sum()) + float(diag @ rho)

    def field(rho, pot, t):
        fl, diag = flux(rho, pot, t)
        out = np.bincount(ref.src, fl, minlength=ref.n)        # sum_j fl_ij
        inflow = np.bincount(ref.dst, fl, minlength=ref.n)     # sum_i fl_ij
        return inflow - out, -diag - (out + inflow) / (2.0 * rho)

    return field, energy


def two_array_dual(spec):
    ref = spec.reference

    def gaps(pot, t):
        rate = ref.at(t)[ref.src, ref.dst]
        return rate, _capped(pot[ref.dst] - pot[ref.src], rate != 0)

    def energy(rho, pot, t):
        rate, z = gaps(pot, t)
        val = float((np.expm1(z) * rate * rho[ref.src]).sum())
        if not np.isfinite(val):
            raise NonfiniteValue("Hamiltonian is not finite")
        return val

    def field(rho, pot, t):
        rate, z = gaps(pot, t)
        out = np.exp(z) * rate * rho[ref.src]           # rate-weighted outflow i -> j
        inflow, outflow = (np.bincount(ends, out, minlength=ref.n) for ends in (ref.dst, ref.src))
        return inflow - outflow, -np.bincount(ref.src, np.expm1(z) * rate, minlength=ref.n)

    return field, energy


def two_array_prepare(spec, times=()):
    """prepare with the two-array sbp_entropic and sbp_psi fields; the other
    variants' own."""
    old = {"sbp_entropic": two_array_entropic, "sbp_psi": two_array_dual}.get(spec.variant)
    return prepare(spec, times) if old is None else old(spec)


def two_array_integrate(spec, state, t0, t1, dt, method="rk4", record_every=1,
                        prepare=two_array_prepare):
    """integrate's loop over the two-array steppers; (times, rho, pot, H, mass_defect)."""
    steps = _step_count(t0, t1, dt)
    dt = (t1 - t0) / steps
    rk4 = method == "rk4"
    stepper = two_array_rk4_step if rk4 else two_array_midpoint_step

    def stage_times():
        for k in range(steps):
            t = t0 + k * dt
            yield t
            yield t + 0.5 * dt
            if rk4:
                yield t + dt
        yield t0 + steps * dt

    field, energy = prepare(spec, stage_times())

    def record(tk, r, p):
        mass = np.dot(r, p) if spec.chart == "fg" else r.sum()   # in the state's chart
        return tk, r, p, energy(r, p, tk), float(mass)

    r, p = state.rho.copy(), state.pot.copy()
    two_array_guard(r, p, spec.chart, t0)
    rows = [record(t0, r, p)]
    for k in range(steps):
        t = t0 + k * dt
        r, p = stepper(field, r, p, t, dt)       # fresh arrays every step
        two_array_guard(r, p, spec.chart, t + dt)
        if (k + 1) % record_every == 0 or k == steps - 1:
            rows.append(record(t0 + (k + 1) * dt, r, p))
    times, rhos, pots, hs, masses = map(np.array, zip(*rows))
    return times, rhos, pots, hs, masses - masses[0]


def logged(prepare, log):
    """prepare whose field and energy append (name, t) to log at each call."""
    def wrapped(spec, times=()):
        field, energy = prepare(spec, times)

        def logged_field(rho, pot, t):
            log.append(("field", t))
            return field(rho, pot, t)

        def logged_energy(rho, pot, t):
            log.append(("energy", t))
            return energy(rho, pot, t)

        return logged_field, logged_energy
    return wrapped


def three_node_rates():
    """A constant K3 reference without the pair (0, 2): the masked rate is
    0 * m off its support, on the zero pairs and the negative diagonal."""
    return constant_rates([[-1.0, 1.0, 0.0], [0.5, -1.5, 1.0], [0.0, 2.0, -2.0]])


def nan_rates(n, where, after=0.05):
    """A reference on K_n whose entries in the mask `where` turn NaN at times
    above `after`."""
    base = symmetric_rates(complete_graph(n)).at(0.0)

    def batch(ts):
        ms = np.repeat(base[None], len(ts), axis=0)
        ms[np.asarray(ts) > after] += np.where(where, np.nan, 0.0)
        return ms

    return ReferenceRates(n, batch_fn=batch)


def oracle_case(name):
    """(spec, state, t1, dt, record_every) of a flow the oracle test runs."""
    g = complete_graph(3)
    start = PhasePoint(TestIntegrators.SAFE_RHO, TestIntegrators.SAFE_S)
    ramp = ReferenceRates(3, batch_fn=lambda ts: (1.0 + np.asarray(ts))[:, None, None]
                          * symmetric_rates(g).at(0.0))
    periodic = load_config("three-node-circle").reference
    short = 0.2, 0.02, 3
    return {
        "ot_kinetic": (ot_kinetic(g, LOGMEAN, linear_potential([0.1, 0.0, -0.2])), start, *short),
        "fisher_ot": (fisher_ot(g, AVERAGE, beta=0.05), start, *short),
        "lp_kinetic": (lp_kinetic(g, UPWIND, q=3.0), start, *short),
        "sbp_entropic": (sbp_entropic(g, symmetric_rates(g)), start, *short),
        "sbp_psi": (sbp_psi(g, ramp), hopf_cole(start), *short),
        "schrodinger_fg": (schrodinger_fg(g, ramp), madelung(start), *short),
        "sbp_entropic-constant": (sbp_entropic(g, three_node_rates()), start, 0.5, 0.01, 1),
        "sbp_entropic-periodic": (sbp_entropic(g, periodic), start, 0.5, 0.01, 1),
        "sbp_psi-constant": (sbp_psi(g, three_node_rates()), hopf_cole(start), 0.5, 0.01, 1),
        "sbp_psi-periodic": (sbp_psi(g, periodic), hopf_cole(start), 0.5, 0.01, 1),
    }[name]


def refusal_case(name):
    """(spec, state, t1, dt) of a flow that is refused, and the refusal's
    class under the method named with it."""
    two, k3 = two_node(), complete_graph(3)
    safe = PhasePoint(TestIntegrators.SAFE_RHO, TestIntegrators.SAFE_S)
    nan_after = NodePotential(lambda rho, t: 0.0,
                              lambda rho, t: np.full(2, np.nan if t > 0.05 else 0.0))
    return {
        "psi-gap": (sbp_psi(two, flip_rates()), PhasePoint([0.5, 0.5], [0.0, 699.0], "psi"),
                    0.1, 0.01, {"rk4": NonfiniteValue}),
        "potential": (ot_kinetic(two, AVERAGE, linear_potential([1e9, 0.0])),
                      PhasePoint([0.5, 0.5], [0.0, 0.0]), 0.1, 0.01, {"rk4": BlowUp}),
        "negative-mass": (ot_kinetic(two, AVERAGE), PhasePoint([0.01, 0.99], [0.0, 10.0]),
                          1.0, 0.01, {"rk4": BlowUp}),
        "nonfinite-state": (ot_kinetic(two, AVERAGE, nan_after),
                            PhasePoint([0.5, 0.5], [0.0, 0.0]), 0.1, 0.01, {"rk4": BlowUp}),
        "factor-magnitude": (schrodinger_fg(two, constant_rates([[-40.0, 40.0], [40.0, -40.0]])),
                             PhasePoint([1.0, 1.0], [1.0, 9e5], "fg"), 0.1, 0.01,
                             {"rk4": BlowUp}),
        "midpoint-divergence": (sbp_entropic(k3, symmetric_rates(k3, 40.0)),
                                PhasePoint([0.5, 0.3, 0.2], [0.4, -0.1, 0.3]), 1.0, 0.5,
                                {"implicit_midpoint": NonconvergentImplicitStep}),
        # sbp_psi reads the pair rates only, sbp_entropic the diagonal too
        "nan-rate-psi": (sbp_psi(two, nan_rates(2, ~np.eye(2, dtype=bool))),
                         PhasePoint([0.5, 0.5], [0.0, 0.1], "psi"), 0.1, 0.01,
                         {"rk4": BlowUp}),
        "nan-diagonal-S": (sbp_entropic(k3, nan_rates(3, np.eye(3, dtype=bool))), safe, 0.1, 0.01,
                           {"rk4": BlowUp}),
    }[name]


class TestTwoArrayOracle:
    """integrate over the stacked (2, n) state against the two-array steppers
    and fields: the same bytes, signed zeros included, and the same refusals."""

    @pytest.mark.parametrize("method", ["rk4", "implicit_midpoint"])
    @pytest.mark.parametrize("name", [
        "ot_kinetic", "fisher_ot", "lp_kinetic", "sbp_entropic", "sbp_psi", "schrodinger_fg",
        "sbp_entropic-constant", "sbp_entropic-periodic",
        "sbp_psi-constant", "sbp_psi-periodic"])
    def test_trajectory_bytes(self, name, method):
        spec, state, t1, dt, every = oracle_case(name)
        traj = integrate(spec, state, 0.0, t1, dt, method=method, record_every=every)
        want = two_array_integrate(spec, state, 0.0, t1, dt, method, every)
        got = (traj.times, traj.rho, traj.pot, traj.H, traj.mass_defect)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]

    @pytest.mark.parametrize("method", ["rk4", "implicit_midpoint"])
    @pytest.mark.parametrize("name", [
        "psi-gap", "potential", "negative-mass", "nonfinite-state", "factor-magnitude",
        "midpoint-divergence", "nan-rate-psi", "nan-diagonal-S"])
    def test_refusal_is_the_same(self, name, method, monkeypatch):
        spec, state, t1, dt, expected = refusal_case(name)
        logs = [], []
        monkeypatch.setattr(dynamics, "prepare", logged(prepare, logs[0]))
        with np.errstate(all="ignore"), pytest.raises(Exception) as got:
            integrate(spec, state, 0.0, t1, dt, method=method)
        with np.errstate(all="ignore"), pytest.raises(Exception) as want:
            two_array_integrate(spec, state, 0.0, t1, dt, method,
                                prepare=logged(two_array_prepare, logs[1]))
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
        assert logs[0] == logs[1]                    # refused after the same evaluations
        if method in expected:
            assert type(got.value) is expected[method]


class TestTransforms:
    def test_hopf_cole_pinned(self):
        st = PhasePoint([0.25, 0.75], [1.0, 0.0])
        out = hopf_cole(st)
        assert out.chart == "psi"
        assert np.allclose(out.pot, [1.0 + 0.5 * math.log(0.25), 0.5 * math.log(0.75)])
        back = hopf_cole_inverse(out)
        assert np.allclose(back.pot, st.pot) and np.allclose(back.rho, st.rho)

    def test_madelung_pinned(self):
        st = PhasePoint([0.25, 0.75], [math.log(2.0), 0.0])
        out = madelung(st)
        assert out.chart == "fg"
        assert out.rho[0] == pytest.approx(0.25)    # f = sqrt(1/4) / 2
        assert out.pot[0] == pytest.approx(1.0)     # g = sqrt(1/4) * 2

    def test_madelung_roundtrip(self):
        rng = np.random.default_rng(9)
        rho = rng.uniform(0.1, 1.0, 4)
        rho /= rho.sum()
        st = PhasePoint(rho, rng.normal(size=4))
        back = madelung_inverse(madelung(st))
        assert np.max(np.abs(back.rho - st.rho)) < 1e-14
        assert np.max(np.abs(back.pot - st.pot)) < 1e-14

    def test_nonpositive_factor_rejected(self):
        with pytest.raises(NonpositiveFG):
            madelung_inverse(PhasePoint([1.0, -0.5], [1.0, 1.0], chart="fg"))

    def test_chart_guards(self):
        with pytest.raises(ValueError):
            hopf_cole(PhasePoint([0.5, 0.5], [0.0, 0.0], chart="psi"))
        with pytest.raises(ValueError):
            madelung(PhasePoint([0.5, 0.5], [0.0, 0.0], chart="fg"))


class TestSymplectic:
    def rand_states(self, rng, count=20, n=3):
        out = []
        for _ in range(count):
            rho = rng.uniform(0.1, 1.0, n)
            rho /= rho.sum()
            out.append(PhasePoint(rho, rng.normal(scale=0.8, size=n)))
        return out

    def test_hopf_cole_preserves_form(self):
        rng = np.random.default_rng(17)
        for st in self.rand_states(rng):
            assert symplectic_check(hopf_cole, st) < 1e-6

    def test_madelung_preserves_form(self):
        rng = np.random.default_rng(18)
        for st in self.rand_states(rng):
            assert symplectic_check(madelung, st) < 1e-6

    def test_swapped_convention_reverses_sign(self):
        # madelung with its (f, g) slots swapped: D^T J D = -J, so the check,
        # far from J, must report it
        rng = np.random.default_rng(19)
        st = self.rand_states(rng, count=1)[0]
        n = 3
        J = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])

        def swapped(s):
            out = madelung(s)
            return PhasePoint(out.pot, out.rho, chart="fg")

        def stacked(z):
            out = swapped(PhasePoint(z[:n], z[n:]))
            return np.concatenate([out.rho, out.pot])

        z0 = np.concatenate([st.rho, st.pot])
        D = np.empty((6, 6))
        for col in range(6):
            e = np.zeros(6)
            e[col] = 1e-6
            D[:, col] = (stacked(z0 + e) - stacked(z0 - e)) / 2e-6
        assert np.max(np.abs(D.T @ J @ D + J)) < 1e-6
        assert symplectic_check(swapped, st) > 1.0


class TestChartCommutation:
    def test_three_charts_land_together(self):
        rng = np.random.default_rng(23)
        g = complete_graph(3)
        # weak rates keep the flow interior across the whole unit window
        weak = 0.25 * random_generator(rng, 3).at(0.0)
        rates = constant_rates(weak)
        rho0 = np.array([0.5, 0.2, 0.3])
        s0 = np.array([0.1, -0.05, 0.1])
        start = PhasePoint(rho0, s0)

        a_traj = integrate(sbp_entropic(g, rates), start, 0.0, 1.0, 1e-3)
        assert a_traj.rho.min() > 0.05
        a = a_traj.final

        b_traj = integrate(sbp_psi(g, rates), hopf_cole(start), 0.0, 1.0, 1e-3)
        b = hopf_cole_inverse(b_traj.final)

        c_traj = integrate(schrodinger_fg(g, rates), madelung(start), 0.0, 1.0, 1e-3)
        c = madelung_inverse(c_traj.final)

        for other in (b, c):
            assert np.max(np.abs(other.rho - a.rho)) < 1e-7
            assert np.max(np.abs(other.pot - a.pot)) < 1e-7

    def test_bilinear_energy_constant_in_fg(self):
        g = complete_graph(3)
        rng = np.random.default_rng(29)
        rates = random_generator(rng, 3)
        spec = schrodinger_fg(g, rates)
        st = PhasePoint(rng.uniform(0.5, 1.5, 3), rng.uniform(0.5, 1.5, 3), chart="fg")
        traj = integrate(spec, st, 0.0, 1.0, 1e-3)
        assert np.max(np.abs(traj.H - traj.H[0])) < 1e-10
        assert np.max(np.abs(traj.mass_defect)) < 1e-10


class TestFGFlow:
    def test_forward_factor_closed_form(self):
        flow = schrodinger_evolve(flip_rates(), f0=[1.0, 0.0], dt=1e-3)
        want = np.array([1.0, 0.0]) @ flip_propagator(1.0)
        assert np.max(np.abs(flow.f[-1] - want)) < 1e-12
        assert flow.g is None

    def test_backward_factor_closed_form(self):
        flow = schrodinger_evolve(flip_rates(), g1=[1.0, 0.0], dt=1e-3)
        want = flip_propagator(1.0) @ np.array([1.0, 0.0])
        assert np.max(np.abs(flow.g[0] - want)) < 1e-12

    def test_product_pairing_is_invariant(self):
        rng = np.random.default_rng(31)
        rates = random_generator(rng, 3)
        flow = schrodinger_evolve(rates, f0=[0.4, 0.3, 0.3], g1=[1.0, 2.0, 0.5], dt=1e-3)
        mass = flow.rho.sum(axis=1)
        assert np.max(np.abs(mass - mass[0])) < 1e-10
        assert flow.times[0] == 0.0 and flow.times[-1] == 1.0

    def test_needs_some_seed(self):
        with pytest.raises(ValueError):
            schrodinger_evolve(flip_rates())


class TestMonodromy:
    def test_constant_rates_closed_form(self):
        mono = monodromy(flip_rates(), period=1.0, dt=1e-4)
        assert np.max(np.abs(mono.matrix - flip_propagator(1.0))) < 1e-12
        mults = np.sort_complex(mono.multipliers)
        assert abs(mults[0] - math.exp(-2.0)) < 1e-10
        assert abs(mults[1] - 1.0) < 1e-10
        assert mono.has_unit_multiplier
        assert np.allclose(mono.matrix.sum(axis=1), 1.0, atol=1e-12)

    def test_commuting_time_dependent_family(self):
        base = np.array([[-1.0, 1.0], [1.0, -1.0]])

        def batch(ts):
            return (1.0 + np.sin(ts) ** 2)[:, None, None] * base

        rates = ReferenceRates(2, batch_fn=batch, period=2 * math.pi)
        mono = monodromy(rates, rates.period, dt=1e-4)
        # integral of 1 + sin^2 over a period is 3 pi
        want = scipy.linalg.expm(3 * math.pi * base)
        assert np.max(np.abs(mono.matrix - want)) < 1e-9
        assert mono.has_unit_multiplier

    def test_period_required(self):
        with pytest.raises(TypeError):
            monodromy(flip_rates())

    def test_fundamental_matrix_rows_sum_to_one(self):
        rng = np.random.default_rng(37)
        rates = random_generator(rng, 4)
        u = fundamental_matrix(rates, 0.0, 2.0, dt=1e-3)
        assert np.allclose(u.sum(axis=1), 1.0, atol=1e-12)
        assert u.min() >= -1e-12


class TestBlockedMarcher:
    """fundamental_matrix and propagator share a blocked step-matrix product;
    its block boundaries must not show against a step-by-step rk4, at any
    graph size."""

    BLOCK = _BLOCK_ENTRIES // 16   # steps per block for 4 nodes
    DT = 1e-3

    @staticmethod
    def rates(n=4):
        rng = np.random.default_rng(43)
        base = rng.uniform(0.3, 1.5, size=(n, n))
        phase = rng.uniform(0.0, 2 * math.pi, size=(n, n))
        np.fill_diagonal(base, 0.0)

        def batch(ts):
            off = base * (1.0 + 0.5 * np.sin(3.0 * np.asarray(ts)[:, None, None] + phase))
            return off - np.eye(n) * off.sum(axis=2)[:, :, None]

        return ReferenceRates(n, batch_fn=batch)

    @staticmethod
    def sequential(rates, t1, steps):
        dt = t1 / steps
        u = np.eye(rates.n)
        for k in range(steps):
            m0, mh, m1 = rates.at(k * dt), rates.at((k + 0.5) * dt), rates.at((k + 1) * dt)
            k1 = u @ m0
            k2 = (u + 0.5 * dt * k1) @ mh
            k3 = (u + 0.5 * dt * k2) @ mh
            k4 = (u + dt * k3) @ m1
            u = u + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        return u

    @pytest.mark.parametrize("steps", [1, BLOCK - 1, BLOCK + 1, 2 * BLOCK + 453])
    def test_block_boundaries_match_sequential_rk4(self, steps, n=4):
        rates = self.rates(n)
        t1 = steps * self.DT
        want = self.sequential(rates, t1, steps)
        u = fundamental_matrix(rates, 0.0, t1, dt=self.DT)
        p = propagator(rates, 0.0, t1, dt=self.DT)
        for got in (u, p):
            assert np.max(np.abs(got - want)) <= 1e-13
            assert np.max(np.abs(got.sum(axis=1) - 1.0)) <= 1e-12

    @pytest.mark.parametrize("n", [50, 96])
    def test_large_graphs_match_sequential_rk4(self, n):
        # a block holds 6 step matrices at n = 50 and one at n = 96
        self.test_block_boundaries_match_sequential_rk4(13, n=n)

    @pytest.mark.parametrize("n, steps", [(4, 1), (4, BLOCK - 1), (4, BLOCK), (4, BLOCK + 1),
                                          (4, 2 * BLOCK + 453), (50, 13)])
    def test_stack_product_is_the_streamed_product(self, n, steps):
        # solve_bridge takes its kernel and its factor march from one held list
        # of the grid's blocks; both must equal the public marchers bit for bit
        rates, t1 = self.rates(n), steps * self.DT
        grid = LinearGrid(rates, 0.0, t1, self.DT)
        blocks = list(grid.blocks())
        assert sum(map(len, blocks)) == steps
        np.testing.assert_array_equal(grid.kernel(blocks), propagator(rates, 0.0, t1, dt=self.DT))
        f0, g1 = np.linspace(0.2, 1.0, n), np.linspace(1.0, 0.3, n)
        f, g = grid.march(blocks, f0, g1)
        flow = schrodinger_evolve(rates, f0=f0, g1=g1, t0=0.0, t1=t1, dt=self.DT)
        np.testing.assert_array_equal(grid.times, flow.times)
        np.testing.assert_array_equal(f, flow.f)
        np.testing.assert_array_equal(g, flow.g)

    @staticmethod
    def held_blocks(grid):
        """The grid's step-matrix blocks from m held at every grid time and
        midpoint at once, each block a slice of the two whole stacks."""
        rates, dt = grid.rates, grid.dt
        full, half = rates.at_many(grid.times), rates.at_many(grid.times[:-1] + 0.5 * dt)
        eye, size = np.eye(rates.n), _block_size(rates.n)
        blocks = []
        for lo in range(0, len(half), size):
            mh = half[lo:lo + size]
            m0, m1 = full[lo:lo + len(mh)], full[lo + 1:lo + len(mh) + 1]
            k2 = (eye + 0.5 * dt * m0) @ mh
            k3 = (eye + 0.5 * dt * k2) @ mh
            k4 = (eye + dt * k3) @ m1
            blocks.append(eye + dt * (m0 + 2 * k2 + 2 * k3 + k4) / 6.0)
        return blocks

    @pytest.mark.parametrize("steps", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 453])
    def test_streamed_rates_match_a_held_stack(self, steps, n=4):
        # blocks() evaluates m per block; product, kernel and march must be
        # the ones the whole (K, n, n) stacks of m gave, bit for bit
        rates, t1 = self.rates(n), steps * self.DT
        grid = LinearGrid(rates, 0.0, t1, self.DT)
        held = self.held_blocks(grid)
        streamed = list(grid.blocks())
        assert len(streamed) == len(held)
        for got, want in zip(streamed, held):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(fundamental_matrix(rates, 0.0, t1, dt=self.DT),
                                      grid.product(held))
        np.testing.assert_array_equal(propagator(rates, 0.0, t1, dt=self.DT), grid.kernel(held))
        f0, g1 = np.linspace(0.2, 1.0, n), np.linspace(1.0, 0.3, n)
        flow = schrodinger_evolve(rates, f0=f0, g1=g1, t0=0.0, t1=t1, dt=self.DT)
        f, g = grid.march(held, f0, g1)
        np.testing.assert_array_equal(flow.f, f)
        np.testing.assert_array_equal(flow.g, g)

    @pytest.mark.parametrize("name", ["two-node-periodic", "three-node-circle"])
    def test_monodromy_matches_a_held_stack(self, name):
        rates = load_config(name).reference
        grid = LinearGrid(rates, 0.0, rates.period, 1e-4)
        np.testing.assert_array_equal(monodromy(rates, rates.period).matrix,
                                      grid.product(self.held_blocks(grid)))

    def test_monodromy_memory_does_not_grow_with_the_steps(self):
        # 62,832 steps; the (K, 3, 3) stacks of m at the grid times and the
        # midpoints alone would take 9 MB
        rates = load_config("three-node-circle").reference
        tracemalloc.start()
        try:
            mono = monodromy(rates, rates.period, dt=1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mono.has_unit_multiplier
        assert peak < 4e6


def sequential_factors(ms, hs, dt, f0, g1):
    """Step-by-step rk4 of df/dt = f m forward and of dg/dt = -m g backward,
    each in its own orientation, from m at the grid times (ms) and midpoints (hs)."""
    steps = len(hs)
    f, g = [np.asarray(f0, dtype=float)], [np.asarray(g1, dtype=float)]
    for k in range(steps):
        y, m0, mh, m1 = f[-1], ms[k], hs[k], ms[k + 1]
        k1 = y @ m0
        k2 = (y + 0.5 * dt * k1) @ mh
        k3 = (y + 0.5 * dt * k2) @ mh
        k4 = (y + dt * k3) @ m1
        f.append(y + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0)
    h = -dt
    for k in range(steps, 0, -1):
        y, m0, mh, m1 = g[-1], ms[k], hs[k - 1], ms[k - 1]
        k1 = -(m0 @ y)
        k2 = -(mh @ (y + 0.5 * h * k1))
        k3 = -(mh @ (y + 0.5 * h * k2))
        k4 = -(m1 @ (y + h * k3))
        g.append(y + h * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0)
    return np.array(f), np.array(g[::-1])


class TestFactorMarch:
    """schrodinger_evolve marches both factors on the forward rk4 step
    matrices; each must match a step-by-step rk4 in its own orientation,
    the backward factor included, on both sides of a block boundary."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 8), seed=st.integers(0, 2 ** 32 - 1),
           side=st.sampled_from([-1, 1]), dt=st.floats(1e-3, 1e-2))
    def test_factors_match_sequential_rk4(self, n, seed, side, dt):
        rng = np.random.default_rng(seed)
        base = rng.uniform(0.0, 1.5, size=(n, n))
        phase = rng.uniform(0.0, 2 * math.pi, size=(n, n))
        freq = rng.uniform(0.5, 5.0)
        np.fill_diagonal(base, 0.0)

        def batch(ts):
            off = base * (1.0 + 0.5 * np.sin(freq * np.asarray(ts)[:, None, None] + phase))
            return off - np.eye(n) * off.sum(axis=2)[:, :, None]

        steps = _BLOCK_ENTRIES // n ** 2 + side
        f0, g1 = rng.uniform(0.1, 1.0, n), rng.uniform(0.1, 1.0, n)
        flow = schrodinger_evolve(ReferenceRates(n, batch_fn=batch), f0=f0, g1=g1,
                                  t1=steps * dt, dt=dt)
        times = flow.times
        grid_dt = times[1] - times[0]
        want_f, want_g = sequential_factors(batch(times), batch(times[:-1] + 0.5 * grid_dt),
                                            grid_dt, f0, g1)
        assert len(times) == steps + 1
        for got, want in ((flow.f, want_f), (flow.g, want_g)):
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13


def periodic_counting(name):
    """The built-in's periodic reference and a copy whose batch closure
    records the times of each call."""
    rates = load_config(name).reference
    calls = []

    def batch(ts):
        calls.append(np.array(ts, dtype=float))
        return rates.at_many(ts)

    return rates, ReferenceRates(rates.n, batch_fn=batch, period=rates.period), calls


def stage_times(t0, t1, dt, offsets):
    """Every time integrate evaluates at: each step's start plus offsets, and t1."""
    steps = max(1, int(round((t1 - t0) / dt)))
    dt = (t1 - t0) / steps
    starts = [t0 + k * dt for k in range(steps + 1)]
    return set(starts) | {t + h * dt for t in starts[:-1] for h in offsets}


class TestPreparedReference:
    """integrate evaluates a time-dependent reference once per distinct stage
    time, in blocks, and the flow does not change."""

    @pytest.mark.parametrize("method, offsets", [("rk4", (0.5, 1.0)),
                                                 ("implicit_midpoint", (0.5,))])
    def test_one_batch_call_per_block(self, method, offsets):
        _, counted, calls = periodic_counting("two-node-periodic")
        spec = sbp_psi(complete_graph(2), counted)
        state = PhasePoint([0.75, 0.25], [0.0, 0.0], chart="psi")
        dt = 2 * math.pi / 2500
        integrate(spec, state, 0.0, 2 * math.pi, dt, method=method, record_every=7)
        want = stage_times(0.0, 2 * math.pi, dt, offsets)
        size = _block_size(2)
        assert len(calls) == -(-len(want) // size) >= 2
        assert all(len(ts) == size for ts in calls[:-1])
        seen = np.concatenate(calls).tolist()
        assert len(seen) == len(set(seen)) and set(seen) == want

    @pytest.mark.parametrize("name", ["two-node-periodic", "three-node-circle"])
    @pytest.mark.parametrize("variant", ["sbp_psi", "sbp_entropic"])
    def test_trajectory_matches_a_per_call_reference(self, name, variant):
        scenario = load_config(name)
        rates = scenario.reference
        per_call = ReferenceRates(
            rates.n, batch_fn=lambda ts: np.stack([rates.at_many([t])[0] for t in ts]),
            period=rates.period)
        g = complete_graph(rates.n)
        maker, state = {"sbp_psi": (sbp_psi, scenario.initial),
                        "sbp_entropic": (sbp_entropic, hopf_cole_inverse(scenario.initial))}[variant]
        digests = []
        for ref in (rates, per_call):
            traj = integrate(maker(g, ref), state, 0.0, 2 * math.pi, 0.01, record_every=3)
            digests.append([hashlib.sha256(a.tobytes()).hexdigest()
                            for a in (traj.rho, traj.pot, traj.H)])
        assert digests[0] == digests[1]

    def test_off_grid_evaluations_are_unchanged(self):
        rates, counted, calls = periodic_counting("three-node-circle")
        spec = sbp_psi(complete_graph(3), counted)
        state = PhasePoint([0.5, 0.3, 0.2], [0.1, 0.0, -0.1], chart="psi")
        plain = sbp_psi(complete_graph(3), rates)
        field, energy = prepare(spec, [0.0, 0.25, 0.5])
        for t in (0.0, 0.1, 0.25, 0.3, 0.5, 0.7, 0.25):
            want = vector_field(plain, state, t)
            got = field(state.rho, state.pot, t)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
            assert energy(state.rho, state.pot, t) == eval_H(plain, state, t)
        # one block for the three planned times; every other evaluation alone,
        # the planned 0.25 too once the flow has moved past it
        assert calls[0].tolist() == [0.0, 0.25, 0.5]
        assert [len(ts) for ts in calls[1:]] == [1] * 8
