"""The ordered-pair edge calculus against a dense (n, n) oracle.

Claims checked here:
    - every edge appears as two ordered pairs, sorted by (src, dst), with
      rev pointing at the reversed pair and the pair weights matching the
      dense weight matrices
    - on random connected graphs with random and fisher weights, interior
      densities and every theta kind, the pair field and energy of
      ot_kinetic, lp_kinetic and fisher_ot, and the upwind_ot and
      theta_general generators, match the dense formulas to 1e-12 relative
    - on random connected graphs, the field and energy of sbp_entropic and
      sbp_psi and the sbp generator, run on the reference's support pairs,
      match the dense (n, n) formulas they replaced to 1e-12 relative, over
      symmetric_rates, a constant matrix on the graph's pairs with zero
      entries, and a time-dependent batch_fn reference
    - on random connected graphs, the generator that build_rate_matrix
      extracts reproduces its flow's density equation, rho Q = d rho: for
      ot_kinetic under every theta kind, lp_kinetic, fisher_ot,
      sbp_entropic over symmetric_rates, and sbp_psi at the hopf_cole image
    - building a 1,024-node cycle allocates O(|E|), and so does one field
      evaluation on it of ot_kinetic, and of sbp_entropic and sbp_psi over
      symmetric_rates, not one (n, n) array
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings, strategies as st

from graphham.dynamics import hopf_cole
from graphham.graph import validate_graph
from graphham.hamiltonians import (PhasePoint, ReferenceRates, constant_rates, fisher_ot,
                                   lp_kinetic, ot_kinetic, prepare, sbp_entropic, sbp_psi,
                                   symmetric_rates, vector_field)
from graphham.markov import build_rate_matrix, validate_rate_matrix
from graphham.theta import AVERAGE, LOGMEAN, UPWIND, theta, theta_partial

KINDS = {"average": AVERAGE, "logmean": LOGMEAN, "upwind": UPWIND}


# -- the dense oracle: the (n, n) formulas the pair calculus replaced -------------
# `d` holds the dense adjacency, weight and fisher_weight, built from the raw
# edge rows, not from the pair arrays under test.


def dense_direction(kind, source):
    if kind.kind != "upwind":
        return 0.0
    src = np.asarray(source, dtype=float)
    if src.ndim == 1:
        return src[:, None] - src[None, :]
    return src


def dense_theta(d, r, kind, direction=None):
    th = theta(kind, r[:, None], r[None, :], dense_direction(kind, direction))
    return np.where(d.adjacency, th, 0.0)


def dense_partial_sum(d, r, kind, direction=None):
    first, second = theta_partial(kind, r[:, None], r[None, :],
                                  dense_direction(kind, direction))
    return np.where(d.adjacency, first + second.T, 0.0)


def dense_fisher(d, r, kind):
    dlog = np.log(r)[:, None] - np.log(r)[None, :]
    return float(0.5 * (dlog ** 2 * dense_theta(d, r, kind) * d.fisher_weight).sum())


def dense_fisher_grad(d, r, kind):
    dlog = np.log(r)[:, None] - np.log(r)[None, :]
    th = dense_theta(d, r, kind)
    psum = dense_partial_sum(d, r, kind)
    term = 2.0 * dlog * th / r[:, None] + 0.5 * dlog ** 2 * psum
    return (np.where(d.adjacency, term, 0.0) * d.fisher_weight).sum(axis=1)


def dense_kinetic(d, spec):
    kind, q = spec.theta, spec.q
    adj, w = d.adjacency, d.weight
    lp = spec.variant == "lp_kinetic"
    beta = spec.beta if spec.variant == "fisher_ot" else 0.0

    def edges(rho, pot):
        ds = (pot[:, None] - pot[None, :]) * adj
        return ds, dense_theta(d, rho, kind, direction=ds)

    def energy(rho, pot):
        ds, th = edges(rho, pot)
        if lp:
            val = float((np.abs(ds) ** q * th * w).sum() / (2.0 * q))
        else:
            val = float(0.25 * (ds ** 2 * th * w).sum())
        if beta:
            val -= beta * dense_fisher(d, rho, spec.theta_tilde)
        return val

    def field(rho, pot):
        ds, th = edges(rho, pot)
        psum = dense_partial_sum(d, rho, kind, direction=ds)
        if lp:
            flow = np.abs(ds) ** (q - 1.0) * np.sign(ds)
            drho = 0.5 * (w * flow * (th + th.T)).sum(axis=1)
            dpot = -(w * np.abs(ds) ** q * psum).sum(axis=1) / (2.0 * q)
        else:
            drho = 0.5 * (w * ds * (th + th.T)).sum(axis=1)
            dpot = -0.25 * (w * ds ** 2 * psum).sum(axis=1)
        if beta:
            dpot += beta * dense_fisher_grad(d, rho, spec.theta_tilde)
        return drho, dpot

    return field, energy


def dense_rates(d, kind, rho, s, theta_kind=None):
    ds = s[:, None] - s[None, :]
    if kind == "upwind_ot":
        q = d.weight * np.clip(-ds, 0.0, None)
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, (d.weight * np.minimum(ds, 0.0)).sum(axis=1))
    elif theta_kind.kind == "average":
        q = 0.5 * d.weight * (-ds)
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, 0.5 * (d.weight * ds).sum(axis=1))
    else:
        dlog = np.log(rho)[:, None] - np.log(rho)[None, :]
        safe = np.where(np.abs(dlog) < 1e-300, 1.0, dlog)
        q = np.where(d.adjacency, -d.weight * ds / safe, 0.0)
        np.fill_diagonal(q, (np.where(d.adjacency, d.weight * ds / safe, 0.0)).sum(axis=1))
    return validate_rate_matrix(q, kind).entries


# The sbp family over a dense reference matrix m at one time: the pairs that
# carry rate are the off-diagonal nonzeros of m, where the gaps are capped.


def dense_mask(m):
    return ~np.eye(len(m), dtype=bool) & (m != 0)


def dense_gaps(m, pot):
    return np.where(dense_mask(m), pot[None, :] - pot[:, None], 0.0)     # pot_j - pot_i


def dense_entropic(m, rho, pot):
    """(field, energy) of sbp_entropic."""
    fl = np.exp(dense_gaps(m, pot)) * np.where(dense_mask(m), m, 0.0) * np.sqrt(
        rho[:, None] * rho[None, :])
    out, inflow = fl.sum(axis=1), fl.sum(axis=0)
    diag = np.diag(m)
    return ((inflow - out, -diag - (out + inflow) / (2.0 * rho)),
            float(fl.sum() + diag @ rho))


def dense_dual(m, rho, psi):
    """(field, energy) of sbp_psi."""
    z, rate = dense_gaps(m, psi), np.where(dense_mask(m), m, 0.0)
    out = np.exp(z) * rate * rho[:, None]
    return ((out.sum(axis=0) - out.sum(axis=1), -(np.expm1(z) * rate).sum(axis=1)),
            float((np.expm1(z) * rate * rho[:, None]).sum()))


def dense_sbp_rates(m, rho, s):
    """The sbp generator e^{S_b - S_a} sqrt(rho_b / rho_a) m_ab, minus its row
    sums on the diagonal."""
    q = np.exp(dense_gaps(m, s)) * np.sqrt(rho[None, :] / rho[:, None]) * np.where(
        dense_mask(m), m, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return validate_rate_matrix(q, "sbp").entries


# -- generated inputs ---------------------------------------------------------------


def random_graph(rng, n):
    """A random spanning tree plus random extra edges, with independent
    edge and fisher weights, and its dense oracle matrices."""
    pairs = {tuple(sorted((i, int(rng.integers(i))))) for i in range(1, n)}
    for _ in range(int(rng.integers(0, 2 * n))):
        i, j = rng.choice(n, size=2, replace=False)
        pairs.add((int(min(i, j)), int(max(i, j))))
    rows = [(i, j, float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.1, 3.0)))
            for i, j in sorted(pairs)]
    d = SimpleNamespace(weight=np.zeros((n, n)), fisher_weight=np.zeros((n, n)))
    for i, j, w, wt in rows:
        d.weight[i, j] = d.weight[j, i] = w
        d.fisher_weight[i, j] = d.fisher_weight[j, i] = wt
    d.adjacency = d.weight > 0
    return validate_graph(n, rows), d


def close(got, want):
    """got equals want to 1e-12 relative to want's largest magnitude."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    scale = max(np.abs(want).max(initial=0.0), 1e-300)
    assert np.abs(got - want).max(initial=0.0) <= 1e-12 * scale


# -- tests ----------------------------------------------------------------------------


class TestPairs:
    def test_pairs_of_a_path(self):
        g = validate_graph(3, [(1, 2, 2.0, 5.0), (0, 1, 1.0)])
        np.testing.assert_array_equal(g.src, [0, 1, 1, 2])
        np.testing.assert_array_equal(g.dst, [1, 0, 2, 1])
        np.testing.assert_array_equal(g.rev, [1, 0, 3, 2])
        np.testing.assert_array_equal(g.w, [1.0, 1.0, 2.0, 2.0])
        np.testing.assert_array_equal(g.wt, [1.0, 1.0, 5.0, 5.0])
        assert not g.src.flags.writeable and not g.rev.flags.writeable


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 40), seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(sorted(KINDS)), smooth=st.sampled_from(["average", "logmean"]),
       q=st.floats(1.2, 4.0))
def test_pair_calculus_matches_dense_oracle(n, seed, kind, smooth, q):
    rng = np.random.default_rng(seed)
    g, d = random_graph(rng, n)
    pairs = len(g.src)
    assert pairs == 2 * len(g.edges) == d.adjacency.sum()
    np.testing.assert_array_equal(g.rev[g.rev], np.arange(pairs))
    np.testing.assert_array_equal(g.src[g.rev], g.dst)
    assert d.adjacency[g.src, g.dst].all()
    np.testing.assert_array_equal(d.weight[g.src, g.dst], g.w)
    np.testing.assert_array_equal(d.fisher_weight[g.src, g.dst], g.wt)
    assert (np.diff(g.src * n + g.dst) > 0).all()

    rho = rng.dirichlet(np.full(n, 2.0)) * 0.9 + 0.1 / n
    pot = rng.normal(0.0, 1.0, n)
    theta_kind = KINDS[kind]
    specs = [ot_kinetic(g, theta_kind), lp_kinetic(g, theta_kind, q=q)]
    if kind != "upwind":
        specs.append(fisher_ot(g, theta_kind, beta=float(rng.uniform(0.0, 0.5))))
    specs.append(fisher_ot(g, UPWIND if kind == "upwind" else theta_kind,
                           kind_tilde=KINDS[smooth], beta=0.125))
    for spec in specs:
        field, energy = prepare(spec)
        want_field, want_energy = dense_kinetic(d, spec)
        close(energy(rho, pot, 0.0), want_energy(rho, pot))
        for got, want in zip(field(rho, pot, 0.0), want_field(rho, pot)):
            close(got, want)

    state = PhasePoint(rho, pot)
    if kind == "upwind":
        close(build_rate_matrix(ot_kinetic(g, UPWIND), state).entries,
              dense_rates(d, "upwind_ot", rho, pot))
    else:
        close(build_rate_matrix(ot_kinetic(g, theta_kind), state).entries,
              dense_rates(d, "theta_general", rho, pot, theta_kind))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 40), seed=st.integers(0, 2 ** 32 - 1), t=st.floats(0.0, 2.0))
def test_sbp_pairs_match_dense_oracle(n, seed, t):
    rng = np.random.default_rng(seed)
    g, d = random_graph(rng, n)
    pairs = len(g.src)
    sparse = np.zeros((n, n))
    sparse[g.src, g.dst] = rng.uniform(0.2, 2.0, pairs) * (rng.random(pairs) < 0.7)
    ramp = np.where(d.adjacency, rng.uniform(0.2, 2.0, (n, n)), 0.0)
    np.fill_diagonal(ramp, -ramp.sum(axis=1))
    references = [symmetric_rates(g, float(rng.uniform(0.2, 2.0))), constant_rates(sparse),
                  ReferenceRates(n, batch_fn=lambda ts: (1.0 + np.asarray(ts))[:, None, None]
                                 * ramp)]
    rho = rng.dirichlet(np.full(n, 2.0)) * 0.9 + 0.1 / n
    pot = rng.normal(0.0, 1.0, n)
    for reference in references:
        m = reference.at(t)                            # the dense matrix, not its pairs
        for make, dense in ((sbp_entropic, dense_entropic), (sbp_psi, dense_dual)):
            field, energy = prepare(make(g, reference))
            want_field, want_energy = dense(m, rho, pot)
            close(energy(rho, pot, t), want_energy)
            for got, want in zip(field(rho, pot, t), want_field):
                close(got, want)
        close(build_rate_matrix(sbp_entropic(g, reference), PhasePoint(rho, pot), t).entries,
              dense_sbp_rates(m, rho, pot))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 12), seed=st.integers(0, 2 ** 32 - 1),
       smooth=st.sampled_from(["average", "logmean"]), q=st.floats(1.2, 4.0))
def test_generator_reproduces_the_density_equation(n, seed, smooth, q):
    # the defining identity of the jump process a flow induces: rho Q is the
    # density component of the Hamiltonian field, to rounding of the fluxes
    rng = np.random.default_rng(seed)
    g, _ = random_graph(rng, n)
    rho = rng.dirichlet(np.full(n, 2.0)) * 0.9 + 0.1 / n
    state = PhasePoint(rho, rng.normal(0.0, 1.0, n))
    reference = symmetric_rates(g, float(rng.uniform(0.2, 2.0)))
    cases = [(spec, state) for kind in KINDS.values() for spec in (
        ot_kinetic(g, kind), lp_kinetic(g, kind, q=q),
        fisher_ot(g, kind, kind_tilde=KINDS[smooth], beta=0.125))]
    cases += [(sbp_entropic(g, reference), state),
              (sbp_psi(g, reference), hopf_cole(state))]
    for spec, at in cases:
        q_entries = build_rate_matrix(spec, state).entries
        drho = vector_field(spec, at)[0]
        scale = np.abs(rho[:, None] * q_entries).max()
        assert np.abs(rho @ q_entries - drho).max() <= 1e-12 * scale, spec.variant


def test_field_memory_is_linear_in_the_pairs():
    # one dense (1024, 1024) float array alone would be 8 MB
    n = 1024
    rows = [(i, (i + 1) % n, 1.0) for i in range(n)]
    tracemalloc.start()
    try:
        g = validate_graph(n, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    rng = np.random.default_rng(5)
    rho = rng.dirichlet(np.full(n, 4.0))
    pot = rng.normal(0.0, 0.05, n)
    reference = symmetric_rates(g)
    for spec in (ot_kinetic(g, LOGMEAN), sbp_entropic(g, reference), sbp_psi(g, reference)):
        field, _ = prepare(spec)
        tracemalloc.start()
        try:
            field(rho, pot, 0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, spec.variant
