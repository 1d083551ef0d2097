"""Theta weight evaluators.

Claims checked here:
    - pinned values: average(0.2, 0.4) = 0.3, logmean(0.2, 0.4) = 0.2/log 2,
      upwind picks the donor mass by direction sign with ties to rho_i
    - the logarithmic mean sits between min and arithmetic mean, equals the
      endpoints only on the diagonal, and its series branch agrees with a
      long-double quotient evaluation
    - partials match central finite differences away from branch boundaries
    - symmetry: theta(a, b) = theta(b, a) for the symmetric kinds, and for
      upwind once the direction is flipped with the pair
    - the log mean's unmasked closed form, taken when no pair is near the
      diagonal, gives bit for bit what the masked evaluation kept here gives,
      for the value, the partials, theta_with_partial and
      edge_theta_with_partial_sum, with no, some and all pairs near
"""

import decimal
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from graphham.errors import BoundaryDensity
from graphham.graph import edge_theta_with_partial_sum, validate_graph
from graphham.theta import (
    _SERIES_CUTOFF,
    AVERAGE,
    LOGMEAN,
    UPWIND,
    ThetaKind,
    _logmean,
    _logmean_partials,
    from_name,
    theta,
    theta_partial,
    theta_with_partial,
)

masses = st.floats(min_value=1e-6, max_value=1.0, allow_nan=False, allow_infinity=False)


class TestPinnedValues:
    def test_average(self):
        assert theta(AVERAGE, 0.2, 0.4) == pytest.approx(0.3, abs=1e-15)

    def test_logmean(self):
        # (0.2 - 0.4) / (log 0.2 - log 0.4) = 0.2 / log 2
        assert theta(LOGMEAN, 0.2, 0.4) == pytest.approx(0.2 / math.log(2), rel=1e-12)

    def test_logmean_diagonal(self):
        assert theta(LOGMEAN, 0.37, 0.37) == pytest.approx(0.37, rel=1e-14)

    def test_upwind_branches(self):
        assert theta(UPWIND, 0.2, 0.4, dir_ij=1.0) == 0.4
        assert theta(UPWIND, 0.2, 0.4, dir_ij=-1.0) == 0.2
        assert theta(UPWIND, 0.2, 0.4, dir_ij=0.0) == 0.2  # tie goes to rho_i

    def test_from_name_roundtrip(self):
        for name in ("average", "logmean", "upwind"):
            assert from_name(name).kind == name

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            ThetaKind("geometric")

    def test_logmean_boundary_rejected(self):
        with pytest.raises(BoundaryDensity):
            theta(LOGMEAN, 0.0, 0.4)


class TestLogMean:
    @given(masses, masses)
    def test_between_min_and_average(self, a, b):
        lm = float(theta(LOGMEAN, a, b))
        assert min(a, b) - 1e-15 <= lm <= 0.5 * (a + b) + 1e-15

    @given(masses, masses)
    def test_symmetric(self, a, b):
        assert float(theta(LOGMEAN, a, b)) == pytest.approx(float(theta(LOGMEAN, b, a)), rel=1e-12)

    def test_series_matches_high_precision_quotient(self):
        # independent oracle: the raw quotient in 50-digit decimal arithmetic,
        # probing points inside the series branch
        ctx = decimal.Context(prec=50)
        a = 0.3
        for gap in (1e-7, 1e-8, 1e-10, 1e-13):
            b = a + gap
            ad, bd = decimal.Decimal(a), decimal.Decimal(b)
            exact = float(ctx.divide(ad - bd, ctx.ln(ad) - ctx.ln(bd)))
            assert float(theta(LOGMEAN, a, b)) == pytest.approx(exact, rel=1e-12)

    def test_continuity_across_cutoff(self):
        # the same point evaluated through the series must agree with the
        # double-precision quotient to well below the quotient's own noise
        a = 0.3
        b = a * (1 + 1.9e-6)  # inside the series branch
        quotient = (a - b) / (math.log(a) - math.log(b))
        assert float(theta(LOGMEAN, a, b)) == pytest.approx(quotient, rel=5e-10)


class TestPartials:
    def _fd(self, kind, a, b, which, dir_ij=0.0, h=1e-6):
        if which == "first":
            return float(theta(kind, a + h, b, dir_ij) - theta(kind, a - h, b, dir_ij)) / (2 * h)
        return float(theta(kind, a, b + h, dir_ij) - theta(kind, a, b - h, dir_ij)) / (2 * h)

    def test_average_partials(self):
        first, second = theta_partial(AVERAGE, 0.2, 0.7)
        assert first == pytest.approx(0.5)
        assert second == pytest.approx(0.5)

    def test_logmean_partials_match_fd(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a, b = rng.uniform(0.05, 0.95, size=2)
            partials = theta_partial(LOGMEAN, a, b)
            for got, which in zip(partials, ("first", "second")):
                got = float(got)
                want = self._fd(LOGMEAN, a, b, which)
                assert got == pytest.approx(want, rel=1e-6, abs=1e-9)

    def test_logmean_partials_near_diagonal(self):
        # the series branch: central difference of the quotient in 50-digit
        # decimal arithmetic, step far below the gap
        ctx = decimal.Context(prec=50)

        def lm(x, y):
            return ctx.divide(x - y, ctx.ln(x) - ctx.ln(y))

        a = 0.4
        h = decimal.Decimal("1e-12")
        for gap in (1e-7, -3e-8):
            b = a + gap
            ad, bd = decimal.Decimal(a), decimal.Decimal(b)
            want = float((lm(ad + h, bd) - lm(ad - h, bd)) / (2 * h))
            got = float(theta_partial(LOGMEAN, a, b)[0])
            assert got == pytest.approx(want, rel=1e-8)

    def test_upwind_partials_match_fd(self):
        for dir_ij in (1.0, -1.0):
            partials = theta_partial(UPWIND, 0.3, 0.6, dir_ij)
            for got, which in zip(partials, ("first", "second")):
                got = float(got)
                want = self._fd(UPWIND, 0.3, 0.6, which, dir_ij=dir_ij)
                assert got == pytest.approx(want, abs=1e-9)

    def test_logmean_partials_sum_to_one_on_diagonal(self):
        da, db = map(float, theta_partial(LOGMEAN, 0.25, 0.25))
        assert da == pytest.approx(0.5, rel=1e-10)
        assert db == pytest.approx(0.5, rel=1e-10)


class TestUpwindSymmetry:
    @given(masses, masses, st.floats(min_value=-2, max_value=2, allow_nan=False))
    def test_flip_pair_and_direction(self, a, b, d):
        # theta_ij with direction d equals theta_ji with direction -d except
        # exactly at ties, which the flow factor kills anyway
        if d == 0:
            return
        assert float(theta(UPWIND, a, b, d)) == float(theta(UPWIND, b, a, -d))


def _masked_logmean(a, b):
    """The log mean with every series switch taken by np.where, pair by pair."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    s = 0.5 * (a + b)
    with np.errstate(divide="ignore", invalid="ignore"):
        eta = np.where(s > 0, (a - b) / (2.0 * np.where(s > 0, s, 1.0)), 0.0)
        near = np.abs(eta) < _SERIES_CUTOFF
        eta2 = eta * eta
        series = s * (1.0 - eta2 / 3.0 - 4.0 * (eta2 * eta2) / 45.0)
        delta = np.log(np.where(near, 1.0, a)) - np.log(np.where(near, 1.0, b))
        quotient = np.where(near, series, (a - b) / np.where(near, 1.0, delta))
    return np.where(near, series, quotient), eta, near, delta


def _masked_partials(a, b, lm, eta, near, delta):
    with np.errstate(divide="ignore", invalid="ignore"):
        da_far = (1.0 - lm / a) / np.where(near, 1.0, delta)
        db_far = (lm / b - 1.0) / np.where(near, 1.0, delta)
    da_near = 0.5 * (1.0 - 2.0 * eta / 3.0 + eta * eta / 3.0)
    db_near = 0.5 * (1.0 + 2.0 * eta / 3.0 + eta * eta / 3.0)
    return np.where(near, da_near, da_far), np.where(near, db_near, db_far)


@st.composite
def _gaps(draw, size):
    """Relative gaps of `size` pairs, each near the diagonal (below the series
    cutoff) or far from it: no, some or all of them near."""
    mode = draw(st.sampled_from(["none", "some", "all"]))
    near = {"none": np.zeros(size, bool), "all": np.ones(size, bool),
            "some": draw(hnp.arrays(bool, size))}[mode]
    return np.where(near, draw(hnp.arrays(float, size, elements=st.floats(-1e-7, 1e-7))),
                    draw(hnp.arrays(float, size, elements=st.one_of(
                        st.floats(-0.7, -1e-3), st.floats(1e-3, 2.0)))))


class TestClosedForm:
    @given(st.integers(1, 40).flatmap(
        lambda n: st.tuples(hnp.arrays(float, n, elements=st.floats(1e-6, 1.0)), _gaps(n))))
    def test_equals_the_masked_evaluation(self, drawn):
        a, gap = drawn
        b = a * (1.0 + gap)
        want = _masked_logmean(a, b)
        got = _logmean(a, b)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        want_partials = _masked_partials(a, b, *want)
        for g, w in zip(_logmean_partials(a, b, *got), want_partials):
            assert np.array_equal(g, w)
        th, (first, second) = theta_with_partial(LOGMEAN, a, b)
        assert np.array_equal(th, want[0])
        assert np.array_equal(first, want_partials[0])
        assert np.array_equal(second, want_partials[1])

    @given(st.integers(1, 12).flatmap(_gaps))
    def test_edge_weights_equal_the_masked_evaluation(self, gap):
        # a path graph whose edge k joins masses in the relative gap gap[k]
        rho = 0.5 * np.cumprod(np.concatenate([[1.0], 1.0 + gap]))
        g = validate_graph(len(rho), [[k, k + 1, 1.0] for k in range(len(gap))])
        lm = _masked_logmean(rho[g.src], rho[g.dst])
        first, second = _masked_partials(rho[g.src], rho[g.dst], *lm)
        th, psum = edge_theta_with_partial_sum(g, rho, LOGMEAN)
        assert np.array_equal(th, lm[0])
        assert np.array_equal(psum, first + second[g.rev])
