"""Closed forms, quadrature, and filtered-moment oracles."""

import math
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvqec import gaussian
from cvqec.gaussian import (QUDIT_MEASUREMENT_OFFSET, IntegrationError,
                            gaussian_pdf, integrate, qubit_filtered_moments,
                            qubit_outcome_mean, qudit_filtered_moments,
                            qudit_moments)
from cvqec.protocol import run_qudit_scheme
from oracles import qudit_filter


def fourier_qudit_moments(sigma, alpha, d):
    """Fourier-sum form of the qudit filtered moments.

    Expanding the measurement filter in its finite Fourier series and
    using Gaussian moments of e^{i m alpha b} gives closed sums for the
    outcome weight, first and second moment of each outcome l.  This is
    the same formula ``qudit_filtered_moments`` evaluates, written out
    per outcome; the independent check is the adaptive quadrature in
    ``TestQuditMoments.test_against_adaptive_quadrature``.
    """
    ms = np.arange(-(d - 1), d)
    coef = (d - np.abs(ms)) / d**2
    out = []
    for l in range(d):
        phi = (2 * l + 1) * np.pi / d
        phase = np.exp(1j * ms * phi)
        damp = np.exp(-(ms * alpha * sigma) ** 2)
        n_l = np.sum(coef * phase * damp).real
        m1 = np.sum(coef * phase * (1j * ms * alpha * sigma**2) * damp).real
        m2 = np.sum(coef * phase * (0.5 * sigma**2 - (ms * alpha * sigma**2) ** 2)
                    * damp).real
        out.append((n_l, m1, m2))
    return out


class TestClosedForms:
    def test_pdf_normalization(self):
        x = np.linspace(-2, 2, 20001)
        total = np.trapezoid(gaussian_pdf(x, 0.3), x)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_pdf_variance_convention(self):
        # variance of each quadrature is sigma^2 / 2
        sigma = 0.17
        x = np.linspace(-2, 2, 40001)
        var = np.trapezoid(x**2 * gaussian_pdf(x, sigma), x)
        assert var == pytest.approx(sigma**2 / 2, rel=1e-10)

    def test_qubit_outcome_mean(self):
        sigma, alpha = 0.1, 2.0
        expect = 2 * alpha * sigma**2 * math.exp(-4 * alpha**2 * sigma**2)
        assert qubit_outcome_mean(sigma, alpha) == pytest.approx(expect, rel=1e-12)

    def test_qubit_moments_against_quadrature(self):
        sigma, alpha = 0.12, 2.3
        m = qubit_filtered_moments(sigma, alpha, "+Y")
        f = lambda b: 0.5 * (1 + np.sin(4 * alpha * b))
        lo, hi = -12 * sigma, 12 * sigma
        n = integrate(lambda b: gaussian_pdf(b, sigma) * f(b), lo, hi)
        m1 = integrate(lambda b: b * gaussian_pdf(b, sigma) * f(b), lo, hi)
        m2 = integrate(lambda b: b**2 * gaussian_pdf(b, sigma) * f(b), lo, hi)
        assert m.outcome_prob == pytest.approx(n, abs=1e-12)
        assert m.mean == pytest.approx(m1 / n, abs=1e-12)
        assert m.variance == pytest.approx(m2 / n - (m1 / n) ** 2, abs=1e-12)

    def test_qubit_variance_at_optimum(self):
        sigma = 0.1
        alpha = 1 / (2 * math.sqrt(2) * sigma)
        m_plus = qubit_filtered_moments(sigma, alpha, "+Y")
        m_minus = qubit_filtered_moments(sigma, alpha, "-Y")
        avg = m_plus.outcome_prob * m_plus.variance + m_minus.outcome_prob * m_minus.variance
        assert avg == pytest.approx((1 - math.exp(-1)) * sigma**2 / 2, abs=1e-15)

    def test_qubit_variance_at_twice_optimum(self):
        # u = 8 alpha^2 sigma^2 = 4 at alpha = 2 alpha_opt, so the
        # averaged variance is (sigma^2/2)(1 - 4 e^-4)
        sigma = 0.1
        alpha = 1 / (math.sqrt(2) * sigma)
        m_plus = qubit_filtered_moments(sigma, alpha, "+Y")
        m_minus = qubit_filtered_moments(sigma, alpha, "-Y")
        avg = m_plus.outcome_prob * m_plus.variance + m_minus.outcome_prob * m_minus.variance
        expect = 0.5 * sigma**2 * (1 - 4 * math.exp(-4.0))
        assert expect == pytest.approx(4.6336872222253164e-3, rel=1e-12)
        assert avg == pytest.approx(expect, abs=1e-15)


class TestQuditMoments:
    @pytest.mark.parametrize("d", [2, 3, 5, 8, 15])
    def test_against_fourier_oracle(self, d):
        sigma = 0.1
        alpha = 1.0 / (d * sigma)
        oracle = fourier_qudit_moments(sigma, alpha, d)
        for l, (n_l, m1, m2) in enumerate(oracle):
            m = qudit_filtered_moments(sigma, alpha, d, l)
            assert m.outcome_prob == pytest.approx(n_l, abs=1e-13)
            assert m.mean == pytest.approx(m1 / n_l, abs=1e-12)
            assert m.second_moment == pytest.approx(m2 / n_l, abs=1e-12)

    def test_d2_reduces_to_qubit(self):
        # the two-level readout is the +/-Y qubit measurement with
        # alpha_qubit = alpha_d / 2; outcome 0 carries the -Y filter
        sigma, alpha_d = 0.1, 3.0
        q0 = qudit_filtered_moments(sigma, alpha_d, 2, 0)
        yplus = qubit_filtered_moments(sigma, alpha_d / 2, "-Y")
        assert q0.outcome_prob == pytest.approx(yplus.outcome_prob, abs=1e-12)
        assert q0.mean == pytest.approx(yplus.mean, abs=1e-12)
        assert q0.variance == pytest.approx(yplus.variance, abs=1e-12)

    def test_outcome_probabilities_sum_to_one(self):
        sigma, d = 0.1, 7
        alpha = 1.3 / sigma
        total = sum(qudit_filtered_moments(sigma, alpha, d, l).outcome_prob
                    for l in range(d))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_mirror_symmetry(self):
        # outcomes l and d-1-l mirror each other: same weight and
        # variance, opposite conditional mean
        sigma, d, alpha = 0.1, 6, 4.0
        for l in range(d):
            a = qudit_filtered_moments(sigma, alpha, d, l)
            b = qudit_filtered_moments(sigma, alpha, d, d - 1 - l)
            assert a.outcome_prob == pytest.approx(b.outcome_prob, abs=1e-13)
            assert a.mean == pytest.approx(-b.mean, abs=1e-13)
            assert a.variance == pytest.approx(b.variance, abs=1e-13)

    def test_filter_series_fallback_matches_kernel(self):
        # near u = 0 the kernel switches to its Taylor form; the two must join
        d, alpha = 5, 2.0
        l = 0.5  # makes u = alpha b + pi/10, hit u -> 0 with b < 0
        b0 = -np.pi / (10 * alpha)
        # limit value at the peak itself
        assert qudit_filter(np.array([b0]), alpha, d, l)[0] == pytest.approx(1.0, abs=1e-12)
        # continuity across the series/kernel switch at |v| = 1e-6
        below = qudit_filter(np.array([b0 + 0.99e-6 / alpha]), alpha, d, l)[0]
        above = qudit_filter(np.array([b0 + 1.01e-6 / alpha]), alpha, d, l)[0]
        assert abs(below - above) < 1e-10

    @pytest.mark.parametrize("d, sigma, alpha", [
        (15, 0.1, 10.0),             # fast comb, probe point
        (30, 0.1, 1.0 / 0.1),        # alpha = 1/sigma at a large dimension
        (3, 0.4, 8.0 * np.pi / 0.4), # coarse comb, pi/alpha < sigma/4
    ])
    def test_against_adaptive_quadrature(self, d, sigma, alpha):
        # independent oracle: scipy's adaptive rule on the filtered
        # Gaussian over the support extended by one kernel period
        half = 8.0 * sigma + np.pi / alpha
        for l in range(d):
            l_eff = l + QUDIT_MEASUREMENT_OFFSET
            n, m1, m2 = (
                integrate(lambda b, k=k: gaussian_pdf(b, sigma)
                          * qudit_filter(b, alpha, d, l_eff) * b**k,
                          -half, half)
                for k in (0, 1, 2))
            m = qudit_filtered_moments(sigma, alpha, d, l)
            assert m.outcome_prob == pytest.approx(n, abs=1e-10)
            assert m.outcome_prob * m.mean == pytest.approx(m1, abs=1e-10 * sigma**2)
            assert m.outcome_prob * m.second_moment == pytest.approx(
                m2, abs=1e-10 * sigma**2)

    def test_coarse_comb_probabilities_sum_to_one(self):
        # coarse comb: tooth spacing pi/alpha = sigma/8, far below the noise width
        sigma = 0.4
        alpha = 8.0 * np.pi / sigma
        total = sum(qudit_filtered_moments(sigma, alpha, 3, l).outcome_prob
                    for l in range(3))
        assert total == pytest.approx(1.0, abs=1e-8)


class TestIntegrate:
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_nonconvergence_raises_with_best_estimate(self):
        # sin(1/x)/x oscillates without bound at 0: quad exhausts its
        # subdivisions and reports an error estimate far above tolerance
        with pytest.raises(IntegrationError) as info:
            integrate(lambda x: math.sin(1 / x) / x if x else 0.0, -1.0, 1.0)
        assert math.isfinite(info.value.best_estimate)
        assert info.value.residual > 1e-3
        assert str(info.value.best_estimate) in str(info.value)

    @pytest.mark.parametrize("lower, upper", [(1.0, 1.0), (2.0, -2.0)])
    def test_rejects_empty_interval(self, lower, upper):
        with pytest.raises(ValueError, match="lower < upper"):
            integrate(math.exp, lower, upper)


def test_adaptive_method_calls_quad_through_sciint(monkeypatch):
    """The adaptive rule is looked up on gaussian._sciint at each call, so
    replacing that attribute (as an instrumenting caller does) sees it."""
    quad = gaussian._sciint.quad
    calls = []

    def counted_quad(*args, **kwargs):
        calls.append(args[1:3])
        return quad(*args, **kwargs)

    monkeypatch.setattr(gaussian, "_sciint", types.SimpleNamespace(quad=counted_quad))
    value = integrate(lambda x: math.exp(-x * x), -8.0, 8.0)
    assert calls == [(-8.0, 8.0)]
    assert value == pytest.approx(math.sqrt(math.pi), rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(sigma=st.floats(0.02, 0.4), alpha=st.floats(0.1, 20.0),
       d=st.integers(2, 10))
def test_filter_completeness(sigma, alpha, d):
    """The d outcome filters sum to one pointwise, as kernels and as the
    Fourier series the scheme's outcome branches carry."""
    b = np.linspace(-4 * sigma, 4 * sigma, 41)
    total = sum(qudit_filter(b, alpha, d, l + QUDIT_MEASUREMENT_OFFSET)
                for l in range(d))
    assert np.allclose(total, 1.0, atol=1e-9)
    series = sum(br.filter_values(b) for br in run_qudit_scheme(sigma, alpha, d).p.branches)
    assert np.allclose(series, 1.0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(2, 32), sigma=st.floats(0.02, 0.4),
       alpha_sigma=st.floats(0.05, 20.0))
def test_qudit_sum_has_no_cancellation_loss(d, sigma, alpha_sigma):
    """The Fejer sum keeps every outcome a valid, mirrored distribution."""
    alpha = alpha_sigma / sigma
    moments = [qudit_filtered_moments(sigma, alpha, d, l) for l in range(d)]
    assert sum(m.outcome_prob for m in moments) == pytest.approx(1.0, abs=1e-12)
    for l, m in enumerate(moments):
        assert m.outcome_prob > 0
        assert m.variance >= 0
        mirror = moments[d - 1 - l]
        assert m.outcome_prob == pytest.approx(mirror.outcome_prob, abs=1e-13)
        assert m.mean == pytest.approx(-mirror.mean, abs=1e-11 * sigma)
        assert m.variance == pytest.approx(mirror.variance, abs=1e-11 * sigma**2)


@settings(max_examples=30, deadline=None)
@given(sigma=st.floats(0.03, 0.3), alpha=st.floats(0.2, 10.0))
def test_qubit_outcome_probabilities(sigma, alpha):
    p = qubit_filtered_moments(sigma, alpha, "+Y").outcome_prob
    q = qubit_filtered_moments(sigma, alpha, "-Y").outcome_prob
    assert p == pytest.approx(0.5, abs=1e-12)
    assert q == pytest.approx(0.5, abs=1e-12)


def _per_outcome_fejer(sigma, alpha, d, l):
    """Unnormalized moments (n0, m1, m2) of outcome l, one Fejer sum per
    outcome: the reference for the rows of qudit_moments, which must
    keep this expression's floating-point operation order."""
    l_eff = l + QUDIT_MEASUREMENT_OFFSET
    m = np.arange(-(d - 1), d)
    s2 = sigma * sigma
    c = ((d - np.abs(m)) / d**2 * np.exp(2j * np.pi * l_eff * m / d)
         * np.array([math.exp(-t * t) for t in (m * alpha * sigma).tolist()]))
    n0 = float(np.sum(c).real)
    m1 = float(np.sum(c * (1j * m * alpha * s2)).real)
    m2 = float(np.sum(c * (0.5 * s2 - (m * alpha * s2) ** 2)).real)
    return n0, m1, m2


@settings(max_examples=300, deadline=None)
@given(d=st.integers(2, 32), sigma=st.floats(0.02, 0.4),
       alpha_sigma=st.floats(0.05, 20.0))
def test_qudit_moments_match_per_outcome_sums(d, sigma, alpha_sigma):
    alpha = alpha_sigma / sigma
    n0, m1, m2 = qudit_moments(sigma, alpha, d)
    for l in range(d):
        expect = _per_outcome_fejer(sigma, alpha, d, l)
        assert (float(n0[l]), float(m1[l]), float(m2[l])) == expect
        n, mean, second = expect
        assert qudit_filtered_moments(sigma, alpha, d, l) == gaussian.FilteredMoments(
            n, mean / n, second / n, second / n - (mean / n) * (mean / n))


@settings(max_examples=100, deadline=None)
@given(d=st.integers(2, 32), sigma=st.floats(0.02, 0.4),
       alpha_sigmas=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=48))
@example(d=26, sigma=0.3252900586237902, alpha_sigmas=[0.3252900586237902])
def test_batched_alphas_equal_scalar_calls(d, sigma, alpha_sigmas):
    alphas = np.array(alpha_sigmas) / sigma
    batch = qudit_moments(sigma, alphas, d)
    assert batch.shape == (3, len(alphas), d)
    for i, alpha in enumerate(alphas):
        assert batch[:, i].tolist() == qudit_moments(sigma, alpha, d).tolist()


@pytest.mark.parametrize("bad", [-1e-9, math.nan, math.inf])
def test_batched_alphas_reject_a_bad_alpha(bad):
    with pytest.raises(ValueError, match="alpha must be nonnegative and finite"):
        qudit_moments(0.1, np.array([1.0, bad, 2.0]), 4)


def test_check_moments_rejects_elementwise():
    check = gaussian._check_moments
    check([0.0, 1.0 + 1e-13], [0.0, -1e-13, math.nan])
    for probs in ([0.5, 1.0 + 1e-11], [-1e-11, 0.5], [0.5, math.nan]):
        with pytest.raises(ValueError, match="outcome probability"):
            check(probs, [0.0, 0.0])
    with pytest.raises(ValueError, match="negative variance"):
        check([0.5, 0.5], [0.1, -1e-11])
    with pytest.raises(ValueError, match="negative variance"):
        gaussian.FilteredMoments(0.5, 0.0, 0.0, -1e-11)
