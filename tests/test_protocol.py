"""Correction schemes: closed forms, optima, and infidelity evaluation."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvqec.gaussian import (QUDIT_MEASUREMENT_OFFSET, qubit_filtered_moments,
                            qubit_outcome_mean, qudit_filtered_moments)
from cvqec.protocol import (_qubit_var_p, _qudit_var_p, exact_infidelity,
                            infidelity_from_noise, optimal_alpha_qubit,
                            optimal_zeta, optimize_qubit_alpha,
                            optimize_qudit_alpha, optimize_zeta, qudit_bound,
                            run_qubit_p_scheme, run_qudit_scheme,
                            run_squeezed_scheme, run_two_qubit_scheme,
                            run_uncorrected, second_derivative_at_origin,
                            squeezing_db)
from oracles import (finite_difference_curvature, gauss_hermite_infidelity,
                     numeric_zeta, qudit_filter)


class TestQubitScheme:
    def test_variance_closed_form(self):
        sigma, alpha = 0.1, 2.0
        noise = run_qubit_p_scheme(sigma, alpha)
        u = 8 * alpha**2 * sigma**2
        assert noise.var_p == pytest.approx(0.5 * sigma**2 * (1 - u * math.exp(-u)),
                                            abs=1e-15)
        assert noise.var_q == pytest.approx(0.5 * sigma**2, abs=1e-15)

    def test_no_drive_is_no_correction(self):
        noise = run_qubit_p_scheme(0.1, 0.0)
        assert noise.var_p == pytest.approx(0.005, abs=1e-15)

    @pytest.mark.parametrize("sigma", [0.05, 0.1, 0.3])
    def test_optimum_reduction(self, sigma):
        noise = run_qubit_p_scheme(sigma, optimal_alpha_qubit(sigma))
        reduction = 1 - noise.var_p / (0.5 * sigma**2)
        assert reduction == pytest.approx(math.exp(-1), abs=1e-12)  # 36.8%


class TestTwoQubitScheme:
    def test_both_quadratures_corrected(self):
        sigma = 0.1
        alpha = optimal_alpha_qubit(sigma)
        noise = run_two_qubit_scheme(sigma, alpha, alpha)
        target = (1 - math.exp(-1)) * sigma**2 / 2
        assert noise.var_q == pytest.approx(target, abs=1e-10)
        assert noise.var_p == pytest.approx(target, abs=1e-10)


class TestSqueezedScheme:
    def test_optimal_point(self):
        sigma = 0.1
        zeta = optimal_zeta()
        alpha = optimal_alpha_qubit(sigma * math.exp(-2 * zeta))
        noise = run_squeezed_scheme(sigma, alpha, zeta)
        assert noise.total_variance == pytest.approx(
            sigma**2 * math.sqrt(1 - math.exp(-1)), abs=1e-12)
        assert noise.var_q == pytest.approx(noise.var_p, abs=1e-12)

    def test_zeta_sign_and_db(self):
        zeta = optimal_zeta()
        assert zeta == pytest.approx(-0.05733439, abs=1e-7)
        assert squeezing_db(zeta) == pytest.approx(0.996, abs=1e-3)

    def test_numeric_zeta_matches_closed_form(self):
        zeta, _ = optimize_zeta(0.1)
        assert zeta == optimal_zeta()
        assert zeta == pytest.approx(numeric_zeta(0.1)[0], abs=1e-4)


class TestQuditScheme:
    def test_d2_equals_qubit_closed_form(self):
        sigma = 0.1
        alpha_q = optimal_alpha_qubit(sigma)
        noise = run_qudit_scheme(sigma, 2 * alpha_q, 2)
        assert noise.var_p == pytest.approx(
            (1 - math.exp(-1)) * sigma**2 / 2, abs=1e-9)

    def test_variance_decreases_with_d(self):
        sigma = 0.1
        values = []
        for d in (2, 4, 8):
            _, var = optimize_qudit_alpha(sigma, d)
            values.append(var)
        assert values[0] > values[1] > values[2]

    @pytest.mark.parametrize("d", [4, 6, 10])
    def test_bound_holds_at_comb_spacing(self, d):
        sigma, s = 0.1, 5.0
        noise = run_qudit_scheme(sigma, math.pi / (s * sigma), d)
        assert noise.var_p < qudit_bound(sigma, s, d)

    def test_bound_values(self):
        # sigma^2 s^2 / (4 d)
        assert qudit_bound(0.1, 5, 10) == pytest.approx(6.25e-3, rel=1e-12)
        assert qudit_bound(0.2, 4, 4) == pytest.approx(4.0e-2, rel=1e-12)
        with pytest.raises(ValueError):
            qudit_bound(0.1, 3, 4)

    def test_outcome_weights_complete(self):
        noise = run_qudit_scheme(0.1, 3.0, 5)
        assert sum(b.weight for b in noise.p.branches) == pytest.approx(
            1.0, abs=1e-10)


def _every_scheme(sigma):
    """One noise per scheme (qudit d <= 15) at sigma, each also with its p
    branch means negated, the mixture component of a flipped readout."""
    alpha = optimal_alpha_qubit(sigma)
    noises = [run_uncorrected(sigma), run_qubit_p_scheme(sigma, alpha),
              run_two_qubit_scheme(sigma, alpha, 1.3 * alpha),
              run_squeezed_scheme(sigma, alpha, optimal_zeta())]
    noises += [run_qudit_scheme(sigma, 0.65 / sigma, d) for d in (2, 3, 5, 9, 15)]
    noises += [run_qudit_scheme(sigma, math.pi / (5 * sigma), 15)]
    return noises + [dataclasses.replace(n, p=dataclasses.replace(
        n.p, branches=tuple(dataclasses.replace(b, mean=-b.mean) for b in n.p.branches)))
        for n in noises]


def test_filters_are_their_kernels():
    """Each branch's Fourier series is its outcome filter: one for no
    readout, (1 +/- sin(4 alpha b)) / 2 for +/-Y, the sin^2 kernel for
    qudit outcome l, across several kernel peaks."""
    sigma, alpha = 0.1, 6.0
    b = np.linspace(-6 * sigma, 6 * sigma, 301)
    noise = run_qubit_p_scheme(sigma, alpha)
    assert np.array_equal(noise.q.branches[0].filter_values(b), np.ones_like(b))
    for branch, sign in zip(noise.p.branches, (1, -1)):
        want = 0.5 * (1 + sign * np.sin(4 * alpha * b))
        assert np.max(np.abs(branch.filter_values(b) - want)) < 1e-15
    for d in (2, 3, 8, 15):
        for l, branch in enumerate(run_qudit_scheme(sigma, alpha, d).p.branches):
            want = qudit_filter(b, alpha, d, l + QUDIT_MEASUREMENT_OFFSET)
            assert np.max(np.abs(branch.filter_values(b) - want)) < 1e-13


class TestInfidelity:
    @pytest.mark.parametrize("state", ["coherent", "fock1"])
    @pytest.mark.parametrize("sigma", [0.05, 0.1, 0.2])
    def test_closed_form_matches_quadrature(self, state, sigma):
        for noise in _every_scheme(sigma):
            assert exact_infidelity(state, noise) == pytest.approx(
                gauss_hermite_infidelity(state, noise), abs=1e-12)

    def test_unknown_state_kind(self):
        with pytest.raises(ValueError):
            exact_infidelity("cat", run_uncorrected(0.1))

    def test_second_derivatives(self):
        for state, curvature in (("coherent", -2.0), ("fock1", -6.0)):
            assert second_derivative_at_origin(state) == curvature
            for quadrature in ("q", "p"):
                assert curvature == pytest.approx(
                    finite_difference_curvature(state, quadrature), abs=1e-5)
        with pytest.raises(ValueError):
            second_derivative_at_origin("cat")

    def test_uncorrected_coherent_exact(self):
        # 1 - F = 1 - 1/(1 + sigma^2) for a coherent state under the raw channel
        sigma = 0.1
        got = exact_infidelity("coherent", run_uncorrected(sigma))
        assert got == pytest.approx(sigma**2 / (1 + sigma**2), abs=1e-12)

    def test_uncorrected_fock1_exact(self):
        # 1 - F = 1 - (1 + sigma^4)/(1 + sigma^2)^3 by direct integration
        sigma = 0.1
        got = exact_infidelity("fock1", run_uncorrected(sigma))
        expect = 1 - (1 + sigma**4) / (1 + sigma**2) ** 3
        assert got == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("state", ["coherent", "fock1"])
    @pytest.mark.parametrize("sigma", [0.05, 0.1])
    def test_expansion_accuracy(self, state, sigma):
        # both quadratures corrected, the regime the quadratic expansion
        # is meant for; the neglected terms are quartic in the residual
        alpha = optimal_alpha_qubit(sigma)
        noise = run_two_qubit_scheme(sigma, alpha, alpha)
        exact = exact_infidelity(state, noise)
        approx = infidelity_from_noise(state, noise)
        assert abs(exact - approx) <= 5 * sigma**4

    def test_expansion_warns_outside_validity(self):
        with pytest.warns(UserWarning):
            infidelity_from_noise("coherent", run_uncorrected(0.5))


@settings(max_examples=20, deadline=None)
@given(sigma=st.floats(0.04, 0.3), alpha=st.floats(0.0, 12.0))
def test_correction_never_hurts(sigma, alpha):
    noise = run_qubit_p_scheme(sigma, alpha)
    assert noise.var_p <= 0.5 * sigma**2 + 1e-15
    assert noise.var_p >= 0.0


def _per_outcome_sum(moments):
    """The corrected variance summed over FilteredMoments, outcome by
    outcome: the reference for the closed-form objectives."""
    return sum(m.outcome_prob * m.variance for m in moments)


@settings(max_examples=100, deadline=None)
@given(sigma=st.floats(0.02, 0.4), alpha_sigma=st.floats(0.0, 20.0))
def test_qubit_var_p_is_the_per_outcome_sum(sigma, alpha_sigma):
    alpha = alpha_sigma / sigma
    expect = _per_outcome_sum(qubit_filtered_moments(sigma, alpha, o) for o in ("+Y", "-Y"))
    assert _qubit_var_p(sigma, alpha) == expect
    assert run_qubit_p_scheme(sigma, alpha).var_p == expect


@settings(max_examples=200, deadline=None)
@given(d=st.integers(2, 32), sigma=st.floats(0.02, 0.4),
       alpha_sigma=st.floats(0.0, 20.0))
@example(d=8, sigma=0.1, alpha_sigma=0.5)
@example(d=9, sigma=0.1, alpha_sigma=0.6)
# numpy's square of the mean differed from FilteredMoments' mean**2 here
@example(d=26, sigma=0.3252900586237902, alpha_sigma=0.3252900586237902)
def test_qudit_var_p_is_the_per_outcome_sum(d, sigma, alpha_sigma):
    alpha = alpha_sigma / sigma
    expect = _per_outcome_sum(qudit_filtered_moments(sigma, alpha, d, l) for l in range(d))
    assert _qudit_var_p(sigma, alpha, d) == expect
    assert run_qudit_scheme(sigma, alpha, d).var_p == expect


@settings(max_examples=100, deadline=None)
@given(d=st.integers(2, 32), sigma=st.floats(0.02, 0.4),
       alpha_sigmas=st.lists(st.floats(0.0, 20.0), max_size=16))
@example(d=26, sigma=0.3252900586237902, alpha_sigmas=[0.3252900586237902])
def test_batched_alphas_equal_scalar_calls(d, sigma, alpha_sigmas):
    """Every element of the array call is the one-alpha call, on the
    optimizer's scan grid and at drawn alphas."""
    alphas = np.concatenate((np.geomspace(0.2 / sigma, 1.5 / sigma, 32),
                             np.array(alpha_sigmas) / sigma))
    batch = _qudit_var_p(sigma, alphas, d)
    assert batch.shape == alphas.shape
    assert batch.tolist() == [_qudit_var_p(sigma, a, d) for a in alphas]


@pytest.mark.parametrize("bad", [-1e-9, math.nan, math.inf])
def test_batched_alphas_reject_a_bad_alpha(bad):
    with pytest.raises(ValueError, match="alpha must be nonnegative and finite"):
        _qudit_var_p(0.1, np.array([1.0, bad, 2.0]), 4)


def test_qubit_var_p_squares_by_multiplying():
    """``sigma^2/2 - mean^2`` with each square an IEEE product, which every
    platform rounds alike; Python's ``x**2`` calls the C library's pow, which
    glibc 2.36 rounds differently for a few of these 10^4 draws."""
    rng = np.random.default_rng(0)
    sigmas, alpha_sigmas = rng.uniform(1e-3, 1.0, 10**4), rng.uniform(0.05, 3.0, 10**4)
    got, want = [], []
    for sigma, alpha in zip(sigmas.tolist(), (alpha_sigmas / sigmas).tolist()):
        mean = qubit_outcome_mean(sigma, alpha)
        got.append(_qubit_var_p(sigma, alpha))
        want.append(0.5 * sigma * sigma - mean * mean)
    assert got == want


@pytest.mark.parametrize("sigma, alpha", [(0.0, 1.0), (-0.1, 1.0), (0.1, -1e-9)])
def test_qubit_var_p_rejects_bad_arguments(sigma, alpha):
    with pytest.raises(ValueError):
        _qubit_var_p(sigma, alpha)


@pytest.mark.parametrize("sigma, alpha, d", [(0.0, 1.0, 4), (-0.1, 1.0, 4),
                                             (0.1, -1e-9, 4), (0.1, 1.0, 1),
                                             (0.1, 1.0, 0)])
def test_qudit_var_p_rejects_bad_arguments(sigma, alpha, d):
    with pytest.raises(ValueError):
        _qudit_var_p(sigma, alpha, d)
