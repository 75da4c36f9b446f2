"""The qudit optimum's search on the closed-form slope of its variance, the
golden-section oracle the tests search with, and the closed-form qubit and
squeezed optima against that oracle run on their variance curves."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqec import protocol
from cvqec.cli import main
from cvqec.protocol import (_qudit_var_p, _qudit_var_slope, minimize_scalar,
                            optimize_qubit_alpha, optimize_qudit_alpha, optimize_zeta,
                            run_qubit_p_scheme)
from oracles import golden_section, numeric_qubit_alpha, numeric_qudit_alpha, numeric_zeta


def test_quadratic():
    x, fx = golden_section(lambda x: (x - 2.0) ** 2, 0.0, 5.0, tol=1e-8)
    assert x == pytest.approx(2.0, abs=1e-6)
    assert fx == pytest.approx(0.0, abs=1e-12)


def test_qubit_alpha_optimum():
    sigma = 0.1
    alpha, var = optimize_qubit_alpha(sigma)
    numeric_alpha, numeric_var = numeric_qubit_alpha(sigma)
    assert alpha == pytest.approx(numeric_alpha, rel=1e-4)
    assert var == pytest.approx(numeric_var, abs=1e-10)
    assert var == pytest.approx((1 - math.exp(-1)) * sigma**2 / 2, abs=1e-10)


def test_zeta_optimum():
    zeta, total = optimize_zeta(0.1)
    numeric_zeta_opt, numeric_total = numeric_zeta(0.1)
    assert zeta == pytest.approx(numeric_zeta_opt, abs=1e-4)
    assert total == pytest.approx(numeric_total, abs=1e-7)
    assert total == pytest.approx(0.01 * math.sqrt(1 - math.exp(-1)), abs=1e-7)


def test_nonfinite_objective_raises():
    with pytest.raises(ValueError):
        golden_section(lambda x: float("nan"), 0.0, 1.0)


def test_scan_grid_is_one_call():
    args = []

    def f(x):
        args.append(np.copy(x))
        return (x - 2.0) ** 2

    golden_section(f, 0.1, 5.0)
    assert args[0].tolist() == np.geomspace(0.1, 5.0, 32).tolist()
    assert len(args) > 1 and all(x.ndim == 0 for x in args[1:])


def test_qudit_search_scans_in_one_call(monkeypatch):
    """One array call of the variance over the scan, slopes only in the
    search, then one scalar variance at the optimum."""
    shapes, slopes = [], []
    var_p, slope = protocol._qudit_var_p, protocol._qudit_var_slope

    def recorded(sigma, alpha, d):
        shapes.append(np.shape(alpha))
        return var_p(sigma, alpha, d)

    def recorded_slope(sigma, alpha, d):
        slopes.append(np.shape(alpha))
        return slope(sigma, alpha, d)

    monkeypatch.setattr(protocol, "_qudit_var_p", recorded)
    monkeypatch.setattr(protocol, "_qudit_var_slope", recorded_slope)
    protocol.optimize_qudit_alpha(0.1, 8)
    assert shapes == [(32,), ()]
    assert 3 <= len(slopes) <= 12 and all(s == () for s in slopes)


def test_bad_bracket():
    with pytest.raises(ValueError):
        golden_section(lambda x: x, 1.0, 1.0)


@settings(max_examples=30, deadline=None)
@given(center=st.floats(0.5, 4.5), scale=st.floats(0.1, 3.0))
def test_minimum_below_endpoints(center, scale):
    f = lambda x: scale * (x - center) ** 2
    x, fx = golden_section(f, 0.1, 5.0)
    assert fx <= f(0.1) + 1e-12
    assert fx <= f(5.0) + 1e-12


@settings(max_examples=30, deadline=None)
@given(center=st.floats(0.5, 4.5), scale=st.floats(0.1, 3.0), power=st.sampled_from([1, 3]))
def test_slope_search_finds_the_zero(center, scale, power):
    x = minimize_scalar(lambda x: scale * (x - center) ** power, 0.1, 5.0)
    assert x == pytest.approx(center, rel=1e-9 if power == 1 else 1e-3)


@settings(max_examples=10, deadline=None)
@given(sigma=st.floats(0.05, 0.25))
def test_variance_minimum_interior(sigma):
    alpha, var = optimize_qubit_alpha(sigma)
    assert 0.2 / sigma < alpha < 8.0 / sigma
    assert var < run_qubit_p_scheme(sigma, 0.2 / sigma).var_p
    assert alpha == pytest.approx(numeric_qubit_alpha(sigma)[0], rel=1e-4)


@pytest.mark.parametrize("sigma", [0.1, 0.3, 1e-3])
@pytest.mark.parametrize("d", [2, 5, 9, 15, 32])
@pytest.mark.parametrize("alpha_sigma", [0.3, 0.65, 1.2])
def test_slope_is_the_central_difference(sigma, d, alpha_sigma):
    alpha = alpha_sigma / sigma
    h = 1e-5 * alpha
    diff = (_qudit_var_p(sigma, alpha + h, d) - _qudit_var_p(sigma, alpha - h, d)) / (2 * h)
    assert _qudit_var_slope(sigma, alpha, d) == pytest.approx(diff, rel=1e-7)


@pytest.mark.parametrize("sigma", [0.1, 0.3])
def test_qudit_optimum_matches_golden_section(sigma):
    """The variance at the slope's zero is no higher than at the golden-section
    optimum, up to the variance's own rounding: against a 40-digit evaluation
    either float value is off by up to 5.1e-15 of itself at these points."""
    for d in range(2, 33):
        alpha, var = optimize_qudit_alpha(sigma, d)
        numeric_alpha, numeric_var = numeric_qudit_alpha(sigma, d)
        assert var <= numeric_var * (1 + 1e-14), d
        assert alpha == pytest.approx(numeric_alpha, rel=1e-6), d


@pytest.mark.parametrize("sigma", [0.1, 0.3])
def test_d2_optimum_is_closed_form(sigma):
    """d = 2 is the +/-Y qubit scheme at twice the drive: 1 / (sqrt(2) sigma)."""
    alpha, var = optimize_qudit_alpha(sigma, 2)
    assert alpha == pytest.approx(1.0 / (math.sqrt(2.0) * sigma), rel=1e-12)
    assert var == pytest.approx((1 - math.exp(-1)) * sigma**2 / 2, rel=1e-12)


@pytest.mark.parametrize("slope", [lambda x: x - 10.0, lambda x: 2.0 - x, lambda x: 0.0 * x])
def test_slope_without_a_rising_zero_raises(slope):
    with pytest.raises(ValueError, match="does not rise through zero"):
        minimize_scalar(slope, 1.0, 5.0)


def test_nonfinite_slope_raises():
    with pytest.raises(ValueError, match="non-finite slope"):
        minimize_scalar(lambda x: math.nan if 1.0 < x < 5.0 else x - 2.0, 1.0, 5.0)


def test_unsettled_search_raises():
    """Slopes that grow each call keep every secant point near the far end
    of the bracket; the step cap ends the search."""
    calls = []

    def slope(x):
        calls.append(x)
        return (x - 2.0) * 10.0 ** (3 * len(calls))

    with pytest.raises(ValueError, match="did not settle in 100 steps"):
        minimize_scalar(slope, 1.0, 5.0)


def test_bracket_without_the_zero_exits_3(monkeypatch, tmp_path):
    """A scan whose best point has no slope sign change around it raises;
    the command writes nothing instead of falling back to the grid."""
    monkeypatch.setattr(protocol, "_qudit_var_slope", lambda sigma, alpha, d: 1.0)
    out = tmp_path / "opt.json"
    assert main(["optimize", "--scheme", "qudit", "--d", "4", "--out-file", str(out)]) == 3
    assert not out.exists()
