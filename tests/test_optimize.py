"""Scalar minimizer behavior, and the closed-form qubit and squeezed optima
against the minimizer run on their variance curves."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqec import protocol
from cvqec.optimize import minimize_scalar
from cvqec.protocol import optimize_qubit_alpha, optimize_zeta, run_qubit_p_scheme
from oracles import numeric_qubit_alpha, numeric_zeta


def test_quadratic():
    x, fx = minimize_scalar(lambda x: (x - 2.0) ** 2, 0.0, 5.0, tol=1e-8)
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
        minimize_scalar(lambda x: float("nan"), 0.0, 1.0)


def test_scan_grid_is_one_call():
    args = []

    def f(x):
        args.append(np.copy(x))
        return (x - 2.0) ** 2

    minimize_scalar(f, 0.1, 5.0)
    assert args[0].tolist() == np.geomspace(0.1, 5.0, 32).tolist()
    assert len(args) > 1 and all(x.ndim == 0 for x in args[1:])


def test_qudit_search_scans_in_one_call(monkeypatch):
    shapes = []
    var_p = protocol._qudit_var_p

    def recorded(sigma, alpha, d):
        shapes.append(np.shape(alpha))
        return var_p(sigma, alpha, d)

    monkeypatch.setattr(protocol, "_qudit_var_p", recorded)
    protocol.optimize_qudit_alpha(0.1, 8)
    assert shapes[0] == (32,)
    assert len(shapes) > 1 and all(s == () for s in shapes[1:])


def test_bad_bracket():
    with pytest.raises(ValueError):
        minimize_scalar(lambda x: x, 1.0, 1.0)


def test_pathological_objective_falls_back_with_warning():
    # a needle minimum exactly on a scan grid point that golden-section
    # refinement cannot rediscover: contract is a warning plus the best
    # grid value, not silence
    grid = np.geomspace(0.1, 6.0, 32)
    needle = grid[10]
    f = lambda x: np.where(x == needle, 0.0, 1.0)
    with pytest.warns(UserWarning):
        x, fx = minimize_scalar(f, 0.1, 6.0, tol=1e-10)
    assert x == pytest.approx(needle)
    assert fx == 0.0


@settings(max_examples=30, deadline=None)
@given(center=st.floats(0.5, 4.5), scale=st.floats(0.1, 3.0))
def test_minimum_below_endpoints(center, scale):
    f = lambda x: scale * (x - center) ** 2
    x, fx = minimize_scalar(f, 0.1, 5.0)
    assert fx <= f(0.1) + 1e-12
    assert fx <= f(5.0) + 1e-12


@settings(max_examples=10, deadline=None)
@given(sigma=st.floats(0.05, 0.25))
def test_variance_minimum_interior(sigma):
    alpha, var = optimize_qubit_alpha(sigma)
    assert 0.2 / sigma < alpha < 8.0 / sigma
    assert var < run_qubit_p_scheme(sigma, 0.2 / sigma).var_p
    assert alpha == pytest.approx(numeric_qubit_alpha(sigma)[0], rel=1e-4)
