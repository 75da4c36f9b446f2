"""Gaussian distributions, quadrature, and filtered displacement moments.

The displacement noise in each quadrature is distributed as
``G(x, sigma) = exp(-x**2 / sigma**2) / (sqrt(pi) * sigma)``, which has
variance ``sigma**2 / 2``.  ``sigma`` always refers to this parameter,
never to a standard deviation.

Measuring the ancilla after a conditional-displacement round multiplies
the displacement distribution by an outcome-dependent filter.  The
functions here compute the outcome probabilities, the conditional means
(the counter-displacement to apply) and the post-correction variances of
the filtered distributions, for both the qubit and the qudit scheme.

Both are closed forms.  The qubit filter is ``(1 +/- sin(4 alpha b))/2``;
the qudit filter is a Fejer kernel, the finite Fourier series
``(1/d) sum_{|m|<d} (1 - |m|/d) e^{2 i m u}``, and the Gaussian moments
of ``e^{i t b}`` are exact:
``E[e^{itb}] = e^{-t^2 sigma^2/4}``,
``E[b e^{itb}] = (i t sigma^2/2) e^{-t^2 sigma^2/4}`` and
``E[b^2 e^{itb}] = (sigma^2/2 - t^2 sigma^4/4) e^{-t^2 sigma^2/4}``.
Every qudit moment is therefore a sum of ``2d - 1`` terms, summed for
all d outcomes at once by :func:`qudit_moments`; ``protocol``'s optimizers
minimize the variances its scheme runners report from it.  The
quadrature routines (:func:`integrate`, :class:`QuadratureSpec`) remain
as a general-purpose oracle and for the Gauss-Hermite nodes used by
``protocol.exact_infidelity``.  Gauss-Hermite needs only numpy; the
adaptive method is scipy's ``quad``, imported on its first call, so no
command of the package loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.hermite import hermgauss

__all__ = [
    "NoiseModel",
    "FilteredMoments",
    "QuadratureSpec",
    "IntegrationError",
    "gaussian_pdf",
    "integrate",
    "qubit_filtered_moments",
    "qubit_outcome_mean",
    "qudit_filter",
    "qudit_filtered_moments",
    "qudit_moments",
    "QUDIT_MEASUREMENT_OFFSET",
]

# The qudit is read out in a Fourier basis rotated by half a Fourier step
# (the d-dimensional analogue of measuring a qubit along Y instead of X).
# Without the offset every d = 2 filter is an even function of the
# displacement, the conditional means vanish, and no variance is removed;
# with it the d = 2 scheme reduces exactly to the +/-Y qubit scheme.
QUDIT_MEASUREMENT_OFFSET = 0.5

_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class NoiseModel:
    """Random displacement noise of strength ``sigma`` (per-quadrature
    variance ``sigma**2 / 2``)."""

    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")

    @property
    def quadrature_variance(self) -> float:
        return 0.5 * self.sigma**2


@dataclass(frozen=True)
class FilteredMoments:
    """Moments of a displacement distribution conditioned on one
    measurement outcome."""

    outcome_prob: float
    mean: float
    second_moment: float
    variance: float

    def __post_init__(self):
        _check_moments([self.outcome_prob], [self.variance])


def _check_moments(probs, variances) -> None:
    """FilteredMoments' checks, outcome by outcome, on lists of floats."""
    if not all(-1e-12 <= p <= 1 + 1e-12 for p in probs):
        raise ValueError(f"outcome probability outside [0, 1] in {probs}")
    if any(v < -1e-12 for v in variances):
        raise ValueError(f"negative variance in {variances}")


def _check_drive(sigma: float, alpha: float) -> None:
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")


def _moments(prob: float, mean: float, second_moment: float) -> FilteredMoments:
    return FilteredMoments(prob, mean, second_moment, second_moment - mean**2)


@dataclass(frozen=True)
class QuadratureSpec:
    """Quadrature method and tolerances used for the moment integrals."""

    method: str = "gauss-hermite"
    nodes: int = 200
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10

    def __post_init__(self):
        if self.method not in ("gauss-hermite", "adaptive"):
            raise ValueError(f"unknown quadrature method {self.method!r}")
        if self.nodes < 16:
            raise ValueError("need at least 16 quadrature nodes")
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")


DEFAULT_QUADRATURE = QuadratureSpec()


class IntegrationError(RuntimeError):
    """Quadrature failed to converge; carries the best estimate seen."""

    def __init__(self, message, best_estimate, residual):
        super().__init__(f"{message} (best estimate {best_estimate!r}, residual {residual!r})")
        self.best_estimate = best_estimate
        self.residual = residual


def gaussian_pdf(x, sigma: float):
    """``exp(-x**2 / sigma**2) / (sqrt(pi) * sigma)``; variance sigma**2/2."""
    if not (sigma > 0):
        raise ValueError(f"sigma must be positive, got {sigma}")
    x = np.asarray(x, dtype=float)
    out = np.exp(-(x / sigma) ** 2) / (_SQRT_PI * sigma)
    return out if out.ndim else float(out)


_GH_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}

# numpy's hermgauss weights underflow to zero (and then to NaN after
# normalization) somewhere between order 370 and 390; stay well clear.
MAX_GH_NODES = 350


def _gh_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n > MAX_GH_NODES:
        raise ValueError(
            f"Gauss-Hermite order {n} exceeds the stable limit {MAX_GH_NODES}; "
            "use the adaptive method for integrands this oscillatory")
    if n not in _GH_CACHE:
        t, w = hermgauss(n)
        _GH_CACHE[n] = (t, w)
    return _GH_CACHE[n]


def _gh_integrate(f, lower, upper, nodes):
    # Treat f as a Gaussian-weighted integrand: sum w_i * f(x_i) * e^{x_i^2}
    # over Hermite nodes inside the interval.  Weights are combined in log
    # space so large-node evaluations cannot overflow.
    t, w = _gh_nodes(nodes)
    keep = (t >= lower) & (t <= upper)
    t = t[keep]
    fv = np.asarray([f(x) for x in t], dtype=float)
    wexp = np.exp(np.log(w[keep]) + t * t)
    return float(np.sum(wexp * fv))


class _sciint:
    """The part of ``scipy.integrate`` that :func:`integrate` uses; scipy
    is imported on the first adaptive integral, not with this module."""

    @staticmethod
    def quad(*args, **kwargs):
        from scipy.integrate import quad
        return quad(*args, **kwargs)


def integrate(f: Callable[[float], float], lower: float, upper: float,
              spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Integrate ``f`` over ``[lower, upper]``.

    The gauss-hermite method assumes the integrand decays at least as fast
    as a unit Gaussian (true for every integrand in this package); the
    adaptive method delegates to scipy's Gauss-Kronrod rule.  Raises
    :class:`IntegrationError` when the node budget is exhausted before the
    two finest estimates agree to tolerance.
    """
    if not lower < upper:
        raise ValueError("need lower < upper")
    if spec.method == "adaptive":
        value, err = _sciint.quad(f, lower, upper, epsabs=spec.abs_tol,
                                  epsrel=spec.rel_tol, limit=400)
        if err > max(spec.abs_tol, spec.rel_tol * abs(value)) * 10:
            raise IntegrationError("adaptive quadrature did not converge", value, err)
        return value

    n = spec.nodes
    prev = _gh_integrate(f, lower, upper, n)
    while n < MAX_GH_NODES:
        n = min(2 * n, MAX_GH_NODES)
        cur = _gh_integrate(f, lower, upper, n)
        resid = abs(cur - prev)
        if resid <= max(spec.abs_tol, spec.rel_tol * abs(cur)):
            return cur
        prev = cur
    raise IntegrationError("Gauss-Hermite refinement stalled", cur, resid)


def qubit_outcome_mean(sigma: float, alpha: float) -> float:
    """Conditional mean of the +Y-filtered displacement, ``2 a s^2 e^{-4 a^2 s^2}``."""
    return 2.0 * alpha * sigma**2 * math.exp(-4.0 * alpha**2 * sigma**2)


def qubit_filtered_moments(sigma: float, alpha: float, outcome: str) -> FilteredMoments:
    """Closed-form moments after the +/-Y qubit measurement.

    The outcome filter is ``(1 +/- sin(4 alpha b)) / 2``; both outcomes
    occur with probability 1/2, the conditional means are mirror images
    and the post-correction variance is
    ``sigma^2/2 - 4 alpha^2 sigma^4 exp(-8 alpha^2 sigma^2)``.
    """
    _check_drive(sigma, alpha)
    if outcome not in ("+Y", "-Y"):
        raise ValueError(f"outcome must be '+Y' or '-Y', got {outcome!r}")
    sign = 1.0 if outcome == "+Y" else -1.0
    mean = sign * qubit_outcome_mean(sigma, alpha)
    return _moments(0.5, mean, 0.5 * sigma**2)


def qudit_filter(beta, alpha: float, d: int, l) -> np.ndarray | float:
    """Fourier-outcome filter ``sin^2(d a b + l pi) / (d^2 sin^2(a b + l pi/d))``.

    Removable singularities (every kernel peak) evaluate to their limit 1
    via a series expansion, never to NaN.  ``l`` may be half-integer,
    which is how the rotated measurement basis used by
    :func:`qudit_filtered_moments` is expressed.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    beta = np.asarray(beta, dtype=float)
    # The kernel depends on beta only through u = alpha*beta + l*pi/d:
    # F = (sin(d u) / (d sin u))^2, periodic in u with period pi.
    u = alpha * beta + l * np.pi / d
    v = u - np.round(u / np.pi) * np.pi
    small = np.abs(v) < 1e-6
    sv = np.where(small, 1.0, np.sin(v))
    out = np.where(
        small,
        1.0 - (d * d - 1) * v * v / 3.0,
        (np.sin(d * v) / (d * sv)) ** 2,
    )
    return out if out.ndim else float(out)


# d -> (m, the factor of c_m that depends on d alone, one row per outcome l)
_FEJER_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def qudit_moments(sigma: float, alpha: float, d: int):
    """Unnormalized moments ``(n0, m1, m2)``, arrays over the outcomes l.

    The filter is a Fejer kernel, a finite Fourier series
    ``(1/d) sum_{|m|<d} (1 - |m|/d) e^{2 i m u}`` with
    ``u = alpha b + l_eff pi / d`` and ``l_eff = l + 1/2``, and the
    Gaussian moments of ``e^{2 i m alpha b}`` are exact.  With
    ``c_m = (d - |m|)/d^2 e^{2 i pi l_eff m / d} e^{-(m alpha sigma)^2}``
    the moments are the sums of ``2d - 1`` terms

    * ``n0 = Re sum c_m``
    * ``m1 = Re sum c_m i m alpha sigma^2``
    * ``m2 = Re sum c_m (sigma^2/2 - m^2 alpha^2 sigma^4)``

    and no integral is needed.
    """
    _check_drive(sigma, alpha)
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if d not in _FEJER_CACHE:
        m = np.arange(-(d - 1), d)
        l_eff = np.arange(d)[:, None] + QUDIT_MEASUREMENT_OFFSET
        _FEJER_CACHE[d] = m, (d - np.abs(m)) / d**2 * np.exp(2j * np.pi * l_eff * m / d)
    m, factors = _FEJER_CACHE[d]
    c = factors * np.exp(-(m * alpha * sigma) ** 2)
    return np.array((c, c * (1j * m * alpha * sigma**2),
                     c * (0.5 * sigma**2 - (m * alpha * sigma**2) ** 2))).sum(axis=-1).real


def qudit_filtered_moments(sigma: float, alpha: float, d: int, l: int) -> FilteredMoments:
    """Outcome probability, conditional mean and corrected variance for
    Fourier outcome ``l`` of the d-level scheme.

    Outcomes are indexed 0..d-1 and the measurement basis carries the
    half-step rotation (see :data:`QUDIT_MEASUREMENT_OFFSET`), so d = 2
    reproduces the +/-Y qubit moments with alpha halved.  The moments are
    row l of :func:`qudit_moments`, normalized by ``n0``.
    """
    n0, m1, m2 = qudit_moments(sigma, alpha, d)
    if not 0 <= l < d:
        raise ValueError(f"outcome index {l} outside 0..{d - 1}")
    n0, m1, m2 = float(n0[l]), float(m1[l]), float(m2[l])
    return _moments(n0, m1 / n0, m2 / n0)
