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
all d outcomes at once by :func:`qudit_moments` from one coefficient
table, whose rows are also the filters of ``protocol``'s qudit outcome
branches; their alpha-derivatives (:func:`qudit_moment_slopes`) sum the
same terms, and ``protocol`` finds the qudit optimum where its slope is zero.
:func:`integrate`, scipy's adaptive ``quad``, is the independent oracle
the tests check these closed forms against; scipy is imported on its
first call, so no command of the package loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "FilteredMoments",
    "IntegrationError",
    "gaussian_pdf",
    "integrate",
    "qubit_filtered_moments",
    "qubit_outcome_mean",
    "qudit_filtered_moments",
    "qudit_moment_slopes",
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

# Tolerances of :func:`integrate`.
_ABS_TOL = 1e-12
_REL_TOL = 1e-10


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


def _check_drive(sigma: float, alpha) -> None:
    if not 0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    if not (((0 <= alpha) & (alpha < math.inf)).all() if isinstance(alpha, np.ndarray)
            else 0 <= alpha < math.inf):
        raise ValueError(f"alpha must be nonnegative and finite, got {alpha}")


def _moments(prob: float, mean: float, second_moment: float) -> FilteredMoments:
    return FilteredMoments(prob, mean, second_moment, second_moment - mean * mean)


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


class _sciint:
    """The part of ``scipy.integrate`` that :func:`integrate` uses; scipy
    is imported on the first integral, not with this module."""

    @staticmethod
    def quad(*args, **kwargs):
        from scipy.integrate import quad
        return quad(*args, **kwargs)


def integrate(f: Callable[[float], float], lower: float, upper: float) -> float:
    """Integrate ``f`` over ``[lower, upper]`` with scipy's adaptive
    Gauss-Kronrod rule (absolute tolerance 1e-12, relative 1e-10).

    Raises :class:`IntegrationError` when the error estimate exceeds ten
    times the tolerance.
    """
    if not lower < upper:
        raise ValueError("need lower < upper")
    value, err = _sciint.quad(f, lower, upper, epsabs=_ABS_TOL, epsrel=_REL_TOL,
                              limit=400)
    if err > max(_ABS_TOL, _REL_TOL * abs(value)) * 10:
        raise IntegrationError("adaptive quadrature did not converge", value, err)
    return value


def qubit_outcome_mean(sigma: float, alpha: float) -> float:
    """Conditional mean of the +Y-filtered displacement, ``2 a s^2 e^{-4 a^2 s^2}``."""
    return 2.0 * alpha * (sigma * sigma) * math.exp(-4.0 * (alpha * alpha) * (sigma * sigma))


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
    return _moments(0.5, mean, 0.5 * sigma * sigma)


_FEJER_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _fejer_table(d: int) -> tuple[np.ndarray, np.ndarray]:
    """``(m, c)`` with ``m = -(d-1)..d-1`` and ``c[l, m] = (d - |m|)/d^2
    e^{2 i pi l_eff m / d}``: outcome l's filter is the Fourier series
    ``Re sum_m c[l, m] e^{2 i m alpha b}``, shared by every alpha."""
    if d not in _FEJER_CACHE:
        m = np.arange(-(d - 1), d)
        l_eff = np.arange(d)[:, None] + QUDIT_MEASUREMENT_OFFSET
        _FEJER_CACHE[d] = m, (d - np.abs(m)) / d**2 * np.exp(2j * np.pi * l_eff * m / d)
    return _FEJER_CACHE[d]


def _fejer_terms(sigma: float, alpha, d: int):
    """``(m, alpha, c)``, alpha on axes (alpha, l, m) and the terms c_m of
    :func:`qudit_moments`, which every qudit moment and slope sums over m."""
    _check_drive(sigma, alpha)
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    m, factors = _fejer_table(d)
    alpha = np.asarray(alpha, dtype=float)[..., None, None]
    # complex exp: the C library's exp on every CPU, unlike numpy's AVX-512 real exp
    return m, alpha, factors * np.exp(-(m * alpha * sigma) ** 2 + 0j).real


def qudit_moments(sigma: float, alpha, d: int):
    """Unnormalized moments ``(n0, m1, m2)``, arrays over the outcomes l, or
    over (alpha, l) for a 1-D array of alphas, each row bit for bit its own call.

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
    m, alpha, c = _fejer_terms(sigma, alpha, d)
    s2 = sigma * sigma
    return np.array((c, c * (1j * m * alpha * s2),
                     c * (0.5 * s2 - (m * alpha * s2) ** 2))).sum(axis=-1).real


def qudit_moment_slopes(sigma: float, alpha: float, d: int) -> np.ndarray:
    """:func:`qudit_moments`' n0 and m1 over the outcomes at one alpha, then
    the alpha-derivatives of all three: with ``x = m alpha sigma^2`` and
    ``dc_m / d alpha = k c_m = -2 m x c_m``, ``Re sum k c_m``,
    ``Re sum i m sigma^2 (c_m + alpha k c_m)`` and ``Re sum k c_m (3 sigma^2/2 - x^2)``."""
    m, alpha, c = _fejer_terms(sigma, alpha, d)
    s2 = sigma * sigma
    x = m * alpha * s2
    kc = -2.0 * m * x * c
    return np.array((c, 1j * x * c, kc, 1j * m * s2 * (c + alpha * kc),
                     kc * (1.5 * s2 - x * x))).sum(axis=-1).real


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
