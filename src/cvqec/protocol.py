"""Ideal-ancilla correction schemes and their infidelity evaluation.

Each scheme runner returns a :class:`CorrectedNoise` describing the
post-correction displacement distribution: per quadrature, the variance
and, per measurement outcome, the filter reweighting the original
Gaussian and the counter-displacement that was applied.  Infidelity can
then be evaluated either through the small-noise variance expansion or by
exact quadrature of the outcome-averaged overlap.  The optimizers minimize
the closed-form p variances that the runners report, :func:`_qubit_var_p`
and :func:`_qudit_var_p`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial.hermite import hermgauss

from . import gaussian
from .fock import overlap_f
from .gaussian import qubit_filtered_moments, qudit_filter, qudit_filtered_moments
from .optimize import minimize_scalar

__all__ = [
    "OutcomeBranch",
    "QuadratureNoise",
    "CorrectedNoise",
    "run_uncorrected",
    "run_qubit_p_scheme",
    "run_two_qubit_scheme",
    "run_squeezed_scheme",
    "run_qudit_scheme",
    "qudit_bound",
    "infidelity_from_noise",
    "exact_infidelity",
    "optimal_alpha_qubit",
    "optimal_zeta",
    "optimize_qubit_alpha",
    "optimize_qudit_alpha",
    "optimize_zeta",
    "squeezing_db",
    "second_derivative_at_origin",
]

# Finite-difference step of second_derivative_at_origin.
_FD_STEP = 1e-4


@dataclass(frozen=True)
class OutcomeBranch:
    """One measurement outcome: its probability, the pre-correction mean
    of the displacement (equal to the applied counter-displacement), and
    the filter multiplying the Gaussian, normalized so the filtered
    density is gaussian_pdf(b, sigma) * filter(b) / weight."""

    weight: float
    mean: float
    filter: Callable[[np.ndarray], np.ndarray] | None = None

    def filter_values(self, b: np.ndarray) -> np.ndarray:
        if self.filter is None:
            return np.ones_like(b)
        return self.filter(b)


@dataclass(frozen=True)
class QuadratureNoise:
    """Post-correction displacement noise in one quadrature: a mixture of
    zero-mean branches, each the sigma-Gaussian reweighted by a filter and
    recentred on its conditional mean."""

    sigma: float
    branches: tuple[OutcomeBranch, ...]
    variance: float


def _plain(sigma: float) -> QuadratureNoise:
    return QuadratureNoise(sigma, (OutcomeBranch(1.0, 0.0),), 0.5 * sigma**2)


@dataclass(frozen=True)
class CorrectedNoise:
    """Residual displacement noise after one correction round."""

    q: QuadratureNoise
    p: QuadratureNoise

    @property
    def var_q(self) -> float:
        return self.q.variance

    @property
    def var_p(self) -> float:
        return self.p.variance

    @property
    def total_variance(self) -> float:
        return self.var_q + self.var_p


def _qubit_noise(sigma: float, alpha: float) -> QuadratureNoise:
    branches = tuple(
        OutcomeBranch(m.outcome_prob, m.mean,
                      lambda b, s=sign: 0.5 * (1.0 + s * np.sin(4.0 * alpha * b)))
        for sign, m in ((1.0, qubit_filtered_moments(sigma, alpha, "+Y")),
                        (-1.0, qubit_filtered_moments(sigma, alpha, "-Y"))))
    return QuadratureNoise(sigma, branches, _qubit_var_p(sigma, alpha))


def _qubit_var_p(sigma: float, alpha: float) -> float:
    """Outcome-averaged variance after the +/-Y round: both outcomes have
    probability 1/2 and the variance ``sigma^2/2 - mean^2``."""
    gaussian._check_drive(sigma, alpha)
    var = 0.5 * sigma**2 - gaussian.qubit_outcome_mean(sigma, alpha) ** 2
    if var < -1e-12:  # FilteredMoments' check; the probability is exactly 1/2
        raise ValueError(f"negative variance {var}")
    return 0.5 * var + 0.5 * var  # the per-outcome sum, term by term


def _qudit_var_p(sigma: float, alpha: float, d: int) -> float:
    """Outcome-averaged variance ``sum_l n_l var_l`` of the d-level round, in
    Python floats and summed left to right like the per-outcome path:
    np.sum pairs 8+ terms differently, and numpy's square of the mean can
    differ in the last bit from the ``mean**2`` of FilteredMoments."""
    if d < 2:
        raise ValueError("qudit scheme needs d >= 2")
    n0, m1, m2 = gaussian.qudit_moments(sigma, alpha, d).tolist()
    var = [second / n - (first / n) ** 2 for n, first, second in zip(n0, m1, m2)]
    gaussian._check_moments(n0, var)
    return sum(n * v for n, v in zip(n0, var))


def run_uncorrected(sigma: float) -> CorrectedNoise:
    """Both quadratures left as the raw Gaussian; baseline for comparisons."""
    q = _plain(sigma)
    return CorrectedNoise(q, q)


def run_qubit_p_scheme(sigma: float, alpha: float) -> CorrectedNoise:
    """Single qubit ancilla measured along +/-Y; corrects p only."""
    return CorrectedNoise(_plain(sigma), _qubit_noise(sigma, alpha))


def run_two_qubit_scheme(sigma: float, alpha_q: float, alpha_p: float) -> CorrectedNoise:
    """One ancilla per quadrature; each follows the single-qubit formula
    independently (the q corrector uses an imaginary-strength conditional
    displacement, which leaves the p analysis untouched)."""
    return CorrectedNoise(_qubit_noise(sigma, alpha_q), _qubit_noise(sigma, alpha_p))


def run_squeezed_scheme(sigma: float, alpha: float, zeta: float) -> CorrectedNoise:
    """Squeeze before, anti-squeeze after the error: the mode sees
    effective noise (sigma^2/2) e^{4 zeta} in q and (sigma^2/2) e^{-4 zeta}
    in p, and the qubit round corrects the amplified p noise.  Negative
    zeta therefore trades correctable p noise against q noise."""
    sigma_q = sigma * math.exp(2.0 * zeta)
    sigma_p = sigma * math.exp(-2.0 * zeta)
    return CorrectedNoise(_plain(sigma_q), _qubit_noise(sigma_p, alpha))


def run_qudit_scheme(sigma: float, alpha: float, d: int) -> CorrectedNoise:
    """d-level ancilla, rotated-Fourier readout; corrects p only."""
    variance = _qudit_var_p(sigma, alpha, d)
    moments = tuple(qudit_filtered_moments(sigma, alpha, d, l) for l in range(d))
    offset = gaussian.QUDIT_MEASUREMENT_OFFSET
    branches = tuple(
        OutcomeBranch(m.outcome_prob, m.mean,
                      lambda b, l=l: qudit_filter(b, alpha, d, l + offset))
        for l, m in enumerate(moments))
    return CorrectedNoise(_plain(sigma), QuadratureNoise(sigma, branches, variance))


def qudit_bound(sigma: float, s: float, d: int) -> float:
    """Upper bound sigma^2 s^2 / (4 d) on the corrected p variance when
    the kernel peak separation is s*sigma (i.e. alpha = pi / (s sigma))."""
    if s < 4:
        raise ValueError("bound assumes peak separation s >= 4")
    return sigma**2 * s**2 / (4.0 * d)


def optimal_alpha_qubit(sigma: float) -> float:
    """Closed-form optimum 1 / (2 sqrt(2) sigma) of the qubit scheme."""
    return 1.0 / (2.0 * math.sqrt(2.0) * sigma)


def optimal_zeta() -> float:
    """Closed-form optimum (1/8) ln(1 - 1/e) of the squeezed scheme."""
    return math.log(1.0 - math.exp(-1.0)) / 8.0


def squeezing_db(zeta: float) -> float:
    """Quadrature power ratio e^{4 |zeta|} expressed in decibels."""
    return 40.0 * abs(zeta) * math.log10(math.e)


def optimize_qubit_alpha(sigma: float, tol: float = 1e-6):
    """Numerically minimize the qubit scheme's corrected p variance."""
    return minimize_scalar(lambda a: _qubit_var_p(sigma, a),
                           0.2 / sigma, 8.0 / sigma, tol=tol)


def optimize_qudit_alpha(sigma: float, d: int, tol: float = 1e-6):
    """Numerically minimize the qudit scheme's averaged p variance.

    The optimal drive strength sits near 0.6-0.72 / sigma for every
    dimension (it decreases slowly with d from the qubit value
    1 / sqrt(2) / sigma), so the scan bracket stops at 1.5 / sigma.
    """
    return minimize_scalar(lambda a: _qudit_var_p(sigma, a, d),
                           0.2 / sigma, 1.5 / sigma, tol=tol)


def optimize_zeta(sigma: float, tol: float = 1e-6):
    """Minimize total variance over zeta, re-optimizing alpha inside."""
    def total(zeta):
        sigma_p = sigma * math.exp(-2.0 * zeta)
        _, var_p = optimize_qubit_alpha_for(sigma_p)
        return 0.5 * (sigma * math.exp(2.0 * zeta))**2 + var_p
    return minimize_scalar(total, -0.25, 0.05, tol=tol)


def optimize_qubit_alpha_for(sigma_p: float):
    """Inner loop of the nested zeta optimization: the qubit optimum at the
    squeezed noise sigma_p, to a tighter tolerance."""
    return optimize_qubit_alpha(sigma_p, tol=1e-8)


def second_derivative_at_origin(state_kind: str, quadrature: str = "q") -> float:
    """Central finite-difference d^2 f / d beta_x^2 at beta = 0 of the
    displacement overlap; -2 for coherent states, -6 for the single boson."""
    step = _FD_STEP if quadrature == "q" else 1j * _FD_STEP
    return (overlap_f(state_kind, step) - 2.0 * overlap_f(state_kind, 0.0)
            + overlap_f(state_kind, -step)) / _FD_STEP**2


def infidelity_from_noise(state_kind: str, noise: CorrectedNoise) -> float:
    """Small-noise expansion 1 - F = -(f''_q var_q + f''_p var_p) / 2."""
    if max(noise.var_q, noise.var_p) > 0.05:
        warnings.warn("variance exceeds the small-noise validity gate of the "
                      "second-order expansion", stacklevel=2)
    fq = second_derivative_at_origin(state_kind, "q")
    fp = second_derivative_at_origin(state_kind, "p")
    return -0.5 * (fq * noise.var_q + fp * noise.var_p)


@lru_cache(maxsize=None)
def _gh_rule() -> tuple[np.ndarray, np.ndarray]:
    """The order-200 Gauss-Hermite rule of each exact_infidelity quadrature."""
    return hermgauss(200)


def _overlap_grid(state_kind: str, bq: np.ndarray, bp: np.ndarray) -> np.ndarray:
    r2 = bq[:, None] ** 2 + bp[None, :] ** 2
    if state_kind == "coherent":
        return np.exp(-r2)
    if state_kind == "fock1":
        return np.exp(-r2) * (1.0 - r2) ** 2
    raise ValueError(f"unknown state kind {state_kind!r}")


def exact_infidelity(state_kind: str, noise: CorrectedNoise) -> float:
    """Outcome-averaged infidelity 1 - sum_l N_l int P_l,corr f d^2 beta,
    evaluated by 2-D Gauss-Hermite quadrature without any small-noise
    assumption."""
    t, w = _gh_rule()
    fid = 0.0
    for bq_branch in noise.q.branches:
        uq = noise.q.sigma * t
        filt_q = bq_branch.filter_values(uq) * w / math.sqrt(math.pi)
        for bp_branch in noise.p.branches:
            up = noise.p.sigma * t
            filt_p = bp_branch.filter_values(up) * w / math.sqrt(math.pi)
            f = _overlap_grid(state_kind, uq - bq_branch.mean, up - bp_branch.mean)
            fid += filt_q @ f @ filt_p
    return float(1.0 - fid)
