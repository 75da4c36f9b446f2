"""Ideal-ancilla correction schemes and their infidelity evaluation.

Each scheme runner returns a :class:`CorrectedNoise` describing the
post-correction displacement distribution: per quadrature, the variance
and, per measurement outcome, the filter reweighting the original
Gaussian, a finite Fourier series, and the counter-displacement that was
applied.  Infidelity can then be evaluated either through the small-noise
variance expansion or exactly: the outcome-averaged overlap is a sum of
Gaussian integrals in closed form.  The qubit, two-qubit and squeezed
optima are closed forms too (:func:`optimal_alpha_qubit`,
:func:`optimal_zeta`); only the qudit optimum has none, so
:func:`optimize_qudit_alpha` finds the zero of the closed-form slope
:func:`_qudit_var_slope` of its closed-form variance :func:`_qudit_var_p`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import gaussian
from .gaussian import qubit_filtered_moments, qudit_filtered_moments

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

# 32 log-spaced points over [0.2, 1.5] (np.geomspace's bits vary with numpy's SIMD dispatch)
_SCAN = 0.2 * np.array([7.5 ** (k / 31) for k in range(32)])


@dataclass(frozen=True, eq=False)  # array fields: compared and hashed by identity
class OutcomeBranch:
    """One measurement outcome: its probability, the pre-correction mean
    of the displacement (equal to the applied counter-displacement), and
    the filter multiplying the Gaussian as a finite Fourier series
    ``filter(b) = Re sum_k coeffs[k] e^{i freqs[k] b}``, normalized so the
    filtered density is gaussian_pdf(b, sigma) * filter(b) / weight."""

    weight: float
    mean: float
    freqs: tuple | np.ndarray = (0.0,)
    coeffs: tuple | np.ndarray = (1.0,)

    def filter_values(self, b: np.ndarray) -> np.ndarray:
        return (np.exp(1j * np.multiply.outer(b, self.freqs)) @ self.coeffs).real


@dataclass(frozen=True)
class QuadratureNoise:
    """Post-correction displacement noise in one quadrature: a mixture of
    zero-mean branches, each the sigma-Gaussian reweighted by a filter and
    recentred on its conditional mean."""

    sigma: float
    branches: tuple[OutcomeBranch, ...]
    variance: float


def _plain(sigma: float) -> QuadratureNoise:
    return QuadratureNoise(sigma, (OutcomeBranch(1.0, 0.0),), 0.5 * sigma * sigma)


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
    # (1 +/- sin(4 alpha b)) / 2
    branches = tuple(
        OutcomeBranch(m.outcome_prob, m.mean, (0.0, 4.0 * alpha, -4.0 * alpha),
                      (0.5, -0.25j * sign, 0.25j * sign))
        for sign, m in ((1.0, qubit_filtered_moments(sigma, alpha, "+Y")),
                        (-1.0, qubit_filtered_moments(sigma, alpha, "-Y"))))
    return QuadratureNoise(sigma, branches, _qubit_var_p(sigma, alpha))


def _qubit_var_p(sigma: float, alpha: float) -> float:
    """Outcome-averaged variance after the +/-Y round: both outcomes have
    probability 1/2 and the variance ``sigma^2/2 - mean^2``, squared as products."""
    gaussian._check_drive(sigma, alpha)
    mean = gaussian.qubit_outcome_mean(sigma, alpha)
    var = 0.5 * sigma * sigma - mean * mean
    if var < -1e-12:  # FilteredMoments' check; the probability is exactly 1/2
        raise ValueError(f"negative variance {var}")
    return var


def _qudit_var_p(sigma: float, alpha, d: int):
    """Outcome-averaged variance ``sum_l n_l var_l`` of the d-level round, or
    their array for a 1-D array of alphas, each the one-alpha call bit for bit:
    Python floats summed left to right like the per-outcome path, since np.sum
    pairs 8+ terms differently."""
    if d < 2:
        raise ValueError("qudit scheme needs d >= 2")
    moments = gaussian.qudit_moments(sigma, alpha, d)
    out = []
    for n0, m1, m2 in zip(*moments.reshape(3, -1, d).tolist()):
        var = [second / n - (first / n) * (first / n) for n, first, second in zip(n0, m1, m2)]
        gaussian._check_moments(n0, var)
        out.append(sum(n * v for n, v in zip(n0, var)))
    return np.array(out) if moments.ndim == 3 else out[0]


def _qudit_var_slope(sigma: float, alpha: float, d: int) -> float:
    """d/d alpha at one alpha of :func:`_qudit_var_p`, ``sum_l m2_l - m1_l^2 / n0_l``."""
    n0, m1, dn0, dm1, dm2 = gaussian.qudit_moment_slopes(sigma, alpha, d)
    mean = m1 / n0
    return float(np.sum(dm2 - 2.0 * mean * dm1 + mean * mean * dn0))


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
    m, table = gaussian._fejer_table(d)
    branches = tuple(OutcomeBranch(mom.outcome_prob, mom.mean, 2.0 * alpha * m, table[l])
                     for l, mom in enumerate(moments))
    return CorrectedNoise(_plain(sigma), QuadratureNoise(sigma, branches, variance))


def qudit_bound(sigma: float, s: float, d: int) -> float:
    """Upper bound sigma^2 s^2 / (4 d) on the corrected p variance when
    the kernel peak separation is s*sigma (i.e. alpha = pi / (s sigma))."""
    if not 4 <= s < math.inf:
        raise ValueError(f"bound assumes a finite peak separation s >= 4, got {s}")
    return (sigma * sigma) * (s * s) / (4.0 * d)


def optimal_alpha_qubit(sigma: float) -> float:
    """Closed-form optimum 1 / (2 sqrt(2) sigma) of the qubit scheme."""
    return 1.0 / (2.0 * math.sqrt(2.0) * sigma)


def optimal_zeta() -> float:
    """Closed-form optimum (1/8) ln(1 - 1/e) of the squeezed scheme."""
    return math.log(1.0 - math.exp(-1.0)) / 8.0


def squeezing_db(zeta: float) -> float:
    """Quadrature power ratio e^{4 |zeta|} expressed in decibels."""
    return 40.0 * abs(zeta) * math.log10(math.e)


def optimize_qubit_alpha(sigma: float):
    """The qubit scheme's optimum :func:`optimal_alpha_qubit` and its
    corrected p variance ``(1 - 1/e) sigma^2 / 2``."""
    alpha = optimal_alpha_qubit(sigma)
    return alpha, _qubit_var_p(sigma, alpha)


def minimize_scalar(slope, lower: float, upper: float) -> float:
    """The zero of ``slope`` where it rises through zero in ``[lower, upper]``,
    the minimum of the function it is the derivative of: regula falsi with
    the Illinois rule (an end kept twice running has its slope halved), to a
    step below 1e-10 of the point.  A bracket the slope does not rise
    across, a non-finite slope, or 100 steps without settling raise."""
    a, b = lower, upper
    fa, fb = slope(a), slope(b)
    if not fa < 0 < fb:
        raise ValueError(f"slope does not rise through zero on [{a}, {b}]: {fa}, {fb}")
    x, side = math.inf, 0
    for _ in range(100):
        x_old, x = x, b - fb * (b - a) / (fb - fa)
        fx = slope(x)
        if not math.isfinite(fx):
            raise ValueError(f"non-finite slope {fx} at {x}")
        if fx == 0 or abs(x - x_old) <= 1e-10 * abs(x):
            return x
        if fx < 0:
            fb *= 0.5 if side < 0 else 1.0
            a, fa, side = x, fx, -1
        else:
            fa *= 0.5 if side > 0 else 1.0
            b, fb, side = x, fx, 1
    raise ValueError(f"slope search did not settle in 100 steps on [{a}, {b}]")


def optimize_qudit_alpha(sigma: float, d: int):
    """The qudit scheme's optimal drive strength and its averaged p variance.

    The optimum sits near 0.6-0.72 / sigma for every dimension (it decreases
    slowly with d from the qubit value 1 / sqrt(2) / sigma).  A 32-point log
    scan of the variance over [0.2, 1.5] / sigma in one array call, which
    guards against the shoulders at large d, brackets it between the best
    point's neighbours for :func:`minimize_scalar` on its slope."""
    grid = _SCAN * (1.0 / sigma)  # sigma = 0 raises here, not in numpy
    i = int(np.argmin(_qudit_var_p(sigma, grid, d)))
    alpha = minimize_scalar(lambda a: _qudit_var_slope(sigma, a, d),
                            float(grid[max(i - 1, 0)]), float(grid[min(i + 1, 31)]))
    return alpha, _qudit_var_p(sigma, alpha, d)


def optimize_zeta(sigma: float):
    """The squeezed scheme's optimum :func:`optimal_zeta` and its total
    variance, with alpha at the qubit optimum for the squeezed p noise."""
    zeta = optimal_zeta()
    _, var_p = optimize_qubit_alpha_for(sigma * math.exp(-2.0 * zeta))
    sigma_q = sigma * math.exp(2.0 * zeta)
    return zeta, 0.5 * sigma_q * sigma_q + var_p


def optimize_qubit_alpha_for(sigma_p: float):
    """The qubit optimum at the squeezed p noise sigma_p."""
    return optimize_qubit_alpha(sigma_p)


def second_derivative_at_origin(state_kind: str) -> float:
    """d^2 f / d beta_x^2 at beta = 0 of the displacement overlap f, the same
    in both quadratures: -2 for a coherent state (f = e^{-|beta|^2}), -6
    for the single boson (f = e^{-|beta|^2} (1 - |beta|^2)^2)."""
    if state_kind not in ("coherent", "fock1"):
        raise ValueError(f"unknown state kind {state_kind!r}")
    return -2.0 if state_kind == "coherent" else -6.0


def infidelity_from_noise(state_kind: str, noise: CorrectedNoise) -> float:
    """Small-noise expansion 1 - F = -f'' (var_q + var_p) / 2."""
    if max(noise.var_q, noise.var_p) > 0.05:
        warnings.warn("variance exceeds the small-noise validity gate of the "
                      "second-order expansion", stacklevel=2)
    return -0.5 * second_derivative_at_origin(state_kind) * noise.total_variance


def _overlap_moments(noise: QuadratureNoise) -> np.ndarray:
    """``[K_0, K_2, K_4]``, ``K_k`` the sum over branches of
    ``int G(b, sigma) filter(b) (b - m)^k e^{-(b - m)^2} db``.

    Per Fourier term e^{itb} the integrand is a Gaussian in x = b - m
    with precision A = 1 + sigma^-2 and linear coefficient
    C = it - 2m/sigma^2, so the integral is its weight times the
    moments 1, mu^2 + v and mu^4 + 6 mu^2 v + 3 v^2 of mean mu = C/2A
    and variance v = 1/2A."""
    s2 = noise.sigma * noise.sigma
    a = 1.0 + 1.0 / s2
    v = 0.5 / a
    total = np.zeros(3)
    for br in noise.branches:
        t, m = np.asarray(br.freqs), br.mean
        c = 1j * t - 2.0 * m / s2
        mu2 = (c / (2.0 * a)) ** 2
        weight = np.exp(c * c / (4.0 * a) + 1j * t * m - m * m / s2)
        moments = np.array((np.ones_like(mu2), mu2 + v, mu2 * mu2 + 6.0 * mu2 * v + 3.0 * v * v))
        total += (moments * weight @ np.asarray(br.coeffs)).real
    return total / (noise.sigma * math.sqrt(a))


def exact_infidelity(state_kind: str, noise: CorrectedNoise) -> float:
    """Outcome-averaged infidelity 1 - sum_l N_l int P_l,corr f d^2 beta,
    without any small-noise assumption.

    The overlap f is e^{-x^2 - y^2} for a coherent input and
    e^{-x^2 - y^2} (1 - x^2 - y^2)^2 for fock1, so the sum over pairs of
    q and p branches is a sum of products of per-quadrature Gaussian
    integrals (:func:`_overlap_moments`), each in closed form."""
    q0, q2, q4 = _overlap_moments(noise.q)
    p0, p2, p4 = _overlap_moments(noise.p)
    if state_kind == "coherent":
        fid = q0 * p0
    elif state_kind == "fock1":
        fid = q0 * p0 - 2.0 * (q2 * p0 + q0 * p2) + q4 * p0 + q0 * p4 + 2.0 * q2 * p2
    else:
        raise ValueError(f"unknown state kind {state_kind!r}")
    return float(1.0 - fid)
