"""Slow, independent constructions that the tests check the package against.

No command path uses them; each is a direct form of something the package
computes another way:

- displacement_operator: exp(beta a^dag - beta* a) by scipy's expm, against
  fock.DisplacementEngine's two cached eigenbases and the closed-form
  fock.displaced_levels.
- apply_displacement_channel: the Gaussian displacement channel as a 2-D
  Gauss-Hermite average of density matrices, against the closed-form
  single-boson-qubit channel.
- confine_single_boson: montecarlo.confinement_kraus summed over a density
  matrix, the Kraus form of the confinement that the nine-qubit carrier
  applies level by level.
- gauss_hermite_infidelity: protocol.exact_infidelity as an order-200
  Gauss-Hermite grid over both quadratures for each pair of outcome
  branches, against the closed-form sum of Gaussian integrals.
- golden_section: a grid scan plus golden-section refinement of a
  function's values, the search that numeric_qubit_alpha, numeric_zeta and
  numeric_qudit_alpha run.
- numeric_qubit_alpha, numeric_zeta: the qubit and squeezed optima found
  by golden_section (nested for zeta) on the closed-form variances,
  against protocol's closed-form optima.
- numeric_qudit_alpha: the qudit optimum found by golden_section on the
  closed-form variance, against protocol.optimize_qudit_alpha's search
  for the zero of its closed-form slope.
- overlap_f: |<psi|D(beta)|psi>|^2 of the coherent and single-boson
  states in closed form, against Fock-vector overlaps.
- finite_difference_curvature: the central second difference of
  overlap_f at the origin, against protocol.second_derivative_at_origin.
- qudit_filter: the qudit outcome filter as its sin^2 kernel, against
  the Fourier series an OutcomeBranch carries.
- fock_outcome_probabilities: the bare-qubit readout probabilities from
  truncated Fock vectors, against the closed-form filter of
  montecarlo.estimate_qubit_var_p.
- standard_draws: each trajectory's numbers from its own
  default_rng(SeedSequence([root_seed, i])), row by row, against
  montecarlo._standard_draws, which computes PCG64 and numpy's ziggurat
  fast path as arrays.
- ziggurat_tables: numpy's standard normal ziggurat tables read back
  through PCG64's state setter, against the copy the package ships.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss

from cvqec.fock import (DensityMatrix, DisplacementEngine, TruncationError,
                        annihilation)
from cvqec.montecarlo import _carrier, confinement_kraus
from cvqec.protocol import _qubit_var_p, _qudit_var_p

# Order of the Gauss-Hermite rule in each quadrature.
_N_NODES = 64
_FOCK_CHUNK = 8192  # trajectories per batch of fock_outcome_probabilities
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier
_FD_STEP = 1e-4  # step of finite_difference_curvature
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GRID_POINTS = 32  # scan points of golden_section


def displacement_operator(beta: complex, n_trunc: int) -> np.ndarray:
    """exp(beta a^dag - beta* a) on the truncated space."""
    if n_trunc < 2:
        raise ValueError("n_trunc must be >= 2")
    if abs(beta) ** 2 > n_trunc / 4:
        raise TruncationError(
            f"|beta|^2 = {abs(beta)**2:.3g} exceeds n_trunc/4 = {n_trunc / 4}")
    from scipy.linalg import expm

    a = annihilation(n_trunc)
    gen = beta * a.conj().T - np.conj(beta) * a
    return expm(gen)


def apply_displacement_channel(rho: DensityMatrix, sigma: float) -> DensityMatrix:
    """Average D(beta) rho D(beta)^dag over the Gaussian displacement
    distribution of strength sigma (per-quadrature variance sigma^2/2)
    with a tensor-product Gauss-Hermite rule."""
    if not (sigma > 0 and math.isfinite(sigma)):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    dim = rho.dim
    t, w = hermgauss(_N_NODES)
    # Effective support: nodes past |t| ~ 5.7 carry Gaussian weight < 1e-14.
    beta_eff = sigma * min(t[-1], 5.7)
    if 2.0 * beta_eff**2 > (dim - 1) / 4.0:
        raise TruncationError(
            f"sigma={sigma} needs displacements up to |beta|^2="
            f"{2 * beta_eff**2:.3g}, beyond headroom (dim-1)/4={(dim - 1) / 4}")
    engine = DisplacementEngine(dim)
    # The 2-D average factorizes: D(bq + i bp) rho D^dag is a q-congruence
    # followed by a p-congruence, so two 1-D passes suffice.
    inner = np.zeros((dim, dim), dtype=complex)
    for j in range(_N_NODES):
        d = engine.matrix(complex(sigma * t[j], 0.0))
        inner += w[j] * (d @ rho.matrix @ d.conj().T)
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(_N_NODES):
        d = engine.matrix(complex(0.0, sigma * t[i]))
        out += w[i] * (d @ inner @ d.conj().T)
    out /= np.pi
    out = 0.5 * (out + out.conj().T)
    return DensityMatrix(out)


def confine_single_boson(rho_mode: DensityMatrix) -> DensityMatrix:
    """Dissipative map sending all population with n >= 1 to |1> while
    leaving the {|0>, |1>} block coherent; returns a qubit state."""
    if rho_mode.dim < 8:
        raise ValueError(f"mode truncation {rho_mode.dim - 1} too small, need >= 8")
    out = np.zeros((2, 2), dtype=complex)
    for k in confinement_kraus(rho_mode.dim):
        out += k @ rho_mode.matrix @ k.conj().T
    return DensityMatrix(out)


@lru_cache(maxsize=None)
def _gh_rule() -> tuple[np.ndarray, np.ndarray]:
    """The order-200 Gauss-Hermite rule of each gauss_hermite_infidelity
    quadrature."""
    return hermgauss(200)


def _overlap_grid(state_kind: str, bq: np.ndarray, bp: np.ndarray) -> np.ndarray:
    r2 = bq[:, None] ** 2 + bp[None, :] ** 2
    if state_kind == "coherent":
        return np.exp(-r2)
    if state_kind == "fock1":
        return np.exp(-r2) * (1.0 - r2) ** 2
    raise ValueError(f"unknown state kind {state_kind!r}")


def gauss_hermite_infidelity(state_kind: str, noise) -> float:
    """Outcome-averaged infidelity 1 - sum_l N_l int P_l,corr f d^2 beta of a
    protocol.CorrectedNoise by 2-D Gauss-Hermite quadrature, each branch's
    filter evaluated on the nodes."""
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


def golden_section(f, lower: float, upper: float, tol: float = 1e-6):
    """``(argmin, min)`` of ``f`` on ``[lower, upper]``.

    A 32-point scan (log-spaced when the bracket is positive), ``f`` given
    the grid as one 1-D array, brackets the best point between its
    neighbours; golden section then narrows that bracket to ``tol`` in
    argument units, ``f`` given one scalar per step.  Non-finite values
    raise."""
    if not lower < upper:
        raise ValueError("need lower < upper")
    grid = (np.geomspace if lower > 0 else np.linspace)(lower, upper, _GRID_POINTS)
    vals = np.asarray(f(grid), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("objective returned a non-finite value on the scan grid")
    i = int(np.argmin(vals))
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, _GRID_POINTS - 1)]
    c, d = b - _INV_GOLDEN * (b - a), a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if not (math.isfinite(fc) and math.isfinite(fd)):
            raise ValueError("objective returned a non-finite value during refinement")
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return float(x), float(f(x))


def numeric_qubit_alpha(sigma: float, tol: float = 1e-6):
    """``(argmin, min)`` of the qubit scheme's corrected p variance over
    alpha in [0.2/sigma, 8/sigma]."""
    var_p = np.vectorize(lambda a: _qubit_var_p(sigma, a), otypes=[float])
    return golden_section(var_p, 0.2 / sigma, 8.0 / sigma, tol=tol)


def numeric_zeta(sigma: float):
    """``(argmin, min)`` of the squeezed scheme's total variance over zeta in
    [-0.25, 0.05], alpha minimized numerically (to 1e-8) inside."""
    def total(zeta):
        _, var_p = numeric_qubit_alpha(sigma * math.exp(-2.0 * zeta), tol=1e-8)
        return 0.5 * (sigma * math.exp(2.0 * zeta))**2 + var_p
    return golden_section(np.vectorize(total, otypes=[float]), -0.25, 0.05)


def numeric_qudit_alpha(sigma: float, d: int, tol: float = 1e-6):
    """``(argmin, min)`` of the qudit scheme's corrected p variance over
    alpha in [0.2/sigma, 1.5/sigma]."""
    return golden_section(lambda a: _qudit_var_p(sigma, a, d), 0.2 / sigma, 1.5 / sigma,
                          tol=tol)


def overlap_f(kind: str, beta: complex) -> float:
    """|<psi| D(beta) |psi>|^2 for the supported reference states.

    Coherent states give exp(-|beta|^2) independent of amplitude; the
    single-boson state gives exp(-|beta|^2) (1 - |beta|^2)^2.
    """
    b2 = abs(beta) ** 2
    if kind == "coherent":
        return math.exp(-b2)
    if kind == "fock1":
        return math.exp(-b2) * (1.0 - b2) ** 2
    raise ValueError(f"unknown state kind {kind!r}")


def finite_difference_curvature(state_kind: str, quadrature: str = "q") -> float:
    """Central second difference of the displacement overlap at beta = 0
    along the real (q) or imaginary (p) axis."""
    step = _FD_STEP if quadrature == "q" else 1j * _FD_STEP
    return (overlap_f(state_kind, step) - 2.0 * overlap_f(state_kind, 0.0)
            + overlap_f(state_kind, -step)) / _FD_STEP**2


def qudit_filter(beta, alpha: float, d: int, l) -> np.ndarray | float:
    """Fourier-outcome filter ``sin^2(d a b + l pi) / (d^2 sin^2(a b + l pi/d))``.

    Removable singularities (every kernel peak) evaluate to their limit 1
    via a series expansion, never to NaN.  ``l`` may be half-integer,
    which is how the rotated measurement basis of the package's qudit
    readout is expressed.
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


def fock_outcome_probabilities(alpha: float, bp: np.ndarray) -> np.ndarray:
    """P(+Y) per trajectory from D(+-alpha) D(i b_p) D(-+alpha) |0>."""
    dim = int(alpha * alpha + 8.0 * alpha + 24.0)
    engine = DisplacementEngine(dim)
    vac = np.eye(1, dim, dtype=complex)[0]
    # the g branch starts at D(-alpha)|0>, the e branch at D(+alpha)|0>
    start = np.stack((engine.apply(-alpha, vac), engine.apply(alpha, vac)))
    back_g, back_e = engine.matrix(alpha).T, engine.matrix(-alpha).T
    out = np.empty(len(bp))
    for lo in range(0, len(bp), _FOCK_CHUNK):
        seg = bp[lo:lo + _FOCK_CHUNK]
        kicked = engine.apply(1j * seg[:, None], start)  # [r, branch, level]
        diff = kicked[:, 0] @ back_g - 1j * (kicked[:, 1] @ back_e)
        out[lo:lo + _FOCK_CHUNK] = 0.25 * np.sum(np.abs(diff) ** 2, axis=1)
    return out


def standard_draws(root_seed: int, kind: str, start: int, stop: int):
    """(data, anc, uni) as montecarlo._standard_draws lays them out, drawn
    row by row in the circuit's order, and per row whether its stream took
    one 64-bit output per number (every normal on the ziggurat fast path)."""
    carrier = _carrier(kind)
    n, modes = stop - start, carrier.n_modes
    data, uni = np.empty((n, 2)), np.empty((n, carrier.n_uniform))
    anc = np.empty((n, carrier.n_anc_normals, 2))
    fast = np.empty(n, dtype=bool)
    for r in range(n):
        rng = np.random.default_rng(np.random.SeedSequence([root_seed, start + r]))
        data[r] = rng.standard_normal(2)
        for m in range(modes):
            anc[r, m] = rng.standard_normal(2)
            uni[r, m] = rng.random()
        if kind == "binomial_n3":
            anc[r, 0] = rng.standard_normal(2)
        uni[r, modes:] = rng.random(carrier.n_uniform - modes)
        once = np.random.default_rng(np.random.SeedSequence([root_seed, start + r]))
        once.bit_generator.advance(2 + anc[r].size + carrier.n_uniform)
        fast[r] = rng.bit_generator.state == once.bit_generator.state
    return data, anc, uni, fast


def ziggurat_tables():
    """numpy's ziggurat tables ki (uint64) and wi (float64) for
    Generator.standard_normal, read back through PCG64's state setter.

    A draw maps one output r to idx = r & 0xff, a sign bit and rabs = r >>
    9, and returns rabs wi[idx] on the fast path, rabs < ki[idx].  The state
    s with s M + inc = r (hi word 0, so XSL-RR does not rotate) makes r the
    next output.  rabs = 1 gives wi[idx]; idx = 1 has ki = 0 and returns it
    from the wedge, whose acceptance test 1 passes.  ki[idx] is the first
    rabs whose draw takes more than one step, found by bisection."""
    inv = pow(_PCG_MULT, -1, 1 << 128)
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)

    def draw(r):
        """(standard_normal with r next, whether it took one output)"""
        bitgen.state = {"bit_generator": "PCG64",
                        "state": {"state": (r - 1) * inv % (1 << 128), "inc": 1},
                        "has_uint32": 0, "uinteger": 0}
        x = rng.standard_normal()
        return x, bitgen.state["state"]["state"] == r

    ki, wi = np.empty(256, dtype=np.uint64), np.empty(256)
    for idx in range(256):
        wi[idx] = draw(idx | 1 << 9)[0]
        lo, hi = 0, 1 << 52
        while lo < hi:
            mid = (lo + hi) // 2
            if draw(idx | mid << 9)[1]:
                lo = mid + 1
            else:
                hi = mid
        ki[idx] = lo
    return ki, wi
