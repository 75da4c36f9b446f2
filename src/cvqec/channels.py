"""Error channels: random displacement and boson-number confinement.

The displacement channel is a density-matrix transform, a 2-D
Gauss-Hermite average over displacements, kept as an oracle for the
tests: both Monte Carlo engines draw their displacements in
``montecarlo``.  Confinement is the dissipative map that pumps every
n >= 2 Fock level of an auxiliary mode back to |1>, turning the mode into
a qubit; ``montecarlo`` applies :func:`confinement_kraus` to the
nine-qubit carrier's modes.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .fock import DensityMatrix, DisplacementEngine, TruncationError

__all__ = [
    "apply_displacement_channel",
    "confine_single_boson",
    "confinement_kraus",
]

# Order of the Gauss-Hermite rule in each quadrature.
_N_NODES = 64


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


def confinement_kraus(dim: int) -> list[np.ndarray]:
    """Kraus operators (dim -> 2) confining a mode to the {|0>, |1>} subspace.

    The qubit subspace is untouched (single identity-like Kraus term, so
    0-1 coherence survives); each n >= 2 level is pumped incoherently to
    |1>.  Composed with the displacement channel this reproduces the
    closed-form single-boson-qubit error channel.
    """
    if dim < 3:
        raise ValueError("confinement needs at least 3 Fock levels")
    k0 = np.zeros((2, dim), dtype=complex)
    k0[0, 0] = 1.0
    k0[1, 1] = 1.0
    ops = [k0]
    for n in range(2, dim):
        k = np.zeros((2, dim), dtype=complex)
        k[1, n] = 1.0
        ops.append(k)
    return ops


def confine_single_boson(rho_mode: DensityMatrix) -> DensityMatrix:
    """Dissipative map sending all population with n >= 1 to |1> while
    leaving the {|0>, |1>} block coherent; returns a qubit state."""
    if rho_mode.dim < 8:
        raise ValueError(f"mode truncation {rho_mode.dim - 1} too small, need >= 8")
    out = np.zeros((2, 2), dtype=complex)
    for k in confinement_kraus(rho_mode.dim):
        out += k @ rho_mode.matrix @ k.conj().T
    return DensityMatrix(out)
