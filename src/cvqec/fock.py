"""Truncated Fock-space states and operators.

All operators act on the number basis 0..n_trunc (dimension n_trunc + 1).
displaced_levels gives <y|D(beta)|k> for a few levels k in closed form,
exact below any cutoff: the batched engine's ancilla-mode displacements
and coherent states.  DisplacementEngine, the dense oracle's displacement,
builds D(beta) from two cached eigenbases; its truncation error shows up
only in the elements near the cutoff.  Every constructor guards against
states that push population into the top of the basis.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TruncationError",
    "TruncationWarning",
    "PureState",
    "DensityMatrix",
    "annihilation",
    "fock_state",
    "coherent_state",
    "fidelity",
    "DisplacementEngine",
    "displaced_levels",
]

LEAKAGE_BUDGET = 1e-8


class TruncationError(RuntimeError):
    """Requested operation cannot be represented at this truncation."""


class TruncationWarning(UserWarning):
    """State carries non-negligible population near the Fock cutoff."""


def _top_population(vec_or_diag: np.ndarray) -> float:
    dim = len(vec_or_diag)
    top = max(1, dim // 10)
    return float(np.sum(np.abs(vec_or_diag[dim - top:])))


@dataclass
class PureState:
    """Normalized complex amplitude vector over the number basis."""

    amplitudes: np.ndarray
    leakage_budget: float = LEAKAGE_BUDGET

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        norm = np.linalg.norm(amps)
        if norm < 1e-12:
            raise ValueError("cannot normalize a zero state")
        self.amplitudes = amps / norm
        if _top_population(np.abs(self.amplitudes) ** 2) > self.leakage_budget:
            warnings.warn("population near the Fock cutoff exceeds the leakage budget",
                          TruncationWarning, stacklevel=2)

    @property
    def dim(self) -> int:
        return len(self.amplitudes)

    def to_density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix over the same basis."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        self.matrix = m
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            raise ValueError("density matrix is not Hermitian within 1e-10")
        if abs(np.trace(m).real - 1.0) > 1e-10:
            raise ValueError(f"trace {np.trace(m).real} differs from 1 beyond 1e-10")
        # no eigenvalue below -1e-9: m + 1e-9 I has a Cholesky factor, which
        # costs a fraction of an eigendecomposition
        from scipy.linalg import cholesky
        try:
            cholesky(m + 1e-9 * np.eye(len(m)), lower=True, check_finite=False)
        except np.linalg.LinAlgError:
            raise ValueError("density matrix has an eigenvalue below -1e-9") from None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def annihilation(n_trunc: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, n_trunc + 1)), 1).astype(complex)


def fock_state(n: int, n_trunc: int) -> PureState:
    if not 0 <= n <= n_trunc:
        raise ValueError(f"Fock level {n} outside truncation {n_trunc}")
    amps = np.zeros(n_trunc + 1, dtype=complex)
    amps[n] = 1.0
    return PureState(amps)


def coherent_state(amplitude: complex, n_trunc: int) -> PureState:
    """D(amplitude)|0>, in closed form (displaced_levels)."""
    if abs(amplitude) ** 2 > n_trunc / 4:
        raise TruncationError(f"coherent amplitude {amplitude} too large for n_trunc={n_trunc}")
    return PureState(displaced_levels(amplitude, (0,), n_trunc + 1)[0])


def fidelity(a: PureState, b: DensityMatrix) -> float:
    """<a| b |a>."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    val = np.real(a.amplitudes.conj() @ b.matrix @ a.amplitudes)
    return float(min(max(val, 0.0), 1.0 + 1e-9))


class DisplacementEngine:
    """Fast repeated displacements via two cached eigendecompositions.

    D(beta) = exp(-i bq bp) * exp(i bp (a + a^dag)) * exp(bq (a^dag - a)),
    so after diagonalizing the two quadrature generators once, applying an
    arbitrary displacement to a vector costs four dense mat-vecs.  Agrees
    with exp(beta a^dag - beta* a) away from the cutoff.
    """

    def __init__(self, dim: int):
        self.dim = dim
        a = annihilation(dim - 1)
        x = a + a.conj().T                      # Hermitian
        lam_x, vx = np.linalg.eigh(x)
        k = 1j * (a.conj().T - a)               # Hermitian; a^dag - a = -i k
        lam_k, vk = np.linalg.eigh(k)
        self._lam_x, self._vx, self._vx_conj = lam_x, vx, vx.conj()
        self._lam_k, self._vk, self._vk_conj = lam_k, vk, vk.conj()

    def apply(self, beta, vecs: np.ndarray) -> np.ndarray:
        """D(beta) on the last axis of vecs.  beta is a scalar, or an array
        that broadcasts against vecs.shape[:-1]: one displacement per vector."""
        beta = np.asarray(beta)[..., None]
        bq, bp = beta.real, beta.imag
        out = (vecs @ self._vk_conj) * np.exp(-1j * bq * self._lam_k)
        out = (out @ self._vk.T @ self._vx_conj) * np.exp(1j * bp * self._lam_x)
        return np.exp(-1j * bq * bp) * (out @ self._vx.T)

    def matrix(self, beta: complex) -> np.ndarray:
        return self.apply(beta, np.eye(self.dim, dtype=complex)).T


def displaced_levels(beta, levels, dim: int) -> np.ndarray:
    """[..., k, y] = <y|D(beta[...])|levels[k]> for y < dim and levels below
    dim, exact (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)): level 0 is
    e^{-|beta|^2/2} beta^y / sqrt(y!), a cumulative product, and each next
    level follows from D|n + 1> = (a^dag - beta*) D|n> / sqrt(n + 1), run
    unnormalized; a^dag only raises, so no element needs one above dim.
    Only elementwise operations act across beta."""
    beta = np.asarray(beta, dtype=complex)
    flat, minus = beta.reshape(-1), -beta.reshape(-1).conj()
    root = np.sqrt(np.arange(1.0, dim))[:, None]
    # [y, beta]; complex exp is one loop at every SIMD dispatch level
    vac = np.exp(-0.5 * (flat * flat.conj()).real + 0j)
    col, kept = np.concatenate((vac[None], flat * (1.0 / root))).cumprod(axis=0), {}
    for n in range(max(levels) + 1):
        if n:
            col, prev = minus * col, col
            col[1:] += root * prev[:-1]
        if n in levels:
            kept[n] = col * (1.0 / root[:n].prod())  # 1 / sqrt(n!)
    return np.stack([kept[k] for k in levels], axis=1).T.reshape(beta.shape + (len(levels), dim))
