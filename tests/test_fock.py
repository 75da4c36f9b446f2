"""Truncated Fock-space operators against analytic expectations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqec.fock import (DensityMatrix, DisplacementEngine, PureState,
                        TruncationWarning,
                        TruncationError, annihilation, coherent_state,
                        displaced_levels, fidelity, fock_state)
from oracles import displacement_operator, overlap_f

N_TRUNC = 30
DIM = N_TRUNC + 1


def test_annihilation_matrix_elements():
    a = annihilation(5)
    assert a[2, 3] == pytest.approx(math.sqrt(3))
    assert np.count_nonzero(a) == 5


def test_coherent_state_is_displaced_vacuum():
    beta = 0.7 - 0.4j
    direct = coherent_state(beta, N_TRUNC).amplitudes
    displaced = displacement_operator(beta, N_TRUNC) @ fock_state(0, N_TRUNC).amplitudes
    assert np.allclose(direct, displaced, atol=1e-12)


def test_coherent_state_mean_boson_number():
    beta = 1.1
    psi = coherent_state(beta, N_TRUNC).amplitudes
    n_op = np.diag(np.arange(DIM))
    assert np.real(psi.conj() @ n_op @ psi) == pytest.approx(abs(beta) ** 2, rel=1e-10)


def test_displacement_unitary_and_inverse():
    d = displacement_operator(0.6 + 0.2j, N_TRUNC)
    assert np.allclose(d @ d.conj().T, np.eye(DIM), atol=1e-12)
    dinv = displacement_operator(-0.6 - 0.2j, N_TRUNC)
    # D(-beta) D(beta) = 1 exactly (the generators are exact negatives)
    assert np.allclose(dinv @ d, np.eye(DIM), atol=1e-12)


def test_displacement_truncation_guard():
    with pytest.raises(TruncationError):
        displacement_operator(4.0, 10)


def test_overlap_f_values():
    assert overlap_f("coherent", 0.3 + 0.1j) == pytest.approx(math.exp(-0.1), rel=1e-12)
    b2 = 0.05
    assert overlap_f("fock1", math.sqrt(b2)) == pytest.approx(
        math.exp(-b2) * (1 - b2) ** 2, rel=1e-12)
    with pytest.raises(ValueError):
        overlap_f("gkp", 0.1)


def test_overlap_f_matches_fock_calculation():
    beta = 0.21 - 0.13j
    d = displacement_operator(beta, N_TRUNC)
    for kind, n in (("coherent", 0), ("fock1", 1)):
        psi = fock_state(n, N_TRUNC).amplitudes
        val = abs(psi.conj() @ d @ psi) ** 2
        assert val == pytest.approx(overlap_f(kind, beta), abs=1e-12)


def test_pure_state_normalizes_and_rejects_zero():
    with pytest.warns(TruncationWarning):
        # population sits at the top of a 2-level basis, which the
        # leakage check is expected to flag
        s = PureState(np.array([3.0, 4.0]))
    assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        PureState(np.zeros(4))


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.5], [0.2, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([0.7, 0.7]))  # trace 1.4
    ok = DensityMatrix(np.diag([0.25, 0.75]).astype(complex))
    assert ok.dim == 2


@pytest.mark.parametrize("lowest, valid", [(-2e-9, False), (-5e-10, True), (0.0, True)])
def test_density_matrix_eigenvalue_bound(lowest, valid):
    # eigenvalues down to -1e-9 pass, in a rotated basis too
    q, _ = np.linalg.qr(np.random.default_rng(4).normal(size=(4, 4))
                        + 1j * np.random.default_rng(5).normal(size=(4, 4)))
    m = q @ np.diag([lowest, 0.2, 0.3, 0.5 - lowest]) @ q.conj().T
    m = 0.5 * (m + m.conj().T)
    if valid:
        assert DensityMatrix(m).dim == 4
    else:
        with pytest.raises(ValueError, match="eigenvalue below"):
            DensityMatrix(m)


def test_fidelity_of_mixture():
    psi = fock_state(0, 3)
    rho = DensityMatrix(np.diag([0.9, 0.1, 0, 0]).astype(complex))
    assert fidelity(psi, rho) == pytest.approx(0.9)


class TestDisplacementEngine:
    def test_matches_expm_construction(self):
        engine = DisplacementEngine(DIM)
        for beta in (0.4, 0.3j, 0.25 - 0.35j):
            ref = displacement_operator(beta, N_TRUNC)
            got = engine.matrix(beta)
            # agreement away from the cutoff; the factorized form differs
            # from the exponential only in the top rows
            assert np.max(np.abs((got - ref)[:DIM // 2, :DIM // 2])) < 1e-10

    def test_composition_reproduces_geometric_phase(self):
        engine = DisplacementEngine(DIM)
        alpha, beta = 0.5, 0.3j
        vac = np.zeros(DIM, dtype=complex)
        vac[0] = 1.0
        # D(alpha) D(beta) D(-alpha) = e^{alpha beta* - alpha* beta} D(beta)
        seq = engine.apply(alpha, engine.apply(beta, engine.apply(-alpha, vac)))
        phase = np.exp(alpha * np.conj(beta) - np.conj(alpha) * beta)
        direct = phase * engine.apply(beta, vac)
        assert np.allclose(seq, direct, atol=1e-11)

    def test_apply_matches_matrix(self):
        engine = DisplacementEngine(12)
        rng = np.random.default_rng(1)
        vec = rng.normal(size=12) + 1j * rng.normal(size=12)
        beta = 0.2 - 0.1j
        assert np.allclose(engine.apply(beta, vec), engine.matrix(beta) @ vec)

    # 1530 = 170 * 9: the nine mode displacements of a full shor9 chunk
    @pytest.mark.parametrize("dim, terms, n", [
        pytest.param(14, None, 40, id="14-None"), pytest.param(24, 1, 40, id="24-1"),
        pytest.param(24, 3, 40, id="24-3"), pytest.param(14, None, 1530, id="14-None-1530")])
    def test_array_beta_is_the_per_row_scalar_call(self, dim, terms, n):
        """beta of shape (n, 1) displaces row r of vecs (n, terms, dim), or
        the shared (2, dim) vecs, by beta[r], bit for bit as the scalar call
        on that row: the batched calls of the Monte Carlo engine."""
        engine = DisplacementEngine(dim)
        rng = np.random.default_rng(dim + (terms or 0))
        beta = rng.normal(0.0, 0.4, n) + 1j * rng.normal(0.0, 0.4, n)
        beta[:3] = (0.0, 0.3, -0.2j)
        if terms is None:
            vecs = np.eye(2, dim, dtype=complex)
            rows = [vecs] * n
        else:
            vecs = rng.normal(size=(n, terms, dim)) + 1j * rng.normal(size=(n, terms, dim))
            rows = list(vecs)
        got = engine.apply(beta[:, None], vecs)
        assert got.shape == (n, 2 if terms is None else terms, dim)
        for r in range(n):
            assert got[r].tobytes() == engine.apply(complex(beta[r]), rows[r]).tobytes()


class TestDisplacedLevels:
    """The closed-form <y|D(beta)|k> that displaces the batched engine's
    ancilla modes: the two levels of a single-boson qubit at dim 14 and the
    binomial codeword support at dim 24."""

    BETAS = (0.0, 1.0, -1.0j, 0.6 - 0.8j, 0.3 + 0.2j, -0.45 + 0.7j)

    @pytest.mark.parametrize("levels, dim", [((0, 1), 14), ((0, 3, 6, 9), 24), ((5, 2), 9)])
    def test_matches_expm_of_padded_generator(self, levels, dim):
        # exp of the generator on 64 levels, cut to y < dim: at |beta| <= 1
        # its own truncation is far below rounding there
        for beta in self.BETAS:
            ref = displacement_operator(beta, 63)[:dim, list(levels)].T
            got = displaced_levels(beta, levels, dim)
            assert got.shape == (len(levels), dim)
            assert np.max(np.abs(got - ref)) < 1e-14

    # the engine's own truncation reaches the low levels at small dims: at
    # dim 14 it is off by 5e-13 at level 6 for beta = 0.2 - 0.2j
    @pytest.mark.parametrize("dim", [24, 31, 40])
    def test_matches_engine_below_half_the_dim(self, dim):
        engine = DisplacementEngine(dim)
        half = dim // 2
        for beta in (0.3, -0.3j, 0.2 - 0.2j, -0.1 + 0.25j):
            ref = engine.matrix(beta)[:half, :half].T
            got = displaced_levels(beta, tuple(range(half)), half)
            assert np.max(np.abs(got - ref)) < 1e-14

    # 1530 = 170 * 9: the nine mode displacements of a full shor9 chunk;
    # 682 rows: a full binomial_n3 chunk
    @pytest.mark.parametrize("shape, levels, dim", [
        pytest.param((170, 9), (0, 1), 14, id="shor9-1530"),
        pytest.param((682,), (0, 3, 6, 9), 24, id="binomial-682")])
    def test_batched_is_the_per_row_call(self, shape, levels, dim):
        """An array beta gives each element bit for bit as the scalar call
        on its beta, so a chunk's rows do not depend on each other."""
        rng = np.random.default_rng(len(shape))
        beta = rng.normal(0.0, 0.4, shape) + 1j * rng.normal(0.0, 0.4, shape)
        beta.flat[:3] = (0.0, 0.3, -0.2j)
        got = displaced_levels(beta, levels, dim)
        assert got.shape == shape + (len(levels), dim)
        for idx in np.ndindex(shape):
            assert got[idx].tobytes() == displaced_levels(beta[idx], levels, dim).tobytes()


@settings(max_examples=25, deadline=None)
@given(bq=st.floats(-0.8, 0.8), bp=st.floats(-0.8, 0.8))
def test_engine_preserves_norm(bq, bp):
    engine = DisplacementEngine(24)
    vec = coherent_state(0.3, 23).amplitudes
    out = engine.apply(complex(bq, bp), vec)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-10)
