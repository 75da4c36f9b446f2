"""Error channels against their closed-form reductions: the displacement
channel and confinement oracles, and the confinement Kraus operators."""

import math

import numpy as np
import pytest

from cvqec.fock import (DensityMatrix, TruncationError, coherent_state,
                        fock_state)
from cvqec.montecarlo import confinement_kraus
from oracles import apply_displacement_channel, confine_single_boson


class TestDisplacementChannel:
    def test_vacuum_population_after_noise(self):
        # <0| E(|0><0|) |0> = integral G(bq) G(bp) e^{-|b|^2} = 1/(1+sigma^2)
        sigma = 0.2
        rho = fock_state(0, 19).to_density()
        out = apply_displacement_channel(rho, sigma)
        assert out.matrix[0, 0].real == pytest.approx(1 / (1 + sigma**2), abs=1e-10)

    def test_trace_and_hermiticity(self):
        rho = coherent_state(0.4, 13).to_density()
        out = apply_displacement_channel(rho, 0.2)
        assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(out.matrix - out.matrix.conj().T)) < 1e-12

    def test_headroom_guard(self):
        rho = fock_state(0, 4).to_density()
        with pytest.raises(TruncationError):
            apply_displacement_channel(rho, 0.5)

    def test_rejects_bad_sigma(self):
        rho = fock_state(0, 19).to_density()
        for sigma in (0.0, -0.1, math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                apply_displacement_channel(rho, sigma)


class TestConfinement:
    def test_kraus_completeness(self):
        ops = confinement_kraus(12)
        total = sum(k.conj().T @ k for k in ops)
        assert np.allclose(total, np.eye(12), atol=1e-14)

    def test_qubit_subspace_untouched(self):
        dim = 12
        psi = np.zeros(dim, dtype=complex)
        psi[0], psi[1] = 1 / math.sqrt(2), 1j / math.sqrt(2)
        rho = DensityMatrix(np.outer(psi, psi.conj()))
        out = confine_single_boson(rho)
        assert out.matrix[0, 1] == pytest.approx(-0.5j, abs=1e-14)

    def test_displacement_then_confinement_closed_form(self):
        # composed channel on a single-boson qubit:
        # rho -> rho/(1+s^2)^2 + s^2 (2+s^2)/(1+s^2)^2 * eta,
        # eta = (|0><0| + (1+s^2)|1><1|) / (2+s^2)
        sigma = 0.3
        dim = 28
        s2 = sigma**2
        eta = np.diag([1.0, 1 + s2]).astype(complex) / (2 + s2)
        p_keep = 1 / (1 + s2) ** 2
        p_err = s2 * (2 + s2) / (1 + s2) ** 2
        for qubit in (np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                      np.array([1.0, 1.0]) / math.sqrt(2),
                      np.array([1.0, 1.0j]) / math.sqrt(2)):
            big = np.zeros((dim, dim), dtype=complex)
            rho_in = np.outer(qubit, qubit.conj())
            big[:2, :2] = rho_in
            noisy = apply_displacement_channel(DensityMatrix(big), sigma)
            out = confine_single_boson(noisy)
            expect = p_keep * rho_in + p_err * eta
            assert np.max(np.abs(out.matrix - expect)) < 1e-12

    def test_requires_headroom(self):
        rho = fock_state(0, 3).to_density()
        with pytest.raises(ValueError):
            confine_single_boson(rho)
