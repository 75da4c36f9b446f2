"""End-to-end acceptance gate.

One test per headline claim, each at its stated tolerance and runtime
budget, printing a single PASS line when it holds (run with -s to see
them; a FAIL is an ordinary assertion error).
"""

import itertools
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import cvqec
from cvqec.cli import main as cli_main
from cvqec.dvcodes import (binomial_code, encode,
                           logical_flip_probability_three_qubit, pauli_matrix,
                           recover, shor9_code, three_qubit_phase_code)
from cvqec.fock import DensityMatrix, PureState, annihilation, fidelity
from cvqec.montecarlo import (TrajectoryPlan, branch_decomposition_run,
                              estimate_qubit_var_p)
from cvqec.protocol import (exact_infidelity, infidelity_from_noise,
                            optimal_alpha_qubit, optimal_zeta,
                            optimize_qubit_alpha, optimize_qudit_alpha,
                            optimize_zeta, qudit_bound, run_qubit_p_scheme,
                            run_qudit_scheme, run_squeezed_scheme,
                            run_two_qubit_scheme, second_derivative_at_origin,
                            squeezing_db)
from oracles import finite_difference_curvature, numeric_qubit_alpha, numeric_zeta


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_acceptance_1_qubit_scheme_optimum():
    t0 = time.monotonic()
    for sigma in (0.05, 0.1, 0.3):
        alpha, var = optimize_qubit_alpha(sigma)
        numeric_alpha, numeric_var = numeric_qubit_alpha(sigma)
        assert alpha == pytest.approx(numeric_alpha, rel=1e-4)
        assert var == pytest.approx(numeric_var, abs=1e-8)
        assert var == pytest.approx((1 - math.exp(-1)) * sigma**2 / 2, abs=1e-8)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(1, f"qubit optimum at 1/(2 sqrt(2) sigma), 36.8% variance cut "
               f"({elapsed:.2f}s)")


def test_acceptance_2_squeezed_scheme_optimum():
    t0 = time.monotonic()
    sigma = 0.1
    zeta, total = optimize_zeta(sigma)
    numeric_zeta_opt, numeric_total = numeric_zeta(sigma)
    assert zeta == pytest.approx(numeric_zeta_opt, abs=1e-4)
    assert total == pytest.approx(numeric_total, abs=1e-6)
    assert total == pytest.approx(sigma**2 * math.sqrt(1 - math.exp(-1)), abs=1e-6)
    noise = run_squeezed_scheme(sigma, optimal_alpha_qubit(
        sigma * math.exp(-2 * optimal_zeta())), optimal_zeta())
    assert noise.var_q == pytest.approx(noise.var_p, abs=1e-8)
    assert squeezing_db(optimal_zeta()) == pytest.approx(0.996, abs=1e-3)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report(2, f"squeezing optimum zeta={zeta:.6f} (0.996 dB), total "
               f"variance 0.795 sigma^2 with balanced quadratures ({elapsed:.2f}s)")


def test_acceptance_3_two_qubit_scheme():
    for sigma in (0.05, 0.1, 0.3):
        alpha = optimal_alpha_qubit(sigma)
        noise = run_two_qubit_scheme(sigma, alpha, alpha)
        target = (1 - math.exp(-1)) * sigma**2 / 2
        assert noise.var_q == pytest.approx(target, abs=1e-8)
        assert noise.var_p == pytest.approx(target, abs=1e-8)
    _report(3, "two-ancilla scheme corrects both quadratures to "
               "(1 - 1/e) sigma^2 / 2")


def test_acceptance_4_qudit_dimension_sweep():
    t0 = time.monotonic()
    sigma = 0.1
    prev = None
    for d in range(2, 16):
        _, var = optimize_qudit_alpha(sigma, d)
        if d == 2:
            assert var == pytest.approx((1 - math.exp(-1)) * sigma**2 / 2,
                                        abs=1e-9)
        if prev is not None:
            assert var <= prev
        prev = var
        if d >= 4:
            s = 5.0
            at_comb = run_qudit_scheme(sigma, math.pi / (s * sigma), d).var_p
            assert at_comb < qudit_bound(sigma, s, d)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(4, f"optimized qudit variance nonincreasing for d=2..15, below "
               f"sigma^2 s^2/(4d) at the comb spacing ({elapsed:.1f}s)")


def test_acceptance_5_monte_carlo_variance():
    t0 = time.monotonic()
    sigma = 0.1
    alpha = optimal_alpha_qubit(sigma)
    est = estimate_qubit_var_p(sigma, alpha, n_trajectories=10**5, root_seed=0)
    expect = run_qubit_p_scheme(sigma, alpha).var_p
    assert abs(est.mean - expect) < 3 * est.std_error
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(5, f"sampled corrected variance {est.mean:.3e} matches the closed "
               f"form {expect:.3e} within 3 standard errors ({elapsed:.1f}s)")


def test_acceptance_6_infidelity_expansion():
    for state, curvature in (("coherent", -2.0), ("fock1", -6.0)):
        assert second_derivative_at_origin(state) == curvature
        assert curvature == pytest.approx(finite_difference_curvature(state), abs=1e-5)
    for sigma, state in itertools.product((0.05, 0.1), ("coherent", "fock1")):
        alpha = optimal_alpha_qubit(sigma)
        noise = run_two_qubit_scheme(sigma, alpha, alpha)
        exact = exact_infidelity(state, noise)
        approx = infidelity_from_noise(state, noise)
        assert abs(exact - approx) <= 5 * sigma**4
    _report(6, "quadratic infidelity expansion accurate to 5 sigma^4 for "
               "coherent and single-boson inputs")


def test_acceptance_7_code_recovery():
    # any single-qubit Pauli on the nine-qubit code
    code = shor9_code()
    psi = encode(code, PureState(np.array([0.6, 0.8j]), leakage_budget=1.0))
    for pos in range(9):
        for ch in "XYZ":
            err = pauli_matrix("I" * pos + ch + "I" * (9 - pos - 1))
            v = err @ psi.amplitudes
            out, _ = recover(code, DensityMatrix(np.outer(v, v.conj())))
            assert fidelity(psi, out) == pytest.approx(1.0, abs=1e-10)
    # error-correction conditions and recovery for the binomial code
    bcode = binomial_code()
    a = annihilation(bcode.dim - 1)
    words = (bcode.logical_g, bcode.logical_e)
    for ek, el in itertools.product(
            [np.eye(bcode.dim, dtype=complex), a, a.conj().T], repeat=2):
        m = ek.conj().T @ el
        assert abs(words[0].conj() @ m @ words[0]
                   - words[1].conj() @ m @ words[1]) < 1e-10
        assert abs(words[0].conj() @ m @ words[1]) < 1e-10
    bpsi = encode(bcode, PureState(np.array([0.6, 0.8j]), leakage_budget=1.0))
    for op in (a, a.conj().T):
        v = op @ bpsi.amplitudes
        v /= np.linalg.norm(v)
        out, _ = recover(bcode, DensityMatrix(np.outer(v, v.conj())))
        assert fidelity(bpsi, out) == pytest.approx(1.0, abs=1e-9)
    # majority-vote logical flip probability, exact and sampled
    tcode = three_qubit_phase_code()
    plus_y = PureState(tcode.y_states()[0], leakage_budget=1.0)
    zs = [pauli_matrix("I" * j + "Z" + "I" * (2 - j)) for j in range(3)]
    rng = np.random.default_rng(7)
    for p in (0.02, 0.05, 0.1):
        m = plus_y.to_density().matrix
        for z in zs:
            m = (1 - p) * m + p * (z @ m @ z)
        out, _ = recover(tcode, DensityMatrix(m))
        expect = logical_flip_probability_three_qubit(p)
        assert 1.0 - fidelity(plus_y, out) == pytest.approx(expect, abs=1e-12)
        n, flips = 2000, 0
        for _ in range(n):
            amps = plus_y.amplitudes.copy()
            for z in zs:
                if rng.random() < p:
                    amps = z @ amps
            sampled, _ = recover(tcode, DensityMatrix(np.outer(amps, amps.conj())),
                                 mode="sample", rng=rng)
            flips += fidelity(plus_y, sampled) < 0.5
        stderr = math.sqrt(expect * (1 - expect) / n)
        assert abs(flips / n - expect) < 3 * stderr
    _report(7, "nine-qubit code fixes all 27 single Paulis, binomial code "
               "fixes loss and gain, majority vote fails at 3p^2 - 2p^3")


def test_acceptance_8_concatenated_sweeps():
    t0 = time.monotonic()
    sigma = 0.1
    zeta = optimal_zeta()
    common = dict(sigma=sigma, zeta=zeta, root_seed=11)

    # noiseless-ancilla endpoint against the exact squeezed-scheme value
    endpoint = branch_decomposition_run(
        TrajectoryPlan(ancilla="bare", p_phi=0.0, n_trajectories=20000, **common))
    alpha = endpoint.plan.effective_alpha
    exact = exact_infidelity("coherent", run_squeezed_scheme(sigma, alpha, zeta))
    assert abs(endpoint.infidelity.mean - exact) < 3 * endpoint.infidelity.std_error

    # encoding the ancilla beats the bare qubit once it dephases
    p_phi = 0.05
    bare = branch_decomposition_run(
        TrajectoryPlan(ancilla="bare", p_phi=p_phi, n_trajectories=20000, **common))
    coded = branch_decomposition_run(
        TrajectoryPlan(ancilla="three_qubit_phase", p_phi=p_phi,
                       n_trajectories=20000, **common))
    gap_err = math.hypot(bare.infidelity.std_error, coded.infidelity.std_error)
    assert coded.infidelity.mean < bare.infidelity.mean - gap_err

    # the nine-qubit bosonic ancilla is never worse than the binomial one
    for s in (0.1, 0.15, 0.2):
        shor = branch_decomposition_run(
            TrajectoryPlan(sigma=s, ancilla="shor9", zeta=zeta, root_seed=11,
                           n_trajectories=4000))
        binom = branch_decomposition_run(
            TrajectoryPlan(sigma=s, ancilla="binomial_n3", zeta=zeta,
                           root_seed=11, n_trajectories=4000))
        err = math.hypot(shor.infidelity.std_error, binom.infidelity.std_error)
        assert shor.infidelity.mean <= binom.infidelity.mean + 3 * err

    # infidelity is independent of the input coherent amplitude
    small = branch_decomposition_run(
        TrajectoryPlan(n_trajectories=2000, coherent_amplitude=0.0, **common))
    large = branch_decomposition_run(
        TrajectoryPlan(n_trajectories=2000, coherent_amplitude=1.5, **common))
    amp_err = max(math.hypot(small.infidelity.std_error,
                             large.infidelity.std_error), 1e-12)
    assert abs(small.infidelity.mean - large.infidelity.mean) < 3 * amp_err

    elapsed = time.monotonic() - t0
    assert elapsed < 1800.0
    _report(8, f"concatenated sweeps: exact endpoint, encoded ancilla wins "
               f"under dephasing, nine-qubit <= binomial, amplitude "
               f"independent ({elapsed:.0f}s)")


def test_acceptance_9_cli_determinism(tmp_path):
    argv = ["fig4", "--code", "three_qubit", "--trajectories", "100",
            "--points", "0.0", "0.05", "--seed", "5", "--out", str(tmp_path)]
    names = ("fig4_three_qubit_coherent_pphi.csv",
             "fig4_three_qubit_coherent_pphi_config.json")
    assert cli_main(argv) == 0
    first = [(tmp_path / n).read_bytes() for n in names]
    assert cli_main(argv) == 0
    assert [(tmp_path / n).read_bytes() for n in names] == first
    # fresh interpreters with OpenBLAS on one thread and on two
    src = str(Path(cvqec.__file__).resolve().parent.parent)
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        proc = subprocess.run([sys.executable, "-m", "cvqec.cli", *argv[:-1], str(out)],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src,
                                   "OPENBLAS_NUM_THREADS": threads}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert [(out / n).read_bytes() for n in names] == first
    _report(9, "command line output is byte-identical across reruns and "
               "thread counts")
