"""Untimed micro-probes of single layers, run untraced in the traced run.

Each probe repeats a small fixed piece of work and reports the median
over repeats.  The engine probe runs the same plan through the branch
engine (``branch_decomposition_run``, what the CLI uses) and the dense
reference (``run_concatenated``), which gives the per-kind
branch-versus-dense table.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from workloads import SIGMA

REPEATS = 3
# (kind, p_phi, branch trajectories, dense trajectories): the kinds and
# dephasing rate of the engine table in the project roadmap.
ENGINE_PLANS = (
    ("perfect", 0.0, 200, 200),
    ("bare", 0.05, 200, 200),
    ("three_qubit_phase", 0.05, 200, 200),
    ("binomial_n3", 0.0, 100, 60),
    ("shor9", 0.0, 16, 3),
)
DATA_DIM = 70        # data-mode dimension of fig4's default coherent state
MOMENT_ALPHA = 10.0  # alpha * sigma = 1 at d = 15: the adaptive branch


def _median_time(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def engine_ms_per_traj(seed: int) -> dict[str, tuple[float, float]]:
    from cvqec import montecarlo, protocol

    zeta = protocol.optimal_zeta()
    out = {}
    for kind, p_phi, n_branch, n_dense in ENGINE_PLANS:
        def plan(n):
            return montecarlo.TrajectoryPlan(sigma=SIGMA, ancilla=kind, p_phi=p_phi,
                                             zeta=zeta, n_trajectories=n,
                                             root_seed=seed)
        branch = _median_time(lambda: montecarlo.branch_decomposition_run(plan(n_branch)))
        dense = _median_time(lambda: montecarlo.run_concatenated(plan(n_dense)))
        out[kind] = (1e3 * branch / n_branch, 1e3 * dense / n_dense)
    return out


def rng_setup_us(seed: int, n: int = 2000) -> float:
    def make():
        for i in range(n):
            np.random.default_rng(np.random.SeedSequence([seed, i]))
    return 1e6 * _median_time(make, 5) / n


def apply_us(seed: int, n: int = 2000) -> float:
    from cvqec.fock import DisplacementEngine, coherent_state

    engine = DisplacementEngine(DATA_DIM)
    vec = coherent_state(0.0, DATA_DIM - 1).amplitudes
    rng = np.random.default_rng(seed)
    betas = [complex(*rng.normal(0.0, SIGMA, 2)) for _ in range(n)]

    def run():
        for b in betas:
            engine.apply(b, vec)
    return 1e6 * _median_time(run, 5) / n


def stabilizer_us(seed: int, n: int = 200) -> float:
    """One expectation value plus one projection on the nine-qubit carrier."""
    from cvqec import dvcodes

    stab = dvcodes.stabilizer_matrices("shor9")[-1]
    rng = np.random.default_rng(seed)
    v = rng.normal(size=512) + 1j * rng.normal(size=512)
    v /= np.linalg.norm(v)

    def run():
        for _ in range(n):
            sv = stab @ v
            float(np.vdot(v, sv).real)
            0.5 * (v + sv)
    return 1e6 * _median_time(run, 5) / n


def moment_ms(repeats: int = 5) -> float:
    from cvqec.gaussian import qudit_filtered_moments

    return 1e3 * _median_time(lambda: qudit_filtered_moments(SIGMA, MOMENT_ALPHA, 15, 0),
                              repeats)


def run_all(seed: int) -> dict[str, tuple[float, str]]:
    m = {}
    for kind, (branch, dense) in engine_ms_per_traj(seed).items():
        m[f"montecarlo.ms_per_traj.{kind}"] = (branch, "ms")
        m[f"montecarlo.dense_ms_per_traj.{kind}"] = (dense, "ms")
    m["montecarlo.rng_setup_us"] = (rng_setup_us(seed), "us")
    m[f"fock.apply_us.d{DATA_DIM}"] = (apply_us(seed), "us")
    m["dvcodes.stab_us.shor9"] = (stabilizer_us(seed), "us")
    m["gaussian.moment_ms.d15"] = (moment_ms(), "ms")
    return m
