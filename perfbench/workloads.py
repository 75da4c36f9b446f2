"""Workload definitions: the cvqec argv that each timed round runs.

Every round of a workload runs the same argv list, so the rounds of one
run do identical work and their outputs must match byte for byte.  The
seed reaches the program only as the fig4 ``--seed`` argument.

Every workload runs with BLAS pinned to one thread and CVQEC_THREADS
unset (one trajectory thread).  On a 2-vCPU machine, BLAS at its default
of one thread per core spun on the second core and made the run-to-run
spread of the Monte Carlo workloads about 1.7 times larger.
"""

from __future__ import annotations

SIGMA = 0.1          # noise strength of every command (the CLI default)
FIG3_DMAX = 9        # d = 8 and 9 take the adaptive-quadrature path
BLAS_THREADS = 1


STATES = (["--state", "coherent"],
          ["--state", "coherent", "--amplitude", "1.5"],
          ["--state", "fock1"])


def _mc_dephasing(seed: int) -> list[list[str]]:
    return [["fig4", "--code", code, *state, "--sweep", "pphi",
             "--trajectories", "160", "--seed", str(seed)]
            for code in ("none", "three_qubit") for state in STATES]


def _mc_bosonic(seed: int) -> list[list[str]]:
    points = ["--points", "0.1", "0.15", "0.2"]
    return [["fig4", "--code", "binomial", "--sweep", "sigma", *points,
             "--trajectories", "400", "--seed", str(seed)],
            ["fig4", "--code", "shor", "--sweep", "sigma", *points,
             "--trajectories", "50", "--seed", str(seed)]]


def _analytic(seed: int) -> list[list[str]]:
    sigma = ["--sigma", str(SIGMA)]
    return [["fig2", *sigma],
            ["fig3", *sigma, "--dmax", str(FIG3_DMAX)],
            ["optimize", "--scheme", "qubit_p", *sigma],
            ["optimize", "--scheme", "two_qubit", *sigma],
            ["optimize", "--scheme", "squeezed", *sigma],
            ["optimize", "--scheme", "qudit", "--d", "8", *sigma],
            # Monte Carlo confirmation of the squeezed optimum (the ideal,
            # undephased qubit ancilla at the closed-form zeta) for each
            # data state; these are the only source of this workload's
            # traj_per_s, and three commands per round steady it.
            *(["fig4", "--code", "none", *state, "--points", "0", *sigma,
               "--trajectories", "800", "--seed", str(seed)] for state in STATES)]


WORKLOADS = {
    "mc_dephasing": _mc_dephasing,
    "mc_bosonic": _mc_bosonic,
    "analytic": _analytic,
}

# One small command of each kind, run once, traced, at the end of every
# traced run so that every layer reports nonzero work on every workload.
COVERAGE = (
    ["fig2", "--sigma", str(SIGMA)],
    ["fig3", "--sigma", str(SIGMA), "--dmax", "3"],
    ["optimize", "--scheme", "squeezed", "--sigma", str(SIGMA)],
    ["fig4", "--code", "three_qubit", "--points", "0.2",
     "--trajectories", "20", "--seed", "0"],
    ["fig4", "--code", "binomial", "--sweep", "sigma", "--points", "0.2",
     "--trajectories", "10", "--seed", "0"],
    ["fig4", "--code", "shor", "--sweep", "sigma", "--points", "0.2",
     "--trajectories", "4", "--seed", "0"],
)
