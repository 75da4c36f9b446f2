"""Simulation and optimization toolkit for ancilla-assisted correction of
random displacement errors on a bosonic mode: qubit, squeezed, qudit and
code-concatenated protocols, with closed-form, quadrature and Monte Carlo
evaluation paths."""

from .channels import (apply_displacement_channel, confine_single_boson,
                       confinement_kraus)
from .dvcodes import (CodeSpec, SyndromeResult, binomial_code, encode,
                      logical_flip_probability_three_qubit, recover,
                      shor9_code, three_qubit_phase_code)
from .fock import (DensityMatrix, DisplacementEngine, PureState,
                   TruncationError, TruncationWarning, coherent_state,
                   displacement_operator, fidelity, fock_state, overlap_f)
from .gaussian import (FilteredMoments, IntegrationError, gaussian_pdf,
                       integrate, qubit_filtered_moments, qubit_outcome_mean,
                       qudit_filter, qudit_filtered_moments)
from .montecarlo import (EstimateWithError, RunResult, TrajectoryPlan,
                         branch_decomposition_run, estimate_qubit_var_p,
                         run_concatenated)
from .optimize import minimize_scalar
from .protocol import (CorrectedNoise, OutcomeBranch, QuadratureNoise,
                       exact_infidelity, infidelity_from_noise, optimal_alpha_qubit,
                       optimal_zeta, optimize_qubit_alpha,
                       optimize_qudit_alpha, optimize_zeta, qudit_bound,
                       run_qubit_p_scheme, run_qudit_scheme,
                       run_squeezed_scheme, run_two_qubit_scheme,
                       run_uncorrected, second_derivative_at_origin,
                       squeezing_db)

__version__ = "0.1.0"
