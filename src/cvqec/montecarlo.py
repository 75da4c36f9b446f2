"""Seeded trajectory sampling for the concatenated correction circuits.

One trajectory: prepare |+>_L x |psi_cv>, logical conditional displacement,
sampled displacement error on the data mode (plus ancilla errors: dephasing
for qubit carriers, displacement and confinement for bosonic carriers),
syndrome recovery, inverse conditional displacement, logical +/-Y readout,
outcome-conditioned counter-displacement, fidelity with the input state.

Two joint-state representations share the same driver and therefore the
same random-number draw order: a branch decomposition (sum of a handful of
carrier x displaced-data product terms) and a dense carrier x mode tensor.
The branch path is the fast default; the dense path is the oracle.

Qubit-carrier Paulis (stabilizers, corrections, dephasing flips) are
applied as bit masks, a basis permutation idx -> idx ^ x times a phase,
with qubit 0 the most significant bit (dvcodes.PauliOp); the dense
dvcodes.pauli_matrix stays as their test oracle.  The confinement Kraus
operators of the nine-qubit carrier are applied as a level selection.
Both give the dense products bit for bit, since every dropped term is an
exact zero.

Reproducibility: trajectory i draws from a generator seeded with
SeedSequence([root_seed, i]), so estimates are independent of worker count
and chunking.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import dvcodes
from .channels import confinement_kraus
from .fock import DisplacementEngine, PureState, coherent_state, fock_state
from .gaussian import qubit_outcome_mean

__all__ = [
    "TrajectoryPlan",
    "EstimateWithError",
    "RunResult",
    "run_concatenated",
    "branch_decomposition_run",
    "estimate_qubit_var_p",
    "ANCILLA_KINDS",
]

ANCILLA_KINDS = ("perfect", "bare", "three_qubit_phase", "binomial_n3", "shor9")
_DEPHASING_KINDS = ("bare", "three_qubit_phase")
_BOSONIC_KINDS = ("binomial_n3", "shor9")
_SHOR_MODE_DIM = 14  # per-mode Fock levels while a single-boson qubit is displaced
_BINOMIAL_N_TRUNC = 23
_BRANCH_TOL = 1e-14


@dataclass(frozen=True)
class TrajectoryPlan:
    """Everything one concatenated run depends on.

    alpha defaults to the qubit optimum for the effective (squeezed)
    p-quadrature noise sigma * exp(-2 zeta).  Bosonic ancillas see the
    same displacement noise as the data mode unless ancilla_sigma says
    otherwise; dephasing ancillas flip with probability p_phi per
    physical qubit.
    """

    sigma: float
    ancilla: str = "perfect"
    p_phi: float = 0.0
    n_trajectories: int = 1000
    root_seed: int = 0
    zeta: float = 0.0
    alpha: float | None = None
    state_kind: str = "coherent"
    coherent_amplitude: complex = 0.0
    n_trunc: int | None = None
    ancilla_sigma: float | None = None

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if self.ancilla not in ANCILLA_KINDS:
            raise ValueError(f"unknown ancilla kind {self.ancilla!r}")
        if not 0.0 <= self.p_phi <= 0.5:
            raise ValueError(f"p_phi must lie in [0, 1/2], got {self.p_phi}")
        if self.p_phi > 0 and self.ancilla in _BOSONIC_KINDS:
            raise ValueError("p_phi is a dephasing rate; bosonic ancillas take "
                             "displacement noise (ancilla_sigma) instead")
        if self.n_trajectories < 1:
            raise ValueError("need at least one trajectory")
        if self.state_kind not in ("coherent", "fock1"):
            raise ValueError(f"unknown state kind {self.state_kind!r}")

    @property
    def effective_alpha(self) -> float:
        if self.alpha is not None:
            return self.alpha
        sigma_p = self.sigma * math.exp(-2.0 * self.zeta)
        return 1.0 / (2.0 * math.sqrt(2.0) * sigma_p)


@dataclass(frozen=True)
class EstimateWithError:
    mean: float
    std_error: float
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("estimate needs n >= 1")


@dataclass(frozen=True)
class RunResult:
    infidelity: EstimateWithError
    engine: str
    unrecoverable_count: int
    complement_count: int
    plan: TrajectoryPlan


class _Context:
    """Per-run precomputation shared (read-only) by all trajectories."""

    def __init__(self, plan: TrajectoryPlan):
        self.plan = plan
        self.kind = plan.ancilla
        self.sigma = plan.sigma
        self.zeta = plan.zeta
        self.p_phi = plan.p_phi
        self.alpha = plan.effective_alpha
        sigma_p = plan.sigma * math.exp(-2.0 * plan.zeta)
        self.outcome_mean = qubit_outcome_mean(sigma_p, self.alpha)
        self.anc_scale = (plan.ancilla_sigma if plan.ancilla_sigma is not None
                          else plan.sigma) / math.sqrt(2.0)

        amp = abs(plan.coherent_amplitude) if plan.state_kind == "coherent" else 1.0
        if plan.n_trunc is not None:
            n_trunc = plan.n_trunc
        else:
            peak = amp + self.alpha + 2.0
            n_trunc = int(peak * peak + 6.0 * peak + 12.0)
        if plan.state_kind == "coherent":
            self.psi0 = coherent_state(plan.coherent_amplitude, n_trunc).amplitudes
        else:
            self.psi0 = fock_state(1, n_trunc).amplitudes
        self.data_engine = DisplacementEngine(n_trunc + 1)

        # carrier description
        self.dephasing_ops: list[dvcodes.PauliOp] = []
        self.stabilizers: tuple = ()
        self.code_name = None
        self.binom_kraus = None
        self.n_modes = 0
        if self.kind in ("perfect", "bare"):
            g = np.array([1.0, 0.0], dtype=complex)
            e = np.array([0.0, 1.0], dtype=complex)
            if self.kind == "bare":
                self.dephasing_ops = [dvcodes.PauliOp("Z")]
        elif self.kind == "three_qubit_phase":
            code = dvcodes.three_qubit_phase_code()
            g, e = code.logical_g, code.logical_e
            self.code_name = code.name
            self.dephasing_ops = [dvcodes.PauliOp(dvcodes._pauli_string(3, j, "Z"))
                                  for j in range(3)]
            self.stabilizers = dvcodes.stabilizer_ops(code.name)
        elif self.kind == "shor9":
            code = dvcodes.shor9_code()
            g, e = code.logical_g, code.logical_e
            self.code_name = code.name
            self.stabilizers = dvcodes.stabilizer_ops(code.name)
            self.n_modes = 9
            self.mode_engine = DisplacementEngine(_SHOR_MODE_DIM)
            self.confine = confinement_kraus(_SHOR_MODE_DIM)
        else:  # binomial_n3
            code = dvcodes.binomial_code(_BINOMIAL_N_TRUNC)
            g, e = code.logical_g, code.logical_e
            self.anc_engine = DisplacementEngine(code.dim)
            kraus, primary, _ = dvcodes.binomial_recovery_kraus(_BINOMIAL_N_TRUNC)
            self.binom_kraus = [(k, k.conj().T @ k, p) for k, p in zip(kraus, primary)]
        self.g, self.e = g, e
        self.carrier_dim = len(g)
        self.yplus = (g + 1j * e) / math.sqrt(2.0)
        self.yminus = (g - 1j * e) / math.sqrt(2.0)


# --- joint-state representations --------------------------------------------


def _confine_levels(t: np.ndarray, outcome: int) -> np.ndarray:
    """Kraus operator ``outcome`` of confinement_kraus applied to axis 1 of
    t: outcome 0 keeps levels {0, 1}, outcome j >= 1 moves level j + 1 to
    |1> and leaves |0> empty."""
    if outcome == 0:
        return t[:, :2]
    out = np.zeros_like(t[:, :2])
    out[:, 1] = t[:, outcome + 1]
    return out


class _BranchState:
    """Sum of (carrier vector) x (data vector) product terms.

    The conditional displacement is the only operation that splits terms,
    and the split is three-way (g, e, codespace complement), so a
    trajectory never carries more than six terms.
    """

    def __init__(self, ctx: _Context):
        self.ctx = ctx
        self.c = [(ctx.g + ctx.e) / math.sqrt(2.0)]
        self.d = [ctx.psi0.copy()]
        self.local_dims = [2] * ctx.n_modes

    def _gram(self, vecs):
        m = np.stack(vecs)
        return m.conj() @ m.T

    def norm(self) -> float:
        return float(np.sum(self._gram(self.c) * self._gram(self.d)).real)

    def carrier_expect(self, op) -> float:
        c = np.stack(self.c)
        inner = c.conj() @ (op @ c.T)  # [i, j] = <c_i| op |c_j>
        return float(np.sum(inner * self._gram(self.d)).real)

    def apply_carrier(self, op):
        self.c = [op @ v for v in self.c]

    def project_stabilizer(self, stab, sign: int):
        self.c = [0.5 * (v + sign * (stab @ v)) for v in self.c]

    def displace_data(self, beta: complex):
        if beta == 0:
            return
        stacked = np.stack(self.d, axis=1)
        out = self.ctx.data_engine.apply(beta, stacked)
        self.d = [out[:, i] for i in range(out.shape[1])]

    def conditional_displace(self, alpha_g: complex, alpha_e: complex):
        g, e = self.ctx.g, self.ctx.e
        engine = self.ctx.data_engine
        new_c, new_d = [], []
        for cv, dv in zip(self.c, self.d):
            ag, ae = np.vdot(g, cv), np.vdot(e, cv)
            rest = cv - ag * g - ae * e
            dn = np.linalg.norm(dv)
            if abs(ag) * dn > _BRANCH_TOL:
                new_c.append(ag * g)
                new_d.append(engine.apply(alpha_g, dv))
            if abs(ae) * dn > _BRANCH_TOL:
                new_c.append(ae * e)
                new_d.append(engine.apply(alpha_e, dv))
            if np.linalg.norm(rest) * dn > _BRANCH_TOL:
                new_c.append(rest)
                new_d.append(dv)
        self.c, self.d = new_c, new_d

    def _mode_shape(self, m):
        dims = self.local_dims
        left = int(np.prod(dims[:m], initial=1))
        right = int(np.prod(dims[m + 1:], initial=1))
        return left, dims[m], right

    def apply_carrier_local(self, m: int, op):
        left, dloc, right = self._mode_shape(m)
        self.c = [np.einsum("xy,lyr->lxr", op, v.reshape(left, dloc, right)).reshape(-1)
                  for v in self.c]
        self.local_dims[m] = op.shape[0]

    def confine_mode(self, m: int, outcome: int):
        left, dloc, right = self._mode_shape(m)
        self.c = [_confine_levels(v.reshape(left, dloc, right), outcome).reshape(-1)
                  for v in self.c]
        self.local_dims[m] = 2

    def carrier_level_weights(self, m: int):
        left, dloc, right = self._mode_shape(m)
        t = np.stack([v.reshape(left, dloc, right) for v in self.c])
        return np.einsum("ilyr,jlyr,ij->y", t.conj(), t, self._gram(self.d)).real

    def measure_y(self, u: float) -> int:
        yp, ym = self.ctx.yplus, self.ctx.yminus
        a = np.array([np.vdot(yp, v) for v in self.c])
        b = np.array([np.vdot(ym, v) for v in self.c])
        gd = self._gram(self.d)
        nrm = self.norm()
        p_plus = float((a.conj() @ gd @ a).real) / nrm
        p_minus = float((b.conj() @ gd @ b).real) / nrm
        if u < p_plus:
            self.c = [ai * yp for ai in a]
            return +1
        if u < p_plus + p_minus:
            self.c = [bi * ym for bi in b]
            return -1
        self.c = [v - ai * yp - bi * ym for v, ai, bi in zip(self.c, a, b)]
        return 0

    def fidelity(self) -> float:
        o = np.array([np.vdot(self.ctx.psi0, dv) for dv in self.d])
        val = (o.conj() @ self._gram(self.c) @ o).real
        return float(val) / self.norm()


class _DenseState:
    """Full carrier x mode tensor; the slow reference representation."""

    def __init__(self, ctx: _Context):
        self.ctx = ctx
        plus = (ctx.g + ctx.e) / math.sqrt(2.0)
        self.psi = np.outer(plus, ctx.psi0)
        self.local_dims = [2] * ctx.n_modes

    def norm(self) -> float:
        return float(np.vdot(self.psi, self.psi).real)

    def carrier_expect(self, op) -> float:
        return float(np.vdot(self.psi, op @ self.psi).real)

    def apply_carrier(self, op):
        self.psi = op @ self.psi

    def project_stabilizer(self, stab, sign: int):
        self.psi = 0.5 * (self.psi + sign * (stab @ self.psi))

    def displace_data(self, beta: complex):
        if beta == 0:
            return
        self.psi = self.ctx.data_engine.apply(beta, self.psi.T).T

    def conditional_displace(self, alpha_g: complex, alpha_e: complex):
        g, e = self.ctx.g, self.ctx.e
        engine = self.ctx.data_engine
        vg = g.conj() @ self.psi
        ve = e.conj() @ self.psi
        rest = self.psi - np.outer(g, vg) - np.outer(e, ve)
        self.psi = (np.outer(g, engine.apply(alpha_g, vg))
                    + np.outer(e, engine.apply(alpha_e, ve)) + rest)

    def _mode_shape(self, m):
        dims = self.local_dims
        left = int(np.prod(dims[:m], initial=1))
        right = int(np.prod(dims[m + 1:], initial=1))
        return left, dims[m], right

    def apply_carrier_local(self, m: int, op):
        left, dloc, right = self._mode_shape(m)
        t = self.psi.reshape(left, dloc, right, -1)
        self.psi = np.einsum("xy,lyrd->lxrd", op, t).reshape(-1, self.psi.shape[1])
        self.local_dims[m] = op.shape[0]

    def confine_mode(self, m: int, outcome: int):
        left, dloc, right = self._mode_shape(m)
        t = self.psi.reshape(left, dloc, right, -1)
        self.psi = _confine_levels(t, outcome).reshape(-1, self.psi.shape[1])
        self.local_dims[m] = 2

    def carrier_level_weights(self, m: int):
        left, dloc, right = self._mode_shape(m)
        t = self.psi.reshape(left, dloc, right, -1)
        return np.einsum("lyrd,lyrd->y", t.conj(), t).real

    def measure_y(self, u: float) -> int:
        yp, ym = self.ctx.yplus, self.ctx.yminus
        vp = yp.conj() @ self.psi
        vm = ym.conj() @ self.psi
        nrm = self.norm()
        p_plus = float(np.vdot(vp, vp).real) / nrm
        p_minus = float(np.vdot(vm, vm).real) / nrm
        if u < p_plus:
            self.psi = np.outer(yp, vp)
            return +1
        if u < p_plus + p_minus:
            self.psi = np.outer(ym, vm)
            return -1
        self.psi = self.psi - np.outer(yp, vp) - np.outer(ym, vm)
        return 0

    def fidelity(self) -> float:
        w = self.psi @ self.ctx.psi0.conj()
        return float(np.vdot(w, w).real) / self.norm()


# --- trajectory driver -------------------------------------------------------


def _ancilla_errors(ctx, state, rng) -> None:
    kind = ctx.kind
    if kind in _DEPHASING_KINDS:
        for z in ctx.dephasing_ops:
            if rng.random() < ctx.p_phi:
                state.apply_carrier(z)
    elif kind == "binomial_n3":
        bq, bp = rng.normal(0.0, ctx.anc_scale, size=2)
        state.apply_carrier(ctx.anc_engine.matrix(complex(bq, bp)))
    elif kind == "shor9":
        # Each single-boson qubit is displaced in its own mode, then the
        # confinement map pumps it back to the {|0>, |1>} subspace.
        for m in range(9):
            bq, bp = rng.normal(0.0, ctx.anc_scale, size=2)
            disp = ctx.mode_engine.matrix(complex(bq, bp))
            state.apply_carrier_local(m, disp[:, :2])
            w = state.carrier_level_weights(m)
            cum = np.concatenate(([w[0] + w[1]], w[2:])).cumsum()
            idx = int(np.searchsorted(cum, rng.random() * cum[-1]))
            idx = min(idx, len(ctx.confine) - 1)
            state.confine_mode(m, idx)


def _recovery(ctx, state, rng) -> bool:
    """Sampled syndrome extraction and correction; True if the syndrome
    fell outside the lookup / correctable set."""
    kind = ctx.kind
    if kind in ("three_qubit_phase", "shor9"):
        syndrome = []
        for stab in ctx.stabilizers:
            nrm = state.norm()
            p_plus = 0.5 * (nrm + state.carrier_expect(stab)) / nrm
            bit = 0 if rng.random() < p_plus else 1
            state.project_stabilizer(stab, +1 if bit == 0 else -1)
            syndrome.append(bit)
        corr, _, guaranteed = dvcodes.correction_matrix(ctx.code_name, tuple(syndrome))
        if corr is None:
            return True
        state.apply_carrier(corr)
        return not guaranteed
    if kind == "binomial_n3":
        u = rng.random() * state.norm()
        acc = 0.0
        for k, kk, primary in ctx.binom_kraus:
            acc += state.carrier_expect(kk)
            if u <= acc:
                state.apply_carrier(k)
                return not primary
        k, _, primary = ctx.binom_kraus[-1]
        state.apply_carrier(k)
        return not primary
    return False


def _one_trajectory(ctx: _Context, state) -> tuple[float, bool, bool]:
    rng = state.rng
    scale = ctx.sigma / math.sqrt(2.0)
    bq, bp = rng.normal(0.0, scale, size=2)
    # In the frame where the conditional displacement acts, pre/post
    # squeezing turns the error D(beta) into D(beta') with the q part
    # amplified and the p part shrunk.
    beta = complex(bq * math.exp(2.0 * ctx.zeta), bp * math.exp(-2.0 * ctx.zeta))
    state.conditional_displace(-ctx.alpha, +ctx.alpha)
    state.displace_data(beta)
    _ancilla_errors(ctx, state, rng)
    unrecoverable = _recovery(ctx, state, rng)
    state.conditional_displace(+ctx.alpha, -ctx.alpha)
    outcome = state.measure_y(rng.random())
    state.displace_data(-1j * outcome * ctx.outcome_mean)
    fid = state.fidelity()
    return 1.0 - fid, unrecoverable, outcome == 0


def _worker_count() -> int:
    """CVQEC_THREADS clamped to [1, cpu count]; 1 when unset or invalid."""
    try:
        requested = int(os.environ.get("CVQEC_THREADS", "1"))
    except ValueError:
        return 1
    return min(max(requested, 1), os.cpu_count() or 1)


def _run(plan: TrajectoryPlan, state_cls, engine_name: str) -> RunResult:
    ctx = _Context(plan)
    n = plan.n_trajectories
    samples = np.empty(n)
    unrec = np.zeros(n, dtype=bool)
    compl = np.zeros(n, dtype=bool)

    def job(i: int):
        state = state_cls(ctx)
        state.rng = np.random.default_rng(np.random.SeedSequence([plan.root_seed, i]))
        samples[i], unrec[i], compl[i] = _one_trajectory(ctx, state)

    workers = _worker_count()
    if workers == 1:
        for i in range(n):
            job(i)
    else:
        # Trajectories are seeded by index, and each writes its own slot,
        # so results are independent of scheduling.
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(job, range(n)))
    std_error = float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    est = EstimateWithError(float(samples.mean()), std_error, n)
    return RunResult(est, engine_name, int(unrec.sum()), int(compl.sum()), plan)


def run_concatenated(plan: TrajectoryPlan) -> RunResult:
    """Direct tensor-product simulation; reference engine."""
    return _run(plan, _DenseState, "direct")


def branch_decomposition_run(plan: TrajectoryPlan) -> RunResult:
    """Branch-decomposition simulation; same distribution, much faster for
    large carriers."""
    return _run(plan, _BranchState, "branch")


def trajectory_fidelity(plan: TrajectoryPlan, index: int, engine: str = "branch") -> float:
    """Fidelity of a single trajectory; the two engines agree per index."""
    ctx = _Context(plan)
    state_cls = _BranchState if engine == "branch" else _DenseState
    state = state_cls(ctx)
    state.rng = np.random.default_rng(np.random.SeedSequence([plan.root_seed, index]))
    infid, _, _ = _one_trajectory(ctx, state)
    return 1.0 - infid


# --- bare-qubit variance estimator -------------------------------------------


def estimate_qubit_var_p(sigma: float, alpha: float, n_trajectories: int = 10**5,
                         root_seed: int = 0, engine: str = "analytic",
                         ) -> EstimateWithError:
    """Monte Carlo estimate of the corrected p-quadrature variance of the
    bare-qubit scheme.

    'analytic' samples the measurement outcome from the closed-form filter;
    'fock' evolves truncated Fock vectors through the conditional
    displacements and derives outcome probabilities from state overlaps.
    Both use the same draws, so outcomes coincide except on the
    measure-zero set where the probabilities differ by rounding.
    """
    if engine not in ("analytic", "fock"):
        raise ValueError(f"unknown engine {engine!r}")
    rng = np.random.default_rng(np.random.SeedSequence([root_seed]))
    bp = rng.normal(0.0, sigma / math.sqrt(2.0), size=n_trajectories)
    u = rng.random(n_trajectories)
    if engine == "analytic":
        p_plus = 0.5 * (1.0 + np.sin(4.0 * alpha * bp))
    else:
        p_plus = _fock_outcome_probabilities(alpha, bp)
    sign = np.where(u < p_plus, 1.0, -1.0)
    residual = bp - sign * qubit_outcome_mean(sigma, alpha)
    sq = residual * residual
    std_error = float(sq.std(ddof=1) / math.sqrt(n_trajectories)) if n_trajectories > 1 else 0.0
    return EstimateWithError(float(sq.mean()), std_error, n_trajectories)


def _fock_outcome_probabilities(alpha: float, bp: np.ndarray,
                                chunk: int = 8192) -> np.ndarray:
    """P(+Y) per trajectory from D(+-alpha) D(i b_p) D(-+alpha) |0>."""
    dim = int(alpha * alpha + 8.0 * alpha + 24.0)
    engine = DisplacementEngine(dim)
    lam, vx = engine._lam_x, engine._vx
    d_plus = engine.matrix(complex(alpha))
    d_minus = engine.matrix(complex(-alpha))
    vac = np.zeros(dim, dtype=complex)
    vac[0] = 1.0
    u_g = vx.conj().T @ (d_minus @ vac)
    u_e = vx.conj().T @ (d_plus @ vac)
    m_g = d_plus @ vx
    m_e = d_minus @ vx
    out = np.empty(len(bp))
    for start in range(0, len(bp), chunk):
        seg = bp[start:start + chunk]
        phases = np.exp(1j * lam[:, None] * seg[None, :])
        psi_g = m_g @ (phases * u_g[:, None])
        psi_e = m_e @ (phases * u_e[:, None])
        diff = psi_g - 1j * psi_e
        out[start:start + chunk] = 0.25 * np.sum(np.abs(diff) ** 2, axis=0)
    return out


def with_trajectories(plan: TrajectoryPlan, n: int) -> TrajectoryPlan:
    return replace(plan, n_trajectories=n)
