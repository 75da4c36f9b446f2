"""Seeded trajectory sampling for the concatenated correction circuits.

One trajectory: prepare |+>_L x |psi_cv>, logical conditional displacement,
sampled displacement error on the data mode (plus ancilla errors: dephasing
for qubit carriers, displacement and confinement for bosonic carriers),
syndrome recovery, inverse conditional displacement, logical +/-Y readout,
outcome-conditioned counter-displacement, fidelity with the input state.

Two joint-state representations follow the same circuit with the same
random numbers.  The fast one, _BranchState, is a sum of product terms
(carrier vector) x ph D(gamma)|psi0>.  Every operation on the data mode
is a displacement, and D(a) D(b) = exp(i Im(a b*)) D(a + b), so the data
factor of a term is a phase and a displacement, not a Fock vector: a
displacement beta maps gamma -> gamma + beta and ph -> ph exp(i Im(beta
gamma*)), and overlaps come from the closed form of <psi0|D(delta)|psi0>
(_Context.overlap).  No Fock cutoff touches the data mode.  The slow one,
_DenseState, holds one trajectory as a truncated carrier x Fock tensor and
is the per-trajectory oracle.

_BranchState runs a chunk of trajectories at once as arrays, each term's
carrier a sum of at most four products of block vectors (class docstring):
three 8-dim blocks for shor9, one, the carrier vector, for every other
kind.  Carrier expectations are quadratic forms on one block
(_BranchState._expect): the block's vectors against its environment, the
data Gram matrix times the overlaps on the other blocks, so no 512-dim
vector is formed.  An ancilla mode's displacement is exact below the
mode's dim: fock.displaced_levels gives <y|D(beta)|k> in closed form for
the few levels k the mode holds, so the cutoff bounds only the confinement
and recovery outcomes, and a shor9 mode's confinement needs only its 2x2
moment matrix and those columns.  fock.DisplacementEngine serves only the
dense oracle. The conditional displacement is the only operation that
splits terms.  The first acts on the known |+>_L x psi0, so a chunk starts
after it, in closed form (_BranchState).  At the second the carrier is
back in the code space (every recovery maps into it; the tests check this
on runs of every kind), so each term slot splits into a_t times its
codeword, and the chunk ends on a logical qubit, one amplitude a_t per
slot and the slot's codeword bit (_BranchState.logical): one two-outcome
+/-Y readout and one fidelity serve every ancilla kind.  Pruned terms are
exact zeros, and a slot that is empty in every row is dropped, so T never
exceeds four; the logical qubit's sums over slots add them elementwise in
slot order (_slot_sum), so an empty slot adds exact zeros and no row
depends on the other rows of its chunk.  Per-row decisions are vectorized
comparisons, and Kraus operators and Pauli corrections are applied once
per distinct choice in the chunk; the binomial syndrome probabilities come
from one projection onto the recovery basis
(dvcodes.binomial_recovery_basis).  A chunk holds _Carrier.chunk_size
trajectories, from 8192 for the two-dim carriers to 170 for shor9, sized
for speed (a shor9 chunk makes about 1200 Python calls, whatever its
size); no row moves with it.

Qubit-carrier Paulis (stabilizers, corrections, dephasing flips) are
applied as bit masks, a basis permutation idx -> idx ^ x times a phase,
with qubit 0 the most significant bit (dvcodes.PauliOp); the dense
dvcodes.pauli_matrix stays as their test oracle.  A stabilizer syndrome
is an int (dvcodes docstring), in the branch engine an int64 per row.

Reproducibility: trajectory i draws from the stream of
default_rng(SeedSequence([root_seed, i])), in a fixed order: the data
error normal(size=2); the ancilla errors (one uniform per dephasing Z;
for binomial_n3 a normal(size=2); for shor9, per mode, a normal(size=2)
and then a uniform); one uniform per stabilizer, or the binomial Kraus
uniform; the Y-measurement uniform.  The dense oracle draws them one at a
time from default_rng as its circuit runs.  The branch engine takes them
up front, the same numbers bit for bit, computed as arrays (_bulk_draws:
PCG64's LCG jumped ahead per output, O'Neill 2014, and numpy's ziggurat
fast path, Marsaglia & Tsang 2000, with numpy's tables in ziggurat.bin).
A trajectory with a normal off the fast path is redrawn from a generator
at its seeded state; root seeds or indices past 2**32, or a first
trajectory that disagrees with default_rng, draw every trajectory from
default_rng.  The numbers depend only on the root seed, the ancilla kind
and the index, so the points of one sweep, which differ in sigma or p_phi,
draw them once, and each row scales them by its own sigma: normal(0, s) is
0.0 + s * standard_normal bit for bit.  Per-index agreement of the engines
also checks the order.

A fig4 sweep runs in one pass (_sweep_rows).  A chunk reads every value of
a plan, the normal scale, p_phi, alpha and the +/-Y outcome mean, per row
(_rows), so it holds rows of several points.  At two points with the same
sigma, trajectory i is the same computation wherever its dephasing
uniforms give the same flip pattern, so the sweep runs each distinct
(sigma, index, flip pattern) row once and every point reads its rows from
them.  Chunks are cut from the distinct rows in order, and a row's value
does not move with its chunk's other rows (checked across chunk budgets,
from one-row chunks up, in the tests), so each point equals its own run
and, for every ancilla kind, a trajectory replayed alone
(trajectory_fidelity) equals its row bit for bit.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import groupby
from pathlib import Path

import numpy as np

from . import dvcodes, fock
from .fock import DisplacementEngine, coherent_state, fock_state
from .gaussian import qubit_outcome_mean
from .protocol import optimal_alpha_qubit

__all__ = [
    "TrajectoryPlan",
    "EstimateWithError",
    "RunResult",
    "run_concatenated",
    "branch_decomposition_run",
    "estimate_qubit_var_p",
    "confinement_kraus",
    "ANCILLA_KINDS",
]

ANCILLA_KINDS = ("perfect", "bare", "three_qubit_phase", "binomial_n3", "shor9")
_DEPHASING_KINDS = ("bare", "three_qubit_phase")
_BOSONIC_KINDS = ("binomial_n3", "shor9")
_SHOR_MODE_DIM = 14  # per-mode Fock levels while a single-boson qubit is displaced
_BRANCH_TOL = 1e-14
_CHUNK_BUDGET = 16384  # carrier amplitudes per term slot in one chunk
# <+Y|codeword> and <-Y|codeword> for the codeword bits 0 (g) and 1 (e)
_YPLUS_BRA = np.array([1.0, -1.0j]) / math.sqrt(2.0)
_YMINUS_BRA = _YPLUS_BRA.conj()


@dataclass(frozen=True)
class TrajectoryPlan:
    """Everything one concatenated run depends on.

    The conditional displacement alpha is the qubit optimum for the
    effective (squeezed) p-quadrature noise sigma * exp(-2 zeta).  Bosonic
    ancillas see the same displacement noise as the data mode; dephasing
    ancillas flip with probability p_phi per physical qubit.
    """

    sigma: float
    ancilla: str = "perfect"
    p_phi: float = 0.0
    n_trajectories: int = 1000
    root_seed: int = 0
    zeta: float = 0.0
    state_kind: str = "coherent"
    coherent_amplitude: complex = 0.0

    def __post_init__(self):
        for name in ("sigma", "zeta", "coherent_amplitude"):
            if not cmath.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if self.ancilla not in ANCILLA_KINDS:
            raise ValueError(f"unknown ancilla kind {self.ancilla!r}")
        if not 0.0 <= self.p_phi <= 0.5:
            raise ValueError(f"p_phi must lie in [0, 1/2], got {self.p_phi}")
        if self.p_phi > 0 and self.ancilla in _BOSONIC_KINDS:
            raise ValueError("p_phi is a dephasing rate; bosonic ancillas take "
                             "displacement noise instead")
        if self.n_trajectories < 1:
            raise ValueError("need at least one trajectory")
        if self.state_kind not in ("coherent", "fock1"):
            raise ValueError(f"unknown state kind {self.state_kind!r}")

    @property
    def effective_alpha(self) -> float:
        return optimal_alpha_qubit(self.sigma * math.exp(-2.0 * self.zeta))

    @property
    def outcome_mean(self) -> float:
        """The p shift that a +Y outcome heralds, which the run undoes."""
        return qubit_outcome_mean(self.sigma * math.exp(-2.0 * self.zeta), self.effective_alpha)


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
    plan: TrajectoryPlan

    @property
    def complement_count(self) -> int:
        """Always 0: the +/-Y readout of the logical qubit has two outcomes
        and no complement.  The fig4 CSV's complement column reads it."""
        return 0


class _Carrier:
    """The plan-independent part of a run: codewords, Paulis, stabilizers,
    Kraus operators and, as displaced, the Fock levels an ancilla mode
    holds (a single-boson qubit's two, or the binomial block's support)
    and its dim.  Built once per kind (_carrier) and shared read-only by
    every run."""

    def __init__(self, kind: str):
        self.kind = kind
        self.code_name = None
        self.binom_kraus = None
        self.n_modes = 0
        dephasing = ()
        if kind in ("perfect", "bare"):
            g = np.array([1.0, 0.0], dtype=complex)
            e = np.array([0.0, 1.0], dtype=complex)
            if kind == "bare":
                dephasing = ("Z",)
        elif kind == "three_qubit_phase":
            code = dvcodes.three_qubit_phase_code()
            g, e = code.logical_g, code.logical_e
            self.code_name = code.name
            dephasing = ("ZII", "IZI", "IIZ")
        elif kind == "shor9":
            code = dvcodes.shor9_code()
            g, e = code.logical_g, code.logical_e
            self.code_name = code.name
            self.n_modes = 9
            self.displaced = ((0, 1), _SHOR_MODE_DIM)
            self.confine = confinement_kraus(_SHOR_MODE_DIM)
        else:  # binomial_n3
            code = dvcodes.binomial_code()
            g, e = code.logical_g, code.logical_e
            self.displaced = (tuple(np.flatnonzero(np.abs(g) + np.abs(e)).tolist()), code.dim)
            kraus, primary, _ = dvcodes.binomial_recovery_kraus()
            self.binom_kraus = tuple((k, k.conj().T @ k, p) for k, p in zip(kraus, primary))
            self.binom_bras, owner = dvcodes.binomial_recovery_basis()
            self.binom_starts = np.searchsorted(owner, np.arange(len(kraus)))
        self.g, self.e = g, e
        self.carrier_dim = len(g)
        self.yplus = (g + 1j * e) / math.sqrt(2.0)
        self.yminus = (g - 1j * e) / math.sqrt(2.0)
        for vec in (self.g, self.e, self.yplus, self.yminus):
            vec.flags.writeable = False
        # the blocks of the batched engine (_BranchState): the shor9
        # codewords are g = scale b0 x b0 x b0 and e = scale b1 x b1 x b1;
        # every other carrier is one block, (g, e) at scale 1
        if kind == "shor9":
            self.blocks, self.n_blocks = dvcodes._shor9_blocks(), 3
            self.block_scale = 1.0 / (2.0 * math.sqrt(2.0))
        else:
            self.blocks, self.n_blocks, self.block_scale = np.stack((g, e)), 1, 1.0
        labels = dvcodes._STABILIZERS.get(self.code_name, ())
        self.stabilizers = tuple(map(dvcodes.PauliOp, labels))
        self.dephasing_ops = tuple(map(dvcodes.PauliOp, dephasing))
        self.block_stabilizers = tuple(_block_paulis(s, self.n_blocks) for s in labels)
        self.block_dephasing = tuple(_block_paulis(z, self.n_blocks) for z in dephasing)
        # a term slot holds 2**k products of the blocks, k the stabilizers
        # that span more than one block: each projection onto one doubles them
        k = sum(len(ops) > 1 for ops in self.block_stabilizers)
        self.chunk_size = max(1, _CHUNK_BUDGET // (2 ** k * self.n_blocks * self.blocks.shape[1]))
        # uniforms per trajectory: dephasing flips, confinement outcomes,
        # syndrome (stabilizer bits or the binomial Kraus choice), Y readout
        self.n_uniform = (len(dephasing) + self.n_modes
                          + (len(labels) or int(kind == "binomial_n3")) + 1)
        self.n_anc_normals = self.n_modes or int(kind == "binomial_n3")
        # a trajectory's numbers in draw order: True for a standard normal,
        # False for a uniform; runs of each, as (normal, count)
        self.normal_mask = np.array([True, True] + ([True, True, False] * self.n_modes
                                                    or [True, True] * self.n_anc_normals)
                                    + [False] * (self.n_uniform - self.n_modes))
        self.runs = [(normal, len(list(run))) for normal, run in groupby(self.normal_mask)]


@lru_cache(maxsize=len(ANCILLA_KINDS))
def _carrier(kind: str) -> _Carrier:
    return _Carrier(kind)


class _Context:
    """Per-run precomputation shared (read-only) by all trajectories.  A
    sweep's chunks, under its first plan's context, read what differs
    between its plans per row (_rows); only the dense oracle, one plan at a
    time, reads p_phi, alpha and the +/-Y outcome mean from plan and the
    normal scale sigma / sqrt(2) of its errors from anc_scale."""

    def __init__(self, plan: TrajectoryPlan):
        # the kind's shared carrier: g, e, stabilizers, chunk_size, ...
        vars(self).update(vars(_carrier(plan.ancilla)))
        self.plan = plan
        self.zeta = plan.zeta
        self.anc_scale = plan.sigma / math.sqrt(2.0)
        self.leakage = 0.0  # the most population moved past an ancilla mode's dim

    def overlap(self, delta: np.ndarray) -> np.ndarray:
        """<psi0| D(delta) |psi0>, elementwise and exact."""
        r2 = delta.real ** 2 + delta.imag ** 2
        if self.plan.state_kind == "fock1":
            return np.exp(-0.5 * r2) * (1.0 - r2)
        a0 = self.plan.coherent_amplitude
        return np.exp(-0.5 * r2 + 2j * (delta * np.conj(a0)).imag)

    # The truncated data mode exists only for the dense oracle.

    @cached_property
    def psi0(self) -> np.ndarray:
        plan = self.plan
        amp = abs(plan.coherent_amplitude) if plan.state_kind == "coherent" else 1.0
        # a logical failure of a bosonic carrier leaves the data mode
        # displaced by about 2 alpha
        reach = (2.0 if self.kind in _BOSONIC_KINDS else 1.0) * plan.effective_alpha
        peak = amp + reach + 2.0
        n_trunc = int(peak * peak + 6.0 * peak + 12.0)
        if plan.state_kind == "coherent":
            return coherent_state(plan.coherent_amplitude, n_trunc).amplitudes
        return fock_state(1, n_trunc).amplitudes

    @cached_property
    def data_engine(self) -> DisplacementEngine:
        return DisplacementEngine(len(self.psi0))

    @cached_property
    def anc_engine(self) -> DisplacementEngine:
        """At twice an ancilla mode's dim, so that its elements below that
        dim, the ones the dense oracle keeps, are exact to rounding."""
        return DisplacementEngine(2 * self.displaced[1])


# --- joint-state representations --------------------------------------------


def _pauli(op: dvcodes.PauliOp, a: np.ndarray) -> np.ndarray:
    """op on the last axis of a, bit for bit as ``op @ vector``."""
    return op.phase * (a if op.perm is None else a[..., op.perm])


@lru_cache(maxsize=None)
def _block_paulis(label: str, n_blocks: int) -> tuple:
    """A Pauli string as (block, PauliOp) pairs over its non-identity
    blocks, n_blocks equal runs of its qubits: block b of a nine-qubit
    string in three blocks holds qubits 3b, 3b+1, 3b+2."""
    w = len(label) // n_blocks
    return tuple((b, dvcodes.PauliOp(label[w * b:w * b + w])) for b in range(n_blocks)
                 if label[w * b:w * b + w] != "I" * w)


def confinement_kraus(dim: int) -> list[np.ndarray]:
    """Kraus operators (dim -> 2) confining a mode to the {|0>, |1>} subspace.

    The qubit subspace is untouched (single identity-like Kraus term, so
    0-1 coherence survives); each n >= 2 level is pumped incoherently to
    |1>.  Composed with the Gaussian displacement channel this reproduces
    the closed-form single-boson-qubit error channel.
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


def _slot_sum(x: np.ndarray) -> np.ndarray:
    """x summed over its last axis, the term slots, one slot at a time in
    slot order: an empty slot adds exact zeros, so a row's sum does not
    depend on how many rows or slots its chunk holds."""
    total = x[..., 0]
    for t in range(1, x.shape[-1]):
        total = total + x[..., t]
    return total


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
    """A chunk of n trajectories, each a sum of T product terms: term k of
    row r carries (carrier of slot k) x ph[r, k] D(gamma[r, k]) |psi0>,
    with gamma and ph of shape (n, T).  Pruned terms have ph = 0.

    The carrier of slot t of row r is sum_p coef[r, t, p] v[r, t, p, 0] x
    ... x v[r, t, p, B - 1]; coef has shape (n, T, P) and v shape (n, T, P,
    B, block_dim), over the kind's blocks (_Carrier.blocks).  shor9 has B =
    3 blocks of 8 dims, block b holding qubits 3b..3b+2, the first the most
    significant bit; every other kind has one block, the carrier vector.
    The Kronecker product of the blocks is the carrier vector.  The
    codewords are products, g = scale b0 x ... x b0 and e = scale b1 x ...
    x b1.  Mode displacement, confinement, the binomial displacement and
    Kraus step, and Paulis and stabilizers on one block act block by block;
    a projection (c + sign S c) / 2 onto a stabilizer that spans blocks
    doubles P, so P stays at most four.

    A chunk starts after the first conditional displacement of |+>_L x
    psi0, by alpha[r] in row r: slot 0 carries g / sqrt(2) and gamma =
    -alpha, slot 1 e / sqrt(2) and +alpha, each one product.  logical()
    ends it on the logical qubit: slot t of row r carries a[r, t] times
    codeword[t] (0 for g, 1 for e), a of shape (n, T); measure_y and
    fidelity read them.

    Carrier expectations are quadratic forms on one block b: its
    environment (_environment) weighs each pair of (slot, product) terms by
    their data overlap and their overlaps on the other blocks, so <c| S |c>
    = sum conj(v_b) . S_b (env @ v_b) (_expect); mode_weights and
    kraus_expects read the same env @ v_b.
    """

    def __init__(self, ctx: _Context, alpha: np.ndarray):
        self.ctx = ctx
        self.alpha = alpha
        self.gamma = np.stack((-alpha, alpha), axis=1).astype(complex)
        self.ph = np.ones((len(alpha), 2), dtype=complex)
        self.coef = np.full((len(alpha), 2, 1), ctx.block_scale / math.sqrt(2.0), dtype=complex)
        self.v = np.empty((len(alpha), 2, 1, ctx.n_blocks, ctx.blocks.shape[1]), dtype=complex)
        self.v[:, 0], self.v[:, 1] = ctx.blocks[0], ctx.blocks[1]
        self._gd = None
        self._env_block = None

    # --- inner products

    def data_gram(self) -> np.ndarray:
        """[r, i, j] = <d_i|d_j> = conj(ph_i) ph_j e^{-i Im(gamma_i gamma_j*)}
        <psi0|D(gamma_j - gamma_i)|psi0>."""
        if self._gd is None:
            gi, gj = self.gamma[:, :, None], self.gamma[:, None, :]
            self._gd = (self.ph.conj()[:, :, None] * self.ph[:, None, :]
                        * np.exp(-1j * (gi * gj.conj()).imag) * self.ctx.overlap(gj - gi))
        return self._gd

    def _product_blocks(self) -> np.ndarray:
        """v as [r, K, b, i] over the flattened (slot, product) index K."""
        n, t, p, n_blocks, dim = self.v.shape
        return self.v.reshape(n, t * p, n_blocks, dim)

    def _environment(self, b: int, ops=()) -> np.ndarray:
        """[r, K, L] = conj(coef_K) coef_L <d_t(K)|d_t(L)> times <v_jK| S_j
        |v_jL> for each block j other than b, S_j the PauliOp that ops pairs
        with block j, or the identity: <c| A S |c> = sum_KL env_KL <v_bK| A
        |v_bL> for an operator A on block b and the Pauli string S of ops.
        Kept while only block b changes, when S is the identity off b."""
        flips = {j: op for j, op in ops if j != b}
        if flips or self._env_block != b:
            n, t, p, n_blocks, _ = self.v.shape
            coef, d = self.coef.reshape(n, t * p), self.data_gram()
            env = coef.conj()[:, :, None] * d.repeat(p, axis=1).repeat(p, axis=2) * coef[:, None, :]
            for j in [(b + k) % n_blocks for k in range(1, n_blocks)]:
                v = self._product_blocks()[:, :, j]
                env = env * (v.conj() @ (_pauli(flips[j], v) if j in flips else v).swapaxes(1, 2))
            if flips:
                return env
            self._env, self._env_block = env, b
        return self._env

    def _changed(self, block: int | None = None):
        """Drop the cached environment unless only its own block changed."""
        if block is None or block != self._env_block:
            self._env_block = None

    def _expect(self, b: int, ops=()) -> np.ndarray:
        """<c| S |c> per row, S the Pauli string that ops gives as (block,
        PauliOp) pairs, or the identity: sum conj(v_b) . S_b (env @ v_b)."""
        v = self._product_blocks()[:, :, b]
        w, on_b = self._environment(b, ops) @ v, dict(ops).get(b)
        return np.sum(v.conj() * (w if on_b is None else _pauli(on_b, w)), axis=(1, 2)).real

    def norm(self) -> np.ndarray:
        return self._expect(0 if self._env_block is None else self._env_block)

    def displace_data(self, beta: np.ndarray):
        beta = beta[:, None]
        # numpy never elides an explicit ufunc call: ph x exp at every size
        self.ph = np.multiply(self.ph, np.exp(1j * (beta * self.gamma.conj()).imag))
        self.gamma = self.gamma + beta
        self._gd = self._env_block = None

    # --- the logical qubit

    def logical(self):
        """The second conditional displacement, +alpha on g and -alpha on e:
        each slot of the code-space carrier splits into a_t times g and e
        (<g|c_t> and <e|c_t> from block overlaps), new terms whose |a| |ph|
        is at most _BRANCH_TOL are pruned, slots pruned in every row
        dropped, and a (zero where pruned) and codeword set on the surviving
        slots."""
        n, t, p, n_blocks, dim = self.v.shape
        over = (self.v.reshape(-1, dim) @ self.ctx.blocks.conj().T).reshape(
            n, t, p, n_blocks, 2).prod(axis=3)
        a = (self.coef[..., None] * over).sum(axis=2) * self.ctx.block_scale
        a = np.concatenate((a[..., 0], a[..., 1]), axis=1)
        keep = np.abs(a) * np.tile(np.abs(self.ph), 2) > _BRANCH_TOL
        gamma = np.tile(self.gamma, 2)
        shift = np.repeat(np.stack((self.alpha, -self.alpha), axis=1), t, axis=1)
        ph = np.multiply(np.tile(self.ph, 2), np.exp(1j * (shift * gamma.conj()).imag))
        gamma = gamma + shift
        alive = keep.any(axis=0)
        keep = keep[:, alive]
        self.gamma = np.where(keep, gamma[:, alive], 0.0)
        self.ph = np.where(keep, ph[:, alive], 0.0)
        self._gd = None
        self.a, self.codeword = np.where(keep, a[:, alive], 0.0), np.repeat([0, 1], t)[alive]

    def _data_norm(self, a: np.ndarray) -> np.ndarray:
        """sum_ij conj(a_i) <d_i|d_j> a_j per row, for slot amplitudes a on
        one carrier state."""
        return _slot_sum(_slot_sum(a.conj()[:, :, None] * self.data_gram() * a[:, None, :])).real

    def measure_y(self, u: np.ndarray) -> np.ndarray:
        """The logical +/-Y readout with uniforms u: per row 1 for +Y, with
        probability N+ / (N+ + N-), else -1 for -Y.  N+/- is the data norm
        of the slot amplitudes a_t <+/-Y|codeword_t>, and a becomes those of
        the outcome, on the carrier state +Y or -Y."""
        plus, minus = self.a * _YPLUS_BRA[self.codeword], self.a * _YMINUS_BRA[self.codeword]
        n_plus, n_minus = self._data_norm(plus), self._data_norm(minus)
        outcome = np.where(u < n_plus / (n_plus + n_minus), 1, -1)
        self.a = np.where((outcome == 1)[:, None], plus, minus)
        return outcome

    def fidelity(self) -> np.ndarray:
        """|sum_t a_t <psi0|d_t>|^2 over the data norm of a, after
        measure_y."""
        o = _slot_sum(self.a * (self.ph * self.ctx.overlap(self.gamma)))
        return (o.real * o.real + o.imag * o.imag) / self._data_norm(self.a)

    # --- ancilla errors and recovery

    def mode_weights(self, m: int, disp: np.ndarray) -> np.ndarray:
        """[r, y]: weight of level y of shor9 mode m after that mode's two
        levels x are displaced into disp[r, x, y] = <y|D|x>.  Only the 2x2
        moment matrix M_xx' of the mode is formed, from its block and the
        block's environment; w_y = sum conj(D_yx) D_yx' M_xx'."""
        b, q = divmod(m, 3)
        n = len(self.v)
        v = self._product_blocks()[:, :, b]
        # [r, x, (product, qubits of the block before m, qubits after m)]
        split = (n, -1, 2 ** q, 2, 2 ** (2 - q))
        left = v.reshape(split).transpose(0, 3, 1, 2, 4).reshape(n, 2, -1)
        right = (self._environment(b) @ v).reshape(split).transpose(0, 3, 1, 2, 4)
        moments = left.conj() @ right.reshape(n, 2, -1).swapaxes(1, 2)
        return (disp.conj() * (moments @ disp)).sum(axis=1).real

    def confine_mode(self, m: int, disp: np.ndarray, outcome: np.ndarray):
        """Displace mode m as in mode_weights, then apply confinement Kraus
        outcome[r] (see _confine_levels); only the kept rows of D are used."""
        kraus = np.swapaxes(disp[:, :, :2], 1, 2).copy()  # [r, new level, x]
        moved = np.flatnonzero(outcome > 0)
        kraus[moved, 0] = 0.0
        kraus[moved, 1] = disp[moved, :, outcome[moved] + 1]
        b, q = divmod(m, 3)
        n, t, p = self.coef.shape
        v6 = self.v[:, :, :, b].reshape(n, t, p, 2 ** q, 2, 2 ** (2 - q))
        self.v[:, :, :, b] = np.einsum("nyx,ntpaxc->ntpayc", kraus, v6).reshape(n, t, p, 8)
        self._changed(b)

    def displace_mode(self, cols: np.ndarray):
        """D(beta[r]) on block 0 of row r, the binomial mode: sum_k v[..., n_k]
        cols[r, k], cols[r, k] = D(beta[r])|n_k>, elementwise in the order of
        the levels n_k of ctx.displaced.  Exact: as the carrier's first
        operation in _run_chunk it acts on the codewords, which lie on them."""
        self.v[:, :, :, 0] = reduce(np.add, (self.v[:, :, :, 0, n, None] * cols[:, None, None, k]
                                             for k, n in enumerate(self.ctx.displaced[0])))
        self._changed(0)

    def kraus_expects(self) -> np.ndarray:
        """[r, k] = <K_k^dag K_k> for each binomial recovery Kraus on block
        0: weighted squared overlaps with the recovery basis, summed over
        K_k's bras."""
        x = self._product_blocks()[:, :, 0] @ self.ctx.binom_bras.T
        w = np.sum(x.conj() * (self._environment(0) @ x), axis=1).real
        return np.add.reduceat(w, self.ctx.binom_starts, axis=1)

    def apply_kraus(self, kraus: np.ndarray, rows):
        self.v[rows, :, :, 0] = self.v[rows, :, :, 0] @ kraus.T
        self._changed(0)

    def stabilizer_plus_probability(self, ops) -> np.ndarray:
        """(1 + <S> / <c|c>) / 2 per row for the stabilizer S that ops gives
        as (block, PauliOp) pairs."""
        nrm = self.norm()
        return 0.5 * (nrm + self._expect(ops[0][0], ops)) / nrm

    def project_stabilizer(self, ops, sign: np.ndarray):
        """c -> (c + sign S c) / 2: in place on its block when S acts on one
        block, else by appending the S-flipped copy of each product, so P
        doubles."""
        if len(ops) == 1:
            (b, op), = ops
            vb = self.v[:, :, :, b]
            self.v[:, :, :, b] = 0.5 * (vb + sign[:, None, None, None] * _pauli(op, vb))
            self._changed(b)
            return
        flipped = self.v.copy()
        for b, op in ops:
            flipped[:, :, :, b] = _pauli(op, self.v[:, :, :, b])
        self.v = np.concatenate((self.v, flipped), axis=2)
        self.coef = 0.5 * np.concatenate((self.coef, sign[:, None, None] * self.coef), axis=2)
        self._changed()

    def apply_pauli(self, ops, rows):
        for b, op in ops:
            self.v[rows, :, :, b] = _pauli(op, self.v[rows, :, :, b])
        self._changed()


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
        self.psi = self.ctx.data_engine.apply(beta, self.psi)

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
        """+1 for +Y, with probability N+ / (N+ + N-), else -1 for -Y."""
        yp, ym = self.ctx.yplus, self.ctx.yminus
        vp = yp.conj() @ self.psi
        vm = ym.conj() @ self.psi
        n_plus, n_minus = np.vdot(vp, vp).real, np.vdot(vm, vm).real
        if u < n_plus / (n_plus + n_minus):
            self.psi = np.outer(yp, vp)
            return +1
        self.psi = np.outer(ym, vm)
        return -1

    def fidelity(self) -> float:
        w = self.psi @ self.ctx.psi0.conj()
        return float(np.vdot(w, w).real) / self.norm()


# --- batched trajectory driver ----------------------------------------------


def _rng(root_seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([root_seed, index]))


# numpy's SeedSequence hash constants (bit_generator.pyx) and PCG64's
# 128-bit LCG multiplier (pcg64.h)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_LOW32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)


def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """The first n + 1 values of a SeedSequence hash constant."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)


_HASH_A = _hash_consts(_INIT_A, _MULT_A, 16)  # 16 hashmix calls of the pool mix
_HASH_B = _hash_consts(_INIT_B, _MULT_B, 8)   # 8 words of generate_state


@lru_cache(maxsize=1)
def _ziggurat() -> tuple:
    """numpy's standard normal ziggurat tables (ziggurat_constants.h), read
    only: ki, 256 uint64 fast-path bounds, and wi, 256 float64 layer
    widths, stored in that order, little-endian, in ziggurat.bin."""
    raw = np.fromfile(Path(__file__).with_name("ziggurat.bin"), dtype="<u8")
    raw.flags.writeable = False
    return raw[:256], raw[256:].view("<f8")


def _split128(values) -> tuple:
    """Python ints mod 2**128 as a (hi, lo) pair of uint64 arrays, the form
    of the 128-bit integers below."""
    return (np.array([v >> 64 & (1 << 64) - 1 for v in values], dtype=np.uint64),
            np.array([v & (1 << 64) - 1 for v in values], dtype=np.uint64))


def _int128(x, r: int) -> int:
    return int(x[0][r]) << 64 | int(x[1][r])


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high words of the 128-bit products a b, from 32-bit limbs."""
    a0, a1, b0, b1 = a & _LOW32, a >> _U32, b & _LOW32, b >> _U32
    mid = a1 * b0 + (a0 * b0 >> _U32)
    low = a0 * b1 + (mid & _LOW32)
    return a1 * b1 + (mid >> _U32) + (low >> _U32)


def _mul128(x, y) -> tuple:
    """x y mod 2**128; uint64 products wrap mod 2**64."""
    return _mulhi(x[1], y[1]) + x[1] * y[0] + x[0] * y[1], x[1] * y[1]


def _add128(x, y) -> tuple:
    lo = x[1] + y[1]
    return x[0] + y[0] + (lo < y[1]), lo


@lru_cache(maxsize=None)
def _jumps(k: int) -> tuple:
    """(M^j, M^(j-1) + ... + M + 1) mod 2**128 for j = 1..k, M the PCG64
    multiplier: j LCG steps take s to M^j s + (M^(j-1) + ... + 1) inc."""
    powers = [_PCG_MULT ** j for j in range(1, k + 1)]
    return _split128(powers), _split128([(p - 1) // (_PCG_MULT - 1) for p in powers])


def _pcg64_states(root_seed: int, start: int, stop: int) -> tuple:
    """(state, inc) of PCG64(SeedSequence([root_seed, i])) for i in
    start..stop-1, for a root seed and indices in [0, 2**32); each is a
    (hi, lo) pair of uint64 arrays.

    SeedSequence's pool mix and generate_state(4, uint64) run for all
    indices at once in uint32 arithmetic; the hash constants do not depend
    on the data.  PCG64 then seeds with two steps of its LCG."""
    def hashmix(value, k):
        """hashmix calls k, k + 1, ... on the rows of value."""
        h = _HASH_A[k:k + len(value) + 1, None]
        value = (value ^ h[:-1]) * h[1:]
        return value ^ (value >> np.uint32(16))

    # the entropy words [root_seed, i], padded with zeros to the pool size 4
    pool = np.zeros((4, stop - start), dtype=np.uint32)
    pool[0] = root_seed
    pool[1] = np.arange(start, stop, dtype=np.uint64).astype(np.uint32)
    pool = hashmix(pool, 0)
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        value = (pool[dst] * np.uint32(_MIX_MULT_L)
                 - hashmix(pool[[src] * 3], 4 + 3 * src) * np.uint32(_MIX_MULT_R))
        pool[dst] = value ^ (value >> np.uint32(16))
    value = (np.tile(pool, (2, 1)) ^ _HASH_B[:-1, None]) * _HASH_B[1:, None]
    words = (value ^ (value >> np.uint32(16))).astype(np.uint64)
    # little-endian pairs of words: seed = (w[0], w[1]), inc = 2 (w[2], w[3]) + 1
    w = words[0::2] | words[1::2] << _U32
    inc = (w[2] << np.uint64(1) | w[3] >> np.uint64(63), w[3] << np.uint64(1) | np.uint64(1))
    return _add128(_mul128(_add128(inc, (w[0], w[1])), _jumps(1)[0]), inc), inc


def _draw_row(rng: np.random.Generator, runs, out: np.ndarray):
    """One trajectory's numbers from its generator, in draw order."""
    lo = 0
    for normal, count in runs:
        (rng.standard_normal if normal else rng.random)(out=out[lo:lo + count])
        lo += count


def _bulk_draws(root_seed: int, carrier: _Carrier, start: int, stop: int):
    """The numbers of trajectories start..stop-1 in draw order, shape (n,
    len(normal_mask)), for a root seed and indices in [0, 2**32); or None,
    with a RuntimeWarning, when the first row disagrees with _rng.

    Output j of a row's stream, r, is the XSL-RR output of its LCG state
    after j + 1 steps, one jump (_jumps) from its seeded state.  A uniform
    is (r >> 11) 2**-53.  A standard normal takes numpy's ziggurat fast
    path: idx = r & 0xff, sign bit 8 and rabs = r >> 9 & (2**52 - 1) give
    +-rabs wi[idx] when rabs < ki[idx].  Otherwise it takes further
    outputs, which moves the rest of the row, so a row with a normal off
    the fast path is redrawn from a generator at its seeded state."""
    mask, (ki, wi) = carrier.normal_mask, _ziggurat()
    state, inc = _pcg64_states(root_seed, start, stop)
    mult, add = _jumps(len(mask))
    hi, lo = _add128(_mul128([a[:, None] for a in state], mult),
                     _mul128([a[:, None] for a in inc], add))
    r, rot = hi ^ lo, hi >> np.uint64(58)
    r = r >> rot | r << (np.uint64(64) - rot & np.uint64(63))
    idx = r & np.uint64(0xFF)
    rabs = r >> np.uint64(9) & np.uint64((1 << 52) - 1)
    x = rabs * wi[idx]
    flat = np.where(mask, np.where(r & np.uint64(0x100), -x, x),
                    (r >> np.uint64(11)) * 2.0 ** -53)
    # the guard: the first row's seeded state and numbers, bit for bit; its
    # generator then redraws the rows with a normal off the fast path
    ref = _rng(root_seed, start)
    seeded = ref.bit_generator.state["state"] == {"state": _int128(state, 0),
                                                  "inc": _int128(inc, 0)}
    first = np.empty(len(mask))
    _draw_row(ref, carrier.runs, first)
    for row in np.flatnonzero((mask & (rabs >= ki[idx])).any(axis=1)).tolist():
        ref.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                   "state": {"state": _int128(state, row),
                                             "inc": _int128(inc, row)}}
        _draw_row(ref, carrier.runs, flat[row])
    if seeded and first.tobytes() == flat[0].tobytes():
        return flat
    warnings.warn("bulk PCG64 seeding and draws disagree with numpy's default_rng; "
                  "drawing each trajectory from default_rng instead",
                  RuntimeWarning, stacklevel=3)
    return None


def _standard_draws(root_seed: int, kind: str, start: int, stop: int):
    """Every random number of trajectories start..stop-1 before scaling, in
    the order _one_trajectory draws them: data standard normals (n, 2),
    ancilla standard normals (n, k, 2) and uniforms (n, n_uniform).  They
    depend only on the root seed, the ancilla kind and the indices; see
    _rows for the normals of a plan.  Past 2**32, or when _bulk_draws'
    guard fails, each row draws from _rng."""
    carrier = _carrier(kind)
    mask, n = carrier.normal_mask, stop - start
    flat = None
    if 0 <= root_seed < 2**32 and 0 <= start < stop <= 2**32:
        flat = _bulk_draws(root_seed, carrier, start, stop)
    if flat is None:
        flat = np.empty((n, len(mask)))
        for row in range(n):
            _draw_row(_rng(root_seed, start + row), carrier.runs, flat[row])
    normals = flat[:, mask]
    return normals[:, :2], normals[:, 2:].reshape(n, carrier.n_anc_normals, 2), flat[:, ~mask]


def _rows(plans: tuple, point: np.ndarray, data, anc, uni):
    """The arguments of _run_chunk after ctx for rows with these standard
    draws, row r a trajectory of plans[point[r]]: its draws scaled by the
    plan's normal scale s = sigma / sqrt(2), then the plan's p_phi, alpha
    and +Y outcome mean.  rng.normal(0.0, s) computes 0.0 + s *
    standard_normal, so the normals are bit for bit its numbers."""
    s, p_phi, alpha, mean = np.array([(p.sigma / math.sqrt(2.0), p.p_phi, p.effective_alpha,
                                       p.outcome_mean) for p in plans])[point].T
    return 0.0 + s[:, None] * data, 0.0 + s[:, None, None] * anc, uni, p_phi, alpha, mean


def _groups(keys: np.ndarray):
    """(key, rows) for each distinct entry of the int array keys, in
    increasing order."""
    uniq, inverse = np.unique(keys, return_inverse=True)
    for j, key in enumerate(uniq.tolist()):
        yield key, inverse == j


def _batch_ancilla_errors(ctx, state, anc, uniforms, p_phi) -> None:
    """p_phi holds one dephasing rate per row.  ctx.leakage takes the most
    population, 1 - sum_y |<y|D|k>|^2, an exact displacement moved past dim."""
    for z in ctx.block_dephasing:
        state.apply_pauli(z, next(uniforms) < p_phi)
    if ctx.kind in _BOSONIC_KINDS:
        # [r, mode, k, y] = <y|D(beta[r, mode])|levels[k]>
        disps = fock.displaced_levels(anc[..., 0] + 1j * anc[..., 1], *ctx.displaced)
        ctx.leakage = max(ctx.leakage, 1.0 - (disps * disps.conj()).real.sum(axis=-1).min())
    if ctx.kind == "binomial_n3":
        state.displace_mode(disps[:, 0])
    elif ctx.kind == "shor9":
        for m in range(ctx.n_modes):
            disp = disps[:, m]
            # cumulative weights of the outcomes: levels {0, 1}, then 2, 3, ...
            cum = state.mode_weights(m, disp).cumsum(axis=1)[:, 1:]
            below = cum < (next(uniforms) * cum[:, -1])[:, None]
            outcome = np.minimum(below.sum(axis=1), len(ctx.confine) - 1)
            state.confine_mode(m, disp, outcome)


def _batch_recovery(ctx, state, uniforms) -> np.ndarray:
    """Per-row flags: the syndrome fell outside the correctable set."""
    unrecoverable = np.zeros(len(state.gamma), dtype=bool)
    if ctx.block_stabilizers:
        syndrome = np.zeros(len(state.gamma), dtype=np.int64)
        for stab in ctx.block_stabilizers:
            bit = next(uniforms) >= state.stabilizer_plus_probability(stab)
            state.project_stabilizer(stab, 1 - 2 * bit)
            syndrome = syndrome << 1 | bit
        for s, rows in _groups(syndrome):
            _, label, guaranteed = dvcodes.correction_matrix(ctx.code_name, s)
            state.apply_pauli(_block_paulis(label, ctx.n_blocks), rows)
            unrecoverable[rows] = not guaranteed
    elif ctx.binom_kraus:
        u = next(uniforms) * state.norm()
        choice = dvcodes.kraus_choice(state.kraus_expects(), u)
        for k, rows in _groups(choice):
            kraus, _, primary = ctx.binom_kraus[k]
            state.apply_kraus(kraus, rows)
            unrecoverable[rows] = not primary
    return unrecoverable


def _run_chunk(ctx: _Context, data, anc, uni, p_phi, alpha, outcome_mean):
    """Infidelity and unrecoverable flag of the chunk of trajectories with
    these per-row arguments (_rows); the circuit of _one_trajectory, row by
    row.  Each row's values are those of a chunk that holds only that row."""
    uniforms = iter(uni.T)
    # the state after the first conditional displacement (_BranchState)
    state = _BranchState(ctx, alpha)
    # squeezing frame: see _one_trajectory
    beta = data[:, 0] * math.exp(2.0 * ctx.zeta) + 1j * (data[:, 1] * math.exp(-2.0 * ctx.zeta))
    state.displace_data(beta)
    _batch_ancilla_errors(ctx, state, anc, uniforms, p_phi)
    unrecoverable = _batch_recovery(ctx, state, uniforms)
    state.logical()
    outcome = state.measure_y(next(uniforms))
    state.displace_data(-1j * outcome * outcome_mean)
    return 1.0 - state.fidelity(), unrecoverable


@lru_cache(maxsize=1)
def _sweep_rows(plans: tuple):
    """Every distinct trajectory of the sweep over plans, which may differ
    only in sigma and p_phi, run once: (samples, unrecoverable) of the
    distinct rows, and [point, index] -> row.  A row is a trajectory index
    at one sigma with the flip pattern uni[:, :k] < p_phi of its k
    dephasing uniforms; it runs at the first point with that sigma and
    pattern, which flips the same Zs as every point that shares both, so
    each point's rows are its own run's."""
    shared = [{**vars(p), "sigma": None, "p_phi": None} for p in plans]
    if shared.count(shared[0]) < len(shared):
        raise ValueError("the plans of one sweep may differ only in sigma and p_phi")
    base = plans[0]
    ctx = _Context(base)
    n, k = base.n_trajectories, len(ctx.dephasing_ops)
    draws = _standard_draws(base.root_seed, base.ancilla, 0, n)
    # key[point, index]: (index + n * first point at its sigma) << k | flips
    sigmas = [p.sigma for p in plans]
    level = np.array([sigmas.index(s) for s in sigmas])[:, None]
    flips = draws[2][:, :k] < np.array([p.p_phi for p in plans])[:, None, None]
    keys = (level * n + np.arange(n)) << k | flips @ (1 << np.arange(k))
    uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    rows, size = (uniq >> k) % n, ctx.chunk_size
    args = _rows(plans, first // n, *(a[rows] for a in draws))
    parts = [_run_chunk(ctx, *(a[lo:lo + size] for a in args))
             for lo in range(0, len(rows), size)]
    if ctx.leakage > fock.LEAKAGE_BUDGET:  # one warning per sweep, on stderr
        warnings.warn(f"ancilla-mode displacements moved {ctx.leakage:.3g} of a level's "
                      "population past the Fock cutoff", fock.TruncationWarning, stacklevel=3)
    return tuple(np.concatenate(p) for p in zip(*parts)), inverse.reshape(len(plans), n)


# --- per-trajectory driver of the dense oracle ------------------------------


def _ancilla_errors(ctx, state, rng) -> None:
    kind = ctx.kind
    if kind in _DEPHASING_KINDS:
        for z in ctx.dephasing_ops:
            if rng.random() < ctx.plan.p_phi:
                state.apply_carrier(z)
    elif kind == "binomial_n3":
        bq, bp = rng.normal(0.0, ctx.anc_scale, size=2)
        dim = ctx.carrier_dim
        state.apply_carrier(ctx.anc_engine.matrix(complex(bq, bp))[:dim, :dim])
    elif kind == "shor9":
        # Each single-boson qubit is displaced in its own mode, then the
        # confinement map pumps it back to the {|0>, |1>} subspace.
        for m in range(9):
            bq, bp = rng.normal(0.0, ctx.anc_scale, size=2)
            disp = ctx.anc_engine.matrix(complex(bq, bp))
            state.apply_carrier_local(m, disp[:_SHOR_MODE_DIM, :2])
            w = state.carrier_level_weights(m)
            cum = np.concatenate(([w[0] + w[1]], w[2:])).cumsum()
            idx = int(np.searchsorted(cum, rng.random() * cum[-1]))
            idx = min(idx, len(ctx.confine) - 1)
            state.confine_mode(m, idx)


def _recovery(ctx, state, rng) -> bool:
    """Sampled syndrome extraction and correction; True if the syndrome
    fell outside the correctable set."""
    kind = ctx.kind
    if kind in ("three_qubit_phase", "shor9"):
        syndrome = 0
        for stab in ctx.stabilizers:
            nrm = state.norm()
            p_plus = 0.5 * (nrm + state.carrier_expect(stab)) / nrm
            bit = 0 if rng.random() < p_plus else 1
            state.project_stabilizer(stab, +1 if bit == 0 else -1)
            syndrome = syndrome << 1 | bit
        corr, _, guaranteed = dvcodes.correction_matrix(ctx.code_name, syndrome)
        state.apply_carrier(corr)
        return not guaranteed
    if kind == "binomial_n3":
        u = rng.random() * state.norm()
        expect = [state.carrier_expect(kk) for _, kk, _ in ctx.binom_kraus]
        k, _, primary = ctx.binom_kraus[dvcodes.kraus_choice(expect, u)]
        state.apply_carrier(k)
        return not primary
    return False


def _one_trajectory(ctx: _Context, state, rng) -> tuple[float, bool]:
    alpha = ctx.plan.effective_alpha
    bq, bp = rng.normal(0.0, ctx.anc_scale, size=2)
    # In the frame where the conditional displacement acts, pre/post
    # squeezing turns the error D(beta) into D(beta') with the q part
    # amplified and the p part shrunk.
    beta = complex(bq * math.exp(2.0 * ctx.zeta), bp * math.exp(-2.0 * ctx.zeta))
    state.conditional_displace(-alpha, +alpha)
    state.displace_data(beta)
    _ancilla_errors(ctx, state, rng)
    unrecoverable = _recovery(ctx, state, rng)
    state.conditional_displace(+alpha, -alpha)
    outcome = state.measure_y(rng.random())
    state.displace_data(-1j * outcome * ctx.plan.outcome_mean)
    return 1.0 - state.fidelity(), unrecoverable


def _result(plan, samples, unrecoverable, engine_name) -> RunResult:
    n = plan.n_trajectories
    std_error = float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    est = EstimateWithError(float(samples.mean()), std_error, n)
    return RunResult(est, engine_name, int(unrecoverable.sum()), plan)


def run_concatenated(plan: TrajectoryPlan) -> RunResult:
    """Direct tensor-product simulation, one trajectory at a time; reference
    engine."""
    ctx = _Context(plan)
    parts = [_one_trajectory(ctx, _DenseState(ctx), _rng(plan.root_seed, i))
             for i in range(plan.n_trajectories)]
    samples, unrecoverable = (np.array(p) for p in zip(*parts))
    return _result(plan, samples, unrecoverable, "direct")


def branch_decomposition_run(plan: TrajectoryPlan, sweep: tuple = ()) -> RunResult:
    """Batched branch-decomposition simulation; same trajectories as the
    reference engine, without a Fock cutoff on the data mode.

    sweep holds the plans of the sweep that plan is one of; they may
    differ only in sigma and p_phi.  The first call of a sweep runs each
    of its distinct trajectories once (_sweep_rows), and every call takes
    its own point's rows from them.  The result is plan's own run, bit for
    bit."""
    sweep = sweep or (plan,)
    (samples, unrecoverable), inverse = _sweep_rows(sweep)
    pick = inverse[sweep.index(plan)]
    return _result(plan, samples[pick], unrecoverable[pick], "branch")


def trajectory_fidelity(plan: TrajectoryPlan, index: int, engine: str = "branch") -> float:
    """Fidelity of a single trajectory from the "branch" or the "dense"
    engine; the two agree per index."""
    if engine not in ("branch", "dense"):
        raise ValueError(f"unknown engine {engine!r}")
    ctx = _Context(plan)
    if engine == "branch":
        draws = _standard_draws(plan.root_seed, plan.ancilla, index, index + 1)
        infid = _run_chunk(ctx, *_rows((plan,), np.zeros(1, dtype=int), *draws))[0][0]
    else:
        infid = _one_trajectory(ctx, _DenseState(ctx), _rng(plan.root_seed, index))[0]
    return 1.0 - float(infid)


# --- bare-qubit variance estimator -------------------------------------------


def estimate_qubit_var_p(sigma: float, alpha: float, n_trajectories: int = 10**5,
                         root_seed: int = 0) -> EstimateWithError:
    """Monte Carlo estimate of the corrected p-quadrature variance of the
    bare-qubit scheme, sampling the measurement outcome from the
    closed-form filter."""
    rng = np.random.default_rng(np.random.SeedSequence([root_seed]))
    bp = rng.normal(0.0, sigma / math.sqrt(2.0), size=n_trajectories)
    u = rng.random(n_trajectories)
    p_plus = 0.5 * (1.0 + np.sin(4.0 * alpha * bp))
    sign = np.where(u < p_plus, 1.0, -1.0)
    residual = bp - sign * qubit_outcome_mean(sigma, alpha)
    sq = residual * residual
    std_error = float(sq.std(ddof=1) / math.sqrt(n_trajectories)) if n_trajectories > 1 else 0.0
    return EstimateWithError(float(sq.mean()), std_error, n_trajectories)
