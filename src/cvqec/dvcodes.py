"""DV ancilla codes: 3-qubit phase-flip, 9-qubit Shor, and the binomial
bosonic code, with encoding and syndrome recovery.

Qubit codes recover through stabilizer parity checks and a lookup table;
the binomial code uses the boson-number mod-3 syndrome with recovery
isometries built from the normalized single-loss / single-gain images of
the codewords.  Components outside the correctable span are mapped back
to the codespace incoherently (best effort) and flagged.

A stabilizer syndrome is an int, built as s = s << 1 | bit in stabilizer
order (bit 1 for the -1 outcome): stabilizer 0 is the most significant
bit, as qubit 0 is in a PauliOp.  The decoder holds Paulis as (x, z) bit
masks; popcount(x & sz ^ z & sx) is odd when one anticommutes with a
stabilizer, and XOR of masks is their product up to a phase.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .fock import LEAKAGE_BUDGET, DensityMatrix, PureState, annihilation

__all__ = [
    "CodeSpec",
    "SyndromeResult",
    "three_qubit_phase_code",
    "shor9_code",
    "binomial_code",
    "encode",
    "recover",
    "logical_flip_probability_three_qubit",
    "kraus_choice",
    "pauli_matrix",
    "PauliOp",
]

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.diag([1.0, -1.0]).astype(complex)
_SINGLE = {"I": _I2, "X": _X, "Y": _Y, "Z": _Z}
_BINOMIAL_DIM = 24  # Fock levels of the binomial carrier


def pauli_matrix(label: str) -> np.ndarray:
    """Dense matrix for a Pauli string such as 'XIZ' (qubit 0 leftmost)."""
    out = np.array([[1.0 + 0j]])
    for ch in label:
        out = np.kron(out, _SINGLE[ch])
    return out


# Nonzero entry of each row of the single-qubit matrices above.
_ROW_PHASES = dict(zip("IXYZ", np.array([[1, 1], [1, 1], [-1j, 1j], [1, -1]])))


class PauliOp:
    """Pauli string applied as a basis permutation times a phase vector.

    Row idx of pauli_matrix(label) has a single nonzero entry, phase[idx],
    in column idx ^ x, where bit q of x (qubit 0 = most significant bit)
    is set for an X or Y on qubit q.  That entry is +-1 or +-i, and the
    dense product only adds exact zeros to it, so ``op @ a`` equals
    ``pauli_matrix(label) @ a`` bit for bit.  Acts on axis 0 of a 1-D or
    2-D array.  phase is np.kron's products in its order, by outer products.
    """

    __slots__ = ("perm", "phase")

    def __init__(self, label: str):
        x, _ = _masks(label)
        self.perm = np.arange(2 ** len(label)) ^ x if x else None
        phase = np.ones(1, dtype=complex)
        for ch in label:
            phase = np.multiply.outer(phase, _ROW_PHASES[ch]).ravel()
        self.phase = phase

    def __matmul__(self, a: np.ndarray) -> np.ndarray:
        moved = a if self.perm is None else a[self.perm]
        return (self.phase if a.ndim == 1 else self.phase[:, None]) * moved


def _masks(label: str) -> tuple[int, int]:
    """(x, z) bit masks of a Pauli string: bit q of x (z) set for an X or Y
    (Z or Y) on qubit q, qubit 0 the most significant bit."""
    x = z = 0
    for ch in label:
        x, z = x << 1 | (ch in "XY"), z << 1 | (ch in "YZ")
    return x, z


@dataclass(frozen=True)
class SyndromeResult:
    syndrome: int | None  # stabilizer syndrome or binomial class; None if averaged
    applied_recovery: str
    unrecoverable: bool = False
    unrecoverable_weight: float = 0.0


@dataclass(frozen=True)
class CodeSpec:
    """Logical qubit codewords over a physical carrier."""

    name: str
    carrier: str  # qubits | single_mode
    logical_g: np.ndarray = field(repr=False)
    logical_e: np.ndarray = field(repr=False)

    def __post_init__(self):
        for v in (self.logical_g, self.logical_e):
            if abs(np.linalg.norm(v) - 1.0) > 1e-12:
                raise ValueError(f"{self.name}: codeword not normalized")
        if abs(np.vdot(self.logical_g, self.logical_e)) > 1e-12:
            raise ValueError(f"{self.name}: codewords not orthogonal")

    @property
    def dim(self) -> int:
        return len(self.logical_g)

    def y_states(self) -> tuple[np.ndarray, np.ndarray]:
        plus = (self.logical_g + 1j * self.logical_e) / np.sqrt(2.0)
        minus = (self.logical_g - 1j * self.logical_e) / np.sqrt(2.0)
        return plus, minus


def three_qubit_phase_code() -> CodeSpec:
    """(|+++> +/- |--->)/sqrt(2): repetition in the +/- basis, corrects one
    phase flip."""
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    ppp = np.kron(np.kron(plus, plus), plus)
    mmm = np.kron(np.kron(minus, minus), minus)
    g = (ppp + mmm) / np.sqrt(2.0)
    e = (ppp - mmm) / np.sqrt(2.0)
    return CodeSpec("three_qubit_phase", "qubits", g.astype(complex), e.astype(complex))


def _shor9_blocks() -> np.ndarray:
    """Rows |000> + |111> and |000> - |111>: the unnormalized 3-qubit
    blocks of the nine-qubit codewords."""
    blocks = np.zeros((2, 8))
    blocks[:, 0] = 1.0
    blocks[:, 7] = (1.0, -1.0)
    return blocks


def shor9_code() -> CodeSpec:
    """(|000> +/- |111>)^x3 / 2^(3/2): corrects any single-qubit error."""
    b0, b1 = _shor9_blocks()
    g = np.kron(np.kron(b0, b0), b0) / (2.0 * np.sqrt(2.0))
    e = np.kron(np.kron(b1, b1), b1) / (2.0 * np.sqrt(2.0))
    return CodeSpec("shor9", "qubits", g.astype(complex), e.astype(complex))


def binomial_code() -> CodeSpec:
    """(|0> + sqrt(3)|6>)/2 and (sqrt(3)|3> + |9>)/2: Fock spacing 3,
    corrects single boson loss and gain.  The carrier holds Fock levels 0
    to _BINOMIAL_DIM - 1, past the gain image's |10>."""
    g = np.zeros(_BINOMIAL_DIM, dtype=complex)
    e = np.zeros(_BINOMIAL_DIM, dtype=complex)
    g[0], g[6] = 0.5, np.sqrt(3.0) / 2.0
    e[3], e[9] = np.sqrt(3.0) / 2.0, 0.5
    return CodeSpec("binomial_n3", "single_mode", g, e)


def encode(code: CodeSpec, logical: PureState) -> PureState:
    """a|g> + b|e>  ->  a|g>_L + b|e>_L on the physical carrier."""
    if logical.dim != 2:
        raise ValueError("logical input must be a qubit state")
    a, b = logical.amplitudes
    # the cutoff-leakage check is meaningless for qubit registers, where
    # population on the top basis states is perfectly ordinary
    budget = 1.0 if code.carrier == "qubits" else LEAKAGE_BUDGET
    return PureState(a * code.logical_g + b * code.logical_e, leakage_budget=budget)


# --- stabilizer machinery (qubit carriers) ---------------------------------

_STABILIZERS = {
    "three_qubit_phase": ["XXI", "IXX"],
    "shor9": [
        "ZZIIIIIII", "IZZIIIIII",
        "IIIZZIIII", "IIIIZZIII",
        "IIIIIIZZI", "IIIIIIIZZ",
        "XXXXXXIII", "IIIXXXXXX",
    ],
}


# Single-qubit error alphabet each code is meant to correct; the phase
# code only handles Z, and listing X/Y there would hijack the Z syndromes
# with corrections that act as logical operators.
_CORRECTABLE = {"three_qubit_phase": "Z", "shor9": "XYZ"}


@lru_cache(maxsize=None)
def _decoder(code_name: str) -> tuple:
    """Syndrome -> (x, z, guaranteed): the correction's masks, and whether
    it is a single correctable error.  Breadth-first: the identity, the
    singles by qubit (the first to reach a syndrome keeps it), then their
    products.  Every syndrome needs an entry: applying nothing strands the
    carrier outside the codespace, which the logical conditional
    displacement then cannot undo."""
    stabs = [_masks(s) for s in _STABILIZERS[code_name]]
    n = len(_STABILIZERS[code_name][0])

    def syndrome(x, z):
        s = 0
        for sx, sz in stabs:
            s = s << 1 | (x & sz ^ z & sx).bit_count() & 1
        return s

    table = [None] * 2 ** len(stabs)
    singles = []
    for x, z in [(0, 0)] + [((ch in "XY") << q, (ch in "YZ") << q)
                            for q in reversed(range(n)) for ch in _CORRECTABLE[code_name]]:
        s = syndrome(x, z)
        if table[s] is None:
            table[s] = (x, z, True)
            singles.append((x, z, s))
    frontier = singles
    while frontier:
        nxt = []
        for bx, bz, bs in frontier:
            for x, z, s in singles:
                if table[bs ^ s] is None:
                    table[bs ^ s] = (bx ^ x, bz ^ z, False)
                    nxt.append((bx ^ x, bz ^ z, bs ^ s))
        frontier = nxt
    if None in table:
        raise ValueError(f"{code_name}: decoder misses syndrome {table.index(None)}")
    return tuple(table)


@lru_cache(maxsize=None)
def stabilizer_matrices(code_name: str) -> tuple:
    """Dense stabilizer matrices; the reference for stabilizer_ops."""
    return tuple(pauli_matrix(s) for s in _STABILIZERS[code_name])


@lru_cache(maxsize=None)
def stabilizer_ops(code_name: str) -> tuple:
    return tuple(PauliOp(s) for s in _STABILIZERS[code_name])


@lru_cache(maxsize=None)
def correction_matrix(code_name: str, syndrome: int):
    """(op, label, guaranteed) for an int syndrome: op is the correction as
    a PauliOp; guaranteed is True when the syndrome comes from a single
    correctable error, False for the best-effort extension of the table."""
    x, z, guaranteed = _decoder(code_name)[syndrome]
    n = len(_STABILIZERS[code_name][0])
    label = "".join("IXZY"[(x >> q & 1) | (z >> q & 1) << 1] for q in reversed(range(n)))
    return PauliOp(label), label, guaranteed


# --- binomial recovery ------------------------------------------------------


def binomial_recovery_kraus():
    """Kraus operators of the mod-3 syndrome recovery.

    Per syndrome class the primary Kraus maps the designated (codeword,
    loss image, or gain image) pair back onto the codewords; orthogonal
    remainders in the class are sent to the codewords incoherently.
    Returns (kraus list, primary flags, syndrome labels).
    """
    return _binomial_recovery()[:3]


def binomial_recovery_basis():
    """(bras, owner): rows of the conjugated orthonormal basis that the Kraus
    operators read, per syndrome class the designated pair and then the QR
    remainders; K_k^dag K_k sums |b><b| over the rows with owner k."""
    return _binomial_recovery()[3:]


@lru_cache(maxsize=None)
def _binomial_recovery():
    code = binomial_code()
    a = annihilation(_BINOMIAL_DIM - 1)
    adag = a.conj().T

    def normalized(v):
        return v / np.linalg.norm(v)

    designated = {
        0: (code.logical_g, code.logical_e),
        2: (normalized(a @ code.logical_g), normalized(a @ code.logical_e)),
        1: (normalized(adag @ code.logical_g), normalized(adag @ code.logical_e)),
    }
    kraus, primary, labels, bras = [], [], [], []
    for cls in (0, 1, 2):
        gs, es = designated[cls]
        k = np.outer(code.logical_g, gs.conj()) + np.outer(code.logical_e, es.conj())
        kraus.append(k)
        primary.append(True)
        labels.append(cls)
        # Orthonormal remainder basis of the class subspace.
        basis = np.eye(code.dim, dtype=complex)[:, cls::3]
        span = np.stack([gs, es], axis=1)
        proj = basis - span @ (span.conj().T @ basis)
        q, r = np.linalg.qr(proj)
        keep = np.abs(np.diag(r)) > 1e-10
        for j, col in enumerate(q.T[keep]):
            kraus.append(np.outer((code.logical_g, code.logical_e)[j % 2], col.conj()))
            primary.append(False)
            labels.append(cls)
        bras += [gs.conj(), es.conj(), *q.T[keep].conj()]
    owner = np.repeat(np.arange(len(kraus)), np.where(primary, 2, 1))
    return kraus, primary, labels, np.array(bras), owner


def kraus_choice(weights, u):
    """The binomial Kraus operator a draw u picks from weights <K_k^dag K_k>
    on the last axis, in sampled recover and both Monte Carlo engines: the
    first k with u <= cumsum(weights)[k], or the last k if there is none.
    u broadcasts against weights.shape[:-1]."""
    hit = np.asarray(u)[..., None] <= np.cumsum(weights, axis=-1)
    return np.where(hit.any(axis=-1), hit.argmax(axis=-1), hit.shape[-1] - 1)


# --- recovery ---------------------------------------------------------------


def _right(m: np.ndarray, op: PauliOp) -> np.ndarray:
    """m @ pauli_matrix(label) in O(d^2): a Pauli string is Hermitian, so
    column j is conj(phase[j]) m[:, j ^ x]."""
    return (m if op.perm is None else m.take(op.perm, axis=1)) * op.phase.conj()


def _trace(op: PauliOp, m: np.ndarray) -> complex:
    """tr(op @ m) in O(d): sum_i phase[i] m[i ^ x, i]."""
    cols = np.arange(len(m))
    return np.sum(op.phase * m[cols if op.perm is None else op.perm, cols])


def _project(m: np.ndarray, op: PauliOp, sign: int) -> np.ndarray:
    """P m P with P = (I + sign S) / 2, in O(d^2): (m + sign S m) / 2, then
    the same from the right.  A diagonal S makes P a diagonal mask."""
    if op.perm is None:
        mask = 0.5 * (1.0 + sign * op.phase)
        return mask[:, None] * m * mask.conj()
    half = 0.5 * (m + sign * (op @ m))
    return 0.5 * (half + sign * _right(half, op))


def _recover_qubit_code(code, rho, mode, rng):
    stabs = stabilizer_ops(code.name)
    if mode == "sample":
        syndrome = 0
        m = rho.matrix
        for s in stabs:
            # tr(P+ m) with P+ = (I + S)/2, normalized by the running trace
            p_plus = 0.5 * (1.0 + _trace(s, m).real / np.trace(m).real)
            p_plus = min(max(p_plus, 0.0), 1.0)
            bit = 0 if rng.random() < p_plus else 1
            m = _project(m, s, 1 - 2 * bit)
            m /= np.trace(m).real
            syndrome = syndrome << 1 | bit
        corr, label, guaranteed = correction_matrix(code.name, syndrome)
        out = _right(corr @ m, corr)
        return (DensityMatrix(out), SyndromeResult(syndrome, label, not guaranteed))
    # averaged: split into syndrome sectors, correct each, re-sum
    sectors = [(0, rho.matrix)]
    for s in stabs:
        nxt = []
        for syn, m in sectors:
            trace, trace_s = np.trace(m).real, _trace(s, m).real
            for bit in (0, 1):
                # tr(P m P) = tr(P m) = (tr m +- tr(S m)) / 2
                if 0.5 * (trace + (1 - 2 * bit) * trace_s) > 1e-14:
                    nxt.append((syn << 1 | bit, _project(m, s, 1 - 2 * bit)))
        sectors = nxt
    out = np.zeros((code.dim, code.dim), dtype=complex)
    bad_weight = 0.0
    for syn, m in sectors:
        corr, _, guaranteed = correction_matrix(code.name, syn)
        if not guaranteed:
            bad_weight += np.trace(m).real
        out += _right(corr @ m, corr)
    res = SyndromeResult(None, "averaged over syndromes",
                         bad_weight > 1e-12, bad_weight)
    return DensityMatrix(out), res


def _recover_binomial(code, rho, mode, rng):
    kraus, primary, labels = binomial_recovery_kraus()
    if mode == "sample":
        weights = [np.trace(k @ rho.matrix @ k.conj().T).real for k in kraus]
        idx = int(kraus_choice(weights, rng.random() * sum(weights)))
        k = kraus[idx]
        m = k @ rho.matrix @ k.conj().T
        m /= np.trace(m).real
        res = SyndromeResult(labels[idx],
                             "primary isometry" if primary[idx] else "best-effort remainder",
                             not primary[idx])
        return DensityMatrix(m), res
    out = np.zeros_like(rho.matrix)
    bad_weight = 0.0
    for k, is_primary in zip(kraus, primary):
        term = k @ rho.matrix @ k.conj().T
        out += term
        if not is_primary:
            bad_weight += np.trace(term).real
    res = SyndromeResult(None, "averaged over syndromes",
                         bad_weight > 1e-12, bad_weight)
    return DensityMatrix(out), res


def recover(code: CodeSpec, state: DensityMatrix, mode: str = "average",
            rng: np.random.Generator | None = None):
    """Syndrome extraction plus recovery; 'average' applies the full CP
    map, 'sample' draws one syndrome projectively (requires rng)."""
    if state.dim != code.dim:
        raise ValueError(f"state dimension {state.dim} != code carrier {code.dim}")
    if code.carrier == "single_mode" and code.dim != _BINOMIAL_DIM:
        raise ValueError(f"binomial recovery needs {_BINOMIAL_DIM} Fock levels, got {code.dim}")
    if mode not in ("average", "sample"):
        raise ValueError(f"mode must be 'average' or 'sample', got {mode!r}")
    if mode == "sample" and rng is None:
        raise ValueError("sample mode needs an rng")
    if code.carrier == "qubits":
        return _recover_qubit_code(code, state, mode, rng)
    return _recover_binomial(code, state, mode, rng)


def logical_flip_probability_three_qubit(p_phi: float) -> float:
    """Probability that majority voting fails, by enumerating the 8
    i.i.d. flip patterns (equals 3 p^2 - 2 p^3)."""
    if not 0.0 <= p_phi <= 1.0:
        raise ValueError(f"p_phi must lie in [0, 1], got {p_phi}")
    total = 0.0
    for pattern in itertools.product((0, 1), repeat=3):
        if sum(pattern) >= 2:
            weight = 1.0
            for bit in pattern:
                weight *= p_phi if bit else (1.0 - p_phi)
            total += weight
    return total
