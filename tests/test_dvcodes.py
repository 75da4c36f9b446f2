"""Ancilla code properties: distance, recovery, and logical operations."""

import itertools
import math

import numpy as np
import pytest

from cvqec import dvcodes
from cvqec.dvcodes import (_CORRECTABLE, _STABILIZERS, binomial_code,
                           PauliOp, binomial_recovery_basis,
                           binomial_recovery_kraus, correction_matrix, encode,
                           kraus_choice,
                           logical_flip_probability_three_qubit,
                           pauli_matrix, recover, shor9_code,
                           stabilizer_matrices, stabilizer_ops,
                           three_qubit_phase_code)
from cvqec.fock import (DensityMatrix, PureState, annihilation, fidelity,
                        fock_state)


_CODES = {"three_qubit_phase": three_qubit_phase_code, "shor9": shor9_code,
          "binomial_n3": binomial_code}


def _codespace_projector(code):
    return (np.outer(code.logical_g, code.logical_g.conj())
            + np.outer(code.logical_e, code.logical_e.conj()))


def _encoded_probe(code):
    # generic superposition so logical errors cannot hide in a symmetry
    logical = PureState(np.array([0.6, 0.8j]), leakage_budget=1.0)
    return encode(code, logical)


class TestCodewords:
    @pytest.mark.parametrize("name", ["three_qubit_phase", "shor9", "binomial_n3"])
    def test_orthonormal(self, name):
        code = _CODES[name]()
        assert np.linalg.norm(code.logical_g) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(code.logical_e) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(code.logical_g, code.logical_e)) < 1e-12

    def test_three_qubit_plus_basis_structure(self):
        code = three_qubit_phase_code()
        # |g>_L has support only on even-weight computational strings
        g = code.logical_g
        for idx in range(8):
            weight = bin(idx).count("1")
            if weight % 2 == 1:
                assert abs(g[idx]) < 1e-12
            else:
                assert abs(g[idx]) == pytest.approx(0.5, abs=1e-12)

    def test_binomial_fock_support(self):
        code = binomial_code()
        assert np.flatnonzero(np.abs(code.logical_g) > 1e-12).tolist() == [0, 6]
        assert np.flatnonzero(np.abs(code.logical_e) > 1e-12).tolist() == [3, 9]
        # equal mean boson number on both codewords
        n = np.arange(code.dim)
        ng = float(n @ np.abs(code.logical_g) ** 2)
        ne = float(n @ np.abs(code.logical_e) ** 2)
        assert ng == pytest.approx(ne, abs=1e-12)
        assert ng == pytest.approx(4.5, abs=1e-12)

    def test_binomial_needs_headroom(self):
        with pytest.raises(ValueError):
            binomial_code(8)


class TestEncoding:
    def test_encode_superposition(self):
        code = three_qubit_phase_code()
        out = encode(code, PureState(np.array([1.0, 1.0]) / math.sqrt(2),
                                     leakage_budget=1.0))
        expect = (code.logical_g + code.logical_e) / math.sqrt(2)
        assert np.allclose(out.amplitudes, expect, atol=1e-12)

    def test_encode_rejects_non_qubit(self):
        code = three_qubit_phase_code()
        with pytest.raises(ValueError):
            encode(code, PureState(np.array([1.0, 0.0, 0.0])))


class TestPauliOp:
    @pytest.mark.parametrize("name", ["three_qubit_phase", "shor9"])
    def test_matches_dense_bit_for_bit(self, name):
        """Every stabilizer and every decoder correction, as applied by the
        Monte Carlo engine, against the dense pauli_matrix product."""
        cases = list(zip(stabilizer_ops(name), stabilizer_matrices(name)))
        for syndrome in range(2 ** len(_STABILIZERS[name])):
            op, label, _ = correction_matrix(name, syndrome)
            cases.append((op, pauli_matrix(label)))
        dim = _CODES[name]().dim
        rng = np.random.default_rng(7)
        operands = [rng.normal(size=shape) + 1j * rng.normal(size=shape)
                    for shape in ((dim,), (dim, 5))]
        for op, dense in cases:
            for a in operands:
                assert np.array_equal(op @ a, dense @ a)

    @staticmethod
    def _kron_phase(label):
        """The phase vector by a chain of np.kron over the row phases."""
        rows = {"I": [1, 1], "X": [1, 1], "Y": [-1j, 1j], "Z": [1, -1]}
        phase = np.ones(1, dtype=complex)
        for ch in label:
            phase = np.kron(phase, np.array(rows[ch], dtype=complex))
        return phase

    def test_phase_bytes_match_kron(self):
        """The outer-product phase vector equals the np.kron chain byte for
        byte: all 64 three-qubit labels, every shor9 decoder correction and
        its stabilizers."""
        labels = ["".join(p) for p in itertools.product("IXYZ", repeat=3)]
        labels += [correction_matrix("shor9", syn)[1] for syn in range(2 ** 8)]
        labels += _STABILIZERS["shor9"]
        for label in labels:
            assert PauliOp(label).phase.tobytes() == self._kron_phase(label).tobytes(), label


def _commutes(pauli: str, stab: str) -> bool:
    anti = sum(p != "I" and s != "I" and p != s for p, s in zip(pauli, stab))
    return anti % 2 == 0


def _pauli_product(a: str, b: str) -> str:
    """a b up to a phase, qubit by qubit."""
    out = []
    for x, y in zip(a, b):
        if x == "I":
            out.append(y)
        elif y == "I" or x == y:
            out.append("I" if x == y else x)
        else:
            out.append(({"X", "Y", "Z"} - {x, y}).pop())
    return "".join(out)


def _string_syndrome(name, pauli):
    """The syndrome of a Pauli string as a tuple of stabilizer bits."""
    return tuple(0 if _commutes(pauli, s) else 1 for s in _STABILIZERS[name])


def _pack(bits) -> int:
    """A syndrome tuple as the decoder's int, stabilizer 0 most significant."""
    return int("".join(map(str, bits)), 2)


def _string_search_table(name):
    """Syndrome tuple -> (correction string, guaranteed) by a search on
    Pauli strings: the identity, then the correctable singles (the first
    to reach a syndrome keeps it), then breadth-first products with those
    singles, each product's syndrome recomputed from its string against
    every stabilizer.  The reference for the decoder's bit masks."""
    n = len(_STABILIZERS[name][0])
    singles = {_string_syndrome(name, "I" * n): "I" * n}
    for pos in range(n):
        for ch in _CORRECTABLE[name]:
            err = "I" * pos + ch + "I" * (n - pos - 1)
            singles.setdefault(_string_syndrome(name, err), err)
    table = {syn: (err, True) for syn, err in singles.items()}
    frontier = list(singles.values())
    while len(table) < 2 ** len(_STABILIZERS[name]) and frontier:
        nxt = []
        for base in frontier:
            for err in singles.values():
                cand = _pauli_product(base, err)
                syn = _string_syndrome(name, cand)
                if syn not in table:
                    table[syn] = (cand, False)
                    nxt.append(cand)
        frontier = nxt
    return table


@pytest.mark.parametrize("name", ["three_qubit_phase", "shor9"])
def test_decoder_table_matches_string_search(name):
    """correction_matrix at every int syndrome: the label and guaranteed
    flag the string search files under that syndrome's bits."""
    expect = {_pack(syn): entry for syn, entry in _string_search_table(name).items()}
    n_syndromes = 2 ** len(_STABILIZERS[name])
    assert sorted(expect) == list(range(n_syndromes))
    for syndrome in range(n_syndromes):
        _, label, guaranteed = correction_matrix(name, syndrome)
        assert (label, guaranteed) == expect[syndrome], syndrome


def test_decoder_rejects_unreached_syndrome(monkeypatch):
    # X errors commute with the phase code's X-type stabilizers, so an
    # X-only alphabet reaches syndrome 0 alone
    monkeypatch.setitem(_CORRECTABLE, "three_qubit_phase", "X")
    dvcodes._decoder.cache_clear()
    try:
        with pytest.raises(ValueError, match="misses syndrome 1"):
            dvcodes._decoder("three_qubit_phase")
    finally:
        dvcodes._decoder.cache_clear()


class TestShorRecovery:
    def test_all_single_paulis_recovered(self):
        code = shor9_code()
        psi = _encoded_probe(code)
        for pos in range(9):
            for ch in "XYZ":
                label = "I" * pos + ch + "I" * (9 - pos - 1)
                err = pauli_matrix(label)
                rho = DensityMatrix(np.outer(err @ psi.amplitudes,
                                             (err @ psi.amplitudes).conj()))
                out, res = recover(code, rho)
                assert fidelity(psi, out) == pytest.approx(1.0, abs=1e-10), label
                assert not res.unrecoverable

    @staticmethod
    def _dense_recover(code, rho, mode, rng):
        """recover's syndrome loop with dense pauli_matrix stabilizers and
        corrections: (recovered matrix, sampled syndrome or None).  A
        sector's weight tr(P m) = (tr m +- tr(S m)) / 2 is taken before
        its projection P m P is formed."""
        stabs = stabilizer_matrices(code.name)
        eye = np.eye(code.dim, dtype=complex)

        def weight(m, s, bit):
            return 0.5 * (np.trace(m) + (1 - 2 * bit) * np.einsum("ij,ji->", s, m)).real

        def project(m, s, bit):
            proj = 0.5 * (eye + (1 - 2 * bit) * s)
            return proj @ m @ proj

        if mode == "sample":
            m, syndrome = rho.matrix, []
            for s in stabs:
                p_plus = weight(m, s, 0) / np.trace(m).real
                bit = 0 if rng.random() < min(max(p_plus, 0.0), 1.0) else 1
                m = project(m, s, bit)
                m /= np.trace(m).real
                syndrome.append(bit)
            corr = pauli_matrix(correction_matrix(code.name, _pack(syndrome))[1])
            return corr @ m @ corr.conj().T, _pack(syndrome)
        sectors = [((), rho.matrix)]
        for s in stabs:
            sectors = [(syn + (bit,), project(m, s, bit)) for syn, m in sectors
                       for bit in (0, 1) if weight(m, s, bit) > 1e-14]
        out = np.zeros_like(rho.matrix)
        for syn, m in sectors:
            corr = pauli_matrix(correction_matrix(code.name, _pack(syn))[1])
            out += corr @ m @ corr.conj().T
        return out, None

    @pytest.mark.parametrize("mode", ["average", "sample"])
    def test_matches_dense_recovery(self, mode):
        """recover applies stabilizers and corrections as PauliOp
        permutations; the dense products are the oracle."""
        code = shor9_code()
        psi = _encoded_probe(code)
        for pos in range(9):
            for ch in "XYZ":
                v = pauli_matrix("I" * pos + ch + "I" * (9 - pos - 1)) @ psi.amplitudes
                rho = DensityMatrix(np.outer(v, v.conj()))
                out, res = recover(code, rho, mode, rng=np.random.default_rng(pos))
                ref, syndrome = self._dense_recover(code, rho, mode,
                                                    np.random.default_rng(pos))
                assert np.max(np.abs(out.matrix - ref)) < 1e-12
                assert res.syndrome == syndrome

    def test_full_syndrome_table(self):
        # every one of the 2^8 syndromes decodes to some Pauli, and that
        # Pauli reproduces the syndrome it is filed under
        for syndrome in range(2 ** 8):
            label = correction_matrix("shor9", syndrome)[1]
            assert _pack(_string_syndrome("shor9", label)) == syndrome

    def test_weight_two_error_returns_to_codespace(self):
        # not guaranteed to fix the logical content, but must land back in
        # the codespace so later logical operations remain well defined
        code = shor9_code()
        psi = _encoded_probe(code)
        err = pauli_matrix("XIIZIIIII")
        rho = DensityMatrix(np.outer(err @ psi.amplitudes,
                                     (err @ psi.amplitudes).conj()))
        out, _ = recover(code, rho)
        in_code = np.trace(_codespace_projector(code) @ out.matrix).real
        assert in_code == pytest.approx(1.0, abs=1e-10)


class TestBinomialRecovery:
    def test_knill_laflamme(self):
        # <i| E_k^dag E_l |j> = c_kl delta_ij for E in {I, a, a^dag}
        code = binomial_code()
        a = annihilation(code.dim - 1)
        ops = [np.eye(code.dim, dtype=complex), a, a.conj().T]
        words = (code.logical_g, code.logical_e)
        for ek, el in itertools.product(ops, repeat=2):
            m = ek.conj().T @ el
            gg = words[0].conj() @ m @ words[0]
            ee = words[1].conj() @ m @ words[1]
            ge = words[0].conj() @ m @ words[1]
            assert abs(gg - ee) < 1e-10
            assert abs(ge) < 1e-10

    @pytest.mark.parametrize("kind", ["loss", "gain"])
    def test_single_error_recovered(self, kind):
        code = binomial_code()
        psi = _encoded_probe(code)
        a = annihilation(code.dim - 1)
        op = a if kind == "loss" else a.conj().T
        v = op @ psi.amplitudes
        v /= np.linalg.norm(v)
        out, res = recover(code, DensityMatrix(np.outer(v, v.conj())))
        assert fidelity(psi, out) == pytest.approx(1.0, abs=1e-9)
        assert not res.unrecoverable

    def test_kraus_complete(self):
        kraus, primary, labels = binomial_recovery_kraus(23)
        total = sum(k.conj().T @ k for k in kraus)
        assert np.allclose(total, np.eye(24), atol=1e-10)
        assert sum(primary) == 3
        assert set(labels) == {0, 1, 2}

    def test_recovery_basis(self):
        """The bras form a unitary, and each Kraus operator's K^dag K is the
        sum of |b><b| over its bras."""
        kraus, _, _ = binomial_recovery_kraus(23)
        bras, owner = binomial_recovery_basis(23)
        assert bras.shape == (24, 24)
        assert np.allclose(bras @ bras.conj().T, np.eye(24), rtol=0, atol=1e-12)
        assert sorted(set(owner.tolist())) == list(range(len(kraus)))
        for k, kk in enumerate(kraus):
            rows = bras[owner == k]
            assert np.allclose(rows.conj().T @ rows, kk.conj().T @ kk, rtol=0, atol=1e-14)

    def test_kraus_choice_is_the_early_exit_scan(self):
        """kraus_choice, scalar and per row, against a running sum that stops
        at the first u <= acc, on weights from carrier states and on draws
        at and past the total (the last operator)."""
        kraus, _, _ = binomial_recovery_kraus(23)
        rng = np.random.default_rng(21)
        c = rng.normal(size=(40, 24)) + 1j * rng.normal(size=(40, 24))
        weights = np.stack([np.sum(np.abs(c @ k.T) ** 2, axis=1) for k in kraus], axis=1)
        total = weights.sum(axis=1)
        u = rng.random(40) * total
        u[:3] = (weights[0, 0], total[1], 2.0 * total[2])

        def scan(row, draw):
            acc = 0.0
            for k, w in enumerate(row):
                acc += w
                if draw <= acc:
                    return k
            return len(row) - 1

        expect = [scan(row.tolist(), draw) for row, draw in zip(weights, u.tolist())]
        assert kraus_choice(weights, u).tolist() == expect
        assert [int(kraus_choice(row.tolist(), draw))
                for row, draw in zip(weights, u.tolist())] == expect
        assert expect[0] == 0 and expect[2] == len(kraus) - 1

    def test_sampled_recovery_frequencies(self):
        """Sampled recovery of |1> (the gain class) takes the primary
        isometry with probability 1/22 (test_remainder_flagged)."""
        code = binomial_code()
        rho = fock_state(1, code.dim - 1).to_density()
        rng = np.random.default_rng(8)
        flags = [recover(code, rho, mode="sample", rng=rng)[1].unrecoverable
                 for _ in range(880)]
        assert abs(flags.count(False) - 40) < 4 * math.sqrt(40)

    def test_remainder_flagged(self):
        # |1> sits in the gain-syndrome class; its overlap with the primary
        # isometry's input is |<1|gain image of g>|^2 = (1/4)/(11/2) = 1/22,
        # so 21/22 of the weight goes through the flagged remainder maps
        code = binomial_code()
        rho = fock_state(1, code.dim - 1).to_density()
        out, res = recover(code, rho)
        assert res.unrecoverable
        assert res.unrecoverable_weight == pytest.approx(21 / 22, abs=1e-10)
        assert np.trace(_codespace_projector(code) @ out.matrix).real == pytest.approx(1.0, abs=1e-10)


class TestThreeQubitDephasing:
    @staticmethod
    def _dephase_all(rho, p):
        m = rho.matrix
        for pos in range(3):
            z = pauli_matrix("I" * pos + "Z" + "I" * (2 - pos))
            m = (1 - p) * m + p * (z @ m @ z)
        return DensityMatrix(m)

    @pytest.mark.parametrize("p", [0.02, 0.05, 0.1])
    def test_exact_flip_probability(self, p):
        code = three_qubit_phase_code()
        plus_y = PureState(code.y_states()[0], leakage_budget=1.0)
        noisy = self._dephase_all(plus_y.to_density(), p)
        out, _ = recover(code, noisy)
        flip = 1.0 - fidelity(plus_y, out)
        assert flip == pytest.approx(3 * p**2 - 2 * p**3, abs=1e-12)
        assert flip == pytest.approx(
            logical_flip_probability_three_qubit(p), abs=1e-12)

    @pytest.mark.parametrize("p", [0.02, 0.05, 0.1])
    def test_sampled_flip_probability(self, p):
        code = three_qubit_phase_code()
        plus_y = PureState(code.y_states()[0], leakage_budget=1.0)
        rng = np.random.default_rng(7)
        n = 4000
        flips = 0
        for _ in range(n):
            amps = plus_y.amplitudes.copy()
            for pos in range(3):
                if rng.random() < p:
                    amps = pauli_matrix("I" * pos + "Z" + "I" * (2 - pos)) @ amps
            rho = DensityMatrix(np.outer(amps, amps.conj()))
            out, _ = recover(code, rho, mode="sample", rng=rng)
            f = fidelity(plus_y, out)
            assert f == pytest.approx(0.0, abs=1e-9) or f == pytest.approx(1.0, abs=1e-9)
            flips += f < 0.5
        expect = logical_flip_probability_three_qubit(p)
        stderr = math.sqrt(expect * (1 - expect) / n)
        assert abs(flips / n - expect) < 3 * stderr

    def test_flip_probability_closed_form(self):
        for p in (0.0, 0.1, 0.5, 1.0):
            assert logical_flip_probability_three_qubit(p) == pytest.approx(
                3 * p**2 - 2 * p**3, abs=1e-15)
        with pytest.raises(ValueError):
            logical_flip_probability_three_qubit(1.5)


class TestRecoverValidation:
    def test_dimension_mismatch(self):
        code = three_qubit_phase_code()
        with pytest.raises(ValueError):
            recover(code, fock_state(0, 3).to_density())

    def test_bad_mode(self):
        code = three_qubit_phase_code()
        rho = _encoded_probe(code).to_density()
        with pytest.raises(ValueError):
            recover(code, rho, mode="ml")

    def test_sample_needs_rng(self):
        code = three_qubit_phase_code()
        rho = _encoded_probe(code).to_density()
        with pytest.raises(ValueError):
            recover(code, rho, mode="sample")

    def test_syndrome_guarantee_flag(self):
        mat, label, guaranteed = correction_matrix("shor9", 0)
        assert guaranteed and label == "I" * 9
