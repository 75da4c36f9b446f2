"""Trajectory sampling: engine agreement, statistics, and reproducibility."""

import contextlib
import dataclasses
import functools
import itertools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cvqec import dvcodes, fock, montecarlo
from cvqec.cli import main
from cvqec.fock import displaced_levels
from cvqec.gaussian import qubit_outcome_mean
from cvqec.montecarlo import (_SHOR_MODE_DIM, ANCILLA_KINDS,
                              EstimateWithError, TrajectoryPlan, _BranchState,
                              _Context, _DenseState, _int128,
                              _pcg64_states, _standard_draws,
                              _sweep_rows,
                              branch_decomposition_run, confinement_kraus,
                              estimate_qubit_var_p, run_concatenated,
                              trajectory_fidelity)
from cvqec.protocol import (exact_infidelity, optimal_alpha_qubit,
                            optimal_zeta, run_qubit_p_scheme,
                            run_squeezed_scheme)
from oracles import fock_outcome_probabilities, standard_draws, ziggurat_tables


class TestPlanValidation:
    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            TrajectoryPlan(sigma=-0.1)

    def test_rejects_unknown_ancilla(self):
        with pytest.raises(ValueError):
            TrajectoryPlan(sigma=0.1, ancilla="ghz")

    def test_rejects_out_of_range_dephasing(self):
        with pytest.raises(ValueError):
            TrajectoryPlan(sigma=0.1, ancilla="bare", p_phi=0.7)

    def test_rejects_dephasing_on_bosonic_ancilla(self):
        with pytest.raises(ValueError):
            TrajectoryPlan(sigma=0.1, ancilla="binomial_n3", p_phi=0.05)

    @pytest.mark.parametrize("field, value", [
        ("sigma", math.inf), ("zeta", math.nan), ("coherent_amplitude", complex(0.0, math.inf))])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TrajectoryPlan(**{"sigma": 0.1, field: value})

    def test_rejects_unknown_state(self):
        with pytest.raises(ValueError):
            TrajectoryPlan(sigma=0.1, state_kind="gkp")

    def test_rejects_fock1_amplitude(self):
        with pytest.raises(ValueError, match="fock1 state takes no coherent amplitude"):
            TrajectoryPlan(sigma=0.1, state_kind="fock1", coherent_amplitude=1.5)
        assert TrajectoryPlan(sigma=0.1, state_kind="fock1").coherent_amplitude == 0

    def test_default_alpha_is_qubit_optimum(self):
        plan = TrajectoryPlan(sigma=0.1)
        assert plan.effective_alpha == optimal_alpha_qubit(0.1)
        squeezed = TrajectoryPlan(sigma=0.1, zeta=-0.05)
        assert squeezed.effective_alpha == optimal_alpha_qubit(0.1 * math.exp(0.1))

    def test_estimate_validation(self):
        with pytest.raises(ValueError):
            EstimateWithError(0.1, 0.01, 0)


class TestEngineAgreement:
    @pytest.mark.parametrize("ancilla", ANCILLA_KINDS)
    def test_per_trajectory_identical(self, ancilla):
        kwargs = {"p_phi": 0.1} if ancilla in ("bare", "three_qubit_phase") else {}
        plan = TrajectoryPlan(sigma=0.15, ancilla=ancilla, root_seed=5, **kwargs)
        for index in range(4):
            fb = trajectory_fidelity(plan, index, engine="branch")
            fd = trajectory_fidelity(plan, index, engine="dense")
            assert fb == pytest.approx(fd, abs=1e-9)
            assert -1e-9 <= fb <= 1 + 1e-9

    @pytest.mark.parametrize("engine", ["direct", "Dense", "brnach"])
    def test_unknown_engine_name(self, engine):
        with pytest.raises(ValueError, match="unknown engine"):
            trajectory_fidelity(TrajectoryPlan(sigma=0.15), 0, engine=engine)

    @pytest.mark.parametrize("state_kind", ["coherent", "fock1"])
    @pytest.mark.parametrize("ancilla, sigma, n_index", [
        ("binomial_n3", 0.05, 4), ("binomial_n3", 0.1, 4),
        ("shor9", 0.05, 2), ("shor9", 0.1, 4)])
    def test_bosonic_failures_within_dense_cutoff(self, ancilla, sigma, n_index,
                                                  state_kind):
        # a logical failure of a bosonic carrier leaves the data mode
        # displaced by about 2 alpha, which the dense cutoff must hold
        plan = TrajectoryPlan(sigma=sigma, ancilla=ancilla, root_seed=3,
                              zeta=optimal_zeta(), state_kind=state_kind)
        for index in range(n_index):
            fb = trajectory_fidelity(plan, index, engine="branch")
            fd = trajectory_fidelity(plan, index, engine="dense")
            assert fb == pytest.approx(fd, abs=1e-12)

    @pytest.mark.parametrize("state_kind", ["coherent", "fock1"])
    @pytest.mark.parametrize("ancilla, sigma, n", [
        pytest.param(ancilla, sigma, n, id=f"{ancilla}-{sigma}")
        for ancilla, sigma, n in (("binomial_n3", 0.2, 85), ("shor9", 0.25, 21))])
    def test_where_recovery_fails(self, ancilla, sigma, n, state_kind):
        """At these sigmas some trajectories take a best-effort remainder of
        the binomial recovery or a best-effort (product) entry of the shor9
        decoder table; at those indices of a chunk of a run's first n rows
        the chunk and the dense oracle agree, the dense oracle flags them
        too, and a one-row branch replay equals the chunk's row.  Rows are
        local to their chunk, so these are also the rows of a run."""
        plan = TrajectoryPlan(sigma=sigma, ancilla=ancilla, root_seed=5,
                              zeta=optimal_zeta(), state_kind=state_kind)
        ctx = _Context(plan)
        draws = montecarlo._standard_draws(plan.root_seed, plan.ancilla, 0, n)
        infid, unrecoverable = montecarlo._run_chunk(
            ctx, *montecarlo._rows((plan,), np.zeros(n, dtype=int), *draws))
        indices = np.flatnonzero(unrecoverable)
        assert len(indices) >= 2
        for index in indices.tolist():
            dense_infid, dense_unrecoverable = montecarlo._one_trajectory(
                ctx, _DenseState(ctx), montecarlo._rng(plan.root_seed, index))
            assert dense_unrecoverable
            assert infid[index] == pytest.approx(dense_infid, abs=1e-12)
            assert trajectory_fidelity(plan, index, engine="branch") == 1.0 - infid[index]

    def test_run_means_identical(self):
        plan = TrajectoryPlan(sigma=0.1, ancilla="three_qubit_phase",
                              p_phi=0.05, n_trajectories=50, root_seed=2)
        rb = branch_decomposition_run(plan)
        rd = run_concatenated(plan)
        assert rb.infidelity.mean == pytest.approx(rd.infidelity.mean, abs=1e-9)
        assert rb.unrecoverable_count == rd.unrecoverable_count
        assert rb.engine == "branch" and rd.engine == "direct"


class TestConfinement:
    @pytest.mark.parametrize("state_cls", [_DenseState])
    def test_level_selection_matches_kraus(self, state_cls):
        """confine_mode(m, j) against the einsum with confinement Kraus j,
        on a random carrier whose mode m holds all 14 levels."""
        ctx = _Context(TrajectoryPlan(sigma=0.15, ancilla="shor9"))
        dim = ctx.carrier_dim
        rng = np.random.default_rng(11)
        mix = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        kraus = confinement_kraus(_SHOR_MODE_DIM)
        for m in (0, 4, 8):
            spread = (rng.normal(size=(_SHOR_MODE_DIM, 2))
                      + 1j * rng.normal(size=(_SHOR_MODE_DIM, 2)))
            for outcome, k in enumerate(kraus):
                ref, sel = state_cls(ctx), state_cls(ctx)
                for state in (ref, sel):
                    state.apply_carrier(mix)
                    state.apply_carrier_local(m, spread)
                ref.apply_carrier_local(m, k)
                sel.confine_mode(m, outcome)
                assert sel.local_dims == ref.local_dims
                assert np.array_equal(sel.psi, ref.psi)

    def test_batched_mode_step_matches_dense(self):
        """The shor9 mode_weights and confine_mode, which form only the
        mode's 2x2 moments (from its block and the block's environment) and
        the kept rows of its exact displacement (displaced_levels), against
        the dense path (apply_carrier_local with the oracle's anc_engine
        matrix cut to the mode's dim and two columns, then confinement Kraus
        j), one row per outcome j, on random two-term states of two
        products."""
        ctx = _Context(TrajectoryPlan(sigma=0.15, ancilla="shor9"))
        kraus = confinement_kraus(_SHOR_MODE_DIM)
        n = len(kraus)
        rng = np.random.default_rng(12)
        for m in (0, 4, 8):
            beta = rng.normal(0.0, 0.3, n) + 1j * rng.normal(0.0, 0.3, n)
            state = _random_shor_state(ctx, rng, n)
            c = _expand(state)
            data = [[ph * ctx.data_engine.apply(g, ctx.psi0)
                     for g, ph in zip(state.gamma[r], state.ph[r])] for r in range(n)]
            disp = displaced_levels(beta, (0, 1), _SHOR_MODE_DIM)
            weights = state.mode_weights(m, disp)
            state.confine_mode(m, disp, np.arange(n))
            confined = _expand(state)
            for j in range(n):
                ref = _DenseState(ctx)
                ref.psi = sum(np.outer(cv, dv) for cv, dv in zip(c[j], data[j]))
                ref.apply_carrier_local(m, ctx.anc_engine.matrix(beta[j])[:_SHOR_MODE_DIM, :2])
                assert np.allclose(weights[j], ref.carrier_level_weights(m),
                                   rtol=0, atol=1e-13)
                ref.apply_carrier_local(m, kraus[j])
                got = sum(np.outer(cv, dv) for cv, dv in zip(confined[j], data[j]))
                assert np.allclose(got, ref.psi, rtol=0, atol=1e-13)


def _expand(state: _BranchState) -> np.ndarray:
    """The carrier vectors [r, t] of a product state, by np.kron over its
    blocks."""
    n, t, p = state.coef.shape
    out = np.zeros((n, t, state.ctx.carrier_dim), dtype=complex)
    for r, s, q in np.ndindex(n, t, p):
        out[r, s] += state.coef[r, s, q] * functools.reduce(np.kron, state.v[r, s, q])
    return out


def _random_shor_state(ctx, rng, n: int, t: int = 2, p: int = 2) -> _BranchState:
    """n rows of t terms with p products each and random data factors; each
    row's carrier vectors have unit total norm."""
    state = _BranchState(ctx, np.full(n, ctx.plan.effective_alpha))
    state.coef = rng.normal(size=(n, t, p)) + 1j * rng.normal(size=(n, t, p))
    state.v = rng.normal(size=(n, t, p, 3, 8)) + 1j * rng.normal(size=(n, t, p, 3, 8))
    state.coef /= np.linalg.norm(_expand(state), axis=(1, 2))[:, None, None]
    state.gamma = rng.normal(0.0, 0.5, (n, t)) + 1j * rng.normal(0.0, 0.5, (n, t))
    state.ph = np.exp(2j * np.pi * rng.random((n, t)))
    return state


def _one_block(state: _BranchState, c: np.ndarray):
    """Set state to the flat carrier vectors c [r, t]: one product per slot,
    coefficient 1, its one block c."""
    state.coef = np.ones(c.shape[:2] + (1,), dtype=complex)
    state.v = c[:, :, None, None, :].copy()


class TestBinomialRecovery:
    @staticmethod
    def _random_state(ctx, rng, n: int, t: int) -> _BranchState:
        """n rows of t random carrier terms on one block with random data
        factors; each row's carrier vectors have unit total norm."""
        state = _BranchState(ctx, np.full(n, ctx.plan.effective_alpha))
        shape = (n, t, ctx.carrier_dim)
        c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        _one_block(state, c / np.linalg.norm(c, axis=(1, 2))[:, None, None])
        state.gamma = rng.normal(0.0, 0.5, (n, t)) + 1j * rng.normal(0.0, 0.5, (n, t))
        state.ph = np.exp(2j * np.pi * rng.random((n, t)))
        return state

    @pytest.mark.parametrize("t", [1, 3, 6])
    def test_expects_and_choices_match_dense_kraus(self, t):
        """kraus_expects, one projection onto the recovery basis, against
        the per-operator <c|K^dag K|w> sums it replaced, and the Kraus
        choices and recovered carriers of _batch_recovery against that
        oracle's choices with the same uniforms."""
        ctx = _Context(TrajectoryPlan(sigma=0.2, ancilla="binomial_n3"))
        rng = np.random.default_rng(100 + t)
        n = 60
        state = self._random_state(ctx, rng, n, t)
        c = _expand(state)
        cc, w = c.conj(), state.data_gram() @ c
        oracle = np.stack([np.sum(cc * (w @ kk.T), axis=(1, 2)).real
                           for _, kk, _ in ctx.binom_kraus], axis=1)
        assert np.allclose(state.kraus_expects(), oracle, rtol=0, atol=1e-13)

        u = rng.random(n)
        hit = (u * state.norm())[:, None] <= oracle.cumsum(axis=1)
        choice = np.where(hit.any(axis=1), hit.argmax(axis=1), len(ctx.binom_kraus) - 1)
        expect_v = state.v.copy()
        for k in np.unique(choice).tolist():
            rows = choice == k
            expect_v[rows] = state.v[rows] @ ctx.binom_kraus[k][0].T
        primary = np.array([p for _, _, p in ctx.binom_kraus])
        unrecoverable = montecarlo._batch_recovery(ctx, state, iter([u]))
        assert unrecoverable.any() and not unrecoverable.all()
        assert np.array_equal(unrecoverable, ~primary[choice])
        assert np.array_equal(state.v, expect_v)


@pytest.mark.parametrize("width", [2, 8])
def test_groups_match_row_unique(width):
    """_groups on int syndromes of width bits and on binomial Kraus choices:
    the distinct keys in increasing order, each with the rows that hold it."""
    rng = np.random.default_rng(width)
    syndromes = rng.integers(0, 2 ** width, 200)
    choice = rng.integers(0, 21, 50)
    for keys in (syndromes, choice):
        assert [(k, r.tolist()) for k, r in montecarlo._groups(keys)] == [
            (k, (keys == k).tolist()) for k in sorted(set(keys.tolist()))]


def test_chunk_size_per_kind():
    """A chunk holds _CHUNK_BUDGET // (2**k n_blocks block_dim) rows, k the
    stabilizers that span more than one block (two X-type ones of shor9),
    each of whose projections doubles a slot's products."""
    assert {kind: montecarlo._carrier(kind).chunk_size for kind in ANCILLA_KINDS} == {
        "perfect": 8192, "bare": 8192, "three_qubit_phase": 2048, "binomial_n3": 682,
        "shor9": 170}


class TestShorProductState:
    """Each operation of the three-block product state against the same
    engine with one 512-dim block, on the same state expanded by np.kron,
    on random multi-term states; mode steps are checked against _DenseState
    in TestConfinement."""

    @staticmethod
    def _flat_context(ctx):
        """ctx with the shor9 carrier as one block, (g, e) at scale 1, and
        whole-label stabilizers."""
        flat = _Context(ctx.plan)
        flat.blocks, flat.block_scale, flat.n_blocks = np.stack((ctx.g, ctx.e)), 1.0, 1
        flat.block_stabilizers = tuple(montecarlo._block_paulis(label, 1)
                                       for label in dvcodes._STABILIZERS["shor9"])
        return flat

    @staticmethod
    def _pair(seed: int, n: int = 6):
        ctx = _Context(TrajectoryPlan(sigma=0.15, ancilla="shor9"))
        shor = _random_shor_state(ctx, np.random.default_rng(seed), n)
        flat = _BranchState(TestShorProductState._flat_context(ctx), np.full(n, ctx.plan.effective_alpha))
        _one_block(flat, _expand(shor))
        flat.gamma, flat.ph = shor.gamma, shor.ph
        return ctx, shor, flat

    @staticmethod
    def _assert_same(shor: _BranchState, flat: _BranchState):
        assert np.allclose(_expand(shor), _expand(flat), rtol=0, atol=1e-13)
        assert np.allclose(shor.gamma, flat.gamma, rtol=0, atol=1e-13)
        assert np.allclose(shor.ph, flat.ph, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("s", range(8))
    def test_stabilizer(self, s):
        """Both layouts' norm and +1 probability, each a quadratic form on
        one block, against the dense form sum_ij conj(c_i) <d_i|d_j> (S c_j)
        on the 512-dim carriers, then their projections."""
        ctx, shor, flat = self._pair(s)
        ops, op = ctx.block_stabilizers[s], flat.ctx.block_stabilizers[s]
        c, gd = _expand(shor), shor.data_gram()
        stab = dvcodes.pauli_matrix(dvcodes._STABILIZERS["shor9"][s])
        nrm = np.einsum("nti,ntu,nui->n", c.conj(), gd, c).real
        expect = np.einsum("nti,ntu,nui->n", c.conj(), gd, c @ stab.T).real
        for state, stab_ops in ((shor, ops), (flat, op)):
            assert np.allclose(state.norm(), nrm, rtol=0, atol=1e-13)
            assert np.allclose(state.stabilizer_plus_probability(stab_ops),
                               0.5 * (nrm + expect) / nrm, rtol=0, atol=1e-13)
        sign = np.where(np.arange(len(shor.gamma)) % 2 == 0, 1, -1)
        shor.project_stabilizer(ops, sign)
        flat.project_stabilizer(op, sign)
        self._assert_same(shor, flat)
        # a projected state is an eigenstate: probability 1 or 0 by row
        assert np.allclose(shor.stabilizer_plus_probability(ops), (1 + sign) / 2,
                           rtol=0, atol=1e-13)

    def test_best_effort_correction(self):
        ctx, shor, flat = self._pair(20)
        syndrome = next(syn for syn in range(2 ** 8)
                        if not dvcodes.correction_matrix("shor9", syn)[2])
        _, label, _ = dvcodes.correction_matrix("shor9", syndrome)
        assert sum(ch != "I" for ch in label) >= 2
        rows = np.arange(len(shor.gamma)) % 3 != 0
        shor.apply_pauli(montecarlo._block_paulis(label, 3), rows)
        flat.apply_pauli(montecarlo._block_paulis(label, 1), rows)
        self._assert_same(shor, flat)

    @staticmethod
    def _code_space_pair(seed: int, n: int = 6):
        """_pair with random logical amplitudes on the codeword products, the
        only carriers the circuit hands over (see test_code_space_invariant)."""
        ctx, shor, flat = TestShorProductState._pair(seed, n)
        amp = np.random.default_rng(seed + 1).normal(size=(*shor.coef.shape, 2)) @ [1, 1j]
        shor.coef = ctx.block_scale * amp / np.linalg.norm(amp, axis=(1, 2))[:, None, None]
        shor.v[:, :, 0], shor.v[:, :, 1] = ctx.blocks[0], ctx.blocks[1]
        _one_block(flat, _expand(shor))
        return ctx, shor, flat

    @staticmethod
    def _carriers(ctx, qubit) -> np.ndarray:
        """The 512-dim carriers [r, t] = a[r, t] codeword_t of a logical qubit."""
        return qubit.a[..., None] * np.stack((ctx.g, ctx.e))[qubit.codeword]

    @pytest.mark.parametrize("signs", [(-1, 1), (1, -1)])
    def test_conditional_displacement(self, signs):
        """Both block layouts' handoff to the logical qubit, displacing g by
        signs[0] 0.7 and e by signs[1] 0.7, on the same states, and the norm
        of the 512-dim carriers it stands for."""
        ctx, shor, flat = self._code_space_pair(30)
        nrm = shor.norm()
        for state in (shor, flat):
            state.alpha = np.full(6, signs[0] * 0.7)
            state.logical()
        assert shor.a.shape == flat.a.shape == (6, 4)
        assert shor.codeword.tolist() == flat.codeword.tolist() == [0, 0, 1, 1]
        for name in ("a", "gamma", "ph"):
            assert np.allclose(getattr(shor, name), getattr(flat, name), rtol=0, atol=1e-13)
        c = self._carriers(ctx, shor)
        got_nrm = np.sum(c.conj() * (shor.data_gram() @ c), axis=(1, 2)).real
        assert np.allclose(got_nrm, nrm, rtol=0, atol=1e-13)

    def test_y_readout_and_fidelity(self):
        """The shared logical readout and fidelity against the same steps on
        the 512-dim carriers a_t codeword_t, with ctx.yplus and ctx.yminus."""
        ctx, qubit, _ = self._code_space_pair(40, n=2)
        qubit.alpha = np.full(2, 0.7)
        qubit.logical()
        c = self._carriers(ctx, qubit)
        yp, ym = ctx.yplus, ctx.yminus
        gd = qubit.data_gram()
        nrm = np.sum(c.conj() * (gd @ c), axis=(1, 2)).real
        a, b = c @ yp.conj(), c @ ym.conj()
        p_plus = np.einsum("ni,nij,nj->n", a.conj(), gd, a).real / nrm
        p_minus = np.einsum("ni,nij,nj->n", b.conj(), gd, b).real / nrm
        # +Y and -Y span the code space: the readout has these two outcomes
        assert np.allclose(p_plus + p_minus, 1.0, rtol=0, atol=1e-13)
        u = np.array([0.5 * p_plus[0], p_plus[1] + 0.5 * p_minus[1]])
        assert qubit.measure_y(u).tolist() == [1, -1]
        c = np.stack((a[0, :, None] * yp, b[1, :, None] * ym))
        assert np.allclose(qubit.a[:, :, None] * np.stack((yp, ym))[:, None], c,
                           rtol=0, atol=1e-13)
        beta = np.array([0.3j, -0.2])
        qubit.displace_data(beta)
        gd = qubit.data_gram()
        nrm = np.sum(c.conj() * (gd @ c), axis=(1, 2)).real
        o = qubit.ph * ctx.overlap(qubit.gamma)
        fid = np.einsum("ni,nij,nj->n", o.conj(), c.conj() @ c.swapaxes(1, 2), o).real / nrm
        assert np.allclose(qubit.fidelity(), fid, rtol=0, atol=1e-13)


@pytest.mark.parametrize("ancilla", ANCILLA_KINDS)
def test_closed_form_start(ancilla):
    """A chunk's first state, expanded to carrier x Fock, against the dense
    oracle's |+>_L x psi0 after its first conditional displacement."""
    ctx = _Context(TrajectoryPlan(sigma=0.15, ancilla=ancilla, zeta=optimal_zeta(),
                                  coherent_amplitude=0.5 - 0.3j))
    state = _BranchState(ctx, np.full(2, ctx.plan.effective_alpha))
    c = _expand(state)
    dense = _DenseState(ctx)
    alpha = ctx.plan.effective_alpha
    dense.conditional_displace(-alpha, +alpha)
    for r in range(2):
        psi = sum(np.outer(cv, ph * ctx.data_engine.apply(g, ctx.psi0))
                  for cv, g, ph in zip(c[r], state.gamma[r], state.ph[r]))
        assert np.allclose(psi, dense.psi, rtol=0, atol=1e-12)


@pytest.mark.parametrize("ancilla", ANCILLA_KINDS)
def test_code_space_invariant(monkeypatch, ancilla):
    """The batched engine hands a chunk over to the logical qubit by
    splitting each slot into its g and e parts only, so the second
    conditional displacement of a run must see carriers in the code space:
    per row and slot, |c - <g|c> g - <e|c> e| |ph| is at most _BRANCH_TOL,
    the pruning cut, before each call.  Each of a kind's nine or more runs
    hands over once per chunk.  The sigma 0.5 runs of the bosonic kinds
    move population past an ancilla mode's Fock cutoff and warn."""
    weights = []
    logical = _BranchState.logical

    def checked(state):
        c = _expand(state)
        g, e = state.ctx.g, state.ctx.e
        rest = c - (c @ g.conj())[..., None] * g - (c @ e.conj())[..., None] * e
        weights.append(np.max(np.linalg.norm(rest, axis=-1) * np.abs(state.ph)))
        logical(state)

    monkeypatch.setattr(_BranchState, "logical", checked)
    rates = (0.05, 0.2, 0.5) if ancilla in ("bare", "three_qubit_phase") else (0.0,)
    states = (("coherent", 0.0), ("coherent", 1.0), ("fock1", 0.0))
    for sigma, p_phi, (state_kind, amplitude) in itertools.product(
            (0.05, 0.2, 0.5), rates, states):
        leaks = sigma == 0.5 and ancilla in ("binomial_n3", "shor9")
        with pytest.warns(fock.TruncationWarning) if leaks else contextlib.nullcontext():
            branch_decomposition_run(TrajectoryPlan(
                sigma=sigma, ancilla=ancilla, p_phi=p_phi, n_trajectories=200,
                root_seed=7, zeta=optimal_zeta(), state_kind=state_kind,
                coherent_amplitude=amplitude))
    assert len(weights) >= 9 and max(weights) <= montecarlo._BRANCH_TOL


@pytest.mark.parametrize("ancilla", ANCILLA_KINDS)
def test_branch_runs_use_no_displacement_engine(monkeypatch, ancilla):
    """The batched engine displaces ancilla modes in closed form
    (fock.displaced_levels) and the data mode by its phase and shift, so a
    branch run and a one-row replay build and apply no DisplacementEngine;
    only the dense oracle does."""
    def refuse(*args, **kwargs):
        raise AssertionError("a DisplacementEngine on the branch path")

    monkeypatch.setattr(fock.DisplacementEngine, "__init__", refuse)
    monkeypatch.setattr(fock.DisplacementEngine, "apply", refuse)
    p_phi = 0.1 if ancilla in ("bare", "three_qubit_phase") else 0.0
    plan = TrajectoryPlan(sigma=0.2, ancilla=ancilla, p_phi=p_phi, n_trajectories=40,
                          root_seed=3, zeta=optimal_zeta())
    branch_decomposition_run(plan)
    trajectory_fidelity(plan, 5)


class TestLeakageGuard:
    """A sweep whose exact ancilla-mode displacements move more than
    fock.LEAKAGE_BUDGET of a level's population past the mode's dim warns
    once, whatever its chunk and point counts."""

    @pytest.mark.parametrize("ancilla", ["binomial_n3", "shor9"])
    def test_one_warning_per_run(self, chunk_budget, ancilla):
        chunk_budget(240)  # 30 rows: three binomial chunks of 10, fifteen shor9 ones of 2
        plan = TrajectoryPlan(sigma=3.0, ancilla=ancilla, n_trajectories=30, root_seed=1)
        with pytest.warns(fock.TruncationWarning, match="past the Fock cutoff") as caught:
            result = branch_decomposition_run(plan)
        assert [w.category for w in caught] == [fock.TruncationWarning]
        assert math.isfinite(result.infidelity.mean)

    @pytest.mark.parametrize("ancilla", ["binomial_n3", "shor9"])
    def test_one_warning_per_sweep(self, ancilla):
        """sigma 3 leaks and sigma 0.1 does not; their sweep runs in one
        pass and warns once."""
        plans = tuple(TrajectoryPlan(sigma=sigma, ancilla=ancilla, n_trajectories=30,
                                     root_seed=1) for sigma in (0.1, 3.0))
        with pytest.warns(fock.TruncationWarning, match="past the Fock cutoff") as caught:
            for plan in plans:
                branch_decomposition_run(plan, plans)
        assert [w.category for w in caught] == [fock.TruncationWarning]

    @pytest.mark.parametrize("ancilla, sigma", [
        ("binomial_n3", 0.1), ("binomial_n3", 0.2), ("shor9", 0.1), ("shor9", 0.25)])
    def test_silent_at_the_figure_sigmas(self, ancilla, sigma):
        plan = TrajectoryPlan(sigma=sigma, ancilla=ancilla, n_trajectories=400, root_seed=9,
                              zeta=optimal_zeta())
        with warnings.catch_warnings():
            warnings.simplefilter("error", fock.TruncationWarning)
            branch_decomposition_run(plan)


class TestReproducibility:
    def test_same_seed_same_result(self):
        plan = TrajectoryPlan(sigma=0.1, ancilla="bare", p_phi=0.02,
                              n_trajectories=200, root_seed=42)
        a = branch_decomposition_run(plan)
        b = branch_decomposition_run(plan)
        assert a.infidelity.mean == b.infidelity.mean
        assert a.infidelity.std_error == b.infidelity.std_error

    def test_different_seeds_differ(self):
        base = TrajectoryPlan(sigma=0.1, n_trajectories=200, root_seed=0)
        other = TrajectoryPlan(sigma=0.1, n_trajectories=200, root_seed=1)
        assert (branch_decomposition_run(base).infidelity.mean
                != branch_decomposition_run(other).infidelity.mean)

    def test_thread_count_does_not_change_result(self):
        """The run in two fresh interpreters, with OpenBLAS on one thread
        and on two, gives the same result to the last bit."""
        src = str(Path(montecarlo.__file__).resolve().parent.parent)
        code = ("from cvqec.montecarlo import TrajectoryPlan, branch_decomposition_run\n"
                "print(repr(branch_decomposition_run(TrajectoryPlan(\n"
                "    sigma=0.1, ancilla='three_qubit_phase', n_trajectories=64, root_seed=9))))")
        printed = []
        for threads in ("1", "2"):
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  env={**os.environ, "PYTHONPATH": src,
                                       "OPENBLAS_NUM_THREADS": threads}, timeout=120)
            assert proc.returncode == 0, proc.stderr
            printed.append(proc.stdout)
        assert printed[0].startswith("RunResult(") and printed[0] == printed[1]

    # Per-trajectory values of a sweep's distinct rows; the CSV's %.9g would
    # hide a last-bit change.  A chunk holds max(1, budget // slot size)
    # rows, so the 300-row bare leg runs chunks of 1, 7, 1024 and all rows,
    # the phase-code leg chunks of 1, 1, 256 and all rows, the shor9 leg
    # chunks of 1, 1, 21 and 120 rows, and the binomial_n3 leg chunks of 1,
    # 1, 85 and 300 rows.  Budget 2**17 runs over 9000 rows as one chunk,
    # past the size from which numpy reuses a temporary operand's buffer
    # for a product.
    @pytest.mark.parametrize("ancilla, n, sigma, points, budgets", [
        pytest.param(ancilla, 300, 0.15, (0.0, 0.05, 0.1, 0.2), (1, 14, 2048, 65536),
                     id=ancilla)
        for ancilla in ("bare", "three_qubit_phase")] + [
        pytest.param(ancilla, 9000, 0.15, (0.0, 0.1), (2048, 1 << 17), id=f"{ancilla}-large")
        for ancilla in ("bare", "three_qubit_phase")] + [
        pytest.param(ancilla, n, 0.2, (0.0,), (1, 14, 2048, 16384, 65536), id=ancilla)
        for ancilla, n in (("shor9", 120), ("binomial_n3", 300))])
    def test_chunk_budget_does_not_change_rows(self, chunk_budget, ancilla, n, sigma, points,
                                               budgets):
        base = TrajectoryPlan(sigma=sigma, ancilla=ancilla, n_trajectories=n,
                              root_seed=11, zeta=optimal_zeta())
        rows = []
        plans = tuple(dataclasses.replace(base, p_phi=p) for p in points)
        for budget in budgets:
            chunk_budget(budget)
            parts, _ = _sweep_rows(plans)
            rows.append(b"".join(part.tobytes() for part in parts))
        assert rows == [rows[0]] * len(budgets)

    @pytest.mark.parametrize("ancilla, sigma, n", [
        pytest.param(ancilla, sigma, n, id=ancilla) for ancilla, sigma, n in (
            ("perfect", 0.15, 300), ("bare", 0.15, 300), ("three_qubit_phase", 0.15, 300),
            ("binomial_n3", 0.2, 300), ("shor9", 0.25, 120))])
    def test_replays_equal_run_rows(self, monkeypatch, ancilla, sigma, n):
        # A trajectory replayed alone is a one-row chunk, and its value is
        # its row's in the run, bit for bit.
        p_phi = 0.1 if ancilla in ("bare", "three_qubit_phase") else 0.0
        plan = TrajectoryPlan(sigma=sigma, ancilla=ancilla, p_phi=p_phi,
                              n_trajectories=n, root_seed=11, zeta=optimal_zeta())
        run_chunk, values = montecarlo._run_chunk, []

        def recording(*args):
            result = run_chunk(*args)
            values.extend(result[0].tolist())
            return result

        monkeypatch.setattr(montecarlo, "_run_chunk", recording)
        branch_decomposition_run(plan)
        assert len(values) == n
        for index in range(n):
            assert trajectory_fidelity(plan, index, "branch") == 1.0 - values[index]


def _assert_stream(rng, root_seed, index):
    """rng is at the start of the stream of SeedSequence([root_seed, index]):
    same PCG64 state, then the same 2 normals and 5 uniforms bit for bit."""
    ref = np.random.default_rng(np.random.SeedSequence([root_seed, index]))
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rng.standard_normal(2).tobytes() == ref.standard_normal(2).tobytes()
    assert rng.random(5).tobytes() == ref.random(5).tobytes()


_EDGE_PAIRS = [(r, i) for r in (0, 1, 12345, 2**31 + 7)
               for i in (0, 1, 999, 2**31, 2**32 - 1)]
_RANDOM_PAIRS = [tuple(map(int, pair)) for pair in
                 np.random.default_rng(2024).integers(0, 2**32, size=(40, 2))]


class TestSeeding:
    """Bulk seeding and draws against numpy's own
    default_rng(SeedSequence(...))."""

    @staticmethod
    def _generator(state, inc):
        bitgen = np.random.PCG64(0)
        bitgen.state = {"bit_generator": "PCG64",
                        "state": {"state": state, "inc": inc},
                        "has_uint32": 0, "uinteger": 0}
        return np.random.Generator(bitgen)

    @staticmethod
    def _bulk_states(root_seed, start, stop):
        """_pcg64_states as (state, inc) ints, one pair per index."""
        state, inc = _pcg64_states(root_seed, start, stop)
        return [(_int128(state, r), _int128(inc, r)) for r in range(stop - start)]

    @staticmethod
    def _assert_draws(root_seed, kind, start, stop):
        """_standard_draws equals the row-by-row oracle byte for byte;
        returns the oracle's per-row fast-path flags."""
        *want, fast = standard_draws(root_seed, kind, start, stop)
        for got, ref in zip(_standard_draws(root_seed, kind, start, stop), want):
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        return fast

    @pytest.mark.parametrize("root_seed, index", _EDGE_PAIRS + _RANDOM_PAIRS)
    def test_bulk_state_matches_seed_sequence(self, root_seed, index):
        (state, inc), = self._bulk_states(root_seed, index, index + 1)
        _assert_stream(self._generator(state, inc), root_seed, index)

    @pytest.mark.parametrize("root_seed, start", [(0, 0), (7, 2**32 - 40), (2**32 - 1, 5)])
    def test_bulk_run_of_indices(self, root_seed, start):
        states = self._bulk_states(root_seed, start, start + 40)
        for offset, (state, inc) in enumerate(states):
            _assert_stream(self._generator(state, inc), root_seed, start + offset)

    @pytest.mark.parametrize("root_seed, start", [(3, 0), (2**32 - 1, 2**32 - 3)])
    def test_streams_take_the_bulk_path(self, monkeypatch, root_seed, start):
        calls = []
        bulk = montecarlo._pcg64_states
        monkeypatch.setattr(montecarlo, "_pcg64_states",
                            lambda *args: calls.append(args) or bulk(*args))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kind in ANCILLA_KINDS:
                self._assert_draws(root_seed, kind, start, start + 3)
        assert len(calls) == len(ANCILLA_KINDS)

    @pytest.mark.parametrize("root_seed, start", [(2**32, 0), (5, 2**32), (5, 2**32 - 1)])
    def test_fallback_past_one_word(self, monkeypatch, root_seed, start):
        # past 2**32 SeedSequence takes more entropy words than bulk seeding
        # models, so every row must draw from default_rng
        def no_bulk(*args):
            raise AssertionError("bulk seeding used past one 32-bit word")

        monkeypatch.setattr(montecarlo, "_pcg64_states", no_bulk)
        for kind in ANCILLA_KINDS:
            self._assert_draws(root_seed, kind, start, start + 2)

    def test_guard_falls_back_on_mismatch(self, monkeypatch):
        wrong = montecarlo._HASH_B.copy()
        wrong[3] += np.uint32(1)
        with monkeypatch.context() as patch:
            patch.setattr(montecarlo, "_HASH_B", wrong)
            with pytest.warns(RuntimeWarning, match="bulk PCG64 seeding"):
                self._assert_draws(11, "bare", 4, 7)
        # a wrong layer width that the first row's first normal uses on the
        # fast path
        ki, wi = montecarlo._ziggurat()
        r = int(montecarlo._rng(11, 4).bit_generator.random_raw())
        idx, rabs = r & 0xFF, r >> 9 & (1 << 52) - 1
        assert rabs < ki[idx]
        wi = wi.copy()
        wi[idx] = np.nextafter(wi[idx], 1.0)
        monkeypatch.setattr(montecarlo, "_ziggurat", lambda: (ki, wi))
        with pytest.warns(RuntimeWarning, match="bulk PCG64 seeding"):
            self._assert_draws(11, "bare", 4, 7)

    def test_ziggurat_tables_match_numpy(self):
        ki, wi = ziggurat_tables()
        shipped_ki, shipped_wi = montecarlo._ziggurat()
        assert ki[1] == 0
        assert np.array_equal(ki, shipped_ki)
        assert wi.astype("<f8").tobytes() == shipped_wi.astype("<f8").tobytes()

    @pytest.mark.parametrize("kind", ANCILLA_KINDS)
    def test_draws_match_default_rng(self, kind):
        """Bulk runs at edge seeds and indices and single rows, byte for
        byte; the rows include rows on the fast path and rows redrawn off
        it (test_fallback_past_one_word covers the per-row path)."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fast = np.concatenate([
                self._assert_draws(root_seed, kind, start, start + n)
                for root_seed, start, n in [(0, 0, 300), (2**32 - 1, 2**32 - 60, 60),
                                            (123456, 5, 1), (7, 2**32 - 1, 1)]])
        assert fast.any() and not fast.all()

    def test_negative_seed_is_a_numerical_failure(self, tmp_path, capsys):
        assert main(["fig4", "--trajectories", "5", "--points", "0.05",
                     "--seed", "-1", "--out", str(tmp_path)]) == 3
        assert "expected non-negative integer" in capsys.readouterr().err


class TestSweepSharing:
    """A sweep runs its distinct rows in one pass (_sweep_rows), from one
    set of standard draws, and each point equals its own run."""

    # chunks at a budget of 2048
    @pytest.mark.parametrize("ancilla, field, points, n", [
        ("bare", "p_phi", (0.0, 0.05, 0.2), 300),
        ("three_qubit_phase", "p_phi", (0.0, 0.05, 0.2), 300),
        ("binomial_n3", "sigma", (0.1, 0.15), 200),  # chunks of 85, 85, 85, 85, 60
        ("shor9", "sigma", (0.1, 0.15), 8),          # one chunk
        ("shor9", "sigma", (0.1, 0.15), 45),         # chunks of 21, the third of both sigmas
        ("shor9", "sigma", (0.1, 0.15, 0.2), 50),    # chunks of 21, the tail of 3
    ])
    def test_shared_draws_match_fresh_runs(self, monkeypatch, chunk_budget, ancilla, field,
                                           points, n):
        chunk_budget(2048)
        base = TrajectoryPlan(sigma=0.1, ancilla=ancilla, n_trajectories=n,
                              root_seed=13, zeta=optimal_zeta())
        plans = tuple(dataclasses.replace(base, **{field: x}) for x in points)
        calls, standard_draws = [], montecarlo._standard_draws
        monkeypatch.setattr(montecarlo, "_standard_draws",
                            lambda *args: calls.append(args) or standard_draws(*args))
        shared = [branch_decomposition_run(plan, plans) for plan in plans]
        assert calls == [(13, ancilla, 0, n)]
        for plan, result in zip(plans, shared):
            assert branch_decomposition_run(plan) == result

    @pytest.mark.parametrize("ancilla, n, sizes", [
        ("shor9", 50, [150]), ("binomial_n3", 400, [682, 518])])
    def test_sigma_sweep_chunks(self, monkeypatch, ancilla, n, sizes):
        """The three points of a sigma sweep fill chunks of the kind's
        chunk_size together: 3 x 50 shor9 rows run as one chunk."""
        plans = tuple(TrajectoryPlan(sigma=sigma, ancilla=ancilla, n_trajectories=n,
                                     root_seed=3) for sigma in (0.1, 0.15, 0.2))
        run_chunk, lengths = montecarlo._run_chunk, []

        def recording(ctx, data, *args):
            lengths.append(len(data))
            return run_chunk(ctx, data, *args)

        monkeypatch.setattr(montecarlo, "_run_chunk", recording)
        branch_decomposition_run(plans[0], plans)
        assert lengths == sizes

    # the first two sweeps end in a one-row chunk at a budget of 2048: 257
    # distinct rows in chunks of 256, 1025 in chunks of 1024; the bosonic
    # sigma sweeps over (0.1, 0.15) too: 64 rows in chunks of 21, the
    # second of both sigmas, and 86 in chunks of 85, the first of both
    @pytest.mark.parametrize("state_kind", ["coherent", "fock1"])
    @pytest.mark.parametrize("ancilla, seed, n, one_row_tail", [
        ("three_qubit_phase", 0, 164, True), ("bare", 0, 865, True),
        ("three_qubit_phase", 5, 300, False), ("bare", 5, 160, False),
        ("shor9", 0, 32, True), ("binomial_n3", 5, 43, True),
    ])
    def test_sweep_equals_single_runs(self, chunk_budget, ancilla, seed, n, one_row_tail,
                                      state_kind):
        if one_row_tail:
            chunk_budget(2048)
        base = TrajectoryPlan(sigma=0.1, ancilla=ancilla, n_trajectories=n, root_seed=seed,
                              zeta=optimal_zeta(), state_kind=state_kind)
        if ancilla in ("binomial_n3", "shor9"):
            plans = tuple(dataclasses.replace(base, sigma=s) for s in (0.1, 0.15))
        else:
            plans = tuple(dataclasses.replace(base, p_phi=p)
                          for p in (0.0, 0.01, 0.02, 0.05, 0.1, 0.15, 0.2))
        swept = [branch_decomposition_run(plan, plans) for plan in plans]
        info = _sweep_rows.cache_info()
        assert (info.misses, info.hits) == (1, len(plans) - 1)
        distinct = len(_sweep_rows(plans)[0][0])
        assert (distinct % _Context(base).chunk_size == 1) == one_row_tail
        for plan, result in zip(plans, swept):
            assert branch_decomposition_run(plan) == result

    def test_sweep_rejects_dephasing_of_bosonic_plan(self):
        plan = TrajectoryPlan(sigma=0.1, ancilla="binomial_n3", n_trajectories=4)
        with pytest.raises(ValueError, match="dephasing rate"):
            branch_decomposition_run(plan, sweep=(plan, dataclasses.replace(plan, p_phi=0.1)))

    @pytest.mark.parametrize("field, value", [
        ("ancilla", "bare"), ("n_trajectories", 5), ("root_seed", 1), ("zeta", 0.1),
        ("state_kind", "fock1"), ("coherent_amplitude", 0.5j)])
    def test_sweep_rejects_plans_that_differ_elsewhere(self, field, value):
        plan = TrajectoryPlan(sigma=0.1, ancilla="three_qubit_phase", n_trajectories=4)
        sweep = (plan, dataclasses.replace(plan, sigma=0.2, p_phi=0.1, **{field: value}))
        with pytest.raises(ValueError, match="differ only in sigma and p_phi"):
            branch_decomposition_run(plan, sweep)

    def test_single_trajectory_past_the_run(self):
        plan = TrajectoryPlan(sigma=0.15, ancilla="three_qubit_phase", p_phi=0.1,
                              n_trajectories=4, root_seed=5)
        for index in (4, 2**32 + 1):
            fb = trajectory_fidelity(plan, index, engine="branch")
            fd = trajectory_fidelity(plan, index, engine="dense")
            assert fb == pytest.approx(fd, abs=1e-9)


def _flip_mixture(plan, p_l):
    """Exact infidelity when a Z (bare qubit) or logical Z (phase code),
    with probability p_l, only flips the +/-Y outcome: the run mixes the
    squeezed-scheme noise with its sign-flipped mirror."""
    noise = run_squeezed_scheme(plan.sigma, plan.effective_alpha, plan.zeta)
    flipped = dataclasses.replace(noise, p=dataclasses.replace(
        noise.p, branches=tuple(dataclasses.replace(b, mean=-b.mean)
                                for b in noise.p.branches)))
    return ((1 - p_l) * exact_infidelity(plan.state_kind, noise)
            + p_l * exact_infidelity(plan.state_kind, flipped))


class TestStatistics:
    def test_perfect_ancilla_matches_exact(self):
        sigma = 0.1
        plan = TrajectoryPlan(sigma=sigma, ancilla="perfect",
                              n_trajectories=20000, root_seed=3)
        result = branch_decomposition_run(plan)
        exact = exact_infidelity(
            "coherent", run_qubit_p_scheme(sigma, plan.effective_alpha))
        err = max(result.infidelity.std_error, 1e-12)
        assert abs(result.infidelity.mean - exact) < 3 * err

    def test_three_qubit_noiseless_matches_perfect(self):
        sigma = 0.1
        n = 4000
        perfect = branch_decomposition_run(
            TrajectoryPlan(sigma=sigma, ancilla="perfect", n_trajectories=n,
                           root_seed=17))
        coded = branch_decomposition_run(
            TrajectoryPlan(sigma=sigma, ancilla="three_qubit_phase", p_phi=0.0,
                           n_trajectories=n, root_seed=17))
        err = math.hypot(perfect.infidelity.std_error, coded.infidelity.std_error)
        assert abs(perfect.infidelity.mean - coded.infidelity.mean) < 3 * err
        assert coded.unrecoverable_count == 0
        assert coded.complement_count == 0

    def test_encoding_beats_bare_under_dephasing(self):
        sigma, p_phi, n = 0.1, 0.1, 8000
        bare = branch_decomposition_run(
            TrajectoryPlan(sigma=sigma, ancilla="bare", p_phi=p_phi,
                           n_trajectories=n, root_seed=23))
        coded = branch_decomposition_run(
            TrajectoryPlan(sigma=sigma, ancilla="three_qubit_phase", p_phi=p_phi,
                           n_trajectories=n, root_seed=23))
        err = math.hypot(bare.infidelity.std_error, coded.infidelity.std_error)
        assert coded.infidelity.mean < bare.infidelity.mean - err

    @pytest.mark.parametrize("state_kind", ["coherent", "fock1"])
    @pytest.mark.parametrize("ancilla, p_phi", [("bare", 0.1),
                                                ("three_qubit_phase", 0.2)])
    def test_dephasing_matches_closed_form(self, ancilla, p_phi, state_kind):
        sigma, zeta = 0.1, optimal_zeta()
        plan = TrajectoryPlan(sigma=sigma, ancilla=ancilla, p_phi=p_phi,
                              n_trajectories=4000, root_seed=11, zeta=zeta,
                              state_kind=state_kind)
        p_l = p_phi if ancilla == "bare" else 3 * p_phi**2 - 2 * p_phi**3
        exact = _flip_mixture(plan, p_l)
        result = branch_decomposition_run(plan).infidelity
        assert abs(result.mean - exact) < 5 * result.std_error

    @pytest.mark.parametrize("state_kind", ["coherent", "fock1"])
    def test_three_qubit_logical_rate(self, state_kind):
        # enough trajectories to tell p_L = 3p^2 - 2p^3 from p_L = p at p = 0.2
        sigma, zeta, p_phi = 0.1, optimal_zeta(), 0.2
        plan = TrajectoryPlan(sigma=sigma, ancilla="three_qubit_phase", p_phi=p_phi,
                              n_trajectories=20000, root_seed=11, zeta=zeta,
                              state_kind=state_kind)
        result = branch_decomposition_run(plan).infidelity
        right = _flip_mixture(plan, 3 * p_phi**2 - 2 * p_phi**3)
        assert abs(result.mean - right) < 5 * result.std_error
        assert abs(result.mean - _flip_mixture(plan, p_phi)) > 5 * result.std_error

    def test_amplitude_independence(self):
        # for coherent inputs the whole circuit commutes with the initial
        # displacement, so the infidelity samples cannot depend on it
        sigma, n = 0.1, 500
        at_zero = branch_decomposition_run(
            TrajectoryPlan(sigma=sigma, n_trajectories=n, root_seed=6))
        displaced = branch_decomposition_run(
            TrajectoryPlan(sigma=sigma, n_trajectories=n, root_seed=6,
                           coherent_amplitude=1.5))
        assert at_zero.infidelity.mean == pytest.approx(
            displaced.infidelity.mean, abs=1e-7)


class TestQubitVarianceEstimator:
    def test_matches_closed_form(self):
        sigma = 0.1
        alpha = optimal_alpha_qubit(sigma)
        est = estimate_qubit_var_p(sigma, alpha, n_trajectories=10**5, root_seed=1)
        expect = run_qubit_p_scheme(sigma, alpha).var_p
        assert abs(est.mean - expect) < 3 * est.std_error

    def test_fock_engine_agrees_with_analytic(self):
        sigma, n = 0.1, 20000
        alpha = optimal_alpha_qubit(sigma)
        est = estimate_qubit_var_p(sigma, alpha, n_trajectories=n, root_seed=4)
        # the estimator's draws, with outcome probabilities from Fock vectors
        rng = np.random.default_rng(np.random.SeedSequence([4]))
        bp = rng.normal(0.0, sigma / math.sqrt(2.0), size=n)
        u = rng.random(n)
        sign = np.where(u < fock_outcome_probabilities(alpha, bp), 1.0, -1.0)
        residual = bp - sign * qubit_outcome_mean(sigma, alpha)
        # same draws, probabilities equal to rounding: identical outcomes
        assert est.mean == pytest.approx(np.mean(residual * residual), abs=1e-12)

    def test_zero_drive_gives_raw_variance(self):
        sigma = 0.1
        est = estimate_qubit_var_p(sigma, 0.0, n_trajectories=10**5, root_seed=2)
        assert abs(est.mean - 0.5 * sigma**2) < 3 * est.std_error
