"""The exact density-matrix execution engine ("density" in the registry).

Covers end-to-end noiseless agreement with the dense engine, exact channel
integration vs the Monte-Carlo trajectory estimator (the E21 certification
claim: agreement within ~3 standard errors), non-Pauli channels, the
Choi-state determinism check, solver wiring, the batched trajectory
sampler (seeded records bit-identical across shot chunkings, each shot's
state the exact conditional state of its record), and the frontier
integrator against the naive oracle (``tests/oracle.py``).
"""

import itertools

import numpy as np
import pytest
from oracle import oracle_run
from patterns import j_chain, j_pattern
from stat_helpers import (
    assert_mean_within_sigma,
    assert_rows_within_sigma,
)

from repro.analysis import estimate_compiled
from repro.core import compile_qaoa_pattern
from repro.core.solver import MBQCQAOASolver
from repro.core.verify import check_pattern_determinism
from repro.exec import supervised_integrate
from repro.linalg import allclose_up_to_global_phase
from repro.mbqc import (
    Pattern,
    available_backends,
    compile_pattern,
    get_backend,
    run_pattern,
    select_backend,
)
from repro.mbqc.channels import Channel, ChannelNoiseModel
from repro.mbqc.compile import lower_noise
from repro.mbqc.noise import NoiseModel, average_fidelity
from repro.mbqc.pattern import PatternError
from repro.mbqc.runner import pattern_to_matrix
from repro.problems import MaxCut
from repro.sim import ZeroProbabilityBranch


class TestRegistry:
    def test_registered(self):
        assert "density" in available_backends()
        assert get_backend("density").name == "density"

    def test_supports_within_reach(self):
        compiled = compile_pattern(j_pattern(0.3))
        assert get_backend("density").supports(compiled)

    def test_auto_dispatch_picks_density_for_non_pauli(self):
        compiled = lower_noise(
            compile_pattern(j_pattern(0.3)),
            ChannelNoiseModel(prep=Channel.amplitude_damping(0.2)),
        )
        assert select_backend(compiled).name == "density"


class TestNoiselessAgreement:
    def test_run_pattern_matches_statevector(self):
        for alpha in (0.3, 1.1):
            p = j_pattern(alpha)
            ref = run_pattern(p, seed=0, forced_outcomes={0: 1}).state_array()
            got = run_pattern(
                p, seed=0, forced_outcomes={0: 1}, backend="density"
            ).state_array()
            assert allclose_up_to_global_phase(got, ref, atol=1e-9)

    def test_branch_batch_matches_statevector(self):
        p = j_chain([0.4, 0.9])
        compiled = compile_pattern(p)
        inputs = np.eye(2, dtype=complex)
        for branch in ({0: 0, 1: 0}, {0: 1, 1: 0}, {0: 1, 1: 1}):
            dense = get_backend("statevector").run_branch_batch(
                compiled, inputs, branch
            )
            dm = get_backend("density").run_branch_batch(compiled, inputs, branch)
            assert np.allclose(dense.weights, dm.weights, atol=1e-9)
            for j in range(2):
                assert allclose_up_to_global_phase(
                    dense.dense_states()[j], dm.dense_states()[j], atol=1e-9
                )

    def test_pattern_to_matrix_columns(self):
        p = j_pattern(0.7)
        m_sv = pattern_to_matrix(p, {0: 0})
        m_dm = pattern_to_matrix(p, {0: 0}, backend="density")
        for j in range(2):
            assert allclose_up_to_global_phase(m_sv[:, j], m_dm[:, j], atol=1e-9)

    def test_integrate_noiseless_is_ideal_pure_state(self):
        compiled = compile_qaoa_pattern(MaxCut.ring(3).to_qubo(), [0.4], [0.7])
        program = compiled.executable()
        run = get_backend("density").integrate(program)
        ideal = run_pattern(compiled.pattern, seed=0).state_array()
        assert run.fidelity_with_pure(ideal) == pytest.approx(1.0, abs=1e-9)
        assert run.rho.trace() == pytest.approx(1.0, abs=1e-9)

    def test_zero_probability_branch_raises(self):
        # A |0>-prepared node measured in Z can never give outcome 1.
        p = Pattern(output_nodes=[1])
        p.n(0, state="zero").n(1).m(0, "YZ", 0.0)
        compiled = compile_pattern(p)
        with pytest.raises(ZeroProbabilityBranch):
            get_backend("density").run_branch_batch(
                compiled, np.ones((1, 1), dtype=complex), {0: 1}
            )


class TestExactVsTrajectory:
    def test_depolarizing_convergence_3_sigma(self):
        """The E21 certification on a bench-E15-class pattern: the batched
        Monte-Carlo estimator at 1024 trajectories agrees with the exact
        channel integral within 3 standard errors."""
        compiled = compile_qaoa_pattern(MaxCut.ring(3).to_qubo(), [0.4], [0.7])
        noise = NoiseModel(p_prep=0.01, p_ent=0.01)
        exact = average_fidelity(compiled.pattern, noise, exact=True)
        program = compile_pattern(compiled.pattern)
        ideal = run_pattern(compiled.pattern, seed=0, compiled=program).state_array()
        ref = ideal / np.linalg.norm(ideal)
        run = get_backend("statevector").sample_batch(
            program, 1024, rng=7, noise=noise
        )
        fids = np.abs(run.dense_states() @ ref.conj()) ** 2
        assert_mean_within_sigma(fids, exact)

    def test_random_patterns_converge(self):
        """Property-style sweep: on small random j-chains with random
        channel rates, the trajectory estimate stays within 3 standard
        errors of the exact density-matrix fidelity."""
        for seed in range(4):
            rng = np.random.default_rng(seed)
            alphas = rng.uniform(-np.pi, np.pi, size=int(rng.integers(2, 5)))
            noise = NoiseModel(
                p_prep=float(rng.uniform(0, 0.05)),
                p_ent=float(rng.uniform(0, 0.05)),
                p_meas=float(rng.uniform(0, 0.05)),
            )
            pattern = j_chain(list(alphas))
            exact = average_fidelity(pattern, noise, exact=True)
            program = compile_pattern(pattern)
            ideal = run_pattern(pattern, seed=0, compiled=program).state_array()
            ref = ideal / np.linalg.norm(ideal)
            run = get_backend("statevector").sample_batch(
                program, 1500, rng=seed + 100, noise=noise
            )
            fids = np.abs(run.dense_states() @ ref.conj()) ** 2
            assert_mean_within_sigma(fids, exact, context=f"seed {seed}")

    def test_readout_flips_integrate_exactly(self):
        """Readout flips branch the classical record: the exact integral
        still matches a large trajectory average."""
        pattern = j_chain([0.5, -0.8])
        noise = NoiseModel(p_meas=0.15)
        exact = average_fidelity(pattern, noise, exact=True)
        traj = average_fidelity(pattern, noise, trajectories=20000, seed=5)
        assert exact == pytest.approx(traj, abs=0.01)
        assert exact < 1.0

    def test_density_sample_batch_is_unbiased_estimator(self):
        """Trajectories on the density engine itself (sampled outcomes,
        exact channels) also average to the exact fidelity."""
        pattern = j_pattern(0.9)
        noise = NoiseModel(p_prep=0.1, p_ent=0.1)
        exact = average_fidelity(pattern, noise, exact=True)
        traj = average_fidelity(
            pattern, noise, trajectories=400, seed=11, backend="density"
        )
        # Exact channels shrink per-shot variance: loose 3σ-style bound.
        assert traj == pytest.approx(exact, abs=0.05)


class TestNonPauliChannels:
    def test_amplitude_damping_exact(self):
        """Amplitude damping has no Pauli trajectory sampler: the exact
        path integrates it, automatic dispatch routes the trajectory path
        to the density engine (exact channels, sampled outcomes), and an
        explicit trajectory backend fails loudly."""
        pattern = j_chain([0.6])
        model = ChannelNoiseModel(prep=Channel.amplitude_damping(0.3))
        f = average_fidelity(pattern, model, exact=True)
        assert 0.5 < f < 1.0
        f_auto = average_fidelity(pattern, model, trajectories=64, seed=1)
        assert f_auto == pytest.approx(f, abs=0.1)
        with pytest.raises(PatternError):
            average_fidelity(
                pattern, model, trajectories=8, backend="statevector"
            )

    def test_solver_auto_routes_non_pauli_noise(self):
        """The variational loop works with non-Pauli noise and the default
        backend: lowering happens before dispatch, so auto-selection lands
        on the density engine."""
        solver = MBQCQAOASolver(
            MaxCut.ring(3).to_qubo(), p=1, shots=16, runs_per_batch=2,
            seed=0, noise=ChannelNoiseModel(prep=Channel.amplitude_damping(0.1)),
        )
        batch = solver.sample([0.4], [0.7])
        assert batch.bitstrings.shape == (16,)

    def test_dephasing_channel_model(self):
        pattern = j_pattern(0.4)
        model = ChannelNoiseModel(ent=Channel.dephasing(0.2))
        exact = average_fidelity(pattern, model, exact=True)
        traj = average_fidelity(pattern, model, trajectories=20000, seed=3)
        assert exact == pytest.approx(traj, abs=0.01)


class TestDeterminismChoi:
    def test_deterministic_with_inputs(self):
        assert check_pattern_determinism(j_chain([0.4, 1.2]), backend="density")

    def test_deterministic_qaoa_pattern(self):
        compiled = compile_qaoa_pattern(MaxCut.ring(3).to_qubo(), [0.3], [0.5])
        assert check_pattern_determinism(
            compiled.pattern, max_branches=16, seed=0, backend="density"
        )

    def test_broken_pattern_detected(self):
        # Dropping the X correction makes the branch maps differ.
        p = Pattern(input_nodes=[0], output_nodes=[1])
        p.n(1).e(0, 1).m(0, "XY", -0.7)
        assert not check_pattern_determinism(p, backend="density")

    def test_deep_measured_set_compares_relatively(self):
        """48 measured nodes give branch weights ~2^-48: the weight
        comparison must be relative, not absolute, or every branch would
        be skipped/vacuous (regression for the linear-domain cutoff)."""
        compiled = compile_qaoa_pattern(
            MaxCut.ring(8).to_qubo(), [0.0, 0.0], [0.0, 0.0]
        )
        assert check_pattern_determinism(
            compiled.pattern, max_branches=2, seed=0, backend="density"
        )


class TestSolverWiring:
    def test_exact_expectation_matches_ideal_distribution(self):
        qubo = MaxCut.ring(3).to_qubo()
        solver = MBQCQAOASolver(qubo, p=1, shots=16, seed=0)
        gammas, betas = [0.4], [0.7]
        exact = solver.exact_expectation(gammas, betas)
        compiled = compile_qaoa_pattern(qubo, gammas, betas)
        state = run_pattern(compiled.pattern, seed=1).state_array()
        probs = np.abs(state) ** 2
        probs /= probs.sum()
        assert exact == pytest.approx(float(probs @ qubo.cost_vector()), abs=1e-9)

    def test_exact_expectation_with_noise_brackets_sampling(self):
        qubo = MaxCut.ring(3).to_qubo()
        noise = NoiseModel(p_prep=0.05, p_ent=0.05)
        solver = MBQCQAOASolver(
            qubo, p=1, shots=2048, runs_per_batch=64, noise=noise, seed=2
        )
        gammas, betas = [0.4], [0.7]
        exact = solver.exact_expectation(gammas, betas)
        sampled = solver.expectation(gammas, betas)
        assert sampled == pytest.approx(exact, abs=0.15)

    def test_solver_runs_on_density_backend(self):
        qubo = MaxCut.ring(3).to_qubo()
        solver = MBQCQAOASolver(
            qubo, p=1, shots=32, runs_per_batch=4, seed=0,
            noise=NoiseModel(p_ent=0.05), backend="density",
        )
        batch = solver.sample([0.4], [0.7])
        assert batch.bitstrings.shape == (32,)


class TestBatchedDensitySampler:
    """The batched density sampler: same seed, same whole-block draw
    schedule — outcome records must agree **bit for bit** between the
    whole-block sweep and one resident shot at a time
    (``max_block_bytes=1``), and on flip-free programs every shot's output
    must be the exact conditional state of its record, as the
    forced-branch kernel (``run_branch_batch``) computes it."""

    def _both_paths(self, compiled, n_shots, seed, noise=None, forced=None):
        dm = get_backend("density")
        vec = dm.sample_batch(
            compiled, n_shots, rng=np.random.default_rng(seed), noise=noise,
            forced_outcomes=forced, keep_raw=True,
        )
        loop = dm.sample_batch(
            compiled, n_shots, rng=np.random.default_rng(seed), noise=noise,
            forced_outcomes=forced, keep_raw=True, max_block_bytes=1,
        )
        program = lower_noise(compiled, noise) if noise is not None else compiled
        return program, vec, loop

    def _assert_identical(self, program, vec, loop):
        assert np.array_equal(vec.outcomes, loop.outcomes)
        assert len(vec.raw) == len(loop.raw)
        for a, b in zip(vec.raw, loop.raw):
            assert np.allclose(a.rho.to_matrix(), b.rho.to_matrix(), atol=1e-12)
        if any(getattr(op, "flip_p", 0.0) > 0.0 for op in program.ops):
            # A flipped shot's state follows its hidden true outcome, not
            # the record-conditional mixture a forced branch computes.
            return
        dm = get_backend("density")
        k = program.num_inputs
        row = np.ones((1, 1 << k), dtype=complex) / np.sqrt(1 << k)
        for record, out in zip(vec.outcome_dicts(), vec.raw):
            ref = dm.run_branch_batch(program, row, record).raw[0]
            assert np.allclose(
                out.rho.to_matrix(), ref.rho.to_matrix(), atol=1e-9
            )

    def test_noiseless_chain_bit_identical(self):
        c = compile_pattern(j_chain([0.4, -1.1, 0.8]))
        program, vec, loop = self._both_paths(c, 33, seed=2)
        self._assert_identical(program, vec, loop)
        # Generic angles randomize outcomes; the check must bite.
        assert 0.0 < vec.outcomes.mean() < 1.0

    def test_qaoa_ring_bit_identical(self):
        c = compile_pattern(
            compile_qaoa_pattern(MaxCut.ring(3).to_qubo(), [0.4], [0.7]).pattern
        )
        program, vec, loop = self._both_paths(c, 40, seed=9)
        self._assert_identical(program, vec, loop)

    def test_bit_identical_under_pauli_channels_and_flips(self):
        """Readout flips and depolarizing channels ride the same draw
        schedule on both paths (channels are exact — only measurements and
        flips consume randomness)."""
        c = compile_pattern(
            compile_qaoa_pattern(MaxCut.ring(3).to_qubo(), [0.4], [0.7]).pattern
        )
        noise = NoiseModel(p_prep=0.1, p_ent=0.05, p_meas=0.2)
        program, vec, loop = self._both_paths(c, 48, seed=17, noise=noise)
        self._assert_identical(program, vec, loop)

    def test_bit_identical_under_amplitude_damping(self):
        """Non-Pauli channels are the density engine's reason to exist: the
        batched Kraus einsum must still produce seeded bit-identical
        records, and exact conditional states."""
        model = ChannelNoiseModel(
            prep=Channel.amplitude_damping(0.25),
            ent=Channel.dephasing(0.1),
            meas_flip=0.15,
        )
        c = compile_pattern(j_chain([0.5, 1.3]))
        program, vec, loop = self._both_paths(c, 32, seed=23, noise=model)
        self._assert_identical(program, vec, loop)
        mixed = [out for out in vec.raw if out.rho.purity() < 1.0 - 1e-9]
        assert mixed, "damping should leave trajectory outputs mixed"

    def test_forced_subset_bit_identical(self):
        """Pinning a subset of outcomes skips those draws identically at
        every chunking; the rest stay sampled."""
        c = compile_pattern(j_chain([0.4, -0.9, 1.2]))
        node = c.measured_nodes[1]
        program, vec, loop = self._both_paths(c, 21, seed=31, forced={node: 1})
        self._assert_identical(program, vec, loop)
        i = c.measured_nodes.index(node)
        assert np.all(vec.outcomes[:, i] == 1)

    def test_forced_all_equals_branch_run(self):
        """Pinning every outcome makes sample_batch a (normalized) branch
        run — per-shot states must match run_branch_batch at every
        chunking."""
        c = compile_pattern(j_chain([0.7, 0.3]))
        branch = {n: 0 for n in c.measured_nodes}
        dm = get_backend("density")
        plus_row = np.ones((1, 2), dtype=complex) / np.sqrt(2)
        forced = dm.run_branch_batch(c, plus_row, branch)
        ref = forced.raw[0].rho.to_matrix()
        ref = ref / np.real(np.trace(ref))
        _, vec, loop = self._both_paths(c, 3, seed=1, forced=branch)
        for run in (vec, loop):
            assert np.array_equal(
                run.outcomes,
                np.tile([branch[n] for n in c.measured_nodes], (3, 1)),
            )
            for out in run.raw:
                assert np.allclose(out.rho.to_matrix(), ref, atol=1e-9)

    def test_forced_zero_probability_raises_on_both_paths(self):
        p = Pattern(output_nodes=[1])
        p.n(0, state="zero").n(1).m(0, "YZ", 0.0)
        c = compile_pattern(p)
        dm = get_backend("density")
        for max_block_bytes in (None, 1):
            with pytest.raises(ZeroProbabilityBranch, match="node 0"):
                dm.sample_batch(
                    c, 3, rng=np.random.default_rng(0),
                    forced_outcomes={0: 1}, max_block_bytes=max_block_bytes,
                )

    def test_keep_raw_default_off(self):
        c = compile_pattern(j_pattern(0.4))
        run = get_backend("density").sample_batch(c, 4, rng=0)
        assert run.raw is None and run.states is None
        with pytest.raises(ValueError, match="keep_raw"):
            run.probability_rows()

    def test_trajectories_converge_to_exact_integration(self):
        """Cross-engine statistical regression (the E21 certification,
        generalized): batched density trajectories at 1024 shots converge
        to the exact branch-integrated probabilities within 3 standard
        errors, per basis state."""
        c = compile_pattern(j_chain([0.6, -1.0]))
        noise = NoiseModel(p_prep=0.05, p_ent=0.05, p_meas=0.1)
        program = lower_noise(c, noise)
        dm = get_backend("density")
        exact = dm.integrate(program).probabilities()
        run = dm.sample_batch(
            program, 1024, rng=np.random.default_rng(41), keep_raw=True
        )
        assert_rows_within_sigma(run.probability_rows(), exact)


class TestShotChunking:
    """Chunking the batched sweep against the memory budget must be
    invisible in the records: every chunk size replays the same whole-block
    draw schedule."""

    def _records(self, c, n_shots, seed, max_block_bytes=None, noise=None):
        return get_backend("density").sample_batch(
            c, n_shots, rng=np.random.default_rng(seed), noise=noise,
            keep_raw=True, max_block_bytes=max_block_bytes,
        )

    def _assert_identical(self, a, b):
        assert np.array_equal(a.outcomes, b.outcomes)
        assert len(a.raw) == len(b.raw)
        for x, y in zip(a.raw, b.raw):
            assert np.allclose(x.rho.to_matrix(), y.rho.to_matrix(), atol=1e-12)

    def test_indivisible_shot_count(self):
        """37 shots at a 5-shot chunk: full chunks plus a ragged tail."""
        c = compile_pattern(j_chain([0.4, 0.9]))
        noise = NoiseModel(p_ent=0.1, p_meas=0.1)
        per_shot = 16 * 4 ** c.max_live
        ref = self._records(c, 37, seed=3, noise=noise)
        chunked = self._records(
            c, 37, seed=3, noise=noise, max_block_bytes=5 * per_shot
        )
        self._assert_identical(ref, chunked)

    def test_chunk_size_one(self):
        c = compile_pattern(j_chain([0.4, 0.9]))
        ref = self._records(c, 7, seed=5)
        single = self._records(c, 7, seed=5, max_block_bytes=1)
        self._assert_identical(ref, single)

    def test_max_live_just_past_budget_degrades_to_single_shot(self):
        """A budget one byte short of one shot's tensor still runs (chunk
        clamps to 1) and stays seed-identical to the unchunked block."""
        c = compile_pattern(j_chain([0.8, -0.3]))
        per_shot = 16 * 4 ** c.max_live
        ref = self._records(c, 9, seed=7)
        tight = self._records(c, 9, seed=7, max_block_bytes=per_shot - 1)
        self._assert_identical(ref, tight)

    def test_chunked_matches_loop_path(self):
        """Chunk boundaries and one resident shot at a time (the per-shot
        loop shape) are the same stream."""
        c = compile_pattern(j_chain([0.2, 1.4, -0.6]))
        per_shot = 16 * 4 ** c.max_live
        chunked = self._records(c, 11, seed=13, max_block_bytes=2 * per_shot)
        loop = self._records(c, 11, seed=13, max_block_bytes=1)
        self._assert_identical(chunked, loop)


class TestGuards:
    def test_reach_guard(self):
        compiled = compile_qaoa_pattern(MaxCut.ring(12).to_qubo(), [0.3], [0.5])
        program = compiled.executable()
        if program.max_live > 10:
            with pytest.raises(PatternError, match="reach"):
                get_backend("density").integrate(program)

    def test_branch_budget_guard(self):
        compiled = compile_qaoa_pattern(MaxCut.ring(3).to_qubo(), [0.3], [0.5])
        program = compiled.executable()
        with pytest.raises(PatternError, match="branches"):
            get_backend("density").integrate(
                program, noise=NoiseModel(p_ent=0.01), max_branches=4
            )

    def test_mixed_output_refuses_densification(self):
        compiled = compile_pattern(j_pattern(0.4))
        run = get_backend("density").sample_batch(
            compiled, 2, rng=0, noise=NoiseModel(p_ent=0.4), keep_raw=True
        )
        rows = run.probability_rows()
        assert rows.shape == (2, 2)
        assert np.allclose(rows.sum(axis=1), 1.0)
        mixed = [out for out in run.raw if out.rho.purity() < 1.0 - 1e-6]
        if mixed:
            with pytest.raises(ValueError, match="mixed"):
                mixed[0].unit_statevector()


class TestFrontierIntegration:
    """The frontier integrator (live-parity merging + cross-branch
    batching) certified against the scalar branch-by-branch oracle."""

    def _both(self, program, **kw):
        return (
            oracle_run(program),
            get_backend("density").integrate(program, **kw),
        )

    def _ring_program(self, n=3, noise=None):
        program = compile_qaoa_pattern(
            MaxCut.ring(n).to_qubo(), [0.4], [0.7]
        ).executable()
        return lower_noise(program, noise) if noise else program

    def test_noiseless_matches_scalar(self):
        scalar, frontier = self._both(self._ring_program())
        assert np.abs(scalar.rho - frontier.rho.to_matrix()).max() < 1e-12
        # merging pays: the frontier peak sits strictly below the leaf count
        assert frontier.branches < len(scalar.branches)

    def test_channel_noise_matches_scalar(self):
        program = self._ring_program(noise=ChannelNoiseModel(
            prep=Channel.amplitude_damping(0.05), ent=Channel.dephasing(0.02)
        ))
        scalar, frontier = self._both(program)
        assert np.abs(scalar.rho - frontier.rho.to_matrix()).max() < 1e-12
        assert frontier.trace == pytest.approx(
            np.trace(scalar.rho).real, abs=1e-12
        )

    def test_readout_flips_match_scalar_without_quadrupling(self):
        base = compile_pattern(j_chain([0.4, 0.9, 1.3]))
        noisy = lower_noise(base, ChannelNoiseModel(meas_flip=0.08))
        scalar, frontier = self._both(noisy)
        assert np.abs(scalar.rho - frontier.rho.to_matrix()).max() < 1e-12
        # a branch-by-branch enumeration pays 4^m with flips; flip children
        # share their recorded bit and merge immediately, so the frontier
        # width doesn't move
        _, clean = self._both(compile_pattern(j_chain([0.4, 0.9, 1.3])))
        assert estimate_compiled(noisy).branch_bound == 4 ** 3
        assert frontier.branches == clean.branches

    def test_property_merging_preserves_exact_rho(self):
        # random angles x random channel noise: the live-parity merge must
        # be invisible in the integrated output
        rng = np.random.default_rng(7)
        for _ in range(3):
            alphas = [float(a) for a in rng.uniform(-np.pi, np.pi, size=4)]
            model = ChannelNoiseModel(
                prep=Channel.depolarizing(float(rng.uniform(0.0, 0.1))),
                ent=Channel.dephasing(float(rng.uniform(0.0, 0.1))),
                meas_flip=float(rng.uniform(0.0, 0.1)),
            )
            noisy = lower_noise(compile_pattern(j_chain(alphas)), model)
            scalar, frontier = self._both(noisy)
            assert np.abs(scalar.rho - frontier.rho.to_matrix()).max() < 1e-12
            assert frontier.trace == pytest.approx(1.0, abs=1e-9)

    def test_chunk_sizes_bitwise_invariant(self):
        program = self._ring_program(noise=ChannelNoiseModel(
            prep=Channel.amplitude_damping(0.05), meas_flip=0.03
        ))
        eng = get_backend("density")
        base = eng.integrate(program)
        for mb in (1, 4096, 1 << 20):
            run = eng.integrate(program, max_block_bytes=mb)
            assert np.array_equal(run.rho._t, base.rho._t)
            assert run.branches == base.branches

    def test_max_branches_enforced_on_merged_bound(self):
        # ring(3): merged bound 64, raw bound 512 — a cap between the two
        # lets the frontier through; one below the merged bound refuses
        program = self._ring_program()
        eng = get_backend("density")
        run = eng.integrate(program, max_branches=100)
        assert run.branches <= 100
        with pytest.raises(PatternError, match="R102"):
            eng.integrate(program, max_branches=32)

    def test_prune_tol_reports_dropped_weight(self):
        noisy = lower_noise(
            compile_pattern(j_chain([0.4, 1.1])),
            ChannelNoiseModel(prep=Channel.amplitude_damping(0.6)),
        )
        eng = get_backend("density")
        frontier = eng.integrate(noisy, prune_tol=0.2)
        scalar = oracle_run(noisy, prune=0.2)
        assert frontier.dropped_weight > 0.0
        assert frontier.trace + frontier.dropped_weight == pytest.approx(
            1.0, abs=1e-9
        )
        assert frontier.dropped_weight == pytest.approx(
            1.0 - np.trace(scalar.rho).real, abs=1e-12
        )
        # default run prunes nothing and says so
        clean = eng.integrate(noisy)
        assert clean.dropped_weight == 0.0
        assert clean.trace == pytest.approx(1.0, abs=1e-9)

    def test_frontier_at_3_sigma_on_deep_chain(self):
        # past scalar comfort: 8 measured nodes, certified against the
        # trajectory sampler statistically (the E21 contract, reversed)
        rng = np.random.default_rng(5)
        alphas = [float(a) for a in rng.uniform(-np.pi, np.pi, size=8)]
        noisy = lower_noise(
            compile_pattern(j_chain(alphas)),
            ChannelNoiseModel(ent=Channel.dephasing(0.05), meas_flip=0.02),
        )
        exact = get_backend("density").integrate(noisy)
        run = get_backend("density").sample_batch(
            noisy, 1500, rng=11, keep_raw=True
        )
        assert_rows_within_sigma(
            run.probability_rows(), exact.probabilities()
        )


class TestShardedIntegration:
    """Sharded integration runs through the execution supervisor (the one
    sharded path); a clean run must match the unsharded frontier."""

    def _noisy_ring(self):
        program = compile_qaoa_pattern(
            MaxCut.ring(3).to_qubo(), [0.4], [0.7]
        ).executable()
        return lower_noise(program, ChannelNoiseModel(
            prep=Channel.amplitude_damping(0.05), meas_flip=0.03
        ))

    def test_sharded_matches_unsharded_and_scalar(self):
        program = self._noisy_ring()
        eng = get_backend("density")
        base = eng.integrate(program)
        # branch by branch: every record's forced run (readout flips mixed
        # in by the forced-branch kernel), weighted and summed
        row = np.ones((1, 1), dtype=complex)
        scalar = sum(
            out.rho.to_matrix() * out.weight
            for bits in itertools.product((0, 1), repeat=len(program.measured_nodes))
            for out in eng.run_branch_batch(
                program, row, dict(zip(program.measured_nodes, bits))
            ).raw
        )
        for shards in (2, 3):
            run = supervised_integrate(program, shards=shards, backoff=0.0)
            assert run.supervision.clean
            assert np.abs(run.rho._t - base.rho._t).max() < 1e-12
            assert np.abs(run.rho.to_matrix() - scalar).max() < 1e-12

    def test_sharded_rerun_bit_identical(self):
        program = self._noisy_ring()
        a = supervised_integrate(program, shards=2, backoff=0.0)
        b = supervised_integrate(program, shards=2, backoff=0.0)
        assert np.array_equal(a.rho._t, b.rho._t)
        assert a.branches == b.branches

    def test_narrow_frontier_completes_in_process(self):
        # merged bound 2 < shards: the fan-out point is never reached and
        # the run finishes in-process, still exact
        noisy = lower_noise(
            compile_pattern(j_chain([0.4, 0.9, 1.3])),
            ChannelNoiseModel(ent=Channel.dephasing(0.05)),
        )
        run = supervised_integrate(noisy, shards=4, backoff=0.0)
        assert run.supervision.clean
        base = oracle_run(noisy)
        assert np.abs(run.rho.to_matrix() - base.rho).max() < 1e-12

    def test_shards_must_be_positive(self):
        with pytest.raises(ValueError, match="shards"):
            supervised_integrate(self._noisy_ring(), shards=0)


class TestChoiBatch:
    def test_matches_scalar_choi_runs(self):
        compiled = compile_pattern(j_chain([0.4, 0.9]))
        eng = get_backend("density")
        nodes = sorted(compiled.measured_nodes)
        branches = [
            {nodes[0]: a, nodes[1]: b} for a in (0, 1) for b in (0, 1)
        ]
        outs = eng.run_branch_choi_batch(compiled, branches)
        assert len(outs) == 4
        for branch, out in zip(branches, outs):
            ref = eng.run_branch_choi(compiled, branch)
            assert out is not None
            assert out.weight == pytest.approx(ref.weight, abs=1e-12)
            assert np.allclose(
                out.rho.to_matrix(), ref.rho.to_matrix(), atol=1e-10
            )

    def test_unreachable_branches_come_back_none(self):
        # a |0>-prepared node measured in Z can never record 1
        p = Pattern(output_nodes=[1])
        p.n(0, state="zero").n(1).m(0, "YZ", 0.0)
        compiled = compile_pattern(p)
        outs = get_backend("density").run_branch_choi_batch(
            compiled, [{0: 0}, {0: 1}]
        )
        assert outs[0] is not None
        assert outs[1] is None

    def test_empty_batch(self):
        compiled = compile_pattern(j_chain([0.4]))
        assert get_backend("density").run_branch_choi_batch(compiled, []) == []
