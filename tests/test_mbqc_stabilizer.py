"""Stabilizer pattern backend: registry dispatch, Clifford classification,
and property cross-checks against the dense engine.

The contract under test: on any Clifford-angle pattern, the
``StabilizerBackend`` agrees with the ``StatevectorBackend`` branch for
branch — equal weights, equal dense outputs up to a global phase, equal
zero-probability behaviour — and its trajectory sampler draws outcome
bitstrings from the same distribution.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from patterns import random_clifford_pattern
from stat_helpers import assert_bit_marginals_agree

from repro.core import compile_qaoa_pattern
from repro.core.verify import check_pattern_determinism
from repro.linalg import allclose_up_to_global_phase
from repro.mbqc import (
    Pattern,
    PatternError,
    StabilizerBackend,
    StabilizerOutput,
    StatevectorBackend,
    available_backends,
    compile_pattern,
    get_backend,
    pattern_to_matrix,
    run_pattern,
    select_backend,
)
from repro.mbqc.backend import DENSE_AUTO_MAX_LIVE
from repro.mbqc.compile import clifford_word, pauli_of_basis
from repro.problems import MaxCut
from repro.sim import MeasurementBasis, StateVector, ZeroProbabilityBranch
from repro.stab import ForcedOutcomeContradiction, StabilizerState


class TestClassifier:
    def test_pauli_bases(self):
        assert pauli_of_basis(MeasurementBasis.xy(0.0)) == ("X", 0)
        assert pauli_of_basis(MeasurementBasis.xy(np.pi)) == ("X", 1)
        assert pauli_of_basis(MeasurementBasis.xy(np.pi / 2)) == ("Y", 0)
        assert pauli_of_basis(MeasurementBasis.yz(0.0)) == ("Z", 0)
        assert pauli_of_basis(MeasurementBasis.xz(0.0)) == ("Z", 0)
        assert pauli_of_basis(MeasurementBasis.xy(0.3)) is None

    def test_clifford_words_reproduce_matrices(self):
        from repro.linalg.gates import HADAMARD, S_GATE, T_GATE
        from repro.mbqc.compile import _CLIFFORD

        for name, mat in _CLIFFORD.items():
            word = clifford_word(mat)
            assert word is not None, name
            acc = np.eye(2, dtype=complex)
            for g in word:
                acc = {"h": HADAMARD, "s": S_GATE}[g] @ acc
            assert allclose_up_to_global_phase(acc, mat), name
        assert clifford_word(T_GATE) is None

    def test_is_clifford_flag(self):
        p = Pattern(input_nodes=[0], output_nodes=[1])
        p.n(1).e(0, 1).m(0, "XY", 0.0).x(1, {0})
        assert compile_pattern(p).is_clifford
        q = Pattern(input_nodes=[0], output_nodes=[1])
        q.n(1).e(0, 1).m(0, "XY", 0.25).x(1, {0})
        assert not compile_pattern(q).is_clifford

    def test_qaoa_pattern_clifford_iff_clifford_angles(self):
        qubo = MaxCut.ring(4).to_qubo()
        assert compile_pattern(
            compile_qaoa_pattern(qubo, [0.0], [0.0]).pattern
        ).is_clifford
        assert not compile_pattern(
            compile_qaoa_pattern(qubo, [0.3], [0.1]).pattern
        ).is_clifford

    def test_word_order_matters(self):
        """The stored word is in application order: replaying it on a
        tableau must reproduce the fused matrix, not its reverse."""
        p = Pattern(input_nodes=[], output_nodes=[0])
        p.n(0).c(0, "h").c(0, "s")  # S·H, not H·S
        m = pattern_to_matrix(p, {}, backend="stabilizer")
        ref = pattern_to_matrix(p, {}, backend="statevector")
        assert allclose_up_to_global_phase(m.ravel(), ref.ravel(), atol=1e-9)


class TestRegistry:
    def test_both_backends_registered(self):
        names = available_backends()
        assert "statevector" in names and "stabilizer" in names
        assert isinstance(get_backend("stabilizer"), StabilizerBackend)

    def test_unknown_backend(self):
        with pytest.raises(PatternError, match="unknown backend"):
            get_backend("tensor-network")

    def test_auto_prefers_dense_when_small(self):
        p = Pattern(input_nodes=[], output_nodes=[1])
        p.n(0).n(1).e(0, 1).m(0, "XY", 0.0).x(1, {0})
        c = compile_pattern(p)
        assert c.is_clifford
        assert select_backend(c).name == "statevector"

    def test_auto_dispatches_big_clifford_to_stabilizer(self):
        qubo = MaxCut.ring(18).to_qubo()
        c = compile_pattern(compile_qaoa_pattern(qubo, [0.0], [0.0]).pattern)
        assert c.max_live > DENSE_AUTO_MAX_LIVE
        assert select_backend(c).name == "stabilizer"

    def test_auto_keeps_dense_for_big_non_clifford(self):
        """A wide-interaction non-Clifford pattern fits no structured
        engine (not Clifford, interaction width ~n), so auto dispatch
        stays dense; a bounded-width one now routes to mps instead."""
        qubo = MaxCut.complete(6).to_qubo()
        c = compile_pattern(compile_qaoa_pattern(qubo, [0.3], [0.1]).pattern)
        assert select_backend(c).name == "statevector"
        ring = compile_pattern(
            compile_qaoa_pattern(MaxCut.ring(18).to_qubo(), [0.3], [0.1]).pattern
        )
        assert select_backend(ring).name == "mps"

    def test_auto_keeps_dense_for_open_input_clifford(self):
        """Tableau columns carry no global phase, so multi-column branch
        maps from the stabilizer engine are phase-incoherent; auto dispatch
        must keep patterns with inputs on the dense engine."""
        qubo = MaxCut.ring(18).to_qubo()
        c = compile_pattern(
            compile_qaoa_pattern(qubo, [0.0], [0.0], open_inputs=True).pattern
        )
        assert c.is_clifford and c.num_inputs == 18
        assert c.max_live > DENSE_AUTO_MAX_LIVE
        assert select_backend(c).name == "statevector"

    def test_auto_keeps_dense_when_outputs_exceed_densify_cap(self):
        """Consumers that densify outputs (run_pattern, solver sampling)
        pass dense_outputs=True; a 24-output Clifford pattern then stays
        dense instead of crashing at tableau densification."""
        qubo = MaxCut.ring(24).to_qubo()
        c = compile_pattern(compile_qaoa_pattern(qubo, [0.0], [0.0]).pattern)
        assert select_backend(c).name == "stabilizer"
        assert select_backend(c, dense_outputs=True).name == "statevector"

    def test_forcing_stabilizer_on_non_clifford_raises(self):
        qubo = MaxCut.ring(3).to_qubo()
        c = compile_pattern(compile_qaoa_pattern(qubo, [0.3], [0.1]).pattern)
        with pytest.raises(PatternError, match="not Clifford"):
            select_backend(c, "stabilizer")

    def test_select_accepts_instance(self):
        p = Pattern(input_nodes=[], output_nodes=[0])
        p.n(0)
        c = compile_pattern(p)
        engine = StatevectorBackend()
        assert select_backend(c, engine) is engine


def _reachable_branch(compiled, seed=0):
    """A positive-probability outcome branch: realize one sampled
    trajectory and echo its outcomes."""
    run = get_backend("statevector").sample_batch(
        compiled, 1, rng=np.random.default_rng(seed)
    )
    return run.outcome_dicts()[0]


def _cross_check_branch(pattern, branch, atol=1e-9):
    """Dense and stabilizer runs of one forced branch must agree: same
    zero-probability behaviour, equal weights, equal outputs up to phase."""
    c = compile_pattern(pattern)
    inputs = np.ones((1, 1), dtype=complex)
    sv, sb = get_backend("statevector"), get_backend("stabilizer")
    try:
        dense = sv.run_branch_batch(c, inputs, branch)
    except ZeroProbabilityBranch:
        with pytest.raises(ZeroProbabilityBranch):
            sb.run_branch_batch(c, inputs, branch)
        return False
    stab = sb.run_branch_batch(c, inputs, branch)
    assert np.allclose(dense.weights, stab.weights, atol=atol), branch
    assert allclose_up_to_global_phase(
        dense.dense_states()[0], stab.dense_states()[0], atol=atol
    ), branch
    return True


class TestBranchCrossCheck:
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_random_clifford_patterns(self, seed):
        pattern = random_clifford_pattern(seed)
        assert compile_pattern(pattern).is_clifford
        rng = np.random.default_rng(seed + 1)
        measured = pattern.measured_nodes()
        checked_live = 0
        for _ in range(6):
            branch = {node: int(rng.integers(2)) for node in measured}
            checked_live += _cross_check_branch(pattern, branch)
        # At least the all-zero branch family should usually be reachable;
        # not asserting per-draw, just that the test exercised something.
        _cross_check_branch(pattern, {node: 0 for node in measured})

    def test_qaoa_clifford_pattern_all_weights(self):
        qubo = MaxCut.ring(3).to_qubo()
        pattern = compile_qaoa_pattern(qubo, [0.0], [0.0]).pattern
        c = compile_pattern(pattern)
        rng = np.random.default_rng(5)
        for _ in range(8):
            branch = {node: int(rng.integers(2)) for node in c.measured_nodes}
            _cross_check_branch(pattern, branch)

    def test_open_inputs_basis_columns(self):
        """With open inputs, the stabilizer engine runs the identity input
        block (computational-basis rows) column for column."""
        p = Pattern(input_nodes=[0, 1], output_nodes=[0, 1])
        p.e(0, 1)
        m_stab = pattern_to_matrix(p, backend="stabilizer")
        m_dense = pattern_to_matrix(p, backend="statevector")
        # Column-wise equality up to per-column phase (tableaus carry none).
        for j in range(4):
            assert allclose_up_to_global_phase(
                m_stab[:, j], m_dense[:, j], atol=1e-9
            )

    def test_rejects_general_input_rows(self):
        p = Pattern(input_nodes=[0], output_nodes=[0])
        c = compile_pattern(p)
        bad = np.array([[0.8, 0.6j]], dtype=complex)
        with pytest.raises(PatternError, match="input rows"):
            get_backend("stabilizer").run_branch_batch(c, bad, {})

    def test_branch_weights_match_state_norms(self):
        """Dense weights are accumulated per-measurement probabilities;
        they must equal the squared output norms (unit-norm inputs)."""
        pattern = random_clifford_pattern(12)
        c = compile_pattern(pattern)
        branch = _reachable_branch(c)
        run = get_backend("statevector").run_branch_batch(
            c, np.ones((1, 1), dtype=complex), branch
        )
        assert run.weights[0] == pytest.approx(
            float(np.linalg.norm(run.dense_states()[0]) ** 2), abs=1e-9
        )


class TestSampledDistributions:
    def test_sampler_matches_exact_branch_weights(self):
        """Empirical outcome frequencies from both engines' trajectory
        samplers match the exact branch distribution."""
        p = Pattern(input_nodes=[], output_nodes=[0, 2])
        for v in range(4):
            p.n(v)
        for u, v in [(0, 1), (1, 2), (2, 3), (3, 0)]:
            p.e(u, v)
        p.m(3, "YZ", 0.0).m(1, "XY", 0.0).x(2, {1})
        c = compile_pattern(p)
        sv, sb = get_backend("statevector"), get_backend("stabilizer")

        # Exact branch distribution from forced dense runs.
        exact = {}
        for bits in range(4):
            branch = {3: bits & 1, 1: (bits >> 1) & 1}
            try:
                run = sv.run_branch_batch(c, np.ones((1, 1), complex), branch)
                exact[(branch[3], branch[1])] = float(run.weights[0])
            except ZeroProbabilityBranch:
                exact[(branch[3], branch[1])] = 0.0
        assert sum(exact.values()) == pytest.approx(1.0, abs=1e-9)

        n_shots = 4000
        for engine in (sv, sb):
            run = engine.sample_batch(c, n_shots, rng=np.random.default_rng(7))
            counts = {}
            for row in run.outcomes:
                key = (int(row[0]), int(row[1]))  # order: measured_nodes = (3, 1)
                counts[key] = counts.get(key, 0) + 1
            for key, prob in exact.items():
                freq = counts.get(key, 0) / n_shots
                assert freq == pytest.approx(prob, abs=0.05), (engine.name, key)

    def test_forced_sample_batch_equals_branch_run(self):
        """Pinning every outcome makes sample_batch a (normalized) branch
        run — states must match run_branch_batch up to normalization."""
        pattern = random_clifford_pattern(3)
        c = compile_pattern(pattern)
        branch = _reachable_branch(c)
        sv = get_backend("statevector")
        forced = sv.run_branch_batch(c, np.ones((1, 1), complex), branch)
        sampled = sv.sample_batch(
            c, 3, rng=np.random.default_rng(0), forced_outcomes=branch
        )
        assert np.array_equal(
            sampled.outcomes,
            np.tile([branch[n] for n in c.measured_nodes], (3, 1)),
        )
        ref = forced.dense_states()[0]
        ref = ref / np.linalg.norm(ref)
        for row in sampled.dense_states():
            assert np.allclose(row, ref, atol=1e-9)

    def test_run_pattern_backend_dispatch(self):
        """run_pattern(backend=...) routes through the registry and returns
        the same (normalized) output state for deterministic patterns."""
        qubo = MaxCut.ring(3).to_qubo()
        pattern = compile_qaoa_pattern(qubo, [0.0], [0.0]).pattern
        ref = run_pattern(pattern, seed=0).state_array()
        for backend in ("statevector", "stabilizer", "auto"):
            out = run_pattern(pattern, seed=1, backend=backend)
            assert allclose_up_to_global_phase(
                out.state_array(), ref, atol=1e-9
            ), backend
            assert set(out.outcomes) == set(pattern.measured_nodes())


class TestLongPatternNormStability:
    def test_thousand_measurement_sample_batch_does_not_underflow(self):
        """Deferred normalization shrinks each element's norm² by the
        outcome probability (~1/2 per measurement); the periodic rescale
        must keep ~1000-measurement patterns clear of the 1e-300 floor."""
        n_steps = 1100
        p = Pattern(input_nodes=[], output_nodes=[n_steps])
        p.n(0)
        for i in range(n_steps):
            p.n(i + 1)
            p.e(i, i + 1)
            p.m(i, "XY", 0.0, s_domain=set())
            p.x(i + 1, {i})
            if i:
                p.z(i + 1, {i - 1})
        c = compile_pattern(p)
        run = get_backend("statevector").sample_batch(
            c, 2, rng=np.random.default_rng(0)
        )
        states = run.dense_states()
        assert np.all(np.isfinite(states))
        assert np.allclose(np.linalg.norm(states, axis=1), 1.0, atol=1e-9)


    def test_stabilizer_weights_stay_exact_in_log_domain(self):
        """Branch probabilities are tracked as exact log-2 integers so deep
        Clifford patterns (where a float product of 1/2's would underflow)
        keep exact weights and finite unit output states."""
        n_steps = 150
        p = Pattern(input_nodes=[], output_nodes=[n_steps])
        p.n(0)
        for i in range(n_steps):
            p.n(i + 1)
            p.e(i, i + 1)
            p.m(i, "XY", 0.0)
            p.x(i + 1, {i})
            if i:
                p.z(i + 1, {i - 1})
        c = compile_pattern(p)
        run = get_backend("stabilizer").sample_batch(
            c, 2, rng=np.random.default_rng(1), keep_raw=True
        )
        assert all(out.log2_weight == -n_steps for out in run.raw)
        states = run.dense_states()
        assert np.all(np.isfinite(states))
        assert np.allclose(np.linalg.norm(states, axis=1), 1.0, atol=1e-9)


class TestForcedMeasurementPaths:
    """Direct StabilizerState-vs-StateVector checks of the forced paths."""

    @given(
        moves=st.lists(
            st.tuples(
                st.sampled_from(["h", "s", "sdg", "x", "y", "z", "cnot", "cz"]),
                st.integers(0, 2),
                st.integers(0, 2),
            ),
            min_size=1,
            max_size=15,
        ),
        measurements=st.lists(
            st.tuples(st.sampled_from(["X", "Y", "Z"]), st.integers(0, 2)),
            min_size=1,
            max_size=3,
        ),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_forced_pauli_measurements_agree_with_dense(
        self, moves, measurements, seed
    ):
        n = 3
        tab = StabilizerState(n)
        vec = StateVector.zeros(n)
        from repro.linalg.gates import CNOT, CZ
        from repro.mbqc.compile import _CLIFFORD

        for name, a, b in moves:
            if name in ("cnot", "cz"):
                if a == b:
                    continue
                tab.apply_named(name, (a, b))
                vec.apply_2q(CNOT if name == "cnot" else CZ, a, b)
            else:
                tab.apply_named(name, (a,))
                vec.apply_1q(_CLIFFORD[name], a)
        rng = np.random.default_rng(seed)
        for label, q in measurements:
            force = int(rng.integers(2))
            p_dense = vec.measure_probability(q, MeasurementBasis.pauli(label), force)
            if p_dense < 1e-12:
                with pytest.raises(ForcedOutcomeContradiction):
                    tab.measure_pauli_info(q, label, force=force)
                force ^= 1
                p_dense = vec.measure_probability(
                    q, MeasurementBasis.pauli(label), force
                )
            out, p_tab = tab.measure_pauli_info(q, label, force=force)
            assert out == force
            assert p_tab == pytest.approx(p_dense, abs=1e-9)
            vec.measure(q, MeasurementBasis.pauli(label), force=force, remove=False)
            assert allclose_up_to_global_phase(
                tab.to_statevector(), vec.to_array(), atol=1e-8
            )

    def test_measure_x_contradiction_leaves_tableau_intact(self):
        """Satellite regression: a contradiction raised inside the inner
        measure_z used to leave the tableau H-conjugated."""
        tab = StabilizerState.plus_state(1)  # stabilized by +X
        before = repr(tab.stabilizer_rows())
        with pytest.raises(ForcedOutcomeContradiction):
            tab.measure_x(0, force=1)
        assert repr(tab.stabilizer_rows()) == before
        assert tab.measure_x(0) == 0  # still |+>

    def test_measure_y_contradiction_leaves_tableau_intact(self):
        tab = StabilizerState.plus_state(1)
        tab.s(0)  # stabilized by +Y
        before = repr(tab.stabilizer_rows())
        with pytest.raises(ForcedOutcomeContradiction):
            tab.measure_y(0, force=1)
        assert repr(tab.stabilizer_rows()) == before
        assert tab.measure_y(0) == 0


class TestVerifyStabilizerPath:
    def test_large_clifford_pattern_verifies(self):
        """Clifford-angle QAOA pattern with >=24 measured nodes (dense
        execution would need 2^25 amplitudes per branch)."""
        qubo = MaxCut.ring(24).to_qubo()
        pattern = compile_qaoa_pattern(qubo, [0.0], [0.0]).pattern
        c = compile_pattern(pattern)
        assert len(c.measured_nodes) >= 24
        assert c.max_live > DENSE_AUTO_MAX_LIVE
        assert select_backend(c).name == "stabilizer"
        assert check_pattern_determinism(pattern, max_branches=8, seed=3)

    def test_verdict_matches_dense_on_overlap(self):
        qubo = MaxCut.ring(4).to_qubo()
        pattern = compile_qaoa_pattern(qubo, [0.0], [0.0]).pattern
        dense = check_pattern_determinism(pattern, max_branches=8, seed=1)
        stab = check_pattern_determinism(
            pattern, max_branches=8, seed=1, backend="stabilizer"
        )
        assert dense is True and stab is True

    def test_detects_nondeterminism(self):
        # Graph state measured without corrections: branches differ.
        p = Pattern(input_nodes=[], output_nodes=[1])
        p.n(0).n(1).e(0, 1).m(0, "XY", 0.0)
        assert not check_pattern_determinism(p, backend="stabilizer")
        assert not check_pattern_determinism(p, backend="statevector")

    def test_deterministic_measurements_do_not_mask_nondeterminism(self):
        """Regression: when most uniformly-drawn branches are unreachable
        (deterministic Pauli measurements force their bits), the stabilizer
        check must resample reachable branches from trajectories instead of
        certifying determinism from the single surviving branch."""
        p = Pattern(input_nodes=[], output_nodes=[9])
        for v in range(8):
            p.n(v, "zero")
        for v in range(8):
            p.m(v, "YZ", 0.0)  # deterministic: only the 0 outcome is reachable
        p.n(8).n(9).e(8, 9).m(8, "XY", 0.0)  # uncorrected: branches differ
        assert not check_pattern_determinism(
            p, max_branches=6, seed=0, backend="stabilizer"
        )

    def test_all_deterministic_pattern_verifies(self):
        p = Pattern(input_nodes=[], output_nodes=[9])
        for v in range(8):
            p.n(v, "zero")
        for v in range(8):
            p.m(v, "YZ", 0.0)
        p.n(8).n(9).e(8, 9).m(8, "XY", 0.0).x(9, {8})
        assert check_pattern_determinism(
            p, max_branches=6, seed=0, backend="stabilizer"
        )

    def test_stabilizer_check_rejects_open_inputs(self):
        p = Pattern(input_nodes=[0], output_nodes=[1])
        p.n(1).e(0, 1).m(0, "XY", 0.0).x(1, {0})
        with pytest.raises(PatternError, match="state-preparation"):
            check_pattern_determinism(p, backend="stabilizer")


class TestBatchedTableauSampler:
    """The bit-packed batched tableau sampler vs the scalar tableau: every
    shot's output must be **bit-identical** (canonical stabilizer form and
    exact log-2 branch weight) to the scalar forced-branch run
    (``run_branch_batch``) on the record that shot drew."""

    def _assert_shots_match_branch_runs(self, compiled, run):
        sb = get_backend("stabilizer")
        inputs = np.ones((1, 1), dtype=complex)
        for j, record in enumerate(run.outcome_dicts()):
            ref = sb.run_branch_batch(compiled, inputs, record).raw[0]
            assert run.raw[j].log2_weight == ref.log2_weight
            assert run.raw[j].canonical_key() == ref.canonical_key()

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=12, deadline=None)
    def test_random_clifford_patterns_bit_identical(self, seed):
        c = compile_pattern(random_clifford_pattern(seed))
        run = get_backend("stabilizer").sample_batch(
            c, 17, rng=np.random.default_rng(seed), keep_raw=True
        )
        self._assert_shots_match_branch_runs(c, run)

    def test_qaoa_ring_bit_identical(self):
        qubo = MaxCut.ring(8).to_qubo()
        c = compile_pattern(compile_qaoa_pattern(qubo, [0.0], [0.0]).pattern)
        run = get_backend("stabilizer").sample_batch(
            c, 64, rng=np.random.default_rng(3), keep_raw=True
        )
        self._assert_shots_match_branch_runs(c, run)
        assert 0.0 < run.outcomes.mean() < 1.0

    def test_pauli_noise_record_marginals_match_dense(self):
        """Readout flips and channel faults (one whole-block vector draw
        per channel op) sample the same record distribution as the dense
        engine's trajectories of the same noise program."""
        from repro.mbqc.noise import NoiseModel

        qubo = MaxCut.ring(5).to_qubo()
        c = compile_pattern(compile_qaoa_pattern(qubo, [0.0], [0.0]).pattern)
        noise = NoiseModel(p_prep=0.15, p_ent=0.05, p_meas=0.25)
        sb_run = get_backend("stabilizer").sample_batch(
            c, 3000, rng=np.random.default_rng(11), noise=noise
        )
        sv_run = get_backend("statevector").sample_batch(
            c, 3000, rng=np.random.default_rng(12), noise=noise
        )
        # Noise must actually randomize the record for this test to bite.
        assert 0.0 < sb_run.outcomes.mean() < 1.0
        assert_bit_marginals_agree(sv_run.outcomes, sb_run.outcomes, k=4.0)

    def test_forced_outcomes_match_loop(self):
        """Pinned records tile every shot, and each shot's output is the
        scalar tableau's forced-branch output."""
        c = compile_pattern(random_clifford_pattern(9))
        branch = _reachable_branch(c)
        run = get_backend("stabilizer").sample_batch(
            c, 5, rng=np.random.default_rng(0), forced_outcomes=branch,
            keep_raw=True,
        )
        assert np.array_equal(
            run.outcomes,
            np.tile([branch[n] for n in c.measured_nodes], (5, 1)),
        )
        self._assert_shots_match_branch_runs(c, run)

    def test_vectorized_forced_contradiction_raises_zero_probability(self):
        """A branch forcing against a deterministic Pauli measurement is
        zero-weight on the batched sampler and the scalar branch run."""
        p = Pattern(input_nodes=[], output_nodes=[1])
        p.n(0, "zero").n(1)
        p.m(0, "YZ", 0.0)  # deterministic: only outcome 0 is reachable
        c = compile_pattern(p)
        sb = get_backend("stabilizer")
        with pytest.raises(ZeroProbabilityBranch):
            sb.sample_batch(
                c, 3, rng=np.random.default_rng(0), forced_outcomes={0: 1},
            )
        with pytest.raises(ZeroProbabilityBranch):
            sb.run_branch_batch(c, np.ones((1, 1), dtype=complex), {0: 1})

    def test_keep_raw_default_off(self):
        """The memory fix: sample_batch no longer retains per-shot outputs
        unless asked — and the accessors say how to ask."""
        qubo = MaxCut.ring(4).to_qubo()
        c = compile_pattern(compile_qaoa_pattern(qubo, [0.0], [0.0]).pattern)
        run = get_backend("stabilizer").sample_batch(
            c, 4, rng=np.random.default_rng(0)
        )
        assert run.raw is None
        assert run.outcomes.shape[0] == 4
        with pytest.raises(ValueError, match="keep_raw"):
            run.dense_states()

    def test_packed_outputs_share_extraction(self):
        """keep_raw=True on the batched path yields per-shot views into
        one shared extraction (O(n_out) per shot)."""
        from repro.mbqc import PackedStabilizerOutput

        qubo = MaxCut.ring(4).to_qubo()
        c = compile_pattern(compile_qaoa_pattern(qubo, [0.0], [0.0]).pattern)
        run = get_backend("stabilizer").sample_batch(
            c, 6, rng=np.random.default_rng(2), keep_raw=True
        )
        assert all(isinstance(out, PackedStabilizerOutput) for out in run.raw)
        assert run.raw[0].batch is run.raw[1].batch
        states = run.dense_states()
        assert np.allclose(np.linalg.norm(states, axis=1), 1.0, atol=1e-9)

    def test_non_batch_applicable_program_refused(self):
        """A hand-built Clifford program with a non-Pauli conditional (H)
        diverges the X/Z structure per shot, so the batched tableau cannot
        run it: the stabilizer engine refuses it loudly at every entry
        point, and automatic dispatch routes it to the statevector engine,
        which samples it (readout noise included)."""
        from dataclasses import replace as dc_replace

        from repro.linalg.gates import HADAMARD
        from repro.mbqc.compile import ConditionalOp
        from repro.mbqc.noise import NoiseModel

        p = Pattern(input_nodes=[], output_nodes=[2])
        p.n(0).n(1).n(2).e(0, 1).e(1, 2)
        p.m(0, "XY", 0.0).x(1, {0}).m(1, "XY", 0.0)
        c = compile_pattern(p)
        # Swap the Pauli-X correction for a conditional Hadamard: node 1's
        # measurement is then random on some shots, deterministic on others.
        ops = list(c.ops)
        idx = next(
            i for i, op in enumerate(ops) if type(op) is ConditionalOp
        )
        ops[idx] = ConditionalOp(
            ops[idx].slot, ops[idx].domain, HADAMARD, ("h",)
        )
        hacked = dc_replace(c, ops=tuple(ops))
        assert hacked.is_clifford
        sb = get_backend("stabilizer")
        assert sb.supports(c)
        assert not sb.supports(hacked)
        with pytest.raises(PatternError, match="stabilizer"):
            select_backend(hacked, "stabilizer")
        with pytest.raises(PatternError, match="stabilizer"):
            sb.sample_batch(hacked, 64, rng=np.random.default_rng(0))
        with pytest.raises(PatternError, match="stabilizer"):
            sb.run_branch_batch(
                hacked, np.ones((1, 1), dtype=complex), {0: 0, 1: 0}
            )
        engine = select_backend(hacked)
        assert engine.name == "statevector"
        run = engine.sample_batch(
            hacked, 64, rng=np.random.default_rng(0),
            noise=NoiseModel(p_meas=0.2),
        )
        assert run.outcomes.shape == (64, 2)
        assert np.allclose(
            np.linalg.norm(run.dense_states(), axis=1), 1.0, atol=1e-9
        )

    def test_empty_register_samples_on_batched_tableau(self):
        p = Pattern(input_nodes=[], output_nodes=[])
        c = compile_pattern(p)
        run = get_backend("stabilizer").sample_batch(
            c, 2, rng=0, keep_raw=True
        )
        assert run.outcomes.shape == (2, 0)
        assert len(run.raw) == 2
        for out in run.raw:
            assert out.weight == 1.0
            assert np.array_equal(out.unit_statevector(), [1.0])

    def test_engine_named_errors(self):
        qubo = MaxCut.ring(3).to_qubo()
        c = compile_pattern(compile_qaoa_pattern(qubo, [0.0], [0.0]).pattern)
        with pytest.raises(ValueError, match="stabilizer"):
            get_backend("stabilizer").sample_batch(c, -1)
        with pytest.raises(ValueError, match="statevector"):
            get_backend("statevector").sample_batch(c, -1)
        branch = {node: 0 for node in c.measured_nodes}
        with pytest.raises(PatternError, match="stabilizer"):
            get_backend("stabilizer").run_branch_batch(
                c, np.ones((1, 4), dtype=complex), branch
            )

    def test_sampled_distribution_matches_dense(self):
        """The batched sampler still draws from the Born distribution:
        cross-check empirical frequencies against the dense engine."""
        qubo = MaxCut.ring(4).to_qubo()
        c = compile_pattern(compile_qaoa_pattern(qubo, [0.0], [0.0]).pattern)
        n_shots = 3000
        sv_run = get_backend("statevector").sample_batch(
            c, n_shots, rng=np.random.default_rng(21)
        )
        sb_run = get_backend("stabilizer").sample_batch(
            c, n_shots, rng=np.random.default_rng(22)
        )
        # Compare marginal outcome frequencies per measured node within
        # combined two-sample standard errors (shared certification helper).
        assert_bit_marginals_agree(sv_run.outcomes, sb_run.outcomes, k=4.0)


class TestSolverBatchedSampling:
    def test_solver_backend_threading(self):
        from repro.core.solver import MBQCQAOASolver

        solver = MBQCQAOASolver(
            MaxCut.ring(4).to_qubo(), p=1, shots=32, seed=1, backend="statevector"
        )
        batch = solver.sample([0.4], [0.7])
        assert batch.bitstrings.shape == (32,)

    def test_average_fidelity_backend_threading(self):
        from repro.mbqc.noise import NoiseModel, average_fidelity

        qubo = MaxCut.ring(3).to_qubo()
        pattern = compile_qaoa_pattern(qubo, [0.3], [0.5]).pattern
        f = average_fidelity(
            pattern, NoiseModel(), trajectories=3, seed=0, backend="statevector"
        )
        assert f == pytest.approx(1.0, abs=1e-9)
