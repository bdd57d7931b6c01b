"""Batched pattern-execution engine vs the per-column reference oracle.

The contract: for any pattern and any forced branch,
``pattern_to_matrix`` (one batched sweep over all input columns) agrees
with the naive oracle (``tests/oracle.py``) run sequentially, one input at
a time, to 1e-9 — on hand-built primitives and on randomized compiled QAOA
patterns.  Each basis column and each superposition ``e_0 + e_j`` is
compared as an operator ``(Mv)(Mv)†``, which pins the map up to one global
phase.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import oracle_run

from repro.core import compile_qaoa_pattern
from repro.core.verify import branch_unitaries, check_pattern_determinism
from repro.mbqc import (
    Pattern,
    PatternError,
    StatevectorBackend,
    compile_pattern,
    default_backend,
    pattern_to_matrix,
)
from repro.mbqc.backend import PatternBackend
from repro.mbqc.runner import enumerate_branches
from repro.problems import MaxCut
from repro.sim import ZeroProbabilityBranch


def assert_matches_oracle(matrix, compiled, branch):
    """``matrix`` is the branch map of ``compiled`` on ``branch``: every
    input ``e_j`` and ``e_0 + e_j`` maps to the oracle's branch output."""
    record = tuple(branch[n] for n in compiled.measured_nodes)
    dim = 1 << compiled.num_inputs
    assert matrix.shape == (1 << compiled.num_outputs, dim)
    eye = np.eye(dim, dtype=complex)
    inputs = list(eye) + [eye[0] + eye[j] for j in range(1, dim)]
    for v in inputs:
        v = v / np.linalg.norm(v)
        expect = oracle_run(compiled, v, forced=branch).branches.get(record)
        out = matrix @ v
        got = np.outer(out, out.conj())
        if expect is None:  # zero-probability branch for this input
            expect = np.zeros_like(got)
        assert np.allclose(got, expect, atol=1e-9), np.abs(got - expect).max()


def assert_batched_equals_sequential(pattern, branch=None):
    compiled = compile_pattern(pattern)
    if branch is None:
        branch = {node: 0 for node in compiled.measured_nodes}
    assert_matches_oracle(pattern_to_matrix(pattern, branch), compiled, branch)


class TestHandPatterns:
    def test_j_gate_all_branches(self):
        p = Pattern(input_nodes=[0], output_nodes=[1])
        p.n(1).e(0, 1).m(0, "XY", -0.7).x(1, {0})
        for branch in enumerate_branches(p):
            assert_batched_equals_sequential(p, branch)

    def test_cz_on_inputs(self):
        p = Pattern(input_nodes=[0, 1], output_nodes=[0, 1])
        p.e(0, 1)
        assert_batched_equals_sequential(p)

    def test_no_input_state_prep(self):
        p = Pattern(input_nodes=[], output_nodes=[0, 2])
        for v in range(4):
            p.n(v)
        for u, v in [(0, 1), (1, 2), (2, 3), (3, 0)]:
            p.e(u, v)
        p.m(3, "YZ", 0.0).m(1, "XY", 0.0).x(2, {1})
        for branch in enumerate_branches(p):
            assert_batched_equals_sequential(p, branch)

    def test_no_output_pattern(self):
        p = Pattern(input_nodes=[0], output_nodes=[])
        p.m(0, "XY", 0.3)
        assert_batched_equals_sequential(p, {0: 0})

    def test_no_output_amplitude_preserved(self):
        # Regression: the branch amplitude of a fully-measured pattern used
        # to be silently reset to 1 by the sequential path; the correct map
        # is the bra of the projected basis vector.
        from repro.sim import MeasurementBasis

        p = Pattern(input_nodes=[0], output_nodes=[])
        p.m(0, "XY", 0.3)
        m = pattern_to_matrix(p, {0: 0})
        b0 = MeasurementBasis.xy(0.3).vectors()[0]
        assert np.allclose(m, b0.conj().reshape(1, 2), atol=1e-12)

    def test_all_planes_and_cliffords(self):
        p = Pattern(input_nodes=[0], output_nodes=[3])
        p.n(1).e(0, 1).m(0, "XZ", 0.4)
        p.n(2).e(1, 2).m(1, "YZ", -0.9, t_domain={0})
        p.n(3).e(2, 3).m(2, "XY", 1.3, s_domain={1}, t_domain={0})
        p.x(3, {2}).z(3, {0}).c(3, "h").c(3, "s")
        for branch in enumerate_branches(p):
            assert_batched_equals_sequential(p, branch)

    def test_impossible_branch_raises_batched_too(self):
        p = Pattern(input_nodes=[], output_nodes=[])
        p.n(0, "zero").m(0, "YZ", 0.0)
        with pytest.raises(ZeroProbabilityBranch):
            pattern_to_matrix(p, {0: 1})

    def test_missing_forced_outcomes(self):
        p = Pattern(input_nodes=[0], output_nodes=[1])
        p.n(1).e(0, 1).m(0, "XY", 0.2).x(1, {0})
        with pytest.raises(PatternError):
            pattern_to_matrix(p, {})


class TestCompiledQAOAPatterns:
    """Property test: batched == the per-input oracle to 1e-9 on
    randomized compiled QAOA patterns (random instance, parameters, depth,
    linear mode, and forced branch)."""

    @given(
        n=st.integers(min_value=2, max_value=4),
        p_depth=st.integers(min_value=1, max_value=2),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        linear_mode=st.sampled_from(["hanging", "fused"]),
        open_inputs=st.booleans(),
    )
    @settings(max_examples=12, deadline=None)
    def test_batched_equals_sequential(self, n, p_depth, seed, linear_mode, open_inputs):
        rng = np.random.default_rng(seed)
        qubo = MaxCut.random_regular(
            min(n - 1, 2) if n > 2 else 1, n, seed=seed % 1000
        ).to_qubo()
        gammas = rng.uniform(-np.pi, np.pi, p_depth)
        betas = rng.uniform(-np.pi / 2, np.pi / 2, p_depth)
        compiled = compile_qaoa_pattern(
            qubo, gammas, betas, open_inputs=open_inputs, linear_mode=linear_mode
        )
        measured = compiled.pattern.measured_nodes()
        branch = {node: int(rng.integers(2)) for node in measured}
        assert_batched_equals_sequential(compiled.pattern, branch)

    def test_branch_map_consumer(self):
        qubo = MaxCut.ring(4).to_qubo()
        compiled = compile_qaoa_pattern(qubo, [0.3], [0.5], open_inputs=True)
        m = compiled.branch_map()
        assert m.shape == (16, 16)
        program = compiled.executable()
        assert_matches_oracle(
            m, program, {node: 0 for node in program.measured_nodes}
        )
        # The executable is compiled once and cached.
        assert compiled.executable() is compiled.executable()

    def test_determinism_check_via_engine(self):
        qubo = MaxCut(3, [(0, 1), (1, 2)]).to_qubo()
        compiled = compile_qaoa_pattern(qubo, [0.4], [0.2])
        assert check_pattern_determinism(compiled.pattern, max_branches=8, seed=1)


class TestBackendProtocol:
    def test_default_backend_is_statevector(self):
        backend = default_backend()
        assert isinstance(backend, StatevectorBackend)
        assert backend.name == "statevector"
        assert default_backend() is backend  # shared instance

    def test_statevector_backend_satisfies_protocol(self):
        assert isinstance(StatevectorBackend(), PatternBackend)

    def test_supports_everything(self):
        p = Pattern(input_nodes=[0], output_nodes=[1])
        p.n(1).e(0, 1).m(0, "XY", 0.1).x(1, {0})
        assert StatevectorBackend().supports(compile_pattern(p))

    def test_explicit_backend_threading(self):
        p = Pattern(input_nodes=[0, 1], output_nodes=[0, 1])
        p.e(0, 1)
        maps = branch_unitaries(p, backend=StatevectorBackend())
        assert len(maps) == 1
        from repro.linalg import CZ

        assert np.allclose(maps[0][1], CZ, atol=1e-12)

    def test_input_block_size_mismatch(self):
        p = Pattern(input_nodes=[0, 1], output_nodes=[0, 1])
        p.e(0, 1)
        c = compile_pattern(p)
        with pytest.raises(PatternError, match="inputs"):
            StatevectorBackend().run_branch_batch(c, np.eye(2, dtype=complex), {})

    def test_outcomes_echo_branch_in_measurement_order(self):
        p = Pattern(input_nodes=[0], output_nodes=[2])
        p.n(1).e(0, 1).m(0, "XY", 0.0)
        p.n(2).e(1, 2).m(1, "XY", 0.5, s_domain={0})
        p.x(2, {1}).z(2, {0})
        c = compile_pattern(p)
        branch = {0: 1, 1: 0}
        run = StatevectorBackend().run_branch_batch(c, np.eye(2, dtype=complex), branch)
        assert run.outcomes == branch
        assert list(run.outcomes) == list(c.measured_nodes)
        assert run.states.shape == (2, 2)
