"""Pattern-runner tests: teleportation primitives, the paper's Appendix A
Bell example (experiment E3), branch enumeration, and error paths."""

import math

import numpy as np
import pytest
from patterns import j_pattern

from repro.linalg import HADAMARD, allclose_up_to_global_phase, j_gate, rx, rz
from repro.mbqc import Pattern, PatternError, pattern_to_matrix, run_pattern
from repro.mbqc.runner import enumerate_branches
from repro.sim import StateVector


class TestJGate:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, -1.3, math.pi])
    def test_j_pattern_implements_j(self, alpha):
        p = j_pattern(alpha)
        for branch in enumerate_branches(p):
            m = pattern_to_matrix(p, branch)
            assert allclose_up_to_global_phase(
                m / np.linalg.norm(m) * np.sqrt(2), j_gate(alpha), atol=1e-8
            )

    def test_rx_from_two_j(self):
        """RX(β) = J(β)∘J(0) — the Eq. (9) structure: input measured, state
        lands two ancillas later, second angle sign-adapted."""
        beta = 0.77
        p = Pattern(input_nodes=[0], output_nodes=[2])
        p.n(1).e(0, 1).m(0, "XY", 0.0)
        p.n(2).e(1, 2).m(1, "XY", -beta, s_domain={0})
        p.x(2, {1}).z(2, {0})
        for branch in enumerate_branches(p):
            m = pattern_to_matrix(p, branch)
            assert allclose_up_to_global_phase(m / np.linalg.norm(m) * np.sqrt(2), rx(beta), atol=1e-8)

    def test_rz_from_two_j(self):
        gamma = -0.41
        p = Pattern(input_nodes=[0], output_nodes=[2])
        p.n(1).e(0, 1).m(0, "XY", -gamma)
        p.n(2).e(1, 2).m(1, "XY", 0.0, s_domain={0})
        p.x(2, {1}).z(2, {0})
        for branch in enumerate_branches(p):
            m = pattern_to_matrix(p, branch)
            assert allclose_up_to_global_phase(m / np.linalg.norm(m) * np.sqrt(2), rz(gamma), atol=1e-8)


class TestBellExampleAppendixA:
    """The paper's Section II.B / Appendix A worked example: on the square
    graph state, the sequence {M4_Z→n, M2_X→m, Λ3_m(X)} leaves qubits (1,3)
    in a Bell state."""

    @staticmethod
    def bell_pattern() -> Pattern:
        # Vertices renamed 1..4 -> 0..3; edges of the square (Eq. 5).
        p = Pattern(input_nodes=[], output_nodes=[0, 2])
        for v in range(4):
            p.n(v)
        for u, v in [(0, 1), (1, 2), (2, 3), (3, 0)]:
            p.e(u, v)
        p.m(3, "YZ", 0.0)          # M4_Z -> n   (Z basis)
        p.m(1, "XY", 0.0)          # M2_X -> m   (X basis)
        p.x(2, {1})                # Λ3_m(X)
        return p

    def test_all_branches_maximally_entangled(self):
        p = self.bell_pattern()
        for branch in enumerate_branches(p):
            res = run_pattern(p, forced_outcomes=branch)
            arr = res.state_array().reshape(2, 2)  # (qubit1=rows? little-endian)
            s = np.linalg.svd(arr, compute_uv=False)
            assert np.allclose(np.sort(s), [1 / np.sqrt(2)] * 2, atol=1e-9)

    def test_branch_states_match_paper(self):
        """Every branch yields exactly |Φ+> — the Z^n byproducts from the
        M4_Z measurement cancel on the Bell state (the paper's final diagram
        is correction-free), and Λ3_m(X) removes the m dependence."""
        p = self.bell_pattern()
        phi_plus = np.array([1, 0, 0, 1]) / np.sqrt(2)
        for branch in enumerate_branches(p):
            res = run_pattern(p, forced_outcomes=branch)
            assert allclose_up_to_global_phase(res.state_array(), phi_plus, atol=1e-9)

    def test_agrees_with_direct_simulation(self):
        """Cross-check against a hand-rolled simulation on the dense
        simulator (independent code path)."""
        p = self.bell_pattern()
        for branch in enumerate_branches(p):
            # Direct: build graph state, project qubit 3 onto |n>, qubit 1
            # onto |±>, apply X^m on qubit 2, drop measured qubits.
            sv = StateVector.plus(4)
            for u, v in [(0, 1), (1, 2), (2, 3), (3, 0)]:
                sv.apply_cz(u, v)
            from repro.sim import MeasurementBasis

            sv.measure(3, MeasurementBasis.pauli("Z"), force=branch[3])
            sv.measure(1, MeasurementBasis.pauli("X"), force=branch[1])
            # After removals, remaining slots: 0 -> qubit0, 1 -> qubit2.
            if branch[1]:
                from repro.linalg import PAULI_X

                sv.apply_1q(PAULI_X, 1)
            res = run_pattern(p, forced_outcomes=branch)
            assert allclose_up_to_global_phase(res.state_array(), sv.to_array(), atol=1e-9)


class TestRunnerMechanics:
    def test_default_input_is_plus(self):
        p = Pattern(input_nodes=[0], output_nodes=[0])
        res = run_pattern(p)
        assert np.allclose(res.state_array(), np.array([1, 1]) / np.sqrt(2))

    def test_input_state_size_mismatch(self):
        p = Pattern(input_nodes=[0], output_nodes=[0])
        with pytest.raises(PatternError):
            run_pattern(p, input_state=StateVector.plus(2))

    def test_output_order_respected(self):
        # Prepare node 5 in |one> and node 3 in |zero>; outputs [5, 3].
        p = Pattern(input_nodes=[], output_nodes=[5, 3])
        p.n(5, "one").n(3, "zero")
        res = run_pattern(p)
        arr = res.state_array()
        # little-endian: qubit0=node5=|1>, qubit1=node3=|0> -> index 1
        assert np.isclose(abs(arr[1]), 1.0)

    def test_outcomes_recorded(self):
        p = Pattern(input_nodes=[], output_nodes=[])
        p.n(0, "zero").m(0, "YZ", 0.0)
        res = run_pattern(p)
        assert res.outcomes == {0: 0}

    def test_forced_impossible_branch(self):
        from repro.sim.statevector import ZeroProbabilityBranch

        p = Pattern(input_nodes=[], output_nodes=[])
        p.n(0, "zero").m(0, "YZ", 0.0)
        with pytest.raises(ZeroProbabilityBranch):
            run_pattern(p, forced_outcomes={0: 1})

    def test_seeded_run_reproducible(self):
        p = Pattern(input_nodes=[], output_nodes=[])
        for v in range(4):
            p.n(v)
        p.e(0, 1).e(1, 2).e(2, 3)
        for v in range(4):
            p.m(v, "XY", 0.3 * v)
        a = run_pattern(p, seed=11).outcomes
        b = run_pattern(p, seed=11).outcomes
        assert a == b

    def test_clifford_command(self):
        p = Pattern(input_nodes=[0], output_nodes=[0])
        p.c(0, "h")
        res = run_pattern(p, input_state=StateVector.zeros(1))
        assert np.allclose(res.state_array(), HADAMARD @ np.array([1, 0]))

    def test_pattern_to_matrix_requires_full_branch(self):
        p = j_pattern(0.2)
        with pytest.raises(PatternError):
            pattern_to_matrix(p, {})

    def test_cz_pattern_on_inputs(self):
        p = Pattern(input_nodes=[0, 1], output_nodes=[0, 1])
        p.e(0, 1)
        m = pattern_to_matrix(p)
        from repro.linalg import CZ

        assert np.allclose(m, CZ)
