"""Tests for pattern structure, validation, and standardization.

The standardization absorption table (plane vs X/Z correction) is verified
against the simulator: a pattern with an explicit correction before a
measurement must produce the same branch maps as its standardized form.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from patterns import j_pattern

from repro.linalg import allclose_up_to_global_phase
from repro.mbqc import (
    CommandE,
    CommandM,
    CommandN,
    CommandX,
    CommandZ,
    Pattern,
    PatternError,
    pattern_to_matrix,
    standardize,
)


class TestCommands:
    def test_e_normalizes_order(self):
        assert CommandE((3, 1)).nodes == (1, 3)

    def test_e_rejects_loop(self):
        with pytest.raises(PatternError):
            CommandE((2, 2))

    def test_m_rejects_bad_plane(self):
        with pytest.raises(PatternError):
            CommandM(0, plane="QQ")

    def test_n_rejects_bad_state(self):
        with pytest.raises(PatternError):
            CommandN(0, state="bell")

    def test_domains_frozen(self):
        m = CommandM(0, "XY", 0.1, {1, 2}, {3})
        assert m.s_domain == frozenset({1, 2})
        assert m.t_domain == frozenset({3})


class TestValidation:
    def test_valid_j_pattern(self):
        j_pattern(0.5).validate()

    def test_double_preparation(self):
        p = Pattern(output_nodes=[0])
        p.n(0).n(0)
        with pytest.raises(PatternError):
            p.validate()

    def test_preparing_an_input(self):
        p = Pattern(input_nodes=[0], output_nodes=[0])
        p.n(0)
        with pytest.raises(PatternError):
            p.validate()

    def test_entangle_unprepared(self):
        p = Pattern(input_nodes=[0], output_nodes=[0])
        p.e(0, 1)
        with pytest.raises(PatternError):
            p.validate()

    def test_entangle_measured(self):
        p = Pattern(input_nodes=[0, 1], output_nodes=[1])
        p.m(0).e(0, 1)
        with pytest.raises(PatternError):
            p.validate()

    def test_measure_twice(self):
        p = Pattern(input_nodes=[0, 1], output_nodes=[])
        p.m(0).m(0)
        with pytest.raises(PatternError):
            p.validate()

    def test_non_causal_signal(self):
        # Measurement depending on a later outcome must be rejected — the
        # paper's determinism prerequisite.
        p = Pattern(input_nodes=[0, 1], output_nodes=[])
        p.m(0, "XY", 0.3, s_domain={1}).m(1)
        with pytest.raises(PatternError):
            p.validate()

    def test_correction_on_measured_node(self):
        p = Pattern(input_nodes=[0, 1], output_nodes=[1])
        p.m(0).add(CommandX(0, frozenset()))
        with pytest.raises(PatternError):
            p.validate()

    def test_output_measured(self):
        p = Pattern(input_nodes=[0], output_nodes=[0])
        p.m(0)
        with pytest.raises(PatternError):
            p.validate()

    def test_dangling_node(self):
        p = Pattern(input_nodes=[0], output_nodes=[0])
        p.n(7)
        with pytest.raises(PatternError):
            p.validate()

    def test_measurement_of_missing(self):
        p = j_pattern(0.1)
        with pytest.raises(KeyError):
            p.measurement_of(1)
        assert p.measurement_of(0).angle == pytest.approx(-0.1)


class TestAccounting:
    def test_nodes_and_edges(self):
        p = j_pattern(0.3)
        assert p.nodes() == {0, 1}
        assert p.entangling_edges() == [(0, 1)]
        assert p.measured_nodes() == [0]

    def test_max_live_nodes(self):
        # Chain of 3 J gates: prepare-then-measure keeps 2 alive at a time
        p = Pattern(input_nodes=[0], output_nodes=[3])
        p.n(1).e(0, 1).m(0, "XY", 0.1).x(1, {0})
        p.n(2).e(1, 2).m(1, "XY", 0.2).x(2, {1})
        p.n(3).e(2, 3).m(2, "XY", 0.3).x(3, {2})
        assert p.max_live_nodes() == 2
        # Preparing everything upfront keeps all 4 alive.
        q = Pattern(input_nodes=[0], output_nodes=[3])
        q.n(1).n(2).n(3).e(0, 1).e(1, 2).e(2, 3)
        q.m(0, "XY", 0.1).x(1, {0}).m(1, "XY", 0.2).x(2, {1}).m(2, "XY", 0.3).x(3, {2})
        assert q.max_live_nodes() == 4


def branch_maps(p: Pattern):
    """Map each full outcome assignment to the branch matrix."""
    from repro.mbqc.runner import enumerate_branches

    return {
        tuple(sorted(b.items())): pattern_to_matrix(p, b) for b in enumerate_branches(p)
    }


class TestStandardize:
    @pytest.mark.parametrize("plane", ["XY", "YZ", "XZ"])
    @pytest.mark.parametrize("corr", ["x", "z"])
    def test_absorption_table(self, plane, corr):
        """[correction; M] == standardized adaptive M, on every branch."""
        alpha = 0.731
        p = Pattern(input_nodes=[0, 1], output_nodes=[1])
        # node 0 measured first to source the signal; correction conditioned
        # on it lands on node 2 before its measurement.
        p.n(2).e(1, 2).e(0, 2)
        p.m(0, "XY", 0.0)
        if corr == "x":
            p.x(2, {0})
        else:
            p.z(2, {0})
        p.m(2, plane, alpha)
        p.x(1, {2})
        p.validate()
        q = standardize(p)
        # Standard form: no explicit corrections before measurements.
        kinds = [type(c).__name__ for c in q.commands]
        assert kinds == sorted(kinds, key=lambda k: ["CommandN", "CommandE", "CommandM", "CommandZ", "CommandX"].index(k))
        bm_p = branch_maps(p)
        bm_q = branch_maps(q)
        assert set(bm_p) == set(bm_q)
        for key in bm_p:
            assert allclose_up_to_global_phase(bm_p[key], bm_q[key], atol=1e-8)

    def test_x_through_entangler_generates_z(self):
        p = Pattern(input_nodes=[0, 1], output_nodes=[1, 2])
        p.m(0, "XY", 0.0)
        p.x(1, {0})
        p.n(2)
        p.e(1, 2)
        p.validate()
        q = standardize(p)
        # The X on 1 must have produced a Z on 2 conditioned on outcome 0.
        zs = [c for c in q.commands if isinstance(c, CommandZ)]
        assert any(c.node == 2 and c.domain == frozenset({0}) for c in zs)
        bm_p, bm_q = branch_maps(p), branch_maps(q)
        for key in bm_p:
            assert allclose_up_to_global_phase(bm_p[key], bm_q[key], atol=1e-8)

    def test_corrections_merge(self):
        p = Pattern(input_nodes=[0, 1], output_nodes=[2])
        p.n(2).e(0, 2).e(1, 2)
        p.m(0, "XY", 0.2)
        p.m(1, "XY", 0.4, s_domain={0})
        p.x(2, {0}).x(2, {0, 1})
        q = standardize(p)
        xs = [c for c in q.commands if isinstance(c, CommandX)]
        assert len(xs) == 1
        assert xs[0].domain == frozenset({1})

    @given(
        st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3),
        st.lists(st.booleans(), min_size=3, max_size=3),
    )
    @settings(max_examples=20, deadline=None)
    def test_j_chain_standardization_property(self, angles, interleave):
        """Chains of J-gadgets with interleaved corrections standardize
        to the same branch maps."""
        p = Pattern(input_nodes=[0], output_nodes=[len(angles)])
        for k, a in enumerate(angles):
            p.n(k + 1).e(k, k + 1).m(k, "XY", -a)
            if interleave[k % 3]:
                p.x(k + 1, {k})
            else:
                # Defer: equivalent correction expressed later as Z then X.
                p.z(k + 1, set()).x(k + 1, {k})
        q = standardize(p)
        q.validate()
        bm_p, bm_q = branch_maps(p), branch_maps(q)
        for key in bm_p:
            assert allclose_up_to_global_phase(bm_p[key], bm_q[key], atol=1e-8)

    def test_standardize_is_idempotent(self):
        p = j_pattern(1.1)
        q = standardize(p)
        r = standardize(q)
        assert [type(c) for c in q.commands] == [type(c) for c in r.commands]
