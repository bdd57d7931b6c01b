"""Static resource estimator and the select_backend byte-budget gate."""

import pytest
from oracle import oracle_run

from repro.analysis import analyze, estimate_compiled, format_bytes
from repro.core import compile_qaoa_pattern
from repro.mbqc import PatternError, get_backend, lower_noise, select_backend
from repro.mbqc.backend import PEAK_BYTE_BUDGET
from repro.mbqc.channels import Channel, ChannelNoiseModel
from repro.mbqc.compile import MeasureOp, PrepOp
from repro.problems import MaxCut


def ring_compiled(n=4, **kw):
    return compile_qaoa_pattern(
        MaxCut.ring(n).to_qubo(), [0.37], [0.52], **kw
    ).executable()


class TestEstimate:
    def test_byte_formulas(self):
        c = ring_compiled()
        est = estimate_compiled(c)
        m = c.max_live
        assert est.statevector_bytes_per_shot == 16 * 2**m
        assert est.density_bytes_per_shot == 16 * 4**m
        nt = est.total_nodes
        assert est.tableau_bytes_per_shot == 4 * nt * nt + 2 * nt
        assert est.bytes_per_shot("statevector") == est.statevector_bytes_per_shot
        assert est.peak_bytes("density", 10) == 10 * est.density_bytes_per_shot

    def test_node_accounting_matches_compiler(self):
        c = ring_compiled(5)
        est = estimate_compiled(c)
        preps = sum(1 for op in c.ops if type(op) is PrepOp)
        assert est.total_nodes == c.num_inputs + preps
        assert est.n_measured == len(c.measured_nodes)
        assert est.max_live == c.max_live

    def test_chunk_shots_is_byte_budget_formula(self):
        est = estimate_compiled(ring_compiled())
        budget = 1 << 20
        per = est.density_bytes_per_shot
        assert est.chunk_shots("density", budget) == max(1, budget // per)
        # a budget below one shot still makes progress
        assert est.chunk_shots("density", 1) == 1

    def test_unknown_backend_raises(self):
        est = estimate_compiled(ring_compiled())
        with pytest.raises(ValueError, match="no byte model"):
            est.bytes_per_shot("tensor-network")

    def test_branch_bound_matches_exact_integration(self):
        c = ring_compiled(3)
        est = estimate_compiled(c)
        # raw bound: the oracle's branch-by-branch enumeration reaches
        # exactly that many records (noiseless, no dead records here)
        assert len(oracle_run(c).branches) == est.branch_bound
        # frontier path: peak merged width == merged bound
        run = get_backend("density").integrate(c)
        assert run.branches == est.merged_branch_bound
        assert est.merged_branch_bound <= est.branch_bound

    def test_branch_bound_flips_quadruple(self):
        c = ring_compiled(3)
        noisy = lower_noise(c, ChannelNoiseModel(meas_flip=0.1))
        base = estimate_compiled(c)
        est = estimate_compiled(noisy)
        live = sum(
            1 for op in c.ops
            if type(op) is MeasureOp
        )
        assert est.branch_bound >= base.branch_bound
        # every live measurement's factor goes 2 -> 4 on the raw bound...
        assert est.branch_bound == base.branch_bound ** 2
        # ...but flip children share their recorded bit and merge on the
        # frontier, so the merged bound does not move at all
        assert est.merged_branch_bound == base.merged_branch_bound

    def test_report_format_mentions_each_backend(self):
        text = estimate_compiled(ring_compiled()).format()
        for key in ("statevector", "density", "tableau", "exact branches"):
            assert key in text

    def test_format_bytes_units(self):
        assert format_bytes(512) == "512 B"
        assert format_bytes(1 << 20) == "1.0 MiB"
        assert format_bytes(3 << 30) == "3.0 GiB"

    def test_analyze_attaches_resources(self):
        report = analyze(ring_compiled())
        assert report.resources is not None
        assert report.resources.max_live > 0


class TestByteBudgetGate:
    def test_over_budget_raises_actionable_diagnostic(self):
        c = ring_compiled()
        with pytest.raises(PatternError) as err:
            select_backend(c, "statevector", max_bytes=64)
        msg = str(err.value)
        assert "R101" in msg
        assert "max_bytes" in msg  # tells the user how to override
        assert "estimate_compiled" in msg or "repro lint" in msg

    def test_auto_route_checked_too(self):
        c = ring_compiled()
        with pytest.raises(PatternError, match="R101"):
            select_backend(c, "auto", max_bytes=64)

    def test_density_budget(self):
        noisy = lower_noise(
            ring_compiled(),
            ChannelNoiseModel(prep=Channel.amplitude_damping(0.05)),
        )
        est = estimate_compiled(noisy)
        with pytest.raises(PatternError, match="R101"):
            select_backend(noisy, max_bytes=est.density_bytes_per_shot - 1)

    def test_zero_disables_check(self):
        c = ring_compiled()
        assert select_backend(c, "statevector", max_bytes=0).name == "statevector"

    def test_default_budget_passes_normal_patterns(self):
        c = ring_compiled()
        assert estimate_compiled(c).statevector_bytes_per_shot < PEAK_BYTE_BUDGET
        assert select_backend(c).name in ("statevector", "stabilizer")

    def test_clifford_alternative_suggested(self):
        c = compile_qaoa_pattern(
            MaxCut.ring(4).to_qubo(), [0.0], [0.0]
        ).executable()
        assert c.is_clifford
        with pytest.raises(PatternError, match="stabilizer"):
            select_backend(c, "statevector", max_bytes=64)

    def test_branch_cap_raises_r102(self):
        noisy = lower_noise(
            ring_compiled(3), ChannelNoiseModel(meas_flip=0.1)
        )
        with pytest.raises(PatternError, match="R102"):
            get_backend("density").integrate(noisy, max_branches=8)


class TestSelectBackendEdgeCases:
    def test_unsupporting_prefer_instance_raises(self):
        """A backend *instance* that cannot execute the pattern is
        rejected with the same clarity as a registered name."""

        class NopeBackend:
            name = "nope"

            def supports(self, compiled):
                return False

        with pytest.raises(PatternError, match="cannot execute"):
            select_backend(ring_compiled(), prefer=NopeBackend())

    def test_supporting_prefer_instance_returned_unregistered(self):
        """An unregistered instance passes straight through (no byte gate
        — there is no registry byte model to consult for it)."""

        class YepBackend:
            name = "yep"

            def supports(self, compiled):
                return True

        eng = YepBackend()
        assert select_backend(ring_compiled(), prefer=eng) is eng

    def test_r101_names_every_fitting_engine(self):
        """The diagnostic suggests *each* registered engine that both fits
        the budget and supports the pattern — not a hard-coded pair."""
        from repro.mbqc import list_backends

        c = ring_compiled(40)
        est = estimate_compiled(c)
        # Budget below the (astronomical 2^41-amplitude) statevector
        # footprint but above every other supporting engine's: all of
        # them must be named as options.
        budget = est.bytes_per_shot("statevector") - 1
        fitting = [
            name
            for name in list_backends()
            if name != "statevector"
            and est.bytes_per_shot(name) <= budget
            and get_backend(name).supports(c)
        ]
        assert "mps" in fitting  # the ring is bounded-width: mps must fit
        with pytest.raises(PatternError) as err:
            select_backend(c, "statevector", max_bytes=budget)
        msg = str(err.value)
        for name in fitting:
            assert f"'{name}' engine fits" in msg

    def test_r101_omits_unsupporting_engines(self):
        """A non-Clifford pattern never gets the stabilizer engine
        suggested by the generic fits loop, however cheap its tableau."""
        c = ring_compiled()
        assert not c.is_clifford
        with pytest.raises(PatternError) as err:
            select_backend(
                c, "statevector",
                max_bytes=estimate_compiled(c).bytes_per_shot("statevector") - 1,
            )
        assert "'stabilizer' engine fits" not in str(err.value)

    def test_estimate_rows_cover_every_registered_engine(self):
        from repro.mbqc import list_backends

        est = estimate_compiled(ring_compiled())
        assert tuple(name for name, _, _ in est.engine_bytes) == list_backends()
        for name, nbytes, _ in est.engine_bytes:
            assert nbytes == get_backend(name).bytes_per_shot(
                ring_compiled()
            ) or nbytes > 0
