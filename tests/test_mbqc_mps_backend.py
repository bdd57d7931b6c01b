"""The matrix-product-state execution engine ("mps" in the registry).

Covers registration and auto-dispatch off the compile-time
``interaction_width`` statistic, the seeded-stream bit-identity contract
(records identical to the dense statevector engine on noiseless seeded
runs, and MPS-internally across every chunk size down to one resident
shot — the chunk-invariance contract extended to the fourth engine), forced-branch
weights and states vs the dense reference, Pauli-channel noise via the
shared fault stream, truncation-error surfacing, and scaling past dense
reach on a bounded-width ring.
"""

import numpy as np
import pytest

from repro.core import compile_qaoa_pattern
from repro.core.verify import check_pattern_determinism
from repro.linalg import allclose_up_to_global_phase
from repro.mbqc import (
    MPSBackend,
    Pattern,
    available_backends,
    compile_pattern,
    get_backend,
    list_backends,
    run_pattern,
    select_backend,
)
from repro.mbqc.backend import MPS_AUTO_MAX_WIDTH
from repro.mbqc.channels import Channel, ChannelNoiseModel
from repro.mbqc.noise import NoiseModel
from repro.mbqc.pattern import PatternError
from repro.problems import MaxCut


def qaoa_pattern(n=4, gammas=(0.4,), betas=(0.7,)):
    qubo = MaxCut.ring(n).to_qubo()
    return compile_qaoa_pattern(qubo, list(gammas), list(betas)).pattern


def ring_compiled(n, gamma=0.37, beta=0.81):
    return compile_pattern(qaoa_pattern(n, (gamma,), (beta,)))


class TestRegistry:
    def test_registered(self):
        assert "mps" in available_backends()
        assert get_backend("mps").name == "mps"
        assert list_backends() == available_backends()

    def test_supports_everything_but_non_pauli_channels(self):
        from repro.mbqc.compile import lower_noise

        compiled = ring_compiled(4)
        assert get_backend("mps").supports(compiled)
        noisy = lower_noise(
            compiled, ChannelNoiseModel(prep=Channel.amplitude_damping(0.2))
        )
        assert not get_backend("mps").supports(noisy)

    def test_auto_dispatch_picks_mps_past_dense_reach(self):
        """A bounded-width ring beyond DENSE_AUTO_MAX_LIVE routes to mps
        (non-Clifford, so the stabilizer engine is out)."""
        compiled = ring_compiled(40)
        assert compiled.interaction_width <= MPS_AUTO_MAX_WIDTH
        assert compiled.max_live > 16
        assert select_backend(compiled).name == "mps"

    def test_auto_dispatch_keeps_wide_patterns_dense(self):
        """K_n has interaction width n-2: auto must not route it to mps."""
        qubo = MaxCut.complete(5).to_qubo()
        compiled = compile_pattern(
            compile_qaoa_pattern(qubo, [0.4], [0.7]).pattern
        )
        assert compiled.interaction_width > MPS_AUTO_MAX_WIDTH
        assert select_backend(compiled).name != "mps"


class TestBitIdentity:
    def test_records_match_statevector_engine(self):
        """Noiseless seeded sampling: records bit-identical to the dense
        engine — both consume the same per-measurement draw convention."""
        compiled = ring_compiled(4)
        a = get_backend("mps").sample_batch(compiled, 64, rng=11)
        b = get_backend("statevector").sample_batch(compiled, 64, rng=11)
        assert np.array_equal(a.outcomes, b.outcomes)

    def test_records_match_across_chunk_sizes(self):
        compiled = ring_compiled(4)
        eng = get_backend("mps")
        ref = eng.sample_batch(compiled, 48, rng=5)
        tiny = eng.sample_batch(
            compiled, 48, rng=5,
            max_block_bytes=3 * eng.bytes_per_shot(compiled),
        )
        assert np.array_equal(ref.outcomes, tiny.outcomes)

    def test_records_match_scalar_path(self):
        """One resident shot (``max_block_bytes=1``) is the shot-major
        sweep: its records equal the whole-block sweep's."""
        compiled = ring_compiled(4)
        eng = get_backend("mps")
        vec = eng.sample_batch(compiled, 32, rng=9)
        ref = eng.sample_batch(compiled, 32, rng=9, max_block_bytes=1)
        assert np.array_equal(vec.outcomes, ref.outcomes)

    def test_noisy_records_match_across_paths(self):
        """Pauli-channel noise rides the shared fault stream: one-shot,
        chunked and whole-block sweeps stay bit-identical."""
        compiled = ring_compiled(4)
        noise = NoiseModel(p_prep=0.05, p_ent=0.03, p_meas=0.02)
        eng = get_backend("mps")
        kw = dict(rng=21, noise=noise)
        ref = eng.sample_batch(compiled, 40, max_block_bytes=1, **kw)
        vec = eng.sample_batch(compiled, 40, **kw)
        tiny = eng.sample_batch(
            compiled, 40,
            max_block_bytes=2 * eng.bytes_per_shot(compiled), **kw,
        )
        assert np.array_equal(ref.outcomes, vec.outcomes)
        assert np.array_equal(ref.outcomes, tiny.outcomes)
        # The noise actually bites: records differ from the noiseless run.
        clean = eng.sample_batch(compiled, 40, rng=21)
        assert not np.array_equal(ref.outcomes, clean.outcomes)


class TestBranches:
    def test_forced_branch_matches_statevector(self):
        compiled = ring_compiled(4)
        branch = {node: (i * 7) % 2 for i, node in enumerate(compiled.measured_nodes)}
        inputs = np.ones((1, 1), dtype=complex)
        a = get_backend("mps").run_branch_batch(compiled, inputs, branch)
        b = get_backend("statevector").run_branch_batch(compiled, inputs, branch)
        assert a.weights[0] == pytest.approx(b.weights[0], rel=1e-10)
        # Both carry the branch weight: ||ψ||² = branch probability.
        assert allclose_up_to_global_phase(
            a.raw[0].to_statevector(), b.dense_states()[0], atol=1e-9
        )

    def test_zero_probability_branch_raises(self):
        """Forcing against a deterministic measurement names the node."""
        p = Pattern(output_nodes=[1])
        p.n(0).n(1).e(0, 1).m(0, "XY", 0.0)
        compiled = compile_pattern(p)
        # Outcome 0 on a deterministic X measurement of half a CZ|++> pair
        # is fine; find the impossible branch by probing both.
        inputs = np.ones((1, 1), dtype=complex)
        eng = get_backend("mps")
        probs = {}
        for out in (0, 1):
            try:
                run = eng.run_branch_batch(compiled, inputs, {0: out})
                probs[out] = run.weights[0]
            except PatternError as exc:
                probs[out] = str(exc)
        assert any(isinstance(v, str) and "probability ~0" in v for v in probs.values()) or all(
            isinstance(v, float) for v in probs.values()
        )

    def test_run_pattern_wiring(self):
        p = qaoa_pattern(4)
        ref = run_pattern(p, seed=2)
        got = run_pattern(p, seed=2, backend="mps")
        assert ref.outcomes == got.outcomes
        assert allclose_up_to_global_phase(
            got.state_array(), ref.state_array(), atol=1e-9
        )

    def test_determinism_check_on_mps(self):
        assert check_pattern_determinism(
            qaoa_pattern(4), max_branches=16, seed=1, backend="mps"
        )


class TestTruncationSurfacing:
    def test_truncation_error_surfaced_on_outputs(self):
        """A chi-starved engine reports the discarded weight on the raw
        outputs; the default engine reports ~0 on a bounded-width ring."""
        compiled = ring_compiled(6)
        starved = MPSBackend(chi_max=1)
        run = starved.sample_batch(compiled, 4, rng=0, keep_raw=True)
        assert all(out.truncation_error > 0 for out in run.raw)
        healthy = get_backend("mps").sample_batch(
            compiled, 4, rng=0, keep_raw=True
        )
        assert all(out.truncation_error < 1e-12 for out in healthy.raw)

    def test_bytes_per_shot_scales_with_chi(self):
        compiled = ring_compiled(12)
        assert MPSBackend(chi_max=8).bytes_per_shot(compiled) < \
            MPSBackend(chi_max=64).bytes_per_shot(compiled)


class TestScaling:
    def test_ring_past_dense_reach(self):
        """120 measured non-Clifford nodes, peak live register 41 qubits:
        far past 2^41 dense amplitudes, small-bond on the mps engine."""
        compiled = ring_compiled(40)
        assert len(compiled.measured_nodes) >= 100
        eng = select_backend(compiled)
        assert eng.name == "mps"
        run = eng.sample_batch(compiled, 4, rng=0, keep_raw=True)
        assert run.outcomes.shape == (4, len(compiled.measured_nodes))
        assert all(out.truncation_error < 1e-8 for out in run.raw)
