"""Channel IR: Kraus validation, Pauli classification, noise lowering."""

import numpy as np
import pytest
from patterns import j_pattern

from repro.linalg.gates import IDENTITY, PAULI_X, PAULI_Z
from repro.mbqc import compile_pattern, get_backend
from repro.mbqc.channels import Channel, ChannelNoiseModel, as_channel_model
from repro.mbqc.compile import ChannelOp, MeasureOp, lower_noise
from repro.mbqc.noise import NoiseModel
from repro.mbqc.pattern import PatternError


def clifford_pattern():
    """A Clifford-angle pattern (Pauli measurement)."""
    return j_pattern(0.0)


class TestChannel:
    def test_standard_channels_validate(self):
        for ch in (
            Channel.depolarizing(0.1),
            Channel.dephasing(0.2),
            Channel.amplitude_damping(0.3),
        ):
            acc = sum(k.conj().T @ k for k in ch.kraus)
            assert np.allclose(acc, np.eye(2))
            assert ch.num_qubits == 1

    def test_pauli_classification(self):
        p = 0.12
        probs = Channel.depolarizing(p).pauli_probs
        assert probs == pytest.approx((1 - p, p / 3, p / 3, p / 3))
        probs = Channel.dephasing(p).pauli_probs
        assert probs == pytest.approx((1 - p, 0.0, 0.0, p))
        assert Channel.amplitude_damping(p).pauli_probs is None

    def test_identity_detection(self):
        assert Channel.depolarizing(0.0).is_identity()
        assert not Channel.depolarizing(0.1).is_identity()
        assert not Channel.amplitude_damping(0.1).is_identity()

    def test_zero_probability_short_circuits_to_single_kraus(self):
        """p=0 constructors return the one-operator identity channel —
        no zero Kraus operators for the density engine to grind through,
        and the trivial classification is exact, not numerical."""
        for ch in (
            Channel.depolarizing(0.0),
            Channel.dephasing(0.0),
            Channel.amplitude_damping(0.0),
        ):
            assert len(ch.kraus) == 1
            assert np.array_equal(ch.kraus[0], np.eye(2))
            assert ch.is_identity()
            assert ChannelNoiseModel(prep=ch, ent=ch).is_trivial()

    def test_zero_noise_model_hits_fidelity_fast_path(self):
        """A p=0 channel model is classified trivial, so average_fidelity
        short-circuits to exactly 1.0 — no shot loop, no numerics."""
        from repro.mbqc.noise import average_fidelity

        model = ChannelNoiseModel(
            prep=Channel.depolarizing(0.0), ent=Channel.dephasing(0.0)
        )
        assert average_fidelity(j_pattern(0.4), model, trajectories=1) == 1.0

    def test_extremal_probability_channels_validate(self):
        """p=1 / gamma=1 are legal channels: the Kraus sets still sum to
        identity and classification stays consistent."""
        full_depol = Channel.depolarizing(1.0)
        assert full_depol.pauli_probs == pytest.approx((0.0, 1 / 3, 1 / 3, 1 / 3))
        full_dephase = Channel.dephasing(1.0)
        assert full_dephase.pauli_probs == pytest.approx((0.0, 0.0, 0.0, 1.0))
        assert not full_dephase.is_identity()
        full_damp = Channel.amplitude_damping(1.0)
        acc = sum(k.conj().T @ k for k in full_damp.kraus)
        assert np.allclose(acc, np.eye(2))
        assert full_damp.pauli_probs is None

    def test_extremal_channels_run(self):
        """gamma=1 integrates exactly; p=1 dephasing still samples."""
        model = ChannelNoiseModel(prep=Channel.amplitude_damping(1.0))
        prog = lower_noise(compile_pattern(j_pattern(0.4)), model)
        rho = get_backend("density").integrate(prog)
        assert rho is not None
        pauli_model = ChannelNoiseModel(ent=Channel.dephasing(1.0))
        prog = lower_noise(compile_pattern(j_pattern(0.4)), pauli_model)
        from repro.utils.rng import ensure_rng

        run = get_backend("statevector").sample_batch(prog, 8, ensure_rng(1))
        assert run.outcomes.shape[0] == 8

    def test_from_kraus_does_not_freeze_caller_arrays(self):
        k0 = np.sqrt(0.9) * np.eye(2, dtype=complex)
        k1 = np.sqrt(0.1) * PAULI_X.astype(complex)
        Channel.from_kraus([k0, k1])
        k0 *= 1.0  # caller's buffer must stay writable

    def test_from_kraus_custom(self):
        ch = Channel.from_kraus(
            [np.sqrt(0.7) * IDENTITY, np.sqrt(0.3) * PAULI_X], name="bitflip"
        )
        assert ch.pauli_probs == pytest.approx((0.7, 0.3, 0.0, 0.0))

    def test_non_trace_preserving_rejected(self):
        with pytest.raises(ValueError, match="not trace-preserving"):
            Channel.from_kraus([0.9 * IDENTITY])
        with pytest.raises(ValueError, match="not trace-preserving"):
            Channel.from_kraus([IDENTITY, 0.1 * PAULI_Z])

    def test_malformed_operators_named(self):
        with pytest.raises(ValueError, match="operator 1"):
            Channel.from_kraus([IDENTITY, np.zeros((2, 3))])
        with pytest.raises(ValueError, match="operator 1"):
            Channel.from_kraus([IDENTITY, np.eye(3)])
        with pytest.raises(ValueError, match="at least one"):
            Channel.from_kraus([])


class TestChannelNoiseModel:
    def test_meas_flip_validation(self):
        with pytest.raises(ValueError, match="meas_flip"):
            ChannelNoiseModel(meas_flip=1.5)
        with pytest.raises(ValueError, match="meas_flip"):
            ChannelNoiseModel(meas_flip=-0.1)

    def test_trivial_and_pauli(self):
        assert ChannelNoiseModel().is_trivial()
        assert ChannelNoiseModel(prep=Channel.depolarizing(0.0)).is_trivial()
        m = ChannelNoiseModel(ent=Channel.dephasing(0.1), meas_flip=0.05)
        assert not m.is_trivial()
        assert m.is_pauli()
        assert not ChannelNoiseModel(prep=Channel.amplitude_damping(0.1)).is_pauli()

    def test_multi_qubit_channel_rejected_per_op(self):
        cz_kraus = [np.diag([1, 1, 1, -1]).astype(complex)]
        ch = Channel.from_kraus(cz_kraus, name="cz")
        assert ch.num_qubits == 2
        with pytest.raises(ValueError, match="single-qubit"):
            ChannelNoiseModel(ent=ch)


class TestCoercion:
    def test_none_and_passthrough(self):
        assert as_channel_model(None) is None
        m = ChannelNoiseModel(meas_flip=0.1)
        assert as_channel_model(m) is m

    def test_noise_model_shim(self):
        m = as_channel_model(NoiseModel(p_prep=0.02, p_meas=0.3))
        assert m.prep is not None and m.prep.pauli_probs[1] == pytest.approx(0.02 / 3)
        assert m.ent is None
        assert m.meas_flip == 0.3

    def test_garbage_rejected(self):
        with pytest.raises(TypeError):
            as_channel_model("not a noise model")


class TestLowering:
    def test_channel_ops_woven_in(self):
        compiled = compile_pattern(j_pattern(0.4))
        noisy = lower_noise(compiled, NoiseModel(p_prep=0.01, p_ent=0.02, p_meas=0.3))
        kinds = [type(op).__name__ for op in noisy.ops]
        # One prep channel after the N, two ent channels after the E.
        assert kinds.count("ChannelOp") == 3
        i_prep = kinds.index("PrepOp")
        assert kinds[i_prep + 1] == "ChannelOp"
        flips = [op.flip_p for op in noisy.ops if type(op) is MeasureOp]
        assert flips == [0.3]
        assert noisy.has_noise and not compiled.has_noise
        assert noisy.noise is not None

    def test_trivial_noise_is_identity_lowering(self):
        compiled = compile_pattern(j_pattern(0.4))
        assert lower_noise(compiled, NoiseModel()) is compiled
        assert lower_noise(compiled, None) is compiled

    def test_double_lowering_rejected(self):
        compiled = compile_pattern(j_pattern(0.4))
        noisy = lower_noise(compiled, NoiseModel(p_ent=0.1))
        with pytest.raises(PatternError, match="already"):
            lower_noise(noisy, NoiseModel(p_ent=0.1))

    def test_pauli_channels_keep_clifford(self):
        compiled = compile_pattern(clifford_pattern())
        assert compiled.is_clifford
        noisy = lower_noise(compiled, NoiseModel(p_prep=0.1, p_meas=0.1))
        assert noisy.is_clifford
        assert not noisy.has_non_pauli_channel

    def test_non_pauli_channels_disqualify_clifford(self):
        compiled = compile_pattern(clifford_pattern())
        model = ChannelNoiseModel(prep=Channel.amplitude_damping(0.1))
        noisy = lower_noise(compiled, model)
        assert noisy.has_non_pauli_channel
        assert not noisy.is_clifford

    def test_trajectory_engines_refuse_non_pauli(self):
        compiled = compile_pattern(j_pattern(0.4))
        model = ChannelNoiseModel(ent=Channel.amplitude_damping(0.2))
        sv = get_backend("statevector")
        with pytest.raises(PatternError, match="density"):
            sv.sample_batch(compiled, 4, rng=0, noise=model)
        assert not sv.supports(lower_noise(compiled, model))

    def test_branch_extraction_refuses_noisy_programs(self):
        compiled = lower_noise(
            compile_pattern(j_pattern(0.4)), NoiseModel(p_ent=0.1)
        )
        inputs = np.eye(2, dtype=complex)
        for name in ("statevector",):
            with pytest.raises(PatternError, match="density"):
                get_backend(name).run_branch_batch(compiled, inputs, {0: 0})

    def test_shared_noise_program_across_engines(self):
        """The same lowered program drives both trajectory engines: seeded
        statevector and stabilizer runs both consume it without error and
        produce plausible outcome statistics."""
        compiled = compile_pattern(clifford_pattern())
        noisy = lower_noise(compiled, NoiseModel(p_prep=0.2, p_meas=0.2))
        for name in ("statevector", "stabilizer"):
            run = get_backend(name).sample_batch(noisy, 64, rng=3)
            assert run.outcomes.shape == (64, 1)
            bits = run.outcomes.mean()
            assert 0.05 < bits < 0.95  # noise randomizes the outcome record
