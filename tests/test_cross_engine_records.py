"""Cross-engine seeded-record identity of the trajectory samplers.

The density, statevector and MPS engines are distinct implementations
(batched density tensor, batched state vector, per-shot MPS chains) that
consume the generator through one draw convention, so on channel-free
programs their seeded records must agree bit for bit — and chunking the
density and MPS sweeps must not change them.
"""

import numpy as np
import pytest

from repro.core import compile_qaoa_pattern
from repro.mbqc import get_backend
from repro.mbqc.compile import lower_noise
from repro.mbqc.noise import NoiseModel
from repro.problems import MaxCut


class TestCrossEngineRecordIdentity:
    """On seeded channel-free programs (readout flips included) the
    density, statevector and MPS samplers consume the generator through
    the same draw convention — one uniform vector per measurement, one
    flip vector per noisy readout — so their records are bit-identical,
    and chunking the density and MPS sweeps does not change them."""

    @pytest.mark.parametrize("ring", [3, 4])
    @pytest.mark.parametrize("meas_flip", [0.0, 0.05])
    def test_records_identical_across_engines_and_chunks(self, ring, meas_flip):
        program = compile_qaoa_pattern(
            MaxCut.ring(ring).to_qubo(), [0.4, 0.9], [0.7, 0.2]
        ).executable()
        if meas_flip:
            program = lower_noise(program, NoiseModel(p_meas=meas_flip))
        ref = get_backend("statevector").sample_batch(program, 64, rng=5)
        assert 0.0 < ref.outcomes.mean() < 1.0
        density, mps = get_backend("density"), get_backend("mps")
        runs = [
            density.sample_batch(program, 64, rng=5),
            density.sample_batch(
                program, 64, rng=5,
                max_block_bytes=7 * density.bytes_per_shot(program),
            ),
            mps.sample_batch(program, 64, rng=5),
            mps.sample_batch(program, 64, rng=5, max_block_bytes=1),
        ]
        for run in runs:
            assert np.array_equal(run.outcomes, ref.outcomes)
