"""Satellite regression: ``sample_batch(compiled, n_shots=0)`` is uniform
across all four engines — an empty, well-shaped :class:`SampleRun`, no
random draw consumed, and the same exception text for negative counts.

Before the fix, the engines disagreed: some raised, some crashed deep in
their shot loops.  Zero shots is a legitimate request (an empty
checkpoint job, a degenerate sweep point), so every engine now returns
the empty run and leaves the caller's generator untouched.
"""

import numpy as np
import pytest

from repro.mbqc import (
    Pattern,
    PatternError,
    available_backends,
    compile_pattern,
    get_backend,
)
from repro.utils.rng import ensure_rng

ENGINES = tuple(available_backends())


def clifford_chain():
    """A chain every engine supports (all angles are Clifford)."""
    alphas = [0.0, np.pi / 2, np.pi, -np.pi / 2]
    p = Pattern(input_nodes=[0], output_nodes=[len(alphas)])
    for i, a in enumerate(alphas):
        p.n(i + 1).e(i, i + 1).m(i, "XY", -a, s_domain=set())
        p.x(i + 1, {i})
    return p


@pytest.fixture(scope="module")
def compiled():
    return compile_pattern(clifford_chain())


@pytest.mark.parametrize("name", ENGINES)
def test_zero_shots_returns_empty_run(compiled, name):
    run = get_backend(name).sample_batch(compiled, 0, ensure_rng(0))
    assert run.n_shots == 0
    assert run.outcomes.shape == (0, len(compiled.measured_nodes))
    assert run.outcomes.dtype == np.int8
    assert run.nodes == compiled.measured_nodes


@pytest.mark.parametrize("name", ENGINES)
def test_zero_shots_consumes_no_randomness(compiled, name):
    """The empty run must not advance the caller's generator: the next
    draw equals the first draw of a fresh stream."""
    rng = ensure_rng(123)
    get_backend(name).sample_batch(compiled, 0, rng)
    assert np.array_equal(
        rng.integers(1 << 30, size=8),
        ensure_rng(123).integers(1 << 30, size=8),
    )


@pytest.mark.parametrize("name", ENGINES)
def test_zero_shots_keep_raw(compiled, name):
    run = get_backend(name).sample_batch(
        compiled, 0, ensure_rng(0), keep_raw=True
    )
    assert run.n_shots == 0
    if run.raw is not None:
        assert len(run.raw) == 0


@pytest.mark.parametrize("name", ENGINES)
def test_negative_shots_still_raise(compiled, name):
    with pytest.raises(ValueError, match="non-negative"):
        get_backend(name).sample_batch(compiled, -1, ensure_rng(0))


def test_statevector_empty_states_block(compiled):
    run = get_backend("statevector").sample_batch(
        compiled, 0, ensure_rng(0)
    )
    assert run.states is not None
    assert run.states.shape == (0, 1 << compiled.num_outputs)


@pytest.mark.parametrize("name", ENGINES)
@pytest.mark.parametrize("bad", ["bit 2", "bit -1", "unmeasured node"])
def test_invalid_forced_outcomes_refused(compiled, name, bad):
    """``forced_outcomes`` is validated identically on every engine: a bit
    outside {0, 1} or a node the pattern never measures raises
    PatternError — it is never recorded, ignored, or left to crash deep
    in a shot loop."""
    node = compiled.measured_nodes[0]
    forced = {
        "bit 2": {node: 2},
        "bit -1": {node: -1},
        "unmeasured node": {9999: 1},
    }[bad]
    engine = get_backend(name)
    for n_shots in (0, 4):
        with pytest.raises(PatternError, match="forced outcome"):
            engine.sample_batch(
                compiled, n_shots, ensure_rng(0), forced_outcomes=forced
            )
    run = engine.sample_batch(
        compiled, 4, ensure_rng(0), forced_outcomes={node: 1}
    )
    assert np.all(run.outcomes[:, 0] == 1)
