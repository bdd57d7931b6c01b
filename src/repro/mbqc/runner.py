"""Pattern execution entry points on the engine registry.

``run_pattern`` executes one trajectory of a pattern compiled to
slot-resolved ops (:func:`repro.mbqc.compile.compile_pattern`) and returns
its measurement outcomes plus the output state.  Outcomes can be forced
per node, which gives exhaustive branch enumeration: the determinism
claims of the paper (Sections II.B and III) are tested over every outcome
branch.

``pattern_to_matrix`` extracts the linear map a pattern implements on its
input nodes for a fixed outcome branch.  All ``2^k`` computational basis
columns are simulated in one vectorized sweep over a
:class:`~repro.sim.statevector.BatchedStateVector` instead of ``2^k``
per-column runs (``benchmarks/bench_e19_batched_runner.py``).

Both entry points dispatch through the backend registry
(:func:`repro.mbqc.backend.select_backend`): ``backend`` may be an engine
instance, a registered name (``"statevector"``, ``"stabilizer"``,
``"density"``, ``"mps"``), or ``"auto"``/``None`` — the latter routes
Clifford-angle patterns to the stabilizer-tableau fast path once the live
register outgrows dense reach.  There is no separate interpreter: a
``run_pattern`` trajectory is element 0 of the selected engine's
``sample_batch``, so seeded records follow that engine's stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Union

import numpy as np

from repro.mbqc.backend import PatternBackend, select_backend
from repro.mbqc.compile import CompiledPattern, compile_pattern
from repro.mbqc.pattern import Pattern, PatternError
from repro.sim.statevector import StateVector
from repro.utils.rng import SeedLike


@dataclass
class PatternResult:
    """Execution record: measurement outcomes and the output state.

    ``state`` holds the output nodes in ``output_order`` (little-endian:
    ``output_order[i]`` is qubit ``i`` of :meth:`state_array`).
    """

    outcomes: Dict[int, int]
    state: StateVector
    output_order: List[int]

    def state_array(self) -> np.ndarray:
        return self.state.to_array()


def run_pattern(
    pattern: Pattern,
    input_state: Optional[StateVector] = None,
    seed: SeedLike = None,
    forced_outcomes: Optional[Dict[int, int]] = None,
    validate: bool = True,
    compiled: Optional[CompiledPattern] = None,
    backend: Union[str, PatternBackend, None] = None,
) -> PatternResult:
    """Execute ``pattern`` and return outcomes plus the output state.

    Parameters
    ----------
    input_state:
        State of the input nodes (little-endian over ``pattern.input_nodes``);
        defaults to ``|+>^k`` as in the paper's QAOA protocol.
    forced_outcomes:
        Map node -> bit pinning measurement outcomes (branch enumeration).
        Forcing a zero-probability branch raises.  The returned state is
        always normalized; :func:`pattern_to_matrix` extracts branch
        amplitudes (linear maps).
    compiled:
        A precompiled program for ``pattern`` (from
        :func:`~repro.mbqc.compile.compile_pattern`); pass it when running
        the same pattern many times (e.g. branch enumeration) to skip
        recompilation.
    backend:
        An engine instance, a registry name (``"statevector"``,
        ``"stabilizer"``, ``"density"``, ``"mps"``) or ``"auto"``/``None``
        for automatic dispatch; the trajectory runs as a one-shot
        :meth:`PatternBackend.sample_batch`.  Loops that run the same
        program many times should select the engine once and pass the
        instance (a name pays ``select_backend``'s estimate per call).
        The output register must stay densifiable (Clifford patterns with
        huge *measured* sets are fine — only ``output_nodes`` are
        materialized).  Noise-lowered programs sample their Pauli channel
        ops and readout flips; a program with non-Pauli channels raises
        :class:`PatternError` (integrate it on the density engine).
    """
    if compiled is None:
        compiled = compile_pattern(pattern, validate=validate)
    if compiled.has_non_pauli_channel:
        # A single trajectory of a non-Pauli channel program is a mixed
        # state, which no StateVector result can hold.
        raise PatternError(
            "pattern carries non-Pauli channels: its output is mixed, so it "
            "has no single-trajectory state; integrate it exactly with the "
            "density engine's integrate()"
        )
    engine = select_backend(compiled, backend, dense_outputs=True)
    run = engine.sample_batch(
        compiled, 1, seed, input_state=input_state,
        forced_outcomes=forced_outcomes, keep_raw=True,
    )
    state = StateVector.from_array(run.dense_states()[0])
    return PatternResult(run.outcome_dicts()[0], state, list(compiled.output_nodes))


def enumerate_branches(pattern: Pattern) -> Iterator[Dict[int, int]]:
    """Yield every outcome assignment for the measured nodes (2^m branches)."""
    measured = pattern.measured_nodes()
    m = len(measured)
    for bits in range(1 << m):
        yield {node: (bits >> i) & 1 for i, node in enumerate(measured)}


def _full_branch(
    compiled: CompiledPattern, forced_outcomes: Optional[Dict[int, int]]
) -> Dict[int, int]:
    if forced_outcomes is None:
        return {node: 0 for node in compiled.measured_nodes}
    missing = set(compiled.measured_nodes) - set(forced_outcomes)
    if missing:
        raise PatternError(f"branch must force all outcomes; missing {sorted(missing)}")
    return dict(forced_outcomes)


def pattern_to_matrix(
    pattern: Pattern,
    forced_outcomes: Optional[Dict[int, int]] = None,
    backend: Union[str, PatternBackend, None] = None,
    compiled: Optional[CompiledPattern] = None,
) -> np.ndarray:
    """The linear map implemented on a fixed outcome branch (default all-0).

    For a deterministic pattern, this is proportional to the same unitary on
    every branch; :func:`repro.core.verify.check_pattern_determinism` makes
    that claim precise by enumerating branches.

    All ``2^k`` input basis columns run in one batched sweep on ``backend``
    (an engine instance, registry name, or ``None`` for automatic dispatch
    via :func:`~repro.mbqc.backend.select_backend`); pass ``compiled`` to
    amortize compilation across many branches.  Columns extracted on the
    stabilizer engine are exact up to a per-column phase (a tableau carries
    no global phase).
    """
    if compiled is None:
        compiled = compile_pattern(pattern)
    forced = _full_branch(compiled, forced_outcomes)
    engine = select_backend(compiled, backend, dense_outputs=True)
    k = compiled.num_inputs
    inputs = np.eye(1 << k, dtype=complex)
    run = engine.run_branch_batch(compiled, inputs, forced)
    # Row j of ``states`` is the output column for input basis state j.
    return np.ascontiguousarray(run.dense_states().T)
