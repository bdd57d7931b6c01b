"""Pattern execution on the dynamic statevector simulator.

``run_pattern`` executes a pattern compiled to slot-resolved ops
(:func:`repro.mbqc.compile.compile_pattern`): a qubit is allocated per
``N``, entangled on ``E``, measured adaptively on ``M`` (the measured qubit
is *removed*, so memory tracks the live set, cf. ``Pattern.max_live_nodes``),
with conditional corrections applied from precomputed slots.  Outcomes can
be forced per node, which gives exhaustive branch enumeration: the
determinism claims of the paper (Sections II.B and III) are tested over
every outcome branch.

``pattern_to_matrix`` extracts the linear map a pattern implements on its
input nodes for a fixed outcome branch.  It runs on the batched execution
engine (:mod:`repro.mbqc.backend`): all ``2^k`` computational basis columns
are simulated in one vectorized sweep over a
:class:`~repro.sim.statevector.BatchedStateVector` instead of ``2^k``
per-column runs (``benchmarks/bench_e19_batched_runner.py``).

Both entry points dispatch through the backend registry
(:func:`repro.mbqc.backend.select_backend`): ``backend`` may be an engine
instance, a registered name (``"statevector"``, ``"stabilizer"``,
``"density"``), or ``"auto"``/``None`` — the latter routes Clifford-angle
patterns to the stabilizer-tableau fast path once the live register
outgrows dense reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.linalg.gates import PAULI_X, PAULI_Y, PAULI_Z
from repro.mbqc.backend import PatternBackend, draw_pauli_fault, resolve_backend
from repro.mbqc.compile import (
    ChannelOp,
    CompiledPattern,
    ConditionalOp,
    EntangleOp,
    MeasureOp,
    PrepOp,
    UnitaryOp,
    compile_pattern,
    signal_parity,
)
from repro.mbqc.pattern import Pattern, PatternError
from repro.sim.statevector import StateVector
from repro.utils.rng import SeedLike, ensure_rng

_FAULT_PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)


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


def _reorder_output(sv: StateVector, out_perm: Sequence[int]) -> StateVector:
    """Permute simulator slots into output order; returns the output state.

    For zero-output patterns the 0-qubit state still carries the branch
    amplitude (``from_array`` on a length-1 vector keeps it) — the previous
    implementation reset it to 1, silently dropping the branch weight.
    """
    arr = sv.to_array()
    n = sv.num_qubits
    if n:
        tensor = arr.reshape((2,) * n).transpose(tuple(reversed(range(n))))
        # tensor axis i = slot i; want axis j = slot of output_nodes[j].
        tensor = tensor.transpose(out_perm)
        arr = tensor.transpose(tuple(reversed(range(n)))).reshape(-1)
    return StateVector.from_array(arr)


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
        ``None`` keeps the in-process dense interpreter below (one
        trajectory, no batch overhead; noise-lowered programs execute
        their Pauli channel ops and readout flips in place).  A registry
        name (``"auto"``, ``"statevector"``, ``"stabilizer"``,
        ``"density"``) or engine instance dispatches the trajectory
        through :meth:`PatternBackend.sample_batch`; the output register
        must stay densifiable (Clifford patterns with huge *measured* sets
        are fine — only ``output_nodes`` are materialized).
    """
    if compiled is None:
        compiled = compile_pattern(pattern, validate=validate)
    rng = ensure_rng(seed)
    forced = forced_outcomes or {}

    if backend is not None:
        engine = resolve_backend(backend, compiled, dense_outputs=True)
        run = engine.sample_batch(
            compiled, 1, rng, input_state=input_state, forced_outcomes=forced,
            keep_raw=True,
        )
        state = StateVector.from_array(run.dense_states()[0])
        return PatternResult(
            run.outcome_dicts()[0], state, list(compiled.output_nodes)
        )

    k = compiled.num_inputs
    if input_state is None:
        sv = StateVector.plus(k)
    else:
        if input_state.num_qubits != k:
            raise PatternError(
                f"input state has {input_state.num_qubits} qubits, pattern has {k} inputs"
            )
        sv = input_state.copy()

    outcomes: Dict[int, int] = {}
    for op in compiled.ops:
        tp = type(op)
        if tp is PrepOp:
            sv.add_qubit(op.state)
        elif tp is EntangleOp:
            sv.apply_cz(*op.slots)
        elif tp is MeasureOp:
            s = signal_parity(outcomes, op.s_domain)
            t = signal_parity(outcomes, op.t_domain)
            out, _prob = sv.measure(
                op.slot,
                op.bases[s + 2 * t],
                rng=rng,
                force=forced.get(op.node),
                remove=True,
            )
            if op.flip_p > 0.0 and rng.random() < op.flip_p:
                out ^= 1  # readout flip corrupts downstream adaptivity
            outcomes[op.node] = out
        elif tp is ConditionalOp:
            if signal_parity(outcomes, op.domain):
                sv.apply_1q(op.matrix, op.slot)
        elif tp is ChannelOp:
            # The interpreter is one trajectory: sample the shared noise
            # program's Pauli mixtures (non-Pauli channels raise, pointing
            # to the density engine).
            i = draw_pauli_fault(op, rng)
            if i is not None:
                sv.apply_1q(_FAULT_PAULIS[i], op.slot)
        else:  # UnitaryOp
            sv.apply_1q(op.matrix, op.slot)

    out_state = _reorder_output(sv, compiled.out_perm)
    return PatternResult(outcomes, out_state, list(compiled.output_nodes))


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
    engine = resolve_backend(backend, compiled, dense_outputs=True)
    k = compiled.num_inputs
    inputs = np.eye(1 << k, dtype=complex)
    run = engine.run_branch_batch(compiled, inputs, forced)
    # Row j of ``states`` is the output column for input basis state j.
    return np.ascontiguousarray(run.dense_states().T)
