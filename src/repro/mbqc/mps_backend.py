"""Matrix-product-state pattern engine (``"mps"``).

The fourth registered backend: executes compiled patterns on
:class:`repro.sim.mps.MPSState` chains, whose cost scales with the bond
dimension instead of ``2^max_live`` — bounded-entanglement patterns
(line/ring cluster states, ``interaction_width ≤ 1``) run at hundreds of
measured non-Clifford nodes, a workload none of the dense engines can
touch.

Sampling follows the byte-budget discipline of the density engine:
per-shot MPS chains are too large to keep thousands resident, so the
sampler sweeps the op stream over *chunks* of resident shots under
``MPS_BATCH_MAX_BYTES`` (``chunk = budget // bytes_per_shot``, clamped
to 1).  Every chunk drives the same scalar :class:`MPSState` kernels and
reads one shared :class:`~repro.mbqc.backend._ShotDrawTable` whole-block
draw schedule, so seeded records are bit-identical across chunk sizes *by
construction* — and, because the table replays the dense engines' draw
conventions (uniform per unpinned measurement, flip block per readout,
fault block per Pauli channel), they are bit-identical to the
statevector engine's seeded records on any channel-free program both can
run.

Truncation is never silent: every output carries the accumulated
relative discarded weight (:attr:`MPSOutput.truncation_error`,
``DensityRun.dropped_weight``-style), 0.0 meaning the run was exact up
to floating point.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.linalg.gates import PAULI_X, PAULI_Y, PAULI_Z
from repro.mbqc.backend import (
    BranchRun,
    SampleRun,
    _check_branch,
    _check_branch_noiseless,
    _check_n_shots,
    _empty_sample_run,
    _input_row,
    _measure_vecs,
    _parity_vec,
    _require_pauli_channel,
    _ShotDrawTable,
    register_backend,
)
from repro.mbqc.compile import (
    ChannelOp,
    CompiledPattern,
    ConditionalOp,
    EntangleOp,
    MeasureOp,
    PrepOp,
    lower_noise,
    signal_parity,
)
from repro.mbqc.pattern import PatternError
from repro.sim.mps import MPSState
from repro.sim.statevector import ZeroProbabilityBranch
from repro.utils.rng import SeedLike, ensure_rng

#: Default bond-dimension cap.  Bounded-entanglement patterns stay far
#: below it (their true Schmidt rank is ~2^interaction_width); when a
#: high-entanglement pattern saturates it, the discarded weight shows up
#: in ``truncation_error`` rather than silently degrading results.
MPS_DEFAULT_CHI_MAX = 64

#: Relative singular-value cutoff: drops only numerically-zero Schmidt
#: coefficients by default, keeping small-pattern runs exact to ~1e-12.
MPS_DEFAULT_CUTOFF = 1e-12

#: Resident-chunk byte budget of the sampling sweep (cf.
#: ``DENSITY_BATCH_MAX_BYTES``).
MPS_BATCH_MAX_BYTES = 1 << 26

_MPS_PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)


class MPSOutput:
    """One element's output on the MPS engine.

    ``mps`` is the normalized output chain (output nodes in output order);
    ``log2_weight`` the branch log-probability (0.0 for sampled
    trajectories, log-domain so hundred-measurement branch weights do not
    underflow).  ``truncation_error`` surfaces the chain's accumulated
    relative discarded SVD weight — 0.0 certifies the element was computed
    without truncation."""

    def __init__(self, mps: MPSState, log2_weight: float = 0.0):
        self.mps = mps
        self.log2_weight = log2_weight

    @property
    def weight(self) -> float:
        """Branch probability (may underflow to 0.0 at hundreds of
        measurements; use ``log2_weight`` for the exact value)."""
        return 2.0 ** self.log2_weight

    @property
    def truncation_error(self) -> float:
        return self.mps.truncation_error

    def unit_statevector(self) -> np.ndarray:
        """Dense unit-norm output column (little-endian, output order)."""
        vec = self.mps.to_array()
        nrm = float(np.linalg.norm(vec))
        if nrm <= 0.0:
            raise ValueError("cannot densify a zero-norm output")
        return vec / nrm

    def to_statevector(self) -> np.ndarray:
        """Unnormalized dense output (``‖·‖² = weight``), the branch-map
        densification contract."""
        return math.sqrt(self.weight) * self.unit_statevector()

    def probabilities(self) -> np.ndarray:
        """Computational-basis probabilities of the output."""
        p = np.abs(self.mps.to_array()) ** 2
        return p / p.sum()


class MPSBackend:
    """Pattern execution on truncated matrix-product states.

    ``chi_max``/``cutoff`` bound every SVD refactorization (see
    :class:`repro.sim.mps.MPSState`); with the defaults, executions of
    bounded-entanglement patterns are exact and report
    ``truncation_error == 0.0``."""

    name = "mps"
    byte_model_note = "2·n·chi² bonded site tensors"

    def __init__(
        self,
        chi_max: Optional[int] = MPS_DEFAULT_CHI_MAX,
        cutoff: float = MPS_DEFAULT_CUTOFF,
    ):
        self.chi_max = chi_max
        self.cutoff = cutoff

    def supports(self, compiled: CompiledPattern) -> bool:
        # Trajectory engine: Pauli mixtures sample as faults, any other
        # channel needs the density engine.
        return not compiled.has_non_pauli_channel

    # -- resource model -----------------------------------------------------

    def _chi_cap(self, compiled: CompiledPattern) -> int:
        """The effective bond cap: the configured ``chi_max``, never more
        than the exact worst case ``2^(max_live // 2)`` of a register this
        wide."""
        worst = 1 << max(0, compiled.max_live // 2)
        if self.chi_max is None:
            return worst
        return min(self.chi_max, worst)

    def bytes_per_shot(self, compiled: CompiledPattern) -> int:
        """Bonded per-shot estimate ``2 · n · chi² · 16`` (complex128 site
        tensors ``chi × 2 × chi`` over the peak register) — the registry
        hook :func:`repro.analysis.estimate_compiled` builds its rows
        from."""
        chi = self._chi_cap(compiled)
        return 2 * max(1, compiled.max_live) * chi * chi * 16

    def _chunk_shots(
        self, compiled: CompiledPattern, max_block_bytes: Optional[int]
    ) -> int:
        budget = (
            MPS_BATCH_MAX_BYTES if max_block_bytes is None
            else int(max_block_bytes)
        )
        return max(1, budget // max(1, self.bytes_per_shot(compiled)))

    def _fresh_state(self, row: np.ndarray) -> MPSState:
        return MPSState.from_dense_row(
            row, chi_max=self.chi_max, cutoff=self.cutoff
        )

    # -- forced branches ----------------------------------------------------

    def run_branch_batch(
        self,
        compiled: CompiledPattern,
        inputs: np.ndarray,
        forced_outcomes: Mapping[int, int],
    ) -> BranchRun:
        _check_branch_noiseless(compiled, self.name)
        forced = _check_branch(compiled, forced_outcomes)
        inputs = np.asarray(inputs, dtype=complex)
        if inputs.ndim != 2 or inputs.shape[1] != 1 << compiled.num_inputs:
            raise PatternError(
                f"the {self.name} engine expects an input block of shape "
                f"(B, {1 << compiled.num_inputs}) for this pattern's "
                f"{compiled.num_inputs} inputs, got {inputs.shape}"
            )
        raws: List[MPSOutput] = []
        for row in inputs:
            st = self._fresh_state(row)
            outcomes: Dict[int, int] = {}
            log2w = 0.0
            for op in compiled.ops:
                tp = type(op)
                if tp is PrepOp:
                    st.add_qubit(op.state)
                elif tp is EntangleOp:
                    st.apply_cz(*op.slots)
                elif tp is MeasureOp:
                    s = signal_parity(outcomes, op.s_domain)
                    t = signal_parity(outcomes, op.t_domain)
                    out = forced[op.node]
                    try:
                        _, prob = st.measure(
                            op.slot, _measure_vecs(op, s, t), force=out
                        )
                    except ZeroProbabilityBranch:
                        raise ZeroProbabilityBranch(
                            f"forced outcome {out} on node {op.node} has "
                            f"probability ~0"
                        ) from None
                    log2w += math.log2(prob)
                    outcomes[op.node] = out
                elif tp is ConditionalOp:
                    if signal_parity(outcomes, op.domain):
                        st.apply_1q(op.matrix, op.slot)
                else:  # UnitaryOp (channels are excluded as noise above)
                    st.apply_1q(op.matrix, op.slot)
            st.permute(compiled.out_perm)
            raws.append(MPSOutput(st, log2w))
        weights = np.array([out.weight for out in raws], dtype=float)
        return BranchRun(outcomes=forced, weights=weights, raw=tuple(raws))

    # -- trajectory sampling ------------------------------------------------

    def sample_batch(
        self,
        compiled: CompiledPattern,
        n_shots: int,
        rng: SeedLike = None,
        input_state: Optional[np.ndarray] = None,
        forced_outcomes: Optional[Mapping[int, int]] = None,
        noise: Optional[object] = None,
        keep_raw: bool = False,
        max_block_bytes: Optional[int] = None,
    ) -> SampleRun:
        """Sample ``n_shots`` trajectories.

        Sweeps the op stream over resident shot chunks sized by
        ``max_block_bytes`` (default :data:`MPS_BATCH_MAX_BYTES`).  Every
        chunk runs the same per-shot kernels off one whole-block draw
        table, so seeded records are bit-identical across chunk sizes."""
        _check_n_shots(n_shots, self.name)
        rng = ensure_rng(rng)
        forced = dict(forced_outcomes or {})
        if noise is not None:
            compiled = lower_noise(compiled, noise)
        for op in compiled.ops:
            if type(op) is ChannelOp:
                _require_pauli_channel(op)  # fail fast, before any shots run
        row = _input_row(compiled, input_state, self.name)
        if n_shots == 0:
            return _empty_sample_run(compiled, keep_raw)
        draws = _ShotDrawTable(rng, n_shots)
        rec: Dict[int, np.ndarray] = {
            node: np.empty(n_shots, dtype=np.int8)
            for node in compiled.measured_nodes
        }
        raws: Optional[List[MPSOutput]] = [None] * n_shots if keep_raw else None  # type: ignore[list-item]
        chunk = self._chunk_shots(compiled, max_block_bytes)
        for lo in range(0, n_shots, chunk):
            hi = min(lo + chunk, n_shots)
            self._run_chunk(compiled, row, forced, draws, rec, raws, lo, hi)
        outcomes = (
            np.stack([rec[n] for n in compiled.measured_nodes], axis=1)
            if compiled.measured_nodes
            else np.zeros((n_shots, 0), dtype=np.int8)
        )
        return SampleRun(
            nodes=compiled.measured_nodes,
            outcomes=outcomes,
            raw=tuple(raws) if raws is not None else None,
        )

    def _run_chunk(
        self,
        compiled: CompiledPattern,
        row: np.ndarray,
        forced: Dict[int, int],
        draws: _ShotDrawTable,
        rec: Dict[int, np.ndarray],
        raws: Optional[List[MPSOutput]],
        lo: int,
        hi: int,
    ) -> None:
        """One resident chunk, op-major: whole-block draw slices, shared
        per-element parity/basis gathers, the same scalar state kernels."""
        b = hi - lo
        draws.start_pass()
        states = [self._fresh_state(row) for _ in range(b)]
        local: Dict[int, np.ndarray] = {}  # node -> (b,) chunk records
        for op in compiled.ops:
            tp = type(op)
            if tp is PrepOp:
                for st in states:
                    st.add_qubit(op.state)
            elif tp is EntangleOp:
                s0, s1 = op.slots
                for st in states:
                    st.apply_cz(s0, s1)
            elif tp is MeasureOp:
                s = _parity_vec(local, op.s_domain, b)
                t = _parity_vec(local, op.t_domain, b)
                vecs = _measure_vecs(op, s, t)  # (b, 2, 2)
                pinned = forced.get(op.node)
                outs = np.empty(b, dtype=np.int8)
                if pinned is None:
                    u = draws.uniform_vec()[lo:hi]
                    for j, st in enumerate(states):
                        outs[j], _ = st.measure(
                            op.slot, vecs[j], u=float(u[j])
                        )
                else:
                    for j, st in enumerate(states):
                        try:
                            outs[j], _ = st.measure(
                                op.slot, vecs[j], force=pinned
                            )
                        except ZeroProbabilityBranch:
                            raise ZeroProbabilityBranch(
                                f"forced outcome {pinned} on node {op.node} "
                                f"has probability ~0"
                            ) from None
                if op.flip_p > 0.0:
                    outs ^= draws.flip_vec(op.flip_p)[lo:hi].astype(np.int8)
                local[op.node] = outs
                rec[op.node][lo:hi] = outs
            elif tp is ConditionalOp:
                fire = _parity_vec(local, op.domain, b)
                for j, st in enumerate(states):
                    if fire[j]:
                        st.apply_1q(op.matrix, op.slot)
            elif tp is ChannelOp:
                faults = draws.fault_vec(op)
                if faults is not None:
                    f = faults[lo:hi]
                    for j, st in enumerate(states):
                        if f[j] >= 0:
                            st.apply_1q(_MPS_PAULIS[f[j]], op.slot)
            else:  # UnitaryOp
                for st in states:
                    st.apply_1q(op.matrix, op.slot)
        if raws is not None:
            for j, st in enumerate(states):
                st.permute(compiled.out_perm)
                raws[lo + j] = MPSOutput(st)


register_backend(MPSBackend())
