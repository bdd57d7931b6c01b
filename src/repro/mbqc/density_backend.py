"""Exact density-matrix execution engine (registered as ``"density"``).

The third engine of the backend registry: where the dense and stabilizer
engines *sample* noise trajectories, this one evolves the full density
operator, applying every lowered :class:`~repro.mbqc.compile.ChannelOp` as
an exact Kraus map.  Three execution modes:

- :meth:`DensityMatrixBackend.sample_batch` — trajectories with *sampled*
  measurement outcomes but *exact* channels (each shot's output is the
  conditional mixed state given its outcome record), vectorized across the
  shot block over a :class:`~repro.sim.density_batched.BatchedDensityMatrix`
  (chunked against a byte budget; every chunk replays one whole-block draw
  schedule, so seeded records are bit-identical across chunk sizes —
  benchmark E23).
- :meth:`DensityMatrixBackend.run_branch_batch` /
  :meth:`~DensityMatrixBackend.run_branch_choi` — one forced outcome
  branch, exactly; readout flips make the branch state a two-term mixture
  per measurement, integrated in place.  The Choi variant entangles the
  input register with spectator ancillas, so branch *maps* compare without
  any global-phase ambiguity (the exact determinism check of
  :func:`repro.core.verify.check_pattern_determinism`).
- :meth:`DensityMatrixBackend.integrate` — the headline: sum over **all**
  outcome branches, weighting each by its exact probability.  The result
  is the true noisy output state ``ρ = Σ_m p(m) ρ_m``, the convergence
  reference that certifies the Monte-Carlo trajectory estimator
  (``average_fidelity(..., exact=True)``, benchmarks E21/E24).  The
  default engine is a level-by-level **frontier** over the op stream:
  all live branches ride one batched density tensor (cross-branch
  batching, chunked under the byte budget), and after every measurement
  branches whose records agree on every *future-referenced* signal
  parity are merged by summing their unnormalized tensors (live-parity
  merging, :func:`repro.mbqc.compile.signal_liveness`) — so cost scales
  with the number of distinguishable future-read parity patterns, not
  raw ``2^m``.  ``shards=N`` splits the post-prefix frontier across
  worker processes.

Every entry point is certified against one deliberately naive
dense-matrix oracle (``tests/oracle.py``) by the differential harness in
``tests/test_oracle_differential.py``.

Everything dispatches over the same compiled op stream as the other
engines — noise enters through :func:`repro.mbqc.compile.lower_noise`, so
all three backends execute the identical noise program.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.mbqc.backend import (
    BranchRun,
    SampleRun,
    _check_branch,
    _check_n_shots,
    _empty_sample_run,
    _input_row,
    _measure_vecs,
    _parity_vec,
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
    UnitaryOp,
    lower_noise,
    signal_liveness,
    signal_parity,
)
from repro.mbqc.pattern import PatternError
from repro.sim.density import DensityMatrix
from repro.sim.density_batched import BatchedDensityMatrix, _batch_traces
from repro.sim.statevector import ZeroProbabilityBranch
from repro.utils.rng import SeedLike, ensure_rng

# A density tensor holds 4^n amplitudes: 10 live qubits is ~16 MiB complex,
# the practical ceiling for this engine's per-op tensordot sweeps.
DENSITY_MAX_LIVE = 10

# Exact integration explores the outcome-branch tree; past this many leaves
# the sum is better estimated by trajectories.
DENSITY_MAX_BRANCHES = 1 << 18

# Byte budget for one batched density block (B · 16 · 4^max_live bytes):
# the vectorized sweeps chunk their batch so the steady-state block stays
# under it.  64 MiB holds 4096 shots of a 5-live-qubit pattern but only 4
# shots at the 10-qubit reach ceiling — the win is memory-bounded by
# design.  Note the budget covers the *resident* block only: the kernels
# (tensordot conjugations, projection pairs) materialize one or two
# block-sized temporaries while the old block is still alive, so transient
# peak memory is ~2-3x the budget — size it accordingly.
DENSITY_BATCH_MAX_BYTES = 1 << 26

_ZERO_PROB = 1e-12


def _chunk_elements(n: int, max_live: int, max_block_bytes: Optional[int]) -> int:
    """Largest batch chunk whose density block fits the byte budget."""
    budget = (
        DENSITY_BATCH_MAX_BYTES if max_block_bytes is None
        else int(max_block_bytes)
    )
    per_element = 16 * (4 ** max_live)  # one complex128 density tensor
    return max(1, min(n, budget // per_element))


def _normalized_probs(rho: DensityMatrix) -> np.ndarray:
    """Unit-sum computational-basis probabilities of a (possibly
    unnormalized) density operator."""
    p = rho.probabilities()
    total = p.sum()
    return p / total if total > 0 else p


@dataclass
class DensityOutput:
    """One batch element's output on the density engine.

    ``rho`` is the normalized output density operator (output nodes in
    output order, little-endian); ``weight`` is the branch probability
    (1.0 for sampled trajectories).  Densification to a state vector is
    only defined for pure outputs and, like the stabilizer engine's, is
    exact up to a global phase.
    """

    rho: DensityMatrix
    weight: float = 1.0

    def probabilities(self) -> np.ndarray:
        """Computational-basis probabilities of the output."""
        return _normalized_probs(self.rho)

    def unit_statevector(self) -> np.ndarray:
        """Dense unit-norm output column (pure outputs only, phase-free)."""
        m = self.rho.to_matrix()
        tr = float(np.real(np.trace(m)))
        if tr <= 0.0:
            raise ValueError("cannot densify a zero-trace output")
        m = m / tr
        purity = float(np.real(np.trace(m @ m)))
        if purity < 1.0 - 1e-6:
            raise ValueError(
                f"output is mixed (purity {purity:.6f}); a state vector does "
                f"not exist — use probabilities() or the rho field"
            )
        _, vecs = np.linalg.eigh(m)
        return np.ascontiguousarray(vecs[:, -1])

    def to_statevector(self) -> np.ndarray:
        """Dense output column scaled to ``‖·‖² = weight`` (pure only)."""
        return np.sqrt(self.weight) * self.unit_statevector()


@dataclass
class DensityRun:
    """Result of exact channel integration over all outcome branches.

    ``rho`` is the exact noisy output state; ``branches`` is the peak
    post-merge frontier width, the branch work actually done (with
    ``shards``, the sum of the shard peaks).  Pruning is observable instead
    of silent: ``trace`` is ``Tr ρ`` as integrated (1.0 exactly when nothing
    was pruned, up to float error) and ``dropped_weight`` is the total
    probability mass of branches discarded by ``prune_tol``, so
    ``trace + dropped_weight ≈ 1``.
    """

    rho: DensityMatrix
    branches: int
    trace: float = 1.0
    dropped_weight: float = 0.0

    def probabilities(self) -> np.ndarray:
        """Computational-basis probabilities of the integrated output.

        Normalization contract: the returned vector is renormalized to
        unit sum — pruned branch mass (``dropped_weight``) is spread
        proportionally over the surviving branches, not reported as
        missing probability.  Consumers that need the unnormalized
        diagonal (summing to ``trace``) read ``rho.probabilities()``.
        """
        return _normalized_probs(self.rho)

    def expectation_diagonal(self, diag: np.ndarray) -> float:
        """Exact ``Tr(ρ D)`` for a real little-endian diagonal cost."""
        return float(np.dot(self.probabilities(), np.asarray(diag, dtype=float)))

    def fidelity_with_pure(self, vec: np.ndarray) -> float:
        """Exact ``<ψ|ρ|ψ>`` against a pure reference."""
        return self.rho.fidelity_with_pure(vec)


# -- frontier integration machinery -------------------------------------------


@dataclass(frozen=True)
class _FrontierPlan:
    """Static per-op schedule driving the frontier integrator: which
    parity-table column each measurement/conditional reads, which columns
    any *future* op will read (the merge signature after each
    measurement), and which records are dead — all derived from one
    :func:`~repro.mbqc.compile.signal_liveness` pass."""

    n_reads: int
    s_col: Dict[int, int]               # MeasureOp index -> s_domain column
    t_col: Dict[int, int]               # MeasureOp index -> t_domain column
    cond_col: Dict[int, int]            # ConditionalOp index -> domain column
    touch: Dict[int, Tuple[int, ...]]   # node -> columns containing it
    future_cols: Dict[int, np.ndarray]  # MeasureOp index -> signature columns
    dead: Tuple[bool, ...]
    merged_bound: int


def _frontier_plan(compiled: CompiledPattern) -> _FrontierPlan:
    lv = signal_liveness(compiled.ops)
    s_col: Dict[int, int] = {}
    t_col: Dict[int, int] = {}
    cond_col: Dict[int, int] = {}
    for rid, read in enumerate(lv.reads):
        if read.kind == "s":
            s_col[read.op_index] = rid
        elif read.kind == "t":
            t_col[read.op_index] = rid
        else:
            cond_col[read.op_index] = rid
    future_cols = {
        i: np.asarray(lv.future_read_ids(i), dtype=np.intp)
        for i, op in enumerate(compiled.ops)
        if type(op) is MeasureOp
    }
    return _FrontierPlan(
        n_reads=len(lv.reads),
        s_col=s_col,
        t_col=t_col,
        cond_col=cond_col,
        touch=lv.touch,
        future_cols=future_cols,
        dead=lv.dead,
        merged_bound=lv.merged_bound,
    )


@dataclass
class _FrontierState:
    """Resumable frontier snapshot: the op cursor, the stacked branch
    tensor ``(B,) + (2,)*2·live``, the per-branch parity table ``bits``
    (one int8 column per signal read), and the running accounting.  Plain
    arrays and ints so a shard worker can receive one slice by pickle."""

    op_index: int
    tensor: np.ndarray
    bits: np.ndarray
    live: int
    peak: int
    dropped: float


def _merge_frontier(
    t: np.ndarray, bits: np.ndarray, cols: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Sum branches whose parity tables agree on the signature ``cols``.

    Two merged branches are *exactly* interchangeable from here on: every
    future basis choice, conditional fire, and merge signature reads only
    the signature columns, so summing their unnormalized tensors commutes
    with the rest of the integration.  Deterministic and order-stable:
    groups keep first-occurrence order and each group sums its members in
    frontier order (``np.add.reduceat`` after a stable sort), making the
    result a pure function of the incoming frontier — reruns and shard
    joins are bit-identical.
    """
    b = t.shape[0]
    if b <= 1:
        return t, bits
    if cols.size == 0:
        # No future reads at all: every branch is indistinguishable.
        return t.sum(axis=0, keepdims=True), bits[:1].copy()
    sig = bits[:, cols]
    uniq, first, inv = np.unique(
        sig, axis=0, return_index=True, return_inverse=True
    )
    inv = inv.reshape(-1)  # numpy >= 2.1 returns it shaped (b, 1)
    g = uniq.shape[0]
    if g == b:
        return t, bits
    order = np.argsort(first, kind="stable")  # lexicographic -> first-seen
    pos = np.empty(g, dtype=np.intp)
    pos[order] = np.arange(g, dtype=np.intp)
    group = pos[inv]
    sort_idx = np.argsort(group, kind="stable")
    starts = np.searchsorted(group[sort_idx], np.arange(g))
    merged = np.add.reduceat(t[sort_idx], starts, axis=0)
    return merged, bits[sort_idx[starts]].copy()


def _chunked_kernel(t, live, max_block_bytes, apply) -> np.ndarray:
    """Run ``apply(view, lo, hi)`` over byte-budget-sized slices of the
    frontier tensor, writing each slice's result back; returns the
    (possibly replaced) tensor.  Keeps kernel temporaries — not the
    resident frontier, which is gated by ``max_branches`` — under the
    block budget."""
    b = t.shape[0]
    chunk = _chunk_elements(b, live, max_block_bytes)
    if chunk >= b:
        view = BatchedDensityMatrix(b, tensor=t)
        apply(view, 0, b)
        return view._t
    for lo in range(0, b, chunk):
        hi = min(lo + chunk, b)
        view = BatchedDensityMatrix(hi - lo, tensor=t[lo:hi])
        apply(view, lo, hi)
        t[lo:hi] = view._t
    return t


def _frontier_measure(
    plan: _FrontierPlan,
    op: MeasureOp,
    i: int,
    t: np.ndarray,
    bits: np.ndarray,
    live: int,
    prune_tol: float,
    max_block_bytes: Optional[int],
    dropped: float,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """One branch point: chunked both-outcome projection, readout-flip
    mixing, pruning, parity-table update, live-parity merge.  Returns the
    new ``(tensor, bits, dropped_weight)``."""
    b = t.shape[0]
    s = bits[:, plan.s_col[i]]
    tt = bits[:, plan.t_col[i]]
    vecs = _measure_vecs(op, s, tt)
    chunk = _chunk_elements(b, live, max_block_bytes)
    parts: List[np.ndarray] = []
    for lo in range(0, b, chunk):
        hi = min(lo + chunk, b)
        view = BatchedDensityMatrix(hi - lo, tensor=t[lo:hi])
        view.measure_split(op.slot, vecs[lo:hi])
        parts.append(view._t)
    children = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)
    traces = _batch_traces(children, live - 1)
    rec = np.tile(np.array([0, 1], dtype=np.int8), b)
    child_bits = np.repeat(bits, 2, axis=0)
    if op.flip_p > 0.0:
        # A flipped child's recorded bit equals its sibling's, so both
        # flip contributions land on an already-existing child: mix the
        # sibling pair in place instead of branching — readout flips add
        # no frontier width.
        zero = traces < prune_tol
        dropped += float(traces[zero].sum())
        if zero.any():
            children[zero] = 0.0
        pair = children.reshape((b, 2) + children.shape[1:])
        f = op.flip_p
        mixed = np.empty_like(pair)
        mixed[:, 0] = (1.0 - f) * pair[:, 0] + f * pair[:, 1]
        mixed[:, 1] = (1.0 - f) * pair[:, 1] + f * pair[:, 0]
        children = mixed.reshape(children.shape)
        keep = _batch_traces(children, live - 1) > 0.0
    else:
        keep = traces >= prune_tol
        dropped += float(traces[~keep].sum())
    if not keep.all():
        children = children[keep]
        rec = rec[keep]
        child_bits = child_bits[keep]
    if children.shape[0] == 0:
        raise PatternError("every outcome branch was pruned")
    for rid in plan.touch.get(op.node, ()):
        child_bits[:, rid] ^= rec
    children, child_bits = _merge_frontier(
        children, child_bits, plan.future_cols[i]
    )
    return children, child_bits, dropped


def _frontier_advance(
    compiled: CompiledPattern,
    plan: _FrontierPlan,
    state: _FrontierState,
    prune_tol: float,
    max_block_bytes: Optional[int],
    stop_width: Optional[int] = None,
) -> _FrontierState:
    """Drive the frontier from ``state`` to the end of the op stream — or,
    when ``stop_width`` is given, suspend as soon as a post-merge frontier
    reaches that width (the shard fan-out point)."""
    ops = compiled.ops
    t, bits, live = state.tensor, state.bits, state.live
    peak, dropped = state.peak, state.dropped
    i = state.op_index
    while i < len(ops):
        op = ops[i]
        tp = type(op)
        if tp is PrepOp:
            rho = BatchedDensityMatrix(t.shape[0], tensor=t)
            rho.add_qubit(op.state, position=live)
            t = rho._t
            live += 1
        elif tp is EntangleOp:
            # apply_cz mutates the tensor in place (pure sign flips).
            BatchedDensityMatrix(t.shape[0], tensor=t).apply_cz(*op.slots)
        elif tp is ChannelOp:
            kraus, slot = op.kraus, op.slot
            t = _chunked_kernel(
                t, live, max_block_bytes,
                lambda v, lo, hi: v.apply_kraus(kraus, slot, check=False),
            )
        elif tp is UnitaryOp:
            mat, slot = op.matrix, op.slot
            t = _chunked_kernel(
                t, live, max_block_bytes,
                lambda v, lo, hi: v.apply_1q(mat, slot),
            )
        elif tp is ConditionalOp:
            fire = bits[:, plan.cond_col[i]].astype(bool)
            mat, slot = op.matrix, op.slot
            t = _chunked_kernel(
                t, live, max_block_bytes,
                lambda v, lo, hi: v.apply_1q_masked(mat, slot, fire[lo:hi]),
            )
        else:  # MeasureOp
            if plan.dead[i]:
                # Record never read: both outcome projections sum to the
                # partial trace (in any basis) — retire the qubit across
                # the whole frontier instead of splitting it.
                rho = BatchedDensityMatrix(t.shape[0], tensor=t)
                rho.discard(op.slot)
                t = rho._t
            else:
                t, bits, dropped = _frontier_measure(
                    plan, op, i, t, bits, live, prune_tol,
                    max_block_bytes, dropped,
                )
                peak = max(peak, t.shape[0])
            live -= 1
            if stop_width is not None and t.shape[0] >= stop_width:
                i += 1
                break
        i += 1
    return _FrontierState(i, t, bits, live, peak, dropped)


def _frontier_collapse(compiled: CompiledPattern, tensor: np.ndarray) -> np.ndarray:
    """Permute each branch to output order and sum the frontier — the
    integrated (unnormalized) output tensor."""
    rho = BatchedDensityMatrix(tensor.shape[0], tensor=tensor)
    rho.permute(compiled.out_perm)
    return rho._t.sum(axis=0)


def _integrate_shard(
    compiled: CompiledPattern,
    op_index: int,
    tensor: np.ndarray,
    bits: np.ndarray,
    live: int,
    prune_tol: float,
    max_block_bytes: Optional[int],
) -> Tuple[np.ndarray, int, float]:
    """Worker entry for ``integrate(..., shards=N)``: resume one suspended
    frontier slice to completion and return its collapsed partial sum plus
    accounting.  Module-level (picklable) and plan-rebuilding, so the
    payload is just the compiled pattern and the slice arrays; with no
    randomness anywhere in integration, the join is deterministic."""
    plan = _frontier_plan(compiled)
    state = _FrontierState(op_index, tensor, bits, live, tensor.shape[0], 0.0)
    state = _frontier_advance(compiled, plan, state, prune_tol, max_block_bytes)
    return _frontier_collapse(compiled, state.tensor), state.peak, state.dropped


class DensityMatrixBackend:
    """Exact open-system execution over :class:`repro.sim.density`."""

    name = "density"
    byte_model_note = "4^max_live density tensor"

    def supports(self, compiled: CompiledPattern) -> bool:
        return compiled.max_live <= DENSITY_MAX_LIVE

    def bytes_per_shot(self, compiled: CompiledPattern) -> int:
        """``16 · 4^max_live`` density amplitudes per batch element (kernel
        temporaries transiently add ~2x) — the resource-estimator registry
        hook."""
        return 16 * (1 << (2 * compiled.max_live))

    def _require_reach(self, compiled: CompiledPattern, extra: int = 0) -> None:
        if compiled.max_live + extra > DENSITY_MAX_LIVE:
            raise PatternError(
                f"pattern needs {compiled.max_live + extra} live qubits, past "
                f"the density engine's {DENSITY_MAX_LIVE}-qubit reach "
                f"(4^n density amplitudes); use a trajectory backend"
            )

    # -- forced-branch execution --------------------------------------------
    def _exec_forced_block(
        self,
        compiled: CompiledPattern,
        rho: BatchedDensityMatrix,
        forced: Mapping[int, int],
        live: Optional[int] = None,
    ) -> np.ndarray:
        """Run ``compiled`` on a whole batched block (mutating) with every
        outcome pinned; returns the per-element exact branch probabilities.
        The vectorized core of :meth:`run_branch_batch` (and, at B=1, of
        :meth:`run_branch_choi`, whose ``live`` starts below the register
        width — prepared nodes insert *before* the spectator ancillas) —
        readout flips fold in as two-term mixtures via the batched flip-mix
        kernel."""
        b = rho.batch_size
        weights = np.ones(b, dtype=float)
        outcomes: Dict[int, int] = {}
        if live is None:
            live = compiled.num_inputs
        for tp, run in compiled.grouped_ops:
            if tp is PrepOp:
                for op in run:
                    rho.add_qubit(op.state, position=live)
                    live += 1
            elif tp is EntangleOp:
                for op in run:
                    rho.apply_cz(*op.slots)
            elif tp is ChannelOp:
                for op in run:
                    rho.apply_kraus(op.kraus, op.slot, check=False)
            elif tp is MeasureOp:
                for op in run:
                    s = signal_parity(outcomes, op.s_domain)
                    t = signal_parity(outcomes, op.t_domain)
                    vecs = np.broadcast_to(_measure_vecs(op, s, t), (b, 2, 2))
                    r = forced[op.node]
                    try:
                        probs = rho.measure_forced(
                            op.slot, vecs, np.full(b, r, dtype=np.int8),
                            flip_p=op.flip_p,
                        )
                    except ZeroProbabilityBranch:
                        raise ZeroProbabilityBranch(
                            f"forced outcome {r} on node {op.node} has "
                            f"probability ~0"
                        ) from None
                    weights *= probs
                    outcomes[op.node] = r
                    live -= 1
            elif tp is ConditionalOp:
                for op in run:
                    if signal_parity(outcomes, op.domain):
                        rho.apply_1q(op.matrix, op.slot)
            else:  # UnitaryOp
                for op in run:
                    rho.apply_1q(op.matrix, op.slot)
        return weights

    def run_branch_batch(
        self,
        compiled: CompiledPattern,
        inputs: np.ndarray,
        forced_outcomes: Mapping[int, int],
    ) -> BranchRun:
        self._require_reach(compiled)
        forced = _check_branch(compiled, forced_outcomes)
        inputs = np.asarray(inputs, dtype=complex)
        if inputs.ndim != 2 or inputs.shape[1] != 1 << compiled.num_inputs:
            raise PatternError(
                f"the {self.name} engine expects an input block of shape "
                f"(B, {1 << compiled.num_inputs}) for this pattern's "
                f"{compiled.num_inputs} inputs, got {inputs.shape}"
            )
        norms2 = np.einsum("bi,bi->b", inputs.conj(), inputs).real
        if np.any(norms2 <= 0.0):
            raise PatternError(
                f"the {self.name} engine got an input row with zero norm"
            )
        raw: List[DensityOutput] = []
        weights = np.zeros(inputs.shape[0], dtype=float)
        chunk = _chunk_elements(inputs.shape[0], compiled.max_live, None)
        for lo in range(0, inputs.shape[0], chunk):
            hi = min(lo + chunk, inputs.shape[0])
            rows = inputs[lo:hi] / np.sqrt(norms2[lo:hi])[:, None]
            rho = BatchedDensityMatrix.from_pure_rows(rows)
            w = norms2[lo:hi] * self._exec_forced_block(compiled, rho, forced)
            rho.permute(compiled.out_perm)
            weights[lo:hi] = w
            raw.extend(
                DensityOutput(rho.shot(j), float(w[j]))
                for j in range(hi - lo)
            )
        return BranchRun(outcomes=forced, weights=weights, raw=tuple(raw))

    def run_branch_choi(
        self,
        compiled: CompiledPattern,
        forced_outcomes: Mapping[int, int],
    ) -> DensityOutput:
        """One forced branch on the Choi input: each pattern input is
        maximally entangled with a spectator ancilla, so the returned state
        (outputs in output order, then ancillas) encodes the branch *map*
        with no global-phase ambiguity.  For input-free patterns this is a
        plain forced branch run."""
        k = compiled.num_inputs
        self._require_reach(compiled, extra=k)
        forced = _check_branch(compiled, forced_outcomes)
        if k == 0:
            vec = _input_row(compiled, None)
        else:
            vec = np.zeros(1 << (2 * k), dtype=complex)
            for x in range(1 << k):
                vec[x | (x << k)] = 1.0
            vec = vec / np.sqrt(1 << k)
        rho = BatchedDensityMatrix.from_pure_rows(vec[None, :])
        weight = float(self._exec_forced_block(compiled, rho, forced, live=k)[0])
        n_out = compiled.num_outputs
        rho.permute(list(compiled.out_perm) + [n_out + j for j in range(k)])
        return DensityOutput(rho.shot(0), weight)

    def _exec_forced_vec(
        self,
        compiled: CompiledPattern,
        rho: BatchedDensityMatrix,
        forced_list: Sequence[Mapping[int, int]],
        live: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Forced-branch sweep with *per-element* outcome records — the
        cross-branch generalization of :meth:`_exec_forced_block` (which
        pins one shared record): element ``j`` runs ``forced_list[j]``.
        Zero-probability elements survive as dead weight
        (``measure_forced(..., allow_zero=True)``) instead of aborting the
        block; returns ``(weights, alive)``."""
        b = rho.batch_size
        weights = np.ones(b, dtype=float)
        alive = np.ones(b, dtype=bool)
        rec: Dict[int, np.ndarray] = {}
        if live is None:
            live = compiled.num_inputs
        for tp, run in compiled.grouped_ops:
            if tp is PrepOp:
                for op in run:
                    rho.add_qubit(op.state, position=live)
                    live += 1
            elif tp is EntangleOp:
                for op in run:
                    rho.apply_cz(*op.slots)
            elif tp is ChannelOp:
                for op in run:
                    rho.apply_kraus(op.kraus, op.slot, check=False)
            elif tp is MeasureOp:
                for op in run:
                    s = _parity_vec(rec, op.s_domain, b)
                    t = _parity_vec(rec, op.t_domain, b)
                    vecs = _measure_vecs(op, s, t)
                    outs = np.array(
                        [f[op.node] for f in forced_list], dtype=np.int8
                    )
                    rel = rho.measure_forced(
                        op.slot, vecs, outs, flip_p=op.flip_p,
                        allow_zero=True,
                    )
                    weights *= rel
                    alive &= rel >= 1e-12
                    rec[op.node] = outs
                    live -= 1
            elif tp is ConditionalOp:
                for op in run:
                    fire = _parity_vec(rec, op.domain, b).astype(bool)
                    rho.apply_1q_masked(op.matrix, op.slot, fire)
            else:  # UnitaryOp
                for op in run:
                    rho.apply_1q(op.matrix, op.slot)
        return weights, alive

    def run_branch_choi_batch(
        self,
        compiled: CompiledPattern,
        branches: Sequence[Mapping[int, int]],
    ) -> List[Optional[DensityOutput]]:
        """Choi runs of many forced branches in one cross-branch batched
        sweep — the vectorized form of looping :meth:`run_branch_choi`
        over a pattern's outcome records (the density determinism check's
        hot path).  Entries whose record has ~zero probability come back
        as ``None`` instead of raising: the whole block executes with
        zero-tolerant projections and unreachable elements are filtered by
        weight afterwards.  Chunked against the batch byte budget like
        every other cross-element sweep."""
        k = compiled.num_inputs
        self._require_reach(compiled, extra=k)
        checked = [_check_branch(compiled, b) for b in branches]
        if not checked:
            return []
        if k == 0:
            vec = _input_row(compiled, None)
        else:
            vec = np.zeros(1 << (2 * k), dtype=complex)
            for x in range(1 << k):
                vec[x | (x << k)] = 1.0
            vec = vec / np.sqrt(1 << k)
        n_out = compiled.num_outputs
        perm = list(compiled.out_perm) + [n_out + j for j in range(k)]
        outputs: List[Optional[DensityOutput]] = [None] * len(checked)
        chunk = _chunk_elements(len(checked), compiled.max_live + k, None)
        for lo in range(0, len(checked), chunk):
            sub = checked[lo:lo + chunk]
            rho = BatchedDensityMatrix.from_pure_rows(
                np.broadcast_to(vec, (len(sub), vec.size))
            )
            weights, alive = self._exec_forced_vec(compiled, rho, sub, live=k)
            rho.permute(perm)
            for j in range(len(sub)):
                if alive[j]:
                    outputs[lo + j] = DensityOutput(
                        rho.shot(j), float(weights[j])
                    )
        return outputs

    # -- trajectory sampling (exact channels, sampled outcomes) -------------
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
        """Sample ``n_shots`` trajectories (exact channels, sampled
        outcomes), vectorized across the shot block.

        Advances one
        :class:`~repro.sim.density_batched.BatchedDensityMatrix` — ``B``
        whole per-shot density tensors — through a single compiled-op sweep
        (:attr:`CompiledPattern.grouped_ops`), chunking the shot block so
        the resident ``B · 4^max_live`` tensor stays under
        ``max_block_bytes`` (default :data:`DENSITY_BATCH_MAX_BYTES`;
        kernel temporaries transiently add ~2x on top of the budget).
        Per-shot divergence — adaptive bases, sampled outcomes, conditional
        corrections, readout flips — rides the batch axis (per-shot basis
        gathers, masked 1q conjugations); channels apply once per chunk as
        exact Kraus maps.

        Every chunk consumes the parent generator through the same
        whole-block draw schedule (one uniform vector per unpinned
        measurement, one flip vector per noisy readout, in op order) and
        slices out its shot range, so seeded records are **bit-identical**
        across chunk sizes by construction (same kernels,
        per-shot-independent contractions; benchmark E23 asserts this).

        Mixed trajectory outputs have no state vector, so the raw density
        matrices ARE the usable output — but the protocol-wide default
        stays off (outcome records only); consumers that read
        ``probability_rows()``/``run.raw`` pass ``keep_raw=True``.
        """
        _check_n_shots(n_shots, self.name)
        if noise is not None:
            compiled = lower_noise(compiled, noise)
        self._require_reach(compiled)
        rng = ensure_rng(rng)
        forced = dict(forced_outcomes or {})
        row = _input_row(compiled, input_state, self.name)
        row = row / np.linalg.norm(row)
        if n_shots == 0:
            return _empty_sample_run(compiled, keep_raw)
        # Channels are exact, so the draw schedule is shot-independent by
        # construction: every chunk reads one whole-block vector table.
        draws = _ShotDrawTable(rng, n_shots)
        chunk = _chunk_elements(n_shots, compiled.max_live, max_block_bytes)
        outs = np.zeros((n_shots, len(compiled.measured_nodes)), dtype=np.int8)
        raw: List[DensityOutput] = []
        rho0 = DensityMatrix.from_pure(row)
        for lo in range(0, n_shots, chunk):
            hi = min(lo + chunk, n_shots)
            b = hi - lo
            draws.start_pass()
            rho = BatchedDensityMatrix.from_replicas(rho0, b)
            rec: Dict[int, np.ndarray] = {}  # node -> (b,) outcome bits
            live = compiled.num_inputs
            for tp, run in compiled.grouped_ops:
                if tp is PrepOp:
                    for op in run:
                        rho.add_qubit(op.state, position=live)
                        live += 1
                elif tp is EntangleOp:
                    for op in run:
                        rho.apply_cz(*op.slots)
                elif tp is ChannelOp:
                    for op in run:
                        rho.apply_kraus(op.kraus, op.slot, check=False)
                elif tp is MeasureOp:
                    for op in run:
                        s = _parity_vec(rec, op.s_domain, b)
                        t = _parity_vec(rec, op.t_domain, b)
                        vecs = _measure_vecs(op, s, t)
                        pinned = forced.get(op.node)
                        u = (
                            draws.uniform_vec()[lo:hi]
                            if pinned is None else None
                        )
                        try:
                            outs_vec, _probs = rho.measure_sampled(
                                op.slot, vecs, u=u, force=pinned
                            )
                        except ZeroProbabilityBranch:
                            raise ZeroProbabilityBranch(
                                f"forced outcome {pinned} on node {op.node} "
                                f"has probability ~0"
                            ) from None
                        if op.flip_p > 0.0:
                            flips = draws.flip_vec(op.flip_p)[lo:hi]
                            outs_vec = outs_vec ^ flips.astype(np.int8)
                        rec[op.node] = outs_vec
                        live -= 1
                elif tp is ConditionalOp:
                    for op in run:
                        fire = _parity_vec(rec, op.domain, b).astype(bool)
                        rho.apply_1q_masked(op.matrix, op.slot, fire)
                else:  # UnitaryOp
                    for op in run:
                        rho.apply_1q(op.matrix, op.slot)
            for i, node in enumerate(compiled.measured_nodes):
                outs[lo:hi, i] = rec[node]
            if keep_raw:
                rho.permute(compiled.out_perm)
                raw.extend(
                    DensityOutput(rho.shot(j), 1.0) for j in range(b)
                )
        return SampleRun(
            nodes=compiled.measured_nodes,
            outcomes=outs,
            raw=tuple(raw) if keep_raw else None,
        )

    # -- exact integration ---------------------------------------------------
    def integrate(
        self,
        compiled: CompiledPattern,
        noise: Optional[object] = None,
        input_state: Optional[np.ndarray] = None,
        prune_tol: float = _ZERO_PROB,
        max_branches: int = DENSITY_MAX_BRANCHES,
        max_block_bytes: Optional[int] = None,
        shards: int = 1,
    ) -> DensityRun:
        """Integrate the (noisy) pattern exactly over every outcome branch.

        Returns the true output mixture ``ρ = Σ_m p(m) ρ_m`` — the
        convergence reference for the Monte-Carlo trajectory estimator.
        ``noise`` is lowered onto ``compiled`` if given (anything
        :func:`~repro.mbqc.channels.as_channel_model` accepts; the program
        may also already carry lowered channels).

        The engine is the batched **frontier** integrator: all live
        branches advance level-by-level in one stacked density tensor
        (kernel temporaries chunked under ``max_block_bytes``, default
        :data:`DENSITY_BATCH_MAX_BYTES`), and after every measurement,
        branches whose records agree on each *future-referenced* signal
        parity merge by summing — so the frontier is bounded by the
        **merged bound** (distinguishable future-read parity patterns,
        :func:`~repro.mbqc.compile.signal_liveness`), typically far below
        the raw ``2^m``.  ``shards=N`` forks the frontier across ``N``
        worker processes once it is at least ``N`` wide — opt-in, and
        deterministic because integration draws no randomness.

        Branches whose weight falls below ``prune_tol`` are dropped — the
        lost mass is reported as ``DensityRun.dropped_weight``, never
        silently folded in.  The merged bound must stay within
        ``max_branches`` (R102).
        """
        shards = int(shards)
        if shards < 1:
            raise ValueError("shards must be >= 1")
        compiled, plan, row = self._integration_setup(
            compiled, noise, input_state, max_branches
        )
        return self._integrate_frontier(
            compiled, plan, row, prune_tol, max_block_bytes, shards
        )

    def _integration_setup(
        self,
        compiled: CompiledPattern,
        noise: Optional[object],
        input_state: Optional[np.ndarray],
        max_branches: int = DENSITY_MAX_BRANCHES,
    ) -> Tuple[CompiledPattern, _FrontierPlan, np.ndarray]:
        """Shared front half of exact integration: lower ``noise``, check
        reach and the R102 branch bound, and normalize the input row.
        Factored out of :meth:`integrate` so the execution supervisor
        (:func:`repro.exec.supervisor.supervised_integrate`) applies the
        identical guards before taking over shard orchestration."""
        if noise is not None:
            compiled = lower_noise(compiled, noise)
        self._require_reach(compiled)
        plan = _frontier_plan(compiled)
        if plan.merged_bound > max_branches:
            raise PatternError(
                f"R102: exact integration would explore > {max_branches} "
                f"outcome branches (merged frontier bound "
                f"{plan.merged_bound}); reduce the pattern's measured set, "
                f"raise max_branches, or estimate by trajectories instead "
                f"(repro.analysis.estimate_compiled reports the bound)"
            )
        row = _input_row(compiled, input_state)
        row = row / np.linalg.norm(row)
        return compiled, plan, row

    def _integrate_frontier(
        self,
        compiled: CompiledPattern,
        plan: _FrontierPlan,
        row: np.ndarray,
        prune_tol: float,
        max_block_bytes: Optional[int],
        shards: int,
    ) -> DensityRun:
        """Frontier-driven integration (see :meth:`integrate`); with
        ``shards > 1`` the shared prefix runs in-process, then contiguous
        frontier slices finish in a :class:`ProcessPoolExecutor` and their
        partial sums join in slice order."""
        t0 = BatchedDensityMatrix.from_pure_rows(row[None, :])._t
        bits = np.zeros((1, plan.n_reads), dtype=np.int8)
        state = _FrontierState(0, t0, bits, compiled.num_inputs, 1, 0.0)
        state = _frontier_advance(
            compiled, plan, state, prune_tol, max_block_bytes,
            stop_width=shards if shards > 1 else None,
        )
        if state.op_index >= len(compiled.ops):
            # Ran to completion in-process (shards == 1, or the frontier
            # never got wide enough to be worth forking).
            acc = _frontier_collapse(compiled, state.tensor)
            branches, dropped = state.peak, state.dropped
        else:
            b = state.tensor.shape[0]
            cuts = np.array_split(np.arange(b), shards)
            cuts = [c for c in cuts if c.size]
            with ProcessPoolExecutor(max_workers=len(cuts)) as pool:
                futures = [
                    pool.submit(
                        _integrate_shard, compiled, state.op_index,
                        state.tensor[c], state.bits[c], state.live,
                        prune_tol, max_block_bytes,
                    )
                    for c in cuts
                ]
                results = []
                for k, f in enumerate(futures):
                    try:
                        results.append(f.result())
                    except (BrokenProcessPool, pickle.PicklingError) as exc:
                        raise PatternError(
                            f"shard {k}/{len(cuts)} of the frontier "
                            f"integration died ({type(exc).__name__}: "
                            f"{exc}); the shard held {cuts[k].size} of "
                            f"{b} frontier branches. Retry with "
                            f"supervision — repro.exec.supervised_integrate"
                            f"(..., shards={shards}, retries=, "
                            f"shard_timeout=) recovers worker deaths and "
                            f"can fall back in-process (CLI: repro run "
                            f"--exact --shards {shards} --retries N)"
                        ) from exc
            acc = results[0][0]
            for part, _, _ in results[1:]:
                acc = acc + part
            # Shards hit their peaks at roughly the same op level, so the
            # concurrently-resident branch count is the sum of shard peaks
            # (or the prefix peak, whichever is larger).
            branches = max(state.peak, sum(peak for _, peak, _ in results))
            dropped = state.dropped + sum(d for _, _, d in results)
        return self._finish_run(compiled, acc, branches, dropped)

    def _finish_run(
        self,
        compiled: CompiledPattern,
        acc: np.ndarray,
        branches: int,
        dropped: float,
    ) -> DensityRun:
        rho_out = DensityMatrix(
            tensor=acc if compiled.num_outputs
            else np.asarray(acc, dtype=complex).reshape(1, 1)
        )
        return DensityRun(
            rho=rho_out,
            branches=branches,
            trace=rho_out.trace(),
            dropped_weight=dropped,
        )


register_backend(DensityMatrixBackend())
