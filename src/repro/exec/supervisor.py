"""Supervised sharded exact integration.

:func:`supervised_integrate` is ``DensityMatrixBackend.integrate(shards=N)``
with a survival layer wrapped around the worker pool.  The plain sharded
path treats any worker failure as fatal — a timeout hangs the join, an
OOM-killed worker surfaces as ``BrokenProcessPool`` and the whole frontier
is lost.  Here every shard is a supervised *task*:

* each shard future gets a wall-clock budget (``shard_timeout``) —
  exceeding it cancels the round and retries the shard (diagnostic R103);
* a dead or erroring worker (``BrokenProcessPool``, ``MemoryError``, any
  exception on the future) is retried up to ``retries`` times with
  exponential backoff, under a **fresh** pool each round, because a broken
  pool poisons every sibling future (diagnostic R104);
* a shard that exhausts its retries is **re-split** into two narrower
  frontier slices (halving per-task memory and wall-clock), recursively,
  down to single-branch slices;
* when a single branch still cannot complete in a worker, the slice runs
  **in-process** (``in_process_fallback=True``) — slower, but the run
  finishes;
* only with every recovery layer disabled or exhausted does the run fail,
  and then as a :class:`~repro.mbqc.pattern.PatternError` naming the
  shard, its branch count and probability mass, and the knobs that would
  have saved it.

Determinism: integration draws no randomness, shard partials join in
deterministic slice order (re-split children sum inside their parent's
slot), and a retried shard recomputes the identical partial — so a
supervised run with same-slice retries or in-process fallback is
**bit-identical** to the unsupervised run.  Re-splitting changes the
*association* of the partial sums, which floating-point addition does not
preserve exactly; re-split runs agree with the unsupervised result to
~1e-12 relative error (certified in ``tests/test_exec_supervisor.py``).

Fault injection: a :class:`~repro.exec.faults.FaultSchedule` with site
``"shard"`` delivers crashes, ``MemoryError``, or sleeps *inside* chosen
workers on chosen attempts (the schedule stays in the parent; only a
plain ``(kind, seconds)`` descriptor crosses the process boundary).
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.exec.faults import FaultSchedule, apply_worker_fault
from repro.mbqc.backend import get_backend
from repro.mbqc.compile import CompiledPattern
from repro.mbqc.density_backend import (
    DENSITY_MAX_BRANCHES,
    DensityRun,
    _FrontierState,
    _frontier_advance,
    _frontier_collapse,
    _integrate_shard,
    _ZERO_PROB,
)
from repro.mbqc.pattern import PatternError
from repro.sim.density_batched import BatchedDensityMatrix, _batch_traces


def _supervised_shard(
    compiled: CompiledPattern,
    op_index: int,
    tensor: np.ndarray,
    bits: np.ndarray,
    live: int,
    prune_tol: float,
    max_block_bytes: Optional[int],
    fault_descriptor: Optional[Tuple[str, float]],
) -> Tuple[np.ndarray, int, float]:
    """Worker entry: optionally deliver an injected fault, then resume the
    frontier slice exactly like the unsupervised ``_integrate_shard``."""
    apply_worker_fault(fault_descriptor)
    return _integrate_shard(
        compiled, op_index, tensor, bits, live, prune_tol, max_block_bytes
    )


@dataclass
class _ShardTask:
    """One supervised unit of work: a contiguous frontier slice.

    ``path`` places the task in the deterministic join tree — root shards
    are ``(k,)``, a re-split's halves ``(k, 0)`` and ``(k, 1)``, and the
    final sum runs in lexicographic path order, so recovery never
    re-orders the reduction."""

    path: Tuple[int, ...]
    indices: np.ndarray
    attempt: int = 0


@dataclass
class SupervisionReport:
    """What the supervisor did to keep the run alive."""

    shards: int
    events: List[Diagnostic] = field(default_factory=list)
    retries: int = 0
    timeouts: int = 0
    resplits: int = 0
    in_process: int = 0

    @property
    def clean(self) -> bool:
        """True iff no recovery action was needed."""
        return not self.events

    def codes(self) -> Tuple[str, ...]:
        return tuple(d.code for d in self.events)

    def format(self) -> str:
        head = (
            f"supervision: {self.shards} shards, {self.retries} retries, "
            f"{self.timeouts} timeouts, {self.resplits} re-splits, "
            f"{self.in_process} in-process fallbacks"
        )
        if not self.events:
            return head + " (clean)"
        return "\n".join([head] + [d.format() for d in self.events])


@dataclass
class SupervisedDensityRun(DensityRun):
    """A :class:`DensityRun` plus the supervision record that produced it."""

    supervision: Optional[SupervisionReport] = None


def _shard_mass(tensor: np.ndarray, live: int) -> float:
    """Probability mass carried by a frontier slice (sum of branch traces)
    — the "what would be lost" figure for diagnostics."""
    return float(_batch_traces(tensor, live).sum())


def supervised_integrate(
    compiled: CompiledPattern,
    noise: Optional[object] = None,
    input_state: Optional[np.ndarray] = None,
    *,
    shards: int = 2,
    prune_tol: float = _ZERO_PROB,
    max_branches: int = DENSITY_MAX_BRANCHES,
    max_block_bytes: Optional[int] = None,
    retries: int = 2,
    shard_timeout: Optional[float] = None,
    backoff: float = 0.1,
    resplit: bool = True,
    in_process_fallback: bool = True,
    faults: Optional[FaultSchedule] = None,
) -> SupervisedDensityRun:
    """Exact sharded integration that survives worker failure.

    Applies the same guards and produces the same result as
    ``get_backend("density").integrate(..., shards=shards)`` (bit-identical
    when no re-split was needed; ~1e-12 relative after a re-split), but
    wraps the shard pool in timeout / retry / re-split / in-process
    recovery and returns a :class:`SupervisedDensityRun` whose
    ``supervision`` report lists every R103 (shard timeout) and R104
    (worker death or error) event.

    ``retries`` bounds same-slice re-runs per task; ``shard_timeout`` is
    the per-shard wall-clock budget in seconds (``None`` = unbounded);
    ``backoff`` seeds the exponential inter-round delay
    (``backoff · 2^attempt``, capped at 2 s); ``faults`` injects failures
    at site ``"shard"`` for the certification suite."""
    shards = int(shards)
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if retries < 0:
        raise ValueError(f"retries must be non-negative, got {retries}")
    schedule = faults if faults is not None else FaultSchedule()
    backend = get_backend("density")

    compiled, plan, row = backend._integration_setup(
        compiled, noise, input_state, max_branches
    )
    report = SupervisionReport(shards=shards)

    t0 = BatchedDensityMatrix.from_pure_rows(row[None, :])._t
    bits = np.zeros((1, plan.n_reads), dtype=np.int8)
    state = _FrontierState(0, t0, bits, compiled.num_inputs, 1, 0.0)
    state = _frontier_advance(
        compiled, plan, state, prune_tol, max_block_bytes,
        stop_width=shards if shards > 1 else None,
    )
    if state.op_index >= len(compiled.ops):
        acc = _frontier_collapse(compiled, state.tensor)
        return SupervisedDensityRun(
            **_finish_fields(backend, compiled, acc, state.peak, state.dropped),
            supervision=report,
        )

    b = state.tensor.shape[0]
    cuts = [c for c in np.array_split(np.arange(b), shards) if c.size]
    tasks: List[_ShardTask] = [
        _ShardTask(path=(k,), indices=c) for k, c in enumerate(cuts)
    ]
    done: Dict[Tuple[int, ...], Tuple[np.ndarray, int, float]] = {}
    round_idx = 0

    while tasks:
        retry_next: List[_ShardTask] = []
        pool = ProcessPoolExecutor(max_workers=len(tasks))
        try:
            futures = []
            for task in tasks:
                fault = schedule.take("shard", task.path[0], task.attempt)
                descriptor = (fault.kind, fault.seconds) if fault else None
                futures.append(
                    pool.submit(
                        _supervised_shard, compiled, state.op_index,
                        state.tensor[task.indices], state.bits[task.indices],
                        state.live, prune_tol, max_block_bytes, descriptor,
                    )
                )
            for task, fut in zip(tasks, futures):
                # A broken pool poisons every pending sibling future with
                # BrokenProcessPool *immediately*, so collecting the rest
                # never hangs — and futures that completed before the
                # break still hold their results.
                try:
                    done[task.path] = fut.result(timeout=shard_timeout)
                except FuturesTimeout:
                    report.timeouts += 1
                    _fail(task, retry_next, report, "R103",
                          f"it exceeded the {shard_timeout}s shard budget",
                          state, retries, resplit)
                except BrokenProcessPool:
                    _fail(task, retry_next, report, "R104",
                          "its worker process died (BrokenProcessPool)",
                          state, retries, resplit)
                except Exception as exc:  # MemoryError and friends
                    _fail(task, retry_next, report, "R104",
                          f"its worker raised {type(exc).__name__}: {exc}",
                          state, retries, resplit)
        finally:
            # Never wait: a timed-out worker may still be grinding, and a
            # broken pool cannot be drained.
            pool.shutdown(wait=False, cancel_futures=True)

        escalated: List[_ShardTask] = []
        for task in retry_next:
            if task.attempt <= retries:
                report.retries += 1
                escalated.append(task)
                continue
            # Retries exhausted: re-split, fall back in-process, or give up.
            if resplit and task.indices.size > 1:
                report.resplits += 1
                halves = np.array_split(task.indices, 2)
                escalated.extend(
                    _ShardTask(path=task.path + (j,), indices=h)
                    for j, h in enumerate(halves)
                )
                continue
            if in_process_fallback:
                report.in_process += 1
                done[task.path] = _integrate_shard(
                    compiled, state.op_index, state.tensor[task.indices],
                    state.bits[task.indices], state.live, prune_tol,
                    max_block_bytes,
                )
                continue
            mass = _shard_mass(state.tensor[task.indices], state.live)
            raise PatternError(
                f"shard {_path_name(task.path)} of the supervised frontier "
                f"integration failed {task.attempt} times and recovery is "
                f"exhausted; the shard holds {task.indices.size} of {b} "
                f"frontier branches carrying probability mass {mass:.6g}. "
                f"Raise retries= (now {retries}), set shard_timeout= "
                f"higher, or enable resplit=/in_process_fallback="
            )
        tasks = escalated
        if tasks:
            delay = min(backoff * (2 ** round_idx), 2.0)
            if delay > 0:
                time.sleep(delay)
        round_idx += 1

    acc: Optional[np.ndarray] = None
    peaks = 0
    dropped = state.dropped
    for path in sorted(done):
        part, peak, drop = done[path]
        acc = part if acc is None else acc + part
        peaks += peak
        dropped += drop
    branches = max(state.peak, peaks)
    return SupervisedDensityRun(
        **_finish_fields(backend, compiled, acc, branches, dropped),
        supervision=report,
    )


def _path_name(path: Tuple[int, ...]) -> str:
    return ".".join(str(p) for p in path)


def _fail(
    task: _ShardTask,
    retry_next: List[_ShardTask],
    report: SupervisionReport,
    code: str,
    why: str,
    state: _FrontierState,
    retries: int,
    resplit: bool,
) -> None:
    """Record one shard failure and queue the task's next attempt."""
    mass = _shard_mass(state.tensor[task.indices], state.live)
    action = (
        "retrying"
        if task.attempt < retries
        else (
            "re-splitting" if resplit and task.indices.size > 1
            else "escalating"
        )
    )
    report.events.append(
        Diagnostic(
            code=code,
            severity=Severity.WARNING,
            message=(
                f"shard {_path_name(task.path)} "
                f"({task.indices.size} branches, mass {mass:.6g}, "
                f"attempt {task.attempt}) failed: {why}; {action}"
            ),
        )
    )
    retry_next.append(
        _ShardTask(path=task.path, indices=task.indices, attempt=task.attempt + 1)
    )


def _finish_fields(
    backend, compiled: CompiledPattern, acc: np.ndarray, branches: int,
    dropped: float,
) -> dict:
    """The :class:`DensityRun` constructor fields of a finished
    integration, via the density backend's own finisher so normalization
    and trace accounting stay identical to the unsupervised path."""
    run = backend._finish_run(compiled, acc, branches, dropped)
    return dict(
        rho=run.rho, branches=run.branches, trace=run.trace,
        dropped_weight=run.dropped_weight,
    )
