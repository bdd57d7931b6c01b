"""Static resource estimation over the compiled-pattern IR.

:func:`estimate_compiled` walks a
:class:`~repro.mbqc.compile.CompiledPattern` once — no amplitudes, no
simulation — and returns a :class:`ResourceEstimate`: the peak per-shot
bytes of every registered engine, the exact-integration branch bound,
and the shot-chunk sizes a byte budget implies (the PR 5 chunking
formula ``chunk = budget // per_shot_bytes``, clamped to 1).

Per-engine byte models come from the backend registry: any registered
engine exposing a ``bytes_per_shot(compiled)`` hook contributes a row
(:func:`repro.mbqc.backend.available_backends` names them), so a newly
registered engine appears in estimates, reports, and the R101 budget
gate without touching this module.  The built-in models:
``16 · 2^max_live`` dense amplitudes (statevector), ``16 · 4^max_live``
(density, with ~2x transient kernel temporaries), ``4·n² + 2·n`` tableau
bytes over ``n = total_nodes`` (stabilizer branch runs; the bit-packed
batched sampler is strictly cheaper), and the bonded ``2 · n · chi² · 16``
estimate (mps).

Two branch bounds reproduce the density engine's integration costs, both
derived from one :func:`repro.mbqc.compile.signal_liveness` pass:
``branch_bound`` is the raw leaf count of a branch-by-branch enumeration
(dead records merged by partial trace at cost 1, live records a factor 2,
and 4 when a readout flip makes the recorded bit differ from the projected
one), and
``merged_branch_bound`` is the frontier integrator's peak width — at most
``2^rank`` distinguishable future-read parity patterns at any measurement,
usually far below the raw bound (readout flips do not enter it at all).

:func:`repro.mbqc.backend.select_backend` consults this estimate to emit
an actionable ``R101`` diagnostic *before* committing to an allocation
that would OOM; ``repro lint`` prints the full report.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import List, Tuple

from repro.mbqc.compile import (
    ChannelOp,
    CompiledPattern,
    MeasureOp,
    PrepOp,
    signal_liveness,
)

#: Branch bounds beyond this are reported as "> cap" — the tree is far past
#: any exact integration anyway (cf. DENSITY_MAX_BRANCHES = 2^18).
BRANCH_BOUND_CAP = 1 << 62


def format_bytes(n: int) -> str:
    """Human-readable byte count (binary units)."""
    size = float(n)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB", "PiB"):
        if size < 1024.0 or unit == "PiB":
            if unit == "B":
                return f"{int(size)} {unit}"
            return f"{size:.1f} {unit}"
        size /= 1024.0
    return f"{n} B"  # pragma: no cover - unreachable


@dataclass(frozen=True)
class ResourceEstimate:
    """Static per-backend resource footprint of one compiled pattern."""

    max_live: int
    total_nodes: int
    n_inputs: int
    n_outputs: int
    n_measured: int
    n_ops: int
    n_channels: int
    has_noise: bool
    is_clifford: bool
    has_non_pauli_channel: bool
    statevector_bytes_per_shot: int
    density_bytes_per_shot: int
    tableau_bytes_per_shot: int
    branch_bound: int
    """Raw exact-integration leaf count of a branch-by-branch enumeration
    (dead records merged, readout flips quadrupling live measurements),
    capped at :data:`BRANCH_BOUND_CAP`."""
    branch_bound_capped: bool
    merged_branch_bound: int
    """Peak frontier width of the frontier integrator after
    live-parity merging — ``DensityRun.branches`` equals it exactly on
    noiseless patterns.  Also capped at :data:`BRANCH_BOUND_CAP`."""
    merged_branch_bound_capped: bool
    engine_bytes: Tuple[Tuple[str, int, str], ...] = ()
    """``(engine_name, bytes_per_shot, note)`` rows gathered from every
    registered backend exposing the ``bytes_per_shot(compiled)`` hook —
    the single source for :meth:`bytes_per_shot`, :meth:`format`, and the
    R101 budget gate.  Engines without the hook simply contribute no row
    (and :meth:`bytes_per_shot` raises for them)."""

    def engine_row(self, backend: str) -> Tuple[str, int, str]:
        """The ``(name, bytes, note)`` row for one registered engine."""
        for row in self._rows():
            if row[0] == backend:
                return row
        known = ", ".join(row[0] for row in self._rows())
        raise ValueError(
            f"no byte model for backend {backend!r}; known: {known}"
        )

    def _rows(self) -> Tuple[Tuple[str, int, str], ...]:
        """Engine rows, falling back to the built-in trio for estimates
        constructed by hand without ``engine_bytes``."""
        if self.engine_bytes:
            return self.engine_bytes
        return (
            ("density", self.density_bytes_per_shot,
             f"4^{self.max_live} amplitudes"),
            ("stabilizer", self.tableau_bytes_per_shot,
             f"{self.total_nodes}-node scalar tableau"),
            ("statevector", self.statevector_bytes_per_shot,
             f"2^{self.max_live} amplitudes"),
        )

    def bytes_per_shot(self, backend: str) -> int:
        """Peak resident bytes one shot/batch element costs on ``backend``
        (keyed by registered engine name)."""
        return self.engine_row(backend)[1]

    def peak_bytes(self, backend: str, n_shots: int = 1) -> int:
        """Peak resident bytes of an ``n_shots``-element batch."""
        return self.bytes_per_shot(backend) * max(1, int(n_shots))

    def chunk_shots(self, backend: str, budget: int) -> int:
        """Largest shot chunk whose batch block fits ``budget`` bytes —
        the PR 5 byte-budget chunking formula, clamped to 1 so a single
        shot always proceeds."""
        return max(1, int(budget) // max(1, self.bytes_per_shot(backend)))

    def format(self, budget: int = 1 << 26) -> str:
        """The resource report as an aligned text block (``repro lint``)."""
        bb = (
            f"> {BRANCH_BOUND_CAP}" if self.branch_bound_capped
            else str(self.branch_bound)
        )
        mb = (
            f"> {BRANCH_BOUND_CAP}" if self.merged_branch_bound_capped
            else str(self.merged_branch_bound)
        )
        flags: List[str] = []
        if self.is_clifford:
            flags.append("clifford")
        if self.has_noise:
            flags.append("noisy")
        if self.has_non_pauli_channel:
            flags.append("non-pauli-channels")
        rows = [
            ("pattern", f"{self.total_nodes} nodes, {self.n_measured} measured, "
                        f"{self.n_inputs} in / {self.n_outputs} out, "
                        f"{self.n_ops} ops ({self.n_channels} channels)"
                        + (f" [{', '.join(flags)}]" if flags else "")),
            ("peak live", f"{self.max_live} qubits"),
        ]
        for name, nbytes, note in self._rows():
            detail = f" ({note})" if note else ""
            rows.append((name, f"{format_bytes(nbytes)}/shot{detail}"))
        rows.append(("exact branches", f"{mb} merged frontier (raw {bb})"))
        rows.append((
            f"chunk @{format_bytes(budget)}",
            ", ".join(
                f"{name}={self.chunk_shots(name, budget)}"
                for name, _, _ in self._rows()
            ),
        ))
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


def _registry_engine_bytes(
    compiled: CompiledPattern,
) -> Tuple[Tuple[str, int, str], ...]:
    """One ``(name, bytes_per_shot, note)`` row per registered engine that
    exposes the ``bytes_per_shot(compiled)`` hook.  Imported lazily (and
    dynamically — the engine modules predate typing) so the analysis layer
    stays importable without pulling them in at module-import time."""
    _backends = importlib.import_module("repro.mbqc.backend")

    rows: List[Tuple[str, int, str]] = []
    for name in _backends.available_backends():
        engine = _backends.get_backend(name)
        hook = getattr(engine, "bytes_per_shot", None)
        if hook is None:
            continue
        rows.append(
            (name, int(hook(compiled)), getattr(engine, "byte_model_note", ""))
        )
    return tuple(rows)


def estimate_compiled(compiled: CompiledPattern) -> ResourceEstimate:
    """Estimate ``compiled``'s execution footprint without running it."""
    ops = compiled.ops
    n_prep = sum(1 for op in ops if type(op) is PrepOp)
    n_channels = sum(1 for op in ops if type(op) is ChannelOp)
    total_nodes = compiled.num_inputs + n_prep
    m = compiled.max_live

    lv = signal_liveness(ops)
    branch_bound = 1
    capped = False
    for i, op in enumerate(ops):
        if type(op) is MeasureOp and not lv.dead[i]:
            branch_bound *= 4 if op.flip_p > 0.0 else 2
            if branch_bound > BRANCH_BOUND_CAP:
                branch_bound = BRANCH_BOUND_CAP
                capped = True
                break
    merged = lv.merged_bound
    merged_capped = merged > BRANCH_BOUND_CAP
    if merged_capped:
        merged = BRANCH_BOUND_CAP

    return ResourceEstimate(
        max_live=m,
        total_nodes=total_nodes,
        n_inputs=compiled.num_inputs,
        n_outputs=compiled.num_outputs,
        n_measured=len(compiled.measured_nodes),
        n_ops=len(ops),
        n_channels=n_channels,
        has_noise=compiled.has_noise,
        is_clifford=compiled.is_clifford,
        has_non_pauli_channel=compiled.has_non_pauli_channel,
        statevector_bytes_per_shot=16 * (1 << m),
        density_bytes_per_shot=16 * (1 << (2 * m)),
        tableau_bytes_per_shot=4 * total_nodes * total_nodes + 2 * total_nodes,
        branch_bound=branch_bound,
        branch_bound_capped=capped,
        merged_branch_bound=merged,
        merged_branch_bound_capped=merged_capped,
        engine_bytes=_registry_engine_bytes(compiled),
    )


def budget_diagnostic_message(
    est: ResourceEstimate, backend: str, budget: int, compiled=None
) -> str:
    """The actionable R101 message ``select_backend`` raises instead of
    letting a ``2^max_live`` (or ``4^max_live``) allocation OOM.

    Every *other* registered engine whose estimated per-shot bytes fit
    ``budget`` gets its own option line; pass the ``compiled`` pattern to
    additionally filter those suggestions through each engine's
    ``supports`` check (engines that cannot execute the pattern are then
    not suggested)."""
    per = est.bytes_per_shot(backend)
    lines = [
        f"R101: backend {backend!r} needs {format_bytes(per)} per batch "
        f"element for this pattern (peak live register {est.max_live} "
        f"qubits), over the {format_bytes(budget)} budget.",
        "Options:",
    ]
    if est.is_clifford and backend != "stabilizer":
        lines.append(
            f"  - the pattern is Clifford: the 'stabilizer' engine needs "
            f"only {format_bytes(est.tableau_bytes_per_shot)} per shot"
        )
    if backend == "density" and not est.has_non_pauli_channel:
        lines.append(
            "  - every lowered channel is a Pauli mixture: trajectory "
            "engines can sample this program"
        )
    for name, nbytes, _ in est._rows():
        if name == backend or nbytes > budget:
            continue
        if compiled is not None:
            try:
                _backends = importlib.import_module("repro.mbqc.backend")
                if not _backends.get_backend(name).supports(compiled):
                    continue
            except Exception:
                pass
        lines.append(
            f"  - the {name!r} engine fits at {format_bytes(nbytes)} per shot"
        )
    lines.append(
        "  - raise the budget via select_backend(..., max_bytes=...) or "
        "disable the check with max_bytes=0"
    )
    lines.append(
        "  - inspect the full estimate with repro.analysis.estimate_compiled "
        "or `repro lint`"
    )
    return "\n".join(lines)


def cache_diagnostics(stats: object) -> Tuple["Diagnostic", ...]:
    """R106 rows for a serving-layer compiled-pattern cache.

    ``stats`` is a :class:`repro.serve.cache.CacheStats` (structurally: an
    object with ``memory_hits``/``disk_hits``/``misses``/``stores``/
    ``poisoned`` counters).  Hit/miss traffic is an INFO row; poisoned
    entries get their own WARNING row — corruption is self-healing (the
    entry is recompiled and re-stored) but worth surfacing, since it
    usually means a torn write or a stray process scribbling on the
    cache directory.
    """
    from repro.analysis.diagnostics import Diagnostic, Severity

    memory_hits = int(getattr(stats, "memory_hits", 0))
    disk_hits = int(getattr(stats, "disk_hits", 0))
    misses = int(getattr(stats, "misses", 0))
    stores = int(getattr(stats, "stores", 0))
    poisoned = int(getattr(stats, "poisoned", 0))
    total = memory_hits + disk_hits + misses
    rows: List["Diagnostic"] = []
    if total:
        hit_rate = (memory_hits + disk_hits) / total
        rows.append(
            Diagnostic(
                code="R106",
                severity=Severity.INFO,
                message=(
                    f"pattern cache: {memory_hits + disk_hits}/{total} hits "
                    f"({hit_rate:.0%}; {memory_hits} memory, {disk_hits} disk), "
                    f"{misses} compiles, {stores} stores"
                ),
            )
        )
    if poisoned:
        rows.append(
            Diagnostic(
                code="R106",
                severity=Severity.WARNING,
                message=(
                    f"pattern cache: {poisoned} poisoned entr"
                    f"{'y' if poisoned == 1 else 'ies'} detected and "
                    f"recompiled (torn write or external corruption; "
                    f"entries were re-stored)"
                ),
            )
        )
    return tuple(rows)
